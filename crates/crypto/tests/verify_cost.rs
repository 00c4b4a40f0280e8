//! The two cost inequalities the signature code exists for, measured.
//!
//! Speed is this crate's reason for batching and for prepared keys, so a
//! change that loses it must fail a test, not a dashboard. Both tests time
//! the slow and the fast way on the same input in interleaved samples and
//! judge the *median* ratio of seven: a neighbour's burst on a shared CI box
//! lands on one sample (and on both halves of it), not on the gate.
//!
//! Timing means nothing in a debug build: run with
//! `cargo test --release -p nt_crypto --test verify_cost`.

use nt_crypto::{
    verify_batch, verify_each, BatchItem, CoinShare, Digest, Hashable, KeyPair, Scheme,
};
use nt_types::{Certificate, Committee, Header, ValidatorId, Vote, WorkerId};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 7;
const REPS: usize = 20;

/// The median over [`SAMPLES`] interleaved samples of `slow / fast`, each
/// side timed over [`REPS`] calls, and a line saying so.
fn median_ratio(what: &str, slow: &dyn Fn(), fast: &dyn Fn()) -> f64 {
    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..REPS {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / REPS as f64
    };
    // Warm both paths (and the static tables) once before timing.
    slow();
    fast();
    let mut samples: Vec<(f64, f64)> = (0..SAMPLES).map(|_| (time(slow), time(fast))).collect();
    samples.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    let (t_slow, t_fast) = samples[SAMPLES / 2];
    println!(
        "{what}: {t_slow:.1} us against {t_fast:.1} us ({:.2}x, median of {SAMPLES}; range \
         {:.2}x-{:.2}x)",
        t_slow / t_fast,
        samples[0].0 / samples[0].1,
        samples[SAMPLES - 1].0 / samples[SAMPLES - 1].1,
    );
    t_slow / t_fast
}

/// n = 10, f = 3: a certificate's `2f + 1 = 7` signatures over one message
/// cost less as one combined equation than one by one. (The ratio was 2x
/// when a single verification was three times slower; a faster single path
/// shrinks it by design, and 1.25x is what must never be lost.)
#[test]
#[cfg_attr(debug_assertions, ignore = "timing: run with --release")]
fn a_batched_quorum_is_cheaper_than_its_signatures_one_by_one() {
    let digest = Digest::of(b"some header");
    let signed: Vec<(KeyPair, _)> = (0..7)
        .map(|i| KeyPair::for_index(Scheme::Ed25519, i))
        .map(|kp| {
            let signature = kp.sign_digest(&digest);
            (kp, signature)
        })
        .collect();
    let items: Vec<BatchItem> = signed
        .iter()
        .map(|(kp, signature)| BatchItem {
            public: kp.public(),
            message: digest.as_bytes(),
            signature: *signature,
        })
        .collect();
    let ratio = median_ratio(
        "2f+1 = 7 signatures, one by one against batched",
        &|| verify_each(Scheme::Ed25519, black_box(&items)).expect("valid"),
        &|| verify_batch(Scheme::Ed25519, black_box(&items)).expect("valid"),
    );
    assert!(
        ratio >= 1.25,
        "batch verification must amortize >= 1.25x over single on a 2f+1 set, got {ratio:.2}x"
    );
}

/// n = 4: a certificate whose block is already verified (the primary voted
/// for it) checks three votes; a cold one checks the block signature and
/// the coin share as well. The first must be cheaper.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing: run with --release")]
fn a_certificate_over_a_verified_header_is_cheaper_than_a_cold_one() {
    let (committee, kps) = Committee::deterministic(4, 1, Scheme::Ed25519);
    let parents: Vec<Digest> = Certificate::genesis_set(&committee)
        .iter()
        .map(Hashable::digest)
        .collect();
    let header = Header::new(
        &kps[0],
        ValidatorId(0),
        1,
        vec![(Digest::of(b"batch"), WorkerId(0))],
        parents,
        Some(CoinShare::new(&kps[0], 1)),
    );
    let votes: Vec<Vote> = (1..4)
        .map(|v| {
            Vote::new(
                &kps[v],
                ValidatorId(v as u32),
                header.digest(),
                1,
                header.author,
            )
        })
        .collect();
    assert_eq!(header.verify(&committee), Ok(()));
    let cert = Certificate::from_votes(&committee, header, &votes).expect("quorum");
    let ratio = median_ratio(
        "certificate at n = 4, cold against header already verified",
        &|| {
            black_box(&cert)
                .verify_given(&committee, false)
                .expect("valid")
        },
        &|| {
            black_box(&cert)
                .verify_given(&committee, true)
                .expect("valid")
        },
    );
    assert!(
        ratio >= 1.2,
        "a certificate over a verified header must be cheaper than a cold one, got {ratio:.2}x"
    );
}
