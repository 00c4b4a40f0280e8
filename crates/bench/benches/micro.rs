//! Criterion micro-benchmarks for the primitives feeding the CPU cost
//! model (§6): hashing, signatures, the wire codec (owned and zero-copy
//! paths), amortized certificate verification, and DAG operations.
//!
//! Under `-- --test` (the CI smoke profile) every bench body runs once,
//! and the single-vs-batch verification pair additionally asserts that the
//! combined-equation batch path beats per-signature verification by at
//! least 2x on a 2f + 1 vote set.

use criterion::{criterion_group, criterion_main, Criterion};
use narwhal::Dag;
use nt_codec::{
    decode_borrowed_from_slice, decode_from_slice, encode_to_vec, Envelope, EnvelopeRef,
};
use nt_crypto::{
    sha256, sha512, verify_batch, verify_each, BatchItem, Digest, Hashable, KeyPair, Scheme,
};
use nt_types::{
    Batch, BatchRef, Certificate, Committee, Header, Transaction, TxSample, ValidatorId, Vote,
    WorkerId,
};
use std::hint::black_box;

fn bench_hashing(c: &mut Criterion) {
    let small = vec![0xabu8; 512];
    let batch = vec![0xabu8; 500_000];
    c.bench_function("sha256_512B_tx", |b| b.iter(|| sha256(black_box(&small))));
    c.bench_function("sha256_500KB_batch", |b| {
        b.iter(|| sha256(black_box(&batch)))
    });
    c.bench_function("sha512_512B", |b| b.iter(|| sha512(black_box(&small))));
}

fn bench_signatures(c: &mut Criterion) {
    let kp = KeyPair::for_index(Scheme::Ed25519, 0);
    let msg = Digest::of(b"block digest");
    let sig = kp.sign_digest(&msg);
    c.bench_function("ed25519_sign", |b| {
        b.iter(|| kp.sign_digest(black_box(&msg)))
    });
    c.bench_function("ed25519_verify", |b| {
        b.iter(|| {
            kp.public()
                .verify_digest(Scheme::Ed25519, black_box(&msg), &sig)
        })
    });
}

fn sample_header(committee: &Committee, kps: &[KeyPair]) -> Header {
    let parents: Vec<Digest> = Certificate::genesis_set(committee)
        .iter()
        .map(Certificate::header_digest)
        .collect();
    Header::new(
        &kps[0],
        ValidatorId(0),
        1,
        (0..24u64)
            .map(|i| (Digest::of(&i.to_le_bytes()), WorkerId(0)))
            .collect(),
        parents,
        None,
    )
}

fn bench_codec(c: &mut Criterion) {
    let (committee, kps) = Committee::deterministic(10, 1, Scheme::Insecure);
    let header = sample_header(&committee, &kps);
    let bytes = encode_to_vec(&header);
    c.bench_function("encode_header", |b| {
        b.iter(|| encode_to_vec(black_box(&header)))
    });
    c.bench_function("decode_header", |b| {
        b.iter(|| decode_from_slice::<Header>(black_box(&bytes)).expect("valid"))
    });
    c.bench_function("header_digest", |b| b.iter(|| black_box(&header).digest()));

    // Batch round-trip: the worker hot path. The owned decode clones every
    // transaction out of the wire buffer; the borrowed decode yields
    // `TransactionRef` slices into it (the zero-copy ingress path).
    let txs: Vec<Transaction> = (0..976).map(|i| Transaction::filler(i, 0, 512)).collect();
    let samples: Vec<TxSample> = (0..16)
        .map(|i| TxSample {
            id: i,
            submit_ns: i * 1_000,
        })
        .collect();
    let batch = Batch::new(ValidatorId(0), WorkerId(0), 1, txs, samples);
    let batch_bytes = encode_to_vec(&batch);
    c.bench_function("encode_batch_500KB", |b| {
        b.iter(|| encode_to_vec(black_box(&batch)))
    });
    c.bench_function("decode_batch_owned_500KB", |b| {
        b.iter(|| decode_from_slice::<Batch>(black_box(&batch_bytes)).expect("valid"))
    });
    c.bench_function("decode_batch_borrowed_500KB", |b| {
        b.iter(|| decode_borrowed_from_slice::<BatchRef>(black_box(&batch_bytes)).expect("valid"))
    });

    // Envelope framing: every runtime message crosses this boundary, so the
    // owned decode used to copy each payload once before dispatch.
    let envelope = Envelope {
        version: nt_codec::PROTOCOL_VERSION,
        sender: 3,
        payload: batch_bytes.clone(),
    };
    let env_bytes = encode_to_vec(&envelope);
    c.bench_function("decode_envelope_owned", |b| {
        b.iter(|| decode_from_slice::<Envelope>(black_box(&env_bytes)).expect("valid"))
    });
    c.bench_function("decode_envelope_borrowed", |b| {
        b.iter(|| EnvelopeRef::parse(black_box(&env_bytes)).expect("valid"))
    });
}

/// Builds a 2f + 1 vote set over one block digest, signed for real.
fn vote_set(kps: &[KeyPair], quorum: usize) -> (Digest, Vec<(KeyPair, nt_crypto::Signature)>) {
    let digest = Digest::of(b"header digest under vote");
    let votes = kps
        .iter()
        .take(quorum)
        .map(|kp| (kp.clone(), kp.sign_digest(&digest)))
        .collect();
    (digest, votes)
}

fn bench_cert_verify(c: &mut Criterion) {
    // n = 10, f = 3: a certificate carries 2f + 1 = 7 signatures over the
    // same header digest — exactly the shape `verify_batch` amortizes.
    let kps: Vec<KeyPair> = (0..10)
        .map(|i| KeyPair::for_index(Scheme::Ed25519, i))
        .collect();
    let (digest, votes) = vote_set(&kps, 7);
    let items: Vec<BatchItem> = votes
        .iter()
        .map(|(kp, sig)| BatchItem {
            public: kp.public(),
            message: digest.as_bytes(),
            signature: *sig,
        })
        .collect();
    c.bench_function("cert_verify_single_2f1", |b| {
        b.iter(|| verify_each(Scheme::Ed25519, black_box(&items)).expect("valid"))
    });
    c.bench_function("cert_verify_batch_2f1", |b| {
        b.iter(|| verify_batch(Scheme::Ed25519, black_box(&items)).expect("valid"))
    });

    // CI smoke: under `-- --test` criterion runs each body once without
    // timing, so measure the pair by hand and pin the amortization claim —
    // batch verification of a 2f + 1 set must be at least 2x faster than
    // checking the same signatures one by one. The verdict is the median
    // ratio over interleaved samples: a neighbour's burst on a shared CI
    // box lands on one sample (and on both halves of it), not on the gate.
    if std::env::args().any(|a| a == "--test") {
        const SAMPLES: usize = 7;
        let reps = 20;
        let time = |f: &dyn Fn()| {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64()
        };
        // Warm both paths once before timing.
        verify_each(Scheme::Ed25519, &items).expect("valid");
        verify_batch(Scheme::Ed25519, &items).expect("valid");
        let mut samples: Vec<(f64, f64)> = (0..SAMPLES)
            .map(|_| {
                let t_single = time(&|| {
                    verify_each(Scheme::Ed25519, black_box(&items)).expect("valid");
                });
                let t_batch = time(&|| {
                    verify_batch(Scheme::Ed25519, black_box(&items)).expect("valid");
                });
                (t_single, t_batch)
            })
            .collect();
        samples.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
        let (t_single, t_batch) = samples[SAMPLES / 2];
        println!(
            "smoke: cert verify 2f+1 single {:.3}ms batch {:.3}ms ({:.2}x, median of {SAMPLES}; \
             range {:.2}x-{:.2}x)",
            t_single * 1e3 / reps as f64,
            t_batch * 1e3 / reps as f64,
            t_single / t_batch,
            samples[0].0 / samples[0].1,
            samples[SAMPLES - 1].0 / samples[SAMPLES - 1].1,
        );
        assert!(
            t_single >= 2.0 * t_batch,
            "batch verification must amortize >= 2x over single on a 2f+1 \
             set: single {t_single:.4}s vs batch {t_batch:.4}s"
        );
    }
}

/// Builds `rounds` rounds of a fully connected DAG over `committee`,
/// returning the certificates in insertion order (round-major).
fn full_dag_certs(committee: &Committee, kps: &[KeyPair], rounds: u64) -> Vec<Certificate> {
    let mut dag = Dag::new();
    dag.insert_genesis(Certificate::genesis_set(committee));
    let mut certs = Vec::new();
    for r in 1..=rounds {
        let parents: Vec<Digest> = dag
            .round_certs(r - 1)
            .map(Certificate::header_digest)
            .collect();
        for (i, kp) in kps.iter().enumerate() {
            let header = Header::new(kp, ValidatorId(i as u32), r, vec![], parents.clone(), None);
            let votes: Vec<Vote> = kps
                .iter()
                .enumerate()
                .map(|(j, vkp)| {
                    Vote::new(
                        vkp,
                        ValidatorId(j as u32),
                        header.digest(),
                        r,
                        header.author,
                    )
                })
                .collect();
            let cert = Certificate::from_votes(committee, header, &votes).expect("quorum");
            dag.insert(cert.clone());
            certs.push(cert);
        }
    }
    certs
}

fn bench_dag(c: &mut Criterion) {
    let (committee, kps) = Committee::deterministic(10, 1, Scheme::Insecure);
    // Build a 20-round fully connected DAG.
    let mut dag = Dag::new();
    dag.insert_genesis(Certificate::genesis_set(&committee));
    for cert in full_dag_certs(&committee, &kps, 20) {
        dag.insert(cert);
    }
    let top = dag.get(20, ValidatorId(0)).expect("present").clone();
    let bottom = dag.get(1, ValidatorId(5)).expect("present").clone();
    let leader = dag.get(9, ValidatorId(3)).expect("present").clone();
    c.bench_function("dag_path_exists_19_rounds", |b| {
        b.iter(|| dag.path_exists(black_box(&top), black_box(&bottom)))
    });
    c.bench_function("dag_support_count", |b| {
        b.iter(|| dag.support(black_box(&leader.header_digest()), 9))
    });
    c.bench_function("dag_collect_history_full", |b| {
        let ordered = std::collections::HashSet::new();
        b.iter(|| {
            dag.collect_history(black_box(&top), &ordered)
                .expect("complete")
        })
    });

    // Fig-7 scale: one gc_depth window (50 rounds) of a 10-validator DAG —
    // the arena's steady-state working set. Insert cost covers digest
    // interning and parent-index resolution; the history walk descends the
    // full window from the newest anchor.
    let certs_50 = full_dag_certs(&committee, &kps, 50);
    let genesis = Certificate::genesis_set(&committee);
    c.bench_function("dag_insert_50_rounds_n10", |b| {
        b.iter(|| {
            let mut fresh = Dag::new();
            fresh.insert_genesis(genesis.clone());
            for cert in &certs_50 {
                fresh.insert(black_box(cert.clone()));
            }
            fresh
        })
    });
    let mut deep = Dag::new();
    deep.insert_genesis(genesis.clone());
    for cert in &certs_50 {
        deep.insert(cert.clone());
    }
    let anchor = deep.get(50, ValidatorId(0)).expect("present").clone();
    c.bench_function("dag_collect_history_50_rounds_n10", |b| {
        let ordered = std::collections::HashSet::new();
        b.iter(|| {
            deep.collect_history(black_box(&anchor), &ordered)
                .expect("complete")
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hashing, bench_signatures, bench_codec, bench_cert_verify, bench_dag
}
criterion_main!(micro);
