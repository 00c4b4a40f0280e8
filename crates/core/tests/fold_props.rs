//! Soundness of the primary's verified-block memo, through its public
//! surface.
//!
//! A primary remembers which peer blocks it has verified and, when such a
//! block comes back inside a certificate, checks the votes alone
//! (`synchronizer.rs`). The contract: the memo is invisible. Whatever block
//! the primary saw first, and whatever is wrong with the certificate that
//! follows — a twin of that block, the same block under another signature,
//! bad votes — the certificate enters the DAG exactly when a validator that
//! has seen nothing (`Certificate::verify`) accepts it. So everything this
//! primary stores, and later serves to a peer that pulls it, passes that
//! peer's cold check.

use narwhal::{NarwhalMsg, NoConsensus, NoExt, NodeBuilder, Primary};
use nt_crypto::{CoinShare, Digest, Hashable, KeyPair, Scheme};
use nt_network::{Actor, Context, Effect};
use nt_types::{Certificate, Committee, Header, ValidatorId, Vote};
use proptest::prelude::*;

type Msg = NarwhalMsg<NoExt>;

/// Which block the certificate embeds, relative to the block `H` that
/// validator 1 broadcast.
#[derive(Clone, Copy, Debug)]
enum Embedded {
    /// `H` itself.
    Exact,
    /// An equivocating twin: validly signed, another digest.
    Twin,
    /// `H`'s fields under a signature by another validator's key.
    Resigned,
    /// `H`'s fields under a corrupted signature.
    Garbage,
}

/// What is wrong with the votes.
#[derive(Clone, Copy, Debug)]
enum Votes {
    Valid,
    /// The `k`-th vote's signature is corrupted.
    Forged(usize),
    SubQuorum,
    DuplicateVoter,
}

fn embedded() -> impl Strategy<Value = Embedded> {
    prop_oneof![
        3 => Just(Embedded::Exact),
        1 => Just(Embedded::Twin),
        1 => Just(Embedded::Resigned),
        1 => Just(Embedded::Garbage),
    ]
}

fn votes() -> impl Strategy<Value = Votes> {
    prop_oneof![
        3 => Just(Votes::Valid),
        1 => (0usize..3).prop_map(Votes::Forged),
        1 => Just(Votes::SubQuorum),
        1 => Just(Votes::DuplicateVoter),
    ]
}

fn started(committee: &Committee, kps: &[KeyPair]) -> Primary<NoConsensus> {
    let mut primary = NodeBuilder::new(committee.clone(), 0)
        .keypair(kps[0].clone())
        .build_primary(NoConsensus);
    primary.on_start(&mut Context::new(0, 0));
    primary
}

fn deliver(primary: &mut Primary<NoConsensus>, msg: Msg) -> Vec<Msg> {
    let mut ctx = Context::new(1_000_000, 0);
    primary.on_message(1, msg, &mut ctx);
    ctx.drain()
        .into_iter()
        .filter_map(|effect| match effect {
            Effect::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn a_certificate_enters_the_dag_iff_a_cold_verifier_accepts_it(
        seen_first in any::<bool>(),
        with_share in any::<bool>(),
        embedded in embedded(),
        votes in votes(),
        ed25519 in any::<bool>(),
    ) {
        let scheme = if ed25519 { Scheme::Ed25519 } else { Scheme::Insecure };
        let (committee, kps) = Committee::deterministic(4, 1, scheme);
        let mut primary = started(&committee, &kps);
        let parents: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        let share = with_share.then(|| CoinShare::new(&kps[1], 1));
        let header = Header::new(&kps[1], ValidatorId(1), 1, vec![], parents, share);
        if seen_first {
            // The primary verifies H, remembers it, and votes for it.
            let out = deliver(&mut primary, NarwhalMsg::Header(header.clone()));
            prop_assert!(out.iter().any(|m| matches!(m, NarwhalMsg::Vote(_))));
        }

        let mut inner = match embedded {
            Embedded::Exact | Embedded::Resigned | Embedded::Garbage => header.clone(),
            Embedded::Twin => header.twin(&kps[1]),
        };
        match embedded {
            Embedded::Resigned => inner.signature = kps[2].sign_digest(&inner.digest()),
            Embedded::Garbage => inner.signature.0[17] ^= 0x20,
            Embedded::Exact | Embedded::Twin => {}
        }
        let digest = inner.digest();
        let signed: Vec<Vote> = (1..4)
            .map(|v| Vote::new(&kps[v], ValidatorId(v as u32), digest, 1, ValidatorId(1)))
            .collect();
        let mut cert = Certificate::from_votes(&committee, inner, &signed).expect("quorum");
        match votes {
            Votes::Valid => {}
            Votes::Forged(k) => cert.votes[k].1 .0[3] ^= 1,
            Votes::SubQuorum => cert.votes.truncate(2),
            Votes::DuplicateVoter => cert.votes[2].0 = cert.votes[1].0,
        }

        let cold = cert.verify(&committee);
        deliver(&mut primary, NarwhalMsg::Certificate(cert.clone()));
        prop_assert_eq!(
            primary.dag().contains_digest(&digest),
            cold.is_ok(),
            "seen_first={} {:?} {:?}: cold verdict {:?}",
            seen_first, embedded, votes, cold
        );

        // A peer pulls it: what we serve is what we stored, and it passes
        // the peer's own check.
        let served = deliver(&mut primary, NarwhalMsg::CertRequest { digests: vec![digest] });
        let served: Vec<&Certificate> = served
            .iter()
            .filter_map(|m| match m {
                NarwhalMsg::CertResponse { certs } => Some(certs),
                _ => None,
            })
            .flatten()
            .collect();
        prop_assert_eq!(served.len(), usize::from(cold.is_ok()));
        for cert in served {
            prop_assert_eq!(cert.verify(&committee), Ok(()));
        }

        // The same certificates arriving as a pull response take the same
        // decision (fresh primary, same history).
        let mut puller = started(&committee, &kps);
        if seen_first {
            deliver(&mut puller, NarwhalMsg::Header(header));
        }
        deliver(&mut puller, NarwhalMsg::CertResponse { certs: vec![cert] });
        prop_assert_eq!(puller.dag().contains_digest(&digest), cold.is_ok());
    }
}
