//! Lifecycle of the in-process socket committee: eight hosts on localhost
//! TCP come up, commit, and leave nothing behind — however their owner
//! lets go of them. (What they commit is checked by the root package's
//! `tests/loopback_committee.rs`.)

use narwhal::NarwhalConfig;
use nt_crypto::Scheme;
use nt_runtime::{AppKind, CommitteeConfig, LoopbackCommittee, SystemKind};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs a committee until every validator has committed, hands it to
/// `finish`, and checks that every host's listener is closed afterwards:
/// the accept thread owns it, `Transport::shutdown` joins that thread, and
/// a driver thread only returns once its transport has shut down.
fn committee_lifetime(finish: fn(LoopbackCommittee)) -> std::thread::Result<()> {
    let narwhal = NarwhalConfig::default();
    let (config, keys) =
        CommitteeConfig::loopback(4, Scheme::Insecure, SystemKind::Bullshark, narwhal)
            .expect("loopback ports");
    let hosts = config.all_hosts();
    let committee = LoopbackCommittee::spawn(config, &keys, |_, _| (None, AppKind::None))
        .expect("every host binds its reserved port");
    for (v, stream) in committee.commits().iter().enumerate() {
        let first = stream.next_timeout(Duration::from_secs(60));
        assert_eq!(first.map(|e| e.sequence), Some(1), "validator {v}");
    }
    let outcome = catch_unwind(AssertUnwindSafe(move || finish(committee)));
    for (id, addr) in hosts {
        TcpListener::bind(addr.socket_addr())
            .unwrap_or_else(|e| panic!("host {id} still holds {addr}: {e}"));
    }
    outcome
}

#[test]
fn committees_start_and_stop_back_to_back_in_one_process() {
    let unwound = committee_lifetime(|_committee| panic!("between spawn and stop"));
    assert!(unwound.is_err(), "the first owner panicked");
    let stopped = committee_lifetime(|committee| committee.stop());
    assert!(stopped.is_ok());
}
