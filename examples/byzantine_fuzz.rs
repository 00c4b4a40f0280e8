//! Byzantine adversaries meeting the fuzzer's checkers.
//!
//! Two demonstrations on opposite sides of the `f` line:
//!
//! 1. **Tolerated coalition** — a 16-validator committee with the corpus's
//!    mixed five-adversary coalition (equivocation, vote amnesia,
//!    censorship, delayed release — `f = 5`). Every honest-validator
//!    invariant, including fairness for the censored victim, must hold:
//!    the paper's §4/§5 claims quantify over honest validators as long as
//!    at most `f` are Byzantine.
//! 2. **Over-`f` censorship** — four validators, two of them refusing to
//!    vote for (or forward) validator 0's blocks. Safety still holds, no
//!    message is invalid, commits keep flowing — yet the victim's batches
//!    silently vanish from the total order. The fairness checker is what
//!    makes that visible.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example byzantine_fuzz
//! ```

use narwhal_tusk::bench::fuzz::{byz_assignment, corpus_params, fuzz_params, run_schedule_byz};
use narwhal_tusk::bench::{AdversaryKind, System};
use narwhal_tusk::simnet::Schedule;
use narwhal_tusk::types::ValidatorId;

fn main() {
    // 1. A within-f mixed coalition on 16 validators: checkers stay green.
    let params = corpus_params(2); // seed % 3 == 2 -> 16 validators
    let coalition = byz_assignment(2, params.nodes);
    println!("16 validators, coalition:");
    for (v, kind) in &coalition {
        println!("  validator {} runs {}", v.0, kind.name());
    }
    let outcome = run_schedule_byz(System::Bullshark, &params, &Schedule::default(), &coalition);
    println!(
        "  -> {} commit events, {} violations (expect 0)\n",
        outcome.commit_events,
        outcome.violations.len()
    );
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);

    // 2. An over-f censor pair on 4 validators: fairness fires.
    let params = fuzz_params(11);
    let censors = [
        (
            ValidatorId(2),
            AdversaryKind::Censor {
                victim: ValidatorId(0),
            },
        ),
        (
            ValidatorId(3),
            AdversaryKind::Censor {
                victim: ValidatorId(0),
            },
        ),
    ];
    println!("4 validators, censor pair against validator 0:");
    let outcome = run_schedule_byz(System::Bullshark, &params, &Schedule::default(), &censors);
    for v in &outcome.violations {
        println!("  {v}");
    }
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.checker == narwhal_tusk::bench::Checker::Fairness),
        "two censors exceed f: the victim must be visibly starved"
    );
    println!("  -> the fairness checker caught the censorship");
}
