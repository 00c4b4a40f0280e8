//! Safety and recovery checkers for fuzzed fault schedules.
//!
//! The paper's correctness claims (§5: Tusk is safe under full asynchrony
//! and live under random faults; §6: durability via the per-validator
//! store) become machine-checkable invariants over a simulation run:
//!
//! - **Agreement**: all validators' committed sequences agree on their
//!   common prefix — no two validators ever order different blocks at the
//!   same position.
//! - **Total order**: per validator, one block per sequence number, one
//!   sequence number per block, and the sequence only rolls back at a
//!   restart (replaying a torn-off suffix of the *same* order is the one
//!   legal repeat — the store recovered a prefix of history, and the
//!   deterministic commit rule must re-derive identical positions).
//! - **Commit loss**: the sequence numbers a validator emits are gapless
//!   from 1 — nothing committed vanishes across GC or restarts.
//!
//! Snapshot state transfer adds one *licensed* discontinuity: a validator
//! that fell past the GC horizon installs a signed snapshot at checkpoint
//! sequence `I` and resumes emitting at `I + 1` without ever emitting the
//! skipped range. The install leaves a durable marker
//! ([`BlockStore::snapshot_installs`]); total-order and commit-loss accept
//! exactly the jumps and gaps a marker covers, and nothing else.
//! - **Batch exactly-once**: no batch digest is committed inside two
//!   different blocks (re-proposal after recovery must not double-commit
//!   transactions).
//! - **Catch-up**: once all faults clear, every validator's durable DAG
//!   frontier is within `gc_depth` of the most advanced peer.
//! - **Tail liveness**: every validator is still committing in the
//!   fault-free quiet tail of the run.
//! - **Fairness**: censorship resistance (§4's "performance under faults"
//!   argument made exact) — every honest validator whose dissemination the
//!   schedule never impaired keeps appearing in every honest validator's
//!   committed sequence, within [`FAIRNESS_WINDOW`] rounds of its tip. A
//!   coalition that refuses to vote for or forward one victim's blocks
//!   starves the victim's batches out of the total order without breaking
//!   any safety invariant; this checker is what catches it.
//!
//! Runs may include declared Byzantine validators ([`CheckInput::byzantine`],
//! wrapped in [`crate::Byzantine`] adversary actors). The paper's claims
//! quantify over *honest* validators only, so the per-validator checkers
//! skip Byzantine commit streams and stores entirely, and the cross-validator
//! checkers compare honest pairs only — an equivocator's own garbage output
//! is the attack, not a bug. Blocks are identified by `(round, author,
//! header digest)`: under equivocation `(round, author)` alone names two
//! different blocks, and a checker that conflated the twins would miss the
//! exact double-commits it exists to catch.
//!
//! A checker fires by returning a [`Violation`]; the `sim_fuzz` harness
//! prints the seed and schedule so any hit reproduces exactly.

use narwhal::BlockStore;
use nt_crypto::Digest;
use nt_network::{NodeId, Time, SEC};
use nt_simnet::{FaultEvent, Schedule};
use nt_storage::DynStore;
use nt_types::{CommitEvent, Committee, Round, ValidatorId};
use std::collections::BTreeMap;

/// Rounds an eligible honest author may trail an honest validator's
/// committed tip before [`Checker::Fairness`] fires, *at the two-round
/// anchor cadence the constant was tuned for*. Under synchrony every
/// honest author appears in essentially every committed round, and commit
/// latency is a handful of rounds even for Tusk's indirect path — 16
/// rounds is several times that margin, while fuzz runs (~2-4 rounds/s
/// over 20 s) still build the 2× tip history the checker requires before
/// it convicts anyone.
///
/// The window's real unit is *anchor opportunities*, not rounds: 16 rounds
/// under Bullshark's every-other-round anchors is 8 chances to pull the
/// victim's blocks into the order. A system anchoring every round
/// (pipelined Bullshark) packs those 8 chances into 8 rounds, so judging
/// it by the raw constant would let a coalition censor a victim almost
/// twice as long. `check_fairness` therefore re-derives the effective
/// window per witness from the cadence its commit stream actually shows.
pub const FAIRNESS_WINDOW: Round = 16;

/// Which invariant a violation broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Checker {
    /// Cross-validator prefix agreement on the committed sequence.
    Agreement,
    /// Per-validator total order (no double commits, no silent rollbacks).
    TotalOrder,
    /// Gapless sequence numbers (no commit loss).
    CommitLoss,
    /// No batch committed inside two different blocks.
    BatchExactlyOnce,
    /// Post-fault durable frontier within `gc_depth` of the best peer.
    CatchUp,
    /// Commits still flowing in the fault-free tail.
    TailLiveness,
    /// Every unimpaired honest author stays represented near every honest
    /// validator's committed tip (censorship resistance).
    Fairness,
}

impl Checker {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Checker::Agreement => "agreement",
            Checker::TotalOrder => "total-order",
            Checker::CommitLoss => "commit-loss",
            Checker::BatchExactlyOnce => "batch-exactly-once",
            Checker::CatchUp => "catch-up",
            Checker::TailLiveness => "tail-liveness",
            Checker::Fairness => "fairness",
        }
    }
}

/// One checker hit.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The invariant that broke.
    pub checker: Checker,
    /// The validator the violation was observed at, if attributable.
    pub validator: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.validator {
            Some(v) => write!(
                f,
                "[{}] validator {v}: {}",
                self.checker.name(),
                self.detail
            ),
            None => write!(f, "[{}] {}", self.checker.name(), self.detail),
        }
    }
}

/// Everything the checkers need to judge one run.
pub struct CheckInput<'a> {
    /// Raw commit stream of the run.
    pub commits: &'a [(Time, NodeId, CommitEvent)],
    /// Committee size (primaries occupy node ids `0..nodes`).
    pub nodes: usize,
    /// Simulated run length.
    pub duration: Time,
    /// Length of the guaranteed fault-free tail window.
    pub quiet_tail: Time,
    /// GC window the catch-up bound is measured against.
    pub gc_depth: u64,
    /// The schedule the run executed (restart times gate legal rollbacks).
    pub schedule: &'a Schedule,
    /// Per-validator durable stores, post-run.
    pub stores: &'a [DynStore],
    /// The committee (store recovery verifies certificates against it).
    pub committee: &'a Committee,
    /// Validators running adversary actors this run. Their commit streams
    /// and stores are attacker-controlled and exempt from every invariant;
    /// safety is judged over the honest remainder only.
    pub byzantine: &'a [ValidatorId],
}

/// A block's identity in the total order. The header digest is part of the
/// identity: an equivocator signs two different blocks for one
/// `(round, author)` slot, and the twins must not be conflated.
type BlockId = (Round, ValidatorId, Digest);

/// Runs every checker; returns all violations found (empty = clean run).
pub fn check_all(input: &CheckInput<'_>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let streams = per_validator_streams(input.commits, input.nodes);
    // Durable snapshot-install markers license the one legal sequence
    // discontinuity (resume at marker + 1 after state transfer).
    let installs: Vec<Vec<u64>> = input
        .stores
        .iter()
        .map(|store| {
            BlockStore::new(store.clone())
                .snapshot_installs()
                .expect("store readable")
        })
        .collect();
    let honest = |v: usize| !input.byzantine.contains(&ValidatorId(v as u32));
    // Byzantine validators contribute an empty canonical stream: nothing
    // they emit is an invariant's concern, and the cross-validator passes
    // below then skip them for free.
    let canonical: Vec<Vec<(u64, BlockId)>> = streams
        .iter()
        .enumerate()
        .map(|(v, stream)| {
            if !honest(v) {
                return Vec::new();
            }
            check_total_order(v, stream, input, &installs[v], &mut violations);
            check_commit_loss(v, stream, &installs[v], &mut violations);
            check_batches_exactly_once(v, stream, &mut violations);
            canonical_sequence(stream)
        })
        .collect();
    check_agreement(&canonical, &mut violations);
    check_fairness(&canonical, input, &mut violations);
    check_catch_up(input, &mut violations);
    check_tail_liveness(&streams, input, &mut violations);
    violations.sort_by_key(|v| (v.checker, v.validator));
    violations
}

struct CommitRecord {
    at: Time,
    sequence: u64,
    block: BlockId,
    payload: Vec<nt_crypto::Digest>,
}

fn per_validator_streams(
    commits: &[(Time, NodeId, CommitEvent)],
    nodes: usize,
) -> Vec<Vec<CommitRecord>> {
    let mut streams: Vec<Vec<CommitRecord>> = (0..nodes).map(|_| Vec::new()).collect();
    for (at, node, ev) in commits {
        if *node < nodes {
            streams[*node].push(CommitRecord {
                at: *at,
                sequence: ev.sequence,
                block: (ev.round, ev.author, ev.header_digest),
                payload: ev.payload.iter().map(|(d, _)| *d).collect(),
            });
        }
    }
    streams
}

/// First emission per sequence number, in sequence order — the validator's
/// canonical committed sequence once legal restart replays are collapsed.
fn canonical_sequence(stream: &[CommitRecord]) -> Vec<(u64, BlockId)> {
    let mut by_seq: BTreeMap<u64, BlockId> = BTreeMap::new();
    for record in stream {
        by_seq.entry(record.sequence).or_insert(record.block);
    }
    by_seq.into_iter().collect()
}

fn check_total_order(
    v: usize,
    stream: &[CommitRecord],
    input: &CheckInput<'_>,
    installs: &[u64],
    violations: &mut Vec<Violation>,
) {
    let restarts = input.schedule.restarts_of(v as u32);
    // A forward jump (or a first commit above 1) is legal exactly when a
    // snapshot install at the preceding sequence licenses the resumption.
    let licensed_resume = |first_new_seq: u64| -> bool {
        first_new_seq > 0 && installs.contains(&(first_new_seq - 1))
    };
    let mut by_seq: BTreeMap<u64, BlockId> = BTreeMap::new();
    let mut by_block: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut prev: Option<(Time, u64)> = None;
    for record in stream {
        if record.sequence == 0 {
            violations.push(Violation {
                checker: Checker::TotalOrder,
                validator: Some(v),
                detail: "committed at sequence 0 (counter never assigns it)".into(),
            });
            continue;
        }
        match by_seq.get(&record.sequence) {
            None => {
                by_seq.insert(record.sequence, record.block);
            }
            Some(existing) if *existing != record.block => violations.push(Violation {
                checker: Checker::TotalOrder,
                validator: Some(v),
                detail: format!(
                    "sequence {} carries two different blocks: {existing:?} then {:?}",
                    record.sequence, record.block
                ),
            }),
            Some(_) => {}
        }
        match by_block.get(&record.block) {
            None => {
                by_block.insert(record.block, record.sequence);
            }
            Some(existing) if *existing != record.sequence => violations.push(Violation {
                checker: Checker::TotalOrder,
                validator: Some(v),
                detail: format!(
                    "block {:?} committed twice, at sequences {existing} and {}",
                    record.block, record.sequence
                ),
            }),
            Some(_) => {}
        }
        if let Some((prev_at, prev_seq)) = prev {
            if record.sequence > prev_seq + 1 {
                if !licensed_resume(record.sequence) {
                    violations.push(Violation {
                        checker: Checker::TotalOrder,
                        validator: Some(v),
                        detail: format!("sequence jumped {prev_seq} -> {} (gap)", record.sequence),
                    });
                }
            } else if record.sequence <= prev_seq {
                // A rollback replays a torn-off suffix; legal only if the
                // validator restarted between the two emissions.
                let restarted_between = restarts.iter().any(|r| *r > prev_at && *r <= record.at);
                if !restarted_between {
                    violations.push(Violation {
                        checker: Checker::TotalOrder,
                        validator: Some(v),
                        detail: format!(
                            "sequence rolled back {prev_seq} -> {} with no restart in between",
                            record.sequence
                        ),
                    });
                }
            }
        } else if record.sequence != 1 && !licensed_resume(record.sequence) {
            violations.push(Violation {
                checker: Checker::TotalOrder,
                validator: Some(v),
                detail: format!("first commit at sequence {}, not 1", record.sequence),
            });
        }
        prev = Some((record.at, record.sequence));
    }
}

fn check_commit_loss(
    v: usize,
    stream: &[CommitRecord],
    installs: &[u64],
    violations: &mut Vec<Violation>,
) {
    let seqs: std::collections::BTreeSet<u64> = stream
        .iter()
        .map(|r| r.sequence)
        .filter(|s| *s > 0)
        .collect();
    let Some(max) = seqs.iter().next_back().copied() else {
        return;
    };
    // Sequences at or below a snapshot-install marker were transferred as
    // state, not emitted locally — skipping them is not loss.
    let covered = installs.iter().copied().max().unwrap_or(0);
    let missing: Vec<u64> = (1..=max)
        .filter(|s| !seqs.contains(s) && *s > covered)
        .collect();
    if !missing.is_empty() {
        violations.push(Violation {
            checker: Checker::CommitLoss,
            validator: Some(v),
            detail: format!(
                "sequences lost below the high-water mark {max}: {:?}{}",
                &missing[..missing.len().min(8)],
                if missing.len() > 8 { " ..." } else { "" }
            ),
        });
    }
}

fn check_batches_exactly_once(v: usize, stream: &[CommitRecord], violations: &mut Vec<Violation>) {
    // Judge over the canonical stream (first emission per sequence): a
    // legal restart replay re-commits the same block with the same payload
    // and must not count twice.
    let mut seen_seqs = std::collections::HashSet::new();
    let mut batch_owner: BTreeMap<nt_crypto::Digest, BlockId> = BTreeMap::new();
    for record in stream {
        if !seen_seqs.insert(record.sequence) {
            continue;
        }
        for digest in &record.payload {
            match batch_owner.get(digest) {
                None => {
                    batch_owner.insert(*digest, record.block);
                }
                Some(owner) if *owner != record.block => violations.push(Violation {
                    checker: Checker::BatchExactlyOnce,
                    validator: Some(v),
                    detail: format!(
                        "batch {digest} committed in two blocks: {owner:?} and {:?}",
                        record.block
                    ),
                }),
                Some(_) => {}
            }
        }
    }
}

/// The [`Checker::Agreement`] pass alone, over a raw commit stream whose
/// primaries are node ids `0..nodes`: wherever two validators both emitted
/// a sequence number, they committed the same block there, header digest
/// included. Empty = they agree.
pub fn agreement(commits: &[(Time, NodeId, CommitEvent)], nodes: usize) -> Vec<Violation> {
    let canonical: Vec<_> = per_validator_streams(commits, nodes)
        .iter()
        .map(|stream| canonical_sequence(stream))
        .collect();
    let mut violations = Vec::new();
    check_agreement(&canonical, &mut violations);
    violations
}

fn check_agreement(canonical: &[Vec<(u64, BlockId)>], violations: &mut Vec<Violation>) {
    // Keyed by sequence number, not by position: a snapshot-installed
    // validator's stream legally skips the transferred range, so streams
    // may cover different sequence sets — but wherever two validators both
    // emitted a sequence, the block must match.
    for (a, seq_a) in canonical.iter().enumerate() {
        for (b, seq_b) in canonical.iter().enumerate().skip(a + 1) {
            let blocks_b: BTreeMap<u64, BlockId> = seq_b.iter().copied().collect();
            if let Some((s, block_a, block_b)) = seq_a.iter().find_map(|(s, block_a)| {
                blocks_b
                    .get(s)
                    .filter(|block_b| *block_b != block_a)
                    .map(|block_b| (*s, *block_a, *block_b))
            }) {
                violations.push(Violation {
                    checker: Checker::Agreement,
                    validator: None,
                    detail: format!(
                        "validators {a} and {b} diverge at sequence {s}: \
                         {block_a:?} vs {block_b:?}"
                    ),
                });
            }
        }
    }
}

fn check_fairness(
    canonical: &[Vec<(u64, BlockId)>],
    input: &CheckInput<'_>,
    violations: &mut Vec<Violation>,
) {
    let is_byz = |v: u32| input.byzantine.contains(&ValidatorId(v));
    // Eligible subjects: honest authors whose dissemination the schedule
    // itself never impaired — no crash, never caught on a quorumless side
    // of a partition. Latency spikes only delay dissemination, they never
    // stop it, so they disqualify nobody. An ineligible author may still
    // legitimately trail the tip (it was down, or cut off); the invariant
    // only promises commitment to validators the *adversary* is starving.
    let quorum = input.committee.quorum_threshold();
    let mut eligible: Vec<u32> = (0..input.nodes as u32).filter(|v| !is_byz(*v)).collect();
    for event in &input.schedule.events {
        match event {
            FaultEvent::Outage { unit, .. } => eligible.retain(|v| v != unit),
            FaultEvent::Split { side, .. } => {
                let side_len = side.iter().filter(|u| (**u as usize) < input.nodes).count();
                if side_len < quorum {
                    eligible.retain(|v| !side.contains(v));
                }
                if input.nodes - side_len < quorum {
                    eligible.retain(|v| side.contains(v));
                }
            }
            _ => {} // latency-only faults never stop dissemination
        }
    }
    // Anchor rounds each witness committed under, for the cadence
    // derivation below (dedup'd: restarts replay events, and one anchor
    // flushes many blocks).
    let mut anchor_rounds: Vec<std::collections::BTreeSet<Round>> =
        vec![std::collections::BTreeSet::new(); input.nodes];
    for (_, node, ev) in input.commits {
        if *node < input.nodes {
            anchor_rounds[*node].insert(ev.anchor_round);
        }
    }
    for (w, seq) in canonical.iter().enumerate() {
        if is_byz(w as u32) {
            continue;
        }
        // The fairness window is denominated in anchor *opportunities*
        // ([`FAIRNESS_WINDOW`] rounds at the classic two-round cadence), so
        // derive this witness's effective round window from the anchor
        // cadence its own stream shows: an every-round anchor stream
        // (pipelined Bullshark) is judged over 8 rounds, the two-round
        // systems keep the full 16. The clamp keeps sparse cadences
        // (Tusk's three-round waves, faulty stretches) at the tuned
        // constant instead of loosening past it.
        let cadence = observed_anchor_cadence(&anchor_rounds[w]);
        let window = (FAIRNESS_WINDOW * cadence / 2).clamp(FAIRNESS_WINDOW / 2, FAIRNESS_WINDOW);
        let tip = seq.iter().map(|(_, b)| b.0).max().unwrap_or(0);
        // Require enough committed history that "absent from the window"
        // means starved, not "the run barely got going". A wholesale stall
        // is tail-liveness's finding, not a fairness one.
        if tip < 2 * window {
            continue;
        }
        // And require the witness's stream to actually *cover* the window:
        // a healthy DAG commits blocks from (nearly) every round, while a
        // freshly snapshot-installed validator's stream may hold only a few
        // post-transfer commits near its tip — too thin to convict anyone.
        let rounds_in_window: std::collections::BTreeSet<Round> = seq
            .iter()
            .map(|(_, b)| b.0)
            .filter(|r| r + window >= tip)
            .collect();
        if (rounds_in_window.len() as u64) < window / 2 {
            continue;
        }
        for author in &eligible {
            let last = seq
                .iter()
                .filter(|(_, b)| b.1 == ValidatorId(*author))
                .map(|(_, b)| b.0)
                .max();
            if !matches!(last, Some(r) if r + window >= tip) {
                let seen = match last {
                    Some(r) => format!("last committed block at r{r}"),
                    None => "no block ever committed".into(),
                };
                violations.push(Violation {
                    checker: Checker::Fairness,
                    validator: Some(w),
                    detail: format!(
                        "honest author {author} starved out of the total order: {seen} \
                         while the committed tip is r{tip} (window {window}, \
                         anchor cadence {cadence})",
                    ),
                });
            }
        }
    }
}

/// The anchor cadence a commit stream actually ran at: the median gap
/// between successive distinct anchor rounds. Robust to the occasional
/// skipped wave or snapshot-install jump (outlier gaps land in the tail of
/// the sorted gap list, not at its middle). Streams too short to measure
/// default to the classic two-round cadence.
fn observed_anchor_cadence(anchors: &std::collections::BTreeSet<Round>) -> Round {
    let mut gaps: Vec<Round> = anchors
        .iter()
        .zip(anchors.iter().skip(1))
        .map(|(a, b)| b - a)
        .collect();
    if gaps.is_empty() {
        return 2;
    }
    gaps.sort_unstable();
    gaps[gaps.len() / 2].max(1)
}

fn check_catch_up(input: &CheckInput<'_>, violations: &mut Vec<Violation>) {
    let honest = |v: usize| !input.byzantine.contains(&ValidatorId(v as u32));
    let frontiers: Vec<Round> = input
        .stores
        .iter()
        .map(|store| {
            BlockStore::new(store.clone())
                .load_dag(input.committee)
                .expect("store readable")
                .highest_round()
        })
        .collect();
    let best = frontiers
        .iter()
        .enumerate()
        .filter(|(v, _)| honest(*v))
        .map(|(_, r)| *r)
        .max()
        .unwrap_or(0);
    for (v, frontier) in frontiers.iter().enumerate() {
        if !honest(v) {
            continue;
        }
        if frontier + input.gc_depth < best {
            violations.push(Violation {
                checker: Checker::CatchUp,
                validator: Some(v),
                detail: format!(
                    "durable frontier r{frontier} more than gc_depth ({}) behind the \
                     best peer's r{best}",
                    input.gc_depth
                ),
            });
        }
    }
}

fn check_tail_liveness(
    streams: &[Vec<CommitRecord>],
    input: &CheckInput<'_>,
    violations: &mut Vec<Violation>,
) {
    let tail_start = input.duration - input.quiet_tail;
    for (v, stream) in streams.iter().enumerate() {
        if input.byzantine.contains(&ValidatorId(v as u32)) {
            continue;
        }
        let last = stream.last().map(|r| r.at);
        match last {
            None => violations.push(Violation {
                checker: Checker::TailLiveness,
                validator: Some(v),
                detail: "never committed anything".into(),
            }),
            Some(at) if at < tail_start => violations.push(Violation {
                checker: Checker::TailLiveness,
                validator: Some(v),
                detail: format!(
                    "last commit at {:.1}s, before the fault-free tail ({:.1}s..)",
                    at as f64 / SEC as f64,
                    tail_start as f64 / SEC as f64
                ),
            }),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_simnet::FaultEvent;
    use nt_storage::MemStore;
    use std::sync::Arc;

    fn ev(seq: u64, round: Round, author: u32) -> CommitEvent {
        CommitEvent {
            sequence: seq,
            round,
            author: ValidatorId(author),
            ..Default::default()
        }
    }

    fn committee() -> Committee {
        Committee::deterministic(2, 1, nt_crypto::Scheme::Insecure).0
    }

    fn input_over<'a>(
        commits: &'a [(Time, NodeId, CommitEvent)],
        schedule: &'a Schedule,
        stores: &'a [DynStore],
        committee: &'a Committee,
    ) -> CheckInput<'a> {
        CheckInput {
            commits,
            nodes: 2,
            duration: 10 * SEC,
            quiet_tail: 4 * SEC,
            gc_depth: 50,
            schedule,
            stores,
            committee,
            byzantine: &[],
        }
    }

    fn mem_stores() -> Vec<DynStore> {
        (0..2)
            .map(|_| Arc::new(MemStore::new()) as DynStore)
            .collect()
    }

    #[test]
    fn clean_run_passes_every_checker() {
        let commits: Vec<(Time, NodeId, CommitEvent)> = (1..=20)
            .flat_map(|s| {
                [
                    (s * 450_000_000, 0usize, ev(s, s, (s % 2) as u32)),
                    (s * 450_000_000 + 1, 1usize, ev(s, s, (s % 2) as u32)),
                ]
            })
            .collect();
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn restart_replay_of_the_same_suffix_is_legal() {
        let schedule = Schedule {
            events: vec![FaultEvent::Outage {
                unit: 0,
                at: 3 * SEC,
                until: 5 * SEC,
                tear: 3,
            }],
        };
        // Validator 0 commits 1..=4, restarts, replays 3..=4 identically,
        // then continues. Validator 1 saw the same order all along.
        let mut commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (SEC + 1, 0usize, ev(2, 2, 1)),
            (2 * SEC, 0usize, ev(3, 3, 0)),
            (2 * SEC + 1, 0usize, ev(4, 4, 1)),
            // restart at 5 s; rollback to the persisted prefix
            (6 * SEC, 0usize, ev(3, 3, 0)),
            (6 * SEC + 1, 0usize, ev(4, 4, 1)),
            (7 * SEC, 0usize, ev(5, 5, 0)),
        ];
        for s in 1..=5u64 {
            commits.push((s * 1_400_000_000, 1usize, ev(s, s, ((s + 1) % 2) as u32)));
        }
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn rollback_without_a_restart_fires_total_order() {
        let commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (2 * SEC, 0usize, ev(2, 2, 1)),
            (7 * SEC, 0usize, ev(1, 1, 0)), // no restart scheduled
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations
            .iter()
            .any(|v| v.checker == Checker::TotalOrder && v.detail.contains("rolled back")));
    }

    #[test]
    fn divergent_replay_fires_total_order() {
        let schedule = Schedule {
            events: vec![FaultEvent::Outage {
                unit: 0,
                at: 3 * SEC,
                until: 5 * SEC,
                tear: 1,
            }],
        };
        let commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (2 * SEC, 0usize, ev(2, 2, 1)),
            // Restarted, but replays a *different* block at sequence 2.
            (6 * SEC, 0usize, ev(2, 2, 0)),
            (SEC, 1usize, ev(1, 1, 0)),
            (2 * SEC, 1usize, ev(2, 2, 1)),
            (6 * SEC, 1usize, ev(3, 3, 0)),
        ];
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            violations
                .iter()
                .any(|v| v.checker == Checker::TotalOrder
                    && v.detail.contains("two different blocks"))
        );
    }

    #[test]
    fn cross_validator_divergence_fires_agreement() {
        // Validators' canonical sequences disagree at position 1: the one
        // cross-validator invariant everything else reduces to.
        let commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (2 * SEC, 0usize, ev(2, 2, 1)),
            (SEC, 1usize, ev(1, 1, 0)),
            (2 * SEC, 1usize, ev(2, 2, 0)),
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations.iter().any(|v| v.checker == Checker::Agreement));
    }

    #[test]
    fn agreement_over_raw_commits_tells_equivocating_twins_apart() {
        let twin = |digest: &[u8]| CommitEvent {
            header_digest: nt_crypto::Digest::of(digest),
            ..ev(2, 2, 1)
        };
        let mut commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (2 * SEC, 0usize, twin(b"a")),
            (SEC, 1usize, ev(1, 1, 0)),
            (SEC, 2usize, ev(9, 9, 0)), // a worker's node id: not a validator
        ];
        assert!(agreement(&commits, 2).is_empty(), "a shorter view agrees");
        commits.push((2 * SEC, 1usize, twin(b"a")));
        assert!(agreement(&commits, 2).is_empty());
        // Same `(round, author)` slot, a different block.
        commits.pop();
        commits.push((2 * SEC, 1usize, twin(b"b")));
        let violations = agreement(&commits, 2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].checker, Checker::Agreement);
    }

    #[test]
    fn sequence_gap_fires_commit_loss() {
        let commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (7 * SEC, 0usize, ev(3, 3, 0)), // 2 never emitted
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations.iter().any(|v| v.checker == Checker::CommitLoss));
        assert!(
            violations.iter().any(|v| v.checker == Checker::TotalOrder),
            "the jump itself is also a total-order hit"
        );
    }

    #[test]
    fn snapshot_install_marker_licenses_jump_and_gap() {
        // Validator 0 fell behind, installed a snapshot at sequence 59 and
        // resumed at 60 — the jump and the never-emitted 3..=59 are licensed
        // by the durable install marker.
        let commits = vec![
            (SEC, 0usize, ev(1, 1, 0)),
            (2 * SEC, 0usize, ev(2, 2, 1)),
            (9 * SEC, 0usize, ev(60, 70, 0)),
            (SEC, 1usize, ev(1, 1, 0)),
            (2 * SEC, 1usize, ev(2, 2, 1)),
            (9 * SEC, 1usize, ev(3, 3, 0)),
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        BlockStore::new(stores[0].clone())
            .put_snapshot_install(59)
            .unwrap();
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations.is_empty(), "{violations:?}");
        // Without the marker, the same stream is a total-order jump plus
        // commit loss.
        let bare = mem_stores();
        let violations = check_all(&input_over(&commits, &schedule, &bare, &committee));
        assert!(violations.iter().any(|v| v.checker == Checker::TotalOrder));
        assert!(violations.iter().any(|v| v.checker == Checker::CommitLoss));
    }

    #[test]
    fn snapshot_install_marker_licenses_fresh_joiner_start() {
        // A brand-new validator joins via snapshot: its first commit is
        // marker + 1, never 1.
        let commits = vec![
            (9 * SEC, 0usize, ev(60, 70, 0)),
            (SEC, 1usize, ev(1, 1, 0)),
            (9 * SEC, 1usize, ev(2, 2, 1)),
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        BlockStore::new(stores[0].clone())
            .put_snapshot_install(59)
            .unwrap();
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations.is_empty(), "{violations:?}");
        let bare = mem_stores();
        let violations = check_all(&input_over(&commits, &schedule, &bare, &committee));
        assert!(violations
            .iter()
            .any(|v| v.checker == Checker::TotalOrder && v.detail.contains("first commit")));
    }

    #[test]
    fn agreement_still_fires_across_a_licensed_gap() {
        // The installed validator's post-transfer commits must still agree
        // with peers at equal sequence numbers.
        let commits = vec![
            (9 * SEC, 0usize, ev(60, 70, 0)),
            (SEC, 1usize, ev(1, 1, 0)),
            (9 * SEC - 60, 1usize, ev(60, 70, 1)), // different block at 60
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        BlockStore::new(stores[0].clone())
            .put_snapshot_install(59)
            .unwrap();
        // Keep validator 1's own stream internally legal for the test's
        // purpose: it has its own gap, licensed too.
        BlockStore::new(stores[1].clone())
            .put_snapshot_install(59)
            .unwrap();
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            violations.iter().any(|v| v.checker == Checker::Agreement),
            "{violations:?}"
        );
    }

    #[test]
    fn double_committed_batch_fires_exactly_once() {
        let digest = nt_crypto::Digest::of(b"batch");
        let mk = |seq, round, author: u32| {
            let mut e = ev(seq, round, author);
            e.payload = vec![(digest, nt_types::WorkerId(0))];
            e
        };
        let commits = vec![
            (SEC, 0usize, mk(1, 1, 0)),
            (7 * SEC, 0usize, mk(2, 5, 0)), // same digest, different block
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(violations
            .iter()
            .any(|v| v.checker == Checker::BatchExactlyOnce));
    }

    #[test]
    fn equivocating_twins_are_distinct_blocks() {
        // Same (round, author) slot, two header digests, same batch payload:
        // the double-commit is a batch-exactly-once hit, and the two
        // sequence slots are NOT a total-order "same block twice" hit.
        let digest = nt_crypto::Digest::of(b"batch");
        let mk = |seq, twin: &[u8]| {
            let mut e = ev(seq, 5, 0);
            e.header_digest = nt_crypto::Digest::of(twin);
            e.payload = vec![(digest, nt_types::WorkerId(0))];
            e
        };
        let commits = vec![
            (SEC, 0usize, mk(1, b"twin-a")),
            (2 * SEC, 0usize, mk(2, b"twin-b")),
        ];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            violations
                .iter()
                .any(|v| v.checker == Checker::BatchExactlyOnce),
            "{violations:?}"
        );
        assert!(
            !violations.iter().any(|v| v.checker == Checker::TotalOrder),
            "twins are different blocks, not a re-commit: {violations:?}"
        );
    }

    #[test]
    fn censored_author_fires_fairness() {
        // Validator 0 commits 100 rounds authored exclusively by itself;
        // honest validator 1 never appears — starved out of the order.
        let commits: Vec<(Time, NodeId, CommitEvent)> = (1..=100)
            .map(|s| (s * 80_000_000, 0usize, ev(s, s, 0)))
            .collect();
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            violations.iter().any(|v| v.checker == Checker::Fairness
                && v.validator == Some(0)
                && v.detail.contains("author 1")),
            "{violations:?}"
        );
    }

    #[test]
    fn author_near_the_tip_passes_fairness() {
        // Author 1 last appears at r95 against a tip of r100: inside the
        // fairness window, no violation.
        let mut commits: Vec<(Time, NodeId, CommitEvent)> = (1..=100)
            .map(|s| (s * 80_000_000, 0usize, ev(s, s, 0)))
            .collect();
        commits[94].2.author = ValidatorId(1);
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            !violations.iter().any(|v| v.checker == Checker::Fairness),
            "{violations:?}"
        );
    }

    #[test]
    fn pipelined_cadence_tightens_the_fairness_window() {
        // Author 1 last appears at r90 against a tip of r100 — inside the
        // raw 16-round window, outside the 8-round window an every-round
        // anchor cadence earns. The same stream stamped with two-round
        // anchors keeps the full window and passes.
        let stream = |anchor_gap: Round| -> Vec<(Time, NodeId, CommitEvent)> {
            (1..=100)
                .map(|s| {
                    let mut e = ev(s, s, 0);
                    if s == 90 {
                        e.author = ValidatorId(1);
                    }
                    e.anchor_round = s.div_ceil(anchor_gap) * anchor_gap;
                    (s * 80_000_000, 0usize, e)
                })
                .collect()
        };
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let commits = stream(1);
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            violations.iter().any(|v| v.checker == Checker::Fairness
                && v.detail.contains("author 1")
                && v.detail.contains("window 8")),
            "every-round anchors must halve the window: {violations:?}"
        );
        let commits = stream(2);
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            !violations.iter().any(|v| v.checker == Checker::Fairness),
            "two-round anchors keep the tuned window: {violations:?}"
        );
    }

    #[test]
    fn faulted_authors_are_not_fairness_subjects() {
        // Same starved stream as `censored_author_fires_fairness`, but the
        // schedule crashed validator 1 — its absence is the schedule's
        // doing, not censorship.
        let commits: Vec<(Time, NodeId, CommitEvent)> = (1..=100)
            .map(|s| (s * 80_000_000, 0usize, ev(s, s, 0)))
            .collect();
        let schedule = Schedule {
            events: vec![FaultEvent::Outage {
                unit: 1,
                at: 3 * SEC,
                until: 5 * SEC,
                tear: 0,
            }],
        };
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        assert!(
            !violations.iter().any(|v| v.checker == Checker::Fairness),
            "{violations:?}"
        );
    }

    #[test]
    fn byzantine_validators_are_exempt_from_every_checker() {
        // Validator 1 is a declared adversary emitting garbage: sequence 0,
        // a rollback with no restart, a disagreeing block, and total
        // silence in the tail. None of it is a finding — and its absence
        // from honest streams is not a fairness hit either.
        let commits: Vec<(Time, NodeId, CommitEvent)> = (1..=100)
            .map(|s| (s * 80_000_000, 0usize, ev(s, s, 0)))
            .chain([
                (SEC, 1usize, ev(0, 1, 0)),
                (2 * SEC, 1usize, ev(5, 5, 1)),
                (3 * SEC, 1usize, ev(2, 2, 0)),
            ])
            .collect();
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let mut input = input_over(&commits, &schedule, &stores, &committee);
        let byz = [ValidatorId(1)];
        input.byzantine = &byz;
        let violations = check_all(&input);
        assert!(violations.is_empty(), "{violations:?}");
        // Undeclared, the same run is riddled with findings.
        input.byzantine = &[];
        assert!(!check_all(&input).is_empty());
    }

    #[test]
    fn silent_validator_fires_tail_liveness() {
        let commits = vec![(SEC, 0usize, ev(1, 1, 0)), (9 * SEC, 1usize, ev(1, 1, 0))];
        let schedule = Schedule::default();
        let (stores, committee) = (mem_stores(), committee());
        let violations = check_all(&input_over(&commits, &schedule, &stores, &committee));
        let tail: Vec<_> = violations
            .iter()
            .filter(|v| v.checker == Checker::TailLiveness)
            .collect();
        assert_eq!(tail.len(), 1, "{violations:?}");
        assert_eq!(tail[0].validator, Some(0), "validator 0 stopped early");
    }
}
