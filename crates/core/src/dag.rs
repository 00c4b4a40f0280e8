//! The round-based block DAG (§2.1, §3.1).
//!
//! The DAG stores *certified* blocks only, indexed by round and author.
//! Within a round each author *normally* holds one certificate — quorum
//! intersection makes equivocation at the certificate level impossible as
//! long as honest validators keep their vote locks (two certificates for
//! the same `(round, author)` would require an honest validator to sign two
//! blocks from one author in one round). But a Byzantine author colluding
//! with crashed-and-amnesiac voters *can* certify twins, and the DAG must
//! not wedge when it happens: a slot accepts up to two distinct-digest
//! certificates per `(round, author)` so that honest children referencing
//! either twin by digest always find their parent (dropping the second
//! twin would leave its digest permanently unresolvable and suspend every
//! descendant forever — found by the Byzantine `sim_fuzz` corpus). Quorum
//! counting ([`Dag::round_size`]) stays per *author*, so an equivocator
//! never contributes twice to round advancement.
//!
//! The structure also implements the graph queries consensus needs: strong
//! path existence (Tusk's commit rule), support counting (blocks of round
//! `r + 1` referencing a candidate leader of round `r`), and deterministic
//! linearization of an anchor's causal history.
//!
//! Garbage collection (§3.3) is expressed by the *first retained round*:
//! everything below it has been pruned, late messages for pruned rounds are
//! ignored, and history traversal stops at the boundary.
//!
//! # Interned arena representation
//!
//! Certificates live in a dense slab addressed by [`CertId`], and parent
//! edges are *interned*: each parent digest is resolved to a `CertId` once,
//! at insertion (or retroactively, when a parent arrives after a child that
//! references it). Traversals — history collection, path existence, support
//! counting — then walk 4-byte indices instead of hashing 32-byte digests
//! through a `HashMap` at every edge, which is where the hot path of every
//! commit used to go. The resolved ids sit in a vector *parallel to the
//! header's parent list*, so traversal order is a pure function of block
//! contents, never of message arrival order. Garbage collection compacts
//! the slab (dropping pruned slots and renumbering the survivors), keeping
//! the working set dense under the §3.3 sliding window.
//!
//! Consensus implementations use the id-based read API via [`Dag::view`];
//! the digest-based entry points remain for callers holding certificates
//! that may not be in the DAG (ingress, state transfer).

use nt_crypto::Digest;
use nt_types::{Certificate, Round, ValidatorId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Result of inserting a certificate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// The certificate extended the DAG.
    Inserted,
    /// Already present (same header digest), or the `(round, author)` slot
    /// already holds two equivocation twins (the cap; see module docs).
    Duplicate,
    /// Below the first retained round; ignored (§3.3).
    BelowGc,
}

/// Dense index of a certificate in the DAG's slab.
///
/// Ids are only meaningful for the `Dag` that issued them, and garbage
/// collection renumbers the survivors — do not hold a `CertId` across a
/// call to [`Dag::gc`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CertId(u32);

impl CertId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned certificate.
struct Slot {
    cert: Certificate,
    digest: Digest,
    round: Round,
    author: ValidatorId,
    /// Parallel to `cert.header.parents`: the interned id of each parent,
    /// or `None` while that parent is locally absent (not yet arrived, or
    /// pruned). Keeping the positions aligned with the header preserves the
    /// header's edge order in every traversal regardless of arrival order.
    parents: Vec<Option<CertId>>,
}

/// The local DAG of certified blocks.
#[derive(Default)]
pub struct Dag {
    /// The arena. GC compacts it; ids are positions in this vector.
    slab: Vec<Slot>,
    /// Round → `(author, id)` sorted by author (lookup by binary search).
    rounds: BTreeMap<Round, Vec<(ValidatorId, CertId)>>,
    /// Header digest → id, for parent interning and external lookups.
    by_digest: HashMap<Digest, CertId>,
    /// Digest → `(child, parent position)` for every unresolved parent
    /// reference; the digest's arrival patches them all.
    waiting: HashMap<Digest, Vec<(CertId, u32)>>,
    /// Rounds strictly below this are pruned. 0 = nothing pruned.
    first_retained: Round,
}

impl Dag {
    /// An empty DAG (no genesis yet).
    pub fn new() -> Self {
        Dag::default()
    }

    /// Inserts the genesis certificates of all validators.
    pub fn insert_genesis(&mut self, genesis: Vec<Certificate>) {
        for cert in genesis {
            self.insert(cert);
        }
    }

    /// Inserts a certified block, interning its parent references.
    pub fn insert(&mut self, cert: Certificate) -> InsertOutcome {
        let round = cert.round();
        if round < self.first_retained {
            return InsertOutcome::BelowGc;
        }
        let author = cert.origin();
        let digest = cert.header_digest();
        if self.by_digest.contains_key(&digest) {
            return InsertOutcome::Duplicate;
        }
        let slots = self.rounds.entry(round).or_default();
        // The slot's author run: `rounds` lists stay sorted by author, with
        // equivocation twins adjacent. Two twins are the cap — certifying a
        // third would take more colluding double-voters than `f` Byzantine
        // validators can muster — so the run is at most 2 long.
        let start = slots.partition_point(|(a, _)| *a < author);
        let run = slots[start..].iter().take_while(|(a, _)| *a == author);
        if run.count() >= 2 {
            return InsertOutcome::Duplicate;
        }
        let pos = slots[start..].partition_point(|(a, _)| *a == author) + start;
        let id = CertId(self.slab.len() as u32);
        slots.insert(pos, (author, id));
        let parents: Vec<Option<CertId>> = cert
            .header
            .parents
            .iter()
            .enumerate()
            .map(|(i, p)| match self.by_digest.get(p) {
                Some(pid) => Some(*pid),
                None => {
                    self.waiting.entry(*p).or_default().push((id, i as u32));
                    None
                }
            })
            .collect();
        self.by_digest.insert(digest, id);
        self.slab.push(Slot {
            cert,
            digest,
            round,
            author,
            parents,
        });
        // Patch children that referenced this digest before it arrived.
        if let Some(children) = self.waiting.remove(&digest) {
            for (child, parent_pos) in children {
                self.slab[child.index()].parents[parent_pos as usize] = Some(id);
            }
        }
        InsertOutcome::Inserted
    }

    fn slot(&self, id: CertId) -> &Slot {
        &self.slab[id.index()]
    }

    fn id_at(&self, round: Round, author: ValidatorId) -> Option<CertId> {
        let slots = self.rounds.get(&round)?;
        let pos = slots.partition_point(|(a, _)| *a < author);
        let (a, id) = slots.get(pos)?;
        (*a == author).then_some(*id)
    }

    /// The certificate of `author` at `round`, if any — the first-arrived
    /// one when the author equivocated (deterministic: insertion order).
    pub fn get(&self, round: Round, author: ValidatorId) -> Option<&Certificate> {
        self.id_at(round, author).map(|id| &self.slot(id).cert)
    }

    /// Looks up a certified block by header digest.
    pub fn get_by_digest(&self, digest: &Digest) -> Option<&Certificate> {
        self.by_digest.get(digest).map(|id| &self.slot(*id).cert)
    }

    /// True if a certificate for this header digest is present.
    pub fn contains_digest(&self, digest: &Digest) -> bool {
        self.by_digest.contains_key(digest)
    }

    /// Number of *distinct authors* certified in `round`. Equivocation
    /// twins count once: quorum checks (round advancement, recovery) must
    /// never let a Byzantine author stand in for two validators.
    pub fn round_size(&self, round: Round) -> usize {
        self.rounds.get(&round).map_or(0, |slots| {
            let mut distinct = 0;
            let mut last = None;
            for (a, _) in slots {
                if last != Some(*a) {
                    distinct += 1;
                    last = Some(*a);
                }
            }
            distinct
        })
    }

    /// Iterates the certificates of `round` in author order.
    pub fn round_certs(&self, round: Round) -> impl Iterator<Item = &Certificate> {
        self.round_ids(round).map(|id| &self.slot(id).cert)
    }

    fn round_ids(&self, round: Round) -> impl Iterator<Item = CertId> + '_ {
        self.rounds
            .get(&round)
            .into_iter()
            .flat_map(|slots| slots.iter().map(|(_, id)| *id))
    }

    /// Highest round containing any certificate.
    pub fn highest_round(&self) -> Round {
        self.rounds.keys().next_back().copied().unwrap_or(0)
    }

    /// The first round still held in memory (0 = nothing pruned yet).
    pub fn first_retained_round(&self) -> Round {
        self.first_retained
    }

    /// Total certificates currently held (the §3.3 memory-bound metric).
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if the DAG holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// An id-based read view for consensus traversals.
    pub fn view(&self) -> DagView<'_> {
        DagView { dag: self }
    }

    /// Parents of `cert` that are required (above the GC boundary) but
    /// missing locally.
    pub fn missing_parents(&self, cert: &Certificate) -> Vec<Digest> {
        if cert.round() <= self.first_retained {
            // Parents would live below the first retained round.
            return Vec::new();
        }
        cert.header
            .parents
            .iter()
            .filter(|d| !self.by_digest.contains_key(*d))
            .copied()
            .collect()
    }

    /// Number of blocks in `round + 1` whose parents include `digest`
    /// (the "votes" of Tusk's commit rule, §5).
    pub fn support(&self, digest: &Digest, round: Round) -> usize {
        match self.by_digest.get(digest) {
            // Resolved: every live reference to this digest is interned
            // (children are patched the moment the digest arrives), so the
            // count is pure id comparisons.
            Some(id) => self
                .round_ids(round + 1)
                .filter(|c| self.slot(*c).parents.contains(&Some(*id)))
                .count(),
            // Unresolved: no live reference is interned either; compare the
            // raw header digests.
            None => self
                .round_certs(round + 1)
                .filter(|c| c.header.parents.contains(digest))
                .count(),
        }
    }

    /// True if a path of parent edges leads from `from` down to `to`.
    ///
    /// `from` must be at a strictly higher round than `to`.
    pub fn path_exists(&self, from: &Certificate, to: &Certificate) -> bool {
        if from.round() <= to.round() {
            return false;
        }
        let Some(from_id) = self.by_digest.get(&from.header_digest()) else {
            // Not in the DAG: no outgoing edges to walk.
            return false;
        };
        let target = to.header_digest();
        self.path_search(
            *from_id,
            self.by_digest.get(&target).copied(),
            &target,
            to.round(),
        )
    }

    /// Index-walk BFS down parent edges from `from_id`, looking for the
    /// target either as a resolved id or as an unresolved digest reference.
    fn path_search(
        &self,
        from_id: CertId,
        target_id: Option<CertId>,
        target: &Digest,
        target_round: Round,
    ) -> bool {
        let mut visited = vec![false; self.slab.len()];
        let mut queue: VecDeque<CertId> = VecDeque::new();
        visited[from_id.index()] = true;
        queue.push_back(from_id);
        while let Some(id) = queue.pop_front() {
            if Some(id) == target_id {
                return true;
            }
            let slot = self.slot(id);
            if slot.round <= target_round {
                continue;
            }
            for (pos, parent) in slot.parents.iter().enumerate() {
                match parent {
                    Some(pid) => {
                        if !visited[pid.index()] {
                            visited[pid.index()] = true;
                            queue.push_back(*pid);
                        }
                    }
                    // An absent parent still *names* the target if the
                    // digests match (the target need not be in this DAG).
                    None => {
                        if slot.cert.header.parents[pos] == *target {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Collects the not-yet-ordered causal history of `anchor`, inclusive,
    /// in the deterministic commit order: ascending round, then ascending
    /// author within a round.
    ///
    /// Returns `Err(missing)` when some ancestors above the GC boundary are
    /// not locally available (the caller must pull them first, §4.1).
    /// Digests in `ordered` and pruned rounds are skipped (§3.3).
    pub fn collect_history(
        &self,
        anchor: &Certificate,
        ordered: &HashSet<Digest>,
    ) -> Result<Vec<Certificate>, Vec<Digest>> {
        let anchor_digest = anchor.header_digest();
        let Some(anchor_id) = self.by_digest.get(&anchor_digest) else {
            // Already-ordered anchors may be pruned; anything else missing
            // means the cone is locally incomplete.
            if ordered.contains(&anchor_digest) {
                return Ok(Vec::new());
            }
            return Err(vec![anchor_digest]);
        };
        let mut missing: Vec<Digest> = Vec::new();
        let mut missing_seen: HashSet<Digest> = HashSet::new();
        let mut collected: Vec<CertId> = Vec::new();
        let mut visited = vec![false; self.slab.len()];
        let mut queue: VecDeque<CertId> = VecDeque::new();
        visited[anchor_id.index()] = true;
        queue.push_back(*anchor_id);
        while let Some(id) = queue.pop_front() {
            let slot = self.slot(id);
            // The walk traverses *through* ordered blocks and only filters
            // them from the output, so the history is a pure function of
            // the anchor's (immutable) causal cone and the ordered set.
            // Stopping the descent at ordered blocks instead would make the
            // result depend on which blocks happened to be ordered when
            // paths were explored — an order-of-events artifact that a
            // crash-recovered validator replaying from a torn ordered set
            // would reproduce differently, forking its commit sequence
            // (found by `sim_fuzz`).
            if !ordered.contains(&slot.digest) {
                collected.push(id);
            }
            if slot.round <= self.first_retained {
                // Parents are pruned (or genesis has none): stop here.
                continue;
            }
            for (pos, parent) in slot.parents.iter().enumerate() {
                match parent {
                    Some(pid) => {
                        if !visited[pid.index()] {
                            visited[pid.index()] = true;
                            queue.push_back(*pid);
                        }
                    }
                    None => {
                        let d = slot.cert.header.parents[pos];
                        if !ordered.contains(&d) && missing_seen.insert(d) {
                            missing.push(d);
                        }
                    }
                }
            }
        }
        if !missing.is_empty() {
            return Err(missing);
        }
        let mut out: Vec<Certificate> = collected
            .into_iter()
            .map(|id| self.slot(id).cert.clone())
            .collect();
        // The digest tiebreak only matters for equivocation twins sharing a
        // `(round, author)` slot: without it their relative order would be
        // local arrival order, and validators would fork on it.
        out.sort_by_key(|c| (c.round(), c.origin(), c.header_digest()));
        Ok(out)
    }

    /// Prunes all rounds at or below `gc_round`, returning the pruned
    /// certificates (the primary inspects them for §3.3 re-injection).
    ///
    /// Pruning compacts the slab: surviving certificates are renumbered
    /// densely (any previously issued [`CertId`] is invalidated), and
    /// surviving children of pruned parents fall back to unresolved digest
    /// references — which can never resolve again, since re-insertion below
    /// the boundary is rejected.
    ///
    /// A snapshot install passes a boundary read off the wire; one with no
    /// round above it prunes nothing.
    pub fn gc(&mut self, gc_round: Round) -> Vec<Certificate> {
        let Some(new_first) = gc_round.checked_add(1) else {
            return Vec::new();
        };
        if new_first <= self.first_retained {
            return Vec::new();
        }
        self.first_retained = new_first;
        let keep = self.rounds.split_off(&new_first);
        let dead_rounds = std::mem::replace(&mut self.rounds, keep);
        if dead_rounds.is_empty() {
            return Vec::new();
        }
        // Dead ids in (round, author) order — the order the pruned
        // certificates are returned in.
        let mut alive = vec![true; self.slab.len()];
        let mut dead_ids: Vec<CertId> = Vec::new();
        for slots in dead_rounds.values() {
            for (_, id) in slots {
                alive[id.index()] = false;
                dead_ids.push(*id);
            }
        }
        // Dead slots leave the digest index and withdraw their unresolved
        // parent registrations.
        for id in &dead_ids {
            let slot = &self.slab[id.index()];
            self.by_digest.remove(&slot.digest);
            for (pos, parent) in slot.parents.iter().enumerate() {
                if parent.is_some() {
                    continue;
                }
                let d = &slot.cert.header.parents[pos];
                if let Some(list) = self.waiting.get_mut(d) {
                    list.retain(|(child, _)| child != id);
                    if list.is_empty() {
                        self.waiting.remove(d);
                    }
                }
            }
        }
        // Renumbering for the survivors: old index → new index.
        let mut remap = vec![u32::MAX; self.slab.len()];
        let mut next = 0u32;
        for (i, live) in alive.iter().enumerate() {
            if *live {
                remap[i] = next;
                next += 1;
            }
        }
        // Survivors re-point resolved parents: pruned ones fall back to
        // digest form (re-registered as waiting for uniformity, though a
        // below-boundary digest can never arrive again).
        for i in 0..self.slab.len() {
            if !alive[i] {
                continue;
            }
            let slot = &mut self.slab[i];
            for (pos, parent) in slot.parents.iter_mut().enumerate() {
                let Some(pid) = parent else { continue };
                if alive[pid.index()] {
                    *parent = Some(CertId(remap[pid.index()]));
                } else {
                    *parent = None;
                    let d = slot.cert.header.parents[pos];
                    self.waiting
                        .entry(d)
                        .or_default()
                        .push((CertId(i as u32), pos as u32));
                }
            }
        }
        // Compact the slab (stable: survivors keep their relative order)
        // and extract the pruned certificates.
        let old_slab = std::mem::take(&mut self.slab);
        self.slab.reserve(next as usize);
        let mut dead_certs: Vec<Option<Certificate>> = Vec::new();
        dead_certs.resize_with(old_slab.len(), || None);
        for (i, slot) in old_slab.into_iter().enumerate() {
            if alive[i] {
                self.slab.push(slot);
            } else {
                dead_certs[i] = Some(slot.cert);
            }
        }
        // Renumber every id still in circulation.
        for slots in self.rounds.values_mut() {
            for (_, id) in slots.iter_mut() {
                *id = CertId(remap[id.index()]);
            }
        }
        for id in self.by_digest.values_mut() {
            *id = CertId(remap[id.index()]);
        }
        for list in self.waiting.values_mut() {
            for (child, _) in list.iter_mut() {
                *child = CertId(remap[child.index()]);
            }
        }
        // Invariant: `dead_ids` lists each slot of `dead_rounds` exactly once,
        // and those are the slots the compaction above moved to `dead_certs`.
        dead_ids
            .into_iter()
            .map(|id| dead_certs[id.index()].take().expect("pruned slot"))
            .collect()
    }

    /// Internal consistency checks, for the equivalence test suites.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        assert_eq!(
            self.slab.len(),
            self.rounds.values().map(Vec::len).sum::<usize>(),
            "every slot sits in exactly one round list"
        );
        assert_eq!(self.slab.len(), self.by_digest.len());
        for (round, slots) in &self.rounds {
            assert!(*round >= self.first_retained);
            assert!(!slots.is_empty(), "no empty round lists survive");
            for w in slots.windows(2) {
                assert!(w[0].0 <= w[1].0, "round lists sorted by author");
                if w[0].0 == w[1].0 {
                    assert_ne!(
                        self.slot(w[0].1).digest,
                        self.slot(w[1].1).digest,
                        "twins in a slot are distinct blocks"
                    );
                }
            }
            for run in slots.chunk_by(|a, b| a.0 == b.0) {
                assert!(run.len() <= 2, "at most two twins per (round, author)");
            }
            for (author, id) in slots {
                let slot = self.slot(*id);
                assert_eq!(slot.round, *round);
                assert_eq!(slot.author, *author);
                assert_eq!(slot.digest, slot.cert.header_digest());
                assert_eq!(self.by_digest.get(&slot.digest), Some(id));
            }
        }
        for (i, slot) in self.slab.iter().enumerate() {
            assert_eq!(slot.parents.len(), slot.cert.header.parents.len());
            for (pos, parent) in slot.parents.iter().enumerate() {
                let d = &slot.cert.header.parents[pos];
                match parent {
                    Some(pid) => {
                        assert_eq!(self.slot(*pid).digest, *d, "interned edge matches header");
                    }
                    None => {
                        assert!(
                            !self.by_digest.contains_key(d),
                            "present digests are interned"
                        );
                        let entry = (CertId(i as u32), pos as u32);
                        assert!(
                            self.waiting.get(d).is_some_and(|l| l.contains(&entry)),
                            "unresolved edges are registered"
                        );
                    }
                }
            }
        }
        for (d, list) in &self.waiting {
            assert!(!list.is_empty());
            for (child, pos) in list {
                let slot = self.slot(*child);
                assert_eq!(slot.cert.header.parents[*pos as usize], *d);
                assert!(slot.parents[*pos as usize].is_none());
            }
        }
    }
}

/// Read-only id-based view of a [`Dag`], for consensus traversals.
///
/// All methods operate on [`CertId`]s — dense indices whose comparisons and
/// adjacency walks avoid digest hashing entirely. Ids are invalidated by
/// [`Dag::gc`]; a view borrows the DAG, so ids obtained through it cannot
/// outlive a mutation.
#[derive(Clone, Copy)]
pub struct DagView<'a> {
    dag: &'a Dag,
}

impl<'a> DagView<'a> {
    /// The id of `author`'s certificate at `round`, if present.
    pub fn id_at(&self, round: Round, author: ValidatorId) -> Option<CertId> {
        self.dag.id_at(round, author)
    }

    /// The id interned for `digest`, if present.
    pub fn id_of(&self, digest: &Digest) -> Option<CertId> {
        self.dag.by_digest.get(digest).copied()
    }

    /// The certificate behind `id`.
    pub fn cert(&self, id: CertId) -> &'a Certificate {
        &self.dag.slot(id).cert
    }

    /// The round of `id`'s certificate.
    pub fn round_of(&self, id: CertId) -> Round {
        self.dag.slot(id).round
    }

    /// The author of `id`'s certificate.
    pub fn author_of(&self, id: CertId) -> ValidatorId {
        self.dag.slot(id).author
    }

    /// The header digest of `id`'s certificate.
    pub fn digest_of(&self, id: CertId) -> Digest {
        self.dag.slot(id).digest
    }

    /// The ids of `round`'s certificates, in author order.
    pub fn round_ids(&self, round: Round) -> impl Iterator<Item = CertId> + 'a {
        self.dag.round_ids(round)
    }

    /// Highest round containing any certificate.
    pub fn highest_round(&self) -> Round {
        self.dag.highest_round()
    }

    /// The resolved parent ids of `id`'s certificate. Edges whose parent
    /// certificate is absent (never arrived, or compacted away by GC) are
    /// omitted; the order follows the header's parent list.
    pub fn parents(&self, id: CertId) -> impl Iterator<Item = CertId> + 'a {
        self.dag.slot(id).parents.iter().flatten().copied()
    }

    /// Number of next-round blocks whose parents include `id` (the votes
    /// of the commit rules).
    pub fn support(&self, id: CertId) -> usize {
        let round = self.dag.slot(id).round;
        self.dag
            .round_ids(round + 1)
            .filter(|c| self.dag.slot(*c).parents.contains(&Some(id)))
            .count()
    }

    /// True if a path of parent edges leads from `from` down to `to`
    /// (`from` strictly above `to`).
    pub fn path_exists(&self, from: CertId, to: CertId) -> bool {
        let to_slot = self.dag.slot(to);
        if self.dag.slot(from).round <= to_slot.round {
            return false;
        }
        self.dag
            .path_search(from, Some(to), &to_slot.digest, to_slot.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::{Hashable, KeyPair, Scheme};
    use nt_types::{Committee, Header, Vote};

    /// Builds a committee and a fully-connected DAG of `rounds` rounds where
    /// every validator references all certificates of the previous round.
    pub(crate) fn full_dag(n: usize, rounds: Round) -> (Committee, Vec<KeyPair>, Dag) {
        let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(&committee));
        for r in 1..=rounds {
            let parents: Vec<Digest> = dag.round_certs(r - 1).map(|c| c.header_digest()).collect();
            for (i, kp) in kps.iter().enumerate() {
                let header =
                    Header::new(kp, ValidatorId(i as u32), r, vec![], parents.clone(), None);
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
                let cert = Certificate::from_votes(&committee, header, &votes).expect("quorum");
                assert_eq!(dag.insert(cert), InsertOutcome::Inserted);
            }
        }
        dag.check_invariants();
        (committee, kps, dag)
    }

    #[test]
    fn insert_and_lookup() {
        let (_, _, dag) = full_dag(4, 3);
        assert_eq!(dag.round_size(0), 4);
        assert_eq!(dag.round_size(3), 4);
        assert_eq!(dag.highest_round(), 3);
        assert_eq!(dag.len(), 16);
        let cert = dag.get(2, ValidatorId(1)).expect("present");
        assert!(dag.contains_digest(&cert.header_digest()));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (_, _, mut dag) = full_dag(4, 1);
        let cert = dag.get(1, ValidatorId(0)).unwrap().clone();
        assert_eq!(dag.insert(cert), InsertOutcome::Duplicate);
        dag.check_invariants();
    }

    fn certify(committee: &Committee, kps: &[KeyPair], header: Header) -> Certificate {
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .map(|(j, vkp)| {
                Vote::new(
                    vkp,
                    ValidatorId(j as u32),
                    header.digest(),
                    header.round,
                    header.author,
                )
            })
            .collect();
        Certificate::from_votes(committee, header, &votes).expect("quorum")
    }

    #[test]
    fn equivocation_twins_share_a_slot_without_double_counting() {
        let (committee, kps, mut dag) = full_dag(4, 1);
        let first = dag.get(1, ValidatorId(0)).unwrap().clone();
        let twin_header = first.header.twin(&kps[0]);
        let twin = certify(&committee, &kps, twin_header);

        assert_eq!(dag.insert(twin.clone()), InsertOutcome::Inserted);
        dag.check_invariants();
        // Both twins are reachable by digest — children referencing either
        // one must never wedge on an unresolvable parent.
        assert!(dag.contains_digest(&first.header_digest()));
        assert!(dag.contains_digest(&twin.header_digest()));
        // But the author still counts once toward the round's quorum.
        assert_eq!(dag.round_size(1), 4);
        assert_eq!(dag.len(), 4 + 4 + 1);
        // Slot lookup stays deterministic: the first-arrived twin wins.
        assert_eq!(
            dag.get(1, ValidatorId(0)).unwrap().header_digest(),
            first.header_digest()
        );
        // Re-inserting either twin is a duplicate, and a third distinct
        // block for the slot is capped. (The twin of a twin is the original
        // block again — the coin-share flip is an involution — so the third
        // block varies the payload instead.)
        assert_eq!(dag.insert(twin.clone()), InsertOutcome::Duplicate);
        let third_header = Header::new(
            &kps[0],
            ValidatorId(0),
            1,
            vec![(Digest::of(b"third"), nt_types::WorkerId(0))],
            first.header.parents.clone(),
            None,
        );
        let third = certify(&committee, &kps, third_header);
        assert_ne!(third.header_digest(), first.header_digest());
        assert_ne!(third.header_digest(), twin.header_digest());
        assert_eq!(dag.insert(third), InsertOutcome::Duplicate);
        dag.check_invariants();
    }

    #[test]
    fn children_of_a_late_twin_resolve_and_commit() {
        // A child referencing the *second* twin arrives before that twin:
        // the edge must resolve on the twin's arrival exactly like any late
        // parent, and history collection must traverse it.
        let (committee, kps, mut dag) = full_dag(4, 1);
        let first = dag.get(1, ValidatorId(0)).unwrap().clone();
        let twin = certify(&committee, &kps, first.header.twin(&kps[0]));

        let mut parents: Vec<Digest> = dag.round_certs(1).map(|c| c.header_digest()).collect();
        parents[0] = twin.header_digest(); // reference the twin, not the original
        let child_header = Header::new(&kps[1], ValidatorId(1), 2, vec![], parents, None);
        let child = certify(&committee, &kps, child_header);

        assert_eq!(dag.insert(child.clone()), InsertOutcome::Inserted);
        assert_eq!(dag.missing_parents(&child), vec![twin.header_digest()]);
        assert_eq!(dag.insert(twin.clone()), InsertOutcome::Inserted);
        dag.check_invariants();
        assert!(dag.missing_parents(&child).is_empty());
        assert!(dag.path_exists(&child, &twin));
        let history = dag
            .collect_history(&child, &HashSet::new())
            .expect("twin parent resolved");
        assert!(history
            .iter()
            .any(|c| c.header_digest() == twin.header_digest()));
    }

    #[test]
    fn support_counts_referencing_blocks() {
        let (_, _, dag) = full_dag(4, 2);
        // Fully connected: all 4 round-2 blocks reference each round-1 block.
        let leader = dag.get(1, ValidatorId(2)).unwrap();
        assert_eq!(dag.support(&leader.header_digest(), 1), 4);
        // Nothing at the top round references anyone yet.
        let top = dag.get(2, ValidatorId(0)).unwrap();
        assert_eq!(dag.support(&top.header_digest(), 2), 0);
        // The id-based view agrees.
        let view = dag.view();
        let leader_id = view.id_at(1, ValidatorId(2)).unwrap();
        assert_eq!(view.support(leader_id), 4);
    }

    #[test]
    fn path_exists_in_full_dag() {
        let (_, _, dag) = full_dag(4, 4);
        let high = dag.get(4, ValidatorId(0)).unwrap();
        let low = dag.get(1, ValidatorId(3)).unwrap();
        assert!(dag.path_exists(high, low));
        assert!(!dag.path_exists(low, high), "paths only go down");
        let view = dag.view();
        let high_id = view.id_at(4, ValidatorId(0)).unwrap();
        let low_id = view.id_at(1, ValidatorId(3)).unwrap();
        assert!(view.path_exists(high_id, low_id));
        assert!(!view.path_exists(low_id, high_id));
    }

    #[test]
    fn collect_history_is_deterministic_and_complete() {
        let (_, _, dag) = full_dag(4, 3);
        let anchor = dag.get(3, ValidatorId(1)).unwrap().clone();
        let mut ordered = HashSet::new();
        let history = dag.collect_history(&anchor, &ordered).expect("complete");
        // Genesis + rounds 1-2 + the anchor itself.
        assert_eq!(history.len(), 4 * 3 + 1);
        // Sorted by (round, author).
        for w in history.windows(2) {
            assert!((w[0].round(), w[0].origin()) < (w[1].round(), w[1].origin()));
        }
        // A second anchor at the same round orders only itself
        // (Containment: its history is a subset of what is ordered).
        for c in &history {
            ordered.insert(c.header_digest());
        }
        let anchor2 = dag.get(3, ValidatorId(2)).unwrap().clone();
        let rest = dag.collect_history(&anchor2, &ordered).expect("complete");
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn collect_history_reports_missing() {
        let (committee, kps, dag) = full_dag(4, 2);
        // Build a round-3 block whose parents are round-2 certs, but insert
        // it into a *fresh* DAG missing one parent.
        let parents: Vec<Digest> = dag.round_certs(2).map(|c| c.header_digest()).collect();
        let header = Header::new(&kps[0], ValidatorId(0), 3, vec![], parents, None);
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .map(|(j, vkp)| {
                Vote::new(
                    vkp,
                    ValidatorId(j as u32),
                    header.digest(),
                    3,
                    header.author,
                )
            })
            .collect();
        let anchor = Certificate::from_votes(&committee, header, &votes).unwrap();

        let mut partial = Dag::new();
        partial.insert_genesis(Certificate::genesis_set(&committee));
        for r in 1..=2 {
            for c in dag.round_certs(r) {
                if r == 2 && c.origin() == ValidatorId(3) {
                    continue;
                }
                partial.insert(c.clone());
            }
        }
        partial.insert(anchor.clone());
        partial.check_invariants();
        let missing = partial
            .collect_history(&anchor, &HashSet::new())
            .expect_err("one parent missing");
        assert_eq!(missing.len(), 1);
        assert_eq!(
            missing[0],
            dag.get(2, ValidatorId(3)).unwrap().header_digest()
        );
    }

    #[test]
    fn missing_parents_empty_when_present() {
        let (_, _, dag) = full_dag(4, 2);
        let cert = dag.get(2, ValidatorId(0)).unwrap();
        assert!(dag.missing_parents(cert).is_empty());
    }

    #[test]
    fn gc_prunes_and_rejects_old() {
        let (_, _, mut dag) = full_dag(4, 5);
        let pruned = dag.gc(2);
        dag.check_invariants();
        assert_eq!(pruned.len(), 4 * 3, "rounds 0-2 pruned");
        assert_eq!(dag.round_size(2), 0);
        assert_eq!(dag.round_size(3), 4);
        assert_eq!(dag.first_retained_round(), 3);
        // The pruned certificates come back in (round, author) order.
        for w in pruned.windows(2) {
            assert!((w[0].round(), w[0].origin()) < (w[1].round(), w[1].origin()));
        }
        // Late certificates below the boundary are ignored.
        let old = pruned
            .iter()
            .find(|c| c.round() == 2)
            .expect("round-2 cert")
            .clone();
        assert_eq!(dag.insert(old), InsertOutcome::BelowGc);
        // GC never regresses.
        assert!(dag.gc(1).is_empty());
        // A boundary with no round above it (a forged snapshot base carries
        // one) prunes nothing instead of overflowing.
        assert!(dag.gc(Round::MAX).is_empty());
        assert_eq!(dag.first_retained_round(), 3);
    }

    #[test]
    fn gc_compaction_keeps_queries_consistent() {
        // After compaction the slab is renumbered; every query path must
        // still agree with the surviving certificates.
        let (_, _, mut dag) = full_dag(4, 6);
        dag.gc(3);
        dag.check_invariants();
        assert_eq!(dag.len(), 4 * 3, "rounds 4-6 survive, densely stored");
        for r in 4..=6u64 {
            for a in 0..4u32 {
                let cert = dag.get(r, ValidatorId(a)).expect("survivor");
                assert_eq!(cert.round(), r);
                assert_eq!(cert.origin(), ValidatorId(a));
                assert!(dag.contains_digest(&cert.header_digest()));
            }
        }
        // Support and paths still work across the surviving rounds.
        let leader = dag.get(5, ValidatorId(1)).unwrap().clone();
        assert_eq!(dag.support(&leader.header_digest(), 5), 4);
        let high = dag.get(6, ValidatorId(2)).unwrap().clone();
        assert!(dag.path_exists(&high, &leader));
        // Round 4's parents are pruned: their digests are unresolved again.
        let low = dag.get(4, ValidatorId(0)).unwrap();
        assert!(
            dag.missing_parents(low).is_empty(),
            "at-boundary certificates require no parents"
        );
    }

    #[test]
    fn late_parent_patches_waiting_children() {
        // Insert a child before its parent: the edge is unresolved, support
        // and paths still see it via the digest fallback; once the parent
        // arrives, the edge is interned and id walks traverse it.
        let (committee, kps, dag) = full_dag(4, 2);
        let parents: Vec<Digest> = dag.round_certs(2).map(|c| c.header_digest()).collect();
        let header = Header::new(&kps[0], ValidatorId(0), 3, vec![], parents, None);
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .map(|(j, vkp)| {
                Vote::new(
                    vkp,
                    ValidatorId(j as u32),
                    header.digest(),
                    3,
                    header.author,
                )
            })
            .collect();
        let child = Certificate::from_votes(&committee, header, &votes).unwrap();

        let mut partial = Dag::new();
        partial.insert_genesis(Certificate::genesis_set(&committee));
        let withheld = dag.get(2, ValidatorId(3)).unwrap().clone();
        for r in 1..=2 {
            for c in dag.round_certs(r) {
                if r == 2 && c.origin() == ValidatorId(3) {
                    continue;
                }
                partial.insert(c.clone());
            }
        }
        partial.insert(child.clone());
        partial.check_invariants();
        // The unresolved edge still counts as support and as a path.
        assert_eq!(partial.support(&withheld.header_digest(), 2), 1);
        assert!(partial.path_exists(&child, &withheld));
        // Late arrival interns the edge.
        assert_eq!(partial.insert(withheld.clone()), InsertOutcome::Inserted);
        partial.check_invariants();
        assert_eq!(partial.support(&withheld.header_digest(), 2), 1);
        assert!(partial.path_exists(&child, &withheld));
        let history = partial
            .collect_history(&child, &HashSet::new())
            .expect("complete once the parent arrived");
        assert_eq!(history.len(), 4 * 3 + 1);
    }

    #[test]
    fn history_respects_gc_boundary() {
        let (_, _, mut dag) = full_dag(4, 4);
        dag.gc(2);
        let anchor = dag.get(4, ValidatorId(0)).unwrap().clone();
        let history = dag
            .collect_history(&anchor, &HashSet::new())
            .expect("rounds above gc are complete");
        // Only rounds 3 and 4 remain orderable.
        assert!(history.iter().all(|c| c.round() >= 3));
        assert_eq!(history.len(), 4 + 1);
    }

    #[test]
    fn memory_stays_bounded_with_gc() {
        // The §3.3 claim: with GC the working set is O(gc_depth * n).
        let (_, _, mut dag) = full_dag(4, 30);
        assert_eq!(dag.len(), 4 * 31, "everything retained without GC");
        for r in 10u64..=30 {
            dag.gc(r - 10);
        }
        dag.check_invariants();
        // With a sliding GC window of depth 10, only rounds 21..=30 remain.
        assert_eq!(dag.len(), 4 * 10);
        assert_eq!(dag.round_size(20), 0);
        assert_eq!(dag.round_size(21), 4);
    }
}
