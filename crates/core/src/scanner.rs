//! The ScanCount neighborhood scanner — the core of Optimized Edge Weighting
//! (Algorithm 3).
//!
//! For a profile `p_i`, the scanner walks the members of every block in
//! `B_i` and accumulates, per co-occurring profile `p_j`, either the number
//! of shared blocks (`commonBlocks[j]` in the paper's pseudo-code) or — for
//! the ARCS scheme — the sum `Σ 1/‖b‖` over the shared blocks.
//!
//! Neither accumulator is cleared in `O(|E|)` per node. A count is its own
//! mark: zero means "not in this neighborhood", and the next scan zeroes
//! exactly the neighbors the last one found. The ARCS sum keeps the paper's
//! `flags` epoch array beside its `f64` scores. A counting scan over a store
//! that keeps slots ([`CandidateStore::slots`]) uses the pivot's position in
//! each Dirty block, whose members ascend: an edge sweep starts the block's
//! walk right past the pivot, where every member is a greater id, and a
//! neighborhood ([`ScanScope::All`]) walks `members[..slot]`, then
//! `members[slot + 1..]` — the whole-block visit order without the pivot,
//! and no test of any member against the pivot or the scope. ARCS keeps its
//! whole-block walk with both tests.

use crate::store::CandidateStore;
use er_model::{EntityId, ErKind, U32s};

/// What the scanner accumulates per co-occurring profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulate {
    /// `|B_ij|` — the number of shared blocks (CBS/ECBS/JS/EJS).
    CommonBlocks,
    /// `Σ_{b ∈ B_ij} 1/‖b‖` — the ARCS numerator.
    ReciprocalCardinalities,
}

/// Which co-occurring profiles a scan should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanScope {
    /// Every comparable neighbor — used by node-centric traversals.
    All,
    /// Only neighbors with a larger entity id — used by edge-centric
    /// traversals over Dirty ER so each edge is visited exactly once.
    GreaterOnly,
}

/// Reusable scan state: `O(|E|)` once, `O(1)` amortized per scanned edge.
///
/// Each accumulator's array is sized to `|E|` by the first scan that uses
/// it, so a scanner that only counts holds 4 B per entity and one that only
/// sums ARCS holds 12. The default is a scanner over no entities, for a
/// [`crate::ScorerScratch`] to refit to each graph it serves.
#[derive(Debug, Default)]
pub struct NeighborhoodScanner {
    /// [`Accumulate::CommonBlocks`]: `counts[j]` is the number of the
    /// pivot's blocks holding `j`. Only the latest count scan's neighbors
    /// are non-zero.
    counts: Vec<u32>,
    /// Whether `neighbors` are the latest count scan's, still to be zeroed.
    counted: bool,
    /// [`Accumulate::ReciprocalCardinalities`] epoch markers: `flags[j] ==
    /// tick` means `score[j]` is current. A scan never runs at tick 0, so 0
    /// marks an entry no scan has touched.
    flags: Vec<u32>,
    score: Vec<f64>,
    neighbors: Vec<u32>,
    tick: u32,
    /// `|E|`, which the arrays are grown to on use.
    num_entities: usize,
}

impl NeighborhoodScanner {
    /// Creates a scanner for graphs over `num_entities` profiles.
    pub fn new(num_entities: usize) -> Self {
        let mut scanner = NeighborhoodScanner::default();
        scanner.resize(num_entities);
        scanner
    }

    /// Refits the scanner to a graph over `num_entities` profiles, keeping
    /// its buffers and its epoch: the last scan's counts are zeroed, surplus
    /// entries are truncated, new ones arrive unmarked at the next scan, and
    /// everything an earlier ARCS scan marked is stale at the next tick.
    /// This is what lets a serving connection carry one scanner from
    /// generation to generation instead of zeroing `O(|E|)` per re-pin.
    pub(crate) fn resize(&mut self, num_entities: usize) {
        self.unmark();
        self.num_entities = num_entities;
        self.counts.truncate(num_entities);
        self.flags.truncate(num_entities);
        self.score.truncate(num_entities);
    }

    /// Zeroes the counts the latest scan left and forgets its neighbors.
    fn unmark(&mut self) {
        if std::mem::take(&mut self.counted) {
            for &j in &self.neighbors {
                self.counts[j as usize] = 0;
            }
        }
        self.neighbors.clear();
    }

    /// Places the epoch counter, so a test can stand just before its wrap.
    #[cfg(test)]
    pub(crate) fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// The epoch of the latest ARCS scan, so a test can tell the wrap
    /// happened.
    #[cfg(test)]
    pub(crate) fn tick(&self) -> u32 {
        self.tick
    }

    /// Scans the neighborhood of the indexed entity `pivot` over any
    /// [`CandidateStore`] and returns the co-occurring profiles with their
    /// accumulated scores.
    ///
    /// The returned slices are valid until the next call. Neighbor order is
    /// first-co-occurrence order and therefore deterministic (and identical
    /// across store implementations, which present the same member order).
    #[inline]
    pub fn scan<S: CandidateStore>(
        &mut self,
        store: &S,
        pivot: EntityId,
        accumulate: Accumulate,
        scope: ScanScope,
    ) -> Neighborhood<'_> {
        self.scan_pivot(store, Pivot::indexed(store, pivot), accumulate, scope)
    }

    /// The scan loop itself, over whatever `pivot` describes — the one walk
    /// of `B_i` every sweep and every served query runs.
    pub(crate) fn scan_pivot<S: CandidateStore>(
        &mut self,
        store: &S,
        pivot: Pivot<'_>,
        accumulate: Accumulate,
        scope: ScanScope,
    ) -> Neighborhood<'_> {
        self.unmark();
        let n = self.num_entities;
        let scores = match accumulate {
            Accumulate::CommonBlocks => {
                if self.counts.len() < n {
                    self.counts.resize(n, 0);
                }
                self.counted = true;
                let (counts, neighbors) = (&mut self.counts, &mut self.neighbors);
                let mut count = |j: u32| {
                    let c = &mut counts[j as usize];
                    if *c == 0 {
                        neighbors.push(j);
                    }
                    *c += 1;
                };
                match pivot.slots {
                    // Dirty blocks, whose members ascend: everything before
                    // the pivot's slot is a lesser id, everything past it a
                    // greater one. An edge sweep walks the part past it; a
                    // neighborhood walks both parts, in block order, and
                    // tests no member.
                    Some(slots) => {
                        let mut i = 0;
                        pivot.blocks.for_each(|k| {
                            let members = store.members_of(k as usize, false);
                            let slot = slots[i] as usize;
                            i += 1;
                            #[cfg(feature = "sanitize")]
                            assert!(
                                slot < members.len() && members.get(slot) == pivot.id,
                                "mb-sanitize: slot {slot} of entity {} in block {k} of {} members",
                                pivot.id,
                                members.len()
                            );
                            if scope == ScanScope::All {
                                members.slice(0, slot).for_each(&mut count);
                            }
                            members.slice(slot + 1, members.len()).for_each(&mut count);
                        });
                    }
                    None => pivot.blocks.for_each(|k| {
                        store.members_of(k as usize, pivot.scan_right).for_each(|j| {
                            // Neither test can hold for a probe: no member
                            // has id `|E|`.
                            if j == pivot.id {
                                return;
                            }
                            if scope == ScanScope::GreaterOnly && j < pivot.id {
                                return;
                            }
                            count(j);
                        });
                    }),
                }
                Scores::Counts(&self.counts)
            }
            // ARCS keeps the epoch-marked walk of whole blocks, slots or
            // not: routed through the count path's two-branch walk it ran
            // ~30 % slower.
            Accumulate::ReciprocalCardinalities => {
                if self.flags.len() < n {
                    self.flags.resize(n, 0);
                    self.score.resize(n, 0.0);
                }
                self.tick = self.tick.wrapping_add(1);
                if self.tick == 0 {
                    // Extremely unlikely wrap-around: reset markers to stay sound.
                    self.flags.fill(0);
                    self.tick = 1;
                }
                let tick = self.tick;
                let (flags, score, neighbors) =
                    (&mut self.flags, &mut self.score, &mut self.neighbors);
                pivot.blocks.for_each(|k| {
                    let increment = store.recip_cardinality_of(k as usize);
                    store.members_of(k as usize, pivot.scan_right).for_each(|j| {
                        if j == pivot.id {
                            return;
                        }
                        if scope == ScanScope::GreaterOnly && j < pivot.id {
                            return;
                        }
                        let idx = j as usize;
                        if flags[idx] != tick {
                            flags[idx] = tick;
                            score[idx] = 0.0;
                            neighbors.push(j);
                        }
                        score[idx] += increment;
                    });
                });
                Scores::Sums(&self.score)
            }
        };
        Neighborhood { ids: &self.neighbors, scores }
    }
}

/// What a neighborhood scan pivots on: the blocks to walk, which side of
/// them to read, and the pivot's place in the id order. An indexed entity
/// reads all of it from the store; a *probe* — a profile that is in no block
/// yet — supplies it, and is thereby scanned, weighed and ranked by the
/// code that serves indexed entities.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pivot<'a> {
    /// `B_i`: the blocks the pivot is (or would be) placed in, ascending.
    pub(crate) blocks: U32s<'a>,
    /// Whether the scan compares against right-side members: only a
    /// Clean-Clean pivot of the first collection does (Dirty blocks keep
    /// every member on the left).
    pub(crate) scan_right: bool,
    /// The id a member is skipped for equalling, [`ScanScope::GreaterOnly`]
    /// compares against, and ranking ties break on. A probe stands at `|E|`,
    /// past every real id.
    pub(crate) id: u32,
    /// Dirty ER, when the store keeps them: the pivot's position in each of
    /// `blocks`' member lists ([`CandidateStore::slots`]), where a counting
    /// scan splits each block's walk. A probe has none.
    pub(crate) slots: Option<&'a [u32]>,
}

impl<'a> Pivot<'a> {
    /// The indexed entity `id` of `store`.
    #[inline]
    pub(crate) fn indexed<S: CandidateStore>(store: &'a S, id: EntityId) -> Self {
        Pivot {
            blocks: store.block_list(id),
            scan_right: store.scan_right(id),
            id: id.0,
            slots: store.slots(id),
        }
    }

    /// A profile outside the index that would occupy `block_ids` (ids into
    /// `store`'s blocks, ascending), on the first Clean-Clean side iff
    /// `is_first` (ignored for Dirty ER).
    pub(crate) fn probe<S: CandidateStore>(
        store: &S,
        block_ids: &'a [u32],
        is_first: bool,
    ) -> Self {
        Pivot {
            blocks: U32s::Native(block_ids),
            scan_right: store.kind() != ErKind::Dirty && is_first,
            // Entity ids are dense u32s, so |E| itself always fits.
            id: store.num_entities() as u32,
            slots: None,
        }
    }
}

/// The result of one scan: neighbor ids plus an indexed score array.
#[derive(Debug)]
pub struct Neighborhood<'a> {
    /// Co-occurring profile ids, in first-co-occurrence order.
    pub ids: &'a [u32],
    scores: Scores<'a>,
}

/// The array a scan accumulated into, indexed by entity id.
#[derive(Debug, Clone, Copy)]
enum Scores<'a> {
    /// Common-block counts ([`Accumulate::CommonBlocks`]).
    Counts(&'a [u32]),
    /// ARCS sums ([`Accumulate::ReciprocalCardinalities`]).
    Sums(&'a [f64]),
}

impl Neighborhood<'_> {
    /// The accumulated score of neighbor `j` (a count converts exactly).
    ///
    /// Only meaningful for ids in [`Neighborhood::ids`].
    #[inline]
    pub fn score_of(&self, j: u32) -> f64 {
        match self.scores {
            Scores::Counts(counts) => f64::from(counts[j as usize]),
            Scores::Sums(sums) => sums[j as usize],
        }
    }

    /// Number of distinct neighbors — the node degree `|v_i|`.
    pub fn degree(&self) -> usize {
        self.ids.len()
    }

    /// Iterator over `(neighbor, score)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, f64)> + '_ {
        self.ids.iter().map(move |&j| (EntityId(j), self.score_of(j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphContext;
    use er_model::{Block, BlockCollection, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn dirty_fixture() -> BlockCollection {
        // b0 = {0,1,2} (card 3), b1 = {0,1} (card 1), b2 = {1,3} (card 1).
        BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[1, 3])),
            ],
        )
    }

    #[test]
    fn counts_common_blocks() {
        let blocks = dirty_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut sc = NeighborhoodScanner::new(4);
        let n = sc.scan(&ctx, EntityId(1), Accumulate::CommonBlocks, ScanScope::All);
        assert_eq!(n.degree(), 3);
        assert_eq!(n.score_of(0), 2.0);
        assert_eq!(n.score_of(2), 1.0);
        assert_eq!(n.score_of(3), 1.0);
    }

    #[test]
    fn accumulates_reciprocal_cardinalities() {
        let blocks = dirty_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut sc = NeighborhoodScanner::new(4);
        let n = sc.scan(&ctx, EntityId(0), Accumulate::ReciprocalCardinalities, ScanScope::All);
        // Neighbor 1 shares b0 (card 3) and b1 (card 1): 1/3 + 1 = 4/3.
        assert!((n.score_of(1) - (1.0 / 3.0 + 1.0)).abs() < 1e-12);
        // Neighbor 2 shares only b0.
        assert!((n.score_of(2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn greater_only_scope_halves_the_edges() {
        let blocks = dirty_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut sc = NeighborhoodScanner::new(4);
        let mut total = 0usize;
        for i in 0..4u32 {
            total += sc
                .scan(&ctx, EntityId(i), Accumulate::CommonBlocks, ScanScope::GreaterOnly)
                .degree();
        }
        // Distinct edges: (0,1),(0,2),(1,2),(1,3) = 4.
        assert_eq!(total, 4);
    }

    #[test]
    fn state_is_reset_between_scans() {
        let blocks = dirty_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut sc = NeighborhoodScanner::new(4);
        let first = sc.scan(&ctx, EntityId(1), Accumulate::CommonBlocks, ScanScope::All);
        assert_eq!(first.score_of(0), 2.0);
        let second = sc.scan(&ctx, EntityId(2), Accumulate::CommonBlocks, ScanScope::All);
        // From node 2's perspective node 0 shares exactly one block; a stale
        // accumulator would report 3.
        assert_eq!(second.score_of(0), 1.0);
        assert_eq!(second.degree(), 2);
    }

    #[test]
    fn an_arcs_scanner_carried_across_the_epoch_wrap_scans_like_a_new_one() {
        let blocks = dirty_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut carried = NeighborhoodScanner::new(4);
        carried.set_tick(u32::MAX - 5);
        let mut fresh = NeighborhoodScanner::new(4);
        for round in 0..3 {
            for i in 0..4 {
                let accumulate = Accumulate::ReciprocalCardinalities;
                let want: Vec<_> =
                    fresh.scan(&ctx, EntityId(i), accumulate, ScanScope::All).iter().collect();
                let got: Vec<_> =
                    carried.scan(&ctx, EntityId(i), accumulate, ScanScope::All).iter().collect();
                assert_eq!(got, want, "round {round}, pivot {i}");
            }
        }
        assert!(carried.tick() < 16, "the epoch wrapped");
    }

    /// xorshift64* — enough randomness for a differential test, no
    /// dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }

        /// `len` distinct ids of `lo..hi`, ascending.
        fn members(&mut self, lo: u32, hi: u32, len: usize) -> Vec<EntityId> {
            let mut picked = std::collections::BTreeSet::new();
            while picked.len() < len.min((hi - lo) as usize) {
                picked.insert(lo + self.below(u64::from(hi - lo)) as u32);
            }
            picked.into_iter().map(EntityId).collect()
        }
    }

    /// A seeded collection over `n` profiles (split at `n / 3` when
    /// Clean-Clean): blocks of 2–200 members, some singletons, some
    /// profiles in no block.
    fn random_collection(rng: &mut Rng, kind: ErKind, n: u32) -> BlockCollection {
        let split = n / 3;
        let blocks = (0..10 + rng.below(40))
            .map(|_| {
                let len = match rng.below(4) {
                    0 => 1,
                    1 => 2 + rng.below(199) as usize,
                    _ => 2 + rng.below(20) as usize,
                };
                match kind {
                    ErKind::Dirty => Block::dirty(rng.members(0, n, len)),
                    ErKind::CleanClean if len == 1 => {
                        Block::clean_clean(rng.members(0, split, 1), Vec::new())
                    }
                    ErKind::CleanClean => Block::clean_clean(
                        rng.members(0, split, len / 2),
                        rng.members(split, n, len - len / 2),
                    ),
                }
            })
            .collect();
        BlockCollection::new(kind, n as usize, blocks)
    }

    /// Everything a [`GraphContext`] presents except its slots.
    struct NoSlots<'c, 'b>(&'c GraphContext<'b>);

    impl CandidateStore for NoSlots<'_, '_> {
        fn kind(&self) -> ErKind {
            self.0.kind()
        }
        fn split(&self) -> usize {
            self.0.split()
        }
        fn num_entities(&self) -> usize {
            self.0.num_entities()
        }
        fn num_blocks(&self) -> usize {
            CandidateStore::num_blocks(self.0)
        }
        fn block_list(&self, id: EntityId) -> U32s<'_> {
            CandidateStore::block_list(self.0, id)
        }
        fn members_of(&self, block: usize, scan_right: bool) -> U32s<'_> {
            CandidateStore::members_of(self.0, block, scan_right)
        }
        fn recip_cardinality_of(&self, block: usize) -> f64 {
            self.0.recip_cardinality_of(block)
        }
    }

    /// The scan by definition: every member of every block of `B_i` on the
    /// compared side, in order, skipping the pivot and (in an edge sweep)
    /// lesser ids; neighbors in order of first co-occurrence, scores as
    /// `(neighbor, score bits)`.
    fn oracle(
        ctx: &GraphContext<'_>,
        pivot: EntityId,
        accumulate: Accumulate,
        scope: ScanScope,
    ) -> Vec<(u32, u64)> {
        let mut hood: Vec<(u32, f64)> = Vec::new();
        for &k in ctx.index().block_list(pivot) {
            let block = ctx.blocks().block(k as usize);
            let side =
                if CandidateStore::scan_right(ctx, pivot) { block.right() } else { block.left() };
            for &j in side {
                if j == pivot || (scope == ScanScope::GreaterOnly && j < pivot) {
                    continue;
                }
                let increment = match accumulate {
                    Accumulate::CommonBlocks => 1.0,
                    Accumulate::ReciprocalCardinalities => ctx.recip_cardinality_of(k as usize),
                };
                match hood.iter_mut().find(|(id, _)| *id == j.0) {
                    Some((_, score)) => *score += increment,
                    None => hood.push((j.0, increment)),
                }
            }
        }
        hood.into_iter().map(|(j, score)| (j, score.to_bits())).collect()
    }

    /// One carried scanner — resized up and down from collection to
    /// collection, switching accumulator every scan, over a store with slots
    /// and one without — scans every pivot of seeded Dirty and Clean-Clean
    /// collections under both scopes exactly as the definition does:
    /// neighbor order and score bits.
    #[test]
    fn a_carried_scanner_equals_the_first_co_occurrence_oracle() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut carried = NeighborhoodScanner::default();
        let mut turn = 0usize;
        for (round, n) in [300u32, 40, 420, 3, 250, 90].into_iter().enumerate() {
            let kind = if round % 2 == 0 { ErKind::Dirty } else { ErKind::CleanClean };
            for kind in
                [kind, if kind == ErKind::Dirty { ErKind::CleanClean } else { ErKind::Dirty }]
            {
                let blocks = random_collection(&mut rng, kind, n);
                let split = if kind == ErKind::Dirty { n as usize } else { (n / 3) as usize };
                let ctx = GraphContext::new(&blocks, split);
                assert_eq!(ctx.slots_of(EntityId(0)).is_some(), kind == ErKind::Dirty);
                carried.resize(n as usize);
                for i in (0..n).map(EntityId) {
                    for scope in [ScanScope::All, ScanScope::GreaterOnly] {
                        for _ in 0..2 {
                            turn += 1;
                            let accumulate = if turn % 3 == 0 {
                                Accumulate::ReciprocalCardinalities
                            } else {
                                Accumulate::CommonBlocks
                            };
                            let want = oracle(&ctx, i, accumulate, scope);
                            let bits = |n: Neighborhood<'_>| -> Vec<(u32, u64)> {
                                n.iter().map(|(j, s)| (j.0, s.to_bits())).collect()
                            };
                            let with = bits(carried.scan(&ctx, i, accumulate, scope));
                            assert_eq!(
                                with, want,
                                "{kind:?} |E| {n}, {i} {accumulate:?} {scope:?}"
                            );
                            let without = bits(carried.scan(&NoSlots(&ctx), i, accumulate, scope));
                            assert_eq!(without, want, "{kind:?} |E| {n}, {i}, no slots");
                        }
                    }
                }
                // Leave counts behind for the next resize to clear.
                carried.scan(&ctx, EntityId(0), Accumulate::CommonBlocks, ScanScope::All);
            }
        }
    }

    #[test]
    fn clean_clean_scans_only_cross_side() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            5,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[3, 4])),
                Block::clean_clean(ids(&[0]), ids(&[3])),
            ],
        );
        let ctx = GraphContext::new(&blocks, 3);
        let mut sc = NeighborhoodScanner::new(5);
        // Left pivot sees only right members.
        let n = sc.scan(&ctx, EntityId(0), Accumulate::CommonBlocks, ScanScope::All);
        assert_eq!(n.degree(), 2);
        assert_eq!(n.score_of(3), 2.0);
        assert_eq!(n.score_of(4), 1.0);
        // Right pivot sees only left members.
        let n = sc.scan(&ctx, EntityId(4), Accumulate::CommonBlocks, ScanScope::All);
        assert_eq!(n.degree(), 2);
        assert_eq!(n.score_of(0), 1.0);
        assert_eq!(n.score_of(1), 1.0);
    }

    #[test]
    fn isolated_node_has_empty_neighborhood() {
        let blocks = dirty_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut sc = NeighborhoodScanner::new(4);
        // Entity 3 is only in b2 with entity 1.
        let n = sc.scan(&ctx, EntityId(3), Accumulate::CommonBlocks, ScanScope::All);
        assert_eq!(n.degree(), 1);
    }
}
