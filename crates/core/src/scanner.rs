//! The ScanCount neighborhood scanner — the core of Optimized Edge Weighting
//! (Algorithm 3).
//!
//! For a profile `p_i`, the scanner walks the members of every block in
//! `B_i` and accumulates, per co-occurring profile `p_j`, either the number
//! of shared blocks (`commonBlocks[j]` in the paper's pseudo-code) or — for
//! the ARCS scheme — the sum `Σ 1/‖b‖` over the shared blocks. An epoch
//! array (`flags` in the paper) avoids clearing the accumulators between
//! nodes, which would cost `O(|E|)` per node.

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
/// The default is a scanner over no entities, for a [`crate::ScorerScratch`]
/// to refit to each graph it serves.
#[derive(Debug, Default)]
pub struct NeighborhoodScanner {
    /// Epoch markers: `flags[j] == tick` means `score[j]` is current. A scan
    /// never runs at tick 0, so 0 marks an entry no scan has touched.
    flags: Vec<u32>,
    score: Vec<f64>,
    neighbors: Vec<u32>,
    tick: u32,
}

impl NeighborhoodScanner {
    /// Creates a scanner for graphs over `num_entities` profiles.
    pub fn new(num_entities: usize) -> Self {
        let mut scanner = NeighborhoodScanner::default();
        scanner.resize(num_entities);
        scanner
    }

    /// Refits the scanner to a graph over `num_entities` profiles, keeping
    /// its buffers and its epoch: new entries arrive unmarked, surplus ones
    /// are truncated, and everything an earlier scan marked is stale at the
    /// next tick. This is what lets a serving connection carry one scanner
    /// from generation to generation instead of zeroing `O(|E|)` per re-pin.
    pub(crate) fn resize(&mut self, num_entities: usize) {
        self.flags.resize(num_entities, 0);
        self.score.resize(num_entities, 0.0);
    }

    /// Places the epoch counter, so a test can stand just before its wrap.
    #[cfg(test)]
    pub(crate) fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// The epoch of the latest scan, so a test can tell the wrap happened.
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
        self.tick = self.tick.wrapping_add(1);
        if self.tick == 0 {
            // Extremely unlikely wrap-around: reset markers to stay sound.
            self.flags.fill(0);
            self.tick = 1;
        }
        self.neighbors.clear();

        let tick = self.tick;
        let (flags, score, neighbors) = (&mut self.flags, &mut self.score, &mut self.neighbors);
        pivot.blocks.for_each(|k| {
            let increment = match accumulate {
                Accumulate::CommonBlocks => 1.0,
                Accumulate::ReciprocalCardinalities => store.recip_cardinality_of(k as usize),
            };
            store.members_of(k as usize, pivot.scan_right).for_each(|j| {
                // Neither test can hold for a probe: no member has id `|E|`.
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
        Neighborhood { ids: &self.neighbors, score: &self.score }
    }
}

/// What a neighborhood scan pivots on: the blocks to walk, which side of
/// them to read, and the pivot's place in the id order. An indexed entity
/// reads all three from the store; a *probe* — a profile that is in no block
/// yet — supplies them, and is thereby scanned, weighed and ranked by the
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
}

impl<'a> Pivot<'a> {
    /// The indexed entity `id` of `store`.
    #[inline]
    pub(crate) fn indexed<S: CandidateStore>(store: &'a S, id: EntityId) -> Self {
        Pivot { blocks: store.block_list(id), scan_right: store.scan_right(id), id: id.0 }
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
        }
    }
}

/// The result of one scan: neighbor ids plus an indexed score array.
#[derive(Debug)]
pub struct Neighborhood<'a> {
    /// Co-occurring profile ids, in first-co-occurrence order.
    pub ids: &'a [u32],
    score: &'a [f64],
}

impl Neighborhood<'_> {
    /// The accumulated score of neighbor `j`.
    ///
    /// Only meaningful for ids in [`Neighborhood::ids`].
    #[inline]
    pub fn score_of(&self, j: u32) -> f64 {
        self.score[j as usize]
    }

    /// Number of distinct neighbors — the node degree `|v_i|`.
    pub fn degree(&self) -> usize {
        self.ids.len()
    }

    /// Iterator over `(neighbor, score)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, f64)> + '_ {
        self.ids.iter().map(move |&j| (EntityId(j), self.score[j as usize]))
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
    fn a_resized_scanner_scans_like_a_new_one_across_the_epoch_wrap() {
        let small = dirty_fixture();
        let large = BlockCollection::new(
            ErKind::Dirty,
            6,
            vec![
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[1, 3])),
                Block::dirty(ids(&[3, 4, 5])),
                Block::dirty(ids(&[0, 5])),
            ],
        );
        // Carried from graph to graph: grown, truncated, grown again, while
        // its epoch counter runs through u32::MAX and wraps.
        let mut carried = NeighborhoodScanner::default();
        carried.set_tick(u32::MAX - 5);
        for blocks in [&small, &large, &small, &large] {
            let ctx = GraphContext::new_dirty(blocks);
            let n = blocks.num_entities();
            carried.resize(n);
            let mut fresh = NeighborhoodScanner::new(n);
            for i in 0..n as u32 {
                for accumulate in [Accumulate::CommonBlocks, Accumulate::ReciprocalCardinalities] {
                    let want: Vec<_> =
                        fresh.scan(&ctx, EntityId(i), accumulate, ScanScope::All).iter().collect();
                    let got: Vec<_> = carried
                        .scan(&ctx, EntityId(i), accumulate, ScanScope::All)
                        .iter()
                        .collect();
                    assert_eq!(got, want, "|E| = {n}, pivot {i}, {accumulate:?}");
                }
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
