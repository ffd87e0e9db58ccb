//! Progressive Meta-blocking — pay-as-you-go comparison scheduling.
//!
//! The paper motivates efficiency-intensive applications with Pay-as-you-go
//! ER \[26\] and entity-centric search \[25\]: resolution may be cut off at any
//! moment, so the comparisons executed *first* should be the likeliest
//! matches. Cardinality-based pruning (CEP) already ranks edges globally —
//! this module exposes that ranking as a schedule instead of a cutoff:
//! all edges of the (optionally Block-Filtered) blocking graph, emitted in
//! descending weight order.
//!
//! The schedule dominates random comparison order by construction: the
//! progressive-recall test in `tests/` checks the area-under-the-curve
//! advantage on generated data.

use crate::context::GraphContext;
use crate::prune::{heap_prealloc, push_top_k, WeightedEdge};
use crate::weighting::optimized;
use crate::weights::{EdgeWeigher, WeightingScheme};
use er_model::{BlockCollection, EntityId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A descending-weight comparison schedule.
#[derive(Debug)]
pub struct ProgressiveSchedule {
    /// Retained comparisons, best first.
    edges: Vec<(EntityId, EntityId, f64)>,
}

/// Hands every edge of the blocking graph to `sink`, weighed under `scheme`.
fn for_each_weighted_edge(
    blocks: &BlockCollection,
    split: usize,
    scheme: WeightingScheme,
    mut sink: impl FnMut(WeightedEdge),
) {
    let ctx = GraphContext::new(blocks, split);
    let weigher = EdgeWeigher::new(scheme, &ctx);
    optimized::for_each_edge(&ctx, &weigher, |a, b, w| sink(WeightedEdge { w, a: a.0, b: b.0 }));
}

impl ProgressiveSchedule {
    /// Builds the schedule for a block collection under a weighting scheme.
    ///
    /// Materializes the edge list (`O(|E_B|)` memory): a schedule that can
    /// be cut off anywhere is inherently a ranking, and the blocking graphs
    /// that survive Block Filtering fit comfortably (the paper's largest,
    /// D3D, has ~2·10¹⁰ *unfiltered* edges but the use case is
    /// budget-bounded resolution, where the caller bounds the prefix via
    /// [`ProgressiveSchedule::with_budget`]).
    pub fn build(blocks: &BlockCollection, split: usize, scheme: WeightingScheme) -> Self {
        let mut edges = Vec::new();
        for_each_weighted_edge(blocks, split, scheme, |e| edges.push(e));
        Self::ranked(edges)
    }

    /// Builds the schedule but keeps only the best `budget` comparisons,
    /// with `O(min(budget, |E_B|))` memory via CEP's bounded heap: with
    /// `budget` = [`crate::prune::cep_threshold`] this is exactly the
    /// stream [`crate::prune::cep`] emits.
    pub fn with_budget(
        blocks: &BlockCollection,
        split: usize,
        scheme: WeightingScheme,
        budget: usize,
    ) -> Self {
        if budget == 0 {
            return ProgressiveSchedule { edges: Vec::new() };
        }
        let mut heap = BinaryHeap::with_capacity(heap_prealloc(budget));
        for_each_weighted_edge(blocks, split, scheme, |e| push_top_k(&mut heap, e, budget));
        Self::ranked(heap.into_iter().map(|Reverse(e)| e).collect())
    }

    /// CEP's emission order: descending under the [`WeightedEdge`] total
    /// order, so ties rank the same way in a schedule as in a cutoff.
    fn ranked(mut edges: Vec<WeightedEdge>) -> Self {
        edges.sort_unstable_by(|x, y| y.cmp(x));
        let edges = edges.into_iter().map(|e| (EntityId(e.a), EntityId(e.b), e.w)).collect();
        ProgressiveSchedule { edges }
    }

    /// Number of scheduled comparisons.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterator over `(a, b, weight)`, best first.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, EntityId, f64)> + '_ {
        self.edges.iter().copied()
    }

    /// The first `n` comparisons (or all, if fewer).
    pub fn prefix(&self, n: usize) -> &[(EntityId, EntityId, f64)] {
        &self.edges[..n.min(self.edges.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[2, 3])),
            ],
        )
    }

    #[test]
    fn descending_weight_order() {
        let blocks = fixture();
        let s = ProgressiveSchedule::build(&blocks, 4, WeightingScheme::Cbs);
        let weights: Vec<f64> = s.iter().map(|(_, _, w)| w).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]));
        // Strongest first: (0,1) with CBS 2.
        let (a, b, w) = s.iter().next().unwrap();
        assert_eq!((a.0, b.0, w), (0, 1, 2.0));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn budgeted_schedule_matches_full_prefix() {
        let blocks = fixture();
        let full = ProgressiveSchedule::build(&blocks, 4, WeightingScheme::Js);
        let bounded = ProgressiveSchedule::with_budget(&blocks, 4, WeightingScheme::Js, 2);
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.prefix(2), full.prefix(2));
        // Larger budget than edges: everything.
        let all = ProgressiveSchedule::with_budget(&blocks, 4, WeightingScheme::Js, 100);
        assert_eq!(all.len(), full.len());
        assert_eq!(all.prefix(100), full.prefix(100));
        // Nothing is sized from the budget, so one past any allocation is
        // the whole schedule too.
        for huge in [1usize << 40, usize::MAX] {
            let all = ProgressiveSchedule::with_budget(&blocks, 4, WeightingScheme::Js, huge);
            assert_eq!(all.prefix(usize::MAX), full.prefix(usize::MAX));
        }
    }

    /// Seeded random blocks over 14 entities (Clean-Clean: 6 | 8), small
    /// enough that CBS and ECBS tie constantly and CEP's `K` cuts through a
    /// tie group.
    fn random_blocks(kind: ErKind, seed: u64) -> BlockCollection {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let blocks = (0..9)
            .map(|_| {
                let bits = next() & next();
                let members = |range: std::ops::Range<u32>| -> Vec<EntityId> {
                    range.filter(|i| bits >> i & 1 == 1).map(EntityId).collect()
                };
                match kind {
                    ErKind::Dirty => Block::dirty(members(0..14)),
                    ErKind::CleanClean => Block::clean_clean(members(0..6), members(6..14)),
                }
            })
            .filter(Block::has_comparisons)
            .collect();
        BlockCollection::new(kind, 14, blocks)
    }

    #[test]
    fn a_schedule_cut_at_ceps_threshold_is_ceps_output() {
        use crate::weighting::WeightingImpl;
        for (kind, split) in [(ErKind::Dirty, 14), (ErKind::CleanClean, 6)] {
            for seed in [3, 20160315] {
                let blocks = random_blocks(kind, seed);
                for scheme in WeightingScheme::ALL {
                    let what = format!("{kind:?} seed {seed} {scheme:?}");
                    let ctx = GraphContext::new(&blocks, split);
                    let weigher = EdgeWeigher::new(scheme, &ctx);
                    let mut cep = Vec::new();
                    let imp = WeightingImpl::Optimized;
                    let sweep = crate::parallel::Sweep::new(&ctx, &weigher, imp, 1);
                    crate::prune::cep(&sweep, &mut mb_observe::Noop, |a, b| {
                        cep.push((a, b));
                    });
                    let k = crate::prune::cep_threshold(&ctx);
                    let full = ProgressiveSchedule::build(&blocks, split, scheme);
                    assert!(0 < k && k < full.len(), "{what}: K = {k} must cut the graph");
                    let cut = ProgressiveSchedule::with_budget(&blocks, split, scheme, k);
                    assert!(cut.iter().map(|(a, b, _)| (a, b)).eq(cep.iter().copied()), "{what}");

                    let n = full.len();
                    for b in [0, 1, 2, n, n + 7, usize::MAX] {
                        let bounded = ProgressiveSchedule::with_budget(&blocks, split, scheme, b);
                        assert_eq!(bounded.len(), b.min(n), "{what}, budget {b}");
                        assert_eq!(bounded.prefix(b), full.prefix(b), "{what}, budget {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_is_empty() {
        let blocks = fixture();
        let s = ProgressiveSchedule::with_budget(&blocks, 4, WeightingScheme::Js, 0);
        assert!(s.is_empty());
        assert!(s.prefix(5).is_empty());
    }
}
