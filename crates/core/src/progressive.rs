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
use crate::weighting::optimized;
use crate::weights::{EdgeWeigher, WeightingScheme};
use er_model::{BlockCollection, EntityId};

/// A descending-weight comparison schedule.
#[derive(Debug)]
pub struct ProgressiveSchedule {
    /// Retained comparisons, best first.
    edges: Vec<(EntityId, EntityId, f64)>,
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
        let ctx = GraphContext::new(blocks, split);
        let weigher = EdgeWeigher::new(scheme, &ctx);
        let mut edges = Vec::new();
        optimized::for_each_edge(&ctx, &weigher, |a, b, w| edges.push((a, b, w)));
        edges
            .sort_unstable_by(|x, y| y.2.total_cmp(&x.2).then_with(|| (x.0, x.1).cmp(&(y.0, y.1))));
        ProgressiveSchedule { edges }
    }

    /// Builds the schedule but keeps only the best `budget` comparisons,
    /// with `O(min(budget, |E_B|))` memory via a bounded heap.
    pub fn with_budget(
        blocks: &BlockCollection,
        split: usize,
        scheme: WeightingScheme,
        budget: usize,
    ) -> Self {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct E(f64, u32, u32);
        impl Eq for E {}
        impl Ord for E {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then_with(|| (other.1, other.2).cmp(&(self.1, self.2)))
            }
        }
        impl PartialOrd for E {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let ctx = GraphContext::new(blocks, split);
        let weigher = EdgeWeigher::new(scheme, &ctx);
        let mut heap: BinaryHeap<Reverse<E>> =
            BinaryHeap::with_capacity(crate::prune::heap_prealloc(budget));
        optimized::for_each_edge(&ctx, &weigher, |a, b, w| {
            if budget == 0 {
                return;
            }
            let e = E(w, a.0, b.0);
            if heap.len() < budget {
                heap.push(Reverse(e));
            } else if heap.peek().is_some_and(|Reverse(min)| *min < e) {
                heap.pop();
                heap.push(Reverse(e));
            }
        });
        let mut edges: Vec<(EntityId, EntityId, f64)> =
            heap.into_iter().map(|Reverse(E(w, a, b))| (EntityId(a), EntityId(b), w)).collect();
        edges
            .sort_unstable_by(|x, y| y.2.total_cmp(&x.2).then_with(|| (x.0, x.1).cmp(&(y.0, y.1))));
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

    #[test]
    fn zero_budget_is_empty() {
        let blocks = fixture();
        let s = ProgressiveSchedule::with_budget(&blocks, 4, WeightingScheme::Js, 0);
        assert!(s.is_empty());
        assert!(s.prefix(5).is_empty());
    }
}
