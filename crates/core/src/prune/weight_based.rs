//! Weight-based pruning: WEP, WNP and the redefined/reciprocal WNP.

use super::select::{reaching, reaching_pair};
use super::{counted, Combine};
use crate::parallel::{Out, Sweep};
use er_model::EntityId;
use mb_observe::{Counter, Observer, Stage, StageScope};

/// Weighted Edge Pruning: retains every edge whose weight reaches the mean
/// edge weight of the entire blocking graph.
///
/// Shallow pruning for effectiveness-intensive applications: recall stays
/// above 0.95 on all the paper's datasets. Two edge sweeps: one to compute
/// the mean, one to emit. One sweep would have to hold every edge until the
/// mean is known — the graph §4.2 never materializes.
///
/// Stage accounting: the mean-computation sweep reports as
/// [`Stage::EdgeWeighting`]; the emission sweep re-weighs every edge and
/// reports as [`Stage::Pruning`] (so `edges_weighed` appears in both).
pub fn wep(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let (sum, count) = sweep.weight_sum();
    scope.add(Counter::EdgesWeighed, count);
    scope.finish();
    if count == 0 {
        return;
    }
    let mean = sum / count as f64;
    #[cfg(feature = "sanitize")]
    assert!(
        mean.is_finite() && mean >= 0.0,
        "mb-sanitize: WEP mean weight {mean} over {count} edges is invalid"
    );
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let mut retained = 0u64;
    let swept = sweep.edges(
        |out, _, pivot, ids, weights| {
            reaching(ids, weights, mean, |kept, _| emit_kept(out, pivot, kept))
        },
        counted(&mut retained, &mut sink),
    );
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// The mean weight of one node neighborhood — WNP's local threshold.
pub(crate) fn neighborhood_mean(weights: &[f64]) -> f64 {
    weights.iter().sum::<f64>() / weights.len() as f64
}

/// Sends what a threshold kept of `pivot`'s edges on as comparisons
/// `(pivot, j)`.
fn emit_kept<S: FnMut((EntityId, EntityId))>(
    out: &mut Out<'_, (EntityId, EntityId), S>,
    pivot: EntityId,
    kept: &[u32],
) {
    kept.iter().for_each(|&j| out.emit((pivot, EntityId(j))));
}

/// Weighted Node Pruning, original semantics: for every node, retain the
/// incident edges whose weight reaches the neighborhood's mean weight, and
/// emit each retained directed edge as a comparison.
///
/// An edge above the mean in both neighborhoods is emitted twice — the
/// redundancy [`redefined_wnp`] eliminates.
///
/// Stage accounting: like [`crate::prune::cnp`], the fused neighborhood
/// sweep reports as a single [`Stage::Pruning`] pass whose weighting work
/// shows in `neighborhoods_scanned` / `edges_weighed` (directed visits, so
/// each edge counts twice).
pub fn wnp(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let mut retained = 0u64;
    let swept = sweep.neighborhoods(
        sweep.all(),
        |out, pivot, ids, weights| {
            let mean = neighborhood_mean(weights);
            reaching(ids, weights, mean, |kept, _| emit_kept(out, pivot, kept))
        },
        counted(&mut retained, &mut sink),
    );
    scope.add(Counter::NeighborhoodsScanned, swept.neighborhoods);
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Stage accounting: phase 1 reports as [`Stage::EdgeWeighting`], phase 2
/// as [`Stage::Pruning`]. Phase 1 scans only the nodes whose edge-sweep group
/// is not their whole neighborhood ([`Sweep::whole_groups`]); a node whose
/// group is whole gets its threshold in phase 2, from the group. On
/// Clean-Clean ER under Optimized Edge Weighting phase 1 therefore scans the
/// second side alone and weighs each edge once, so `edges_weighed` totals
/// twice the distinct edges; elsewhere phase 1 visits every edge from both
/// ends, and the total is three times.
fn two_phase_wnp(
    sweep: &Sweep<'_, '_>,
    combine: Combine,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    // Phase 1 (Algorithm 5, lines 2–4) is the weighting work: the local mean
    // threshold of every node outside the whole groups. Nodes with no
    // neighborhood keep +∞ — they have no edge to retain — and so do the
    // whole-group nodes, whose slot phase 2 never reads: on Clean-Clean ER
    // every neighbor is on the other side.
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let n = sweep.ctx().num_entities();
    let whole = sweep.whole_groups();
    let mut thresholds = vec![f64::INFINITY; n];
    let swept = sweep.neighborhoods(
        whole.end..n as u32,
        |out, pivot, _ids, weights| out.emit((pivot, neighborhood_mean(weights))),
        |(pivot, mean): (EntityId, f64)| thresholds[pivot.idx()] = mean,
    );
    scope.add(Counter::NeighborhoodsScanned, swept.neighborhoods);
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.finish();
    // A NaN threshold would silently drop every incident edge.
    #[cfg(feature = "sanitize")]
    for (i, &t) in thresholds.iter().enumerate() {
        assert!(!t.is_nan(), "mb-sanitize: WNP threshold of entity {i} is NaN");
    }
    // Phase 2 is the pruning sweep over the distinct edges. A whole group's
    // mean is the one phase 1 would have taken: the same weights, summed in
    // the same order.
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let thresholds = &thresholds;
    let mut retained = 0u64;
    let swept = sweep.edges(
        |out, _, pivot, ids, weights| {
            let own = if whole.contains(&pivot.0) {
                neighborhood_mean(weights)
            } else {
                thresholds[pivot.idx()]
            };
            reaching_pair(ids, weights, own, thresholds, combine, |kept, _| {
                emit_kept(out, pivot, kept)
            })
        },
        counted(&mut retained, &mut sink),
    );
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Redefined Weighted Node Pruning (Algorithm 5): WNP without redundant
/// comparisons — an edge is retained at most once, if it reaches the local
/// threshold of *either* endpoint.
pub fn redefined_wnp(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    sink: impl FnMut(EntityId, EntityId),
) {
    two_phase_wnp(sweep, Combine::Either, obs, sink);
}

/// Reciprocal Weighted Node Pruning (§5.2): retains only the edges that
/// reach the local thresholds of *both* endpoints.
///
/// The paper's best scheme for effectiveness-intensive applications:
/// precision ~3.9× that of WNP with recall still above 0.95 in most
/// configurations.
pub fn reciprocal_wnp(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    sink: impl FnMut(EntityId, EntityId),
) {
    two_phase_wnp(sweep, Combine::Both, obs, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphContext;
    use crate::weighting::WeightingImpl;
    use crate::weights::{EdgeWeigher, WeightingScheme};
    use er_model::{Block, BlockCollection, ErKind};
    use mb_observe::Noop;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    /// (0,1) strong (2 shared blocks), (1,2) & (2,3) weak (1 each).
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

    fn collect(f: impl FnOnce(&mut Noop, &mut dyn FnMut(EntityId, EntityId))) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut sink = |a: EntityId, b: EntityId| out.push((a.0, b.0));
        f(&mut Noop, &mut sink);
        out
    }

    #[test]
    fn wep_retains_edges_at_or_above_mean() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        // Edges: (0,1)=2, (0,2)=1, (1,2)=1, (2,3)=1 -> mean 1.25.
        let got =
            collect(|o, s| wep(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        assert_eq!(got, vec![(0, 1)]);
    }

    #[test]
    fn wep_on_empty_graph() {
        let blocks = BlockCollection::new(ErKind::Dirty, 3, vec![]);
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        assert!(collect(|o, s| wep(
            &Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1),
            o,
            s
        ))
        .is_empty());
    }

    #[test]
    fn wep_uniform_weights_keep_everything() {
        // All weights equal -> every edge reaches the mean.
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![Block::dirty(ids(&[0, 1])), Block::dirty(ids(&[2, 3]))],
        );
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let got =
            collect(|o, s| wep(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn wep_reports_both_stages() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let mut log = mb_observe::RingLog::new(16);
        wep(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), &mut log, |_, _| {});
        assert_eq!(log.exit_order(), vec![Stage::EdgeWeighting, Stage::Pruning]);
        // 4 edges weighed per sweep, two sweeps.
        assert_eq!(log.counter_total(Counter::EdgesWeighed), 8);
        assert_eq!(log.counter_total(Counter::RetainedComparisons), 1);
    }

    #[test]
    fn wnp_emits_directed_edges() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let got =
            collect(|o, s| wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        // Node 0: weights {1:2, 2:1}, mean 1.5 -> keeps 1. Node 1: same ->
        // keeps 0. Node 2: {0:1,1:1,3:1}, mean 1 -> keeps all three. Node 3:
        // {2:1} -> keeps 2.
        assert_eq!(got.len(), 2 + 3 + 1);
        assert!(got.contains(&(0, 1)) && got.contains(&(1, 0)));
    }

    #[test]
    fn redefined_wnp_dedupes_and_preserves_pairs() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let original =
            collect(|o, s| wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        let redefined = collect(|o, s| {
            redefined_wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
        });
        let mut orig: Vec<(u32, u32)> =
            original.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        orig.sort_unstable();
        orig.dedup();
        let mut redef = redefined;
        redef.sort_unstable();
        assert_eq!(orig, redef);
    }

    #[test]
    fn reciprocal_wnp_requires_both_thresholds() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let got = collect(|o, s| {
            reciprocal_wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
        });
        // (0,1): above both means. (2,3): above 3's mean (1) and equal to
        // 2's mean (1) -> retained. (0,2)/(1,2): below 0/1's mean 1.5.
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn reciprocal_subset_of_redefined() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let redefined = collect(|o, s| {
                redefined_wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
            });
            let reciprocal = collect(|o, s| {
                reciprocal_wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
            });
            for p in &reciprocal {
                assert!(redefined.contains(p), "{}: {p:?}", scheme.name());
            }
        }
    }
}
