//! mb-sanitize hooks for the meta-blocking hot paths (the `sanitize`
//! feature).
//!
//! `er_model::sanitize` owns the structural validators; this module holds
//! the *streaming* checks the pipeline interleaves with its sweeps: every
//! weighted edge the weighting stage emits and every comparison the pruning
//! stage retains is checked on the fly, so a violation panics at the exact
//! stage that produced it instead of corrupting downstream results.
//!
//! Everything here is compiled only with the `sanitize` cargo feature;
//! release builds and `crates/bench` pay nothing.

use crate::context::GraphContext;
use crate::parallel::Sweep;
use crate::scanner::{NeighborhoodScanner, Pivot, ScanScope};
use crate::weighting::optimized;
use crate::weights::EdgeWeigher;
use er_model::{BlockCollection, ComparisonSet, EntityId, ErKind};

/// Checks one weighted edge of the implicit blocking graph: the weight is
/// finite and non-negative, the endpoints are comparable under the task
/// kind (distinct; across the two collections for Clean-Clean ER) and the
/// pair genuinely co-occurs in at least one block.
///
/// # Panics
/// On the first breached invariant, naming the edge.
pub fn check_edge(ctx: &GraphContext<'_>, a: EntityId, b: EntityId, w: f64) {
    assert!(w.is_finite() && w >= 0.0, "mb-sanitize: edge {a}-{b} carries invalid weight {w}");
    assert!(
        ctx.comparable(a, b),
        "mb-sanitize: edge {a}-{b} is not comparable under {:?}",
        ctx.kind()
    );
    assert!(
        ctx.index().common_blocks(a, b) > 0,
        "mb-sanitize: edge {a}-{b} has no common block — not a blocking-graph edge"
    );
}

/// Checks one node-centric neighborhood emission: ids and weights line up,
/// the pivot is not its own neighbor, and every incident edge passes
/// [`check_edge`].
pub fn check_neighborhood(ctx: &GraphContext<'_>, pivot: EntityId, ids: &[u32], weights: &[f64]) {
    assert_eq!(
        ids.len(),
        weights.len(),
        "mb-sanitize: neighborhood of {pivot}: {} ids but {} weights",
        ids.len(),
        weights.len()
    );
    for (&j, &w) in ids.iter().zip(weights) {
        assert_ne!(j, pivot.0, "mb-sanitize: {pivot} listed as its own neighbor");
        check_edge(ctx, pivot, EntityId(j), w);
    }
}

/// Checks one edge a sweep's pivot loop weighs (`pivots_in`): the pivot is
/// not its own neighbor and the edge passes [`check_edge`] — what
/// [`check_neighborhood`] asserts of each entry — and an edge sweep's
/// ([`ScanScope::GreaterOnly`]) keeps `for_each_edge`'s promise `i < j`:
/// every neighbor lies above its pivot, so each edge arrives once.
pub(crate) fn check_swept_edge(
    ctx: &GraphContext<'_>,
    pivot: EntityId,
    other: EntityId,
    w: f64,
    scope: ScanScope,
) {
    assert_ne!(other, pivot, "mb-sanitize: {pivot} listed as its own neighbor");
    check_edge(ctx, pivot, other, w);
    assert!(
        scope == ScanScope::All || other > pivot,
        "mb-sanitize: edge sweep delivered {pivot}-{other} under {pivot}"
    );
}

/// Checks a group an edge sweep delivers as `pivot`'s whole neighborhood
/// ([`Sweep::whole_groups`]), which two-phase pruning takes the pivot's
/// criterion from: rescanned with `scanner` under [`ScanScope::All`], the
/// neighborhood has the group's ids in the group's order and its weights bit
/// for bit.
pub(crate) fn check_whole_group(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    scanner: &mut NeighborhoodScanner,
    pivot: EntityId,
    ids: &[u32],
    weights: &[f64],
) {
    let mut all = Vec::with_capacity(weights.len());
    let hood = optimized::weigh_neighborhood(
        weigher.scheme(),
        ctx,
        weigher.degrees(),
        scanner,
        Pivot::indexed(ctx, pivot),
        ScanScope::All,
        |_, w| all.push(w.to_bits()),
    );
    assert!(
        hood == ids && all.iter().copied().eq(weights.iter().map(|w| w.to_bits())),
        "mb-sanitize: the edge-sweep group of {pivot} ({} edges) is not its whole \
         neighborhood ({} edges)",
        ids.len(),
        hood.len()
    );
}

/// Post-condition of Block Filtering: the output is structurally valid,
/// keeps no comparison-free block, entails only comparisons the input
/// entailed, and respects every profile's retained-assignment limit.
pub fn check_filtered(input: &BlockCollection, output: &BlockCollection, limits: &[u32]) {
    use er_model::sanitize::{assert_valid, validate_pruned};
    assert_valid(&output.validate(), "block filtering output");
    assert_valid(&output.validate_no_empty_blocks(), "block filtering output");
    assert_valid(&validate_pruned(output, input), "block filtering output");
    let used = output.assignments_per_entity();
    for (i, (&u, &limit)) in used.iter().zip(limits).enumerate() {
        assert!(
            u <= limit,
            "mb-sanitize: block filtering retained entity {i} in {u} blocks, limit {limit}"
        );
    }
}

/// Validates the pruning input (blocks + index + LeCoBI consistency +
/// Clean-Clean split) before a pipeline run starts consuming it.
pub fn check_pipeline_input(ctx: &GraphContext<'_>) {
    use er_model::sanitize::assert_valid;
    let blocks = ctx.blocks();
    assert_valid(&blocks.validate(), "meta-blocking input blocks");
    assert_valid(&ctx.index().validate(blocks), "meta-blocking entity index");
    assert_valid(&ctx.index().validate_lecobi(blocks), "meta-blocking entity index");
    if blocks.kind() == ErKind::CleanClean {
        assert_valid(&blocks.validate_split(ctx.split()), "meta-blocking input blocks");
    }
}

/// Materializes the redefined retained-set a reciprocal scheme must be a
/// subset of (reciprocal links satisfy *both* endpoints' criteria, so every
/// reciprocal comparison is also retained under *either*).
pub fn redefined_retained_set(
    node_centric_cardinality: bool,
    sweep: &Sweep<'_, '_>,
) -> ComparisonSet {
    let mut set = ComparisonSet::new();
    let sink = |a: EntityId, b: EntityId| {
        set.insert(a, b);
    };
    if node_centric_cardinality {
        crate::prune::redefined_cnp(sweep, &mut mb_observe::Noop, sink);
    } else {
        crate::prune::redefined_wnp(sweep, &mut mb_observe::Noop, sink);
    }
    set
}

/// Checks one retained comparison streamed out of a pruning scheme: the
/// pair must be a genuine edge of the input graph (comparable + at least
/// one common block — i.e. pruned ⊆ input), and, for the reciprocal
/// schemes, a member of the corresponding redefined retained-set.
pub fn check_retained(
    ctx: &GraphContext<'_>,
    a: EntityId,
    b: EntityId,
    redefined: Option<&ComparisonSet>,
) {
    assert!(
        ctx.comparable(a, b),
        "mb-sanitize: retained comparison {a}-{b} is not comparable under {:?}",
        ctx.kind()
    );
    assert!(
        ctx.index().common_blocks(a, b) > 0,
        "mb-sanitize: retained comparison {a}-{b} was never entailed by the input blocks"
    );
    if let Some(set) = redefined {
        assert!(
            set.contains(a, b),
            "mb-sanitize: reciprocal pruning retained {a}-{b}, \
             which the redefined variant does not retain"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighting::WeightingImpl;
    use crate::weights::{EdgeWeigher, WeightingScheme};
    use er_model::{Block, BlockCollection};

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
    fn clean_pipeline_passes_all_checks() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        check_pipeline_input(&ctx);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        // With the feature on, the sweep itself routes every emission
        // through check_edge — this one runs fully checked.
        let mut n = 0;
        crate::weighting::for_each_edge(WeightingImpl::Optimized, &ctx, &weigher, |_, _, _| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn non_finite_weight_is_caught() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        check_edge(&ctx, EntityId(0), EntityId(1), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "edge sweep delivered p1-p0 under p1")]
    fn an_edge_group_reaching_below_its_pivot_is_caught() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        // A genuine edge and a genuine neighborhood, but an edge sweep
        // charges (0, 1) to 0: delivered under 1 it would arrive twice.
        check_swept_edge(&ctx, EntityId(1), EntityId(0), 1.0, ScanScope::All);
        check_swept_edge(&ctx, EntityId(1), EntityId(0), 1.0, ScanScope::GreaterOnly);
    }

    #[test]
    #[should_panic(expected = "not comparable")]
    fn self_comparison_is_caught() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        check_retained(&ctx, EntityId(1), EntityId(1), None);
    }

    #[test]
    #[should_panic(expected = "never entailed")]
    fn invented_comparison_is_caught() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        // 0 and 3 share no block: a pruning scheme must never emit them.
        check_retained(&ctx, EntityId(0), EntityId(3), None);
    }

    #[test]
    #[should_panic(expected = "redefined variant does not retain")]
    fn reciprocal_outside_redefined_is_caught() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let mut set = ComparisonSet::new();
        set.insert(EntityId(0), EntityId(1));
        // (1, 2) co-occurs, but is not in the supplied redefined set.
        check_retained(&ctx, EntityId(1), EntityId(2), Some(&set));
    }

    #[test]
    fn redefined_retained_set_covers_reciprocal() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1);
        for node_centric_cardinality in [true, false] {
            let set = redefined_retained_set(node_centric_cardinality, &sweep);
            let reciprocal = |sink: &mut dyn FnMut(EntityId, EntityId)| {
                if node_centric_cardinality {
                    crate::prune::reciprocal_cnp(&sweep, &mut mb_observe::Noop, sink)
                } else {
                    crate::prune::reciprocal_wnp(&sweep, &mut mb_observe::Noop, sink)
                }
            };
            let mut all_in = true;
            reciprocal(&mut |a, b| all_in &= set.contains(a, b));
            assert!(all_in);
        }
    }
}
