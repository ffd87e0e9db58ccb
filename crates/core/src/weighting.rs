//! Edge enumeration and weighting: Original (Algorithm 2) vs Optimized
//! (Algorithm 3).
//!
//! Both enumerate every *distinct* edge of the implicit blocking graph with
//! its weight; they differ in how much work each comparison costs:
//!
//! * [`original::for_each_edge`] iterates over the comparisons of every
//!   block and intersects the two block lists to (a) verify the LeCoBI
//!   condition and (b) count the common blocks — `O(2·BPE)` per comparison;
//! * [`optimized::for_each_edge`] scans each node's blocks once, accumulating
//!   co-occurrence counts in arrays — `O(1)` amortized per comparison (the
//!   ScanCount idea, §4.2).
//!
//! Prefix Filtering is *not* used: as §4.2 explains, the pruning thresholds
//! are only known a-posteriori and in practice fall below 0.1, which forces
//! Prefix Filtering to keep entire block lists as representations and
//! nullifies its advantage. The ScanCount approach is threshold-independent.

use crate::context::GraphContext;
use crate::scanner::{NeighborhoodScanner, ScanScope};
use crate::weights::EdgeWeigher;
use er_model::EntityId;

/// Which edge-weighting implementation a pruning scheme runs on — the
/// independent variable of the paper's Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightingImpl {
    /// Algorithm 2: per-comparison block-list intersection.
    Original,
    /// Algorithm 3: ScanCount neighborhood sweep (the contribution).
    #[default]
    Optimized,
}

impl WeightingImpl {
    /// Display name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            WeightingImpl::Original => "Original Edge Weighting",
            WeightingImpl::Optimized => "Optimized Edge Weighting",
        }
    }

    /// The stable lowercase token used on command lines and in JSON configs
    /// (the [`std::fmt::Display`]/[`std::str::FromStr`] form).
    pub fn token(self) -> &'static str {
        match self {
            WeightingImpl::Original => "original",
            WeightingImpl::Optimized => "optimized",
        }
    }
}

impl std::fmt::Display for WeightingImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl std::str::FromStr for WeightingImpl {
    type Err = String;

    /// Parses `original` or `optimized`, case-insensitively.
    fn from_str(s: &str) -> Result<WeightingImpl, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "original" => Ok(WeightingImpl::Original),
            "optimized" => Ok(WeightingImpl::Optimized),
            _ => Err(format!(
                "unknown weighting implementation '{s}' (expected original or optimized)"
            )),
        }
    }
}

/// Dispatches an edge sweep to the selected implementation. Both visit each
/// distinct edge exactly once with identical weights; only the per-edge cost
/// differs.
pub fn for_each_edge(
    imp: WeightingImpl,
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    sink: impl FnMut(EntityId, EntityId, f64),
) {
    match imp {
        WeightingImpl::Original => original::for_each_edge(ctx, weigher, sink),
        WeightingImpl::Optimized => optimized::for_each_edge(ctx, weigher, sink),
    }
}

/// Optimized Edge Weighting (Algorithm 3).
pub mod optimized {
    use super::*;
    use crate::scanner::{Neighborhood, Pivot};
    use crate::store::CandidateStore;
    use crate::weights::{edge_weight, Degrees, PivotSide, WeightingScheme};
    use std::ops::Range;

    /// Algorithm 3's loop body, and the only place in the crate where a
    /// neighborhood is scanned *and* weighed: walks `pivot`'s blocks, then
    /// calls `visit(neighbor, weight)` for every co-occurring profile `scope`
    /// admits, in first-co-occurrence order, and returns those neighbors'
    /// ids in the same order (valid until `scanner` scans again).
    ///
    /// Every batch sweep and every served query is a caller, so "a served
    /// query returns what batch CNP/WNP retains for that node" holds by
    /// construction. The pivot's side of the weight is `|B_i| =
    /// pivot.blocks.len()` and, under EJS, its degree from `degrees` — except
    /// for a probe, which stands past the table at id `|E|`: its degree is
    /// the number of neighbors this scan found (`|E_B|` stays the indexed
    /// graph's, which has none of the probe's edges).
    pub(crate) fn weigh_neighborhood<'s, S: CandidateStore>(
        scheme: WeightingScheme,
        store: &S,
        degrees: Option<&Degrees>,
        scanner: &'s mut NeighborhoodScanner,
        pivot: Pivot<'_>,
        scope: ScanScope,
        mut visit: impl FnMut(EntityId, f64),
    ) -> &'s [u32] {
        let hood = scanner.scan_pivot(store, pivot, scheme.accumulate(), scope);
        let degree = degrees.map_or(1, |d| match d.per_node.get(pivot.id as usize) {
            Some(&indexed) => indexed as usize,
            None => hood.ids.len(),
        });
        let side = PivotSide { blocks: pivot.blocks.len() as f64, degree: degree.max(1) as f64 };
        // One loop per scheme: the formula is picked once per neighborhood,
        // not once per edge, so no loop carries another scheme's `ln` calls
        // and what a caller keeps per edge (a running sum) stays in a
        // register.
        #[inline(always)]
        fn weigh_all<S: CandidateStore>(
            scheme: WeightingScheme,
            store: &S,
            degrees: Option<&Degrees>,
            side: PivotSide,
            hood: &Neighborhood<'_>,
            visit: &mut impl FnMut(EntityId, f64),
        ) {
            for &j in hood.ids {
                let other = EntityId(j);
                visit(other, edge_weight(scheme, store, degrees, side, other, hood.score_of(j)));
            }
        }
        use WeightingScheme::{Arcs, Cbs, Ecbs, Ejs, Js};
        let (hood, visit) = (&hood, &mut visit);
        match scheme {
            Arcs => weigh_all(Arcs, store, degrees, side, hood, visit),
            Cbs => weigh_all(Cbs, store, degrees, side, hood, visit),
            Ecbs => weigh_all(Ecbs, store, degrees, side, hood, visit),
            Js => weigh_all(Js, store, degrees, side, hood, visit),
            Ejs => weigh_all(Ejs, store, degrees, side, hood, visit),
        }
        hood.ids
    }

    /// Invokes `sink(i, j, weight)` for every distinct edge of the blocking
    /// graph, in deterministic order. `i < j` always holds.
    pub fn for_each_edge(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        mut sink: impl FnMut(EntityId, EntityId, f64),
    ) {
        let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
        let pivots = 0..ctx.num_entities() as u32;
        let each = |_: &mut (), i, j, w| sink(i, j, w);
        pivots_in(
            ctx,
            weigher,
            &mut scanner,
            &mut (),
            pivots,
            ScanScope::GreaterOnly,
            each,
            |_, _, _| {},
        );
    }

    /// Invokes `sink(i, neighbors, weights)` for every node with a
    /// non-empty neighborhood; `neighbors[k]` has weight `weights[k]`.
    ///
    /// This is the node-centric view used by CNP/WNP and their redefined and
    /// reciprocal variants. The buffers are reused across nodes.
    pub fn for_each_neighborhood(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) {
        let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
        let pivots = 0..ctx.num_entities() as u32;
        groups_in(ctx, weigher, &mut scanner, &mut Vec::new(), pivots, ScanScope::All, sink);
    }

    /// Algorithm 3's pivot loop — the one every sweep runs, on any number of
    /// threads: for each pivot in `pivots` that `scope` admits, weighs its
    /// neighborhood, calling `each(state, pivot, neighbor, weight)` for
    /// every neighbor as it is weighed (first-co-occurrence order), then,
    /// if there was one, `group(state, pivot, neighbors)`. Returns how many
    /// groups and edges it delivered.
    ///
    /// * [`ScanScope::All`] is the node-centric sweep: every node's whole
    ///   neighborhood, so each edge arrives from both ends.
    /// * [`ScanScope::GreaterOnly`] is the edge sweep: each distinct edge
    ///   once, under its smaller endpoint — every neighbor is greater than
    ///   the pivot, and the groups are `for_each_edge`'s stream cut at each
    ///   change of pivot.
    ///
    /// A consumer of single edges (`for_each_edge`, the WEP mean) works in
    /// `each`, inside the weighing loop, and pays what it paid before there
    /// were groups; summing a buffered group afterwards instead measured
    /// 7–11 % slower, the add chain no longer hidden under the weighing. A
    /// consumer of whole groups gathers them in `state` ([`groups_in`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pivots_in<T>(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        scanner: &mut NeighborhoodScanner,
        state: &mut T,
        pivots: Range<u32>,
        scope: ScanScope,
        mut each: impl FnMut(&mut T, EntityId, EntityId, f64),
        mut group: impl FnMut(&mut T, EntityId, &[u32]),
    ) -> (u64, u64) {
        let (mut groups, mut edges) = (0u64, 0u64);
        for raw in pivots {
            let pivot = EntityId(raw);
            // For Clean-Clean ER every edge is charged to its left-side
            // endpoint (right-side ids are all larger), so right-side scans
            // would come back empty — skip them outright.
            if scope == ScanScope::GreaterOnly && !ctx.is_first(pivot) {
                continue;
            }
            let ids = weigh_neighborhood(
                weigher.scheme(),
                ctx,
                weigher.degrees(),
                scanner,
                Pivot::indexed(ctx, pivot),
                scope,
                |other, w| {
                    #[cfg(feature = "sanitize")]
                    crate::sanitize::check_swept_edge(ctx, pivot, other, w, scope);
                    each(state, pivot, other, w);
                },
            );
            if ids.is_empty() {
                continue;
            }
            groups += 1;
            edges += ids.len() as u64;
            group(state, pivot, ids);
        }
        (groups, edges)
    }

    /// [`pivots_in`] delivering whole groups: `sink(pivot, neighbors,
    /// weights)`, `neighbors[k]` of weight `weights[k]`. `weights` is the
    /// reusable buffer the sink borrows; the neighbor ids it borrows are the
    /// scanner's own.
    pub(crate) fn groups_in(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        scanner: &mut NeighborhoodScanner,
        weights: &mut Vec<f64>,
        pivots: Range<u32>,
        scope: ScanScope,
        mut sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) -> (u64, u64) {
        weights.clear();
        pivots_in(
            ctx,
            weigher,
            scanner,
            weights,
            pivots,
            scope,
            |weights, _, _, w| weights.push(w),
            |weights, pivot, ids| {
                sink(pivot, ids, weights);
                weights.clear();
            },
        )
    }
}

/// Original Edge Weighting (Algorithm 2) — the baseline the paper improves.
pub mod original {
    use super::*;
    use er_model::ErKind;

    /// Invokes `sink(i, j, weight)` for every distinct edge, discovering
    /// edges by iterating all comparisons of all blocks and filtering with
    /// the LeCoBI condition, exactly as Algorithm 2 does.
    pub fn for_each_edge(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        mut sink: impl FnMut(EntityId, EntityId, f64),
    ) {
        let arcs =
            weigher.scheme().accumulate() == crate::scanner::Accumulate::ReciprocalCardinalities;
        let dirty = ctx.kind() == ErKind::Dirty;
        for (k, block) in ctx.blocks().iter().enumerate() {
            let k = k as u32;
            let mut handle = |a: EntityId, b: EntityId| {
                if let Some(score) = lecobi_score(ctx, a, b, k, arcs) {
                    let w = weigher.weight(a, b, score);
                    #[cfg(feature = "sanitize")]
                    crate::sanitize::check_edge(ctx, a, b, w);
                    sink(a, b, w);
                }
            };
            if dirty {
                let members = block.left();
                for (x, &a) in members.iter().enumerate() {
                    for &b in &members[x + 1..] {
                        if a < b {
                            handle(a, b);
                        } else {
                            handle(b, a);
                        }
                    }
                }
            } else {
                for &a in block.left() {
                    for &b in block.right() {
                        handle(a, b);
                    }
                }
            }
        }
    }

    /// Node-centric edge weighting with the original per-edge cost model:
    /// for every node, its distinct neighbors are gathered from its blocks
    /// and each incident edge is weighted by a full block-list intersection
    /// (`O(2·BPE)` per edge, twice per edge over the whole pass) — how the
    /// original CNP/WNP implementations operated before Algorithm 3. Only
    /// the nodes in `pivots` are visited.
    pub fn for_each_neighborhood(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        pivots: std::ops::Range<u32>,
        mut sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) {
        let arcs =
            weigher.scheme().accumulate() == crate::scanner::Accumulate::ReciprocalCardinalities;
        let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
        let mut ids: Vec<u32> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for raw in pivots {
            let pivot = EntityId(raw);
            // Gather distinct neighbors (the scan is used purely as a
            // deduplicating set here; the scores are discarded).
            let hood =
                scanner.scan(ctx, pivot, crate::scanner::Accumulate::CommonBlocks, ScanScope::All);
            if hood.ids.is_empty() {
                continue;
            }
            ids.clear();
            weights.clear();
            ids.extend_from_slice(hood.ids);
            for &j in &ids {
                let score = intersect_score(ctx, pivot, EntityId(j), arcs);
                weights.push(weigher.weight(pivot, EntityId(j), score));
            }
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_neighborhood(ctx, pivot, &ids, &weights);
            sink(pivot, &ids, &weights);
        }
    }

    /// Full block-list intersection of a co-occurring pair: `|B_ij|`, or
    /// `Σ 1/‖b‖` when `arcs` is set.
    fn intersect_score(ctx: &GraphContext<'_>, a: EntityId, b: EntityId, arcs: bool) -> f64 {
        let (mut x, mut y) = (ctx.index().block_list(a), ctx.index().block_list(b));
        let mut score = 0.0;
        while let (Some(&m), Some(&n)) = (x.first(), y.first()) {
            match m.cmp(&n) {
                std::cmp::Ordering::Less => x = &x[1..],
                std::cmp::Ordering::Greater => y = &y[1..],
                std::cmp::Ordering::Equal => {
                    score += if arcs { 1.0 / ctx.cardinality_of(m as usize) } else { 1.0 };
                    x = &x[1..];
                    y = &y[1..];
                }
            }
        }
        score
    }

    /// The core of Algorithm 2 (lines 7–15): intersect the block lists of
    /// `a` and `b`; abort as soon as the first common id differs from `k`
    /// (redundant comparison); otherwise return the accumulated score —
    /// `|B_ij|`, or `Σ 1/‖b‖` when `arcs` is set.
    fn lecobi_score(
        ctx: &GraphContext<'_>,
        a: EntityId,
        b: EntityId,
        k: u32,
        arcs: bool,
    ) -> Option<f64> {
        let (mut x, mut y) = (ctx.index().block_list(a), ctx.index().block_list(b));
        let mut score = 0.0;
        let mut first = true;
        while let (Some(&m), Some(&n)) = (x.first(), y.first()) {
            match m.cmp(&n) {
                std::cmp::Ordering::Less => x = &x[1..],
                std::cmp::Ordering::Greater => y = &y[1..],
                std::cmp::Ordering::Equal => {
                    if first {
                        if m != k {
                            return None; // violates LeCoBI: redundant here
                        }
                        first = false;
                    }
                    score += if arcs { 1.0 / ctx.cardinality_of(m as usize) } else { 1.0 };
                    x = &x[1..];
                    y = &y[1..];
                }
            }
        }
        if first {
            None // no common block at all (cannot happen inside a block)
        } else {
            Some(score)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightingScheme;
    use er_model::{Block, BlockCollection, ErKind};
    use std::collections::BTreeMap;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            5,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[1, 2, 3])),
                Block::dirty(ids(&[2, 4])),
            ],
        )
    }

    fn collect_edges(
        f: impl FnOnce(&mut dyn FnMut(EntityId, EntityId, f64)),
    ) -> BTreeMap<(u32, u32), f64> {
        let mut out = BTreeMap::new();
        let mut sink = |a: EntityId, b: EntityId, w: f64| {
            let key = (a.0.min(b.0), a.0.max(b.0));
            assert!(out.insert(key, w).is_none(), "edge {key:?} visited twice");
        };
        f(&mut sink);
        out
    }

    #[test]
    fn optimized_and_original_agree_on_every_scheme() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let fast = collect_edges(|sink| optimized::for_each_edge(&ctx, &weigher, sink));
            let slow = collect_edges(|sink| original::for_each_edge(&ctx, &weigher, sink));
            assert_eq!(fast.len(), slow.len(), "{}", scheme.name());
            for (edge, w) in &fast {
                let w2 = slow[edge];
                assert!(
                    (w - w2).abs() < 1e-9,
                    "{}: edge {edge:?}: optimized={w}, original={w2}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn edge_set_matches_distinct_comparisons() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let edges = collect_edges(|sink| optimized::for_each_edge(&ctx, &weigher, sink));
        // Distinct pairs: (0,1),(0,2),(1,2),(1,3),(2,3),(2,4) = 6.
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[&(0, 1)], 2.0);
        assert_eq!(edges[&(1, 2)], 2.0);
        assert_eq!(edges[&(2, 4)], 1.0);
    }

    #[test]
    fn neighborhoods_cover_each_edge_twice() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let mut seen: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut weights_match = true;
        optimized::for_each_neighborhood(&ctx, &weigher, |i, ids, ws| {
            for (&j, &w) in ids.iter().zip(ws) {
                let key = (i.0.min(j), i.0.max(j));
                *seen.entry(key).or_default() += 1;
                // JS is symmetric: both directions must agree.
                let sym = weigher.weight(
                    EntityId(key.0),
                    EntityId(key.1),
                    ctx.index().common_blocks(EntityId(key.0), EntityId(key.1)) as f64,
                );
                if (w - sym).abs() > 1e-9 {
                    weights_match = false;
                }
            }
        });
        assert!(weights_match);
        assert_eq!(seen.len(), 6);
        assert!(seen.values().all(|&c| c == 2));
    }

    #[test]
    fn clean_clean_edges_enumerated_once() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[2, 3])),
                Block::clean_clean(ids(&[0]), ids(&[2])),
            ],
        );
        let ctx = GraphContext::new(&blocks, 2);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let fast = collect_edges(|sink| optimized::for_each_edge(&ctx, &weigher, sink));
        let slow = collect_edges(|sink| original::for_each_edge(&ctx, &weigher, sink));
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 4);
        assert_eq!(fast[&(0, 2)], 2.0);
    }
}
