//! Cardinality-based pruning: CEP, CNP and the redefined/reciprocal CNP.

use super::{counted, Combine};
use crate::context::GraphContext;
use crate::parallel::Sweep;
use er_model::EntityId;
use mb_observe::{Counter, Observer, Stage, StageScope};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A weighted edge with a total order: by weight, then by ids — which makes
/// every top-`K` selection deterministic even under weight ties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeightedEdge {
    pub(crate) w: f64,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

impl WeightedEdge {
    /// The edge between `pivot` and its neighbor `j`, endpoints canonically
    /// ordered so both directions of one edge compare equal.
    #[inline]
    pub(crate) fn incident(pivot: EntityId, j: u32, w: f64) -> Self {
        WeightedEdge { w, a: pivot.0.min(j), b: pivot.0.max(j) }
    }

    /// The endpoint of an [`WeightedEdge::incident`] edge that is not `pivot`.
    #[inline]
    pub(crate) fn neighbor_of(&self, pivot: EntityId) -> u32 {
        if self.a == pivot.0 {
            self.b
        } else {
            self.a
        }
    }
}

impl Eq for WeightedEdge {}

impl Ord for WeightedEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.w
            .total_cmp(&other.w)
            .then_with(|| self.a.cmp(&other.a))
            .then_with(|| self.b.cmp(&other.b))
    }
}

impl PartialOrd for WeightedEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The global cardinality threshold of CEP: `K = ⌊Σ_{b∈B} |b| / 2⌋`.
pub fn cep_threshold(ctx: &GraphContext<'_>) -> usize {
    cep_threshold_from_counts(ctx.blocks().total_assignments())
}

/// [`cep_threshold`] from the aggregate alone — for callers (the snapshot
/// loader) that hold `Σ|b|` but no materialized block collection.
pub fn cep_threshold_from_counts(total_assignments: u64) -> usize {
    (total_assignments / 2) as usize
}

/// Cap on a top-`K` heap's up-front reservation. `K` is derived from the
/// total block assignments, so on large collections it can demand hundreds
/// of MB before a single edge arrives — and when the graph holds fewer than
/// `K` edges most of that memory would never be touched. Reserve a bounded
/// prefix and let the heap grow on demand (amortized, and only as far as
/// the edges actually seen).
pub(crate) const MAX_HEAP_PREALLOC: usize = 1 << 16;

/// The initial capacity for a top-`K` min-heap: `K + 1` when small, capped
/// by [`MAX_HEAP_PREALLOC`].
pub(crate) fn heap_prealloc(k: usize) -> usize {
    k.saturating_add(1).min(MAX_HEAP_PREALLOC)
}

/// Offers `edge` to a bounded min-heap keeping the `k` largest edges under
/// the [`WeightedEdge`] total order.
#[inline]
pub(crate) fn push_top_k(
    heap: &mut BinaryHeap<Reverse<WeightedEdge>>,
    edge: WeightedEdge,
    k: usize,
) {
    if heap.len() < k {
        heap.push(Reverse(edge));
    } else if heap.peek().is_some_and(|Reverse(min)| *min < edge) {
        heap.pop();
        heap.push(Reverse(edge));
    }
}

/// Cardinality Edge Pruning: retains the top-`K` weighted edges of the
/// entire blocking graph, `K = ⌊Σ|b|/2⌋`.
///
/// Deep pruning for efficiency-intensive applications: high precision,
/// recall bounded by `K`. Retained comparisons are emitted in descending
/// weight order.
///
/// Stage accounting: the single weighting sweep that feeds the top-`K` heap
/// reports as [`Stage::EdgeWeighting`]; the sorted emission reports as
/// [`Stage::Pruning`].
pub fn cep(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let k = cep_threshold(sweep.ctx());
    if k == 0 {
        return;
    }
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    // Min-heap of the K best edges seen so far — one heap for any thread
    // count: the top-K under a strict total order is unique, so feeding it
    // in window order yields what the sequential sweep yields.
    let mut heap: BinaryHeap<Reverse<WeightedEdge>> = BinaryHeap::with_capacity(heap_prealloc(k));
    // The weight of the full heap's weakest edge, as bits (0.0 until it is
    // full; weights are non-negative). A lighter edge can no longer enter,
    // so a worker leaves it out of its window; the value only rises, so a
    // stale read merely lets a few hopeless edges travel.
    let floor = AtomicU64::new(0f64.to_bits());
    let swept = sweep.edges(
        |out, _, pivot, ids, weights| {
            // Read once per pivot: within its edges the floor is at most a
            // few pushes stale.
            let floor = f64::from_bits(floor.load(Relaxed));
            for (&j, &w) in ids.iter().zip(weights) {
                // Ties (and NaNs) go on to the full comparison, as in `TopK`.
                if w < floor {
                    continue;
                }
                out.emit(WeightedEdge { w, a: pivot.0, b: j });
            }
        },
        |edge| {
            push_top_k(&mut heap, edge, k);
            if heap.len() == k {
                if let Some(Reverse(min)) = heap.peek() {
                    floor.store(min.w.to_bits(), Relaxed);
                }
            }
        },
    );
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.finish();
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let mut retained: Vec<WeightedEdge> = heap.into_iter().map(|Reverse(e)| e).collect();
    retained.sort_unstable_by(|x, y| y.cmp(x));
    #[cfg(feature = "sanitize")]
    {
        assert!(
            retained.len() <= k,
            "mb-sanitize: CEP retained {} comparisons, K = {k}",
            retained.len()
        );
        assert!(
            retained.windows(2).all(|w| w[0] >= w[1]),
            "mb-sanitize: CEP emission order is not descending by weight"
        );
    }
    scope.add(Counter::RetainedComparisons, retained.len() as u64);
    for e in retained {
        sink(EntityId(e.a), EntityId(e.b));
    }
    scope.finish();
}

/// The per-node cardinality threshold of CNP:
/// `k = max(1, ⌊Σ_{b∈B} |b| / |E|⌋ − 1)` — one less than the average number
/// of blocks per profile.
pub fn cnp_threshold(ctx: &GraphContext<'_>) -> usize {
    cnp_threshold_from_counts(ctx.blocks().total_assignments(), ctx.num_entities())
}

/// [`cnp_threshold`] from the aggregates alone (`Σ|b|`, `|E|`).
pub fn cnp_threshold_from_counts(total_assignments: u64, num_entities: usize) -> usize {
    let bpe = total_assignments / num_entities.max(1) as u64;
    (bpe.saturating_sub(1)).max(1) as usize
}

/// Bounded top-`k` selection over one weighed neighborhood — the single
/// kernel behind every node-centric cardinality retention: [`cnp`],
/// [`redefined_cnp`] / [`reciprocal_cnp`] at any thread count, and the serve
/// scorer's `Retention::TopK`.
///
/// Within one pivot's neighborhood the [`WeightedEdge`] order is the order
/// of `(weight, neighbor id)`: `incident` orders the pair `(min(p, j),
/// max(p, j))`, and for `j₁ < j₂` that pair order follows `j` whether both
/// lie below the pivot, both above, or the pivot between them. So the heap
/// holds bare `(weight, neighbor)` keys — a min-heap of the `min(k, n)`
/// best, in a plain `Vec` sifted by hand — and a `WeightedEdge` is built
/// only for [`TopK::select_descending`]'s output. The first `min(k, n)`
/// edges fill it; every later one is tested against the weakest survivor's
/// key, kept in a local and re-read only after an edge is accepted, so a
/// rejected edge costs one float compare (ties and NaNs go on to the full
/// key compare) and an accepted one `O(log k)`: `n` comparisons +
/// `O(k log k)` per neighborhood instead of an `O(n log n)` sort.
///
/// The walk runs backwards. First-co-occurrence order ascends within a
/// block, so tied weights then arrive larger id first, and a later tie of a
/// smaller id loses on the floor test. The order is total, so the survivor
/// set — and both emission orders — are exactly what sort-then-truncate
/// produces, for every `k` and any walk order.
///
/// Capacity follows the largest `min(k, n)` seen — never `k` alone, which
/// may come off the wire — so a scratch kept across neighborhoods, as every
/// sweep worker and every [`crate::ScorerScratch`] keeps one, allocates
/// nothing once warm.
#[derive(Debug, Default)]
pub struct TopK {
    /// Min-heap of `(weight, neighbor)` keys: the weakest survivor at 0.
    heap: Vec<(f64, u32)>,
    ranked: Vec<WeightedEdge>,
    ids: Vec<u32>,
}

/// Whether key `a` ranks below key `b` in one pivot's edge order: weight by
/// `total_cmp`, then neighbor id.
#[inline(always)]
fn ranks_below(a: (f64, u32), b: (f64, u32)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => a.1 < b.1,
        std::cmp::Ordering::Greater => false,
    }
}

impl TopK {
    /// An empty scratch; it grows to the largest selection it serves.
    pub fn new() -> Self {
        TopK::default()
    }

    /// Leaves the `min(k, n)` best edges of `pivot`'s neighborhood in the
    /// heap.
    fn fill(&mut self, pivot: EntityId, ids: &[u32], weights: &[f64], k: usize) {
        // The key order above presumes the pivot is not its own neighbor.
        debug_assert!(!ids.contains(&pivot.0), "{pivot} is in its own neighborhood");
        let k = k.min(ids.len());
        let heap = &mut self.heap;
        heap.clear();
        heap.reserve(k);
        let mut edges = ids.iter().zip(weights).rev().map(|(&j, &w)| (w, j));
        for edge in edges.by_ref().take(k) {
            heap.push(edge);
            sift_up(heap);
        }
        let Some(&first) = heap.first() else { return };
        let mut floor = first;
        for edge in edges {
            if edge.0 < floor.0 || !ranks_below(floor, edge) {
                continue;
            }
            heap[0] = edge;
            sift_down(heap);
            floor = heap[0];
        }
    }

    /// The top-`k` neighbors of `pivot`, ascending by neighbor id — CNP's
    /// emission order and the sorted stacks Algorithm 4 binary-searches.
    /// Valid until the next selection.
    pub fn select_ascending(
        &mut self,
        pivot: EntityId,
        ids: &[u32],
        weights: &[f64],
        k: usize,
    ) -> &[u32] {
        self.fill(pivot, ids, weights, k);
        self.ids.clear();
        self.ids.extend(self.heap.iter().map(|&(_, j)| j));
        self.ids.sort_unstable();
        #[cfg(feature = "sanitize")]
        assert_eq!(
            self.ids,
            full_sort_top_k_ids(pivot, ids, weights, k),
            "mb-sanitize: top-{k} of {pivot} differs from the full sort"
        );
        &self.ids
    }

    /// The top-`k` edges of `pivot`, descending under the [`WeightedEdge`]
    /// order — the ranking a serve query returns. Valid until the next
    /// selection.
    pub(crate) fn select_descending(
        &mut self,
        pivot: EntityId,
        ids: &[u32],
        weights: &[f64],
        k: usize,
    ) -> &[WeightedEdge] {
        self.fill(pivot, ids, weights, k);
        self.ranked.clear();
        self.ranked.extend(self.heap.iter().map(|&(w, j)| WeightedEdge::incident(pivot, j, w)));
        self.ranked.sort_unstable_by(|x, y| y.cmp(x));
        #[cfg(feature = "sanitize")]
        assert_eq!(
            self.ranked,
            full_sort_top_k(pivot, ids, weights, k),
            "mb-sanitize: ranked top-{k} of {pivot} differs from the full sort"
        );
        &self.ranked
    }
}

/// Restores the min-heap order after a push at the end.
fn sift_up(heap: &mut [(f64, u32)]) {
    let Some(mut i) = heap.len().checked_sub(1) else { return };
    let key = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if !ranks_below(key, heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = key;
}

/// Restores the min-heap order after the root was replaced.
fn sift_down(heap: &mut [(f64, u32)]) {
    let Some(&key) = heap.first() else { return };
    let mut i = 0;
    loop {
        let mut child = 2 * i + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && ranks_below(heap[child + 1], heap[child]) {
            child += 1;
        }
        if !ranks_below(heap[child], key) {
            break;
        }
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = key;
}

/// Sort-then-truncate top-`k`, descending — the implementation [`TopK`]
/// replaced, kept as the oracle it is checked against.
#[cfg(any(test, feature = "sanitize"))]
pub(crate) fn full_sort_top_k(
    pivot: EntityId,
    ids: &[u32],
    weights: &[f64],
    k: usize,
) -> Vec<WeightedEdge> {
    let mut edges: Vec<WeightedEdge> =
        ids.iter().zip(weights).map(|(&j, &w)| WeightedEdge::incident(pivot, j, w)).collect();
    edges.sort_unstable_by(|x, y| y.cmp(x));
    edges.truncate(k);
    edges
}

/// [`full_sort_top_k`]'s survivors as neighbor ids, ascending.
#[cfg(any(test, feature = "sanitize"))]
fn full_sort_top_k_ids(pivot: EntityId, ids: &[u32], weights: &[f64], k: usize) -> Vec<u32> {
    let mut kept: Vec<u32> =
        full_sort_top_k(pivot, ids, weights, k).iter().map(|e| e.neighbor_of(pivot)).collect();
    kept.sort_unstable();
    kept
}

/// Cardinality Node Pruning, original semantics: for every node, retain the
/// top-`k` weighted edges of its neighborhood and emit each as a comparison.
///
/// An edge retained by both endpoints is emitted twice — the redundancy the
/// redefined variant eliminates. Robust recall (every node keeps its best
/// matches) at the cost of roughly double the comparisons of CEP.
///
/// Stage accounting: the original scheme fuses weighting and selection into
/// one neighborhood sweep, so the whole pass reports as [`Stage::Pruning`]
/// (its weighting work shows up in the `neighborhoods_scanned` and
/// `edges_weighed` counters; the directed sweep visits each edge twice).
pub fn cnp(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let k = cnp_threshold(sweep.ctx());
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let mut retained = 0u64;
    let swept = sweep.top_k(
        k,
        sweep.all(),
        |out, pivot, kept| kept.iter().for_each(|&j| out.emit((pivot, EntityId(j)))),
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
/// group is whole has its stack selected in phase 2, from the group, in the
/// sweeping thread's [`TopK`]. On Clean-Clean ER under Optimized Edge
/// Weighting phase 1 therefore scans the second side alone and weighs each
/// edge once, so `edges_weighed` totals twice the distinct edges; elsewhere
/// phase 1 visits every edge from both ends, and the total is three times.
fn two_phase_cnp(
    sweep: &Sweep<'_, '_>,
    combine: Combine,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let k = cnp_threshold(sweep.ctx());
    // Phase 1 is the weighting work of Algorithm 4: the sorted top-`k`
    // neighbor list ("Sorted Stacks") of every node from `start` on — the
    // nodes outside the whole groups — back to back in one pool: node `i`'s
    // stack is `pool[offsets[i - start]..offsets[i - start + 1]]`. Phase 2
    // reads no stack below `start`: it selects a whole group's own, and on
    // Clean-Clean ER every neighbor is on the second side. A stack holds at
    // most `k` ids, and `k = 1` or `k < Σ|b| / |E|`, so the pool — sized once
    // for `(|E| − start) · k` — holds at most `max(|E|, Σ|b|)`, a count the
    // block arena's `u32` offsets bound.
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let n = sweep.ctx().num_entities();
    let whole = sweep.whole_groups();
    let start = whole.end as usize;
    let mut offsets: Vec<u32> = vec![0; n - start + 1];
    let mut pool: Vec<u32> = Vec::with_capacity((n - start).saturating_mul(k));
    let swept = sweep.top_k(
        k,
        whole.end..n as u32,
        |out, pivot, kept| kept.iter().for_each(|&j| out.emit((pivot, j))),
        |(pivot, j): (EntityId, u32)| {
            offsets[pivot.idx() - start + 1] += 1;
            pool.push(j);
        },
    );
    for i in 0..n - start {
        offsets[i + 1] += offsets[i];
    }
    scope.add(Counter::NeighborhoodsScanned, swept.neighborhoods);
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.finish();
    let stack = |i: usize| &pool[offsets[i - start] as usize..offsets[i - start + 1] as usize];
    // The binary searches below require sorted stacks within the per-node
    // budget — phase 1's contract.
    #[cfg(feature = "sanitize")]
    for i in start..n {
        let s = stack(i);
        assert!(
            s.len() <= k,
            "mb-sanitize: top-k stack of entity {i} holds {} neighbors, k = {k}",
            s.len()
        );
        assert!(
            s.windows(2).all(|w| w[0] < w[1]),
            "mb-sanitize: top-k stack of entity {i} is not strictly ascending"
        );
    }
    // Phase 2 (edge-centric): every distinct edge is retained at most once.
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let mut retained = 0u64;
    let swept = sweep.edges(
        |out, top, pivot, ids, weights| {
            // A whole group's selection is the stack phase 1 would have
            // pooled: the same edges, in the same order, through one kernel.
            let own = if whole.contains(&pivot.0) {
                top.select_ascending(pivot, ids, weights, k)
            } else {
                stack(pivot.idx())
            };
            for &j in ids {
                let in_own = own.binary_search(&j).is_ok();
                let in_theirs = stack(j as usize).binary_search(&pivot.0).is_ok();
                let retain = match combine {
                    Combine::Either => in_own || in_theirs,
                    Combine::Both => in_own && in_theirs,
                };
                if retain {
                    out.emit((pivot, EntityId(j)));
                }
            }
        },
        counted(&mut retained, &mut sink),
    );
    scope.add(Counter::EdgesWeighed, swept.edges());
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Redefined Cardinality Node Pruning (Algorithm 4): CNP without redundant
/// comparisons.
///
/// Phase 1 computes every node's top-`k` stack; phase 2 iterates the
/// distinct edges and retains those in the stack of *either* endpoint. Same
/// recall as [`cnp`], ~18% fewer comparisons on the paper's datasets.
pub fn redefined_cnp(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    sink: impl FnMut(EntityId, EntityId),
) {
    two_phase_cnp(sweep, Combine::Either, obs, sink);
}

/// Reciprocal Cardinality Node Pruning (§5.2): retains only the edges in the
/// top-`k` stacks of *both* endpoints — reciprocal links are "strong
/// indications for profile pairs with high chances of matching".
///
/// The paper's best scheme for efficiency-intensive applications: precision
/// up to an order of magnitude above CNP at a small recall cost.
pub fn reciprocal_cnp(
    sweep: &Sweep<'_, '_>,
    obs: &mut dyn Observer,
    sink: impl FnMut(EntityId, EntityId),
) {
    two_phase_cnp(sweep, Combine::Both, obs, sink);
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

    /// Graph: (0,1) share 2 blocks, the rest share 1 each.
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
    fn cep_retains_global_top_k() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        // Σ|b| = 7 -> K = 3.
        assert_eq!(cep_threshold(&ctx), 3);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let got =
            collect(|o, s| cep(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        assert_eq!(got.len(), 3);
        // (0,1) has CBS 2, the strongest edge, and comes first.
        assert_eq!(got[0], (0, 1));
    }

    #[test]
    fn cep_emits_nothing_on_empty_graph() {
        let blocks = BlockCollection::new(ErKind::Dirty, 2, vec![]);
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let got =
            collect(|o, s| cep(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        assert!(got.is_empty());
    }

    #[test]
    fn cep_reports_weighting_and_pruning_stages() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let mut log = mb_observe::RingLog::new(16);
        cep(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), &mut log, |_, _| {});
        assert_eq!(log.exit_order(), vec![Stage::EdgeWeighting, Stage::Pruning]);
        // 4 distinct edges weighed, K = 3 retained.
        assert_eq!(log.counter_total(Counter::EdgesWeighed), 4);
        assert_eq!(log.counter_total(Counter::RetainedComparisons), 3);
    }

    #[test]
    fn cnp_emits_directed_duplicates() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        // Σ|b|/|E| = 7/4 = 1 -> k = max(1, 0) = 1.
        assert_eq!(cnp_threshold(&ctx), 1);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let got =
            collect(|o, s| cnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        // Every node keeps its best edge: 0->1, 1->0, 2->3 (CBS ties (2,0)
        // vs (2,3) broken towards smaller pair ids -> (0,2)), 3->2.
        assert_eq!(got.len(), 4);
        // Both directions of the strongest pair are present -> redundancy.
        assert!(got.contains(&(0, 1)) && got.contains(&(1, 0)));
    }

    #[test]
    fn redefined_cnp_same_pairs_no_duplicates() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let original =
            collect(|o, s| cnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s));
        let redefined = collect(|o, s| {
            redefined_cnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
        });
        // Canonicalize the original's directed output.
        let mut orig_pairs: Vec<(u32, u32)> =
            original.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        orig_pairs.sort_unstable();
        orig_pairs.dedup();
        let mut redef = redefined;
        redef.sort_unstable();
        assert_eq!(orig_pairs, redef);
        // No pair occurs twice.
        let mut dedup = redef.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), redef.len());
    }

    #[test]
    fn reciprocal_cnp_is_subset_of_redefined() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let redefined = collect(|o, s| {
            redefined_cnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
        });
        let reciprocal = collect(|o, s| {
            reciprocal_cnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), o, s)
        });
        assert!(reciprocal.len() <= redefined.len());
        for p in &reciprocal {
            assert!(redefined.contains(p));
        }
        // (0,1) is in both endpoints' top-1 -> survives reciprocal pruning.
        assert!(reciprocal.contains(&(0, 1)));
    }

    #[test]
    fn top_k_selection_is_deterministic_under_ties() {
        let mut top = TopK::new();
        let a = top.select_ascending(EntityId(1), &[5, 3, 9], &[1.0, 1.0, 1.0], 2).to_vec();
        // Ties break towards larger pair ids first (total order), so the
        // selection is stable regardless of input order.
        assert_eq!(a, [5, 9]);
        let shuffled = top.select_ascending(EntityId(1), &[9, 5, 3], &[1.0, 1.0, 1.0], 2);
        assert_eq!(a, shuffled);
    }

    /// SplitMix64 — enough randomness for a differential test, no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random neighborhood of `n` distinct neighbor ids drawn from
    /// `lo..lo + span` (shuffled, as first-co-occurrence order is), weights
    /// from a handful of values so ties dominate.
    fn random_neighborhood(rng: &mut Rng, n: usize, lo: u32, span: u32) -> (Vec<u32>, Vec<f64>) {
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        while ids.len() < n {
            let j = lo + rng.below(span as u64) as u32;
            if !ids.contains(&j) {
                ids.push(j);
            }
        }
        let distinct = 1 + rng.below(4);
        let weights = (0..n).map(|_| rng.below(distinct) as f64 * 0.25).collect();
        (ids, weights)
    }

    /// A neighborhood shaped like a scan's: runs of ids ascending within a
    /// run, as a Dirty block's new members arrive, each run on one weight
    /// or two, so long ascending runs of ties are the rule.
    fn block_shaped_neighborhood(rng: &mut Rng, pivot: u32) -> (Vec<u32>, Vec<f64>) {
        let (mut ids, mut ws) = (Vec::new(), Vec::new());
        for _ in 0..1 + rng.below(6) {
            let mut run: Vec<u32> = (0..1 + rng.below(40)).map(|_| rng.below(300) as u32).collect();
            run.sort_unstable();
            run.dedup();
            let weights = [rng.below(3) as f64 * 0.5, rng.below(3) as f64 * 0.5];
            for j in run {
                if j != pivot && !ids.contains(&j) {
                    ids.push(j);
                    ws.push(weights[usize::from(rng.below(5) == 0)]);
                }
            }
        }
        (ids, ws)
    }

    /// Both emission orders of `top` against the full-sort oracle.
    fn assert_matches_oracle(top: &mut TopK, pivot: EntityId, ids: &[u32], ws: &[f64], k: usize) {
        let ranked = full_sort_top_k(pivot, ids, ws, k);
        assert_eq!(top.select_descending(pivot, ids, ws, k), ranked, "pivot {pivot} k {k}");
        let by_id = full_sort_top_k_ids(pivot, ids, ws, k);
        assert_eq!(top.select_ascending(pivot, ids, ws, k), by_id, "pivot {pivot} k {k}");
    }

    /// The kernel against the sort-then-truncate implementation it replaced:
    /// heavy ties, every interesting `k`, the pivot below / between / above
    /// its neighbors (the probe path's virtual pivot `|E|` is the last), for
    /// the Dirty (ids around the pivot) and Clean-Clean (ids on the far side
    /// of the split) layouts — with one scratch reused throughout, checked
    /// against a fresh one. Then scan-shaped neighborhoods, the ascending
    /// runs of ties the backward walk is there for, each selected by one
    /// scratch while `k` shrinks from `usize::MAX` to 1.
    #[test]
    fn kernel_matches_the_full_sort_oracle() {
        let mut rng = Rng(20160315);
        let mut reused = TopK::new();
        for round in 0..10_000u32 {
            let n = rng.below(if round % 50 == 0 { 300 } else { 24 }) as usize;
            // Dirty: neighbors on both sides of the pivot; Clean-Clean: a
            // left pivot sees only right-side ids and vice versa.
            let (lo, span, pivot) = match round % 5 {
                0 => (100, 400, 0),   // pivot below every neighbor
                1 => (100, 400, 500), // the virtual pivot |E|
                2 => (100, 400, 100 + rng.below(400) as u32),
                3 => (1000, 400, rng.below(1000) as u32), // left pivot, right ids
                _ => (0, 400, 1000 + rng.below(400) as u32), // right pivot, left ids
            };
            let (mut ids, mut ws) = random_neighborhood(&mut rng, n, lo, span);
            if let Some(at) = ids.iter().position(|&j| j == pivot) {
                ids.swap_remove(at);
                ws.swap_remove(at);
            }
            let n = ids.len();
            let pivot = EntityId(pivot);
            for k in [1, 2, 3, n.saturating_sub(1), n, n + 7, usize::MAX] {
                assert_matches_oracle(&mut reused, pivot, &ids, &ws, k);
                assert_matches_oracle(&mut TopK::new(), pivot, &ids, &ws, k);
            }
        }
        for round in 0..500u32 {
            let pivot = match round % 3 {
                0 => 0,
                1 => 300, // past every neighbor, as a probe stands
                _ => rng.below(300) as u32,
            };
            let (ids, ws) = block_shaped_neighborhood(&mut rng, pivot);
            let pivot = EntityId(pivot);
            let n = ids.len();
            let shrinking = [usize::MAX, n + 1, n].into_iter().chain((1..n).rev());
            for k in shrinking {
                assert_matches_oracle(&mut reused, pivot, &ids, &ws, k);
            }
        }
    }

    /// Within one pivot's neighborhood, `WeightedEdge::incident`'s total
    /// order is the order of `(weight, neighbor)` — the key the kernel's
    /// heap holds. Exhaustive over small ids with the pivot below, between
    /// and above its neighbors, over weights with ties, signed zeros,
    /// infinities and NaN.
    #[test]
    fn a_pivots_edge_order_is_weight_then_neighbor() {
        let weights = [0.0, -0.0, 0.5, 1.0, f64::INFINITY, f64::NAN, -f64::NAN];
        for p in 0..8u32 {
            for (j1, j2) in (0..8u32).flat_map(|a| (0..8u32).map(move |b| (a, b))) {
                if j1 == p || j2 == p {
                    continue;
                }
                for (&w1, &w2) in weights.iter().flat_map(|a| weights.iter().map(move |b| (a, b))) {
                    let edges = (
                        WeightedEdge::incident(EntityId(p), j1, w1),
                        WeightedEdge::incident(EntityId(p), j2, w2),
                    );
                    let keys = ((w1, j1), (w2, j2));
                    let what = format!("pivot {p}: ({w1}, {j1}) vs ({w2}, {j2})");
                    assert_eq!(ranks_below(keys.0, keys.1), edges.0 < edges.1, "{what}");
                    assert_eq!(ranks_below(keys.1, keys.0), edges.1 < edges.0, "{what}");
                }
            }
        }
    }

    #[test]
    fn kernel_keeps_nothing_for_k_zero_or_an_empty_neighborhood() {
        let mut top = TopK::new();
        assert!(top.select_ascending(EntityId(0), &[1, 2], &[1.0, 2.0], 0).is_empty());
        assert!(top.select_descending(EntityId(0), &[], &[], usize::MAX).is_empty());
    }

    /// The caps-before-allocation rule: a hostile `k` sizes nothing.
    #[test]
    fn scratch_capacity_follows_the_neighborhood_not_k() {
        let mut top = TopK::new();
        top.select_descending(EntityId(0), &[1, 2, 3], &[1.0, 2.0, 3.0], usize::MAX);
        assert!(top.heap.capacity() < 64, "heap reserved {}", top.heap.capacity());
        assert_eq!(heap_prealloc(usize::MAX), MAX_HEAP_PREALLOC);
    }
}
