//! Per-entity candidate scoring — the node-centric pruning schemes recast
//! as an online query primitive.
//!
//! The batch pipeline sweeps every node of the blocking graph; a serving
//! layer instead answers *one* neighborhood at a time against a persisted
//! index. [`NeighborhoodScorer`] owns the [`GraphContext`] (and the degree
//! statistics EJS needs) so a loaded snapshot can answer queries repeatedly
//! without re-deriving any per-graph state, and its retention modes reuse
//! the exact selection code of [`crate::prune::cnp`] / [`crate::prune::wnp`]
//! — a single query returns precisely the candidates batch node-centric
//! pruning would retain for that node, in descending weight order.

use crate::context::GraphContext;
use crate::parallel::{sweep_windows, Worker};
use crate::prune::{neighborhood_mean, reaching, TopK, WeightedEdge};
use crate::scanner::{NeighborhoodScanner, Pivot, ScanScope};
use crate::store::CandidateStore;
use crate::weighting::optimized::weigh_neighborhood;
use crate::weights::{Degrees, WeightingScheme};
use er_model::{BlockCollection, EntityId};

/// One retained candidate: a neighbor id and the weight of its edge to the
/// query's pivot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The co-occurring profile.
    pub id: EntityId,
    /// The edge weight under the scorer's [`WeightingScheme`].
    pub weight: f64,
}

/// Which neighbors a query retains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Retention {
    /// CNP semantics: the `k` best edges of the neighborhood under the
    /// deterministic weight-then-ids total order.
    TopK(usize),
    /// WNP semantics: every edge whose weight reaches the neighborhood's
    /// mean weight.
    AboveMean,
}

impl std::fmt::Display for Retention {
    /// The stable command-line/JSON form: `top-k=<k>` or `above-mean` —
    /// same token discipline as [`WeightingScheme`] and
    /// [`crate::PruningScheme`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Retention::TopK(k) => write!(f, "top-k={k}"),
            Retention::AboveMean => f.write_str("above-mean"),
        }
    }
}

impl std::str::FromStr for Retention {
    type Err = String;

    /// Parses the [`std::fmt::Display`] form back, case-insensitively;
    /// `_` is accepted in place of `-` (as for [`crate::PruningScheme`]).
    fn from_str(s: &str) -> Result<Retention, String> {
        let canon = s.trim().to_ascii_lowercase().replace('_', "-");
        if canon == "above-mean" {
            return Ok(Retention::AboveMean);
        }
        if let Some(k) = canon.strip_prefix("top-k=") {
            return match k.parse::<usize>() {
                Ok(k) if k > 0 => Ok(Retention::TopK(k)),
                _ => Err(format!("top-k retention needs a positive count, got '{k}'")),
            };
        }
        Err(format!("unknown retention '{s}' (expected top-k=<k> or above-mean)"))
    }
}

/// The result of one query: retained candidates plus the work counters the
/// observability layer reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// Retained candidates, in descending weight order (ties broken by the
    /// [`crate::prune::cnp`] pair-id order, so the ranking is total).
    pub candidates: Vec<Candidate>,
    /// Blocks walked to assemble the neighborhood.
    pub blocks_touched: u64,
    /// Distinct neighbors weighed (the node degree `|v_i|`).
    pub edges_scored: u64,
}

/// The buffers a [`NeighborhoodScorer`] scans with, free of the store's
/// lifetime so they can outlive the scorer: the scanner's `O(|E|)` arrays —
/// 4 B per entity of common-block counts under CBS, ECBS, JS and EJS, 12 B
/// of epochs and sums under ARCS — plus the neighborhood buffers and the
/// top-`k` selection scratch grown to their working size. A serving
/// connection takes them back with [`NeighborhoodScorer::into_scratch`] when
/// its generation is replaced and hands them to
/// [`NeighborhoodScorer::with_scratch`] over the next one, so a re-pin costs
/// what changed in `|E|`, not an allocation and a zeroing of all of it. The
/// default is empty.
#[derive(Debug, Default)]
pub struct ScorerScratch {
    scanner: NeighborhoodScanner,
    weights: Vec<f64>,
    top: TopK,
}

/// Answers per-entity candidate queries over one blocking graph.
///
/// Owns everything a query needs — the graph context, the EJS degree
/// statistics, the ScanCount scanner and its scratch — so once the
/// neighborhood buffers have grown to their working size a query allocates
/// only the candidate list it returns.
#[derive(Debug)]
pub struct NeighborhoodScorer<S> {
    store: S,
    scheme: WeightingScheme,
    degrees: Option<Degrees>,
    scratch: ScorerScratch,
}

impl<'b> NeighborhoodScorer<GraphContext<'b>> {
    /// Builds a scorer for `scheme`, deriving the entity index from the
    /// blocks.
    pub fn new(blocks: &'b BlockCollection, split: usize, scheme: WeightingScheme) -> Self {
        Self::from_store(GraphContext::new(blocks, split), scheme)
    }
}

impl<S: CandidateStore> NeighborhoodScorer<S> {
    /// Builds a scorer over any [`CandidateStore`] — the generic entry the
    /// zero-copy serving stores use. Queries are bit-identical across store
    /// implementations presenting the same graph.
    pub fn from_store(store: S, scheme: WeightingScheme) -> Self {
        Self::with_scratch(store, scheme, ScorerScratch::default())
    }

    /// [`NeighborhoodScorer::from_store`] over buffers an earlier scorer
    /// gave back ([`NeighborhoodScorer::into_scratch`]), refitted to this
    /// store's `|E|`. Nothing a query returns depends on where the scratch
    /// has been; the EJS degree statistics are computed from `store` as
    /// always.
    pub fn with_scratch(store: S, scheme: WeightingScheme, mut scratch: ScorerScratch) -> Self {
        let degrees = scheme.needs_degrees().then(|| Degrees::compute(&store));
        scratch.scanner.resize(store.num_entities());
        NeighborhoodScorer { store, scheme, degrees, scratch }
    }

    /// Gives the scan buffers back for the next scorer to reuse.
    pub fn into_scratch(self) -> ScorerScratch {
        self.scratch
    }

    /// The store being queried.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The weighting scheme every query evaluates.
    pub fn scheme(&self) -> WeightingScheme {
        self.scheme
    }

    /// Scores the neighborhood of one indexed entity.
    ///
    /// With [`Retention::TopK`]`(k)` the result is exactly the neighbor set
    /// batch CNP retains for this node at threshold `k`; with
    /// [`Retention::AboveMean`] it is exactly the WNP retention.
    pub fn query(&mut self, pivot: EntityId, retention: Retention) -> Scored {
        let NeighborhoodScorer { store, scheme, degrees, scratch } = self;
        let ScorerScratch { scanner, weights, top } = scratch;
        let pivot = Pivot::indexed(store, pivot);
        score(store, *scheme, degrees.as_ref(), scanner, weights, top, pivot, retention)
    }

    /// Scores a *probe* — a virtual entity described only by the blocks it
    /// would occupy (a cold query whose profile is not in the index).
    ///
    /// `block_ids` are indices into the scorer's block collection;
    /// `probe_is_first` states which Clean-Clean side the probe belongs to
    /// (ignored for Dirty ER). Probe-side statistics substitute for the
    /// missing index entry: `|B_i| = block_ids.len()` and the EJS degree is
    /// the probe's distinct-neighbor count (the persisted `|E_B|` excludes
    /// the probe's own edges). Ties rank as if the probe's id were
    /// `num_entities`, past every real id.
    pub fn probe(
        &mut self,
        block_ids: &[u32],
        probe_is_first: bool,
        retention: Retention,
    ) -> Scored {
        let NeighborhoodScorer { store, scheme, degrees, scratch } = self;
        let ScorerScratch { scanner, weights, top } = scratch;
        let pivot = Pivot::probe(store, block_ids, probe_is_first);
        score(store, *scheme, degrees.as_ref(), scanner, weights, top, pivot, retention)
    }
}

impl<S: CandidateStore + Sync> NeighborhoodScorer<S> {
    /// Scores every indexed entity on up to `threads` workers, in id order.
    ///
    /// One more sweep on the windowed driver ([`crate::parallel`]): inline on
    /// the calling thread at one thread, window-ordered otherwise, so the
    /// output is the sequential sweep's for any thread count (each pivot's
    /// query is independent of every other's).
    pub fn batch(&self, retention: Retention, threads: usize) -> Vec<Scored> {
        let (store, scheme, degrees) = (&self.store, self.scheme, self.degrees.as_ref());
        let mut scored = Vec::with_capacity(store.num_entities());
        sweep_windows(
            store.num_entities(),
            threads,
            |worker, pivots, out| {
                let Worker { scanner, weights, top, .. } = worker;
                for raw in pivots {
                    let pivot = Pivot::indexed(store, EntityId(raw));
                    let one =
                        score(store, scheme, degrees, scanner, weights, top, pivot, retention);
                    out.emit(one);
                }
            },
            |one| scored.push(one),
        );
        scored
    }
}

/// One pivot, indexed or probe, through the scan-and-weigh kernel every
/// batch sweep runs, then through `retention`.
#[allow(clippy::too_many_arguments)]
fn score<S: CandidateStore>(
    store: &S,
    scheme: WeightingScheme,
    degrees: Option<&Degrees>,
    scanner: &mut NeighborhoodScanner,
    weights: &mut Vec<f64>,
    top: &mut TopK,
    pivot: Pivot<'_>,
    retention: Retention,
) -> Scored {
    weights.clear();
    let ids = weigh_neighborhood(scheme, store, degrees, scanner, pivot, ScanScope::All, |_, w| {
        weights.push(w)
    });
    Scored {
        candidates: retain(top, EntityId(pivot.id), ids, weights, retention),
        blocks_touched: pivot.blocks.len() as u64,
        edges_scored: ids.len() as u64,
    }
}

/// Applies a retention mode to one weighed neighborhood and returns the
/// survivors in descending [`WeightedEdge`] order.
fn retain(
    top: &mut TopK,
    pivot: EntityId,
    ids: &[u32],
    weights: &[f64],
    retention: Retention,
) -> Vec<Candidate> {
    match retention {
        // The exact CNP selection: same kernel, same total order, already
        // ranked.
        Retention::TopK(k) => top
            .select_descending(pivot, ids, weights, k)
            .iter()
            .map(|e| Candidate { id: EntityId(e.neighbor_of(pivot)), weight: e.w })
            .collect(),
        Retention::AboveMean => {
            if ids.is_empty() {
                return Vec::new();
            }
            // The WNP selection, then the ranking.
            let mut out = Vec::new();
            reaching(ids, weights, neighborhood_mean(weights), |kept, kept_weights| {
                let kept = kept.iter().zip(kept_weights);
                out.extend(kept.map(|(&j, &w)| Candidate { id: EntityId(j), weight: w }));
            });
            out.sort_unstable_by_key(|c| {
                std::cmp::Reverse(WeightedEdge::incident(pivot, c.id.0, c.weight))
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Sweep;
    use crate::prune;
    use crate::weighting::WeightingImpl;
    use crate::weights::EdgeWeigher;
    use er_model::{Block, BlockCollection, ErKind};
    use mb_observe::Noop;

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
                Block::dirty(ids(&[2, 3])),
                Block::dirty(ids(&[1, 2, 4])),
            ],
        )
    }

    fn clean_fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::CleanClean,
            6,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[3, 4])),
                Block::clean_clean(ids(&[0]), ids(&[3])),
                Block::clean_clean(ids(&[1, 2]), ids(&[4, 5])),
            ],
        )
    }

    /// Directed CNP retentions per pivot, as (sorted) neighbor-id sets.
    fn cnp_per_node(
        blocks: &BlockCollection,
        split: usize,
        scheme: WeightingScheme,
    ) -> Vec<Vec<u32>> {
        let ctx = GraphContext::new(blocks, split);
        let weigher = EdgeWeigher::new(scheme, &ctx);
        let mut per_node = vec![Vec::new(); blocks.num_entities()];
        prune::cnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), &mut Noop, |a, b| {
            per_node[a.idx()].push(b.0);
        });
        for v in &mut per_node {
            v.sort_unstable();
        }
        per_node
    }

    /// Directed WNP retentions per pivot, as (sorted) neighbor-id sets.
    fn wnp_per_node(
        blocks: &BlockCollection,
        split: usize,
        scheme: WeightingScheme,
    ) -> Vec<Vec<u32>> {
        let ctx = GraphContext::new(blocks, split);
        let weigher = EdgeWeigher::new(scheme, &ctx);
        let mut per_node = vec![Vec::new(); blocks.num_entities()];
        prune::wnp(&Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1), &mut Noop, |a, b| {
            per_node[a.idx()].push(b.0);
        });
        for v in &mut per_node {
            v.sort_unstable();
        }
        per_node
    }

    fn candidate_ids(scored: &Scored) -> Vec<u32> {
        let mut v: Vec<u32> = scored.candidates.iter().map(|c| c.id.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn top_k_query_matches_batch_cnp_for_every_scheme() {
        for blocks in [fixture(), clean_fixture()] {
            let split = if blocks.kind() == ErKind::Dirty { blocks.num_entities() } else { 3 };
            for scheme in WeightingScheme::ALL {
                let expected = cnp_per_node(&blocks, split, scheme);
                let ctx = GraphContext::new(&blocks, split);
                let k = prune::cnp_threshold(&ctx);
                let mut scorer = NeighborhoodScorer::new(&blocks, split, scheme);
                for (i, want) in expected.iter().enumerate() {
                    let got = scorer.query(EntityId(i as u32), Retention::TopK(k));
                    assert_eq!(&candidate_ids(&got), want, "{scheme:?} pivot {i}");
                }
            }
        }
    }

    #[test]
    fn above_mean_query_matches_batch_wnp_for_every_scheme() {
        for blocks in [fixture(), clean_fixture()] {
            let split = if blocks.kind() == ErKind::Dirty { blocks.num_entities() } else { 3 };
            for scheme in WeightingScheme::ALL {
                let expected = wnp_per_node(&blocks, split, scheme);
                let mut scorer = NeighborhoodScorer::new(&blocks, split, scheme);
                for (i, want) in expected.iter().enumerate() {
                    let got = scorer.query(EntityId(i as u32), Retention::AboveMean);
                    assert_eq!(&candidate_ids(&got), want, "{scheme:?} pivot {i}");
                }
            }
        }
    }

    #[test]
    fn candidates_are_ranked_descending() {
        let blocks = fixture();
        let mut scorer =
            NeighborhoodScorer::new(&blocks, blocks.num_entities(), WeightingScheme::Cbs);
        let got = scorer.query(EntityId(1), Retention::TopK(10));
        assert!(!got.candidates.is_empty());
        for w in got.candidates.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        // Neighbors 0 and 2 tie at CBS 2; the descending WeightedEdge order
        // places the larger pair ids first, so (1,2) precedes (0,1).
        assert_eq!(got.candidates[0].id, EntityId(2));
        assert_eq!(got.candidates[0].weight, 2.0);
        assert_eq!(got.candidates[1].id, EntityId(0));
        assert_eq!(got.edges_scored, 3);
        assert_eq!(got.blocks_touched, 3);
    }

    #[test]
    fn probe_of_an_indexed_entitys_blocks_finds_that_entity() {
        let blocks = fixture();
        let mut scorer =
            NeighborhoodScorer::new(&blocks, blocks.num_entities(), WeightingScheme::Cbs);
        // Entity 2 sits in blocks 1, 2, 3.
        let got = scorer.probe(&[1, 2, 3], true, Retention::TopK(1));
        assert_eq!(got.candidates.len(), 1);
        assert_eq!(got.candidates[0].id, EntityId(2));
        assert_eq!(got.candidates[0].weight, 3.0);
        assert_eq!(got.blocks_touched, 3);
    }

    #[test]
    fn probe_respects_clean_clean_sides() {
        let blocks = clean_fixture();
        let mut scorer = NeighborhoodScorer::new(&blocks, 3, WeightingScheme::Cbs);
        // A first-side probe must only see right-side members.
        let got = scorer.probe(&[0, 1], true, Retention::TopK(10));
        assert!(got.candidates.iter().all(|c| c.id.idx() >= 3));
        // A second-side probe over the same blocks sees the left side.
        let got = scorer.probe(&[0, 1], false, Retention::TopK(10));
        assert!(got.candidates.iter().all(|c| c.id.idx() < 3));
    }

    #[test]
    fn probe_scan_state_resets_between_probes() {
        let blocks = fixture();
        let mut scorer =
            NeighborhoodScorer::new(&blocks, blocks.num_entities(), WeightingScheme::Cbs);
        let first = scorer.probe(&[0, 1, 3], true, Retention::AboveMean);
        let again = scorer.probe(&[0, 1, 3], true, Retention::AboveMean);
        assert_eq!(first, again);
        // A different probe is not contaminated by the previous scores.
        let other = scorer.probe(&[2], true, Retention::TopK(10));
        assert_eq!(candidate_ids(&other), vec![2, 3]);
        assert!(other.candidates.iter().all(|c| c.weight == 1.0));
    }

    #[test]
    fn carried_scratch_one_tick_short_of_the_wrap_stays_sound() {
        for blocks in [fixture(), clean_fixture()] {
            let split = if blocks.kind() == ErKind::Dirty { blocks.num_entities() } else { 3 };
            let n = blocks.num_entities() as u32;
            for scheme in [WeightingScheme::Arcs, WeightingScheme::Ejs] {
                let mut cold = NeighborhoodScorer::new(&blocks, split, scheme);
                let queries: Vec<Scored> =
                    (0..n).map(|i| cold.query(EntityId(i), Retention::TopK(10))).collect();
                let probes: Vec<Scored> =
                    (0..4).map(|_| cold.probe(&[0, 1, 2], false, Retention::AboveMean)).collect();

                // Those scans left ARCS entries marked with epochs 1, 2, …:
                // the values the counter takes again right after the wrap,
                // so a wrap that did not reset the markers would read stale
                // scores as current; an EJS scan left its last counts. Two
                // entries past |E| besides, as a scratch back from a larger
                // generation has.
                let mut scratch = cold.into_scratch();
                scratch.scanner.resize(n as usize + 2);
                scratch.scanner.set_tick(u32::MAX - 1);
                let ctx = GraphContext::new(&blocks, split);
                let mut warm = NeighborhoodScorer::with_scratch(ctx, scheme, scratch);
                for (i, want) in queries.iter().enumerate() {
                    let got = warm.query(EntityId(i as u32), Retention::TopK(10));
                    assert_eq!(&got, want, "{scheme:?} pivot {i}");
                }
                for want in &probes {
                    assert_eq!(&warm.probe(&[0, 1, 2], false, Retention::AboveMean), want);
                }
                // Only ARCS keeps an epoch; an EJS scan marks with its counts.
                if scheme == WeightingScheme::Arcs {
                    assert!(warm.scratch.scanner.tick() < 16, "the epoch wrapped");
                }
            }
        }
    }

    /// Neighbor → weight bits of one answer with everything retained.
    fn weight_bits(scored: &Scored) -> std::collections::BTreeMap<u32, u64> {
        scored.candidates.iter().map(|c| (c.id.0, c.weight.to_bits())).collect()
    }

    /// A probe is a pivot: one that carries entity `e`'s own block list and
    /// side weighs `e`'s neighbors exactly as `query(e)` does. On Dirty ER
    /// the probe also finds `e` itself, one neighbor `e` does not have, so
    /// its EJS degree is one higher and EJS is left out there; a Clean-Clean
    /// probe only sees the other side, where the degrees agree too.
    #[test]
    fn a_probe_with_an_entitys_blocks_weighs_its_neighbors_as_the_query_does() {
        for blocks in [fixture(), clean_fixture()] {
            let dirty = blocks.kind() == ErKind::Dirty;
            let split = if dirty { blocks.num_entities() } else { 3 };
            let ctx = GraphContext::new(&blocks, split);
            for scheme in WeightingScheme::ALL {
                if dirty && scheme == WeightingScheme::Ejs {
                    continue;
                }
                let mut scorer = NeighborhoodScorer::new(&blocks, split, scheme);
                for e in (0..blocks.num_entities() as u32).map(EntityId) {
                    let list = ctx.index().block_list(e).to_vec();
                    let want = weight_bits(&scorer.query(e, Retention::TopK(usize::MAX)));
                    let probed = scorer.probe(&list, ctx.is_first(e), Retention::TopK(usize::MAX));
                    let mut got = weight_bits(&probed);
                    assert_eq!(got.remove(&e.0).is_some(), dirty && !list.is_empty(), "{e}");
                    assert_eq!(got, want, "{scheme:?} entity {e}");
                    assert_eq!(probed.blocks_touched, list.len() as u64);
                }
            }
        }
    }

    #[test]
    fn empty_probe_and_isolated_entities_yield_no_candidates() {
        let blocks = fixture();
        let mut scorer =
            NeighborhoodScorer::new(&blocks, blocks.num_entities(), WeightingScheme::Js);
        let got = scorer.probe(&[], true, Retention::AboveMean);
        assert!(got.candidates.is_empty());
        assert_eq!(got.edges_scored, 0);
    }

    #[test]
    fn batch_is_identical_across_thread_counts() {
        // One short of, on and one past a window boundary, several windows in.
        let windows = crate::parallel::WINDOW_PIVOTS as usize * 3;
        for n in [windows - 1, windows, windows + 1] {
            let mut blocks = Vec::new();
            for b in 0..n / 2 {
                let base = (b * 2) as u32;
                blocks.push(Block::dirty(ids(&[base, base + 1, (base + 7) % n as u32])));
            }
            let coll = BlockCollection::new(ErKind::Dirty, n, blocks);
            for scheme in [WeightingScheme::Cbs, WeightingScheme::Ejs] {
                let scorer = NeighborhoodScorer::new(&coll, n, scheme);
                let sequential = scorer.batch(Retention::TopK(2), 1);
                assert_eq!(sequential.len(), n);
                for threads in [2, 4, 8] {
                    assert_eq!(scorer.batch(Retention::TopK(2), threads), sequential, "|E| = {n}");
                }
            }
        }
    }

    #[test]
    fn retention_tokens_round_trip() {
        for r in [Retention::TopK(1), Retention::TopK(5000), Retention::AboveMean] {
            assert_eq!(r.to_string().parse::<Retention>().unwrap(), r);
        }
        assert_eq!("top-k=5".parse::<Retention>().unwrap(), Retention::TopK(5));
        assert_eq!("Above-Mean".parse::<Retention>().unwrap(), Retention::AboveMean);
        assert_eq!(" top_k=3 ".parse::<Retention>().unwrap(), Retention::TopK(3));
        assert!("top-k=0".parse::<Retention>().unwrap_err().contains("positive"));
        assert!("top-k=x".parse::<Retention>().unwrap_err().contains("positive"));
        assert!("best".parse::<Retention>().unwrap_err().contains("above-mean"));
    }

    #[test]
    fn batch_agrees_with_single_queries() {
        let blocks = fixture();
        let mut scorer =
            NeighborhoodScorer::new(&blocks, blocks.num_entities(), WeightingScheme::Ecbs);
        let batch = scorer.batch(Retention::AboveMean, 4);
        assert_eq!(batch.len(), blocks.num_entities());
        for (i, scored) in batch.iter().enumerate() {
            let single = scorer.query(EntityId(i as u32), Retention::AboveMean);
            assert_eq!(*scored, single, "pivot {i}");
        }
    }
}
