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
use crate::prune::{neighborhood_mean, reaches, TopK, WeightedEdge};
use crate::scanner::{NeighborhoodScanner, ScanScope};
use crate::store::CandidateStore;
use crate::weights::{edge_weight, Degrees, WeightingScheme};
use er_model::{BlockCollection, EntityId};

/// Chunk floor for [`NeighborhoodScorer::batch`] — same rationale and value
/// as the pipeline sweeps (DESIGN.md §8: all parallel stages chunk through
/// [`er_model::chunk_ranges`]).
const MIN_CHUNK: usize = 256;

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
/// lifetime so they can outlive the scorer: four `O(|E|)` epoch arrays
/// (24 B per entity) plus the neighborhood buffers grown to their working
/// size. A serving connection takes them back with
/// [`NeighborhoodScorer::into_scratch`] when its generation is replaced and
/// hands them to [`NeighborhoodScorer::with_scratch`] over the next one, so
/// a re-pin costs what changed in `|E|`, not an allocation and a zeroing of
/// all of it. The default is empty.
#[derive(Debug, Default)]
pub struct ScorerScratch {
    scanner: NeighborhoodScanner,
    ids: Vec<u32>,
    weights: Vec<f64>,
    // Probe-scan epoch state (the scanner's scratch is private to it, and a
    // probe pivot has no entry in the entity index to scan from).
    probe_flags: Vec<u32>,
    probe_score: Vec<f64>,
    probe_tick: u32,
}

impl ScorerScratch {
    /// Fits the epoch arrays to `num_entities`, epochs carried over (see
    /// [`NeighborhoodScanner::resize`]; the probe arrays follow the same
    /// rule).
    fn resize(&mut self, num_entities: usize) {
        self.scanner.resize(num_entities);
        self.probe_flags.resize(num_entities, 0);
        self.probe_score.resize(num_entities, 0.0);
    }
}

/// Answers per-entity candidate queries over one blocking graph.
///
/// Owns everything a query needs — the graph context, the EJS degree
/// statistics, the ScanCount scanner and its scratch — so consecutive
/// queries are allocation-free once the neighborhood buffers have grown to
/// their working size.
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
        Self::from_context(GraphContext::new(blocks, split), scheme)
    }

    /// Builds a scorer around an existing context — the snapshot-load path,
    /// where the entity index was persisted and must not be re-derived.
    pub fn from_context(ctx: GraphContext<'b>, scheme: WeightingScheme) -> Self {
        Self::from_store(ctx, scheme)
    }

    /// The graph context being queried.
    pub fn ctx(&self) -> &GraphContext<'b> {
        &self.store
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
        scratch.resize(store.num_entities());
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
        let ScorerScratch { scanner, ids, weights, .. } = &mut self.scratch;
        let hood = scanner.scan(&self.store, pivot, self.scheme.accumulate(), ScanScope::All);
        ids.clear();
        ids.extend_from_slice(hood.ids);
        weights.clear();
        for &j in ids.iter() {
            let score = hood.score_of(j);
            weights.push(edge_weight(
                self.scheme,
                &self.store,
                self.degrees.as_ref(),
                pivot,
                EntityId(j),
                score,
            ));
        }
        Scored {
            candidates: retain(pivot, ids, weights, retention),
            blocks_touched: self.store.block_list(pivot).len() as u64,
            edges_scored: ids.len() as u64,
        }
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
        let ScorerScratch {
            ids, weights, probe_flags: flags, probe_score: score, probe_tick, ..
        } = &mut self.scratch;
        *probe_tick = probe_tick.wrapping_add(1);
        if *probe_tick == 0 {
            flags.fill(0);
            *probe_tick = 1;
        }
        ids.clear();
        let arcs = self.scheme.accumulate() == crate::scanner::Accumulate::ReciprocalCardinalities;
        let scan_right = self.store.kind() != er_model::ErKind::Dirty && probe_is_first;
        let tick = *probe_tick;
        for &k in block_ids {
            let increment = if arcs { self.store.recip_cardinality_of(k as usize) } else { 1.0 };
            self.store.members_of(k as usize, scan_right).for_each(|j| {
                let idx = j as usize;
                if flags[idx] != tick {
                    flags[idx] = tick;
                    score[idx] = 0.0;
                    ids.push(j);
                }
                score[idx] += increment;
            });
        }
        let probe_blocks = block_ids.len() as f64;
        let probe_degree = ids.len();
        weights.clear();
        for &j in ids.iter() {
            weights.push(probe_weight(
                self.scheme,
                &self.store,
                self.degrees.as_ref(),
                probe_blocks,
                probe_degree,
                EntityId(j),
                score[j as usize],
            ));
        }
        // Entity ids are dense u32s, so |E| itself always fits.
        let past_every_id = self.store.num_entities() as u32;
        let virtual_pivot = EntityId(past_every_id);
        Scored {
            candidates: retain(virtual_pivot, ids, weights, retention),
            blocks_touched: block_ids.len() as u64,
            edges_scored: probe_degree as u64,
        }
    }
}

impl<S: CandidateStore + Sync> NeighborhoodScorer<S> {
    /// Scores every indexed entity, fanning the id range out over up to
    /// `threads` workers.
    ///
    /// Chunks come from [`er_model::chunk_ranges`] and results are
    /// concatenated in range order, so the output is bit-identical to the
    /// sequential sweep for any thread count (each pivot's query is
    /// independent of every other's).
    pub fn batch(&self, retention: Retention, threads: usize) -> Vec<Scored> {
        let n = self.store.num_entities();
        let ranges = er_model::chunk_ranges(n, threads, MIN_CHUNK);
        let store = &self.store;
        let degrees = self.degrees.as_ref();
        let scheme = self.scheme;
        let run_range = move |range: std::ops::Range<usize>| {
            let mut scanner = NeighborhoodScanner::new(n);
            let mut ids: Vec<u32> = Vec::new();
            let mut weights: Vec<f64> = Vec::new();
            let mut out = Vec::with_capacity(range.len());
            // Entity ids are dense u32s, so the range bounds always fit.
            for raw in range.start as u32..range.end as u32 {
                let pivot = EntityId(raw);
                let hood = scanner.scan(store, pivot, scheme.accumulate(), ScanScope::All);
                ids.clear();
                ids.extend_from_slice(hood.ids);
                weights.clear();
                for &j in &ids {
                    let score = hood.score_of(j);
                    weights.push(edge_weight(scheme, store, degrees, pivot, EntityId(j), score));
                }
                out.push(Scored {
                    candidates: retain(pivot, &ids, &weights, retention),
                    blocks_touched: store.block_list(pivot).len() as u64,
                    edges_scored: ids.len() as u64,
                });
            }
            out
        };
        if ranges.len() <= 1 {
            return ranges.into_iter().flat_map(run_range).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> =
                ranges.into_iter().map(|r| s.spawn(move || run_range(r))).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }
}

/// Applies a retention mode to one weighed neighborhood and returns the
/// survivors in descending [`WeightedEdge`] order.
fn retain(pivot: EntityId, ids: &[u32], weights: &[f64], retention: Retention) -> Vec<Candidate> {
    match retention {
        // The exact CNP selection: same kernel, same total order, already
        // ranked.
        Retention::TopK(k) => TopK::new()
            .select_descending(pivot, ids, weights, k)
            .iter()
            .map(|e| Candidate { id: EntityId(e.neighbor_of(pivot)), weight: e.w })
            .collect(),
        Retention::AboveMean => {
            if ids.is_empty() {
                return Vec::new();
            }
            let mean = neighborhood_mean(weights);
            let mut out: Vec<Candidate> = ids
                .iter()
                .zip(weights)
                .filter(|&(_, &w)| reaches(w, mean))
                .map(|(&j, &w)| Candidate { id: EntityId(j), weight: w })
                .collect();
            out.sort_unstable_by_key(|c| {
                std::cmp::Reverse(WeightedEdge::incident(pivot, c.id.0, c.weight))
            });
            out
        }
    }
}

/// [`edge_weight`] for a probe pivot, with the probe-side statistics passed
/// explicitly instead of read from the entity index.
fn probe_weight<S: CandidateStore>(
    scheme: WeightingScheme,
    store: &S,
    degrees: Option<&Degrees>,
    probe_blocks: f64,
    probe_degree: usize,
    j: EntityId,
    score: f64,
) -> f64 {
    let num_blocks = store.num_blocks() as f64;
    match scheme {
        WeightingScheme::Arcs | WeightingScheme::Cbs => score,
        WeightingScheme::Ecbs => {
            let bj = store.num_blocks_of(j) as f64;
            score * (num_blocks / probe_blocks).ln() * (num_blocks / bj).ln()
        }
        WeightingScheme::Js => {
            let bj = store.num_blocks_of(j) as f64;
            score / (probe_blocks + bj - score)
        }
        WeightingScheme::Ejs => {
            let bj = store.num_blocks_of(j) as f64;
            let js = score / (probe_blocks + bj - score);
            let degrees = match degrees {
                Some(d) => d,
                // from_context computes degree statistics whenever the
                // scheme is EJS, so this arm marks a construction bug.
                None => unreachable!("EJS probe evaluated without degree statistics"),
            };
            let e = degrees.total_edges as f64;
            let di = probe_degree.max(1) as f64;
            let dj = degrees.per_node[j.idx()].max(1) as f64;
            js * (e / di).ln() * (e / dj).ln()
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

                // Those scans left entries marked with epochs 1, 2, …: the
                // values the counters take again right after the wrap, so a
                // wrap that did not reset the markers would read stale
                // scores as current. Two entries past |E| besides, as a
                // scratch back from a larger generation has.
                let mut scratch = cold.into_scratch();
                scratch.resize(n as usize + 2);
                scratch.scanner.set_tick(u32::MAX - 1);
                scratch.probe_tick = u32::MAX - 1;
                let ctx = GraphContext::new(&blocks, split);
                let mut warm = NeighborhoodScorer::with_scratch(ctx, scheme, scratch);
                for (i, want) in queries.iter().enumerate() {
                    let got = warm.query(EntityId(i as u32), Retention::TopK(10));
                    assert_eq!(&got, want, "{scheme:?} pivot {i}");
                }
                for want in &probes {
                    assert_eq!(&warm.probe(&[0, 1, 2], false, Retention::AboveMean), want);
                }
                assert!(warm.scratch.probe_tick < 8, "the probe epoch wrapped");
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
        // Enough entities to split into several chunks past the floor.
        let n = MIN_CHUNK * 3 + 17;
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
                assert_eq!(scorer.batch(Retention::TopK(2), threads), sequential);
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
        for i in 0..blocks.num_entities() {
            let single = scorer.query(EntityId(i as u32), Retention::AboveMean);
            assert_eq!(batch[i], single, "pivot {i}");
        }
    }
}
