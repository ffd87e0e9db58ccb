//! The online candidate-query engine over a loaded snapshot.
//!
//! A [`QueryEngine`] is constructed once per loaded [`SnapshotView`] (or
//! per pinned [`Generation`] over one) and then answers any number of
//! queries without touching the blocking front-end again: indexed
//! entities are scored straight off the entity index load derived, and
//! unseen *probe* profiles are tokenized against the snapshot's frozen
//! vocabulary and mapped through the per-block key provenance onto the
//! surviving blocks.
//!
//! Candidate scoring, retention, and ordering are shared with the batch
//! pipeline (`mb_core::NeighborhoodScorer`, generic over the storage), so an
//! online query returns exactly the neighbors batch node-centric pruning
//! would retain for the same entity, scheme, and threshold.

use crate::delta::DeltaOverlay;
use crate::error::ServeError;
use crate::generation::Generation;
use crate::request::{CandidateRequest, CandidateResponse, CandidateTarget};
use crate::store::EngineStore;
use crate::view::{distinct_by_bytes, SnapshotView, TokenScratch};
use er_model::{EntityId, EntityProfile, ErKind};
use mb_core::parallel::host_threads;
use mb_core::{
    CandidateStore, NeighborhoodScorer, PruningScheme, Retention, Scored, ScorerScratch,
    WeightingScheme,
};
use mb_observe::{Counter, Observer, Stage, StageScope};

/// An online candidate-query engine bound to a loaded snapshot.
///
/// Holds the per-query scratch state (scan arrays, probe buffers), so
/// queries allocate nothing on the steady path. One engine serves one
/// thread; [`CandidateTarget::Batch`] fans out internally on the windowed
/// sweep driver the batch pipeline runs on.
pub struct QueryEngine<'s> {
    /// The scorer, and through [`NeighborhoodScorer::store`] the store and
    /// the generation's delta overlay (consulted for vocabulary-extension
    /// tokens and promoted block routes on the probe path).
    scorer: NeighborhoodScorer<EngineStore<'s>>,
    /// The loaded snapshot: the base vocabulary (probe tokens go through
    /// its load-time hash table, then its token → block routes) and the
    /// configured defaults.
    view: &'s SnapshotView,
    tokens: TokenScratch,
    probe_ids: Vec<u32>,
    probe_blocks: Vec<u32>,
}

/// Every buffer a [`QueryEngine`] owns, detached from the generation it was
/// pinned to: the scorer's `O(|E|)` scan arrays (4 B per entity of counts,
/// 12 B under ARCS; [`ScorerScratch`]), the probe tokenizer's key
/// and lookup scratch, and the probe's token ids and routes. A connection
/// handler takes it back ([`QueryEngine::into_scratch`]) when its
/// generation is replaced and builds the next engine over it
/// ([`QueryEngine::with_scratch`]), so a re-pin after every acknowledged
/// write allocates and zeroes nothing. The default is empty.
#[derive(Debug, Default)]
pub struct EngineScratch {
    scorer: ScorerScratch,
    tokens: TokenScratch,
    probe_ids: Vec<u32>,
    probe_blocks: Vec<u32>,
}

/// The worker-thread count a batch sweep runs on: `0` (auto) resolves to
/// `ceiling`, and no request gets more than `ceiling`.
pub(crate) fn batch_threads(requested: usize, ceiling: usize) -> usize {
    match requested {
        0 => ceiling,
        n => n.min(ceiling),
    }
}

impl<'s> QueryEngine<'s> {
    /// Builds an engine over a loaded view using the snapshot's configured
    /// weighting scheme. Every array stays borrowed from the view.
    pub fn from_view(view: &'s SnapshotView) -> Self {
        Self::assemble(view, view.snapshot().config().weighting, None, EngineScratch::default())
    }

    /// Builds an engine over a pinned serving generation — the server's
    /// per-connection path.
    ///
    /// Everything heavy is *borrowed*: the view's arrays and token routes,
    /// and the delta overlay — when the generation carries one — which
    /// patches block and list reads through the store and routes probe
    /// tokens onto overlay-born blocks. What is left to allocate is the scan
    /// scratch, zeroed on the first query: 4 B per entity under CBS, ECBS,
    /// JS and EJS, 12 B under ARCS — which [`QueryEngine::with_scratch`]
    /// takes from the previous engine instead.
    pub fn from_generation(generation: &'s Generation) -> Self {
        Self::with_scratch(generation, EngineScratch::default())
    }

    /// [`QueryEngine::from_generation`] over the buffers of an engine that
    /// was pinned to an earlier generation ([`QueryEngine::into_scratch`]).
    /// Answers are bit-identical to a cold engine's; what is saved is the
    /// allocation and zeroing of 4 B × `|E|` of scan scratch per re-pin
    /// (12 B under ARCS).
    pub fn with_scratch(generation: &'s Generation, scratch: EngineScratch) -> Self {
        let view = generation.view();
        Self::assemble(view, view.snapshot().config().weighting, generation.overlay(), scratch)
    }

    /// Builds an engine over a pinned serving generation, scoring with an
    /// explicit `scheme` instead of the snapshot's configured weighting.
    pub fn generation_with_scheme(generation: &'s Generation, scheme: WeightingScheme) -> Self {
        Self::assemble(generation.view(), scheme, generation.overlay(), EngineScratch::default())
    }

    fn assemble(
        view: &'s SnapshotView,
        scheme: WeightingScheme,
        overlay: Option<&'s DeltaOverlay>,
        scratch: EngineScratch,
    ) -> Self {
        let store = EngineStore::from_view(view);
        let store = match overlay {
            Some(o) => store.with_overlay(o),
            None => store,
        };
        let EngineScratch { scorer, tokens, probe_ids, probe_blocks } = scratch;
        let scorer = NeighborhoodScorer::with_scratch(store, scheme, scorer);
        QueryEngine { scorer, view, tokens, probe_ids, probe_blocks }
    }

    /// Gives every buffer back for the next engine to reuse.
    pub fn into_scratch(self) -> EngineScratch {
        EngineScratch {
            scorer: self.scorer.into_scratch(),
            tokens: self.tokens,
            probe_ids: self.probe_ids,
            probe_blocks: self.probe_blocks,
        }
    }

    /// The weighting scheme queries are scored with.
    pub fn scheme(&self) -> WeightingScheme {
        self.scorer.scheme()
    }

    /// `|E|` of the underlying snapshot.
    pub fn num_entities(&self) -> usize {
        self.scorer.store().num_entities()
    }

    /// The retention rule matching the snapshot's configured pruning scheme:
    /// cardinality-based schemes keep the persisted CNP top-`k` per node,
    /// weight-based schemes keep neighbors at or above the neighborhood
    /// mean.
    pub fn default_retention(&self) -> Retention {
        let snapshot = self.view.snapshot();
        match snapshot.config().pruning {
            PruningScheme::Cep
            | PruningScheme::Cnp
            | PruningScheme::RedefinedCnp
            | PruningScheme::ReciprocalCnp => Retention::TopK(snapshot.cnp_threshold()),
            PruningScheme::Wep
            | PruningScheme::Wnp
            | PruningScheme::RedefinedWnp
            | PruningScheme::ReciprocalWnp => Retention::AboveMean,
        }
    }

    /// Executes one typed [`CandidateRequest`] — the single entry point the
    /// in-process API, the CLI, and the wire protocol all funnel through.
    ///
    /// A request without an explicit retention resolves to
    /// [`QueryEngine::default_retention`]. Hostile input cannot abort: an
    /// out-of-range entity id returns [`ServeError::EntityOutOfRange`].
    pub fn execute(
        &mut self,
        request: &CandidateRequest,
        obs: &mut dyn Observer,
    ) -> Result<CandidateResponse, ServeError> {
        let retention = match request.retention() {
            Some(r) => r,
            None => self.default_retention(),
        };
        let mut scope = StageScope::enter(obs, Stage::Query);
        scope.add(Counter::RequestsServed, 1);
        let results = match request.target() {
            CandidateTarget::Entity(pivot) => {
                if (pivot.0 as usize) >= self.num_entities() {
                    scope.finish();
                    return Err(ServeError::EntityOutOfRange {
                        id: pivot.0,
                        entities: self.num_entities() as u64,
                    });
                }
                vec![self.run_query(*pivot, retention, &mut scope)]
            }
            CandidateTarget::Probe { profile, is_first } => {
                vec![self.run_probe(profile, *is_first, retention, &mut scope)]
            }
            CandidateTarget::Batch => self.run_batch(retention, request.threads(), &mut scope),
        };
        scope.finish();
        Ok(CandidateResponse { results, retention, scheme: self.scheme(), generation: 0 })
    }

    fn run_query(
        &mut self,
        pivot: EntityId,
        retention: Retention,
        scope: &mut StageScope<'_>,
    ) -> Scored {
        let scored = self.scorer.query(pivot, retention);
        scope.add(Counter::BlocksTouched, scored.blocks_touched);
        scope.add(Counter::EdgesScored, scored.edges_scored);
        scored
    }

    fn run_probe(
        &mut self,
        profile: &EntityProfile,
        probe_is_first: bool,
        retention: Retention,
        scope: &mut StageScope<'_>,
    ) -> Scored {
        let overlay = self.scorer.store().overlay();
        let TokenScratch { keys, ids: found, aside: misses } = &mut self.tokens;
        keys.fill_tokens(profile);
        self.view.find_tokens(keys, found);
        self.probe_ids.clear();
        misses.clear();
        for (index, &id) in found.iter().enumerate() {
            match id {
                Some(id) => self.probe_ids.push(id),
                None => misses.push(index),
            }
        }
        // Each distinct token once: a repeat would route its block twice.
        // Ids stand for tokens one to one, so base tokens dedup as ids; only
        // the keys the base vocabulary lacks are compared as bytes.
        self.probe_ids.sort_unstable();
        self.probe_ids.dedup();
        distinct_by_bytes(keys, misses);
        let tokens_probed = (self.probe_ids.len() + misses.len()) as u64;
        // The overlay's extension holds tokens only delta profiles have
        // introduced; their ids lie past the base vocabulary's.
        if let Some(o) = overlay {
            self.probe_ids
                .extend(misses.iter().filter_map(|&index| o.new_token_id(keys.get(index))));
        }
        self.probe_blocks.clear();
        for &id in &self.probe_ids {
            // A promoted overlay block outranks the base route: the overlay
            // only routes tokens whose base block was dropped.
            let route = match overlay.and_then(|o| o.token_route(id)) {
                Some(block) => Some(block),
                None => self.view.token_block(id),
            };
            if let Some(block) = route {
                self.probe_blocks.push(block);
            }
        }
        // Block Filtering reorders survivors, so route hits back into
        // ascending block order for a deterministic scan.
        self.probe_blocks.sort_unstable();
        let scored = self.scorer.probe(&self.probe_blocks, probe_is_first, retention);
        scope.add(Counter::TokensProbed, tokens_probed);
        scope.add(Counter::BlocksTouched, scored.blocks_touched);
        scope.add(Counter::EdgesScored, scored.edges_scored);
        scored
    }

    fn run_batch(
        &self,
        retention: Retention,
        threads: usize,
        scope: &mut StageScope<'_>,
    ) -> Vec<Scored> {
        // Only `0` resolves here: an in-process caller's explicit count is
        // its own ceiling (the server clamps what arrives off the wire).
        let threads = batch_threads(threads, host_threads().max(threads));
        let scored = self.scorer.batch(retention, threads);
        let (mut blocks_touched, mut edges_scored) = (0u64, 0u64);
        for s in &scored {
            blocks_touched += s.blocks_touched;
            edges_scored += s.edges_scored;
        }
        scope.add(Counter::BlocksTouched, blocks_touched);
        scope.add(Counter::EdgesScored, edges_scored);
        scored
    }

    /// The ER task kind of the underlying snapshot.
    pub fn kind(&self) -> ErKind {
        self.scorer.store().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaOp, APPEND};
    use crate::generation::GenerationCell;
    use crate::snapshot::Snapshot;
    use er_model::EntityCollection;
    use mb_core::PipelineConfig;
    use mb_observe::RunReport;

    #[test]
    fn a_probe_counts_and_routes_each_distinct_token_once() {
        let base = EntityCollection::dirty(vec![
            EntityProfile::new("p0").with("name", "jack miller"),
            EntityProfile::new("p1").with("name", "jack miller lloyd"),
            EntityProfile::new("p2").with("name", "erick lloyd"),
        ]);
        let cell = GenerationCell::new(Snapshot::build(&base, PipelineConfig::default()).unwrap())
            .unwrap();
        // "quartz" joins the overlay's extension and is promoted to an
        // overlay block by its second profile; "topaz" joins it and waits.
        for text in ["quartz erick", "quartz topaz"] {
            let profile = EntityProfile::new(text).with("v", text);
            cell.apply(DeltaOp::Upsert { id: APPEND, profile }, &mut mb_observe::Noop).unwrap();
        }
        let generation = cell.load();
        let mut engine = QueryEngine::from_generation(&generation);
        let mut probe = |text: &str| {
            let mut report = RunReport::new("probe");
            let request = CandidateRequest::probe(EntityProfile::new("q").with("v", text), false)
                .with_retention(Retention::TopK(usize::MAX));
            let response = engine.execute(&request, &mut report).unwrap();
            (response.results, report.counter_total(Counter::TokensProbed))
        };
        // Repeated base tokens, repeated unseen tokens, a routed and an
        // unrouted extension token, in no order.
        let (scored, tokens) =
            probe("Quartz jack zebra MILLER jack topaz zebra quartz miller opal JACK");
        // The rule it is held to: the distinct tokens, byte-sorted, each once.
        let (once, distinct) = probe("jack miller opal quartz topaz zebra");
        assert_eq!((tokens, distinct), (6, 6));
        assert_eq!(scored, once);
        let ids: Vec<u32> = scored[0].candidates.iter().map(|c| c.id.0).collect();
        assert!(ids.contains(&0) && ids.contains(&3) && ids.contains(&4), "{ids:?}");
    }

    #[test]
    fn batch_threads_resolve_auto_and_stop_at_the_ceiling() {
        assert_eq!(batch_threads(0, 4), 4, "0 fans out");
        assert_eq!(batch_threads(u32::MAX as usize, 4), 4);
        assert_eq!(batch_threads(1, 4), 1);
        assert_eq!(batch_threads(4, 4), 4);
    }
}
