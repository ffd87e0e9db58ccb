//! Online/batch equivalence: for every entity of a Dirty and a Clean-Clean
//! fixture, under every weighting scheme, the [`QueryEngine`]'s retained
//! candidates must equal the batch node-centric pruning schemes' retained
//! neighbors for that node — same thresholds, same `WeightedEdge` total
//! order — and the batch API must be bit-identical across thread counts.

use er_datagen::presets;
use er_model::{EntityId, ErKind};
use mb_core::parallel::Sweep;
use mb_core::prune::{cnp, wnp};
use mb_core::weights::EdgeWeigher;
use mb_core::{
    GraphContext, Noop, PipelineConfig, Retention, Scored, WeightingImpl, WeightingScheme,
};
use mb_serve::{CandidateRequest, GenerationCell, QueryEngine, Snapshot, SnapshotView};
use std::collections::BTreeMap;

const SCHEMES: [WeightingScheme; 5] = [
    WeightingScheme::Arcs,
    WeightingScheme::Cbs,
    WeightingScheme::Ecbs,
    WeightingScheme::Js,
    WeightingScheme::Ejs,
];

fn dirty_snapshot() -> Snapshot {
    let collection = presets::build(&presets::tiny(42)).unwrap().into_dirty().collection;
    let config = PipelineConfig { filter_ratio: Some(0.8), ..PipelineConfig::default() };
    Snapshot::build(&collection, config).unwrap()
}

fn cc_snapshot() -> Snapshot {
    let collection = presets::build(&presets::tiny(43)).unwrap().collection;
    let config = PipelineConfig { filter_ratio: Some(0.8), ..PipelineConfig::default() };
    Snapshot::build(&collection, config).unwrap()
}

/// The batch scheme's retained neighbors per pivot, as sorted id lists.
fn batch_retained(
    snapshot: &Snapshot,
    scheme: WeightingScheme,
    prune: impl Fn(&GraphContext<'_>, &EdgeWeigher<'_, '_>, &mut dyn FnMut(EntityId, EntityId)),
) -> Vec<Vec<u32>> {
    let ctx = GraphContext::new(snapshot.blocks(), snapshot.split());
    let weigher = EdgeWeigher::new(scheme, &ctx);
    let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); snapshot.num_entities()];
    prune(&ctx, &weigher, &mut |pivot, j| per_node[pivot.idx()].push(j.0));
    for neighbors in &mut per_node {
        neighbors.sort_unstable();
    }
    per_node
}

fn sorted_ids(scored: &Scored) -> Vec<u32> {
    let mut ids: Vec<u32> = scored.candidates.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    ids
}

/// Executes a typed request and returns its results.
fn run(engine: &mut QueryEngine<'_>, request: CandidateRequest) -> Vec<Scored> {
    engine.execute(&request, &mut Noop).unwrap().results
}

/// Executes a single-pivot request (entity or probe) and unwraps its one
/// result.
fn run_one(engine: &mut QueryEngine<'_>, request: CandidateRequest) -> Scored {
    let mut results = run(engine, request);
    assert_eq!(results.len(), 1);
    results.remove(0)
}

fn load(snapshot: &Snapshot) -> SnapshotView {
    SnapshotView::from_bytes(snapshot.to_bytes()).unwrap()
}

/// The loaded snapshot as generation 1 of a serving cell — what
/// [`QueryEngine::generation_with_scheme`] pins.
fn serve(snapshot: &Snapshot) -> GenerationCell {
    GenerationCell::new(load(snapshot)).unwrap()
}

fn assert_engine_matches_batch(snapshot: &Snapshot, label: &str) {
    let generation = serve(snapshot).load();
    for scheme in SCHEMES {
        let mut engine = QueryEngine::generation_with_scheme(&generation, scheme);

        let by_cnp = batch_retained(snapshot, scheme, |ctx, weigher, sink| {
            cnp(&Sweep::new(ctx, weigher, WeightingImpl::Optimized, 1), &mut Noop, sink)
        });
        let top_k = Retention::TopK(snapshot.cnp_threshold());
        for pivot in 0..snapshot.num_entities() {
            let scored = run_one(
                &mut engine,
                CandidateRequest::entity(EntityId(pivot as u32)).with_retention(top_k),
            );
            assert_eq!(
                sorted_ids(&scored),
                by_cnp[pivot],
                "{label}/{scheme:?}: CNP mismatch at entity {pivot}"
            );
        }

        let by_wnp = batch_retained(snapshot, scheme, |ctx, weigher, sink| {
            wnp(&Sweep::new(ctx, weigher, WeightingImpl::Optimized, 1), &mut Noop, sink)
        });
        for pivot in 0..snapshot.num_entities() {
            let scored = run_one(
                &mut engine,
                CandidateRequest::entity(EntityId(pivot as u32))
                    .with_retention(Retention::AboveMean),
            );
            assert_eq!(
                sorted_ids(&scored),
                by_wnp[pivot],
                "{label}/{scheme:?}: WNP mismatch at entity {pivot}"
            );
        }
    }
}

#[test]
fn query_matches_batch_pruning_on_the_dirty_fixture() {
    assert_engine_matches_batch(&dirty_snapshot(), "dirty");
}

#[test]
fn query_matches_batch_pruning_on_the_clean_clean_fixture() {
    assert_engine_matches_batch(&cc_snapshot(), "clean-clean");
}

#[test]
fn batch_is_identical_across_thread_counts_and_to_single_queries() {
    for (label, snapshot) in [("dirty", dirty_snapshot()), ("clean-clean", cc_snapshot())] {
        let generation = serve(&snapshot).load();
        for scheme in [WeightingScheme::Js, WeightingScheme::Ejs] {
            let mut engine = QueryEngine::generation_with_scheme(&generation, scheme);
            let retention = Retention::TopK(snapshot.cnp_threshold());
            let singles: Vec<Scored> = (0..snapshot.num_entities())
                .map(|pivot| {
                    run_one(
                        &mut engine,
                        CandidateRequest::entity(EntityId(pivot as u32)).with_retention(retention),
                    )
                })
                .collect();
            let baseline = run(&mut engine, CandidateRequest::batch().with_retention(retention));
            assert_eq!(baseline, singles, "{label}/{scheme:?}: batch(1) != single queries");
            for threads in [2, 4] {
                assert_eq!(
                    run(
                        &mut engine,
                        CandidateRequest::batch().with_retention(retention).with_threads(threads)
                    ),
                    baseline,
                    "{label}/{scheme:?}: batch({threads}) diverged"
                );
            }
        }
    }
}

/// Neighbor → weight bits of one answer.
fn weight_bits(scored: &Scored) -> BTreeMap<u32, u64> {
    scored.candidates.iter().map(|c| (c.id.0, c.weight.to_bits())).collect()
}

#[test]
fn probing_an_indexed_entitys_profile_weighs_its_neighbors_as_the_query_does() {
    // Unfiltered, an entity's tokens route to exactly the blocks it sits in,
    // so a probe carrying its profile is the same pivot but for the id: it
    // must give every neighbor the weight query() gives it, bit for bit. On
    // Dirty ER the probe also finds the entity itself (it co-occurs with its
    // own blocks at full strength) — one neighbor more, so its EJS degree
    // differs and EJS is left out there. A Clean-Clean probe only sees the
    // other side, where the degrees agree too.
    let clean = presets::build(&presets::tiny(44)).unwrap().collection;
    for collection in [clean.clone().into_dirty(), clean] {
        let dirty = collection.kind() == ErKind::Dirty;
        let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
        let generation = serve(&snapshot).load();
        let keep_all = Retention::TopK(usize::MAX);
        for scheme in SCHEMES {
            if dirty && scheme == WeightingScheme::Ejs {
                continue;
            }
            let mut engine = QueryEngine::generation_with_scheme(&generation, scheme);
            for (id, profile) in collection.iter() {
                let label = format!("{:?}/{scheme:?}: entity {}", collection.kind(), id.0);
                let queried =
                    run_one(&mut engine, CandidateRequest::entity(id).with_retention(keep_all));
                let is_first = !collection.is_second(id);
                let probed = run_one(
                    &mut engine,
                    CandidateRequest::probe(profile.clone(), is_first).with_retention(keep_all),
                );
                let mut got = weight_bits(&probed);
                let found_itself = got.remove(&id.0).is_some();
                assert_eq!(found_itself, dirty && queried.blocks_touched > 0, "{label}");
                assert_eq!(got, weight_bits(&queried), "{label}");
                assert_eq!(probed.blocks_touched, queried.blocks_touched, "{label}");
            }
        }
    }
}

#[test]
fn default_retention_follows_the_configured_pruning_scheme() {
    let collection = presets::build(&presets::tiny(45)).unwrap().into_dirty().collection;
    let cardinality = Snapshot::build(
        &collection,
        PipelineConfig { pruning: mb_core::PruningScheme::Cnp, ..PipelineConfig::default() },
    )
    .unwrap();
    let view = load(&cardinality);
    let engine = QueryEngine::from_view(&view);
    assert_eq!(engine.default_retention(), Retention::TopK(cardinality.cnp_threshold()));

    let weighted = load(&Snapshot::build(&collection, PipelineConfig::default()).unwrap());
    let engine = QueryEngine::from_view(&weighted);
    assert_eq!(engine.default_retention(), Retention::AboveMean);
}

#[test]
fn default_retention_matches_an_explicit_request() {
    // A request without an explicit retention must resolve to the engine
    // default — the contract the removed positional entry points used to
    // pin down.
    let view = load(&dirty_snapshot());
    let mut engine = QueryEngine::from_view(&view);
    let retention = engine.default_retention();
    let implicit = run_one(&mut engine, CandidateRequest::entity(EntityId(0)));
    let explicit =
        run_one(&mut engine, CandidateRequest::entity(EntityId(0)).with_retention(retention));
    assert_eq!(implicit, explicit);

    let implicit_batch = run(&mut engine, CandidateRequest::batch().with_threads(2));
    let explicit_batch =
        run(&mut engine, CandidateRequest::batch().with_retention(retention).with_threads(2));
    assert_eq!(implicit_batch, explicit_batch);
}
