//! Incremental ER — the regime the paper's conclusion announces — on the
//! path that serves it: arrivals are appended to a live [`GenerationCell`]
//! that started from an *empty* snapshot, and each newcomer asks the
//! [`QueryEngine`] for its top-`k` neighbors, exactly the calls a served
//! connection makes. There is no second streaming implementation to test.

use er_datagen::presets;
use er_model::{EntityCollection, EntityId};
use mb_core::{Noop, PipelineConfig, Retention, WeightingScheme};
use mb_serve::{
    merge_ops, CandidateRequest, DeltaOp, EngineScratch, GenerationCell, QueryEngine, Snapshot,
    SnapshotView, APPEND,
};

fn config(scheme: WeightingScheme) -> PipelineConfig {
    PipelineConfig { weighting: scheme, ..PipelineConfig::default() }
}

/// A cell serving nothing yet. From here every token an arrival carries
/// passes through the overlay's pending postings, so no block the batch
/// build would make is missed (a bulk-loaded base has already dropped its
/// singleton tokens; `serve/tests/delta.rs` names that gap).
fn empty_cell(scheme: WeightingScheme) -> GenerationCell {
    let nothing = EntityCollection::dirty(Vec::new());
    GenerationCell::new(Snapshot::build(&nothing, config(scheme)).unwrap()).unwrap()
}

/// Streams `collection` profile by profile and returns the comparisons
/// emitted, `(earlier arrival, newcomer)`: each pair is reported when its
/// second member arrives, so the stream is duplicate-free by construction.
fn stream(
    collection: &EntityCollection,
    scheme: WeightingScheme,
    k: usize,
) -> Vec<(EntityId, EntityId)> {
    let cell = empty_cell(scheme);
    let mut scratch = EngineScratch::default();
    let mut emitted = Vec::new();
    for (_, profile) in collection.iter() {
        let op = DeltaOp::Upsert { id: APPEND, profile: profile.clone() };
        let id = EntityId(cell.apply(op, &mut Noop).unwrap().id);
        let generation = cell.load();
        let mut engine = QueryEngine::with_scratch(&generation, scratch);
        let request = CandidateRequest::entity(id).with_retention(Retention::TopK(k));
        let response = engine.execute(&request, &mut Noop).unwrap();
        emitted.extend(response.first().unwrap().candidates.iter().map(|c| (c.id, id)));
        scratch = engine.into_scratch();
    }
    emitted
}

#[test]
fn streaming_a_dirty_dataset_finds_most_duplicates() {
    // Stream a small dirty dataset profile-by-profile. Duplicates are
    // ground-truth pairs (i, n1+i): when the second member arrives, its
    // partner is already indexed and must surface among the top-k.
    let dataset = presets::build(&presets::tiny(21)).unwrap().into_dirty();
    let pairs = stream(&dataset.collection, WeightingScheme::Js, 5);
    let emitted = pairs.len();
    let found = pairs.iter().filter(|(a, b)| dataset.ground_truth.are_duplicates(*a, *b)).count();
    let recall = found as f64 / dataset.ground_truth.len() as f64;
    let precision = found as f64 / emitted as f64;
    // The streaming pipeline keeps the efficiency-intensive profile: high
    // recall at precision far above the raw blocks'.
    assert!(recall > 0.85, "recall={recall}");
    assert!(precision > 0.05, "precision={precision}");
    // And it emits far fewer comparisons than blocked batch processing
    // would (the tiny dataset's token blocks entail tens of thousands).
    assert!(emitted < 5_000, "emitted={emitted}");
    assert!(pairs.iter().all(|(a, b)| a < b), "a pair is reported by its later member");
}

#[test]
fn arrival_order_does_not_break_determinism() {
    let dataset = presets::build(&presets::tiny(22)).unwrap().into_dirty();
    let run = || stream(&dataset.collection, WeightingScheme::Js, 5);
    assert_eq!(run(), run());
}

#[test]
fn cbs_vs_js_schemes_both_work_incrementally() {
    // EJS included: its degrees are re-derived from the live overlay on
    // every re-pin, so it needs no whole collection up front.
    let dataset = presets::build(&presets::tiny(23)).unwrap().into_dirty();
    for scheme in WeightingScheme::ALL {
        let found = stream(&dataset.collection, scheme, 3)
            .iter()
            .filter(|(a, b)| dataset.ground_truth.are_duplicates(*a, *b))
            .count();
        let recall = found as f64 / dataset.ground_truth.len() as f64;
        assert!(recall > 0.7, "{}: recall={recall}", scheme.name());
    }
}

#[test]
fn a_collection_streamed_from_nothing_is_the_batch_build() {
    let dataset = presets::build(&presets::tiny(21)).unwrap().into_dirty();
    for scheme in WeightingScheme::ALL {
        let cell = empty_cell(scheme);
        for (_, profile) in dataset.collection.iter() {
            cell.apply(DeltaOp::Upsert { id: APPEND, profile: profile.clone() }, &mut Noop)
                .unwrap();
        }
        let streamed = cell.load();
        assert_eq!(streamed.num_entities(), dataset.collection.len());
        let batch = Snapshot::build(&dataset.collection, config(scheme)).unwrap();

        // Compaction folds the op log into exactly the batch snapshot.
        let mut replayed = EntityCollection::dirty(Vec::new());
        merge_ops(&mut replayed, &streamed.overlay().unwrap().ops()).unwrap();
        let compacted = Snapshot::build(&replayed, config(scheme)).unwrap();
        assert!(compacted.to_bytes() == batch.to_bytes(), "{scheme:?}: compaction bytes differ");

        // Before compaction the live overlay already answers as the batch
        // index does: the same neighbors for every entity, and the same
        // ranking and weights bit for bit. ARCS alone is exact as a set
        // only: overlay-born blocks are numbered in promotion order, so its
        // sum of reciprocal cardinalities is taken in another order and the
        // last bits of a weight can differ.
        let batch = SnapshotView::try_from(batch).unwrap();
        let mut live = QueryEngine::from_generation(&streamed);
        let mut rebuilt = QueryEngine::from_view(&batch);
        for id in 0..dataset.collection.len() as u32 {
            let request =
                CandidateRequest::entity(EntityId(id)).with_retention(Retention::TopK(usize::MAX));
            let mut ranked = [&mut live, &mut rebuilt].map(|engine| {
                let response = engine.execute(&request, &mut Noop).unwrap();
                let candidates = &response.first().unwrap().candidates;
                candidates.iter().map(|c| (c.id.0, c.weight.to_bits())).collect::<Vec<_>>()
            });
            if scheme == WeightingScheme::Arcs {
                for list in &mut ranked {
                    list.iter_mut().for_each(|(_, weight)| *weight = 0);
                    list.sort_unstable();
                }
            }
            assert_eq!(ranked[0], ranked[1], "{scheme:?}: entity {id}");
        }
    }
}
