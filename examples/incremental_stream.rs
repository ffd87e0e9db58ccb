//! Incremental ER: resolving a stream of arriving profiles — the future
//! work the paper's conclusion announces — on the same path `er serve`
//! runs.
//!
//! Instead of blocking a complete collection, profiles arrive one at a
//! time (a crawler, a message queue) and each arrival asks: which of the
//! already-seen profiles should I be compared with *right now*? The stream
//! starts from a snapshot of nothing; every arrival is an append to the
//! live generation, queryable the moment it is applied, and the newcomer's
//! top-k weighted neighbors are its comparisons. Replaces, deletes, a
//! persisted op log and compaction into the exact batch snapshot come with
//! the path (DESIGN.md §13, "Streaming from nothing").
//!
//! ```text
//! cargo run --release --example incremental_stream
//! ```

use enhanced_metablocking::datagen::presets;
use enhanced_metablocking::metablocking::{PipelineConfig, Retention, WeightingScheme};
use enhanced_metablocking::model::{EntityCollection, EntityId};
use enhanced_metablocking::observe::Noop;
use enhanced_metablocking::serve::{
    CandidateRequest, DeltaOp, EngineScratch, GenerationCell, QueryEngine, Snapshot, APPEND,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = presets::build(&presets::tiny(5))?.into_dirty();
    let total_duplicates = dataset.ground_truth.len();
    println!(
        "streaming {} profiles; {} duplicate pairs hidden in the stream\n",
        dataset.collection.len(),
        total_duplicates
    );

    let config = PipelineConfig { weighting: WeightingScheme::Js, ..PipelineConfig::default() };
    let nothing = EntityCollection::dirty(Vec::new());
    let cell = GenerationCell::new(Snapshot::build(&nothing, config)?)?;
    let mut scratch = EngineScratch::default();

    let mut emitted = 0u64;
    let mut found = 0usize;
    let mut checkpoints = vec![];
    for (n, (_, profile)) in dataset.collection.iter().enumerate() {
        let arrival = DeltaOp::Upsert { id: APPEND, profile: profile.clone() };
        let id = EntityId(cell.apply(arrival, &mut Noop)?.id);
        let generation = cell.load();
        let mut engine = QueryEngine::with_scratch(&generation, scratch);
        let request = CandidateRequest::entity(id).with_retention(Retention::TopK(5));
        let response = engine.execute(&request, &mut Noop)?;
        for candidate in response.results.iter().flat_map(|scored| &scored.candidates) {
            emitted += 1;
            if dataset.ground_truth.are_duplicates(candidate.id, id) {
                found += 1;
            }
        }
        scratch = engine.into_scratch();
        if (n + 1) % 100 == 0 || n + 1 == dataset.collection.len() {
            checkpoints.push((n + 1, emitted, found));
        }
    }

    println!("  arrived  comparisons  duplicates found");
    for (n, cmp, dup) in checkpoints {
        println!("  {n:>7}  {cmp:>11}  {dup:>9} / {total_duplicates}");
    }
    println!(
        "\nfinal: recall {:.3} with {:.1} comparisons per arrival — each profile is\n\
         resolved the moment it arrives, no batch re-run needed.",
        found as f64 / total_duplicates as f64,
        emitted as f64 / dataset.collection.len() as f64
    );
    Ok(())
}
