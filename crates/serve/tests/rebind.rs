//! The buffers a [`QueryEngine`] carries from one generation to the next
//! ([`QueryEngine::into_scratch`] → [`QueryEngine::with_scratch`]) must not
//! show in its answers. A seeded op program — appends that grow `|E|`,
//! in-place replaces, deletes, a swap to a smaller snapshot and back to a
//! larger one — runs against a [`GenerationCell`]; after every step an
//! engine built over the previous engine's scratch and a cold
//! [`QueryEngine::from_generation`] answer every entity query and 64 probes,
//! and the two sets of wire bytes must be equal.

use er_datagen::presets;
use er_datagen::rng::SmallRng;
use er_model::{EntityCollection, EntityId, EntityProfile, ErKind};
use mb_core::{Noop, PipelineConfig, PruningScheme, WeightingScheme};
use mb_serve::protocol::response_bytes;
use mb_serve::{
    CandidateRequest, DeltaOp, EngineScratch, GenerationCell, QueryEngine, Snapshot, APPEND,
};

const PROBES: usize = 64;
const STEPS: usize = 36;

fn tiny(kind: ErKind, seed: u64) -> EntityCollection {
    let built = presets::build(&presets::tiny(seed)).unwrap();
    match kind {
        ErKind::Dirty => built.into_dirty().collection,
        ErKind::CleanClean => built.collection,
    }
}

/// The first half of each side of `full`, as a collection of the same kind.
fn smaller(full: &EntityCollection) -> EntityCollection {
    let (e1, e2) = full.profiles().split_at(full.split());
    match full.kind() {
        ErKind::Dirty => EntityCollection::dirty(e1[..e1.len() / 2].to_vec()),
        ErKind::CleanClean => {
            EntityCollection::clean_clean(e1[..e1.len() / 2].to_vec(), e2[..e2.len() / 2].to_vec())
        }
    }
}

/// `donor`'s attributes under a URI of their own.
fn recycled(donor: &EntityProfile, uri: String) -> EntityProfile {
    let mut profile = EntityProfile::new(uri);
    for a in donor.attributes() {
        profile.add(a.name, a.value);
    }
    profile
}

/// Every entity query and every probe, answered as wire bytes (an error as
/// its text, so the two engines must also fail alike).
fn answers(engine: &mut QueryEngine<'_>, probes: &[CandidateRequest]) -> Vec<Vec<u8>> {
    let entities =
        (0..engine.num_entities() as u32).map(|id| CandidateRequest::entity(EntityId(id)));
    let requests: Vec<CandidateRequest> = entities.chain(probes.iter().cloned()).collect();
    requests
        .iter()
        .map(|request| match engine.execute(request, &mut Noop) {
            Ok(response) => response_bytes(&response),
            Err(e) => e.to_string().into_bytes(),
        })
        .collect()
}

fn run_program(kind: ErKind, weighting: WeightingScheme, pruning: PruningScheme, seed: u64) {
    let config =
        PipelineConfig { weighting, pruning, filter_ratio: Some(0.8), ..PipelineConfig::default() };
    let full = tiny(kind, seed);
    let half = smaller(&full);
    // Probes over the same vocabulary from a second seed: most tokens route
    // to indexed blocks, some are unseen.
    let pool = tiny(kind, seed ^ 0x5EED_0002);
    let probes: Vec<CandidateRequest> = pool
        .profiles()
        .iter()
        .rev()
        .take(PROBES)
        .map(|p| CandidateRequest::probe(p.clone(), false))
        .collect();
    assert_eq!(probes.len(), PROBES);

    let cell = GenerationCell::new(Snapshot::build(&full, config).unwrap()).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scratch = EngineScratch::default();
    let mut sizes = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        let what = if step == STEPS / 3 {
            cell.swap(Snapshot::build(&half, config).unwrap()).unwrap();
            "swap to the smaller snapshot".to_owned()
        } else if step == 2 * STEPS / 3 {
            cell.swap(Snapshot::build(&full, config).unwrap()).unwrap();
            "swap back to the larger snapshot".to_owned()
        } else {
            let entities = cell.load().num_entities() as u64;
            let donor = full.profile(EntityId(rng.gen_below(full.len() as u64) as u32));
            let op = match rng.gen_below(10) {
                0..=3 => {
                    DeltaOp::Upsert { id: APPEND, profile: recycled(donor, format!("a{step}")) }
                }
                4..=6 => DeltaOp::Upsert {
                    id: rng.gen_below(entities) as u32,
                    profile: recycled(donor, format!("r{step}")),
                },
                _ => DeltaOp::Delete { id: rng.gen_below(entities) as u32 },
            };
            let what = format!("{op:?}");
            // A refused op (a second delete of one id, a replace of a
            // tombstone) leaves the generation as it was; still a step.
            let _ = cell.apply(op, &mut Noop);
            what
        };
        let generation = cell.load();
        sizes.push(generation.num_entities());
        let mut warm = QueryEngine::with_scratch(&generation, scratch);
        let mut cold = QueryEngine::from_generation(&generation);
        assert_eq!(
            answers(&mut warm, &probes),
            answers(&mut cold, &probes),
            "{kind:?} {weighting:?}+{pruning:?} seed {seed}: step {step} ({what}) — the engine \
             over a carried scratch answers differently from a cold one"
        );
        scratch = warm.into_scratch();
    }
    // The program did what the scratch has to survive: |E| grew past the
    // base, fell below it, and came back.
    let (base, low, high) = (full.len(), sizes.iter().min(), sizes.iter().max());
    assert!(high > Some(&base) && low < Some(&base), "{sizes:?}");
    assert!(sizes[STEPS - 1] >= base, "{sizes:?}");
}

#[test]
fn carried_scratch_answers_like_a_cold_engine_on_dirty_tiny() {
    run_program(ErKind::Dirty, WeightingScheme::Js, PruningScheme::Cnp, 46);
    run_program(ErKind::Dirty, WeightingScheme::Arcs, PruningScheme::ReciprocalWnp, 47);
    run_program(ErKind::Dirty, WeightingScheme::Ejs, PruningScheme::Wnp, 48);
}

#[test]
fn carried_scratch_answers_like_a_cold_engine_on_clean_clean_tiny() {
    run_program(ErKind::CleanClean, WeightingScheme::Js, PruningScheme::Cnp, 46);
    run_program(ErKind::CleanClean, WeightingScheme::Arcs, PruningScheme::ReciprocalWnp, 47);
    run_program(ErKind::CleanClean, WeightingScheme::Ejs, PruningScheme::Wnp, 48);
}
