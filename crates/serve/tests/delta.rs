//! Incremental-delta correctness end to end: upserts and deletes applied
//! against a live [`GenerationCell`] must be queryable immediately, agree
//! with a from-scratch rebuild wherever the overlay's semantics promise
//! exact answers, persist through write-ahead delta runs, and fold back into a **bit-identical** clean arena under
//! compaction. A concurrency test pins generations from reader threads
//! while a writer streams upserts, proving no reader ever observes a
//! half-applied op; a seeded program of 2 500 ops proves a pinned generation
//! keeps its answers while its successors share and rewrite its tables.

use er_datagen::presets;
use er_datagen::rng::SmallRng;
use er_model::{EntityCollection, EntityId, EntityProfile, ErKind};
use mb_core::{Noop, PipelineConfig, PruningScheme, Retention, WeightingScheme};
use mb_serve::protocol::response_bytes;
use mb_serve::{
    append_delta_run, merge_ops, CandidateRequest, DeltaOp, Generation, GenerationCell,
    QueryEngine, Snapshot, SnapshotView, APPEND,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A Dirty fixture where every token appears in at least two profiles, so
/// the base snapshot persists a block for each — the regime where delta
/// answers are exact (no singleton-recall gap).
fn base_profiles() -> Vec<EntityProfile> {
    vec![
        EntityProfile::new("p0").with("name", "jack miller"),
        EntityProfile::new("p1").with("name", "jack miller lloyd"),
        EntityProfile::new("p2").with("name", "erick lloyd"),
        EntityProfile::new("p3").with("name", "erick stone"),
        EntityProfile::new("p4").with("name", "stone miller"),
    ]
}

fn base_snapshot(scheme: WeightingScheme) -> Snapshot {
    let collection = EntityCollection::dirty(base_profiles());
    let config = PipelineConfig { weighting: scheme, ..PipelineConfig::default() };
    Snapshot::build(&collection, config).unwrap()
}

/// Sorted candidate ids for `id`, retaining everything.
fn candidates_of(engine: &mut QueryEngine<'_>, id: u32) -> Vec<u32> {
    let request =
        CandidateRequest::entity(EntityId(id)).with_retention(Retention::TopK(usize::MAX));
    let response = engine.execute(&request, &mut Noop).unwrap();
    let mut ids: Vec<u32> = response.first().unwrap().candidates.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    ids
}

/// Sorted `(id, weight_bits)` pairs for `id` — the bit-exact comparison.
fn weighted_candidates_of(engine: &mut QueryEngine<'_>, id: u32) -> Vec<(u32, u64)> {
    let request =
        CandidateRequest::entity(EntityId(id)).with_retention(Retention::TopK(usize::MAX));
    let response = engine.execute(&request, &mut Noop).unwrap();
    let mut pairs: Vec<(u32, u64)> =
        response.first().unwrap().candidates.iter().map(|c| (c.id.0, c.weight.to_bits())).collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn upserts_and_deletes_are_queryable_immediately() {
    let cell = GenerationCell::new(base_snapshot(WeightingScheme::Cbs)).unwrap();

    // Append a profile sharing "jack" with {0, 1} and "stone" with {3, 4}.
    let applied = cell
        .apply(
            DeltaOp::Upsert {
                id: APPEND,
                profile: EntityProfile::new("p5").with("name", "jack stone"),
            },
            &mut Noop,
        )
        .unwrap();
    assert_eq!(applied.id, 5);

    let generation = cell.load();
    let mut engine = QueryEngine::from_generation(&generation);
    assert_eq!(candidates_of(&mut engine, 5), vec![0, 1, 3, 4]);
    // The append is visible from the other side too.
    assert!(candidates_of(&mut engine, 0).contains(&5));

    // Tombstone entity 1: it vanishes from every neighborhood and answers
    // nothing itself.
    cell.apply(DeltaOp::Delete { id: 1 }, &mut Noop).unwrap();
    let generation = cell.load();
    let mut engine = QueryEngine::from_generation(&generation);
    assert!(!candidates_of(&mut engine, 0).contains(&1));
    let request = CandidateRequest::entity(EntityId(1)).with_retention(Retention::TopK(usize::MAX));
    let response = engine.execute(&request, &mut Noop).unwrap();
    assert!(response.first().unwrap().candidates.is_empty());

    // In-place replace: entity 0 moves to fresh tokens, so it detaches from
    // the jack/miller neighborhoods entirely.
    cell.apply(
        DeltaOp::Upsert { id: 0, profile: EntityProfile::new("p0").with("name", "zzz yyy") },
        &mut Noop,
    )
    .unwrap();
    let generation = cell.load();
    let mut engine = QueryEngine::from_generation(&generation);
    assert!(!candidates_of(&mut engine, 5).contains(&0));
    assert!(candidates_of(&mut engine, 0).is_empty());
}

#[test]
fn a_replaced_or_deleted_entity_leaves_the_pending_postings_it_waited_in() {
    // "quartz" and "onyx" are in no base profile: a delta entity carrying
    // one waits alone in a pending posting until a second arrives.
    let cell = GenerationCell::new(base_snapshot(WeightingScheme::Cbs)).unwrap();
    let upsert = |id: u32, uri: &str, text: &str| {
        let profile = EntityProfile::new(uri).with("name", text);
        cell.apply(DeltaOp::Upsert { id, profile }, &mut Noop).unwrap().id
    };
    // Base entity 0, touched for the first time, starts waiting under
    // "quartz"; upserted again without it, it must stop waiting.
    upsert(0, "p0", "jack miller quartz");
    upsert(0, "p0", "jack miller");
    assert_eq!(upsert(APPEND, "p5", "quartz"), 5);
    {
        let generation = cell.load();
        let mut engine = QueryEngine::from_generation(&generation);
        assert!(candidates_of(&mut engine, 5).is_empty(), "5 met a profile that dropped quartz");
        assert_eq!(candidates_of(&mut engine, 0), [1, 4]);
    }
    // The posting itself is intact: the next carrier pairs up with 5.
    assert_eq!(upsert(APPEND, "p6", "quartz"), 6);
    // A delete sweeps the same way: 7 waits under "onyx", is tombstoned,
    // and 8 must not be paired with it.
    assert_eq!(upsert(APPEND, "p7", "onyx"), 7);
    cell.apply(DeltaOp::Delete { id: 7 }, &mut Noop).unwrap();
    assert_eq!(upsert(APPEND, "p8", "onyx"), 8);
    let generation = cell.load();
    let mut engine = QueryEngine::from_generation(&generation);
    assert_eq!(candidates_of(&mut engine, 6), [5]);
    assert_eq!(candidates_of(&mut engine, 5), [6]);
    assert!(candidates_of(&mut engine, 8).is_empty(), "8 met a tombstone");
}

#[test]
fn an_id_written_three_times_across_a_promotion_leaves_what_it_left_behind() {
    let cell = GenerationCell::new(base_snapshot(WeightingScheme::Cbs)).unwrap();
    let upsert = |id: u32, uri: &str, text: &str| {
        let profile = EntityProfile::new(uri).with("name", text);
        cell.apply(DeltaOp::Upsert { id, profile }, &mut Noop).unwrap().id
    };
    let neighbours = |id: u32| {
        let generation = cell.load();
        candidates_of(&mut QueryEngine::from_generation(&generation), id)
    };
    // First write: base entity 0 waits under "quartz". The append that
    // carries it too promotes the posting into a block of {0, 5}, so 0
    // stops waiting and holds the block in its list instead.
    upsert(0, "p0", "jack miller quartz");
    assert_eq!(upsert(APPEND, "p5", "quartz"), 5);
    assert_eq!(neighbours(5), [0]);
    assert_eq!(neighbours(0), [1, 4, 5]);
    // Second write, without the token: 0 leaves the promoted block through
    // its block list (it waits nowhere any more).
    upsert(0, "p0", "jack miller");
    assert!(neighbours(5).is_empty(), "5 met a profile that dropped quartz");
    assert_eq!(neighbours(0), [1, 4]);
    // Third write: back into the promoted block by its token route, and
    // waiting again, under "onyx" — which the next append promotes.
    upsert(0, "p0", "jack miller quartz onyx");
    assert_eq!(neighbours(5), [0]);
    assert_eq!(upsert(APPEND, "p6", "onyx"), 6);
    assert_eq!(neighbours(6), [0]);
    assert_eq!(neighbours(0), [1, 4, 5, 6]);
    // A delete takes it out of both overlay-born blocks and the base ones.
    cell.apply(DeltaOp::Delete { id: 0 }, &mut Noop).unwrap();
    for id in [1, 4, 5, 6] {
        assert!(!neighbours(id).contains(&0), "{id} met a tombstone");
    }
    assert!(neighbours(5).is_empty() && neighbours(6).is_empty());
    // Both tokens route to their blocks still: later carriers pair up.
    assert_eq!(upsert(APPEND, "p7", "quartz onyx"), 7);
    assert_eq!(neighbours(7), [5, 6]);
}

#[test]
fn delta_answers_match_a_from_scratch_rebuild() {
    // Appends and an in-place replace (no deletes: a Dirty removal shifts
    // rebuild ids, while the overlay keeps ids stable via tombstones — the
    // two worlds are only id-comparable without removals). The replacement
    // keeps every token's occurrence count >= 2 so no block degenerates.
    let new5 = EntityProfile::new("p5").with("name", "jack stone");
    let new2 = EntityProfile::new("p2").with("name", "erick lloyd stone");
    for scheme in
        [WeightingScheme::Cbs, WeightingScheme::Ecbs, WeightingScheme::Js, WeightingScheme::Arcs]
    {
        let cell = GenerationCell::new(base_snapshot(scheme)).unwrap();
        cell.apply(DeltaOp::Upsert { id: APPEND, profile: new5.clone() }, &mut Noop).unwrap();
        cell.apply(DeltaOp::Upsert { id: 2, profile: new2.clone() }, &mut Noop).unwrap();
        let generation = cell.load();
        let mut live = QueryEngine::from_generation(&generation);

        let mut merged = base_profiles();
        merged.push(new5.clone());
        merged[2] = new2.clone();
        let rebuilt = Snapshot::build(
            &EntityCollection::dirty(merged),
            PipelineConfig { weighting: scheme, ..PipelineConfig::default() },
        )
        .unwrap();
        let rebuilt = SnapshotView::try_from(rebuilt).unwrap();
        let mut fresh = QueryEngine::from_view(&rebuilt);

        for id in 0..6 {
            assert_eq!(
                weighted_candidates_of(&mut live, id),
                weighted_candidates_of(&mut fresh, id),
                "{scheme:?}: entity {id} diverged from the rebuild"
            );
        }
    }
}

#[test]
fn persisted_delta_runs_reload_to_the_same_answers() {
    let base = SnapshotView::try_from(base_snapshot(WeightingScheme::Cbs)).unwrap();
    let base_bytes = base.as_bytes().to_vec();
    let cell = GenerationCell::new(base).unwrap();
    cell.apply(
        DeltaOp::Upsert {
            id: APPEND,
            profile: EntityProfile::new("p5").with("name", "jack stone"),
        },
        &mut Noop,
    )
    .unwrap();
    cell.apply(DeltaOp::Delete { id: 1 }, &mut Noop).unwrap();
    let live = cell.load();
    let ops = live.overlay().unwrap().ops();

    // Write-ahead the same ops as a delta run and reload.
    let base = SnapshotView::from_bytes(base_bytes).unwrap();
    let with_deltas = append_delta_run(&base, &ops).unwrap();
    let reloaded = SnapshotView::from_bytes(with_deltas.clone()).unwrap();
    assert_eq!(reloaded.delta_runs().len(), 1);
    let reloaded_cell = GenerationCell::new(reloaded).unwrap();
    let reloaded_gen = reloaded_cell.load();

    let mut live_engine = QueryEngine::from_generation(&live);
    let mut reloaded_engine = QueryEngine::from_generation(&reloaded_gen);
    assert_eq!(reloaded_gen.num_entities(), live.num_entities());
    for id in 0..live.num_entities() as u32 {
        assert_eq!(
            weighted_candidates_of(&mut reloaded_engine, id),
            weighted_candidates_of(&mut live_engine, id),
            "entity {id}: reload diverged from the live overlay"
        );
    }

    // A second run appended over the first composes, too.
    let more = [DeltaOp::Delete { id: 3 }];
    let with_deltas = SnapshotView::from_bytes(with_deltas).unwrap();
    let two_runs = append_delta_run(&with_deltas, &more).unwrap();
    let reloaded = SnapshotView::from_bytes(two_runs).unwrap();
    assert_eq!(reloaded.delta_runs().len(), 2);
    let cell2 = GenerationCell::new(reloaded).unwrap();
    assert!(cell2.load().overlay().unwrap().is_tombstoned(3));
}

#[test]
fn compaction_is_bit_identical_to_a_fresh_build() {
    let config = PipelineConfig::default();
    let ops = vec![
        DeltaOp::Upsert {
            id: APPEND,
            profile: EntityProfile::new("p5").with("name", "jack stone"),
        },
        DeltaOp::Upsert {
            id: 2,
            profile: EntityProfile::new("p2").with("name", "erick lloyd stone"),
        },
        DeltaOp::Delete { id: 1 },
    ];
    // `merge_ops` resolves APPEND against the *current* length, so spell
    // the append out the way GenerationCell::apply resolves it: id 5.
    let ops = [
        DeltaOp::Upsert { id: 5, profile: profile_of(&ops[0]).clone() },
        ops[1].clone(),
        ops[2].clone(),
    ];

    let mut collection = EntityCollection::dirty(base_profiles());
    merge_ops(&mut collection, &ops).unwrap();
    let compacted = Snapshot::build(&collection, config).unwrap().to_bytes();

    // The same end state assembled by hand: p1 removed (ids above shift
    // down), p2 replaced, p5 appended.
    let mut expected = base_profiles();
    expected[2] = EntityProfile::new("p2").with("name", "erick lloyd stone");
    expected.push(EntityProfile::new("p5").with("name", "jack stone"));
    expected.remove(1);
    let fresh = Snapshot::build(&EntityCollection::dirty(expected), config).unwrap().to_bytes();

    assert_eq!(compacted, fresh, "compaction must be bit-identical to a from-scratch build");
    // And the compacted image carries no delta runs.
    assert!(SnapshotView::from_bytes(compacted).unwrap().delta_runs().is_empty());
}

fn profile_of(op: &DeltaOp) -> &EntityProfile {
    match op {
        DeltaOp::Upsert { profile, .. } => profile,
        DeltaOp::Delete { .. } => panic!("not an upsert"),
    }
}

#[test]
fn concurrent_readers_never_observe_a_half_applied_delta() {
    const READERS: usize = 4;
    const UPSERTS: usize = 100;

    // Base: the "anchor" token is shared by both seeds, so its block is
    // live and every appended entity joins it. For a generation with `a`
    // appended entities, each appended entity's candidate set is exactly
    // the other anchor members: the 2 seeds plus the other `a - 1` appends.
    // Any torn state — an entity counted but not indexed, or a block
    // membership without the entity-side posting — breaks that count.
    let seeds = vec![
        EntityProfile::new("s0").with("name", "anchor one"),
        EntityProfile::new("s1").with("name", "anchor one"),
    ];
    let snapshot = Snapshot::build(
        &EntityCollection::dirty(seeds),
        PipelineConfig { weighting: WeightingScheme::Cbs, ..PipelineConfig::default() },
    )
    .unwrap();
    let cell = Arc::new(GenerationCell::new(snapshot).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let generation = cell.load();
                    let appended = generation.num_entities() - 2;
                    let mut engine = QueryEngine::from_generation(&generation);
                    for id in 2..generation.num_entities() as u32 {
                        let request = CandidateRequest::entity(EntityId(id))
                            .with_retention(Retention::TopK(usize::MAX));
                        let response = engine.execute(&request, &mut Noop).unwrap();
                        assert_eq!(
                            response.first().unwrap().candidates.len(),
                            appended + 1,
                            "generation {} (with {appended} appends): entity {id} saw a \
                             half-applied neighborhood",
                            generation.ordinal()
                        );
                        checked += 1;
                    }
                }
                checked
            })
        })
        .collect();

    for i in 0..UPSERTS {
        cell.apply(
            DeltaOp::Upsert {
                id: APPEND,
                profile: EntityProfile::new(format!("a{i}")).with("name", format!("anchor u{i}")),
            },
            &mut Noop,
        )
        .unwrap();
        std::thread::yield_now();
    }

    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for reader in readers {
        total += reader.join().unwrap();
    }
    assert!(total > 0, "readers never got to check anything");
    assert_eq!(cell.load().num_entities(), 2 + UPSERTS);
}

/// Every entity query and `probes`, answered over `generation` as wire
/// bytes (an error as its text).
fn answers(generation: &Generation, probes: &[CandidateRequest]) -> Vec<Vec<u8>> {
    let mut engine = QueryEngine::from_generation(generation);
    let entities =
        (0..generation.num_entities() as u32).map(|id| CandidateRequest::entity(EntityId(id)));
    let requests: Vec<CandidateRequest> = entities.chain(probes.iter().cloned()).collect();
    requests
        .iter()
        .map(|request| match engine.execute(request, &mut Noop) {
            Ok(response) => response_bytes(&response),
            Err(e) => e.to_string().into_bytes(),
        })
        .collect()
}

/// Applies seeded ops — appends, in-place replaces, deletes, their profiles
/// recycled from `donors` — until `count` have been accepted.
fn apply_program(
    cell: &GenerationCell,
    rng: &mut SmallRng,
    donors: &EntityCollection,
    count: usize,
) {
    let mut applied = 0;
    while applied < count {
        let entities = cell.load().num_entities() as u64;
        let donor = donors.profile(EntityId(rng.gen_below(donors.len() as u64) as u32));
        let mut profile = EntityProfile::new(format!("w{applied}"));
        for a in donor.attributes() {
            profile.add(a.name, a.value);
        }
        let op = match rng.gen_below(10) {
            0..=3 => DeltaOp::Upsert { id: APPEND, profile },
            4..=7 => DeltaOp::Upsert { id: rng.gen_below(entities) as u32, profile },
            _ => DeltaOp::Delete { id: rng.gen_below(entities) as u32 },
        };
        // A refused op (a second delete of one id) changes nothing.
        applied += usize::from(cell.apply(op, &mut Noop).is_ok());
    }
}

#[test]
fn a_pinned_generation_keeps_its_answers_and_the_live_one_equals_a_replay() {
    for (kind, weighting, pruning) in [
        (ErKind::Dirty, WeightingScheme::Js, PruningScheme::Cnp),
        (ErKind::CleanClean, WeightingScheme::Arcs, PruningScheme::ReciprocalWnp),
    ] {
        let tiny = |seed: u64| {
            let built = presets::build(&presets::tiny(seed)).unwrap();
            if kind == ErKind::Dirty { built.into_dirty() } else { built }.collection
        };
        let collection = tiny(51);
        let probes: Vec<CandidateRequest> = tiny(51 ^ 0x5EED_0002)
            .profiles()
            .iter()
            .rev()
            .take(32)
            .map(|p| CandidateRequest::probe(p.clone(), false))
            .collect();
        let config = PipelineConfig {
            weighting,
            pruning,
            filter_ratio: Some(0.8),
            ..PipelineConfig::default()
        };
        let base = SnapshotView::try_from(Snapshot::build(&collection, config).unwrap()).unwrap();
        let cell = GenerationCell::new(SnapshotView::from_bytes(base.as_bytes().to_vec()).unwrap())
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(51);

        apply_program(&cell, &mut rng, &collection, 500);
        let pinned = cell.load();
        let when_pinned = answers(&pinned, &probes);
        // 2 000 generations later, each derived from the one before by
        // rewriting the tables the pinned one still reads through…
        apply_program(&cell, &mut rng, &collection, 2_000);
        assert_eq!(pinned.overlay().unwrap().applied(), 500);
        assert!(
            answers(&pinned, &probes) == when_pinned,
            "{kind:?}: a pinned generation's answers moved under later writes"
        );

        // …and the live overlay, built a path copy at a time, is the one
        // the loader builds in place from the same ops.
        let live = cell.load();
        let ops = live.overlay().unwrap().ops();
        assert_eq!(ops.len(), 2_500);
        let replayed = GenerationCell::new(
            SnapshotView::from_bytes(append_delta_run(&base, &ops).unwrap()).unwrap(),
        )
        .unwrap()
        .load();
        assert_eq!(replayed.num_entities(), live.num_entities());
        assert_eq!(
            replayed.overlay().unwrap().tombstone_count(),
            live.overlay().unwrap().tombstone_count()
        );
        assert!(
            answers(&live, &probes) == answers(&replayed, &probes),
            "{kind:?}: the live overlay answers differently from a replay of its op log"
        );
    }
}
