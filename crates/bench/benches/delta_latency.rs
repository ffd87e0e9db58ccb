//! Incremental-delta bench: µs-scale live upserts against a loaded engine
//! versus the full rebuild they replace, plus pinned compaction.
//!
//! The workload is the Dirty d1c-0.1 benchmark (≈6.4k profiles) frozen
//! into an `mb-serve` snapshot (JS + CNP, Block Filtering at r = 0.8) and
//! served through a [`GenerationCell`]. Three measurements:
//!
//! * **upsert apply** — one [`DeltaOp::Upsert`] through
//!   [`GenerationCell::apply`]: tokenize, patch the overlay, publish the
//!   next generation. µs p50/p99 over a fresh cell per round so overlay
//!   growth does not skew the percentiles.
//! * **query after upsert** — the first query for the entity the upsert
//!   just appended, through an engine pinned on the new generation; plus
//!   the combined applied-and-queryable figure the acceptance bar names.
//! * **rebuild path** — the write cycle a delta op replaces: re-read the
//!   CSV bundle, [`Snapshot::build`], persist, reload, swap into
//!   the cell, answer the first query. The headline speedup divides this
//!   by the apply p50 — rebuild-per-write versus delta-per-write.
//! * **compaction** — folding the accumulated op log back into a clean
//!   CSR arena (merge + rebuild), wall-ms, against the from-scratch
//!   [`Snapshot::build`] a delta-less engine would need for *every* write.
//!   The compacted image must be bit-identical to that fresh build.
//! * **overlay growth** — what the rows above hide by using a fresh cell per
//!   round: on *one* cell, at 64 / 512 / 2 048 / 16 384 accumulated ops, the
//!   p50 of [`GenerationCell::apply`], of dropping the generation it
//!   replaced, and of pinning the new one with a cold engine
//!   ([`QueryEngine::from_generation`]) and with the previous engine's
//!   buffers ([`QueryEngine::with_scratch`]). Apply and drop cost what the
//!   op touches, not what the overlay holds: the last row's may be at most
//!   3× the first's (the blocks an op patches have grown by then, and the
//!   overlay's tries are a level deeper). The warm pin is what a connection
//!   handler pays per acknowledged write.
//!
//! Output: `BENCH_delta.json` at the repository root (override with
//! `BENCH_OUT`); `validate_bench_json` checks its shape — including the
//! ≥1000× apply-vs-rebuild-path bar and the growth bar — in
//! `scripts/bench.sh`.

use er_bench::dirty_workload;
use mb_core::{PipelineConfig, PruningScheme, Retention, WeightingScheme};
use mb_observe::json::Json;
use mb_observe::Noop;
use mb_serve::{
    merge_ops, CandidateRequest, DeltaOp, EngineScratch, GenerationCell, QueryEngine, Snapshot,
    SnapshotView, APPEND,
};
use std::hint::black_box;
use std::time::Instant;

fn sample_count() -> usize {
    std::env::var("BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(5)
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn main() {
    let samples = sample_count();
    let workload = dirty_workload();
    let n = workload.collection.len();
    let config = PipelineConfig {
        weighting: WeightingScheme::Js,
        pruning: PruningScheme::Cnp,
        filter_ratio: Some(0.8),
        ..PipelineConfig::default()
    };
    let snapshot = Snapshot::build(&workload.collection, config)
        .unwrap_or_else(|e| panic!("building snapshot: {e}"));
    println!("delta-latency: {n} entities, {samples} rounds");

    // The newcomers recycle indexed profiles' text under fresh URIs, so
    // every upsert hits real postings instead of dead singleton tokens.
    let donors: Vec<_> = workload.collection.profiles().iter().take(64).cloned().collect();
    let newcomer = |round: usize, i: usize| {
        let donor = &donors[(round * 31 + i) % donors.len()];
        let mut p = er_model::EntityProfile::new(format!("delta-{round}-{i}"));
        for a in donor.attributes() {
            p = p.with(a.name, a.value);
        }
        p
    };

    // --- rebuild baselines: what each write costs without deltas ------------
    //
    // `rebuild_ms` is the in-memory `Snapshot::build` alone (the floor the
    // compaction figure is compared against). `rebuild_path_ms` is the full
    // write path a delta op replaces: re-read the CSV bundle, rebuild the
    // index, persist it, reload it into the serving cell, and
    // answer the first query — i.e. the `er snapshot build` + reload cycle.
    let mut rebuild_ms = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let rebuilt = Snapshot::build(&workload.collection, config)
            .unwrap_or_else(|e| panic!("rebuild: {e}"));
        rebuild_ms = rebuild_ms.min(start.elapsed().as_secs_f64() * 1e3);
        black_box(&rebuilt);
    }

    let dir = std::env::temp_dir().join(format!("er-delta-bench-{}", std::process::id()));
    er_io::bundle::save(&dir, &workload.collection, &workload.ground_truth)
        .unwrap_or_else(|e| panic!("staging bundle: {e}"));
    let snap_path = dir.join("rebuild.snap");
    let mut rebuild_path_ms = f64::MAX;
    for _ in 0..samples {
        let cell = GenerationCell::new(snapshot.clone())
            .unwrap_or_else(|e| panic!("loading generation: {e}"));
        let start = Instant::now();
        let bundle = er_io::bundle::load(&dir).unwrap_or_else(|e| panic!("bundle load: {e}"));
        let rebuilt =
            Snapshot::build(&bundle.collection, config).unwrap_or_else(|e| panic!("rebuild: {e}"));
        rebuilt.write_to(&snap_path).unwrap_or_else(|e| panic!("persist: {e}"));
        let view = SnapshotView::read_from(&snap_path, &mut Noop)
            .unwrap_or_else(|e| panic!("reload: {e}"));
        cell.swap(view).unwrap_or_else(|e| panic!("swap: {e}"));
        let generation = cell.load();
        let mut engine = QueryEngine::from_generation(&generation);
        let request =
            CandidateRequest::entity(er_model::EntityId(0)).with_retention(Retention::TopK(10));
        let response = engine.execute(&request, &mut Noop).unwrap_or_else(|e| panic!("query: {e}"));
        black_box(&response);
        rebuild_path_ms = rebuild_path_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // --- upsert apply + query-after-upsert percentiles ----------------------
    const OPS_PER_ROUND: usize = 64;
    let mut apply_us: Vec<f64> = Vec::with_capacity(samples * OPS_PER_ROUND);
    let mut query_us: Vec<f64> = Vec::with_capacity(samples * OPS_PER_ROUND);
    let mut total_us: Vec<f64> = Vec::with_capacity(samples * OPS_PER_ROUND);
    for round in 0..samples {
        let cell = GenerationCell::new(snapshot.clone())
            .unwrap_or_else(|e| panic!("loading generation: {e}"));
        for i in 0..OPS_PER_ROUND {
            let profile = newcomer(round, i);
            let start = Instant::now();
            let applied = cell
                .apply(DeltaOp::Upsert { id: APPEND, profile }, &mut Noop)
                .unwrap_or_else(|e| panic!("apply {round}/{i}: {e}"));
            let applied_at = start.elapsed().as_secs_f64() * 1e6;
            let generation = cell.load();
            let mut engine = QueryEngine::from_generation(&generation);
            let request = CandidateRequest::entity(er_model::EntityId(applied.id))
                .with_retention(Retention::TopK(10));
            let qstart = Instant::now();
            let response = engine
                .execute(&request, &mut Noop)
                .unwrap_or_else(|e| panic!("query {round}/{i}: {e}"));
            let queried_at = qstart.elapsed().as_secs_f64() * 1e6;
            black_box(&response);
            apply_us.push(applied_at);
            query_us.push(queried_at);
            total_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    for v in [&mut apply_us, &mut query_us, &mut total_us] {
        v.sort_unstable_by(|a, b| a.total_cmp(b));
    }
    // The acceptance bar compares the cost of *making a write visible*: one
    // delta apply versus the load→build→persist→reload cycle it replaces.
    let speedup = rebuild_path_ms * 1e3 / pct(&apply_us, 0.50);
    println!(
        "       upsert: apply p50 {:>8.2} us  p99 {:>8.2} us",
        pct(&apply_us, 0.50),
        pct(&apply_us, 0.99)
    );
    println!(
        "  query-after: p50 {:>8.2} us  p99 {:>8.2} us  (applied+queryable p50 {:>8.2} us)",
        pct(&query_us, 0.50),
        pct(&query_us, 0.99),
        pct(&total_us, 0.50)
    );
    println!(
        "      rebuild: {rebuild_ms:>8.2} ms build-only, {rebuild_path_ms:>8.2} ms full path  ->  \
         {speedup:>8.0}x per-write speedup"
    );

    // --- pinned compaction vs the fresh build it must reproduce -------------
    let cell =
        GenerationCell::new(snapshot.clone()).unwrap_or_else(|e| panic!("loading generation: {e}"));
    for i in 0..OPS_PER_ROUND {
        cell.apply(DeltaOp::Upsert { id: APPEND, profile: newcomer(samples, i) }, &mut Noop)
            .unwrap_or_else(|e| panic!("compaction seed {i}: {e}"));
    }
    cell.apply(DeltaOp::Delete { id: 0 }, &mut Noop)
        .unwrap_or_else(|e| panic!("compaction tombstone: {e}"));
    let generation = cell.load();
    let ops = generation.overlay().map(|o| o.ops()).unwrap_or_default();
    let start = Instant::now();
    let mut merged = workload.collection.clone();
    merge_ops(&mut merged, &ops).unwrap_or_else(|e| panic!("merge: {e}"));
    let compacted =
        Snapshot::build(&merged, config).unwrap_or_else(|e| panic!("compaction build: {e}"));
    let compact_ms = start.elapsed().as_secs_f64() * 1e3;
    let fresh = Snapshot::build(&merged, config).unwrap_or_else(|e| panic!("fresh build: {e}"));
    let bit_identical = compacted.to_bytes() == fresh.to_bytes();
    assert!(bit_identical, "compacted snapshot diverged from a from-scratch rebuild");
    println!(
        "   compaction: {compact_ms:>8.2} ms over {} ops  (bit-identical to fresh build)",
        ops.len()
    );

    // --- overlay growth: one cell, ops accumulating ---------------------------
    //
    // Three appends, one in-place replace and one delete in every five ops
    // (a refused op — a replace landing on a tombstone — is skipped, not
    // counted). Each checkpoint's percentiles are over the last
    // `GROWTH_WINDOW` ops before it.
    const GROWTH_CHECKPOINTS: [usize; 4] = [64, 512, 2048, 16_384];
    const GROWTH_WINDOW: usize = 48;
    let cell =
        GenerationCell::new(snapshot.clone()).unwrap_or_else(|e| panic!("loading generation: {e}"));
    let mut scratch = EngineScratch::default();
    let (mut applied, mut attempt) = (0usize, 0usize);
    let mut growth = Vec::with_capacity(GROWTH_CHECKPOINTS.len());
    for checkpoint in GROWTH_CHECKPOINTS {
        let mut us: [Vec<f64>; 4] = Default::default();
        while applied < checkpoint {
            let op = match attempt % 5 {
                3 => DeltaOp::Upsert {
                    id: ((attempt * 31 + 7) % n) as u32,
                    profile: newcomer(samples + 1, attempt),
                },
                4 => DeltaOp::Delete { id: (n - 1 - attempt / 5) as u32 },
                _ => DeltaOp::Upsert { id: APPEND, profile: newcomer(samples + 1, attempt) },
            };
            attempt += 1;
            let previous = cell.load();
            let start = Instant::now();
            if cell.apply(op, &mut Noop).is_err() {
                continue;
            }
            let apply = start.elapsed().as_secs_f64() * 1e6;
            // `previous` is the replaced generation's last owner: dropping
            // it frees that generation's copy of the overlay.
            let start = Instant::now();
            drop(previous);
            let drop_previous = start.elapsed().as_secs_f64() * 1e6;
            applied += 1;
            if applied + GROWTH_WINDOW <= checkpoint {
                continue;
            }
            let start = Instant::now();
            let generation = cell.load();
            let engine = QueryEngine::from_generation(&generation);
            let cold_pin = start.elapsed().as_secs_f64() * 1e6;
            black_box(&engine);
            drop(engine);
            let start = Instant::now();
            let generation = cell.load();
            let engine = QueryEngine::with_scratch(&generation, std::mem::take(&mut scratch));
            let warm_pin = start.elapsed().as_secs_f64() * 1e6;
            black_box(&engine);
            scratch = engine.into_scratch();
            for (v, x) in us.iter_mut().zip([apply, drop_previous, cold_pin, warm_pin]) {
                v.push(x);
            }
        }
        for v in &mut us {
            v.sort_unstable_by(|a, b| a.total_cmp(b));
        }
        let p50: Vec<f64> = us.iter().map(|v| pct(v, 0.50)).collect();
        println!(
            "overlay at {applied:>5} ops: apply p50 {:>7.2} us  drop previous {:>7.2} us  \
             pin cold {:>7.2} us  warm {:>7.2} us",
            p50[0], p50[1], p50[2], p50[3]
        );
        let mut row = Json::obj();
        row.push("ops", Json::Uint(applied as u64));
        row.push("apply_p50_us", Json::Num(p50[0]));
        row.push("drop_previous_p50_us", Json::Num(p50[1]));
        row.push("cold_pin_p50_us", Json::Num(p50[2]));
        row.push("warm_pin_p50_us", Json::Num(p50[3]));
        growth.push(row);
    }

    let mut upsert = Json::obj();
    upsert.push("apply_p50_us", Json::Num(pct(&apply_us, 0.50)));
    upsert.push("apply_p99_us", Json::Num(pct(&apply_us, 0.99)));
    upsert.push("query_p50_us", Json::Num(pct(&query_us, 0.50)));
    upsert.push("query_p99_us", Json::Num(pct(&query_us, 0.99)));
    upsert.push("applied_queryable_p50_us", Json::Num(pct(&total_us, 0.50)));
    upsert.push("applied_queryable_p99_us", Json::Num(pct(&total_us, 0.99)));
    upsert.push("ops", Json::Uint(apply_us.len() as u64));

    let mut compaction = Json::obj();
    compaction.push("compact_ms", Json::Num(compact_ms));
    compaction.push("rebuild_ms", Json::Num(rebuild_ms));
    compaction.push("rebuild_path_ms", Json::Num(rebuild_path_ms));
    compaction.push("ops_folded", Json::Uint(ops.len() as u64));
    compaction.push("bit_identical", Json::Bool(bit_identical));

    let mut doc = Json::obj();
    doc.push("bench", Json::Str("delta_latency".into()));
    doc.push("workload", Json::Str("d1c-0.1 dirty, filter 0.8, js+cnp".into()));
    doc.push("entities", Json::Uint(n as u64));
    doc.push("samples", Json::Uint(samples as u64));
    doc.push("upsert", upsert);
    doc.push("compaction", compaction);
    doc.push("overlay_growth", Json::Arr(growth));
    doc.push("speedup_vs_rebuild", Json::Num(speedup));

    let out = std::env::var("BENCH_OUT").ok().filter(|p| !p.is_empty()).unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json").to_string()
    });
    std::fs::write(&out, doc.render_pretty()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
