//! Serving-layer latency bench: snapshot load time, single-query and
//! probe-query latency percentiles, and batch query throughput across
//! thread counts.
//!
//! The workload is the Dirty d1c-0.1 benchmark frozen into an `mb-serve`
//! snapshot (Token Blocking + Block Filtering at r = 0.8). Four
//! measurements:
//!
//! * **load** — `SnapshotView::read_from` (read + checksum + full
//!   structural and cross-section validation, sections *borrowed* from the
//!   loaded buffer), wall-ms and MB/s.
//! * **single query** — per-entity `QueryEngine::query` latency in µs,
//!   reported as p50/p99 over every entity × `BENCH_SAMPLE_SIZE` rounds.
//! * **probe query** — the same profiles sent as unindexed probes
//!   (tokenize, one batch token lookup, route, score), p50/p99 in µs
//!   and the tokens looked up per probe as the engine counted them.
//! * **batch** — `QueryEngine::batch` at 1/2/4/8 threads, wall-ms and
//!   queries/second.
//!
//! Output: `BENCH_query.json` at the repository root (override with
//! `BENCH_OUT`); `validate_query_json` checks its shape in
//! `scripts/bench.sh`.

use er_bench::dirty_workload;
use mb_core::{Noop, PipelineConfig, PruningScheme, WeightingScheme};
use mb_observe::json::Json;
use mb_observe::{Counter, RunReport};
use mb_serve::{CandidateRequest, QueryEngine, Snapshot, SnapshotView};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn sample_count() -> usize {
    std::env::var("BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(5)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorts the latencies and returns their `(p50, p99)`.
fn p50_p99(lat_us: &mut [f64]) -> (f64, f64) {
    lat_us.sort_unstable_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    (pct(0.50), pct(0.99))
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
    let path = std::env::temp_dir().join("er_bench_query.mbsnap");
    snapshot.write_to(&path).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "query-latency: {n} entities, {} blocks, {snapshot_bytes} snapshot bytes, \
         {samples} samples",
        snapshot.blocks().size()
    );

    // --- snapshot load -----------------------------------------------------
    let mut load_times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let v = SnapshotView::read_from(&path, &mut Noop)
                .unwrap_or_else(|e| panic!("loading snapshot: {e}"));
            black_box(v.num_entities());
            start.elapsed()
        })
        .collect();
    load_times.sort_unstable();
    let load_mean = load_times.iter().sum::<Duration>() / load_times.len() as u32;
    let mb_per_s = snapshot_bytes as f64 / 1e6 / load_mean.as_secs_f64();
    println!(
        "    load: mean {:>8.3} ms  min {:>8.3} ms  {mb_per_s:>8.1} MB/s",
        ms(load_mean),
        ms(load_times[0]),
    );
    let mut load = Json::obj();
    load.push("mean_ms", Json::Num(ms(load_mean)));
    load.push("min_ms", Json::Num(ms(load_times[0])));
    load.push("mb_per_s", Json::Num(mb_per_s));
    load.push("samples", Json::Uint(load_times.len() as u64));

    let view = SnapshotView::read_from(&path, &mut Noop)
        .unwrap_or_else(|e| panic!("reloading snapshot: {e}"));
    let mut engine = QueryEngine::from_view(&view);
    let retention = engine.default_retention();

    // --- single-query latency (µs percentiles over all entities) -----------
    let mut lat_us: Vec<f64> = Vec::with_capacity(n * samples);
    for _ in 0..samples {
        for pivot in 0..n as u32 {
            let request =
                CandidateRequest::entity(er_model::EntityId(pivot)).with_retention(retention);
            let start = Instant::now();
            let response = engine
                .execute(&request, &mut Noop)
                .unwrap_or_else(|e| panic!("query {pivot}: {e}"));
            black_box(&response);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let (p50, p99) = p50_p99(&mut lat_us);
    println!("  single: p50 {p50:>8.2} us  p99 {p99:>8.2} us  ({} timed queries)", lat_us.len());
    let mut single = Json::obj();
    single.push("p50_us", Json::Num(p50));
    single.push("p99_us", Json::Num(p99));
    single.push("queries", Json::Uint(lat_us.len() as u64));

    // --- probe-query latency (every profile again, as an unindexed probe) ---
    let probes: Vec<CandidateRequest> = (0..n as u32)
        .map(|id| {
            let profile = workload.collection.profile(er_model::EntityId(id)).clone();
            CandidateRequest::probe(profile, true).with_retention(retention)
        })
        .collect();
    let mut lat_us: Vec<f64> = Vec::with_capacity(n * samples);
    for _ in 0..samples {
        for request in &probes {
            let start = Instant::now();
            let response =
                engine.execute(request, &mut Noop).unwrap_or_else(|e| panic!("probe: {e}"));
            black_box(&response);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let (p50, p99) = p50_p99(&mut lat_us);
    // One more round, untimed, under an observer: the engine's own count of
    // vocabulary lookups.
    let mut report = RunReport::new("probe");
    for request in &probes {
        engine.execute(request, &mut report).unwrap_or_else(|e| panic!("probe: {e}"));
    }
    let tokens_per_probe = report.counter_total(Counter::TokensProbed) as f64 / n as f64;
    println!(
        "   probe: p50 {p50:>8.2} us  p99 {p99:>8.2} us  {tokens_per_probe:.1} tokens/probe  \
         ({} timed queries)",
        lat_us.len()
    );
    let mut probe = Json::obj();
    probe.push("p50_us", Json::Num(p50));
    probe.push("p99_us", Json::Num(p99));
    probe.push("tokens_probed_per_query", Json::Num(tokens_per_probe));
    probe.push("queries", Json::Uint(lat_us.len() as u64));

    // --- batch throughput across thread counts ------------------------------
    let mut batch_rows: Vec<Json> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let request = CandidateRequest::batch().with_retention(retention).with_threads(threads);
        let mut times: Vec<Duration> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                let response = engine
                    .execute(&request, &mut Noop)
                    .unwrap_or_else(|e| panic!("batch({threads}): {e}"));
                black_box(&response);
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let qps = n as f64 / mean.as_secs_f64();
        println!(
            "   batch: {threads} thread(s)  mean {:>8.3} ms  min {:>8.3} ms  {qps:>10.0} q/s",
            ms(mean),
            ms(times[0])
        );
        let mut row = Json::obj();
        row.push("threads", Json::Uint(threads as u64));
        row.push("mean_ms", Json::Num(ms(mean)));
        row.push("min_ms", Json::Num(ms(times[0])));
        row.push("throughput_qps", Json::Num(qps));
        row.push("samples", Json::Uint(times.len() as u64));
        batch_rows.push(row);
    }

    let mut doc = Json::obj();
    doc.push("bench", Json::Str("query_latency".into()));
    doc.push("workload", Json::Str("d1c-0.1 dirty, filter 0.8".into()));
    doc.push("entities", Json::Uint(n as u64));
    doc.push("samples", Json::Uint(samples as u64));
    doc.push("snapshot_bytes", Json::Uint(snapshot_bytes));
    doc.push("load", load);
    doc.push("single_query", single);
    doc.push("probe_query", probe);
    doc.push("batch", Json::Arr(batch_rows));

    let out = std::env::var("BENCH_OUT").ok().filter(|p| !p.is_empty()).unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json").to_string()
    });
    std::fs::write(&out, doc.render_pretty()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    std::fs::remove_file(&path).ok();
    println!("wrote {out}");
}
