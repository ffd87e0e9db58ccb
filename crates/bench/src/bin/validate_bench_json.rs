//! The one validator for the JSON documents this repository commits:
//! `BENCH_pipeline.json`, `BENCH_query.json`, `BENCH_delta.json`,
//! `BENCH_pruning.json` (written by the benches
//! `scripts/bench.sh` runs) and
//! `results/lint.json` (written by `er-lint --workspace --format json` in
//! `scripts/check.sh`; validated here because er-lint is dependency-free by
//! design and cannot use `mb_observe::json`).
//!
//! Usage: `validate_bench_json FILE…`. Which checks a file gets is read
//! from the document itself — its `"bench"` field, or `"schema":
//! "er-lint/1"` — so a drifting emitter fails the script that ran it
//! instead of silently producing a document the perf-trajectory tooling can
//! no longer read. Exits non-zero, naming the first offending field of each
//! bad file, on a missing or mistyped field and on every floor a document
//! carries:
//!
//! * `pipeline_e2e`: a row per stage; the `prune` row (one JS + CNP run)
//!   allocates at most 64 times, a run's scratch and not a node's.
//! * `query_latency`: p99 ≥ p50 for entity and probe queries, a positive
//!   token count per probe; batch rows at 1/2/4/8 threads.
//! * `delta_latency`: percentile pairs ordered; a single upsert applied
//!   *and* queryable within 1 ms at p50 and at least 1000× cheaper than the
//!   full rebuild path (bundle load → build → persist → reload → first
//!   query) it replaces; compaction bit-identical to a from-scratch
//!   rebuild; `overlay_growth` op counts ascending, re-pinning over the
//!   previous engine's buffers beating a cold engine, and the last row's
//!   apply and drop p50 within 3× of the first row's (a write costs what it
//!   touches, not what the overlay has accumulated).
//! * `pruning_scaling`: per (workload, bench, scheme) the thread counts
//!   ascend from 1; a cell at `N` threads peaks within `2 × N` times the
//!   one-thread cell's `alloc_peak_bytes` (threads × scratch and windows —
//!   a path that buffers its output breaks it on the dense workload); rows
//!   with more threads than `detected_cores` are labelled `overhead`, the
//!   rest `scaling`; edge-sweep rows carry per-worker shares summing to 1.
//! * `er-lint/1`: `status` agrees with the budget arrays.

use mb_observe::json::Json;
use std::process::ExitCode;

fn field<'a>(doc: &'a Json, path: &str) -> Result<&'a Json, String> {
    path.split('.')
        .try_fold(doc, |cur, key| cur.get(key))
        .ok_or_else(|| format!("missing field `{path}`"))
}

fn finite(doc: &Json, path: &str) -> Result<f64, String> {
    field(doc, path)?
        .as_f64()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("`{path}` is not a finite non-negative number"))
}

fn uint(doc: &Json, path: &str) -> Result<u64, String> {
    field(doc, path)?.as_u64().ok_or_else(|| format!("`{path}` is not an unsigned integer"))
}

fn positive_uint(doc: &Json, path: &str) -> Result<u64, String> {
    field(doc, path)?
        .as_u64()
        .filter(|v| *v > 0)
        .ok_or_else(|| format!("`{path}` is not a positive integer"))
}

fn text<'a>(doc: &'a Json, path: &str) -> Result<&'a str, String> {
    field(doc, path)?.as_str().ok_or_else(|| format!("`{path}` is not a string"))
}

fn array<'a>(doc: &'a Json, path: &str) -> Result<&'a [Json], String> {
    field(doc, path)?.as_arr().ok_or_else(|| format!("`{path}` is not an array"))
}

/// Two percentiles of one distribution: both finite, the higher not below
/// the lower.
fn ordered_pair(doc: &Json, lo: &str, hi: &str) -> Result<(f64, f64), String> {
    let (p50, p99) = (finite(doc, lo)?, finite(doc, hi)?);
    if p99 < p50 {
        return Err(format!("`{hi}` ({p99}) is below `{lo}` ({p50})"));
    }
    Ok((p50, p99))
}

/// Runs `check` on every element of the array at `path`, prefixing what it
/// reports with the element's position.
fn each_row(
    doc: &Json,
    path: &str,
    mut check: impl FnMut(&Json) -> Result<(), String>,
) -> Result<(), String> {
    array(doc, path)?
        .iter()
        .enumerate()
        .try_for_each(|(i, row)| check(row).map_err(|e| format!("{path}[{i}]: {e}")))
}

/// What one JS + CNP run of the `prune` stage may allocate, whatever `|E|`:
/// the graph context and a sweep's per-thread scratch. Node-centric
/// selection allocating per node put the row at 12 115 on 6 386 entities.
const PRUNE_ALLOCS: u64 = 64;

/// `BENCH_pipeline.json`, from the `pipeline_e2e` bench.
fn pipeline(doc: &Json) -> Result<(), String> {
    const STAGES: [&str; 5] = ["build", "purge", "filter", "weight", "prune"];
    positive_uint(doc, "samples_per_stage")?;
    if array(doc, "results")?.is_empty() {
        return Err("`results` is empty".into());
    }
    let mut seen = Vec::new();
    each_row(doc, "results", |row| {
        let stage = text(row, "stage")?;
        if !STAGES.contains(&stage) {
            return Err(format!("unknown stage `{stage}`"));
        }
        seen.push(stage.to_owned());
        for key in ["mean_ms", "median_ms", "min_ms"] {
            finite(row, key)?;
        }
        positive_uint(row, "samples")?;
        let allocs = uint(row, "allocs")?;
        if stage == "prune" && allocs > PRUNE_ALLOCS {
            return Err(format!(
                "`allocs` of stage `prune` is {allocs}, above {PRUNE_ALLOCS}: top-k selection \
                 allocates per node"
            ));
        }
        Ok(())
    })?;
    if let Some(stage) = STAGES.iter().find(|s| !seen.iter().any(|seen| seen == *s)) {
        return Err(format!("results: stage `{stage}` has no row"));
    }
    // The headline allocation count.
    uint(doc, "summary.build_weight_allocs")?;
    Ok(())
}

/// `BENCH_query.json`, from the `query_latency` bench.
fn query(doc: &Json) -> Result<(), String> {
    positive_uint(doc, "samples")?;
    positive_uint(doc, "snapshot_bytes")?;

    finite(doc, "load.mean_ms")?;
    finite(doc, "load.min_ms")?;
    finite(doc, "load.mb_per_s")?;
    positive_uint(doc, "load.samples")?;

    ordered_pair(doc, "single_query.p50_us", "single_query.p99_us")?;
    positive_uint(doc, "single_query.queries")?;

    ordered_pair(doc, "probe_query.p50_us", "probe_query.p99_us")?;
    positive_uint(doc, "probe_query.queries")?;
    let tokens = finite(doc, "probe_query.tokens_probed_per_query")?;
    if tokens <= 0.0 {
        return Err(format!("probe_query.tokens_probed_per_query must be positive, got {tokens}"));
    }

    let mut threads_seen = Vec::new();
    each_row(doc, "batch", |row| {
        threads_seen.push(positive_uint(row, "threads")?);
        finite(row, "mean_ms")?;
        finite(row, "min_ms")?;
        let qps = finite(row, "throughput_qps")?;
        if qps <= 0.0 {
            return Err(format!("throughput_qps must be positive, got {qps}"));
        }
        positive_uint(row, "samples")?;
        Ok(())
    })?;
    if threads_seen != [1, 2, 4, 8] {
        return Err(format!("batch thread counts are {threads_seen:?}, expected [1, 2, 4, 8]"));
    }
    Ok(())
}

/// `BENCH_delta.json`, from the `delta_latency` bench.
fn delta(doc: &Json) -> Result<(), String> {
    positive_uint(doc, "samples")?;
    positive_uint(doc, "upsert.ops")?;

    ordered_pair(doc, "upsert.apply_p50_us", "upsert.apply_p99_us")?;
    ordered_pair(doc, "upsert.query_p50_us", "upsert.query_p99_us")?;
    let (total_p50, _) =
        ordered_pair(doc, "upsert.applied_queryable_p50_us", "upsert.applied_queryable_p99_us")?;
    if total_p50 > 1000.0 {
        return Err(format!(
            "a single upsert must be applied and queryable within 1 ms at p50 \
             (`upsert.applied_queryable_p50_us`), got {total_p50} us"
        ));
    }

    finite(doc, "compaction.compact_ms")?;
    let rebuild_ms = finite(doc, "compaction.rebuild_ms")?;
    if rebuild_ms <= 0.0 {
        return Err(format!("compaction.rebuild_ms must be positive, got {rebuild_ms}"));
    }
    let rebuild_path_ms = finite(doc, "compaction.rebuild_path_ms")?;
    if rebuild_path_ms < rebuild_ms {
        return Err(format!(
            "compaction.rebuild_path_ms ({rebuild_path_ms}) is below the build-only \
             compaction.rebuild_ms ({rebuild_ms})"
        ));
    }
    positive_uint(doc, "compaction.ops_folded")?;
    match field(doc, "compaction.bit_identical")? {
        Json::Bool(true) => {}
        other => {
            return Err(format!(
                "compaction.bit_identical must be true, got {}",
                other.render_pretty()
            ))
        }
    }

    let rows = array(doc, "overlay_growth")?.len();
    if rows < 3 {
        return Err(format!("`overlay_growth` has {rows} rows, expected at least 3"));
    }
    let mut last_ops = 0;
    each_row(doc, "overlay_growth", |row| {
        let ops = positive_uint(row, "ops")?;
        if ops <= last_ops {
            return Err(format!("op counts must ascend, got {ops} after {last_ops}"));
        }
        last_ops = ops;
        finite(row, "apply_p50_us")?;
        finite(row, "drop_previous_p50_us")?;
        let (cold, warm) = (finite(row, "cold_pin_p50_us")?, finite(row, "warm_pin_p50_us")?);
        if warm >= cold {
            return Err(format!(
                "at {ops} ops warm_pin_p50_us ({warm}) is not below cold_pin_p50_us ({cold})"
            ));
        }
        Ok(())
    })?;

    // A write costs what it touches, not what the overlay has accumulated.
    const GROWTH_FACTOR: f64 = 3.0;
    if let [first, .., last] = array(doc, "overlay_growth")? {
        for key in ["apply_p50_us", "drop_previous_p50_us"] {
            let (small, large) = (finite(first, key)?, finite(last, key)?);
            if large > GROWTH_FACTOR * small {
                return Err(format!(
                    "overlay_growth: `{key}` grows from {small} to {large} us over the rows, \
                     more than {GROWTH_FACTOR}x"
                ));
            }
        }
    }

    let speedup = finite(doc, "speedup_vs_rebuild")?;
    if speedup < 1000.0 {
        return Err(format!(
            "a live upsert must be at least 1000x cheaper than the rebuild path it \
             replaces (`speedup_vs_rebuild`), got {speedup:.0}x"
        ));
    }
    Ok(())
}

/// `BENCH_pruning.json`, from the `pruning_scaling` bench.
fn pruning(doc: &Json) -> Result<(), String> {
    /// What `N` threads may peak at, in one-thread peaks per thread: each
    /// thread owns its scratch and a fixed number of windows, and the
    /// one-thread peak is at least one thread's scratch.
    const PEAK_FACTOR: u64 = 2;
    let cores = positive_uint(doc, "detected_cores")?;
    positive_uint(doc, "samples_per_cell")?;
    let mut workloads = Vec::new();
    each_row(doc, "workloads", |w| {
        workloads.push(text(w, "name")?.to_owned());
        positive_uint(w, "entities")?;
        positive_uint(w, "edges")?;
        Ok(())
    })?;
    if workloads.is_empty() {
        return Err("`workloads` is empty".into());
    }
    // The group being walked — its (workload, bench, scheme), last thread
    // count and one-thread peak. Rows of one group are consecutive.
    let mut group: Option<([String; 3], u64, u64)> = None;
    let mut seen = Vec::new();
    each_row(doc, "results", |row| {
        let key = [text(row, "workload")?, text(row, "bench")?, text(row, "scheme")?];
        if !workloads.iter().any(|w| w == key[0]) {
            return Err(format!("`workload` `{}` is not listed in `workloads`", key[0]));
        }
        if key[1] != "edge_weighting" && key[1] != "pruning" {
            return Err(format!("unknown `bench` `{}`", key[1]));
        }
        let threads = positive_uint(row, "threads")?;
        for field in ["mean_ms", "median_ms", "min_ms"] {
            finite(row, field)?;
        }
        positive_uint(row, "samples")?;
        let peak = uint(row, "alloc_peak_bytes")?;
        let label = text(row, "label")?;
        let expected = if threads > cores { "overhead" } else { "scaling" };
        if label != expected {
            return Err(format!(
                "`label` is `{label}` at {threads} threads on {cores} detected cores, \
                 expected `{expected}`"
            ));
        }
        let key = key.map(str::to_owned);
        match &mut group {
            Some((open, last, one_thread_peak)) if *open == key => {
                if threads <= *last {
                    return Err(format!("thread counts must ascend, got {threads} after {last}"));
                }
                *last = threads;
                let bound = PEAK_FACTOR * threads * *one_thread_peak;
                if peak > bound {
                    return Err(format!(
                        "`alloc_peak_bytes` ({peak}) at {threads} threads exceeds \
                         {PEAK_FACTOR} x {threads} x the one-thread peak ({one_thread_peak})"
                    ));
                }
            }
            _ => {
                if seen.contains(&key) {
                    return Err(format!("rows of {key:?} are not consecutive"));
                }
                if threads != 1 {
                    return Err(format!("thread counts must start at 1, got {threads}"));
                }
                seen.push(key.clone());
                group = Some((key.clone(), threads, peak));
            }
        }
        if key[1] == "edge_weighting" {
            let shares = array(row, "worker_edge_shares")?;
            if shares.is_empty() || shares.len() as u64 > threads {
                return Err(format!(
                    "`worker_edge_shares` has {} entries at {threads} threads",
                    shares.len()
                ));
            }
            let total: f64 = shares.iter().map(|s| s.as_f64().unwrap_or(f64::NAN)).sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(format!("`worker_edge_shares` sum to {total}, not 1"));
            }
        }
        Ok(())
    })?;
    // Every workload has the edge sweep and every pruning scheme.
    for w in &workloads {
        let rows = |bench: &str| seen.iter().filter(|k| k[0] == *w && k[1] == bench).count();
        if rows("edge_weighting") != 1 || rows("pruning") != 8 {
            return Err(format!(
                "workload `{w}` has {} edge-sweep and {} pruning groups, expected 1 and 8",
                rows("edge_weighting"),
                rows("pruning")
            ));
        }
    }
    Ok(())
}

/// One er-lint finding record.
fn finding(obj: &Json) -> Result<(), String> {
    if text(obj, "file")?.is_empty() {
        return Err("`file` is empty".into());
    }
    positive_uint(obj, "line")?;
    if text(obj, "rule")?.is_empty() {
        return Err("`rule` is empty".into());
    }
    let severity = text(obj, "severity")?;
    if severity != "error" && severity != "warning" {
        return Err(format!("unknown severity `{severity}`"));
    }
    // `snippet` is required (may be empty for blank lines); `note` is
    // optional but must be a string when present.
    text(obj, "snippet")?;
    if obj.get("note").is_some() {
        text(obj, "note")?;
    }
    Ok(())
}

/// `results/lint.json`, schema `er-lint/1`.
fn lint(doc: &Json) -> Result<(), String> {
    positive_uint(doc, "files")?;
    each_row(doc, "findings", finding)?;
    each_row(doc, "over_budget", finding)?;
    let over = array(doc, "over_budget")?.len();
    let stale = array(doc, "stale")?;
    if let Some(i) = stale.iter().position(|s| s.as_str().is_none()) {
        return Err(format!("stale[{i}] is not a string"));
    }
    uint(doc, "suppressed")?;
    let status = text(doc, "status")?;
    let expected = if over == 0 && stale.is_empty() { "clean" } else { "violations" };
    if status != expected {
        return Err(format!(
            "`status` is `{status}` but over_budget={over}, stale={} imply `{expected}`",
            stale.len()
        ));
    }
    Ok(())
}

/// Checks `doc` as the kind of document it says it is, and returns that
/// kind.
fn check(doc: &Json) -> Result<&'static str, String> {
    type Check = fn(&Json) -> Result<(), String>;
    const BENCHES: [(&str, Check); 4] = [
        ("pipeline_e2e", pipeline),
        ("query_latency", query),
        ("delta_latency", delta),
        ("pruning_scaling", pruning),
    ];
    if doc.get("schema").is_some() {
        let schema = text(doc, "schema")?;
        if schema != "er-lint/1" {
            return Err(format!("`schema` is `{schema}`, expected `er-lint/1`"));
        }
        return lint(doc).map(|()| "er-lint/1");
    }
    let bench = text(doc, "bench")?;
    let Some((kind, check)) = BENCHES.iter().find(|(name, _)| *name == bench) else {
        let known: Vec<&str> = BENCHES.iter().map(|(name, _)| *name).collect();
        return Err(format!("`bench` is `{bench}`, expected one of {}", known.join(", ")));
    };
    text(doc, "workload")?;
    positive_uint(doc, "entities")?;
    check(doc).map(|()| *kind)
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_bench_json FILE...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|doc| check(&doc));
        match checked {
            Ok(kind) => println!("validate_bench_json: {path}: {kind} OK"),
            Err(e) => {
                eprintln!("validate_bench_json: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed document, by its path from the repository root.
    fn committed(path: &str) -> Json {
        let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        Json::parse(&std::fs::read_to_string(&path).expect(&path)).expect(&path)
    }

    /// The value at a dotted path; array elements by position.
    fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(doc, |cur, key| match cur {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Json::Arr(items) => &mut items[key.parse::<usize>().expect(key)],
            other => panic!("`{key}` looked up in {other:?}"),
        })
    }

    fn drop_key(doc: &mut Json, parent: &str, key: &str) {
        let parent = if parent.is_empty() { doc } else { at(doc, parent) };
        match parent {
            Json::Obj(fields) => fields.retain(|(k, _)| k != key),
            other => panic!("`{key}` dropped from {other:?}"),
        }
    }

    #[test]
    fn every_committed_document_passes_as_the_kind_it_declares() {
        for (path, kind) in [
            ("BENCH_pipeline.json", "pipeline_e2e"),
            ("BENCH_query.json", "query_latency"),
            ("BENCH_delta.json", "delta_latency"),
            ("BENCH_pruning.json", "pruning_scaling"),
            ("results/lint.json", "er-lint/1"),
        ] {
            assert_eq!(check(&committed(path)), Ok(kind), "{path}");
        }
    }

    /// `path` with one edit made fails, and the report names `culprit`.
    fn breaks(path: &str, culprit: &str, edit: impl FnOnce(&mut Json)) {
        let mut doc = committed(path);
        edit(&mut doc);
        let err = check(&doc).expect_err(culprit);
        assert!(err.contains(culprit), "{path}: `{err}` does not name `{culprit}`");
    }

    #[test]
    fn a_dropped_field_or_a_broken_floor_fails_naming_the_field() {
        let p = "BENCH_pipeline.json";
        breaks(p, "summary.build_weight_allocs", |d| drop_key(d, "summary", "build_weight_allocs"));
        breaks(p, "stage `prune` has no row", |d| match at(d, "results") {
            Json::Arr(rows) => {
                rows.retain(|r| r.get("stage").and_then(Json::as_str) != Some("prune"))
            }
            _ => unreachable!(),
        });
        breaks(p, "results[0]: `median_ms`", |d| *at(d, "results.0.median_ms") = Json::Num(-1.0));
        breaks(p, "results[4]: `allocs` of stage `prune` is 12115", |d| {
            *at(d, "results.4.allocs") = Json::Uint(12_115)
        });

        let q = "BENCH_query.json";
        breaks(q, "`single_query.p99_us`", |d| *at(d, "single_query.p99_us") = Json::Num(0.0));
        breaks(q, "load.mb_per_s", |d| drop_key(d, "load", "mb_per_s"));
        breaks(q, "expected [1, 2, 4, 8]", |d| *at(d, "batch.3.threads") = Json::Uint(16));
        breaks(q, "`probe_query.p99_us`", |d| *at(d, "probe_query.p99_us") = Json::Num(0.0));
        breaks(q, "probe_query.queries", |d| *at(d, "probe_query.queries") = Json::Uint(0));
        breaks(q, "probe_query.tokens_probed_per_query", |d| {
            *at(d, "probe_query.tokens_probed_per_query") = Json::Num(0.0);
        });

        let l = "BENCH_delta.json";
        breaks(l, "upsert.applied_queryable_p50_us", |d| {
            *at(d, "upsert.applied_queryable_p50_us") = Json::Num(1000.5);
            *at(d, "upsert.applied_queryable_p99_us") = Json::Num(2000.0);
        });
        breaks(l, "speedup_vs_rebuild", |d| *at(d, "speedup_vs_rebuild") = Json::Num(999.0));
        breaks(l, "compaction.bit_identical", |d| {
            *at(d, "compaction.bit_identical") = Json::Bool(false);
        });
        breaks(l, "overlay_growth[1]: op counts must ascend", |d| {
            *at(d, "overlay_growth.1.ops") = Json::Uint(1);
        });
        breaks(l, "overlay_growth[0]: at", |d| {
            *at(d, "overlay_growth.0.warm_pin_p50_us") = Json::Num(1e9);
        });
        for key in ["apply_p50_us", "drop_previous_p50_us"] {
            breaks(l, &format!("overlay_growth: `{key}` grows"), |d| {
                let first = at(d, &format!("overlay_growth.0.{key}")).as_f64().unwrap();
                *at(d, &format!("overlay_growth.3.{key}")) = Json::Num(3.01 * first);
            });
        }
        breaks(l, "compaction.ops_folded", |d| drop_key(d, "compaction", "ops_folded"));

        // Row 0 is the sparse workload's one-thread edge sweep; the dense
        // workload's WEP group is where a buffered output would show.
        let s = "BENCH_pruning.json";
        breaks(s, "results[0]: `label`", |d| {
            *at(d, "results.0.label") = Json::Str("overhead".into())
        });
        breaks(s, "results[1]: thread counts must ascend", |d| {
            *at(d, "results.1.threads") = Json::Uint(1);
        });
        breaks(s, "results[0]: thread counts must start at 1", |d| {
            *at(d, "results.0.threads") = Json::Uint(2);
        });
        breaks(s, "results[1]: `alloc_peak_bytes`", |d| {
            *at(d, "results.1.alloc_peak_bytes") = Json::Uint(u64::MAX / 2);
        });
        breaks(s, "results[2]: missing field `worker_edge_shares`", |d| {
            drop_key(d, "results.2", "worker_edge_shares")
        });
        breaks(s, "results[1]: `worker_edge_shares` sum", |d| {
            *at(d, "results.1.worker_edge_shares.0") = Json::Num(2.0);
        });
        breaks(s, "is not listed in `workloads`", |d| {
            *at(d, "results.5.workload") = Json::Str("d9".into());
        });
        breaks(s, "expected 1 and 8", |d| match at(d, "results") {
            Json::Arr(rows) => {
                rows.retain(|r| r.get("scheme").and_then(Json::as_str) != Some("Reciprocal WNP"))
            }
            _ => unreachable!(),
        });
        breaks(s, "detected_cores", |d| drop_key(d, "", "detected_cores"));

        let lint = "results/lint.json";
        breaks(lint, "`status`", |d| *at(d, "status") = Json::Str("violations".into()));
        breaks(lint, "findings[0]: unknown severity", |d| {
            *at(d, "findings.0.severity") = Json::Str("fatal".into());
        });
        breaks(lint, "`suppressed`", |d| drop_key(d, "", "suppressed"));
    }

    #[test]
    fn a_document_of_no_known_kind_is_refused() {
        let mut doc = committed("BENCH_query.json");
        *at(&mut doc, "bench") = Json::Str("edge_weighting".into());
        let err = check(&doc).unwrap_err();
        assert!(err.contains("`bench` is `edge_weighting`"), "{err}");
        drop_key(&mut doc, "", "bench");
        assert_eq!(check(&doc).unwrap_err(), "missing field `bench`");
        let mut doc = committed("results/lint.json");
        *at(&mut doc, "schema") = Json::Str("er-lint/2".into());
        assert!(check(&doc).unwrap_err().contains("expected `er-lint/1`"));
    }
}
