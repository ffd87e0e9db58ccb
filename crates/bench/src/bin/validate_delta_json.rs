//! Shape-checks `BENCH_delta.json` (written by the `delta_latency` bench).
//!
//! Exits non-zero with a message naming the first offending field if the
//! document is missing a section, a number is absent or non-finite, the
//! latency percentiles are inverted, compaction was not bit-identical to a
//! from-scratch rebuild, or a single upsert failed the acceptance bar: it
//! must be applied *and* queryable within 1 ms at p50, and at least 1000×
//! cheaper than the full rebuild path (bundle load → build → persist →
//! reload → first query) it replaces. The `overlay_growth` rows (one cell,
//! ops accumulating) are checked for shape, ascending op counts, and that
//! re-pinning over the previous engine's buffers beats a cold engine; the
//! apply and drop rows grow with the overlay and carry no floor yet.

use mb_observe::json::Json;
use std::process::ExitCode;

fn field(doc: &Json, path: &str) -> Result<Json, String> {
    let mut cur = doc.clone();
    for key in path.split('.') {
        cur = cur.get(key).cloned().ok_or_else(|| format!("missing field `{path}`"))?;
    }
    Ok(cur)
}

fn finite(doc: &Json, path: &str) -> Result<f64, String> {
    field(doc, path)?
        .as_f64()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("`{path}` is not a finite non-negative number"))
}

fn positive_uint(doc: &Json, path: &str) -> Result<u64, String> {
    field(doc, path)?
        .as_u64()
        .filter(|v| *v > 0)
        .ok_or_else(|| format!("`{path}` is not a positive integer"))
}

fn ordered_pair(doc: &Json, lo: &str, hi: &str) -> Result<(f64, f64), String> {
    let (p50, p99) = (finite(doc, lo)?, finite(doc, hi)?);
    if p99 < p50 {
        return Err(format!("`{hi}` ({p99}) is below `{lo}` ({p50})"));
    }
    Ok((p50, p99))
}

fn check(doc: &Json) -> Result<(), String> {
    let bench = field(doc, "bench")?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| "`bench` is not a string".to_string())?;
    if bench != "delta_latency" {
        return Err(format!("`bench` is `{bench}`, expected `delta_latency`"));
    }
    field(doc, "workload")?.as_str().ok_or_else(|| "`workload` is not a string".to_string())?;
    positive_uint(doc, "entities")?;
    positive_uint(doc, "samples")?;
    positive_uint(doc, "upsert.ops")?;

    ordered_pair(doc, "upsert.apply_p50_us", "upsert.apply_p99_us")?;
    ordered_pair(doc, "upsert.query_p50_us", "upsert.query_p99_us")?;
    let (total_p50, _) =
        ordered_pair(doc, "upsert.applied_queryable_p50_us", "upsert.applied_queryable_p99_us")?;
    if total_p50 > 1000.0 {
        return Err(format!(
            "a single upsert must be applied and queryable within 1 ms at p50, got {total_p50} us"
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

    let growth = field(doc, "overlay_growth")?;
    let rows = growth.as_arr().ok_or_else(|| "`overlay_growth` is not an array".to_string())?;
    if rows.len() < 3 {
        return Err(format!("`overlay_growth` has {} rows, expected at least 3", rows.len()));
    }
    let mut last_ops = 0;
    for row in rows {
        let ops = positive_uint(row, "ops")?;
        if ops <= last_ops {
            return Err(format!(
                "`overlay_growth` op counts must ascend, got {ops} after {last_ops}"
            ));
        }
        last_ops = ops;
        finite(row, "apply_p50_us")?;
        finite(row, "drop_previous_p50_us")?;
        let (cold, warm) = (finite(row, "cold_pin_p50_us")?, finite(row, "warm_pin_p50_us")?);
        if warm >= cold {
            return Err(format!(
                "overlay_growth at {ops} ops: warm_pin_p50_us ({warm}) is not below \
                 cold_pin_p50_us ({cold})"
            ));
        }
    }

    let speedup = finite(doc, "speedup_vs_rebuild")?;
    if speedup < 1000.0 {
        return Err(format!(
            "a live upsert must be at least 1000x cheaper than the rebuild path it \
             replaces, got {speedup:.0}x"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_delta.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("validate_delta_json: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("validate_delta_json: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(()) => {
            println!("validate_delta_json: {path} OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_delta_json: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
