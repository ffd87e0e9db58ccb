//! Shape-checks `BENCH_query.json` (written by the `query_latency` bench).
//!
//! Exits non-zero with a message naming the first offending field if the
//! document is missing a section, a number is absent or non-finite, or the
//! batch table does not cover the 1/2/4/8 thread counts.

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
    let v = field(doc, path)?
        .as_f64()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("`{path}` is not a finite non-negative number"))?;
    Ok(v)
}

fn positive_uint(doc: &Json, path: &str) -> Result<u64, String> {
    field(doc, path)?
        .as_u64()
        .filter(|v| *v > 0)
        .ok_or_else(|| format!("`{path}` is not a positive integer"))
}

fn check(doc: &Json) -> Result<(), String> {
    let bench = field(doc, "bench")?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| "`bench` is not a string".to_string())?;
    if bench != "query_latency" {
        return Err(format!("`bench` is `{bench}`, expected `query_latency`"));
    }
    field(doc, "workload")?.as_str().ok_or_else(|| "`workload` is not a string".to_string())?;
    positive_uint(doc, "entities")?;
    positive_uint(doc, "samples")?;
    positive_uint(doc, "snapshot_bytes")?;

    finite(doc, "load.mean_ms")?;
    finite(doc, "load.min_ms")?;
    finite(doc, "load.mb_per_s")?;
    positive_uint(doc, "load.samples")?;

    let p50 = finite(doc, "single_query.p50_us")?;
    let p99 = finite(doc, "single_query.p99_us")?;
    if p99 < p50 {
        return Err(format!("single_query p99 ({p99}) is below p50 ({p50})"));
    }
    positive_uint(doc, "single_query.queries")?;

    let batch = field(doc, "batch")?;
    let rows = batch.as_arr().ok_or_else(|| "`batch` is not an array".to_string())?.to_vec();
    let mut threads_seen = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let threads = positive_uint(row, "threads").map_err(|e| format!("batch[{i}]: {e}"))?;
        finite(row, "mean_ms").map_err(|e| format!("batch[{i}]: {e}"))?;
        finite(row, "min_ms").map_err(|e| format!("batch[{i}]: {e}"))?;
        let qps = finite(row, "throughput_qps").map_err(|e| format!("batch[{i}]: {e}"))?;
        if qps <= 0.0 {
            return Err(format!("batch[{i}]: throughput_qps must be positive, got {qps}"));
        }
        positive_uint(row, "samples").map_err(|e| format!("batch[{i}]: {e}"))?;
        threads_seen.push(threads);
    }
    if threads_seen != [1, 2, 4, 8] {
        return Err(format!("batch thread counts are {threads_seen:?}, expected [1, 2, 4, 8]"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_query.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("validate_query_json: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("validate_query_json: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(()) => {
            println!("validate_query_json: {path} OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_query_json: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
