//! Shape validator for `BENCH_pipeline.json` (emitted by the `pipeline_e2e`
//! bench). `scripts/bench.sh` runs it right after the bench so a drifting
//! emitter fails the script instead of silently producing a JSON the
//! perf-trajectory tooling can no longer read.
//!
//! Usage: `validate_pipeline_json [path]` (default: `BENCH_pipeline.json`
//! in the current directory). Exits non-zero with a message on any
//! missing/mistyped field.

use mb_observe::json::Json;
use std::process::ExitCode;

fn check(doc: &Json) -> Result<(), String> {
    let field = |obj: &Json, key: &str, what: &str| -> Result<Json, String> {
        obj.get(key).cloned().ok_or_else(|| format!("{what}: missing key `{key}`"))
    };

    // Document header.
    field(doc, "bench", "document")?
        .as_str()
        .filter(|&b| b == "pipeline_e2e")
        .ok_or("document: `bench` must be the string \"pipeline_e2e\"")?;
    field(doc, "workload", "document")?.as_str().ok_or("document: `workload` must be a string")?;
    field(doc, "entities", "document")?
        .as_u64()
        .filter(|&n| n > 0)
        .ok_or("document: `entities` must be a positive integer")?;
    field(doc, "samples_per_stage", "document")?
        .as_u64()
        .filter(|&n| n > 0)
        .ok_or("document: `samples_per_stage` must be a positive integer")?;

    // Per-stage rows.
    let results = field(doc, "results", "document")?;
    let rows = results.as_arr().ok_or("document: `results` must be an array")?;
    if rows.is_empty() {
        return Err("document: `results` is empty".into());
    }
    const STAGES: [&str; 5] = ["build", "purge", "filter", "weight", "prune"];
    for (i, row) in rows.iter().enumerate() {
        let what = format!("results[{i}]");
        let stage = field(row, "stage", &what)?;
        let stage = stage.as_str().ok_or(format!("{what}: `stage` must be a string"))?;
        if !STAGES.contains(&stage) {
            return Err(format!("{what}: unknown stage `{stage}`"));
        }
        for key in ["mean_ms", "median_ms", "min_ms"] {
            field(row, key, &what)?
                .as_f64()
                .filter(|ms| ms.is_finite() && *ms >= 0.0)
                .ok_or(format!("{what}: `{key}` must be a finite non-negative number"))?;
        }
        field(row, "samples", &what)?
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or(format!("{what}: `samples` must be a positive integer"))?;
        field(row, "allocs", &what)?.as_u64().ok_or(format!("{what}: `allocs` must be a u64"))?;
    }
    // Every stage present.
    for stage in STAGES {
        if !rows.iter().any(|r| r.get("stage").and_then(Json::as_str) == Some(stage)) {
            return Err(format!("results: stage `{stage}` has no row"));
        }
    }

    // Summary: the headline allocation count must be present.
    let summary = field(doc, "summary", "document")?;
    field(&summary, "build_weight_allocs", "summary")?
        .as_u64()
        .ok_or("summary: `build_weight_allocs` must be a u64")?;
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_pipeline_json: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate_pipeline_json: {path}: invalid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(()) => {
            println!("validate_pipeline_json: {path}: OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_pipeline_json: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}
