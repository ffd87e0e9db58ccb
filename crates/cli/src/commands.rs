//! The CLI verbs.

use crate::args::Args;
use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::{presets, DatasetConfig};
use er_io::bundle::{self, Bundle};
use er_model::measures::{self, EffectivenessAccumulator};
use er_model::{BlockCollection, EntityId, EntityProfile};
use mb_core::filter::block_filtering;
use mb_core::{
    pipeline, MetaBlocking, Noop, Observer, PipelineConfig, PruningScheme, Retention,
    WeightingScheme,
};
use mb_observe::{Progress, RunReport, Tee};
use mb_serve::{
    append_delta_run, write_atomic, CandidateRequest, CandidateResponse, Client, DeltaOp,
    GenerationCell, QueryEngine, Server, ServerConfig, Snapshot, SnapshotError, SnapshotHeader,
    SnapshotView, APPEND,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn check_options(args: &Args, known: &[&str]) -> Result<(), String> {
    let unknown = args.unknown_options(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!("unknown option(s): --{}", unknown.join(", --")))
    }
}

fn load_bundle(args: &Args) -> Result<Bundle, String> {
    let dir = args.require("dataset")?;
    bundle::load(dir).map_err(|e| format!("loading {dir}: {e}"))
}

fn input_blocks(bundle: &Bundle) -> BlockCollection {
    input_blocks_observed(bundle, &mut Noop)
}

fn input_blocks_observed(bundle: &Bundle, obs: &mut dyn Observer) -> BlockCollection {
    let mut blocks = TokenBlocking.build_observed(&bundle.collection, obs);
    purging::purge_by_size_observed(&mut blocks, 0.5, obs);
    blocks
}

/// A preset's configuration for a seed.
type Preset = fn(u64) -> DatasetConfig;

/// Every preset `er generate --preset` accepts, by name.
const PRESETS: [(&str, Preset); 5] = [
    ("tiny", presets::tiny),
    ("d1c", presets::d1c),
    ("d2c", presets::d2c),
    ("d3c", |seed| presets::d3c(seed, 1.0)),
    ("xl", presets::xl),
];

/// `er generate`: synthesize a benchmark bundle.
pub fn generate(args: &Args) -> Result<String, String> {
    check_options(args, &["preset", "out", "scale", "seed", "dirty"])?;
    let out = args.require("out")?;
    let seed = args.get_parsed("seed", 20160315u64)?;
    let scale: f64 = args.get_parsed("scale", 1.0)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must lie in (0, 1], got {scale}"));
    }
    let name = args.require("preset")?;
    let &(_, preset) = PRESETS
        .iter()
        .find(|&&(known, _)| known == name)
        .ok_or_else(|| format!("unknown preset `{name}`"))?;
    let mut config = preset(seed);
    if scale < 1.0 {
        let s = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        config.matched_pairs = s(config.matched_pairs);
        config.side1.size = s(config.side1.size).max(config.matched_pairs);
        config.side2.size = s(config.side2.size).max(config.matched_pairs);
        config.object.vocab_size = s(config.object.vocab_size).max(100);
        config.side1.attr_name_pool = s(config.side1.attr_name_pool).max(3);
        config.side2.attr_name_pool = s(config.side2.attr_name_pool).max(3);
    }
    let mut dataset = er_datagen::generate(&config).map_err(|e| e.to_string())?;
    if args.flag("dirty") {
        dataset = dataset.into_dirty();
    }
    bundle::save(out, &dataset.collection, &dataset.ground_truth)
        .map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!(
        "wrote {out}: {} profiles, {} duplicate pairs ({:?} ER)\n",
        dataset.collection.len(),
        dataset.ground_truth.len(),
        dataset.collection.kind()
    ))
}

/// `er stats`: Table-1-style characteristics of the bundle's blocks.
pub fn stats(args: &Args) -> Result<String, String> {
    check_options(args, &["dataset"])?;
    let bundle = load_bundle(args)?;
    let blocks = input_blocks(&bundle);
    let detected = measures::detected_duplicates_in(&blocks, &bundle.ground_truth);
    let mut out = String::new();
    let _ = writeln!(out, "profiles:           {}", bundle.collection.len());
    let _ = writeln!(out, "duplicate pairs:    {}", bundle.ground_truth.len());
    let _ = writeln!(out, "brute-force ||E||:  {}", bundle.collection.brute_force_comparisons());
    let _ = writeln!(out, "blocks |B|:         {}", blocks.size());
    let _ = writeln!(out, "comparisons ||B||:  {}", blocks.total_comparisons());
    let _ = writeln!(out, "BPE:                {:.2}", blocks.blocks_per_entity());
    let _ = writeln!(
        out,
        "PC(B):              {:.4}",
        measures::pairs_completeness(detected, bundle.ground_truth.len())
    );
    let _ = writeln!(
        out,
        "PQ(B):              {:.6}",
        measures::pairs_quality(detected, blocks.total_comparisons())
    );
    let _ = writeln!(
        out,
        "RR vs brute force:  {:.4}",
        measures::reduction_ratio(
            bundle.collection.brute_force_comparisons(),
            blocks.total_comparisons()
        )
    );
    Ok(out)
}

/// Parses `--pruning`: one of the eight [`PruningScheme`] tokens (via its
/// [`std::str::FromStr`] impl), or `graph-free` for the Figure-7(b)
/// workflow (`None`).
fn parse_pruning(name: &str) -> Result<Option<PruningScheme>, String> {
    if name == "graph-free" {
        return Ok(None);
    }
    name.parse().map(Some)
}

/// `er run`: one meta-blocking pipeline, measured; optionally writes the
/// retained comparisons (by URI) to CSV, a per-stage JSON report with
/// `--report`, and live stage progress to stderr with `--progress`.
pub fn run(args: &Args) -> Result<String, String> {
    check_options(
        args,
        &["dataset", "scheme", "pruning", "filter", "out", "progress", "report", "threads"],
    )?;
    let bundle = load_bundle(args)?;
    let scheme: WeightingScheme = args.get("scheme").unwrap_or("js").parse()?;
    let pruning = parse_pruning(args.get("pruning").unwrap_or("reciprocal-wnp"))?;
    let filter: Option<f64> = match args.get("filter") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("invalid value for --filter: `{v}`"))?),
    };
    // 0 means auto-detect (resolved by PipelineConfig::effective_threads).
    let threads: usize = args.get_parsed("threads", 1)?;

    // Observer assembly: progress lines to stderr (stdout carries the
    // result), a RunReport when --report asked for the JSON breakdown.
    let show_progress = args.flag("progress");
    let report_path = args.get("report");
    let mut report = RunReport::new("er-run");
    report.set_meta("dataset", args.get("dataset").unwrap_or(""));
    report.set_meta("weighting", scheme.token());
    report.set_meta("pruning", pruning.map(PruningScheme::token).unwrap_or("graph-free"));
    let mut progress = Progress::new(std::io::stderr());
    let mut noop = Noop;
    let mut tee;
    let obs: &mut dyn Observer = match (show_progress, report_path.is_some()) {
        (true, true) => {
            tee = Tee::new(&mut progress, &mut report);
            &mut tee
        }
        (true, false) => &mut progress,
        (false, true) => &mut report,
        (false, false) => &mut noop,
    };

    // Blocking and Purging run under the same observer, so the report
    // covers the workflow end to end (Figure 7a order).
    let blocks = input_blocks_observed(&bundle, obs);
    let mut acc = EffectivenessAccumulator::new(&bundle.ground_truth);
    let mut retained: Vec<(er_model::EntityId, er_model::EntityId)> = Vec::new();
    let collect_out = args.get("out").is_some();
    let start = std::time::Instant::now();
    let split = bundle.collection.split();
    let mut sink = |a, b| {
        acc.add(a, b);
        if collect_out {
            retained.push((a, b));
        }
    };
    let label = match pruning {
        Some(p) => {
            let mut mb = MetaBlocking::new(scheme, p).with_threads(threads);
            if let Some(r) = filter {
                mb = mb.with_block_filtering(r);
            }
            mb.run(&blocks, split, obs, &mut sink).map_err(|e| e.to_string())?;
            format!("{} + {}", scheme.name(), p.name())
        }
        None => {
            let r = filter.unwrap_or(mb_core::graphfree::EFFECTIVENESS_RATIO);
            pipeline::run_graph_free_threads(&blocks, split, r, threads, obs, &mut sink)
                .map_err(|e| e.to_string())?;
            format!("Graph-free Meta-blocking (r = {r})")
        }
    };
    let otime = start.elapsed();

    if let Some(path) = report_path {
        report.set_meta("pipeline", &label);
        report.write_to(path.as_ref()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    if let Some(path) = args.get("out") {
        let rows: Vec<Vec<String>> = std::iter::once(vec!["left".to_string(), "right".to_string()])
            .chain(retained.iter().map(|&(a, b)| {
                vec![
                    bundle.collection.profile(a).uri().to_string(),
                    bundle.collection.profile(b).uri().to_string(),
                ]
            }))
            .collect();
        std::fs::write(path, er_io::csv::write(&rows))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    let mut out = String::new();
    let _ = writeln!(out, "pipeline:        {label}");
    let _ = writeln!(out, "input blocks:    {} comparisons", blocks.total_comparisons());
    let _ = writeln!(out, "retained:        {} comparisons", acc.total_comparisons());
    let _ = writeln!(out, "recall (PC):     {:.4}", acc.pc());
    let _ = writeln!(out, "precision (PQ):  {:.6}", acc.pq());
    let _ = writeln!(out, "reduction (RR):  {:.4}", acc.rr(blocks.total_comparisons()));
    let _ = writeln!(out, "overhead time:   {:.1?}", otime);
    Ok(out)
}

/// `er sweep-filter`: the Figure-10 ratio sweep over the bundle.
pub fn sweep_filter(args: &Args) -> Result<String, String> {
    check_options(args, &["dataset", "step"])?;
    let bundle = load_bundle(args)?;
    let blocks = input_blocks(&bundle);
    let step: f64 = args.get_parsed("step", 0.05)?;
    if !(step > 0.0 && step <= 1.0) {
        return Err(format!("--step must lie in (0, 1], got {step}"));
    }
    let mut out = String::from("    r      PC      RR\n----------------------\n");
    let mut r = step;
    while r <= 1.0 + 1e-9 {
        let r_clamped = r.min(1.0);
        let filtered = block_filtering(&blocks, r_clamped).map_err(|e| e.to_string())?;
        let detected = measures::detected_duplicates_in(&filtered, &bundle.ground_truth);
        let _ = writeln!(
            out,
            " {:>4.2}  {:>6.3}  {:>6.3}",
            r_clamped,
            measures::pairs_completeness(detected, bundle.ground_truth.len()),
            measures::reduction_ratio(blocks.total_comparisons(), filtered.total_comparisons()),
        );
        r += step;
    }
    Ok(out)
}

/// `er snapshot <build|inspect|apply>`: persist, examine or patch a
/// serving index.
pub fn snapshot(args: &Args) -> Result<String, String> {
    match args.positional(1) {
        Some("build") => snapshot_build(args),
        Some("inspect") => snapshot_inspect(args),
        Some("apply") => snapshot_apply(args),
        Some(other) => {
            Err(format!("unknown snapshot subcommand `{other}` (expected build|inspect|apply)"))
        }
        None => Err("usage: er snapshot <build|inspect|apply> ...".into()),
    }
}

/// `er snapshot build`: freeze Token Blocking (+ optional Block Filtering)
/// over a bundle into a versioned snapshot file.
fn snapshot_build(args: &Args) -> Result<String, String> {
    check_options(args, &["dataset", "out", "scheme", "pruning", "filter", "threads"])?;
    let bundle = load_bundle(args)?;
    let out = args.require("out")?;
    let weighting: WeightingScheme = args.get("scheme").unwrap_or("js").parse()?;
    let pruning: PruningScheme = args.get("pruning").unwrap_or("reciprocal-wnp").parse()?;
    let filter_ratio: Option<f64> = match args.get("filter") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("invalid value for --filter: `{v}`"))?),
    };
    let threads: usize = args.get_parsed("threads", 1)?;
    let config =
        PipelineConfig { weighting, pruning, filter_ratio, threads, ..PipelineConfig::default() };
    let snapshot = Snapshot::build(&bundle.collection, config).map_err(|e| e.to_string())?;
    snapshot.write_to(Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!(
        "wrote {out}: {:?} ER, {} entities, {} blocks, {} comparisons, {} tokens\n",
        snapshot.kind(),
        snapshot.num_entities(),
        snapshot.blocks().size(),
        snapshot.total_comparisons(),
        snapshot.tokens().len(),
    ))
}

/// `er snapshot inspect`: print a snapshot's header and section table from
/// the first few hundred bytes of the file — O(1) in the snapshot size, no
/// payload is read or decoded. `--full` additionally loads and fully
/// validates the snapshot and prints its sizes, thresholds and pipeline
/// configuration.
fn snapshot_inspect(args: &Args) -> Result<String, String> {
    check_options(args, &["snapshot", "full"])?;
    let path = args.require("snapshot")?;
    let header =
        SnapshotHeader::read_from(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "format version:     {}", header.version);
    let _ = writeln!(out, "file size:          {} bytes", header.file_len);
    let _ = writeln!(out, "sections:           {}", header.sections.len());
    let _ = writeln!(
        out,
        "  {:>2} {:<12} {:>12} {:>12} {:>12}  checksum",
        "id", "name", "offset", "bytes", "padded"
    );
    for s in &header.sections {
        let _ = writeln!(
            out,
            "  {:>2} {:<12} {:>12} {:>12} {:>12}  {:016x}",
            s.id, s.name, s.offset, s.len, s.padded_len, s.checksum
        );
    }
    if !args.flag("full") {
        return Ok(out);
    }
    let view = SnapshotView::read_from(Path::new(path), &mut Noop)
        .map_err(|e| format!("loading {path}: {e}"))?;
    let snapshot = view.snapshot();
    let _ = writeln!(out, "kind:               {:?} ER", snapshot.kind());
    let _ = writeln!(out, "entities:           {}", snapshot.num_entities());
    let _ = writeln!(out, "split:              {}", snapshot.split());
    let _ = writeln!(out, "blocks:             {}", snapshot.blocks().size());
    let _ = writeln!(out, "comparisons ||B||:  {}", snapshot.total_comparisons());
    let _ = writeln!(out, "assignments:        {}", snapshot.total_assignments());
    let _ = writeln!(out, "tokens:             {}", snapshot.tokens().len());
    let _ = writeln!(out, "CNP threshold k:    {}", snapshot.cnp_threshold());
    let _ = writeln!(out, "CEP threshold K:    {}", snapshot.cep_threshold());
    if !view.delta_runs().is_empty() {
        let ops: usize = view.delta_runs().iter().map(Vec::len).sum();
        let _ = writeln!(out, "delta runs:         {} ({ops} ops)", view.delta_runs().len());
    }
    let _ = writeln!(out, "config:             {}", snapshot.config().to_json_string());
    Ok(out)
}

/// `er snapshot apply`: append one write-ahead delta run to a snapshot
/// file — an upsert (`--text`, replacing in place with `--entity`,
/// appending otherwise) or a tombstone (`--delete N`). The base sections
/// are untouched; the run is framed and checksummed like every other
/// section and replayed when the file is loaded.
fn snapshot_apply(args: &Args) -> Result<String, String> {
    check_options(args, &["snapshot", "out", "delete", "text", "uri", "entity"])?;
    let path = args.require("snapshot")?;
    let loading = |e: SnapshotError| format!("loading {path}: {e}");
    // The base file's bytes are re-framed below, so they are read once and
    // kept beside the view loaded from them.
    let file = std::fs::read(path).map_err(|e| loading(e.into()))?;
    let base = SnapshotView::from_bytes(file.clone()).map_err(loading)?;
    let op = match (args.get("delete"), args.get("text")) {
        (Some(v), None) => {
            if args.get("entity").is_some() || args.get("uri").is_some() {
                return Err("--entity/--uri only apply to upserts (--text)".into());
            }
            let id: u32 = v.parse().map_err(|_| format!("invalid value for --delete: `{v}`"))?;
            DeltaOp::Delete { id }
        }
        (None, Some(text)) => {
            let profile =
                EntityProfile::new(args.get("uri").unwrap_or("upsert")).with("text", text);
            let id: u32 = match args.get("entity") {
                Some(v) => v.parse().map_err(|_| format!("invalid value for --entity: `{v}`"))?,
                None => {
                    // Resolve the append sentinel offline: replay the
                    // persisted runs to find the effective collection size.
                    let mut next = base.snapshot().num_entities() as u32;
                    for run in base.delta_runs() {
                        for op in run {
                            if matches!(op, DeltaOp::Upsert { id, .. } if *id == next) {
                                next += 1;
                            }
                        }
                    }
                    next
                }
            };
            DeltaOp::Upsert { id, profile }
        }
        _ => return Err("exactly one of --delete or --text is required".into()),
    };
    let out = args.get("out").unwrap_or(path);
    let patched = append_delta_run(&file, std::slice::from_ref(&op))
        .map_err(|e| format!("applying to {path}: {e}"))?;
    // Only bytes that passed the loader are written.
    let runs = SnapshotView::from_bytes(patched.clone())
        .map_err(|e| format!("verifying {out}: {e}"))?
        .delta_runs()
        .len();
    // Replaced by rename: `--out` defaults to the base file itself, and a
    // torn write there would lose the base and the staged op together.
    write_atomic(Path::new(out), &patched).map_err(|e| format!("writing {out}: {e}"))?;
    let (verb, id) = match &op {
        DeltaOp::Upsert { id, .. } => ("upserted entity", *id),
        DeltaOp::Delete { id } => ("tombstoned entity", *id),
    };
    Ok(format!("wrote {out}: {verb} {id} ({runs} delta runs)\n"))
}

/// Resolves the retention flags shared by `er query` and `er client query`:
/// `--retention <top-k=K|above-mean>` (the typed spelling) or the shorthand
/// `--top K`, which is read as `--retention top-k=K` so both spellings obey
/// the one rule (`K` a positive count). `None` defers to the engine's
/// snapshot-derived default.
fn retention_flags(args: &Args) -> Result<Option<Retention>, String> {
    match (args.get("retention"), args.get("top")) {
        (Some(_), Some(_)) => Err("use either --retention or --top, not both".into()),
        (Some(spec), None) => spec.parse().map(Some),
        (None, Some(k)) => format!("top-k={k}").parse().map(Some),
        (None, None) => Ok(None),
    }
}

/// Builds the typed [`CandidateRequest`] from the target flags shared by
/// `er query` and `er client query`, plus a human-readable subject line.
fn candidate_request(args: &Args) -> Result<(CandidateRequest, String), String> {
    let (request, subject) = match (args.get("entity"), args.get("text")) {
        (Some(v), None) => {
            let id: u32 = v.parse().map_err(|_| format!("invalid value for --entity: `{v}`"))?;
            (CandidateRequest::entity(EntityId(id)), format!("entity {id}"))
        }
        (None, Some(text)) => {
            let side: usize = args.get_parsed("side", 1)?;
            if side != 1 && side != 2 {
                return Err(format!("--side must be 1 or 2, got {side}"));
            }
            let profile = EntityProfile::new("probe").with("text", text);
            (CandidateRequest::probe(profile, side == 1), format!("probe {text:?}"))
        }
        _ => return Err("exactly one of --entity or --text is required".into()),
    };
    match retention_flags(args)? {
        Some(retention) => Ok((request.with_retention(retention), subject)),
        None => Ok((request, subject)),
    }
}

/// Renders the candidate listing shared by `er query` and `er client query`.
fn render_candidates(out: &mut String, subject: &str, response: &CandidateResponse) {
    let scored = match response.first() {
        Some(s) => s,
        None => return,
    };
    let _ =
        writeln!(out, "query:      {subject}, {} ({})", response.scheme.name(), response.retention);
    let _ = writeln!(
        out,
        "touched:    {} blocks, {} edges scored",
        scored.blocks_touched, scored.edges_scored
    );
    let _ = writeln!(out, "candidates: {}", scored.candidates.len());
    for (rank, c) in scored.candidates.iter().enumerate() {
        let _ = writeln!(out, "  {:>3}. entity {:<8} w = {:.6}", rank + 1, c.id.0, c.weight);
    }
}

/// `er query`: load a snapshot and answer one candidate query — for an
/// indexed entity (`--entity`) or an unseen probe profile (`--text`).
pub fn query(args: &Args) -> Result<String, String> {
    check_options(
        args,
        &["snapshot", "entity", "text", "side", "top", "retention", "scheme", "report"],
    )?;
    let path = args.require("snapshot")?;
    let report_path = args.get("report");
    let mut report = RunReport::new("er-query");
    let mut noop = Noop;
    let obs: &mut dyn Observer = if report_path.is_some() { &mut report } else { &mut noop };
    let (request, subject) = candidate_request(args)?;

    // Served as generation 1 of a cell, as `er serve` would: write-ahead
    // delta runs the snapshot carries (`er snapshot apply`) are replayed, so
    // the answers reflect every persisted op.
    let view = SnapshotView::read_from(Path::new(path), obs)
        .map_err(|e| format!("loading {path}: {e}"))?;
    let scheme: WeightingScheme = match args.get("scheme") {
        Some(s) => s.parse()?,
        None => view.snapshot().config().weighting,
    };
    let generation = GenerationCell::new(view).map_err(|e| format!("loading {path}: {e}"))?.load();
    let mut engine = QueryEngine::generation_with_scheme(&generation, scheme);
    let (kind, entities) = (engine.kind(), engine.num_entities());
    let response = engine.execute(&request, obs).map_err(|e| e.to_string())?;
    if let Some(p) = report_path {
        report.set_meta("snapshot", path);
        report.set_meta("weighting", scheme.token());
        report.write_to(p.as_ref()).map_err(|e| format!("writing {p}: {e}"))?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "snapshot:   {path} ({kind:?} ER, {entities} entities)");
    render_candidates(&mut out, &subject, &response);
    Ok(out)
}

/// `er serve`: load a snapshot and serve candidate queries over the wire
/// protocol until a client sends shutdown. Writes the bound address to
/// `--port-file` (for supervisors that asked for an ephemeral port) and
/// polls `--trigger` for file-based reloads.
pub fn serve(args: &Args) -> Result<String, String> {
    check_options(args, &["snapshot", "addr", "port-file", "trigger", "report", "report-every"])?;
    let path = args.require("snapshot")?;
    let snapshot = SnapshotView::read_from(Path::new(path), &mut Noop)
        .map_err(|e| format!("loading {path}: {e}"))?;
    let config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_owned(),
        trigger_path: args.get("trigger").map(PathBuf::from),
        report_path: args.get("report").map(PathBuf::from),
        report_every: args.get_parsed("report-every", 100u64)?,
        ..ServerConfig::default()
    };
    let handle = Server::start(snapshot, config).map_err(|e| e.to_string())?;
    let addr = handle.local_addr();
    if let Some(port_file) = args.get("port-file") {
        std::fs::write(port_file, addr.to_string())
            .map_err(|e| format!("writing {port_file}: {e}"))?;
    }
    {
        // Stdout carries the final summary; the liveness line goes to
        // stderr so scripts can capture either independently.
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), "serving {path} on {addr} (generation 1)");
    }
    let report = handle.wait();
    Ok(format!(
        "server drained: {} requests served, final generation {}\n",
        report.counter_total(mb_observe::Counter::RequestsServed),
        report.meta("generation").unwrap_or("1"),
    ))
}

fn client_connect(args: &Args) -> Result<Client, String> {
    let addr = args.require("addr")?;
    Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))
}

/// `er client <query|upsert|delete|compact|reload|shutdown>`: drive a
/// running `er serve` over the wire protocol.
pub fn client(args: &Args) -> Result<String, String> {
    match args.positional(1) {
        Some("query") => client_query(args),
        Some("upsert") => client_upsert(args),
        Some("delete") => client_delete(args),
        Some("compact") => client_compact(args),
        Some("reload") => client_reload(args),
        Some("shutdown") => client_shutdown(args),
        Some(other) => Err(format!(
            "unknown client subcommand `{other}` \
             (expected query|upsert|delete|compact|reload|shutdown)"
        )),
        None => Err("usage: er client <query|upsert|delete|compact|reload|shutdown> \
             --addr <host:port> ..."
            .into()),
    }
}

/// `er client query`: the same target/retention flags as `er query`,
/// answered by the server's generation instead of a locally loaded file.
fn client_query(args: &Args) -> Result<String, String> {
    check_options(args, &["addr", "entity", "text", "side", "top", "retention"])?;
    let (request, subject) = candidate_request(args)?;
    let mut client = client_connect(args)?;
    let response = client.execute(&request).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ =
        writeln!(out, "server:     {} (generation {})", args.require("addr")?, response.generation);
    render_candidates(&mut out, &subject, &response);
    Ok(out)
}

/// `er client upsert`: apply one live upsert — appending a new entity by
/// default, or replacing `--entity N` in place — and report the id it
/// resolved to plus the delta generation now serving. The entity is
/// queryable the moment this returns (`er client query --entity <id>`).
fn client_upsert(args: &Args) -> Result<String, String> {
    check_options(args, &["addr", "text", "uri", "entity"])?;
    let text = args.require("text")?;
    let profile = EntityProfile::new(args.get("uri").unwrap_or("upsert")).with("text", text);
    let id: u32 = match args.get("entity") {
        Some(v) => v.parse().map_err(|_| format!("invalid value for --entity: `{v}`"))?,
        None => APPEND,
    };
    let mut client = client_connect(args)?;
    let (generation, id) = client.upsert(id, &profile).map_err(|e| e.to_string())?;
    Ok(format!("upserted entity {id}: serving generation {generation}\n"))
}

/// `er client delete`: tombstone a live entity. It stops appearing as a
/// candidate immediately; its id is not reused until compaction renumbers.
fn client_delete(args: &Args) -> Result<String, String> {
    check_options(args, &["addr", "entity"])?;
    let v = args.require("entity")?;
    let id: u32 = v.parse().map_err(|_| format!("invalid value for --entity: `{v}`"))?;
    let mut client = client_connect(args)?;
    let generation = client.delete(id).map_err(|e| e.to_string())?;
    Ok(format!("tombstoned entity {id}: serving generation {generation}\n"))
}

/// `er client compact`: fold the accumulated deltas into a clean rebuild
/// over the bundle at `--dataset` (a path on the server's filesystem),
/// optionally persisting the compacted snapshot to `--out`, and swap it in
/// — unless a concurrent delta landed mid-rebuild, in which case the old
/// generation keeps serving and the command reports the conflict.
fn client_compact(args: &Args) -> Result<String, String> {
    check_options(args, &["addr", "dataset", "out"])?;
    let bundle = args.require("dataset")?;
    let mut client = client_connect(args)?;
    let generation = client.compact(bundle, args.get("out")).map_err(|e| e.to_string())?;
    Ok(format!("compacted {bundle}: serving generation {generation}\n"))
}

/// `er client reload`: zero-downtime swap to the snapshot at `--snapshot`
/// (a path on the server's filesystem).
fn client_reload(args: &Args) -> Result<String, String> {
    check_options(args, &["addr", "snapshot"])?;
    let path = args.require("snapshot")?;
    let mut client = client_connect(args)?;
    let generation = client.reload(path).map_err(|e| e.to_string())?;
    Ok(format!("reloaded {path}: serving generation {generation}\n"))
}

/// `er client shutdown`: drain and stop the server.
fn client_shutdown(args: &Args) -> Result<String, String> {
    check_options(args, &["addr"])?;
    let client = client_connect(args)?;
    let generation = client.shutdown().map_err(|e| e.to_string())?;
    Ok(format!("server shut down at generation {generation}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("er_cli_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn generate_then_stats_then_run() {
        let dir = temp_dir("pipeline");
        let dir_s = dir.to_str().unwrap();
        let msg = generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--seed", "5"]))
            .unwrap();
        assert!(msg.contains("450 profiles"));

        let s = stats(&argv(&["stats", "--dataset", dir_s])).unwrap();
        assert!(s.contains("PC(B):"), "{s}");

        let r = run(&argv(&[
            "run",
            "--dataset",
            dir_s,
            "--scheme",
            "js",
            "--pruning",
            "reciprocal-wnp",
            "--filter",
            "0.8",
        ]))
        .unwrap();
        assert!(r.contains("JS + Reciprocal WNP"), "{r}");
        assert!(r.contains("recall"), "{r}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_writes_comparisons_csv() {
        let dir = temp_dir("outcsv");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let out_csv = dir.join("pairs.csv");
        run(&argv(&[
            "run",
            "--dataset",
            dir_s,
            "--pruning",
            "cep",
            "--out",
            out_csv.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out_csv).unwrap();
        assert!(text.starts_with("left,right\n"));
        assert!(text.lines().count() > 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_accepts_threads_zero_as_auto() {
        let dir = temp_dir("threads0");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let r =
            run(&argv(&["run", "--dataset", dir_s, "--pruning", "cnp", "--threads", "0"])).unwrap();
        assert!(r.contains("CNP"), "{r}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_writes_stage_report_json() {
        let dir = temp_dir("report");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let report = dir.join("report.json");
        run(&argv(&[
            "run",
            "--dataset",
            dir_s,
            "--pruning",
            "wep",
            "--filter",
            "0.8",
            "--threads",
            "2",
            "--report",
            report.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&report).unwrap();
        let parsed = mb_observe::RunReport::from_json_str(&text).unwrap();
        assert_eq!(parsed.meta("pruning"), Some("wep"));
        // The breakdown covers the whole workflow: block building, block
        // cleaning, and all three Figure-7(a) meta-blocking stages.
        use mb_observe::Stage;
        for stage in [
            Stage::Blocking,
            Stage::Purging,
            Stage::BlockFiltering,
            Stage::EdgeWeighting,
            Stage::Pruning,
        ] {
            assert!(parsed.stage(stage).is_some(), "missing {stage}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_free_and_sweep() {
        let dir = temp_dir("graphfree");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&[
            "generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3", "--dirty",
        ]))
        .unwrap();
        let r = run(&argv(&["run", "--dataset", dir_s, "--pruning", "graph-free"])).unwrap();
        assert!(r.contains("Graph-free"), "{r}");
        let s =
            sweep_filter(&argv(&["sweep-filter", "--dataset", dir_s, "--step", "0.25"])).unwrap();
        assert_eq!(s.lines().count(), 2 + 4, "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_build_inspect_query_roundtrip() {
        let dir = temp_dir("serve");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let snap = dir.join("index.mbsnap");
        let snap_s = snap.to_str().unwrap();
        let msg = snapshot(&argv(&[
            "snapshot",
            "build",
            "--dataset",
            dir_s,
            "--out",
            snap_s,
            "--scheme",
            "cbs",
            "--pruning",
            "cnp",
            "--filter",
            "0.8",
        ]))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        // Plain inspect is the header-only fast path: version, file size
        // and the section table, nothing decoded.
        let info = snapshot(&argv(&["snapshot", "inspect", "--snapshot", snap_s])).unwrap();
        assert!(info.contains("format version:     5"), "{info}");
        assert!(info.contains("file size:"), "{info}");
        assert!(info.contains("tokblob"), "{info}");
        assert!(!info.contains("CNP threshold"), "{info}");

        let full =
            snapshot(&argv(&["snapshot", "inspect", "--snapshot", snap_s, "--full"])).unwrap();
        assert!(full.contains("format version:     5"), "{full}");
        assert!(full.contains("CleanClean ER"), "{full}");
        assert!(full.contains("CNP threshold"), "{full}");
        assert!(full.contains("\"weighting\":\"cbs\""), "{full}");

        let report = dir.join("query.json");
        let q = query(&argv(&[
            "query",
            "--snapshot",
            snap_s,
            "--entity",
            "0",
            "--top",
            "5",
            "--report",
            report.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(q.contains("entity 0"), "{q}");
        assert!(q.contains("candidates:"), "{q}");
        let parsed =
            mb_observe::RunReport::from_json_str(&std::fs::read_to_string(&report).unwrap())
                .unwrap();
        assert!(parsed.stage(mb_observe::Stage::SnapshotLoad).is_some());
        assert!(parsed.stage(mb_observe::Stage::Query).is_some());

        let p =
            query(&argv(&["query", "--snapshot", snap_s, "--text", "record alpha", "--side", "2"]))
                .unwrap();
        assert!(p.contains("probe \"record alpha\""), "{p}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_and_query_errors_are_helpful() {
        let dir = temp_dir("serve_err");
        let dir_s = dir.to_str().unwrap();
        assert!(snapshot(&argv(&["snapshot"])).unwrap_err().contains("build|inspect"));
        assert!(snapshot(&argv(&["snapshot", "prune"])).unwrap_err().contains("unknown snapshot"));
        assert!(query(&argv(&["query", "--snapshot", "/nonexistent.mbsnap", "--entity", "0"]))
            .unwrap_err()
            .contains("loading"));

        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let snap = dir.join("index.mbsnap");
        let snap_s = snap.to_str().unwrap();
        snapshot(&argv(&["snapshot", "build", "--dataset", dir_s, "--out", snap_s])).unwrap();
        assert!(query(&argv(&["query", "--snapshot", snap_s]))
            .unwrap_err()
            .contains("--entity or --text"));
        assert!(query(&argv(&["query", "--snapshot", snap_s, "--entity", "999999"]))
            .unwrap_err()
            .contains("out of range"));
        assert!(query(&argv(&["query", "--snapshot", snap_s, "--text", "x", "--side", "3"]))
            .unwrap_err()
            .contains("--side"));

        // A corrupted snapshot is rejected with the typed decode error.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let err = query(&argv(&["query", "--snapshot", snap_s, "--entity", "0"])).unwrap_err();
        assert!(err.contains("loading"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_accepts_typed_retention_tokens() {
        let dir = temp_dir("retention");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let snap = dir.join("index.mbsnap");
        let snap_s = snap.to_str().unwrap();
        snapshot(&argv(&["snapshot", "build", "--dataset", dir_s, "--out", snap_s])).unwrap();

        let q = query(&argv(&[
            "query",
            "--snapshot",
            snap_s,
            "--entity",
            "0",
            "--retention",
            "top-k=3",
        ]))
        .unwrap();
        assert!(q.contains("(top-k=3)"), "{q}");
        let q = query(&argv(&[
            "query",
            "--snapshot",
            snap_s,
            "--entity",
            "0",
            "--retention",
            "above-mean",
        ]))
        .unwrap();
        assert!(q.contains("(above-mean)"), "{q}");

        let err =
            query(&argv(&["query", "--snapshot", snap_s, "--entity", "0", "--retention", "best"]))
                .unwrap_err();
        assert!(err.contains("unknown retention"), "{err}");
        let err = query(&argv(&[
            "query",
            "--snapshot",
            snap_s,
            "--entity",
            "0",
            "--top",
            "3",
            "--retention",
            "top-k=3",
        ]))
        .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_client_round_trip() {
        let dir = temp_dir("serve_client");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&["generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3"]))
            .unwrap();
        let snap = dir.join("index.mbsnap");
        let snap_s = snap.to_str().unwrap().to_owned();
        snapshot(&argv(&["snapshot", "build", "--dataset", dir_s, "--out", &snap_s])).unwrap();
        let next = dir.join("next.mbsnap");
        let next_s = next.to_str().unwrap().to_owned();
        snapshot(&argv(&[
            "snapshot",
            "build",
            "--dataset",
            dir_s,
            "--out",
            &next_s,
            "--scheme",
            "cbs",
        ]))
        .unwrap();

        // `er serve` blocks until shutdown, so park it on a thread; the
        // port file tells us where it bound.
        let port_file = dir.join("port");
        let port_file_s = port_file.to_str().unwrap().to_owned();
        let serve_snap = snap_s.clone();
        let server = std::thread::spawn(move || {
            serve(&argv(&["serve", "--snapshot", &serve_snap, "--port-file", &port_file_s]))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !port_file.exists() {
            assert!(std::time::Instant::now() < deadline, "server never wrote its port file");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let addr = std::fs::read_to_string(&port_file).unwrap();

        let q = client(&argv(&["client", "query", "--addr", &addr, "--entity", "0", "--top", "5"]))
            .unwrap();
        assert!(q.contains("generation 1"), "{q}");
        assert!(q.contains("candidates:"), "{q}");

        let r =
            client(&argv(&["client", "reload", "--addr", &addr, "--snapshot", &next_s])).unwrap();
        assert!(r.contains("generation 2"), "{r}");
        let q = client(&argv(&[
            "client",
            "query",
            "--addr",
            &addr,
            "--text",
            "record alpha",
            "--side",
            "2",
        ]))
        .unwrap();
        assert!(q.contains("generation 2"), "{q}");

        let s = client(&argv(&["client", "shutdown", "--addr", &addr])).unwrap();
        assert!(s.contains("shut down at generation 2"), "{s}");
        let summary = server.join().unwrap().unwrap();
        // Two queries answered, one reload: the count and the generation
        // the report carries when `ServerHandle::wait` hands it over.
        assert_eq!(summary, "server drained: 2 requests served, final generation 2\n");

        assert!(client(&argv(&["client"]))
            .unwrap_err()
            .contains("query|upsert|delete|compact|reload|shutdown"));
        assert!(client(&argv(&["client", "ping"])).unwrap_err().contains("unknown client"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_apply_stages_deltas_that_query_replays() {
        let dir = temp_dir("apply");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&[
            "generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3", "--dirty",
        ]))
        .unwrap();
        let snap = dir.join("index.mbsnap");
        let snap_s = snap.to_str().unwrap();
        snapshot(&argv(&["snapshot", "build", "--dataset", dir_s, "--out", snap_s])).unwrap();
        let view = SnapshotView::read_from(&snap, &mut Noop).unwrap();
        let base_entities = view.snapshot().num_entities() as u32;
        drop(view);

        // Stage an append offline; the op resolves to the next free id.
        let msg =
            snapshot(&argv(&["snapshot", "apply", "--snapshot", snap_s, "--text", "record alpha"]))
                .unwrap();
        assert!(msg.contains(&format!("upserted entity {base_entities} (1 delta runs)")), "{msg}");
        // A second run composes on top of the first.
        let msg =
            snapshot(&argv(&["snapshot", "apply", "--snapshot", snap_s, "--delete", "0"])).unwrap();
        assert!(msg.contains("tombstoned entity 0 (2 delta runs)"), "{msg}");

        let full =
            snapshot(&argv(&["snapshot", "inspect", "--snapshot", snap_s, "--full"])).unwrap();
        assert!(full.contains("delta runs:         2 (2 ops)"), "{full}");

        // Loading replays the runs: the appended entity is queryable, the
        // tombstoned one answers empty.
        let q = query(&argv(&[
            "query",
            "--snapshot",
            snap_s,
            "--entity",
            &base_entities.to_string(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(q.contains(&format!("entity {base_entities}")), "{q}");
        let gone = query(&argv(&["query", "--snapshot", snap_s, "--entity", "0"])).unwrap();
        assert!(gone.contains("candidates: 0"), "tombstoned entity still answers: {gone}");

        // Usage errors stay typed and early.
        let err = snapshot(&argv(&["snapshot", "apply", "--snapshot", snap_s])).unwrap_err();
        assert!(err.contains("exactly one of --delete or --text"), "{err}");
        let err = snapshot(&argv(&[
            "snapshot",
            "apply",
            "--snapshot",
            snap_s,
            "--delete",
            "0",
            "--text",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let err = snapshot(&argv(&[
            "snapshot",
            "apply",
            "--snapshot",
            snap_s,
            "--delete",
            "0",
            "--entity",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("--entity/--uri only apply to upserts"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_upsert_delete_compact_round_trip() {
        let dir = temp_dir("client_delta");
        let dir_s = dir.to_str().unwrap();
        generate(&argv(&[
            "generate", "--preset", "tiny", "--out", dir_s, "--scale", "0.3", "--dirty",
        ]))
        .unwrap();
        let snap = dir.join("index.mbsnap");
        let snap_s = snap.to_str().unwrap().to_owned();
        snapshot(&argv(&["snapshot", "build", "--dataset", dir_s, "--out", &snap_s])).unwrap();
        let view = SnapshotView::read_from(&snap, &mut Noop).unwrap();
        let base_entities = view.snapshot().num_entities() as u32;
        drop(view);

        let port_file = dir.join("port");
        let port_file_s = port_file.to_str().unwrap().to_owned();
        let serve_snap = snap_s.clone();
        let server = std::thread::spawn(move || {
            serve(&argv(&["serve", "--snapshot", &serve_snap, "--port-file", &port_file_s]))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !port_file.exists() {
            assert!(std::time::Instant::now() < deadline, "server never wrote its port file");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let addr = std::fs::read_to_string(&port_file).unwrap();

        // Append a profile and query it in the same breath.
        let u = client(&argv(&["client", "upsert", "--addr", &addr, "--text", "record alpha"]))
            .unwrap();
        assert!(
            u.contains(&format!("upserted entity {base_entities}: serving generation 2")),
            "{u}"
        );
        let q = client(&argv(&[
            "client",
            "query",
            "--addr",
            &addr,
            "--entity",
            &base_entities.to_string(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(q.contains("generation 2"), "{q}");

        let d = client(&argv(&[
            "client",
            "delete",
            "--addr",
            &addr,
            "--entity",
            &base_entities.to_string(),
        ]))
        .unwrap();
        assert!(
            d.contains(&format!("tombstoned entity {base_entities}: serving generation 3")),
            "{d}"
        );

        // Compaction folds the (now self-cancelling) deltas into a clean
        // rebuild over the bundle — bit-identical to the original build.
        let compacted = dir.join("compacted.mbsnap");
        let compacted_s = compacted.to_str().unwrap().to_owned();
        let c = client(&argv(&[
            "client",
            "compact",
            "--addr",
            &addr,
            "--dataset",
            dir_s,
            "--out",
            &compacted_s,
        ]))
        .unwrap();
        assert!(c.contains("serving generation 4"), "{c}");
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            std::fs::read(&compacted).unwrap(),
            "compacting an upsert+delete pair must reproduce the original snapshot bytes"
        );
        let q = client(&argv(&["client", "query", "--addr", &addr, "--entity", "0"])).unwrap();
        assert!(q.contains("generation 4"), "{q}");

        let s = client(&argv(&["client", "shutdown", "--addr", &addr])).unwrap();
        assert!(s.contains("generation 4"), "{s}");
        server.join().unwrap().unwrap();

        // Flag validation happens before any connection is attempted.
        let err = client(&argv(&["client", "upsert", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--text"), "{err}");
        let err = client(&argv(&["client", "delete", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--entity"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(generate(&argv(&["generate", "--preset", "nope", "--out", "/tmp/x"]))
            .unwrap_err()
            .contains("unknown preset"));
        assert!(
            generate(&argv(&["generate"])).unwrap_err().contains("--out")
                || generate(&argv(&["generate"])).unwrap_err().contains("--preset")
        );
        assert!(run(&argv(&["run", "--dataset", "/nonexistent-er-dir"]))
            .unwrap_err()
            .contains("loading"));
        assert!(run(&argv(&["run", "--dataset", "x", "--schema", "js"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(stats(&argv(&["stats", "--dataset", "x", "--bogus", "1"]))
            .unwrap_err()
            .contains("bogus"));
        // The removed per-query sharding flags are rejected, not ignored.
        let err = query(&argv(&["query", "--snapshot", "x", "--entity", "0", "--shards", "4"]))
            .unwrap_err();
        assert_eq!(err, "unknown option(s): --shards");
        let err = serve(&argv(&["serve", "--snapshot", "x", "--shard-threads", "2"])).unwrap_err();
        assert_eq!(err, "unknown option(s): --shard-threads");
        // So are the removed out-of-core build flags.
        for removed in [&["--out-of-core"][..], &["--spill-budget-mb", "64"], &["--spill-dir", "d"]]
        {
            let mut tokens = vec!["snapshot", "build", "--dataset", "x", "--out", "y"];
            tokens.extend_from_slice(removed);
            let err = snapshot(&argv(&tokens)).unwrap_err();
            assert_eq!(err, format!("unknown option(s): {}", removed[0]));
        }
    }

    #[test]
    fn usage_names_every_preset() {
        let names: Vec<&str> = PRESETS.iter().map(|&(name, _)| name).collect();
        let listed = format!("--preset <{}>", names.join("|"));
        assert!(crate::USAGE.contains(&listed), "usage lacks `{listed}`");
    }

    #[test]
    fn top_is_shorthand_for_the_typed_retention_and_obeys_its_rule() {
        // Retention is resolved before anything is loaded or connected to,
        // so neither the snapshot nor the server has to exist.
        let query_err = |flag: &str, value: &str| {
            query(&argv(&["query", "--snapshot", "x", "--entity", "0", flag, value])).unwrap_err()
        };
        let client_err = |flag: &str, value: &str| {
            client(&argv(&[
                "client",
                "query",
                "--addr",
                "127.0.0.1:1",
                "--entity",
                "0",
                flag,
                value,
            ]))
            .unwrap_err()
        };
        let expected = "top-k retention needs a positive count, got '0'";
        assert_eq!(query_err("--top", "0"), expected);
        assert_eq!(query_err("--retention", "top-k=0"), expected);
        assert_eq!(client_err("--top", "0"), expected);
        assert_eq!(client_err("--retention", "top-k=0"), expected);
        assert_eq!(query_err("--top", "many"), query_err("--retention", "top-k=many"));

        let flags = |tokens: &[&str]| retention_flags(&argv(tokens)).unwrap();
        assert_eq!(flags(&["query", "--top", "5"]), Some(Retention::TopK(5)));
        assert_eq!(flags(&["query", "--top", "5"]), flags(&["query", "--retention", "top-k=5"]));
        assert_eq!(flags(&["query"]), None);
    }

    #[test]
    fn scale_validation() {
        assert!(generate(&argv(&[
            "generate", "--preset", "tiny", "--out", "/tmp/x", "--scale", "1.5"
        ]))
        .unwrap_err()
        .contains("--scale"));
    }
}
