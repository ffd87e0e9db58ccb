//! `erbench`: one workload per process, measured from outside the program.
//!
//! ```text
//! erbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//! erbench aa --a DIR --b DIR --spec BENCHMARK.json [--workloads A,B] [--readme FILE]
//! erbench spread --dir DIR --spec BENCHMARK.json --seeds 1,2,... [--workloads A,B]
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 0` measures the end-to-end metrics with no span
//! recorded; `--trace 1` wraps every public call in a benchmark-side span,
//! runs the per-layer probe suite and writes `trace-<workload>.json`.
//! `benchmark/run.sh` builds this binary and drives it; see the README.

#![warn(missing_docs)]

mod batch;
mod calibrate;
mod fixture;
mod layers;
mod ops;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use batch::Digest;
use calibrate::{Echo, Kernel};
use fixture::{Data, Mode, Plan, Served};
use layers::{Counts, Suite, PROTOCOL_CALLS};
use ops::Mix;
use report::Metrics;
use serve::{Oracle, Rep, Traffic};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Repetition counts and stream lengths: the measured sizes, or the
/// `--smoke` ones that only prove the code paths run.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// Set-ups per untraced run; `setup_s` is their median.
    setups: usize,
    /// Repetitions of the measured phase before the clock may end it.
    min_reps: usize,
    /// Traced and untraced repetitions each, in a traced run.
    trace_reps: usize,
    /// Layer-suite passes before the clock may end them, and at most.
    passes: (usize, usize),
    /// Ops per connection and repetition of an entity stream,
    entity_ops: usize,
    /// of a probe stream,
    probe_ops: usize,
    /// and of a mixed stream.
    mixed_ops: usize,
}

const FULL: Scale = Scale {
    setups: 3,
    min_reps: 5,
    trace_reps: 2,
    passes: (2, 5),
    entity_ops: 5_000,
    probe_ops: 3_000,
    mixed_ops: 3_000,
};
const SMOKE: Scale = Scale {
    setups: 1,
    min_reps: 1,
    trace_reps: 1,
    passes: (1, 1),
    entity_ops: 300,
    probe_ops: 300,
    mixed_ops: 300,
};

#[derive(Debug)]
struct RunArgs {
    plan: Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{flag} needs a value")),
    }
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    value(args, flag)?.ok_or(format!("missing {flag}"))
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace", "--out-dir"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => i += 1,
            flag if known.contains(&flag) => i += 2,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = required(args, "--workload")?;
    let plan = Plan::by_name(name)
        .ok_or(format!("unknown workload '{name}' (one of {})", spec::WORKLOADS.join(", ")))?;
    let number = |flag: &str, default: f64| match value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse::<f64>().map_err(|_| format!("{flag} takes a number, got '{v}'")),
    };
    let seed = match value(args, "--seed")? {
        None => 13,
        Some(v) => v.parse::<u64>().map_err(|_| format!("--seed takes an integer, got '{v}'"))?,
    };
    Ok(RunArgs {
        plan,
        seed,
        seconds: number("--seconds", 15.0)?,
        trace: number("--trace", 0.0)? != 0.0,
        smoke: args.iter().any(|a| a == "--smoke"),
        out_dir: PathBuf::from(value(args, "--out-dir")?.unwrap_or("benchmark/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("aa") => aa(&args[1..]),
        Some("spread") => spread(&args[1..]),
        _ => run_args(&args).and_then(|a| run(&a)).map(|line| {
            println!("{line}");
            true
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("erbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Reads `--spec`, narrowed to `--workloads a,b` when given.
fn declared(args: &[String]) -> Result<report::Declared, String> {
    let spec = required(args, "--spec")?;
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    let mut declared = report::declared(&text)?;
    if let Some(only) = value(args, "--workloads")? {
        declared.workloads.retain(|w| only.split(',').any(|o| o == w));
    }
    Ok(declared)
}

/// `erbench aa`: compares two saved suites of untraced runs.
fn aa(args: &[String]) -> Result<bool, String> {
    let (a, b) = (required(args, "--a")?, required(args, "--b")?);
    let (table, breached) = report::aa_table(&declared(args)?, Path::new(a), Path::new(b))?;
    print!("{table}");
    if let Some(readme) = value(args, "--readme")? {
        report::splice(Path::new(readme), "aa", &table)?;
    }
    Ok(!breached)
}

/// `erbench spread`: quartile spread over saved runs on several seeds.
fn spread(args: &[String]) -> Result<bool, String> {
    let seeds = required(args, "--seeds")?
        .split(',')
        .map(|s| s.parse::<u64>().map_err(|_| format!("bad seed '{s}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let dir = Path::new(required(args, "--dir")?);
    let (table, breached) = report::spread_table(&declared(args)?, dir, &seeds)?;
    print!("{table}");
    Ok(!breached)
}

/// What a workload's inputs are, once set up.
struct Fixture {
    data: Data,
    /// Probe profiles (serve-probe needs them to run; traced runs always).
    probes: Vec<er_model::EntityProfile>,
    served: Option<Served>,
}

fn set_up(a: &RunArgs, tracer: &mut Tracer) -> Result<Fixture, String> {
    let data = fixture::generate(a.plan.dataset, a.seed, a.smoke)?;
    let probes = if a.trace || a.plan.mode == Mode::ServeProbe {
        fixture::probe_profiles(a.plan.dataset, a.seed, a.smoke)?
    } else {
        Vec::new()
    };
    let served = if a.plan.mode == Mode::Batch {
        None
    } else {
        std::fs::create_dir_all(&a.out_dir)
            .map_err(|e| format!("creating {}: {e}", a.out_dir.display()))?;
        let path = a.out_dir.join(format!("{}-{}.mbsnap", a.plan.name, std::process::id()));
        Some(fixture::serve(&data.collection, a.plan.config(), path, tracer, None)?)
    };
    Ok(Fixture { data, probes, served })
}

fn traffic(a: &RunArgs, scale: &Scale, fx: &Fixture) -> Traffic {
    let (mix, len) = match a.plan.mode {
        Mode::ServeProbe => (Mix::Probe { pool: fx.probes.len() as u32 }, scale.probe_ops),
        Mode::ServeMixed => (Mix::Mixed, scale.mixed_ops),
        Mode::ServeEntity | Mode::Batch => (Mix::Entity, scale.entity_ops),
    };
    Traffic::new(mix, a.seed, &fx.data, &fx.probes, fixture::MEASURED_CONNECTIONS, len)
}

/// Samples and checks the measured phase accumulates over repetitions.
#[derive(Debug, Default)]
struct Phase {
    /// One op's latency per repetition, µs: the read round-trip p50, or the
    /// whole pipeline run.
    latency_us: Vec<f64>,
    /// Ops per second per repetition: requests, or profiles through the
    /// pipeline.
    throughput: Vec<f64>,
    /// Host slowdown around each repetition (see [`calibrate`]).
    slowdown: Vec<f64>,
    /// Highest supported latency percentile per repetition, µs.
    tail_us: Vec<f64>,
    tail_percentile: f64,
    /// Write acknowledgement p50 per repetition, µs (`serve-mixed`).
    write_us: Vec<f64>,
    /// Compaction totals per repetition, ms (`serve-mixed`).
    compact_ms: Vec<f64>,
    /// Latency samples behind one repetition's percentiles.
    samples_per_rep: usize,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Batch: the retained stream every repetition must reproduce, and the
    /// last run's counts and filtered blocks.
    digest: Option<Digest>,
    blocks: u64,
    comparisons: u64,
    filtered: Option<er_model::BlockCollection>,
}

impl Phase {
    fn batch_rep(
        &mut self,
        a: &RunArgs,
        data: &Data,
        tracer: &mut Tracer,
        k: u64,
    ) -> Result<f64, String> {
        let run = batch::pipeline(data, &a.plan.config(), tracer, None, k)?;
        self.attempted += 1;
        if *self.digest.get_or_insert(run.digest) != run.digest {
            self.failed += 1;
            self.notes.push(format!("repetition {k} retained a different stream"));
        }
        self.latency_us.push(run.wall_ms * 1e3);
        self.throughput.push(data.collection.len() as f64 / (run.wall_ms / 1e3));
        (self.blocks, self.comparisons) = (run.blocks, run.comparisons);
        self.filtered = Some(run.filtered);
        self.samples_per_rep = 1;
        Ok(run.wall_ms / 1e3)
    }

    fn serve_rep(
        &mut self,
        a: &RunArgs,
        served: Option<&mut Served>,
        traffic: &Traffic,
        oracle: &mut Oracle<'_>,
        tracer: &mut Tracer,
        k: u64,
    ) -> Result<f64, String> {
        let served = served.ok_or("serve workload without a server")?;
        let mixed = a.plan.mode == Mode::ServeMixed;
        let rep: Rep = serve::repetition(served, traffic, mixed, oracle, tracer, None, k)?;
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.notes.extend(rep.notes.iter().take(3).cloned());
        self.latency_us.push(stats::percentile(&rep.read_us, 50.0));
        self.throughput.push(rep.throughput());
        self.samples_per_rep = rep.read_us.len();
        if let Some(p) = stats::tail_percentile(rep.read_us.len()) {
            self.tail_percentile = p;
            self.tail_us.push(stats::percentile(&rep.read_us, p));
        }
        if !rep.write_us.is_empty() {
            self.write_us.push(stats::percentile(&rep.write_us, 50.0));
        }
        if let Some(ms) = rep.compaction {
            self.compact_ms.push(ms.total());
        }
        Ok(rep.wall_s)
    }

    /// Median over repetitions of `samples` brought to reference host speed:
    /// times divide by the repetition's slowdown, rates multiply.
    fn at_reference_speed(&self, samples: &[f64], is_rate: bool) -> f64 {
        let scaled: Vec<f64> = samples
            .iter()
            .zip(&self.slowdown)
            .map(|(v, s)| if is_rate { v * s } else { v / s })
            .collect();
        stats::median(&scaled)
    }

    /// Repetitions are too few for a percentile: the tail is the slowest.
    fn batch_tail(&mut self) {
        self.tail_percentile = 100.0;
        self.tail_us = vec![self.latency_us.iter().copied().fold(0.0, f64::max)];
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kb = line.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok());
    kb.map(|kb| kb / 1024.0).ok_or("unreadable VmHWM line".to_owned())
}

/// Runs one workload, printing every metric by name, and returns the
/// result line.
fn run(a: &RunArgs) -> Result<String, String> {
    let scale = if a.smoke { SMOKE } else { FULL };
    let began = Instant::now();
    println!(
        "workload {} seed {} trace {} nproc {} connections {}{}",
        a.plan.name,
        a.seed,
        u8::from(a.trace),
        fixture::nproc(),
        if a.plan.mode == Mode::Batch { 0 } else { fixture::MEASURED_CONNECTIONS },
        if a.smoke { " (smoke: tiny dataset, numbers meaningless)" } else { "" }
    );
    let (specs, metrics, phase): (&[spec::MetricSpec], Metrics, Phase) =
        if a.trace { traced(a, &scale)? } else { untraced(a, &scale)? };
    for spec in specs {
        if let Some(v) = metrics.get(spec.name) {
            println!("{:<40} {v:>16.4} {}", spec.name, spec.unit);
        }
    }
    for note in phase.notes.iter().take(8) {
        println!("FAILED: {note}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted) in {:.1} s",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.failed,
        phase.attempted,
        began.elapsed().as_secs_f64()
    );
    report::result_line(phase.failed == 0, phase.attempted, phase.failed, specs, &metrics)
}

/// `--trace 0`: set up several times, run the measured phase for
/// `--seconds`, check, and report what a user of the system sees.
fn untraced(
    a: &RunArgs,
    scale: &Scale,
) -> Result<(&'static [spec::MetricSpec], Metrics, Phase), String> {
    let mut off = Tracer::new(false);
    // Serve workloads run on one CPU, server threads included.
    let serves = a.plan.mode != Mode::Batch;
    let pinned = if serves { Some(fixture::pin()?) } else { None };
    if let Some(pinned) = &pinned {
        println!("info process pinned to CPU {}", pinned.cpu);
    }
    let mut setup_s = Vec::new();
    let mut fx = None;
    let mut host = Vec::new();
    for _ in 0..scale.setups {
        // The previous server drains before the next set-up's clock starts.
        drop(fx.take());
        let before = calibrate::slowdown();
        let start = Instant::now();
        fx = Some(set_up(a, &mut off)?);
        let elapsed = start.elapsed().as_secs_f64();
        // Set-ups are one busy thread: reported at reference host speed.
        let slowdown = (before + calibrate::slowdown()) / 2.0;
        setup_s.push(elapsed / slowdown);
        host.push(slowdown);
    }
    let mut fx = fx.ok_or("no set-up ran")?;
    if let Some(served) = &fx.served {
        let ms = served.setup_ms;
        println!(
            "info snapshot_build_ms {:.2} snapshot_write_ms {:.2} snapshot_load_ms {:.3} \
             server_start_ms {:.3} snapshot_bytes_per_entity {:.1}",
            ms.build,
            ms.write,
            ms.load,
            ms.start,
            served.snapshot_bytes as f64 / fx.data.collection.len() as f64
        );
    }

    let mut phase = Phase::default();
    let traffic = serves.then(|| traffic(a, scale, &fx));
    let mut oracle = Oracle::new(&fx.data, a.plan.config());
    // Repetitions are brought to reference host speed: the workload's
    // calibration kernel runs between them, and a repetition's slowdown is
    // the mean of the two readings around it (see `calibrate`).
    let mut kernel = if serves { Kernel::Echo(Echo::start()?) } else { Kernel::Cpu };
    kernel.slowdown()?; // the first reading pays for cold caches
    let start = Instant::now();
    let mut reps = 0u64;
    let mut before = kernel.slowdown()?;
    while (reps as usize) < scale.min_reps || start.elapsed().as_secs_f64() < a.seconds {
        match &traffic {
            None => phase.batch_rep(a, &fx.data, &mut off, reps)?,
            Some(t) => phase.serve_rep(a, fx.served.as_mut(), t, &mut oracle, &mut off, reps)?,
        };
        let after = kernel.slowdown()?;
        phase.slowdown.push((before + after) / 2.0);
        before = after;
        reps += 1;
    }
    drop(kernel);
    if a.plan.mode == Mode::Batch {
        phase.batch_tail();
        // Untimed: threads = nproc must retain the same stream.
        let filtered = phase.filtered.take().ok_or("no pipeline run")?;
        let check = batch::cross_check(
            &fx.data,
            &a.plan.config(),
            &filtered,
            fixture::nproc(),
            &mut off,
            None,
        )?;
        phase.attempted += 1;
        if Some(check.digest) != phase.digest {
            phase.failed += 1;
            phase.notes.push(format!("threads = {} retained a different stream", fixture::nproc()));
        }
        println!(
            "info retained {} pc {:.4} pq {:.6} blocks {} comparisons {} metablock_tn_ms {:.1}",
            check.digest.count, check.pc, check.pq, phase.blocks, phase.comparisons, check.wall_ms
        );
    }
    println!(
        "info repetitions {reps} latency_samples_per_repetition {} tail p{} {:.2} us; as measured: \
         throughput_per_s {:.1} latency_p50_us {:.2}; host slowdown median {:.2} over set-ups, \
         {:.2} ({} kernel) over repetitions",
        phase.samples_per_rep,
        phase.tail_percentile,
        stats::median(&phase.tail_us),
        stats::median(&phase.throughput),
        stats::median(&phase.latency_us),
        stats::median(&host),
        stats::median(&phase.slowdown),
        if serves { "echo" } else { "cpu" }
    );
    if !phase.write_us.is_empty() {
        println!(
            "info write_p50_us {:.2} compact_ms {:.2}",
            stats::median(&phase.write_us),
            stats::median(&phase.compact_ms)
        );
    }

    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set("throughput_per_s", phase.at_reference_speed(&phase.throughput, true));
    metrics.set("latency_p50_us", phase.at_reference_speed(&phase.latency_us, false));
    drop(fx);
    metrics.set("peak_rss_mb", peak_rss_mb()?);
    Ok((&spec::END_TO_END, metrics, phase))
}

/// `--trace 1`: the measured phase with and without spans, then the layer
/// suite, every call wrapped in a span; writes the trace and reports the
/// per-layer metrics.
fn traced(
    a: &RunArgs,
    scale: &Scale,
) -> Result<(&'static [spec::MetricSpec], Metrics, Phase), String> {
    let began = Instant::now();
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    // A serve workload's measured phase runs on one CPU, as it does untraced.
    let pinned = if a.plan.mode == Mode::Batch { None } else { Some(fixture::pin()?) };
    let mut fx = set_up(a, &mut tracer)?;
    let traffic = (a.plan.mode != Mode::Batch).then(|| traffic(a, scale, &fx));
    let mut oracle = Oracle::new(&fx.data, a.plan.config());

    // The measured phase, alternating spans off and on.
    let (mut plain, mut spanned) = (Phase::default(), Phase::default());
    let (mut plain_s, mut spanned_s) = (Vec::new(), Vec::new());
    for k in 0..scale.trace_reps as u64 {
        for (phase, walls, t) in
            [(&mut plain, &mut plain_s, &mut off), (&mut spanned, &mut spanned_s, &mut tracer)]
        {
            walls.push(match &traffic {
                None => phase.batch_rep(a, &fx.data, t, k)?,
                Some(tr) => phase.serve_rep(a, fx.served.as_mut(), tr, &mut oracle, t, k)?,
            });
        }
    }
    if a.plan.mode == Mode::Batch {
        spanned.batch_tail();
        if plain.digest != spanned.digest {
            spanned.failed += 1;
            spanned.notes.push("traced and untraced runs retained different streams".to_owned());
        }
    }
    // The server and its connections go before the suite starts its own,
    // on all the CPUs this process has.
    drop(fx.served.take());
    drop(pinned);

    let mut counts =
        Counts { blocks: spanned.blocks, comparisons: spanned.comparisons, ..Counts::default() };
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("creating {}: {e}", a.out_dir.display()))?;
    let mut suite = Suite {
        plan: a.plan,
        data: &fx.data,
        probes: &fx.probes,
        config: a.plan.config(),
        path: a.out_dir.join(format!("{}-{}-layers.mbsnap", a.plan.name, std::process::id())),
        connections: fixture::connections(),
        seed: a.seed,
        digest: spanned.digest,
        filtered: spanned.filtered.take(),
    };
    let mut passes = 0;
    let mut host = vec![calibrate::slowdown()];
    while passes < scale.passes.0
        || (passes < scale.passes.1 && began.elapsed().as_secs_f64() < a.seconds)
    {
        suite.pass(&mut tracer, passes as u64, &mut counts)?;
        host.push(calibrate::slowdown());
        passes += 1;
    }
    println!(
        "info layer_passes {passes} measured_repetitions {}+{}",
        plain_s.len(),
        spanned_s.len()
    );

    let mut phase = spanned;
    phase.attempted += plain.attempted + counts.attempted;
    phase.failed += plain.failed + counts.failed;
    phase.notes.extend(plain.notes);
    phase.notes.extend(counts.notes.iter().cloned());

    let ms = |name: &str| stats::median(&tracer.durations_ns(name)) / 1e6;
    let us = |name: &str| stats::median(&tracer.durations_ns(name)) / 1e3;
    let per_call_us = |name: &str| us(name) / PROTOCOL_CALLS as f64;
    let n = fx.data.collection.len() as f64;
    let mut m = Metrics::default();
    m.set("nproc", fixture::nproc() as f64);
    m.set("host.slowdown", stats::median(&host));
    m.set("batch.pipeline_ms", ms("batch.pipeline"));
    m.set("batch.pipeline_self_ms", stats::median(&tracer.self_ns("batch.pipeline")) / 1e6);
    m.set("blocking.build_ms", ms("blocking.build"));
    m.set("blocking.purge_ms", ms("blocking.purge"));
    m.set("blocking.blocks", counts.blocks as f64);
    m.set("blocking.comparisons", counts.comparisons as f64);
    m.set("core.filter_ms", ms("core.filter"));
    m.set("core.filter.comparisons_out", counts.filtered_comparisons as f64);
    m.set("core.index_ms", ms("core.index"));
    m.set("core.weight_ms", ms("core.weight"));
    m.set("core.weight.edges", counts.edges_weighed as f64);
    m.set("core.metablock_ms", ms("core.metablock"));
    m.set("core.prune_self_ms", ms("core.metablock") - ms("core.index") - ms("core.weight"));
    m.set("core.prune.retained", counts.retained as f64);
    m.set("core.prune.pc", counts.pc);
    m.set("core.prune.pq", counts.pq);
    m.set("core.metablock_tn_ms", ms("core.metablock_tn"));
    m.set("serve.snapshot.build_ms", ms("serve.snapshot.build"));
    m.set("serve.snapshot.encode_ms", ms("serve.snapshot.encode"));
    m.set("serve.snapshot.write_ms", ms("serve.snapshot.write"));
    m.set("serve.snapshot.bytes_per_entity", counts.snapshot_bytes as f64 / n);
    m.set("serve.view.load_ms", ms("serve.view.load"));
    m.set("serve.engine.entity_us", us("serve.engine.entity"));
    m.set("serve.engine.probe_us", us("serve.engine.probe"));
    m.set("serve.engine.edges_scored_per_query", counts.edges_scored_per_query);
    m.set("serve.engine.blocks_touched_per_query", counts.blocks_touched_per_query);
    let codec = [
        "serve.protocol.request_encode",
        "serve.protocol.request_parse",
        "serve.protocol.response_encode",
        "serve.protocol.response_parse",
        "serve.protocol.frame",
    ];
    m.set("serve.protocol.request_encode_us", per_call_us(codec[0]));
    m.set("serve.protocol.request_parse_us", per_call_us(codec[1]));
    m.set("serve.protocol.response_encode_us", per_call_us(codec[2]));
    m.set("serve.protocol.response_parse_us", per_call_us(codec[3]));
    m.set("serve.protocol.frame_us", per_call_us(codec[4]));
    m.set("serve.protocol.request_bytes", counts.request_bytes);
    m.set("serve.protocol.response_bytes", counts.response_bytes);
    let rtt = stats::median(&counts.rtt_us);
    let engine =
        if a.plan.reads_probes() { us("serve.engine.probe") } else { us("serve.engine.entity") };
    m.set("serve.server.rtt_us", rtt);
    m.set(
        "serve.server.socket_self_us",
        rtt - engine - codec.iter().map(|c| per_call_us(c)).sum::<f64>(),
    );
    m.set("serve.server.rtt_1conn_p50_us", stats::median(&counts.rtt_1conn_us));
    m.set("serve.server.write_rtt_us", stats::median(&counts.write_rtt_us));
    m.set("serve.generation.apply_us", us("serve.generation.apply"));
    m.set("serve.generation.pin_us", us("serve.generation.pin"));
    m.set("serve.delta.overlay_ops", counts.overlay_ops as f64);
    m.set("serve.delta.tombstones", counts.tombstones as f64);
    m.set("serve.compact.merge_ms", ms("serve.compact.merge"));
    m.set("serve.compact.build_ms", ms("serve.compact.build"));
    m.set("serve.compact.swap_ms", ms("serve.compact.swap"));
    m.set("tail.latency_us", stats::median(&phase.tail_us));
    m.set("tail.percentile", phase.tail_percentile);
    m.set("tail.write_rtt_us", stats::median(&counts.write_tail_us));
    m.set("trace.latency_p50_us", stats::median(&phase.latency_us));
    m.set("trace.throughput_per_s", stats::median(&phase.throughput));
    m.set("trace.spans", tracer.len() as f64);
    m.set(
        "trace_overhead_pct",
        (stats::median(&spanned_s) / stats::median(&plain_s) - 1.0) * 100.0,
    );

    let out = a.out_dir.join(format!("trace-{}.json", a.plan.name));
    tracer.write_json(&out, a.plan.name, a.seed).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("info wrote {} spans to {}", tracer.len(), out.display());
    Ok((&spec::PER_LAYER, m, phase))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_observe::json::Json;

    /// Every workload, untraced and traced, on the `tiny` preset: the run is
    /// correct and its result line carries exactly the names `BENCHMARK.json`
    /// lists for that kind of run (`result_line` rejects a missing, extra or
    /// repeated name). One test, so the runs do not share snapshot paths.
    #[test]
    fn smoke_runs_emit_every_declared_metric_once() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for name in spec::WORKLOADS {
            for (trace, specs) in [(false, &spec::END_TO_END[..]), (true, &spec::PER_LAYER[..])] {
                let plan = Plan::by_name(name).expect("a listed workload");
                let args = RunArgs {
                    plan,
                    seed: 13,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out_dir: out_dir.clone(),
                };
                let line = run(&args).unwrap_or_else(|e| panic!("{name} trace {trace}: {e}"));
                let doc = Json::parse(&line).expect("a JSON result line");
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{name}: {line}");
                assert_eq!(doc.get("failed"), Some(&Json::Uint(0)), "{name}: {line}");
                let Some(Json::Obj(fields)) = doc.get("metrics") else { panic!("no metrics") };
                let got: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(got, specs.iter().map(|s| s.name).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload serve-probe --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = run_args(&args).expect("valid arguments");
        assert_eq!((a.plan.name, a.seed, a.seconds, a.trace), ("serve-probe", 7, 10.0, true));
        assert!(run_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(run_args(&["--bogus".to_owned()]).is_err());
    }
}
