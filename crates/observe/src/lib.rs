//! # mb-observe — workflow observability
//!
//! The paper's evaluation (Tables 5–6, Figure 10) is entirely about *where
//! time and comparisons go* across the Block Filtering → Edge Weighting →
//! Pruning workflow of Figure 7(a). This crate is the measurement substrate
//! that makes the per-stage split available to every binary and test without
//! taxing the hot paths:
//!
//! * [`Observer`] — the event consumer trait. The default implementation of
//!   every method is a no-op and [`Observer::enabled`] defaults to `false`,
//!   so the [`Noop`] observer costs one virtual call per *stage* (not per
//!   edge) and instrumented code skips all counter computation.
//! * [`Stage`] / [`StageEvent`] / [`StageStats`] — the event model: stage
//!   enter/exit with wall time, process CPU time, an allocation high-water
//!   mark and the [`Counter`] set (blocks in/out, comparisons in/out,
//!   assignments for BPE, edges weighed, neighborhoods scanned, retained
//!   comparisons, …).
//! * [`StageScope`] — the instrumentation helper: enter a stage, accumulate
//!   counters (only when the observer is enabled), emit one `Exit` event
//!   with the collected stats. Hot loops accumulate into local integers and
//!   flush once per stage, so the disabled cost is literally zero.
//! * Sinks: [`RunReport`] (in-memory aggregation with a JSON round-trip —
//!   what the `table5`/`table6` binaries write next to `results/`),
//!   [`Progress`] (human pretty-printer for `er run --progress`) and
//!   [`RingLog`] (bounded event log for deterministic tests).
//! * [`Tee`] — fan one event stream out to two observers.
//!
//! The crate is dependency-free; [`json`] is the minimal JSON emitter and
//! parser the workspace uses in place of serde (the build is offline by
//! policy — see DESIGN.md §1).

#![warn(missing_docs)]

pub mod alloc_track;
pub mod cpu;
pub mod json;
pub mod progress;
pub mod report;
pub mod ring;

pub use progress::Progress;
pub use report::RunReport;
pub use ring::RingLog;

use std::time::{Duration, Instant};

/// The workflow stages of the meta-blocking system, in the order of the
/// paper's Figure 7(a) (plus the block-building front end and the baseline
/// workflows the evaluation compares against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Redundancy-positive block building (e.g. Token Blocking).
    Blocking,
    /// Block Purging: dropping oversized blocks.
    Purging,
    /// Block Filtering (Algorithm 1).
    BlockFiltering,
    /// Blocking-graph materialization + edge weighting sweeps
    /// (Algorithms 2/3).
    EdgeWeighting,
    /// Graph pruning: any of the eight pruning schemes.
    Pruning,
    /// Comparison Propagation — the graph-free workflow's second step.
    ComparisonPropagation,
    /// The Iterative Blocking baseline (Table 6c).
    IterativeBlocking,
    /// Snapshot deserialization + validation (the mb-serve load path).
    SnapshotLoad,
    /// Applying one incremental delta (upsert/delete) to a live generation
    /// (mb-serve).
    DeltaApply,
    /// Folding accumulated deltas back into a clean snapshot (mb-serve).
    Compaction,
    /// Online candidate queries against a loaded snapshot (mb-serve).
    Query,
}

impl Stage {
    /// Every stage, in canonical workflow order.
    pub const ALL: [Stage; 11] = [
        Stage::Blocking,
        Stage::Purging,
        Stage::BlockFiltering,
        Stage::EdgeWeighting,
        Stage::Pruning,
        Stage::ComparisonPropagation,
        Stage::IterativeBlocking,
        Stage::SnapshotLoad,
        Stage::DeltaApply,
        Stage::Compaction,
        Stage::Query,
    ];

    /// Stable kebab-case identifier (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Blocking => "blocking",
            Stage::Purging => "purging",
            Stage::BlockFiltering => "block-filtering",
            Stage::EdgeWeighting => "edge-weighting",
            Stage::Pruning => "pruning",
            Stage::ComparisonPropagation => "comparison-propagation",
            Stage::IterativeBlocking => "iterative-blocking",
            Stage::SnapshotLoad => "snapshot-load",
            Stage::DeltaApply => "delta-apply",
            Stage::Compaction => "compaction",
            Stage::Query => "query",
        }
    }

    /// Parses [`Stage::name`] back; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether an enabled [`StageScope`] reads the process CPU clock around
    /// this stage. The two stages entered once per served request do not:
    /// the clock is `/proc/self/stat` (two file reads per scope, ~5 µs
    /// each), ticks every 10 ms against spans of a few µs, and sums every
    /// thread of the process, so under two connections it would bill one
    /// request for the other's CPU. Their [`StageStats::cpu`] is `None`,
    /// the shape non-Linux hosts already report.
    pub(crate) fn samples_process_cpu(self) -> bool {
        !matches!(self, Stage::Query | Stage::DeltaApply)
    }

    /// Position in the Figure-7(a) workflow order — useful for asserting
    /// event ordering in tests.
    pub fn workflow_rank(self) -> usize {
        match Stage::ALL.iter().position(|&s| s == self) {
            Some(i) => i,
            None => unreachable!("Stage::ALL covers every variant"),
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-stage counters the workflow reports.
///
/// Everything is a monotone `u64` so merging across runs, schemes and
/// threads is plain addition and the totals are bit-deterministic regardless
/// of thread count. Derived ratios (BPE = assignments / entities, retention
/// = comparisons out / in) are computed by consumers, never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Blocks entering the stage.
    BlocksIn,
    /// Blocks surviving the stage.
    BlocksOut,
    /// Comparisons entailed by the input blocks (`‖B‖`).
    ComparisonsIn,
    /// Comparisons entailed by the output blocks.
    ComparisonsOut,
    /// Block assignments (Σ|b|) entering the stage — BPE's numerator.
    AssignmentsIn,
    /// Block assignments surviving the stage.
    AssignmentsOut,
    /// Entity profiles in scope — BPE's denominator.
    Entities,
    /// Edges whose weight was evaluated (one per sweep visit; an edge
    /// revisited by a second sweep counts again, as in the paper's OTime).
    EdgesWeighed,
    /// Node neighborhoods materialized by a scanner sweep.
    NeighborhoodsScanned,
    /// Comparisons retained by the stage (`‖B′‖`, counting the original
    /// node-centric schemes' redundant repetitions).
    RetainedComparisons,
    /// Matches identified (Iterative Blocking).
    MatchesFound,
    /// Probe tokens looked up against a snapshot's key table (mb-serve).
    TokensProbed,
    /// Blocks visited while materializing query neighborhoods (mb-serve).
    BlocksTouched,
    /// Candidate edges whose weight a query evaluated (mb-serve).
    EdgesScored,
    /// Requests answered by the online candidate server (mb-serve).
    RequestsServed,
    /// Delta operations (upserts + deletes) applied to live generations
    /// (mb-serve).
    DeltasApplied,
    /// Entities tombstoned by delete deltas in the serving overlay
    /// (mb-serve).
    Tombstones,
    /// Allocation high-water mark (bytes) observed during the stage —
    /// non-zero only when [`alloc_track::TrackingAllocator`] is installed.
    AllocPeakBytes,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 18] = [
        Counter::BlocksIn,
        Counter::BlocksOut,
        Counter::ComparisonsIn,
        Counter::ComparisonsOut,
        Counter::AssignmentsIn,
        Counter::AssignmentsOut,
        Counter::Entities,
        Counter::EdgesWeighed,
        Counter::NeighborhoodsScanned,
        Counter::RetainedComparisons,
        Counter::MatchesFound,
        Counter::TokensProbed,
        Counter::BlocksTouched,
        Counter::EdgesScored,
        Counter::RequestsServed,
        Counter::DeltasApplied,
        Counter::Tombstones,
        Counter::AllocPeakBytes,
    ];

    /// Stable snake_case identifier (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::BlocksIn => "blocks_in",
            Counter::BlocksOut => "blocks_out",
            Counter::ComparisonsIn => "comparisons_in",
            Counter::ComparisonsOut => "comparisons_out",
            Counter::AssignmentsIn => "assignments_in",
            Counter::AssignmentsOut => "assignments_out",
            Counter::Entities => "entities",
            Counter::EdgesWeighed => "edges_weighed",
            Counter::NeighborhoodsScanned => "neighborhoods_scanned",
            Counter::RetainedComparisons => "retained_comparisons",
            Counter::MatchesFound => "matches_found",
            Counter::TokensProbed => "tokens_probed",
            Counter::BlocksTouched => "blocks_touched",
            Counter::EdgesScored => "edges_scored",
            Counter::RequestsServed => "requests_served",
            Counter::DeltasApplied => "deltas_applied",
            Counter::Tombstones => "tombstones",
            Counter::AllocPeakBytes => "alloc_peak_bytes",
        }
    }

    /// Parses [`Counter::name`] back; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    fn index(self) -> usize {
        match Counter::ALL.iter().position(|&c| c == self) {
            Some(i) => i,
            None => unreachable!("Counter::ALL covers every variant"),
        }
    }
}

/// A fixed-size bag of [`Counter`] values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    values: [u64; Counter::ALL.len()],
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Sets `counter` to `value`.
    pub fn set(&mut self, counter: Counter, value: u64) {
        self.values[counter.index()] = value;
    }

    /// Adds `delta` to `counter` (saturating — counters never wrap).
    pub fn add(&mut self, counter: Counter, delta: u64) {
        let v = &mut self.values[counter.index()];
        *v = v.saturating_add(delta);
    }

    /// Adds every value of `other` into `self` — the merge operation used
    /// when the same stage runs repeatedly (multiple sweeps, multiple
    /// weighting schemes) or across thread chunks.
    pub fn merge(&mut self, other: &Counters) {
        for c in Counter::ALL {
            self.add(c, other.get(c));
        }
    }

    /// The non-zero `(counter, value)` pairs, in reporting order.
    pub fn iter_set(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().filter_map(|c| {
            let v = self.get(c);
            (v != 0).then_some((c, v))
        })
    }

    /// Blocks-per-entity over the *output* side, when both ingredients were
    /// recorded: `assignments_out / entities`.
    pub fn bpe_out(&self) -> Option<f64> {
        let e = self.get(Counter::Entities);
        (e != 0 && self.get(Counter::AssignmentsOut) != 0)
            .then(|| self.get(Counter::AssignmentsOut) as f64 / e as f64)
    }
}

/// What one stage execution measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStats {
    /// Wall-clock time between enter and exit.
    pub wall: Duration,
    /// Process CPU time consumed between enter and exit (all threads);
    /// `None` where `/proc/self/stat` is unavailable, and always for
    /// [`Stage::Query`] and [`Stage::DeltaApply`], which are entered once
    /// per served request and never read that clock.
    pub cpu: Option<Duration>,
    /// The stage's counters.
    pub counters: Counters,
}

/// One observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum StageEvent {
    /// Work for `Stage` began.
    Enter(Stage),
    /// Work for `Stage` finished with the attached stats.
    Exit(Stage, StageStats),
}

impl StageEvent {
    /// The stage the event belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            StageEvent::Enter(s) | StageEvent::Exit(s, _) => *s,
        }
    }
}

/// An event consumer threaded through the workflow.
///
/// The contract that keeps instrumentation free when unused: *implementors
/// that do nothing return `false` from [`Observer::enabled`]*, and
/// instrumented code must consult it before computing anything that is not
/// already needed (e.g. `BlockCollection::total_comparisons` walks every
/// block). [`StageScope`] encodes that discipline.
pub trait Observer {
    /// Whether events will actually be consumed. Defaults to `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Receives one event. Defaults to dropping it.
    fn on_event(&mut self, event: &StageEvent) {
        let _ = event;
    }
}

/// The disabled observer — the default for every `run` entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Observer for Noop {}

/// Fans events out to two observers (e.g. a [`RunReport`] and a
/// [`Progress`] printer for `er run --progress --report …`).
pub struct Tee<'a, 'b> {
    first: &'a mut dyn Observer,
    second: &'b mut dyn Observer,
}

impl<'a, 'b> Tee<'a, 'b> {
    /// Combines two observers into one.
    pub fn new(first: &'a mut dyn Observer, second: &'b mut dyn Observer) -> Self {
        Tee { first, second }
    }
}

impl Observer for Tee<'_, '_> {
    fn enabled(&self) -> bool {
        self.first.enabled() || self.second.enabled()
    }

    fn on_event(&mut self, event: &StageEvent) {
        if self.first.enabled() {
            self.first.on_event(event);
        }
        if self.second.enabled() {
            self.second.on_event(event);
        }
    }
}

/// RAII-style instrumentation scope for one stage execution.
///
/// ```
/// use mb_observe::{Counter, RunReport, Stage, StageScope};
///
/// let mut report = RunReport::new("demo");
/// let mut scope = StageScope::enter(&mut report, Stage::Pruning);
/// let mut retained = 0u64; // hot loop counts locally…
/// for _ in 0..3 {
///     retained += 1;
/// }
/// scope.add(Counter::RetainedComparisons, retained); // …and flushes once
/// scope.finish();
/// assert_eq!(report.counter_total(Counter::RetainedComparisons), 3);
/// ```
///
/// With a disabled observer ([`Noop`]), `enter` skips the clock reads and
/// every `add` is a single predictable branch — instrumentation adds nothing
/// measurable to release hot paths.
pub struct StageScope<'o> {
    obs: &'o mut dyn Observer,
    stage: Stage,
    enabled: bool,
    start: Option<Instant>,
    cpu_start: Option<Duration>,
    counters: Counters,
}

impl<'o> StageScope<'o> {
    /// Emits `Enter` and starts the clocks (only when `obs` is enabled).
    pub fn enter(obs: &'o mut dyn Observer, stage: Stage) -> StageScope<'o> {
        let enabled = obs.enabled();
        let (start, cpu_start) = if enabled {
            obs.on_event(&StageEvent::Enter(stage));
            alloc_track::rebase_peak();
            let cpu_start =
                if stage.samples_process_cpu() { cpu::process_cpu_time() } else { None };
            (Some(Instant::now()), cpu_start)
        } else {
            (None, None)
        };
        StageScope { obs, stage, enabled, start, cpu_start, counters: Counters::new() }
    }

    /// Whether stats are being collected — consult before computing counter
    /// inputs that are not otherwise needed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds to a counter (no-op while disabled).
    pub fn add(&mut self, counter: Counter, delta: u64) {
        if self.enabled {
            self.counters.add(counter, delta);
        }
    }

    /// Sets a counter (no-op while disabled).
    pub fn set(&mut self, counter: Counter, value: u64) {
        if self.enabled {
            self.counters.set(counter, value);
        }
    }

    /// Stops the clocks and emits `Exit` with the collected stats.
    pub fn finish(mut self) {
        if !self.enabled {
            return;
        }
        let wall = self.start.map(|s| s.elapsed()).unwrap_or_default();
        // No start reading (request-scale stage, or no procfs): no second
        // read either.
        let cpu = match self.cpu_start {
            Some(start) => cpu::process_cpu_time().map(|now| now.saturating_sub(start)),
            None => None,
        };
        let peak = alloc_track::peak_bytes();
        if peak != 0 {
            self.counters.set(Counter::AllocPeakBytes, peak);
        }
        let stats = StageStats { wall, cpu, counters: self.counters };
        self.obs.on_event(&StageEvent::Exit(self.stage, stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
        // Figure 7(a): filtering precedes weighting precedes pruning.
        assert!(Stage::BlockFiltering.workflow_rank() < Stage::EdgeWeighting.workflow_rank());
        assert!(Stage::EdgeWeighting.workflow_rank() < Stage::Pruning.workflow_rank());
    }

    #[test]
    fn counter_names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("bogus"), None);
    }

    #[test]
    fn counters_merge_and_iterate() {
        let mut a = Counters::new();
        a.add(Counter::EdgesWeighed, 10);
        a.set(Counter::Entities, 4);
        a.set(Counter::AssignmentsOut, 10);
        let mut b = Counters::new();
        b.add(Counter::EdgesWeighed, 5);
        a.merge(&b);
        assert_eq!(a.get(Counter::EdgesWeighed), 15);
        let set: Vec<_> = a.iter_set().collect();
        assert_eq!(
            set,
            vec![
                (Counter::AssignmentsOut, 10),
                (Counter::Entities, 4),
                (Counter::EdgesWeighed, 15)
            ]
        );
        assert_eq!(a.bpe_out(), Some(2.5));
        assert_eq!(Counters::new().bpe_out(), None);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut c = Counters::new();
        c.set(Counter::EdgesWeighed, u64::MAX - 1);
        c.add(Counter::EdgesWeighed, 5);
        assert_eq!(c.get(Counter::EdgesWeighed), u64::MAX);
    }

    #[test]
    fn noop_observer_disables_scopes() {
        let mut noop = Noop;
        assert!(!noop.enabled());
        let mut scope = StageScope::enter(&mut noop, Stage::Pruning);
        assert!(!scope.enabled());
        scope.add(Counter::RetainedComparisons, 99);
        scope.finish(); // must not panic, must not record anything
    }

    #[test]
    fn scope_reports_stats_to_enabled_observer() {
        let mut ring = RingLog::new(8);
        let mut scope = StageScope::enter(&mut ring, Stage::EdgeWeighting);
        assert!(scope.enabled());
        scope.add(Counter::EdgesWeighed, 7);
        scope.finish();
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], StageEvent::Enter(Stage::EdgeWeighting));
        match &events[1] {
            StageEvent::Exit(Stage::EdgeWeighting, stats) => {
                assert_eq!(stats.counters.get(Counter::EdgesWeighed), 7);
            }
            other => panic!("expected Exit, got {other:?}"),
        }
    }

    #[test]
    fn request_scale_stages_never_sample_process_cpu() {
        let exit_cpu = |stage: Stage| {
            let mut ring = RingLog::new(4);
            StageScope::enter(&mut ring, stage).finish();
            match ring.events().last() {
                Some(StageEvent::Exit(s, stats)) if *s == stage => stats.cpu,
                other => panic!("expected Exit({stage}), got {other:?}"),
            }
        };
        assert_eq!(exit_cpu(Stage::Query), None);
        assert_eq!(exit_cpu(Stage::DeltaApply), None);
        // Every other stage keeps the clock wherever procfs provides it.
        let procfs = cpu::process_cpu_time().is_some();
        for stage in Stage::ALL {
            let request_scale = matches!(stage, Stage::Query | Stage::DeltaApply);
            assert_eq!(stage.samples_process_cpu(), !request_scale, "{stage}");
            if !request_scale {
                assert_eq!(exit_cpu(stage).is_some(), procfs, "{stage}");
            }
        }

        // A report holding both shapes round-trips the `null`.
        let mut report = RunReport::new("serve");
        StageScope::enter(&mut report, Stage::Query).finish();
        StageScope::enter(&mut report, Stage::Pruning).finish();
        assert_eq!(report.stage(Stage::Query).map(|r| r.cpu), Some(None));
        let text = report.to_json_string();
        assert!(text.contains("\"cpu_ns\": null"), "{text}");
        let back = RunReport::from_json_str(&text).expect("the report's own JSON");
        assert_eq!(back, report);
        assert_eq!(back.stage(Stage::Pruning).map(|r| r.cpu.is_some()), Some(procfs));
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut a = RingLog::new(4);
        let mut b = RingLog::new(4);
        {
            let mut tee = Tee::new(&mut a, &mut b);
            assert!(tee.enabled());
            let scope = StageScope::enter(&mut tee, Stage::Blocking);
            scope.finish();
        }
        assert_eq!(a.events().len(), 2);
        assert_eq!(b.events().len(), 2);
    }

    #[test]
    fn tee_of_noops_is_disabled() {
        let mut a = Noop;
        let mut b = Noop;
        let tee = Tee::new(&mut a, &mut b);
        assert!(!tee.enabled());
    }
}
