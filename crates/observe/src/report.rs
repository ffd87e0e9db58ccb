//! [`RunReport`] — the in-memory aggregation sink and its JSON round-trip.
//!
//! A report accumulates one record per [`Stage`], merging repeated
//! executions of the same stage (multiple weighting sweeps, multiple
//! thread chunks, schemes run back-to-back) by summing wall/CPU time and
//! counters. Records keep *first-seen order*, so a report produced by the
//! standard workflow lists stages in Figure-7(a) order without any
//! explicit sorting.
//!
//! The `table5`/`table6`/`scaling` binaries write reports next to their
//! `results/` tables via [`RunReport::write_to`]; tests reconstruct them
//! with [`RunReport::from_json_str`].

use crate::json::{Json, JsonError};
use crate::{Counter, Counters, Observer, Stage, StageEvent};
use std::path::Path;
use std::time::Duration;

/// Aggregated measurements for one stage across all its executions.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Which stage.
    pub stage: Stage,
    /// How many enter/exit pairs were merged into this record.
    pub runs: u64,
    /// Total wall-clock time across runs.
    pub wall: Duration,
    /// Total process CPU time across runs; `None` until a run reports it.
    pub cpu: Option<Duration>,
    /// Summed counters across runs.
    pub counters: Counters,
}

impl StageRecord {
    fn new(stage: Stage) -> StageRecord {
        StageRecord { stage, runs: 0, wall: Duration::ZERO, cpu: None, counters: Counters::new() }
    }
}

/// An in-memory per-stage breakdown of one workflow run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    label: String,
    meta: Vec<(String, String)>,
    stages: Vec<StageRecord>,
}

impl RunReport {
    /// An empty report labelled `label` (e.g. `"table5/cddb/cnp"`).
    pub fn new(label: impl Into<String>) -> RunReport {
        RunReport { label: label.into(), meta: Vec::new(), stages: Vec::new() }
    }

    /// The report's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Attaches (or overwrites) a free-form metadata pair, e.g.
    /// `("dataset", "dcbdr")` or `("threads", "8")`.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.meta.push((key.to_owned(), value)),
        }
    }

    /// Looks a metadata pair up.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The per-stage records, in first-seen order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// The record for `stage`, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageRecord> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Sum of `counter` across every stage.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.stages.iter().fold(0, |acc, r| acc.saturating_add(r.counters.get(counter)))
    }

    /// Total wall time across every stage.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|r| r.wall).sum()
    }

    /// Forgets every stage record, keeping the label, the metadata and the
    /// allocation — for a report that is folded into another
    /// ([`RunReport::absorb`]) once per request and then reused.
    pub fn clear_stages(&mut self) {
        self.stages.clear();
    }

    fn record_mut(&mut self, stage: Stage) -> &mut StageRecord {
        if let Some(i) = self.stages.iter().position(|r| r.stage == stage) {
            return &mut self.stages[i];
        }
        self.stages.push(StageRecord::new(stage));
        let last = self.stages.len() - 1;
        &mut self.stages[last]
    }

    /// Folds another report's stage records into this one (used when one
    /// table cell aggregates several sub-runs).
    pub fn absorb(&mut self, other: &RunReport) {
        for rec in &other.stages {
            let mine = self.record_mut(rec.stage);
            mine.runs += rec.runs;
            mine.wall += rec.wall;
            mine.cpu = match (mine.cpu, rec.cpu) {
                (Some(a), Some(b)) => Some(a + b),
                (a, b) => a.or(b),
            };
            mine.counters.merge(&rec.counters);
        }
    }

    /// The report as a [`Json`] document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("label", Json::Str(self.label.clone()));
        let mut meta = Json::obj();
        for (k, v) in &self.meta {
            meta.push(k, Json::Str(v.clone()));
        }
        doc.push("meta", meta);
        let mut stages = Vec::with_capacity(self.stages.len());
        for rec in &self.stages {
            let mut s = Json::obj();
            s.push("stage", Json::Str(rec.stage.name().to_owned()));
            s.push("runs", Json::Uint(rec.runs));
            // Nanoseconds as u64 so durations round-trip exactly; the
            // seconds field is redundant but keeps reports grep-friendly.
            s.push("wall_ns", Json::Uint(rec.wall.as_nanos() as u64));
            s.push("wall_secs", Json::Num(rec.wall.as_secs_f64()));
            match rec.cpu {
                Some(cpu) => s.push("cpu_ns", Json::Uint(cpu.as_nanos() as u64)),
                None => s.push("cpu_ns", Json::Null),
            }
            let mut counters = Json::obj();
            for (c, v) in rec.counters.iter_set() {
                counters.push(c.name(), Json::Uint(v));
            }
            s.push("counters", counters);
            stages.push(s);
        }
        doc.push("stages", Json::Arr(stages));
        doc
    }

    /// Pretty-printed JSON, ready for `results/`.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Reconstructs a report from [`RunReport::to_json_string`] output.
    pub fn from_json_str(text: &str) -> Result<RunReport, ReportParseError> {
        let doc = Json::parse(text)?;
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or(ReportParseError::Shape("missing label"))?
            .to_owned();
        let mut report = RunReport::new(label);
        if let Some(Json::Obj(fields)) = doc.get("meta") {
            for (k, v) in fields {
                let v = v.as_str().ok_or(ReportParseError::Shape("meta value must be string"))?;
                report.set_meta(k, v);
            }
        }
        let stages = doc
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or(ReportParseError::Shape("missing stages array"))?;
        for s in stages {
            let name = s
                .get("stage")
                .and_then(Json::as_str)
                .ok_or(ReportParseError::Shape("stage record missing name"))?;
            let stage =
                Stage::from_name(name).ok_or(ReportParseError::Shape("unknown stage name"))?;
            let rec = report.record_mut(stage);
            rec.runs = s
                .get("runs")
                .and_then(Json::as_u64)
                .ok_or(ReportParseError::Shape("stage record missing runs"))?;
            rec.wall = Duration::from_nanos(
                s.get("wall_ns")
                    .and_then(Json::as_u64)
                    .ok_or(ReportParseError::Shape("stage record missing wall_ns"))?,
            );
            rec.cpu = match s.get("cpu_ns") {
                Some(Json::Null) | None => None,
                Some(v) => Some(Duration::from_nanos(
                    v.as_u64().ok_or(ReportParseError::Shape("cpu_ns must be integer"))?,
                )),
            };
            if let Some(Json::Obj(fields)) = s.get("counters") {
                for (k, v) in fields {
                    let counter =
                        Counter::from_name(k).ok_or(ReportParseError::Shape("unknown counter"))?;
                    let value =
                        v.as_u64().ok_or(ReportParseError::Shape("counter must be integer"))?;
                    rec.counters.set(counter, value);
                }
            }
        }
        Ok(report)
    }

    /// Writes the pretty JSON to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }
}

impl Observer for RunReport {
    fn enabled(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &StageEvent) {
        match event {
            // Recording at Enter pins first-seen order even if a stage's
            // Exit interleaves oddly with another stage's Enter.
            StageEvent::Enter(stage) => {
                self.record_mut(*stage);
            }
            StageEvent::Exit(stage, stats) => {
                let rec = self.record_mut(*stage);
                rec.runs += 1;
                rec.wall += stats.wall;
                rec.cpu = match (rec.cpu, stats.cpu) {
                    (Some(a), Some(b)) => Some(a + b),
                    (a, b) => a.or(b),
                };
                rec.counters.merge(&stats.counters);
            }
        }
    }
}

/// Why [`RunReport::from_json_str`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportParseError {
    /// The text was not valid JSON.
    Json(JsonError),
    /// The JSON did not have the report shape.
    Shape(&'static str),
}

impl From<JsonError> for ReportParseError {
    fn from(err: JsonError) -> Self {
        ReportParseError::Json(err)
    }
}

impl std::fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportParseError::Json(err) => write!(f, "run report: {err}"),
            ReportParseError::Shape(what) => write!(f, "run report: {what}"),
        }
    }
}

impl std::error::Error for ReportParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StageScope, StageStats};

    fn sample_report() -> RunReport {
        let mut report = RunReport::new("table5/demo");
        report.set_meta("dataset", "dmovies");
        report.set_meta("threads", "4");
        let mut scope = StageScope::enter(&mut report, Stage::BlockFiltering);
        scope.add(Counter::BlocksIn, 100);
        scope.add(Counter::BlocksOut, 80);
        scope.finish();
        let mut scope = StageScope::enter(&mut report, Stage::EdgeWeighting);
        scope.add(Counter::EdgesWeighed, 1234);
        scope.finish();
        let mut scope = StageScope::enter(&mut report, Stage::Pruning);
        scope.add(Counter::RetainedComparisons, 432);
        scope.finish();
        report
    }

    #[test]
    fn stages_keep_first_seen_order_and_merge_repeats() {
        let mut report = sample_report();
        // A second weighting sweep merges into the existing record.
        let mut scope = StageScope::enter(&mut report, Stage::EdgeWeighting);
        scope.add(Counter::EdgesWeighed, 6);
        scope.finish();
        let order: Vec<Stage> = report.stages().iter().map(|r| r.stage).collect();
        assert_eq!(order, vec![Stage::BlockFiltering, Stage::EdgeWeighting, Stage::Pruning]);
        let ew = report.stage(Stage::EdgeWeighting).unwrap();
        assert_eq!(ew.runs, 2);
        assert_eq!(ew.counters.get(Counter::EdgesWeighed), 1240);
        assert_eq!(report.counter_total(Counter::EdgesWeighed), 1240);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.meta("dataset"), Some("dmovies"));
        assert_eq!(back.meta("missing"), None);
    }

    #[test]
    fn compact_json_round_trips_too() {
        let report = sample_report();
        let back = RunReport::from_json_str(&report.to_json().render()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn absorb_sums_sub_runs() {
        let mut total = RunReport::new("total");
        total.absorb(&sample_report());
        total.absorb(&sample_report());
        assert_eq!(total.counter_total(Counter::EdgesWeighed), 2468);
        assert_eq!(total.stage(Stage::BlockFiltering).unwrap().runs, 2);
    }

    #[test]
    fn cleared_report_absorbs_as_nothing_and_keeps_its_label_and_meta() {
        let mut report = sample_report();
        report.clear_stages();
        assert!(report.stages().is_empty());
        assert_eq!(report.label(), "table5/demo");
        assert_eq!(report.meta("threads"), Some("4"));
        let mut total = RunReport::new("total");
        total.absorb(&report);
        assert!(total.stages().is_empty());
    }

    #[test]
    fn set_meta_overwrites() {
        let mut report = RunReport::new("x");
        report.set_meta("k", "1");
        report.set_meta("k", "2");
        assert_eq!(report.meta("k"), Some("2"));
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        assert!(RunReport::from_json_str("{}").is_err());
        assert!(RunReport::from_json_str("not json").is_err());
        let bad_stage = r#"{"label":"x","meta":{},"stages":[{"stage":"nope","runs":1,"wall_ns":0,"cpu_ns":null,"counters":{}}]}"#;
        assert!(RunReport::from_json_str(bad_stage).is_err());
    }

    #[test]
    fn write_to_creates_parents() {
        let dir = std::env::temp_dir().join("mb-observe-test-report");
        let path = dir.join("nested").join("report.json");
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        report.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunReport::from_json_str(&text).unwrap(), report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exit_without_enter_still_records() {
        let mut report = RunReport::new("x");
        let stats =
            StageStats { wall: Duration::from_millis(5), cpu: None, counters: Counters::new() };
        report.on_event(&StageEvent::Exit(Stage::Purging, stats));
        assert_eq!(report.stage(Stage::Purging).unwrap().runs, 1);
        assert_eq!(report.total_wall(), Duration::from_millis(5));
    }
}
