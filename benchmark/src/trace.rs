//! Benchmark-side spans: `{name, start_ns, end_ns, parent, op_id}` records
//! around calls into the program's public functions, held in memory and
//! written out when the run ends. Nothing inside the program is touched.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one operation (a repetition, a request) share this.
    pub op_id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. A disabled tracer records nothing, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), names: Vec::new(), spans: Vec::new() }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds since the epoch — the clock worker threads stamp their
    /// locally buffered spans with before handing them to [`Tracer::add`].
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` on the tracer's clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        let at = self.names.iter().position(|n| *n == name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        at as u16
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let name = self.name_index(name);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes the span [`Tracer::begin`] returned.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a finished span whose endpoints were stamped elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            let name = self.name_index(name);
            self.spans.push(Span { name, start_ns, end_ns, parent, op_id });
        }
    }

    /// Runs `f` inside a span and also returns how long it took, in ms. The
    /// clock is read whether or not spans are recorded, so callers have one
    /// timing path; use it around calls that take far longer than a clock
    /// read.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.add(name, parent, op_id, self.ns_at(start), self.ns_at(end));
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Durations, in ns, of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let Some(at) = self.names.iter().position(|n| *n == name) else { return Vec::new() };
        self.spans
            .iter()
            .filter(|s| s.name as usize == at)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times, in ns, of every span called `name`.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let Some(at) = self.names.iter().position(|n| *n == name) else { return Vec::new() };
        let own = self_times(&self.spans);
        let pick = |(s, t): (&Span, &u64)| (s.name as usize == at).then_some(*t as f64);
        self.spans.iter().zip(&own).filter_map(pick).collect()
    }

    /// Writes the log as one JSON document: a name table plus
    /// `[name, start_ns, end_ns, parent, op_id]` rows (`parent` is `-1` for
    /// a root span).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"names\":[")?;
        for (i, name) in self.names.iter().enumerate() {
            write!(w, "{}\"{name}\"", if i == 0 { "" } else { "," })?;
        }
        write!(w, "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],")?;
        write!(w, "\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i == 0 { "" } else { "," };
            write!(w, "{sep}\n[{},{},{},{parent},{}]", s.name, s.start_ns, s.end_ns, s.op_id)?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may overlap one another (concurrent
/// requests under one repetition), so their union is what counts, clipped
/// to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: 0, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),    // root: children cover [10,60) and [80,90)
            span(10, 40, Some(0)), // overlaps the next child
            span(30, 60, Some(0)), // has a grandchild
            span(80, 90, Some(0)),
            span(35, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span(10, 20, None), span(0, 15, Some(0)), span(18, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![3, 15, 12]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", None, 1);
        t.end(id);
        t.add("b", None, 2, 0, 5);
        assert_eq!(t.timed("c", None, 3, || 7).0, 7);
        assert!(t.durations_ns("a").is_empty() && t.durations_ns("b").is_empty());
    }

    #[test]
    fn spans_group_by_name_with_self_time() {
        let mut t = Tracer::new(true);
        t.add("rep", None, 1, 0, 50);
        t.add("call", Some(0), 1, 5, 25);
        t.add("call", Some(0), 1, 30, 40);
        assert_eq!(t.durations_ns("call"), vec![20.0, 10.0]);
        assert_eq!(t.self_ns("rep"), vec![20.0]);
        assert!(t.durations_ns("missing").is_empty());
    }
}
