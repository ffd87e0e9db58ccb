//! The result line a run prints, and the tables that compare saved result
//! lines against the bounds in `BENCHMARK.json`.

use crate::spec::MetricSpec;
use crate::stats;
use mb_observe::json::Json;
use std::path::Path;

/// Metric values by name, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name`; a second value for one name is kept and reported as a
    /// duplicate by [`result_line`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// `name`'s value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Renders the one-line result object: `correct`, `attempted`, `failed`
/// and exactly the metrics `specs` names, each once.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut object = Json::obj();
    for spec in specs {
        let mut values = metrics.0.iter().filter(|(n, _)| *n == spec.name);
        let value = match (values.next(), values.next()) {
            (Some((_, v)), None) if v.is_finite() => *v,
            (Some((_, v)), None) => return Err(format!("metric {} is {v}", spec.name)),
            (None, _) => return Err(format!("metric {} was never measured", spec.name)),
            (Some(_), Some(_)) => return Err(format!("metric {} was set twice", spec.name)),
        };
        let mut entry = Json::obj();
        entry.push("value", Json::Num(value));
        entry.push("unit", Json::Str(spec.unit.to_owned()));
        object.push(spec.name, entry);
    }
    if let Some((extra, _)) = metrics.0.iter().find(|(n, _)| specs.iter().all(|s| s.name != *n)) {
        return Err(format!("metric {extra} is not in the spec"));
    }
    let mut line = Json::obj();
    line.push("correct", Json::Bool(correct));
    line.push("attempted", Json::Uint(attempted.max(1)));
    line.push("failed", Json::Uint(failed));
    line.push("metrics", object);
    Ok(line.render())
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Share of the baseline the metric may worsen by.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares, as far as the tables need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bound>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
}

fn names(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    let items = doc.get(key).and_then(Json::as_arr).ok_or(format!("no '{key}' array"))?;
    let name = |item: &Json| item.get("name").and_then(Json::as_str).map(str::to_owned);
    items.iter().map(|i| name(i).ok_or(format!("a '{key}' entry has no name"))).collect()
}

/// Parses the text of `BENCHMARK.json`.
pub fn declared(text: &str) -> Result<Declared, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no 'end_to_end' array")?;
    let end_to_end = names(&doc, "end_to_end")?
        .into_iter()
        .zip(metrics)
        .map(|(name, item)| {
            let bound = item.get("bound").and_then(Json::as_f64);
            bound.map(|bound| Bound { name, bound }).ok_or("an end_to_end metric lacks 'bound'")
        })
        .collect::<Result<_, _>>()?;
    Ok(Declared {
        workloads: names(&doc, "workloads")?,
        end_to_end,
        per_layer: names(&doc, "per_layer")?,
    })
}

/// Reads the last line of `path` as a result object and returns its metric
/// values; an incorrect or failing run is an error.
fn saved_metrics(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text.lines().last().ok_or(format!("{} is empty", path.display()))?;
    let doc = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct") != Some(&Json::Bool(true)) || doc.get("failed") != Some(&Json::Uint(0)) {
        return Err(format!("{} records an incorrect run", path.display()));
    }
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err(format!("{} has no metrics", path.display()));
    };
    let value = |(name, entry): &(String, Json)| {
        let v = entry.get("value").and_then(Json::as_f64);
        v.map(|v| (name.clone(), v)).ok_or(format!("{name} has no value"))
    };
    fields.iter().map(value).collect()
}

fn metric(values: &[(String, f64)], name: &str) -> Result<f64, String> {
    let found = values.iter().find(|(n, _)| n == name);
    found.map(|(_, v)| *v).ok_or(format!("no value for {name}"))
}

/// The A/A table: per metric × workload, how far run B's value is from run
/// A's as a share of A's, against the metric's bound. Returns the markdown
/// table and whether any pairing breached its bound.
pub fn aa_table(declared: &Declared, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let mut table = String::from(
        "| workload | metric | run A | run B | difference | bound | verdict |\n\
         |---|---|---:|---:|---:|---:|---|\n",
    );
    let mut breached = false;
    for workload in &declared.workloads {
        let file = format!("{workload}.json");
        let (va, vb) = (saved_metrics(&a.join(&file))?, saved_metrics(&b.join(&file))?);
        for m in &declared.end_to_end {
            let (x, y) = (metric(&va, &m.name)?, metric(&vb, &m.name)?);
            let difference = (y - x).abs() / x.abs();
            let ok = difference <= m.bound;
            breached |= !ok;
            table.push_str(&format!(
                "| {workload} | {} | {x:.4} | {y:.4} | {:.2} % | {:.0} % | {} |\n",
                m.name,
                difference * 100.0,
                m.bound * 100.0,
                if ok { "within" } else { "BREACH" }
            ));
        }
    }
    Ok((table, breached))
}

/// The spread table: per metric × workload over the `seeds` saved runs
/// `<workload>.<seed>.json` in `dir`, the distance between the first and
/// third quartile as a share of the median, against the metric's bound.
/// `setup_s` is listed but never breaches: the contract exempts its spread.
pub fn spread_table(
    declared: &Declared,
    dir: &Path,
    seeds: &[u64],
) -> Result<(String, bool), String> {
    let mut table = String::from(
        "| workload | metric | median | spread | bound | verdict |\n|---|---|---:|---:|---:|---|\n",
    );
    let mut breached = false;
    for workload in &declared.workloads {
        let runs: Vec<_> = seeds
            .iter()
            .map(|seed| saved_metrics(&dir.join(format!("{workload}.{seed}.json"))))
            .collect::<Result<_, _>>()?;
        for m in &declared.end_to_end {
            let values: Vec<f64> =
                runs.iter().map(|r| metric(r, &m.name)).collect::<Result<_, _>>()?;
            let (q1, q3) = stats::quartiles(&values).ok_or("spread needs two runs or more")?;
            let median = stats::median(&values);
            let spread = (q3 - q1) / median.abs();
            let exempt = m.name == "setup_s";
            let ok = exempt || spread <= m.bound;
            breached |= !ok;
            let verdict = match (ok, spread <= m.bound / 3.0) {
                (false, _) => "BREACH",
                (true, true) => "steady",
                (true, false) if exempt => "exempt",
                (true, false) => "within",
            };
            table.push_str(&format!(
                "| {workload} | {} | {median:.4} | {:.2} % | {:.0} % | {verdict} |\n",
                m.name,
                spread * 100.0,
                m.bound * 100.0,
            ));
        }
    }
    Ok((table, breached))
}

/// Replaces what lies between `<!-- {tag}:begin -->` and
/// `<!-- {tag}:end -->` in the file at `path` with `body`.
pub fn splice(path: &Path, tag: &str, body: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (begin, end) = (format!("<!-- {tag}:begin -->"), format!("<!-- {tag}:end -->"));
    let (Some(from), Some(to)) = (text.find(&begin), text.find(&end)) else {
        return Err(format!("{} lacks the {tag} markers", path.display()));
    };
    let spliced = format!("{}\n{body}{}", &text[..from + begin.len()], &text[to..]);
    std::fs::write(path, spliced).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};

    fn benchmark_json() -> Declared {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        declared(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("a well-formed BENCHMARK.json")
    }

    #[test]
    fn spec_and_benchmark_json_list_the_same_names() {
        let declared = benchmark_json();
        assert_eq!(declared.workloads, WORKLOADS);
        let names = |specs: &[MetricSpec]| specs.iter().map(|s| s.name).collect::<Vec<_>>();
        let declared_e2e: Vec<&str> = declared.end_to_end.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(declared_e2e, names(&END_TO_END));
        assert_eq!(declared.per_layer, names(&PER_LAYER));
        let setup = declared.end_to_end.iter().find(|b| b.name == "setup_s").expect("setup_s");
        assert!(declared.end_to_end.iter().all(|b| b.bound > 0.0 && b.bound <= setup.bound));
    }

    #[test]
    fn result_line_carries_each_spec_name_exactly_once() {
        let mut metrics = Metrics::default();
        for (i, spec) in END_TO_END.iter().enumerate() {
            metrics.set(spec.name, 1.5 + i as f64);
        }
        let line = result_line(true, 10, 0, &END_TO_END, &metrics).expect("complete metrics");
        let doc = Json::parse(&line).expect("valid JSON");
        let Some(Json::Obj(fields)) = doc.get("metrics") else { panic!("no metrics object") };
        let got: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, END_TO_END.iter().map(|s| s.name).collect::<Vec<_>>());
        assert_eq!(doc.get("attempted"), Some(&Json::Uint(10)));
        assert!(!line.contains('\n'));

        metrics.set("setup_s", 2.0);
        assert!(result_line(true, 1, 0, &END_TO_END, &metrics).unwrap_err().contains("twice"));
        let mut short = Metrics::default();
        short.set("setup_s", 1.0);
        assert!(result_line(true, 1, 0, &END_TO_END, &short).unwrap_err().contains("never"));
        let mut extra = Metrics::default();
        extra.set("bogus", 1.0);
        assert!(result_line(true, 1, 0, &[], &extra).unwrap_err().contains("not in the spec"));
    }

    #[test]
    fn splice_replaces_only_what_the_markers_enclose() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("splice-test-{}.md", std::process::id()));
        std::fs::write(&path, "head\n<!-- t:begin -->\nold\n<!-- t:end -->\ntail\n").unwrap();
        splice(&path, "t", "new\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text, "head\n<!-- t:begin -->\nnew\n<!-- t:end -->\ntail\n");
    }
}
