//! Table 6: performance of the baseline methods — Graph-free Meta-blocking
//! at the efficiency (r = 0.25) and effectiveness (r = 0.55) operating
//! points, and Iterative Blocking.

use er_baselines::IterativeBlocking;
use er_eval::datasets::{Dataset, DatasetId};
use er_eval::report::{precision, ratio, sci, write_stage_reports, Table};
use er_eval::timer;
use er_model::matching::OracleMatcher;
use er_model::measures::EffectivenessAccumulator;
use er_model::ErKind;
use mb_core::graphfree::{self, EFFECTIVENESS_RATIO, EFFICIENCY_RATIO};
use mb_observe::RunReport;

fn main() -> er_model::Result<()> {
    let datasets: Vec<Dataset> =
        DatasetId::ALL.into_iter().map(Dataset::load).collect::<er_model::Result<_>>()?;
    let blocks: Vec<_> = datasets.iter().map(|d| d.input_blocks()).collect();
    let mut stage_reports: Vec<RunReport> = Vec::new();

    for (label, r) in [
        ("(a) efficiency-intensive Graph-free Meta-blocking (r = 0.25)", EFFICIENCY_RATIO),
        ("(b) effectiveness-intensive Graph-free Meta-blocking (r = 0.55)", EFFECTIVENESS_RATIO),
    ] {
        let mut table = Table::new(&["", "||B'||", "PC(B')", "PQ(B')", "OTime"]);
        for (d, b) in datasets.iter().zip(&blocks) {
            let mut report = RunReport::new(format!("graph-free/{}/r={r}", d.id.name()));
            report.set_meta("workflow", "graph-free");
            report.set_meta("dataset", d.id.name());
            report.set_meta("filter_ratio", format!("{r}"));
            let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
            let (res, otime) = timer::time(|| {
                graphfree::graph_free_meta_blocking(
                    b,
                    d.collection.split(),
                    r,
                    1,
                    &mut report,
                    |a, c| acc.add(a, c),
                )
            });
            res?;
            stage_reports.push(report);
            table.row(vec![
                d.id.name().into(),
                sci(acc.total_comparisons()),
                ratio(acc.pc()),
                precision(acc.pq()),
                timer::human(otime),
            ]);
        }
        println!("Table 6{label}\n");
        println!("{}", table.render());
    }

    let mut table = Table::new(&["", "||B'||", "PC(B')", "PQ(B')", "OTime"]);
    for (d, b) in datasets.iter().zip(&blocks) {
        let oracle = OracleMatcher::new(&d.ground_truth);
        let config = IterativeBlocking {
            order_by_cardinality: true,
            // The paper's Clean-Clean idealization; unsound for Dirty ER
            // where an entity can have several duplicates.
            stop_after_match: d.collection.kind() == ErKind::CleanClean,
        };
        let mut report = RunReport::new(format!("iterative-blocking/{}", d.id.name()));
        report.set_meta("workflow", "iterative-blocking");
        report.set_meta("dataset", d.id.name());
        let (mut outcome, otime) = timer::time(|| config.run_observed(b, &oracle, &mut report));
        stage_reports.push(report);
        table.row(vec![
            d.id.name().into(),
            sci(outcome.executed_comparisons),
            ratio(outcome.pc(&d.ground_truth)),
            precision(outcome.pq(&d.ground_truth)),
            timer::human(otime),
        ]);
    }
    println!("Table 6(c): Iterative Blocking\n");
    println!("{}", table.render());
    let path = std::path::Path::new("results/table6.stages.json");
    match write_stage_reports(path, &stage_reports) {
        Ok(()) => println!("per-stage breakdown: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Ok(())
}
