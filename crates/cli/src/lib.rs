//! # er-cli — the `er` command-line tool
//!
//! End-to-end entity-resolution pipelines from the shell:
//!
//! ```text
//! er generate --preset tiny --out bench/        # synthesize a benchmark bundle
//! er stats    --dataset bench/                  # Table-1-style block statistics
//! er run      --dataset bench/ --scheme js --pruning reciprocal-wnp --filter 0.8
//! er sweep-filter --dataset bench/              # Figure-10-style ratio sweep
//! ```
//!
//! All verbs work on [`er_io::bundle`] directories, so real corpora drop in
//! by exporting them as `e1.csv` (+ `e2.csv`) + `gt.csv`.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

use args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
er — enhanced meta-blocking pipelines

USAGE:
  er generate --preset <tiny|d1c|d2c|d3c|xl> --out <dir> [--scale F] [--seed N] [--dirty]
  er stats --dataset <dir>
  er run --dataset <dir> [--scheme <arcs|cbs|ecbs|js|ejs>]
         [--pruning <cep|cnp|wep|wnp|redefined-cnp|redefined-wnp|reciprocal-cnp|reciprocal-wnp|graph-free>]
         [--filter R] [--out <comparisons.csv>] [--threads N]
         [--progress] [--report <report.json>]
  er sweep-filter --dataset <dir> [--step F]
  er snapshot build --dataset <dir> --out <file> [--scheme S] [--pruning P]
         [--filter R]
  er snapshot inspect --snapshot <file>
  er snapshot apply --snapshot <file> [--out <file>]
         (--delete N | --text \"...\" [--uri U] [--entity N])
  er query --snapshot <file> (--entity N | --text \"...\" [--side 1|2])
         [--top K | --retention <top-k=K|above-mean>] [--scheme S]
         [--report <report.json>]
  er serve --snapshot <file> [--addr <host:port>] [--port-file <path>]
         [--trigger <path>] [--report <report.json>] [--report-every N]
  er client query --addr <host:port> (--entity N | --text \"...\" [--side 1|2])
         [--top K | --retention R]
  er client upsert --addr <host:port> --text \"...\" [--uri U] [--entity N]
  er client delete --addr <host:port> --entity N
  er client compact --addr <host:port> --dataset <dir> [--out <file>]
  er client reload --addr <host:port> --snapshot <path>
  er client shutdown --addr <host:port>

`er run --threads N` runs the graph sweeps — pruning, or the graph-free
workflow's Comparison Propagation — on N workers (default 1; 0 =
auto-detect the available parallelism); Block Filtering and the entity
index are built on the calling thread, and output is bit-identical to the
sequential run. `--progress` prints per-stage progress lines to stderr as
the pipeline runs; `--report` writes a JSON breakdown of every stage
(wall/CPU time, block, comparison and edge counters) to the given path.

`er snapshot build` freezes Token Blocking (+ Block Filtering with
--filter) into a versioned, checksummed binary index; `er query` loads it
and returns ranked candidates for an indexed entity (--entity) or an
unseen probe profile (--text), scored and retained exactly like the batch
node-centric pruning schemes.

`er serve` keeps a snapshot resident behind a TCP listener and answers the
same queries online, with zero-downtime reloads (`er client reload`, or
writing a snapshot path into the `--trigger` file) and graceful draining
shutdown (`er client shutdown`). Port 0 picks an ephemeral port;
`--port-file` writes the bound address for supervisors to pick up.

`er client upsert|delete` mutate the *live* engine in microseconds —
append or replace a profile, or tombstone an entity — without a rebuild;
the change is queryable the moment the command returns. `er client
compact --dataset <dir>` folds the accumulated deltas back into a clean
index, bit-identical to a from-scratch build over the merged profiles.
`er snapshot apply` stages the same ops offline as write-ahead delta runs
appended to the snapshot file; `er query` and `er serve` replay them on
load.
";

/// Dispatches a command line (without the program name). Returns the text
/// to print, or an error message for stderr.
pub fn dispatch(raw: impl IntoIterator<Item = String>) -> Result<String, String> {
    let args = Args::parse(raw)?;
    match args.positional(0) {
        Some("generate") => commands::generate(&args),
        Some("stats") => commands::stats(&args),
        Some("run") => commands::run(&args),
        Some("sweep-filter") => commands::sweep_filter(&args),
        Some("snapshot") => commands::snapshot(&args),
        Some("query") => commands::query(&args),
        Some("serve") => commands::serve(&args),
        Some("client") => commands::client(&args),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}
