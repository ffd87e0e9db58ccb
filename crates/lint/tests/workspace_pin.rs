//! Pins the lint baseline on the real workspace tree.
//!
//! The engine port is only trustworthy if the seven legacy rules reproduce
//! their pre-port findings exactly — same files, same lines — and the three
//! semantic passes add nothing unbudgeted on the real sources. This test IS
//! that contract: it runs the full pass set over the same file walk the CLI
//! uses and compares against the explicit finding list that
//! `lint-allowlist.txt` budgets.
//!
//! When a refactor legitimately moves or removes a finding, update the
//! expected list here and the budget there in the same change.

use er_lint::{lint_files, workspace_files, Allowlist};
use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every budgeted finding on the current tree, in report order
/// (file, line, rule).
const BASELINE: [(&str, usize, &str); 12] = [
    ("crates/bench/src/harness.rs", 44, "adhoc-logging"),
    ("crates/bench/src/harness.rs", 50, "adhoc-logging"),
    ("crates/bench/src/harness.rs", 84, "adhoc-logging"),
    ("crates/er-model/src/block.rs", 26, "owned-id-vec-field"),
    ("crates/er-model/src/block.rs", 27, "owned-id-vec-field"),
    ("crates/er-model/src/block.rs", 201, "owned-id-vec-field"),
    ("crates/er-model/src/block.rs", 404, "owned-id-vec-field"),
    ("crates/er-model/src/comparisons.rs", 39, "id-narrowing-cast"),
    ("crates/er-model/src/fxhash.rs", 12, "default-hasher"),
    ("crates/er-model/src/sanitize.rs", 73, "no-panic"),
    ("crates/serve/src/codec.rs", 118, "snapshot-unversioned-read"),
    ("crates/serve/src/codec.rs", 173, "snapshot-unversioned-read"),
];

#[test]
fn workspace_findings_match_the_pinned_baseline() {
    let root = root();
    let files = workspace_files(&root).unwrap();
    assert!(files.len() > 50, "workspace walk looks truncated: {} files", files.len());
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(p).unwrap())
        })
        .collect();
    let report = lint_files(&inputs);

    let got: Vec<(&str, usize, &str)> =
        report.findings.iter().map(|f| (f.file.as_str(), f.line, f.rule)).collect();
    assert_eq!(got, BASELINE, "the lint baseline moved — update pin and allowlist together");

    // In-source `lint:allow` directives are in active use on the tree.
    assert!(report.suppressed > 0);

    // Every finding above is budgeted, every budget is exact: the tracked
    // allowlist reconciles with nothing over and nothing stale.
    let allow_text = fs::read_to_string(root.join("lint-allowlist.txt")).unwrap();
    let allow = Allowlist::parse(&allow_text).unwrap();
    let (over, stale) = allow.reconcile(&report.findings);
    assert!(over.is_empty(), "unbudgeted findings: {over:#?}");
    assert!(stale.is_empty(), "stale allowlist entries: {stale:#?}");
}
