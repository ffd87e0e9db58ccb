//! `panic-reachability`: no abort path reachable from the serving layer.
//!
//! The syntactic `no-panic` rule bans `unwrap()` textually; this pass makes
//! the stronger argument the mb-serve hostile-input guarantee actually
//! needs: starting from the **public non-test functions of `crates/serve`**
//! (the `QueryEngine` and snapshot-codec entry points) — plus *every*
//! non-test function of `server.rs` and `protocol.rs`, public or not,
//! because connection handlers run on spawned threads against raw socket
//! bytes and must not abort regardless of visibility — walk the
//! conservative workspace call graph (see [`crate::callgraph`]) across the
//! serve dependency closure — er-model, er-blocking, mb-core, mb-observe,
//! mb-serve — and flag, in every reached function:
//!
//! * aborting macros (`panic!`, `todo!`, `unimplemented!`),
//! * `.unwrap()` / `.expect(…)`,
//! * and — within `crates/serve` itself, where untrusted bytes live —
//!   slice/array indexing `x[i]` with no dominating `assert!` /
//!   `debug_assert!` earlier in the function and a non-literal subscript.
//!
//! Name-based resolution over-approximates (every `.push(…)` resolves to
//! every fn named `push`), so reachability can only err toward flagging
//! more — a finding is either a real risk or a designed abort, and designed
//! aborts are annotated in-source with `lint:allow(panic-reachability)`
//! plus the invariant that justifies them. Each finding carries the
//! call path that reached it (`reachable: a → b → c`).

use crate::callgraph::{CallGraph, NodeId};
use crate::items::Model;
use crate::lexer::TokenKind;
use crate::Finding;

/// The serve dependency closure: the only crates whose functions can sit
/// on a path from a serve entry point.
const UNIVERSE: [&str; 5] =
    ["crates/er-model/", "crates/blocking/", "crates/core/", "crates/observe/", "crates/serve/"];

/// Keywords that precede `[` without forming an index expression.
const NOT_INDEX_PREV: [&str; 10] =
    ["in", "as", "return", "else", "match", "if", "while", "let", "ref", "move"];

/// One analyzed file, as handed to workspace passes.
pub struct FileModel<'a> {
    pub path: &'a str,
    pub src: &'a str,
    pub model: &'a Model,
}

pub(crate) fn run(files: &[FileModel<'_>], findings: &mut Vec<Finding>) {
    // Restrict to the universe, remembering original paths.
    let scoped: Vec<&FileModel<'_>> =
        files.iter().filter(|f| UNIVERSE.iter().any(|c| f.path.starts_with(c))).collect();
    if scoped.is_empty() {
        return;
    }
    let triples: Vec<(&str, &str, &Model)> =
        scoped.iter().map(|f| (f.path, f.src, f.model)).collect();
    let graph = CallGraph::build(&triples);

    // Roots: public, non-test, bodied fns in crates/serve — and every
    // bodied fn of the online-serving modules, where private helpers
    // (connection handlers, the accept loop) run on spawned threads fed by
    // untrusted peers.
    const SERVE_ROOT_ALL: [&str; 2] =
        ["crates/serve/src/server.rs", "crates/serve/src/protocol.rs"];
    let mut roots: Vec<NodeId> = Vec::new();
    for (fi, f) in scoped.iter().enumerate() {
        if !f.path.starts_with("crates/serve/") {
            continue;
        }
        let root_all = SERVE_ROOT_ALL.contains(&f.path);
        for (gi, func) in f.model.fns.iter().enumerate() {
            if (func.is_pub || root_all) && !func.in_test && func.body.is_some() {
                roots.push((fi, gi));
            }
        }
    }
    let reached = graph.reach(&roots);

    let mut nodes: Vec<NodeId> = reached.keys().copied().collect();
    nodes.sort();
    for node in nodes {
        let (fi, gi) = node;
        let file = scoped[fi];
        let func = &file.model.fns[gi];
        let Some((open, close)) = func.body else { continue };
        let route = render_path(&scoped, &reached, node);
        scan_body(file, open, close, &route, findings);
    }
}

/// Renders `entry → … → here` as `Owner::name` links.
fn render_path(
    files: &[&FileModel<'_>],
    reached: &std::collections::BTreeMap<NodeId, Option<NodeId>>,
    node: NodeId,
) -> String {
    let names: Vec<String> = CallGraph::path_to(reached, node)
        .into_iter()
        .map(|(fi, gi)| {
            let f = &files[fi].model.fns[gi];
            match &f.owner {
                Some(o) => format!("{o}::{}", f.name),
                None => f.name.clone(),
            }
        })
        .collect();
    format!("reachable: {}", names.join(" → "))
}

/// Scans one reached function body for abort sources.
fn scan_body(
    file: &FileModel<'_>,
    open: usize,
    close: usize,
    route: &str,
    findings: &mut Vec<Finding>,
) {
    let src = file.src;
    let m = file.model;
    let toks = &m.tokens;
    let close = close.min(toks.len().saturating_sub(1));
    let index_scope = file.path.starts_with("crates/serve/");

    // A dominating assert anywhere earlier in the body guards later
    // indexing (the codepath pattern: validate once, index freely).
    let mut guard_at: Option<usize> = None;
    let mut hits: std::collections::BTreeSet<(u32, &'static str)> = Default::default();

    for k in open..=close {
        let t = toks[k];
        if m.in_test(k) {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let w = t.text(src);
                let bang = toks.get(k + 1).is_some_and(|n| n.is_punct('!'));
                if bang && (w.starts_with("assert") || w.starts_with("debug_assert")) {
                    guard_at.get_or_insert(k);
                }
                if bang && matches!(w, "panic" | "todo" | "unimplemented") {
                    hits.insert((t.line, "aborting macro"));
                }
                if matches!(w, "unwrap" | "expect")
                    && k > open
                    && toks[k - 1].is_punct('.')
                    && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    hits.insert((t.line, "unwrap/expect"));
                }
            }
            TokenKind::Punct('[') if index_scope => {
                // Index expression: `[` directly after an ident or a
                // closing delimiter.
                let is_index = k > 0
                    && match toks[k - 1].kind {
                        TokenKind::Ident => !NOT_INDEX_PREV.contains(&toks[k - 1].text(src)),
                        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                        _ => false,
                    };
                if is_index
                    && !all_literal_subscript(toks, src, k)
                    && guard_at.is_none_or(|g| g >= k)
                {
                    hits.insert((t.line, "unguarded index"));
                }
            }
            _ => {}
        }
    }

    for (line, what) in hits {
        findings.push(Finding {
            file: file.path.to_string(),
            line: line as usize,
            rule: "panic-reachability",
            snippet: super::snippet_of(src, line),
            note: Some(format!("{what}; {route}")),
        });
    }
}

/// Whether the subscript starting at `[` (index `open`) is built purely
/// from integer literals and range dots — `buf[0]`, `w[..2]` — which the
/// surrounding code shape has already made infallible or which the
/// byte-flip tests cover directly.
fn all_literal_subscript(toks: &[crate::lexer::Token], src: &str, open: usize) -> bool {
    let mut depth = 0usize;
    for t in toks.iter().skip(open) {
        match t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return true;
                }
            }
            TokenKind::Int | TokenKind::Punct('.') => {}
            _ => return false,
        }
        let _ = src;
    }
    false
}
