//! A conservative, workspace-local call graph over the item model.
//!
//! Nodes are the [`crate::items::FnItem`]s of every analyzed file; edges
//! are *name-based*: a call site `foo(…)`, `Type::foo(…)` or `recv.foo(…)`
//! is resolved to **every** function named `foo` in the analyzed set. That
//! over-approximates dynamic dispatch, generics, and shadowing by design —
//! a reachability proof built on it can claim false positives but never
//! miss a real path, which is the right direction for a linter gating
//! panic-freedom.
//!
//! Call sites inside `#[cfg(test)]` regions are ignored (test code may
//! call anything), and macro invocations are not edges — the interesting
//! macros (`panic!`, `assert!`, …) are classified directly by the rules.

use crate::items::Model;
use crate::lexer::TokenKind;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A function node: file index + fn index within that file's model.
pub type NodeId = (usize, usize);

/// The workspace call graph.
pub struct CallGraph {
    /// `callees[node]` = set of nodes its body may call.
    callees: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

/// Rust keywords and control-flow words that look like calls (`if (…)`,
/// `match (…)`, tuple-struct patterns) but are not function calls.
const NOT_CALLS: [&str; 14] = [
    "if", "while", "for", "match", "return", "fn", "loop", "else", "in", "as", "let", "move",
    "Some", "Ok",
];

impl CallGraph {
    /// Builds the graph over `files`: `(path, source, model)` triples.
    pub fn build(files: &[(&str, &str, &Model)]) -> CallGraph {
        // Name → every node with that name.
        let mut by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for (fi, (_, _, m)) in files.iter().enumerate() {
            for (gi, f) in m.fns.iter().enumerate() {
                if !f.in_test {
                    by_name.entry(f.name.as_str()).or_default().push((fi, gi));
                }
            }
        }
        let mut callees: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for (fi, (_, src, m)) in files.iter().enumerate() {
            for (gi, f) in m.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let Some((open, close)) = f.body else { continue };
                let mut out = BTreeSet::new();
                for name in call_names(m, src, open, close) {
                    if let Some(nodes) = by_name.get(name.as_str()) {
                        out.extend(nodes.iter().copied());
                    }
                }
                callees.insert((fi, gi), out);
            }
        }
        CallGraph { callees }
    }

    /// Every node reachable from `roots` (roots included), with, for each
    /// reached node, the node it was first reached from (for path
    /// reconstruction).
    pub fn reach(&self, roots: &[NodeId]) -> BTreeMap<NodeId, Option<NodeId>> {
        let mut seen: BTreeMap<NodeId, Option<NodeId>> = BTreeMap::new();
        let mut queue: Vec<NodeId> = Vec::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push(r);
            }
        }
        while let Some(node) = queue.pop() {
            if let Some(next) = self.callees.get(&node) {
                for &c in next {
                    // Only first discovery records provenance — overwriting
                    // an existing entry could create a provenance cycle and
                    // break path reconstruction.
                    if let Entry::Vacant(e) = seen.entry(c) {
                        e.insert(Some(node));
                        queue.push(c);
                    }
                }
            }
        }
        seen
    }

    /// Reconstructs a call path `root → … → node` from a [`CallGraph::reach`]
    /// result, as node ids.
    pub fn path_to(reached: &BTreeMap<NodeId, Option<NodeId>>, node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(Some(prev)) = reached.get(&cur) {
            path.push(*prev);
            cur = *prev;
        }
        path.reverse();
        path
    }
}

/// The callee names referenced by the body token range `(open, close)`:
/// `name(`, `Path::name(` and `.name(` — excluding macro invocations,
/// definitions, and anything under a nested `#[cfg(test)]` span.
fn call_names(m: &Model, src: &str, open: usize, close: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let toks = &m.tokens;
    for k in open..=close.min(toks.len().saturating_sub(1)) {
        if toks[k].kind != TokenKind::Ident || m.in_test(k) {
            continue;
        }
        let name = toks[k].text(src);
        if NOT_CALLS.contains(&name) {
            continue;
        }
        let followed_by_paren = toks.get(k + 1).is_some_and(|t| t.is_punct('('));
        if !followed_by_paren {
            continue;
        }
        // `name!` macro — not a call edge; `fn name(` — a definition.
        if k > 0 && (toks[k - 1].is_punct('!') || toks[k - 1].is_ident(src, "fn")) {
            continue;
        }
        // `Name(` where Name is a tuple-struct/variant constructor in
        // pattern or expression position is indistinguishable from a call;
        // keeping it is the conservative choice (constructors have no body,
        // so they resolve to nothing unless a real fn shares the name).
        out.insert(name.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::Model;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<Model>, CallGraph) {
        let models: Vec<Model> = srcs.iter().map(|(_, s)| Model::build(s)).collect();
        let files: Vec<(&str, &str, &Model)> =
            srcs.iter().zip(models.iter()).map(|(&(p, s), m)| (p, s, m)).collect();
        let g = CallGraph::build(&files);
        (models, g)
    }

    #[test]
    fn direct_and_method_calls_reach() {
        let (models, g) = graph_of(&[(
            "a.rs",
            "fn entry() { helper(); obj.method(); }\n\
             fn helper() { leaf(); }\n\
             fn leaf() {}\n\
             fn method(&self) { leaf(); }\n\
             fn unrelated() {}\n",
        )]);
        let entry = models[0].fns.iter().position(|f| f.name == "entry").unwrap();
        let reached = g.reach(&[(0, entry)]);
        let names: Vec<&str> =
            reached.keys().map(|&(_, gi)| models[0].fns[gi].name.as_str()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"leaf"));
        assert!(names.contains(&"method"));
        assert!(!names.contains(&"unrelated"));
    }

    #[test]
    fn cross_file_resolution_is_name_based() {
        let (models, g) = graph_of(&[
            ("a.rs", "pub fn serve() { validate(); }\n"),
            ("b.rs", "pub fn validate() { check(); }\nfn check() {}\n"),
        ]);
        let reached = g.reach(&[(0, 0)]);
        let mut names: Vec<String> =
            reached.keys().map(|&(fi, gi)| models[fi].fns[gi].name.clone()).collect();
        names.sort();
        assert_eq!(names, ["check", "serve", "validate"]);
        // Path reconstruction: serve → validate → check.
        let check = reached.keys().copied().find(|&(fi, _)| fi == 1).unwrap();
        let path = CallGraph::path_to(&reached, check);
        assert_eq!(path[0], (0, 0));
    }

    #[test]
    fn test_code_contributes_no_edges_or_nodes() {
        let (models, g) = graph_of(&[(
            "a.rs",
            "fn entry() {}\n\
             #[cfg(test)]\nmod tests {\n  fn entry() { dangerous(); }\n}\n\
             fn dangerous() {}\n",
        )]);
        let live_entry =
            models[0].fns.iter().position(|f| f.name == "entry" && !f.in_test).unwrap();
        let reached = g.reach(&[(0, live_entry)]);
        assert_eq!(reached.len(), 1, "test-mod call sites must not leak edges");
    }

    #[test]
    fn macros_are_not_edges() {
        let (_, g) = graph_of(&[(
            "a.rs",
            "fn entry() { assert!(x); panic!(\"boom\"); }\nfn assert() {}\nfn panic() {}\n",
        )]);
        let reached = g.reach(&[(0, 0)]);
        assert_eq!(reached.len(), 1);
    }
}
