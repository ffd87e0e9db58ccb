//! The seven original rules, ported from the per-line regex matchers onto
//! the token stream.
//!
//! Semantics are pinned to the pre-port engine (the workspace corpus test
//! asserts identical findings on the real tree): each rule reports at most
//! once per (rule, line), path-based scoping is unchanged, and `#[cfg(test)]`
//! regions are exempt. What changed is the *matching substrate*: literals
//! and comments can no longer produce phantom matches, because rules only
//! ever see code tokens.

use super::Ctx;
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// The crates whose id-keyed maps must use `er_model::fxhash`.
const HOT_PATH_CRATES: [&str; 3] = ["crates/er-model/", "crates/core/", "crates/blocking/"];

/// Path fragments marking the weighting-sensitive files for `float-eq`.
const FLOAT_SENSITIVE: [&str; 4] = ["weight", "prune", "scanner", "blast"];

/// Macro names that abort.
const PANIC_MACROS: [&str; 3] = ["panic", "unimplemented", "todo"];

/// Macro names that write to the terminal.
const LOGGING_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

pub(crate) fn run(ctx: &mut Ctx<'_>) {
    let path = ctx.path;
    let hot_path = HOT_PATH_CRATES.iter().any(|p| path.starts_with(p));
    let float_sensitive = path.starts_with("crates/core/")
        && FLOAT_SENSITIVE.iter().any(|p| {
            std::path::Path::new(path)
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.contains(p))
        });
    let logging_exempt =
        path.starts_with("crates/observe/") || path.contains("/bin/") || path.ends_with("main.rs");
    let er_model = path.starts_with("crates/er-model/");
    let serve = path.starts_with("crates/serve/");

    let src = ctx.src;
    let toks: Vec<Token> = ctx.model.tokens.clone();
    let text = |k: usize| toks[k].text(src);
    let mut hits: BTreeSet<(&'static str, u32)> = BTreeSet::new();

    for k in 0..toks.len() {
        if ctx.model.in_test(k) {
            continue;
        }
        let t = toks[k];
        let line = t.line;
        if t.kind == TokenKind::Ident {
            let w = text(k);
            let bang = toks.get(k + 1).is_some_and(|n| n.is_punct('!'));
            // no-panic: aborting macros and .unwrap()/.expect(.
            if bang && PANIC_MACROS.contains(&w) {
                hits.insert(("no-panic", line));
            }
            if matches!(w, "unwrap" | "expect")
                && k > 0
                && toks[k - 1].is_punct('.')
                && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                hits.insert(("no-panic", line));
            }
            // adhoc-logging: terminal writes belong to mb-observe sinks.
            if !logging_exempt && bang && LOGGING_MACROS.contains(&w) {
                hits.insert(("adhoc-logging", line));
            }
            // default-hasher: naming the std hash containers through
            // their `std::collections::` path in a hot-path crate.
            if hot_path && w == "std" && path_has_hash_container(&toks, src, k) {
                hits.insert(("default-hasher", line));
            }
            // snapshot-unversioned-read: raw little-endian decoding in
            // the serving crate outside the codec Reader (budgeted).
            if serve && w == "from_le_bytes" && toks.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                hits.insert(("snapshot-unversioned-read", line));
            }
        }
    }

    // The line-granular rules share one pass over per-line token groups.
    let mut start = 0usize;
    while start < toks.len() {
        let line = toks[start].line;
        let mut end = start;
        while end < toks.len() && toks[end].line == line {
            end += 1;
        }
        if !ctx.model.in_test(start) {
            let lt = &toks[start..end];
            // id-narrowing-cast: an id constructor and a narrowing `as`
            // cast on the same line.
            let has_ctor = lt.windows(2).any(|w| {
                w[1].is_punct('(')
                    && w[0].kind == TokenKind::Ident
                    && matches!(w[0].text(src), "EntityId" | "BlockId")
            });
            let has_narrow = lt.windows(2).any(|w| {
                w[0].is_ident(src, "as")
                    && w[1].kind == TokenKind::Ident
                    && matches!(w[1].text(src), "u32" | "u16" | "u8")
            });
            if has_ctor && has_narrow {
                hits.insert(("id-narrowing-cast", line));
            }
            // owned-id-vec-field: `name: Vec<EntityId>` in er-model on a
            // line that is not a binding, signature or return type.
            if er_model {
                let has_field_ty = lt.windows(5).any(|w| {
                    w[0].is_punct(':')
                        && w[1].is_ident(src, "Vec")
                        && w[2].is_punct('<')
                        && w[3].is_ident(src, "EntityId")
                        && w[4].is_punct('>')
                });
                let disqualified = lt
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && matches!(t.text(src), "let" | "fn"))
                    || lt.windows(2).any(|w| {
                        w[0].is_punct('-') && w[1].is_punct('>') && w[0].end == w[1].start
                    });
                if has_field_ty && !disqualified {
                    hits.insert(("owned-id-vec-field", line));
                }
            }
            // float-eq: exact ==/!= with a float literal operand.
            if float_sensitive && line_has_float_eq(lt, start, &toks) {
                hits.insert(("float-eq", line));
            }
        }
        start = end;
    }

    for (rule, line) in hits {
        ctx.report(rule, line, None);
    }
}

/// From an Ident `std` at `k`: whether the path continues
/// `::collections::…` and names `HashMap`/`HashSet` within the same
/// declaration (covers `use std::collections::{HashMap, …}` and inline
/// `std::collections::HashMap<…>` type paths).
fn path_has_hash_container(toks: &[Token], src: &str, k: usize) -> bool {
    if !(toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 3).is_some_and(|t| t.is_ident(src, "collections")))
    {
        return false;
    }
    // Scan ahead to the end of the path expression / use tree: stop at `;`,
    // a closing delimiter beyond our own nesting, or 64 tokens.
    let mut depth = 0i64;
    for t in toks.iter().skip(k + 4).take(64) {
        match t.kind {
            TokenKind::Punct(';') => break,
            TokenKind::Punct('{') | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('}') | TokenKind::Punct('>') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokenKind::Ident if matches!(t.text(src), "HashMap" | "HashSet") => return true,
            TokenKind::Ident | TokenKind::Punct(':') | TokenKind::Punct(',') => {}
            _ => break,
        }
    }
    false
}

/// Whether the line-token slice `lt` (starting at global index `base` in
/// `all`) contains a standalone `==`/`!=` whose neighbor is a float
/// literal.
fn line_has_float_eq(lt: &[Token], base: usize, all: &[Token]) -> bool {
    for i in 0..lt.len().saturating_sub(1) {
        let (a, b) = (lt[i], lt[i + 1]);
        let is_eq = a.is_punct('=') && b.is_punct('=') && a.end == b.start;
        let is_ne = a.is_punct('!') && b.is_punct('=') && a.end == b.start;
        if !is_eq && !is_ne {
            continue;
        }
        // Reject `<=`, `>=`, `===`-ish runs: the punct before `a` must not
        // glue onto it.
        let gi = base + i;
        if gi > 0 {
            let p = all[gi - 1];
            if p.end == a.start
                && matches!(
                    p.kind,
                    TokenKind::Punct('<')
                        | TokenKind::Punct('>')
                        | TokenKind::Punct('=')
                        | TokenKind::Punct('!')
                )
            {
                continue;
            }
        }
        // Neighbor before the operator.
        if gi > 0 && all[gi - 1].kind == TokenKind::Float {
            return true;
        }
        // Neighbor after, tolerating a unary sign.
        let mut j = gi + 2;
        if all.get(j).is_some_and(|t| t.is_punct('-') || t.is_punct('+')) {
            j += 1;
        }
        if all.get(j).is_some_and(|t| t.kind == TokenKind::Float) {
            return true;
        }
    }
    false
}
