//! `unordered-iteration`: hash-container iteration flowing into ordered
//! outputs without a sort.
//!
//! `FxHashMap`/`FxHashSet` iteration order is arbitrary (and, for the std
//! containers, randomized per process). Any iteration whose results feed a
//! returned collection, an emitted sequence, or a snapshot section is a
//! latent nondeterminism — the exact bug class that would silently break
//! the bit-identical multi-threaded pruning guarantee.
//!
//! The pass is type-light but alias-aware:
//!
//! * **Hash-typed names** are collected from type ascriptions
//!   (`name: FxHashMap<…>` in fields, params and lets) and constructor
//!   bindings (`let m = FxHashMap::default()`), resolving use aliases so
//!   `use er_model::fxhash::FxHashMap as Cache` is still caught.
//! * **Iteration sites** are `for … in <recv>` loops and
//!   `recv.iter()/keys()/values()/drain()/into_iter()` chains where `recv`
//!   names a hash-typed binding (or `self.field`).
//! * A site is **clean** when the surrounding statement sorts
//!   (`sort*`), lands in an ordered collection (`BTreeMap`/`BTreeSet`/
//!   `BinaryHeap`), ends in an order-insensitive reduction (`sum`, `count`,
//!   `min`, `max`, `all`, `any`, `contains`, `len`, `product`,
//!   `is_empty`), feeds another hash container (`hash.extend(…)`), or when
//!   a `let`-bound result is sorted later in the same function
//!   (`let mut v = m.keys().collect(); … v.sort();`). A `for` body is
//!   clean when it only reduces (no `push`/`extend`/`append`/`insert`-into-
//!   sequence, `put_*`, `write!`, `collect`).
//!
//! Anything else is flagged; designed exceptions carry a
//! `lint:allow(unordered-iteration)` directive with the invariant that
//! makes them safe.

use super::Ctx;
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// Container type names (last path segment) with arbitrary iteration order.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that begin an iteration over the receiver.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminals whose result is independent of visit order.
const REDUCTIONS: [&str; 10] =
    ["sum", "product", "count", "min", "max", "all", "any", "contains", "len", "is_empty"];

/// Sinks that make a `for`-body order-sensitive.
const BODY_SINKS: [&str; 5] = ["push", "extend", "append", "collect", "insert"];

pub(crate) fn run(ctx: &mut Ctx<'_>) {
    let src = ctx.src;
    let toks: Vec<Token> = ctx.model.tokens.clone();
    let hash_names = collect_hash_names(ctx, &toks);
    if hash_names.is_empty() {
        return;
    }
    let mut hits: BTreeSet<u32> = BTreeSet::new();

    // A. `for PAT in RECV { body }` loops.
    let mut k = 0;
    while k < toks.len() {
        if toks[k].is_ident(src, "for") && !ctx.model.in_test(k) {
            if let Some((in_at, open)) = for_loop_shape(&toks, src, k) {
                let recv = &toks[in_at + 1..open];
                if receiver_iterates_hash(recv, src, &hash_names) && !has_sanitizer(recv, src) {
                    let close = match_brace(&toks, open);
                    let body = &toks[open..=close];
                    if body.iter().enumerate().any(|(i, t)| {
                        t.kind == TokenKind::Ident && {
                            let w = t.text(src);
                            (BODY_SINKS.contains(&w)
                                && i > 0
                                && body[i - 1].is_punct('.')
                                && !feeds_hash(body, i, src, &hash_names))
                                || w.starts_with("put_")
                                || ((w == "write" || w == "writeln")
                                    && body.get(i + 1).is_some_and(|n| n.is_punct('!')))
                        }
                    }) {
                        hits.insert(toks[k].line);
                    }
                    k = open;
                }
            }
        }
        k += 1;
    }

    // B. Iterator chains: `recv.keys()…`, `recv.iter()…`.
    for k in 0..toks.len() {
        let t = toks[k];
        if t.kind != TokenKind::Ident || ctx.model.in_test(k) {
            continue;
        }
        if !hash_names.contains(t.text(src)) {
            continue;
        }
        let Some(m_at) = method_after(&toks, k) else { continue };
        if !ITER_METHODS.contains(&toks[m_at].text(src)) {
            continue;
        }
        let (stmt_start, stmt_end) = statement_span(&toks, k);
        let stmt = &toks[stmt_start..stmt_end];
        // A `for`-loop receiver belongs to pass A, which judges the loop by
        // its body; flagging it here would override A's reduction analysis.
        if stmt.first().is_some_and(|t| t.is_ident(src, "for")) {
            continue;
        }
        if has_sanitizer(stmt, src)
            || has_reduction_after(stmt, k - stmt_start, src)
            || feeds_hash(stmt, k - stmt_start, src, &hash_names)
            || sorted_later(ctx, &toks, stmt_start, stmt_end, src)
        {
            continue;
        }
        hits.insert(t.line);
    }

    for line in hits {
        ctx.report("unordered-iteration", line, None);
    }
}

/// Gathers every name with a hash-container type in this file, resolving
/// use aliases.
fn collect_hash_names(ctx: &Ctx<'_>, toks: &[Token]) -> BTreeSet<String> {
    let src = ctx.src;
    let mut names = BTreeSet::new();
    let is_hash_seg = |seg: &str| {
        let resolved = ctx.model.resolve(seg);
        let last = resolved.rsplit("::").next().unwrap_or(resolved);
        HASH_TYPES.contains(&last)
    };
    for k in 0..toks.len() {
        // `name : [& 'a mut dyn]* path::Type<…>`
        if toks[k].is_punct(':')
            && k > 0
            && toks[k - 1].kind == TokenKind::Ident
            && !toks[k - 1].is_ident(src, "self")
            && toks.get(k + 1).is_none_or(|t| !t.is_punct(':'))
            && (k < 2 || !toks[k - 2].is_punct(':'))
        {
            let mut j = k + 1;
            while j < toks.len()
                && (toks[j].is_punct('&')
                    || toks[j].kind == TokenKind::Lifetime
                    || toks[j].is_ident(src, "mut")
                    || toks[j].is_ident(src, "dyn"))
            {
                j += 1;
            }
            // Walk the path: ident (:: ident)*, ending before `<` or
            // anything else.
            let mut last_seg = None;
            while j < toks.len() && toks[j].kind == TokenKind::Ident {
                last_seg = Some(toks[j].text(src));
                if toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                {
                    j += 3;
                } else {
                    break;
                }
            }
            if last_seg.is_some_and(is_hash_seg) {
                names.insert(toks[k - 1].text(src).to_string());
            }
        }
        // `let [mut] name = Path::ctor(…)`
        if toks[k].is_ident(src, "let") {
            let mut j = k + 1;
            if toks.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { continue };
            if name_tok.kind != TokenKind::Ident
                || !toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            {
                continue;
            }
            // Any path segment on the rhs before the first `(`.
            let mut m = j + 2;
            let mut found = false;
            while m < toks.len() {
                match toks[m].kind {
                    TokenKind::Ident => {
                        if is_hash_seg(toks[m].text(src)) {
                            found = true;
                        }
                    }
                    TokenKind::Punct(':') | TokenKind::Punct('<') | TokenKind::Punct('>') => {}
                    _ => break,
                }
                m += 1;
            }
            if found {
                names.insert(name_tok.text(src).to_string());
            }
        }
    }
    names
}

/// For an Ident at `k`, the index of a method name in `.m(` position right
/// after it (skipping nothing else).
fn method_after(toks: &[Token], k: usize) -> Option<usize> {
    if toks.get(k + 1)?.is_punct('.') && toks.get(k + 2)?.kind == TokenKind::Ident {
        Some(k + 2)
    } else {
        None
    }
}

/// `for … in … {`: returns (index of `in`, index of the body `{`).
/// Distinguishes loops from `impl Trait for Type {` (no top-level `in`).
fn for_loop_shape(toks: &[Token], src: &str, for_at: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    let mut in_at = None;
    for (k, t) in toks.iter().enumerate().skip(for_at + 1) {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Ident if depth == 0 && t.is_ident(src, "in") => in_at = Some(k),
            TokenKind::Punct('{') if depth == 0 => return in_at.map(|i| (i, k)),
            TokenKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Matching `}` for the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len() - 1
}

/// Whether the receiver token range iterates a hash-typed name: the name
/// appears either bare (for-loop over `&map`), or followed by an iteration
/// method.
fn receiver_iterates_hash(recv: &[Token], src: &str, hash_names: &BTreeSet<String>) -> bool {
    for (i, t) in recv.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_names.contains(t.text(src)) {
            continue;
        }
        match (recv.get(i + 1), recv.get(i + 2)) {
            // Bare receiver end: `for k in &map {`.
            (None, _) => return true,
            // `map.iter()…` — only iteration methods count; `map.len()`
            // does not iterate.
            (Some(dot), Some(m))
                if dot.is_punct('.')
                    && m.kind == TokenKind::Ident
                    && ITER_METHODS.contains(&m.text(src)) =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Whether a token range contains an ordering sanitizer: a `sort*` call or
/// an ordered collection name.
fn has_sanitizer(range: &[Token], src: &str) -> bool {
    range.iter().any(|t| {
        t.kind == TokenKind::Ident
            && (t.text(src).starts_with("sort")
                || matches!(t.text(src), "BTreeMap" | "BTreeSet" | "BinaryHeap"))
    })
}

/// Whether an order-insensitive reduction terminal appears after offset
/// `from` in the statement.
fn has_reduction_after(stmt: &[Token], from: usize, src: &str) -> bool {
    stmt.iter().skip(from).enumerate().any(|(i, t)| {
        t.kind == TokenKind::Ident
            && REDUCTIONS.contains(&t.text(src))
            && (from + i).checked_sub(1).and_then(|p| stmt.get(p)).is_some_and(|p| p.is_punct('.'))
    })
}

/// Whether the iteration feeds another hash container: the statement's
/// receiver (`target.extend(…)` / `target.insert(…)`) is itself
/// hash-typed — same-content hash containers are order-insensitive.
fn feeds_hash(stmt: &[Token], _at: usize, src: &str, hash_names: &BTreeSet<String>) -> bool {
    stmt.windows(3).any(|w| {
        w[0].kind == TokenKind::Ident
            && hash_names.contains(w[0].text(src))
            && w[1].is_punct('.')
            && w[2].kind == TokenKind::Ident
            && matches!(w[2].text(src), "extend" | "insert")
    })
}

/// The statement containing token `k`: from just after the previous
/// top-level `;`/`{`/`}` to the next top-level `;` (or block start).
fn statement_span(toks: &[Token], k: usize) -> (usize, usize) {
    let mut start = k;
    let mut depth = 0i64;
    while start > 0 {
        let t = toks[start - 1];
        match t.kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth += 1,
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        start -= 1;
    }
    let mut end = k;
    let mut depth = 0i64;
    while end < toks.len() {
        let t = toks[end];
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct(';') | TokenKind::Punct('{') if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    (start, end)
}

/// For a `let [mut] NAME = <iteration>;` statement, whether `NAME.sort*()`
/// appears later in the enclosing function body.
fn sorted_later(
    ctx: &Ctx<'_>,
    toks: &[Token],
    stmt_start: usize,
    stmt_end: usize,
    src: &str,
) -> bool {
    let stmt = &toks[stmt_start..stmt_end];
    if !stmt.first().is_some_and(|t| t.is_ident(src, "let")) {
        return false;
    }
    let mut j = 1;
    if stmt.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
        j += 1;
    }
    let Some(name_tok) = stmt.get(j) else { return false };
    if name_tok.kind != TokenKind::Ident {
        return false;
    }
    let name = name_tok.text(src);
    let body_end = ctx
        .model
        .enclosing_fn(stmt_start)
        .and_then(|f| f.body)
        .map(|(_, close)| close)
        .unwrap_or(toks.len() - 1);
    toks[stmt_end..=body_end.min(toks.len() - 1)].windows(3).any(|w| {
        w[0].is_ident(src, name)
            && w[1].is_punct('.')
            && w[2].kind == TokenKind::Ident
            && w[2].text(src).starts_with("sort")
    })
}
