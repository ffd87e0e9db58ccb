//! `codec-coverage`: encode/decode parity for snapshot sections.
//!
//! Section encoders and decoders in `crates/serve` are reduced to primitive
//! **op sequences** over the codec alphabet (`u8`, `u32`, `u64`, `bytes`,
//! `seq(x)` for a `u32`-count-prefixed run of `x`) and compared per
//! `SECTION_*` key:
//!
//! * **Encode side** — functions named `encode*`: `put_u8`/`put_u32`/
//!   `put_u64`/`put_bytes` emit primitives, `put_u32_slice` emits
//!   `seq(u32)`; ops are keyed by the `SECTION_*` match arm they appear
//!   under.
//! * **Decode side** — any function: a `Reader::new(get(SECTION_X)?, …)`
//!   call opens a keyed decode segment (running to the next `Reader::new`
//!   or the function end); `.u8()`/`.u32()`/`.u64()`/`.bytes()` are
//!   primitives and `.u32s()` is `seq(u32)`. Segments with no
//!   `SECTION_*` key (the outer frame reader) are framing, not section
//!   payload, and are skipped.
//! * **Loop compression** — ops inside a `for`/`while` body form a repeated
//!   group; a bare `u32` immediately before a repeated group is its count
//!   prefix, and the pair compresses to `seq(group)`. This is exactly the
//!   `put_u32(len); for … put_x(…)` / `r.u32()?; for … r.x()?` idiom.
//!
//! A section encoded but never decoded, decoded but never encoded, decoded
//! at different widths, or whose decode segment never calls `.finish()`
//! (trailing bytes would go unnoticed) is reported as format drift.

use crate::lexer::{Token, TokenKind};
use crate::rules::panic_reach::FileModel;
use crate::Finding;
use std::collections::BTreeMap;

/// A primitive op, post-compression.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Node {
    /// One fixed-width or self-prefixed value: `u8`, `u32`, `u64`, `bytes`.
    Prim(&'static str),
    /// `u32` count followed by that many repetitions of the group.
    Seq(Vec<&'static str>),
    /// An uncompressed loop body (no count prefix found) — compared
    /// structurally; a `Rep` on one side only is a mismatch.
    Rep(Vec<&'static str>),
}

/// A raw op before compression.
struct RawOp {
    base: &'static str,
    /// Already a complete `seq(u32)` (from `put_u32_slice` / `u32s`).
    seq: bool,
    /// Innermost enclosing loop body range, if any.
    loop_id: Option<usize>,
    line: u32,
}

/// One side of a section: its op sequence plus bookkeeping for findings.
#[derive(Default)]
struct Side {
    ops: Vec<Node>,
    line: u32,
    finished: bool,
}

pub(crate) fn run(files: &[FileModel<'_>], findings: &mut Vec<Finding>) {
    let mut encode: BTreeMap<String, (usize, Side)> = BTreeMap::new();
    let mut decode: BTreeMap<String, (usize, Side)> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if !file.path.starts_with("crates/serve/") {
            continue;
        }
        collect_encode(file, fi, &mut encode);
        collect_decode(file, fi, &mut decode);
    }

    let mut report = |fi: usize, line: u32, note: String| {
        let file = &files[fi];
        findings.push(Finding {
            file: file.path.to_string(),
            line: line as usize,
            rule: "codec-coverage",
            snippet: super::snippet_of(file.src, line),
            note: Some(note),
        });
    };

    for (key, (fi, enc)) in &encode {
        match decode.get(key) {
            None => report(
                *fi,
                enc.line,
                format!("section {key} is encoded but has no Reader-keyed decode segment"),
            ),
            Some((dfi, dec)) => {
                if enc.ops != dec.ops {
                    report(
                        *dfi,
                        dec.line,
                        format!(
                            "section {key} decode reads [{}] but encode writes [{}]",
                            render(&dec.ops),
                            render(&enc.ops)
                        ),
                    );
                }
                if !dec.finished {
                    report(
                        *dfi,
                        dec.line,
                        format!("section {key} decode segment never calls finish()"),
                    );
                }
            }
        }
    }
    for (key, (dfi, dec)) in &decode {
        if !encode.contains_key(key) {
            report(*dfi, dec.line, format!("section {key} is decoded but never encoded"));
        }
    }
}

fn render(ops: &[Node]) -> String {
    ops.iter()
        .map(|n| match n {
            Node::Prim(b) => (*b).to_string(),
            Node::Seq(g) => format!("seq({})", g.join(" ")),
            Node::Rep(g) => format!("rep({})", g.join(" ")),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Encode ops from `encode*` functions, keyed by `SECTION_*` match arm.
fn collect_encode(file: &FileModel<'_>, fi: usize, out: &mut BTreeMap<String, (usize, Side)>) {
    let src = file.src;
    let m = file.model;
    let toks = &m.tokens;
    for f in &m.fns {
        if f.in_test || !f.name.starts_with("encode") {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        let close = close.min(toks.len().saturating_sub(1));
        let loops = loop_bodies(toks, src, open, close);
        let mut key: Option<String> = None;
        let mut raw: BTreeMap<String, Vec<RawOp>> = BTreeMap::new();
        for k in open..=close {
            let t = toks[k];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let w = t.text(src);
            // `SECTION_X =>` switches the active arm. Other arm patterns
            // (nested matches like `ErKind::Dirty => 0` inside a put call)
            // keep the current attribution.
            if w.starts_with("SECTION_")
                && toks.get(k + 1).is_some_and(|n| n.is_punct('='))
                && toks.get(k + 2).is_some_and(|n| n.is_punct('>'))
            {
                key = Some(w.to_string());
                continue;
            }
            if !toks.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            let op = match w {
                "put_u8" => Some(("u8", false)),
                "put_u32" => Some(("u32", false)),
                "put_u64" => Some(("u64", false)),
                "put_bytes" => Some(("bytes", false)),
                "put_u32_slice" => Some(("u32", true)),
                _ => None,
            };
            if let (Some((base, seq)), Some(key)) = (op, &key) {
                raw.entry(key.clone()).or_default().push(RawOp {
                    base,
                    seq,
                    loop_id: innermost(&loops, k),
                    line: t.line,
                });
            }
        }
        for (key, ops) in raw {
            let line = ops.first().map_or(0, |o| o.line);
            let side = Side { ops: compress(ops), line, finished: true };
            out.insert(key, (fi, side));
        }
    }
}

/// Decode ops from `Reader::new(…SECTION_X…)`-keyed segments.
fn collect_decode(file: &FileModel<'_>, fi: usize, out: &mut BTreeMap<String, (usize, Side)>) {
    let src = file.src;
    let m = file.model;
    let toks = &m.tokens;
    for f in &m.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        let close = close.min(toks.len().saturating_sub(1));
        let loops = loop_bodies(toks, src, open, close);
        // Segment boundaries: each Reader::new call.
        // (reader token index, first token after the args, key, line)
        let mut segments: Vec<(usize, usize, Option<String>, u32)> = Vec::new();
        for k in open..=close {
            if toks[k].is_ident(src, "Reader")
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 3).is_some_and(|t| t.is_ident(src, "new"))
                && toks.get(k + 4).is_some_and(|t| t.is_punct('('))
            {
                let args_end = match_paren(toks, k + 4, close);
                let key = toks[k + 4..=args_end].iter().find_map(|t| {
                    (t.kind == TokenKind::Ident && t.text(src).starts_with("SECTION_"))
                        .then(|| t.text(src).to_string())
                });
                segments.push((k, args_end + 1, key, toks[k].line));
            }
        }
        for (si, (_, start, key, line)) in segments.iter().enumerate() {
            let Some(key) = key else { continue };
            let end = segments.get(si + 1).map_or(close, |s| s.0.saturating_sub(1));
            let mut raw: Vec<RawOp> = Vec::new();
            let mut finished = false;
            for k in *start..=end {
                let t = toks[k];
                if t.kind != TokenKind::Ident
                    || k == 0
                    || !toks[k - 1].is_punct('.')
                    || !toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    continue;
                }
                let op = match t.text(src) {
                    "u8" => Some(("u8", false)),
                    "u32" => Some(("u32", false)),
                    "u64" => Some(("u64", false)),
                    "bytes" => Some(("bytes", false)),
                    "u32s" => Some(("u32", true)),
                    "finish" => {
                        finished = true;
                        None
                    }
                    _ => None,
                };
                if let Some((base, seq)) = op {
                    raw.push(RawOp { base, seq, loop_id: innermost(&loops, k), line: t.line });
                }
            }
            out.insert(key.clone(), (fi, Side { ops: compress(raw), line: *line, finished }));
        }
    }
}

/// Every `for`/`while` body range within `(open, close)`.
fn loop_bodies(toks: &[Token], src: &str, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for k in open..=close {
        let t = toks[k];
        if !(t.is_ident(src, "for") || t.is_ident(src, "while")) {
            continue;
        }
        // First `{` at paren/bracket depth 0 after the keyword.
        let mut depth = 0i64;
        for (j, n) in toks.iter().enumerate().skip(k + 1).take(close - k) {
            match n.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => {
                    out.push((j, match_brace(toks, j, close)));
                    break;
                }
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
        }
    }
    out
}

/// The innermost loop body containing token `k`, as an index into `loops`.
fn innermost(loops: &[(usize, usize)], k: usize) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, &(o, c))| o < k && k < c)
        .min_by_key(|(_, &(o, c))| c - o)
        .map(|(i, _)| i)
}

fn match_brace(toks: &[Token], open: usize, close: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open).take(close + 1 - open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    close
}

fn match_paren(toks: &[Token], open: usize, close: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open).take(close + 1 - open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    close
}

/// Groups consecutive same-loop ops into `Rep`s, then fuses each bare
/// `u32` count prefix with the `Rep` that follows it into a `Seq`.
fn compress(raw: Vec<RawOp>) -> Vec<Node> {
    // Phase 1: loop grouping.
    let mut grouped: Vec<Node> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].loop_id {
            None => {
                grouped.push(if raw[i].seq {
                    Node::Seq(vec![raw[i].base])
                } else {
                    Node::Prim(raw[i].base)
                });
                i += 1;
            }
            Some(id) => {
                let mut body = Vec::new();
                while i < raw.len() && raw[i].loop_id == Some(id) {
                    // A seq op inside a loop stays a nested element; flatten
                    // conservatively as its base (none exist today).
                    body.push(raw[i].base);
                    i += 1;
                }
                grouped.push(Node::Rep(body));
            }
        }
    }
    // Phase 2: count-prefix fusion.
    let mut out: Vec<Node> = Vec::new();
    let mut i = 0;
    while i < grouped.len() {
        if let (Node::Prim("u32"), Some(Node::Rep(body))) = (&grouped[i], grouped.get(i + 1)) {
            out.push(Node::Seq(body.clone()));
            i += 2;
        } else {
            out.push(grouped[i].clone());
            i += 1;
        }
    }
    out
}
