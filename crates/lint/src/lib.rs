//! # cat-lint — in-repo static analysis for the determinism & concurrency contract
//!
//! The engine's whole value proposition is the determinism contract of
//! `DESIGN.md §7–§8`: bit-identical stats for any shard count, producer
//! count, or ingestion path. The equivalence suites enforce that contract
//! *dynamically* — long after a violation is written. This crate enforces it
//! *statically*, at the source level, so a hasher-ordered iteration, a
//! wall-clock read, or a lock-order inversion is rejected at `tier1.sh` time
//! with a `file:line` diagnostic. The workspace builds offline (README
//! "Offline build constraint"), so this is a zero-dependency hand-rolled
//! linter rather than a clippy plugin / miri / loom: a Rust **lexer** (token
//! stream with string/char/comment awareness and `#[cfg(test)]`-region
//! tracking — no full parser) plus path-scoped **rules**:
//!
//! | rule | scope | rejects |
//! |---|---|---|
//! | `hash-order` | `cat-core`, `cat-engine`, `cat-prng` | `HashMap`/`HashSet`/`RandomState` — iteration order depends on hasher state |
//! | `wall-clock` | everywhere except `crates/bench` | `Instant`/`SystemTime` — wall time is nondeterministic input |
//! | `panic-path` | `catd` datapath (`wire.rs`, `ingest.rs`, `system.rs`, `shard.rs`, `address.rs`, `sparse.rs`, `checkpoint.rs`, `router.rs`) | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `lock-order` | `crates/engine/src` | unannotated `Mutex`/`Condvar` fields, unresolvable `.lock()` sites, acquisition-order cycles |
//! | `atomic-order` | `crates/engine/src` | `Ordering::Relaxed` — cross-thread publication needs Release/Acquire (or SeqCst) |
//! | `dense-banks` | `crates/engine/src` minus `sparse.rs` | `banks[…]` indexing and `Vec<Option<SchemeInstance>>` — dense per-bank storage outside the sparse accessor module (DESIGN.md §10) |
//! | `crate-attrs` | crate roots, bench targets, examples | missing `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]` |
//!
//! Test code — `#[cfg(test)]` / `#[test]` regions and any file under a
//! `tests/` directory — is exempt from every rule but `crate-attrs`. A justified
//! exception is granted by a directive on the offending line or the line
//! directly above:
//!
//! ```text
//! // cat-lint: allow(panic-path) -- infallible: length checked above
//! ```
//!
//! The reason after `--` is **required**; a directive without one, or naming
//! an unknown rule, is itself a [`BAD_ALLOW`] violation. Lock fields are
//! named with `// lock-order: <name>` on the declaration line (or the line
//! above); the acquisition graph over those names must be acyclic.
//!
//! The analysis is deliberately token-level and type-blind: `hash-order`
//! bans the hash-collection *type names* wholesale in the determinism
//! crates (a strict superset of banning their iteration APIs — `BTreeMap`
//! is the sanctioned replacement, and a justified non-iterating use takes
//! an `allow`), and `lock-order` approximates guard nesting by acquisition
//! order within one function body. See `DESIGN.md §9` for the full contract
//! and how to add a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The enforceable rule identifiers, in documentation order.
pub const RULES: [&str; 7] = [
    "hash-order",
    "wall-clock",
    "panic-path",
    "lock-order",
    "atomic-order",
    "dense-banks",
    "crate-attrs",
];

/// Pseudo-rule reported for malformed or unknown `cat-lint:` directives.
/// Never suppressible by an `allow`.
pub const BAD_ALLOW: &str = "bad-allow";

/// One diagnostic: where, which rule, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule identifier (one of [`RULES`] or [`BAD_ALLOW`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokKind {
    Ident,
    Punct,
    Literal,
}

#[derive(Clone, Debug)]
struct Token {
    kind: TokKind,
    text: String,
    line: usize,
}

#[derive(Clone, Debug)]
struct Allow {
    line: usize,
    rule: String,
}

#[derive(Default)]
struct Lexed {
    tokens: Vec<Token>,
    allows: Vec<Allow>,
    /// `// lock-order: <name>` annotations: (line, name).
    lock_names: Vec<(usize, String)>,
    /// Malformed directives: (line, error).
    malformed: Vec<(usize, String)>,
}

/// Consumes a `"…"` string literal starting at the opening quote; returns
/// the index one past the closing quote.
fn skip_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut j = start + 1;
    while j < chars.len() {
        match chars[j] {
            // An escape may hide a newline (`\<newline>` line continuation):
            // still count it, or every later diagnostic drifts upward.
            '\\' => {
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '"' => return j + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                j += 1;
            }
        }
    }
    j
}

/// Consumes a `'…'` char literal starting at the opening quote; returns the
/// index one past the closing quote.
fn skip_char(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut j = start + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                }
                j += 2;
            }
            '\'' => return j + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                j += 1;
            }
        }
    }
    j
}

/// Recognizes `b"…"`, `b'…'`, `r"…"`, `r#"…"#`, `br#"…"#` starting at `i`
/// (which must be `b` or `r`); returns the index past the literal, or
/// `None` if this is an ordinary identifier.
fn try_string_like(chars: &[char], i: usize, line: &mut usize) -> Option<usize> {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if j < n && chars[j] == 'r' {
        let mut k = j + 1;
        let mut hashes = 0usize;
        while k < n && chars[k] == '#' {
            hashes += 1;
            k += 1;
        }
        if k < n && chars[k] == '"' {
            // Raw string: no escapes; ends at `"` followed by `hashes` `#`s.
            let mut p = k + 1;
            while p < n {
                if chars[p] == '\n' {
                    *line += 1;
                }
                if chars[p] == '"'
                    && chars[p + 1..].iter().take_while(|c| **c == '#').count() >= hashes
                {
                    return Some(p + 1 + hashes);
                }
                p += 1;
            }
            return Some(p);
        }
        return None; // `r#ident` raw identifier or a plain ident starting with r/br
    }
    if j > i && j < n && chars[j] == '"' {
        return Some(skip_string(chars, j, line));
    }
    if j > i && j < n && chars[j] == '\'' {
        return Some(skip_char(chars, j, line));
    }
    None
}

fn parse_allow(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<rule>)`".to_string())?;
    let (rule, after) = inner
        .split_once(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let reason = after
        .trim_start()
        .strip_prefix("--")
        .ok_or_else(|| "missing ` -- <reason>` justification".to_string())?
        .trim();
    if reason.is_empty() {
        return Err("empty justification after `--`".to_string());
    }
    Ok(rule.trim().to_string())
}

/// Parses one `//` comment body (text after the slashes) for directives.
fn parse_comment(body: &str, line: usize, lx: &mut Lexed) {
    if body.starts_with('/') || body.starts_with('!') {
        return; // doc comment: prose, never a directive
    }
    let t = body.trim();
    if let Some(rest) = t.strip_prefix("cat-lint:") {
        match parse_allow(rest.trim()) {
            Ok(rule) => lx.allows.push(Allow { line, rule }),
            Err(e) => lx.malformed.push((line, e)),
        }
    } else if let Some(rest) = t.strip_prefix("lock-order:") {
        // Grammar: `lock-order: <name>` with an optional ` -- <note>` tail.
        let name = rest.split("--").next().unwrap_or("").trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            lx.malformed.push((
                line,
                format!("`lock-order:` needs an identifier name, got `{name}`"),
            ));
        } else {
            lx.lock_names.push((line, name.to_string()));
        }
    }
}

fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut lx = Lexed::default();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            let body: String = chars[start..j].iter().collect();
            parse_comment(&body, line, &mut lx);
            i = j;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            let l = line;
            i = skip_string(&chars, i, &mut line);
            lx.tokens.push(Token {
                kind: TokKind::Literal,
                text: String::new(),
                line: l,
            });
        } else if c == '\'' {
            // Lifetime (`'a`) vs char literal (`'a'`).
            let is_lifetime = i + 1 < n
                && (chars[i + 1].is_alphanumeric() || chars[i + 1] == '_')
                && !(i + 2 < n && chars[i + 2] == '\'');
            if is_lifetime {
                let mut j = i + 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                i = j;
            } else {
                let l = line;
                i = skip_char(&chars, i, &mut line);
                lx.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: l,
                });
            }
        } else if c.is_alphabetic() || c == '_' {
            if (c == 'b' || c == 'r') && i + 1 < n {
                if let Some(j) = try_string_like(&chars, i, &mut line) {
                    lx.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
            let mut j = i;
            // Raw identifier `r#name` lexes as the bare name.
            if c == 'r' && i + 1 < n && chars[i + 1] == '#' {
                j = i + 2;
                i = j;
            }
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            lx.tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
        } else if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            lx.tokens.push(Token {
                kind: TokKind::Literal,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
        } else if c == ':' && i + 1 < n && chars[i + 1] == ':' {
            lx.tokens.push(Token {
                kind: TokKind::Punct,
                text: "::".to_string(),
                line,
            });
            i += 2;
        } else {
            lx.tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    lx
}

// ---------------------------------------------------------------------------
// Test-region tracking
// ---------------------------------------------------------------------------

/// Returns the index one past the `]` closing the attribute whose `[` is at
/// `open`, plus the attribute's inner token texts.
fn scan_attr(tokens: &[Token], open: usize) -> (usize, Vec<String>) {
    let mut depth = 0usize;
    let mut inner = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, inner);
                }
            }
            _ => {}
        }
        if depth >= 1 && j > open {
            inner.push(tokens[j].text.clone());
        }
        j += 1;
    }
    (j, inner)
}

/// Marks every token belonging to a `#[cfg(test)]`- or `#[test]`-attributed
/// item (the attribute through the item's closing `}` or `;`).
fn test_token_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let n = tokens.len();
    let mut i = 0usize;
    while i < n {
        if tokens[i].text == "#" && i + 1 < n && tokens[i + 1].text == "[" {
            let (after, inner) = scan_attr(tokens, i + 1);
            let is_test = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
            if !is_test {
                i = after;
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut k = after;
            while k + 1 < n && tokens[k].text == "#" && tokens[k + 1].text == "[" {
                let (next, _) = scan_attr(tokens, k + 1);
                k = next;
            }
            // The item ends at `;` (e.g. a `use`) or at the matching `}` of
            // its first top-level brace block.
            let mut pd = 0i32;
            let mut end = n.saturating_sub(1);
            while k < n {
                match tokens[k].text.as_str() {
                    "(" | "[" => pd += 1,
                    ")" | "]" => pd -= 1,
                    ";" if pd == 0 => {
                        end = k;
                        break;
                    }
                    "{" if pd == 0 => {
                        let mut bd = 0i32;
                        while k < n {
                            if tokens[k].text == "{" {
                                bd += 1;
                            } else if tokens[k].text == "}" {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        end = k.min(n - 1);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct FileScope {
    /// Under a `tests/` directory: the whole file is test code.
    is_test_file: bool,
    /// Under `crates/bench/`: exempt from `wall-clock`.
    in_bench: bool,
    /// Determinism-critical crates: `hash-order` applies.
    det_crate: bool,
    /// The `catd` server datapath: `panic-path` applies.
    datapath: bool,
    /// Engine sources: `lock-order` applies.
    engine_src: bool,
    /// Engine sources outside the sparse accessor module: `dense-banks`
    /// applies (`sparse.rs` itself owns the block layout).
    dense_banks: bool,
    /// A crate root / bench target / example: `crate-attrs` applies.
    crate_root: bool,
}

fn classify(rel: &str) -> FileScope {
    let comps: Vec<&str> = rel.split('/').collect();
    let parent = if comps.len() >= 2 {
        comps[comps.len() - 2]
    } else {
        ""
    };
    FileScope {
        is_test_file: comps.contains(&"tests"),
        in_bench: rel.starts_with("crates/bench/"),
        det_crate: ["crates/core/", "crates/engine/", "crates/prng/"]
            .iter()
            .any(|p| rel.starts_with(p)),
        datapath: matches!(
            rel,
            "crates/engine/src/wire.rs"
                | "crates/engine/src/ingest.rs"
                | "crates/engine/src/system.rs"
                | "crates/engine/src/shard.rs"
                | "crates/engine/src/address.rs"
                | "crates/engine/src/sparse.rs"
                | "crates/engine/src/checkpoint.rs"
                | "crates/engine/src/router.rs"
        ),
        engine_src: rel.starts_with("crates/engine/src/"),
        dense_banks: rel.starts_with("crates/engine/src/") && rel != "crates/engine/src/sparse.rs",
        crate_root: rel.ends_with("src/lib.rs")
            || rel.ends_with("src/main.rs")
            || parent == "benches"
            || parent == "examples",
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct Ctx<'a> {
    tokens: &'a [Token],
    test: &'a [bool],
    lock_names: &'a [(usize, String)],
}

fn push(out: &mut Vec<Violation>, rel: &str, line: usize, rule: &'static str, message: String) {
    out.push(Violation {
        path: rel.to_string(),
        line,
        rule,
        message,
    });
}

fn rule_hash_order(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.test[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => push(
                out,
                rel,
                t.line,
                "hash-order",
                format!(
                    "`{}` in a determinism-critical crate: iteration order depends on \
                     hasher state; use `BTree{}` (or justify a non-iterating use with \
                     an allow directive)",
                    t.text,
                    &t.text[4..]
                ),
            ),
            "RandomState" => push(
                out,
                rel,
                t.line,
                "hash-order",
                "`RandomState` seeds per-process hasher randomness into a \
                 determinism-critical crate"
                    .to_string(),
            ),
            _ => {}
        }
    }
}

fn rule_wall_clock(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            push(
                out,
                rel,
                t.line,
                "wall-clock",
                format!(
                    "`{}` outside `crates/bench`: wall time is nondeterministic input \
                     (stats must be a pure function of the access stream)",
                    t.text
                ),
            );
        }
    }
}

fn rule_atomic_order(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Relaxed" {
            push(
                out,
                rel,
                t.line,
                "atomic-order",
                "`Ordering::Relaxed` in engine sources: cross-thread publication must \
                 use Release/Acquire (or SeqCst); a data slot whose ordering is carried \
                 by a neighbouring cursor publication takes an allow with the rationale \
                 (DESIGN.md §9)"
                    .to_string(),
            );
        }
    }
}

fn rule_panic_path(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        match toks[i].text.as_str() {
            m @ ("unwrap" | "expect") if prev == Some(".") && next == Some("(") => push(
                out,
                rel,
                toks[i].line,
                "panic-path",
                format!(
                    "`.{m}()` in the catd server datapath: a malformed peer frame must \
                     surface as a wire/ingest error, not a thread abort"
                ),
            ),
            m @ ("panic" | "unreachable" | "todo" | "unimplemented") if next == Some("!") => push(
                out,
                rel,
                toks[i].line,
                "panic-path",
                format!("`{m}!` in the catd server datapath: return an error instead"),
            ),
            _ => {}
        }
    }
}

fn rule_dense_banks(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let at = |k: usize| toks.get(i + k).map(|t| t.text.as_str());
        if toks[i].text == "banks" && at(1) == Some("[") {
            push(
                out,
                rel,
                toks[i].line,
                "dense-banks",
                "`banks[…]` indexes bank storage directly: go through the sparse \
                 accessor module (`SparseBanks::touch` / `records`), which \
                 materializes banks lazily — dense indexing reintroduces O(banks) \
                 residency (DESIGN.md §10)"
                    .to_string(),
            );
        }
        if toks[i].text == "Vec"
            && at(1) == Some("<")
            && at(2) == Some("Option")
            && at(3) == Some("<")
            && at(4) == Some("SchemeInstance")
        {
            push(
                out,
                rel,
                toks[i].line,
                "dense-banks",
                "`Vec<Option<SchemeInstance>>` is the dense per-bank layout the sparse \
                 storage replaced: one resident slot per bank whether or not the bank \
                 is ever touched; hold a `SparseBanks` instead (DESIGN.md §10)"
                    .to_string(),
            );
        }
    }
}

fn rule_crate_attrs(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    let mut forbid_unsafe = false;
    let mut missing_docs = false;
    for i in 0..toks.len().saturating_sub(7) {
        if toks[i].text == "#"
            && toks[i + 1].text == "!"
            && toks[i + 2].text == "["
            && toks[i + 3].kind == TokKind::Ident
            && toks[i + 4].text == "("
            && toks[i + 5].kind == TokKind::Ident
            && toks[i + 6].text == ")"
            && toks[i + 7].text == "]"
        {
            let level = toks[i + 3].text.as_str();
            let lint = toks[i + 5].text.as_str();
            if level == "forbid" && lint == "unsafe_code" {
                forbid_unsafe = true;
            }
            if matches!(level, "warn" | "deny" | "forbid") && lint == "missing_docs" {
                missing_docs = true;
            }
        }
    }
    if !forbid_unsafe {
        push(
            out,
            rel,
            1,
            "crate-attrs",
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    if !missing_docs {
        push(
            out,
            rel,
            1,
            "crate-attrs",
            "crate root lacks `#![warn(missing_docs)]`".to_string(),
        );
    }
}

/// Tokens inside `use …;` items (so `use std::sync::{Condvar, Mutex};` is
/// not mistaken for a lock declaration).
fn use_item_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    let mut prev: Option<usize> = None;
    while i < tokens.len() {
        let at_item_position = match prev {
            None => true,
            Some(p) => matches!(tokens[p].text.as_str(), ";" | "{" | "}" | "]"),
        };
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "use" && at_item_position {
            while i < tokens.len() && tokens[i].text != ";" {
                mask[i] = true;
                i += 1;
            }
        } else {
            prev = Some(i);
            i += 1;
        }
    }
    mask
}

fn rule_lock_order(ctx: &Ctx<'_>, rel: &str, out: &mut Vec<Violation>) {
    let toks = ctx.tokens;
    let n = toks.len();
    let in_use = use_item_mask(toks);

    // Pass 1: lock declarations (`name: Mutex<…>` / `name: Condvar` fields
    // or annotated locals) → field name → lock-order name. Each annotation
    // names exactly one lock: a same-line annotation binds tighter than a
    // line-above one, and a consumed annotation never re-binds (otherwise a
    // trailing annotation would also claim the *next* field's line-above
    // slot and adjacent lock fields would all alias the first name).
    let mut locks: BTreeMap<String, String> = BTreeMap::new();
    let mut used_annotations: BTreeSet<usize> = BTreeSet::new();
    for i in 0..n {
        if ctx.test[i] || in_use[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let is_decl = match toks[i].text.as_str() {
            "Mutex" => next == Some("<"),
            "Condvar" => next != Some("::"),
            _ => false,
        };
        if !is_decl {
            continue;
        }
        // Walk back over `Path::` and `Wrapper<` prefixes to the binding.
        let mut j = i;
        while j >= 2
            && matches!(toks[j - 1].text.as_str(), "::" | "<")
            && toks[j - 2].kind == TokKind::Ident
        {
            j -= 2;
        }
        let line = toks[i].line;
        if !(j >= 2 && toks[j - 1].text == ":" && toks[j - 2].kind == TokKind::Ident) {
            push(
                out,
                rel,
                line,
                "lock-order",
                format!(
                    "`{}` outside a recognizable `name: Type` binding — cat-lint cannot \
                     attach a lock-order name to it",
                    toks[i].text
                ),
            );
            continue;
        }
        let field = toks[j - 2].text.clone();
        let annotation = ctx
            .lock_names
            .iter()
            .enumerate()
            .filter(|(k, _)| !used_annotations.contains(k))
            .find(|(_, (l, _))| *l == line)
            .or_else(|| {
                ctx.lock_names
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| !used_annotations.contains(k))
                    .find(|(_, (l, _))| l + 1 == line)
            });
        match annotation {
            Some((k, (_, name))) => {
                used_annotations.insert(k);
                locks.insert(field, name.clone());
            }
            None => {
                push(
                    out,
                    rel,
                    line,
                    "lock-order",
                    format!("lock field `{field}` has no `// lock-order: <name>` annotation"),
                );
                // Fall back to the field name so acquisitions still resolve
                // and the cycle check still runs.
                locks.insert(field.clone(), field);
            }
        }
    }

    // Pass 2: `.lock()` acquisition sites → (token index, line, lock name).
    let mut acqs: Vec<(usize, usize, String)> = Vec::new();
    for i in 0..n {
        if ctx.test[i] || toks[i].kind != TokKind::Ident || toks[i].text != "lock" {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        if prev != Some(".") || next != Some("(") {
            continue;
        }
        let receiver = i
            .checked_sub(2)
            .filter(|&r| toks[r].kind == TokKind::Ident)
            .map(|r| toks[r].text.clone());
        match receiver.as_deref().and_then(|r| locks.get(r)) {
            Some(name) => acqs.push((i, toks[i].line, name.clone())),
            None => push(
                out,
                rel,
                toks[i].line,
                "lock-order",
                format!(
                    "`.lock()` on `{}` does not resolve to an annotated lock field of \
                     this file",
                    receiver.as_deref().unwrap_or("<expression>")
                ),
            ),
        }
    }

    // Pass 3: acquisition-order edges within each function body.
    let mut edges: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut i = 0usize;
    while i < n {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" && !ctx.test[i] {
            let mut pd = 0i32;
            let mut j = i + 1;
            let mut body: Option<(usize, usize)> = None;
            while j < n {
                match toks[j].text.as_str() {
                    "(" | "[" => pd += 1,
                    ")" | "]" => pd -= 1,
                    ";" if pd == 0 => break,
                    "{" if pd == 0 => {
                        let mut bd = 0i32;
                        let mut k = j;
                        while k < n {
                            if toks[k].text == "{" {
                                bd += 1;
                            } else if toks[k].text == "}" {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        body = Some((j, k.min(n - 1)));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some((start, end)) = body {
                let inside: Vec<&(usize, usize, String)> =
                    acqs.iter().filter(|a| a.0 > start && a.0 < end).collect();
                for x in 0..inside.len() {
                    for y in (x + 1)..inside.len() {
                        if inside[x].2 != inside[y].2 {
                            edges
                                .entry((inside[x].2.clone(), inside[y].2.clone()))
                                .or_insert(inside[y].1);
                        }
                    }
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }

    // Pass 4: cycle rejection.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().insert(b);
    }
    if let Some(cycle) = find_cycle(&adj) {
        let closing = (
            cycle[cycle.len() - 2].to_string(),
            cycle[cycle.len() - 1].to_string(),
        );
        let line = edges.get(&closing).copied().unwrap_or(1);
        push(
            out,
            rel,
            line,
            "lock-order",
            format!("lock acquisition cycle: {}", cycle.join(" → ")),
        );
    }
}

fn find_cycle<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Option<Vec<&'a str>> {
    // 1 = on the current DFS stack, 2 = fully explored.
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        state: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<&'a str>> {
        state.insert(node, 1);
        stack.push(node);
        if let Some(nexts) = adj.get(node) {
            for &next in nexts {
                match state.get(next) {
                    Some(1) => {
                        let pos = stack.iter().position(|n| *n == next)?;
                        let mut cycle = stack[pos..].to_vec();
                        cycle.push(next);
                        return Some(cycle);
                    }
                    Some(2) => {}
                    _ => {
                        if let Some(c) = dfs(next, adj, state, stack) {
                            return Some(c);
                        }
                    }
                }
            }
        }
        stack.pop();
        state.insert(node, 2);
        None
    }
    let mut state: BTreeMap<&str, u8> = BTreeMap::new();
    for &node in adj.keys() {
        if !state.contains_key(node) {
            if let Some(c) = dfs(node, adj, &mut state, &mut Vec::new()) {
                return Some(c);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lints one source file as if it lived at workspace-relative `rel`
/// (`/`-separated). The path decides which rules apply — see the
/// [crate docs](self) scope table.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let lx = lex(src);
    let test = test_token_mask(&lx.tokens);
    let scope = classify(rel);
    let ctx = Ctx {
        tokens: &lx.tokens,
        test: &test,
        lock_names: &lx.lock_names,
    };
    let mut out = Vec::new();
    for (line, err) in &lx.malformed {
        push(
            &mut out,
            rel,
            *line,
            BAD_ALLOW,
            format!("malformed directive: {err}"),
        );
    }
    for a in &lx.allows {
        if !RULES.contains(&a.rule.as_str()) {
            push(
                &mut out,
                rel,
                a.line,
                BAD_ALLOW,
                format!("allow directive names unknown rule `{}`", a.rule),
            );
        }
    }
    if !scope.is_test_file {
        if scope.det_crate {
            rule_hash_order(&ctx, rel, &mut out);
        }
        if !scope.in_bench {
            rule_wall_clock(&ctx, rel, &mut out);
        }
        if scope.datapath {
            rule_panic_path(&ctx, rel, &mut out);
        }
        if scope.engine_src {
            rule_lock_order(&ctx, rel, &mut out);
            rule_atomic_order(&ctx, rel, &mut out);
        }
        if scope.dense_banks {
            rule_dense_banks(&ctx, rel, &mut out);
        }
    }
    if scope.crate_root {
        rule_crate_attrs(&ctx, rel, &mut out);
    }
    // Apply allow directives: a violation is suppressed by a well-formed
    // allow for its rule on the same line or the line directly above.
    out.retain(|v| {
        v.rule == BAD_ALLOW
            || !lx
                .allows
                .iter()
                .any(|a| a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line))
    });
    out.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    out
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let path = entry.path();
        if path.is_dir() {
            // `target/` is build output, hidden dirs are tooling state, and
            // `fixtures/` holds deliberately-bad lint-test fragments.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (the workspace), skipping `target/`,
/// hidden directories, and lint-fixture corpora. Diagnostics are ordered by
/// path then line, so output is deterministic.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading a source file.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        out.extend(lint_source(rel, &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_skips_strings_comments_and_lifetimes() {
        let src = r##"
            // HashMap in a comment
            /* Instant in /* a nested */ block */
            /// doc: SystemTime
            fn f<'a>(s: &'a str) -> char {
                let _ = "HashMap Instant";
                let _ = r#"SystemTime"#;
                let _ = b"unwrap()";
                'x'
            }
        "##;
        let lx = lex(src);
        assert!(lx.tokens.iter().all(|t| !matches!(
            t.text.as_str(),
            "HashMap" | "Instant" | "SystemTime" | "unwrap"
        )));
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn inner() { let x: usize = 1; }
            }
            fn live2() {}
        ";
        let lx = lex(src);
        let mask = test_token_mask(&lx.tokens);
        let masked: Vec<&str> = lx
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"inner"));
        assert!(!masked.contains(&"live"));
        assert!(!masked.contains(&"live2"));
    }

    #[test]
    fn string_line_continuations_keep_line_numbers_honest() {
        // `\<newline>` inside a string hides a newline from a naive scanner;
        // the diagnostic on line 5 must not drift up to line 4.
        let src = "fn f() -> String {\n    format!(\"a \\\n     b\")\n}\nuse std::time::Instant;\n";
        let v = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn allow_requires_a_reason() {
        let src = "// cat-lint: allow(wall-clock)\nfn f() {}\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, BAD_ALLOW);
    }

    #[test]
    fn allow_covers_same_line_and_next_line() {
        let next =
            "// cat-lint: allow(wall-clock) -- fixture\nfn f() { let _ = Instant::now(); }\n";
        assert!(lint_source("crates/core/src/x.rs", next).is_empty());
        let same = "fn f() { let _ = Instant::now(); } // cat-lint: allow(wall-clock) -- fixture\n";
        assert!(lint_source("crates/core/src/x.rs", same).is_empty());
    }
}
