//! Token-stream analysis: annotation parsing, test-code scoping, and the
//! per-file audit checks.
//!
//! The checks here work on the [`crate::lexer`] token stream plus light
//! structural passes — brace matching and test-span scoping. That is
//! enough for the lexical properties (panics, missing `SAFETY:`,
//! narrowing casts, nondeterminism sources, annotation hygiene). The
//! flow-sensitive checks — interprocedural secret taint
//! ([`crate::taint`]), atomics ordering and unsafe preconditions
//! ([`crate::ordering`]) — run over the [`crate::parse`] item trees and
//! the [`crate::callgraph`] workspace call graph, but share this
//! module's annotation vocabulary, test scoping and suppression rules.
//!
//! # Annotation grammar
//!
//! | comment                                        | effect |
//! |------------------------------------------------|--------|
//! | `// audit: secret`                             | the next declaration (struct/enum, field, `let`, `static`) holds secret material |
//! | `// audit: secret(a, b)`                       | the named parameters of the next `fn` hold secret material |
//! | `// audit: sanitizes(a, b)`                    | the next `fn` declassifies the named parameters: their taint does not reach its return value. `sanitizes(return)` declassifies the whole return value |
//! | `// audit: allow(<check>, reason = "…")`       | suppress `<check>` findings on this line and the next code line; the reason must be non-empty |
//! | `// SAFETY: …`                                 | safety argument for an `unsafe` block on the same or one of the next three lines |
//!
//! Valid `<check>` names are listed in [`ALLOW_NAMES`]. A malformed or
//! reason-less annotation is itself reported under the `annotation`
//! check, which cannot be suppressed.

use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeSet;

/// Crates whose non-test code must be panic-free (check 2).
pub const KERNEL_CRATES: &[&str] = &[
    "core", "fhe", "hhe", "hw", "keccak", "math", "par", "server",
];

/// Crates that must stay bit-deterministic (check 5): no wall-clock
/// reads, no default-hasher collections, no ambient entropy.
pub const DETERMINISM_CRATES: &[&str] = &["fhe", "hw", "par", "pipeline", "server"];

/// Crates in which `audit: secret` annotations are collected and
/// secret-flow (check 1) is enforced.
pub const SECRET_CRATES: &[&str] = &["core", "keccak", "rasta"];

/// Files covered by the lossy-cast check (check 4) in addition to the
/// blanket `crates/math` crate scope: the NTT and RNS-multiplication
/// kernels. The SIMD dispatch module is listed explicitly even though
/// the crate scope already reaches it, so a future move of the
/// intrinsics out of `crates/math` cannot silently drop coverage.
/// The worker pool and scratch allocator sit on the same hot path
/// (chunk arithmetic, byte-size accounting) and are enrolled too.
pub const CAST_FILES: &[&str] = &[
    "crates/fhe/src/ntt.rs",
    "crates/fhe/src/rns_mul.rs",
    "crates/fhe/src/scratch.rs",
    "crates/hhe/src/circuit.rs",
    "crates/hhe/src/mux.rs",
    "crates/math/src/simd.rs",
    "crates/par/src/pool.rs",
];

/// Identifiers forbidden by the determinism check. `Instant` /
/// `SystemTime` read wall clocks; `HashMap` / `HashSet` / `RandomState`
/// iterate in a randomized order under the default hasher; the rest are
/// ambient-entropy constructors.
const DETERMINISM_TOKENS: &[&str] = &[
    "Instant",
    "SystemTime",
    "HashMap",
    "HashSet",
    "RandomState",
    "thread_rng",
    "from_entropy",
    "OsRng",
];

/// Narrow integer targets flagged by the cast check. Casts to 64-bit
/// and wider (`as u64`, `as u128`, `as usize` on the supported 64-bit
/// targets) are the pervasive and value-preserving reduction idiom in
/// the modular kernels; only casts that can truncate below word size
/// are flagged.
const NARROW_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Panic-check symbols: method calls (need a preceding `.`).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Panic-check symbols: macros (need a following `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Valid check names inside `audit: allow(...)`.
pub const ALLOW_NAMES: &[&str] = &[
    "secret-branch",
    "panic",
    "unsafe",
    "cast",
    "determinism",
    "ordering",
    "unsafe-precondition",
];

/// Which of the checks (plus the meta `annotation` check) a finding
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Check 1: secret material feeding control flow or addressing.
    SecretFlow,
    /// Check 2: `unwrap`/`expect`/`panic!`-family in kernel crates.
    Panic,
    /// Check 3: `unsafe` block without a `// SAFETY:` comment.
    Unsafe,
    /// Check 4: narrowing `as` cast in a modular-arithmetic kernel.
    Cast,
    /// Check 5: nondeterminism source in a determinism-critical crate.
    Determinism,
    /// Check 6: `Ordering::Relaxed` on a non-counter atomic without a
    /// justifying annotation.
    Ordering,
    /// Check 7: an `unsafe` block whose `// SAFETY:` precondition is
    /// not guarded by an assert in the function or its callers.
    UnsafePrecondition,
    /// Malformed or reason-less `audit:` annotation (not suppressible).
    Annotation,
}

impl Check {
    /// The label printed inside `[...]` and used in JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Check::SecretFlow => "secret-flow",
            Check::Panic => "panic",
            Check::Unsafe => "unsafe",
            Check::Cast => "cast",
            Check::Determinism => "determinism",
            Check::Ordering => "ordering",
            Check::UnsafePrecondition => "unsafe-precondition",
            Check::Annotation => "annotation",
        }
    }

    /// The `audit: allow(<name>, ...)` name that suppresses this check,
    /// if any.
    #[must_use]
    pub fn allow_name(self) -> Option<&'static str> {
        match self {
            Check::SecretFlow => Some("secret-branch"),
            Check::Panic => Some("panic"),
            Check::Unsafe => Some("unsafe"),
            Check::Cast => Some("cast"),
            Check::Determinism => Some("determinism"),
            Check::Ordering => Some("ordering"),
            Check::UnsafePrecondition => Some("unsafe-precondition"),
            Check::Annotation => None,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// The check that fired.
    pub check: Check,
    /// Human-readable description.
    pub message: String,
    /// The trimmed text of the source line (baseline key component).
    pub text: String,
}

impl Finding {
    /// The `file:line: [check] message` text form.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.check.label(),
            self.message
        )
    }
}

/// A parsed `audit:` / `SAFETY:` annotation comment.
#[derive(Debug, Clone)]
pub(crate) enum Ann {
    /// `// audit: secret` — applies to the next declaration.
    SecretDecl { tok: usize },
    /// `// audit: secret(a, b)` — applies to the next `fn`'s params.
    SecretParams { tok: usize, names: Vec<String> },
    /// `// audit: sanitizes(a, b)` / `sanitizes(return)` — the next
    /// `fn` declassifies the named parameters (or its whole return).
    Sanitizes { tok: usize, names: Vec<String> },
    /// `// audit: allow(name, reason = "...")`.
    Allow { line: usize, name: String },
    /// `// SAFETY: ...`.
    Safety { line: usize },
}

/// Secret declarations collected across all [`SECRET_CRATES`] files:
/// annotating a struct marks every named field of that struct, so a
/// `.field` access anywhere in the secret crates is recognized.
#[derive(Debug, Default)]
pub struct Secrets {
    /// Names of types annotated secret (documentation / future use).
    pub types: BTreeSet<String>,
    /// Field names whose dot-access is treated as secret.
    pub fields: BTreeSet<String>,
}

/// One lexed and scoped source file, ready for checking.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// The `crates/<name>/` component, or empty for the umbrella crate.
    pub crate_name: String,
    /// Source lines (for baseline keys).
    pub lines: Vec<String>,
    /// The token stream, comments included.
    pub toks: Vec<Token>,
    pub(crate) anns: Vec<Ann>,
    ann_findings: Vec<Finding>,
    /// Whole file is test code (`#![cfg(test)]` or a tests/ path).
    test_all: bool,
    /// Token-index ranges (inclusive) of `#[cfg(test)]` items, `#[test]`
    /// functions and `mod tests` blocks.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and scopes one file. `rel` must use `/` separators.
    #[must_use]
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        let path_test = rel
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples" || c == "fixtures");
        let (inner_test, test_spans) = find_test_spans(&toks);
        let (anns, ann_findings) = parse_annotations(rel, &toks, src);
        SourceFile {
            rel: rel.to_string(),
            crate_name,
            lines: src.lines().map(str::to_string).collect(),
            toks,
            anns,
            ann_findings,
            test_all: path_test || inner_test,
            test_spans,
        }
    }

    /// Whether token `i` lies in test code.
    pub(crate) fn tok_is_test(&self, i: usize) -> bool {
        self.test_all || self.test_spans.iter().any(|&(s, e)| s <= i && i <= e)
    }

    /// The first code line strictly after `line`, if any.
    fn next_code_line(&self, line: usize) -> Option<usize> {
        self.toks
            .iter()
            .filter(|t| t.kind != TokKind::Comment && t.line > line)
            .map(|t| t.line)
            .min()
    }

    /// Whether an `audit: allow` for `check` covers `line` (the
    /// annotation's own line or the next code line after it).
    pub(crate) fn allowed(&self, check: Check, line: usize) -> bool {
        let Some(name) = check.allow_name() else {
            return false;
        };
        self.anns.iter().any(|a| match a {
            Ann::Allow { line: al, name: an } => {
                an == name && (*al == line || self.next_code_line(*al) == Some(line))
            }
            _ => false,
        })
    }

    /// Whether a `// SAFETY:` comment covers `line`: on the same line,
    /// or above it with only comment/blank lines in between (so a
    /// multi-line safety argument directly over the `unsafe` counts).
    pub(crate) fn safety_near(&self, line: usize) -> bool {
        self.anns.iter().any(|a| match a {
            Ann::Safety { line: sl } => {
                *sl <= line
                    && (*sl..line.saturating_sub(1)).all(|l0| {
                        let text = self.lines.get(l0).map_or("", |s| s.trim());
                        text.is_empty() || text.starts_with("//")
                    })
            }
            _ => false,
        })
    }

    /// The trimmed source text of `line` (1-based).
    fn line_text(&self, line: usize) -> String {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    pub(crate) fn finding(&self, line: usize, check: Check, message: String) -> Finding {
        Finding {
            file: self.rel.clone(),
            line,
            check,
            message,
            text: self.line_text(line),
        }
    }
}

/// Advances `i` past comment tokens.
fn next_code(toks: &[Token], mut i: usize) -> usize {
    while i < toks.len() && toks[i].kind == TokKind::Comment {
        i += 1;
    }
    i
}

/// The last code token strictly before `i`, if any.
fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| toks[j].kind != TokKind::Comment)
}

/// Index of the token matching the opener at `open` (`(`, `[` or `{`).
/// Same-kind counting is exact because Rust source balances each
/// bracket kind independently. Returns the last index when unbalanced.
fn matching(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_bytes().first() {
        Some(b'(') => ('(', ')'),
        Some(b'[') => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Comment {
            continue;
        }
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// From `i`, skips any attributes, then scans to the end of the item:
/// the brace matching its first top-level `{`, or a top-level `;`.
fn item_end(toks: &[Token], mut i: usize) -> usize {
    loop {
        i = next_code(toks, i);
        if i >= toks.len() {
            return toks.len().saturating_sub(1);
        }
        if toks[i].is_punct('#') {
            let mut j = next_code(toks, i + 1);
            if j < toks.len() && toks[j].is_punct('!') {
                j = next_code(toks, j + 1);
            }
            if j < toks.len() && toks[j].is_punct('[') {
                i = matching(toks, j) + 1;
                continue;
            }
        }
        break;
    }
    let mut depth = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Comment {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                return matching(toks, i);
            } else if depth == 0 && t.is_punct(';') {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Finds test-code token spans: `#[cfg(test)]` / `#[test]`-style
/// attributes (outer form attaches to the following item, inner
/// `#![cfg(test)]` marks the whole file) and `mod tests { ... }`.
fn find_test_spans(toks: &[Token]) -> (bool, Vec<(usize, usize)>) {
    let mut all = false;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Comment {
            i += 1;
            continue;
        }
        if t.is_punct('#') {
            let mut j = next_code(toks, i + 1);
            let inner = j < toks.len() && toks[j].is_punct('!');
            if inner {
                j = next_code(toks, j + 1);
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let close = matching(toks, j);
                let mut has_test = false;
                let mut negated = false;
                for t in toks.iter().take(close).skip(j + 1) {
                    if t.is_ident("test") {
                        has_test = true;
                    }
                    // `cfg(not(test))` and `cfg_attr(test, ...)` apply to
                    // non-test builds / are conditional lint plumbing.
                    if t.is_ident("not") || t.is_ident("cfg_attr") {
                        negated = true;
                    }
                }
                if has_test && !negated {
                    if inner {
                        all = true;
                    } else {
                        spans.push((i, item_end(toks, close + 1)));
                    }
                }
                i = close + 1;
                continue;
            }
        }
        if t.is_ident("mod") {
            let j = next_code(toks, i + 1);
            if j < toks.len() && toks[j].is_ident("tests") {
                let k = next_code(toks, j + 1);
                if k < toks.len() && toks[k].is_punct('{') {
                    let close = matching(toks, k);
                    spans.push((i, close));
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    (all, spans)
}

/// Strips comment markers (`//`, `///`, `//!`, `/*`, `*/`) and leading
/// decoration from a comment token's text.
fn comment_body(text: &str) -> &str {
    let t = text.trim();
    let t = t
        .strip_prefix("//")
        .or_else(|| t.strip_prefix("/*"))
        .unwrap_or(t);
    let t = t.strip_suffix("*/").unwrap_or(t);
    t.trim_start_matches(['/', '!', '*']).trim()
}

/// Parses `audit:` / `SAFETY:` annotations out of the comment tokens.
/// Malformed annotations become `annotation` findings.
fn parse_annotations(rel: &str, toks: &[Token], src: &str) -> (Vec<Ann>, Vec<Finding>) {
    let lines: Vec<&str> = src.lines().collect();
    let line_text = |line: usize| {
        lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut anns = Vec::new();
    let mut findings = Vec::new();
    let mut bad = |line: usize, message: String| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            check: Check::Annotation,
            message,
            text: line_text(line),
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let body = comment_body(&t.text);
        if body.starts_with("SAFETY:") {
            anns.push(Ann::Safety { line: t.line });
            continue;
        }
        let Some(rest) = body.strip_prefix("audit:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "secret" {
            anns.push(Ann::SecretDecl { tok: i });
        } else if let Some(arg) = parenthesized(rest, "secret") {
            let names: Vec<String> = arg
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if names.is_empty() {
                bad(t.line, "audit: secret(...) names no parameters".to_string());
            } else {
                anns.push(Ann::SecretParams { tok: i, names });
            }
        } else if let Some(arg) = parenthesized(rest, "sanitizes") {
            let names: Vec<String> = arg
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if names.is_empty() {
                bad(
                    t.line,
                    "audit: sanitizes(...) names no parameters (use `return` for the whole value)"
                        .to_string(),
                );
            } else {
                anns.push(Ann::Sanitizes { tok: i, names });
            }
        } else if let Some(arg) = parenthesized(rest, "allow") {
            match parse_allow(arg) {
                Ok(name) => anns.push(Ann::Allow { line: t.line, name }),
                Err(e) => bad(t.line, e),
            }
        } else {
            bad(
                t.line,
                format!("unrecognized audit annotation `audit: {rest}`"),
            );
        }
    }
    (anns, findings)
}

/// If `s` is `head ( inner )` (ignoring spacing), returns `inner`.
fn parenthesized<'a>(s: &'a str, head: &str) -> Option<&'a str> {
    let rest = s.strip_prefix(head)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    Some(&rest[..close])
}

/// Parses the inside of `allow(name, reason = "...")`, validating the
/// check name and requiring a non-empty reason. Diagnostics name the
/// offending key and suggest the nearest valid check name so the
/// vocabulary never has to be recovered from this source file.
fn parse_allow(arg: &str) -> Result<String, String> {
    let (name, rest) = arg
        .split_once(',')
        .ok_or_else(|| "audit: allow(...) is missing `reason = \"...\"`".to_string())?;
    let name = name.trim();
    if !ALLOW_NAMES.contains(&name) {
        let mut msg = format!(
            "unknown allow name `{name}` (expected one of: {})",
            ALLOW_NAMES.join(", ")
        );
        if let Some(near) = nearest_allow_name(name) {
            msg.push_str(&format!("; did you mean `{near}`?"));
        }
        return Err(msg);
    }
    let rest = rest.trim();
    let (key, value) = rest
        .split_once('=')
        .ok_or_else(|| "audit: allow(...) reason must be `reason = \"...\"`".to_string())?;
    let key = key.trim();
    if key != "reason" {
        return Err(format!(
            "unexpected key `{key}` in audit: allow(...); the only valid key is `reason`"
        ));
    }
    let value = value.trim();
    let reason = value
        .strip_prefix('"')
        .and_then(|r| r.rfind('"').map(|q| &r[..q]))
        .ok_or_else(|| {
            "audit: allow(...) reason must be a quoted string: `reason = \"...\"`".to_string()
        })?;
    if reason.trim().is_empty() {
        return Err("audit: allow(...) has an empty reason".to_string());
    }
    Ok(name.to_string())
}

/// The valid allow name closest to `name` by edit distance, when it is
/// close enough to be a plausible typo (distance ≤ half its length).
fn nearest_allow_name(name: &str) -> Option<&'static str> {
    ALLOW_NAMES
        .iter()
        .map(|&cand| (edit_distance(name, cand), cand))
        .min()
        .filter(|&(d, cand)| d <= cand.len().max(name.len()) / 2)
        .map(|(_, cand)| cand)
}

/// Classic Levenshtein distance over bytes (the vocabulary is ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// What an `audit: secret` annotation attached itself to.
pub(crate) enum SecretTarget {
    /// A struct/enum; named fields (if any) listed.
    Type { name: String, fields: Vec<String> },
    /// A single struct field.
    Field(String),
    /// A `let` binding at token index.
    Let { name: String, tok: usize },
    /// A `static`/`const` item (file-wide scope).
    Static(String),
    /// A `fn` — invalid target for the bare form.
    Fn,
    /// Unrecognized declaration.
    Unknown,
}

/// Classifies the declaration following the annotation at token `ann`.
pub(crate) fn classify_secret_decl(toks: &[Token], ann: usize) -> SecretTarget {
    let mut i = next_code(toks, ann + 1);
    // Skip attributes.
    while i < toks.len() && toks[i].is_punct('#') {
        let j = next_code(toks, i + 1);
        if j < toks.len() && toks[j].is_punct('[') {
            i = next_code(toks, matching(toks, j) + 1);
        } else {
            break;
        }
    }
    // Skip visibility.
    if i < toks.len() && toks[i].is_ident("pub") {
        i = next_code(toks, i + 1);
        if i < toks.len() && toks[i].is_punct('(') {
            i = next_code(toks, matching(toks, i) + 1);
        }
    }
    if i >= toks.len() {
        return SecretTarget::Unknown;
    }
    let kw = &toks[i];
    if kw.is_ident("struct") || kw.is_ident("enum") {
        let is_struct = kw.is_ident("struct");
        let n = next_code(toks, i + 1);
        let name = toks.get(n).map_or(String::new(), |t| t.text.clone());
        let mut fields = Vec::new();
        if is_struct {
            // Find the field block (skip generics — `<`/`>` are plain
            // puncts, but `{` only appears at the body).
            let mut j = n + 1;
            let mut depth = 0i64;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind != TokKind::Comment {
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(';') {
                        break; // tuple/unit struct
                    } else if depth == 0 && t.is_punct('{') {
                        fields = struct_fields(toks, j);
                        break;
                    }
                }
                j += 1;
            }
        }
        return SecretTarget::Type { name, fields };
    }
    if kw.is_ident("let") {
        let mut n = next_code(toks, i + 1);
        if n < toks.len() && toks[n].is_ident("mut") {
            n = next_code(toks, n + 1);
        }
        if n < toks.len() && toks[n].kind == TokKind::Ident {
            return SecretTarget::Let {
                name: toks[n].text.clone(),
                tok: n,
            };
        }
        return SecretTarget::Unknown;
    }
    if kw.is_ident("static") || kw.is_ident("const") {
        let mut n = next_code(toks, i + 1);
        if n < toks.len() && toks[n].is_ident("mut") {
            n = next_code(toks, n + 1);
        }
        if n < toks.len() && toks[n].kind == TokKind::Ident {
            return SecretTarget::Static(toks[n].text.clone());
        }
        return SecretTarget::Unknown;
    }
    if kw.is_ident("fn") {
        return SecretTarget::Fn;
    }
    // A lone `name: Type` pair is a struct field.
    if kw.kind == TokKind::Ident {
        let c = next_code(toks, i + 1);
        if c < toks.len() && toks[c].is_punct(':') {
            return SecretTarget::Field(kw.text.clone());
        }
    }
    SecretTarget::Unknown
}

/// Collects named fields at brace depth 1 of the struct body opening at
/// `open`: identifiers directly followed by a single `:` (skipping
/// `pub` and path segments).
fn struct_fields(toks: &[Token], open: usize) -> Vec<String> {
    let close = matching(toks, open);
    let mut fields = Vec::new();
    let mut brace = 0i64;
    let mut other = 0i64;
    for j in open..close {
        let t = &toks[j];
        if t.kind == TokKind::Comment {
            continue;
        }
        if t.is_punct('{') {
            brace += 1;
            continue;
        }
        if t.is_punct('}') {
            brace -= 1;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') {
            other += 1;
            continue;
        }
        if t.is_punct(')') || t.is_punct(']') {
            other -= 1;
            continue;
        }
        if brace == 1 && other == 0 && t.kind == TokKind::Ident && !t.is_ident("pub") {
            let c = next_code(toks, j + 1);
            let cc = next_code(toks, c + 1);
            if c < close && toks[c].is_punct(':') && !(cc < close && toks[cc].is_punct(':')) {
                fields.push(t.text.clone());
            }
        }
    }
    fields
}

/// Gathers the global secret vocabulary from the [`SECRET_CRATES`]
/// files: type names and (dot-accessed) field names.
pub fn collect_secrets<'a, I: IntoIterator<Item = &'a SourceFile>>(files: I) -> Secrets {
    let mut secrets = Secrets::default();
    for sf in files {
        for ann in &sf.anns {
            let Ann::SecretDecl { tok } = ann else {
                continue;
            };
            match classify_secret_decl(&sf.toks, *tok) {
                SecretTarget::Type { name, fields } => {
                    secrets.types.insert(name);
                    secrets.fields.extend(fields);
                }
                SecretTarget::Field(name) => {
                    secrets.fields.insert(name);
                }
                // Locals/statics are resolved per-file in `check_file`;
                // Fn/Unknown misuse is reported there too.
                _ => {}
            }
        }
    }
    secrets
}

/// Runs the per-file lexical checks over one file; suppressions are
/// applied here. The flow-sensitive checks (taint, ordering, unsafe
/// preconditions) run in the workspace pass — see
/// [`crate::workspace_checks`].
#[must_use]
pub fn check_file(sf: &SourceFile) -> Vec<Finding> {
    let mut out = sf.ann_findings.clone();
    let mut raw: Vec<Finding> = Vec::new();
    let toks = &sf.toks;
    let crate_name = sf.crate_name.as_str();
    let kernel = KERNEL_CRATES.contains(&crate_name);
    let determinism = DETERMINISM_CRATES.contains(&crate_name);
    let cast_scope = crate_name == "math" || CAST_FILES.contains(&sf.rel.as_str());

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // Unsafe hygiene applies everywhere, test code included.
        if t.is_ident("unsafe") {
            let n = next_code(toks, i + 1);
            let is_block = n < toks.len() && (toks[n].is_punct('{') || toks[n].is_ident("impl"));
            if is_block && !sf.safety_near(t.line) {
                raw.push(sf.finding(
                    t.line,
                    Check::Unsafe,
                    "`unsafe` without a `// SAFETY:` comment on the preceding lines".to_string(),
                ));
            }
            continue;
        }
        if sf.tok_is_test(i) {
            continue;
        }
        if kernel {
            let method = PANIC_METHODS.contains(&t.text.as_str())
                && prev_code(toks, i).is_some_and(|p| toks[p].is_punct('.'))
                && toks
                    .get(next_code(toks, i + 1))
                    .is_some_and(|n| n.is_punct('('));
            let mac = PANIC_MACROS.contains(&t.text.as_str())
                && toks
                    .get(next_code(toks, i + 1))
                    .is_some_and(|n| n.is_punct('!'));
            if method || mac {
                let sym = if mac {
                    format!("{}!", t.text)
                } else {
                    format!(".{}()", t.text)
                };
                raw.push(sf.finding(
                    t.line,
                    Check::Panic,
                    format!("`{sym}` in non-test code of kernel crate `pasta-{crate_name}`"),
                ));
            }
        }
        if determinism && DETERMINISM_TOKENS.contains(&t.text.as_str()) {
            raw.push(sf.finding(
                t.line,
                Check::Determinism,
                format!(
                    "`{}` undermines bit-determinism in `pasta-{crate_name}`",
                    t.text
                ),
            ));
        }
        if cast_scope && t.is_ident("as") {
            let n = next_code(toks, i + 1);
            if n < toks.len() && NARROW_CAST_TARGETS.contains(&toks[n].text.as_str()) {
                raw.push(sf.finding(
                    t.line,
                    Check::Cast,
                    format!(
                        "narrowing `as {}` cast in a modular-arithmetic kernel; use `try_from`/`From`",
                        toks[n].text
                    ),
                ));
            }
        }
    }

    if SECRET_CRATES.contains(&crate_name) {
        secret_ann_misuse(sf, &mut raw);
    }

    for f in raw {
        if !sf.allowed(f.check, f.line) {
            out.push(f);
        }
    }
    out
}

/// Reports `audit: secret` annotations that attached to nothing the
/// taint engine can use (a bare `fn`, or no recognizable declaration).
/// The flow analysis itself lives in [`crate::taint`].
fn secret_ann_misuse(sf: &SourceFile, raw: &mut Vec<Finding>) {
    for ann in &sf.anns {
        let Ann::SecretDecl { tok } = ann else {
            continue;
        };
        match classify_secret_decl(&sf.toks, *tok) {
            SecretTarget::Fn => raw.push(
                sf.finding(
                    sf.toks[*tok].line,
                    Check::Annotation,
                    "`audit: secret` on a fn — name the parameters with audit: secret(a, b)"
                        .to_string(),
                ),
            ),
            SecretTarget::Unknown => raw.push(sf.finding(
                sf.toks[*tok].line,
                Check::Annotation,
                "`audit: secret` is not followed by a recognizable declaration".to_string(),
            )),
            _ => {}
        }
    }
}
