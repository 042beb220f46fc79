//! IR-based checks 6 and 7: atomics ordering and unsafe preconditions.
//!
//! **Ordering** (`pasta-par` plus the atomics-bearing files listed in
//! [`ORDERING_FILES`]): every atomic operation passing
//! `Ordering::Relaxed` must either target a statistics counter from the
//! [`COUNTER_ATOMICS`] allowlist — monotonic counters read only for
//! reporting, where relaxed ordering is categorically fine — or carry a
//! justifying `// audit: allow(ordering, reason = "...")`. Anything
//! else (flags, state words, handshake variables) gets a finding:
//! relaxed loads/stores on those reorder freely and the worker pool's
//! correctness argument must be written down where the code is.
//!
//! **Unsafe preconditions** (`pasta_math::simd`): each `unsafe` block
//! already needs a `// SAFETY:` comment (check 3). This pass goes one
//! step further: when the stated precondition is about data shape —
//! slice lengths, alignment, bounds — the enclosing function or one of
//! its (same-file, ≤ `CALLER_DEPTH`-hop) callers must contain an
//! `assert!`/`debug_assert!` family guard, so the comment is backed by
//! an executable check. `SAFETY:` comments that argue CPU capability
//! (the AVX2 feature was runtime-detected before dispatch) are
//! recognized by `CAPABILITY_WORDS` and exempt — there is nothing to
//! assert about data in them.

use crate::analyze::{Check, Finding, SourceFile};
use crate::callgraph::{walk_stmts, CallGraph};
use crate::lexer::TokKind;
use crate::parse::{Expr, ExprKind, FileAst};

/// Files outside `crates/par` whose atomics the ordering check covers.
pub const ORDERING_FILES: &[&str] = &[
    "crates/fhe/src/scratch.rs",
    "crates/hhe/src/packed.rs",
    "crates/math/src/simd.rs",
];

/// Statistics counters for which `Ordering::Relaxed` needs no
/// justification. Matched against the receiver's base identifier.
pub const COUNTER_ATOMICS: &[&str] = &[
    "CONTENDED_INLINE",
    "DISPATCHES",
    "EVICTED_BUNDLES",
    "GLOBAL_HITS",
    "GROWN_DISPATCHES",
    "LOCAL_HITS",
    "MISSES",
    "NESTED_INLINE",
    "RESIDENT",
    "SPAWN_EVENTS",
    "TAKES",
    "key_switches",
];

/// The file whose `unsafe` blocks need executable precondition guards.
const UNSAFE_PRECONDITION_FILES: &[&str] = &["crates/math/src/simd.rs"];

/// How many caller hops (same file) the assert search follows.
const CALLER_DEPTH: usize = 3;

/// Words in a `// SAFETY:` comment marking a CPU-capability argument.
const CAPABILITY_WORDS: &[&str] = &[
    "avx2",
    "capabilit",
    "cpuid",
    "detect",
    "dispatch",
    "feature",
    "target_feature",
];

/// Assert-family macro names accepted as precondition guards.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Runs the atomics-ordering check over the workspace. Returns raw
/// findings; the caller applies `audit: allow(ordering, ...)`.
#[must_use]
pub fn ordering_pass(files: &[SourceFile], asts: &[FileAst]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        if sf.crate_name != "par" && !ORDERING_FILES.contains(&sf.rel.as_str()) {
            continue;
        }
        for def in &asts[fi].fns {
            if sf.tok_is_test(def.fn_tok) {
                continue;
            }
            walk_stmts(&def.body, &mut |e: &Expr| {
                let ExprKind::MethodCall { recv, name, args } = &e.kind else {
                    return;
                };
                if !args.iter().any(is_relaxed) {
                    return;
                }
                let target = atomic_name(recv).unwrap_or_else(|| "<unknown>".to_string());
                if COUNTER_ATOMICS.contains(&target.as_str()) {
                    return;
                }
                out.push(sf.finding(
                    e.line,
                    Check::Ordering,
                    format!(
                        "`{target}.{name}(Ordering::Relaxed)` on a non-counter atomic needs \
                         `// audit: allow(ordering, ...)` or a stronger ordering"
                    ),
                ));
            });
        }
    }
    out
}

/// Whether an argument expression is the `Relaxed` memory ordering.
fn is_relaxed(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().is_some_and(|s| s == "Relaxed"),
        ExprKind::Unary { expr } => is_relaxed(expr),
        _ => false,
    }
}

/// The identifier naming the atomic a method call targets: the last
/// field/path segment of the receiver (`self.hits[w]` → `hits`,
/// `DISPATCHES` → `DISPATCHES`).
fn atomic_name(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().cloned(),
        ExprKind::Field { name, .. } => Some(name.clone()),
        ExprKind::Index { base, .. } | ExprKind::Unary { expr: base } => atomic_name(base),
        ExprKind::MethodCall { recv, .. } => atomic_name(recv),
        ExprKind::Call { callee, .. } => atomic_name(callee),
        _ => None,
    }
}

/// Runs the unsafe-precondition check. Returns raw findings; the
/// caller applies `audit: allow(unsafe-precondition, ...)`.
#[must_use]
pub fn unsafe_precondition_pass(
    files: &[SourceFile],
    asts: &[FileAst],
    cg: &CallGraph,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        if !UNSAFE_PRECONDITION_FILES.contains(&sf.rel.as_str()) {
            continue;
        }
        // Global ids of this file's fns, aligned with the AST order.
        let ids: Vec<usize> = (0..cg.fns.len())
            .filter(|&id| cg.fns[id].file == fi)
            .collect();
        for (ti, t) in sf.toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !t.is_ident("unsafe") || sf.tok_is_test(ti) {
                continue;
            }
            // Only `unsafe {` blocks with a SAFETY comment: blocks
            // without one are already findings of check 3.
            let next = (ti + 1..sf.toks.len()).find(|&j| sf.toks[j].kind != TokKind::Comment);
            if !next.is_some_and(|j| sf.toks[j].is_punct('{')) || !sf.safety_near(t.line) {
                continue;
            }
            if capability_safety(sf, t.line) {
                continue;
            }
            // The innermost enclosing fn, by body span.
            let encl = ids
                .iter()
                .map(|&id| (id, asts[fi].fns[cg.fns[id].idx].body_span))
                .filter(|&(_, (o, c))| o <= ti && ti <= c)
                .min_by_key(|&(_, (o, c))| c - o);
            let Some((fn_id, _)) = encl else {
                // Module-level unsafe (e.g. inside a macro definition)
                // has no function to carry an assert; only a
                // capability-class SAFETY argument can justify it.
                out.push(
                    sf.finding(
                        t.line,
                        Check::UnsafePrecondition,
                        "`unsafe` outside any fn states a data precondition that nothing asserts"
                            .to_string(),
                    ),
                );
                continue;
            };
            let guarded = cg
                .callers_within_file(fn_id, CALLER_DEPTH)
                .into_iter()
                .any(|id| fn_has_assert(sf, asts, cg, id));
            if !guarded {
                let def = &asts[fi].fns[cg.fns[fn_id].idx];
                out.push(sf.finding(
                    t.line,
                    Check::UnsafePrecondition,
                    format!(
                        "`unsafe` block's `// SAFETY:` precondition is not guarded by an \
                         assert/debug_assert in `{}` or its callers",
                        def.name
                    ),
                ));
            }
        }
    }
    out
}

/// Whether the comment block ending at `line` (the `unsafe` line and
/// the contiguous comment/blank lines above it) argues CPU capability.
fn capability_safety(sf: &SourceFile, line: usize) -> bool {
    let mut text = String::new();
    let mut l = line;
    while l >= 1 {
        let raw = sf.lines.get(l - 1).map_or("", |s| s.trim());
        if l != line && !(raw.is_empty() || raw.starts_with("//")) {
            break;
        }
        text.push_str(&raw.to_lowercase());
        text.push('\n');
        if l == 1 {
            break;
        }
        l -= 1;
    }
    CAPABILITY_WORDS.iter().any(|w| text.contains(w))
}

/// Whether the fn's token span contains an assert-family macro call.
fn fn_has_assert(sf: &SourceFile, asts: &[FileAst], cg: &CallGraph, id: usize) -> bool {
    let key = cg.fns[id];
    let def = &asts[key.file].fns[key.idx];
    let (open, close) = def.body_span;
    (open..=close.min(sf.toks.len().saturating_sub(1))).any(|j| {
        let t = &sf.toks[j];
        t.kind == TokKind::Ident
            && ASSERT_MACROS.contains(&t.text.as_str())
            && sf.toks.get(j + 1).is_some_and(|n| n.is_punct('!'))
    })
}
