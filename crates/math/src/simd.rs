//! Runtime-dispatched SIMD backend for the modular u64 kernels.
//!
//! The transcipher hot path spends nearly all of its time in four inner
//! loops: the Harvey/Shoup lazy NTT butterflies, the Shoup pointwise /
//! fused-MAC kernels of the packed and key-composition paths, the
//! companion-free pointwise products of the ciphertext × ciphertext
//! tensor, and the dot products of the BEHZ base conversions and the
//! affine rows. This module provides three tiers of each (`std::arch`,
//! zero new dependencies) behind safe slice-taking wrappers, with the
//! backend selected once at startup:
//!
//! * **scalar** — the portable reference;
//! * **avx2** — 4×u64 lanes, the 64×64-bit Shoup products emulated from
//!   four `pmuludq` partial products and a carry chain; the dot product
//!   and the companion-free products run the scalar loops on this tier;
//! * **avx512ifma** — 8×u64 lanes on the AVX-512 IFMA52 multipliers
//!   (`vpmadd52luq` / `vpmadd52huq`, the low and high 52 bits of a
//!   52×52-bit product) for the NTT stages, the element-wise kernels
//!   and the dot product; the standalone butterflies run the AVX2
//!   kernels on this tier.
//!
//! Selection:
//!
//! * `PASTA_SIMD=scalar` forces the portable path,
//! * `PASTA_SIMD=avx2` forces AVX2 (silently falling back to scalar if
//!   the CPU lacks it),
//! * `PASTA_SIMD=auto` (or unset) picks the fastest detected tier:
//!   avx512ifma when `avx512f` and `avx512ifma` are reported, else avx2
//!   when `avx2` is, else scalar,
//! * any other value panics at first dispatch — a typo must not
//!   silently defeat a backend gate (e.g. a CI scalar leg).
//!
//! **Outputs are bit-identical across backends.** Every kernel computes
//! an *exact* value — either the canonical residue in `[0, p)` or the
//! same lazy representative the scalar recurrence produces:
//!
//! * The butterflies run the identical lazy recurrence (`mul_shoup_lazy`
//!   is `a·w − ⌊a·w'/2⁶⁴⌋·p`, a pure function of its u64 inputs), so the
//!   intermediate `< 2p` / `< 4p` representatives match word for word.
//!   All backends pick the same Shoup radix β from the modulus width,
//!   through the twiddle companion alone: β = 2³² below
//!   [`SMALL_MODULUS_BOUND`], where every operand fits 32 bits and the
//!   whole lazy product collapses to three single-width multiplies;
//!   β = 2⁵² up to [`RADIX52_BOUND`], where the companion
//!   `⌊w·2⁵²/p⌋·2¹²` makes the radix-2⁶⁴ high half `⌊a·w'/2⁶⁴⌋` the
//!   radix-2⁵² quotient; and β = 2⁶⁴ above. The AVX2 path emulates the
//!   64×64→128 high half with four `_mm256_mul_epu32` partial products
//!   and a full carry chain — no dropped carries, so the quotient is
//!   the same integer the scalar `u128` shift computes. Twiddle
//!   companions must therefore come from [`twiddle_shoup`].
//! * The dot product and the companion-free products
//!   return canonical residues, the unique values every backend agrees
//!   on. The scalar dot product keeps its wrapped `u128` accumulator and
//!   reduces it without a division (two lazy Shoup products, by
//!   `[2⁶⁴]_p` and by one); the companion-free product is a binary
//!   Barrett reduction. On AVX2 the emulated 64×64-bit products lose to
//!   the scalar MULX pipeline, so that tier runs the scalar loops; the
//!   IFMA tier has its own kernels (below).
//!
//! Four 62-bit lanes are safe under the lazy discipline because every
//! supported modulus is ≤ 62 bits: `4p < 2⁶⁴`, so the widest transient
//! (`u + 2p − v` with `u < 2p`) never wraps a u64 lane.
//!
//! **The IFMA tier and its 52-bit operand bound.** IFMA multiplies only
//! the low 52 bits of each operand, so a lane must hold a value below
//! 2⁵². The lazy NTT values are `< 4p`, which puts the bound at
//! `p < 2⁵⁰`; the modulus picks the kernel inside each wrapper:
//!
//! * the stage kernels run on IFMA for `2³⁰ ≤ p < 2⁵⁰` (every BFV
//!   ciphertext prime of the benchmark rings is 50 bits);
//! * the element-wise kernels (`mul_const_shoup`, `pointwise_mul_shoup`,
//!   `mac_shoup`, `pointwise_mul_mod`, `mac_mod`) and the dot product
//!   (up to 2¹¹ rows) run on IFMA for `p < 2⁵⁰`, and `canonicalize`,
//!   which multiplies nothing, for every modulus — the BFV ciphertext
//!   primes of the benchmark rings and the BEHZ auxiliary primes, which
//!   are drawn below 2⁵⁰ for this reason;
//! * everything else — the narrow-radix moduli below 2³⁰ in the stages,
//!   54- and 60-bit primes, lengths that are not a multiple of 8 lanes
//!   and `t < 8` stages whose group count does not fill 16 words —
//!   takes the AVX2 kernel (which hands its own tails to the scalar
//!   one).
//!
//! The stage kernels run the radix-2⁵² recurrence the companion
//! selects below [`RADIX52_BOUND`]. With `w′ = s·2¹²`,
//! `s = ⌊w·2⁵²/p⌋ < 2⁵²`, and a lazy input `y < 4p < 2⁵²`, the
//! quotient `q = ⌊y·w′/2⁶⁴⌋ = ⌊y·s/2⁵²⌋` is `hi(y·s)`, the high 52-bit
//! half of one IFMA product, where `lo`/`hi` are the low/high 52-bit
//! halves. The Harvey bound `y ≤ 2⁵²` puts the remainder `y·w − q·p`
//! in `[0, 2p)` and `2p < 2⁵²`, so it equals
//! `(lo(y·w) − lo(q·p)) mod 2⁵²`: three `vpmadd52` per vector, and
//! every lazy intermediate matches the scalar and AVX2 recurrence word
//! for word. The element-wise kernels take wide-radix `Zp::shoup`
//! companions and return canonical residues, so they may use the
//! shorter radix-2⁵² companion `w_shoup ≫ 12`, which equals
//! `⌊w·2⁵²/p⌋` because the two floor divisions compose; the Harvey
//! bound `a ≤ 2⁵²` keeps that lazy product `< 2p`, and the canonical
//! result is the unique residue all backends return. No table or
//! companion layout depends on the tier.
//!
//! The companion-free product `a·b mod p` (canonical `a, b`) is a
//! radix-2⁵² Barrett reduction: with `n = bits(p)`, the quotient
//! estimate `hi52(⌊a·b/2ⁿ⁻¹⌋·⌊2ⁿ⁺⁵¹/p⌋)` undershoots by at most 2, so
//! the remainder is below `3p < 2⁵²` and exact as a low-52-bit
//! difference. The dot product splits each row value at bit 52 and
//! keeps three 52-bit-column lane accumulators, four column vectors side
//! by side so the multiply–add chains overlap, then reduces them with
//! one radix-2⁵² Shoup product per column (see `ifma::dot_mod`).
//!
//! All `unsafe` stays inside this module: intrinsics are wrapped in
//! `#[target_feature]` functions that only the dispatcher calls, and
//! only after the CPU reported the features they enable.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the SIMD backend
/// (`auto` | `scalar` | `avx2`), mirroring `PASTA_THREADS`.
pub const SIMD_ENV: &str = "PASTA_SIMD";

/// A SIMD backend for the modular kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar path (the default off x86-64).
    Scalar,
    /// 4×u64-lane AVX2 path (x86-64 with runtime-detected support).
    Avx2,
    /// 8×u64-lane AVX-512 IFMA52 path for moduli below 2⁵⁰ (x86-64 with
    /// runtime-detected `avx512f` + `avx512ifma`); wider moduli and the
    /// kernels without an IFMA version run the AVX2 code.
    Avx512Ifma,
}

impl Backend {
    /// Every backend, slowest first.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512Ifma];

    /// Stable lowercase label (`"scalar"` / `"avx2"` / `"avx512ifma"`)
    /// for telemetry and bench JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512Ifma => "avx512ifma",
        }
    }

    /// Whether this CPU supports the backend.
    #[must_use]
    pub fn is_available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::is_x86_feature_detected!("avx2");
            match self {
                Backend::Scalar => true,
                Backend::Avx2 => avx2,
                Backend::Avx512Ifma => {
                    avx2 && std::is_x86_feature_detected!("avx512f")
                        && std::is_x86_feature_detected!("avx512ifma")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Backend::Scalar
        }
    }

    /// The fastest available backend no faster than `self`: an
    /// unavailable IFMA request falls back to AVX2, and AVX2 to scalar.
    fn or_fallback(self) -> Backend {
        match self {
            Backend::Avx512Ifma if !self.is_available() => Backend::Avx2.or_fallback(),
            Backend::Avx2 if !self.is_available() => Backend::Scalar,
            b => b,
        }
    }
}

const BACKEND_UNRESOLVED: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
const BACKEND_AVX2: u8 = 2;
const BACKEND_AVX512IFMA: u8 = 3;

/// Cached backend selection: resolved on first use, then a relaxed
/// atomic load. `force_backend` (tests/benches) may overwrite it.
static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNRESOLVED);

fn resolve_from_env() -> Backend {
    match std::env::var(SIMD_ENV).ok().as_deref() {
        Some("scalar") => Backend::Scalar,
        Some("avx2") => Backend::Avx2.or_fallback(),
        Some("auto") | None => Backend::Avx512Ifma.or_fallback(),
        // audit: allow(panic, reason = "fail-fast on a misconfigured environment: a typo like PASTA_SIMD=sclar silently selecting AVX2 would defeat a CI scalar-backend gate with no diagnostic")
        Some(other) => panic!(
            "{SIMD_ENV}={other:?} is not a recognized backend \
             (expected \"auto\", \"scalar\" or \"avx2\")"
        ),
    }
}

fn store_backend(b: Backend) {
    let code = match b {
        Backend::Scalar => BACKEND_SCALAR,
        Backend::Avx2 => BACKEND_AVX2,
        Backend::Avx512Ifma => BACKEND_AVX512IFMA,
    };
    // audit: allow(ordering, reason = "idempotent dispatch cache: racing initializers all derive the same value from CPUID, so no ordering is needed")
    BACKEND.store(code, Ordering::Relaxed);
}

/// The selected backend (resolving `PASTA_SIMD` + CPU detection on
/// first call, cached afterwards).
#[must_use]
pub fn backend() -> Backend {
    // audit: allow(ordering, reason = "reads the idempotent dispatch cache: a stale miss only repeats the CPUID probe and stores the same value")
    match BACKEND.load(Ordering::Relaxed) {
        BACKEND_SCALAR => Backend::Scalar,
        BACKEND_AVX2 => Backend::Avx2,
        BACKEND_AVX512IFMA => Backend::Avx512Ifma,
        _ => {
            let b = resolve_from_env();
            store_backend(b);
            b
        }
    }
}

/// Stable label of the selected backend (`"scalar"` / `"avx2"` /
/// `"avx512ifma"`).
#[must_use]
pub fn backend_label() -> &'static str {
    backend().label()
}

/// Overrides the cached backend selection — a test/bench hook for
/// exercising every path inside one process. `None` re-resolves from
/// the environment. A request for an unavailable backend falls back to
/// the fastest available slower one (IFMA → AVX2 → scalar). Returns the
/// backend actually in effect. Safe to call at any time: all backends
/// produce bit-identical outputs, so switching mid-run cannot change
/// any result.
pub fn force_backend(requested: Option<Backend>) -> Backend {
    let b = requested.map_or_else(resolve_from_env, Backend::or_fallback);
    store_backend(b);
    b
}

/// Moduli below this bound take the narrow-radix (β = 2³²) Shoup path
/// in the butterfly/stage kernels. With `p < 2³⁰` every lazy value is
/// `< 4p ≤ 2³²`, so the Shoup quotient `⌊a·w′/2³²⌋` (with
/// `w′ = ⌊w·2³²/p⌋ < 2³²`) is the high half of a single 32×32→64
/// product and both back-multiplies `a·w`, `q·p` are exact single
/// products too — on AVX2 that is three `pmuludq` per 4 butterflies
/// instead of ten plus a carry chain. The Harvey bound `a ≤ β` holds
/// (`a < 4p ≤ 2³² = β`), so the lazy outputs stay `< 2p` exactly as in
/// the wide-radix recurrence. Both the scalar and the vector backend
/// switch radix on the same bound, so outputs remain bit-identical
/// across backends at every intermediate stage. This covers the
/// paper's PASTA plaintext modulus (17-bit); the BFV/NTT primes
/// (≥ 33 bits) take β = 2⁵² below [`RADIX52_BOUND`] and keep β = 2⁶⁴
/// above it.
pub const SMALL_MODULUS_BOUND: u64 = 1 << 30;

/// Moduli from [`SMALL_MODULUS_BOUND`] up to this bound take the
/// radix-2⁵² Shoup twiddle companion: every lazy butterfly input is
/// `< 4p < 2⁵²`, within the Harvey bound `a ≤ β = 2⁵²`, so the lazy
/// products stay `< 2p`. The companion is stored as `⌊w·2⁵²/p⌋·2¹²`,
/// so the scalar and AVX2 kernels' `⌊a·w′/2⁶⁴⌋` is that radix's
/// quotient unchanged, and the IFMA stage kernel reads it with one
/// `vpmadd52huq` from `w′ ≫ 12`.
pub const RADIX52_BOUND: u64 = 1 << 50;

/// Shoup companion for a butterfly/stage twiddle, in the radix the
/// stage kernels use for this modulus: `⌊w·2³²/p⌋` below
/// [`SMALL_MODULUS_BOUND`] (the narrow-radix kernels shift by 32),
/// `⌊w·2⁵²/p⌋·2¹²` below [`RADIX52_BOUND`] (so `⌊a·w′/2⁶⁴⌋` is the
/// radix-2⁵² quotient) and `⌊w·2⁶⁴/p⌋` otherwise. NTT tables must
/// prepare their twiddle companions with this function — `Zp::shoup`
/// is always wide-radix and only matches above [`RADIX52_BOUND`]. The
/// pointwise / MAC / broadcast-constant kernels are wide-radix for
/// every modulus and keep taking `Zp::shoup` companions.
#[must_use]
pub fn twiddle_shoup(p: u64, w: u64) -> u64 {
    debug_assert!(w < p, "twiddle must be canonical");
    if p < SMALL_MODULUS_BOUND {
        ((u128::from(w) << 32) / u128::from(p)) as u64
    } else if p < RADIX52_BOUND {
        (((u128::from(w) << 52) / u128::from(p)) as u64) << 12
    } else {
        ((u128::from(w) << 64) / u128::from(p)) as u64
    }
}

// ---------------------------------------------------------------------------
// Dispatching wrappers (safe, slice-taking)
// ---------------------------------------------------------------------------

/// Routes a kernel call to the backend's implementation. The
/// three-argument form sends the IFMA tier to the AVX2 kernel.
macro_rules! dispatch {
    ($backend:expr, $scalar:expr, $avx2:expr) => {
        dispatch!($backend, $scalar, $avx2, $avx2)
    };
    ($backend:expr, $scalar:expr, $avx2:expr, $ifma:expr) => {
        match $backend {
            Backend::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Backend::Avx2` is only ever selected (by
            // `resolve_from_env` or `force_backend`) after
            // `is_x86_feature_detected!("avx2")` reported support,
            // so calling the `#[target_feature(enable = "avx2")]`
            // kernel is sound on this CPU.
            Backend::Avx2 => unsafe { $avx2 },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Backend::Avx512Ifma` is only ever selected after
            // `is_x86_feature_detected!` reported avx2, avx512f and
            // avx512ifma, so calling a kernel with any of those target
            // features enabled is sound on this CPU.
            Backend::Avx512Ifma => unsafe { $ifma },
            #[cfg(not(target_arch = "x86_64"))]
            _ => $scalar,
        }
    };
}

/// Forward (Cooley–Tukey) lazy butterfly over a group: for each lane,
/// `u = lo cond− 2p; v = lazy(hi·w); lo = u + v; hi = u + 2p − v`.
/// Inputs `< 4p`, outputs `< 4p`.
pub fn fwd_butterfly_with(
    backend: Backend,
    p: u64,
    w: u64,
    w_shoup: u64,
    lo: &mut [u64],
    hi: &mut [u64],
) {
    assert_eq!(lo.len(), hi.len());
    dispatch!(
        backend,
        scalar::fwd_butterfly(p, w, w_shoup, lo, hi),
        avx2::fwd_butterfly(p, w, w_shoup, lo, hi)
    );
}

/// Forward butterfly on the cached global backend.
pub fn fwd_butterfly(p: u64, w: u64, w_shoup: u64, lo: &mut [u64], hi: &mut [u64]) {
    fwd_butterfly_with(backend(), p, w, w_shoup, lo, hi);
}

/// Inverse (Gentleman–Sande) lazy butterfly over a group: for each
/// lane, `lo = (u + v) cond− 2p; hi = lazy((u + 2p − v)·w)`. Values
/// `< 2p` throughout.
pub fn inv_butterfly_with(
    backend: Backend,
    p: u64,
    w: u64,
    w_shoup: u64,
    lo: &mut [u64],
    hi: &mut [u64],
) {
    assert_eq!(lo.len(), hi.len());
    dispatch!(
        backend,
        scalar::inv_butterfly(p, w, w_shoup, lo, hi),
        avx2::inv_butterfly(p, w, w_shoup, lo, hi)
    );
}

/// Inverse butterfly on the cached global backend.
pub fn inv_butterfly(p: u64, w: u64, w_shoup: u64, lo: &mut [u64], hi: &mut [u64]) {
    inv_butterfly_with(backend(), p, w, w_shoup, lo, hi);
}

/// One full forward (Cooley–Tukey) NTT stage: `twiddles.len()` groups
/// of `2·t` contiguous elements, group `i` running
/// [`fwd_butterfly_with`] with `twiddles[i]` on
/// `a[2·t·i .. 2·t·(i+1)]`. One dispatch (and one non-inlinable
/// `#[target_feature]` call) covers the whole stage — per-group
/// dispatch costs more than the butterflies themselves in the short
/// final stages — and the `t = 1` / `t = 2` stages vectorize *across*
/// groups via lane permutes instead of falling back to scalar.
pub fn fwd_stage_with(
    backend: Backend,
    p: u64,
    twiddles: &[u64],
    twiddles_shoup: &[u64],
    t: usize,
    a: &mut [u64],
) {
    assert_eq!(twiddles.len(), twiddles_shoup.len());
    assert_eq!(a.len(), 2 * t * twiddles.len());
    dispatch!(
        backend,
        scalar::fwd_stage(p, twiddles, twiddles_shoup, t, a),
        avx2::fwd_stage(p, twiddles, twiddles_shoup, t, a),
        ifma::fwd_stage(p, twiddles, twiddles_shoup, t, a)
    );
}

/// Forward NTT stage on the cached global backend.
pub fn fwd_stage(p: u64, twiddles: &[u64], twiddles_shoup: &[u64], t: usize, a: &mut [u64]) {
    fwd_stage_with(backend(), p, twiddles, twiddles_shoup, t, a);
}

/// One full inverse (Gentleman–Sande) NTT stage: `twiddles.len()`
/// groups of `2·t` contiguous elements, group `i` running
/// [`inv_butterfly_with`] with `twiddles[i]`. Same stage-level
/// dispatch/vectorization rationale as [`fwd_stage_with`].
pub fn inv_stage_with(
    backend: Backend,
    p: u64,
    twiddles: &[u64],
    twiddles_shoup: &[u64],
    t: usize,
    a: &mut [u64],
) {
    assert_eq!(twiddles.len(), twiddles_shoup.len());
    assert_eq!(a.len(), 2 * t * twiddles.len());
    dispatch!(
        backend,
        scalar::inv_stage(p, twiddles, twiddles_shoup, t, a),
        avx2::inv_stage(p, twiddles, twiddles_shoup, t, a),
        ifma::inv_stage(p, twiddles, twiddles_shoup, t, a)
    );
}

/// Inverse NTT stage on the cached global backend.
pub fn inv_stage(p: u64, twiddles: &[u64], twiddles_shoup: &[u64], t: usize, a: &mut [u64]) {
    inv_stage_with(backend(), p, twiddles, twiddles_shoup, t, a);
}

/// Canonicalizes lazy values `< 4p` into `[0, p)` (the forward
/// transform's single correction sweep).
pub fn canonicalize_with(backend: Backend, p: u64, a: &mut [u64]) {
    dispatch!(
        backend,
        scalar::canonicalize(p, a),
        avx2::canonicalize(p, a),
        ifma::canonicalize(p, a)
    );
}

/// Canonicalization sweep on the cached global backend.
pub fn canonicalize(p: u64, a: &mut [u64]) {
    canonicalize_with(backend(), p, a);
}

/// Canonical Shoup product by a broadcast constant:
/// `a[i] = a[i]·w mod p` (inverse-NTT `N⁻¹` scaling, RNS scalar
/// multiply). Inputs `< 4p` (the IFMA multipliers take 52-bit
/// operands); `w` canonical.
pub fn mul_const_shoup_with(backend: Backend, p: u64, w: u64, w_shoup: u64, a: &mut [u64]) {
    debug_assert!(a.iter().all(|&x| x < 4 * p), "inputs must be < 4p");
    dispatch!(
        backend,
        scalar::mul_const_shoup(p, w, w_shoup, a),
        avx2::mul_const_shoup(p, w, w_shoup, a),
        ifma::mul_const_shoup(p, w, w_shoup, a)
    );
}

/// Broadcast-constant Shoup product on the cached global backend.
pub fn mul_const_shoup(p: u64, w: u64, w_shoup: u64, a: &mut [u64]) {
    mul_const_shoup_with(backend(), p, w, w_shoup, a);
}

/// Canonical pointwise Shoup product `a[i] = a[i]·w[i] mod p` against a
/// Shoup-prepared operand (`w_shoup[i] = ⌊w[i]·2⁶⁴/p⌋`, `w[i] < p`);
/// inputs `a[i] < 4p`.
pub fn pointwise_mul_shoup_with(
    backend: Backend,
    p: u64,
    a: &mut [u64],
    w: &[u64],
    w_shoup: &[u64],
) {
    assert_eq!(a.len(), w.len());
    assert_eq!(a.len(), w_shoup.len());
    debug_assert!(a.iter().all(|&x| x < 4 * p), "inputs must be < 4p");
    dispatch!(
        backend,
        scalar::pointwise_mul_shoup(p, a, w, w_shoup),
        avx2::pointwise_mul_shoup(p, a, w, w_shoup),
        ifma::pointwise_mul_shoup(p, a, w, w_shoup)
    );
}

/// Pointwise Shoup product on the cached global backend.
pub fn pointwise_mul_shoup(p: u64, a: &mut [u64], w: &[u64], w_shoup: &[u64]) {
    pointwise_mul_shoup_with(backend(), p, a, w, w_shoup);
}

/// Fused multiply–accumulate `acc[i] = acc[i] + a[i]·w[i] mod p`
/// against a Shoup-prepared operand; all of `acc`, `a`, `w` canonical.
/// Bit-identical to `zp.add(acc, zp.mul(a, w))`.
pub fn mac_shoup_with(
    backend: Backend,
    p: u64,
    acc: &mut [u64],
    a: &[u64],
    w: &[u64],
    w_shoup: &[u64],
) {
    assert_eq!(acc.len(), a.len());
    assert_eq!(acc.len(), w.len());
    assert_eq!(acc.len(), w_shoup.len());
    dispatch!(
        backend,
        scalar::mac_shoup(p, acc, a, w, w_shoup),
        avx2::mac_shoup(p, acc, a, w, w_shoup),
        ifma::mac_shoup(p, acc, a, w, w_shoup)
    );
}

/// Fused Shoup MAC on the cached global backend.
pub fn mac_shoup(p: u64, acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64]) {
    mac_shoup_with(backend(), p, acc, a, w, w_shoup);
}

/// Canonical pointwise product `a[i] = a[i]·b[i] mod p` of two
/// canonical operands with no precomputed companion — the
/// ciphertext × ciphertext tensor and the decryption phase, where
/// neither operand is reused enough to pay for Shoup rows.
pub fn pointwise_mul_mod_with(backend: Backend, p: u64, a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    debug_assert!(
        a.iter().chain(b).all(|&x| x < p),
        "inputs must be canonical"
    );
    dispatch!(
        backend,
        scalar::pointwise_mul_mod(p, a, b),
        avx2::pointwise_mul_mod(p, a, b),
        ifma::pointwise_mul_mod(p, a, b)
    );
}

/// Companion-free pointwise product on the cached global backend.
pub fn pointwise_mul_mod(p: u64, a: &mut [u64], b: &[u64]) {
    pointwise_mul_mod_with(backend(), p, a, b);
}

/// Fused multiply–accumulate `acc[i] = acc[i] + a[i]·b[i] mod p` of
/// canonical operands with no precomputed companion. Bit-identical to
/// `zp.add(acc, zp.mul(a, b))`.
pub fn mac_mod_with(backend: Backend, p: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(acc.len(), a.len());
    assert_eq!(acc.len(), b.len());
    debug_assert!(
        acc.iter().chain(a).chain(b).all(|&x| x < p),
        "inputs must be canonical"
    );
    dispatch!(
        backend,
        scalar::mac_mod(p, acc, a, b),
        avx2::mac_mod(p, acc, a, b),
        ifma::mac_mod(p, acc, a, b)
    );
}

/// Companion-free fused MAC on the cached global backend.
pub fn mac_mod(p: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
    mac_mod_with(backend(), p, acc, a, b);
}

/// Dot product mod `p` with one lazy reduction per output column:
/// `out[c] = (Σ_i rows[i][c]·weights[i]) mod p` with the sum taken in
/// 128 bits, wrapping mod 2¹²⁸ exactly like the scalar `u128`
/// accumulator. Weights must be canonical (`< p`); rows may hold any
/// `u64`.
///
/// It has three callers:
///
/// * the BEHZ base conversions of `pasta_fhe::rns_mul`: one row per
///   prime of the source basis (a few dozen at most), true sums bounded
///   below 2¹²⁶;
/// * the key-switch ModDown of `pasta_fhe::BfvContext`: one row per
///   special prime plus the accumulator and addend rows, canonical
///   residues below 2⁶², so the sums stay below 2¹²⁶;
/// * the affine layer-halves of `pasta_fhe::BfvContext::dot_periodic`:
///   one canonical row per PASTA state element of a half (`t` = 32 for
///   PASTA-4, 128 for PASTA-3), one call per output row and column
///   tile of at most 128 columns inside a run of `N/k` NTT slots of a
///   `k`-periodic weight, so every output row of a tile reads the same
///   cache-resident input rows; it splits the rows so that no true sum
///   reaches 2¹²⁸.
///
/// Each `rows[i]` must have at least `out.len()` elements.
pub fn dot_mod_with(backend: Backend, p: u64, rows: &[&[u64]], weights: &[u64], out: &mut [u64]) {
    assert_eq!(rows.len(), weights.len());
    assert!(rows.iter().all(|r| r.len() >= out.len()));
    debug_assert!(weights.iter().all(|&w| w < p), "weights must be canonical");
    dispatch!(
        backend,
        scalar::dot_mod(p, rows, weights, out, 0),
        avx2::dot_mod(p, rows, weights, out),
        ifma::dot_mod(p, rows, weights, out)
    );
}

/// Dot product on the cached global backend.
pub fn dot_mod(p: u64, rows: &[&[u64]], weights: &[u64], out: &mut [u64]) {
    dot_mod_with(backend(), p, rows, weights, out);
}

// ---------------------------------------------------------------------------
// Scalar kernels — the portable reference, byte-for-byte the loops the
// NTT/RNS code ran before this module existed.
// ---------------------------------------------------------------------------

mod scalar {
    /// Lazy Shoup product `a·w − ⌊a·w'/2⁶⁴⌋·p ∈ [0, 2p)` — identical to
    /// `Zp::mul_shoup_lazy`.
    #[inline]
    pub(super) fn mul_shoup_lazy(p: u64, a: u64, w: u64, w_shoup: u64) -> u64 {
        let q = ((u128::from(a) * u128::from(w_shoup)) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p))
    }

    /// Narrow-radix lazy Shoup product for `p < SMALL_MODULUS_BOUND`
    /// (`w′ = ⌊w·2³²/p⌋`, `a < 4p ≤ 2³²`): the quotient is the high
    /// half of one 32×32→64 product and both back-multiplies fit a u64
    /// exactly, so no wrapping arithmetic is needed.
    #[inline]
    pub(super) fn mul_shoup_lazy32(p: u64, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(a < 1u64 << 32);
        let q = (a * w_shoup) >> 32;
        a * w - q * p
    }

    #[inline]
    pub(super) fn fwd_butterfly(p: u64, w: u64, w_shoup: u64, lo: &mut [u64], hi: &mut [u64]) {
        if p < super::SMALL_MODULUS_BOUND {
            fwd_butterfly_impl::<true>(p, w, w_shoup, lo, hi);
        } else {
            fwd_butterfly_impl::<false>(p, w, w_shoup, lo, hi);
        }
    }

    #[inline]
    fn fwd_butterfly_impl<const SMALL: bool>(
        p: u64,
        w: u64,
        w_shoup: u64,
        lo: &mut [u64],
        hi: &mut [u64],
    ) {
        let two_p = 2 * p;
        for (u, v) in lo.iter_mut().zip(hi.iter_mut()) {
            let mut x = *u;
            if x >= two_p {
                x -= two_p;
            }
            let y = if SMALL {
                mul_shoup_lazy32(p, *v, w, w_shoup)
            } else {
                mul_shoup_lazy(p, *v, w, w_shoup)
            };
            *u = x + y;
            *v = x + two_p - y;
        }
    }

    #[inline]
    pub(super) fn inv_butterfly(p: u64, w: u64, w_shoup: u64, lo: &mut [u64], hi: &mut [u64]) {
        if p < super::SMALL_MODULUS_BOUND {
            inv_butterfly_impl::<true>(p, w, w_shoup, lo, hi);
        } else {
            inv_butterfly_impl::<false>(p, w, w_shoup, lo, hi);
        }
    }

    #[inline]
    fn inv_butterfly_impl<const SMALL: bool>(
        p: u64,
        w: u64,
        w_shoup: u64,
        lo: &mut [u64],
        hi: &mut [u64],
    ) {
        let two_p = 2 * p;
        for (u, v) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *u;
            let y = *v;
            let mut s = x + y;
            if s >= two_p {
                s -= two_p;
            }
            *u = s;
            *v = if SMALL {
                mul_shoup_lazy32(p, x + two_p - y, w, w_shoup)
            } else {
                mul_shoup_lazy(p, x + two_p - y, w, w_shoup)
            };
        }
    }

    #[inline]
    pub(super) fn fwd_stage(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        for (i, (&wi, &wsi)) in w.iter().zip(ws.iter()).enumerate() {
            let (lo, hi) = a[2 * t * i..2 * t * (i + 1)].split_at_mut(t);
            fwd_butterfly(p, wi, wsi, lo, hi);
        }
    }

    #[inline]
    pub(super) fn inv_stage(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        for (i, (&wi, &wsi)) in w.iter().zip(ws.iter()).enumerate() {
            let (lo, hi) = a[2 * t * i..2 * t * (i + 1)].split_at_mut(t);
            inv_butterfly(p, wi, wsi, lo, hi);
        }
    }

    #[inline]
    pub(super) fn canonicalize(p: u64, a: &mut [u64]) {
        let two_p = 2 * p;
        for x in a.iter_mut() {
            if *x >= two_p {
                *x -= two_p;
            }
            if *x >= p {
                *x -= p;
            }
        }
    }

    #[inline]
    pub(super) fn mul_const_shoup(p: u64, w: u64, w_shoup: u64, a: &mut [u64]) {
        for x in a.iter_mut() {
            let r = mul_shoup_lazy(p, *x, w, w_shoup);
            *x = if r >= p { r - p } else { r };
        }
    }

    #[inline]
    pub(super) fn pointwise_mul_shoup(p: u64, a: &mut [u64], w: &[u64], w_shoup: &[u64]) {
        for ((x, &wi), &wsi) in a.iter_mut().zip(w.iter()).zip(w_shoup.iter()) {
            let r = mul_shoup_lazy(p, *x, wi, wsi);
            *x = if r >= p { r - p } else { r };
        }
    }

    #[inline]
    pub(super) fn mac_shoup(p: u64, acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64]) {
        for (((o, &x), &wi), &wsi) in acc
            .iter_mut()
            .zip(a.iter())
            .zip(w.iter())
            .zip(w_shoup.iter())
        {
            let r = mul_shoup_lazy(p, x, wi, wsi);
            let m = if r >= p { r - p } else { r };
            let s = *o + m;
            *o = if s >= p { s - p } else { s };
        }
    }

    /// `x − p` when `x ≥ p`, else `x`.
    #[inline]
    fn cond_sub(x: u64, p: u64) -> u64 {
        if x >= p {
            x - p
        } else {
            x
        }
    }

    /// Division-free `x mod p` for any `u128` `x` (`p < 2⁶³`): with
    /// `x = hi·2⁶⁴ + lo`, both halves take one lazy Shoup product — `hi`
    /// by `[2⁶⁴]_p`, `lo` by one — whose results lie in `[0, 2p)` for
    /// every `u64` input, so two conditional subtractions and one modular
    /// addition give the canonical residue `%` would.
    #[derive(Clone, Copy)]
    pub(super) struct WideReducer {
        p: u64,
        two64: u64,
        two64_shoup: u64,
        one_shoup: u64,
    }

    impl WideReducer {
        pub(super) fn new(p: u64) -> Self {
            let pw = u128::from(p);
            let two64 = ((1u128 << 64) % pw) as u64;
            WideReducer {
                p,
                two64,
                two64_shoup: ((u128::from(two64) << 64) / pw) as u64,
                one_shoup: ((1u128 << 64) / pw) as u64,
            }
        }

        #[inline]
        pub(super) fn reduce(&self, x: u128) -> u64 {
            let p = self.p;
            let hi = cond_sub(
                mul_shoup_lazy(p, (x >> 64) as u64, self.two64, self.two64_shoup),
                p,
            );
            let lo = cond_sub(mul_shoup_lazy(p, x as u64, 1, self.one_shoup), p);
            cond_sub(hi + lo, p)
        }
    }

    /// Binary Barrett product `a·b mod p` for canonical `a, b` and
    /// `p < 2⁶²`. With `n = bits(p)` and `x = a·b < 2²ⁿ`, the estimate
    /// `q̂ = ⌊⌊x/2ⁿ⁻¹⌋·μ/2ⁿ⁺¹⌋` (`μ = ⌊2²ⁿ/p⌋`) undershoots `⌊x/p⌋` by at
    /// most 2, so `x − q̂·p < 3p` fits a u64 and two conditional
    /// subtractions make it canonical.
    #[derive(Clone, Copy)]
    pub(super) struct Barrett {
        p: u64,
        n: u32,
        mu: u64,
    }

    impl Barrett {
        pub(super) fn new(p: u64) -> Self {
            let n = 64 - p.leading_zeros();
            Barrett {
                p,
                n,
                mu: ((1u128 << (2 * n)) / u128::from(p)) as u64,
            }
        }

        #[inline]
        pub(super) fn mul(&self, a: u64, b: u64) -> u64 {
            let x = u128::from(a) * u128::from(b);
            let c1 = (x >> (self.n - 1)) as u64;
            let q = ((u128::from(c1) * u128::from(self.mu)) >> (self.n + 1)) as u64;
            let r = (x as u64).wrapping_sub(q.wrapping_mul(self.p));
            cond_sub(cond_sub(r, 2 * self.p), self.p)
        }
    }

    #[inline]
    pub(super) fn pointwise_mul_mod(p: u64, a: &mut [u64], b: &[u64]) {
        let bar = Barrett::new(p);
        for (x, &y) in a.iter_mut().zip(b) {
            *x = bar.mul(*x, y);
        }
    }

    #[inline]
    pub(super) fn mac_mod(p: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let bar = Barrett::new(p);
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o = cond_sub(*o + bar.mul(x, y), p);
        }
    }

    /// Dot product mod `p` over columns `offset..offset + out.len()`:
    /// the wrapped `u128` accumulator, reduced
    /// by [`WideReducer`] instead of a `u128 %`.
    #[inline]
    pub(super) fn dot_mod(
        p: u64,
        rows: &[&[u64]],
        weights: &[u64],
        out: &mut [u64],
        offset: usize,
    ) {
        let red = WideReducer::new(p);
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = 0u128;
            for (row, &m) in rows.iter().zip(weights.iter()) {
                acc = acc.wrapping_add(u128::from(row[offset + c]) * u128::from(m));
            }
            *o = red.reduce(acc);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels — 4×u64 lanes, exact 64×64 high halves via pmuludq
// partial products with a full carry chain.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_mul_epu32, _mm256_permute2x128_si256, _mm256_permute4x64_epi64,
        _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_sub_epi64, _mm256_unpackhi_epi64, _mm256_unpacklo_epi64,
        _mm256_xor_si256,
    };

    const LANES: usize = 4;
    const MASK32: i64 = 0xFFFF_FFFF;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(x: u64) -> __m256i {
        _mm256_set1_epi64x(x as i64)
    }

    /// Wrapping low 64 bits of the 64×64 lane product.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mullo64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(cross))
    }

    /// Exact high 64 bits of the 64×64 lane product: four pmuludq
    /// partial products with a full carry chain, so the Shoup quotient
    /// matches the scalar `u128` shift bit for bit.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mulhi64(a: __m256i, b: __m256i) -> __m256i {
        let mask = _mm256_set1_epi64x(MASK32);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // cross < 3·2³² so its carry into the high word is (cross ≫ 32).
        let cross = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(ll), _mm256_and_si256(lh, mask)),
            _mm256_and_si256(hl, mask),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(cross)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(lh), _mm256_srli_epi64::<32>(hl)),
        )
    }

    /// `x − (m if x ≥ m else 0)` per lane, unsigned. AVX2 has no
    /// unsigned 64-bit compare; XOR with the sign bit order-embeds u64
    /// into i64 for `_mm256_cmpgt_epi64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cond_sub(x: __m256i, m: __m256i) -> __m256i {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(m, sign), _mm256_xor_si256(x, sign));
        // Where x < m keep 0, else subtract m.
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, m))
    }

    /// Lane-wise `Zp::mul_shoup_lazy`: `a·w − ⌊a·w′/2⁶⁴⌋·p ∈ [0, 2p)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_shoup_lazy_vec(a: __m256i, w: __m256i, w_shoup: __m256i, p: __m256i) -> __m256i {
        let q = mulhi64(a, w_shoup);
        _mm256_sub_epi64(mullo64(a, w), mullo64(q, p))
    }

    /// Narrow-radix lazy Shoup product for small moduli
    /// (`p < 2³⁰`, `w′ = ⌊w·2³²/p⌋`, lanes `a < 4p ≤ 2³²`): every
    /// operand fits 32 bits, so the quotient and both back-multiplies
    /// are one `pmuludq` each instead of the four-partial carry chain.
    /// The products are exact in the 64-bit lane (`a·w < 2⁶²`), so the
    /// result is the same `[0, 2p)` representative the scalar
    /// narrow-radix recurrence computes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_shoup_lazy32_vec(a: __m256i, w: __m256i, w_shoup: __m256i, p: __m256i) -> __m256i {
        let q = _mm256_srli_epi64::<32>(_mm256_mul_epu32(a, w_shoup));
        _mm256_sub_epi64(_mm256_mul_epu32(a, w), _mm256_mul_epu32(q, p))
    }

    /// `cond_sub` for lanes already known to be `< 2⁶³` (small-modulus
    /// path): the values embed into i64 directly, skipping the sign-flip
    /// XORs.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cond_sub_narrow(x: __m256i, m: __m256i) -> __m256i {
        let lt = _mm256_cmpgt_epi64(m, x);
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, m))
    }

    /// Forward (Cooley–Tukey) lazy butterfly on 4 lanes:
    /// `(x, y) → (u + v, u + 2p − v)` with `u = x cond− 2p`,
    /// `v = lazy(y·w)`. `SMALL` selects the narrow (β = 2³²) Shoup
    /// radix — see [`super::SMALL_MODULUS_BOUND`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bf_fwd<const SMALL: bool>(
        x: __m256i,
        y: __m256i,
        wv: __m256i,
        wsv: __m256i,
        pv: __m256i,
        two_pv: __m256i,
    ) -> (__m256i, __m256i) {
        let u = if SMALL {
            cond_sub_narrow(x, two_pv)
        } else {
            cond_sub(x, two_pv)
        };
        let v = if SMALL {
            mul_shoup_lazy32_vec(y, wv, wsv, pv)
        } else {
            mul_shoup_lazy_vec(y, wv, wsv, pv)
        };
        (
            _mm256_add_epi64(u, v),
            _mm256_add_epi64(u, _mm256_sub_epi64(two_pv, v)),
        )
    }

    /// Inverse (Gentleman–Sande) lazy butterfly on 4 lanes:
    /// `(x, y) → ((x + y) cond− 2p, lazy((x + 2p − y)·w))`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bf_inv<const SMALL: bool>(
        x: __m256i,
        y: __m256i,
        wv: __m256i,
        wsv: __m256i,
        pv: __m256i,
        two_pv: __m256i,
    ) -> (__m256i, __m256i) {
        let sum = _mm256_add_epi64(x, y);
        let s = if SMALL {
            cond_sub_narrow(sum, two_pv)
        } else {
            cond_sub(sum, two_pv)
        };
        let d = _mm256_add_epi64(x, _mm256_sub_epi64(two_pv, y));
        let nh = if SMALL {
            mul_shoup_lazy32_vec(d, wv, wsv, pv)
        } else {
            mul_shoup_lazy_vec(d, wv, wsv, pv)
        };
        (s, nh)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fwd_butterfly(p: u64, w: u64, w_shoup: u64, lo: &mut [u64], hi: &mut [u64]) {
        if p < super::SMALL_MODULUS_BOUND {
            fwd_butterfly_impl::<true>(p, w, w_shoup, lo, hi);
        } else {
            fwd_butterfly_impl::<false>(p, w, w_shoup, lo, hi);
        }
    }

    #[target_feature(enable = "avx2")]
    fn fwd_butterfly_impl<const SMALL: bool>(
        p: u64,
        w: u64,
        w_shoup: u64,
        lo: &mut [u64],
        hi: &mut [u64],
    ) {
        let n = lo.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let two_pv = splat(2 * p);
        let wv = splat(w);
        let wsv = splat(w_shoup);
        let lp = lo.as_mut_ptr();
        let hp = hi.as_mut_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 4 ≤ vec_n ≤ lo.len() = hi.len(), so the
            // unaligned 256-bit loads/stores stay in bounds of the two
            // disjoint slices.
            unsafe {
                let x = _mm256_loadu_si256(lp.add(j).cast());
                let y = _mm256_loadu_si256(hp.add(j).cast());
                let (nl, nh) = bf_fwd::<SMALL>(x, y, wv, wsv, pv, two_pv);
                _mm256_storeu_si256(lp.add(j).cast(), nl);
                _mm256_storeu_si256(hp.add(j).cast(), nh);
            }
            j += LANES;
        }
        super::scalar::fwd_butterfly(p, w, w_shoup, &mut lo[vec_n..], &mut hi[vec_n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn inv_butterfly(p: u64, w: u64, w_shoup: u64, lo: &mut [u64], hi: &mut [u64]) {
        if p < super::SMALL_MODULUS_BOUND {
            inv_butterfly_impl::<true>(p, w, w_shoup, lo, hi);
        } else {
            inv_butterfly_impl::<false>(p, w, w_shoup, lo, hi);
        }
    }

    #[target_feature(enable = "avx2")]
    fn inv_butterfly_impl<const SMALL: bool>(
        p: u64,
        w: u64,
        w_shoup: u64,
        lo: &mut [u64],
        hi: &mut [u64],
    ) {
        let n = lo.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let two_pv = splat(2 * p);
        let wv = splat(w);
        let wsv = splat(w_shoup);
        let lp = lo.as_mut_ptr();
        let hp = hi.as_mut_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 4 ≤ vec_n ≤ lo.len() = hi.len(), so the
            // unaligned 256-bit loads/stores stay in bounds of the two
            // disjoint slices.
            unsafe {
                let x = _mm256_loadu_si256(lp.add(j).cast());
                let y = _mm256_loadu_si256(hp.add(j).cast());
                let (nl, nh) = bf_inv::<SMALL>(x, y, wv, wsv, pv, two_pv);
                _mm256_storeu_si256(lp.add(j).cast(), nl);
                _mm256_storeu_si256(hp.add(j).cast(), nh);
            }
            j += LANES;
        }
        super::scalar::inv_butterfly(p, w, w_shoup, &mut lo[vec_n..], &mut hi[vec_n..]);
    }

    /// Forward stage: one `#[target_feature]` call covers every group.
    /// `t ≥ 4` hoists the modulus splats and loops groups with a plain
    /// 4-lane butterfly; the short final stages vectorize *across*
    /// groups — `t = 2` pairs two groups per 8 elements via 128-bit
    /// half swaps, `t = 1` packs four groups via 64-bit unpacks — so no
    /// stage falls back to per-element scalar work.
    #[target_feature(enable = "avx2")]
    pub(super) fn fwd_stage(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        if p < super::SMALL_MODULUS_BOUND {
            fwd_stage_impl::<true>(p, w, ws, t, a);
        } else {
            fwd_stage_impl::<false>(p, w, ws, t, a);
        }
    }

    #[target_feature(enable = "avx2")]
    fn fwd_stage_impl<const SMALL: bool>(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        let m = w.len();
        let pv = splat(p);
        let two_pv = splat(2 * p);
        match t {
            _ if t >= LANES && t.is_multiple_of(LANES) => {
                let ap = a.as_mut_ptr();
                for i in 0..m {
                    let wv = splat(w[i]);
                    let wsv = splat(ws[i]);
                    // SAFETY: group i spans a[2·t·i .. 2·t·(i+1)] (in
                    // bounds: a.len() = 2·t·m). j + 4 ≤ t keeps the lo
                    // half (offset 2·t·i + j) and the hi half (offset
                    // 2·t·i + t + j) of each 256-bit access inside it.
                    unsafe {
                        let lp = ap.add(2 * t * i);
                        let hp = lp.add(t);
                        let mut j = 0;
                        while j < t {
                            let x = _mm256_loadu_si256(lp.add(j).cast());
                            let y = _mm256_loadu_si256(hp.add(j).cast());
                            let (nl, nh) = bf_fwd::<SMALL>(x, y, wv, wsv, pv, two_pv);
                            _mm256_storeu_si256(lp.add(j).cast(), nl);
                            _mm256_storeu_si256(hp.add(j).cast(), nh);
                            j += LANES;
                        }
                    }
                }
            }
            2 => {
                // Two groups per iteration: [x₀ x₁ y₀ y₁ | x₂ x₃ y₂ y₃]
                // splits into lo = [x₀ x₁ x₂ x₃] / hi = [y₀ y₁ y₂ y₃]
                // with 128-bit half swaps; twiddle lanes are
                // [wᵢ wᵢ wᵢ₊₁ wᵢ₊₁].
                let pairs = m - m % 2;
                let ap = a.as_mut_ptr();
                let mut i = 0;
                while i < pairs {
                    // SAFETY: i + 1 < m, so the two 256-bit accesses
                    // cover a[4i .. 4i+8] — groups i and i+1 of the
                    // 4m-element slice.
                    unsafe {
                        let base = ap.add(4 * i);
                        let v0 = _mm256_loadu_si256(base.cast());
                        let v1 = _mm256_loadu_si256(base.add(4).cast());
                        let lo = _mm256_permute2x128_si256::<0x20>(v0, v1);
                        let hi = _mm256_permute2x128_si256::<0x31>(v0, v1);
                        let wv = _mm256_set_epi64x(
                            w[i + 1] as i64,
                            w[i + 1] as i64,
                            w[i] as i64,
                            w[i] as i64,
                        );
                        let wsv = _mm256_set_epi64x(
                            ws[i + 1] as i64,
                            ws[i + 1] as i64,
                            ws[i] as i64,
                            ws[i] as i64,
                        );
                        let (nl, nh) = bf_fwd::<SMALL>(lo, hi, wv, wsv, pv, two_pv);
                        _mm256_storeu_si256(base.cast(), _mm256_permute2x128_si256::<0x20>(nl, nh));
                        _mm256_storeu_si256(
                            base.add(4).cast(),
                            _mm256_permute2x128_si256::<0x31>(nl, nh),
                        );
                    }
                    i += 2;
                }
                for i in pairs..m {
                    let (lo, hi) = a[4 * i..4 * (i + 1)].split_at_mut(2);
                    super::scalar::fwd_butterfly(p, w[i], ws[i], lo, hi);
                }
            }
            1 => {
                // Four groups per iteration: unpacklo/unpackhi turn
                // [x₀ y₀ x₁ y₁ | x₂ y₂ x₃ y₃] into lo = [x₀ x₂ x₁ x₃] /
                // hi = [y₀ y₂ y₁ y₃] (group order 0,2,1,3), so the
                // twiddle vector is permuted into that same order.
                let quads = m - m % 4;
                let ap = a.as_mut_ptr();
                let wp = w.as_ptr();
                let wsp = ws.as_ptr();
                let mut i = 0;
                while i < quads {
                    // SAFETY: i + 4 ≤ quads ≤ m keeps the twiddle loads
                    // inside w/ws (len m) and the two data vectors
                    // inside a (len 2m).
                    unsafe {
                        let base = ap.add(2 * i);
                        let v0 = _mm256_loadu_si256(base.cast());
                        let v1 = _mm256_loadu_si256(base.add(4).cast());
                        let lo = _mm256_unpacklo_epi64(v0, v1);
                        let hi = _mm256_unpackhi_epi64(v0, v1);
                        let wv = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_loadu_si256(
                            wp.add(i).cast(),
                        ));
                        let wsv = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_loadu_si256(
                            wsp.add(i).cast(),
                        ));
                        let (nl, nh) = bf_fwd::<SMALL>(lo, hi, wv, wsv, pv, two_pv);
                        _mm256_storeu_si256(base.cast(), _mm256_unpacklo_epi64(nl, nh));
                        _mm256_storeu_si256(base.add(4).cast(), _mm256_unpackhi_epi64(nl, nh));
                    }
                    i += 4;
                }
                for i in quads..m {
                    let (lo, hi) = a[2 * i..2 * (i + 1)].split_at_mut(1);
                    super::scalar::fwd_butterfly(p, w[i], ws[i], lo, hi);
                }
            }
            _ => super::scalar::fwd_stage(p, w, ws, t, a),
        }
    }

    /// Inverse stage: same group layout and lane permutes as
    /// [`fwd_stage`], with the Gentleman–Sande butterfly body.
    #[target_feature(enable = "avx2")]
    pub(super) fn inv_stage(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        if p < super::SMALL_MODULUS_BOUND {
            inv_stage_impl::<true>(p, w, ws, t, a);
        } else {
            inv_stage_impl::<false>(p, w, ws, t, a);
        }
    }

    #[target_feature(enable = "avx2")]
    fn inv_stage_impl<const SMALL: bool>(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        let m = w.len();
        let pv = splat(p);
        let two_pv = splat(2 * p);
        match t {
            _ if t >= LANES && t.is_multiple_of(LANES) => {
                let ap = a.as_mut_ptr();
                for i in 0..m {
                    let wv = splat(w[i]);
                    let wsv = splat(ws[i]);
                    // SAFETY: same bounds argument as `fwd_stage`'s
                    // t ≥ 4 arm — j + 4 ≤ t keeps both halves of group
                    // i inside a[2·t·i .. 2·t·(i+1)].
                    unsafe {
                        let lp = ap.add(2 * t * i);
                        let hp = lp.add(t);
                        let mut j = 0;
                        while j < t {
                            let x = _mm256_loadu_si256(lp.add(j).cast());
                            let y = _mm256_loadu_si256(hp.add(j).cast());
                            let (nl, nh) = bf_inv::<SMALL>(x, y, wv, wsv, pv, two_pv);
                            _mm256_storeu_si256(lp.add(j).cast(), nl);
                            _mm256_storeu_si256(hp.add(j).cast(), nh);
                            j += LANES;
                        }
                    }
                }
            }
            2 => {
                let pairs = m - m % 2;
                let ap = a.as_mut_ptr();
                let mut i = 0;
                while i < pairs {
                    // SAFETY: i + 1 < m — same two-group window over
                    // a[4i .. 4i+8] as `fwd_stage`'s t = 2 arm.
                    unsafe {
                        let base = ap.add(4 * i);
                        let v0 = _mm256_loadu_si256(base.cast());
                        let v1 = _mm256_loadu_si256(base.add(4).cast());
                        let lo = _mm256_permute2x128_si256::<0x20>(v0, v1);
                        let hi = _mm256_permute2x128_si256::<0x31>(v0, v1);
                        let wv = _mm256_set_epi64x(
                            w[i + 1] as i64,
                            w[i + 1] as i64,
                            w[i] as i64,
                            w[i] as i64,
                        );
                        let wsv = _mm256_set_epi64x(
                            ws[i + 1] as i64,
                            ws[i + 1] as i64,
                            ws[i] as i64,
                            ws[i] as i64,
                        );
                        let (s, nh) = bf_inv::<SMALL>(lo, hi, wv, wsv, pv, two_pv);
                        _mm256_storeu_si256(base.cast(), _mm256_permute2x128_si256::<0x20>(s, nh));
                        _mm256_storeu_si256(
                            base.add(4).cast(),
                            _mm256_permute2x128_si256::<0x31>(s, nh),
                        );
                    }
                    i += 2;
                }
                for i in pairs..m {
                    let (lo, hi) = a[4 * i..4 * (i + 1)].split_at_mut(2);
                    super::scalar::inv_butterfly(p, w[i], ws[i], lo, hi);
                }
            }
            1 => {
                let quads = m - m % 4;
                let ap = a.as_mut_ptr();
                let wp = w.as_ptr();
                let wsp = ws.as_ptr();
                let mut i = 0;
                while i < quads {
                    // SAFETY: i + 4 ≤ quads ≤ m — same four-group
                    // window and twiddle loads as `fwd_stage`'s t = 1
                    // arm.
                    unsafe {
                        let base = ap.add(2 * i);
                        let v0 = _mm256_loadu_si256(base.cast());
                        let v1 = _mm256_loadu_si256(base.add(4).cast());
                        let lo = _mm256_unpacklo_epi64(v0, v1);
                        let hi = _mm256_unpackhi_epi64(v0, v1);
                        let wv = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_loadu_si256(
                            wp.add(i).cast(),
                        ));
                        let wsv = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_loadu_si256(
                            wsp.add(i).cast(),
                        ));
                        let (s, nh) = bf_inv::<SMALL>(lo, hi, wv, wsv, pv, two_pv);
                        _mm256_storeu_si256(base.cast(), _mm256_unpacklo_epi64(s, nh));
                        _mm256_storeu_si256(base.add(4).cast(), _mm256_unpackhi_epi64(s, nh));
                    }
                    i += 4;
                }
                for i in quads..m {
                    let (lo, hi) = a[2 * i..2 * (i + 1)].split_at_mut(1);
                    super::scalar::inv_butterfly(p, w[i], ws[i], lo, hi);
                }
            }
            _ => super::scalar::inv_stage(p, w, ws, t, a),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn canonicalize(p: u64, a: &mut [u64]) {
        let n = a.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let two_pv = splat(2 * p);
        let ap = a.as_mut_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 4 ≤ vec_n ≤ a.len(); unaligned access is fine.
            unsafe {
                let x = _mm256_loadu_si256(ap.add(j).cast());
                _mm256_storeu_si256(ap.add(j).cast(), cond_sub(cond_sub(x, two_pv), pv));
            }
            j += LANES;
        }
        super::scalar::canonicalize(p, &mut a[vec_n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn mul_const_shoup(p: u64, w: u64, w_shoup: u64, a: &mut [u64]) {
        let n = a.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let wv = splat(w);
        let wsv = splat(w_shoup);
        let ap = a.as_mut_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 4 ≤ vec_n ≤ a.len(); unaligned access is fine.
            unsafe {
                let x = _mm256_loadu_si256(ap.add(j).cast());
                let r = mul_shoup_lazy_vec(x, wv, wsv, pv);
                _mm256_storeu_si256(ap.add(j).cast(), cond_sub(r, pv));
            }
            j += LANES;
        }
        super::scalar::mul_const_shoup(p, w, w_shoup, &mut a[vec_n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn pointwise_mul_shoup(p: u64, a: &mut [u64], w: &[u64], w_shoup: &[u64]) {
        let n = a.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let ap = a.as_mut_ptr();
        let wp = w.as_ptr();
        let wsp = w_shoup.as_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 4 ≤ vec_n ≤ a.len() = w.len() = w_shoup.len()
            // (checked by the dispatcher), so all accesses are in
            // bounds.
            unsafe {
                let x = _mm256_loadu_si256(ap.add(j).cast());
                let wv = _mm256_loadu_si256(wp.add(j).cast());
                let wsv = _mm256_loadu_si256(wsp.add(j).cast());
                let r = mul_shoup_lazy_vec(x, wv, wsv, pv);
                _mm256_storeu_si256(ap.add(j).cast(), cond_sub(r, pv));
            }
            j += LANES;
        }
        super::scalar::pointwise_mul_shoup(p, &mut a[vec_n..], &w[vec_n..], &w_shoup[vec_n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn mac_shoup(p: u64, acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64]) {
        let n = acc.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let op = acc.as_mut_ptr();
        let ap = a.as_ptr();
        let wp = w.as_ptr();
        let wsp = w_shoup.as_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 4 ≤ vec_n ≤ acc.len() = a.len() = w.len() =
            // w_shoup.len() (checked by the dispatcher).
            unsafe {
                let x = _mm256_loadu_si256(ap.add(j).cast());
                let wv = _mm256_loadu_si256(wp.add(j).cast());
                let wsv = _mm256_loadu_si256(wsp.add(j).cast());
                let m = cond_sub(mul_shoup_lazy_vec(x, wv, wsv, pv), pv);
                let o = _mm256_loadu_si256(op.add(j).cast());
                _mm256_storeu_si256(op.add(j).cast(), cond_sub(_mm256_add_epi64(o, m), pv));
            }
            j += LANES;
        }
        super::scalar::mac_shoup(
            p,
            &mut acc[vec_n..],
            &a[vec_n..],
            &w[vec_n..],
            &w_shoup[vec_n..],
        );
    }

    /// Dot product: delegates to the scalar u128 accumulator. The exact
    /// 128-bit lane sum needs four `pmuludq` partial products plus a
    /// full carry chain per row element, and on
    /// every CPU measured that emulation loses to the scalar MULX
    /// pipeline (one native 64×64→128 multiply per cycle) — unlike the
    /// butterflies, there is no lazy slack to trade away, because the
    /// BEHZ conversions need the bit-exact wrapped sum. The IFMA tier
    /// runs its own kernel for moduli below 2⁵⁰ and delegates the rest
    /// here.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_mod(p: u64, rows: &[&[u64]], weights: &[u64], out: &mut [u64]) {
        super::scalar::dot_mod(p, rows, weights, out, 0);
    }

    /// Companion-free pointwise product: delegates to the scalar Barrett
    /// loop for the same reason as [`dot_mod`] — a 64×64-bit product per
    /// lane costs four `pmuludq` and a carry chain, and nothing is
    /// reused to amortize it.
    #[target_feature(enable = "avx2")]
    pub(super) fn pointwise_mul_mod(p: u64, a: &mut [u64], b: &[u64]) {
        super::scalar::pointwise_mul_mod(p, a, b);
    }

    /// Companion-free MAC: delegates to the scalar loop (see
    /// [`pointwise_mul_mod`]).
    #[target_feature(enable = "avx2")]
    pub(super) fn mac_mod(p: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
        super::scalar::mac_mod(p, acc, a, b);
    }
}

// ---------------------------------------------------------------------------
// AVX-512 IFMA52 kernels — 8×u64 lanes, 52×52-bit products from
// vpmadd52luq / vpmadd52huq. See the module doc for the exactness
// argument and which moduli reach them.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::avx2;
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd52hi_epu64,
        _mm512_madd52lo_epu64, _mm512_maskz_loadu_epi64, _mm512_min_epu64, _mm512_or_si512,
        _mm512_permutex2var_epi64, _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_set_epi64,
        _mm512_setzero_si512, _mm512_sllv_epi64, _mm512_srli_epi64, _mm512_srlv_epi64,
        _mm512_storeu_si512, _mm512_sub_epi64, _mm512_test_epi64_mask,
    };

    const LANES: usize = 8;
    const MASK52: u64 = (1 << 52) - 1;
    /// The IFMA kernels take moduli below this bound: every lazy value
    /// `< 4p` then fits the 52-bit multiplier inputs.
    const MODULUS_BOUND: u64 = super::RADIX52_BOUND;

    /// Whether the stage kernels' radix-2⁵² twiddle companions and lazy
    /// values `< 4p` fit this tier (below 2³⁰ the companions are
    /// radix-2³²).
    fn stage_fits(p: u64) -> bool {
        (super::SMALL_MODULUS_BOUND..MODULUS_BOUND).contains(&p)
    }

    /// How many leading elements of an `n`-element slice the
    /// element-wise kernels run on IFMA: whole 8-lane vectors for
    /// `p < 2⁵⁰`, none otherwise.
    fn elementwise_len(p: u64, n: usize) -> usize {
        if p < MODULUS_BOUND {
            n - n % LANES
        } else {
            0
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    /// Lane `j` holds `f(j)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn lanes(f: impl Fn(usize) -> usize) -> __m512i {
        let v = |j: usize| f(j) as i64;
        _mm512_set_epi64(v(7), v(6), v(5), v(4), v(3), v(2), v(1), v(0))
    }

    /// `x − m` where `x ≥ m`, else `x`: when `x < m` the wrapped
    /// difference `x − m + 2⁶⁴` exceeds `x`, so the unsigned minimum
    /// picks the right one.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn cond_sub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
    }

    /// `(lo52(y·w) − lo52(q·p)) mod 2⁵²`: the Shoup remainder
    /// `y·w − q·p`, exact whenever it lies in `[0, 2⁵²)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn shoup_remainder(y: __m512i, w: __m512i, q: __m512i, p: __m512i) -> __m512i {
        let zero = _mm512_setzero_si512();
        let diff = _mm512_sub_epi64(
            _mm512_madd52lo_epu64(zero, y, w),
            _mm512_madd52lo_epu64(zero, q, p),
        );
        _mm512_and_si512(diff, splat(MASK52))
    }

    /// A stage twiddle in lanes: `w` and its radix-2⁵² companion
    /// `s = w′ ≫ 12 = ⌊w·2⁵²/p⌋`.
    #[derive(Clone, Copy)]
    struct Twiddle {
        w: __m512i,
        shoup52: __m512i,
    }

    impl Twiddle {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn new(w: __m512i, w_shoup: __m512i) -> Self {
            Twiddle {
                w,
                shoup52: _mm512_srli_epi64::<12>(w_shoup),
            }
        }
    }

    /// Lane-wise scalar `mul_shoup_lazy` for `y < 2⁵²`:
    /// `y·w − ⌊y·s/2⁵²⌋·p ∈ [0, 2p)`, the quotient one high-half
    /// product.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_shoup_lazy_vec(y: __m512i, tw: Twiddle, p: __m512i) -> __m512i {
        let q = _mm512_madd52hi_epu64(_mm512_setzero_si512(), y, tw.shoup52);
        shoup_remainder(y, tw.w, q, p)
    }

    /// Canonical `a·w mod p` for `a < 2⁵²` from the radix-2⁵² companion
    /// `w_shoup52 = ⌊w·2⁵²/p⌋`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_shoup52_vec(a: __m512i, w: __m512i, w_shoup52: __m512i, p: __m512i) -> __m512i {
        let q = _mm512_madd52hi_epu64(_mm512_setzero_si512(), a, w_shoup52);
        cond_sub(shoup_remainder(a, w, q, p), p)
    }

    /// One lazy butterfly on 8 lanes: Cooley–Tukey
    /// `(x, y) → (u + v, u + 2p − v)` with `u = x cond− 2p`,
    /// `v = lazy(y·w)`, or (`INV`) Gentleman–Sande
    /// `(x, y) → ((x + y) cond− 2p, lazy((x + 2p − y)·w))`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn butterfly<const INV: bool>(
        x: __m512i,
        y: __m512i,
        tw: Twiddle,
        pv: __m512i,
        two_pv: __m512i,
    ) -> (__m512i, __m512i) {
        if INV {
            let s = cond_sub(_mm512_add_epi64(x, y), two_pv);
            let d = _mm512_add_epi64(x, _mm512_sub_epi64(two_pv, y));
            (s, mul_shoup_lazy_vec(d, tw, pv))
        } else {
            let u = cond_sub(x, two_pv);
            let v = mul_shoup_lazy_vec(y, tw, pv);
            (
                _mm512_add_epi64(u, v),
                _mm512_add_epi64(u, _mm512_sub_epi64(two_pv, v)),
            )
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn fwd_stage(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        if stage_fits(p) {
            stage::<false>(p, w, ws, t, a);
        } else {
            avx2::fwd_stage(p, w, ws, t, a);
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn inv_stage(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        if stage_fits(p) {
            stage::<true>(p, w, ws, t, a);
        } else {
            avx2::inv_stage(p, w, ws, t, a);
        }
    }

    /// One NTT stage of `w.len()` groups of `2·t` words. `t ≥ 8`
    /// (a multiple of 8) loops groups with a plain 8-lane butterfly;
    /// `t ∈ {1, 2, 4}` gathers `8/t` whole groups from each 16-word
    /// window with two-source lane permutes, so the lo vector holds
    /// their first halves and the hi vector their second halves. Groups
    /// left over from the last full window, and every other stride, run
    /// the AVX2 stage.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn stage<const INV: bool>(p: u64, w: &[u64], ws: &[u64], t: usize, a: &mut [u64]) {
        let m = w.len();
        let pv = splat(p);
        let two_pv = splat(2 * p);
        let done = if t >= LANES && t.is_multiple_of(LANES) {
            let ap = a.as_mut_ptr();
            for i in 0..m {
                let tw = Twiddle::new(splat(w[i]), splat(ws[i]));
                // SAFETY: group i spans a[2·t·i .. 2·t·(i+1)] (in
                // bounds: a.len() = 2·t·m). j + 8 ≤ t keeps the lo half
                // (offset 2·t·i + j) and the hi half (offset
                // 2·t·i + t + j) of each 512-bit access inside it.
                unsafe {
                    let lp = ap.add(2 * t * i);
                    let hp = lp.add(t);
                    let mut j = 0;
                    while j < t {
                        let x = _mm512_loadu_si512(lp.add(j).cast());
                        let y = _mm512_loadu_si512(hp.add(j).cast());
                        let (nl, nh) = butterfly::<INV>(x, y, tw, pv, two_pv);
                        _mm512_storeu_si512(lp.add(j).cast(), nl);
                        _mm512_storeu_si512(hp.add(j).cast(), nh);
                        j += LANES;
                    }
                }
            }
            m
        } else if matches!(t, 1 | 2 | 4) {
            let groups = LANES / t;
            // Lane j of lo/hi is word j % t of group j / t; an output
            // word k of the window is word k % 2t of group k / 2t.
            let lo_idx = lanes(|j| 2 * t * (j / t) + j % t);
            let hi_idx = lanes(|j| 2 * t * (j / t) + t + j % t);
            let src = |k: usize| {
                let (g, r) = (k / (2 * t), k % (2 * t));
                if r < t {
                    g * t + r
                } else {
                    LANES + g * t + r - t
                }
            };
            let out0_idx = lanes(src);
            let out1_idx = lanes(|k| src(k + LANES));
            let w_idx = lanes(|j| j / t);
            let w_mask = u8::MAX >> (LANES - groups);
            let full = m - m % groups;
            let ap = a.as_mut_ptr();
            let mut i = 0;
            while i < full {
                // SAFETY: i + 8/t ≤ full ≤ m, so the 16-word window
                // a[2·t·i .. 2·t·i + 16] lies inside a (len 2·t·m) and
                // the masked twiddle loads read only w[i .. i + 8/t]
                // and ws[i .. i + 8/t].
                unsafe {
                    let base = ap.add(2 * t * i);
                    let v0 = _mm512_loadu_si512(base.cast());
                    let v1 = _mm512_loadu_si512(base.add(LANES).cast());
                    let lo = _mm512_permutex2var_epi64(v0, lo_idx, v1);
                    let hi = _mm512_permutex2var_epi64(v0, hi_idx, v1);
                    let wv = _mm512_maskz_loadu_epi64(w_mask, w.as_ptr().add(i).cast());
                    let wsv = _mm512_maskz_loadu_epi64(w_mask, ws.as_ptr().add(i).cast());
                    let tw = Twiddle::new(
                        _mm512_permutexvar_epi64(w_idx, wv),
                        _mm512_permutexvar_epi64(w_idx, wsv),
                    );
                    let (nl, nh) = butterfly::<INV>(lo, hi, tw, pv, two_pv);
                    _mm512_storeu_si512(base.cast(), _mm512_permutex2var_epi64(nl, out0_idx, nh));
                    _mm512_storeu_si512(
                        base.add(LANES).cast(),
                        _mm512_permutex2var_epi64(nl, out1_idx, nh),
                    );
                }
                i += groups;
            }
            full
        } else {
            0
        };
        let (w, ws, a) = (&w[done..], &ws[done..], &mut a[2 * t * done..]);
        if INV {
            avx2::inv_stage(p, w, ws, t, a);
        } else {
            avx2::fwd_stage(p, w, ws, t, a);
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn canonicalize(p: u64, a: &mut [u64]) {
        let n = a.len();
        let vec_n = n - n % LANES;
        let pv = splat(p);
        let two_pv = splat(2 * p);
        let ap = a.as_mut_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 8 ≤ vec_n ≤ a.len(); unaligned access is fine.
            unsafe {
                let x = _mm512_loadu_si512(ap.add(j).cast());
                _mm512_storeu_si512(ap.add(j).cast(), cond_sub(cond_sub(x, two_pv), pv));
            }
            j += LANES;
        }
        avx2::canonicalize(p, &mut a[vec_n..]);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn mul_const_shoup(p: u64, w: u64, w_shoup: u64, a: &mut [u64]) {
        let vec_n = elementwise_len(p, a.len());
        let pv = splat(p);
        let wv = splat(w);
        let wsv = splat(w_shoup >> 12);
        let ap = a.as_mut_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 8 ≤ vec_n ≤ a.len(); unaligned access is fine.
            unsafe {
                let x = _mm512_loadu_si512(ap.add(j).cast());
                _mm512_storeu_si512(ap.add(j).cast(), mul_shoup52_vec(x, wv, wsv, pv));
            }
            j += LANES;
        }
        avx2::mul_const_shoup(p, w, w_shoup, &mut a[vec_n..]);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pointwise_mul_shoup(p: u64, a: &mut [u64], w: &[u64], w_shoup: &[u64]) {
        let vec_n = elementwise_len(p, a.len());
        let pv = splat(p);
        let ap = a.as_mut_ptr();
        let wp = w.as_ptr();
        let wsp = w_shoup.as_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 8 ≤ vec_n ≤ a.len() = w.len() = w_shoup.len()
            // (checked by the dispatcher), so all accesses are in
            // bounds.
            unsafe {
                let x = _mm512_loadu_si512(ap.add(j).cast());
                let wv = _mm512_loadu_si512(wp.add(j).cast());
                let wsv = _mm512_srli_epi64::<12>(_mm512_loadu_si512(wsp.add(j).cast()));
                _mm512_storeu_si512(ap.add(j).cast(), mul_shoup52_vec(x, wv, wsv, pv));
            }
            j += LANES;
        }
        avx2::pointwise_mul_shoup(p, &mut a[vec_n..], &w[vec_n..], &w_shoup[vec_n..]);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn mac_shoup(p: u64, acc: &mut [u64], a: &[u64], w: &[u64], w_shoup: &[u64]) {
        let vec_n = elementwise_len(p, acc.len());
        let pv = splat(p);
        let op = acc.as_mut_ptr();
        let ap = a.as_ptr();
        let wp = w.as_ptr();
        let wsp = w_shoup.as_ptr();
        let mut j = 0;
        while j < vec_n {
            // SAFETY: j + 8 ≤ vec_n ≤ acc.len() = a.len() = w.len() =
            // w_shoup.len() (checked by the dispatcher).
            unsafe {
                let x = _mm512_loadu_si512(ap.add(j).cast());
                let wv = _mm512_loadu_si512(wp.add(j).cast());
                let wsv = _mm512_srli_epi64::<12>(_mm512_loadu_si512(wsp.add(j).cast()));
                let m = mul_shoup52_vec(x, wv, wsv, pv);
                let o = _mm512_loadu_si512(op.add(j).cast());
                _mm512_storeu_si512(op.add(j).cast(), cond_sub(_mm512_add_epi64(o, m), pv));
            }
            j += LANES;
        }
        avx2::mac_shoup(
            p,
            &mut acc[vec_n..],
            &a[vec_n..],
            &w[vec_n..],
            &w_shoup[vec_n..],
        );
    }

    /// The lane constants of the radix-2⁵² Barrett product for one
    /// modulus `p < 2⁵⁰` of `n` bits: `μ = ⌊2ⁿ⁺⁵¹/p⌋ < 2⁵²` and the
    /// shift counts that cut `⌊x/2ⁿ⁻¹⌋` out of the product's 52-bit
    /// halves.
    #[derive(Clone, Copy)]
    struct Barrett {
        p: __m512i,
        two_p: __m512i,
        mu: __m512i,
        lo_shift: __m512i,
        hi_shift: __m512i,
    }

    impl Barrett {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn new(p: u64) -> Self {
            let n = u64::from(64 - p.leading_zeros());
            Barrett {
                p: splat(p),
                two_p: splat(2 * p),
                mu: splat(((1u128 << (n + 51)) / u128::from(p)) as u64),
                lo_shift: splat(n - 1),
                hi_shift: splat(53 - n),
            }
        }

        /// Canonical `a·b mod p` for canonical `a, b`. The product
        /// `x = a·b < 2²ⁿ` arrives as its 52-bit halves; `c = ⌊x/2ⁿ⁻¹⌋`
        /// is below 2ⁿ⁺¹ ≤ 2⁵¹, and `q̂ = hi52(c·μ)` undershoots
        /// `⌊x/p⌋` by at most 2 (`x/2ⁿ⁺⁵¹ < ½` and `2ⁿ⁻¹/p < 1`). The
        /// remainder `x − q̂·p < 3p < 2⁵²` is therefore exact as the
        /// low-52-bit difference, and two conditional subtractions make it
        /// canonical.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul(&self, a: __m512i, b: __m512i) -> __m512i {
            let zero = _mm512_setzero_si512();
            let lo = _mm512_madd52lo_epu64(zero, a, b);
            let hi = _mm512_madd52hi_epu64(zero, a, b);
            let c = _mm512_or_si512(
                _mm512_sllv_epi64(hi, self.hi_shift),
                _mm512_srlv_epi64(lo, self.lo_shift),
            );
            let q = _mm512_madd52hi_epu64(zero, c, self.mu);
            let r = _mm512_and_si512(
                _mm512_sub_epi64(lo, _mm512_madd52lo_epu64(zero, q, self.p)),
                splat(MASK52),
            );
            cond_sub(cond_sub(r, self.two_p), self.p)
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pointwise_mul_mod(p: u64, a: &mut [u64], b: &[u64]) {
        let vec_n = elementwise_len(p, a.len());
        if vec_n > 0 {
            let bar = Barrett::new(p);
            let ap = a.as_mut_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j < vec_n {
                // SAFETY: j + 8 ≤ vec_n ≤ a.len() = b.len() (checked by
                // the dispatcher).
                unsafe {
                    let x = _mm512_loadu_si512(ap.add(j).cast());
                    let y = _mm512_loadu_si512(bp.add(j).cast());
                    _mm512_storeu_si512(ap.add(j).cast(), bar.mul(x, y));
                }
                j += LANES;
            }
        }
        avx2::pointwise_mul_mod(p, &mut a[vec_n..], &b[vec_n..]);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn mac_mod(p: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let vec_n = elementwise_len(p, acc.len());
        if vec_n > 0 {
            let bar = Barrett::new(p);
            let op = acc.as_mut_ptr();
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j < vec_n {
                // SAFETY: j + 8 ≤ vec_n ≤ acc.len() = a.len() = b.len()
                // (checked by the dispatcher).
                unsafe {
                    let x = _mm512_loadu_si512(ap.add(j).cast());
                    let y = _mm512_loadu_si512(bp.add(j).cast());
                    let o = _mm512_loadu_si512(op.add(j).cast());
                    let s = _mm512_add_epi64(o, bar.mul(x, y));
                    _mm512_storeu_si512(op.add(j).cast(), cond_sub(s, bar.p));
                }
                j += LANES;
            }
        }
        avx2::mac_mod(p, &mut acc[vec_n..], &a[vec_n..], &b[vec_n..]);
    }

    /// Row count up to which the dot product's 52-bit lane sums cannot
    /// overflow a u64 lane (see [`dot_mod`]).
    const DOT_MAX_ROWS: usize = 1 << 11;

    /// Column vectors the dot product accumulates side by side: each
    /// row's weight then feeds eight independent multiply–add chains
    /// instead of two, so a call is bound by IFMA throughput, not by the
    /// latency of one chain.
    const DOT_VECTORS: usize = 4;

    /// Dot product for `p < 2⁵⁰` and at most [`DOT_MAX_ROWS`] rows,
    /// exact for any u64 row value.
    ///
    /// A row value `x = xh·2⁵² + xl` times a weight `w < p < 2⁵⁰` is
    /// `lo(xl·w) + (hi(xl·w) + lo(xh·w))·2⁵² + hi(xh·w)·2¹⁰⁴`, where
    /// `lo`/`hi` are the 52-bit halves IFMA returns (it reads only the
    /// low 52 bits of `x`, which is `xl`). Three u64 lane accumulators
    /// collect the three columns: at most 2¹¹ terms below 2⁵² and 2⁵³
    /// stay below 2⁶⁴. Rows are canonical residues in every call of the
    /// BEHZ conversions and the affine layers, so `xh = 0`: the first
    /// pass adds only the `xl` terms and ORs the row values together,
    /// and a second pass over the `xh` terms runs only when some value
    /// reached 2⁵². The true sum is below 2¹¹·2⁶⁴·2⁵⁰ < 2¹²⁸, so it is
    /// the scalar accumulator's wrapped sum.
    ///
    /// The reduction first propagates the carries, leaving
    /// `V = a₀ + a₁·2⁵² + a₂·2¹⁰⁴` with `a₀, a₁ < 2⁵²` and `a₂ < 2²³`,
    /// then takes one canonical radix-2⁵² Shoup product per column —
    /// by 1, `[2⁵²]_p` and `[2¹⁰⁴]_p` — and adds the three residues mod
    /// `p`: the canonical `V mod p`, the value every backend returns.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn dot_mod(p: u64, rows: &[&[u64]], weights: &[u64], out: &mut [u64]) {
        let vec_n = if rows.len() <= DOT_MAX_ROWS {
            elementwise_len(p, out.len())
        } else {
            0
        };
        if vec_n > 0 {
            let red = DotReduction::new(p);
            let mut c = 0;
            while c + DOT_VECTORS * LANES <= vec_n {
                dot_vectors::<DOT_VECTORS>(&red, rows, weights, c, out);
                c += DOT_VECTORS * LANES;
            }
            while c < vec_n {
                dot_vectors::<1>(&red, rows, weights, c, out);
                c += LANES;
            }
        }
        super::scalar::dot_mod(p, rows, weights, &mut out[vec_n..], vec_n);
    }

    /// The lane constants of the dot product's final reduction: the
    /// three column radices `[2⁵²ⁱ]_p` with their radix-2⁵² companions.
    struct DotReduction {
        columns: [(__m512i, __m512i); 3],
        pv: __m512i,
        two_pv: __m512i,
    }

    impl DotReduction {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn new(p: u64) -> Self {
            let pw = u128::from(p);
            let column = |radix: u128| {
                let w = (radix % pw) as u64;
                (splat(w), splat(((u128::from(w) << 52) / pw) as u64))
            };
            DotReduction {
                columns: [column(1), column(1 << 52), column(1 << 104)],
                pv: splat(p),
                two_pv: splat(2 * p),
            }
        }

        /// Canonical `(a₀ + a₁·2⁵² + a₂·2¹⁰⁴) mod p` of the three lane
        /// accumulators.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn reduce(&self, a0: __m512i, a1: __m512i, a2: __m512i) -> __m512i {
            let mask = splat(MASK52);
            let a1 = _mm512_add_epi64(a1, _mm512_srli_epi64::<52>(a0));
            let a2 = _mm512_add_epi64(a2, _mm512_srli_epi64::<52>(a1));
            let [(c0, c0s), (c1, c1s), (c2, c2s)] = self.columns;
            let r = _mm512_add_epi64(
                _mm512_add_epi64(
                    mul_shoup52_vec(_mm512_and_si512(a0, mask), c0, c0s, self.pv),
                    mul_shoup52_vec(_mm512_and_si512(a1, mask), c1, c1s, self.pv),
                ),
                mul_shoup52_vec(a2, c2, c2s, self.pv),
            );
            cond_sub(cond_sub(r, self.two_pv), self.pv)
        }
    }

    /// Columns `c .. c + 8·V` of the dot product, `V` column vectors
    /// side by side.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn dot_vectors<const V: usize>(
        red: &DotReduction,
        rows: &[&[u64]],
        weights: &[u64],
        c: usize,
        out: &mut [u64],
    ) {
        let zero = _mm512_setzero_si512();
        let (mut a0, mut a1, mut a2, mut seen) = ([zero; V], [zero; V], [zero; V], zero);
        for (row, &w) in rows.iter().zip(weights) {
            let wv = splat(w);
            for v in 0..V {
                // SAFETY: c + 8·V ≤ vec_n ≤ out.len() ≤ row.len()
                // (checked by the dispatcher).
                let x = unsafe { _mm512_loadu_si512(row.as_ptr().add(c + v * LANES).cast()) };
                a0[v] = _mm512_madd52lo_epu64(a0[v], x, wv);
                a1[v] = _mm512_madd52hi_epu64(a1[v], x, wv);
                seen = _mm512_or_si512(seen, x);
            }
        }
        if _mm512_test_epi64_mask(seen, splat(!MASK52)) != 0 {
            for (row, &w) in rows.iter().zip(weights) {
                let wv = splat(w);
                for v in 0..V {
                    // SAFETY: as above.
                    let x = unsafe { _mm512_loadu_si512(row.as_ptr().add(c + v * LANES).cast()) };
                    let xh = _mm512_srli_epi64::<52>(x);
                    a1[v] = _mm512_madd52lo_epu64(a1[v], xh, wv);
                    a2[v] = _mm512_madd52hi_epu64(a2[v], xh, wv);
                }
            }
        }
        for v in 0..V {
            // SAFETY: c + 8·V ≤ vec_n ≤ out.len().
            unsafe {
                _mm512_storeu_si512(
                    out.as_mut_ptr().add(c + v * LANES).cast(),
                    red.reduce(a0[v], a1[v], a2[v]),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::Modulus;
    use crate::zp::Zp;
    use proptest::prelude::*;

    /// The narrow-radix plaintext width, the IFMA range (33 bits, the
    /// 50-bit NTT width of the benchmark rings and the largest prime
    /// below 2⁵⁰, whose lazy values reach the 52-bit operand bound) and
    /// the AVX2-only widths above it.
    fn moduli() -> Vec<u64> {
        vec![
            Modulus::PASTA_17_BIT.value(),
            Modulus::PASTA_33_BIT.value(),
            Modulus::find_ntt_prime(50, 11).unwrap().value(),
            (1 << 50) - 27,
            Modulus::PASTA_54_BIT.value(),
            Modulus::NTT_60_BIT.value(),
        ]
    }

    /// The backends this CPU can run, scalar first.
    fn available_backends() -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    /// The vector backends this CPU can run (none on scalar-only
    /// hardware, where there is nothing to cross-check).
    fn vector_backends() -> Vec<Backend> {
        available_backends()[1..].to_vec()
    }

    fn zp_for(p: u64) -> Zp {
        Zp::from_raw(p).unwrap()
    }

    /// Deterministic "random" fill below a bound, with edge values near
    /// the lazy limits spliced in at the front.
    fn fill(len: usize, bound: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..len as u64)
            .map(|i| {
                (i + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed.wrapping_mul(0xD134_2543_DE82_EF95))
                    % bound
            })
            .collect();
        for (slot, edge) in v
            .iter_mut()
            .zip([bound - 1, 0, bound / 2, bound.saturating_sub(2)])
        {
            *slot = edge;
        }
        v
    }

    #[test]
    fn backend_label_is_stable() {
        assert!(matches!(backend_label(), "scalar" | "avx2" | "avx512ifma"));
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Avx2.label(), "avx2");
        assert_eq!(Backend::Avx512Ifma.label(), "avx512ifma");
    }

    #[test]
    fn force_backend_falls_back_when_unavailable() {
        let prev = backend();
        let avx2 = if Backend::Avx2.is_available() {
            Backend::Avx2
        } else {
            Backend::Scalar
        };
        let ifma = if Backend::Avx512Ifma.is_available() {
            Backend::Avx512Ifma
        } else {
            avx2
        };
        assert_eq!(force_backend(Some(Backend::Avx512Ifma)), ifma);
        assert_eq!(force_backend(Some(Backend::Avx2)), avx2);
        assert_eq!(force_backend(Some(Backend::Scalar)), Backend::Scalar);
        force_backend(Some(prev));
    }

    /// Every wrapper must agree across backends for every length
    /// (including tails shorter than one 4- or 8-lane vector) and for
    /// inputs at the lazy bounds.
    #[test]
    fn backends_agree_on_every_kernel_and_length() {
        for backend in vector_backends() {
            check_backends_agree(backend);
        }
    }

    fn check_backends_agree(vector: Backend) {
        for p in moduli() {
            let zp = zp_for(p);
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 33, 64, 1024] {
                for seed in 0..3u64 {
                    let w = fill(len.max(1), p, seed)[0];
                    let ws = zp.shoup(w);
                    let tws = twiddle_shoup(p, w);
                    // Forward butterfly: inputs < 4p.
                    let lo0 = fill(len, 4 * p, seed);
                    let hi0 = fill(len, 4 * p, seed + 17);
                    let (mut ls, mut hs) = (lo0.clone(), hi0.clone());
                    let (mut lv, mut hv) = (lo0, hi0);
                    fwd_butterfly_with(Backend::Scalar, p, w, tws, &mut ls, &mut hs);
                    fwd_butterfly_with(vector, p, w, tws, &mut lv, &mut hv);
                    assert_eq!((ls, hs), (lv, hv), "fwd p={p} len={len} {vector:?}");
                    // Inverse butterfly: inputs < 2p.
                    let lo0 = fill(len, 2 * p, seed);
                    let hi0 = fill(len, 2 * p, seed + 31);
                    let (mut ls, mut hs) = (lo0.clone(), hi0.clone());
                    let (mut lv, mut hv) = (lo0, hi0);
                    inv_butterfly_with(Backend::Scalar, p, w, tws, &mut ls, &mut hs);
                    inv_butterfly_with(vector, p, w, tws, &mut lv, &mut hv);
                    assert_eq!((ls, hs), (lv, hv), "inv p={p} len={len} {vector:?}");
                    // Canonicalization sweep: inputs < 4p.
                    let a0 = fill(len, 4 * p, seed + 5);
                    let (mut s, mut v) = (a0.clone(), a0);
                    canonicalize_with(Backend::Scalar, p, &mut s);
                    canonicalize_with(vector, p, &mut v);
                    assert_eq!(s, v, "canon p={p} len={len} {vector:?}");
                    // Broadcast-constant product: inputs < 4p.
                    let a0 = fill(len, 4 * p, seed + 7);
                    let (mut s, mut v) = (a0.clone(), a0);
                    mul_const_shoup_with(Backend::Scalar, p, w, ws, &mut s);
                    mul_const_shoup_with(vector, p, w, ws, &mut v);
                    assert_eq!(s, v, "mul_const p={p} len={len} {vector:?}");
                    // Pointwise + MAC: canonical inputs, prepared rows.
                    let wr = fill(len, p, seed + 11);
                    let wsr: Vec<u64> = wr.iter().map(|&x| zp.shoup(x)).collect();
                    let a0 = fill(len, p, seed + 13);
                    let (mut s, mut v) = (a0.clone(), a0.clone());
                    pointwise_mul_shoup_with(Backend::Scalar, p, &mut s, &wr, &wsr);
                    pointwise_mul_shoup_with(vector, p, &mut v, &wr, &wsr);
                    assert_eq!(s, v, "pointwise p={p} len={len} {vector:?}");
                    let acc0 = fill(len, p, seed + 19);
                    let (mut s, mut v) = (acc0.clone(), acc0);
                    mac_shoup_with(Backend::Scalar, p, &mut s, &a0, &wr, &wsr);
                    mac_shoup_with(vector, p, &mut v, &a0, &wr, &wsr);
                    assert_eq!(s, v, "mac p={p} len={len} {vector:?}");
                    // Companion-free pointwise + MAC: canonical inputs.
                    let (mut s, mut v) = (a0.clone(), a0.clone());
                    pointwise_mul_mod_with(Backend::Scalar, p, &mut s, &wr);
                    pointwise_mul_mod_with(vector, p, &mut v, &wr);
                    assert_eq!(s, v, "pointwise_mod p={p} len={len} {vector:?}");
                    let acc0 = fill(len, p, seed + 37);
                    let (mut s, mut v) = (acc0.clone(), acc0);
                    mac_mod_with(Backend::Scalar, p, &mut s, &a0, &wr);
                    mac_mod_with(vector, p, &mut v, &a0, &wr);
                    assert_eq!(s, v, "mac_mod p={p} len={len} {vector:?}");
                    // Base-conversion dot product: 1..=8 rows below 2⁶⁰
                    // (the BEHZ accumulator guard keeps the true sum
                    // under 2¹²⁶).
                    let n_rows = 1 + (seed as usize + len) % 8;
                    let rows: Vec<Vec<u64>> = (0..n_rows)
                        .map(|r| fill(len, 1u64 << 60, seed + 23 + r as u64))
                        .collect();
                    let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
                    let weights = fill(n_rows, p, seed + 29);
                    let mut s = vec![0u64; len];
                    let mut v = vec![0u64; len];
                    dot_mod_with(Backend::Scalar, p, &refs, &weights, &mut s);
                    dot_mod_with(vector, p, &refs, &weights, &mut v);
                    assert_eq!(s, v, "dot p={p} len={len} rows={n_rows} {vector:?}");
                }
            }
        }
    }

    /// The stage kernels must agree across backends for every stride,
    /// including the lane-permuted `t ≤ 4` paths, odd group counts
    /// (partial permute windows plus AVX2/scalar remainders), and the
    /// strides that fall back to a narrower stage.
    #[test]
    fn stage_kernels_agree_across_backends() {
        for backend in vector_backends() {
            check_stages_agree(backend);
        }
    }

    fn check_stages_agree(vector: Backend) {
        for p in moduli() {
            for t in [1usize, 2, 3, 4, 5, 8, 12, 16, 128] {
                for m in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 64] {
                    let w = fill(m, p, (t + m) as u64);
                    let ws: Vec<u64> = w.iter().map(|&x| twiddle_shoup(p, x)).collect();
                    // Forward stage: inputs < 4p.
                    let a0 = fill(2 * t * m, 4 * p, (3 * t + m) as u64);
                    let (mut s, mut v) = (a0.clone(), a0);
                    fwd_stage_with(Backend::Scalar, p, &w, &ws, t, &mut s);
                    fwd_stage_with(vector, p, &w, &ws, t, &mut v);
                    assert_eq!(s, v, "fwd_stage p={p} t={t} m={m} {vector:?}");
                    // Inverse stage: inputs < 2p.
                    let a0 = fill(2 * t * m, 2 * p, (5 * t + m) as u64);
                    let (mut s, mut v) = (a0.clone(), a0);
                    inv_stage_with(Backend::Scalar, p, &w, &ws, t, &mut s);
                    inv_stage_with(vector, p, &w, &ws, t, &mut v);
                    assert_eq!(s, v, "inv_stage p={p} t={t} m={m} {vector:?}");
                }
            }
        }
    }

    /// A stage call must equal the per-group butterfly loop it replaces,
    /// on every backend this CPU runs — including group counts that
    /// leave a partial 16-word window.
    #[test]
    fn stage_kernels_match_per_group_butterflies() {
        for backend in available_backends() {
            for p in moduli() {
                for (t, m) in [
                    (1usize, 8usize),
                    (2, 4),
                    (4, 2),
                    (8, 1),
                    (2, 5),
                    (1, 11),
                    (4, 3),
                    (16, 2),
                ] {
                    let w = fill(m, p, 77);
                    let ws: Vec<u64> = w.iter().map(|&x| twiddle_shoup(p, x)).collect();
                    let a0 = fill(2 * t * m, 4 * p, 91);
                    let mut staged = a0.clone();
                    fwd_stage_with(backend, p, &w, &ws, t, &mut staged);
                    let mut grouped = a0;
                    for i in 0..m {
                        let (lo, hi) = grouped[2 * t * i..2 * t * (i + 1)].split_at_mut(t);
                        fwd_butterfly_with(backend, p, w[i], ws[i], lo, hi);
                    }
                    let tag = backend.label();
                    assert_eq!(staged, grouped, "fwd {tag} p={p} t={t} m={m}");

                    let a0 = fill(2 * t * m, 2 * p, 113);
                    let mut staged = a0.clone();
                    inv_stage_with(backend, p, &w, &ws, t, &mut staged);
                    let mut grouped = a0;
                    for i in 0..m {
                        let (lo, hi) = grouped[2 * t * i..2 * t * (i + 1)].split_at_mut(t);
                        inv_butterfly_with(backend, p, w[i], ws[i], lo, hi);
                    }
                    assert_eq!(staged, grouped, "inv {tag} p={p} t={t} m={m}");
                }
            }
        }
    }

    /// The narrow-radix (β = 2³²) butterflies used below
    /// `SMALL_MODULUS_BOUND` must still compute the mathematical
    /// butterfly: canonical outputs `x ± w·y (mod p)` and lazy bounds
    /// `< 4p` (forward) / `< 2p` (inverse) on every backend.
    #[test]
    fn small_modulus_butterflies_match_reference() {
        let p = Modulus::PASTA_17_BIT.value();
        assert!(p < SMALL_MODULUS_BOUND);
        let zp = zp_for(p);
        let len = 23;
        let backends = available_backends();
        for seed in 0..4u64 {
            let w = fill(1, p, seed + 41)[0];
            let tws = twiddle_shoup(p, w);
            let lo0 = fill(len, 4 * p, seed);
            let hi0 = fill(len, 4 * p, seed + 9);
            for &backend in &backends {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                fwd_butterfly_with(backend, p, w, tws, &mut lo, &mut hi);
                for i in 0..len {
                    let x = lo0[i] % p;
                    let y = hi0[i] % p;
                    assert!(lo[i] < 4 * p && hi[i] < 4 * p, "fwd lazy bound i={i}");
                    assert_eq!(lo[i] % p, zp.add(x, zp.mul(w, y)), "fwd lo i={i}");
                    assert_eq!(hi[i] % p, zp.sub(x, zp.mul(w, y)), "fwd hi i={i}");
                }
            }
            let lo0 = fill(len, 2 * p, seed + 3);
            let hi0 = fill(len, 2 * p, seed + 7);
            for &backend in &backends {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                inv_butterfly_with(backend, p, w, tws, &mut lo, &mut hi);
                for i in 0..len {
                    let x = lo0[i] % p;
                    let y = hi0[i] % p;
                    assert!(lo[i] < 2 * p && hi[i] < 2 * p, "inv lazy bound i={i}");
                    assert_eq!(lo[i] % p, zp.add(x, y), "inv lo i={i}");
                    assert_eq!(hi[i] % p, zp.mul(w, zp.sub(x, y)), "inv hi i={i}");
                }
            }
        }
    }

    /// The radix-2⁵² stage recurrence at its edges: the first prime at or
    /// above [`SMALL_MODULUS_BOUND`] and the last below [`RADIX52_BOUND`]
    /// (whose `4p − 1` inputs reach the 52-bit Harvey bound), plus the
    /// first wide-radix prime above it, with every lazy input at its
    /// maximum (`4p − 1` forward, `2p − 1` inverse) and the twiddle
    /// `p − 1`. Every backend's stage output must equal the scalar one,
    /// stay within the lazy bounds and be the butterfly mod `p`.
    #[test]
    fn stage_kernels_agree_at_the_radix_boundaries() {
        let prime_from = |mut p: u64, step: i64| {
            while !crate::prime::is_prime_u64(p) {
                p = p.wrapping_add_signed(step);
            }
            p
        };
        let primes = [
            prime_from(SMALL_MODULUS_BOUND + 1, 2),
            prime_from(RADIX52_BOUND - 1, -2),
            prime_from(RADIX52_BOUND + 1, 2),
        ];
        for p in primes {
            let zp = zp_for(p);
            let w = p - 1;
            for t in [1usize, 2, 4, 8, 16] {
                let m = 5;
                let ws = vec![twiddle_shoup(p, w); m];
                let tw = vec![w; m];
                let fwd0 = vec![4 * p - 1; 2 * t * m];
                // Upper inputs 0 make the inverse product's input
                // `x + 2p − y` its maximum, `4p − 1`.
                let inv0: Vec<u64> = (0..2 * t * m)
                    .map(|i| if i % (2 * t) < t { 2 * p - 1 } else { 0 })
                    .collect();
                let (mut fwd_want, mut inv_want) = (fwd0.clone(), inv0.clone());
                fwd_stage_with(Backend::Scalar, p, &tw, &ws, t, &mut fwd_want);
                inv_stage_with(Backend::Scalar, p, &tw, &ws, t, &mut inv_want);
                let x = (4 * p - 1) % p;
                let (sum, diff) = (zp.add(x, zp.mul(w, x)), zp.sub(x, zp.mul(w, x)));
                for (i, &v) in fwd_want.iter().enumerate() {
                    assert!(v < 4 * p, "fwd lazy bound p={p} t={t}");
                    let want = if i % (2 * t) < t { sum } else { diff };
                    assert_eq!(v % p, want, "fwd p={p} t={t} i={i}");
                }
                for (i, &v) in inv_want.iter().enumerate() {
                    assert!(v < 2 * p, "inv lazy bound p={p} t={t}");
                    let want = if i % (2 * t) < t {
                        p - 1
                    } else {
                        zp.mul(w, p - 1)
                    };
                    assert_eq!(v % p, want, "inv p={p} t={t} i={i}");
                }
                for backend in vector_backends() {
                    let (mut fwd, mut inv) = (fwd0.clone(), inv0.clone());
                    fwd_stage_with(backend, p, &tw, &ws, t, &mut fwd);
                    inv_stage_with(backend, p, &tw, &ws, t, &mut inv);
                    assert_eq!(fwd, fwd_want, "fwd p={p} t={t} {backend:?}");
                    assert_eq!(inv, inv_want, "inv p={p} t={t} {backend:?}");
                }
            }
        }
    }

    #[test]
    fn kernels_match_zp_semantics() {
        // The scalar kernels must agree with the Zp reference ops —
        // this pins the wrappers to the field semantics the NTT/ring
        // layers relied on before vectorization.
        for p in moduli() {
            let zp = zp_for(p);
            let len = 37;
            let w = fill(1, p, 3)[0];
            let ws = zp.shoup(w);
            let a = fill(len, p, 4);
            let b = fill(len, p, 5);
            let bs: Vec<u64> = b.iter().map(|&x| zp.shoup(x)).collect();
            let mut got = a.clone();
            pointwise_mul_shoup_with(Backend::Scalar, p, &mut got, &b, &bs);
            let want: Vec<u64> = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| zp.mul(x, y))
                .collect();
            assert_eq!(got, want, "pointwise vs zp.mul p={p}");
            let acc = fill(len, p, 6);
            let mut got = acc.clone();
            mac_shoup_with(Backend::Scalar, p, &mut got, &a, &b, &bs);
            let want: Vec<u64> = acc
                .iter()
                .zip(a.iter().zip(b.iter()))
                .map(|(&o, (&x, &y))| zp.add(o, zp.mul(x, y)))
                .collect();
            assert_eq!(got, want, "mac vs zp p={p}");
            let mut got = a.clone();
            mul_const_shoup_with(Backend::Scalar, p, w, ws, &mut got);
            let want: Vec<u64> = a.iter().map(|&x| zp.mul_shoup(x, w, ws)).collect();
            assert_eq!(got, want, "mul_const vs zp.mul_shoup p={p}");
            let mut got = a.clone();
            pointwise_mul_mod_with(Backend::Scalar, p, &mut got, &b);
            let want: Vec<u64> = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| zp.mul(x, y))
                .collect();
            assert_eq!(got, want, "pointwise_mod vs zp.mul p={p}");
            let mut got = acc.clone();
            mac_mod_with(Backend::Scalar, p, &mut got, &a, &b);
            let want: Vec<u64> = acc
                .iter()
                .zip(a.iter().zip(b.iter()))
                .map(|(&o, (&x, &y))| zp.add(o, zp.mul(x, y)))
                .collect();
            assert_eq!(got, want, "mac_mod vs zp p={p}");
            // The dot product against the `u128 %` it replaced, with
            // rows at the top of the u64 range.
            let rows: Vec<Vec<u64>> = (0..5).map(|r| fill(len, u64::MAX, 40 + r)).collect();
            let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
            let weights = fill(5, p, 45);
            let want: Vec<u64> = (0..len)
                .map(|c| {
                    let sum: u128 = refs
                        .iter()
                        .zip(&weights)
                        .map(|(row, &w)| u128::from(row[c]) * u128::from(w))
                        .sum();
                    (sum % u128::from(p)) as u64
                })
                .collect();
            for backend in available_backends() {
                let mut got = vec![0u64; len];
                dot_mod_with(backend, p, &refs, &weights, &mut got);
                assert_eq!(got, want, "dot vs u128 % p={p} {backend:?}");
            }
        }
    }

    /// The worst case of an affine row: every row value and every
    /// weight `p − 1`, at 32 and 128 rows. `(p − 1)² ≡ 1`, so the sum is
    /// `rows mod p` wherever it stays below 2¹²⁸ (every test modulus).
    /// Length 56 takes the IFMA kernel's four-vector block, then its
    /// single vectors.
    #[test]
    fn dot_mod_worst_case_rows_reduce_exactly() {
        for p in moduli() {
            for n_rows in [32usize, 128] {
                assert!(n_rows as u128 * u128::from(p - 1).pow(2) < u128::MAX);
                for len in [19usize, 56, 64] {
                    let row = vec![p - 1; len];
                    let refs = vec![row.as_slice(); n_rows];
                    let weights = vec![p - 1; n_rows];
                    for backend in available_backends() {
                        let mut got = vec![0u64; len];
                        dot_mod_with(backend, p, &refs, &weights, &mut got);
                        assert!(
                            got.iter().all(|&v| v == n_rows as u64 % p),
                            "p={p} rows={n_rows} len={len} {backend:?}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random-length, random-value cross-backend agreement for the
        /// butterflies at the lazy input bounds (< 4p forward, < 2p
        /// inverse), biased to include non-multiple-of-4 tails.
        #[test]
        fn prop_butterflies_bit_identical(seed in any::<u64>(), len in 0usize..21, wsel in any::<u64>()) {
            for vector in vector_backends() {
                for p in moduli() {
                    let w = wsel % p;
                    let ws = twiddle_shoup(p, w);
                    let lo0 = fill(len, 4 * p, seed);
                    let hi0 = fill(len, 4 * p, seed ^ 0xABCD);
                    let (mut ls, mut hs) = (lo0.clone(), hi0.clone());
                    let (mut lv, mut hv) = (lo0, hi0);
                    fwd_butterfly_with(Backend::Scalar, p, w, ws, &mut ls, &mut hs);
                    fwd_butterfly_with(vector, p, w, ws, &mut lv, &mut hv);
                    prop_assert_eq!(&ls, &lv, "fwd lo p={} {:?}", p, vector);
                    prop_assert_eq!(&hs, &hv, "fwd hi p={} {:?}", p, vector);
                    let lo0 = fill(len, 2 * p, seed ^ 0x1234);
                    let hi0 = fill(len, 2 * p, seed ^ 0x5678);
                    let (mut ls, mut hs) = (lo0.clone(), hi0.clone());
                    let (mut lv, mut hv) = (lo0, hi0);
                    inv_butterfly_with(Backend::Scalar, p, w, ws, &mut ls, &mut hs);
                    inv_butterfly_with(vector, p, w, ws, &mut lv, &mut hv);
                    prop_assert_eq!(&ls, &lv, "inv lo p={} {:?}", p, vector);
                    prop_assert_eq!(&hs, &hv, "inv hi p={} {:?}", p, vector);
                }
            }
        }

        /// The dot kernel must equal the scalar u128 accumulator for
        /// every backend, row count and tail length: 1–8 rows (the BEHZ
        /// conversions) and 32 and 128 (an affine row of PASTA-4 and
        /// PASTA-3).
        #[test]
        fn prop_dot_mod_bit_identical(seed in any::<u64>(), len in 0usize..19, rows_sel in 0usize..10) {
            let n_rows = [1, 2, 3, 4, 5, 6, 7, 8, 32, 128][rows_sel];
            for vector in vector_backends() {
                for p in moduli() {
                    let rows: Vec<Vec<u64>> = (0..n_rows)
                        .map(|r| fill(len, 1u64 << 60, seed.wrapping_add(r as u64)))
                        .collect();
                    let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
                    let weights = fill(n_rows, p, seed ^ 0x77);
                    let mut s = vec![0u64; len];
                    let mut v = vec![0u64; len];
                    dot_mod_with(Backend::Scalar, p, &refs, &weights, &mut s);
                    dot_mod_with(vector, p, &refs, &weights, &mut v);
                    prop_assert_eq!(&s, &v, "p={} {:?}", p, vector);
                }
            }
        }

        /// Pointwise/MAC/broadcast kernels: cross-backend equality on
        /// canonical inputs, every modulus, including edge values.
        #[test]
        fn prop_shoup_kernels_bit_identical(seed in any::<u64>(), len in 0usize..19) {
            for vector in vector_backends() {
                for p in moduli() {
                    let zp = zp_for(p);
                    let wr = fill(len, p, seed ^ 0x9A);
                    let wsr: Vec<u64> = wr.iter().map(|&x| zp.shoup(x)).collect();
                    let a0 = fill(len, p, seed ^ 0xBC);
                    let (mut s, mut v) = (a0.clone(), a0.clone());
                    pointwise_mul_shoup_with(Backend::Scalar, p, &mut s, &wr, &wsr);
                    pointwise_mul_shoup_with(vector, p, &mut v, &wr, &wsr);
                    prop_assert_eq!(&s, &v, "pointwise p={} {:?}", p, vector);
                    let acc0 = fill(len, p, seed ^ 0xDE);
                    let (mut s, mut v) = (acc0.clone(), acc0);
                    mac_shoup_with(Backend::Scalar, p, &mut s, &a0, &wr, &wsr);
                    mac_shoup_with(vector, p, &mut v, &a0, &wr, &wsr);
                    prop_assert_eq!(&s, &v, "mac p={} {:?}", p, vector);
                    let w = fill(1, p, seed)[0];
                    let ws = zp.shoup(w);
                    let b0 = fill(len, 4 * p, seed ^ 0xF0);
                    let (mut s, mut v) = (b0.clone(), b0);
                    mul_const_shoup_with(Backend::Scalar, p, w, ws, &mut s);
                    mul_const_shoup_with(vector, p, w, ws, &mut v);
                    prop_assert_eq!(&s, &v, "mul_const p={} {:?}", p, vector);
                    let (mut s, mut v) = (a0.clone(), a0.clone());
                    pointwise_mul_mod_with(Backend::Scalar, p, &mut s, &wr);
                    pointwise_mul_mod_with(vector, p, &mut v, &wr);
                    prop_assert_eq!(&s, &v, "pointwise_mod p={} {:?}", p, vector);
                    let acc0 = fill(len, p, seed ^ 0x3C);
                    let (mut s, mut v) = (acc0.clone(), acc0);
                    mac_mod_with(Backend::Scalar, p, &mut s, &a0, &wr);
                    mac_mod_with(vector, p, &mut v, &a0, &wr);
                    prop_assert_eq!(&s, &v, "mac_mod p={} {:?}", p, vector);
                }
            }
        }
    }
}
