//! Negacyclic number-theoretic transform over a single RNS prime.
//!
//! BFV works in `R_q = Z_q[X]/(X^N + 1)`. Multiplication in `R_q` is a
//! *negacyclic* convolution, computed by pre-twisting with powers of a
//! primitive 2N-th root of unity ψ, applying a length-N NTT (ω = ψ²),
//! pointwise multiplying, and untwisting. We fold the twists into the
//! butterfly tables as usual (Cooley–Tukey forward / Gentleman–Sande
//! inverse with ψ-power tables), so one forward + one inverse transform
//! costs `N log N` butterflies.

use pasta_math::{simd, MathError, Modulus, Zp};

/// Precomputed NTT tables for one prime and ring degree.
///
/// Twiddles are stored twice: canonical, and in Shoup form
/// ([`simd::twiddle_shoup`], radix 2⁵² for the benchmark rings' 50-bit
/// primes) so the butterflies run Harvey's lazy-reduction kernel — one
/// high-half multiply per twiddle product, values kept in `[0, 4p)`
/// (forward) / `[0, 2p)` (inverse) through the transform, with
/// a single correction pass at the end. Sound because every supported
/// [`Modulus`] is ≤ 62 bits, so `4p < 2⁶⁴`.
#[derive(Debug, Clone)]
pub struct NttTable {
    zp: Zp,
    n: usize,
    /// ψ^bitrev(i) powers for the forward transform.
    fwd: Vec<u64>,
    /// Shoup companions of `fwd`.
    fwd_shoup: Vec<u64>,
    /// ψ^{-bitrev(i)} powers for the inverse transform.
    inv: Vec<u64>,
    /// Shoup companions of `inv`.
    inv_shoup: Vec<u64>,
    /// `(2^{-i} mod p, Shoup companion)` for `i = 0 ..= log₂N`: the
    /// final scaling of a `2^i`-point [`NttTable::inverse_prefix`].
    pow2_inv: Vec<(u64, u64)>,
}

impl NttTable {
    /// Builds tables for `Z_p[X]/(X^n + 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `2n ∤ p - 1` (no 2N-th
    /// root of unity exists) or [`MathError::UnsupportedWidth`] if `n` is
    /// not a power of two.
    pub fn new(modulus: Modulus, n: usize) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::UnsupportedWidth(
                u32::try_from(n).unwrap_or(u32::MAX),
            ));
        }
        let zp = Zp::new(modulus)?;
        let psi = zp.primitive_root_of_unity(2 * n as u64)?;
        let psi_inv = zp.inv(psi)?;
        let mut fwd = vec![0u64; n];
        let mut inv = vec![0u64; n];
        let log_n = n.trailing_zeros();
        let mut p_pow = 1u64;
        let mut pi_pow = 1u64;
        let mut powers = Vec::with_capacity(n);
        let mut ipowers = Vec::with_capacity(n);
        for _ in 0..n {
            powers.push(p_pow);
            ipowers.push(pi_pow);
            p_pow = zp.mul(p_pow, psi);
            pi_pow = zp.mul(pi_pow, psi_inv);
        }
        for (i, (fw, iv)) in fwd.iter_mut().zip(inv.iter_mut()).enumerate() {
            let r = bit_reverse(i, log_n);
            *fw = powers[r];
            *iv = ipowers[r];
        }
        // Butterfly twiddles carry radix-aware Shoup companions (β = 2³²
        // below the small-modulus bound); the k⁻¹ scalings go through
        // the wide-radix broadcast kernel and keep `Zp::shoup`.
        let fwd_shoup: Vec<u64> = fwd
            .iter()
            .map(|&w| simd::twiddle_shoup(zp.p(), w))
            .collect();
        let inv_shoup: Vec<u64> = inv
            .iter()
            .map(|&w| simd::twiddle_shoup(zp.p(), w))
            .collect();
        let half = zp.inv(2)?;
        let mut pow2_inv = vec![(1, zp.shoup(1))];
        for _ in 0..log_n {
            let next = zp.mul(pow2_inv[pow2_inv.len() - 1].0, half);
            pow2_inv.push((next, zp.shoup(next)));
        }
        Ok(NttTable {
            zp,
            n,
            fwd,
            fwd_shoup,
            inv,
            inv_shoup,
            pow2_inv,
        })
    }

    /// Ring degree `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The field context.
    #[must_use]
    pub fn zp(&self) -> &Zp {
        &self.zp
    }

    /// In-place forward negacyclic NTT (standard order in, standard order
    /// out) — Harvey/Shoup lazy-reduction Cooley–Tukey butterflies.
    ///
    /// Butterfly invariant: inputs `< 4p`. The left input is reduced to
    /// `< 2p`, the right is a lazy Shoup product in `[0, 2p)`, so both
    /// outputs stay `< 4p`. One final pass canonicalizes to `[0, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "NTT input length mismatch");
        self.forward_prefix(a);
    }

    /// In-place inverse negacyclic NTT — Harvey/Shoup lazy-reduction
    /// Gentleman–Sande butterflies.
    ///
    /// Butterfly invariant: values `< 2p` throughout; the final `N⁻¹`
    /// scaling canonicalizes to `[0, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "NTT input length mismatch");
        self.inverse_prefix(a);
    }

    /// The forward transform of a polynomial in the sub-ring
    /// `Z_p[X^{N/k}]`, on its `k = a.len()` compact coefficients
    /// (`a[i]` is the coefficient of `X^{i·N/k}`).
    ///
    /// Only the first `log₂k` stages of [`NttTable::forward`] touch such
    /// a polynomial: they combine coefficients `N/k` apart, and every
    /// later stage meets a zero upper input and copies its lower input
    /// down. So the full transform holds `a[i]` (as left here) in each
    /// of the `N/k` output slots `i·N/k .. (i+1)·N/k`, canonical values
    /// bit-identical to transforming the expanded polynomial. At
    /// `k = N` this is [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics unless `a.len()` is a power of two `≤ N`.
    pub fn forward_prefix(&self, a: &mut [u64]) {
        let k = a.len();
        assert!(
            k.is_power_of_two() && k <= self.n,
            "prefix length must be a power of two ≤ N"
        );
        let p = self.zp.p();
        let be = simd::backend();
        let mut m = 1usize;
        while m < k {
            // Stage i uses the contiguous twiddle block fwd[m..2m]; one
            // stage-level dispatch covers all m groups (the short final
            // stages vectorize across groups inside the kernel).
            simd::fwd_stage_with(
                be,
                p,
                &self.fwd[m..2 * m],
                &self.fwd_shoup[m..2 * m],
                k / (2 * m),
                a,
            );
            m *= 2;
        }
        simd::canonicalize_with(be, p, a);
    }

    /// The inverse of [`NttTable::forward_prefix`]: `k = a.len()`
    /// evaluation values, one per run of `N/k` equal slots, in, and the
    /// `k` compact coefficients of the sub-ring polynomial out.
    ///
    /// On a run-constant input the first `log₂(N/k)` stages of
    /// [`NttTable::inverse`] only fold each run into `N/k` times its
    /// first slot, so this runs the last `log₂k` stages and scales by
    /// `k⁻¹` in place of `N⁻¹`. At `k = N` this is [`NttTable::inverse`].
    ///
    /// # Panics
    ///
    /// Panics unless `a.len()` is a power of two `≤ N`.
    pub fn inverse_prefix(&self, a: &mut [u64]) {
        let k = a.len();
        assert!(
            k.is_power_of_two() && k <= self.n,
            "prefix length must be a power of two ≤ N"
        );
        let p = self.zp.p();
        let be = simd::backend();
        let mut h = k / 2;
        while h >= 1 {
            // Stage uses the contiguous twiddle block inv[h..2h]; one
            // stage-level dispatch covers all h groups.
            simd::inv_stage_with(
                be,
                p,
                &self.inv[h..2 * h],
                &self.inv_shoup[h..2 * h],
                k / (2 * h),
                a,
            );
            h /= 2;
        }
        let (k_inv, k_inv_shoup) = self.pow2_inv[k.trailing_zeros() as usize];
        simd::mul_const_shoup_with(be, p, k_inv, k_inv_shoup, a);
    }

    /// The pre-optimization forward transform (one full Barrett/add-shift
    /// reduction per butterfly). Kept as the bit-exactness reference for
    /// tests and the before/after benches.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "NTT input length mismatch");
        let zp = &self.zp;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t /= 2;
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = self.fwd[m + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = zp.mul(a[j + t], s);
                    a[j] = zp.add(u, v);
                    a[j + t] = zp.sub(u, v);
                }
            }
            m *= 2;
        }
    }

    /// The pre-optimization inverse transform (see
    /// [`NttTable::forward_reference`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "NTT input length mismatch");
        let zp = &self.zp;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0usize;
            for i in 0..h {
                let s = self.inv[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = zp.add(u, v);
                    a[j + t] = zp.mul(zp.sub(u, v), s);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = zp.mul(*x, self.pow2_inv[self.n.trailing_zeros() as usize].0);
        }
    }

    /// Pointwise product `a ∘ b` into `a` (both in NTT domain).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn pointwise_mul_assign(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len(), "pointwise length mismatch");
        simd::pointwise_mul_mod(self.zp.p(), a, b);
    }

    /// Full negacyclic polynomial product (convenience; transforms both
    /// inputs).
    #[must_use]
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        self.pointwise_mul_assign(&mut fa, &fb);
        self.inverse(&mut fa);
        fa
    }
}

pub(crate) fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Slot permutation realizing the Galois automorphism `σ_g: X ↦ X^g`
/// directly in the NTT domain: `NTT(σ_g(a))[i] = NTT(a)[perm[i]]`.
///
/// The forward transform above (Cooley–Tukey with `ψ^bitrev` twiddles)
/// leaves slot `i` holding the evaluation `A(ψ^{e_i})` with
/// `e_i = 2·bitrev(i) + 1`. Since `σ_g(A)(ψ^e) = A(ψ^{e·g mod 2N})` and
/// odd exponents stay odd under multiplication by odd `g`, the
/// automorphism is a pure slot permutation — no sign corrections — and
/// an N-rotation batch can skip the inverse/forward transform pair
/// entirely (Halevi–Shoup hoisting).
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2 or `g` is even.
#[must_use]
pub fn galois_slot_permutation(n: usize, g: usize) -> Vec<usize> {
    assert!(n.is_power_of_two() && n >= 2, "ring degree must be 2^k");
    assert!(g % 2 == 1, "Galois element must be odd");
    let log_n = n.trailing_zeros();
    let two_n = 2 * n;
    (0..n)
        .map(|i| {
            let e = 2 * bit_reverse(i, log_n) + 1;
            let eg = (e * (g % two_n)) % two_n;
            bit_reverse((eg - 1) / 2, log_n)
        })
        .collect()
}

/// Schoolbook negacyclic multiplication (reference for tests and for
/// rings whose modulus lacks NTT structure).
#[must_use]
pub fn negacyclic_mul_schoolbook(zp: &Zp, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n, "length mismatch");
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = zp.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = zp.add(out[k], prod);
            } else {
                out[k - n] = zp.sub(out[k - n], prod); // X^N = -1
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(n: usize) -> NttTable {
        NttTable::new(Modulus::NTT_60_BIT, n).unwrap()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [2usize, 8, 64, 1024] {
            let t = table(n);
            let original: Vec<u64> = (0..n as u64).map(|i| i * 1_234_567 % t.zp().p()).collect();
            let mut a = original.clone();
            t.forward(&mut a);
            assert_ne!(a, original, "transform must not be identity");
            t.inverse(&mut a);
            assert_eq!(a, original, "n = {n}");
        }
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        let n = 32;
        let t = table(n);
        let p = t.zp().p();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 1) % p).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| p - 1 - i * 53 % p).collect();
        assert_eq!(
            t.negacyclic_mul(&a, &b),
            negacyclic_mul_schoolbook(t.zp(), &a, &b)
        );
    }

    #[test]
    fn x_times_x_pow_n_minus_1_wraps_negatively() {
        // X · X^{N-1} = X^N = -1 in the negacyclic ring.
        let n = 16;
        let t = table(n);
        let mut x = vec![0u64; n];
        x[1] = 1;
        let mut xn1 = vec![0u64; n];
        xn1[n - 1] = 1;
        let prod = t.negacyclic_mul(&x, &xn1);
        let mut expect = vec![0u64; n];
        expect[0] = t.zp().p() - 1; // -1
        assert_eq!(prod, expect);
    }

    #[test]
    fn constant_multiplication_scales() {
        let n = 8;
        let t = table(n);
        let c = vec![7u64, 0, 0, 0, 0, 0, 0, 0];
        let a: Vec<u64> = (1..=8u64).collect();
        let prod = t.negacyclic_mul(&c, &a);
        let expect: Vec<u64> = a.iter().map(|&x| t.zp().mul(7, x)).collect();
        assert_eq!(prod, expect);
    }

    #[test]
    fn plaintext_modulus_ntt_works_for_batching() {
        // 65537 supports 2N-th roots for N up to 2^15: the batch encoder
        // relies on this.
        let t = NttTable::new(Modulus::PASTA_17_BIT, 1024).unwrap();
        let mut a: Vec<u64> = (0..1024u64).map(|i| i % 65_537).collect();
        let orig = a.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn lazy_kernels_match_reference_transforms() {
        // The Shoup fast path must be bit-exact against the seed's
        // full-reduction butterflies, element by element.
        for modulus in [
            Modulus::PASTA_17_BIT,
            Modulus::PASTA_33_BIT,
            Modulus::NTT_60_BIT,
        ] {
            for n in [4usize, 64, 1024] {
                let t = NttTable::new(modulus, n).unwrap();
                let p = t.zp().p();
                let input: Vec<u64> = (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p)
                    .collect();
                let (mut fast, mut slow) = (input.clone(), input.clone());
                t.forward(&mut fast);
                t.forward_reference(&mut slow);
                assert_eq!(fast, slow, "forward p={p} n={n}");
                t.inverse(&mut fast);
                t.inverse_reference(&mut slow);
                assert_eq!(fast, slow, "inverse p={p} n={n}");
                assert_eq!(fast, input, "roundtrip p={p} n={n}");
            }
        }
    }

    #[test]
    fn lazy_ntt_mul_matches_schoolbook_multiple_sizes_and_primes() {
        for modulus in [
            Modulus::PASTA_17_BIT,
            Modulus::PASTA_33_BIT,
            Modulus::NTT_60_BIT,
        ] {
            for n in [8usize, 32, 128] {
                let t = NttTable::new(modulus, n).unwrap();
                let p = t.zp().p();
                let a: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 1) % p).collect();
                let b: Vec<u64> = (0..n as u64).map(|i| p - 1 - i * 53 % p).collect();
                assert_eq!(
                    t.negacyclic_mul(&a, &b),
                    negacyclic_mul_schoolbook(t.zp(), &a, &b),
                    "p={p} n={n}"
                );
            }
        }
    }

    /// Coefficient-domain reference automorphism: `X^j ↦ ±X^{jg mod N}`
    /// with a sign flip on negacyclic wraparound.
    fn automorphism_ref(zp: &Zp, a: &[u64], g: usize) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for (j, &c) in a.iter().enumerate() {
            let e = (j * g) % (2 * n);
            if e < n {
                out[e] = zp.add(out[e], c);
            } else {
                out[e - n] = zp.sub(out[e - n], c);
            }
        }
        out
    }

    #[test]
    fn galois_slot_permutation_matches_coefficient_automorphism() {
        for n in [4usize, 16, 64, 256] {
            let t = table(n);
            let p = t.zp().p();
            let a: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95) % p)
                .collect();
            let mut ntt_a = a.clone();
            t.forward(&mut ntt_a);
            for g in [3usize, 5, 9, 2 * n - 1, ((3usize.pow(7)) % (2 * n)) | 1] {
                let perm = galois_slot_permutation(n, g);
                // Bijection check.
                let mut seen = vec![false; n];
                for &s in &perm {
                    assert!(!seen[s], "duplicate image n={n} g={g}");
                    seen[s] = true;
                }
                let mut expect = automorphism_ref(t.zp(), &a, g);
                t.forward(&mut expect);
                let permuted: Vec<u64> = perm.iter().map(|&s| ntt_a[s]).collect();
                assert_eq!(permuted, expect, "n={n} g={g}");
            }
        }
    }

    #[test]
    fn galois_slot_permutation_identity_and_composition() {
        let n = 32;
        let id = galois_slot_permutation(n, 1);
        assert_eq!(id, (0..n).collect::<Vec<_>>());
        // perm(g) ∘ perm(h) = perm(g·h mod 2N): composing table lookups
        // in the order `permute by h, then by g` matches the product.
        let (g, h) = (3usize, 5usize);
        let pg = galois_slot_permutation(n, g);
        let ph = galois_slot_permutation(n, h);
        let pgh = galois_slot_permutation(n, (g * h) % (2 * n));
        let composed: Vec<usize> = (0..n).map(|i| ph[pg[i]]).collect();
        assert_eq!(composed, pgh);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            NttTable::new(Modulus::NTT_60_BIT, 3).is_err(),
            "non power of two"
        );
        // 2^20-th roots don't exist mod 65537 (p-1 = 2^16).
        assert!(NttTable::new(Modulus::PASTA_17_BIT, 1 << 19).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_ntt_mul_matches_schoolbook(
            a in proptest::collection::vec(0u64..65_537, 16),
            b in proptest::collection::vec(0u64..65_537, 16),
        ) {
            let t = NttTable::new(Modulus::PASTA_17_BIT, 16).unwrap();
            prop_assert_eq!(
                t.negacyclic_mul(&a, &b),
                negacyclic_mul_schoolbook(t.zp(), &a, &b)
            );
        }

        #[test]
        fn prop_forward_is_linear(
            a in proptest::collection::vec(0u64..65_537, 32),
            b in proptest::collection::vec(0u64..65_537, 32),
        ) {
            let t = NttTable::new(Modulus::PASTA_17_BIT, 32).unwrap();
            let zp = *t.zp();
            let sum: Vec<u64> = a.iter().zip(b.iter()).map(|(&x, &y)| zp.add(x, y)).collect();
            let (mut fa, mut fb, mut fs) = (a.clone(), b.clone(), sum);
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.forward(&mut fs);
            let lin: Vec<u64> = fa.iter().zip(fb.iter()).map(|(&x, &y)| zp.add(x, y)).collect();
            prop_assert_eq!(fs, lin);
        }
    }
}
