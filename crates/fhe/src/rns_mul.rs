//! Full-RNS (BEHZ-style) base conversion for ciphertext multiplication.
//!
//! [`crate::bfv::BfvContext::mul`] needs two operations that naively
//! leave the residue number system: lifting a ciphertext polynomial from
//! `Z_q` into a basis wide enough to hold the exact tensor product, and
//! the `t/q` scaled rounding that brings the product back down. The
//! bigint oracle CRT-reconstructs every coefficient into a
//! multi-hundred-bit integer for both steps; this module replaces them
//! with the fast base conversions of Bajard–Eynard–Hasan–Zucca
//! ("A Full RNS Variant of FV-like Somewhat Homomorphic Encryption
//! Schemes", SAC 2016), so the hot path is pure per-prime 64-bit
//! arithmetic:
//!
//! * **Lift** (`q → B ∪ {m_sk}`): the input residues are pre-multiplied
//!   by `m̃ = 2^16`, fast-base-converted (`ξ_i = [m̃·x_i·q̃_i]_{q_i}`,
//!   `y_p = Σ_i ξ_i·[q̂_i]_p`), and the conversion's multiple-of-`q`
//!   excess is read off a power-of-two correction channel (mask
//!   arithmetic, no extra prime) — the small-Montgomery reduction
//!   `SmMRq`. Taking the correction **centered** makes the output the
//!   near-centered signed representative: `x̃ ≡ x (mod q)` with
//!   `|x̃| ≤ (q/2)·(1 + 2(k+1)/m̃)` — within a 2⁻¹⁵ sliver of the
//!   oracle's exactly-centered lift, which only nudges the tensor noise
//!   by a correspondingly negligible amount.
//! * **Scale** (`⌊t·c/q⌋`, `c` held in `q ∪ B ∪ {m_sk}`): computed
//!   residue-wise as `d = [(t·c − y)·q^{-1}]` in the auxiliary basis
//!   (`y` again a fast base conversion from `q`), which equals
//!   `⌊t·c/q⌋ − α` with `α ∈ [0, k)` — a bounded additive error far
//!   below the ciphertext noise. The result returns to the `q` basis
//!   through the **Shenoy–Kumaresan** exact conversion: the redundant
//!   modulus `m_sk` (the last auxiliary prime) pins down the multiple
//!   of `P = Π p_j` to subtract, so no rounding error is introduced on
//!   the way back.
//!
//! All conversion matrices (`[q̂_i]_{p_j}`, `[P/p_j]_{q_i}`) and scalar
//! constants (with Shoup precomputation where they multiply vectors)
//! are built once in [`RnsMulContext::new`]; the per-call kernels
//! allocate no big integers, and every row temporary is a recycled
//! [`crate::scratch`] bundle — a warm multiplication performs zero heap
//! allocations here. The kernels run serially on the calling thread and
//! write each output row with one dot product; any fan-out across
//! ciphertexts belongs to the caller.

use crate::bigint::UBig;
use crate::ring::{generate_ntt_primes, RnsBasis, RnsPoly};
use crate::scratch;
use pasta_math::{simd, MathError};

/// The power-of-two correction channel `m̃` of the SmMRq lift.
const MTILDE_BITS: u32 = 16;
const MTILDE: u64 = 1 << MTILDE_BITS;
const MTILDE_MASK: u64 = MTILDE - 1;

/// Width of the auxiliary primes: they lie below 2⁵⁰, the IFMA tier's
/// modulus bound, like the 50-bit ciphertext primes of the benchmark
/// rings.
const AUX_PRIME_BITS: u32 = 50;

/// `a^{-1} mod 2^16` for odd `a`, by Newton iteration (each step
/// doubles the number of correct low bits; 5 steps ≥ 32 bits).
fn inv_mod_mtilde(a: u64) -> u64 {
    debug_assert!(a & 1 == 1, "inverse mod 2^16 requires an odd input");
    let mut x: u64 = 1;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x & MTILDE_MASK
}

fn ceil_log2(x: usize) -> u32 {
    usize::BITS - x.saturating_sub(1).leading_zeros()
}

/// The number of auxiliary primes (`B ∪ {m_sk}`) [`RnsMulContext::new`]
/// builds for ring degree `n`, a ciphertext modulus of `q_bits` bits and
/// plaintext modulus `t`. The same primes are the special modulus `P`
/// of the BFV key switch, so this is also `|P|`, which the noise model
/// charges per switch.
///
/// `P_B = Π_{j<l} p_j` must hold `⌊t·c/q⌋ − α` for `|c| ≤ N·q²/2` (the
/// worst tensor coefficient), and every auxiliary prime is above 2⁴⁹:
/// `bits(P_B) ≥ bits(q) + bits(t) + log2(N) + margin`, plus `m_sk`.
#[must_use]
pub(crate) fn aux_basis_len(n: usize, q_bits: usize, t: u64) -> usize {
    let t_bits = (64 - t.leading_zeros()) as usize;
    let needed_p_bits = q_bits + t_bits + ceil_log2(n) as usize + 4;
    needed_p_bits.div_ceil(AUX_PRIME_BITS as usize - 1) + 1
}

/// Precomputed material for full-RNS ciphertext multiplication over a
/// given ciphertext basis `q = Π q_i` and plaintext modulus `t`.
///
/// The auxiliary basis is `B ∪ {m_sk}`: `l` primes whose product `P`
/// holds `⌊t·c/q⌋` for any tensor coefficient `c`, plus the redundant
/// Shenoy–Kumaresan modulus `m_sk` stored as the **last** auxiliary
/// prime. This is roughly *half* the size of the extended basis the
/// bigint oracle needs (`P ≳ t·N·q` instead of `Q_ext ≳ N·q²`), so the
/// fast path also runs fewer NTTs per product. Every auxiliary prime
/// lies below 2⁵⁰, so its NTT rows, tensor products and conversions run
/// on the IFMA tier of [`pasta_math::simd`] like the ciphertext primes.
///
/// Every per-coefficient correction of the lift and the scale is folded
/// into the weights of one base-conversion dot product per output row
/// ([`simd::dot_mod`]), so no output row runs a scalar fix-up loop.
#[derive(Debug, Clone)]
pub struct RnsMulContext {
    /// `B ∪ {m_sk}` with NTT tables; `m_sk` is the last prime.
    aux: RnsBasis,
    /// Number of primes in `B` (the auxiliary basis minus `m_sk`).
    l: usize,
    // ---- lift (q → aux, SmMRq) ----
    /// `[m̃·q̃_i]_{q_i}` with Shoup precomputation.
    lift_w: Vec<u64>,
    lift_w_shoup: Vec<u64>,
    /// `[q̂_i] mod m̃`.
    conv_q_to_mtilde: Vec<u64>,
    /// `[−q^{-1}] mod m̃`.
    neg_q_inv_mtilde: u64,
    /// Per auxiliary prime `p_j`, the weights over the rows
    /// `(ξ_0 … ξ_{k−1}, r̃, [r̃ > m̃/2])`: `[q̂_i·m̃^{-1}]_{p_j}`,
    /// `[q·m̃^{-1}]_{p_j}` and `[−q]_{p_j}`.
    lift_dot: Vec<Vec<u64>>,
    // ---- scale (⌊t·c/q⌋ in aux) ----
    /// `[t·q̃_i]_{q_i}` with Shoup precomputation.
    tq_inv: Vec<u64>,
    tq_inv_shoup: Vec<u64>,
    /// Per auxiliary prime `p_j`, the weights over the rows
    /// `(ξ_0 … ξ_{k−1}, c_j)`: `[−q̂_i·q^{-1}·s_j]_{p_j}` and
    /// `[t·q^{-1}·s_j]_{p_j}`, with `s_j = [(P/p_j)^{-1}]_{p_j}` for
    /// `j < l` and `s_l = 1`.
    scale_dot: Vec<Vec<u64>>,
    // ---- Shenoy–Kumaresan exact conversion (B → q via m_sk) ----
    /// Weights over `(η_0 … η_{l−1}, η_l)` giving the S-K correction
    /// `α` mod `m_sk`: `[(P/p_j)·P^{-1}]_{m_sk}` and `[−P^{-1}]_{m_sk}`.
    alpha_dot: Vec<u64>,
    /// Per ciphertext prime `q_i`, the weights over `(η_0 … η_{l−1}, α)`:
    /// `[P/p_j]_{q_i}` and `[−P]_{q_i}`.
    sk_dot: Vec<Vec<u64>>,
}

impl RnsMulContext {
    /// Builds the auxiliary basis and all conversion constants for
    /// multiplying ciphertexts over `basis` with plaintext modulus `t`.
    ///
    /// Setup-time only: this constructor is free to use [`UBig`]
    /// arithmetic; the per-multiplication kernels are not.
    ///
    /// # Errors
    ///
    /// Returns an error if not enough NTT-friendly auxiliary primes
    /// exist, or if the prime widths would overflow the `u128`
    /// accumulators of the conversion inner loops.
    pub fn new(basis: &RnsBasis, t: u64) -> Result<Self, MathError> {
        let n = basis.n();
        let k = basis.len();
        let max_q_bits = basis
            .primes()
            .iter()
            .map(pasta_math::Modulus::bits)
            .max()
            .unwrap_or(0);
        let aux_bits = AUX_PRIME_BITS;
        let l = aux_basis_len(n, basis.q().bits(), t) - 1;
        // u128 accumulator guard for the conversion inner loops: Σ over
        // the widest dot (k + 2 or l + 1 rows) of (q-prime × aux-prime)
        // products.
        let acc_bits = max_q_bits as usize + aux_bits as usize + ceil_log2(k.max(l) + 2) as usize;
        if acc_bits > 126 {
            return Err(MathError::UnsupportedWidth(max_q_bits));
        }
        // l + 1 auxiliary primes (m_sk last), disjoint from the q
        // primes: generate slack and filter collisions away.
        let two_adicity = (2 * n).trailing_zeros();
        let candidates = generate_ntt_primes(aux_bits, two_adicity, l + 1 + k)?;
        let aux_primes: Vec<_> = candidates
            .into_iter()
            .filter(|p| !basis.primes().contains(p))
            .take(l + 1)
            .collect();
        if aux_primes.len() < l + 1 {
            return Err(MathError::UnsupportedWidth(aux_bits));
        }
        let aux = RnsBasis::new(n, aux_primes)?;

        let q = basis.q();
        let mut lift_w = Vec::with_capacity(k);
        let mut lift_w_shoup = Vec::with_capacity(k);
        let mut conv_q_to_mtilde = Vec::with_capacity(k);
        let mut tq_inv = Vec::with_capacity(k);
        let mut tq_inv_shoup = Vec::with_capacity(k);
        for i in 0..k {
            let zp = basis.zp(i);
            let w = zp.mul(MTILDE % zp.p(), basis.q_hat_inv(i));
            lift_w.push(w);
            lift_w_shoup.push(zp.shoup(w));
            conv_q_to_mtilde.push(basis.q_hat(i).low_u64() & MTILDE_MASK);
            let tqi = zp.mul(t % zp.p(), basis.q_hat_inv(i));
            tq_inv.push(tqi);
            tq_inv_shoup.push(zp.shoup(tqi));
        }
        let neg_q_inv_mtilde = MTILDE - inv_mod_mtilde(q.low_u64() & MTILDE_MASK);

        // P = Π_{j<l} p_j — the Shenoy–Kumaresan modulus excludes m_sk.
        let mut p_big = UBig::one();
        for j in 0..l {
            p_big = p_big.mul_u64(aux.primes()[j].value());
        }
        let p_hats: Vec<UBig> = (0..l)
            .map(|j| p_big.div_rem(&UBig::from_u64(aux.zp(j).p())).0)
            .collect();

        let mut lift_dot = Vec::with_capacity(l + 1);
        let mut scale_dot = Vec::with_capacity(l + 1);
        for j in 0..=l {
            let zp = aux.zp(j);
            let qm = q.rem_u64(zp.p());
            let q_inv = zp.inv(qm)?;
            let mtilde_inv = zp.inv(MTILDE % zp.p())?;
            let q_hats: Vec<u64> = (0..k).map(|i| basis.q_hat(i).rem_u64(zp.p())).collect();
            let mut lift: Vec<u64> = q_hats.iter().map(|&h| zp.mul(h, mtilde_inv)).collect();
            lift.push(zp.mul(qm, mtilde_inv));
            lift.push(zp.neg(qm));
            lift_dot.push(lift);
            let s_j = match p_hats.get(j) {
                Some(h) => zp.inv(h.rem_u64(zp.p()))?,
                None => 1,
            };
            let q_inv_s = zp.mul(q_inv, s_j);
            let mut scale: Vec<u64> = q_hats.iter().map(|&h| zp.neg(zp.mul(h, q_inv_s))).collect();
            scale.push(zp.mul(t % zp.p(), q_inv_s));
            scale_dot.push(scale);
        }

        let msk_zp = aux.zp(l);
        let p_inv_msk = msk_zp.inv(p_big.rem_u64(msk_zp.p()))?;
        let mut alpha_dot: Vec<u64> = p_hats
            .iter()
            .map(|h| msk_zp.mul(h.rem_u64(msk_zp.p()), p_inv_msk))
            .collect();
        alpha_dot.push(msk_zp.neg(p_inv_msk));
        let sk_dot = (0..k)
            .map(|i| {
                let zp = basis.zp(i);
                let mut row: Vec<u64> = p_hats.iter().map(|h| h.rem_u64(zp.p())).collect();
                row.push(zp.neg(p_big.rem_u64(zp.p())));
                row
            })
            .collect();

        Ok(RnsMulContext {
            aux,
            l,
            lift_w,
            lift_w_shoup,
            conv_q_to_mtilde,
            neg_q_inv_mtilde,
            lift_dot,
            tq_inv,
            tq_inv_shoup,
            scale_dot,
            alpha_dot,
            sk_dot,
        })
    }

    /// The auxiliary basis `B ∪ {m_sk}` (NTT tables included; `m_sk`
    /// last).
    #[must_use]
    pub fn aux(&self) -> &RnsBasis {
        &self.aux
    }

    /// Replaces the auxiliary basis by `aux`, the same primes whose NTT
    /// tables live elsewhere (the `P` suffix of a key-switch basis
    /// `Q ∪ P`), so a context keeps one copy of every table.
    ///
    /// # Panics
    ///
    /// Panics if `aux` holds other primes.
    pub(crate) fn share_aux_tables(&mut self, aux: RnsBasis) {
        assert_eq!(aux.primes(), self.aux.primes(), "auxiliary primes differ");
        self.aux = aux;
    }

    /// Number of primes in `B` (the auxiliary basis without `m_sk`).
    #[must_use]
    pub fn aux_b_len(&self) -> usize {
        self.l
    }

    /// A pooled bundle of `basis.len() + extra` rows whose first rows
    /// are `ξ_i = [x_i·w_i]_{q_i}` for every prime row of `poly` — the
    /// first half of a fast base conversion. The `extra` trailing rows
    /// are unspecified; the caller fills them.
    fn xi_rows(
        basis: &RnsBasis,
        poly: &RnsPoly,
        w: &[u64],
        w_shoup: &[u64],
        extra: usize,
    ) -> Vec<Vec<u64>> {
        let be = simd::backend();
        let mut rows = scratch::take_rows(basis.len() + extra, basis.n());
        for (i, row) in rows.iter_mut().take(basis.len()).enumerate() {
            row.copy_from_slice(poly.row(i));
            simd::mul_const_shoup_with(be, basis.zp(i).p(), w[i], w_shoup[i], row);
        }
        rows
    }

    /// Lifts a coefficient-domain polynomial from the `q` basis into the
    /// auxiliary basis: the output residues represent a signed integer
    /// `x̃ ≡ x (mod q)` with `|x̃| ≤ (q/2)·(1 + 2(k+1)/m̃)` — the
    /// near-centered representative of the SmMRq reduction with a
    /// centered correction term. No approximation beyond that bound:
    /// the `m̃` channel pins the multiple of `q` exactly.
    ///
    /// Each output residue is one dot product,
    /// `x̃_p = [Σ_i ξ_i·q̂_i·m̃^{-1} + r̃·q·m̃^{-1} − [r̃ > m̃/2]·q]_p`:
    /// the correction `(y ± r·q)·m̃^{-1}` distributed over the sum.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is in NTT domain.
    #[must_use]
    pub fn lift_to_aux(&self, basis: &RnsBasis, poly: &RnsPoly) -> RnsPoly {
        let mut rows = scratch::take_rows(self.aux.len(), basis.n());
        self.lift_into(basis, poly, &mut rows);
        RnsPoly::from_rows(rows, false)
    }

    /// [`RnsMulContext::lift_to_aux`] into caller-provided rows, one per
    /// auxiliary prime: the `P` rows of a key switch's ModUp, which sit
    /// after the digit's own `q` rows in one bundle.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is in NTT domain or `out` holds fewer rows than
    /// the auxiliary basis.
    pub(crate) fn lift_into(&self, basis: &RnsBasis, poly: &RnsPoly, out: &mut [Vec<u64>]) {
        assert!(!poly.is_ntt(), "lift requires coefficient domain");
        let k = basis.len();
        // Rows (ξ_0 … ξ_{k−1}, r̃, [r̃ > m̃/2]): the operands of every
        // output row's dot product.
        let mut src_rows = Self::xi_rows(basis, poly, &self.lift_w, &self.lift_w_shoup, 2);
        let (xi, corr) = src_rows.split_at_mut(k);
        let (r_tilde, negative) = corr.split_at_mut(1);
        let (r_tilde, negative) = (&mut r_tilde[0], &mut negative[0]);

        // Correction r̃ = [−y_m̃·q^{-1}]_{m̃} per coefficient from the
        // power-of-two channel (wrapping u64 arithmetic and masks), and
        // its sign bit [r̃ > m̃/2]: taken centered, so the result lands
        // on the near-centered representative.
        r_tilde.fill(0);
        for (row, &conv) in xi.iter().zip(&self.conv_q_to_mtilde) {
            for (acc, &x) in r_tilde.iter_mut().zip(row) {
                *acc = acc.wrapping_add(x.wrapping_mul(conv));
            }
        }
        for (r, b) in r_tilde.iter_mut().zip(negative.iter_mut()) {
            *r = (*r & MTILDE_MASK).wrapping_mul(self.neg_q_inv_mtilde) & MTILDE_MASK;
            *b = u64::from(*r > MTILDE / 2);
        }

        let be = simd::backend();
        let src: Vec<&[u64]> = src_rows.iter().map(Vec::as_slice).collect();
        // `dot_mod_with` fully overwrites each recycled row.
        for (j, row) in out[..self.aux.len()].iter_mut().enumerate() {
            simd::dot_mod_with(be, self.aux.zp(j).p(), &src, &self.lift_dot[j], row);
        }
        scratch::put_rows(src_rows);
    }

    /// Computes `⌊t·c/q⌋ − α` (with `α ∈ [0, k)`) residue-wise, where
    /// the signed tensor coefficient `c` is held jointly by its `q`-basis
    /// residues (`c_q`) and auxiliary-basis residues (`c_aux`), and
    /// returns the result in the `q` basis via the Shenoy–Kumaresan
    /// exact conversion. The `α` slack is a bounded additive error of at
    /// most `k` per coefficient — orders of magnitude below the
    /// ciphertext noise this operation rounds off.
    ///
    /// Three dot products per coefficient carry it: per auxiliary prime,
    /// `η_j = [(t·c_j − y_j)·q^{-1}·s_j]_{p_j}` with `y` the fast base
    /// conversion of `ξ_i = [c_i·t·q̃_i]_{q_i}` (`s_j` readies rows
    /// `j < l` for Shenoy–Kumaresan; row `l` holds `d` at `m_sk`
    /// itself); then the correction `α = [(Σ_j η_j·P/p_j − d)·P^{-1}]`
    /// at `m_sk`; then `[Σ_j η_j·P/p_j − α·P]_{q_i}`.
    ///
    /// # Panics
    ///
    /// Panics if either input is in NTT domain.
    #[must_use]
    pub fn scale_to_q(&self, basis: &RnsBasis, c_q: &RnsPoly, c_aux: &RnsPoly) -> RnsPoly {
        assert!(
            !c_q.is_ntt() && !c_aux.is_ntt(),
            "scale requires coefficient domain"
        );
        let n = basis.n();
        let l = self.l;
        let xi = Self::xi_rows(basis, c_q, &self.tq_inv, &self.tq_inv_shoup, 0);

        let be = simd::backend();
        // Rows η_0 … η_l, then α.
        let mut eta_alpha = scratch::take_rows(l + 2, n);
        for (j, row) in eta_alpha.iter_mut().take(l + 1).enumerate() {
            let src: Vec<&[u64]> = xi.iter().map(Vec::as_slice).chain([c_aux.row(j)]).collect();
            simd::dot_mod_with(be, self.aux.zp(j).p(), &src, &self.scale_dot[j], row);
        }
        scratch::put_rows(xi);

        // Shenoy–Kumaresan: the m_sk channel yields the exact multiple
        // of P to subtract, α_sk ≤ l.
        let (eta, alpha) = eta_alpha.split_at_mut(l + 1);
        let src: Vec<&[u64]> = eta.iter().map(Vec::as_slice).collect();
        simd::dot_mod_with(be, self.aux.zp(l).p(), &src, &self.alpha_dot, &mut alpha[0]);
        debug_assert!(
            alpha[0].iter().all(|&a| a <= l as u64),
            "S-K correction must stay below l + 1"
        );

        let src: Vec<&[u64]> = eta[..l].iter().chain(&*alpha).map(Vec::as_slice).collect();
        let mut rows = scratch::take_rows(basis.len(), n);
        for (i, row) in rows.iter_mut().enumerate() {
            simd::dot_mod_with(be, basis.zp(i).p(), &src, &self.sk_dot[i], row);
        }
        scratch::put_rows(eta_alpha);
        RnsPoly::from_rows(rows, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const T: u64 = 65_537;

    fn world() -> (RnsBasis, RnsMulContext) {
        let basis = RnsBasis::with_generated_primes(16, 50, 3).unwrap();
        let ctx = RnsMulContext::new(&basis, T).unwrap();
        (basis, ctx)
    }

    /// The signed value a residue vector over `basis` represents, as
    /// `(magnitude, negative)` after centering.
    fn centered_value(basis: &RnsBasis, residues: &[u64]) -> (UBig, bool) {
        let v = basis.crt_reconstruct(residues);
        let half = basis.q().shr(1);
        if v.cmp_big(&half) == std::cmp::Ordering::Greater {
            (basis.q().sub(&v), true)
        } else {
            (v, false)
        }
    }

    fn boundary_values(basis: &RnsBasis) -> Vec<UBig> {
        let q = basis.q();
        let half = q.shr(1);
        vec![
            UBig::zero(),
            UBig::one(),
            half.sub(&UBig::one()),
            half.clone(),
            half.add(&UBig::one()),
            q.sub(&UBig::one()),
        ]
    }

    fn check_lift(basis: &RnsBasis, ctx: &RnsMulContext, values: &[UBig]) {
        let n = basis.n();
        let k = basis.len();
        let mut padded = values.to_vec();
        padded.resize(n, UBig::zero());
        let poly = RnsPoly::from_bigint_coeffs(basis, &padded);
        let lifted = ctx.lift_to_aux(basis, &poly);
        let q = basis.q();
        // |x̃| ≤ (q/2)·(1 + 2(k+1)/m̃) = q/2 + q(k+1)/m̃.
        let bound = q
            .shr(1)
            .add(&q.mul_u64(k as u64 + 1).shr(MTILDE_BITS as usize))
            .add(&UBig::one());
        for (c, expected) in padded.iter().enumerate() {
            let residues: Vec<u64> = (0..ctx.aux().len()).map(|j| lifted.row(j)[c]).collect();
            let (got_mag, got_neg) = centered_value(ctx.aux(), &residues);
            // Congruence: x̃ ≡ x (mod q).
            let got_mod_q = {
                let r = got_mag.div_rem(q).1;
                if got_neg && !r.is_zero() {
                    q.sub(&r)
                } else {
                    r
                }
            };
            assert_eq!(&got_mod_q, expected, "coefficient {c} congruence mod q");
            // Near-centered magnitude bound.
            assert!(
                got_mag.cmp_big(&bound) != std::cmp::Ordering::Greater,
                "coefficient {c} magnitude exceeds near-centered bound"
            );
        }
    }

    /// `⌊t·c/q⌋` for the signed coefficient `c`, reduced into `[0, q)`.
    fn exact_floor_mod_q(basis: &RnsBasis, mag: &UBig, negative: bool) -> UBig {
        let q = basis.q();
        let scaled = mag.mul_u64(T);
        let f = if negative {
            // ⌊−x/q⌋ = −⌈x/q⌉
            scaled.add(q).sub(&UBig::one()).div_rem(q).0
        } else {
            scaled.div_rem(q).0
        };
        let r = f.div_rem(q).1;
        if negative && !r.is_zero() {
            q.sub(&r)
        } else {
            r
        }
    }

    fn check_scale(basis: &RnsBasis, ctx: &RnsMulContext, values: &[(UBig, bool)]) {
        let n = basis.n();
        let k = basis.len();
        let mut padded = values.to_vec();
        padded.resize(n, (UBig::zero(), false));
        let q_rows: Vec<Vec<u64>> = (0..k)
            .map(|i| {
                padded
                    .iter()
                    .map(|(m, neg)| {
                        let p = basis.primes()[i].value();
                        let r = m.rem_u64(p);
                        if *neg && r != 0 {
                            p - r
                        } else {
                            r
                        }
                    })
                    .collect()
            })
            .collect();
        let aux_rows: Vec<Vec<u64>> = (0..ctx.aux().len())
            .map(|j| {
                padded
                    .iter()
                    .map(|(m, neg)| {
                        let p = ctx.aux().primes()[j].value();
                        let r = m.rem_u64(p);
                        if *neg && r != 0 {
                            p - r
                        } else {
                            r
                        }
                    })
                    .collect()
            })
            .collect();
        let c_q = RnsPoly::from_rows(q_rows, false);
        let c_aux = RnsPoly::from_rows(aux_rows, false);
        let out = ctx.scale_to_q(basis, &c_q, &c_aux);
        for (c, (mag, neg)) in padded.iter().enumerate() {
            let residues: Vec<u64> = (0..k).map(|i| out.row(i)[c]).collect();
            let got = basis.crt_reconstruct(&residues);
            let want = exact_floor_mod_q(basis, mag, *neg);
            // got = want − α mod q with α ∈ [0, k).
            let diff = if want.cmp_big(&got) == std::cmp::Ordering::Less {
                want.add(basis.q()).sub(&got)
            } else {
                want.sub(&got)
            };
            assert!(
                diff.cmp_big(&UBig::from_u64(k as u64)) == std::cmp::Ordering::Less,
                "coefficient {c}: fast-conversion slack {diff:?} ≥ k"
            );
        }
    }

    #[test]
    fn lift_matches_exact_crt_at_sign_boundaries() {
        let (basis, ctx) = world();
        check_lift(&basis, &ctx, &boundary_values(&basis));
    }

    #[test]
    fn scale_matches_exact_floor_at_boundaries() {
        let (basis, ctx) = world();
        // |c| up to N·q²/2 — the worst tensor coefficient the scale
        // path must handle. Exercise both signs at the extremes plus
        // the q/2 sign-centering boundary.
        let q = basis.q();
        let c_max = q.mul(q).mul_u64(basis.n() as u64 / 2);
        let half = q.shr(1);
        let values = vec![
            (UBig::zero(), false),
            (UBig::one(), false),
            (UBig::one(), true),
            (half.clone(), false),
            (half.add(&UBig::one()), true),
            (c_max.clone(), false),
            (c_max.clone(), true),
            (c_max.sub(&UBig::one()), true),
        ];
        check_scale(&basis, &ctx, &values);
    }

    #[test]
    fn aux_basis_is_disjoint_and_sized() {
        let (basis, ctx) = world();
        for p in ctx.aux().primes() {
            assert!(!basis.primes().contains(p), "aux prime collides with q");
        }
        // P (without m_sk) must hold t·N·q/2 with margin.
        let needed = basis.q().bits() + 17 + 4;
        let p_bits: usize = ctx.aux().primes()[..ctx.aux_b_len()]
            .iter()
            .map(|p| p.bits() as usize - 1)
            .sum();
        assert!(p_bits >= needed, "P too small: {p_bits} < {needed}");
    }

    #[test]
    fn aux_primes_fit_ifma_and_meet_the_behz_bound_at_benchmark_rings() {
        for k in [7usize, 11, 16] {
            let basis = RnsBasis::with_generated_primes(1_024, 50, k).unwrap();
            let ctx = RnsMulContext::new(&basis, T).unwrap();
            for p in ctx.aux().primes() {
                assert!(p.value() < 1 << 50, "k = {k}: aux prime {p:?} ≥ 2⁵⁰");
                assert!(!basis.primes().contains(p), "k = {k}: aux prime collides");
            }
            // P = Π_{j<l} p_j must exceed t·N·q·2⁴ (the worst scaled
            // tensor coefficient with margin); m_sk is not part of P.
            let mut p_big = UBig::one();
            for p in &ctx.aux().primes()[..ctx.aux_b_len()] {
                p_big = p_big.mul_u64(p.value());
            }
            let bound = basis.q().mul_u64(T).mul_u64(1_024 << 4);
            assert_eq!(
                p_big.cmp_big(&bound),
                std::cmp::Ordering::Greater,
                "k = {k}: P below the BEHZ bound"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[test]
            fn prop_lift_matches_exact_crt(seed in any::<u64>()) {
                let (basis, ctx) = world();
                let mut rng = StdRng::seed_from_u64(seed);
                let values: Vec<UBig> = (0..basis.n())
                    .map(|_| {
                        let residues: Vec<u64> = basis
                            .primes()
                            .iter()
                            .map(|p| rng.gen_range(0..p.value()))
                            .collect();
                        basis.crt_reconstruct(&residues)
                    })
                    .collect();
                check_lift(&basis, &ctx, &values);
            }

            #[test]
            fn prop_scale_within_fast_conversion_slack(seed in any::<u64>()) {
                let (basis, ctx) = world();
                let mut rng = StdRng::seed_from_u64(seed);
                let c_max = basis.q().mul(basis.q()).mul_u64(basis.n() as u64 / 2);
                let values: Vec<(UBig, bool)> = (0..basis.n())
                    .map(|_| {
                        // Random magnitude below c_max: random limbs,
                        // reduced mod c_max.
                        let limbs: Vec<u64> =
                            (0..c_max.limbs().len() + 1).map(|_| rng.gen()).collect();
                        let mag = UBig::from_limbs(limbs).div_rem(&c_max).1;
                        (mag, rng.gen())
                    })
                    .collect();
                check_scale(&basis, &ctx, &values);
            }
        }
    }
}
