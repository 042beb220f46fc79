//! RNS polynomial arithmetic in `R_q = Z_q[X]/(X^N + 1)`.
//!
//! The ciphertext modulus `q` is a product of NTT-friendly primes
//! `q_0 … q_{k-1}`; a polynomial is stored as its residue vectors modulo
//! each prime ([`RnsPoly`]), so all ring operations are prime-wise and
//! `u64`-sized. CRT reconstruction into a [`UBig`] is only needed at
//! decryption scaling and ciphertext-multiplication time.

use crate::bigint::UBig;
use crate::ntt::NttTable;
use pasta_math::{is_prime_u64, simd, MathError, Modulus, Zp};
use rand::Rng;
use std::sync::Arc;

/// Minimum ring degree before the per-prime transforms fan out across
/// threads: below this a row's NTT is far cheaper than a thread spawn
/// (`pasta-par` has no persistent pool).
pub(crate) const PAR_MIN_RING_DEGREE: usize = 1024;

/// The RNS basis: primes, NTT tables and CRT precomputation.
///
/// A [`RnsBasis::prefix`] shares its parent's NTT tables; only the CRT
/// constants of the shorter product are its own.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    n: usize,
    primes: Vec<Modulus>,
    tables: Arc<[NttTable]>,
    /// `q = Π q_i`.
    q: UBig,
    /// `q̂_i = q / q_i`.
    q_hats: Vec<UBig>,
    /// `[q̂_i^{-1}]_{q_i}`.
    q_hat_invs: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis over explicit primes.
    ///
    /// # Errors
    ///
    /// Returns an error if any modulus lacks a 2N-th root of unity, if
    /// primes repeat, or if `n` is not a power of two.
    pub fn new(n: usize, primes: Vec<Modulus>) -> Result<Self, MathError> {
        let mut tables = Vec::with_capacity(primes.len());
        for (i, &p) in primes.iter().enumerate() {
            if primes[..i].contains(&p) {
                return Err(MathError::NotPrime(p.value()));
            }
            tables.push(NttTable::new(p, n)?);
        }
        Self::with_tables(n, primes, tables.into())
    }

    /// The basis of the first `len` primes (`1 ≤ len ≤ k`): a BFV level.
    /// The NTT tables are shared with `self`; the CRT constants are
    /// those of `q_0 · … · q_{len−1}`.
    ///
    /// # Errors
    ///
    /// [`MathError::UnsupportedWidth`] for `len` outside `1..=k`.
    pub fn prefix(&self, len: usize) -> Result<Self, MathError> {
        if !(1..=self.len()).contains(&len) {
            return Err(MathError::UnsupportedWidth(len as u32));
        }
        Self::with_tables(
            self.n,
            self.primes[..len].to_vec(),
            Arc::clone(&self.tables),
        )
    }

    /// CRT precomputation over `primes`, whose tables are the first
    /// `primes.len()` of `tables`.
    fn with_tables(
        n: usize,
        primes: Vec<Modulus>,
        tables: Arc<[NttTable]>,
    ) -> Result<Self, MathError> {
        let mut q = UBig::one();
        for p in &primes {
            q = q.mul_u64(p.value());
        }
        let mut q_hats = Vec::with_capacity(primes.len());
        let mut q_hat_invs = Vec::with_capacity(primes.len());
        for p in &primes {
            let (q_hat, rem) = q.div_rem(&UBig::from_u64(p.value()));
            debug_assert!(rem.is_zero());
            let zp = Zp::new(*p)?;
            let hat_mod = q_hat.rem_u64(p.value());
            q_hat_invs.push(zp.inv(hat_mod)?);
            q_hats.push(q_hat);
        }
        Ok(RnsBasis {
            n,
            primes,
            tables,
            q,
            q_hats,
            q_hat_invs,
        })
    }

    /// Picks `count` distinct NTT-friendly primes of `bits` bits
    /// (scanning downward with step `2^two_adicity`) and builds the basis.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; errors if not enough primes exist.
    pub fn with_generated_primes(n: usize, bits: u32, count: usize) -> Result<Self, MathError> {
        let two_adicity = (2 * n).trailing_zeros();
        let primes = generate_ntt_primes(bits, two_adicity, count)?;
        Self::new(n, primes)
    }

    /// Ring degree `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The RNS primes.
    #[must_use]
    pub fn primes(&self) -> &[Modulus] {
        &self.primes
    }

    /// Number of primes `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// Whether the basis is empty (never, for a constructed basis).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// The full modulus `q`.
    #[must_use]
    pub fn q(&self) -> &UBig {
        &self.q
    }

    /// The NTT table for prime `i`.
    #[must_use]
    pub fn table(&self, i: usize) -> &NttTable {
        &self.tables[i]
    }

    /// Field context for prime `i`.
    #[must_use]
    pub fn zp(&self, i: usize) -> &Zp {
        self.tables[i].zp()
    }

    /// `q̂_i = q / q_i` for prime `i` (the CRT garner constant).
    #[must_use]
    pub fn q_hat(&self, i: usize) -> &UBig {
        &self.q_hats[i]
    }

    /// `[q̂_i^{-1}]_{q_i}` for prime `i`.
    #[must_use]
    pub fn q_hat_inv(&self, i: usize) -> u64 {
        self.q_hat_invs[i]
    }

    /// CRT-reconstructs one coefficient from its residues into `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != k`.
    #[must_use]
    pub fn crt_reconstruct(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let mut acc = UBig::zero();
        for (i, &r) in residues.iter().enumerate() {
            let zp = self.zp(i);
            let coeff = zp.mul(r, self.q_hat_invs[i]);
            acc = acc.add(&self.q_hats[i].mul_u64(coeff));
        }
        let (_, rem) = acc.div_rem(&self.q);
        rem
    }

    /// Reduces a non-negative big integer into RNS residues.
    #[must_use]
    pub fn reduce_bigint(&self, x: &UBig) -> Vec<u64> {
        self.primes.iter().map(|p| x.rem_u64(p.value())).collect()
    }

    /// Centered magnitude of a value in `[0, q)`: `min(x, q - x)`.
    #[must_use]
    pub fn centered_magnitude(&self, x: &UBig) -> UBig {
        let neg = self.q.sub(x);
        if x.cmp_big(&neg) == std::cmp::Ordering::Greater {
            neg
        } else {
            x.clone()
        }
    }
}

/// Scans downward for `count` distinct primes `≡ 1 (mod 2^two_adicity)`
/// of exactly `bits` bits.
pub(crate) fn generate_ntt_primes(
    bits: u32,
    two_adicity: u32,
    count: usize,
) -> Result<Vec<Modulus>, MathError> {
    if !(20..=62).contains(&bits) || two_adicity >= bits {
        return Err(MathError::UnsupportedWidth(bits));
    }
    let step = 1u64 << two_adicity;
    let mut candidate = (((1u64 << bits) - 1) >> two_adicity << two_adicity) + 1;
    let mut out = Vec::with_capacity(count);
    while out.len() < count && candidate > (1u64 << (bits - 1)) {
        if is_prime_u64(candidate) {
            out.push(Modulus::new(candidate)?);
        }
        candidate -= step;
    }
    if out.len() < count {
        return Err(MathError::UnsupportedWidth(bits));
    }
    Ok(out)
}

/// A polynomial in RNS representation.
///
/// `coeffs[i][j]` is coefficient `j` modulo prime `i`. The `is_ntt` flag
/// tracks the domain; mixing domains is a programming error and asserts.
#[derive(Debug, PartialEq, Eq)]
pub struct RnsPoly {
    coeffs: Vec<Vec<u64>>,
    is_ntt: bool,
}

/// Clones take their rows from [`crate::scratch`] (and return them
/// there on drop), so a warm clone allocates nothing.
impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        let rows = self.coeffs.len();
        let row_len = self.coeffs.first().map_or(0, Vec::len);
        let mut coeffs = crate::scratch::take_rows(rows, row_len);
        for (dst, src) in coeffs.iter_mut().zip(&self.coeffs) {
            dst.copy_from_slice(src);
        }
        RnsPoly {
            coeffs,
            is_ntt: self.is_ntt,
        }
    }
}

/// Dropping a polynomial recycles its coefficient rows through
/// [`crate::scratch`] for the next constructor to reuse.
impl Drop for RnsPoly {
    fn drop(&mut self) {
        if !self.coeffs.is_empty() {
            crate::scratch::put_rows(std::mem::take(&mut self.coeffs));
        }
    }
}

/// Shoup companions of an NTT-domain polynomial's rows (see
/// [`RnsPoly::shoup_rows`]); pooled through [`crate::scratch`] like
/// the rows of an [`RnsPoly`].
#[derive(Debug, PartialEq, Eq)]
pub struct ShoupRows {
    rows: Vec<Vec<u64>>,
}

impl Clone for ShoupRows {
    fn clone(&self) -> Self {
        let row_len = self.rows.first().map_or(0, Vec::len);
        let mut rows = crate::scratch::take_rows(self.rows.len(), row_len);
        for (dst, src) in rows.iter_mut().zip(&self.rows) {
            dst.copy_from_slice(src);
        }
        ShoupRows { rows }
    }
}

impl Drop for ShoupRows {
    fn drop(&mut self) {
        if !self.rows.is_empty() {
            crate::scratch::put_rows(std::mem::take(&mut self.rows));
        }
    }
}

impl RnsPoly {
    /// The zero polynomial (coefficient domain).
    #[must_use]
    pub fn zero(basis: &RnsBasis) -> Self {
        RnsPoly {
            coeffs: crate::scratch::take_rows_zeroed(basis.len(), basis.n()),
            is_ntt: false,
        }
    }

    /// A constant polynomial with the given value in every prime.
    #[must_use]
    pub fn constant(basis: &RnsBasis, value: u64) -> Self {
        let mut p = Self::zero(basis);
        for (i, row) in p.coeffs.iter_mut().enumerate() {
            row[0] = value % basis.zp(i).p();
        }
        p
    }

    /// Builds from per-coefficient non-negative big integers (`< q`).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    #[must_use]
    pub fn from_bigint_coeffs(basis: &RnsBasis, values: &[UBig]) -> Self {
        assert_eq!(values.len(), basis.n(), "coefficient count mismatch");
        let mut p = Self::zero(basis);
        let parallel = basis.n() >= PAR_MIN_RING_DEGREE;
        pasta_par::maybe_parallel_for_each_mut(parallel, &mut p.coeffs, |i, row| {
            let prime = basis.primes()[i].value();
            for (j, v) in values.iter().enumerate() {
                row[j] = v.rem_u64(prime);
            }
        });
        p
    }

    /// Builds directly from residue rows (`rows[i][j]` = coefficient `j`
    /// mod prime `i`) — the zero-copy constructor the RNS base-conversion
    /// kernels use. Residues must already be canonical.
    pub(crate) fn from_rows(rows: Vec<Vec<u64>>, is_ntt: bool) -> Self {
        RnsPoly {
            coeffs: rows,
            is_ntt,
        }
    }

    /// Builds from small unsigned coefficients (e.g. a plaintext poly,
    /// or one prime's residue row lifted to every prime).
    ///
    /// Division-free for the values these lifts see: a coefficient below
    /// `p` is copied and one below `2p` takes a single conditional
    /// subtraction; only larger values pay the hardware `%`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    #[must_use]
    pub fn from_u64_coeffs(basis: &RnsBasis, values: &[u64]) -> Self {
        assert_eq!(values.len(), basis.n(), "coefficient count mismatch");
        let mut p = Self::zero(basis);
        for (i, row) in p.coeffs.iter_mut().enumerate() {
            let prime = basis.zp(i).p();
            let two_p = prime.saturating_mul(2);
            for (r, &v) in row.iter_mut().zip(values) {
                *r = if v < two_p {
                    if v >= prime {
                        v - prime
                    } else {
                        v
                    }
                } else {
                    v % prime
                };
            }
        }
        p
    }

    /// Builds from small signed coefficients (secrets/errors).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != N`.
    #[must_use]
    pub fn from_signed_coeffs(basis: &RnsBasis, values: &[i64]) -> Self {
        assert_eq!(values.len(), basis.n(), "coefficient count mismatch");
        let mut p = Self::zero(basis);
        for (i, row) in p.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            for (j, &v) in values.iter().enumerate() {
                row[j] = zp.from_i128(i128::from(v));
            }
        }
        p
    }

    /// Uniformly random polynomial mod q (the `a` component of keys).
    #[must_use]
    pub fn random_uniform<R: Rng>(basis: &RnsBasis, rng: &mut R) -> Self {
        let mut p = Self::zero(basis);
        for (i, row) in p.coeffs.iter_mut().enumerate() {
            let modulus = basis.primes()[i].value();
            for c in row.iter_mut() {
                *c = rng.gen_range(0..modulus);
            }
        }
        p
    }

    /// Random ternary polynomial (coefficients in `{-1, 0, 1}`).
    #[must_use]
    pub fn random_ternary<R: Rng>(basis: &RnsBasis, rng: &mut R) -> Self {
        let signed: Vec<i64> = (0..basis.n()).map(|_| rng.gen_range(-1..=1)).collect();
        Self::from_signed_coeffs(basis, &signed)
    }

    /// Random error polynomial: centered binomial with parameter 4
    /// (range ±4, standard deviation √2).
    #[must_use]
    pub fn random_error<R: Rng>(basis: &RnsBasis, rng: &mut R) -> Self {
        let signed: Vec<i64> = (0..basis.n())
            .map(|_| {
                let bits: u8 = rng.gen();
                i64::from((bits & 0x0F).count_ones()) - i64::from((bits >> 4).count_ones())
            })
            .collect();
        Self::from_signed_coeffs(basis, &signed)
    }

    /// Whether the polynomial is in NTT (evaluation) domain.
    #[must_use]
    pub fn is_ntt(&self) -> bool {
        self.is_ntt
    }

    /// Residue row for prime `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.coeffs[i]
    }

    /// Number of residue rows: the polynomial lives over the basis
    /// prefix `q_0 … q_{level−1}`.
    #[must_use]
    pub fn level(&self) -> usize {
        self.coeffs.len()
    }

    /// Divides by the last prime `q_ℓ` of the polynomial's level with
    /// rounding and drops its row: the remaining rows hold
    /// `⌊(x + ⌊q_ℓ/2⌋)/q_ℓ⌋` for the integer `x` the rows represented.
    /// `inv_last[i]` is `[q_ℓ^{-1}]_{q_i}` with its Shoup companion in
    /// `inv_last_shoup[i]` — the SEAL `divide_and_round_q_last` step.
    ///
    /// # Panics
    ///
    /// Panics in NTT domain or on a one-row polynomial.
    pub(crate) fn divide_round_last(
        &mut self,
        basis: &RnsBasis,
        inv_last: &[u64],
        inv_last_shoup: &[u64],
    ) {
        assert!(!self.is_ntt, "rescaling requires coefficient domain");
        assert!(self.coeffs.len() > 1, "cannot drop the only prime");
        let mut last = self.coeffs.pop().unwrap_or_default();
        let last_zp = basis.zp(self.coeffs.len());
        let half = last_zp.p() >> 1;
        for x in &mut last {
            *x = last_zp.add(*x, half);
        }
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            let half_i = zp.from_u64(half);
            for (x, &l) in row.iter_mut().zip(&last) {
                let excess = zp.sub(zp.from_u64(l), half_i);
                *x = zp.mul_shoup(zp.sub(*x, excess), inv_last[i], inv_last_shoup[i]);
            }
        }
    }

    /// Converts to NTT domain in place (no-op if already there).
    ///
    /// Prime rows are independent, so for rings large enough to amortize
    /// a thread spawn the transforms run prime-parallel (see
    /// [`pasta_par`]; `PASTA_THREADS=1` forces serial, bit-identical).
    pub fn to_ntt(&mut self, basis: &RnsBasis) {
        if self.is_ntt {
            return;
        }
        let parallel = basis.n() >= PAR_MIN_RING_DEGREE;
        pasta_par::maybe_parallel_for_each_mut(parallel, &mut self.coeffs, |i, row| {
            basis.table(i).forward(row);
        });
        self.is_ntt = true;
    }

    /// Converts to coefficient domain in place (no-op if already there).
    /// Prime-parallel like [`RnsPoly::to_ntt`].
    pub fn to_coeff(&mut self, basis: &RnsBasis) {
        if !self.is_ntt {
            return;
        }
        let parallel = basis.n() >= PAR_MIN_RING_DEGREE;
        pasta_par::maybe_parallel_for_each_mut(parallel, &mut self.coeffs, |i, row| {
            basis.table(i).inverse(row);
        });
        self.is_ntt = false;
    }

    /// `self += other` in place (domains must match) — no allocation.
    ///
    /// # Panics
    ///
    /// Panics on domain or size mismatch.
    pub fn add_assign(&mut self, basis: &RnsBasis, other: &RnsPoly) {
        assert_eq!(self.is_ntt, other.is_ntt, "domain mismatch in add");
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            for (a, &b) in row.iter_mut().zip(other.coeffs[i].iter()) {
                *a = zp.add(*a, b);
            }
        }
    }

    /// `self -= other` in place (domains must match) — no allocation.
    ///
    /// # Panics
    ///
    /// Panics on domain or size mismatch.
    pub fn sub_assign(&mut self, basis: &RnsBasis, other: &RnsPoly) {
        assert_eq!(self.is_ntt, other.is_ntt, "domain mismatch in sub");
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            for (a, &b) in row.iter_mut().zip(other.coeffs[i].iter()) {
                *a = zp.sub(*a, b);
            }
        }
    }

    /// `self = -self` in place — no allocation.
    pub fn neg_assign(&mut self, basis: &RnsBasis) {
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            for a in row.iter_mut() {
                *a = zp.neg(*a);
            }
        }
    }

    /// `self ∘= other` pointwise in place (both in NTT domain) — no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn pointwise_mul_assign(&mut self, basis: &RnsBasis, other: &RnsPoly) {
        assert!(self.is_ntt && other.is_ntt, "ring mul requires NTT domain");
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            basis.table(i).pointwise_mul_assign(row, &other.coeffs[i]);
        }
    }

    /// Fused multiply–accumulate `self += a ∘ b` (all three in NTT
    /// domain) — the affine-layer accumulation primitive; allocates
    /// nothing and reads each input once.
    ///
    /// # Panics
    ///
    /// Panics if any operand is in coefficient domain.
    pub fn add_mul_assign(&mut self, basis: &RnsBasis, a: &RnsPoly, b: &RnsPoly) {
        assert!(
            self.is_ntt && a.is_ntt && b.is_ntt,
            "fused multiply-accumulate requires NTT domain"
        );
        let be = simd::backend();
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            simd::mac_mod_with(be, basis.zp(i).p(), row, &a.coeffs[i], &b.coeffs[i]);
        }
    }

    /// Per-prime Shoup companions (`⌊w·2⁶⁴/p_i⌋` for every residue) of
    /// this polynomial's rows, for the operand a multiply–accumulate
    /// reuses: relinearization and Galois key components, prepared
    /// plaintexts, and the NTT-domain ciphertexts an affine layer reads
    /// once per output row. The inner loops then run the SIMD Shoup
    /// kernels instead of a generic Barrett reduction.
    ///
    /// Residues must be canonical (they always are outside the lazy
    /// NTT interior).
    #[must_use]
    pub fn shoup_rows(&self, basis: &RnsBasis) -> ShoupRows {
        let row_len = self.coeffs.first().map_or(0, Vec::len);
        let mut rows = crate::scratch::take_rows(self.coeffs.len(), row_len);
        for (i, (dst, src)) in rows.iter_mut().zip(&self.coeffs).enumerate() {
            let zp = basis.zp(i);
            for (d, &w) in dst.iter_mut().zip(src) {
                *d = zp.shoup(w);
            }
        }
        ShoupRows { rows }
    }

    /// `self ∘= other` pointwise against a Shoup-prepared operand
    /// (`other_shoup` from [`RnsPoly::shoup_rows`]). Bit-identical to
    /// [`RnsPoly::pointwise_mul_assign`] — `mul_shoup` and the Barrett
    /// reducer agree on every canonical product — but dispatches to the
    /// SIMD backend.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    pub fn pointwise_mul_shoup_assign(
        &mut self,
        basis: &RnsBasis,
        other: &RnsPoly,
        other_shoup: &ShoupRows,
    ) {
        assert!(self.is_ntt && other.is_ntt, "ring mul requires NTT domain");
        let be = simd::backend();
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            simd::pointwise_mul_shoup_with(
                be,
                basis.zp(i).p(),
                row,
                &other.coeffs[i],
                &other_shoup.rows[i],
            );
        }
    }

    /// Fused multiply–accumulate `self += a ∘ b` against a
    /// Shoup-prepared `b` (`b_shoup` from [`RnsPoly::shoup_rows`]).
    /// Bit-identical to [`RnsPoly::add_mul_assign`], dispatched to the
    /// SIMD backend — the hoisted key-switch and cached-material affine
    /// accumulation primitive.
    ///
    /// # Panics
    ///
    /// Panics if any operand is in coefficient domain.
    pub fn add_mul_shoup_assign(
        &mut self,
        basis: &RnsBasis,
        a: &RnsPoly,
        b: &RnsPoly,
        b_shoup: &ShoupRows,
    ) {
        assert!(a.is_ntt, "fused multiply-accumulate requires NTT domain");
        for (i, a_row) in a.coeffs.iter().enumerate() {
            self.add_mul_shoup_row_assign(basis, i, a_row, b, b_shoup);
        }
    }

    /// Row `i` of [`RnsPoly::add_mul_shoup_assign`]: `self_i += a ∘ b_i`
    /// for one prime's NTT-domain row `a` (the periodic plaintext
    /// multiply builds it from a short transform).
    ///
    /// # Panics
    ///
    /// Panics if `self` or `b` is in coefficient domain.
    pub(crate) fn add_mul_shoup_row_assign(
        &mut self,
        basis: &RnsBasis,
        i: usize,
        a: &[u64],
        b: &RnsPoly,
        b_shoup: &ShoupRows,
    ) {
        assert!(
            self.is_ntt && b.is_ntt,
            "fused multiply-accumulate requires NTT domain"
        );
        simd::mac_shoup_with(
            simd::backend(),
            basis.zp(i).p(),
            &mut self.coeffs[i],
            a,
            &b.coeffs[i],
            &b_shoup.rows[i],
        );
    }

    /// Adds `c[i]` to the constant coefficient of prime row `i` — O(k)
    /// work, used to inject `Δ·scalar` constants without touching the
    /// other `N−1` coefficients.
    ///
    /// # Panics
    ///
    /// Panics in NTT domain (a constant is not slot-constant there) or
    /// if `c.len() != k`.
    pub fn add_assign_coeff0(&mut self, basis: &RnsBasis, c: &[u64]) {
        assert!(
            !self.is_ntt,
            "constant injection requires coefficient domain"
        );
        assert_eq!(c.len(), basis.len(), "per-prime scalar count mismatch");
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            row[0] = basis.zp(i).add(row[0], c[i]);
        }
    }

    /// `self ·= c` in place for a small scalar `c` (domain-agnostic).
    pub fn mul_scalar_assign(&mut self, basis: &RnsBasis, c: u64) {
        let be = simd::backend();
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            let cm = c % zp.p();
            let cm_shoup = zp.shoup(cm);
            simd::mul_const_shoup_with(be, zp.p(), cm, cm_shoup, row);
        }
    }

    /// `self ·= c` in place with `c` given per prime.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != k`.
    pub fn mul_scalar_rns_assign(&mut self, basis: &RnsBasis, c: &[u64]) {
        assert_eq!(c.len(), basis.len(), "per-prime scalar count mismatch");
        let be = simd::backend();
        for (i, row) in self.coeffs.iter_mut().enumerate() {
            let zp = basis.zp(i);
            let cm = c[i];
            let cm_shoup = zp.shoup(cm);
            simd::mul_const_shoup_with(be, zp.p(), cm, cm_shoup, row);
        }
    }

    /// `self + other` (domains must match).
    ///
    /// # Panics
    ///
    /// Panics on domain or size mismatch.
    #[must_use]
    pub fn add(&self, basis: &RnsBasis, other: &RnsPoly) -> RnsPoly {
        let mut out = self.clone();
        out.add_assign(basis, other);
        out
    }

    /// `self - other` (domains must match).
    ///
    /// # Panics
    ///
    /// Panics on domain or size mismatch.
    #[must_use]
    pub fn sub(&self, basis: &RnsBasis, other: &RnsPoly) -> RnsPoly {
        let mut out = self.clone();
        out.sub_assign(basis, other);
        out
    }

    /// `-self`.
    #[must_use]
    pub fn neg(&self, basis: &RnsBasis) -> RnsPoly {
        let mut out = self.clone();
        out.neg_assign(basis);
        out
    }

    /// `self · other` (both must be in NTT domain).
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain.
    #[must_use]
    pub fn mul(&self, basis: &RnsBasis, other: &RnsPoly) -> RnsPoly {
        let mut out = self.clone();
        out.pointwise_mul_assign(basis, other);
        out
    }

    /// `self · c` for a small scalar `c` (domain-agnostic).
    #[must_use]
    pub fn mul_scalar(&self, basis: &RnsBasis, c: u64) -> RnsPoly {
        let mut out = self.clone();
        out.mul_scalar_assign(basis, c);
        out
    }

    /// `self · c` where `c` is given per prime (e.g. `Δ mod q_i` or a
    /// CRT-reduced big constant).
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != k`.
    #[must_use]
    pub fn mul_scalar_rns(&self, basis: &RnsBasis, c: &[u64]) -> RnsPoly {
        let mut out = self.clone();
        out.mul_scalar_rns_assign(basis, c);
        out
    }

    /// Applies the Galois automorphism `X ↦ X^g` (requires coefficient
    /// domain; `g` must be odd so it is invertible mod `2N`).
    ///
    /// `X^{jg} = ±X^{jg mod N}` with a sign flip whenever
    /// `⌊jg/N⌋` is odd (negacyclic wraparound).
    ///
    /// # Panics
    ///
    /// Panics in NTT domain or for even `g`.
    #[must_use]
    pub fn automorphism(&self, basis: &RnsBasis, g: usize) -> RnsPoly {
        assert!(!self.is_ntt, "automorphism requires coefficient domain");
        assert!(g % 2 == 1, "Galois element must be odd");
        let n = basis.n();
        let mut out = RnsPoly::zero(basis);
        for (i, row) in self.coeffs.iter().enumerate() {
            let zp = basis.zp(i);
            for (j, &c) in row.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let e = (j * g) % (2 * n);
                if e < n {
                    out.coeffs[i][e] = zp.add(out.coeffs[i][e], c);
                } else {
                    out.coeffs[i][e - n] = zp.sub(out.coeffs[i][e - n], c);
                }
            }
        }
        out
    }

    /// Applies a precomputed Galois slot permutation in the NTT domain:
    /// `out.row(i)[j] = self.row(i)[perm[j]]` for every prime row.
    ///
    /// With `perm = galois_slot_permutation(N, g)` this computes
    /// `NTT(σ_g(a))` from `NTT(a)` in O(kN) table lookups — no
    /// transforms and no sign flips (odd ψ-exponents stay odd under
    /// `X ↦ X^g`). This is the per-rotation cost of a hoisted
    /// automorphism.
    ///
    /// # Panics
    ///
    /// Panics in coefficient domain or if `perm.len() != N`.
    #[must_use]
    pub fn permute_slots(&self, basis: &RnsBasis, perm: &[usize]) -> RnsPoly {
        assert!(self.is_ntt, "slot permutation requires NTT domain");
        assert_eq!(perm.len(), basis.n(), "permutation length mismatch");
        let mut coeffs = crate::scratch::take_rows(self.coeffs.len(), basis.n());
        for (dst, row) in coeffs.iter_mut().zip(&self.coeffs) {
            for (d, &s) in dst.iter_mut().zip(perm.iter()) {
                *d = row[s];
            }
        }
        RnsPoly {
            coeffs,
            is_ntt: true,
        }
    }

    /// CRT-reconstructs all coefficients (input must be in coefficient
    /// domain) into `[0, q)` big integers.
    ///
    /// # Panics
    ///
    /// Panics if called in NTT domain.
    #[must_use]
    pub fn to_bigint_coeffs(&self, basis: &RnsBasis) -> Vec<UBig> {
        assert!(
            !self.is_ntt,
            "CRT reconstruction requires coefficient domain"
        );
        let indices: Vec<usize> = (0..basis.n()).collect();
        let parallel = basis.n() >= PAR_MIN_RING_DEGREE;
        pasta_par::maybe_parallel_map(parallel, &indices, |_, &j| {
            let residues: Vec<u64> = (0..basis.len()).map(|i| self.coeffs[i][j]).collect();
            basis.crt_reconstruct(&residues)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn basis() -> RnsBasis {
        RnsBasis::with_generated_primes(64, 50, 3).unwrap()
    }

    #[test]
    fn prime_generation_distinct_and_ntt_friendly() {
        let primes = generate_ntt_primes(50, 8, 5).unwrap();
        assert_eq!(primes.len(), 5);
        for (i, p) in primes.iter().enumerate() {
            assert_eq!(p.bits(), 50);
            assert_eq!((p.value() - 1) % 256, 0);
            assert!(!primes[..i].contains(p));
        }
    }

    #[test]
    fn crt_roundtrip() {
        let b = basis();
        let x = UBig::from_u128(0x1234_5678_9ABC_DEF0_1122_3344u128);
        let residues = b.reduce_bigint(&x);
        assert_eq!(b.crt_reconstruct(&residues), x);
        // Extremes.
        let top = b.q().sub(&UBig::one());
        assert_eq!(b.crt_reconstruct(&b.reduce_bigint(&top)), top);
        assert_eq!(
            b.crt_reconstruct(&b.reduce_bigint(&UBig::zero())),
            UBig::zero()
        );
    }

    #[test]
    fn ntt_roundtrip_preserves_poly() {
        let b = basis();
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = RnsPoly::random_uniform(&b, &mut rng);
        let orig = p.clone();
        p.to_ntt(&b);
        assert!(p.is_ntt());
        p.to_coeff(&b);
        assert_eq!(p, orig);
    }

    #[test]
    fn ring_mul_matches_bigint_schoolbook() {
        // Multiply two small polys and verify the negacyclic product via
        // per-prime schoolbook.
        let b = basis();
        let a_coeffs: Vec<u64> = (0..64u64).map(|i| i + 1).collect();
        let c_coeffs: Vec<u64> = (0..64u64).map(|i| 2 * i + 3).collect();
        let mut a = RnsPoly::from_u64_coeffs(&b, &a_coeffs);
        let mut c = RnsPoly::from_u64_coeffs(&b, &c_coeffs);
        a.to_ntt(&b);
        c.to_ntt(&b);
        let mut prod = a.mul(&b, &c);
        prod.to_coeff(&b);
        for i in 0..b.len() {
            let zp = b.zp(i);
            let reference = crate::ntt::negacyclic_mul_schoolbook(
                zp,
                &a_coeffs.iter().map(|&x| x % zp.p()).collect::<Vec<_>>(),
                &c_coeffs.iter().map(|&x| x % zp.p()).collect::<Vec<_>>(),
            );
            assert_eq!(prod.row(i), &reference[..], "prime {i}");
        }
    }

    #[test]
    fn signed_coeffs_centered() {
        let b = basis();
        let p = RnsPoly::from_signed_coeffs(&b, &vec![-1i64; 64]);
        for i in 0..b.len() {
            assert!(p.row(i).iter().all(|&c| c == b.zp(i).p() - 1));
        }
        // CRT of -1 must be q - 1.
        let big = p.to_bigint_coeffs(&b);
        assert_eq!(big[0], b.q().sub(&UBig::one()));
    }

    #[test]
    fn ternary_and_error_ranges() {
        let b = basis();
        let mut rng = StdRng::seed_from_u64(42);
        let t = RnsPoly::random_ternary(&b, &mut rng);
        let q0 = b.zp(0).p();
        for &c in t.row(0) {
            assert!(c == 0 || c == 1 || c == q0 - 1, "ternary out of range: {c}");
        }
        let e = RnsPoly::random_error(&b, &mut rng);
        for &c in e.row(0) {
            let centered = if c > q0 / 2 {
                (q0 - c) as i64
            } else {
                c as i64
            };
            assert!(centered.abs() <= 4, "error out of range: {centered}");
        }
    }

    #[test]
    fn add_sub_neg_identities() {
        let b = basis();
        let mut rng = StdRng::seed_from_u64(1);
        let x = RnsPoly::random_uniform(&b, &mut rng);
        let y = RnsPoly::random_uniform(&b, &mut rng);
        assert_eq!(x.add(&b, &y).sub(&b, &y), x);
        assert_eq!(x.add(&b, &x.neg(&b)), RnsPoly::zero(&b));
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = basis();
        let x = RnsPoly::from_u64_coeffs(&b, &(0..64u64).collect::<Vec<_>>());
        let tripled = x.mul_scalar(&b, 3);
        assert_eq!(tripled, x.add(&b, &x).add(&b, &x));
    }

    #[test]
    fn assign_ops_match_cloning_ops() {
        let b = basis();
        let mut rng = StdRng::seed_from_u64(9);
        let x = RnsPoly::random_uniform(&b, &mut rng);
        let y = RnsPoly::random_uniform(&b, &mut rng);

        let mut a = x.clone();
        a.add_assign(&b, &y);
        assert_eq!(a, x.add(&b, &y));

        let mut s = x.clone();
        s.sub_assign(&b, &y);
        assert_eq!(s, x.sub(&b, &y));

        let mut n = x.clone();
        n.neg_assign(&b);
        assert_eq!(n, x.neg(&b));

        let mut m = x.clone();
        m.mul_scalar_assign(&b, 12_345);
        assert_eq!(m, x.mul_scalar(&b, 12_345));

        let per_prime: Vec<u64> = (0..b.len() as u64).map(|i| i * 7 + 3).collect();
        let mut mr = x.clone();
        mr.mul_scalar_rns_assign(&b, &per_prime);
        assert_eq!(mr, x.mul_scalar_rns(&b, &per_prime));

        let (mut nx, mut ny) = (x.clone(), y.clone());
        nx.to_ntt(&b);
        ny.to_ntt(&b);
        let mut pm = nx.clone();
        pm.pointwise_mul_assign(&b, &ny);
        assert_eq!(pm, nx.mul(&b, &ny));
    }

    #[test]
    fn fused_mac_matches_mul_then_add() {
        let b = basis();
        let mut rng = StdRng::seed_from_u64(10);
        let mut acc = RnsPoly::random_uniform(&b, &mut rng);
        let mut x = RnsPoly::random_uniform(&b, &mut rng);
        let mut y = RnsPoly::random_uniform(&b, &mut rng);
        acc.to_ntt(&b);
        x.to_ntt(&b);
        y.to_ntt(&b);
        let expect = acc.add(&b, &x.mul(&b, &y));
        let mut fused = acc.clone();
        fused.add_mul_assign(&b, &x, &y);
        assert_eq!(fused, expect);
    }

    #[test]
    fn parallel_transforms_match_serial() {
        // A ring degree above the parallel threshold, crossing the
        // thread override with the SIMD backend override: every
        // (threads × backend) combination must produce bit-identical
        // transforms. A backend the CPU lacks falls back to a slower
        // one, so without AVX2 the test degenerates to the thread-only
        // check.
        let b = RnsBasis::with_generated_primes(2048, 50, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let poly = RnsPoly::random_uniform(&b, &mut rng);
        let mut outputs = Vec::new();
        for threads in ["1", "4"] {
            for backend in simd::Backend::ALL {
                std::env::set_var(pasta_par::THREADS_ENV, threads);
                let got = simd::force_backend(Some(backend));
                let mut fwd = poly.clone();
                fwd.to_ntt(&b);
                let mut round = fwd.clone();
                round.to_coeff(&b);
                outputs.push((threads, got.label(), fwd, round));
            }
        }
        simd::force_backend(None);
        std::env::remove_var(pasta_par::THREADS_ENV);
        let (_, _, fwd0, round0) = &outputs[0];
        assert_eq!(round0, &poly, "NTT round-trip must be the identity");
        for (threads, backend, fwd, round) in &outputs[1..] {
            assert_eq!(
                fwd, fwd0,
                "forward NTT differs for threads={threads}, backend={backend}"
            );
            assert_eq!(
                round, round0,
                "inverse NTT differs for threads={threads}, backend={backend}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn domain_mismatch_asserts() {
        let b = basis();
        let x = RnsPoly::constant(&b, 1);
        let mut y = RnsPoly::constant(&b, 2);
        y.to_ntt(&b);
        let _ = x.add(&b, &y);
    }

    #[test]
    fn centered_magnitude() {
        let b = basis();
        assert_eq!(b.centered_magnitude(&UBig::one()), UBig::one());
        let near_q = b.q().sub(&UBig::from_u64(5));
        assert_eq!(b.centered_magnitude(&near_q), UBig::from_u64(5));
    }
}
