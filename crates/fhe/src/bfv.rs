//! The BFV fully homomorphic encryption scheme (textbook BFV with RNS
//! ciphertexts, full-RNS ciphertext multiplication, and
//! RNS-decomposition relinearization).
//!
//! Ciphertext multiplication runs the BEHZ fast-base-conversion path of
//! [`crate::rns_mul`] — per-prime 64-bit arithmetic end to
//! end. The original exact big-integer tensor path is retained as
//! [`crate::oracle::MulOracle`], the reference implementation the tests
//! check decrypt-equality against by calling it directly.
//!
//! This is the server-side substrate of the HHE workflow (paper Fig. 1):
//! the client FHE-encrypts the PASTA key once; the server homomorphically
//! evaluates PASTA decryption to transcipher symmetric ciphertexts into
//! BFV ciphertexts. Parameters here are chosen for *functional* noise
//! budgets, not for a security level — the paper's client-side scope does
//! not depend on server parameters, and we document this substitution in
//! DESIGN.md.

use crate::bigint::UBig;
use crate::ntt::galois_slot_permutation;
use crate::ring::{RnsBasis, RnsPoly, ShoupRows};
use crate::rns_mul::RnsMulContext;
use pasta_math::{MathError, Modulus, Zp};
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Errors from the FHE substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FheError {
    /// Underlying arithmetic error.
    Math(MathError),
    /// Parameter validation failure.
    InvalidParams(String),
    /// Operation on incompatible ciphertexts (size/domain).
    Incompatible(String),
    /// The noise budget is exhausted (decryption would be wrong).
    NoiseBudgetExhausted,
}

impl fmt::Display for FheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FheError::Math(e) => write!(f, "arithmetic error: {e}"),
            FheError::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            FheError::Incompatible(m) => write!(f, "incompatible operands: {m}"),
            FheError::NoiseBudgetExhausted => write!(f, "noise budget exhausted"),
        }
    }
}

impl Error for FheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FheError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MathError> for FheError {
    fn from(e: MathError) -> Self {
        FheError::Math(e)
    }
}

/// BFV parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfvParams {
    /// Ring degree `N` (power of two).
    pub n: usize,
    /// Plaintext modulus `t` (must satisfy `2N | t - 1` for batching).
    pub plain_modulus: Modulus,
    /// Bits per RNS ciphertext prime.
    pub prime_bits: u32,
    /// Number of RNS ciphertext primes `k`.
    pub prime_count: usize,
}

impl BfvParams {
    /// Demo parameters sized for transciphering PASTA-4 (t = 32, 4
    /// rounds): `N = 2048`, `t = 65537`, `q ≈ 330` bits.
    ///
    /// **Not secure** — `N` is far too small for this `q`; chosen for
    /// functional end-to-end demonstrations.
    #[must_use]
    pub fn transcipher_demo() -> Self {
        BfvParams {
            n: 2_048,
            plain_modulus: Modulus::PASTA_17_BIT,
            prime_bits: 55,
            prime_count: 6,
        }
    }

    /// Tiny parameters for fast unit tests (`N = 256`, `q ≈ 200` bits).
    #[must_use]
    pub fn test_tiny() -> Self {
        BfvParams {
            n: 256,
            plain_modulus: Modulus::PASTA_17_BIT,
            prime_bits: 50,
            prime_count: 4,
        }
    }
}

/// The BFV context: basis, plaintext field, Δ, relinearization and
/// multiplication precomputation.
///
/// A ciphertext's **level** is the number of primes it is held over: a
/// prefix `q_0 … q_{ℓ−1}` of the basis. Every ciphertext starts at the
/// top level `k`; [`BfvContext::mod_switch_to`] divides and rounds it
/// down to a shorter prefix, which shrinks it by `k/ℓ` without moving its
/// noise budget while the noise stays above the rounding floor (see
/// [`crate::noise::NoiseModel::after_mod_switch`]). Decryption, the
/// noise budget and the public-constant adds work at any level; the
/// multiplicative operations (tensor, relinearization, Galois
/// key-switching) need the top level, and binary operations refuse
/// operands at different levels.
#[derive(Debug, Clone)]
pub struct BfvContext {
    params: BfvParams,
    basis: RnsBasis,
    /// Fast base conversion for full-RNS multiplication.
    rns_mul: RnsMulContext,
    plain: Zp,
    /// `γ_j mod q_i` where `γ_j = q̂_j·[q̂_j^{-1}]_{q_j}` (relin bases).
    gamma_rns: Vec<Vec<u64>>,
    /// Levels `1 … k`, index `ℓ − 1`; the last is the top level.
    levels: Vec<Level>,
}

/// The constants of one level `ℓ`: what decryption, the constant adds
/// and the switch down to it need.
#[derive(Debug, Clone)]
struct Level {
    /// The prefix basis `q_0 … q_{ℓ−1}` (NTT tables shared).
    basis: RnsBasis,
    /// `Δ_ℓ mod q_i`, with `Δ_ℓ = ⌊Q_ℓ/t⌋` for the prefix product `Q_ℓ`.
    delta_rns: Vec<u64>,
    /// `[q_ℓ^{-1}]_{q_i}` for the prime dropped to reach this level,
    /// with Shoup companions (empty at the top level).
    dropped_inv: Vec<u64>,
    dropped_inv_shoup: Vec<u64>,
}

impl BfvContext {
    /// Builds a context (generates RNS primes, NTT tables, CRT and
    /// relinearization constants).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if the ring/moduli are
    /// inconsistent (e.g. batching impossible or not enough primes).
    pub fn new(params: BfvParams) -> Result<Self, FheError> {
        if !params.n.is_power_of_two() || params.n < 8 {
            return Err(FheError::InvalidParams(format!(
                "bad ring degree {}",
                params.n
            )));
        }
        let basis =
            RnsBasis::with_generated_primes(params.n, params.prime_bits, params.prime_count)
                .map_err(FheError::from)?;
        let rns_mul =
            RnsMulContext::new(&basis, params.plain_modulus.value()).map_err(FheError::from)?;

        let plain = Zp::new(params.plain_modulus).map_err(FheError::from)?;
        // γ_j = q̂_j · [q̂_j^{-1}]_{q_j}: reconstruct via CRT of the unit
        // vector e_j.
        let k = basis.len();
        let mut gamma_rns = Vec::with_capacity(k);
        for j in 0..k {
            let mut unit = vec![0u64; k];
            unit[j] = 1;
            let gamma = basis.crt_reconstruct(&unit);
            gamma_rns.push(basis.reduce_bigint(&gamma));
        }
        let levels = (1..=k)
            .map(|len| -> Result<Level, FheError> {
                let prefix = basis.prefix(len)?;
                let (delta, _) = prefix.q().div_rem(&UBig::from_u64(plain.p()));
                let delta_rns = prefix.reduce_bigint(&delta);
                let mut dropped_inv = Vec::with_capacity(len);
                let mut dropped_inv_shoup = Vec::with_capacity(len);
                if let Some(dropped) = basis.primes().get(len) {
                    for i in 0..len {
                        let zp = basis.zp(i);
                        let inv = zp.inv(zp.from_u64(dropped.value()))?;
                        dropped_inv.push(inv);
                        dropped_inv_shoup.push(zp.shoup(inv));
                    }
                }
                Ok(Level {
                    basis: prefix,
                    delta_rns,
                    dropped_inv,
                    dropped_inv_shoup,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(BfvContext {
            params,
            basis,
            rns_mul,
            plain,
            gamma_rns,
            levels,
        })
    }

    /// The constants of `level`, or `None` outside `1..=k`.
    fn level(&self, level: usize) -> Option<&Level> {
        self.levels.get(level.checked_sub(1)?)
    }

    /// The constants of the top level.
    fn top(&self) -> &Level {
        &self.levels[self.levels.len() - 1]
    }

    /// The constants of `ct`'s level.
    ///
    /// # Panics
    ///
    /// Panics if `ct` was not produced under this context's basis.
    fn level_of(&self, ct: &Ciphertext) -> &Level {
        self.level(ct.level()).unwrap_or_else(|| {
            // audit: allow(panic, reason = "a ciphertext of another context's basis is a caller bug; the row indexing of every kernel would panic on it anyway")
            panic!(
                "ciphertext level {} is not a prefix of the basis",
                ct.level()
            )
        })
    }

    /// Bits of the level-`level` modulus `q_0 · … · q_{level−1}` (`0`
    /// outside `1..=k`) — what the noise model's level step needs.
    #[must_use]
    pub fn level_q_bits(&self, level: usize) -> usize {
        self.level(level).map_or(0, |l| l.basis.q().bits())
    }

    /// Divides and rounds `ct` down to `level` primes — SEAL's
    /// `mod_switch_to_next` repeated: each step maps every component
    /// `c ↦ ⌊(c + ⌊q_last/2⌋)/q_last⌋` over the remaining primes and drops
    /// the last prime's row. The result decrypts to the same plaintext
    /// while its noise stays above the rounding floor
    /// ([`crate::noise::NoiseModel::after_mod_switch`]), and is `k/level`
    /// times smaller. Components end in coefficient domain.
    ///
    /// # Errors
    ///
    /// [`FheError::Incompatible`] unless `1 ≤ level ≤ ct.level()`.
    pub fn mod_switch_to(&self, ct: &mut Ciphertext, level: usize) -> Result<(), FheError> {
        if level == 0 || level > ct.level() {
            return Err(FheError::Incompatible(format!(
                "cannot switch a level-{} ciphertext to level {level}",
                ct.level()
            )));
        }
        for poly in &mut ct.polys {
            poly.to_coeff(&self.basis);
            while poly.level() > level {
                let to = &self.levels[poly.level() - 2];
                poly.divide_round_last(&self.basis, &to.dropped_inv, &to.dropped_inv_shoup);
            }
        }
        Ok(())
    }

    /// Refuses operands at different levels.
    fn same_level(a: &Ciphertext, b: &Ciphertext) -> Result<(), FheError> {
        if a.level() == b.level() {
            return Ok(());
        }
        Err(FheError::Incompatible(format!(
            "operands at levels {} and {}",
            a.level(),
            b.level()
        )))
    }

    /// Refuses an accumulator or prepared operand below the top level
    /// (the single-use plaintexts are lifted to every prime).
    fn top_level_prepared(
        &self,
        acc: &Ciphertext,
        ct: &PreparedCiphertext,
    ) -> Result<(), FheError> {
        self.top_level(acc, "a plaintext multiply-accumulate")?;
        if ct.polys.iter().all(|p| p.level() == acc.level()) {
            return Ok(());
        }
        Err(FheError::Incompatible(
            "prepared operand is not at the accumulator's level".into(),
        ))
    }

    /// Refuses a ciphertext below the top level (the multiplicative
    /// operations' keys and base conversions live there).
    fn top_level(&self, ct: &Ciphertext, op: &str) -> Result<(), FheError> {
        if ct.level() == self.basis.len() {
            return Ok(());
        }
        Err(FheError::Incompatible(format!(
            "{op} needs a top-level ciphertext ({} primes), got level {}",
            self.basis.len(),
            ct.level()
        )))
    }

    /// The parameter set.
    #[must_use]
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The RNS basis.
    #[must_use]
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// Plaintext field `Z_t`.
    #[must_use]
    pub fn plain(&self) -> &Zp {
        &self.plain
    }

    /// Total ciphertext modulus bits.
    #[must_use]
    pub fn q_bits(&self) -> usize {
        self.basis.q().bits()
    }

    /// Generates a secret key (ternary).
    #[must_use]
    pub fn generate_secret_key<R: Rng>(&self, rng: &mut R) -> BfvSecretKey {
        let mut s = RnsPoly::random_ternary(&self.basis, rng);
        s.to_ntt(&self.basis);
        BfvSecretKey { s }
    }

    /// Generates a public key for `sk`.
    #[must_use]
    pub fn generate_public_key<R: Rng>(&self, sk: &BfvSecretKey, rng: &mut R) -> BfvPublicKey {
        let mut a = RnsPoly::random_uniform(&self.basis, rng);
        a.to_ntt(&self.basis);
        let mut e = RnsPoly::random_error(&self.basis, rng);
        e.to_ntt(&self.basis);
        // b = -(a·s + e)
        let b = a
            .mul(&self.basis, &sk.s)
            .add(&self.basis, &e)
            .neg(&self.basis);
        BfvPublicKey { b, a }
    }

    /// Generates a relinearization key (RNS decomposition, one component
    /// per ciphertext prime).
    #[must_use]
    pub fn generate_relin_key<R: Rng>(&self, sk: &BfvSecretKey, rng: &mut R) -> BfvRelinKey {
        let s2 = sk.s.mul(&self.basis, &sk.s);
        let mut components = Vec::with_capacity(self.basis.len());
        for gamma in &self.gamma_rns {
            let mut a = RnsPoly::random_uniform(&self.basis, rng);
            a.to_ntt(&self.basis);
            let mut e = RnsPoly::random_error(&self.basis, rng);
            e.to_ntt(&self.basis);
            // b = -(a·s + e) + γ_j·s²
            let b = s2
                .mul_scalar_rns(&self.basis, gamma)
                .sub(&self.basis, &a.mul(&self.basis, &sk.s).add(&self.basis, &e));
            components.push((b, a));
        }
        let components_shoup = components
            .iter()
            .map(|(b, a)| (b.shoup_rows(&self.basis), a.shoup_rows(&self.basis)))
            .collect();
        BfvRelinKey {
            components,
            components_shoup,
        }
    }

    /// Encodes a scalar into a constant plaintext polynomial.
    #[must_use]
    pub fn encode_scalar(&self, value: u64) -> Plaintext {
        let mut coeffs = vec![0u64; self.params.n];
        coeffs[0] = value % self.plain.p();
        Plaintext { coeffs }
    }

    /// Encrypts a plaintext under the public key.
    #[must_use]
    pub fn encrypt<R: Rng>(&self, pk: &BfvPublicKey, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let mut u = RnsPoly::random_ternary(&self.basis, rng);
        u.to_ntt(&self.basis);
        let mut e1 = RnsPoly::random_error(&self.basis, rng);
        let mut e2 = RnsPoly::random_error(&self.basis, rng);
        let mut c0 = pk.b.mul(&self.basis, &u);
        let mut c1 = pk.a.mul(&self.basis, &u);
        c0.to_coeff(&self.basis);
        c1.to_coeff(&self.basis);
        e1.to_coeff(&self.basis);
        e2.to_coeff(&self.basis);
        let dm = self.delta_times_plain(pt);
        let c0 = c0.add(&self.basis, &e1).add(&self.basis, &dm);
        let c1 = c1.add(&self.basis, &e2);
        Ciphertext {
            polys: vec![c0, c1],
        }
    }

    /// Encrypts the zero-noise "trivial" ciphertext `(Δ·m, 0)` — useful
    /// for injecting public constants into homomorphic computations.
    #[must_use]
    pub fn encrypt_trivial(&self, pt: &Plaintext) -> Ciphertext {
        let c0 = self.delta_times_plain(pt);
        let c1 = RnsPoly::zero(&self.basis);
        Ciphertext {
            polys: vec![c0, c1],
        }
    }

    fn delta_times_plain(&self, pt: &Plaintext) -> RnsPoly {
        self.delta_times_plain_at(pt, self.top())
    }

    /// `Δ_ℓ·m` over the level's primes.
    fn delta_times_plain_at(&self, pt: &Plaintext, level: &Level) -> RnsPoly {
        let mut m = RnsPoly::from_u64_coeffs(&level.basis, &pt.coeffs);
        m.mul_scalar_rns_assign(&level.basis, &level.delta_rns);
        m
    }

    /// Pre-encodes a plaintext for repeated multiplication: the
    /// NTT-domain polynomial and the Shoup companions of its rows.
    ///
    /// The encode + forward-NTT cost is paid once here instead of on
    /// every [`BfvContext::mul_plain`] call — what the mux key masks and
    /// the packed lane masks, each multiplied many times, rely on.
    #[must_use]
    pub fn prepare_plaintext(&self, pt: &Plaintext) -> PreparedPlaintext {
        let mut ntt = RnsPoly::from_u64_coeffs(&self.basis, &pt.coeffs);
        ntt.to_ntt(&self.basis);
        let ntt_shoup = ntt.shoup_rows(&self.basis);
        PreparedPlaintext { ntt, ntt_shoup }
    }

    /// Decrypts a ciphertext (2 or 3 components) at any level.
    #[must_use]
    pub fn decrypt(&self, sk: &BfvSecretKey, ct: &Ciphertext) -> Plaintext {
        let q = self.level_of(ct).basis.q();
        let phase = self.phase(sk, ct);
        let t = self.plain.p();
        let coeffs = phase
            .iter()
            .map(|x| {
                // m = round(t·x / q) mod t
                let scaled = x.mul_u64(t).div_round(q);
                scaled.rem_u64(t)
            })
            .collect();
        Plaintext { coeffs }
    }

    /// The decryption phase `[c0 + c1·s (+ c2·s²)]_q` as big integers,
    /// over the ciphertext's level (the key's rows are a superset).
    fn phase(&self, sk: &BfvSecretKey, ct: &Ciphertext) -> Vec<UBig> {
        assert!(
            (2..=3).contains(&ct.polys.len()),
            "ciphertext must have 2 or 3 components"
        );
        let basis = &self.level_of(ct).basis;
        let mut acc = ct.polys[0].clone();
        acc.to_ntt(basis);
        let mut c1 = ct.polys[1].clone();
        c1.to_ntt(basis);
        acc = acc.add(basis, &c1.mul(basis, &sk.s));
        if ct.polys.len() == 3 {
            let mut c2 = ct.polys[2].clone();
            c2.to_ntt(basis);
            let s2 = sk.s.mul(&self.basis, &sk.s);
            acc = acc.add(basis, &c2.mul(basis, &s2));
        }
        acc.to_coeff(basis);
        acc.to_bigint_coeffs(basis)
    }

    /// The invariant noise budget in bits, at the ciphertext's level:
    /// `log₂ q − log₂‖[t·(c₀ + c₁s)]_q‖∞ − 1`, clamped at `0` (SEAL's
    /// `invariant_noise_budget`; Chen–Laine–Player, "Simple Encrypted
    /// Arithmetic Library 2.1", 2017).
    ///
    /// `[t·phase]_q = q·v` for the invariant noise `v`, which includes
    /// the `Δ = ⌊q/t⌋` rounding term `−(q mod t)·m`, and decryption is
    /// right exactly while `‖v‖∞ < 1/2`. The reading is therefore `0` from
    /// the point where the noise passes `Δ/2`, so a wrong decryption
    /// reads `0`. Computed exactly, from the bit lengths of `q` and of the
    /// worst coefficient; [`crate::noise::NoiseModel::predicted_budget`]
    /// is a lower bound on it.
    #[must_use]
    pub fn noise_budget(&self, sk: &BfvSecretKey, ct: &Ciphertext) -> u32 {
        let basis = &self.level_of(ct).basis;
        let t = self.plain.p();
        let worst = self
            .phase(sk, ct)
            .iter()
            .map(|x| {
                let scaled = x.mul_u64(t).div_rem(basis.q()).1;
                basis.centered_magnitude(&scaled).bits()
            })
            .max()
            .unwrap_or(0);
        (basis.q().bits().saturating_sub(worst + 1)) as u32
    }

    /// Homomorphic addition.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on component-count mismatch.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, FheError> {
        if a.polys.len() != b.polys.len() {
            return Err(FheError::Incompatible("component count differs".into()));
        }
        Self::same_level(a, b)?;
        let polys = a
            .polys
            .iter()
            .zip(b.polys.iter())
            .map(|(x, y)| {
                let (mut x, mut y) = (x.clone(), y.clone());
                x.to_coeff(&self.basis);
                y.to_coeff(&self.basis);
                x.add(&self.basis, &y)
            })
            .collect();
        Ok(Ciphertext { polys })
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on component-count mismatch.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, FheError> {
        let neg = Ciphertext {
            polys: b.polys.iter().map(|p| p.neg(&self.basis)).collect(),
        };
        self.add(a, &neg)
    }

    /// In-place homomorphic addition `a += b` — no per-component clones
    /// of `a`. (`b` is only cloned per component if it needs a domain
    /// conversion, which the server hot paths never trigger.)
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on component-count mismatch.
    pub fn add_assign(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<(), FheError> {
        if a.polys.len() != b.polys.len() {
            return Err(FheError::Incompatible("component count differs".into()));
        }
        Self::same_level(a, b)?;
        for (x, y) in a.polys.iter_mut().zip(b.polys.iter()) {
            x.to_coeff(&self.basis);
            if y.is_ntt() {
                let mut y = y.clone();
                y.to_coeff(&self.basis);
                x.add_assign(&self.basis, &y);
            } else {
                x.add_assign(&self.basis, y);
            }
        }
        Ok(())
    }

    /// In-place homomorphic subtraction `a -= b` (see
    /// [`BfvContext::add_assign`]).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on component-count mismatch.
    pub fn sub_assign(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<(), FheError> {
        if a.polys.len() != b.polys.len() {
            return Err(FheError::Incompatible("component count differs".into()));
        }
        Self::same_level(a, b)?;
        for (x, y) in a.polys.iter_mut().zip(b.polys.iter()) {
            x.to_coeff(&self.basis);
            if y.is_ntt() {
                let mut y = y.clone();
                y.to_coeff(&self.basis);
                x.sub_assign(&self.basis, &y);
            } else {
                x.sub_assign(&self.basis, y);
            }
        }
        Ok(())
    }

    /// In-place homomorphic negation (domain-agnostic).
    pub fn neg_assign(&self, ct: &mut Ciphertext) {
        for p in &mut ct.polys {
            p.neg_assign(&self.basis);
        }
    }

    /// Adds the public scalar `Δ·value` to the ciphertext in place —
    /// O(k) work (one constant coefficient per prime) instead of a full
    /// plaintext encode. This is how a symmetric-ciphertext element
    /// enters `Enc(m) = Δ·c − Enc(KS)`.
    pub fn add_scalar_assign(&self, ct: &mut Ciphertext, value: u64) {
        let v = value % self.plain.p();
        let level = self.level_of(ct);
        let dv: Vec<u64> = level
            .delta_rns
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let zp = self.basis.zp(i);
                zp.mul(d, v % zp.p())
            })
            .collect();
        ct.polys[0].to_coeff(&self.basis);
        ct.polys[0].add_assign_coeff0(&level.basis, &dv);
    }

    /// Adds a plaintext to a ciphertext (`c0 += Δ·m`).
    #[must_use]
    pub fn add_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let mut out = ct.clone();
        self.add_plain_assign(&mut out, pt);
        out
    }

    /// In-place [`BfvContext::add_plain`] (`c0 += Δ·m`): a single-use
    /// plaintext costs one lift and one scalar multiply, no NTT.
    pub fn add_plain_assign(&self, ct: &mut Ciphertext, pt: &Plaintext) {
        let dm = self.delta_times_plain_at(pt, self.level_of(ct));
        ct.polys[0].to_coeff(&self.basis);
        ct.polys[0].add_assign(&self.basis, &dm);
    }

    /// Multiplies a ciphertext by a plaintext polynomial.
    #[must_use]
    pub fn mul_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let mut m = RnsPoly::from_u64_coeffs(&self.basis, &pt.coeffs);
        m.to_ntt(&self.basis);
        let polys = ct
            .polys
            .iter()
            .map(|p| {
                let mut r = p.clone();
                r.to_ntt(&self.basis);
                r.pointwise_mul_assign(&self.basis, &m);
                r.to_coeff(&self.basis);
                r
            })
            .collect();
        Ciphertext { polys }
    }

    /// [`BfvContext::mul_plain`] from a prepared plaintext: skips the
    /// per-call encode + forward NTT of the plaintext.
    #[must_use]
    pub fn mul_plain_prepared(&self, ct: &Ciphertext, prep: &PreparedPlaintext) -> Ciphertext {
        let polys = ct
            .polys
            .iter()
            .map(|p| {
                let mut r = p.clone();
                r.to_ntt(&self.basis);
                r.pointwise_mul_shoup_assign(&self.basis, &prep.ntt, &prep.ntt_shoup);
                r.to_coeff(&self.basis);
                r
            })
            .collect();
        Ciphertext { polys }
    }

    /// Converts every component to NTT domain in place. Hoists the
    /// transforms out of inner loops: an affine layer that multiplies
    /// one ciphertext by `t` plaintexts converts it once, not `t` times.
    pub fn to_ntt_ct(&self, ct: &mut Ciphertext) {
        for p in &mut ct.polys {
            p.to_ntt(&self.basis);
        }
    }

    /// Converts every component to coefficient domain in place.
    pub fn to_coeff_ct(&self, ct: &mut Ciphertext) {
        for p in &mut ct.polys {
            p.to_coeff(&self.basis);
        }
    }

    /// Converts a ciphertext into the reused operand of streamed
    /// plaintext multiplications: every component in NTT domain, with
    /// the Shoup companions of its rows. Pays the companions once for
    /// the many single-use plaintexts it will meet (the giant groups of
    /// a BSGS layer).
    #[must_use]
    pub fn prepare_ciphertext(&self, mut ct: Ciphertext) -> PreparedCiphertext {
        self.to_ntt_ct(&mut ct);
        let shoup = ct.polys.iter().map(|p| p.shoup_rows(&self.basis)).collect();
        PreparedCiphertext {
            polys: std::mem::take(&mut ct.polys),
            shoup,
        }
    }

    /// The all-zero two-component ciphertext in NTT domain: the seed of
    /// a streamed multiply–accumulate.
    #[must_use]
    pub fn zero_ntt_ct(&self) -> Ciphertext {
        Ciphertext {
            polys: vec![self.zero_ntt_poly(), self.zero_ntt_poly()],
        }
    }

    /// A pooled all-zero polynomial in NTT domain (zero is zero in either
    /// domain; only the flag differs).
    fn zero_ntt_poly(&self) -> RnsPoly {
        RnsPoly::from_rows(
            crate::scratch::take_rows_zeroed(self.basis.len(), self.params.n),
            true,
        )
    }

    /// Fused `acc += ct ∘ pt` for a plaintext used exactly once: the
    /// plaintext is lifted to the RNS basis, forward-transformed,
    /// multiplied into every component of the accumulator and dropped —
    /// nothing is stored. The Shoup companions sit on the reused `ct`,
    /// and the products are the canonical residues a prepared-plaintext
    /// multiply ([`BfvContext::mul_plain_prepared`]) yields, so the
    /// result is bit-identical to preparing `pt` first.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on component-count mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is in coefficient domain.
    pub fn add_mul_plain_assign(
        &self,
        acc: &mut Ciphertext,
        ct: &PreparedCiphertext,
        pt: &Plaintext,
    ) -> Result<(), FheError> {
        if acc.polys.len() != ct.polys.len() {
            return Err(FheError::Incompatible("component count differs".into()));
        }
        self.top_level_prepared(acc, ct)?;
        let mut m = RnsPoly::from_u64_coeffs(&self.basis, &pt.coeffs);
        m.to_ntt(&self.basis);
        for ((a, c), c_shoup) in acc.polys.iter_mut().zip(&ct.polys).zip(&ct.shoup) {
            a.add_mul_shoup_assign(&self.basis, &m, c, c_shoup);
        }
        Ok(())
    }

    /// The affine-row kernel: `Σ_j weights[j] ⊙ inputs[j]`, reduced once
    /// per output coefficient instead of once per term. Per RNS prime,
    /// each weight's `k` compact coefficients take the `k`-point
    /// [`crate::ntt::NttTable::forward_prefix`], whose value `m` is the
    /// weight of the `m`-th run of `N/k` NTT slots, and each run of every
    /// component row of the output is one [`pasta_math::simd::dot_mod`]
    /// over the inputs' rows. The sums are the canonical residues a
    /// [`BfvContext::add_mul_plain_assign`] per term on
    /// [`PeriodicPlaintext::expand`] accumulates, so the result is
    /// bit-identical to it.
    ///
    /// At period `k = 1` every weight is a constant, which commutes with
    /// the transform: the kernel works in whatever domain the inputs are
    /// in (component by component), and so does the output. At `k > 1`
    /// the inputs must be in NTT domain, and so is the output.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] unless there is one weight per
    /// input (at least one), the weights share one period and the ring
    /// degree, and the inputs share component count, level and domains,
    /// NTT at `k > 1`.
    pub fn dot_periodic(
        &self,
        inputs: &[Ciphertext],
        weights: &[PeriodicPlaintext],
    ) -> Result<Ciphertext, FheError> {
        let incompatible = |why: &str| Err(FheError::Incompatible(why.into()));
        let (Some(first), Some(k)) = (
            inputs.first(),
            weights.first().map(PeriodicPlaintext::period),
        ) else {
            return incompatible("a dot product needs at least one input");
        };
        if inputs.len() != weights.len() {
            return incompatible("a dot product needs one weight per input");
        }
        if weights
            .iter()
            .any(|w| w.period() != k || w.n != self.params.n)
        {
            return incompatible("weights differ in period or ring degree");
        }
        let domains: Vec<bool> = first.polys.iter().map(RnsPoly::is_ntt).collect();
        for x in inputs {
            Self::same_level(first, x)?;
            if x.polys.len() != domains.len()
                || x.polys.iter().zip(&domains).any(|(p, &d)| p.is_ntt() != d)
            {
                return incompatible("inputs differ in component count or domain");
            }
        }
        if k > 1 && !domains.iter().all(|&d| d) {
            return incompatible("a periodic weight needs NTT-domain inputs");
        }
        let (n, level) = (self.params.n, first.level());
        let mut out: Vec<Vec<Vec<u64>>> = domains
            .iter()
            .map(|_| crate::scratch::take_rows(level, n))
            .collect();
        // `dot_mod` wraps at 2¹²⁸: call it on at most `chunk` canonical
        // products of the widest prime at a time (a whole PASTA row, up
        // to 128 inputs, is one call on primes below 2⁶⁰).
        let widest = (0..level).map(|i| self.basis.zp(i).p()).max().unwrap_or(2);
        let chunk = (u128::MAX / u128::from(widest - 1).pow(2)).min(inputs.len() as u128) as usize;
        // Row 0: each weight's compact transform; row 1: the same values
        // run-major, one weight set per run.
        let mut buf = crate::scratch::take_rows(2, chunk * k);
        let (compact, set) = buf.split_at_mut(1);
        let (compact, set) = (&mut compact[0], &mut set[0]);
        let run = n / k;
        let mut partial = crate::scratch::take_rows(1, run);
        let mut src: Vec<&[u64]> = Vec::with_capacity(chunk);
        let be = pasta_math::simd::backend();
        for i in 0..level {
            let table = self.basis.table(i);
            let p = table.zp().p();
            for (g, (xs, ws)) in inputs.chunks(chunk).zip(weights.chunks(chunk)).enumerate() {
                let r = xs.len();
                for (dst, w) in compact.chunks_exact_mut(k).zip(ws) {
                    for (d, &v) in dst.iter_mut().zip(&w.coeffs) {
                        *d = v % p;
                    }
                    table.forward_prefix(dst);
                }
                for (j, values) in compact[..r * k].chunks_exact(k).enumerate() {
                    for (m, &v) in values.iter().enumerate() {
                        set[m * r + j] = v;
                    }
                }
                for (c, rows) in out.iter_mut().enumerate() {
                    let runs = set[..r * k]
                        .chunks_exact(r)
                        .zip(rows[i].chunks_exact_mut(run));
                    for (m, (run_set, dst)) in runs.enumerate() {
                        src.clear();
                        src.extend(xs.iter().map(|x| &x.polys[c].row(i)[m * run..]));
                        if g == 0 {
                            pasta_math::simd::dot_mod_with(be, p, &src, run_set, dst);
                        } else {
                            pasta_math::simd::dot_mod_with(be, p, &src, run_set, &mut partial[0]);
                            for (o, &v) in dst.iter_mut().zip(&partial[0]) {
                                *o = table.zp().add(*o, v);
                            }
                        }
                    }
                }
            }
        }
        crate::scratch::put_rows(partial);
        crate::scratch::put_rows(buf);
        Ok(Ciphertext {
            polys: out
                .into_iter()
                .zip(domains)
                .map(|(rows, is_ntt)| RnsPoly::from_rows(rows, is_ntt))
                .collect(),
        })
    }

    /// Multiplies a ciphertext by a plaintext scalar (cheap: no NTT).
    #[must_use]
    pub fn mul_scalar(&self, ct: &Ciphertext, scalar: u64) -> Ciphertext {
        let s = scalar % self.plain.p();
        Ciphertext {
            polys: ct
                .polys
                .iter()
                .map(|p| p.mul_scalar(&self.basis, s))
                .collect(),
        }
    }

    /// Homomorphic multiplication (tensor + `t/q` scaled rounding),
    /// *without* relinearization: the result has three components.
    ///
    /// Runs the full-RNS BEHZ path (no big-integer work). It is
    /// decrypt-equal to the exact oracle
    /// ([`crate::oracle::MulOracle::mul`]) but not byte-identical: the RNS
    /// path floors with a bounded fast-conversion slack where the oracle
    /// rounds half-up — the difference lands in noise far below the
    /// decryption threshold.
    ///
    /// Aliased operands (`mul(ct, ct)`) are detected by pointer and
    /// dispatched to the squaring specialization; use
    /// [`BfvContext::square`] directly to make the intent explicit.
    /// (Equal-but-distinct ciphertexts are *not* deep-compared — that
    /// scan cost O(N·k) on every multiply.)
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] unless both inputs have two
    /// components.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, FheError> {
        if a.polys.len() != 2 || b.polys.len() != 2 {
            return Err(FheError::Incompatible(
                "mul requires 2-component inputs".into(),
            ));
        }
        self.top_level(a, "mul")?;
        self.top_level(b, "mul")?;
        if std::ptr::eq(a, b) {
            return self.square(a);
        }
        Ok(self.mul_rns(a, Some(b)))
    }

    /// Squares a ciphertext *without* relinearization — the Feistel/cube
    /// S-box hot case. Reuses each lifted operand: two lifts instead of
    /// four and three products per basis instead of four.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] unless the input has two
    /// components.
    pub fn square(&self, a: &Ciphertext) -> Result<Ciphertext, FheError> {
        if a.polys.len() != 2 {
            return Err(FheError::Incompatible(
                "square requires a 2-component input".into(),
            ));
        }
        self.top_level(a, "square")?;
        Ok(self.mul_rns(a, None))
    }

    /// The full-RNS multiply: each operand component is lifted once into
    /// the auxiliary basis (fast base conversion, coefficient domain),
    /// the tensor is evaluated NTT-pointwise in the `q` and auxiliary
    /// bases independently, and each product component is scaled by
    /// `t/q` residue-wise with a Shenoy–Kumaresan exact return to `q`.
    /// `b = None` squares `a`.
    fn mul_rns(&self, a: &Ciphertext, b: Option<&Ciphertext>) -> Ciphertext {
        let aux = self.rns_mul.aux();
        // One lift per component: (q-basis NTT, aux-basis NTT).
        let lift = |p: &RnsPoly| -> (RnsPoly, RnsPoly) {
            let mut pq = p.clone();
            pq.to_coeff(&self.basis);
            let mut paux = self.rns_mul.lift_to_aux(&self.basis, &pq);
            pq.to_ntt(&self.basis);
            paux.to_ntt(aux);
            (pq, paux)
        };
        let (a0q, a0x) = lift(&a.polys[0]);
        let (a1q, a1x) = lift(&a.polys[1]);
        let tensor = |b: Option<(&RnsPoly, &RnsPoly)>,
                      basis: &RnsBasis,
                      a0: &RnsPoly,
                      a1: &RnsPoly|
         -> (RnsPoly, RnsPoly, RnsPoly) {
            match b {
                // Squaring: t01 = a0·b1 + a1·b0 collapses to cross + cross.
                None => {
                    let cross = a0.mul(basis, a1);
                    (
                        a0.mul(basis, a0),
                        cross.add(basis, &cross),
                        a1.mul(basis, a1),
                    )
                }
                Some((b0, b1)) => {
                    let mut t01 = a0.mul(basis, b1);
                    t01.add_mul_assign(basis, a1, b0);
                    (a0.mul(basis, b0), t01, a1.mul(basis, b1))
                }
            }
        };
        let ((t00q, t01q, t11q), (t00x, t01x, t11x)) = match b {
            None => (
                tensor(None, &self.basis, &a0q, &a1q),
                tensor(None, aux, &a0x, &a1x),
            ),
            Some(b) => {
                let (b0q, b0x) = lift(&b.polys[0]);
                let (b1q, b1x) = lift(&b.polys[1]);
                (
                    tensor(Some((&b0q, &b1q)), &self.basis, &a0q, &a1q),
                    tensor(Some((&b0x, &b1x)), aux, &a0x, &a1x),
                )
            }
        };
        let scale = |mut tq: RnsPoly, mut tx: RnsPoly| -> RnsPoly {
            tq.to_coeff(&self.basis);
            tx.to_coeff(aux);
            self.rns_mul.scale_to_q(&self.basis, &tq, &tx)
        };
        Ciphertext {
            polys: vec![scale(t00q, t00x), scale(t01q, t01x), scale(t11q, t11x)],
        }
    }

    /// Relinearizes a 3-component ciphertext back to 2 components.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] unless the input has exactly
    /// three components.
    pub fn relinearize(&self, ct: &Ciphertext, rk: &BfvRelinKey) -> Result<Ciphertext, FheError> {
        if ct.polys.len() != 3 {
            return Err(FheError::Incompatible(
                "relinearization needs 3 components".into(),
            ));
        }
        self.top_level(ct, "relinearize")?;
        let mut c2 = ct.polys[2].clone();
        c2.to_coeff(&self.basis);
        // The key switch accumulates in NTT domain from zero; only its two
        // accumulators return to coefficients, where `c0` and `c1` (the
        // scaled tensor's coefficient-domain output) are added. The
        // transforms are linear and every residue canonical, so this
        // equals transforming `c0`, `c1` forward and back around the MAC.
        let mut out0 = self.zero_ntt_poly();
        let mut out1 = self.zero_ntt_poly();
        self.key_switch_mac(
            &rk.components,
            &rk.components_shoup,
            |j| RnsPoly::from_u64_coeffs(&self.basis, c2.row(j)),
            &mut out0,
            &mut out1,
        );
        drop(c2);
        for (out, c) in [(&mut out0, &ct.polys[0]), (&mut out1, &ct.polys[1])] {
            out.to_coeff(&self.basis);
            if c.is_ntt() {
                let mut c = c.clone();
                c.to_coeff(&self.basis);
                out.add_assign(&self.basis, &c);
            } else {
                out.add_assign(&self.basis, c);
            }
        }
        Ok(Ciphertext {
            polys: vec![out0, out1],
        })
    }

    /// Generates a Galois key for the automorphism `X ↦ X^g`
    /// (RNS decomposition, like the relinearization key but encrypting
    /// `γ_j·σ(s)`).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] for even `g`.
    pub fn generate_galois_key<R: Rng>(
        &self,
        sk: &BfvSecretKey,
        g: usize,
        rng: &mut R,
    ) -> Result<BfvGaloisKey, FheError> {
        if g.is_multiple_of(2) {
            return Err(FheError::InvalidParams(format!(
                "Galois element {g} must be odd"
            )));
        }
        let mut s = sk.s.clone();
        s.to_coeff(&self.basis);
        let mut sigma_s = s.automorphism(&self.basis, g);
        sigma_s.to_ntt(&self.basis);
        let mut components = Vec::with_capacity(self.basis.len());
        for gamma in &self.gamma_rns {
            let mut a = RnsPoly::random_uniform(&self.basis, rng);
            a.to_ntt(&self.basis);
            let mut e = RnsPoly::random_error(&self.basis, rng);
            e.to_ntt(&self.basis);
            let b = sigma_s
                .mul_scalar_rns(&self.basis, gamma)
                .sub(&self.basis, &a.mul(&self.basis, &sk.s).add(&self.basis, &e));
            components.push((b, a));
        }
        let components_shoup = components
            .iter()
            .map(|(b, a)| (b.shoup_rows(&self.basis), a.shoup_rows(&self.basis)))
            .collect();
        Ok(BfvGaloisKey {
            g,
            components,
            components_shoup,
            ntt_perm: galois_slot_permutation(self.params.n, g % (2 * self.params.n)),
        })
    }

    /// Decomposes a 2-component ciphertext into its hoisted form: the
    /// RNS digits of `c1` are extracted and forward-transformed **once**,
    /// so any number of subsequent [`BfvContext::apply_galois_hoisted`]
    /// calls skip the decompose + NTT work entirely (Halevi–Shoup
    /// hoisting). Use when rotating the same ciphertext by several
    /// Galois elements — e.g. the baby steps of a BSGS matrix–vector
    /// product.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] for a 3-component input
    /// (relinearize first).
    pub fn hoist(&self, ct: &Ciphertext) -> Result<HoistedCiphertext, FheError> {
        if ct.polys.len() != 2 {
            return Err(FheError::Incompatible("hoist needs 2 components".into()));
        }
        self.top_level(ct, "hoist")?;
        let mut c0 = ct.polys[0].clone();
        let mut c1 = ct.polys[1].clone();
        c0.to_ntt(&self.basis);
        c1.to_coeff(&self.basis);
        let digits = (0..self.basis.len())
            .map(|j| {
                let mut d = RnsPoly::from_u64_coeffs(&self.basis, c1.row(j));
                d.to_ntt(&self.basis);
                d
            })
            .collect();
        Ok(HoistedCiphertext { c0, digits })
    }

    /// Applies the automorphism `X ↦ X^g` to a hoisted ciphertext:
    /// an O(kN) slot permutation of the cached digits plus the fused
    /// multiply–accumulate against the key — no per-rotation NTTs.
    ///
    /// The result is returned in **NTT domain** (rotations are almost
    /// always followed by plaintext multiplications; call
    /// [`BfvContext::to_coeff_ct`] if coefficients are needed). It
    /// decrypts identically to [`BfvContext::apply_galois`] on the
    /// original ciphertext — the digit decomposition is taken before
    /// rather than after σ, which changes the digit vectors but not the
    /// value `Σ_j σ(d_j)·γ_j ≡ σ(c1) (mod q)` they represent, and the
    /// key-switch noise `Σ_j σ(d_j)·e_j` has the same per-digit bound.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the key was generated by a
    /// context with a different digit count.
    pub fn apply_galois_hoisted(
        &self,
        hoisted: &HoistedCiphertext,
        gk: &BfvGaloisKey,
    ) -> Result<Ciphertext, FheError> {
        if gk.components.len() != self.basis.len() || gk.ntt_perm.len() != self.params.n {
            return Err(FheError::Incompatible(
                "Galois key shape does not match context".into(),
            ));
        }
        let mut out0 = hoisted.c0.permute_slots(&self.basis, &gk.ntt_perm);
        let mut out1 = self.zero_ntt_poly();
        self.key_switch_mac(
            &gk.components,
            &gk.components_shoup,
            |j| hoisted.digits[j].permute_slots(&self.basis, &gk.ntt_perm),
            &mut out0,
            &mut out1,
        );
        Ok(Ciphertext {
            polys: vec![out0, out1],
        })
    }

    /// Applies the automorphism `X ↦ X^g` homomorphically: the result
    /// encrypts `σ_g(m)` — a fixed permutation of the batching slots.
    /// The digits of `σ(c1)` are key-switched through the same
    /// Shoup-fused loop as relinearization.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] for a mismatched key or a
    /// 3-component input (relinearize first).
    pub fn apply_galois(&self, ct: &Ciphertext, gk: &BfvGaloisKey) -> Result<Ciphertext, FheError> {
        if ct.polys.len() != 2 {
            return Err(FheError::Incompatible(
                "apply_galois needs 2 components".into(),
            ));
        }
        self.top_level(ct, "apply_galois")?;
        if gk.components.len() != self.basis.len() {
            return Err(FheError::Incompatible(
                "Galois key shape does not match context".into(),
            ));
        }
        let mut c0 = ct.polys[0].clone();
        let mut c1 = ct.polys[1].clone();
        c0.to_coeff(&self.basis);
        c1.to_coeff(&self.basis);
        let sigma_c1 = c1.automorphism(&self.basis, gk.g);
        let mut out0 = c0.automorphism(&self.basis, gk.g);
        out0.to_ntt(&self.basis);
        let mut out1 = self.zero_ntt_poly();
        // Key-switch σ(c1)·σ(s) onto s via the RNS digits of σ(c1).
        self.key_switch_mac(
            &gk.components,
            &gk.components_shoup,
            |j| RnsPoly::from_u64_coeffs(&self.basis, sigma_c1.row(j)),
            &mut out0,
            &mut out1,
        );
        out0.to_coeff(&self.basis);
        out1.to_coeff(&self.basis);
        Ok(Ciphertext {
            polys: vec![out0, out1],
        })
    }

    /// Generates the Galois key set for [`BfvContext::sum_slots`]:
    /// powers `3^(2^i)` walking one batching orbit, plus the conjugation
    /// element `2N − 1` that folds in the second orbit.
    ///
    /// # Errors
    ///
    /// Propagates key-generation errors.
    pub fn generate_sum_keys<R: Rng>(
        &self,
        sk: &BfvSecretKey,
        rng: &mut R,
    ) -> Result<Vec<BfvGaloisKey>, FheError> {
        let two_n = 2 * self.params.n;
        let mut keys = Vec::new();
        let mut g = 3usize;
        // N/2 orbit positions -> log2(N/2) doubling steps.
        let steps = (self.params.n / 2).trailing_zeros();
        for _ in 0..steps {
            keys.push(self.generate_galois_key(sk, g, rng)?);
            g = (g * g) % two_n;
        }
        keys.push(self.generate_galois_key(sk, two_n - 1, rng)?);
        Ok(keys)
    }

    /// Homomorphically sums *all* batching slots: the result holds
    /// `Σ_i slots[i]` in every slot — the classic rotate-and-add tree
    /// (log N rotations), used for encrypted inner products.
    ///
    /// # Errors
    ///
    /// Propagates rotation errors (wrong key set).
    pub fn sum_slots(
        &self,
        ct: &Ciphertext,
        sum_keys: &[BfvGaloisKey],
    ) -> Result<Ciphertext, FheError> {
        let mut acc = ct.clone();
        for key in sum_keys {
            let rotated = self.apply_galois(&acc, key)?;
            acc = self.add(&acc, &rotated)?;
        }
        Ok(acc)
    }

    /// The key-switch inner loop every entry point shares
    /// ([`BfvContext::relinearize`], [`BfvContext::apply_galois`],
    /// [`BfvContext::apply_galois_hoisted`]): for each RNS digit `d_j`
    /// (`digit(j)`, forward-transformed unless already in NTT domain),
    /// `acc0 += d_j·b_j` and `acc1 += d_j·a_j` through the SIMD Shoup MAC
    /// against the key's precomputed companion rows. The products are
    /// canonical residues, so seeding an accumulator with zero equals
    /// starting it at the first product.
    fn key_switch_mac(
        &self,
        components: &[(RnsPoly, RnsPoly)],
        components_shoup: &KeyShoupRows,
        mut digit: impl FnMut(usize) -> RnsPoly,
        acc0: &mut RnsPoly,
        acc1: &mut RnsPoly,
    ) {
        for (j, ((b, a), (b_sh, a_sh))) in components.iter().zip(components_shoup).enumerate() {
            let mut d = digit(j);
            d.to_ntt(&self.basis);
            acc0.add_mul_shoup_assign(&self.basis, &d, b, b_sh);
            acc1.add_mul_shoup_assign(&self.basis, &d, a, a_sh);
        }
    }

    /// Multiplication followed by relinearization.
    ///
    /// # Errors
    ///
    /// Propagates [`BfvContext::mul`]/[`BfvContext::relinearize`] errors.
    pub fn mul_relin(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rk: &BfvRelinKey,
    ) -> Result<Ciphertext, FheError> {
        self.relinearize(&self.mul(a, b)?, rk)
    }

    /// Squares a ciphertext and relinearizes (the S-box entry point —
    /// takes the [`BfvContext::square`] specialization explicitly).
    ///
    /// # Errors
    ///
    /// Propagates multiplication errors.
    pub fn square_relin(&self, a: &Ciphertext, rk: &BfvRelinKey) -> Result<Ciphertext, FheError> {
        self.relinearize(&self.square(a)?, rk)
    }
}

/// A BFV plaintext polynomial (coefficients `< t`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    /// Coefficients (length `N`, values in `[0, t)`).
    pub coeffs: Vec<u64>,
}

impl Plaintext {
    /// The constant coefficient (the scalar for scalar-encoded values).
    #[must_use]
    pub fn scalar(&self) -> u64 {
        self.coeffs.first().copied().unwrap_or(0)
    }
}

/// A plaintext in the sub-ring `Z_t[X^{N/k}]` (`k` a power of two
/// dividing `N`), kept as its `k` compact coefficients: `coeffs[i]` is
/// the coefficient of `X^{i·N/k}`, every other coefficient is zero. Its
/// slots have period `k`; [`crate::BatchEncoder::encode_periodic`]
/// builds it and [`BfvContext::dot_periodic`] multiplies it in at
/// `k`-point transform cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicPlaintext {
    /// The `k` compact coefficients (values in `[0, t)`).
    pub(crate) coeffs: Vec<u64>,
    /// Ring degree `N`.
    pub(crate) n: usize,
}

impl PeriodicPlaintext {
    /// The slot period `k`.
    #[must_use]
    pub fn period(&self) -> usize {
        self.coeffs.len()
    }

    /// The full-degree plaintext: coefficient `i·N/k` is `coeffs[i]`.
    #[must_use]
    pub fn expand(&self) -> Plaintext {
        let stride = self.n / self.coeffs.len();
        let mut coeffs = vec![0u64; self.n];
        for (dst, &c) in coeffs.iter_mut().step_by(stride).zip(&self.coeffs) {
            *dst = c;
        }
        Plaintext { coeffs }
    }
}

/// A plaintext pre-encoded for repeated multiplication (see
/// [`BfvContext::prepare_plaintext`]): the NTT-domain polynomial and its
/// Shoup companions. Both are context-specific — a prepared plaintext
/// must only be used with the context that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedPlaintext {
    /// Encoded plaintext in NTT domain.
    ntt: RnsPoly,
    /// Per-prime Shoup companions of `ntt`'s rows, so repeated
    /// multiplications run the SIMD Shoup kernels (one high-half
    /// multiply per product) instead of a generic Barrett reduction.
    ntt_shoup: ShoupRows,
}

/// A ciphertext prepared as the reused operand of streamed plaintext
/// multiplications (see [`BfvContext::prepare_ciphertext`]): NTT-domain
/// components plus the Shoup companions of their rows.
#[derive(Debug)]
pub struct PreparedCiphertext {
    /// Components in NTT domain.
    polys: Vec<RnsPoly>,
    /// `shoup[c]` — the Shoup companions of component `c`'s rows.
    shoup: Vec<ShoupRows>,
}

/// A BFV secret key (ternary, stored in NTT domain).
#[derive(Clone)]
pub struct BfvSecretKey {
    s: RnsPoly,
}

impl fmt::Debug for BfvSecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BfvSecretKey(redacted)")
    }
}

/// A BFV public key `(b, a) = (-(a·s + e), a)`.
#[derive(Debug, Clone)]
pub struct BfvPublicKey {
    b: RnsPoly,
    a: RnsPoly,
}

/// Per-component Shoup companions `(b_shoup, a_shoup)` of a key-switch
/// key's rows: for each component, one companion row per RNS prime.
type KeyShoupRows = Vec<(ShoupRows, ShoupRows)>;

/// A relinearization key: one `(b_j, a_j)` pair per RNS prime.
#[derive(Debug, Clone)]
pub struct BfvRelinKey {
    components: Vec<(RnsPoly, RnsPoly)>,
    /// Shoup companions of the key rows, precomputed at keygen so the
    /// key-switch inner loop runs the SIMD Shoup MAC kernel.
    components_shoup: KeyShoupRows,
}

/// A Galois key for the automorphism `X ↦ X^g` (slot permutations),
/// stored NTT-prepared: the `(b_j, a_j)` pairs live in NTT domain and
/// the slot permutation realizing σ_g on NTT-domain polynomials is
/// precomputed at key generation, so both the classic and the hoisted
/// rotation paths touch no transform tables per application.
#[derive(Debug, Clone)]
pub struct BfvGaloisKey {
    g: usize,
    components: Vec<(RnsPoly, RnsPoly)>,
    /// Per-component Shoup companions `(b_shoup, a_shoup)`; see
    /// [`BfvRelinKey::components_shoup`].
    components_shoup: KeyShoupRows,
    /// `NTT(σ_g(a))[i] = NTT(a)[ntt_perm[i]]` (see
    /// [`galois_slot_permutation`]).
    ntt_perm: Vec<usize>,
}

impl BfvGaloisKey {
    /// The Galois element `g`.
    #[must_use]
    pub fn galois_element(&self) -> usize {
        self.g
    }

    /// The precomputed NTT-domain slot permutation for σ_g.
    #[must_use]
    pub fn ntt_permutation(&self) -> &[usize] {
        &self.ntt_perm
    }
}

/// A ciphertext pre-decomposed for repeated rotation (see
/// [`BfvContext::hoist`]): `c0` and the RNS key-switching digits of
/// `c1`, all in NTT domain. Producing one costs the same as the
/// decomposition inside a single [`BfvContext::apply_galois`]; every
/// rotation applied to it afterwards is transform-free.
#[derive(Debug, Clone)]
pub struct HoistedCiphertext {
    /// `c0` in NTT domain.
    c0: RnsPoly,
    /// Digit `j` of `c1` (the residue row lifted to all primes),
    /// forward-transformed.
    digits: Vec<RnsPoly>,
}

/// A BFV ciphertext (2 components; 3 transiently after multiplication).
///
/// `PartialEq` compares raw component polynomials (residues + domain) —
/// the bit-exactness predicate the determinism tests rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    pub(crate) polys: Vec<RnsPoly>,
}

impl Ciphertext {
    /// Number of polynomial components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.polys.len()
    }

    /// The level: how many primes `q_0 … q_{level−1}` the ciphertext is
    /// held over (the context's prime count until
    /// [`BfvContext::mod_switch_to`] drops some).
    #[must_use]
    pub fn level(&self) -> usize {
        self.polys.first().map_or(0, RnsPoly::level)
    }

    /// The component polynomials, read-only (digests and serializers
    /// walk their residue rows).
    #[must_use]
    pub fn polys(&self) -> &[RnsPoly] {
        &self.polys
    }

    /// Serialized size in bytes: `components · N · Σ_i ⌈log2 q_i⌉ / 8`
    /// over the primes of the ciphertext's level.
    ///
    /// This is the quantity the paper's §V communication analysis uses
    /// (e.g. RISE's `2 · 2^14 · 390` bits = 1.5 MB per ciphertext).
    #[must_use]
    pub fn size_bytes(&self, ctx: &BfvContext) -> usize {
        let bits_per_coeff: usize = ctx.basis().primes()[..self.level()]
            .iter()
            .map(|p| p.bits() as usize)
            .sum();
        (self.polys.len() * ctx.params().n * bits_per_coeff).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MulOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A plaintext with every coefficient drawn uniformly from `Z_t`.
    fn random_plaintext(ctx: &BfvContext, rng: &mut StdRng) -> Plaintext {
        let t = ctx.params().plain_modulus.value();
        Plaintext {
            coeffs: (0..ctx.params().n).map(|_| rng.gen_range(0..t)).collect(),
        }
    }

    fn setup() -> (BfvContext, BfvSecretKey, BfvPublicKey, BfvRelinKey, StdRng) {
        let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        (ctx, sk, pk, rk, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, sk, pk, _, mut rng) = setup();
        for v in [0u64, 1, 42, 65_536] {
            let ct = ctx.encrypt(&pk, &ctx.encode_scalar(v), &mut rng);
            assert_eq!(ctx.decrypt(&sk, &ct).scalar(), v);
        }
    }

    #[test]
    fn fresh_ciphertext_has_healthy_budget() {
        let (ctx, sk, pk, _, mut rng) = setup();
        let ct = ctx.encrypt(&pk, &ctx.encode_scalar(7), &mut rng);
        let budget = ctx.noise_budget(&sk, &ct);
        assert!(budget > 100, "fresh budget = {budget} bits");
        assert!(budget < ctx.q_bits() as u32, "budget bounded by q");
    }

    #[test]
    fn trivial_encryption_decrypts_with_full_budget() {
        let (ctx, sk, _, _, _) = setup();
        let ct = ctx.encrypt_trivial(&ctx.encode_scalar(123));
        assert_eq!(ctx.decrypt(&sk, &ct).scalar(), 123);
        assert!(ctx.noise_budget(&sk, &ct) > ctx.q_bits() as u32 - 25);
    }

    #[test]
    fn noise_budget_reads_zero_once_the_noise_passes_half_delta() {
        // A trivial encryption of 0 plus a chosen noise `e` on one
        // coefficient: the phase is `e` itself, so the invariant noise is
        // `t·e/q` and decryption is right exactly while `e < Δ/2`.
        let (ctx, sk, _, _, _) = setup();
        let q = ctx.basis().q();
        let delta = q.div_rem(&UBig::from_u64(ctx.plain().p())).0;
        let with_noise = |e: &UBig| {
            let mut ct = ctx.encrypt_trivial(&ctx.encode_scalar(0));
            let mut coeffs = vec![UBig::zero(); ctx.params().n];
            coeffs[0] = e.clone();
            ct.polys[0].add_assign(
                &ctx.basis,
                &RnsPoly::from_bigint_coeffs(&ctx.basis, &coeffs),
            );
            ct
        };
        let past = with_noise(&delta.shr(1).add(&UBig::one()));
        assert_eq!(
            ctx.decrypt(&sk, &past).scalar(),
            1,
            "noise past Δ/2 decrypts wrong"
        );
        assert_eq!(ctx.noise_budget(&sk, &past), 0);
        // Below Δ/2 each halving of the noise buys one bit.
        let readings: Vec<u32> = (2..8)
            .map(|j| {
                let ct = with_noise(&delta.shr(j));
                assert_eq!(ctx.decrypt(&sk, &ct).scalar(), 0, "noise Δ/2^{j}");
                ctx.noise_budget(&sk, &ct)
            })
            .collect();
        assert!(readings[0] <= 1, "noise Δ/4 reads {}", readings[0]);
        assert!(
            readings.windows(2).all(|w| w[1] == w[0] + 1),
            "readings {readings:?}"
        );
    }

    #[test]
    fn homomorphic_addition() {
        let (ctx, sk, pk, _, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(60_000), &mut rng);
        let b = ctx.encrypt(&pk, &ctx.encode_scalar(10_000), &mut rng);
        let sum = ctx.add(&a, &b).unwrap();
        assert_eq!(ctx.decrypt(&sk, &sum).scalar(), (60_000 + 10_000) % 65_537);
        let diff = ctx.sub(&a, &b).unwrap();
        assert_eq!(ctx.decrypt(&sk, &diff).scalar(), 50_000);
    }

    #[test]
    fn plaintext_operations() {
        let (ctx, sk, pk, _, mut rng) = setup();
        let ct = ctx.encrypt(&pk, &ctx.encode_scalar(1_000), &mut rng);
        let plus = ctx.add_plain(&ct, &ctx.encode_scalar(65_000));
        assert_eq!(ctx.decrypt(&sk, &plus).scalar(), (1_000 + 65_000) % 65_537);
        let scaled = ctx.mul_scalar(&ct, 123);
        assert_eq!(ctx.decrypt(&sk, &scaled).scalar(), 1_000 * 123 % 65_537);
        let pm = ctx.mul_plain(&ct, &ctx.encode_scalar(65_536));
        assert_eq!(ctx.decrypt(&sk, &pm).scalar(), 1_000 * 65_536 % 65_537);
    }

    #[test]
    fn homomorphic_multiplication_pre_relin() {
        let (ctx, sk, pk, _, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(300), &mut rng);
        let b = ctx.encrypt(&pk, &ctx.encode_scalar(500), &mut rng);
        let prod = ctx.mul(&a, &b).unwrap();
        assert_eq!(prod.components(), 3);
        assert_eq!(ctx.decrypt(&sk, &prod).scalar(), 300 * 500 % 65_537);
    }

    #[test]
    fn relinearization_preserves_plaintext() {
        let (ctx, sk, pk, rk, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(12_345), &mut rng);
        let b = ctx.encrypt(&pk, &ctx.encode_scalar(54_321), &mut rng);
        let prod = ctx.mul_relin(&a, &b, &rk).unwrap();
        assert_eq!(prod.components(), 2);
        assert_eq!(
            ctx.decrypt(&sk, &prod).scalar(),
            12_345u64 * 54_321 % 65_537
        );
    }

    #[test]
    fn multiplication_chain_with_budget_tracking() {
        let (ctx, sk, pk, rk, mut rng) = setup();
        let mut ct = ctx.encrypt(&pk, &ctx.encode_scalar(2), &mut rng);
        let mut expect = 2u64;
        let mut prev_budget = ctx.noise_budget(&sk, &ct);
        for _ in 0..2 {
            ct = ctx.square_relin(&ct, &rk).unwrap();
            expect = expect * expect % 65_537;
            let budget = ctx.noise_budget(&sk, &ct);
            assert!(
                budget < prev_budget,
                "budget must shrink: {budget} < {prev_budget}"
            );
            assert!(budget > 0, "budget exhausted too early");
            prev_budget = budget;
            assert_eq!(ctx.decrypt(&sk, &ct).scalar(), expect);
        }
    }

    #[test]
    fn mixed_plain_and_cipher_pipeline() {
        // Emulates one PASTA affine step: Σ scalar·ct + const.
        let (ctx, sk, pk, _, mut rng) = setup();
        let values = [5u64, 10, 15, 20];
        let scalars = [3u64, 7, 11, 13];
        let cts: Vec<Ciphertext> = values
            .iter()
            .map(|&v| ctx.encrypt(&pk, &ctx.encode_scalar(v), &mut rng))
            .collect();
        let mut acc = ctx.encrypt_trivial(&ctx.encode_scalar(0));
        for (ct, &s) in cts.iter().zip(scalars.iter()) {
            acc = ctx.add(&acc, &ctx.mul_scalar(ct, s)).unwrap();
        }
        acc = ctx.add_plain(&acc, &ctx.encode_scalar(999));
        let expect = values
            .iter()
            .zip(scalars.iter())
            .map(|(&v, &s)| v * s)
            .sum::<u64>()
            + 999;
        assert_eq!(ctx.decrypt(&sk, &acc).scalar(), expect % 65_537);
    }

    #[test]
    fn prepared_paths_match_direct_paths() {
        let (ctx, _, pk, _, mut rng) = setup();
        let ct = ctx.encrypt(&pk, &ctx.encode_scalar(777), &mut rng);
        let mut pt_coeffs = vec![0u64; ctx.params().n];
        for (j, c) in pt_coeffs.iter_mut().enumerate() {
            *c = (j as u64 * 31 + 5) % 65_537;
        }
        let pt = Plaintext { coeffs: pt_coeffs };
        let prep = ctx.prepare_plaintext(&pt);

        // mul_plain: prepared must be bit-exact vs direct.
        assert_eq!(ctx.mul_plain_prepared(&ct, &prep), ctx.mul_plain(&ct, &pt));
        // add_plain: in-place vs cloning.
        let mut added = ct.clone();
        ctx.add_plain_assign(&mut added, &pt);
        assert_eq!(added, ctx.add_plain(&ct, &pt));
        let ct2 = ctx.encrypt(&pk, &ctx.encode_scalar(123), &mut rng);
        let expect = ctx
            .add(&ctx.mul_plain(&ct, &pt), &ctx.mul_plain(&ct2, &pt))
            .unwrap();
        // The streamed form — Shoup companions on the ciphertexts, the
        // plaintext lifted per product — yields the same canonical
        // products, so it is bit-identical too.
        let mut streamed = ctx.zero_ntt_ct();
        for c in [&ct, &ct2] {
            let prepared = ctx.prepare_ciphertext(c.clone());
            ctx.add_mul_plain_assign(&mut streamed, &prepared, &pt)
                .unwrap();
        }
        ctx.to_coeff_ct(&mut streamed);
        assert_eq!(streamed, expect);
    }

    #[test]
    fn assign_ops_match_cloning_ops() {
        let (ctx, sk, pk, _, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(60_000), &mut rng);
        let b = ctx.encrypt(&pk, &ctx.encode_scalar(10_000), &mut rng);

        let mut sum = a.clone();
        ctx.add_assign(&mut sum, &b).unwrap();
        assert_eq!(sum, ctx.add(&a, &b).unwrap());

        let mut diff = a.clone();
        ctx.sub_assign(&mut diff, &b).unwrap();
        assert_eq!(diff, ctx.sub(&a, &b).unwrap());

        let mut neg = a.clone();
        ctx.neg_assign(&mut neg);
        assert_eq!(ctx.decrypt(&sk, &neg).scalar(), 65_537 - 60_000);

        // Δ·c injection: neg + add_scalar must equal sub from a trivial.
        let mut fast = b.clone();
        ctx.neg_assign(&mut fast);
        ctx.add_scalar_assign(&mut fast, 12_345);
        let slow = ctx
            .sub(&ctx.encrypt_trivial(&ctx.encode_scalar(12_345)), &b)
            .unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn incompatible_operations_rejected() {
        let (ctx, _, pk, _, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(1), &mut rng);
        let b = ctx.encrypt(&pk, &ctx.encode_scalar(2), &mut rng);
        let three = ctx.mul(&a, &b).unwrap();
        assert!(matches!(
            ctx.add(&a, &three),
            Err(FheError::Incompatible(_))
        ));
        assert!(matches!(
            ctx.mul(&a, &three),
            Err(FheError::Incompatible(_))
        ));
        assert!(matches!(
            ctx.relinearize(
                &a,
                &ctx.generate_relin_key(&ctx.generate_secret_key(&mut rng), &mut rng)
            ),
            Err(FheError::Incompatible(_))
        ));
    }

    #[test]
    fn mod_switch_keeps_the_plaintext_at_every_level() {
        let (ctx, sk, pk, rk, mut rng) = setup();
        let pt = random_plaintext(&ctx, &mut rng);
        let fresh = ctx.encrypt(&pk, &pt, &mut rng);
        let sq = ctx.square_relin(&fresh, &rk).unwrap();
        let want = ctx.decrypt(&sk, &sq);
        let top = ctx.basis().len();
        for level in (1..=top).rev() {
            let mut ct = sq.clone();
            ctx.mod_switch_to(&mut ct, level).unwrap();
            assert_eq!(ct.level(), level);
            assert_eq!(ctx.decrypt(&sk, &ct), want, "level {level}");
            assert_eq!(ct.size_bytes(&ctx) * top, sq.size_bytes(&ctx) * level);
            // Stepping down one prime at a time lands on the same bits.
            let mut stepped = sq.clone();
            for l in (level..top).rev() {
                ctx.mod_switch_to(&mut stepped, l).unwrap();
            }
            assert_eq!(stepped, ct, "level {level}");
        }
        let mut low = sq.clone();
        ctx.mod_switch_to(&mut low, 1).unwrap();
        assert!(matches!(
            ctx.mod_switch_to(&mut low, 2),
            Err(FheError::Incompatible(_))
        ));
        assert!(matches!(
            ctx.mod_switch_to(&mut low, 0),
            Err(FheError::Incompatible(_))
        ));
    }

    #[test]
    fn lower_levels_allow_only_same_level_and_constant_ops() {
        let (ctx, sk, pk, rk, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(5), &mut rng);
        let mut low = a.clone();
        ctx.mod_switch_to(&mut low, 2).unwrap();
        // Mixed levels are refused by every binary op.
        assert!(matches!(ctx.add(&a, &low), Err(FheError::Incompatible(_))));
        assert!(matches!(ctx.sub(&low, &a), Err(FheError::Incompatible(_))));
        let mut acc = a.clone();
        assert!(matches!(
            ctx.add_assign(&mut acc, &low),
            Err(FheError::Incompatible(_))
        ));
        assert!(matches!(
            ctx.sub_assign(&mut acc, &low),
            Err(FheError::Incompatible(_))
        ));
        // The multiplicative operations need the top level.
        assert!(matches!(ctx.square(&low), Err(FheError::Incompatible(_))));
        assert!(matches!(
            ctx.mul(&low, &low),
            Err(FheError::Incompatible(_))
        ));
        let three = ctx.square(&a).unwrap();
        let mut three_low = three.clone();
        ctx.mod_switch_to(&mut three_low, 2).unwrap();
        assert!(matches!(
            ctx.relinearize(&three_low, &rk),
            Err(FheError::Incompatible(_))
        ));
        // Same-level adds, constants and plaintexts work at any level.
        let sum = ctx.add(&low, &low).unwrap();
        assert_eq!(ctx.decrypt(&sk, &sum).scalar(), 10);
        let mut shifted = low.clone();
        ctx.add_scalar_assign(&mut shifted, 7);
        assert_eq!(ctx.decrypt(&sk, &shifted).scalar(), 12);
        let plus = ctx.add_plain(&low, &ctx.encode_scalar(3));
        assert_eq!(ctx.decrypt(&sk, &plus).scalar(), 8);
        assert!(ctx.noise_budget(&sk, &low) > 0);
    }

    #[test]
    fn ciphertext_size_accounting() {
        let (ctx, _, pk, _, mut rng) = setup();
        let ct = ctx.encrypt(&pk, &ctx.encode_scalar(1), &mut rng);
        // 2 components × 256 coeffs × 200 bits = 12,800 bytes.
        assert_eq!(ct.size_bytes(&ctx), 2 * 256 * 200 / 8);
    }

    #[test]
    fn bad_params_rejected() {
        let bad = BfvParams {
            n: 100,
            ..BfvParams::test_tiny()
        };
        assert!(matches!(
            BfvContext::new(bad),
            Err(FheError::InvalidParams(_))
        ));
    }

    #[test]
    fn rns_mul_decrypt_equals_bigint_oracle() {
        // The RNS product is decrypt-equal to the bigint oracle's — not
        // byte-identical: the near-centered lift may differ by q in a
        // 2^-15-wide band, which the noise absorbs.
        let (ctx, sk, pk, rk, mut rng) = setup();
        let exact = MulOracle::new(&ctx).unwrap();
        for _ in 0..3 {
            let a = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
            let b = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);

            let fast = ctx.mul_rns(&a, Some(&b));
            let oracle = exact.mul(&a, &b).unwrap();
            assert_eq!(ctx.decrypt(&sk, &fast), ctx.decrypt(&sk, &oracle));

            let fast_sq = ctx.mul_rns(&a, None);
            let oracle_sq = exact.mul(&a, &a).unwrap();
            assert_eq!(ctx.decrypt(&sk, &fast_sq), ctx.decrypt(&sk, &oracle_sq));

            let fast_rl = ctx.relinearize(&fast, &rk).unwrap();
            let oracle_rl = ctx.relinearize(&oracle, &rk).unwrap();
            assert_eq!(ctx.decrypt(&sk, &fast_rl), ctx.decrypt(&sk, &oracle_rl));
        }
    }

    #[test]
    fn rns_mul_noise_budget_within_one_bit_of_oracle() {
        let (ctx, sk, pk, _, mut rng) = setup();
        let a = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
        let b = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
        let fast = ctx.noise_budget(&sk, &ctx.mul_rns(&a, Some(&b)));
        let exact = MulOracle::new(&ctx).unwrap();
        let oracle = ctx.noise_budget(&sk, &exact.mul(&a, &b).unwrap());
        assert!(
            fast.abs_diff(oracle) <= 1,
            "post-mul budgets diverged: rns {fast} vs bigint {oracle}"
        );
    }

    /// Chains the transcipher circuit's multiply depth on one ring — a
    /// Feistel square plus add, then the cube `relin(y²)·y` — and checks
    /// at each depth that the RNS path (`square_relin`/`mul_relin`) and
    /// the relinearized oracle (`relinearize(MulOracle::mul(..))`)
    /// decrypt equal, with noise budgets within 1 bit.
    fn sbox_chain_matches_oracle(params: BfvParams, seed: u64) {
        let ctx = BfvContext::new(params).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let x = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
        let prev = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
        let exact = MulOracle::new(&ctx).unwrap();
        let oracle = |a: &Ciphertext, b: &Ciphertext| {
            ctx.relinearize(&exact.mul(a, b).unwrap(), &rk).unwrap()
        };
        let agree = |depth: &str, fast: &Ciphertext, exact: &Ciphertext| {
            assert_eq!(
                ctx.decrypt(&sk, fast),
                ctx.decrypt(&sk, exact),
                "{depth}: RNS and oracle decrypt differently"
            );
            let (f, e) = (ctx.noise_budget(&sk, fast), ctx.noise_budget(&sk, exact));
            assert!(f > 0, "{depth}: budget exhausted");
            assert!(f.abs_diff(e) <= 1, "{depth}: budgets rns {f} vs bigint {e}");
        };
        // Feistel: y = x + prev².
        let sq = ctx.square_relin(&prev, &rk).unwrap();
        let sq_exact = oracle(&prev, &prev);
        agree("feistel square", &sq, &sq_exact);
        let y = ctx.add(&x, &sq).unwrap();
        let y_exact = ctx.add(&x, &sq_exact).unwrap();
        agree("feistel add", &y, &y_exact);
        // Cube: y³ = relin(y²)·y.
        let y2 = ctx.square_relin(&y, &rk).unwrap();
        let y2_exact = oracle(&y_exact, &y_exact);
        agree("cube square", &y2, &y2_exact);
        let y3 = ctx.mul_relin(&y2, &y, &rk).unwrap();
        let y3_exact = oracle(&y2_exact, &y_exact);
        agree("cube", &y3, &y3_exact);
    }

    #[test]
    fn sbox_chain_matches_oracle_on_test_tiny() {
        sbox_chain_matches_oracle(BfvParams::test_tiny(), 0x5B0C);
    }

    #[test]
    fn sbox_chain_matches_oracle_at_n_1024() {
        sbox_chain_matches_oracle(
            BfvParams {
                n: 1_024,
                ..BfvParams::test_tiny()
            },
            0x5B0D,
        );
    }

    #[test]
    fn default_mul_path_allocates_no_bigints() {
        let (ctx, _, pk, rk, mut rng) = setup();
        let a = ctx.encrypt(&pk, &ctx.encode_scalar(300), &mut rng);
        let b = ctx.encrypt(&pk, &ctx.encode_scalar(500), &mut rng);
        // The kernels run on the calling thread, so the thread-local
        // counter sees every allocation.
        let before = crate::bigint::ubig_alloc_count();
        let prod = ctx.mul(&a, &b).unwrap();
        let _ = ctx.square(&a).unwrap();
        let _ = ctx.relinearize(&prod, &rk).unwrap();
        let after = crate::bigint::ubig_alloc_count();
        if cfg!(debug_assertions) {
            assert_eq!(
                after, before,
                "UBig allocation leaked into the RNS mul path"
            );
        }
        // The oracle, called directly, must register.
        let exact = MulOracle::new(&ctx).unwrap();
        let before = crate::bigint::ubig_alloc_count();
        let oracle = exact.mul(&a, &b).unwrap();
        let after = crate::bigint::ubig_alloc_count();
        assert_eq!(oracle.components(), 3);
        if cfg!(debug_assertions) {
            assert!(after > before, "bigint oracle did not allocate");
        }
    }

    #[test]
    fn warm_mul_relin_allocates_no_poly_rows_or_bigints() {
        // A ring degree no other test in this binary uses. For some
        // buffer shapes the pipeline's working set exceeds the
        // thread-local bucket depth, so a warm pass re-takes part of it
        // from the process-wide overflow bin of `crate::scratch`; a
        // concurrently running test taking the same `(rows, len)` shapes
        // can empty that bin between the cold and the warm pass and
        // force fresh allocations. At N = 512 every shape this test
        // touches — the ciphertext basis, the BEHZ auxiliary basis and
        // the BEHZ row temporaries — belongs to it alone.
        let ctx = BfvContext::new(BfvParams {
            n: 512,
            ..BfvParams::test_tiny()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let a = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
        let b = ctx.encrypt(&pk, &random_plaintext(&ctx, &mut rng), &mut rng);
        // Cold passes populate the scratch pool with every buffer shape
        // the multiply + relinearize pipeline needs...
        let _ = ctx.mul_relin(&a, &b, &rk).unwrap();
        let _ = ctx.mul_relin(&a, &b, &rk).unwrap();
        // ...after which a warm pass must allocate nothing: the kernels
        // run on the calling thread, so the thread-local counters see
        // every allocation.
        let rows_before = crate::scratch::poly_alloc_count();
        let ubig_before = crate::bigint::ubig_alloc_count();
        let prod = ctx.mul_relin(&a, &b, &rk).unwrap();
        let rows_after = crate::scratch::poly_alloc_count();
        let ubig_after = crate::bigint::ubig_alloc_count();
        assert_eq!(prod.components(), 2);
        assert_eq!(ctx.decrypt(&sk, &prod).coeffs.len(), ctx.params().n);
        if cfg!(debug_assertions) {
            assert_eq!(
                rows_after, rows_before,
                "warm mul_relin allocated fresh coefficient rows"
            );
            assert_eq!(ubig_after, ubig_before, "warm mul_relin allocated bigints");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        // One shared context: key generation is the expensive part.
        fn with_world(
            f: impl FnOnce(&BfvContext, &BfvSecretKey, &BfvPublicKey, &BfvRelinKey, &mut StdRng),
        ) {
            let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
            let mut rng = StdRng::seed_from_u64(31337);
            let sk = ctx.generate_secret_key(&mut rng);
            let pk = ctx.generate_public_key(&sk, &mut rng);
            let rk = ctx.generate_relin_key(&sk, &mut rng);
            f(&ctx, &sk, &pk, &rk, &mut rng);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[test]
            fn prop_additive_homomorphism(a in 0u64..65_537, b in 0u64..65_537) {
                with_world(|ctx, sk, pk, _, rng| {
                    let ca = ctx.encrypt(pk, &ctx.encode_scalar(a), rng);
                    let cb = ctx.encrypt(pk, &ctx.encode_scalar(b), rng);
                    assert_eq!(
                        ctx.decrypt(sk, &ctx.add(&ca, &cb).unwrap()).scalar(),
                        (a + b) % 65_537
                    );
                    assert_eq!(
                        ctx.decrypt(sk, &ctx.sub(&ca, &cb).unwrap()).scalar(),
                        (a + 65_537 - b) % 65_537
                    );
                });
            }

            #[test]
            fn prop_multiplicative_homomorphism(a in 0u64..65_537, b in 0u64..65_537) {
                with_world(|ctx, sk, pk, rk, rng| {
                    let ca = ctx.encrypt(pk, &ctx.encode_scalar(a), rng);
                    let cb = ctx.encrypt(pk, &ctx.encode_scalar(b), rng);
                    let prod = ctx.mul_relin(&ca, &cb, rk).unwrap();
                    assert_eq!(
                        u128::from(ctx.decrypt(sk, &prod).scalar()),
                        u128::from(a) * u128::from(b) % 65_537
                    );
                });
            }

            #[test]
            fn prop_rns_mul_decrypt_equals_oracle(seed in any::<u64>()) {
                with_world(|ctx, sk, pk, rk, _| {
                    let exact = MulOracle::new(ctx).unwrap();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let a = ctx.encrypt(pk, &random_plaintext(ctx, &mut rng), &mut rng);
                    let b = ctx.encrypt(pk, &random_plaintext(ctx, &mut rng), &mut rng);
                    let fast = ctx
                        .relinearize(&ctx.mul_rns(&a, Some(&b)), rk)
                        .unwrap();
                    let oracle = ctx.relinearize(&exact.mul(&a, &b).unwrap(), rk).unwrap();
                    assert_eq!(ctx.decrypt(sk, &fast), ctx.decrypt(sk, &oracle));
                    let fast_sq = ctx.mul_rns(&a, None);
                    let oracle_sq = exact.mul(&a, &a).unwrap();
                    assert_eq!(ctx.decrypt(sk, &fast_sq), ctx.decrypt(sk, &oracle_sq));
                });
            }

            #[test]
            fn prop_plain_ops(a in 0u64..65_537, s in 0u64..65_537) {
                with_world(|ctx, sk, pk, _, rng| {
                    let ct = ctx.encrypt(pk, &ctx.encode_scalar(a), rng);
                    assert_eq!(
                        ctx.decrypt(sk, &ctx.add_plain(&ct, &ctx.encode_scalar(s))).scalar(),
                        (a + s) % 65_537
                    );
                    assert_eq!(
                        u128::from(ctx.decrypt(sk, &ctx.mul_scalar(&ct, s)).scalar()),
                        u128::from(a) * u128::from(s) % 65_537
                    );
                });
            }
        }
    }
}
