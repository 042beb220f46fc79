//! Static noise-growth prediction and BFV parameter sizing.
//!
//! The HHE server must finish the whole PASTA decryption circuit with
//! noise budget to spare. This module provides a symbolic tracker
//! ([`NoiseModel`]) that bounds each homomorphic operation's `log2`
//! noise growth, one derived count per ciphertext layout
//! ([`transcipher_round_noise`]), and [`suggest_prime_count`], which
//! sizes the RNS modulus for a transciphering circuit the way SEAL users
//! size `coeff_modulus`, but from the model instead of trial and error.
//!
//! The model and the measurement share one definition of noise: the
//! invariant noise `v` of a ciphertext, with `q·v = [t·(c₀ + c₁s)]_q`.
//! [`NoiseModel::log2_noise`] bounds `‖q·v‖∞ / t`, which is the phase
//! noise `e` of `Δ·m + e` plus the `Δ = ⌊q/t⌋` rounding term
//! `(q mod t)·m / t`, and [`NoiseModel::predicted_budget`] is a lower
//! bound on the measured [`BfvContext::noise_budget`]. The tests hold
//! the two against each other.
//!
//! **Ring products.** Every product of two ring elements is bounded
//! with one expansion factor, `‖a·b‖∞ ≤ δ_R·‖a‖∞·‖b‖∞` with
//! `δ_R = 2√N`. Each coefficient of `a·b` in `Z[X]/(X^N + 1)` is a
//! signed sum of `N` products; when one factor's coefficients are
//! independent and zero-mean, a central-limit argument keeps that sum
//! below `2√N·‖a‖∞‖b‖∞` except with negligible probability. This is
//! the high-probability bound of Kim–Polyakov–Zucca ("Revisiting
//! Homomorphic Encryption Schemes for Finite Fields", ASIACRYPT 2021)
//! and of OpenFHE's BFV parameter generation (`delta(n) = 2√n`), in the
//! average-case style of Costache–Smart ("Which Ring Based Somewhat
//! Homomorphic Encryption Scheme is Best?", CT-RSA 2016). Its assumption
//! holds here: one factor of every product is a secret, an error, a
//! uniform ciphertext polynomial, a key-switch digit or a pseudorandom
//! plaintext (the affine weights, the masks). The worst case is `N`.
//!
//! **Key switching.** Relinearization and every Galois rotation switch
//! one digit over `Q ∪ P` and divide by the special modulus `P` (see
//! [`crate::bfv`]). The key's error, multiplied by a digit below `Q/2`
//! and divided by `P > t·N·Q·2⁴`, is below one; what remains is the
//! ModDown's rounding, so a switch adds `(|P| + 1)·(1 + δ_R)` and no
//! term that grows with the prime size or count.

use crate::bfv::{BfvContext, BfvParams};
use crate::rns_mul::aux_basis_len;
use pasta_math::Modulus;

/// Upper bound on fresh error magnitude (centered binomial, parameter 4).
const ERROR_BOUND: f64 = 4.0;

/// `log₂(2^a + 2^b)`, without leaving the log domain (budgets reach
/// 1 600 bits, past `f64`'s exponent range).
fn log2_sum(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp2().ln_1p() / std::f64::consts::LN_2
}

/// A symbolic noise bound for one ciphertext.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// `log2` of the bound on `‖[t·(c₀ + c₁s)]_q‖∞ / t`.
    pub log2_noise: f64,
    n: f64,
    t: f64,
    q_bits: f64,
    /// `log2 δ_R`.
    log2_delta: f64,
    /// `log2` of the noise one key switch adds (relinearization or a
    /// Galois rotation): the ModDown rounding.
    key_switch: f64,
    /// `log2` of what a multiplication adds on top of its tensor terms:
    /// the scale's rounding and the relinearization key-switch.
    mul_floor: f64,
}

impl NoiseModel {
    /// Noise of a fresh public-key encryption under `ctx`.
    #[must_use]
    pub fn fresh(ctx: &BfvContext) -> Self {
        Self::fresh_for(
            ctx.params().n,
            ctx.params().plain_modulus,
            ctx.q_bits(),
            ctx.params().prime_count,
        )
    }

    /// Noise model from raw parameters (used by the sizing search before
    /// a context exists). `q_bits` also sizes the special modulus `P`,
    /// so an upper bound on it gives a conservative model.
    #[must_use]
    pub fn fresh_for(n: usize, plain_modulus: Modulus, q_bits: usize, prime_count: usize) -> Self {
        let special = aux_basis_len(n, q_bits, plain_modulus.value()) as f64;
        let n = n as f64;
        let t = plain_modulus.value() as f64;
        let delta = 2.0 * n.sqrt();
        let k = prime_count as f64;
        // pk encryption: phase noise e₁ − e·u + e₂·s ≤ B(1 + 2δ_R), plus
        // the Δ rounding term (q mod t)·m/t < t.
        let log2_noise = (ERROR_BOUND * (1.0 + 2.0 * delta) + t).log2();
        // Key switch: the ModDown ⌊acc/P⌋ − u (0 ≤ u < |P|) of each of
        // (c₀, c₁), weighted by (1, s), plus the key error x̃·e/P < 1.
        let key_switch = ((special + 1.0) * (1.0 + delta)).log2();
        // The scale ⌊t·c/q⌋ − α (α < k, see `rns_mul`) rounds each of
        // (c₀, c₁, c₂) by less than k + 1, weighted by (1, s, s²).
        let rounding = ((k + 1.0) * (1.0 + delta + delta * delta)).log2();
        NoiseModel {
            log2_noise,
            n,
            t,
            q_bits: q_bits as f64,
            log2_delta: delta.log2(),
            key_switch,
            mul_floor: log2_sum(key_switch, rounding),
        }
    }

    /// After a ciphertext–ciphertext addition: the noises add.
    #[must_use]
    pub fn after_add(mut self, other: &NoiseModel) -> Self {
        self.log2_noise = log2_sum(self.log2_noise, other.log2_noise);
        self
    }

    /// After summing `k` ciphertexts whose noise each obeys this model's
    /// bound `B`: by the triangle inequality the sum's noise is at most
    /// `k·B`, so `log2 k` bits.
    #[must_use]
    pub fn after_sum(mut self, k: usize) -> Self {
        self.log2_noise += (k.max(1) as f64).log2();
        self
    }

    /// After adding a plaintext `p` (as `Δ·p`): the invariant noise moves
    /// by the rounding term `(q mod t)·p`, below `t` in these units.
    #[must_use]
    pub fn after_add_plain(mut self) -> Self {
        self.log2_noise = log2_sum(self.log2_noise, self.t.log2());
        self
    }

    /// After multiplying by a scalar `< bound`.
    #[must_use]
    pub fn after_mul_scalar(mut self, bound: u64) -> Self {
        self.log2_noise += (bound.max(2) as f64).log2();
        self
    }

    /// After multiplying by a full plaintext polynomial (coefficients in
    /// `[0, t)`, one ring product): `δ_R·t` amplification.
    #[must_use]
    pub fn after_mul_plain(mut self) -> Self {
        self.log2_noise += self.log2_delta + self.t.log2();
        self
    }

    /// After a key switch (a Galois rotation, classic or hoisted): the
    /// automorphism keeps `‖·‖∞`, and the switch adds its ModDown
    /// rounding.
    #[must_use]
    pub fn after_key_switch(mut self) -> Self {
        self.log2_noise = log2_sum(self.log2_noise, self.key_switch);
        self
    }

    /// After a ciphertext multiplication plus relinearization.
    ///
    /// Write `(t/q)·(c₀ + c₁s) = m + v + t·I` for each operand, with
    /// `m < t`, the invariant noise `v` and an integer polynomial `I`;
    /// for `c` centered in `(−q/2, q/2]` and a ternary `s`,
    /// `‖I‖∞ < (δ_R + 4)/2`. The scaled tensor's invariant noise is
    /// `m₁v₂ + m₂v₁ + t·(I₁v₂ + I₂v₁) + v₁v₂` plus the scale's rounding,
    /// one `δ_R` per product, so in this model's units
    /// `ν ≤ δ_R·t·(δ_R + 6)/2·(ν₁ + ν₂) + δ_R·t·ν₁ν₂/q`, plus the
    /// rounding and the relinearization key-switch.
    #[must_use]
    pub fn after_mul_relin(mut self, other: &NoiseModel) -> Self {
        let gain = self.log2_delta + self.t.log2() + ((self.log2_delta.exp2() + 6.0) / 2.0).log2();
        let linear = gain + log2_sum(self.log2_noise, other.log2_noise);
        // 1/q < 2^(1 − q_bits).
        let quadratic = self.log2_delta + self.t.log2() + self.log2_noise + other.log2_noise + 1.0
            - self.q_bits;
        self.log2_noise = log2_sum(log2_sum(linear, quadratic), self.mul_floor);
        self
    }

    /// After [`BfvContext::mod_switch_to`] down to a level whose modulus
    /// has `q_bits_after` bits (no change unless that is below the
    /// current modulus).
    ///
    /// Dropping a prime `p` maps `c ↦ c/p + ε` with `‖ε‖∞ ≤ 1/2` per
    /// component, so the invariant noise maps `q·v ↦ q′·v + t·(ε₀ + ε₁s)`:
    /// the scaled part plus a floor of `(1 + δ_R)/2` in these units. The
    /// scaled part uses `q′/q < 2^(bits(q′) − bits(q) + 1)`. Over
    /// several drops each earlier `ε` is divided by the later primes, so
    /// the floor holds for the whole switch. The budget is kept while
    /// the scaled part is above the floor and lost once the floor
    /// dominates.
    #[must_use]
    pub fn after_mod_switch(mut self, q_bits_after: usize) -> Self {
        let q_bits_after = q_bits_after as f64;
        if q_bits_after >= self.q_bits {
            return self;
        }
        let scaled = self.log2_noise + q_bits_after - self.q_bits + 1.0;
        let floor = ((1.0 + self.log2_delta.exp2()) / 2.0).log2();
        self.log2_noise = log2_sum(scaled, floor);
        self.q_bits = q_bits_after;
        self
    }

    /// Predicted remaining budget in bits (`0` = decryption at risk): a
    /// lower bound on [`BfvContext::noise_budget`], which reads
    /// `bits(q) − bits(‖q·v‖∞) − 1 ≥ q_bits − log₂(t·ν) − 2`.
    #[must_use]
    pub fn predicted_budget(&self) -> f64 {
        (self.q_bits - self.log2_noise - self.t.log2() - 2.0).max(0.0)
    }
}

/// How a server lays the PASTA state out in its ciphertexts. The
/// layouts evaluate the same circuit with different operations, so each
/// has its own derived noise count ([`transcipher_round_noise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One ciphertext per state element, one block per pass: the
    /// affine weights are scalars (the scalar pass).
    Scalar,
    /// One ciphertext per state element, blocks across the slots: the
    /// affine weights are plaintext polynomials (a one-member bucket).
    Slotted,
    /// [`Layout::Slotted`] over a composed key: each member's key times
    /// its 0/1 slot mask, summed over up to `N` members (a mux pass of
    /// two or more members).
    Mux,
    /// The whole state in the lanes of one ciphertext: affine layers by
    /// the rotation/diagonal method, the Feistel square and the
    /// truncation masked by plaintexts (the packed server).
    Packed,
}

impl Layout {
    /// The layouts an admission guard holds a session to: the scalar
    /// pass, or, for a batched server, the one-member bucket and the
    /// packed server, whichever needs more.
    #[must_use]
    pub fn guarded(batched: bool) -> &'static [Layout] {
        if batched {
            &[Layout::Slotted, Layout::Packed]
        } else {
            &[Layout::Scalar]
        }
    }
}

/// Symbolically executes the transciphering circuit for a PASTA-style
/// cipher with block size `t_pasta` and `rounds` under `layout`,
/// returning the noise model after each round — affine layer, Mix and
/// S-box, for rounds `0..rounds` — and, last, after the final affine
/// layer (and, packed, the truncation mask): `rounds + 1` entries.
///
/// Every count is a derivation from the op-by-op rules of
/// [`NoiseModel`]:
///
/// - **Scalar**: each affine row sums `t_pasta` scalar multiples of
///   state ciphertexts ([`NoiseModel::after_sum`]).
/// - **Slotted** and **Mux**: each affine row sums `t_pasta` plaintext
///   multiplies; Mux starts from the composed key, a plaintext multiply
///   summed over up to `N` members.
/// - **Packed**: each of the `2t_pasta` diagonals of a layer costs its
///   hoisted baby rotation (a key-switch), its plaintext multiply and a
///   share of a giant rotation (a key-switch after the multiply); Mix
///   reads its swapped half through a rotation; the Feistel square reads
///   a rotated state and is masked by a plaintext; the output is masked
///   by the truncation plaintext.
///
/// Mix is `2·x + y` and every S-box follows the circuit op by op.
#[must_use]
pub fn transcipher_round_noise(
    t_pasta: usize,
    rounds: usize,
    layout: Layout,
    start: NoiseModel,
) -> Vec<NoiseModel> {
    let packed = layout == Layout::Packed;
    let rotated = |state: NoiseModel| {
        if packed {
            state.after_key_switch()
        } else {
            state
        }
    };
    let affine = |state: NoiseModel| {
        match layout {
            Layout::Scalar => state.after_mul_scalar(state.t as u64).after_sum(t_pasta),
            Layout::Slotted | Layout::Mux => state.after_mul_plain().after_sum(t_pasta),
            Layout::Packed => state
                .after_key_switch()
                .after_mul_plain()
                .after_key_switch()
                .after_sum(2 * t_pasta),
        }
        .after_add_plain()
    };
    let mut state = if layout == Layout::Mux {
        start.after_mul_plain().after_sum(start.n as usize)
    } else {
        start
    };
    let mut per_round = Vec::with_capacity(rounds + 1);
    for round in 0..rounds {
        state = rotated(affine(state)).after_sum(3);
        state = if round == rounds - 1 {
            // The cube: relin(x²)·x.
            state.after_mul_relin(&state).after_mul_relin(&state)
        } else {
            // Feistel: x_j + x_{j−1}², the packed square masked.
            let shifted = rotated(state);
            let square = shifted.after_mul_relin(&shifted);
            state.after_add(&if packed {
                square.after_mul_plain()
            } else {
                square
            })
        };
        per_round.push(state);
    }
    let last = affine(state);
    per_round.push(if packed { last.after_mul_plain() } else { last });
    per_round
}

/// The noise model at the end of the transciphering circuit: the last
/// entry of [`transcipher_round_noise`].
#[must_use]
pub fn transcipher_noise(
    t_pasta: usize,
    rounds: usize,
    layout: Layout,
    start: NoiseModel,
) -> NoiseModel {
    let per_round = transcipher_round_noise(t_pasta, rounds, layout, start);
    per_round[per_round.len() - 1]
}

/// The fewest primes a finished result can be switched down to
/// ([`BfvContext::mod_switch_to`]) with `margin_bits` of predicted
/// budget left: the lowest level whose [`NoiseModel::after_mod_switch`]
/// prediction from `end` meets the margin, else the top level.
#[must_use]
pub fn compact_level(ctx: &BfvContext, end: NoiseModel, margin_bits: f64) -> usize {
    let top = ctx.basis().len();
    (1..top)
        .find(|&level| {
            end.after_mod_switch(ctx.level_q_bits(level))
                .predicted_budget()
                >= margin_bits
        })
        .unwrap_or(top)
}

/// Sizes the RNS prime count so the transciphering circuit retains at
/// least `margin_bits` of predicted budget under every layout of
/// [`Layout::guarded`]`(batched)`.
///
/// Returns `None` when no count up to 32 primes suffices (degenerate
/// inputs — e.g. a ring dimension far too small for the circuit).
#[must_use]
pub fn suggest_prime_count(
    t_pasta: usize,
    rounds: usize,
    batched: bool,
    n: usize,
    plain_modulus: Modulus,
    prime_bits: u32,
    margin_bits: f64,
) -> Option<usize> {
    let layouts = Layout::guarded(batched);
    suggest_prime_count_for(
        layouts,
        t_pasta,
        rounds,
        n,
        plain_modulus,
        prime_bits,
        margin_bits,
    )
}

/// [`suggest_prime_count`] for an explicit set of layouts: the fewest
/// primes (up to 32) under which every one of `layouts` keeps
/// `margin_bits` of predicted budget.
#[must_use]
pub fn suggest_prime_count_for(
    layouts: &[Layout],
    t_pasta: usize,
    rounds: usize,
    n: usize,
    plain_modulus: Modulus,
    prime_bits: u32,
    margin_bits: f64,
) -> Option<usize> {
    (2..=32).find(|&count| {
        let q_bits = count * prime_bits as usize;
        let start = NoiseModel::fresh_for(n, plain_modulus, q_bits, count);
        layouts.iter().all(|&layout| {
            transcipher_noise(t_pasta, rounds, layout, start).predicted_budget() >= margin_bits
        })
    })
}

/// Suggests complete BFV parameters for transciphering a PASTA instance,
/// or `None` when no RNS modulus of up to 32 primes carries the circuit.
#[must_use]
pub fn suggest_bfv_params(
    t_pasta: usize,
    rounds: usize,
    batched: bool,
    n: usize,
    prime_bits: u32,
) -> Option<BfvParams> {
    let plain = Modulus::PASTA_17_BIT;
    let prime_count = suggest_prime_count(t_pasta, rounds, batched, n, plain, prime_bits, 12.0)?;
    Some(BfvParams {
        n,
        plain_modulus: plain,
        prime_bits,
        prime_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::BfvContext;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper-scale ring the scalar PASTA-4 circuit is sized to:
    /// N = 1024, 7 × 50-bit primes.
    fn paper_ring() -> BfvParams {
        BfvParams {
            n: 1_024,
            prime_count: 7,
            ..BfvParams::test_tiny()
        }
    }

    fn setup(
        params: BfvParams,
    ) -> (
        BfvContext,
        crate::bfv::BfvSecretKey,
        crate::bfv::BfvPublicKey,
        crate::bfv::BfvRelinKey,
        StdRng,
    ) {
        let ctx = BfvContext::new(params).unwrap();
        let mut rng = StdRng::seed_from_u64(404);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        (ctx, sk, pk, rk, rng)
    }

    #[test]
    fn fresh_prediction_is_conservative_but_sane() {
        for params in [BfvParams::test_tiny(), paper_ring()] {
            let (ctx, sk, pk, _, mut rng) = setup(params);
            let ct = ctx.encrypt(&pk, &ctx.encode_scalar(7), &mut rng);
            let measured = f64::from(ctx.noise_budget(&sk, &ct));
            let predicted = NoiseModel::fresh(&ctx).predicted_budget();
            assert!(
                predicted <= measured,
                "N = {}: prediction must be conservative: {predicted} vs {measured}",
                params.n
            );
            assert!(
                measured - predicted < 25.0,
                "N = {}: prediction too pessimistic: {predicted} vs {measured}",
                params.n
            );
        }
    }

    #[test]
    fn mul_relin_prediction_tracks_measurement() {
        for params in [BfvParams::test_tiny(), paper_ring()] {
            let (ctx, sk, pk, rk, mut rng) = setup(params);
            let mut ct = ctx.encrypt(&pk, &ctx.encode_scalar(3), &mut rng);
            let mut model = NoiseModel::fresh(&ctx);
            for step in 0..2 {
                ct = ctx.square_relin(&ct, &rk).unwrap();
                model = model.after_mul_relin(&model.clone());
                let measured = f64::from(ctx.noise_budget(&sk, &ct));
                let predicted = model.predicted_budget();
                assert!(
                    predicted <= measured + 2.0,
                    "N = {}, step {step}: prediction {predicted} exceeds measured {measured}",
                    params.n
                );
                assert!(
                    measured - predicted < 45.0,
                    "N = {}, step {step}: prediction {predicted} too pessimistic vs {measured}",
                    params.n
                );
            }
        }
    }

    #[test]
    fn mod_switch_prediction_bounds_measurement() {
        // A squared-and-relinearized ciphertext at the paper ring,
        // switched to every lower level: the model's budget is never
        // above the measured one, and it keeps the budget until the
        // rounding floor takes over.
        let (ctx, sk, pk, rk, mut rng) = setup(paper_ring());
        let ct = ctx.encrypt(&pk, &ctx.encode_scalar(3), &mut rng);
        let sq = ctx.square_relin(&ct, &rk).unwrap();
        let model = NoiseModel::fresh(&ctx).after_mul_relin(&NoiseModel::fresh(&ctx));
        let top = ctx.basis().len();
        for level in 1..top {
            let mut low = sq.clone();
            ctx.mod_switch_to(&mut low, level).unwrap();
            assert_eq!(ctx.decrypt(&sk, &low).scalar(), 9);
            let predicted = model
                .after_mod_switch(ctx.level_q_bits(level))
                .predicted_budget();
            let measured = f64::from(ctx.noise_budget(&sk, &low));
            assert!(
                predicted <= measured,
                "level {level}: predicted {predicted:.1} exceeds measured {measured}"
            );
        }
        // A lower level never predicts more budget, and switching to the
        // top level is no switch.
        let at = |level| {
            model
                .after_mod_switch(ctx.level_q_bits(level))
                .predicted_budget()
        };
        assert!((1..top).all(|level| at(level) <= at(level + 1)));
        assert_eq!(model.after_mod_switch(ctx.q_bits()), model);
        let end = model;
        let level = compact_level(&ctx, end, 12.0);
        assert!(at(level) >= 12.0);
        assert!(level == 1 || at(level - 1) < 12.0);
    }

    #[test]
    fn sum_prediction_bounds_an_affine_row() {
        // An affine row of the scalar circuit: k fresh ciphertexts, each
        // scaled by a scalar just under the plaintext modulus, summed.
        let (ctx, sk, pk, _, mut rng) = setup(paper_ring());
        let p = ctx.params().plain_modulus.value();
        for k in [32usize, 128] {
            let mut acc = ctx.encrypt_trivial(&ctx.encode_scalar(0));
            for j in 0..k as u64 {
                let ct = ctx.encrypt(&pk, &ctx.encode_scalar(rng.gen_range(0..p)), &mut rng);
                ctx.add_assign(&mut acc, &ctx.mul_scalar(&ct, p - 1 - j))
                    .unwrap();
            }
            let measured = f64::from(ctx.noise_budget(&sk, &acc));
            let predicted = NoiseModel::fresh(&ctx)
                .after_mul_scalar(p)
                .after_sum(k)
                .predicted_budget();
            assert!(
                predicted <= measured,
                "k = {k}: predicted {predicted:.1} bits exceeds measured {measured}"
            );
        }
    }

    #[test]
    fn scalar_mul_prediction() {
        let (ctx, sk, pk, _, mut rng) = setup(BfvParams::test_tiny());
        let ct = ctx.encrypt(&pk, &ctx.encode_scalar(3), &mut rng);
        let scaled = ctx.mul_scalar(&ct, 65_000);
        let measured = f64::from(ctx.noise_budget(&sk, &scaled));
        let predicted = NoiseModel::fresh(&ctx)
            .after_mul_scalar(65_536)
            .predicted_budget();
        assert!(predicted <= measured + 2.0, "{predicted} vs {measured}");
    }

    #[test]
    fn suggested_params_match_hand_tuned() {
        // The scalar t=4/r=2 test circuit was hand-tuned to 4×50-bit
        // primes; the model should land within one prime of that.
        let count = suggest_prime_count(4, 2, false, 256, Modulus::PASTA_17_BIT, 50, 12.0).unwrap();
        assert!((4..=6).contains(&count), "suggested {count} primes");
        // The batched variant needs at least as much.
        let batched =
            suggest_prime_count(4, 2, true, 256, Modulus::PASTA_17_BIT, 50, 12.0).unwrap();
        assert!(batched >= count);
        // PASTA-4 proper needs substantially more.
        let p4 = suggest_prime_count(32, 4, false, 2_048, Modulus::PASTA_17_BIT, 55, 12.0).unwrap();
        assert!((6..=10).contains(&p4), "PASTA-4 suggestion {p4}");
        // Degenerate inputs (1-bit primes cannot outgrow the circuit)
        // yield None instead of a bogus suggestion.
        assert_eq!(
            suggest_prime_count(32, 4, true, 256, Modulus::PASTA_17_BIT, 1, 12.0),
            None
        );
    }

    #[test]
    fn paper_ring_suggestions_are_pinned() {
        // N = 1024, 50-bit primes, 12-bit margin: the rings each layout's
        // derived count sizes. The batched guard takes the larger of the
        // slotted and packed counts; a shared domain adds the mux count.
        // The packed counts (and so the batched guard) fell by one prime,
        // 10 → 9 and 8 → 7, when the key switch moved onto the special
        // modulus: a rotation no longer adds a digit noise of
        // `k·q_i·δ_R·B`, only the ModDown rounding.
        let suggest = |t, rounds, layouts: &[Layout]| {
            suggest_prime_count_for(layouts, t, rounds, 1_024, Modulus::PASTA_17_BIT, 50, 12.0)
        };
        let pasta4 = |layout| suggest(32, 4, &[layout]);
        let pasta3 = |layout| suggest(128, 3, &[layout]);
        assert_eq!(pasta4(Layout::Scalar), Some(6), "PASTA-4 scalar");
        assert_eq!(pasta4(Layout::Slotted), Some(7), "PASTA-4 slotted");
        assert_eq!(pasta4(Layout::Mux), Some(8), "PASTA-4 mux");
        assert_eq!(pasta4(Layout::Packed), Some(9), "PASTA-4 packed");
        assert_eq!(pasta3(Layout::Scalar), Some(6), "PASTA-3 scalar");
        assert_eq!(pasta3(Layout::Slotted), Some(6), "PASTA-3 slotted");
        assert_eq!(pasta3(Layout::Mux), Some(7), "PASTA-3 mux");
        assert_eq!(pasta3(Layout::Packed), Some(7), "PASTA-3 packed");
        let guarded = |t, rounds, batched| {
            suggest_prime_count(t, rounds, batched, 1_024, Modulus::PASTA_17_BIT, 50, 12.0)
        };
        assert_eq!(guarded(32, 4, true), Some(9), "PASTA-4 batched");
        assert_eq!(guarded(128, 3, true), Some(7), "PASTA-3 batched");
        assert_eq!(guarded(32, 4, false), pasta4(Layout::Scalar));
    }

    #[test]
    fn suggested_params_actually_work_end_to_end() {
        // Build a context from the model's suggestion and run the
        // real homomorphic circuit's noisiest primitive chain: 3 affine
        // layers of scalar-mul + doublings + constant, 1 Feistel square,
        // 1 cube (two muls) — alongside the same chain on plaintext and
        // on the model.
        let params = suggest_bfv_params(4, 2, false, 256, 50).unwrap();
        let ctx = BfvContext::new(params).unwrap();
        let zp = ctx.plain();
        let mut rng = StdRng::seed_from_u64(777);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let mut ct = ctx.encrypt(&pk, &ctx.encode_scalar(2), &mut rng);
        let mut plain = 2u64;
        let mut model = NoiseModel::fresh(&ctx);
        for layer in 0..3 {
            ct = ctx.mul_scalar(&ct, 65_000);
            plain = zp.mul(plain, 65_000);
            model = model.after_mul_scalar(65_000);
            for _ in 1..4 {
                ct = ctx.add(&ct, &ct).unwrap();
                plain = zp.add(plain, plain);
                model = model.after_add(&model);
            }
            ct = ctx.add_plain(&ct, &ctx.encode_scalar(5));
            plain = zp.add(plain, 5);
            model = model.after_add_plain();
            if layer == 0 {
                ct = ctx.square_relin(&ct, &rk).unwrap();
                plain = zp.mul(plain, plain);
                model = model.after_mul_relin(&model);
            } else if layer == 1 {
                let sq = ctx.square_relin(&ct, &rk).unwrap();
                ct = ctx.mul_relin(&sq, &ct, &rk).unwrap();
                plain = zp.mul(zp.mul(plain, plain), plain);
                model = model.after_mul_relin(&model).after_mul_relin(&model);
            }
        }
        assert_eq!(ctx.decrypt(&sk, &ct).scalar(), plain);
        let measured = f64::from(ctx.noise_budget(&sk, &ct));
        let predicted = model.predicted_budget();
        assert!(
            predicted > 0.0 && measured >= predicted,
            "measured {measured} bits vs {predicted:.1} predicted"
        );
    }

    #[test]
    fn budget_never_negative() {
        let m = NoiseModel::fresh_for(256, Modulus::PASTA_17_BIT, 60, 1);
        let end = transcipher_noise(8, 4, Layout::Packed, m);
        assert_eq!(end.predicted_budget(), 0.0);
    }
}
