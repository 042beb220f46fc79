//! Static noise-growth prediction and BFV parameter sizing.
//!
//! The HHE server must finish the whole PASTA decryption circuit with
//! noise budget to spare. This module provides a conservative symbolic
//! tracker ([`NoiseModel`]) mirroring each homomorphic operation's
//! worst-case `log2` noise growth, and [`suggest_prime_count`], which
//! sizes the RNS modulus for a given transciphering circuit the way
//! SEAL users size `coeff_modulus` — but derived from the model instead
//! of trial and error. Predictions are validated against the *measured*
//! noise budget (`BfvContext::noise_budget`) in the tests.

use crate::bfv::{BfvContext, BfvParams};
use pasta_math::Modulus;

/// Upper bound on fresh error magnitude (centered binomial, parameter 4).
const ERROR_BOUND: f64 = 4.0;

/// A symbolic worst-case noise tracker for one ciphertext.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// `log2` of the worst-case noise magnitude.
    pub log2_noise: f64,
    n: f64,
    t: f64,
    q_bits: f64,
    relin_floor: f64,
}

impl NoiseModel {
    /// Noise of a fresh public-key encryption under `ctx`.
    #[must_use]
    pub fn fresh(ctx: &BfvContext) -> Self {
        Self::fresh_for(
            ctx.params().n,
            ctx.params().plain_modulus,
            ctx.q_bits(),
            ctx.params().prime_bits,
            ctx.params().prime_count,
        )
    }

    /// Noise model from raw parameters (used by the sizing search before
    /// a context exists).
    #[must_use]
    pub fn fresh_for(
        n: usize,
        plain_modulus: Modulus,
        q_bits: usize,
        prime_bits: u32,
        prime_count: usize,
    ) -> Self {
        let n = n as f64;
        // pk encryption: e1 + u·e + s·e2 → ≈ B(2N + 1).
        let log2_noise = (ERROR_BOUND * (2.0 * n + 1.0)).log2();
        // RNS relinearization adds Σ_j d_j e_j ≈ k·q_j·B·N.
        let relin_floor =
            (prime_count as f64).log2() + f64::from(prime_bits) + ERROR_BOUND.log2() + n.log2();
        NoiseModel {
            log2_noise,
            n,
            t: plain_modulus.value() as f64,
            q_bits: q_bits as f64,
            relin_floor,
        }
    }

    /// After a ciphertext–ciphertext addition.
    #[must_use]
    pub fn after_add(mut self, other: &NoiseModel) -> Self {
        self.log2_noise = self.log2_noise.max(other.log2_noise) + 1.0;
        self
    }

    /// After summing `k` ciphertexts whose noise each obeys this model's
    /// bound `B`: by the triangle inequality the sum's noise is at most
    /// `k·B`, so `log2 k` bits — not the `k − 1` bits of `k − 1` chained
    /// [`NoiseModel::after_add`]s.
    #[must_use]
    pub fn after_sum(mut self, k: usize) -> Self {
        self.log2_noise += (k.max(1) as f64).log2();
        self
    }

    /// After adding a plaintext (noise unchanged up to rounding slack).
    #[must_use]
    pub fn after_add_plain(mut self) -> Self {
        self.log2_noise += 0.1;
        self
    }

    /// After multiplying by a scalar `< bound`.
    #[must_use]
    pub fn after_mul_scalar(mut self, bound: u64) -> Self {
        self.log2_noise += (bound.max(2) as f64).log2();
        self
    }

    /// After multiplying by a full plaintext polynomial (batched
    /// material): worst case `t · N` amplification.
    #[must_use]
    pub fn after_mul_plain(mut self) -> Self {
        self.log2_noise += self.t.log2() + self.n.log2();
        self
    }

    /// After a ciphertext multiplication plus relinearization.
    #[must_use]
    pub fn after_mul_relin(mut self, other: &NoiseModel) -> Self {
        // BFV tensor: ν ≈ t·N·(ν1 + ν2) (+ small terms).
        let tensor = self.log2_noise.max(other.log2_noise) + self.t.log2() + self.n.log2() + 2.0;
        self.log2_noise = tensor.max(self.relin_floor) + 1.0;
        self
    }

    /// After [`BfvContext::mod_switch_to`] down to a level whose modulus
    /// has `q_bits_after` bits (no change unless that is below the
    /// current modulus).
    ///
    /// Dropping a prime `p` maps the noise `v ↦ v/p + ε`. The rounding of
    /// `c0 + c1·s` contributes at most `(1 + ‖s‖₁)/2 ≤ (N + 1)/2`, and
    /// rescaling `Δ` contributes `m·(ρ′ − ρ/p)/t` with `ρ = q mod t`,
    /// below `t`. Over several drops each earlier `ε` is divided by the
    /// later primes, so the sum stays below the floor `2t + N + 1`.
    /// The scaled part uses `q′/q < 2^(bits(q′) − bits(q) + 1)`. The
    /// budget is kept while `v·q′/q` is above the floor and lost once the
    /// floor dominates.
    #[must_use]
    pub fn after_mod_switch(mut self, q_bits_after: usize) -> Self {
        let q_bits_after = q_bits_after as f64;
        if q_bits_after >= self.q_bits {
            return self;
        }
        let scaled = self.log2_noise + q_bits_after - self.q_bits + 1.0;
        let floor = 2.0 * self.t + self.n + 1.0;
        self.log2_noise = (scaled.exp2() + floor).log2();
        self.q_bits = q_bits_after;
        self
    }

    /// Predicted remaining budget in bits (`0` = decryption at risk).
    #[must_use]
    pub fn predicted_budget(&self) -> f64 {
        (self.q_bits - self.log2_noise - self.t.log2() - 2.0).max(0.0)
    }
}

/// Symbolically executes the transciphering circuit for a PASTA-style
/// cipher with block size `t_pasta` and `rounds`, returning the noise
/// model after each round — affine layer, Mix and S-box, for rounds
/// `0..rounds` — and, last, after the final affine layer: `rounds + 1`
/// entries.
///
/// **Scalar** (`batched = false`) is a derivation. Each affine row sums
/// `t_pasta` scalar multiples of state ciphertexts, so it costs
/// `log2 t_pasta` bits on top of the scalar factor
/// ([`NoiseModel::after_sum`]); Mix and the S-boxes follow the circuit
/// op by op.
///
/// **Batched** (`batched = true`) is an envelope, not a derivation. It
/// charges each affine row a full-plaintext multiply and `t_pasta − 1`
/// chained additions, far more than the sum rule would. One guard
/// serves both slotted layouts — mux slots and packed lanes — although
/// the packed path's Galois key-switches and mask multiplies are not
/// modelled, and the surplus does **not** cover them everywhere:
///
/// * packed PASTA-3 holds: under the sum rule the envelope would
///   shrink to 6 primes at N = 1024, where the packed path fails to
///   decrypt; forced to 9 and 10 primes it kept only 53 and 101 bits,
///   against 405 bits at the envelope's 16 primes;
/// * packed PASTA-4 does not: at the envelope's 10 primes (and at 8
///   and 9) `keystream_packed` decrypts wrong, and at 11 primes it
///   keeps 51–53 bits. `BfvContext::noise_budget` read about 15 bits on
///   the wrong results, because its reading does not subtract `log₂ t`.
///
/// Mux domains run on the envelope plus one mask prime.
#[must_use]
pub fn transcipher_round_noise(
    t_pasta: usize,
    rounds: usize,
    batched: bool,
    start: NoiseModel,
) -> Vec<NoiseModel> {
    let affine = |state: NoiseModel| {
        let sum = if batched {
            let term = state.after_mul_plain();
            (1..t_pasta).fold(term, |acc, _| acc.after_add(&term))
        } else {
            state.after_mul_scalar(state.t as u64).after_sum(t_pasta)
        };
        sum.after_add_plain()
    };
    let mut state = start;
    let mut per_round = Vec::with_capacity(rounds + 1);
    for round in 0..rounds {
        state = affine(state);
        // Mix: two adds.
        state = state.after_add(&state).after_add(&state);
        // S-box: one squaring (Feistel) or two chained multiplications
        // (cube, last round) + the Feistel addition.
        let sq = state.after_mul_relin(&state);
        state = if round == rounds - 1 {
            sq.after_mul_relin(&state)
        } else {
            state.after_add(&sq)
        };
        per_round.push(state);
    }
    per_round.push(affine(state));
    per_round
}

/// The noise model at the end of the transciphering circuit: the last
/// entry of [`transcipher_round_noise`].
#[must_use]
pub fn transcipher_noise(
    t_pasta: usize,
    rounds: usize,
    batched: bool,
    start: NoiseModel,
) -> NoiseModel {
    let per_round = transcipher_round_noise(t_pasta, rounds, batched, start);
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
/// least `margin_bits` of predicted budget.
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
    (2..=32).find(|&count| {
        let q_bits = count * prime_bits as usize;
        let start = NoiseModel::fresh_for(n, plain_modulus, q_bits, prime_bits, count);
        let end = transcipher_noise(t_pasta, rounds, batched, start);
        end.predicted_budget() >= margin_bits
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
        // N = 1024, 50-bit primes, 12-bit margin: the rings the scalar
        // path and the two slotted layouts run on. The scalar counts
        // follow from the sum rule; the batched envelope must not move,
        // because it is what covers the packed path's unmodelled
        // Galois key-switches (mux domains add one mask prime on top).
        let suggest = |t, rounds, batched| {
            suggest_prime_count(t, rounds, batched, 1_024, Modulus::PASTA_17_BIT, 50, 12.0)
        };
        assert_eq!(suggest(32, 4, false), Some(7), "PASTA-4 scalar");
        assert_eq!(suggest(128, 3, false), Some(6), "PASTA-3 scalar");
        assert_eq!(suggest(32, 4, true), Some(10), "PASTA-4 batched");
        assert_eq!(suggest(128, 3, true), Some(16), "PASTA-3 batched");
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
        let m = NoiseModel::fresh_for(256, Modulus::PASTA_17_BIT, 60, 50, 1);
        let end = transcipher_noise(8, 4, true, m);
        assert_eq!(end.predicted_budget(), 0.0);
    }
}
