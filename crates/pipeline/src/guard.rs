//! The noise-budget guard.
//!
//! Transciphering with an undersized RNS modulus doesn't fail loudly —
//! BFV decryption just starts returning wrong plaintexts once the noise
//! passes `q/2t`. A cloud receiver must therefore *refuse* work its
//! parameters cannot carry. Before the first block of a session is
//! transciphered, the guard symbolically executes the PASTA decryption
//! circuit through [`pasta_fhe::noise::NoiseModel`] and rejects the
//! session with a structured [`PipelineError::NoiseBudget`] — naming the
//! prime count that *would* work — instead of silently producing
//! garbage.

use crate::error::PipelineError;
use pasta_core::PastaParams;
use pasta_fhe::noise::{suggest_prime_count, transcipher_noise, NoiseModel};
use pasta_fhe::BfvParams;

/// Pre-flight noise check for a transciphering session.
#[derive(Debug, Clone, Copy)]
pub struct NoiseBudgetGuard {
    /// Bits of predicted budget that must remain after the circuit.
    pub margin_bits: f64,
    /// Whether the server evaluates the batched (SIMD) circuit, whose
    /// plaintext-polynomial multiplications grow noise faster. The
    /// batched prediction is an envelope, not a derivation: it covers
    /// mux slots (with one added mask prime) and packed PASTA-3, but
    /// **not** packed PASTA-4, which decrypts wrong at the envelope's
    /// 10 primes (see [`pasta_fhe::noise::transcipher_round_noise`]).
    pub batched: bool,
}

impl Default for NoiseBudgetGuard {
    fn default() -> Self {
        NoiseBudgetGuard {
            margin_bits: 12.0,
            batched: false,
        }
    }
}

impl NoiseBudgetGuard {
    /// Predicted post-circuit budget (bits) for transciphering `pasta`
    /// under `bfv`, without judging it.
    #[must_use]
    pub fn predicted_budget(&self, pasta: &PastaParams, bfv: &BfvParams) -> f64 {
        let start = NoiseModel::fresh_for(
            bfv.n,
            bfv.plain_modulus,
            bfv.prime_bits as usize * bfv.prime_count,
            bfv.prime_bits,
            bfv.prime_count,
        );
        transcipher_noise(pasta.t(), pasta.rounds(), self.batched, start).predicted_budget()
    }

    /// Admits or refuses a session.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoiseBudget`] when the predicted budget falls
    /// under the margin; the error names the smallest RNS prime count
    /// the model expects to survive the circuit (or `None` when no
    /// count up to 32 primes would).
    pub fn check(&self, pasta: &PastaParams, bfv: &BfvParams) -> Result<f64, PipelineError> {
        let predicted = self.predicted_budget(pasta, bfv);
        if predicted >= self.margin_bits {
            return Ok(predicted);
        }
        let suggested = suggest_prime_count(
            pasta.t(),
            pasta.rounds(),
            self.batched,
            bfv.n,
            bfv.plain_modulus,
            bfv.prime_bits,
            self.margin_bits,
        );
        Err(PipelineError::NoiseBudget {
            predicted_bits: predicted,
            required_bits: self.margin_bits,
            prime_count: bfv.prime_count,
            suggested_prime_count: suggested,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_math::Modulus;

    fn tiny_pasta() -> PastaParams {
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
    }

    #[test]
    fn adequate_parameters_are_admitted() {
        let guard = NoiseBudgetGuard::default();
        let budget = guard.check(&tiny_pasta(), &BfvParams::test_tiny()).unwrap();
        assert!(budget >= 12.0, "admitted with only {budget} bits");
    }

    #[test]
    fn starved_parameters_are_refused_with_a_suggestion() {
        let guard = NoiseBudgetGuard::default();
        let starved = BfvParams {
            prime_count: 2,
            ..BfvParams::test_tiny()
        };
        let err = guard.check(&tiny_pasta(), &starved).unwrap_err();
        match err {
            PipelineError::NoiseBudget {
                prime_count,
                suggested_prime_count,
                ..
            } => {
                assert_eq!(prime_count, 2);
                let suggested = suggested_prime_count.expect("tiny circuit has a workable size");
                assert!(suggested > 2, "suggestion {suggested}");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn batched_guard_is_stricter() {
        let scalar = NoiseBudgetGuard {
            batched: false,
            ..NoiseBudgetGuard::default()
        };
        let batched = NoiseBudgetGuard {
            batched: true,
            ..NoiseBudgetGuard::default()
        };
        // The tiny test circuit, then both paper parameter sets on the
        // N = 1024, 50-bit ring at the scalar guard's suggested count.
        let paper = |prime_count| BfvParams {
            n: 1_024,
            prime_count,
            ..BfvParams::test_tiny()
        };
        for (pasta, bfv) in [
            (tiny_pasta(), BfvParams::test_tiny()),
            (PastaParams::pasta4_17bit(), paper(7)),
            (PastaParams::pasta3_17bit(), paper(6)),
        ] {
            let (b, s) = (
                batched.predicted_budget(&pasta, &bfv),
                scalar.predicted_budget(&pasta, &bfv),
            );
            assert!(
                b < s,
                "t = {}: batched {b:.1} vs scalar {s:.1} bits",
                pasta.t()
            );
            assert!(scalar.check(&pasta, &bfv).is_ok());
        }
    }
}
