//! The cloud side: guarded transciphering.
//!
//! The receiver owns the full FHE world (context, keys, and the
//! provisioned [`pasta_hhe::EncryptedPastaKey`]) and refuses to come up
//! at all if the [`NoiseBudgetGuard`] predicts the transciphering
//! circuit would exhaust the noise budget — the structured
//! [`PipelineError::NoiseBudget`] names the prime count that would
//! work, instead of letting BFV decryption silently return garbage
//! mid-session.

use crate::error::PipelineError;
use crate::guard::NoiseBudgetGuard;
use crate::pack::ciphertext_from_elements;
use pasta_core::{PastaParams, SecretKey};
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::{EncryptedPastaKey, HheServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cloud receiver that transciphers delivered frames under FHE.
///
/// The simulation holds both sides of the deployment: the server state
/// (relinearization key + encrypted PASTA key) *and* the analyst's FHE
/// secret key, so delivered frames can be verified pixel-exact.
#[derive(Debug)]
pub struct CloudReceiver {
    params: PastaParams,
    ctx: BfvContext,
    fhe_sk: BfvSecretKey,
    server: HheServer,
    admitted_budget_bits: f64,
}

impl CloudReceiver {
    /// Sets up the receiver: guard check first, then FHE keygen and
    /// PASTA key provisioning.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoiseBudget`] when the guard refuses the
    /// parameter combination; FHE setup errors otherwise.
    pub fn new(
        params: PastaParams,
        bfv: BfvParams,
        guard: NoiseBudgetGuard,
        pasta_key: &SecretKey,
        seed: u64,
    ) -> Result<Self, PipelineError> {
        let admitted_budget_bits = guard.check(&params, &bfv)?;
        let ctx = BfvContext::new(bfv)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let fhe_sk = ctx.generate_secret_key(&mut rng);
        let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
        let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);
        let elements = pasta_key
            .expose_elements()
            .iter()
            .map(|&k| ctx.encrypt(&fhe_pk, &ctx.encode_scalar(k), &mut rng))
            .collect();
        let server = HheServer::new(params, &ctx, relin, EncryptedPastaKey { elements })?;
        Ok(CloudReceiver {
            params,
            ctx,
            fhe_sk,
            server,
            admitted_budget_bits,
        })
    }

    /// The budget (bits) the guard predicted will remain after the
    /// circuit.
    #[must_use]
    pub fn admitted_budget_bits(&self) -> f64 {
        self.admitted_budget_bits
    }

    /// Transciphers a reassembled frame and decrypts the resulting FHE
    /// ciphertexts back to pixels (the verification step a real analyst
    /// would run on the computation *result*, not the raw frame).
    ///
    /// # Errors
    ///
    /// Element-range errors from reassembly, FHE errors from the
    /// homomorphic circuit.
    pub fn transcipher_frame(
        &self,
        nonce: u128,
        elements: &[u64],
    ) -> Result<Vec<u64>, PipelineError> {
        let pasta_ct = ciphertext_from_elements(&self.params, nonce, elements)?;
        let fhe_cts = self.server.transcipher(&self.ctx, &pasta_ct)?;
        Ok(fhe_cts
            .iter()
            .map(|ct| self.ctx.decrypt(&self.fhe_sk, ct).scalar())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::PastaCipher;
    use pasta_math::Modulus;

    fn tiny_pasta() -> PastaParams {
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
    }

    #[test]
    fn guarded_receiver_transciphers_exactly() {
        let params = tiny_pasta();
        let key = SecretKey::from_seed(&params, b"cloud");
        let cloud = CloudReceiver::new(
            params,
            BfvParams::test_tiny(),
            NoiseBudgetGuard::default(),
            &key,
            42,
        )
        .unwrap();
        assert!(cloud.admitted_budget_bits() >= 12.0);
        let pixels = vec![9u64, 200, 0, 255, 17];
        let ct = PastaCipher::new(params, key).encrypt(6, &pixels).unwrap();
        let recovered = cloud.transcipher_frame(6, ct.elements()).unwrap();
        assert_eq!(recovered, pixels);
    }

    #[test]
    fn starved_receiver_refuses_to_start() {
        let params = tiny_pasta();
        let key = SecretKey::from_seed(&params, b"cloud");
        let starved = BfvParams {
            prime_count: 2,
            ..BfvParams::test_tiny()
        };
        let err =
            CloudReceiver::new(params, starved, NoiseBudgetGuard::default(), &key, 42).unwrap_err();
        assert!(
            matches!(err, PipelineError::NoiseBudget { .. }),
            "got {err:?}"
        );
    }
}
