//! The HHE server: homomorphic PASTA decryption (paper Fig. 1, right).
//!
//! Given the FHE-encrypted PASTA key and a symmetric PASTA ciphertext,
//! the server recomputes the *public* per-block randomness (matrices and
//! round constants are functions of the nonce/counter only) and evaluates
//! the PASTA decryption circuit under FHE, one block per pass:
//!
//! - affine layers multiply the key-state ciphertexts by the block's
//!   matrix entries, each a constant plaintext polynomial (a one-slot
//!   pass of the slot-parallel circuit, period `k = 1`), and add the
//!   round constants;
//! - Mix is additions;
//! - the Feistel/cube S-boxes are the expensive part — each squaring is a
//!   ciphertext–ciphertext multiplication plus relinearization, riding
//!   the full-RNS path of [`pasta_fhe::rns_mul`];
//! - finally `Enc(m) = Δ·c − Enc(KS)`: the symmetric ciphertext enters as
//!   a public constant.
//!
//! The circuit is the one [`crate::MuxHheServer`] runs over a whole
//! bucket; this server runs it once per block, so each output
//! ciphertext carries one message element.
//!
//! The result is a vector of FHE ciphertexts of the client's message —
//! the transciphering step that lets the client avoid FHE encryption
//! entirely.
//!
//! Provisioning footprint across the three server modes: this scalar
//! server ships `2t` key ciphertexts and zero rotation keys; the slotted
//! [`crate::MuxHheServer`] reads the same `2t` key ciphertexts, every
//! slot of which holds the key element, and zero rotation keys; the
//! packed server ships ONE key ciphertext plus its rotation keys — O(√t)
//! of them under hoisted BSGS (see [`crate::packed::required_shifts`]).

use crate::cache::BlockEntry;
use crate::circuit;
use crate::client::EncryptedPastaKey;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{BatchEncoder, BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError};

/// The HHE server state: the PASTA instance, the slot encoder of the
/// circuit's plaintexts, the relinearization key and the client's
/// encrypted PASTA key.
#[derive(Debug)]
pub struct HheServer {
    params: PastaParams,
    encoder: BatchEncoder,
    relin_key: BfvRelinKey,
    encrypted_key: EncryptedPastaKey,
}

impl HheServer {
    /// Sets up a server for one client under the ring of `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the encrypted key length is
    /// not `2t`; propagates encoder construction errors
    /// (`2N ∤ t_plain − 1`).
    pub fn new(
        params: PastaParams,
        ctx: &BfvContext,
        relin_key: BfvRelinKey,
        encrypted_key: EncryptedPastaKey,
    ) -> Result<Self, FheError> {
        if encrypted_key.elements.len() != params.state_size() {
            return Err(FheError::Incompatible(format!(
                "encrypted key has {} elements, expected {}",
                encrypted_key.elements.len(),
                params.state_size()
            )));
        }
        let encoder = BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n)
            .map_err(FheError::from)?;
        Ok(HheServer {
            params,
            encoder,
            relin_key,
            encrypted_key,
        })
    }

    /// The provisioned encrypted PASTA key. The multiplexing layer reads
    /// it to slot-mask tenants' keys into a shared bucket key (a scalar
    /// provisioned key already holds its element in every slot — the
    /// constant polynomial evaluates equally at every root).
    #[must_use]
    pub fn encrypted_key(&self) -> &EncryptedPastaKey {
        &self.encrypted_key
    }

    /// Homomorphically computes the keystream block for
    /// `(nonce, counter)`: FHE ciphertexts of `KS_0 … KS_{t-1}`.
    ///
    /// The block's matrices and round constants are derived from the XOF
    /// for this call and dropped after it: a session nonce is never
    /// accepted twice, so no block recurs. Only what the truncated output
    /// reads is evaluated: the last round cubes `X_L` alone and the final
    /// affine layer `A_r` runs on `X_L` alone.
    ///
    /// # Errors
    ///
    /// Propagates FHE errors (relinearization on malformed keys).
    pub fn keystream_encrypted(
        &self,
        ctx: &BfvContext,
        nonce: u128,
        counter: u64,
    ) -> Result<Vec<FheCiphertext>, FheError> {
        circuit::keystream(
            ctx,
            &self.params,
            &self.encoder,
            &self.relin_key,
            &[BlockEntry::derive(&self.params, nonce, counter)],
            &self.encrypted_key.elements,
        )
    }

    /// Transciphers one PASTA ciphertext into FHE ciphertexts of the
    /// message: `Enc(m_i) = Δ·c_i − Enc(KS_i)`.
    ///
    /// # Errors
    ///
    /// Propagates FHE errors from the keystream evaluation.
    pub fn transcipher(
        &self,
        ctx: &BfvContext,
        pasta_ct: &PastaCiphertext,
    ) -> Result<Vec<FheCiphertext>, FheError> {
        let t = self.params.t();
        let mut out = Vec::with_capacity(pasta_ct.len());
        for (counter, block) in pasta_ct.elements().chunks(t).enumerate() {
            let mut ks = self.keystream_encrypted(ctx, pasta_ct.nonce(), counter as u64)?;
            // `Δ·c − Enc(KS)` without re-encoding c: consume the
            // keystream ciphertext, negate it in place, and inject the
            // public symmetric element as a constant coefficient.
            ks.truncate(block.len());
            for (ks_ct, &c_elem) in ks.iter_mut().zip(block.iter()) {
                ctx.neg_assign(ks_ct);
                ctx.add_scalar_assign(ks_ct, c_elem);
            }
            out.append(&mut ks);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HheClient;
    use pasta_fhe::{BfvParams, BfvSecretKey};
    use pasta_math::Modulus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        ctx: BfvContext,
        fhe_sk: BfvSecretKey,
        client: HheClient,
        server: HheServer,
    }

    fn setup() -> World {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let fhe_sk = ctx.generate_secret_key(&mut rng);
        let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
        let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);
        let client = HheClient::new(params, b"hhe test");
        let encrypted_key = client.provision_key(&ctx, &fhe_pk, &mut rng);
        let server = HheServer::new(params, &ctx, relin, encrypted_key).unwrap();
        World {
            ctx,
            fhe_sk,
            client,
            server,
        }
    }

    #[test]
    fn homomorphic_keystream_matches_plain_keystream() {
        let w = setup();
        let expected = w.client.cipher().keystream_block(99, 0).unwrap();
        let encrypted = w.server.keystream_encrypted(&w.ctx, 99, 0).unwrap();
        let decrypted: Vec<u64> = encrypted
            .iter()
            .map(|ct| w.ctx.decrypt(&w.fhe_sk, ct).scalar())
            .collect();
        assert_eq!(
            decrypted, expected,
            "server must reproduce KS under encryption"
        );
    }

    #[test]
    fn transciphering_recovers_the_message() {
        let w = setup();
        let message = vec![11u64, 22, 33, 44];
        let pasta_ct = w.client.encrypt(1234, &message).unwrap();
        let fhe_cts = w.server.transcipher(&w.ctx, &pasta_ct).unwrap();
        let recovered = w.client.retrieve(&w.ctx, &w.fhe_sk, &fhe_cts);
        assert_eq!(recovered, message);
    }

    #[test]
    fn transciphering_multi_block() {
        let w = setup();
        let message: Vec<u64> = (0..10u64).map(|i| i * 1000 + 7).collect();
        let pasta_ct = w.client.encrypt(5, &message).unwrap();
        let fhe_cts = w.server.transcipher(&w.ctx, &pasta_ct).unwrap();
        assert_eq!(fhe_cts.len(), 10);
        assert_eq!(w.client.retrieve(&w.ctx, &w.fhe_sk, &fhe_cts), message);
    }

    #[test]
    fn warm_cache_pass_is_bit_exact() {
        // Every call derives the block afresh; a repeat call must give
        // the same ciphertexts bit for bit.
        let w = setup();
        let first = w.server.keystream_encrypted(&w.ctx, 4242, 1).unwrap();
        let again = w.server.keystream_encrypted(&w.ctx, 4242, 1).unwrap();
        assert_eq!(first, again, "a repeat call must be bit-exact");
    }

    #[test]
    fn noise_budget_survives_the_whole_circuit() {
        let w = setup();
        let encrypted = w.server.keystream_encrypted(&w.ctx, 3, 0).unwrap();
        for (i, ct) in encrypted.iter().enumerate() {
            let budget = w.ctx.noise_budget(&w.fhe_sk, ct);
            assert!(
                budget > 5,
                "keystream ct {i} nearly exhausted: {budget} bits"
            );
        }
    }

    #[test]
    fn server_can_compute_on_transciphered_data() {
        // The whole point of HHE: after transciphering the server holds
        // ordinary FHE ciphertexts it can compute on.
        let w = setup();
        let message = vec![100u64, 200, 300, 400];
        let pasta_ct = w.client.encrypt(8, &message).unwrap();
        let fhe_cts = w.server.transcipher(&w.ctx, &pasta_ct).unwrap();
        // Server-side: sum all elements homomorphically.
        let mut acc = fhe_cts[0].clone();
        for ct in &fhe_cts[1..] {
            acc = w.ctx.add(&acc, ct).unwrap();
        }
        assert_eq!(w.ctx.decrypt(&w.fhe_sk, &acc).scalar(), 1_000);
    }

    #[test]
    fn wrong_key_length_rejected() {
        let w = setup();
        let short = EncryptedPastaKey {
            elements: w.server.encrypted_key.elements[..3].to_vec(),
        };
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sk = w.ctx.generate_secret_key(&mut rng);
        let rk = w.ctx.generate_relin_key(&sk, &mut rng);
        assert!(matches!(
            HheServer::new(params, &w.ctx, rk, short),
            Err(FheError::Incompatible(_))
        ));
    }
}
