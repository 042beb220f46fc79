//! The HHE server: homomorphic PASTA decryption (paper Fig. 1, right).
//!
//! Given the FHE-encrypted PASTA key and a symmetric PASTA ciphertext,
//! the server recomputes the *public* per-block randomness (matrices and
//! round constants are functions of the nonce/counter only) and evaluates
//! the PASTA decryption circuit under FHE:
//!
//! - affine layers become plaintext-scalar multiplications and additions
//!   on key ciphertexts;
//! - Mix is additions;
//! - the Feistel/cube S-boxes are the expensive part — each squaring is a
//!   ciphertext–ciphertext multiplication plus relinearization, riding
//!   the full-RNS path of [`pasta_fhe::rns_mul`];
//! - finally `Enc(m) = Δ·c − Enc(KS)`: the symmetric ciphertext enters as
//!   a public constant.
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
use crate::client::EncryptedPastaKey;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError};
use pasta_math::linalg::Matrix;

/// The HHE server state: the PASTA instance, relinearization key and the
/// client's encrypted PASTA key.
#[derive(Debug)]
pub struct HheServer {
    params: PastaParams,
    relin_key: BfvRelinKey,
    encrypted_key: EncryptedPastaKey,
}

impl HheServer {
    /// Sets up a server for one client.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the encrypted key length is
    /// not `2t`.
    pub fn new(
        params: PastaParams,
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
        Ok(HheServer {
            params,
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
    /// affine layer `A_r` runs on `X_L` alone (see `cube`).
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
        let entry = BlockEntry::derive(&self.params, nonce, counter);
        let (layers, mats) = (&entry.material.layers, &entry.matrices);
        let (left, right) = self.encrypted_key.elements.split_at(self.params.t());
        eval_rounds(
            ctx,
            &self.relin_key,
            self.params.rounds(),
            left,
            right,
            |i, is_left, half| {
                if is_left {
                    Self::affine_half(ctx, half, &mats[i].left, &layers[i].rc_left)
                } else {
                    Self::affine_half(ctx, half, &mats[i].right, &layers[i].rc_right)
                }
            },
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

    /// One affine layer on one half: `out_i = Σ_j M_ij·ct_j + rc_i`.
    ///
    /// The matrix comes from the block's derived material; output rows are
    /// independent, so the `t`-ciphertext fan-out runs on the worker
    /// pool (`PASTA_THREADS`) — bit-exact for any thread count.
    fn affine_half(
        ctx: &BfvContext,
        half: &[FheCiphertext],
        matrix: &Matrix,
        rc: &[u64],
    ) -> Result<Vec<FheCiphertext>, FheError> {
        let t = half.len();
        if half.is_empty() {
            return Err(FheError::Incompatible(
                "affine layer applied to an empty state half".into(),
            ));
        }
        let rows: Vec<usize> = (0..t.min(rc.len())).collect();
        pasta_par::parallel_map(&rows, |_, &i| {
            let row = matrix.row(i);
            let mut acc = ctx.mul_scalar(&half[0], row[0]);
            for (j, ct) in half.iter().enumerate().skip(1) {
                let term = ctx.mul_scalar(ct, row[j]);
                ctx.add_assign(&mut acc, &term)?;
            }
            ctx.add_scalar_assign(&mut acc, rc[i]);
            Ok(acc)
        })
        .into_iter()
        .collect()
    }
}

/// The round schedule of the PASTA decryption circuit, shared by the
/// scalar and the slotted (mux) evaluators: per round `i < r`, the
/// affine layer `A_i` on both halves, Mix, then the Feistel S-box — or,
/// in the last round, drop `X_R` (truncation keeps `X_L` only) and
/// [`cube`] `X_L`. Finally `A_r` on `X_L`. `affine(i, is_left, half)`
/// evaluates layer `i` on one half.
pub(crate) fn eval_rounds<F>(
    ctx: &BfvContext,
    relin_key: &BfvRelinKey,
    rounds: usize,
    initial_left: &[FheCiphertext],
    initial_right: &[FheCiphertext],
    affine: F,
) -> Result<Vec<FheCiphertext>, FheError>
where
    F: Fn(usize, bool, &[FheCiphertext]) -> Result<Vec<FheCiphertext>, FheError>,
{
    let mut left = initial_left.to_vec();
    let mut right = initial_right.to_vec();
    for i in 0..rounds {
        left = affine(i, true, &left)?;
        right = affine(i, false, &right)?;
        mix(ctx, &mut left, &mut right)?;
        if i < rounds - 1 {
            feistel(ctx, relin_key, &mut left, &mut right)?;
        } else {
            // The right half is dead from here on; free it before the
            // cubes.
            right.clear();
            left = cube(ctx, relin_key, &left)?;
        }
    }
    affine(rounds, true, &left)
}

/// Mix: `(2L + R, 2R + L)` element-wise with additions only.
fn mix(
    ctx: &BfvContext,
    left: &mut [FheCiphertext],
    right: &mut [FheCiphertext],
) -> Result<(), FheError> {
    for (l, r) in left.iter_mut().zip(right.iter_mut()) {
        let mut sum = l.clone();
        ctx.add_assign(&mut sum, r)?;
        ctx.add_assign(l, &sum)?;
        ctx.add_assign(r, &sum)?;
    }
    Ok(())
}

/// Feistel S-box over the concatenated state `X_L ‖ X_R`:
/// `y_0 = x_0`, `y_j = x_j + x_{j-1}²` on input values. The squarings
/// (ciphertext × ciphertext products — the expensive part of the
/// circuit) fan out across the worker pool.
fn feistel(
    ctx: &BfvContext,
    relin_key: &BfvRelinKey,
    left: &mut [FheCiphertext],
    right: &mut [FheCiphertext],
) -> Result<(), FheError> {
    // Targets are taken from the top down, a few squares per worker at
    // a time: every square reads an input no add has touched yet, and
    // only one chunk of squares is held next to the state.
    let chunk = 4 * pasta_par::threads();
    let mut hi = left.len() + right.len();
    while hi > 1 {
        let lo = hi.saturating_sub(chunk).max(1);
        let inputs: Vec<&FheCiphertext> = left.iter().chain(right.iter()).collect();
        let squares: Vec<FheCiphertext> =
            pasta_par::parallel_map(&inputs[lo - 1..hi - 1], |_, x| {
                ctx.square_relin(x, relin_key)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let targets = left.iter_mut().chain(right.iter_mut()).skip(lo);
        for (y, sq) in targets.zip(&squares) {
            ctx.add_assign(y, sq)?;
        }
        hi = lo;
    }
    Ok(())
}

/// The last round's cube S-box, `x³ = relin(x²)·x` relinearized again,
/// on the left half only. The cube is element-wise, and truncation keeps
/// `KS = X_L` after `A_r` (which mixes `X_L` alone), so the right half's
/// cube never reaches the output and is not evaluated. The cubes fan out
/// across the worker pool.
fn cube(
    ctx: &BfvContext,
    relin_key: &BfvRelinKey,
    left: &[FheCiphertext],
) -> Result<Vec<FheCiphertext>, FheError> {
    pasta_par::parallel_map(left, |_, x| {
        let sq = ctx.square_relin(x, relin_key)?;
        ctx.mul_relin(&sq, x, relin_key)
    })
    .into_iter()
    .collect()
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
        let server = HheServer::new(params, relin, encrypted_key).unwrap();
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
            HheServer::new(params, rk, short),
            Err(FheError::Incompatible(_))
        ));
    }
}
