//! SIMD-batched transciphering: `N` PASTA blocks per BFV ciphertext.
//!
//! The scalar server ([`crate::server::HheServer`]) spends one BFV
//! ciphertext per PASTA state element and transciphers one block at a
//! time. The original PASTA software instead exploits BFV *batching*
//! (SEAL's `BatchEncoder`): with `t_plain = 65537` and `2N | t_plain − 1`,
//! one ciphertext holds `N` independent `F_p` slots, and all ring
//! operations act slot-wise.
//!
//! The key observation that makes PASTA batching work: the secret key is
//! the *same* for every block, while the affine material differs per
//! block — but the material is *public*. So:
//!
//! - key ciphertext `j` encrypts the vector `(K_j, K_j, …, K_j)` (all
//!   slots equal);
//! - slot `s` of the evaluation processes block `counter₀ + s`;
//! - the affine layer's matrix entry for position `(i, j)` becomes a
//!   *batched plaintext* whose slot `s` holds `M^{(s)}_{i,j}` — one
//!   plaintext–ciphertext multiplication handles that entry for all `N`
//!   blocks at once;
//! - Mix and the S-boxes are slot-wise by construction; the S-box
//!   squarings use the same full-RNS ciphertext multiplication as every
//!   server mode (see [`pasta_fhe::rns_mul`]).
//!
//! Per-ciphertext work rises (full `N log N` plaintext multiplications
//! instead of scalar ones) but is amortized over `N` blocks — the
//! throughput play of the original software, reproduced here.
//!
//! The weight and round-constant plaintexts are single-use (their slots
//! carry per-block material of a nonce the service never accepts twice),
//! so nothing about them is stored: each weight is batch-encoded,
//! lifted, forward-transformed and multiplied into its row's
//! accumulator inside the task that consumes it, then dropped — the
//! software analogue of the paper's MatGen feeding MatMul row by row.
//! The Shoup companions sit on the reused operand instead: each
//! NTT-domain input ciphertext of a layer-half, which all `t` rows read.
//!
//! **Periodic layout.** A pass over `b` blocks pays for
//! `k = b.next_power_of_two()` slots, not `N`: every plaintext of the
//! pass (weights, round constants, the demux ciphertext slots, the
//! mux key masks) is `k`-periodic — slot `s` carries the material of
//! slot `s mod k`, and classes `b..k` carry zeros. Such a plaintext
//! lives in the sub-ring `Z_t[X^{N/k}]`, so encoding it and
//! forward-transforming it per RNS prime are `k`-point transforms
//! ([`BatchEncoder::encode_periodic`],
//! [`BfvContext::add_mul_periodic_assign`]). Replica slots compute
//! exactly what their class representative computes (the key is the
//! same in every slot of a class), and the unowned classes stay zero
//! through every layer, so a replica slot decrypts to nothing its
//! representative does not hold.
//!
//! Unlike [`crate::packed`], this layout is *rotation-free*: state
//! position `(i)` lives in its own ciphertext and slots only ever meet
//! slot-wise, so there are no Galois key-switches for the hoisted-BSGS
//! optimization to save, and no rotation keys to provision at all. The
//! baby-step/giant-step machinery therefore applies only to the packed
//! (position-in-lane) mode.

use crate::cache::{BlockEntry, MaterialCache};
use crate::client::EncryptedPastaKey;
use crate::server;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{
    BatchEncoder, BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError,
    PreparedCiphertext,
};
use std::sync::Arc;

/// A transciphering server that processes up to `N` blocks per pass.
#[derive(Debug)]
pub struct BatchedHheServer {
    params: PastaParams,
    relin_key: BfvRelinKey,
    encrypted_key: EncryptedPastaKey,
    encoder: BatchEncoder,
    cache: Arc<MaterialCache>,
}

/// The result of one batched pass: `t` ciphertexts whose slot `s` holds
/// the keystream (or message) element for block `first_counter + s`.
#[derive(Debug)]
pub struct BatchedBlocks {
    /// Position-major ciphertexts: index `i` covers state position `i`
    /// across all batched blocks.
    pub positions: Vec<FheCiphertext>,
    /// Counter of the first block in the batch.
    pub first_counter: u64,
    /// Number of blocks batched (`≤ N` slots).
    pub blocks: usize,
}

impl BatchedHheServer {
    /// Builds a batched server. The encrypted key must have been
    /// provisioned with *batched* key ciphertexts — every slot equal to
    /// the key element (see [`provision_batched_key`]).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on a key-length mismatch, or
    /// propagates encoder construction errors (`2N ∤ t_plain − 1`).
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
        Ok(BatchedHheServer {
            params,
            relin_key,
            encrypted_key,
            encoder,
            cache: Arc::new(MaterialCache::new()),
        })
    }

    /// Replaces the material cache (e.g. with one shared by several
    /// servers or server modes).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<MaterialCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The material cache in use (shareable via [`Arc::clone`]).
    #[must_use]
    pub fn cache(&self) -> &Arc<MaterialCache> {
        &self.cache
    }

    /// The number of blocks one pass can carry (`N` slots).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.encoder.slots()
    }

    /// Homomorphically computes keystream blocks `first_counter ..
    /// first_counter + blocks` in one SIMD pass.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if `blocks` exceeds the slot
    /// capacity (or is zero); propagates FHE errors.
    pub fn keystream_batch(
        &self,
        ctx: &BfvContext,
        nonce: u128,
        first_counter: u64,
        blocks: usize,
    ) -> Result<BatchedBlocks, FheError> {
        if blocks == 0 || blocks > self.capacity() {
            return Err(FheError::Incompatible(format!(
                "batch of {blocks} blocks exceeds the {}-slot capacity",
                self.capacity()
            )));
        }
        let t = self.params.t();
        // Slot s carries block first_counter + s.
        let per_slot: Vec<Arc<BlockEntry>> = (0..blocks)
            .map(|s| {
                self.cache
                    .block(&self.params, nonce, first_counter + s as u64)
            })
            .collect();
        let positions = eval_slotted_circuit(
            ctx,
            &self.params,
            &self.encoder,
            &self.relin_key,
            &per_slot,
            &self.encrypted_key.elements[..t],
            &self.encrypted_key.elements[t..],
        )?;
        Ok(BatchedBlocks {
            positions,
            first_counter,
            blocks,
        })
    }

    /// Transciphers a PASTA ciphertext in SIMD fashion: all blocks in one
    /// homomorphic pass (up to the slot capacity).
    ///
    /// Returns `t` position-major ciphertexts; slot `s` of ciphertext `i`
    /// holds message element `s·t + i`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the ciphertext has more
    /// blocks than slots; propagates FHE errors.
    pub fn transcipher_batched(
        &self,
        ctx: &BfvContext,
        pasta_ct: &PastaCiphertext,
    ) -> Result<BatchedBlocks, FheError> {
        let t = self.params.t();
        let blocks = pasta_ct.len().div_ceil(t);
        let ks = self.keystream_batch(ctx, pasta_ct.nonce(), 0, blocks)?;
        let mut positions = Vec::with_capacity(t);
        for (i, ks_ct) in ks.positions.iter().enumerate() {
            // Slot s holds ciphertext element s·t + i (0 past the end),
            // replicated with the pass's period.
            let c_slots: Vec<u64> = (0..blocks)
                .map(|s| pasta_ct.elements().get(s * t + i).copied().unwrap_or(0))
                .collect();
            let c_pt = self.encoder.encode_periodic(&c_slots).expand();
            let mut out = ctx.encrypt_trivial(&c_pt);
            ctx.sub_assign(&mut out, ks_ct)?;
            positions.push(out);
        }
        Ok(BatchedBlocks {
            positions,
            first_counter: 0,
            blocks,
        })
    }

    /// Decodes one position-major ciphertext of a batch back into the
    /// per-block values (requires the FHE secret key — client side).
    #[must_use]
    pub fn decode_position(
        &self,
        ctx: &BfvContext,
        sk: &pasta_fhe::BfvSecretKey,
        batch: &BatchedBlocks,
        position: usize,
    ) -> Vec<u64> {
        let pt = ctx.decrypt(sk, &batch.positions[position]);
        self.encoder.decode(&pt)[..batch.blocks].to_vec()
    }
}

/// Evaluates the slot-parallel PASTA keystream circuit over per-slot
/// block material and initial key-state halves, returning the `t` left
/// positions after the final affine layer. Slot `s` carries
/// `per_slot[s]`'s affine material — the slots need not share a nonce or
/// counter window, which is what lets the cross-tenant multiplexer (with
/// a slot-masked composed key instead of one tenant's replicated key)
/// share this evaluator with the homogeneous batched server.
///
/// Every plaintext is `per_slot.len().next_power_of_two()`-periodic
/// (see the module docs), so each weight costs `k`-point transforms.
///
/// The round schedule, Mix and the S-boxes are the scalar server's
/// (`server::eval_rounds`), slot-wise by construction; only the affine
/// half is slotted. As there, only what the truncated output reads is
/// evaluated: the last round cubes `X_L` alone and `A_r` runs on `X_L`
/// alone.
///
/// # Errors
///
/// Returns [`FheError::Incompatible`] on malformed state halves;
/// propagates FHE errors from the squarings.
pub(crate) fn eval_slotted_circuit(
    ctx: &BfvContext,
    params: &PastaParams,
    encoder: &BatchEncoder,
    relin_key: &BfvRelinKey,
    per_slot: &[Arc<BlockEntry>],
    initial_left: &[FheCiphertext],
    initial_right: &[FheCiphertext],
) -> Result<Vec<FheCiphertext>, FheError> {
    server::eval_rounds(
        ctx,
        relin_key,
        params.rounds(),
        initial_left,
        initial_right,
        |layer, is_left, half| affine_half(ctx, encoder, per_slot, layer, is_left, half),
    )
}

/// One slot-parallel affine layer-half: output row `i` is
/// `Σ_j W_ij ⊙ x_j + rc_i`, where slot `s` of the plaintexts `W_ij` and
/// `rc_i` carries block `s mod k`'s matrix entry `(i, j)` and round
/// constant `i`. Each input `x_j` is NTT- and Shoup-prepared once for
/// the `t` rows that read it; each `W_ij` is periodic-encoded,
/// multiplied once and dropped; `rc_i` enters as `Δ·m` only. The rows
/// fan out across the worker pool.
fn affine_half(
    ctx: &BfvContext,
    encoder: &BatchEncoder,
    per_slot: &[Arc<BlockEntry>],
    layer: usize,
    is_left: bool,
    half: &[FheCiphertext],
) -> Result<Vec<FheCiphertext>, FheError> {
    if half.is_empty() {
        return Err(FheError::Incompatible(
            "affine layer applied to an empty state half".into(),
        ));
    }
    let inputs: Vec<PreparedCiphertext> =
        pasta_par::parallel_map(half, |_, ct| ctx.prepare_ciphertext(ct.clone()));
    let rows: Vec<usize> = (0..half.len()).collect();
    pasta_par::parallel_map(&rows, |_, &i| -> Result<FheCiphertext, FheError> {
        let mut slots = vec![0u64; per_slot.len()];
        let mut acc = ctx.zero_ntt_ct();
        for (j, x) in inputs.iter().enumerate() {
            for (v, block) in slots.iter_mut().zip(per_slot) {
                let m = &block.matrices[layer];
                *v = if is_left {
                    m.left.get(i, j)
                } else {
                    m.right.get(i, j)
                };
            }
            ctx.add_mul_periodic_assign(&mut acc, x, &encoder.encode_periodic(&slots))?;
        }
        ctx.to_coeff_ct(&mut acc);
        for (v, block) in slots.iter_mut().zip(per_slot) {
            let l = &block.material.layers[layer];
            *v = if is_left { l.rc_left[i] } else { l.rc_right[i] };
        }
        ctx.add_plain_assign(&mut acc, &encoder.encode_periodic(&slots).expand());
        Ok(acc)
    })
    .into_iter()
    .collect()
}

/// Provisions the PASTA key for the batched server: each key ciphertext
/// encrypts the key element replicated into every slot.
///
/// # Errors
///
/// Propagates encoder construction errors when the context parameters do
/// not support batching (`2N ∤ t_plain − 1`).
pub fn provision_batched_key<R: rand::Rng>(
    key_elements: &[u64],
    ctx: &BfvContext,
    pk: &pasta_fhe::BfvPublicKey,
    rng: &mut R,
) -> Result<EncryptedPastaKey, FheError> {
    let encoder =
        BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n).map_err(FheError::from)?;
    let elements = key_elements
        .iter()
        .map(|&k| {
            let slots = vec![k; encoder.slots()];
            ctx.encrypt(pk, &encoder.encode(&slots), rng)
        })
        .collect();
    Ok(EncryptedPastaKey { elements })
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
        sk: BfvSecretKey,
        client: HheClient,
        server: BatchedHheServer,
    }

    fn setup() -> World {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        // One extra prime vs test_tiny: the batched plaintext
        // multiplications grow noise by an extra log2(N) per layer.
        let bfv = BfvParams {
            prime_count: 5,
            ..BfvParams::test_tiny()
        };
        let ctx = BfvContext::new(bfv).unwrap();
        let mut rng = StdRng::seed_from_u64(808);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin = ctx.generate_relin_key(&sk, &mut rng);
        let client = HheClient::new(params, b"batched");
        let ek =
            provision_batched_key(client.cipher().key().expose_elements(), &ctx, &pk, &mut rng)
                .unwrap();
        let server = BatchedHheServer::new(params, &ctx, relin, ek).unwrap();
        World {
            ctx,
            sk,
            client,
            server,
        }
    }

    #[test]
    fn batched_keystream_matches_plain_for_each_block() {
        let w = setup();
        let blocks = 5;
        let batch = w.server.keystream_batch(&w.ctx, 0xAA, 0, blocks).unwrap();
        for position in 0..4 {
            let values = w.server.decode_position(&w.ctx, &w.sk, &batch, position);
            for (s, &v) in values.iter().enumerate() {
                let expect = w.client.cipher().keystream_block(0xAA, s as u64).unwrap();
                assert_eq!(v, expect[position], "block {s} position {position}");
            }
        }
    }

    #[test]
    fn batched_transcipher_recovers_multi_block_message() {
        let w = setup();
        let message: Vec<u64> = (0..12u64).map(|i| (i * 4_321 + 9) % 65_537).collect();
        let pasta_ct = w.client.encrypt(0xBB, &message).unwrap();
        let batch = w.server.transcipher_batched(&w.ctx, &pasta_ct).unwrap();
        assert_eq!(batch.blocks, 3);
        let mut recovered = vec![0u64; message.len()];
        for position in 0..4 {
            let vals = w.server.decode_position(&w.ctx, &w.sk, &batch, position);
            for (s, &v) in vals.iter().enumerate() {
                let idx = s * 4 + position;
                if idx < recovered.len() {
                    recovered[idx] = v;
                }
            }
        }
        assert_eq!(recovered, message);
    }

    #[test]
    fn warm_cache_pass_is_bit_exact() {
        // Repeat-call determinism: the second call re-streams every
        // weight plaintext (only the raw block material is cached) and
        // must reproduce the first bit for bit.
        let w = setup();
        let first = w.server.keystream_batch(&w.ctx, 0xDD, 2, 3).unwrap();
        let again = w.server.keystream_batch(&w.ctx, 0xDD, 2, 3).unwrap();
        assert_eq!(
            first.positions, again.positions,
            "streamed weights must be deterministic"
        );
    }

    #[test]
    fn batch_capacity_enforced() {
        let w = setup();
        let cap = w.server.capacity();
        assert_eq!(cap, 256);
        assert!(matches!(
            w.server.keystream_batch(&w.ctx, 0, 0, cap + 1),
            Err(FheError::Incompatible(_))
        ));
        assert!(matches!(
            w.server.keystream_batch(&w.ctx, 0, 0, 0),
            Err(FheError::Incompatible(_))
        ));
    }

    #[test]
    fn nonzero_first_counter() {
        let w = setup();
        let batch = w.server.keystream_batch(&w.ctx, 0xCC, 7, 2).unwrap();
        let values = w.server.decode_position(&w.ctx, &w.sk, &batch, 0);
        for (s, &v) in values.iter().enumerate() {
            let expect = w
                .client
                .cipher()
                .keystream_block(0xCC, 7 + s as u64)
                .unwrap();
            assert_eq!(v, expect[0]);
        }
    }

    #[test]
    fn noise_budget_survives_batched_circuit() {
        let w = setup();
        let batch = w.server.keystream_batch(&w.ctx, 1, 0, 3).unwrap();
        for (i, ct) in batch.positions.iter().enumerate() {
            let budget = w.ctx.noise_budget(&w.sk, ct);
            assert!(budget > 5, "position {i}: {budget} bits left");
        }
    }

    #[test]
    fn amortized_cost_beats_scalar_server() {
        // The point of batching: one pass of the batched server covers
        // `capacity()` blocks with the same number of homomorphic
        // multiplications as ~one scalar pass (a throughput argument, not
        // measured here — assert the structural count).
        let w = setup();
        // Scalar server: muls per block = affine (t² per half per layer
        // is scalar muls, cheap) + (2t-1)(r-1) Feistel squarings + 2t
        // for the last round's cube, which truncation limits to X_L.
        // Batched: identical counts per *pass*, amortized over capacity.
        let (t, r) = (4, 2);
        let per_pass_relins = (2 * t - 1) * (r - 1) + 2 * t;
        let scalar_total = per_pass_relins * w.server.capacity();
        let batched_total = per_pass_relins;
        assert!(
            batched_total * 100 < scalar_total,
            "amortization factor >= 100x"
        );
    }
}
