//! Slot-parallel transciphering: blocks from one or many sessions and
//! tenants packed into one SIMD pass.
//!
//! The scalar pass ([`HheServer::transcipher`]) spends one BFV
//! ciphertext per PASTA state element and transciphers one block at a
//! time: it runs the circuit of this module's passes with one slot
//! (period `k = 1`, every plaintext a constant polynomial). The mux
//! pass is [`HheServer::transcipher_mux`], on the same evaluator. The
//! original PASTA software instead exploits BFV *batching*
//! (SEAL's `BatchEncoder`): with `t_plain = 65537` and `2N | t_plain − 1`,
//! one ciphertext holds `N` independent `F_p` slots, and all ring
//! operations act slot-wise. Slot `s` of a pass evaluates one PASTA
//! block; the `N` slots need not belong to one stream. Batched mode —
//! every slot of the pass serving one tenant's ciphertext — is the
//! one-member bucket of this server; the service fills a bucket across
//! tenants so that a request carrying a single block does not occupy
//! all `N` slots:
//!
//! - **Key composition.** The slotted circuit consumes `2t` key
//!   ciphertexts whose slot `s` must hold the key of whichever stream
//!   owns slot `s`. Each member's provisioned key encrypts its key
//!   element in *every* slot (a scalar `encode_scalar(k)` is the
//!   constant polynomial `k`, which evaluates to `k` at every root —
//!   so scalar-provisioned and batched-provisioned keys coincide).
//!   Multiplying member `m`'s key ciphertext by the 0/1 *plaintext*
//!   mask of `m`'s slot range and summing over members therefore yields
//!   a composed key with exactly one tenant's key per slot and `0`
//!   elsewhere. Masking is plaintext–ciphertext only — no tenant's key
//!   material ever meets another's except under FHE addition, and a
//!   slot is covered by exactly one mask, so slots cannot mix. Like
//!   every plaintext of the pass, a mask is periodic with the pass's
//!   `k = slots_used.next_power_of_two()` (see *Periodic layout*
//!   below): it covers slot `s` iff it covers `s mod k`.
//! - **Per-slot material.** The affine matrices and round constants are
//!   public functions of `(params, nonce, counter)`; the slotted
//!   plaintexts are per-slot, so slot `s` simply takes the material of
//!   the member block assigned to it (heterogeneous nonces and counters
//!   are fine). The affine layer's matrix entry for position `(i, j)`
//!   becomes a plaintext whose slot `s` holds `M^{(s)}_{i,j}` — one
//!   plaintext–ciphertext multiplication handles that entry for every
//!   block of the pass at once. Mix and the S-boxes are slot-wise by
//!   construction; the S-box squarings use the same full-RNS ciphertext
//!   multiplication as every server mode (see [`pasta_fhe::rns_mul`]).
//! - **One pass.** The composed key and heterogeneous material feed one
//!   slot-parallel circuit; results demux back to members by slot
//!   range.
//!
//! Per-ciphertext work rises (full `N log N` plaintext multiplications
//! instead of scalar ones) but is amortized over the blocks of the pass
//! — the throughput play of the original software, reproduced here.
//!
//! The weight and round-constant plaintexts are single-use (their slots
//! carry per-block material of a nonce the service never accepts twice),
//! so nothing about them is stored: each weight is batch-encoded,
//! lifted and forward-transformed inside the task of the row that
//! reads it, then dropped — the software analogue of the paper's MatGen
//! feeding MatMul row by row. As in the paper's MatMul adder tree, a
//! row is summed over the `t` NTT-domain inputs of its layer-half and
//! reduced once per coefficient ([`BfvContext::dot_periodic`]), so no
//! operand needs Shoup companions.
//!
//! **Periodic layout.** A pass over `b` blocks pays for
//! `k = b.next_power_of_two()` slots, not `N`: every plaintext of the
//! pass (weights, round constants, the demux ciphertext slots, the
//! key masks) is `k`-periodic — slot `s` carries the material of
//! slot `s mod k`, and classes `b..k` carry zeros. Such a plaintext
//! lives in the sub-ring `Z_t[X^{N/k}]`, so encoding it and
//! forward-transforming it per RNS prime are `k`-point transforms
//! ([`BatchEncoder::encode_periodic`],
//! [`BfvContext::dot_periodic`]). Replica slots compute
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
//!
//! **Trust prerequisite:** every member's key must be encrypted under
//! the *same* FHE secret key (the analyst's), since their ciphertexts
//! are summed and the pass relinearizes under that keypair's one
//! relinearization key, the one the [`HheServer`] holds. The service
//! layer enforces this by only multiplexing tenants that registered
//! into the same *FHE domain*, which owns one evaluator.
//!
//! The composition is built per pass, one
//! [`BfvContext::dot_periodic`] per key element: its inputs are the
//! members' key ciphertexts, forward-transformed once per distinct key
//! (told apart by identity), and its weights are their `k`-periodic slot
//! masks. One mask per member, not one per key: a tenant with two
//! sessions in the bucket gets two masked terms, exactly as the
//! coefficient-domain sum of per-member products would, so the composed
//! key is bit-identical to it. The composed key stays in the NTT domain,
//! where the first affine layer reads it. Nothing of the composition is
//! kept between passes — a bucket's layout almost never recurs — and
//! neither is the per-slot block material: each slot's matrices and
//! round constants are derived from the XOF inside the pass that reads
//! them, because a session nonce is never accepted twice.

use crate::client::EncryptedPastaKey;
use crate::server::HheServer;
use pasta_core::Ciphertext as PastaCiphertext;
use pasta_fhe::{BatchEncoder, BfvContext, BfvSecretKey, Ciphertext as FheCiphertext, FheError};

/// The mux pass is [`HheServer::transcipher_mux`]: one domain's
/// evaluator runs both the scalar and the slotted pass. Kept only
/// because the wall-clock benchmark (`perfbench`) builds against this
/// name.
pub type MuxHheServer = HheServer;

/// One member of a multiplexing bucket: a tenant's PASTA ciphertext plus
/// the tenant's (domain-shared-FHE-key) encrypted PASTA key.
#[derive(Debug)]
pub struct MuxMember<'a> {
    /// The caller's tenant id, named in errors. The composition tells
    /// members' keys apart by `encrypted_key`'s identity, so ids need
    /// not be unique nor bound to one key.
    pub tenant: u64,
    /// The tenant's FHE-encrypted PASTA key (`2t` elements, encrypted
    /// under the domain's analyst key).
    pub encrypted_key: &'a EncryptedPastaKey,
    /// The symmetric ciphertext to transcipher.
    pub ct: &'a PastaCiphertext,
}

/// The contiguous slot range one member occupies inside a muxed pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRange {
    /// First slot of the member.
    pub start: usize,
    /// Number of blocks (slots) the member occupies.
    pub blocks: usize,
    /// Number of message elements the member carries (`≤ blocks · t`).
    pub elements: usize,
}

/// The result of one multiplexed pass: `t` position-major ciphertexts
/// shared by every member, plus each member's slot range for demuxing.
#[derive(Debug)]
pub struct MuxedBlocks {
    /// Position-major ciphertexts: slot `s` of ciphertext `i` holds
    /// message element `(s − start)·t + i` of the member owning slot `s`.
    pub positions: Vec<FheCiphertext>,
    /// `ranges[m]` — member `m`'s slot range, in input order.
    pub ranges: Vec<SlotRange>,
    /// Total slots occupied (`≤ N`).
    pub slots_used: usize,
}

/// Decrypts one member's message out of a muxed pass (requires the
/// domain's FHE secret key — analyst side): reads slots
/// `range.start .. range.start + range.blocks` of every position
/// ciphertext and reassembles the `range.elements`-element message.
///
/// # Errors
///
/// Propagates encoder construction errors; returns
/// [`FheError::Incompatible`] if `positions` does not cover the range.
pub fn retrieve_muxed(
    ctx: &BfvContext,
    sk: &BfvSecretKey,
    positions: &[FheCiphertext],
    range: SlotRange,
) -> Result<Vec<u64>, FheError> {
    let encoder =
        BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n).map_err(FheError::from)?;
    let t = positions.len();
    if t == 0 || range.elements > range.blocks * t || range.start + range.blocks > encoder.slots() {
        return Err(FheError::Incompatible(
            "slot range does not fit the muxed positions".into(),
        ));
    }
    let mut out = vec![0u64; range.elements];
    for (i, ct) in positions.iter().enumerate() {
        let decoded = encoder.decode(&ctx.decrypt(sk, ct));
        for b in 0..range.blocks {
            let idx = b * t + i;
            if idx < out.len() {
                out[idx] = decoded[range.start + b];
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BlockEntry;
    use crate::circuit;
    use crate::client::HheClient;
    use pasta_core::PastaParams;
    use pasta_fhe::{BfvParams, BfvRelinKey};
    use pasta_math::Modulus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One tenant and a one-member-bucket (batched) server.
    struct World {
        params: PastaParams,
        ctx: BfvContext,
        sk: BfvSecretKey,
        relin: BfvRelinKey,
        client: HheClient,
        key: EncryptedPastaKey,
        server: HheServer,
    }

    fn setup() -> World {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        // One extra prime vs test_tiny: the slotted plaintext
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
        let key = client.provision_key(&ctx, &pk, &mut rng);
        let server = HheServer::new(params, &ctx, relin.clone()).unwrap();
        World {
            params,
            ctx,
            sk,
            relin,
            client,
            key,
            server,
        }
    }

    impl World {
        /// Transciphers `ct` in a one-member bucket.
        fn batched(&self, ct: &PastaCiphertext) -> Result<MuxedBlocks, FheError> {
            let member = MuxMember {
                tenant: 0,
                encrypted_key: &self.key,
                ct,
            };
            self.server.transcipher_mux(&self.ctx, &[member])
        }
    }

    #[test]
    fn batched_keystream_matches_plain_for_each_block() {
        let w = setup();
        let bfv = w.ctx.params();
        let encoder = BatchEncoder::new(bfv.plain_modulus, bfv.n).unwrap();
        let per_slot: Vec<BlockEntry> = (0..5u64)
            .map(|b| BlockEntry::derive(&w.params, 0xAA, b))
            .collect();
        let ks = circuit::keystream(
            &w.ctx,
            &w.params,
            &encoder,
            &w.relin,
            &per_slot,
            &w.key.elements,
            &mut |_, _, _| {},
        )
        .unwrap();
        for (position, ct) in ks.iter().enumerate() {
            let values = encoder.decode(&w.ctx.decrypt(&w.sk, ct));
            for (s, &v) in values[..per_slot.len()].iter().enumerate() {
                let expect = w.client.cipher().keystream_block(0xAA, s as u64).unwrap();
                assert_eq!(v, expect[position], "block {s} position {position}");
            }
        }
    }

    #[test]
    fn batched_transcipher_recovers_multi_block_message() {
        let w = setup();
        let message: Vec<u64> = (0..12u64).map(|i| (i * 4_321 + 9) % 65_537).collect();
        let batch = w
            .batched(&w.client.encrypt(0xBB, &message).unwrap())
            .unwrap();
        assert_eq!(batch.ranges[0].blocks, 3);
        let recovered = retrieve_muxed(&w.ctx, &w.sk, &batch.positions, batch.ranges[0]).unwrap();
        assert_eq!(recovered, message);
    }

    #[test]
    fn warm_cache_pass_is_bit_exact() {
        // Repeat-call determinism: the second call re-derives every
        // block and re-streams every weight plaintext, and must
        // reproduce the first bit for bit.
        let w = setup();
        let ct = w.client.encrypt(0xDD, &[7; 12]).unwrap();
        let first = w.batched(&ct).unwrap();
        let again = w.batched(&ct).unwrap();
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
        let oversized = w.client.encrypt(0, &vec![1; (cap + 1) * 4]).unwrap();
        assert!(matches!(
            w.batched(&oversized),
            Err(FheError::Incompatible(_))
        ));
        let empty = w.client.encrypt(0, &[]).unwrap();
        assert!(matches!(w.batched(&empty), Err(FheError::Incompatible(_))));
    }

    #[test]
    fn noise_budget_survives_batched_circuit() {
        let w = setup();
        let batch = w.batched(&w.client.encrypt(1, &[3; 12]).unwrap()).unwrap();
        for (i, ct) in batch.positions.iter().enumerate() {
            let budget = w.ctx.noise_budget(&w.sk, ct);
            assert!(budget > 5, "position {i}: {budget} bits left");
        }
    }
}
