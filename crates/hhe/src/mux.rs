//! Slot-parallel transciphering: blocks from one or many sessions and
//! tenants packed into one SIMD pass.
//!
//! The scalar server ([`crate::server::HheServer`]) spends one BFV
//! ciphertext per PASTA state element and transciphers one block at a
//! time: it runs the circuit of this module's passes with one slot
//! (period `k = 1`, every plaintext a constant polynomial). The
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
//! lifted, forward-transformed and multiplied into its row's
//! accumulator inside the task that consumes it, then dropped — the
//! software analogue of the paper's MatGen feeding MatMul row by row.
//! The Shoup companions sit on the reused operand instead: each
//! NTT-domain input ciphertext of a layer-half, which all `t` rows read.
//!
//! **Periodic layout.** A pass over `b` blocks pays for
//! `k = b.next_power_of_two()` slots, not `N`: every plaintext of the
//! pass (weights, round constants, the demux ciphertext slots, the
//! key masks) is `k`-periodic — slot `s` carries the material of
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
//!
//! **Trust prerequisite:** every member's key must be encrypted under
//! the *same* FHE secret key (the analyst's), since their ciphertexts
//! are summed. The service layer enforces this by only multiplexing
//! tenants that registered into the same *FHE domain*.
//!
//! The composition runs in the NTT domain: each distinct tenant's key is
//! forward-transformed once per pass, every member's mask (Shoup-prepared,
//! since all `2t` key elements read it) is multiplied in and
//! accumulated, and each composed element is transformed back once. One
//! mask per member, not one per tenant: a tenant with two sessions in
//! the bucket gets two masked terms, exactly as the coefficient-domain
//! sum of per-member products would, so the composed key is
//! bit-identical to it. The result is memoized per bucket layout in the
//! domain's [`MaterialCache`], so buckets with a recurring composition
//! pay the masking multiplies once. The per-slot block material is not
//! memoized: each slot's matrices and round constants are derived from
//! the XOF inside the pass that reads them, because a session nonce is
//! never accepted twice.

use crate::cache::{BlockEntry, ComposedKeyEntry, CompositionKey, MaterialCache};
use crate::circuit;
use crate::client::EncryptedPastaKey;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{
    BatchEncoder, BfvContext, BfvRelinKey, BfvSecretKey, Ciphertext as FheCiphertext, FheError,
};
use std::sync::Arc;

/// One member of a multiplexing bucket: a tenant's PASTA ciphertext plus
/// the tenant's (domain-shared-FHE-key) encrypted PASTA key.
#[derive(Debug)]
pub struct MuxMember<'a> {
    /// Stable tenant id (part of the composed-key cache key; the id must
    /// bind one-to-one to `encrypted_key` within a cache domain).
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

/// A transciphering server that packs blocks from many tenants into the
/// slots of one shared SIMD pass.
#[derive(Debug)]
pub struct MuxHheServer {
    params: PastaParams,
    relin_key: BfvRelinKey,
    encoder: BatchEncoder,
    cache: Arc<MaterialCache>,
}

impl MuxHheServer {
    /// Builds a multiplexing server for one FHE domain (one analyst
    /// keypair; `relin_key` belongs to that keypair).
    ///
    /// # Errors
    ///
    /// Propagates encoder construction errors (`2N ∤ t_plain − 1`).
    pub fn new(
        params: PastaParams,
        ctx: &BfvContext,
        relin_key: BfvRelinKey,
    ) -> Result<Self, FheError> {
        let encoder = BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n)
            .map_err(FheError::from)?;
        Ok(MuxHheServer {
            params,
            relin_key,
            encoder,
            cache: Arc::new(MaterialCache::new()),
        })
    }

    /// Replaces the composed-key cache (e.g. with a domain shard of a
    /// [`crate::cache::ShardedCache`]).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<MaterialCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Swaps the composed-key cache in place. The service re-attaches
    /// the domain's shard before each round, so that shard eviction in
    /// [`crate::cache::ShardedCache`] releases the memory instead of
    /// keeping it alive through the server handle.
    pub fn set_cache(&mut self, cache: Arc<MaterialCache>) {
        self.cache = cache;
    }

    /// The composed-key cache in use.
    #[must_use]
    pub fn cache(&self) -> &Arc<MaterialCache> {
        &self.cache
    }

    /// The number of blocks one pass can carry across all members
    /// (`N` slots).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.encoder.slots()
    }

    /// The slot layout for `members`, assigned greedily in input order.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the members are empty,
    /// a key has the wrong length, or the total block count exceeds the
    /// slot capacity.
    fn layout(&self, members: &[MuxMember<'_>]) -> Result<Vec<SlotRange>, FheError> {
        if members.is_empty() {
            return Err(FheError::Incompatible("empty multiplexing bucket".into()));
        }
        let t = self.params.t();
        let mut ranges = Vec::with_capacity(members.len());
        let mut next = 0usize;
        for m in members {
            if m.encrypted_key.elements.len() != self.params.state_size() {
                return Err(FheError::Incompatible(format!(
                    "tenant {} key has {} elements, expected {}",
                    m.tenant,
                    m.encrypted_key.elements.len(),
                    self.params.state_size()
                )));
            }
            let elements = m.ct.len();
            if elements == 0 {
                return Err(FheError::Incompatible(format!(
                    "tenant {} submitted an empty ciphertext",
                    m.tenant
                )));
            }
            let blocks = elements.div_ceil(t);
            ranges.push(SlotRange {
                start: next,
                blocks,
                elements,
            });
            next += blocks;
        }
        if next > self.capacity() {
            return Err(FheError::Incompatible(format!(
                "bucket of {next} blocks exceeds the {}-slot capacity",
                self.capacity()
            )));
        }
        Ok(ranges)
    }

    /// The composed cross-tenant key for this bucket layout: element `j`
    /// is `Σ_m mask_m ⊙ key_m[j]` where `mask_m` is the 0/1 plaintext of
    /// member `m`'s slot range, repeated with the pass's period.
    /// Memoized per `(tenant, blocks)` layout, which fixes the period.
    fn composed_key(
        &self,
        ctx: &BfvContext,
        members: &[MuxMember<'_>],
        ranges: &[SlotRange],
        slots_used: usize,
    ) -> Result<Arc<ComposedKeyEntry>, FheError> {
        let state = self.params.state_size();
        // A single-member bucket needs no masking: the member's key
        // already has its key element in every slot, and the slots of
        // unused classes carry zero material, so they compute 0.
        if members.len() == 1 {
            return Ok(Arc::new(ComposedKeyEntry {
                elements: members[0].encrypted_key.elements.clone(),
            }));
        }
        let key = CompositionKey {
            pasta: self.params,
            bfv: *ctx.params(),
            members: members
                .iter()
                .zip(ranges)
                .map(|(m, r)| (m.tenant, r.blocks))
                .collect(),
        };
        let entry = self.cache.composed_key(&key, || {
            let masks: Vec<_> = ranges
                .iter()
                .map(|r| {
                    let mut slots = vec![0u64; slots_used];
                    for s in &mut slots[r.start..r.start + r.blocks] {
                        *s = 1;
                    }
                    ctx.prepare_plaintext(&self.encoder.encode_periodic(&slots).expand())
                })
                .collect();
            // `owner[m]` indexes member m's tenant among the distinct
            // tenants, whose keys are transformed once per element.
            let mut tenants: Vec<(u64, &EncryptedPastaKey)> = Vec::new();
            let owner: Vec<usize> = members
                .iter()
                .map(|m| {
                    tenants
                        .iter()
                        .position(|&(id, _)| id == m.tenant)
                        .unwrap_or_else(|| {
                            tenants.push((m.tenant, m.encrypted_key));
                            tenants.len() - 1
                        })
                })
                .collect();
            let js: Vec<usize> = (0..state).collect();
            let elements =
                pasta_par::parallel_map(&js, |_, &j| -> Result<FheCiphertext, FheError> {
                    let keys: Vec<FheCiphertext> = tenants
                        .iter()
                        .map(|(_, key)| {
                            let mut ct = key.elements[j].clone();
                            ctx.to_ntt_ct(&mut ct);
                            ct
                        })
                        .collect();
                    let mut acc = ctx.mul_plain_prepared_ntt(&keys[owner[0]], &masks[0]);
                    for (&o, mask) in owner.iter().zip(&masks).skip(1) {
                        ctx.add_mul_plain_ntt_assign(&mut acc, &keys[o], mask)?;
                    }
                    ctx.to_coeff_ct(&mut acc);
                    Ok(acc)
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>();
            // The adds can only fail on cross-context dimension
            // mismatches, which domain registration rules out; an empty
            // entry is rejected below rather than panicking, and stays
            // cached (failing every bucket of this layout) until evicted.
            ComposedKeyEntry {
                elements: elements.unwrap_or_default(),
            }
        });
        if entry.elements.len() != state {
            return Err(FheError::Incompatible(
                "bucket members span incompatible FHE contexts".into(),
            ));
        }
        Ok(entry)
    }

    /// Transciphers a whole bucket in one slot-parallel pass: one shared
    /// keystream evaluation over the composed key and per-slot material,
    /// then one trivial-encrypt + subtract per state position.
    ///
    /// Every member's blocks start at counter `0` within its own
    /// ciphertext (matching [`crate::HheServer::transcipher`]). A
    /// one-member bucket is the batched mode: one tenant's blocks in one
    /// pass, its provisioned key used unmasked.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on an empty bucket, a
    /// key-length mismatch, or slot-capacity overflow; propagates FHE
    /// errors from the circuit.
    pub fn transcipher_mux(
        &self,
        ctx: &BfvContext,
        members: &[MuxMember<'_>],
    ) -> Result<MuxedBlocks, FheError> {
        let t = self.params.t();
        let ranges = self.layout(members)?;
        let slots_used = ranges.last().map_or(0, |r| r.start + r.blocks);

        let composed = self.composed_key(ctx, members, &ranges, slots_used)?;

        // Slot s carries the material of the member block assigned to s.
        let per_slot: Vec<BlockEntry> = members
            .iter()
            .zip(&ranges)
            .flat_map(|(m, r)| {
                (0..r.blocks).map(|b| BlockEntry::derive(&self.params, m.ct.nonce(), b as u64))
            })
            .collect();
        let ks = circuit::keystream(
            ctx,
            &self.params,
            &self.encoder,
            &self.relin_key,
            &per_slot,
            &composed.elements,
        )?;

        // Demux-side subtraction: slot s of position i carries message
        // element (s − start)·t + i of the member owning slot s mod k (0
        // where the member's last block is partial or the class is
        // unowned).
        let mut positions = Vec::with_capacity(t);
        for (i, ks_ct) in ks.iter().enumerate() {
            let mut c_slots = vec![0u64; slots_used];
            for (m, r) in members.iter().zip(&ranges) {
                for b in 0..r.blocks {
                    if let Some(&e) = m.ct.elements().get(b * t + i) {
                        c_slots[r.start + b] = e;
                    }
                }
            }
            let mut out = ctx.encrypt_trivial(&self.encoder.encode_periodic(&c_slots).expand());
            ctx.sub_assign(&mut out, ks_ct)?;
            positions.push(out);
        }
        Ok(MuxedBlocks {
            positions,
            ranges,
            slots_used,
        })
    }
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
    use crate::client::HheClient;
    use pasta_fhe::BfvParams;
    use pasta_math::Modulus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One tenant and a one-member-bucket (batched) server.
    struct World {
        ctx: BfvContext,
        sk: BfvSecretKey,
        client: HheClient,
        key: EncryptedPastaKey,
        server: MuxHheServer,
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
        let server = MuxHheServer::new(params, &ctx, relin).unwrap();
        World {
            ctx,
            sk,
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
        let params = w.server.params;
        let per_slot: Vec<BlockEntry> = (0..5u64)
            .map(|b| BlockEntry::derive(&params, 0xAA, b))
            .collect();
        let ks = circuit::keystream(
            &w.ctx,
            &params,
            &w.server.encoder,
            &w.server.relin_key,
            &per_slot,
            &w.key.elements,
        )
        .unwrap();
        for (position, ct) in ks.iter().enumerate() {
            let values = w.server.encoder.decode(&w.ctx.decrypt(&w.sk, ct));
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
