//! Cross-tenant slot multiplexing: blocks from *different* sessions and
//! tenants packed into one SIMD transciphering pass.
//!
//! The batched server ([`crate::batched`]) already amortizes the PASTA
//! decryption circuit over `N` slots — but only for one stream: a
//! request carrying a single block still occupies all `N` slots, so at
//! small payloads the cloud does up to `N×` more slot-work than it
//! sells. This module closes that gap by composing one *shared*
//! evaluation over the slots of many tenants at once:
//!
//! - **Key composition.** The batched circuit consumes `2t` key
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
//!   `k = slots_used.next_power_of_two()` (see [`crate::batched`]):
//!   it covers slot `s` iff it covers `s mod k`.
//! - **Per-slot material.** The affine matrices and round constants are
//!   public functions of `(params, nonce, counter)`; the batched
//!   plaintexts are already per-slot, so slot `s` simply takes the
//!   material of the member block assigned to it (heterogeneous nonces
//!   and counters are fine).
//! - **One pass.** The composed key and heterogeneous material feed the
//!   exact same slot-parallel circuit as the batched server, which
//!   streams every weight plaintext (see [`crate::batched`]); results
//!   demux back to members by slot range.
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
//! shared [`MaterialCache`], so steady-state buckets with recurring
//! compositions pay the masking multiplies once.

use crate::batched::eval_slotted_circuit;
use crate::cache::{BlockEntry, ComposedKeyEntry, CompositionKey, MaterialCache};
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

    /// Replaces the material cache (e.g. with a domain shard of a
    /// [`crate::cache::ShardedCache`]).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<MaterialCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Swaps the material cache in place (see
    /// [`crate::HheServer::set_cache`]).
    pub fn set_cache(&mut self, cache: Arc<MaterialCache>) {
        self.cache = cache;
    }

    /// The material cache in use.
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
            // entry is rejected (and rebuilt) below rather than panicking.
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
    /// ciphertext (matching [`crate::HheServer::transcipher`] and
    /// [`crate::BatchedHheServer::transcipher_batched`]).
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
        let per_slot: Vec<Arc<BlockEntry>> = members
            .iter()
            .zip(&ranges)
            .flat_map(|(m, r)| {
                (0..r.blocks).map(|b| self.cache.block(&self.params, m.ct.nonce(), b as u64))
            })
            .collect();
        let ks = eval_slotted_circuit(
            ctx,
            &self.params,
            &self.encoder,
            &self.relin_key,
            &per_slot,
            &composed.elements[..t],
            &composed.elements[t..],
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
