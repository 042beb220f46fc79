//! The HHE server: homomorphic PASTA decryption (paper Fig. 1, right).
//!
//! Given a client's FHE-encrypted PASTA key and a symmetric PASTA
//! ciphertext, the server recomputes the *public* per-block randomness
//! (matrices and round constants are functions of the nonce/counter
//! only) and evaluates the PASTA decryption circuit under FHE:
//!
//! - affine layers multiply the key-state ciphertexts by the block's
//!   matrix entries, each a plaintext polynomial, and add the round
//!   constants;
//! - Mix is additions;
//! - the Feistel/cube S-boxes are the expensive part — each squaring is a
//!   ciphertext–ciphertext multiplication plus relinearization, riding
//!   the full-RNS path of [`pasta_fhe::rns_mul`];
//! - finally `Enc(m) = Δ·c − Enc(KS)`: the symmetric ciphertext enters as
//!   a public constant.
//!
//! One [`HheServer`] serves one FHE domain (one analyst keypair): it
//! holds the domain's relinearization key and evaluator state, and every
//! call names the client key it runs under. Two passes share the one
//! circuit: [`HheServer::transcipher`] runs one block per pass (a
//! one-slot pass, period `k = 1`, every plaintext a constant
//! polynomial), so each output ciphertext carries one message element;
//! [`HheServer::transcipher_mux`] runs a whole bucket of blocks from one
//! or many clients in the slots of one pass (see [`crate::mux`]).
//!
//! The result is a vector of FHE ciphertexts of the client's message —
//! the transciphering step that lets the client avoid FHE encryption
//! entirely.
//!
//! Provisioning footprint across the server modes. A client of this
//! server ships `2t` key ciphertexts and zero rotation keys. The server
//! keeps those per client, and one relinearization key per domain. A
//! slotted pass reads the same `2t` key ciphertexts, every slot of which
//! holds the key element. The packed server ships ONE key ciphertext
//! plus its rotation keys — O(√t) of them under hoisted BSGS (see
//! [`crate::packed::required_shifts`]).

use crate::cache::BlockEntry;
use crate::circuit::{self, RoundHook};
use crate::client::EncryptedPastaKey;
use crate::mux::{MuxMember, MuxedBlocks, SlotRange};
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{BatchEncoder, BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError};

/// The evaluator of one FHE domain: the PASTA instance, the slot encoder
/// of the circuit's plaintexts and the domain's relinearization key.
/// Client keys are not kept, and nothing is kept between passes: each
/// call passes the key it runs under, and a mux pass composes its key
/// afresh.
#[derive(Debug)]
pub struct HheServer {
    params: PastaParams,
    encoder: BatchEncoder,
    relin_key: BfvRelinKey,
}

impl HheServer {
    /// Sets up the evaluator of one FHE domain under the ring of `ctx`;
    /// `relin_key` belongs to the domain's analyst keypair.
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
        Ok(HheServer {
            params,
            encoder,
            relin_key,
        })
    }

    /// Checks that `key` is `2t` ciphertexts: the circuit splits the key
    /// into its two halves at `t` and would silently mis-split a short
    /// one. Every pass runs this check on the keys it is given.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] for any other length.
    pub fn check_key(&self, key: &EncryptedPastaKey) -> Result<(), FheError> {
        let (got, want) = (key.elements.len(), self.params.state_size());
        if got == want {
            return Ok(());
        }
        Err(FheError::Incompatible(format!(
            "encrypted key has {got} elements, expected {want}"
        )))
    }

    /// Homomorphically computes the keystream block for
    /// `(nonce, counter)` under the client key `key`: FHE ciphertexts of
    /// `KS_0 … KS_{t-1}`.
    ///
    /// The block's matrices and round constants are derived from the XOF
    /// for this call and dropped after it: a session nonce is never
    /// accepted twice, so no block recurs. Only what the truncated output
    /// reads is evaluated: the last round cubes `X_L` alone and the final
    /// affine layer `A_r` runs on `X_L` alone.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if `key` is not `2t`
    /// ciphertexts; propagates FHE errors (relinearization on malformed
    /// keys).
    pub fn keystream_encrypted(
        &self,
        ctx: &BfvContext,
        key: &EncryptedPastaKey,
        nonce: u128,
        counter: u64,
    ) -> Result<Vec<FheCiphertext>, FheError> {
        self.check_key(key)?;
        circuit::keystream(
            ctx,
            &self.params,
            &self.encoder,
            &self.relin_key,
            &[BlockEntry::derive(&self.params, nonce, counter)],
            &key.elements,
            &mut |_, _, _| {},
        )
    }

    /// Transciphers one PASTA ciphertext into FHE ciphertexts of the
    /// message under the client key `key`: `Enc(m_i) = Δ·c_i − Enc(KS_i)`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if `key` is not `2t`
    /// ciphertexts; propagates FHE errors from the keystream evaluation.
    pub fn transcipher(
        &self,
        ctx: &BfvContext,
        key: &EncryptedPastaKey,
        pasta_ct: &PastaCiphertext,
    ) -> Result<Vec<FheCiphertext>, FheError> {
        self.check_key(key)?;
        let t = self.params.t();
        let mut out = Vec::with_capacity(pasta_ct.len());
        for (counter, block) in pasta_ct.elements().chunks(t).enumerate() {
            let mut ks = self.keystream_encrypted(ctx, key, pasta_ct.nonce(), counter as u64)?;
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
            self.check_key(m.encrypted_key)?;
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

    /// The composed cross-tenant key for a bucket of two or more
    /// members, in the NTT domain: element `j` is
    /// `Σ_m mask_m ⊙ key_m[j]`, one [`BfvContext::dot_periodic`], where
    /// `mask_m` is the 0/1 plaintext of member `m`'s slot range, periodic
    /// with the pass's period. Each distinct key — told apart by
    /// identity, not by the caller's tenant id — is forward-transformed
    /// once per element.
    fn composed_key(
        &self,
        ctx: &BfvContext,
        members: &[MuxMember<'_>],
        ranges: &[SlotRange],
        slots_used: usize,
    ) -> Result<Vec<FheCiphertext>, FheError> {
        let masks: Vec<_> = ranges
            .iter()
            .map(|r| {
                let mut slots = vec![0u64; slots_used];
                slots[r.start..r.start + r.blocks].fill(1);
                self.encoder.encode_periodic(&slots)
            })
            .collect();
        let js: Vec<usize> = (0..self.params.state_size()).collect();
        pasta_par::parallel_map(&js, |_, &j| {
            let mut keys: Vec<FheCiphertext> = Vec::with_capacity(members.len());
            for (m, member) in members.iter().enumerate() {
                let first = members[..m]
                    .iter()
                    .position(|p| std::ptr::eq(p.encrypted_key, member.encrypted_key));
                let key = match first {
                    Some(f) => keys[f].clone(),
                    None => {
                        let mut ct = member.encrypted_key.elements[j].clone();
                        ctx.to_ntt_ct(&mut ct);
                        ct
                    }
                };
                keys.push(key);
            }
            ctx.dot_periodic(&keys, &masks)
        })
        .into_iter()
        .collect()
    }

    /// Transciphers a whole bucket in one slot-parallel pass: one shared
    /// keystream evaluation over the composed key and per-slot material,
    /// then one trivial-encrypt + subtract per state position.
    ///
    /// Every member's blocks start at counter `0` within its own
    /// ciphertext (matching [`HheServer::transcipher`]). A
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
        self.transcipher_mux_rounds(ctx, members, &mut |_, _, _| {})
    }

    /// [`HheServer::transcipher_mux`], with `on_round` seeing the pass's
    /// state after every round.
    pub(crate) fn transcipher_mux_rounds(
        &self,
        ctx: &BfvContext,
        members: &[MuxMember<'_>],
        on_round: &mut RoundHook<'_>,
    ) -> Result<MuxedBlocks, FheError> {
        let t = self.params.t();
        let ranges = self.layout(members)?;
        let slots_used = ranges.last().map_or(0, |r| r.start + r.blocks);

        // A one-member bucket needs no masking: the member's key already
        // has its key element in every slot, and the slots of unused
        // classes carry zero material, so they compute 0. Its key is
        // borrowed as provisioned.
        let composed;
        let key: &[FheCiphertext] = if let [member] = members {
            &member.encrypted_key.elements
        } else {
            composed = self.composed_key(ctx, members, &ranges, slots_used)?;
            &composed
        };

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
            key,
            on_round,
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
        key: EncryptedPastaKey,
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
        let key = client.provision_key(&ctx, &fhe_pk, &mut rng);
        let server = HheServer::new(params, &ctx, relin).unwrap();
        World {
            ctx,
            fhe_sk,
            client,
            key,
            server,
        }
    }

    #[test]
    fn homomorphic_keystream_matches_plain_keystream() {
        let w = setup();
        let expected = w.client.cipher().keystream_block(99, 0).unwrap();
        let encrypted = w.server.keystream_encrypted(&w.ctx, &w.key, 99, 0).unwrap();
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
        let fhe_cts = w.server.transcipher(&w.ctx, &w.key, &pasta_ct).unwrap();
        let recovered = w.client.retrieve(&w.ctx, &w.fhe_sk, &fhe_cts);
        assert_eq!(recovered, message);
    }

    #[test]
    fn transciphering_multi_block() {
        let w = setup();
        let message: Vec<u64> = (0..10u64).map(|i| i * 1000 + 7).collect();
        let pasta_ct = w.client.encrypt(5, &message).unwrap();
        let fhe_cts = w.server.transcipher(&w.ctx, &w.key, &pasta_ct).unwrap();
        assert_eq!(fhe_cts.len(), 10);
        assert_eq!(w.client.retrieve(&w.ctx, &w.fhe_sk, &fhe_cts), message);
    }

    #[test]
    fn warm_cache_pass_is_bit_exact() {
        // Every call derives the block afresh; a repeat call must give
        // the same ciphertexts bit for bit.
        let w = setup();
        let first = w
            .server
            .keystream_encrypted(&w.ctx, &w.key, 4242, 1)
            .unwrap();
        let again = w
            .server
            .keystream_encrypted(&w.ctx, &w.key, 4242, 1)
            .unwrap();
        assert_eq!(first, again, "a repeat call must be bit-exact");
    }

    #[test]
    fn noise_budget_survives_the_whole_circuit() {
        let w = setup();
        let encrypted = w.server.keystream_encrypted(&w.ctx, &w.key, 3, 0).unwrap();
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
        let fhe_cts = w.server.transcipher(&w.ctx, &w.key, &pasta_ct).unwrap();
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
            elements: w.key.elements[..3].to_vec(),
        };
        assert!(matches!(
            w.server.keystream_encrypted(&w.ctx, &short, 1, 0),
            Err(FheError::Incompatible(_))
        ));
        let pasta_ct = w.client.encrypt(1, &[1, 2, 3, 4]).unwrap();
        assert!(matches!(
            w.server.transcipher(&w.ctx, &short, &pasta_ct),
            Err(FheError::Incompatible(_))
        ));
    }
}
