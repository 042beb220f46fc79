//! Pinned output digests: FNV-1a over every residue row of every output
//! ciphertext of fixed-seed scalar, mux, batched (a one-member mux
//! bucket) and packed passes, and of the Galois key-switch entry points
//! on their own. The evaluation order (what is prepared, which operand
//! carries the Shoup companion, where the NTTs happen, which dead state
//! elements are skipped) may change freely, but the ciphertexts must
//! not move by a single bit. The scalar and Galois values were recorded
//! from the full-width last round and the generic-Barrett
//! `apply_galois` loop that preceded the truncated round and the shared
//! Shoup key-switch kernel. The mux
//! and batched values were re-recorded when the encoder moved to natural
//! slot order and slot-parallel passes to the periodic layout: both
//! change the plaintext polynomials the pass lifts, so the ciphertexts
//! move by design; they still decrypt to the same messages. The batched
//! value was recorded on a dedicated batched server, whose slot-replicated
//! key ciphertexts equal the scalar-provisioned ones bit for bit; the
//! one-member bucket runs the same circuit on them and reproduces it.
//! The scalar value also survived the scalar server's move onto the
//! slot-parallel evaluator (one block per pass, period `k = 1`): its
//! constant weight plaintexts multiply exactly as the coefficient-domain
//! scalar multiplies they replaced, so it was not re-recorded. The
//! packed value was re-recorded when the lane layout became
//! `2t`-periodic: every lane plaintext (key, diagonals, round constants,
//! masks, message) repeats along the whole orbit, the duplicate-refresh
//! rotations and the Mix re-mask are gone, and one Galois key fewer is
//! drawn from the seeded generator, so the ciphertext moves by design;
//! it still decrypts to the same message.
//!
//! All five values were re-recorded when relinearization and every
//! Galois rotation moved from one digit per prime to one key switch over
//! the special modulus `Q ∪ P`: the relinearization and Galois keys are
//! different pairs, drawn with a different amount of randomness, and the
//! switch rounds by `P` instead of summing digit products, so every
//! output that passes through a switch moves by design; each still
//! decrypts to the same message.

use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, Ciphertext as FheCiphertext};
use pasta_hhe::{retrieve_muxed, HheClient, HheServer, MuxMember, PackedHheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64 over the component count, the domain flag and every
/// residue row of every ciphertext, in order.
fn digest(ctx: &BfvContext, cts: &[FheCiphertext]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for ct in cts {
        eat(&(ct.components() as u64).to_le_bytes());
        for poly in ct.polys() {
            eat(&[u8::from(poly.is_ntt())]);
            for i in 0..ctx.basis().len() {
                for v in poly.row(i) {
                    eat(&v.to_le_bytes());
                }
            }
        }
    }
    h
}

fn params() -> PastaParams {
    PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
}

fn message(len: usize, salt: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (i * 7_919 + salt) % 65_537)
        .collect()
}

#[test]
fn scalar_multi_block_transcipher_is_pinned() {
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5CA1A);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params(), b"digest scalar");
    let ek = client.provision_key(&ctx, &pk, &mut rng);
    let server = HheServer::new(params(), &ctx, relin).unwrap();
    // 10 elements: three blocks, the last one partial.
    let msg = message(10, 5);
    let pasta_ct = client.encrypt(0x5CA1, &msg).unwrap();
    let cts = server.transcipher(&ctx, &ek, &pasta_ct).unwrap();
    assert_eq!(client.retrieve(&ctx, &sk, &cts), msg);
    assert_eq!(digest(&ctx, &cts), 15_423_128_966_680_019_954);
}

#[test]
fn galois_key_switches_are_pinned() {
    // Classic and hoisted rotations plus a full rotate-and-add tree on a
    // 6-prime ring; no ciphertext product.
    let ctx = BfvContext::new(BfvParams {
        prime_count: 6,
        ..BfvParams::test_tiny()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x6A1015);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let pt = pasta_fhe::Plaintext {
        coeffs: message(ctx.params().n, 13),
    };
    let ct = ctx.encrypt(&pk, &pt, &mut rng);
    let gk = ctx.generate_galois_key(&sk, 3, &mut rng).unwrap();
    let sum_keys = ctx.generate_sum_keys(&sk, &mut rng).unwrap();
    let rotated = ctx.apply_galois(&ct, &gk).unwrap();
    let hoisted = ctx
        .apply_galois_hoisted(&ctx.hoist(&ct).unwrap(), &gk)
        .unwrap();
    let summed = ctx.sum_slots(&ct, &sum_keys).unwrap();
    assert_eq!(
        digest(&ctx, &[rotated, hoisted, summed]),
        7_484_890_830_581_109_679
    );
}

#[test]
fn mux_bucket_with_partial_blocks_is_pinned() {
    let bfv = BfvParams {
        prime_count: 6,
        ..BfvParams::test_tiny()
    };
    let ctx = BfvContext::new(bfv).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let clients: Vec<HheClient> = (0..3u64)
        .map(|j| HheClient::new(params(), &j.to_le_bytes()))
        .collect();
    let keys: Vec<_> = clients
        .iter()
        .map(|c| c.provision_key(&ctx, &pk, &mut rng))
        .collect();
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let mux = HheServer::new(params(), &ctx, relin).unwrap();

    // Tenant 0 twice (two sessions), element counts 6/4/10/1: every
    // member but the second ends in a partial block.
    let spec = [
        (0usize, 6usize, 0xA1u128),
        (1, 4, 0xB2),
        (2, 10, 0xC3),
        (0, 1, 0xD4),
    ];
    let cts: Vec<_> = spec
        .iter()
        .map(|&(tenant, len, nonce)| {
            clients[tenant]
                .encrypt(nonce, &message(len, nonce as u64))
                .unwrap()
        })
        .collect();
    let members: Vec<MuxMember<'_>> = spec
        .iter()
        .zip(&cts)
        .map(|(&(tenant, _, _), ct)| MuxMember {
            tenant: tenant as u64,
            encrypted_key: &keys[tenant],
            ct,
        })
        .collect();
    let muxed = mux.transcipher_mux(&ctx, &members).unwrap();
    assert_eq!(muxed.slots_used, 2 + 1 + 3 + 1);
    for (&(_, len, nonce), range) in spec.iter().zip(&muxed.ranges) {
        assert_eq!(
            retrieve_muxed(&ctx, &sk, &muxed.positions, *range).unwrap(),
            message(len, nonce as u64)
        );
    }
    assert_eq!(digest(&ctx, &muxed.positions), 3_091_504_045_980_724_839);
}

#[test]
fn batched_transcipher_is_pinned() {
    let bfv = BfvParams {
        prime_count: 5,
        ..BfvParams::test_tiny()
    };
    let ctx = BfvContext::new(bfv).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params(), b"digest batched");
    let ek = client.provision_key(&ctx, &pk, &mut rng);
    let server = HheServer::new(params(), &ctx, relin).unwrap();
    // 11 elements: three blocks, the last one partial.
    let msg = message(11, 3);
    let pasta_ct = client.encrypt(0x5EED, &msg).unwrap();
    let member = MuxMember {
        tenant: 0,
        encrypted_key: &ek,
        ct: &pasta_ct,
    };
    let batch = server.transcipher_mux(&ctx, &[member]).unwrap();
    assert_eq!(batch.slots_used, 3);
    assert_eq!(
        retrieve_muxed(&ctx, &sk, &batch.positions, batch.ranges[0]).unwrap(),
        msg
    );
    assert_eq!(digest(&ctx, &batch.positions), 1_323_054_529_558_049_138);
}

#[test]
fn packed_bsgs_block_is_pinned() {
    let bfv = BfvParams {
        prime_count: 8,
        ..BfvParams::test_tiny()
    };
    let ctx = BfvContext::new(bfv).unwrap();
    let mut rng = StdRng::seed_from_u64(0x9AC4ED);
    let sk = ctx.generate_secret_key(&mut rng);
    let client = HheClient::new(params(), b"digest packed");
    let server = PackedHheServer::new(
        params(),
        &ctx,
        &sk,
        client.cipher().key().expose_elements(),
        &mut rng,
    )
    .unwrap();
    // Two blocks; transcipher the second, partial one.
    let msg = message(7, 11);
    let pasta_ct = client.encrypt(0x7AC7, &msg).unwrap();
    let ct = server.transcipher_packed(&ctx, &pasta_ct, 1).unwrap();
    assert_eq!(server.decode(&ctx, &sk, &ct, 3), msg[4..]);
    assert_eq!(digest(&ctx, &[ct]), 851_966_552_528_781_277);
}
