//! Cross-crate integration: the same PASTA block computed by the software
//! cipher, the cycle-accurate hardware model, and the RISC-V SoC must be
//! identical — and the full HHE pipeline must round-trip through all of
//! them.

use pasta_edge::cipher::{PastaCipher, PastaParams, SecretKey};
use pasta_edge::fhe::{BfvContext, BfvParams};
use pasta_edge::hhe::{HheClient, HheServer};
use pasta_edge::hw::PastaProcessor;
use pasta_edge::math::Modulus;
use pasta_edge::soc::firmware::encrypt_on_soc;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Software cipher, hardware model and SoC agree bit-for-bit.
#[test]
fn three_implementations_agree() {
    for params in [PastaParams::pasta4_17bit(), PastaParams::pasta3_17bit()] {
        let key = SecretKey::from_seed(&params, b"tri");
        let message: Vec<u64> = (0..params.t() as u64)
            .map(|i| (i * 31 + 7) % 65_537)
            .collect();
        let nonce = 0x0123_4567_89AB_CDEF;

        let sw = PastaCipher::new(params, key.clone())
            .encrypt(nonce, &message)
            .unwrap();
        let hw = PastaProcessor::new(params)
            .encrypt_block(&key, nonce, 0, &message)
            .unwrap()
            .ciphertext
            .unwrap();
        let soc = encrypt_on_soc(params, &key, nonce, &message)
            .unwrap()
            .ciphertext;

        assert_eq!(
            sw.elements(),
            &hw[..],
            "software vs hardware model ({params})"
        );
        assert_eq!(sw.elements(), &soc[..], "software vs SoC ({params})");
    }
}

/// The agreement holds across many nonces and counters (multi-block).
#[test]
fn agreement_across_nonces_and_blocks() {
    let params = PastaParams::pasta4_17bit();
    let key = SecretKey::from_seed(&params, b"nonces");
    let cipher = PastaCipher::new(params, key.clone());
    let proc = PastaProcessor::new(params);
    for nonce in [0u128, 1, u128::MAX, 0xDEAD_BEEF_CAFE] {
        for counter in [0u64, 1, 99] {
            let sw = cipher.keystream_block(nonce, counter).unwrap();
            let hw = proc
                .keystream_block(&key, nonce, counter)
                .unwrap()
                .keystream;
            assert_eq!(sw, hw, "nonce={nonce:x} counter={counter}");
        }
    }
}

/// Full HHE workflow: PASTA-encrypt on the *hardware model*, transcipher
/// on the BFV server, decrypt with the FHE key — Fig. 1 end to end with
/// the accelerator in the loop.
#[test]
fn hhe_with_hardware_client() {
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(2718);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);

    let client = HheClient::new(params, b"hw client");
    let server = HheServer::new(
        params,
        &ctx,
        relin,
        client.provision_key(&ctx, &fhe_pk, &mut rng),
    )
    .unwrap();

    // Encrypt on the modelled cryptoprocessor instead of in software.
    let message = vec![111u64, 222, 333, 444];
    let proc = PastaProcessor::new(params);
    let hw = proc
        .encrypt_block(client.cipher().key(), 0xFEED, 0, &message)
        .unwrap()
        .ciphertext
        .unwrap();
    // Wrap the hardware output as a PASTA ciphertext for the server.
    let pasta_ct = pasta_edge::cipher::Ciphertext::from_packed_bytes(
        &params,
        0xFEED,
        &pack(&params, &hw),
        hw.len(),
    )
    .unwrap();
    let fhe_cts = server.transcipher(&ctx, &pasta_ct).unwrap();
    assert_eq!(client.retrieve(&ctx, &fhe_sk, &fhe_cts), message);
}

/// Bit-packs elements in the cipher's wire format (⌈log2 p⌉ bits,
/// little-endian bit order) so the hardware output can cross the "wire"
/// to the server as a [`pasta_edge::cipher::Ciphertext`].
fn pack(params: &PastaParams, elements: &[u64]) -> Vec<u8> {
    let bits = params.modulus().bits() as usize;
    let mut out = vec![0u8; (elements.len() * bits).div_ceil(8)];
    for (i, &v) in elements.iter().enumerate() {
        for b in 0..bits {
            if (v >> b) & 1 == 1 {
                let pos = i * bits + b;
                out[pos / 8] |= 1 << (pos % 8);
            }
        }
    }
    out
}

/// Multi-block messages transcipher correctly after SoC encryption.
#[test]
fn soc_to_server_pipeline() {
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(31415);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);

    let client = HheClient::new(params, b"soc pipeline");
    let server = HheServer::new(
        params,
        &ctx,
        relin,
        client.provision_key(&ctx, &fhe_pk, &mut rng),
    )
    .unwrap();

    let message = vec![9u64, 8, 7, 6, 5, 4]; // 1.5 blocks
    let soc_run = encrypt_on_soc(params, client.cipher().key(), 77, &message).unwrap();
    let sw_ct = client.encrypt(77, &message).unwrap();
    assert_eq!(soc_run.ciphertext, sw_ct.elements());

    let fhe_cts = server.transcipher(&ctx, &sw_ct).unwrap();
    assert_eq!(client.retrieve(&ctx, &fhe_sk, &fhe_cts), message);
}

/// Keys provisioned from the cipher's key material decrypt to it exactly.
#[test]
fn provisioned_key_is_faithful() {
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(161803);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let client = HheClient::new(params, b"faithful");
    let ek = client.provision_key(&ctx, &fhe_pk, &mut rng);
    let decrypted: Vec<u64> = ek
        .elements
        .iter()
        .map(|c| ctx.decrypt(&fhe_sk, c).scalar())
        .collect();
    assert_eq!(decrypted, client.cipher().key().expose_elements());
}
