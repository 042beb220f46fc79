//! Integration tests for the beyond-the-paper extensions: batched
//! (one-member mux bucket) transciphering, streaming encryption, fault countermeasures, the
//! noise-model parameter picker, and the seekable keystream — all
//! exercised across crate boundaries.

use pasta_edge::cipher::{Keystream, PastaCipher, PastaParams, SecretKey};
use pasta_edge::fhe::{suggest_bfv_params, BfvContext};
use pasta_edge::hhe::{retrieve_muxed, HheClient, HheServer, MuxMember};
use pasta_edge::hw::fault::{Countermeasure, FaultSpec, FaultTarget};
use pasta_edge::hw::PastaProcessor;
use pasta_edge::math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Batched transciphering with parameters chosen *by the noise model*
/// decrypts a hardware-model-encrypted, multi-block message.
#[test]
fn noise_model_sized_batched_pipeline() {
    let pasta = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let bfv = suggest_bfv_params(4, 2, true, 256, 50).expect("model finds workable parameters");
    assert!(bfv.prime_count >= 4, "model must size the basis up");
    let ctx = BfvContext::new(bfv).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);

    let client = HheClient::new(pasta, b"ext");
    let ek = client.provision_key(&ctx, &pk, &mut rng);
    let server = HheServer::new(pasta, &ctx, relin).unwrap();

    // Encrypt 3 blocks on the hardware model (streaming mode).
    let message: Vec<u64> = (0..12u64).map(|i| (i * 5_000 + 3) % 65_537).collect();
    let proc = PastaProcessor::new(pasta);
    let stream = proc
        .encrypt_stream(client.cipher().key(), 0xE07, &message, true)
        .unwrap();
    let pasta_ct = {
        // Same data through the software API (verified equal), to get a
        // Ciphertext value for the server.
        let sw = client.encrypt(0xE07, &message).unwrap();
        assert_eq!(stream.ciphertext, sw.elements());
        sw
    };
    let member = MuxMember {
        tenant: 0,
        encrypted_key: &ek,
        ct: &pasta_ct,
    };
    let batch = server.transcipher_mux(&ctx, &[member]).unwrap();
    assert_eq!(batch.ranges[0].blocks, 3);
    let recovered = retrieve_muxed(&ctx, &sk, &batch.positions, batch.ranges[0]).unwrap();
    assert_eq!(recovered, message);
}

/// The protected (fault-checked) pipeline composes with the SoC: a
/// detected fault must block the ciphertext from ever reaching the bus.
#[test]
fn fault_detection_blocks_corrupted_keystream() {
    let params = PastaParams::pasta4_17bit();
    let key = SecretKey::from_seed(&params, b"ext-fault");
    let fault = FaultSpec {
        target: FaultTarget::RoundConstant {
            layer: 4,
            left: true,
            index: 0,
        },
        mask: 0x3,
    };
    // Unprotected: the corrupted keystream leaks (exactly what SASTA
    // needs — one local fault in the final affine layer).
    let leaked = pasta_edge::hw::fault::protected_keystream(
        &params,
        &key,
        1,
        0,
        Some(&fault),
        Countermeasure::None,
    )
    .unwrap();
    assert!(leaked.is_some());
    // Full redundancy stops it at ~2x latency.
    let stopped = pasta_edge::hw::fault::protected_keystream(
        &params,
        &key,
        1,
        0,
        Some(&fault),
        Countermeasure::FullTemporalRedundancy,
    )
    .unwrap();
    assert_eq!(stopped, None);
    let overhead = Countermeasure::FullTemporalRedundancy
        .overhead_factor(&params, &key)
        .unwrap();
    assert!(overhead < 2.1);
}

/// The seekable keystream agrees with hardware-model block encryption at
/// arbitrary offsets.
#[test]
fn keystream_seek_matches_hardware_blocks() {
    let params = PastaParams::pasta4_17bit();
    let key = SecretKey::from_seed(&params, b"ext-ks");
    let proc = PastaProcessor::new(params);
    let mut ks = Keystream::new(params, key.clone(), 0x5EEC);
    for counter in [0u64, 3, 17] {
        ks.seek(counter * 32);
        let streamed = ks.take_elements(32).unwrap();
        let hw = proc
            .keystream_block(&key, 0x5EEC, counter)
            .unwrap()
            .keystream;
        assert_eq!(streamed, hw, "counter {counter}");
    }
}

/// Streaming-mode throughput feeds the link model: a VGA frame's worth
/// of blocks in overlap mode beats the serialized schedule.
#[test]
fn streaming_throughput_improvement() {
    let params = PastaParams::pasta4_17bit();
    let key = SecretKey::from_seed(&params, b"ext-stream");
    let cipher = PastaCipher::new(params, key.clone());
    let frame: Vec<u64> = (0..640u64).map(|i| i % 256).collect(); // 20 blocks
    let proc = PastaProcessor::new(params);
    let serial = proc.encrypt_stream(&key, 2, &frame, false).unwrap();
    let overlapped = proc.encrypt_stream(&key, 2, &frame, true).unwrap();
    assert_eq!(
        serial.ciphertext,
        cipher.encrypt(2, &frame).unwrap().elements()
    );
    let gain = 1.0 - overlapped.total_cycles as f64 / serial.total_cycles as f64;
    assert!(gain > 0.01 && gain < 0.10, "streaming gain {gain:.3}");
}
