//! Thread-count and SIMD-backend determinism: the parallel fan-outs
//! (`pasta-par`) must be bit-exact for any worker count, and the
//! vectorized arithmetic kernels (`pasta_math::simd`) for any backend.
//! `PASTA_THREADS=1`, `=2` and `=4` — and the scalar, AVX2 and IFMA
//! kernels — have to produce *identical* transciphered ciphertexts, not
//! just ciphertexts that decrypt to the same message. One thread forces
//! the scalar backend, two AVX2 and four IFMA (each falling back to the
//! fastest slower tier the CPU has), so one comparison pins both
//! dimensions at once.
//!
//! These tests live in their own integration-test binary so mutating the
//! `PASTA_THREADS` process environment cannot race against unrelated
//! unit tests.

use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, Ciphertext as FheCiphertext};
use pasta_hhe::{
    retrieve_muxed, EncryptedPastaKey, HheClient, HheServer, MuxHheServer, MuxMember,
    PackedHheServer,
};
use pasta_math::{simd, Modulus};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `f` under a forced thread count AND a forced SIMD backend:
/// `"1"` pairs with the scalar kernels, `"2"` with AVX2 and everything
/// else with IFMA.
fn with_threads<T>(n: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var(pasta_par::THREADS_ENV, n);
    simd::force_backend(Some(match n {
        "1" => simd::Backend::Scalar,
        "2" => simd::Backend::Avx2,
        _ => simd::Backend::Avx512Ifma,
    }));
    let out = f();
    simd::force_backend(None);
    std::env::remove_var(pasta_par::THREADS_ENV);
    out
}

#[test]
fn batched_transcipher_is_thread_count_invariant() {
    // A one-member bucket (the batched pass: the tenant's key unmasked)
    // and a multi-member one (two tenants, tenant 0 with two sessions:
    // the masked, NTT-domain key composition) must both be bit-exact.
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let bfv = BfvParams {
        prime_count: 5,
        ..BfvParams::test_tiny()
    };
    let ctx = BfvContext::new(bfv).unwrap();
    let clients = [
        HheClient::new(params, b"determinism"),
        HheClient::new(params, b"determinism 2"),
    ];

    // Three blocks (12 elements / t = 4) so the batch genuinely spans
    // multiple counters.
    let message: Vec<u64> = (0..12u64).map(|i| (i * 3_141 + 59) % 65_537).collect();
    let batched_ct = clients[0].encrypt(0xD1CE, &message).unwrap();
    let bucket_cts = [
        clients[0].encrypt(0xD1CF, &message[..6]).unwrap(),
        clients[1].encrypt(0xD1D0, &message[..9]).unwrap(),
        clients[0].encrypt(0xD1D1, &message[..1]).unwrap(),
    ];
    let bucket_tenants = [0usize, 1, 0];

    // Fresh server for each thread count: a composed-key cache hit from
    // the serial pass must not mask a scheduling-dependent build.
    let build = || {
        let mut rng = StdRng::seed_from_u64(808);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin = ctx.generate_relin_key(&sk, &mut rng);
        let keys: Vec<EncryptedPastaKey> = clients
            .iter()
            .map(|c| c.provision_key(&ctx, &pk, &mut rng))
            .collect();
        let server = MuxHheServer::new(params, &ctx, relin).unwrap();
        (sk, keys, server)
    };
    let passes = |keys: &[EncryptedPastaKey], server: &MuxHheServer| {
        let batched = MuxMember {
            tenant: 0,
            encrypted_key: &keys[0],
            ct: &batched_ct,
        };
        let bucket: Vec<MuxMember<'_>> = bucket_tenants
            .iter()
            .zip(&bucket_cts)
            .map(|(&tenant, ct)| MuxMember {
                tenant: tenant as u64,
                encrypted_key: &keys[tenant],
                ct,
            })
            .collect();
        (
            server.transcipher_mux(&ctx, &[batched]).unwrap(),
            server.transcipher_mux(&ctx, &bucket).unwrap(),
        )
    };

    let (sk, keys, server) = build();
    let (serial, serial_bucket) = with_threads("1", || passes(&keys, &server));
    assert_eq!(serial.slots_used, 3);
    assert_eq!(
        retrieve_muxed(&ctx, &sk, &serial.positions, serial.ranges[0]).unwrap(),
        message
    );
    for (range, ct) in serial_bucket.ranges.iter().zip(&bucket_cts) {
        assert_eq!(
            retrieve_muxed(&ctx, &sk, &serial_bucket.positions, *range).unwrap(),
            message[..ct.len()]
        );
    }

    for n in ["2", "4"] {
        let (threaded, threaded_bucket) = with_threads(n, || {
            let (_, keys, server) = build();
            passes(&keys, &server)
        });
        assert_eq!(
            serial.positions, threaded.positions,
            "PASTA_THREADS=1/scalar and ={n} must produce identical ciphertexts"
        );
        assert_eq!(
            serial_bucket.positions, threaded_bucket.positions,
            "PASTA_THREADS=1/scalar and ={n} must compose identical bucket keys"
        );
    }

    // And re-running on the same (warm) server stays identical too.
    let (warm, warm_bucket) = with_threads("4", || passes(&keys, &server));
    assert_eq!(serial.positions, warm.positions);
    assert_eq!(serial_bucket.positions, warm_bucket.positions);
}

#[test]
fn scalar_transcipher_is_thread_count_invariant() {
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params, b"determinism");
    let ek = client.provision_key(&ctx, &pk, &mut rng);
    let server = HheServer::new(params, &ctx, relin, ek).unwrap();

    let message: Vec<u64> = (0..8u64).map(|i| i * 999 + 1).collect();
    let pasta_ct = client.encrypt(7, &message).unwrap();

    let serial: Vec<FheCiphertext> =
        with_threads("1", || server.transcipher(&ctx, &pasta_ct).unwrap());
    for n in ["2", "4"] {
        let threaded = with_threads(n, || server.transcipher(&ctx, &pasta_ct).unwrap());
        assert_eq!(serial, threaded, "PASTA_THREADS={n}");
    }
    assert_eq!(client.retrieve(&ctx, &sk, &serial), message);
}

#[test]
fn packed_bsgs_transcipher_is_thread_count_invariant() {
    // The BSGS affine evaluation fans its baby rotations and giant
    // groups over the worker pool; the group terms are summed serially
    // in group order, so the packed (default BSGS) transcipher must be
    // bit-identical for any PASTA_THREADS — on a fresh server and on a
    // repeat call.
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let bfv = BfvParams {
        prime_count: 8,
        ..BfvParams::test_tiny()
    };
    let ctx = BfvContext::new(bfv).unwrap();
    let client = HheClient::new(params, b"determinism");
    let message = vec![11u64, 22, 33, 44];
    let pasta_ct = client.encrypt(0xDEC0, &message).unwrap();

    let build = || {
        let mut rng = StdRng::seed_from_u64(909);
        let sk = ctx.generate_secret_key(&mut rng);
        let server = PackedHheServer::new(
            params,
            &ctx,
            &sk,
            client.cipher().key().expose_elements(),
            &mut rng,
        )
        .unwrap();
        (sk, server)
    };

    // First passes: a fresh server per thread count.
    let (sk, server1) = with_threads("1", build);
    let serial = with_threads("1", || {
        server1.transcipher_packed(&ctx, &pasta_ct, 0).unwrap()
    });
    let (_, server2) = with_threads("2", build);
    let cold2 = with_threads("2", || {
        server2.transcipher_packed(&ctx, &pasta_ct, 0).unwrap()
    });
    let (_, server4) = with_threads("4", build);
    let cold = with_threads("4", || {
        server4.transcipher_packed(&ctx, &pasta_ct, 0).unwrap()
    });
    assert_eq!(
        serial, cold2,
        "PASTA_THREADS=1/scalar and =2/avx2 must produce identical packed ciphertexts"
    );
    assert_eq!(
        serial, cold,
        "PASTA_THREADS=1/scalar and =4/avx512ifma must produce identical packed ciphertexts"
    );

    // Repeat pass: re-running on the same server stays identical too.
    let warm = with_threads("4", || {
        server4.transcipher_packed(&ctx, &pasta_ct, 0).unwrap()
    });
    assert_eq!(serial, warm);
    assert_eq!(server1.decode(&ctx, &sk, &serial, 4), message);
}
