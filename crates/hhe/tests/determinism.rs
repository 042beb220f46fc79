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
use pasta_hhe::{provision_batched_key, BatchedHheServer, HheClient, HheServer, PackedHheServer};
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
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let bfv = BfvParams {
        prime_count: 5,
        ..BfvParams::test_tiny()
    };
    let ctx = BfvContext::new(bfv).unwrap();
    let mut rng = StdRng::seed_from_u64(808);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params, b"determinism");
    let ek = provision_batched_key(client.cipher().key().expose_elements(), &ctx, &pk, &mut rng)
        .unwrap();
    let server = BatchedHheServer::new(params, &ctx, relin, ek).unwrap();

    // Three blocks (12 elements / t = 4) so the batch genuinely spans
    // multiple counters.
    let message: Vec<u64> = (0..12u64).map(|i| (i * 3_141 + 59) % 65_537).collect();
    let pasta_ct = client.encrypt(0xD1CE, &message).unwrap();

    let serial = with_threads("1", || server.transcipher_batched(&ctx, &pasta_ct).unwrap());
    // Fresh server for each threaded pass: a cache hit from the serial
    // pass must not mask a scheduling-dependent material build.
    let fresh_pass = || {
        let mut rng = StdRng::seed_from_u64(808);
        let sk2 = ctx.generate_secret_key(&mut rng);
        let pk2 = ctx.generate_public_key(&sk2, &mut rng);
        let relin2 = ctx.generate_relin_key(&sk2, &mut rng);
        let client2 = HheClient::new(params, b"determinism");
        let ek2 = provision_batched_key(
            client2.cipher().key().expose_elements(),
            &ctx,
            &pk2,
            &mut rng,
        )
        .unwrap();
        let server2 = BatchedHheServer::new(params, &ctx, relin2, ek2).unwrap();
        server2.transcipher_batched(&ctx, &pasta_ct).unwrap()
    };

    assert_eq!(serial.blocks, 3);
    for n in ["2", "4"] {
        let threaded = with_threads(n, fresh_pass);
        assert_eq!(
            serial.positions, threaded.positions,
            "PASTA_THREADS=1/scalar and ={n} must produce identical ciphertexts"
        );
    }

    // And re-running on the same (warm) server stays identical too.
    let warm = with_threads("4", || server.transcipher_batched(&ctx, &pasta_ct).unwrap());
    assert_eq!(serial.positions, warm.positions);
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
    let server = HheServer::new(params, relin, ek).unwrap();

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
    // bit-identical for any PASTA_THREADS — cold cache and warm.
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

    // Cold-cache passes: a fresh server per thread count, so a cache hit
    // cannot mask a scheduling-dependent material build.
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

    // Warm-cache pass: re-running on the already-populated server stays
    // identical too.
    let warm = with_threads("4", || {
        server4.transcipher_packed(&ctx, &pasta_ct, 0).unwrap()
    });
    assert_eq!(serial, warm);
    assert_eq!(server1.decode(&ctx, &sk, &serial, 4), message);
}
