//! Warm-path zero-allocation invariant for transciphering: once the
//! scratch pool (`pasta_fhe::scratch`) is warm, a full transcipher pass
//! must allocate **zero** coefficient rows and zero big integers in the
//! kernels — the software analogue of the paper's fixed on-chip
//! buffers. For the batched (one-member mux bucket) and packed passes
//! this holds on a *fresh* nonce: their single-use weight plaintexts are
//! streamed through pooled buffers, not built into a per-nonce cache
//! entry, and every Galois key-switch of the packed path accumulates
//! into pooled rows.
//!
//! Lives in its own integration-test binary: each test pins
//! `PASTA_THREADS=1` (the thread-local debug counters can only observe
//! the calling thread), and mutating the process environment must not
//! race other tests — the tests of this binary serialize on a lock.

use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams};
use pasta_hhe::{retrieve_muxed, HheClient, HheServer, MuxHheServer, MuxMember, PackedHheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Pins the environment the tests measure under.
fn pin_env() {
    std::env::set_var(pasta_par::THREADS_ENV, "1");
}

#[test]
fn warm_transcipher_allocates_no_poly_rows_or_bigints() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pin_env();
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);
    let client = HheClient::new(params, b"warm alloc");
    let encrypted_key = client.provision_key(&ctx, &fhe_pk, &mut rng);
    let server = HheServer::new(params, &ctx, relin, encrypted_key).unwrap();

    let message = vec![5u64, 17, 4096, 65_000];
    let pasta_ct = client.encrypt(0xBEEF, &message).unwrap();

    // Cold passes populate the scratch pool with every buffer shape the
    // pipeline needs.
    let _ = server.transcipher(&ctx, &pasta_ct).unwrap();
    let _ = server.transcipher(&ctx, &pasta_ct).unwrap();

    // Warm pass: every polynomial buffer must come from the pool.
    let rows_before = pasta_fhe::scratch::poly_alloc_count();
    let ubig_before = pasta_fhe::bigint::ubig_alloc_count();
    let fhe_cts = server.transcipher(&ctx, &pasta_ct).unwrap();
    let rows_after = pasta_fhe::scratch::poly_alloc_count();
    let ubig_after = pasta_fhe::bigint::ubig_alloc_count();

    if cfg!(debug_assertions) {
        assert_eq!(
            rows_after, rows_before,
            "warm transcipher allocated fresh coefficient rows"
        );
        assert_eq!(
            ubig_after, ubig_before,
            "warm transcipher allocated big integers"
        );
    }

    // The warm pass still transciphers correctly.
    let recovered = client.retrieve(&ctx, &fhe_sk, &fhe_cts);
    assert_eq!(recovered, message);
    std::env::remove_var(pasta_par::THREADS_ENV);
}

#[test]
fn warm_batched_pass_on_a_fresh_nonce_allocates_no_poly_rows_or_bigints() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pin_env();
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams {
        prime_count: 5,
        ..BfvParams::test_tiny()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4343);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);
    let client = HheClient::new(params, b"warm batched");
    let ek = client.provision_key(&ctx, &fhe_pk, &mut rng);
    let server = MuxHheServer::new(params, &ctx, relin).unwrap();
    let message: Vec<u64> = (0..11u64).map(|i| (i * 6_007 + 5) % 65_537).collect();
    let pass = |ct: &pasta_core::Ciphertext| {
        let member = MuxMember {
            tenant: 0,
            encrypted_key: &ek,
            ct,
        };
        server.transcipher_mux(&ctx, &[member]).unwrap()
    };

    // Cold passes on two other nonces populate the scratch pool with
    // every buffer shape the batched circuit needs.
    for nonce in [0xC01D, 0xC01E] {
        let _ = pass(&client.encrypt(nonce, &message).unwrap());
    }

    // Warm pass on a nonce never seen before: nothing about it can be
    // cached, and still every polynomial buffer comes from the pool.
    let fresh = client.encrypt(0xF4E5, &message).unwrap();
    let rows_before = pasta_fhe::scratch::poly_alloc_count();
    let ubig_before = pasta_fhe::bigint::ubig_alloc_count();
    let batch = pass(&fresh);
    let rows_after = pasta_fhe::scratch::poly_alloc_count();
    let ubig_after = pasta_fhe::bigint::ubig_alloc_count();

    if cfg!(debug_assertions) {
        assert_eq!(
            rows_after, rows_before,
            "warm fresh-nonce batched pass allocated fresh coefficient rows"
        );
        assert_eq!(
            ubig_after, ubig_before,
            "warm fresh-nonce batched pass allocated big integers"
        );
    }

    // The warm pass still transciphers correctly.
    let recovered = retrieve_muxed(&ctx, &fhe_sk, &batch.positions, batch.ranges[0]).unwrap();
    assert_eq!(recovered, message);
    std::env::remove_var(pasta_par::THREADS_ENV);
}

#[test]
fn warm_packed_bsgs_block_on_a_fresh_nonce_allocates_no_poly_rows_or_bigints() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pin_env();
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams {
        prime_count: 8,
        ..BfvParams::test_tiny()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4444);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let client = HheClient::new(params, b"warm packed");
    let server = PackedHheServer::new(
        params,
        &ctx,
        &fhe_sk,
        client.cipher().key().expose_elements(),
        &mut rng,
    )
    .unwrap();
    let message = vec![9u64, 99, 999, 9_999];

    // Cold passes on two other nonces populate the scratch pool with
    // every buffer shape the packed circuit needs.
    for nonce in [0xD01D, 0xD01E] {
        let ct = client.encrypt(nonce, &message).unwrap();
        let _ = server.transcipher_packed(&ctx, &ct, 0).unwrap();
    }

    let fresh = client.encrypt(0xF4E6, &message).unwrap();
    let rows_before = pasta_fhe::scratch::poly_alloc_count();
    let ubig_before = pasta_fhe::bigint::ubig_alloc_count();
    let out = server.transcipher_packed(&ctx, &fresh, 0).unwrap();
    let rows_after = pasta_fhe::scratch::poly_alloc_count();
    let ubig_after = pasta_fhe::bigint::ubig_alloc_count();

    if cfg!(debug_assertions) {
        assert_eq!(
            rows_after, rows_before,
            "warm fresh-nonce packed block allocated fresh coefficient rows"
        );
        assert_eq!(
            ubig_after, ubig_before,
            "warm fresh-nonce packed block allocated big integers"
        );
    }

    // The warm pass still transciphers correctly.
    assert_eq!(server.decode(&ctx, &fhe_sk, &out, message.len()), message);
    std::env::remove_var(pasta_par::THREADS_ENV);
}
