//! The packed server decrypts right on the ring the admission guard
//! sizes for it.
//!
//! Each paper parameter set transciphers one full block through
//! [`PackedHheServer::transcipher_packed`] at N = 1024 on the prime
//! count of the batched guard (`suggest_prime_count(.., true, ..)` with
//! 50-bit primes and the guard's 12-bit margin): 9 primes for PASTA-4
//! and 7 for PASTA-3. The result must decode to the message and keep at
//! least the margin of measured invariant budget
//! ([`BfvContext::noise_budget`], which reads 0 on a wrong decryption).
//!
//! The counts were 10 and 8 while a key switch summed one digit product
//! per prime; the special-modulus switch adds only its ModDown rounding,
//! so the guard sizes one prime fewer for each. On the new rings the
//! results decrypt with 103 (PASTA-4) and 56 (PASTA-3) bits left.

use pasta_core::PastaParams;
use pasta_fhe::noise::suggest_prime_count;
use pasta_fhe::{BfvContext, BfvParams};
use pasta_hhe::{HheClient, PackedHheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The admission guard's default margin (`NoiseBudgetGuard::default()`).
const MARGIN_BITS: f64 = 12.0;

const PRIME_BITS: u32 = 50;

fn decrypts_on_the_guard_ring(params: PastaParams, expected_primes: usize) {
    let (t, r) = (params.t(), params.rounds());
    let prime_count = suggest_prime_count(
        t,
        r,
        true,
        1024,
        Modulus::PASTA_17_BIT,
        PRIME_BITS,
        MARGIN_BITS,
    )
    .expect("the guard sizes a ring");
    assert_eq!(prime_count, expected_primes, "t = {t}: guard prime count");
    let ctx = BfvContext::new(BfvParams {
        n: 1024,
        plain_modulus: Modulus::PASTA_17_BIT,
        prime_bits: PRIME_BITS,
        prime_count,
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x6A4D);
    let sk = ctx.generate_secret_key(&mut rng);
    let client = HheClient::new(params, b"packed guard ring");
    let server = PackedHheServer::new(
        params,
        &ctx,
        &sk,
        client.cipher().key().expose_elements(),
        &mut rng,
    )
    .unwrap();
    let message: Vec<u64> = (0..t as u64).map(|i| (i * 7_177 + 13) % 65_537).collect();
    let pasta_ct = client.encrypt(0x6A4D_0001, &message).unwrap();
    let out = server.transcipher_packed(&ctx, &pasta_ct, 0).unwrap();
    assert_eq!(
        server.decode(&ctx, &sk, &out, t),
        message,
        "t = {t}: packed result on the guard's {prime_count} primes"
    );
    let budget = ctx.noise_budget(&sk, &out);
    assert!(
        f64::from(budget) >= MARGIN_BITS,
        "t = {t}: {budget} bits left on {prime_count} primes"
    );
}

#[test]
fn packed_pasta4_decrypts_on_the_guard_ring() {
    decrypts_on_the_guard_ring(PastaParams::pasta4_17bit(), 9);
}

#[test]
fn packed_pasta3_decrypts_on_the_guard_ring() {
    decrypts_on_the_guard_ring(PastaParams::pasta3_17bit(), 7);
}
