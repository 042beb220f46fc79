//! Private ML inference — the §IV.C motivating workload: "For ML
//! inference applications encrypting low amounts of data (e.g., 32
//! coefficients), we deliver much better performance (21.2 µs) as FHE
//! will necessitate the same amount of computations (1,884 µs) for any
//! amount of data up to 2^12 coefficients."
//!
//! The client PASTA-encrypts a 32-feature vector (one PASTA-4 block —
//! exactly what the accelerator processes in ≈1,600 cycles); the server
//! transciphers it and evaluates a linear classifier under FHE; the
//! client decrypts only the score.
//!
//! ```text
//! cargo run --release --example ml_inference
//! ```

use pasta_edge::cipher::PastaParams;
use pasta_edge::fhe::{suggest_bfv_params, BfvContext};
use pasta_edge::hhe::{HheClient, HheServer};
use pasta_edge::hw::PastaProcessor;
use pasta_edge::math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Features per sample: a scaled-down PASTA block keeps the homomorphic
/// evaluation interactive; the client-side cost figures are reported for
/// the true 32-feature PASTA-4 block via the hardware model.
const FEATURES: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Client-side: the real PASTA-4 cost of shipping one 32-feature
    // sample, from the cycle-accurate model.
    let pasta4 = PastaParams::pasta4_17bit();
    let hw_key = pasta_edge::cipher::SecretKey::from_seed(&pasta4, b"ml");
    let sample32: Vec<u64> = (0..32u64).map(|i| (i * 41) % 256).collect();
    let hw = PastaProcessor::new(pasta4).encrypt_block(&hw_key, 1, 0, &sample32)?;
    println!(
        "Client cost for one 32-feature sample (PASTA-4 block): {} cycles\n\
         = {:.1} us on Artix-7 @75 MHz vs ~1,870+ us for any FHE public-key encryption\n",
        hw.cycles.total,
        hw.cycles.total as f64 / 75.0
    );

    // End-to-end pipeline with a scaled instance (t = 8, 2 rounds).
    let params = PastaParams::custom(FEATURES, 2, Modulus::PASTA_17_BIT)?;
    let bfv = suggest_bfv_params(FEATURES, 2, false, 256, 50)
        .ok_or("noise model found no workable BFV parameters")?;
    println!(
        "BFV parameters sized by the noise model: N = {}, {} x {}-bit primes",
        bfv.n, bfv.prime_count, bfv.prime_bits
    );
    let ctx = BfvContext::new(bfv)?;
    let mut rng = StdRng::seed_from_u64(1337);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);

    let client = HheClient::new(params, b"ml client");
    let server = HheServer::new(
        params,
        &ctx,
        relin,
        client.provision_key(&ctx, &fhe_pk, &mut rng),
    )?;

    // A quantized linear classifier: score = Σ w_i·x_i + b (mod p; the
    // weights are quantized to small integers so the score stays
    // interpretable).
    let weights: [u64; FEATURES] = [3, 0, 7, 1, 2, 5, 0, 4];
    let bias = 100u64;
    let features: Vec<u64> = vec![12, 55, 3, 99, 0, 42, 17, 8];

    // Client ships the PASTA ciphertext.
    let pasta_ct = client.encrypt(0x11, &features)?;
    println!(
        "Client sent {} bytes of symmetric ciphertext for {} features",
        pasta_ct.to_packed_bytes(&params).len(),
        FEATURES
    );

    // Server: transcipher, then evaluate the classifier under FHE.
    let t0 = Instant::now();
    let xs = server.transcipher(&ctx, &pasta_ct)?;
    let mut score = ctx.encrypt_trivial(&ctx.encode_scalar(bias));
    for (x, &w) in xs.iter().zip(weights.iter()) {
        if w != 0 {
            score = ctx.add(&score, &ctx.mul_scalar(x, w))?;
        }
    }
    println!(
        "Server transciphered + scored under FHE in {:.2} s (noise budget left: {} bits)",
        t0.elapsed().as_secs_f64(),
        ctx.noise_budget(&fhe_sk, &score)
    );

    // Client decrypts only the score.
    let result = client.retrieve(&ctx, &fhe_sk, &[score])[0];
    let zp = params.field();
    let expect = features
        .iter()
        .zip(weights.iter())
        .fold(bias, |acc, (&x, &w)| zp.add(acc, zp.mul(x, w)));
    assert_eq!(result, expect);
    println!("Encrypted inference score = {result} (plaintext check: {expect}) — OK");
    println!("\nThe server never saw the features; the client never ran FHE encryption.");
    Ok(())
}
