//! End-to-end Hybrid Homomorphic Encryption (the paper's Fig. 1):
//!
//! 1. the client FHE-encrypts its PASTA key once and ships it;
//! 2. the client PASTA-encrypts data (tiny ciphertexts, fast);
//! 3. the server *transciphers* — homomorphically evaluates PASTA
//!    decryption — obtaining FHE ciphertexts it can compute on;
//! 4. the server computes on the data under encryption;
//! 5. the client decrypts only the small result.
//!
//! A scaled-down PASTA instance (t = 8, 2 rounds) keeps the homomorphic
//! evaluation snappy; the circuit structure (affine → Mix → Feistel/cube
//! S-box per round) is identical to PASTA-4.
//!
//! ```text
//! cargo run --release --example transciphering
//! ```

use pasta_edge::cipher::PastaParams;
use pasta_edge::fhe::{BfvContext, BfvParams};
use pasta_edge::hhe::{HheClient, HheServer};
use pasta_edge::math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pasta = PastaParams::custom(8, 2, Modulus::PASTA_17_BIT)?;
    // Functional (non-hardened) BFV parameters with budget for the
    // 3-affine-layer circuit; see DESIGN.md for the security caveat.
    let bfv = BfvParams {
        n: 256,
        plain_modulus: Modulus::PASTA_17_BIT,
        prime_bits: 50,
        prime_count: 5,
    };
    let ctx = BfvContext::new(bfv)?;
    println!("PASTA: {pasta}");
    println!(
        "BFV:   N = {}, log2(q) = {} bits",
        ctx.params().n,
        ctx.q_bits()
    );

    let mut rng = StdRng::seed_from_u64(0xE2E);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);

    // --- setup: provision the encrypted PASTA key (once) ---
    let client = HheClient::new(pasta, b"transciphering demo");
    let t0 = Instant::now();
    let encrypted_key = client.provision_key(&ctx, &fhe_pk, &mut rng);
    println!(
        "Provisioned FHE-encrypted PASTA key: {} ciphertexts, {} bytes, {:.1} ms",
        encrypted_key.elements.len(),
        encrypted_key.size_bytes(&ctx),
        t0.elapsed().as_secs_f64() * 1e3
    );
    let server = HheServer::new(pasta, &ctx, relin)?;

    // --- client: symmetric encryption (the accelerated hot path) ---
    let message = vec![120u64, 7, 65_000, 42, 9, 10, 11, 12];
    let t1 = Instant::now();
    let pasta_ct = client.encrypt(0xCAFE, &message)?;
    println!(
        "Client PASTA-encrypted {} elements in {:.1} us ({} wire bytes)",
        message.len(),
        t1.elapsed().as_secs_f64() * 1e6,
        pasta_ct.to_packed_bytes(&pasta).len()
    );

    // --- server: homomorphic PASTA decryption ---
    let t2 = Instant::now();
    let fhe_cts = server.transcipher(&ctx, &encrypted_key, &pasta_ct)?;
    println!(
        "Server transciphered into {} FHE ciphertexts in {:.2} s",
        fhe_cts.len(),
        t2.elapsed().as_secs_f64()
    );
    for (i, ct) in fhe_cts.iter().enumerate() {
        let budget = ctx.noise_budget(&fhe_sk, ct);
        println!(
            "  ciphertext {i}: {} bytes, {} bits of noise budget left",
            ct.size_bytes(&ctx),
            budget
        );
    }

    // --- server: compute on encrypted data (sum + scaled element) ---
    let mut sum = fhe_cts[0].clone();
    for ct in &fhe_cts[1..] {
        sum = ctx.add(&sum, ct)?;
    }
    let doubled_first = ctx.mul_scalar(&fhe_cts[0], 2);

    // --- client: retrieve results ---
    let results = client.retrieve(&ctx, &fhe_sk, &[sum, doubled_first]);
    let zp = pasta.field();
    let expect_sum = message.iter().fold(0u64, |acc, &m| zp.add(acc, m));
    assert_eq!(results[0], expect_sum);
    assert_eq!(results[1], zp.mul(message[0], 2));
    println!(
        "Homomorphic sum = {} (expected {expect_sum}), 2x first = {}",
        results[0], results[1]
    );
    println!("End-to-end HHE round trip: OK");
    Ok(())
}
