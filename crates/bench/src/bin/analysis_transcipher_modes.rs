//! Server-side evaluation-strategy comparison: the three transciphering
//! modes of `pasta-hhe` (the axis the original PASTA software explores
//! with SEAL), measured on a scaled instance.
//!
//! - **scalar**: one ciphertext per state element — simplest, largest
//!   ciphertext count;
//! - **batched**: `N` blocks per ciphertext — throughput mode (a
//!   one-member bucket through [`HheServer::transcipher_mux`]);
//! - **packed**: one block per ciphertext via the rotation/diagonal
//!   method — latency/bandwidth mode.

use pasta_bench::report::{fmt_f64, TextTable};
use pasta_core::PastaParams;
use pasta_fhe::{suggest_bfv_params, BfvContext};
use pasta_hhe::packed::PackedHheServer;
use pasta_hhe::{retrieve_muxed, HheClient, HheServer, MuxMember};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A duration in seconds as milliseconds, precise enough that the
/// modes of this scaled ring (a few ms each) can be told apart.
fn ms(secs: f64) -> String {
    format!("{:.2} ms", secs * 1e3)
}

/// A per-block time as a multiple of the scalar one.
fn ratio(secs: f64, scalar_secs: f64) -> String {
    format!("{:.2}x", secs / scalar_secs)
}

fn main() {
    let pasta = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("valid params");
    // The batched admission guard's ring covers all three modes: it is
    // sized for the slotted and packed layouts, which outgrow the scalar
    // pass.
    let bfv = suggest_bfv_params(pasta.t(), pasta.rounds(), true, 256, 50)
        .expect("the batched guard sizes the ring");
    let ctx = BfvContext::new(bfv).expect("context");
    let mut rng = StdRng::seed_from_u64(0x703E5);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(pasta, b"modes");
    let message: Vec<u64> = (0..4u64).map(|i| i * 1_111 % 65_537).collect();
    let pasta_ct = client.encrypt(0x30DE5, &message).expect("encrypt");

    println!(
        "Transciphering strategy comparison (PASTA t=4/r=2, BFV N={}, log q = {})\n",
        ctx.params().n,
        ctx.q_bits()
    );
    let mut table = TextTable::new(vec![
        "mode",
        "result ciphertexts/block",
        "blocks amortized",
        "wall time (this host)",
        "budget left (bits)",
        "per-block time",
        "per-block vs scalar",
    ]);

    // Scalar and batched passes run on one evaluator.
    let server = HheServer::new(pasta, &ctx, relin).expect("server");

    // Scalar.
    let scalar_key = client.provision_key(&ctx, &pk, &mut rng);
    let t0 = Instant::now();
    let outs = server
        .transcipher(&ctx, &scalar_key, &pasta_ct)
        .expect("scalar transcipher");
    let scalar_time = t0.elapsed().as_secs_f64();
    let scalar_budget = ctx.noise_budget(&sk, &outs[0]);
    assert_eq!(client.retrieve(&ctx, &sk, &outs), message);
    table.row(vec![
        "scalar".to_string(),
        "t = 4".to_string(),
        "1".to_string(),
        ms(scalar_time),
        scalar_budget.to_string(),
        ms(scalar_time),
        ratio(scalar_time, scalar_time),
    ]);

    // Batched (amortize over 8 blocks): one tenant, one bucket.
    let batched_key = client.provision_key(&ctx, &pk, &mut rng);
    let blocks = 8usize;
    let long_message: Vec<u64> = (0..(4 * blocks) as u64).map(|i| i % 65_537).collect();
    let long_ct = client.encrypt(0x30DE5, &long_message).expect("encrypt");
    let t1 = Instant::now();
    let batch = server
        .transcipher_mux(
            &ctx,
            &[MuxMember {
                tenant: 0,
                encrypted_key: &batched_key,
                ct: &long_ct,
            }],
        )
        .expect("batched transcipher");
    let batched_time = t1.elapsed().as_secs_f64();
    let batched_budget = ctx.noise_budget(&sk, &batch.positions[0]);
    assert_eq!(
        retrieve_muxed(&ctx, &sk, &batch.positions, batch.ranges[0]).expect("retrieve"),
        long_message
    );
    table.row(vec![
        "batched".to_string(),
        "t = 4 (shared across batch)".to_string(),
        format!("{blocks} (up to {})", server.capacity()),
        ms(batched_time),
        batched_budget.to_string(),
        ms(batched_time / blocks as f64),
        ratio(batched_time / blocks as f64, scalar_time),
    ]);

    // Packed.
    let packed = PackedHheServer::new(
        pasta,
        &ctx,
        &sk,
        client.cipher().key().expose_elements(),
        &mut rng,
    )
    .expect("packed server");
    let t2 = Instant::now();
    let one = packed
        .transcipher_packed(&ctx, &pasta_ct, 0)
        .expect("packed transcipher");
    let packed_time = t2.elapsed().as_secs_f64();
    let packed_budget = ctx.noise_budget(&sk, &one);
    assert_eq!(packed.decode(&ctx, &sk, &one, 4), message);
    table.row(vec![
        "packed (hoisted BSGS)".to_string(),
        "1".to_string(),
        "1".to_string(),
        ms(packed_time),
        packed_budget.to_string(),
        ms(packed_time),
        ratio(packed_time, scalar_time),
    ]);
    println!("{}", table.render());

    println!(
        "Setup costs: scalar provisions 2t = 8 key ciphertexts; batched reads the same\n\
         ones (every slot holds the key element); packed provisions ONE key ciphertext ({} bytes) plus {} rotation\n\
         keys (O(\u{221a}t) under the default hoisted-BSGS strategy, vs 2t naive).\n\
         Result bandwidth: packed returns one ciphertext per block, scalar returns t.",
        packed.encrypted_key_size_bytes(&ctx),
        packed.rotation_key_count(),
    );
    println!(
        "\nShape: batching amortizes to {}x the scalar per-block time across {} blocks;\n\
         packing trades extra rotations (noise: {} vs {} bits left) for t-fold fewer\n\
         ciphertexts — the same trade-offs the PASTA software reports with SEAL.",
        fmt_f64(batched_time / blocks as f64 / scalar_time),
        blocks,
        packed_budget,
        scalar_budget,
    );
}
