//! Machine-readable perf record for the packed-mode rotation work.
//!
//! Times the packed (one-block-per-ciphertext) transciphering server's
//! **hoisted baby-step/giant-step** evaluation on a fresh nonce per call,
//! and the Galois key-switch entry points it is built from
//! (`apply_galois`, `hoist`, `apply_galois_hoisted`) on the packed
//! PASTA-3 ring, and renders `BENCH_rotation.json` via
//! [`pasta_bench::report::BenchReport`]. The timed entries are timed
//! over several windows ([`pasta_bench::micro`]): `ns` is the median
//! window and `min_ns` the fastest.
//!
//! Besides wall times, the report records the per-keystream Galois
//! key-switch count and the provisioned rotation-key count; for those
//! entries the `ns` field holds a raw count.
//!
//! Every timed transcipher is decrypted after its timing windows and
//! compared with the message, and the classic and hoisted rotations with
//! the plaintext automorphism; the binary prints the smallest noise
//! budget it read and exits 1, writing no report, if any result
//! decrypts wrong.
//!
//! Usage:
//!
//! ```text
//! bench_rotation                          # write ./BENCH_rotation.json
//! bench_rotation --quick                  # CI smoke mode (short windows)
//! bench_rotation --out-dir target/bench   # write JSON elsewhere
//! ```

use pasta_bench::micro::{time_windows, Options};
use pasta_bench::report::BenchReport;
use pasta_core::PastaParams;
use pasta_fhe::{suggest_bfv_params, BatchEncoder, BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::{HheClient, PackedHheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Setup {
    ctx: BfvContext,
    sk: BfvSecretKey,
    client: HheClient,
    server: PackedHheServer,
}

/// Builds a packed server for the given PASTA/BFV sizes.
fn build(pasta: PastaParams, bfv: BfvParams, seed: u64) -> Setup {
    let ctx = BfvContext::new(bfv).expect("context");
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = ctx.generate_secret_key(&mut rng);
    let client = HheClient::new(pasta, b"bench rotation");
    let server = PackedHheServer::new(
        pasta,
        &ctx,
        &sk,
        client.cipher().key().expose_elements(),
        &mut rng,
    )
    .expect("packed server");
    Setup {
        ctx,
        sk,
        client,
        server,
    }
}

/// Benchmarks one parameter set, pushing wall times and rotation-work
/// counts under `tag` (e.g. `t=4/N=256`). Returns whether every
/// transcipher decrypted to its message.
fn bench_packed(
    report: &mut BenchReport,
    opts: &Options,
    pasta: PastaParams,
    bfv: BfvParams,
    tag: &str,
) -> bool {
    let s = build(pasta, bfv, 0xB0B0);
    let t = pasta.t();
    let message: Vec<u64> = (0..t as u64).map(|i| (i * 7_177 + 13) % 65_537).collect();

    // Cold transcipher: a fresh nonce per call, so the per-block
    // material is derived and every diagonal streamed each time. The
    // results are kept and decrypted after the timing windows.
    let mut nonce = 0x4000u128;
    let mut results = Vec::new();
    let (windows, ()) = time_windows(opts.windows(), 1, || {
        nonce += 1;
        let ct = s.client.encrypt(nonce, &message).expect("encrypt");
        results.push(
            s.server
                .transcipher_packed(&s.ctx, &ct, 0)
                .expect("transcipher"),
        );
    });
    println!(
        "{}",
        report.push_windows(
            format!("packed_transcipher/{tag}/cold"),
            pasta_math::simd::backend_label(),
            &windows
        )
    );
    let wrong = results
        .iter()
        .filter(|ct| s.server.decode(&s.ctx, &s.sk, ct, t) != message)
        .count();
    let budget = results
        .iter()
        .map(|ct| s.ctx.noise_budget(&s.sk, ct))
        .min()
        .unwrap_or(0);
    println!(
        "verify {tag}: {} of {} decrypted right, min noise budget {budget} bits",
        results.len() - wrong,
        results.len()
    );

    // Rotation-work counts (raw counts, not nanoseconds).
    s.server.reset_key_switch_count();
    black_box(
        s.server
            .keystream_packed(&s.ctx, 0xF00F, 0)
            .expect("keystream"),
    );
    let switches = s.server.key_switch_count() as f64;
    println!(
        "{}",
        report.push(format!("key_switches/keystream/{tag}"), switches)
    );
    let keys = s.server.rotation_key_count() as f64;
    println!("{}", report.push(format!("rotation_keys/{tag}"), keys));
    wrong == 0
}

/// Times one Galois rotation (`g = 3`) of a fresh encryption three
/// ways under `tag`: `apply_galois`, `hoist`, and `apply_galois_hoisted`
/// of one hoisted ciphertext. Returns whether both rotations decrypt to
/// the plaintext automorphism.
fn bench_galois(report: &mut BenchReport, opts: &Options, bfv: BfvParams, tag: &str) -> bool {
    const G: usize = 3;
    let ctx = BfvContext::new(bfv).expect("context");
    let mut rng = StdRng::seed_from_u64(0x6A10);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let gk = ctx
        .generate_galois_key(&sk, G, &mut rng)
        .expect("Galois key");
    let encoder = BatchEncoder::new(bfv.plain_modulus, bfv.n).expect("batching ring");
    let slots: Vec<u64> = (0..bfv.n as u64)
        .map(|i| (i * 7_177 + 13) % 65_537)
        .collect();
    let pt = encoder.encode(&slots);
    let ct = ctx.encrypt(&pk, &pt, &mut rng);
    let hoisted = ctx.hoist(&ct).expect("hoist");
    let reps: u64 = if opts.quick { 2 } else { 20 };
    let label = pasta_math::simd::backend_label();
    let (windows, classic) = time_windows(opts.windows(), reps, || {
        ctx.apply_galois(black_box(&ct), &gk).expect("apply_galois")
    });
    println!(
        "{}",
        report.push_windows(format!("apply_galois/{tag}"), label, &windows)
    );
    let (windows, _) = time_windows(opts.windows(), reps, || {
        ctx.hoist(black_box(&ct)).expect("hoist")
    });
    println!(
        "{}",
        report.push_windows(format!("hoist/{tag}"), label, &windows)
    );
    let (windows, mut fast) = time_windows(opts.windows(), reps, || {
        ctx.apply_galois_hoisted(black_box(&hoisted), &gk)
            .expect("apply_galois_hoisted")
    });
    println!(
        "{}",
        report.push_windows(format!("apply_galois_hoisted/{tag}"), label, &windows)
    );
    ctx.to_coeff_ct(&mut fast);
    let want = encoder.plaintext_automorphism(&pt, G);
    let right = [&classic, &fast]
        .iter()
        .filter(|ct| ctx.decrypt(&sk, ct) == want)
        .count();
    let budget = ctx
        .noise_budget(&sk, &classic)
        .min(ctx.noise_budget(&sk, &fast));
    println!(
        "verify {tag}: {right} of 2 rotations decrypted right, min noise budget {budget} bits"
    );
    right == 2
}

fn main() {
    let opts = Options::from_args();
    let mut report = BenchReport::new(
        "rotation",
        "packed transcipher with hoisted BSGS rotations: ns per call, except \
         key_switches/* and rotation_keys/* entries which are raw counts",
    );

    // Scaled-down set (the unit-test sizes): PASTA t=4, r=2 on N=256.
    let small_ok = bench_packed(
        &mut report,
        &opts,
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("params"),
        BfvParams {
            prime_count: 8,
            ..BfvParams::test_tiny()
        },
        "t=4/N=256",
    );

    // The paper's PASTA-3 parameter set: t = 128, 3 rounds. N = 1024
    // gives a 512-lane orbit, which the 2t = 256-lane state divides. The
    // ring is the batched admission guard's (7 × 50-bit primes), so the
    // decryption check below runs the packed path on the guard's own
    // count.
    let pasta3 = PastaParams::pasta3_17bit();
    let paper_ring = suggest_bfv_params(pasta3.t(), pasta3.rounds(), true, 1024, 50)
        .expect("the batched guard sizes the paper ring");
    let paper_ok = bench_packed(&mut report, &opts, pasta3, paper_ring, "t=128/N=1024");
    // The rotations the packed PASTA-3 pass is made of, on its ring.
    let galois_tag = format!("N=1024/k={}", paper_ring.prime_count);
    let galois_ok = bench_galois(&mut report, &opts, paper_ring, &galois_tag);
    if !(small_ok && paper_ok && galois_ok) {
        eprintln!("a packed transcipher or rotation decrypted wrong; no report written");
        std::process::exit(1);
    }
    report.write(&opts.path("BENCH_rotation.json"));
}
