//! Machine-readable perf record for the packed-mode rotation work.
//!
//! Measures the packed (one-block-per-ciphertext) transciphering server's
//! **hoisted baby-step/giant-step** evaluation as the `after` phase and
//! renders `BENCH_rotation.json` via [`pasta_bench::report::BenchReport`].
//! The committed `before` rows — the naive one-rotation-per-diagonal
//! evaluation this path replaced — are merged in, so the JSON holds
//! before/after pairs plus speedup factors.
//!
//! Besides wall times, the report records the per-keystream Galois
//! key-switch counts and the provisioned rotation-key counts under the
//! same before/after ids — for those entries the `ns` field holds a raw
//! count and the `speedup` factor is the reduction factor.
//!
//! Every timed transcipher is decrypted after its timing window and
//! compared with the message; the binary prints the smallest noise
//! budget it read and exits 1, writing no report, if any result
//! decrypts wrong.
//!
//! Usage:
//!
//! ```text
//! bench_rotation                          # BSGS, merge committed baseline
//! bench_rotation --quick                  # CI smoke mode (short windows)
//! bench_rotation --out-dir target/bench   # write JSON elsewhere (default .)
//! ```

use pasta_bench::report::BenchReport;
use pasta_core::PastaParams;
use pasta_fhe::{suggest_bfv_params, BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::{HheClient, PackedHheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The phase this binary measures.
const PHASE: &str = "after";

struct Options {
    quick: bool,
    out_dir: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        out_dir: ".".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out-dir" => {
                if let Some(d) = args.next() {
                    opts.out_dir = d;
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

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
    quick: bool,
    pasta: PastaParams,
    bfv: BfvParams,
    tag: &str,
) -> bool {
    let s = build(pasta, bfv, 0xB0B0);
    let t = pasta.t();
    let message: Vec<u64> = (0..t as u64).map(|i| (i * 7_177 + 13) % 65_537).collect();
    let reps: u64 = if quick { 1 } else { 3 };

    // Cold transcipher: fresh nonce per call, so the per-block material
    // is derived and every diagonal streamed each time. The results are
    // kept and decrypted after the timing window.
    let mut nonce = 0x4000u128;
    let warm_up = s.client.encrypt(nonce, &message).expect("encrypt");
    let mut results = vec![s
        .server
        .transcipher_packed(&s.ctx, &warm_up, 0)
        .expect("transcipher")];
    let start = Instant::now();
    for _ in 0..reps {
        nonce += 1;
        let ct = s.client.encrypt(nonce, &message).expect("encrypt");
        results.push(black_box(
            s.server
                .transcipher_packed(&s.ctx, &ct, 0)
                .expect("transcipher"),
        ));
    }
    let cold = start.elapsed().as_nanos() as f64 / reps as f64;
    let id = format!("packed_transcipher/{tag}/cold");
    println!("{id}: {cold:.0} ns/iter [{PHASE}]");
    report.push(id, PHASE, cold);
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
    let switches = s.server.key_switch_count();
    let id = format!("key_switches/keystream/{tag}");
    println!("{id}: {switches} [{PHASE}]");
    report.push(id, PHASE, switches as f64);
    let keys = s.server.rotation_key_count();
    let id = format!("rotation_keys/{tag}");
    println!("{id}: {keys} [{PHASE}]");
    report.push(id, PHASE, keys as f64);
    wrong == 0
}

fn main() {
    let opts = parse_args();
    let path = format!("{}/BENCH_rotation.json", opts.out_dir);

    let mut report = BenchReport::new(
        "rotation",
        "packed transcipher: naive diagonal rotations (before) vs hoisted BSGS (after); \
         ns per call, except key_switches/* and rotation_keys/* entries which are raw counts",
    );
    if let Ok(prev) = std::fs::read_to_string(&path) {
        report.merge_phase_from(&prev, "before");
    }

    // Scaled-down set (the unit-test sizes): PASTA t=4, r=2 on N=256.
    let small_ok = bench_packed(
        &mut report,
        opts.quick,
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("params"),
        BfvParams {
            prime_count: 8,
            ..BfvParams::test_tiny()
        },
        "t=4/N=256",
    );

    // The paper's PASTA-3 parameter set: t = 128, 3 rounds. N = 1024
    // gives a 512-lane orbit, which the 2t = 256-lane state divides. The
    // ring is the batched admission guard's (8 × 50-bit primes), so the
    // decryption check below runs the packed path on the guard's own
    // count.
    let pasta3 = PastaParams::pasta3_17bit();
    let paper_ok = bench_packed(
        &mut report,
        opts.quick,
        pasta3,
        suggest_bfv_params(pasta3.t(), pasta3.rounds(), true, 1024, 50)
            .expect("the batched guard sizes the paper ring"),
        "t=128/N=1024",
    );
    if !(small_ok && paper_ok) {
        eprintln!("a packed transcipher decrypted wrong; no report written");
        std::process::exit(1);
    }

    std::fs::write(&path, report.to_json()).expect("write bench report");
    println!("wrote {path}");
    for (id, backend, factor) in report.speedups() {
        println!("speedup {id} ({backend}): {factor:.2}x");
    }
}
