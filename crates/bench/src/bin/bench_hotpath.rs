//! Machine-readable perf baseline for the transciphering hot path.
//!
//! Measures the NTT forward+inverse kernel and scalar and batched
//! (one-member mux bucket) transciphering, then renders
//! `BENCH_ntt.json` and `BENCH_transcipher.json` via
//! [`pasta_bench::report::BenchReport`].
//!
//! Usage:
//!
//! ```text
//! bench_hotpath --phase before          # record pre-optimization baseline
//! bench_hotpath --phase after           # re-measure, merge committed baseline
//! bench_hotpath --phase after --quick   # CI smoke mode (short windows)
//! bench_hotpath --out-dir target/bench  # write JSON elsewhere (default .)
//! ```
//!
//! The `after` phase re-reads any existing JSON in the output directory
//! and carries its `before` entries forward, so the committed files hold
//! before/after pairs plus computed speedup factors.

use pasta_bench::report::BenchReport;
use pasta_core::PastaParams;
use pasta_fhe::ntt::NttTable;
use pasta_fhe::{BfvContext, BfvParams};
use pasta_hhe::{HheClient, HheServer, MuxHheServer, MuxMember};
use pasta_math::{simd, Modulus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

struct Options {
    phase: String,
    quick: bool,
    out_dir: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        phase: "after".to_string(),
        quick: false,
        out_dir: ".".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--phase" => opts.phase = args.next().unwrap_or_else(|| "after".to_string()),
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
    if opts.phase != "before" && opts.phase != "after" {
        eprintln!("--phase must be 'before' or 'after', got '{}'", opts.phase);
        std::process::exit(2);
    }
    opts
}

/// Times `f`, calibrating the iteration count to roughly fill
/// `window_ms` of wall clock. Returns ns/iter.
fn time_ns<F: FnMut()>(window_ms: u64, mut f: F) -> f64 {
    f(); // warm-up
    let probe = Instant::now();
    f();
    let per_call = probe.elapsed().as_nanos().max(1);
    let iters = ((u128::from(window_ms) * 1_000_000) / per_call).clamp(1, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_ntt(report: &mut BenchReport, phase: &str, quick: bool) {
    let window = if quick { 30 } else { 400 };
    // The 50-bit prime is the ciphertext width of the benchmark rings
    // (the IFMA range); 60-bit and 17-bit fall outside it.
    let ntt_50 = Modulus::find_ntt_prime(50, 11).expect("50-bit NTT prime");
    let cases: &[(&str, Modulus, usize)] = &[
        ("ntt_fwd_inv/50bit/n=1024", ntt_50, 1024),
        ("ntt_fwd_inv/60bit/n=1024", Modulus::NTT_60_BIT, 1024),
        ("ntt_fwd_inv/60bit/n=4096", Modulus::NTT_60_BIT, 4096),
        ("ntt_fwd_inv/17bit/n=1024", Modulus::PASTA_17_BIT, 1024),
    ];
    for &(id, modulus, n) in cases {
        let table = NttTable::new(modulus, n).expect("NTT table");
        let p = table.zp().p();
        let mut buf: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % p)
            .collect();
        // Measure every available SIMD backend in-process, so the JSON
        // carries the scalar, AVX2 and IFMA numbers for the same build.
        // A backend the CPU lacks resolves to a slower one and is
        // skipped.
        for backend in simd::Backend::ALL {
            if simd::force_backend(Some(backend)) != backend {
                continue;
            }
            let ns = time_ns(window, || {
                table.forward(black_box(&mut buf));
                table.inverse(black_box(&mut buf));
            });
            println!("{id}: {ns:.0} ns/iter [{phase}, {}]", backend.label());
            report.push_backend(id, phase, backend.label(), ns);
        }
    }
    simd::force_backend(None);
}

fn bench_transcipher(report: &mut BenchReport, phase: &str, quick: bool) {
    let pasta = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("params");
    let t = pasta.t();
    let mut rng = StdRng::seed_from_u64(0xBE7C);

    // Scalar server (the pipeline crate's per-frame path).
    let ctx = BfvContext::new(BfvParams::test_tiny()).expect("context");
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(pasta, b"bench hotpath");
    let scalar = HheServer::new(
        pasta,
        &ctx,
        relin.clone(),
        client.provision_key(&ctx, &pk, &mut rng),
    )
    .expect("scalar server");
    let message: Vec<u64> = (0..(2 * t) as u64)
        .map(|i| (i * 991 + 5) % 65_537)
        .collect();

    // Each row records the *minimum* per-pass wall time over `reps`
    // passes — the noise-robust estimator on a shared/1-core box,
    // where a mean folds in scheduler preemptions.
    let reps: u64 = if quick { 1 } else { 5 };
    let min_of = |mut pass: Box<dyn FnMut() + '_>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            pass();
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    };
    // Cold: a fresh nonce every call, so per-block material can never be
    // reused across iterations.
    let mut nonce = 0x1000u128;
    let warm_up = client.encrypt(nonce, &message).expect("encrypt");
    black_box(scalar.transcipher(&ctx, &warm_up).expect("transcipher"));
    let scalar_cold = min_of(Box::new(|| {
        nonce += 1;
        let ct = client.encrypt(nonce, &message).expect("encrypt");
        black_box(scalar.transcipher(&ctx, &ct).expect("transcipher"));
    }));
    println!("transcipher/scalar/2blocks/cold: {scalar_cold:.0} ns/iter [{phase}]");
    report.push("transcipher/scalar/2blocks/cold", phase, scalar_cold);

    // Warm: repeated nonce — models the pipeline crate's ARQ
    // retransmissions, where the same frame is transciphered again.
    // Extra un-timed passes first so the scratch pool reaches steady
    // state (worker-allocated rows recirculate through the global bin),
    // then the measured passes double as the zero-allocation /
    // spawn-free probe for the report's `meta` counters.
    let warm_ct = client.encrypt(0xF1F1, &message).expect("encrypt");
    for _ in 0..4 {
        black_box(scalar.transcipher(&ctx, &warm_ct).expect("transcipher"));
    }
    let misses_before = pasta_fhe::scratch::stats().misses;
    let spawns_before = pasta_par::pool::stats().spawn_events;
    let scalar_warm = min_of(Box::new(|| {
        black_box(scalar.transcipher(&ctx, &warm_ct).expect("transcipher"));
    }));
    let warm_allocs = pasta_fhe::scratch::stats().misses - misses_before;
    let warm_spawns = pasta_par::pool::stats().spawn_events - spawns_before;
    println!("transcipher/scalar/2blocks/warm: {scalar_warm:.0} ns/iter [{phase}]");
    println!("warm_allocs: {warm_allocs} (pool misses over {reps} warm passes)");
    report.push("transcipher/scalar/2blocks/warm", phase, scalar_warm);
    report.set_meta("warm_allocs", warm_allocs.to_string());
    report.set_meta("warm_spawn_events", warm_spawns.to_string());

    // Batched pass: 8 blocks of one tenant in a one-member mux bucket
    // (extra prime for the slotted noise growth, mirroring the mux
    // tests).
    let bctx = BfvContext::new(BfvParams {
        prime_count: 5,
        ..BfvParams::test_tiny()
    })
    .expect("context");
    let bsk = bctx.generate_secret_key(&mut rng);
    let bpk = bctx.generate_public_key(&bsk, &mut rng);
    let brelin = bctx.generate_relin_key(&bsk, &mut rng);
    let bkey = client.provision_key(&bctx, &bpk, &mut rng);
    let batched = MuxHheServer::new(pasta, &bctx, brelin).expect("mux server");
    let batched_pass = |ct: &pasta_core::Ciphertext| {
        let member = MuxMember {
            tenant: 0,
            encrypted_key: &bkey,
            ct,
        };
        black_box(
            batched
                .transcipher_mux(&bctx, &[member])
                .expect("transcipher"),
        );
    };
    let blocks = 8usize;
    let long_message: Vec<u64> = (0..(t * blocks) as u64).map(|i| i % 65_537).collect();

    // Fresh nonce every call: the batched weights are single-use and
    // streamed, so a repeated nonce would time the same work.
    let mut bnonce = 0x2000u128;
    batched_pass(&client.encrypt(bnonce, &long_message).expect("encrypt"));
    let batched_cold = min_of(Box::new(|| {
        bnonce += 1;
        batched_pass(&client.encrypt(bnonce, &long_message).expect("encrypt"));
    }));
    println!("transcipher/batched/8blocks/cold: {batched_cold:.0} ns/iter [{phase}]");
    report.push("transcipher/batched/8blocks/cold", phase, batched_cold);

    // Steady-state pool probe, last so its passes cannot perturb the
    // timed rows above. Those rows run at whatever width the
    // environment resolves (a 1-core container resolves to 1 and
    // bypasses the pool entirely), so this probe forces the narrowest
    // parallel width and drives warm passes through it: the pool must
    // spawn each worker exactly once, ever, and serve every further
    // dispatch from parked threads.
    let prev = std::env::var(pasta_par::THREADS_ENV).ok();
    let pool_width = pasta_par::threads().max(2);
    std::env::set_var(pasta_par::THREADS_ENV, pool_width.to_string());
    for _ in 0..4 {
        black_box(scalar.transcipher(&ctx, &warm_ct).expect("transcipher"));
    }
    match prev {
        Some(v) => std::env::set_var(pasta_par::THREADS_ENV, v),
        None => std::env::remove_var(pasta_par::THREADS_ENV),
    }
    let pool = pasta_par::pool::stats();
    println!(
        "pool: {} spawn events over {} dispatches ({pool_width} workers)",
        pool.spawn_events, pool.dispatches
    );
    report.set_meta("pool_threads", pool_width.to_string());
    report.set_meta("spawn_events", pool.spawn_events.to_string());
    report.set_meta("pool_dispatches", pool.dispatches.to_string());
}

fn emit(report: &BenchReport, path: &str) {
    std::fs::write(path, report.to_json()).expect("write bench report");
    println!("wrote {path}");
}

fn main() {
    let opts = parse_args();
    let ntt_path = format!("{}/BENCH_ntt.json", opts.out_dir);
    let tc_path = format!("{}/BENCH_transcipher.json", opts.out_dir);

    let mut ntt = BenchReport::new(
        "ntt",
        "negacyclic NTT forward+inverse, ns per roundtrip (single prime row)",
    );
    let mut tc = BenchReport::new(
        "transcipher",
        "HHE server transcipher wall time, ns per call (PASTA t=4 r=2, BFV N=256)",
    );
    if opts.phase == "after" {
        if let Ok(prev) = std::fs::read_to_string(&ntt_path) {
            ntt.merge_phase_from(&prev, "before");
        }
        if let Ok(prev) = std::fs::read_to_string(&tc_path) {
            tc.merge_phase_from(&prev, "before");
        }
    }

    // Spawn the full worker pool once up front — the steady-state
    // service posture, where every later dispatch reuses parked
    // threads. The meta counters emitted by the transcipher bench
    // prove it stays that way. (Resolves serial on a 1-core box; the
    // pool probe in `bench_transcipher` covers that case.)
    let threads = pasta_par::threads();
    let warm: Vec<usize> = (0..threads).collect();
    black_box(pasta_par::parallel_map(&warm, |_, &i| i));

    bench_ntt(&mut ntt, &opts.phase, opts.quick);
    emit(&ntt, &ntt_path);
    bench_transcipher(&mut tc, &opts.phase, opts.quick);
    emit(&tc, &tc_path);

    for (name, report) in [("ntt", &ntt), ("transcipher", &tc)] {
        for (id, backend, factor) in report.speedups() {
            println!("speedup [{name}] {id} ({backend}): {factor:.2}x");
        }
        for (id, backend, factor) in report.backend_speedups() {
            println!("{backend}-vs-scalar [{name}] {id}: {factor:.2}x");
        }
    }
}
