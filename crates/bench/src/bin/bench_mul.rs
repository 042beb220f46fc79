//! Machine-readable perf record for the RNS ciphertext multiplication.
//!
//! Measures BFV ciphertext multiply, square and multiply-relinearize
//! under the two multiplication backends, plus the S-box's
//! square-relinearize at the three rings the wall-clock benchmark runs
//! (N = 1024 with 7, 11 and 16 × 50-bit primes), and renders
//! `BENCH_mul.json` via [`pasta_bench::report::BenchReport`]. Every
//! SIMD backend's output is checked against the scalar backend's; a
//! difference makes the run exit non-zero, so the CI smoke run (`--quick`)
//! gates backend bit-identity:
//!
//! - `--phase before` measures the **bigint oracle** (the retained
//!   exact CRT-reconstruct / big-integer scaled-rounding path,
//!   [`MulOracle::mul`], called directly);
//! - `--phase after` measures the **full-RNS** BEHZ path (what
//!   [`BfvContext::mul`] runs),
//!   merging any committed `before` entries so the JSON holds
//!   before/after pairs plus speedup factors.
//!
//! Usage:
//!
//! ```text
//! bench_mul --phase before            # bigint-oracle baseline
//! bench_mul --phase after             # RNS path, merge committed baseline
//! bench_mul --phase after --quick     # CI smoke mode (short windows)
//! bench_mul --out-dir target/bench    # write JSON elsewhere (default .)
//! ```

use pasta_bench::report::BenchReport;
use pasta_fhe::oracle::MulOracle;
use pasta_fhe::{BfvContext, BfvParams, Ciphertext};
use pasta_math::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Times `reps` calls of `f`, returning ns per call and the warm-up
/// call's output.
fn time_op(reps: u64, mut f: impl FnMut() -> Ciphertext) -> (f64, Ciphertext) {
    let out = f(); // warm-up (NTT tables, allocator, caches)
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    (start.elapsed().as_nanos() as f64 / reps as f64, out)
}

/// Which operations a parameter set measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ops {
    /// `mul`, `square` and `mul_relin`.
    Products,
    /// `square_relin` only (the S-box product).
    SquareRelin,
}

/// Benchmarks one parameter set on every available backend, pushing
/// wall times under `tag` (e.g. `N=1024/k=6`). Returns the ids whose
/// output on some backend differs from the scalar backend's.
fn bench_set(
    report: &mut BenchReport,
    phase: &str,
    quick: bool,
    bfv: BfvParams,
    tag: &str,
    which: Ops,
) -> Vec<String> {
    let ctx = &BfvContext::new(bfv).expect("context");
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let rk = &ctx.generate_relin_key(&sk, &mut rng);
    let t = ctx.params().plain_modulus.value();
    let random_ct = |rng: &mut StdRng| {
        let pt = pasta_fhe::Plaintext {
            coeffs: (0..ctx.params().n).map(|_| rng.gen_range(0..t)).collect(),
        };
        ctx.encrypt(&pk, &pt, rng)
    };
    let (a, b) = (&random_ct(&mut rng), &random_ct(&mut rng));
    let exact = &MulOracle::new(ctx).expect("oracle");
    let reps: u64 = if quick { 2 } else { 20 };
    let mut scalar_out: Vec<(String, Ciphertext)> = Vec::new();
    let mut mismatches = Vec::new();

    // Measure every available SIMD backend in-process; a backend the
    // CPU lacks resolves to a slower one and is skipped. The scalar
    // backend runs first and records the reference outputs.
    for backend in simd::Backend::ALL {
        if simd::force_backend(Some(backend)) != backend {
            continue;
        }
        type Op<'a> = Box<dyn FnMut() -> Ciphertext + 'a>;
        let ops: Vec<(&str, Op)> = if phase == "before" {
            let oracle = |x, y| exact.mul(x, y).expect("mul");
            vec![
                ("mul", Box::new(move || oracle(a, b))),
                // Aliased operands take the oracle's squaring path.
                ("square", Box::new(move || oracle(a, a))),
                (
                    "mul_relin",
                    Box::new(move || ctx.relinearize(&oracle(a, b), rk).expect("relin")),
                ),
                (
                    "square_relin",
                    Box::new(move || ctx.relinearize(&oracle(a, a), rk).expect("relin")),
                ),
            ]
        } else {
            vec![
                ("mul", Box::new(|| ctx.mul(a, b).expect("mul"))),
                ("square", Box::new(|| ctx.square(a).expect("square"))),
                (
                    "mul_relin",
                    Box::new(|| ctx.mul_relin(a, b, rk).expect("mul_relin")),
                ),
                (
                    "square_relin",
                    Box::new(|| ctx.square_relin(a, rk).expect("square_relin")),
                ),
            ]
        };
        let selected = ops
            .into_iter()
            .filter(|(op, _)| (*op == "square_relin") == (which == Ops::SquareRelin));
        for (op, f) in selected {
            let (ns, out) = time_op(reps, f);
            let id = format!("{op}/{tag}");
            println!("{id}: {ns:.0} ns/iter [{phase}, {}]", backend.label());
            report.push_backend(id.clone(), phase, backend.label(), ns);
            match scalar_out.iter().find(|(i, _)| *i == id) {
                Some((_, want)) if *want != out => {
                    eprintln!("{id}: {} output differs from scalar", backend.label());
                    mismatches.push(format!("{id} [{}]", backend.label()));
                }
                Some(_) => {}
                None => scalar_out.push((id, out)),
            }
        }
    }
    simd::force_backend(None);
    mismatches
}

fn main() {
    let opts = parse_args();
    let path = format!("{}/BENCH_mul.json", opts.out_dir);

    let mut report = BenchReport::new(
        "mul",
        "BFV ciphertext multiplication: exact bigint CRT round-trip (before) vs \
         full-RNS BEHZ base conversion (after); ns per call",
    );
    if opts.phase == "after" {
        if let Ok(prev) = std::fs::read_to_string(&path) {
            report.merge_phase_from(&prev, "before");
        }
    }

    // Unit-test scale: N = 256, four 50-bit primes.
    let mut mismatches = bench_set(
        &mut report,
        &opts.phase,
        opts.quick,
        BfvParams::test_tiny(),
        "N=256/k=4",
        Ops::Products,
    );

    // Paper scale: the transcipher-demo ring at N = 1024 — six 55-bit
    // primes, the q used by the end-to-end PASTA workflow.
    mismatches.extend(bench_set(
        &mut report,
        &opts.phase,
        opts.quick,
        BfvParams {
            n: 1_024,
            ..BfvParams::transcipher_demo()
        },
        "N=1024/k=6",
        Ops::Products,
    ));

    // The S-box product at the wall-clock benchmark's rings: N = 1024
    // with 7 (scalar PASTA-4), 11 (mux PASTA-4) and 16 (packed PASTA-3)
    // 50-bit primes.
    for k in [7, 11, 16] {
        mismatches.extend(bench_set(
            &mut report,
            &opts.phase,
            opts.quick,
            BfvParams {
                n: 1_024,
                prime_count: k,
                ..BfvParams::test_tiny()
            },
            &format!("N=1024/k={k}"),
            Ops::SquareRelin,
        ));
    }

    std::fs::write(&path, report.to_json()).expect("write bench report");
    println!("wrote {path}");
    for (id, backend, factor) in report.speedups() {
        println!("speedup {id} ({backend}): {factor:.2}x");
    }
    for (id, backend, factor) in report.backend_speedups() {
        println!("{backend}-vs-scalar {id}: {factor:.2}x");
    }
    if !mismatches.is_empty() {
        eprintln!(
            "backend outputs differ from the scalar backend: {}",
            mismatches.join(", ")
        );
        std::process::exit(1);
    }
}
