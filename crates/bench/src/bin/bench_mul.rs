//! Machine-readable perf record for the RNS ciphertext multiplication.
//!
//! Measures BFV ciphertext multiply, square and multiply-relinearize
//! under the two multiplication backends, plus the S-box's
//! square-relinearize at the three rings the wall-clock benchmark runs
//! (N = 1024 with 6, 8 and 11 × 50-bit primes) and one PASTA-4 affine
//! row (`BfvContext::dot_periodic` over 32 inputs: period 1, the
//! scalar pass, at 6 primes, and period 8, a mux pass, at 11), and
//! renders
//! `BENCH_mul.json` via [`pasta_bench::report::BenchReport`]. Each entry
//! is timed over several windows; `ns` is the median window and
//! `min_ns` the fastest, and the speedup factors divide medians. Every
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
//!   before/after pairs plus speedup factors. The affine rows have no
//!   oracle and run in this phase only.
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
use pasta_fhe::{BatchEncoder, BfvContext, BfvParams, Ciphertext, PeriodicPlaintext};
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

/// Times `windows` windows of `reps` calls of `f` each, returning ns per
/// call in every window and the warm-up call's output. One short window
/// moves by 20–25 % between runs of one build; the report keeps the
/// median and the minimum over the windows.
fn time_op(windows: usize, reps: u64, mut f: impl FnMut() -> Ciphertext) -> (Vec<f64>, Ciphertext) {
    let out = f(); // warm-up (NTT tables, allocator, caches)
    let per_window = (0..windows)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    (per_window, out)
}

/// Which operations a parameter set measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ops {
    /// `mul`, `square` and `mul_relin`.
    Products,
    /// `square_relin` only (the S-box product).
    SquareRelin,
    /// One affine row: `dot_periodic` over 32 inputs (the PASTA-4 `t`)
    /// with weights of this period.
    AffineRow(usize),
}

/// The inputs and weights of one PASTA-4 affine row at period `k`: 32
/// ciphertexts, in the NTT domain when `k > 1` as the circuit hands
/// them over.
fn affine_row(
    ctx: &BfvContext,
    k: usize,
    random_ct: impl Fn(&mut StdRng) -> Ciphertext,
    rng: &mut StdRng,
) -> (Vec<Ciphertext>, Vec<PeriodicPlaintext>) {
    const T: usize = 32;
    let plain = ctx.params().plain_modulus;
    let encoder = BatchEncoder::new(plain, ctx.params().n).expect("batching ring");
    let inputs = (0..T)
        .map(|_| {
            let mut ct = random_ct(rng);
            if k > 1 {
                ctx.to_ntt_ct(&mut ct);
            }
            ct
        })
        .collect();
    let weights = (0..T)
        .map(|_| {
            let values: Vec<u64> = (0..k).map(|_| rng.gen_range(0..plain.value())).collect();
            encoder.encode_periodic(&values)
        })
        .collect();
    (inputs, weights)
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
    let (inputs, weights) = match which {
        Ops::AffineRow(k) => affine_row(ctx, k, random_ct, &mut rng),
        _ => (Vec::new(), Vec::new()),
    };
    let (inputs, weights) = (&inputs, &weights);
    let exact = &MulOracle::new(ctx).expect("oracle");
    let (windows, reps): (usize, u64) = if quick { (3, 1) } else { (9, 5) };
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
        let ops: Vec<(&str, Op)> = match (phase, which) {
            ("before", Ops::AffineRow(_)) => Vec::new(),
            ("before", Ops::Products) => {
                let oracle = |x, y| exact.mul(x, y).expect("mul");
                vec![
                    ("mul", Box::new(move || oracle(a, b))),
                    // Aliased operands take the oracle's squaring path.
                    ("square", Box::new(move || oracle(a, a))),
                    (
                        "mul_relin",
                        Box::new(move || ctx.relinearize(&oracle(a, b), rk).expect("relin")),
                    ),
                ]
            }
            ("before", Ops::SquareRelin) => vec![(
                "square_relin",
                Box::new(|| {
                    let sq = exact.mul(a, a).expect("mul");
                    ctx.relinearize(&sq, rk).expect("relin")
                }),
            )],
            (_, Ops::Products) => vec![
                ("mul", Box::new(|| ctx.mul(a, b).expect("mul"))),
                ("square", Box::new(|| ctx.square(a).expect("square"))),
                (
                    "mul_relin",
                    Box::new(|| ctx.mul_relin(a, b, rk).expect("mul_relin")),
                ),
            ],
            (_, Ops::SquareRelin) => vec![(
                "square_relin",
                Box::new(|| ctx.square_relin(a, rk).expect("square_relin")),
            )],
            (_, Ops::AffineRow(_)) => vec![(
                "affine_row",
                Box::new(|| ctx.dot_periodic(inputs, weights).expect("affine row")),
            )],
        };
        for (op, f) in ops {
            let (per_window, out) = time_op(windows, reps, f);
            let id = format!("{op}/{tag}");
            report.push_windows(id.clone(), phase, backend.label(), &per_window);
            let entry = &report.entries[report.entries.len() - 1];
            println!(
                "{id}: {:.0} ns/iter median, {:.0} min over {windows} windows [{phase}, {}]",
                entry.ns,
                entry.min_ns.unwrap_or(entry.ns),
                backend.label()
            );
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
    // with 6 (scalar PASTA-4), 8 (packed PASTA-3) and 11 (mux PASTA-4)
    // 50-bit primes.
    for k in [6, 8, 11] {
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

    // One PASTA-4 affine row (32 inputs): the scalar pass's period 1
    // at its 6 primes, and a mux pass of 5–8 blocks at 11 primes.
    for (primes, period) in [(6, 1), (11, 8)] {
        mismatches.extend(bench_set(
            &mut report,
            &opts.phase,
            opts.quick,
            BfvParams {
                n: 1_024,
                prime_count: primes,
                ..BfvParams::test_tiny()
            },
            &format!("N=1024/k={primes}/period={period}"),
            Ops::AffineRow(period),
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
