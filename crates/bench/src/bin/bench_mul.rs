//! Machine-readable perf record for the RNS ciphertext multiplication.
//!
//! Measures BFV ciphertext multiply, square and multiply-relinearize,
//! plus the S-box's square-relinearize and the relinearization (one
//! special-modulus key switch) on its own at the three rings the
//! wall-clock benchmark runs (N = 1024 with 6, 7 and 10 × 50-bit
//! primes) and at 11, and one PASTA-4 affine layer-half
//! (`BfvContext::dot_periodic`, 32 rows over 32 inputs: period 1, the
//! scalar pass, at 6 primes, and period 8, a mux pass, at 10), on every
//! SIMD backend the CPU supports, and renders
//! `BENCH_mul.json` via [`pasta_bench::report::BenchReport`]. The same
//! run times the **bigint oracle**'s multiply ([`MulOracle::mul`], the
//! exact CRT-reconstruct / big-integer scaled-rounding path, called
//! directly) once, under the scalar backend, as `oracle_mul/…` rows, and
//! prints its factor over each backend's full-RNS [`BfvContext::mul`].
//! Each entry is timed over several windows ([`pasta_bench::micro`]);
//! `ns` is the median window and `min_ns` the fastest, and the factors
//! divide medians. Every SIMD backend's output is checked against the
//! scalar backend's; a difference makes the run exit 1, so the CI smoke
//! run (`--quick`) gates backend bit-identity.
//!
//! Usage:
//!
//! ```text
//! bench_mul                          # write ./BENCH_mul.json
//! bench_mul --quick                  # CI smoke mode (short windows)
//! bench_mul --out-dir target/bench   # write JSON elsewhere
//! ```

use pasta_bench::micro::{time_windows, Options};
use pasta_bench::report::BenchReport;
use pasta_fhe::oracle::MulOracle;
use pasta_fhe::{BatchEncoder, BfvContext, BfvParams, Ciphertext, PeriodicPlaintext};
use pasta_math::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which operations a parameter set measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ops {
    /// `mul`, `square` and `mul_relin`.
    Products,
    /// `square_relin` (the S-box product) and `relinearize` of a
    /// square (its key switch alone).
    SquareRelin,
    /// One affine layer-half: `dot_periodic` of 32 rows over 32 inputs
    /// (the PASTA-4 `t`) with weights of this period.
    AffineHalf(usize),
}

/// The inputs and weight rows of one PASTA-4 affine layer-half at
/// period `k`: 32 ciphertexts, in the NTT domain when `k > 1` as the
/// circuit hands them over, and 32 rows of 32 weights.
fn affine_half(
    ctx: &BfvContext,
    k: usize,
    random_ct: impl Fn(&mut StdRng) -> Ciphertext,
    rng: &mut StdRng,
) -> (Vec<Ciphertext>, Vec<Vec<PeriodicPlaintext>>) {
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
    let rows = (0..T)
        .map(|_| {
            (0..T)
                .map(|_| {
                    let values: Vec<u64> =
                        (0..k).map(|_| rng.gen_range(0..plain.value())).collect();
                    encoder.encode_periodic(&values)
                })
                .collect()
        })
        .collect();
    (inputs, rows)
}

/// Benchmarks one parameter set on every available backend, pushing
/// wall times under `tag` (e.g. `N=1024/k=6`). Returns the ids whose
/// output on some backend differs from the scalar backend's.
fn bench_set(
    report: &mut BenchReport,
    opts: &Options,
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
    let squared = &ctx.square(a).expect("square");
    let (inputs, rows) = match which {
        Ops::AffineHalf(k) => affine_half(ctx, k, random_ct, &mut rng),
        _ => (Vec::new(), Vec::new()),
    };
    let (inputs, rows) = (&inputs, &rows);
    let reps: u64 = if opts.quick { 1 } else { 5 };
    let mut scalar_out: Vec<(String, Vec<Ciphertext>)> = Vec::new();
    let mut mismatches = Vec::new();

    // Measure every available SIMD backend in-process; a backend the
    // CPU lacks resolves to a slower one and is skipped. The scalar
    // backend runs first and records the reference outputs.
    for backend in simd::Backend::ALL {
        if simd::force_backend(Some(backend)) != backend {
            continue;
        }
        type Op<'a> = Box<dyn FnMut() -> Vec<Ciphertext> + 'a>;
        let ops: Vec<(&str, Op)> = match which {
            Ops::Products => vec![
                ("mul", Box::new(|| vec![ctx.mul(a, b).expect("mul")])),
                ("square", Box::new(|| vec![ctx.square(a).expect("square")])),
                (
                    "mul_relin",
                    Box::new(|| vec![ctx.mul_relin(a, b, rk).expect("mul_relin")]),
                ),
            ],
            Ops::SquareRelin => vec![
                (
                    "square_relin",
                    Box::new(|| vec![ctx.square_relin(a, rk).expect("square_relin")]),
                ),
                (
                    "relinearize",
                    Box::new(|| vec![ctx.relinearize(squared, rk).expect("relinearize")]),
                ),
            ],
            Ops::AffineHalf(_) => vec![(
                "affine_half",
                Box::new(|| ctx.dot_periodic(inputs, rows).expect("affine half")),
            )],
        };
        for (op, f) in ops {
            let (windows, out) = time_windows(opts.windows(), reps, f);
            let id = format!("{op}/{tag}");
            println!(
                "{}",
                report.push_windows(id.clone(), backend.label(), &windows)
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

    // The bigint oracle's multiply, once, under the scalar backend: its
    // output is decrypt-equal to the RNS product, not byte-identical, so
    // it takes no part in the bit-identity check.
    if which == Ops::Products {
        simd::force_backend(Some(simd::Backend::Scalar));
        let exact = MulOracle::new(ctx).expect("oracle");
        let (windows, _) = time_windows(opts.windows(), reps, || exact.mul(a, b).expect("mul"));
        let oracle = report.push_windows(format!("oracle_mul/{tag}"), "scalar", &windows);
        println!("{oracle}");
        let oracle_ns = oracle.ns;
        let mul = format!("mul/{tag}");
        for e in report.entries.iter().filter(|e| e.id == mul) {
            println!("oracle/RNS {mul} ({}): {:.2}x", e.backend, oracle_ns / e.ns);
        }
    }
    simd::force_backend(None);
    mismatches
}

fn main() {
    let opts = Options::from_args();
    let mut report = BenchReport::new(
        "mul",
        "BFV ciphertext multiplication: full-RNS BEHZ per SIMD backend, and the exact \
         bigint CRT round-trip oracle (oracle_mul, scalar backend); ns per call",
    );

    // Unit-test scale: N = 256, four 50-bit primes.
    let mut mismatches = bench_set(
        &mut report,
        &opts,
        BfvParams::test_tiny(),
        "N=256/k=4",
        Ops::Products,
    );

    // Paper scale: the transcipher-demo ring at N = 1024 — six 55-bit
    // primes, the q used by the end-to-end PASTA workflow.
    mismatches.extend(bench_set(
        &mut report,
        &opts,
        BfvParams {
            n: 1_024,
            ..BfvParams::transcipher_demo()
        },
        "N=1024/k=6",
        Ops::Products,
    ));

    // The S-box product and its key switch at the wall-clock benchmark's
    // rings, N = 1024 with 6 (scalar PASTA-4), 7 (packed PASTA-3) and 10
    // (mux PASTA-4) 50-bit primes, and at 11.
    for k in [6, 7, 10, 11] {
        mismatches.extend(bench_set(
            &mut report,
            &opts,
            BfvParams {
                n: 1_024,
                prime_count: k,
                ..BfvParams::test_tiny()
            },
            &format!("N=1024/k={k}"),
            Ops::SquareRelin,
        ));
    }

    // One PASTA-4 affine layer-half (32 rows over 32 inputs): the
    // scalar pass's period 1 at its 6 primes, and a mux pass of 5–8
    // blocks at 10 primes.
    for (primes, period) in [(6, 1), (10, 8)] {
        mismatches.extend(bench_set(
            &mut report,
            &opts,
            BfvParams {
                n: 1_024,
                prime_count: primes,
                ..BfvParams::test_tiny()
            },
            &format!("N=1024/k={primes}/period={period}"),
            Ops::AffineHalf(period),
        ));
    }

    if !mismatches.is_empty() {
        eprintln!(
            "backend outputs differ from the scalar backend: {}; no report written",
            mismatches.join(", ")
        );
        std::process::exit(1);
    }
    report.write(&opts.path("BENCH_mul.json"));
    for (id, backend, factor) in report.backend_speedups() {
        println!("{backend}-vs-scalar {id}: {factor:.2}x");
    }
}
