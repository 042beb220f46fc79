//! Machine-readable perf record for the NTT kernel.
//!
//! Times the negacyclic NTT forward+inverse round trip on every SIMD
//! backend the CPU supports and renders `BENCH_ntt.json` via
//! [`pasta_bench::report::BenchReport`]. Each entry is timed over
//! several windows ([`pasta_bench::micro`]); `ns` is the median window
//! and `min_ns` the fastest, and `backend_speedup` divides medians of
//! this run. Before timing, every backend's round trip must return its
//! input; a mismatch makes the run exit 1 and write no report, so the
//! CI smoke run (`--quick`) gates the kernels as well as timing them.
//!
//! Usage:
//!
//! ```text
//! bench_hotpath                          # write ./BENCH_ntt.json
//! bench_hotpath --quick                  # CI smoke mode (short windows)
//! bench_hotpath --out-dir target/bench   # write JSON elsewhere
//! ```

use pasta_bench::micro::{time_windows, Options};
use pasta_bench::report::BenchReport;
use pasta_fhe::ntt::NttTable;
use pasta_math::{simd, Modulus};
use std::hint::black_box;

fn main() {
    let opts = Options::from_args();
    let mut report = BenchReport::new(
        "ntt",
        "negacyclic NTT forward+inverse, ns per roundtrip (single prime row)",
    );
    let reps: u64 = if opts.quick { 100 } else { 2_000 };
    // The 50-bit prime is the ciphertext width of the benchmark rings
    // (the IFMA range); 60-bit and 17-bit fall outside it.
    let ntt_50 = Modulus::find_ntt_prime(50, 11).expect("50-bit NTT prime");
    let cases: &[(&str, Modulus, usize)] = &[
        ("ntt_fwd_inv/50bit/n=1024", ntt_50, 1024),
        ("ntt_fwd_inv/60bit/n=1024", Modulus::NTT_60_BIT, 1024),
        ("ntt_fwd_inv/60bit/n=4096", Modulus::NTT_60_BIT, 4096),
        ("ntt_fwd_inv/17bit/n=1024", Modulus::PASTA_17_BIT, 1024),
    ];
    let mut mismatches = Vec::new();
    for &(id, modulus, n) in cases {
        let table = NttTable::new(modulus, n).expect("NTT table");
        let p = table.zp().p();
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % p)
            .collect();
        // Every available SIMD backend runs in-process, so the JSON
        // carries the scalar, AVX2 and IFMA numbers of one build. A
        // backend the CPU lacks resolves to a slower one and is skipped.
        for backend in simd::Backend::ALL {
            if simd::force_backend(Some(backend)) != backend {
                continue;
            }
            let mut buf = input.clone();
            table.forward(&mut buf);
            table.inverse(&mut buf);
            if buf != input {
                eprintln!(
                    "{id}: {} round trip does not return its input",
                    backend.label()
                );
                mismatches.push(format!("{id} [{}]", backend.label()));
                continue;
            }
            let (windows, ()) = time_windows(opts.windows(), reps, || {
                table.forward(black_box(&mut buf));
                table.inverse(black_box(&mut buf));
            });
            println!("{}", report.push_windows(id, backend.label(), &windows));
        }
    }
    simd::force_backend(None);
    if !mismatches.is_empty() {
        eprintln!(
            "NTT round trips differ from their input: {}; no report written",
            mismatches.join(", ")
        );
        std::process::exit(1);
    }
    report.write(&opts.path("BENCH_ntt.json"));
    for (id, backend, factor) in report.backend_speedups() {
        println!("{backend}-vs-scalar {id}: {factor:.2}x");
    }
}
