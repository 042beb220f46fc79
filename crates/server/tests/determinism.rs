//! Determinism under load: same seed and same `PASTA_THREADS` must
//! reproduce the identical `LoadReport` — counters, latency percentiles,
//! and the plaintext digest — bit for bit; and the report must not
//! depend on the thread count or the SIMD backend at all. One thread
//! forces the scalar kernels, two AVX2 and four IFMA (each falling back
//! to the fastest slower tier the CPU has), so the digest comparison
//! pins both dimensions at once.
//!
//! Lives in its own integration-test binary (single `#[test]`) because
//! it mutates the `PASTA_THREADS` environment variable, which would race
//! with any parallel test in the same process.

use pasta_math::simd;
use pasta_server::{run_loadgen, LoadReport, LoadgenConfig};

fn with_threads<T>(n: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var(pasta_par::THREADS_ENV, n);
    simd::force_backend(Some(match n {
        "1" => simd::Backend::Scalar,
        "2" => simd::Backend::Avx2,
        _ => simd::Backend::Avx512Ifma,
    }));
    let out = f();
    simd::force_backend(None);
    std::env::remove_var(pasta_par::THREADS_ENV);
    out
}

/// The report records which backend produced it, so reports from
/// different backends differ in exactly that label; erase it before
/// comparing everything else bit for bit.
fn sans_backend(report: &LoadReport) -> LoadReport {
    LoadReport {
        simd_backend: "",
        ..report.clone()
    }
}

#[test]
fn load_report_replays_bit_for_bit() {
    let cfg = LoadgenConfig::quick();
    let single = with_threads("1", || run_loadgen(&cfg).unwrap());
    let replay = with_threads("1", || run_loadgen(&cfg).unwrap());
    assert_eq!(single, replay, "same seed + same threads must replay");

    assert_eq!(
        single.simd_backend, "scalar",
        "forced backend must be recorded"
    );
    for n in ["2", "4"] {
        let wide = with_threads(n, || run_loadgen(&cfg).unwrap());
        assert_eq!(
            sans_backend(&single),
            sans_backend(&wide),
            "the report (counters, latencies, plaintext digest) must not \
             depend on PASTA_THREADS or the SIMD backend ({n} threads, {})",
            wide.simd_backend
        );
    }

    let mut reseeded = LoadgenConfig::quick();
    reseeded.seed = 8;
    let other = with_threads("1", || run_loadgen(&reseeded).unwrap());
    assert_ne!(
        single.plaintext_digest, other.plaintext_digest,
        "a different seed must produce different traffic"
    );

    // The multiplexed service — bucket membership, flush causes and all
    // — must be just as replayable and thread-count independent.
    let mux_cfg = LoadgenConfig::quick().with_multiplex();
    let mux_single = with_threads("1", || run_loadgen(&mux_cfg).unwrap());
    for n in ["2", "4"] {
        let mux_wide = with_threads(n, || run_loadgen(&mux_cfg).unwrap());
        assert_eq!(
            sans_backend(&mux_single),
            sans_backend(&mux_wide),
            "the multiplexed report must not depend on PASTA_THREADS or the \
             SIMD backend ({n} threads, {})",
            mux_wide.simd_backend
        );
    }
    assert!(
        mux_single.mux_buckets > 0 && mux_single.mux_requests > 0,
        "the multiplexed scenario must actually multiplex"
    );
}
