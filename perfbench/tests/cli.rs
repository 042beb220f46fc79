//! The command's contract: one JSON result line, exit 0 on a verified
//! run, non-zero when a result decrypts wrong.

use std::process::Command;

fn run(workload: &str, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .env("PASTA_THREADS", "2")
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or_default()
}

#[test]
fn a_verified_run_exits_zero_with_every_end_to_end_metric() {
    let (code, stdout) = run("packed-pasta3", &[]);
    assert_eq!(code, 0, "{stdout}");
    let last = last_line(&stdout);
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for metric in [
        "blocks_per_s",
        "latency_p50_s",
        "latency_tail_s",
        "verified_share",
        "setup_s",
        "peak_rss_mb",
        "cpu_ms_per_block",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric} missing: {last}"
        );
    }
}

#[test]
fn a_corrupted_result_fails_the_command() {
    for workload in ["packed-pasta3", "scalar-private"] {
        let (code, stdout) = run(workload, &["--corrupt-one-result"]);
        assert_eq!(code, 1, "{workload}: {stdout}");
        let last = last_line(&stdout);
        assert!(
            last.starts_with("{\"correct\": false,"),
            "{workload}: {last}"
        );
        assert!(!last.contains("\"failed\": 0,"), "{workload}: {last}");
    }
}

#[test]
fn bad_usage_fails_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
