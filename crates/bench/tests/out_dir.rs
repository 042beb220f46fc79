//! The micro-benchmarks refuse an output directory that does not exist
//! before they time anything: exit status 2 and a message naming the
//! path, instead of a panic when the report is written at the end.

use std::process::Command;

fn refuses_missing_out_dir(exe: &str) {
    let missing = std::env::temp_dir().join("pasta-bench-missing-out-dir/nested");
    let missing = missing.to_str().expect("UTF-8 temp dir");
    let out = Command::new(exe)
        .args(["--quick", "--out-dir", missing])
        .output()
        .expect("run the bench binary");
    assert_eq!(out.status.code(), Some(2), "{exe}: exit status");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(missing), "{exe}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{exe}: timed before failing");
}

#[test]
fn bench_mul_refuses_missing_out_dir() {
    refuses_missing_out_dir(env!("CARGO_BIN_EXE_bench_mul"));
}

#[test]
fn bench_hotpath_refuses_missing_out_dir() {
    refuses_missing_out_dir(env!("CARGO_BIN_EXE_bench_hotpath"));
}

#[test]
fn bench_rotation_refuses_missing_out_dir() {
    refuses_missing_out_dir(env!("CARGO_BIN_EXE_bench_rotation"));
}
