//! The command line and the timer the `bench_*` micro-benchmarks share.
//!
//! Every `bench_*` binary takes the same two flags:
//!
//! ```text
//! bench_x                          # full windows, write ./BENCH_x.json
//! bench_x --quick                  # CI smoke mode (short windows)
//! bench_x --out-dir target/bench   # write the JSON elsewhere
//! ```
//!
//! and times each entry over several windows with [`time_windows`], so
//! the report keeps the median and the fastest window
//! ([`crate::report::BenchReport::push_windows`]). Every row of a
//! `BENCH_*.json` is a measurement of the invocation that wrote it.

use std::hint::black_box;
use std::time::Instant;

/// The parsed `--quick` / `--out-dir` command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Short windows (CI smoke mode).
    pub quick: bool,
    /// Directory the report is written to (default `.`).
    pub out_dir: String,
}

impl Options {
    /// Parses the process arguments; exits with status 2 on an unknown
    /// argument.
    #[must_use]
    pub fn from_args() -> Self {
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

    /// Timing windows per entry: 9, or 3 under `--quick`. One short
    /// window moves by 20–25 % between runs of one build; the median of
    /// nine does not.
    #[must_use]
    pub fn windows(&self) -> usize {
        if self.quick {
            3
        } else {
            9
        }
    }

    /// The path of report `file` in the output directory.
    #[must_use]
    pub fn path(&self, file: &str) -> String {
        format!("{}/{file}", self.out_dir)
    }
}

/// Times `windows` windows of `reps` calls of `f` each, after one
/// warm-up call (NTT tables, allocator, caches). Returns ns per call in
/// every window and the warm-up call's output.
pub fn time_windows<T>(windows: usize, reps: u64, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let out = f();
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
