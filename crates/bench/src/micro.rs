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
    /// Parses the process arguments; on an unknown argument or an
    /// output directory that does not exist, prints why and exits with
    /// status 2 before anything is timed.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|why| {
            eprintln!("{why}");
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name) and checks that the
    /// output directory exists, so a run that could not write its
    /// report fails at once instead of after its timing windows. The
    /// error names the unknown argument, the missing `--out-dir` value
    /// or the output directory that is not a directory.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options {
            quick: false,
            out_dir: ".".to_string(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--out-dir" => {
                    opts.out_dir = args.next().ok_or("--out-dir needs a directory")?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if !std::path::Path::new(&opts.out_dir).is_dir() {
            return Err(format!(
                "output directory {} does not exist or is not a directory",
                opts.out_dir
            ));
        }
        Ok(opts)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn parses_quick_and_an_existing_out_dir() {
        let dir = std::env::temp_dir();
        let dir = dir.to_str().expect("UTF-8 temp dir");
        let opts = parse(&["--quick", "--out-dir", dir]).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.path("BENCH_x.json"), format!("{dir}/BENCH_x.json"));
        assert_eq!(parse(&[]).unwrap().out_dir, ".");
    }

    #[test]
    fn refuses_unknown_and_incomplete_arguments() {
        assert!(parse(&["--out-dir"]).unwrap_err().contains("--out-dir"));
        assert!(parse(&["--fast"]).unwrap_err().contains("--fast"));
    }
}
