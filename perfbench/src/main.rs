//! Wall-clock benchmark of the HHE service at the paper's parameter
//! sets: edge PASTA encryption, wire framing, admission, transciphering
//! and analyst retrieval, driven from outside the program through its
//! public APIs.
//!
//! ```text
//! perfbench --workload <mux-fleet|scalar-private|packed-pasta3>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every result is decrypted and checked after the measured window. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`); the line before it
//! holds the run's facts (ring, offered load, tail percentile, ...).
//! The exit code is 1 when any result decrypts wrong, 2 on bad usage or
//! a failed set-up.

mod load;
mod probes;
mod service;
mod stats;
mod sys;
mod trace;
mod verify;
mod workloads;

use workloads::{Options, Report, Workload};

const USAGE: &str = "usage: perfbench --workload <mux-fleet|scalar-private|packed-pasta3> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            // Tampers with one result before verification, so tests can
            // show that a wrong result fails the run.
            "--corrupt-one-result" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        corrupt,
    })
}

/// Caps `PASTA_THREADS` at the machine's parallelism (setting it there
/// when unset), before any worker thread starts.
fn pin_threads() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let requested = std::env::var(pasta_par::THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let threads = requested.map_or(cores, |n| n.min(cores));
    std::env::set_var(pasta_par::THREADS_ENV, threads.to_string());
}

fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn print(report: &Report) {
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{}", json_object(&report.info));
    let metrics: Vec<(&str, String)> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                format!("{{\"value\": {value}, \"unit\": \"{unit}\"}}"),
            )
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            ("correct", report.correct.to_string()),
            ("attempted", report.attempted.to_string()),
            ("failed", report.failed.to_string()),
            ("metrics", json_object(&metrics)),
        ])
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pin_threads();
    match workloads::run(&opts) {
        Ok(report) => {
            print(&report);
            if !report.correct {
                eprintln!("{} result(s) decrypted to the wrong message", report.wrong);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args(
            "--workload mux-fleet --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::MuxFleet);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.corrupt),
            (7, 20.0, true, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mux-fleet --seconds 1 --trace 0",
            "--workload mux-fleet --seed 1 --seconds 0 --trace 0",
            "--workload mux-fleet --seed 1 --seconds 1 --trace 2",
            "--workload mux-fleet --seed 1 --seconds 1 --verbose",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_admits_its_ring_through_the_guard() {
        let counts: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.bfv().unwrap().prime_count)
            .collect();
        // PASTA-4 batched + the mask prime, PASTA-4 scalar, PASTA-3
        // batched, as the guard's model stands today.
        assert!(counts.iter().all(|&c| c > 2), "{counts:?}");
        let scalar = Workload::ScalarPrivate.bfv().unwrap();
        assert_eq!(scalar.n, workloads::RING_N);
    }
}
