//! The three workloads: set-up, the measured window, verification and
//! the metrics.

use crate::load::{closed_loop, open_loop, Clock, Outcome, Record, WallClock};
use crate::service::{Analyst, PackedPath, Path, ServerPath, Shape, Tenant};
use crate::stats::{median, tail, Tail};
use crate::trace::Tracer;
use crate::{probes, sys};
use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::{HheClient, PackedHheServer, ShardedCache, ShardedCacheConfig};
use pasta_math::Modulus;
use pasta_pipeline::{NoiseBudgetGuard, PipelineError};
use pasta_server::{MultiplexConfig, PastaServer, ServerConfig, TenantProvision};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// BFV ring degree of every workload.
pub const RING_N: usize = 1024;
/// Bits per RNS prime (the repository's test and bench rings).
pub const PRIME_BITS: u32 = 50;
/// Extra primes a mux domain needs for the slot-mask multiply, which the
/// admission model does not count.
pub const MASK_PRIMES: usize = 1;
/// Set-ups per run: at least `SETUP_MIN_REPS`, more while they take
/// under `SETUP_MIN_SECS` in total (cheap set-ups are noisy), at most
/// `SETUP_MAX_REPS`. `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 15;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECS: f64 = 2.5;
/// How long after the last send the load loop waits for stragglers.
pub const DRAIN_CAP_SECS: f64 = 60.0;
/// Server worker slots (requests or buckets served per round).
pub const WORKERS: usize = 2;
/// Relative deadline of every accepted request: long enough that no
/// request is shed at the offered loads below.
pub const DEADLINE_US: u64 = 300_000_000;

/// `mux-fleet`: tenants sharing one FHE domain.
pub const MUX_TENANTS: usize = 8;
/// `mux-fleet`: offered requests per second (1–4 blocks each).
pub const MUX_RATE_RPS: f64 = 3.2;
/// `mux-fleet`: bucket cap, in blocks.
pub const MUX_BUCKET_CAP: usize = 128;
/// `mux-fleet`: a partial bucket flushes once no member joined for this
/// long.
pub const MUX_LINGER_US: u64 = 200_000;
/// `mux-fleet`: a partial bucket flushes once its oldest member waited
/// this long, even while members keep joining.
pub const MUX_MAX_WAIT_US: u64 = 2_000_000;
/// `scalar-private`: tenants, each with its own FHE key.
pub const SCALAR_TENANTS: usize = 2;
/// `scalar-private`: closed-loop clients per tenant.
pub const SCALAR_CLIENTS_PER_TENANT: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop fleet of 8 same-domain PASTA-4 tenants through the mux.
    MuxFleet,
    /// Closed-loop domainless PASTA-4 tenants on the per-element circuit.
    ScalarPrivate,
    /// Closed-loop PASTA-3 blocks through the packed (rotation) server.
    PackedPasta3,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MuxFleet,
        Workload::ScalarPrivate,
        Workload::PackedPasta3,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MuxFleet => "mux-fleet",
            Workload::ScalarPrivate => "scalar-private",
            Workload::PackedPasta3 => "packed-pasta3",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pasta(self) -> PastaParams {
        match self {
            Workload::MuxFleet | Workload::ScalarPrivate => PastaParams::pasta4_17bit(),
            Workload::PackedPasta3 => PastaParams::pasta3_17bit(),
        }
    }

    /// The admission guard the workload's path is held to: batched
    /// (plaintext-polynomial) multiplies for the mux and packed paths.
    fn guard(self) -> NoiseBudgetGuard {
        NoiseBudgetGuard {
            batched: self != Workload::ScalarPrivate,
            ..NoiseBudgetGuard::default()
        }
    }

    /// The workload's BFV ring: the prime count the admission guard
    /// suggests for it, plus the mask prime for a mux domain.
    ///
    /// # Errors
    ///
    /// When the guard suggests no count.
    pub fn bfv(self) -> Result<BfvParams, String> {
        let starved = BfvParams {
            n: RING_N,
            plain_modulus: Modulus::PASTA_17_BIT,
            prime_bits: PRIME_BITS,
            prime_count: 2,
        };
        let admitted = match self.guard().check(&self.pasta(), &starved) {
            Ok(_) => starved.prime_count,
            Err(PipelineError::NoiseBudget {
                suggested_prime_count: Some(count),
                ..
            }) => count,
            Err(e) => return Err(format!("admission suggests no ring: {e}")),
        };
        let extra = if self == Workload::MuxFleet {
            MASK_PRIMES
        } else {
            0
        };
        Ok(BfvParams {
            prime_count: admitted + extra,
            ..starved
        })
    }

    fn server_config(self) -> ServerConfig {
        let mut cfg = ServerConfig {
            workers: WORKERS,
            queue_capacity: 64,
            deadline_us: DEADLINE_US,
            idle_timeout_us: 2 * DEADLINE_US,
            // Stamps are wall-clock and the real circuit runs inside
            // `poll`, so the virtual per-block cost is kept negligible.
            service_us_per_block: 1,
            admission: self.guard(),
            cache: ShardedCacheConfig::default(),
            multiplex: MultiplexConfig::default(),
        };
        if self == Workload::MuxFleet {
            cfg.multiplex = MultiplexConfig {
                enabled: true,
                max_bucket_blocks: MUX_BUCKET_CAP,
                flush_margin_us: DEADLINE_US - MUX_MAX_WAIT_US,
                linger_us: MUX_LINGER_US,
                service_us_per_pass: 1,
            };
        }
        cfg
    }

    /// Context, keys, PASTA-key provisioning and tenant registration.
    fn setup(self, seed: u64) -> Result<Box<dyn Path>, String> {
        let pasta = self.pasta();
        let bfv = self.bfv()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E70_F4E1);
        let keypair = |rng: &mut StdRng| -> Result<(BfvContext, BfvSecretKey), String> {
            let ctx = BfvContext::new(bfv).map_err(|e| e.to_string())?;
            let sk = ctx.generate_secret_key(rng);
            Ok((ctx, sk))
        };
        let client = |j: usize| HheClient::new(pasta, &(seed ^ (j as u64) << 48).to_le_bytes());
        if self == Workload::PackedPasta3 {
            let (ctx, sk) = keypair(&mut rng)?;
            let client = client(0);
            let cache = ShardedCache::new(ShardedCacheConfig {
                max_resident: 1,
                ..ShardedCacheConfig::default()
            });
            let server = PackedHheServer::new(
                pasta,
                &ctx,
                &sk,
                client.cipher().key().expose_elements(),
                &mut rng,
            )
            .map_err(|e| e.to_string())?
            .with_cache(cache.shard(0));
            return Ok(Box::new(PackedPath::new(
                ctx, sk, client, server, cache, seed,
            )));
        }
        let mut server = PastaServer::new(self.server_config());
        let (count, domain) = match self {
            Workload::MuxFleet => (MUX_TENANTS, Some(1)),
            _ => (SCALAR_TENANTS, None),
        };
        let mut tenants = Vec::with_capacity(count);
        let mut analysts: Vec<Analyst> = Vec::new();
        let mut keys = None;
        for j in 0..count {
            // A domain shares one analyst keypair; private tenants each
            // bring their own.
            if domain.is_none() || keys.is_none() {
                let (ctx, sk) = keypair(&mut rng)?;
                let pk = ctx.generate_public_key(&sk, &mut rng);
                let rk = ctx.generate_relin_key(&sk, &mut rng);
                keys = Some((pk, rk));
                analysts.push(Analyst { ctx, sk });
            }
            let (pk, rk) = keys.as_ref().ok_or("no analyst keys")?;
            let analyst = analysts.len() - 1;
            let client = client(j);
            let encrypted_key = client.provision_key(&analysts[analyst].ctx, pk, &mut rng);
            let id = server
                .register_tenant(TenantProvision {
                    pasta,
                    bfv,
                    relin_key: rk.clone(),
                    encrypted_key,
                    fhe_domain: domain,
                })
                .map_err(|e| format!("tenant registration: {e}"))?;
            tenants.push(Tenant {
                id,
                client,
                analyst,
            });
        }
        let shape: Shape = match self {
            Workload::MuxFleet => {
                Box::new(move |req, _| (req % MUX_TENANTS, mux_blocks(seed, req)))
            }
            _ => Box::new(|_, client| (client % SCALAR_TENANTS, 1)),
        };
        Ok(Box::new(ServerPath::new(
            server, tenants, analysts, pasta, seed, shape,
        )))
    }
}

/// Blocks in `mux-fleet` request `req`: every run of four consecutive
/// requests carries 1, 2, 3 and 4 blocks in a seed-shuffled order, so
/// each seed offers the same mean of 2.5 blocks per request.
#[must_use]
pub fn mux_blocks(seed: u64, req: usize) -> usize {
    let mut sizes = [1, 2, 3, 4];
    let mut rng = StdRng::seed_from_u64(seed ^ (req / 4) as u64 ^ 0xB10C);
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes[req % 4]
}

/// Request index of the untimed warm-up request (outside the range any
/// measured request reaches).
const WARM_UP_REQ: usize = 1 << 40;

/// Drives one request through the whole path and checks its result.
fn warm_up(path: &mut dyn Path, clock: &mut WallClock) -> Result<(), String> {
    let mut off = Tracer::new(false, clock.0);
    let give_up = clock.now() + DRAIN_CAP_SECS;
    path.send(WARM_UP_REQ, 0, clock.now(), &mut off)
        .map_err(|r| format!("warm-up request refused: {r}"))?;
    loop {
        let resolved = path.poll(clock.now(), None, &mut off);
        if let Some((_, result)) = resolved.into_iter().find(|(r, _)| *r == WARM_UP_REQ) {
            result.map_err(|r| format!("warm-up request refused: {r}"))?;
            break;
        }
        if clock.now() > give_up {
            return Err("warm-up request never completed".into());
        }
        clock.sleep(0.001);
    }
    let ok = path.verify(&[WARM_UP_REQ], false);
    path.forget(WARM_UP_REQ);
    if ok.first() == Some(&true) {
        Ok(())
    } else {
        Err("warm-up request decrypted to the wrong message".into())
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the sending window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tamper with one result before verification (tests the failure
    /// path).
    pub corrupt: bool,
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// No verified request decrypted wrong.
    pub correct: bool,
    /// Requests sent in the window.
    pub attempted: usize,
    /// Requests that did not end verified.
    pub failed: usize,
    /// Requests that completed but decrypted wrong.
    pub wrong: usize,
    /// The end-to-end or per-layer metrics, per `--trace`.
    pub metrics: Vec<Metric>,
    /// Run facts for the information line: `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs a workload end to end.
///
/// # Errors
///
/// Set-up or warm-up failures (the measured window itself never errors:
/// its failures are counted).
pub fn run(opts: &Options) -> Result<Report, String> {
    let origin = Instant::now();
    let w = opts.workload;
    let mut setup_secs: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut path = None;
    while setup_secs.len() < SETUP_MIN_REPS
        || (setup_secs.len() < SETUP_MAX_REPS && setup_secs.iter().sum::<f64>() < SETUP_MIN_SECS)
    {
        drop(path.take());
        let start = Instant::now();
        path = Some(w.setup(opts.seed)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut path = path.ok_or("no set-up ran")?;
    let mut clock = WallClock(origin);
    warm_up(path.as_mut(), &mut clock)?;

    let mut tracer = Tracer::new(opts.trace, origin);
    let before = path.counters();
    let cpu_before = sys::cpu_seconds();
    let w0 = clock.now();
    let stop = w0 + opts.seconds;
    let give_up = stop + DRAIN_CAP_SECS;
    let records: Vec<Record> = match w {
        Workload::MuxFleet => {
            let due: Vec<f64> = (0..)
                .map(|i| w0 + f64::from(i) / MUX_RATE_RPS)
                .take_while(|&d| d < stop)
                .collect();
            open_loop(path.as_mut(), &mut clock, &mut tracer, &due, give_up)
        }
        Workload::ScalarPrivate => {
            let clients = SCALAR_TENANTS * SCALAR_CLIENTS_PER_TENANT;
            closed_loop(
                path.as_mut(),
                &mut clock,
                &mut tracer,
                clients,
                stop,
                give_up,
            )
        }
        Workload::PackedPasta3 => {
            closed_loop(path.as_mut(), &mut clock, &mut tracer, 1, stop, give_up)
        }
    };
    let w_end = clock.now();
    let cpu = sys::cpu_seconds() - cpu_before;
    let delta = path.counters().since(&before);

    let completed: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].outcome == Outcome::Completed)
        .collect();
    let verify_span = tracer.open("retrieve");
    let verify_start = Instant::now();
    let verdicts = path.verify(&completed, opts.corrupt);
    let verify_secs = verify_start.elapsed().as_secs_f64();
    tracer.close(verify_span);

    let verified_reqs: Vec<usize> = completed
        .iter()
        .zip(&verdicts)
        .filter(|(_, &ok)| ok)
        .map(|(&i, _)| i)
        .collect();
    let verified: Vec<&Record> = verified_reqs.iter().map(|&i| &records[i]).collect();
    let wrong = verdicts.iter().filter(|&&ok| !ok).count();
    let attempted = records.len();
    let failed = attempted - verified.len();
    let verified_blocks: usize = verified.iter().map(|r| r.blocks).sum();
    let latencies: Vec<f64> = verified.iter().filter_map(|r| r.latency()).collect();
    let tail = tail(&latencies).unwrap_or(Tail {
        percentile: 80.0,
        value: 0.0,
        beyond: 0,
        samples: 0,
    });
    let open = w == Workload::MuxFleet;
    let blocks_per_s = if open {
        // Open loop: the blocks offered in the window that ended
        // verified, per second of window.
        verified_blocks as f64 / opts.seconds
    } else {
        steady_rate(&verified)
    };
    let bfv = w.bfv()?;

    let mut info: Vec<(&'static str, String)> = vec![
        ("workload", format!("\"{}\"", w.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        (
            "loop",
            format!("\"{}\"", if open { "open" } else { "closed" }),
        ),
        (
            "pasta",
            format!("\"t={} r={}\"", w.pasta().t(), w.pasta().rounds()),
        ),
        ("bfv_n", bfv.n.to_string()),
        ("bfv_prime_count", bfv.prime_count.to_string()),
        ("bfv_prime_bits", bfv.prime_bits.to_string()),
        (
            "simd_backend",
            format!("\"{}\"", pasta_math::simd::backend_label()),
        ),
        ("pasta_threads", pasta_par::threads().to_string()),
        ("tail_percentile", tail.percentile.to_string()),
        ("tail_samples", tail.samples.to_string()),
        ("tail_beyond", tail.beyond.to_string()),
        (
            "failed_share",
            ratio(failed as f64, attempted as f64).to_string(),
        ),
        ("wrong_decrypts", wrong.to_string()),
        ("window_s", (w_end - w0).to_string()),
        ("setup_reps", setup_secs.len().to_string()),
    ];
    match w {
        Workload::MuxFleet => {
            info.push(("offered_rps", MUX_RATE_RPS.to_string()));
            info.push(("bucket_cap_blocks", MUX_BUCKET_CAP.to_string()));
            info.push(("linger_us", MUX_LINGER_US.to_string()));
            info.push(("deadline_us", DEADLINE_US.to_string()));
        }
        Workload::ScalarPrivate => {
            info.push((
                "clients",
                (SCALAR_TENANTS * SCALAR_CLIENTS_PER_TENANT).to_string(),
            ));
        }
        Workload::PackedPasta3 => info.push(("clients", "1".into())),
    }
    let refusals: Vec<String> = records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Refused(reason) => Some(format!("\"{reason}\"")),
            Outcome::Pending => Some("\"never completed\"".into()),
            Outcome::Completed => None,
        })
        .collect();
    info.push(("refusals", format!("[{}]", refusals.join(","))));

    let metrics = if opts.trace {
        let (ctx, sk) = path.ring();
        let probe = probes::run(ctx, sk, &w.pasta(), opts.seed, &mut tracer);
        let window = w_end - w0;
        let sent_blocks: usize = records.iter().map(|r| r.blocks).sum();
        let server = path.through_server();
        let only_server = |v: f64| if server { v } else { 0.0 };
        let queue_waits: Vec<f64> = verified
            .iter()
            .filter_map(|r| r.poll_start.map(|p| p - r.submitted))
            .collect();
        let lateness: Vec<f64> = records.iter().map(|r| r.sent - r.due).collect();
        let spans_in_window = tracer.spans().iter().filter(|s| s.end <= w_end).count();
        let coverage = tracer.top_level_coverage(w0, w_end);
        let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", w.name(), opts.seed));
        match tracer.write_json(&trace_path) {
            Ok(()) => info.push(("trace_file", format!("\"{}\"", trace_path.display()))),
            Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
        }
        vec![
            (
                "core.encrypt_us_per_block",
                ratio(tracer.total("encrypt"), sent_blocks as f64) * 1e6,
                "us",
            ),
            (
                "pipeline.frame_us_per_request",
                ratio(tracer.total("frame"), attempted as f64) * 1e6,
                "us",
            ),
            (
                "server.submit_us_p50",
                median(&tracer.durations("submit")) * 1e6,
                "us",
            ),
            (
                "server.poll_s_per_block",
                only_server(ratio(tracer.total("poll"), verified_blocks as f64)),
                "s",
            ),
            (
                "server.busy_share",
                only_server(ratio(tracer.total("poll"), window)),
                "share",
            ),
            (
                "server.queue_wait_s_p50",
                only_server(median(&queue_waits)),
                "s",
            ),
            ("gen.lateness_s_p50", median(&lateness), "s"),
            (
                "mux.blocks_per_bucket",
                ratio(delta.mux_blocks as f64, delta.mux_buckets as f64),
                "count",
            ),
            (
                "mux.fill_permille_mean",
                ratio(delta.fill_permille_sum as f64, delta.fills as f64),
                "permille",
            ),
            ("mux.flush_full", delta.flush_full as f64, "count"),
            ("mux.flush_deadline", delta.flush_deadline as f64, "count"),
            ("mux.flush_drain", delta.flush_drain as f64, "count"),
            (
                "hhe.cache_hit_ratio",
                ratio(
                    delta.cache_hits as f64,
                    (delta.cache_hits + delta.cache_misses) as f64,
                ),
                "ratio",
            ),
            ("hhe.cache_evictions", delta.cache_evictions as f64, "count"),
            (
                "hhe.key_switches_per_block",
                ratio(delta.key_switches as f64, sent_blocks as f64),
                "count",
            ),
            (
                "fhe.scratch_miss_ratio",
                ratio(delta.scratch_misses as f64, delta.scratch_takes as f64),
                "ratio",
            ),
            (
                "par.inline_share",
                ratio(
                    delta.pool_inline as f64,
                    (delta.pool_dispatches + delta.pool_inline) as f64,
                ),
                "share",
            ),
            ("fhe.prime_count", bfv.prime_count as f64, "count"),
            (
                "fhe.min_budget_bits",
                f64::from(path.min_budget(&verified_reqs).unwrap_or(0)),
                "bits",
            ),
            (
                "analyst.retrieve_ms_per_request",
                ratio(verify_secs, completed.len() as f64) * 1e3,
                "ms",
            ),
            ("hhe.block_material_us", probe.block_material * 1e6, "us"),
            (
                "fhe.prepare_plaintext_us",
                probe.prepare_plaintext * 1e6,
                "us",
            ),
            (
                "fhe.mul_plain_prepared_us",
                probe.mul_plain_prepared * 1e6,
                "us",
            ),
            ("fhe.mul_relin_ms", probe.mul_relin * 1e3, "ms"),
            ("fhe.ntt_fwd_inv_us", probe.ntt_fwd_inv * 1e6, "us"),
            ("fhe.galois_hoisted_ms", probe.galois_hoisted * 1e3, "ms"),
            ("trace.top_level_share", coverage, "share"),
            (
                "trace.overhead_share",
                ratio(spans_in_window as f64 * span_cost(), window),
                "share",
            ),
        ]
    } else {
        vec![
            ("blocks_per_s", blocks_per_s, "1/s"),
            ("latency_p50_s", median(&latencies), "s"),
            ("latency_tail_s", tail.value, "s"),
            (
                "verified_share",
                ratio(verified.len() as f64, attempted as f64),
                "share",
            ),
            ("setup_s", median(&setup_secs), "s"),
            ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
            (
                "cpu_ms_per_block",
                ratio(cpu * 1e3, verified_blocks as f64),
                "ms",
            ),
        ]
    };
    Ok(Report {
        correct: wrong == 0,
        attempted,
        failed,
        wrong,
        metrics,
        info,
    })
}

/// Closed-loop throughput: blocks completed after the first completion,
/// per second between the first and the last completion — the steady
/// rate, free of the start-up round in which nothing completes.
fn steady_rate(verified: &[&Record]) -> f64 {
    let dones: Vec<f64> = verified.iter().filter_map(|r| r.done).collect();
    let (Some(first), Some(last)) = (
        dones.iter().copied().reduce(f64::min),
        dones.iter().copied().reduce(f64::max),
    ) else {
        return 0.0;
    };
    let blocks: usize = verified
        .iter()
        .filter(|r| r.done.is_some_and(|d| d > first))
        .map(|r| r.blocks)
        .sum();
    ratio(blocks as f64, last - first)
}

/// Seconds one recorded span costs the traced run (two clock reads and
/// a push), measured on the spot.
fn span_cost() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..N {
        t.span("cost", None, Some(i as u64), || std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() / N as f64
}
