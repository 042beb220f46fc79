//! Deterministic fault-injected load generation.
//!
//! Simulates a fleet of edge devices streaming PASTA ciphertexts at a
//! [`PastaServer`] over per-device lossy links, with client-side
//! retry-with-exponential-backoff, session re-establishment, and full
//! verification: every completed response is FHE-decrypted and compared
//! against the message the device encrypted. The whole simulation runs
//! on virtual time from one seed — same seed and same `PASTA_THREADS`
//! reproduce the identical [`LoadReport`] bit for bit, which is the
//! contract the determinism tests and the committed `BENCH_server.json`
//! rely on.
//!
//! Simplifications (documented, deliberate): the control plane
//! (session-open, ACK/NACK return path, completion delivery) is
//! reliable — only the data-plane uplink goes through the lossy
//! channel; a dropped frame is detected by the client as a retransmit
//! timeout, modeled directly as a scheduled retry.

use crate::server::{
    MultiplexConfig, PastaServer, ServerConfig, ServerEvent, SubmitOutcome, TenantId,
    TenantProvision,
};
use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::HheClient;
use pasta_math::Modulus;
use pasta_pipeline::{pack, ChannelConfig, LossyChannel, PipelineError, RefusalReason, WireFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Load-generation scenario.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Master seed: drives keys, messages, channels, jitter.
    pub seed: u64,
    /// Number of tenants sharing the service.
    pub tenants: usize,
    /// Number of edge devices (assigned to tenants round-robin).
    pub devices: usize,
    /// Sequential requests each device makes.
    pub requests_per_device: usize,
    /// Uplink frame-drop probability per transmission.
    pub drop_prob: f64,
    /// Uplink bit-error rate (corrupted frames are NACKed as malformed).
    pub bit_error_rate: f64,
    /// Spacing between device start times (the arrival ramp).
    pub inter_arrival_us: u64,
    /// Device think time between its requests.
    pub think_us: u64,
    /// Retransmissions a device attempts before giving up.
    pub max_retries: u32,
    /// Base of the exponential backoff (doubles per attempt, jittered).
    pub backoff_base_us: u64,
    /// Inject a one-shot worker panic on this accepted-request sequence
    /// number (contained by the server, surfaced as `WorkerFault`).
    pub inject_fault_on_seq: Option<u64>,
    /// Also attempt to register one deliberately under-provisioned
    /// tenant, exercising the `BudgetRefused` admission path.
    pub starved_tenant: bool,
    /// Run the fleet in cross-tenant multiplexing mode: all tenants
    /// share one analyst FHE keypair (provisioned deterministically from
    /// the seed), register into FHE domain 1, and are served through
    /// shared slot-packed bucket passes instead of private scalar ones.
    pub multiplex: bool,
    /// The service configuration under test.
    pub server: ServerConfig,
}

impl LoadgenConfig {
    /// The CI smoke scenario: small fleet, undersized queues, 5% frame
    /// loss, bit errors, and one injected worker fault — every failure
    /// path exercised in a few seconds.
    #[must_use]
    pub fn quick() -> Self {
        LoadgenConfig {
            seed: 7,
            tenants: 3,
            devices: 24,
            requests_per_device: 2,
            drop_prob: 0.05,
            bit_error_rate: 2e-4,
            inter_arrival_us: 700,
            think_us: 2_000,
            max_retries: 6,
            backoff_base_us: 4_000,
            inject_fault_on_seq: Some(1),
            starved_tenant: true,
            multiplex: false,
            server: ServerConfig {
                workers: 2,
                queue_capacity: 3,
                deadline_us: 18_000,
                idle_timeout_us: 2_000_000,
                service_us_per_block: 4_000,
                ..ServerConfig::default()
            },
        }
    }

    /// The committed-bench scenario: a thousands-strong device fleet
    /// against a moderately provisioned service.
    #[must_use]
    pub fn full() -> Self {
        LoadgenConfig {
            seed: 7,
            tenants: 8,
            devices: 2_000,
            requests_per_device: 1,
            drop_prob: 0.05,
            bit_error_rate: 1e-5,
            inter_arrival_us: 400,
            think_us: 2_000,
            max_retries: 6,
            backoff_base_us: 8_000,
            inject_fault_on_seq: Some(1),
            starved_tenant: true,
            multiplex: false,
            server: ServerConfig {
                workers: 8,
                queue_capacity: 6,
                deadline_us: 120_000,
                idle_timeout_us: 10_000_000,
                service_us_per_block: 2_000,
                ..ServerConfig::default()
            },
        }
    }

    /// Switches any scenario to multiplexed service: a shared FHE
    /// domain, bucket passes of up to 4 blocks (small enough that the
    /// quick scenario exercises the `Full` flush cause alongside
    /// `Deadline` and `Drain`), and an 8 ms shared pass cost.
    #[must_use]
    pub fn with_multiplex(mut self) -> Self {
        self.multiplex = true;
        self.server.multiplex = MultiplexConfig {
            enabled: true,
            max_bucket_blocks: 4,
            flush_margin_us: 6_000,
            linger_us: 1_500,
            service_us_per_pass: 8_000,
        };
        self
    }

    /// The committed-bench multiplexing scenario: the same service
    /// footprint as [`LoadgenConfig::full`] (8 workers) but a 5× denser
    /// arrival ramp — the load the scalar service cannot absorb and the
    /// slot-packed service must (the ≥4× throughput gate in CI).
    #[must_use]
    pub fn full_mux() -> Self {
        let mut cfg = LoadgenConfig::full().with_multiplex();
        cfg.devices = 10_000;
        cfg.inter_arrival_us = 80;
        cfg.server.queue_capacity = 32;
        cfg.server.multiplex.max_bucket_blocks = 32;
        cfg.server.multiplex.flush_margin_us = 30_000;
        cfg
    }
}

/// Everything a loadgen run measured. All counters are exact (derived
/// from the server ledger plus client bookkeeping); latency percentiles
/// are over completed requests, in virtual microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// The master seed the run used.
    pub seed: u64,
    /// Devices simulated.
    pub devices: u64,
    /// SIMD backend label (`"scalar"` / `"avx2"`) the server's
    /// arithmetic kernels resolved to for this run.
    pub simd_backend: &'static str,
    /// Requests the fleet intended to make.
    pub requests_intended: u64,
    /// Data frames actually transmitted (including retries).
    pub frames_sent: u64,
    /// Frames the lossy uplink dropped.
    pub link_dropped: u64,
    /// Requests the server accepted into a queue.
    pub accepted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Completions whose decrypted plaintext matched the original.
    pub correct: u64,
    /// `QueueFull` backpressure NACKs.
    pub refused_queue_full: u64,
    /// Noise-budget admission refusals (registration time).
    pub refused_budget: u64,
    /// Session NACKs (unknown / expired / replayed).
    pub refused_session: u64,
    /// Malformed-frame NACKs (decode, CRC, canonicity).
    pub refused_malformed: u64,
    /// Accepted requests shed at their deadline.
    pub shed_deadline: u64,
    /// Accepted requests whose worker faulted (panic contained).
    pub worker_faults: u64,
    /// Client retransmissions beyond each request's first send.
    pub retries: u64,
    /// Requests abandoned after exhausting retries (or a fatal NACK).
    pub gave_up: u64,
    /// Sessions the clients re-established after expiry NACKs.
    pub sessions_reopened: u64,
    /// Accepted requests that vanished without completion or NACK —
    /// must be zero (the no-silent-drops invariant).
    pub unaccounted: u64,
    /// Multiplexed bucket passes flushed.
    pub mux_buckets: u64,
    /// Requests served inside multiplexed buckets.
    pub mux_requests: u64,
    /// Buckets flushed because they reached block capacity.
    pub flush_full: u64,
    /// Buckets flushed because a member's deadline came near.
    pub flush_deadline: u64,
    /// Buckets flushed because no compatible work arrived in time.
    pub flush_drain: u64,
    /// Mean slot occupancy over flushed buckets, in permille of bucket
    /// capacity (0 when no bucket flushed).
    pub mux_mean_fill_permille: u64,
    /// Median slot occupancy over flushed buckets, permille.
    pub mux_p50_fill_permille: u64,
    /// Median completion latency (first send → completion), virtual µs.
    pub p50_latency_us: u64,
    /// 99th-percentile completion latency, virtual µs.
    pub p99_latency_us: u64,
    /// Worst completion latency, virtual µs.
    pub max_latency_us: u64,
    /// Virtual time from first event to last, µs.
    pub makespan_us: u64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
    /// FNV-1a digest over every completed request's decrypted plaintext
    /// (in sequence order) — the determinism witness.
    pub plaintext_digest: u64,
}

impl LoadReport {
    /// Renders the report as pretty-printed JSON (stable key order — the
    /// committed `BENCH_server.json` must be diffable across runs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: String| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("seed", self.seed.to_string());
        field("devices", self.devices.to_string());
        field("simd_backend", format!("\"{}\"", self.simd_backend));
        field("requests_intended", self.requests_intended.to_string());
        field("frames_sent", self.frames_sent.to_string());
        field("link_dropped", self.link_dropped.to_string());
        field("accepted", self.accepted.to_string());
        field("completed", self.completed.to_string());
        field("correct", self.correct.to_string());
        field("refused_queue_full", self.refused_queue_full.to_string());
        field("refused_budget", self.refused_budget.to_string());
        field("refused_session", self.refused_session.to_string());
        field("refused_malformed", self.refused_malformed.to_string());
        field("shed_deadline", self.shed_deadline.to_string());
        field("worker_faults", self.worker_faults.to_string());
        field("retries", self.retries.to_string());
        field("gave_up", self.gave_up.to_string());
        field("sessions_reopened", self.sessions_reopened.to_string());
        field("unaccounted", self.unaccounted.to_string());
        field("mux_buckets", self.mux_buckets.to_string());
        field("mux_requests", self.mux_requests.to_string());
        field("flush_full", self.flush_full.to_string());
        field("flush_deadline", self.flush_deadline.to_string());
        field("flush_drain", self.flush_drain.to_string());
        field(
            "mux_mean_fill_permille",
            self.mux_mean_fill_permille.to_string(),
        );
        field(
            "mux_p50_fill_permille",
            self.mux_p50_fill_permille.to_string(),
        );
        field("p50_latency_us", self.p50_latency_us.to_string());
        field("p99_latency_us", self.p99_latency_us.to_string());
        field("max_latency_us", self.max_latency_us.to_string());
        field("makespan_us", self.makespan_us.to_string());
        field("throughput_rps", format!("{:.2}", self.throughput_rps));
        out.push_str(&format!(
            "  \"plaintext_digest\": \"{:016x}\"\n}}\n",
            self.plaintext_digest
        ));
        out
    }
}

/// The client side of one tenant: PASTA cipher, FHE context and the
/// analyst secret key used to verify completions.
struct TenantSide {
    id: TenantId,
    client: HheClient,
    ctx: BfvContext,
    sk: BfvSecretKey,
}

/// One simulated edge device and its in-flight request state.
struct Device {
    tenant_idx: usize,
    channel: LossyChannel,
    message: Vec<u64>,
    request_idx: usize,
    generation: u32,
    nonce: u128,
    frame_bytes: Vec<u8>,
    attempts: u32,
    first_send_us: u64,
}

/// Discrete events of the virtual-time simulation.
enum Event {
    /// Device begins (or re-keys) its current request and transmits.
    Start { device: usize },
    /// Device (re)transmits its current frame over its lossy uplink.
    Transmit { device: usize },
    /// A (possibly corrupted) frame reaches the server.
    Arrive { device: usize, data: Vec<u8> },
}

/// The running simulation: event queue, server, fleet, and tallies.
struct Sim {
    server: PastaServer,
    tenants: Vec<TenantSide>,
    devices: Vec<Device>,
    queue: BTreeMap<(u64, u64), Event>,
    tick: u64,
    pending: BTreeMap<u64, usize>,
    latencies: Vec<u64>,
    digests: BTreeMap<u64, u64>,
    report: LoadReport,
    jitter: StdRng,
    cfg: LoadgenConfig,
    last_event_us: u64,
}

/// FNV-1a 64-bit.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs a scenario to completion and reports.
///
/// # Errors
///
/// [`PipelineError`] when the scenario itself is unbuildable (invalid
/// PASTA/BFV parameters, tenant registration failing for a reason other
/// than the deliberate starved-tenant probe). Load-induced failures are
/// *not* errors — they are the counters.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, PipelineError> {
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT)?;
    // Multiplexing spends one extra multiplicative level on the slot
    // masks composing the shared key, so its scenarios carry one more
    // RNS prime than the scalar baseline.
    let bfv = if cfg.multiplex {
        BfvParams {
            prime_count: 6,
            ..BfvParams::test_tiny()
        }
    } else {
        BfvParams::test_tiny()
    };
    let mut server = PastaServer::new(cfg.server.clone());
    let mut tenants = Vec::with_capacity(cfg.tenants.max(1));
    for j in 0..cfg.tenants.max(1) {
        // In multiplex mode every tenant derives the *same* analyst FHE
        // keypair (identical seed → identical keys): the shared-key
        // trust prerequisite of domain registration, modeled without
        // plumbing key objects between tenants. Each tenant still has
        // its own PASTA key and its own provisioning randomness.
        let fhe_seed = if cfg.multiplex {
            cfg.seed ^ 0xA5A5
        } else {
            cfg.seed ^ (0xA5A5 + j as u64 * 0x9E37_79B9)
        };
        let mut rng = StdRng::seed_from_u64(fhe_seed);
        let ctx = BfvContext::new(bfv).map_err(PipelineError::Fhe)?;
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin = ctx.generate_relin_key(&sk, &mut rng);
        let seed_bytes = (cfg.seed ^ j as u64).to_le_bytes();
        let client = HheClient::new(params, &seed_bytes);
        let mut prov_rng = StdRng::seed_from_u64(cfg.seed ^ (0x5EED + j as u64 * 0x9E37_79B9));
        let encrypted_key = if cfg.multiplex {
            client.provision_key(&ctx, &pk, &mut prov_rng)
        } else {
            client.provision_key(&ctx, &pk, &mut rng)
        };
        let id = server.register_tenant(TenantProvision {
            pasta: params,
            bfv,
            relin_key: relin,
            encrypted_key,
            fhe_domain: cfg.multiplex.then_some(1),
        })?;
        tenants.push(TenantSide {
            id,
            client,
            ctx,
            sk,
        });
    }

    let report = LoadReport {
        seed: cfg.seed,
        devices: cfg.devices as u64,
        requests_intended: (cfg.devices * cfg.requests_per_device) as u64,
        ..LoadReport::default()
    };

    if cfg.starved_tenant {
        // Deliberately under-provisioned registration: must be refused
        // with a suggestion, not accepted and not a panic.
        let starved_bfv = BfvParams {
            prime_count: 2,
            ..BfvParams::test_tiny()
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD);
        let probe_ctx = BfvContext::new(starved_bfv).map_err(PipelineError::Fhe)?;
        let probe_sk = probe_ctx.generate_secret_key(&mut rng);
        let probe_pk = probe_ctx.generate_public_key(&probe_sk, &mut rng);
        let probe_relin = probe_ctx.generate_relin_key(&probe_sk, &mut rng);
        let probe_client = HheClient::new(params, b"starved");
        let probe_key = probe_client.provision_key(&probe_ctx, &probe_pk, &mut rng);
        match server.register_tenant(TenantProvision {
            pasta: params,
            bfv: starved_bfv,
            relin_key: probe_relin,
            encrypted_key: probe_key,
            fhe_domain: None,
        }) {
            // Counted by the server's own refused_budget ledger.
            Err(PipelineError::Refused(RefusalReason::BudgetRefused { .. })) => {}
            Err(other) => return Err(other),
            Ok(_) => {
                return Err(PipelineError::Config(
                    "starved tenant was admitted; the admission guard is broken".into(),
                ))
            }
        }
    }

    if let Some(seq) = cfg.inject_fault_on_seq {
        server.inject_worker_fault(seq);
    }

    let modulus = params.modulus().value();
    let t = params.t();
    let devices: Vec<Device> = (0..cfg.devices)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x0D15_EA5E + i as u64 * 0x517C_C1B7));
            let message: Vec<u64> = (0..t).map(|_| rng.gen_range(0..modulus)).collect();
            Device {
                tenant_idx: i % tenants.len(),
                channel: LossyChannel::new(ChannelConfig {
                    drop_prob: cfg.drop_prob,
                    bit_error_rate: cfg.bit_error_rate,
                    seed: cfg.seed ^ (i as u64).wrapping_mul(0x2545_F491),
                    ..ChannelConfig::default()
                }),
                message,
                request_idx: 0,
                generation: 0,
                nonce: 0,
                frame_bytes: Vec::new(),
                attempts: 0,
                first_send_us: 0,
            }
        })
        .collect();

    let mut sim = Sim {
        server,
        tenants,
        devices,
        queue: BTreeMap::new(),
        tick: 0,
        pending: BTreeMap::new(),
        latencies: Vec::new(),
        digests: BTreeMap::new(),
        report,
        jitter: StdRng::seed_from_u64(cfg.seed ^ 0x4A11_77E5),
        cfg: cfg.clone(),
        last_event_us: 0,
    };

    for i in 0..sim.devices.len() {
        let at = i as u64 * cfg.inter_arrival_us;
        sim.schedule(at, Event::Start { device: i });
    }
    sim.run_to_completion();
    Ok(sim.finish())
}

impl Sim {
    fn schedule(&mut self, at_us: u64, event: Event) {
        self.tick += 1;
        self.queue.insert((at_us, self.tick), event);
    }

    /// Exponential backoff with deterministic jitter.
    fn backoff_us(&mut self, attempts: u32) -> u64 {
        let base = self.cfg.backoff_base_us.max(1);
        let exp = base.saturating_mul(1u64 << attempts.min(6));
        exp + self.jitter.gen_range(0..base)
    }

    /// Processes the event queue, interleaving server polls in virtual
    /// time order, until the fleet is done and the server is drained.
    fn run_to_completion(&mut self) {
        loop {
            if let Some((&(at_us, _), _)) = self.queue.iter().next() {
                // Let the server catch up to this instant first; its
                // events may schedule retries before `at_us`.
                let events = self.server.poll(at_us);
                if !events.is_empty() {
                    self.handle_server_events(events);
                    continue;
                }
                if let Some(entry) = self.queue.iter().next().map(|(&k, _)| k) {
                    if let Some(event) = self.queue.remove(&entry) {
                        self.last_event_us = self.last_event_us.max(entry.0);
                        self.handle(entry.0, event);
                    }
                }
                continue;
            }
            // Queue empty: drain the server backlog; shed/fault NACKs
            // may resurrect client retries.
            let horizon = u64::MAX / 2;
            let events = self.server.poll(horizon);
            if events.is_empty() {
                break;
            }
            self.handle_server_events(events);
        }
    }

    fn handle(&mut self, now_us: u64, event: Event) {
        match event {
            Event::Start { device } => self.start_request(now_us, device),
            Event::Transmit { device } => self.transmit(now_us, device),
            Event::Arrive { device, data } => self.arrive(now_us, device, &data),
        }
    }

    /// Builds the device's current request: fresh nonce (device,
    /// request, generation), session open, encrypt, frame.
    fn start_request(&mut self, now_us: u64, device: usize) {
        let d = &mut self.devices[device];
        if d.request_idx >= self.cfg.requests_per_device {
            return;
        }
        d.nonce = ((device as u128 + 1) << 64)
            | ((d.request_idx as u128) << 16)
            | u128::from(d.generation);
        let tenant = &self.tenants[d.tenant_idx];
        let Ok(ct) = tenant.client.encrypt(d.nonce, &d.message) else {
            // Unreachable by construction (messages are canonical); give
            // up on this request rather than panic.
            self.report.gave_up += 1;
            self.next_request(now_us, device);
            return;
        };
        let bits = tenant.client.params().modulus().bits();
        let payload = pack::pack_bits(ct.elements(), bits);
        let frame = WireFrame::data(d.nonce, d.request_idx as u32, 0, payload);
        let d = &mut self.devices[device];
        d.frame_bytes = frame.encode();
        d.attempts = 0;
        d.first_send_us = now_us;
        let tenant_id = self.tenants[d.tenant_idx].id;
        let nonce = d.nonce;
        if self.server.open_session(now_us, tenant_id, nonce).is_err() {
            self.report.gave_up += 1;
            self.next_request(now_us, device);
            return;
        }
        self.schedule(now_us, Event::Transmit { device });
    }

    fn transmit(&mut self, now_us: u64, device: usize) {
        self.report.frames_sent += 1;
        let d = &mut self.devices[device];
        let now_ms = now_us as f64 / 1_000.0;
        let bytes = d.frame_bytes.clone();
        let delivery = d.channel.transmit(&bytes, now_ms);
        match delivery.data {
            Some(data) => {
                let arrive_us = ((delivery.arrive_ms * 1_000.0).ceil() as u64).max(now_us + 1);
                self.schedule(arrive_us, Event::Arrive { device, data });
            }
            None => {
                // Dropped on the air: the client sees a retransmit
                // timeout and backs off.
                self.report.link_dropped += 1;
                self.retry(now_us, device);
            }
        }
    }

    fn arrive(&mut self, now_us: u64, device: usize, data: &[u8]) {
        let tenant_id = self.tenants[self.devices[device].tenant_idx].id;
        match self.server.submit(now_us, tenant_id, data) {
            SubmitOutcome::Accepted { seq, .. } => {
                self.pending.insert(seq, device);
            }
            SubmitOutcome::Refused { reason, .. } => self.on_refusal(now_us, device, reason),
        }
    }

    /// Reacts to a typed refusal: re-open on an expired session, back
    /// off on a retryable reason, give up otherwise.
    fn on_refusal(&mut self, now_us: u64, device: usize, reason: RefusalReason) {
        match reason {
            RefusalReason::SessionExpired => {
                // Re-establish under a fresh nonce and re-encrypt.
                self.report.sessions_reopened += 1;
                let d = &mut self.devices[device];
                d.generation += 1;
                if d.generation > self.cfg.max_retries {
                    self.report.gave_up += 1;
                    self.next_request(now_us, device);
                    return;
                }
                let backoff = self.backoff_us(self.devices[device].attempts);
                self.schedule(now_us + backoff, Event::Start { device });
            }
            _ if reason.is_retryable() => self.retry(now_us, device),
            _ => {
                self.report.gave_up += 1;
                self.next_request(now_us, device);
            }
        }
    }

    /// Client-side retransmission with exponential backoff, after a
    /// link loss or a retryable NACK.
    fn retry(&mut self, now_us: u64, device: usize) {
        let attempts = {
            let d = &mut self.devices[device];
            d.attempts += 1;
            d.attempts
        };
        if attempts > self.cfg.max_retries {
            self.report.gave_up += 1;
            self.next_request(now_us, device);
            return;
        }
        self.report.retries += 1;
        let backoff = self.backoff_us(attempts);
        self.schedule(now_us + backoff, Event::Transmit { device });
    }

    /// Advances the device to its next request (or lets it finish).
    fn next_request(&mut self, now_us: u64, device: usize) {
        let d = &mut self.devices[device];
        d.request_idx += 1;
        d.generation = 0;
        if d.request_idx < self.cfg.requests_per_device {
            let at = now_us + self.cfg.think_us;
            self.schedule(at, Event::Start { device });
        }
    }

    fn handle_server_events(&mut self, events: Vec<ServerEvent>) {
        for event in events {
            match event {
                ServerEvent::Completed(completion) => {
                    self.last_event_us = self.last_event_us.max(completion.completed_us);
                    let Some(device) = self.pending.remove(&completion.seq) else {
                        continue;
                    };
                    self.verify_completion(device, &completion);
                    let at = completion.completed_us;
                    self.next_request(at, device);
                }
                ServerEvent::Refused {
                    seq, reason, at_us, ..
                } => {
                    self.last_event_us = self.last_event_us.max(at_us);
                    let Some(device) = self.pending.remove(&seq) else {
                        continue;
                    };
                    self.on_refusal(at_us, device, reason);
                }
            }
        }
    }

    /// Decrypts a completion with the tenant's analyst key and checks it
    /// against the device's original message.
    fn verify_completion(&mut self, device: usize, completion: &crate::server::Completion) {
        self.report.completed += 1;
        let d = &self.devices[device];
        let tenant = &self.tenants[d.tenant_idx];
        let recovered = completion
            .result
            .retrieve(&tenant.ctx, &tenant.sk)
            .unwrap_or_default();
        if recovered == d.message {
            self.report.correct += 1;
        }
        let mut digest = fnv1a(0xCBF2_9CE4_8422_2325, &completion.tenant.to_le_bytes());
        digest = fnv1a(digest, &completion.nonce.to_le_bytes());
        for element in &recovered {
            digest = fnv1a(digest, &element.to_le_bytes());
        }
        self.digests.insert(completion.seq, digest);
        let latency = completion.completed_us.saturating_sub(d.first_send_us);
        self.latencies.push(latency);
    }

    /// Folds the tallies into the final report.
    fn finish(mut self) -> LoadReport {
        let stats = self.server.stats();
        self.report.simd_backend = stats.simd_backend;
        self.report.accepted = stats.accepted;
        self.report.refused_queue_full = stats.refused_queue_full;
        self.report.refused_budget = stats.refused_budget;
        self.report.refused_session = stats.refused_session;
        self.report.refused_malformed = stats.refused_malformed;
        self.report.shed_deadline = stats.shed_deadline;
        self.report.worker_faults = stats.worker_faults;
        self.report.unaccounted = stats
            .accepted
            .saturating_sub(stats.completed + stats.shed_deadline + stats.worker_faults);
        self.report.mux_buckets = stats.mux_buckets;
        self.report.mux_requests = stats.mux_requests;
        self.report.flush_full = stats.flush_full;
        self.report.flush_deadline = stats.flush_deadline;
        self.report.flush_drain = stats.flush_drain;
        let mut fills: Vec<u32> = self.server.bucket_fills().to_vec();
        if !fills.is_empty() {
            let sum: u64 = fills.iter().map(|&f| u64::from(f)).sum();
            self.report.mux_mean_fill_permille = sum / fills.len() as u64;
            fills.sort_unstable();
            self.report.mux_p50_fill_permille = u64::from(fills[(fills.len() - 1) / 2]);
        }
        self.latencies.sort_unstable();
        let pick = |sorted: &[u64], pct: u64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = ((sorted.len() as u64 - 1) * pct) / 100;
            sorted.get(idx as usize).copied().unwrap_or(0)
        };
        self.report.p50_latency_us = pick(&self.latencies, 50);
        self.report.p99_latency_us = pick(&self.latencies, 99);
        self.report.max_latency_us = self.latencies.last().copied().unwrap_or(0);
        self.report.makespan_us = self.last_event_us;
        self.report.throughput_rps = if self.last_event_us == 0 {
            0.0
        } else {
            self.report.completed as f64 / (self.last_event_us as f64 / 1e6)
        };
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for (seq, d) in &self.digests {
            digest = fnv1a(digest, &seq.to_le_bytes());
            digest = fnv1a(digest, &d.to_le_bytes());
        }
        self.report.plaintext_digest = digest;
        self.report
    }
}
