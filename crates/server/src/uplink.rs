//! The end-to-end edge→cloud session: ARQ, backoff, degradation.
//!
//! One [`run_session`] call simulates a whole surveillance stream on a
//! virtual clock: frames are encrypted on the [`EdgeEncryptor`] (through
//! the fault countermeasure), chunked into [`WireFrame`]s, pushed through
//! the [`LossyChannel`] under a stop-and-wait ARQ with bounded
//! retransmission and exponential backoff + jitter, reassembled on the
//! far side, and verified pixel-exact — either by symmetric decryption
//! or, when BFV parameters are supplied, by actual FHE transciphering on
//! a [`PastaServer`], the same service [`crate::loadgen`] drives.
//!
//! When the link can no longer carry the frame deadline, the sender
//! degrades gracefully instead of stalling: it walks the
//! [`Resolution::downshift`] ladder, and once at the bottom it sheds
//! frames.

use std::collections::BTreeMap;

use crate::server::{
    PastaServer, ServerConfig, ServerEvent, SubmitOutcome, TenantId, TenantProvision,
};
use pasta_core::{PastaCipher, PastaParams, SecretKey};
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::link::Resolution;
use pasta_hhe::HheClient;
use pasta_hw::fault::Countermeasure;
use pasta_pipeline::pack::{ciphertext_from_elements, elements_in, pack_bits, unpack_bits};
use pasta_pipeline::wire::{CRC_LEN, HEADER_LEN};
use pasta_pipeline::{
    ChannelConfig, EdgeEncryptor, LossyChannel, PipelineError, ScheduledFault, WireFrame,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything one session needs, with sensible §V defaults.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// PASTA parameter set.
    pub params: PastaParams,
    /// Seed for the edge device's PASTA key.
    pub key_seed: Vec<u8>,
    /// Starting video resolution.
    pub resolution: Resolution,
    /// Number of frames the camera offers.
    pub frames: u32,
    /// Frame deadline: the camera produces `target_fps` frames/s.
    pub target_fps: f64,
    /// The unreliable link.
    pub channel: ChannelConfig,
    /// Wire MTU in bytes (header + payload + CRC must fit).
    pub mtu: usize,
    /// Retransmissions allowed per wire frame beyond the first try.
    pub max_retries: u32,
    /// Base backoff before a retry (doubles per attempt, jittered).
    pub base_backoff_ms: f64,
    /// On-device fault countermeasure.
    pub countermeasure: Countermeasure,
    /// Transient datapath faults to inject.
    pub faults: Vec<ScheduledFault>,
    /// When set, delivered frames are verified by real FHE
    /// transciphering on a [`PastaServer`] (expensive — use small
    /// frames via [`SessionConfig::pixels_override`]), whose admission
    /// guard refuses parameters the circuit would exhaust. When `None`,
    /// verification decrypts symmetrically with the shared key.
    pub bfv: Option<BfvParams>,
    /// Overrides the per-frame pixel count (tests use tiny frames).
    pub pixels_override: Option<usize>,
    /// Whether deadline misses may downshift/shed (off for benchmarks
    /// that measure throughput at a pinned resolution).
    pub degrade: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            params: PastaParams::pasta4_17bit(),
            key_seed: b"pasta-edge-session".to_vec(),
            resolution: Resolution::Qvga,
            frames: 30,
            target_fps: 15.0,
            channel: ChannelConfig::default(),
            mtu: 1_400,
            max_retries: 6,
            base_backoff_ms: 2.0,
            countermeasure: Countermeasure::MaterialRedundancy,
            faults: Vec::new(),
            bfv: None,
            pixels_override: None,
            degrade: true,
        }
    }
}

/// A resolution change made by the degradation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Downshift {
    /// Frame at which the sender downshifted.
    pub frame_id: u32,
    /// The new (lower) resolution.
    pub to: Resolution,
}

/// What happened over one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Frames the camera offered.
    pub frames_offered: u32,
    /// Frames fully delivered and reassembled at the cloud.
    pub frames_delivered: u32,
    /// Frames abandoned after the retransmission budget ran out.
    pub frames_abandoned: u32,
    /// Frames shed by the degradation policy (never encrypted).
    pub frames_skipped: u32,
    /// Wire frames put on the air (including retransmissions).
    pub chunks_sent: u64,
    /// Retransmissions (wire frames beyond each chunk's first try).
    pub retransmissions: u64,
    /// Wire frames the channel dropped outright.
    pub drops: u64,
    /// Wire frames rejected by the receiver's CRC/format check.
    pub corrupt_rejected: u64,
    /// Acks/nacks lost or corrupted on the return path.
    pub acks_lost: u64,
    /// Datapath faults detected (and masked) on the edge device.
    pub faults_detected: u64,
    /// Datapath faults the countermeasure did not cover.
    pub faults_escaped: u64,
    /// Resolution downshifts, in order.
    pub downshifts: Vec<Downshift>,
    /// Resolution at the end of the session.
    pub final_resolution: Resolution,
    /// Virtual time the session took (ms).
    pub elapsed_ms: f64,
    /// Delivered frames that verified pixel-exact.
    pub verified_frames: u32,
    /// Delivered frames whose pixels did NOT match (should stay 0 —
    /// every corruption path is supposed to be caught earlier).
    pub verify_failures: u32,
    /// Ciphertext payload bytes that reached the cloud (unique, not
    /// counting retransmissions).
    pub payload_bytes_delivered: u64,
}

impl SessionReport {
    fn new(resolution: Resolution) -> Self {
        SessionReport {
            frames_offered: 0,
            frames_delivered: 0,
            frames_abandoned: 0,
            frames_skipped: 0,
            chunks_sent: 0,
            retransmissions: 0,
            drops: 0,
            corrupt_rejected: 0,
            acks_lost: 0,
            faults_detected: 0,
            faults_escaped: 0,
            downshifts: Vec::new(),
            final_resolution: resolution,
            elapsed_ms: 0.0,
            verified_frames: 0,
            verify_failures: 0,
            payload_bytes_delivered: 0,
        }
    }

    /// Delivered frames per second of virtual time.
    #[must_use]
    pub fn effective_fps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            return 0.0;
        }
        f64::from(self.frames_delivered) / (self.elapsed_ms / 1_000.0)
    }

    /// Useful ciphertext throughput in Mbit/s.
    #[must_use]
    pub fn goodput_mbps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            return 0.0;
        }
        self.payload_bytes_delivered as f64 * 8.0 / (self.elapsed_ms / 1_000.0) / 1e6
    }

    /// Multi-line human-readable summary (what the CLI prints).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "frames    {} offered, {} delivered, {} abandoned, {} skipped\n",
            self.frames_offered, self.frames_delivered, self.frames_abandoned, self.frames_skipped
        ));
        s.push_str(&format!(
            "verify    {} exact, {} mismatched\n",
            self.verified_frames, self.verify_failures
        ));
        s.push_str(&format!(
            "link      {} wire frames ({} retransmissions), {} dropped, {} corrupt, {} acks lost\n",
            self.chunks_sent,
            self.retransmissions,
            self.drops,
            self.corrupt_rejected,
            self.acks_lost
        ));
        s.push_str(&format!(
            "faults    {} detected on-device, {} escaped\n",
            self.faults_detected, self.faults_escaped
        ));
        if self.downshifts.is_empty() {
            s.push_str(&format!(
                "degrade   none (stayed {})\n",
                self.final_resolution.name()
            ));
        } else {
            for d in &self.downshifts {
                s.push_str(&format!(
                    "degrade   frame {} -> {}\n",
                    d.frame_id,
                    d.to.name()
                ));
            }
        }
        s.push_str(&format!(
            "timing    {:.1} ms virtual, {:.2} fps effective, {:.2} Mbit/s goodput",
            self.elapsed_ms,
            self.effective_fps(),
            self.goodput_mbps()
        ));
        s
    }
}

/// Consecutive deadline misses before the sender degrades.
const MISSES_BEFORE_DEGRADE: u32 = 2;

/// Runs one full session on a virtual clock.
///
/// # Errors
///
/// [`PipelineError::Config`] for an unusable configuration,
/// [`PipelineError::Refused`] when FHE verification is requested and the
/// service refuses the tenant (`BudgetRefused` names the prime count
/// that would work) or a frame, and edge/cloud errors from the crypto
/// layers.
pub fn run_session(cfg: &SessionConfig) -> Result<SessionReport, PipelineError> {
    let block_bytes = cfg.params.ciphertext_block_bytes();
    let usable = cfg.mtu.saturating_sub(HEADER_LEN + CRC_LEN);
    if usable < block_bytes {
        return Err(PipelineError::Config(format!(
            "mtu {} cannot carry one {block_bytes}-byte ciphertext block plus {} bytes of framing",
            cfg.mtu,
            HEADER_LEN + CRC_LEN
        )));
    }
    if cfg.frames == 0 {
        return Err(PipelineError::Config(
            "session must offer at least one frame".into(),
        ));
    }
    if cfg.target_fps <= 0.0 {
        return Err(PipelineError::Config(format!(
            "target_fps must be positive, got {}",
            cfg.target_fps
        )));
    }
    if cfg.channel.bandwidth_bps <= 0.0 {
        return Err(PipelineError::Config(format!(
            "channel bandwidth must be positive, got {} B/s",
            cfg.channel.bandwidth_bps
        )));
    }
    if !(0.0..1.0).contains(&cfg.channel.bandwidth_swing) {
        return Err(PipelineError::Config(format!(
            "bandwidth swing must be in [0, 1) so the link never stalls entirely, got {}",
            cfg.channel.bandwidth_swing
        )));
    }

    let key = SecretKey::from_seed(&cfg.params, &cfg.key_seed);
    let mut edge = EdgeEncryptor::new(cfg.params, key.clone(), cfg.countermeasure);
    for fault in &cfg.faults {
        edge.schedule_fault(*fault);
    }
    let mut cloud = match cfg.bfv {
        Some(bfv) => Some(Cloud::register(cfg, bfv)?),
        None => None,
    };
    let verifier = PastaCipher::new(cfg.params, key);
    let mut channel = LossyChannel::new(cfg.channel);
    // Frame content and backoff jitter; separate stream from the
    // channel's own RNG so loss decisions don't depend on pixel data.
    let mut rng = StdRng::seed_from_u64(cfg.channel.seed ^ 0x5E55_104E);

    let t = cfg.params.t();
    let p = cfg.params.modulus().value();
    let bits = cfg.params.modulus().bits();
    let blocks_per_chunk = usable / block_bytes;
    let elems_per_chunk = blocks_per_chunk * t;
    let deadline_ms = 1_000.0 / cfg.target_fps;

    let mut report = SessionReport::new(cfg.resolution);

    let mut resolution = cfg.resolution;
    let mut consecutive_misses = 0u32;
    let mut shed_next = false;
    let mut now_ms = 0.0f64;

    for frame_id in 0..cfg.frames {
        report.frames_offered += 1;
        let frame_start = now_ms;
        if shed_next {
            shed_next = false;
            report.frames_skipped += 1;
            // The camera still paces at target fps.
            now_ms = frame_start + deadline_ms;
            continue;
        }

        let n_pixels = cfg.pixels_override.unwrap_or_else(|| resolution.pixels());
        let pixels: Vec<u64> = (0..n_pixels)
            .map(|_| rng.gen_range(0..256u64) % p)
            .collect();
        let nonce = u128::from(frame_id) + 1;
        let ct = edge.encrypt_frame(frame_id, nonce, &pixels)?;
        report.faults_detected = edge.faults_detected;
        report.faults_escaped = edge.faults_escaped;

        // Chunk, send under ARQ, reassemble. BTreeMap keeps chunks in
        // counter order and deduplicates ack-loss retransmissions.
        let mut assembly: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut delivered_bytes = 0u64;
        let mut delivered_all = true;
        for (chunk_idx, chunk) in ct.chunks(elems_per_chunk).enumerate() {
            let counter_base = u32::try_from(chunk_idx * blocks_per_chunk)
                .map_err(|_| PipelineError::Config("frame exceeds u32 block counters".into()))?;
            let payload = pack_bits(chunk, bits);
            let payload_len = payload.len() as u64;
            let wire = WireFrame::data(nonce, frame_id, counter_base, payload);
            if send_chunk(
                &wire,
                cfg,
                &mut channel,
                &mut rng,
                &mut report,
                &mut now_ms,
                &mut assembly,
                bits,
            ) {
                delivered_bytes += payload_len;
            } else {
                delivered_all = false;
                break;
            }
        }

        if delivered_all {
            let elements: Vec<u64> = assembly.into_values().flatten().collect();
            let recovered = match &mut cloud {
                Some(c) => c.transcipher(now_ms, frame_id, nonce, pack_bits(&elements, bits))?,
                None => {
                    verifier.decrypt(&ciphertext_from_elements(&cfg.params, nonce, &elements)?)?
                }
            };
            if recovered == pixels {
                report.verified_frames += 1;
            } else {
                report.verify_failures += 1;
            }
            report.frames_delivered += 1;
            report.payload_bytes_delivered += delivered_bytes;
        } else {
            report.frames_abandoned += 1;
        }

        // Degradation policy: two consecutive deadline misses (late or
        // abandoned) downshift the resolution; at the bottom of the
        // ladder, shed the next frame instead.
        let elapsed = now_ms - frame_start;
        if elapsed > deadline_ms || !delivered_all {
            if cfg.degrade {
                consecutive_misses += 1;
                if consecutive_misses >= MISSES_BEFORE_DEGRADE {
                    consecutive_misses = 0;
                    match resolution.downshift() {
                        Some(lower) => {
                            resolution = lower;
                            report.downshifts.push(Downshift {
                                frame_id,
                                to: lower,
                            });
                        }
                        None => shed_next = true,
                    }
                }
            }
        } else {
            consecutive_misses = 0;
            // Camera paces: next frame is not available before its slot.
            now_ms = frame_start + deadline_ms;
        }
    }

    report.final_resolution = resolution;
    report.elapsed_ms = now_ms;
    Ok(report)
}

/// The cloud half of an FHE-verified session: one domainless tenant on
/// a [`PastaServer`], plus the analyst's FHE secret key so delivered
/// frames can be checked pixel-exact.
struct Cloud {
    server: PastaServer,
    tenant: TenantId,
    ctx: BfvContext,
    sk: BfvSecretKey,
    /// When the service finished its last request (µs of virtual
    /// time). A frame that arrives earlier waits for it, so a busy
    /// service delays the frame instead of shedding it at its deadline.
    free_us: u64,
}

impl Cloud {
    /// Generates the analyst's FHE keypair, provisions the edge's PASTA
    /// key under it and registers the tenant, which the service's
    /// admission guard refuses when the circuit would exhaust `bfv`.
    fn register(cfg: &SessionConfig, bfv: BfvParams) -> Result<Self, PipelineError> {
        let ctx = BfvContext::new(bfv)?;
        let mut rng = StdRng::seed_from_u64(cfg.channel.seed ^ 0x1F0_C10D);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin_key = ctx.generate_relin_key(&sk, &mut rng);
        let encrypted_key =
            HheClient::new(cfg.params, &cfg.key_seed).provision_key(&ctx, &pk, &mut rng);
        let mut server = PastaServer::new(ServerConfig::default());
        let tenant = server.register_tenant(TenantProvision {
            pasta: cfg.params,
            bfv,
            relin_key,
            encrypted_key,
            fhe_domain: None,
        })?;
        Ok(Cloud {
            server,
            tenant,
            ctx,
            sk,
            free_us: 0,
        })
    }

    /// Transciphers one reassembled frame as a single request under the
    /// frame's nonce as its session, then decrypts the result.
    fn transcipher(
        &mut self,
        now_ms: f64,
        frame_id: u32,
        nonce: u128,
        payload: Vec<u8>,
    ) -> Result<Vec<u64>, PipelineError> {
        let now_us = ((now_ms * 1_000.0) as u64).max(self.free_us);
        self.server
            .open_session(now_us, self.tenant, nonce)
            .map_err(PipelineError::Refused)?;
        let frame = WireFrame::data(nonce, frame_id, 0, payload).encode();
        if let SubmitOutcome::Refused { reason, .. } =
            self.server.submit(now_us, self.tenant, &frame)
        {
            return Err(PipelineError::Refused(reason));
        }
        // Draining the queue answers the one accepted request.
        match self.server.poll(u64::MAX).pop() {
            Some(ServerEvent::Completed(done)) => {
                self.free_us = done.completed_us;
                Ok(done.result.retrieve(&self.ctx, &self.sk)?)
            }
            Some(ServerEvent::Refused { reason, .. }) => Err(PipelineError::Refused(reason)),
            None => Err(PipelineError::Config(
                "the service answered no event for an accepted frame".into(),
            )),
        }
    }
}

/// Stop-and-wait ARQ for one wire frame. Returns `true` once the chunk
/// is acknowledged, `false` when the retransmission budget runs out.
#[allow(clippy::too_many_arguments)]
fn send_chunk(
    wire: &WireFrame,
    cfg: &SessionConfig,
    channel: &mut LossyChannel,
    rng: &mut StdRng,
    report: &mut SessionReport,
    now_ms: &mut f64,
    assembly: &mut BTreeMap<u32, Vec<u64>>,
    bits: u32,
) -> bool {
    let encoded = wire.encode();
    for attempt in 1..=cfg.max_retries + 1 {
        report.chunks_sent += 1;
        if attempt > 1 {
            report.retransmissions += 1;
        }
        let delivery = channel.transmit(&encoded, *now_ms);
        // Retransmission timeout: one serialization + round trip + slack.
        let rto = delivery.serialize_ms + 2.0 * cfg.channel.latency_ms + 1.0;
        let timeout_at = *now_ms + delivery.serialize_ms + rto;
        match &delivery.data {
            None => {
                report.drops += 1;
                *now_ms = timeout_at + backoff_ms(cfg, rng, attempt);
            }
            Some(bytes) => match WireFrame::decode(bytes) {
                Ok(received) => {
                    // Receiver side: store (dedup by counter base), ack.
                    let count = elements_in(received.payload.len(), bits);
                    assembly
                        .entry(received.counter_base)
                        .or_insert_with(|| unpack_bits(&received.payload, bits, count));
                    let ack = WireFrame::ack(&received);
                    let back = channel.transmit(&ack.encode(), delivery.arrive_ms);
                    match back.data.as_deref().map(WireFrame::decode) {
                        Some(Ok(_)) => {
                            *now_ms = back.arrive_ms.max(*now_ms + delivery.serialize_ms);
                            return true;
                        }
                        _ => {
                            // Ack lost/corrupted: sender times out and
                            // retransmits; the dedup above absorbs it.
                            report.acks_lost += 1;
                            *now_ms = timeout_at + backoff_ms(cfg, rng, attempt);
                        }
                    }
                }
                Err(_) => {
                    report.corrupt_rejected += 1;
                    let nack = WireFrame::nack(wire.frame_id, wire.counter_base);
                    let back = channel.transmit(&nack.encode(), delivery.arrive_ms);
                    match back.data.as_deref().map(WireFrame::decode) {
                        // Nack received: retransmit immediately.
                        Some(Ok(_)) => {
                            *now_ms = back.arrive_ms.max(*now_ms + delivery.serialize_ms)
                        }
                        _ => {
                            report.acks_lost += 1;
                            *now_ms = timeout_at + backoff_ms(cfg, rng, attempt);
                        }
                    }
                }
            },
        }
    }
    false
}

/// Exponential backoff with 25% jitter: `base · 2^(attempt-1) · U[1, 1.25)`.
fn backoff_ms(cfg: &SessionConfig, rng: &mut StdRng, attempt: u32) -> f64 {
    let exp = f64::from(1u32 << (attempt - 1).min(10));
    cfg.base_backoff_ms * exp * (1.0 + 0.25 * rng.gen::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_hw::fault::{FaultSpec, FaultTarget};
    use pasta_math::Modulus;

    fn tiny_session(seed: u64) -> SessionConfig {
        SessionConfig {
            params: PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap(),
            frames: 8,
            target_fps: 20.0,
            pixels_override: Some(12),
            mtu: 256,
            channel: ChannelConfig {
                seed,
                ..ChannelConfig::default()
            },
            ..SessionConfig::default()
        }
    }

    #[test]
    fn clean_link_delivers_everything() {
        let report = run_session(&tiny_session(1)).unwrap();
        assert_eq!(report.frames_delivered, 8);
        assert_eq!(report.verified_frames, 8);
        assert_eq!(report.verify_failures, 0);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.frames_abandoned, 0);
        assert!(report.effective_fps() > 0.0);
    }

    #[test]
    fn lossy_link_recovers_via_retransmission() {
        let mut cfg = tiny_session(7);
        cfg.channel.drop_prob = 0.2;
        cfg.channel.bit_error_rate = 1e-4;
        let report = run_session(&cfg).unwrap();
        assert!(
            report.retransmissions > 0,
            "a 20% drop rate must force retries"
        );
        assert_eq!(
            report.verify_failures, 0,
            "every delivered frame must be exact"
        );
        assert!(report.frames_delivered >= 6);
    }

    #[test]
    fn same_seed_same_report() {
        let mut cfg = tiny_session(11);
        cfg.channel.drop_prob = 0.1;
        cfg.channel.bit_error_rate = 1e-5;
        let a = run_session(&cfg).unwrap();
        let b = run_session(&cfg).unwrap();
        assert_eq!(a.chunks_sent, b.chunks_sent);
        assert_eq!(a.frames_delivered, b.frames_delivered);
        assert!((a.elapsed_ms - b.elapsed_ms).abs() < 1e-9);
    }

    #[test]
    fn hopeless_link_abandons_but_does_not_hang() {
        let mut cfg = tiny_session(3);
        cfg.channel.drop_prob = 1.0;
        cfg.max_retries = 2;
        let report = run_session(&cfg).unwrap();
        assert_eq!(report.frames_delivered, 0);
        assert!(report.frames_abandoned + report.frames_skipped > 0);
    }

    #[test]
    fn degradation_walks_the_resolution_ladder() {
        let mut cfg = tiny_session(5);
        cfg.resolution = Resolution::Vga;
        cfg.pixels_override = None;
        cfg.frames = 6;
        // A link far too slow for VGA at 20 fps: forces misses.
        cfg.channel.bandwidth_bps = 1.5e6;
        let report = run_session(&cfg).unwrap();
        assert!(
            !report.downshifts.is_empty(),
            "slow link must trigger downshift"
        );
        assert_ne!(report.final_resolution, Resolution::Vga);
        assert_eq!(report.verify_failures, 0);
    }

    #[test]
    fn injected_fault_is_contained_on_device() {
        let mut cfg = tiny_session(9);
        cfg.faults.push(ScheduledFault {
            frame_id: 2,
            counter: 0,
            fault: FaultSpec {
                target: FaultTarget::MatrixSeed {
                    layer: 1,
                    left: false,
                    index: 0,
                },
                mask: 0x11,
            },
        });
        let report = run_session(&cfg).unwrap();
        assert_eq!(report.faults_detected, 1);
        assert_eq!(report.faults_escaped, 0);
        assert_eq!(
            report.verify_failures, 0,
            "masked fault must never corrupt output"
        );
        assert_eq!(report.verified_frames, 8);
    }

    #[test]
    fn busy_service_delays_frames_instead_of_shedding() {
        // 100 blocks a frame cost 200 ms of modelled service, four
        // 50 ms frame slots: stamped with the link's clock alone, the
        // third frame would pass its 200 ms deadline in the queue.
        let mut cfg = tiny_session(1);
        cfg.frames = 3;
        cfg.pixels_override = Some(400);
        cfg.bfv = Some(BfvParams::test_tiny());
        let report = run_session(&cfg).unwrap();
        assert_eq!(report.verified_frames, 3, "{report:?}");
    }

    #[test]
    fn undersized_mtu_is_a_config_error() {
        let mut cfg = tiny_session(1);
        cfg.mtu = 10;
        assert!(matches!(run_session(&cfg), Err(PipelineError::Config(_))));
    }
}
