//! End-to-end robustness tests for the resilient transciphering pipeline.
//!
//! These are the acceptance scenarios for the lossy-link work: a fixed
//! seed drives packet drops, bit flips, and an injected datapath fault
//! through the whole edge→cloud flow, and every frame that reaches the
//! cloud must still transcipher pixel-exact under real FHE.

use pasta_edge::fhe::noise::suggest_prime_count;
use pasta_edge::fhe::BfvParams;
use pasta_edge::hw::fault::{FaultSpec, FaultTarget};
use pasta_edge::math::Modulus;
use pasta_edge::pipeline::{ChannelConfig, PipelineError, RefusalReason, ScheduledFault};
use pasta_edge::server::{run_session, SessionConfig};

fn tiny_params() -> pasta_edge::cipher::PastaParams {
    pasta_edge::cipher::PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
}

/// The headline scenario: 20% packet drop, 1e-4 bit-error rate, and one
/// transient datapath fault — with real FHE transciphering verifying
/// every delivered frame, and the fault caught before leaving the edge.
#[test]
fn lossy_faulty_session_transciphers_exactly() {
    let cfg = SessionConfig {
        params: tiny_params(),
        frames: 4,
        target_fps: 20.0,
        pixels_override: Some(8),
        mtu: 256,
        channel: ChannelConfig {
            drop_prob: 0.2,
            bit_error_rate: 1e-4,
            reorder_prob: 0.05,
            seed: 5,
            ..ChannelConfig::default()
        },
        faults: vec![ScheduledFault {
            frame_id: 1,
            counter: 0,
            fault: FaultSpec {
                target: FaultTarget::MatrixSeed {
                    layer: 0,
                    left: true,
                    index: 2,
                },
                mask: 0x5B,
            },
        }],
        bfv: Some(BfvParams::test_tiny()),
        ..SessionConfig::default()
    };

    let report = run_session(&cfg).unwrap();

    // Every frame that made it through must transcipher pixel-exact —
    // corruption is rejected at the CRC, never silently transciphered.
    assert_eq!(report.verify_failures, 0, "{report:?}");
    assert_eq!(report.frames_delivered, 4, "{report:?}");
    assert_eq!(report.verified_frames, 4);

    // The injected fault was detected (and masked) on the device.
    assert_eq!(report.faults_detected, 1);
    assert_eq!(report.faults_escaped, 0);

    // The lossy link actually did something: the ARQ had to work.
    assert!(
        report.drops + report.corrupt_rejected + report.acks_lost > 0,
        "the channel was supposed to misbehave: {report:?}"
    );

    // Deterministic replay: the same seed tells the same story.
    let again = run_session(&cfg).unwrap();
    assert_eq!(again.chunks_sent, report.chunks_sent);
    assert_eq!(again.retransmissions, report.retransmissions);
    assert!((again.elapsed_ms - report.elapsed_ms).abs() < 1e-9);
}

/// The service's admission guard refuses an under-provisioned tenant
/// with a structured error that names the prime count that would work.
#[test]
fn noise_guard_names_the_fix() {
    let cfg = SessionConfig {
        params: tiny_params(),
        frames: 1,
        pixels_override: Some(4),
        mtu: 256,
        bfv: Some(BfvParams {
            prime_count: 2,
            ..BfvParams::test_tiny()
        }),
        ..SessionConfig::default()
    };
    let err = run_session(&cfg).unwrap_err();
    match &err {
        PipelineError::Refused(RefusalReason::BudgetRefused { suggested_primes }) => {
            let expected = suggest_prime_count(4, 2, false, 256, Modulus::PASTA_17_BIT, 50, 12.0)
                .expect("tiny circuit has a workable RNS size");
            let suggested = suggested_primes.expect("the refusal names a prime count");
            assert_eq!(suggested as usize, expected);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("use at least {suggested}")),
                "error must name the fix: {msg}"
            );
        }
        other => panic!("expected BudgetRefused, got {other:?}"),
    }
}

/// A frame spanning several wire frames reaches the service as one
/// reassembled request. At a 45-byte MTU each wire frame carries one
/// 9-byte tiny-PASTA block plus 36 bytes of framing, so every 8-pixel
/// frame takes two. Verifying through the service tells the same story,
/// field for field, as verifying by symmetric decryption.
#[test]
fn multi_chunk_frames_transcipher_through_the_service() {
    for mtu in [256, 45] {
        let fhe = SessionConfig {
            params: tiny_params(),
            frames: 4,
            target_fps: 20.0,
            pixels_override: Some(8),
            mtu,
            channel: ChannelConfig {
                drop_prob: 0.2,
                bit_error_rate: 1e-4,
                reorder_prob: 0.05,
                seed: 5,
                ..ChannelConfig::default()
            },
            bfv: Some(BfvParams::test_tiny()),
            ..SessionConfig::default()
        };
        let report = run_session(&fhe).unwrap();
        assert_eq!(report.frames_delivered, 4, "mtu {mtu}: {report:?}");
        assert_eq!(report.verified_frames, report.frames_delivered);
        assert_eq!(report.verify_failures, 0);
        if mtu == 45 {
            assert!(report.chunks_sent >= 2 * u64::from(report.frames_delivered));
        }
        let symmetric = run_session(&SessionConfig { bfv: None, ..fhe }).unwrap();
        assert_eq!(report, symmetric, "mtu {mtu}");
    }
}

/// Degradation instead of garbage: a link too slow for QVGA walks down
/// the resolution ladder and keeps delivering exact frames.
#[test]
fn slow_link_degrades_but_stays_exact() {
    let cfg = SessionConfig {
        params: pasta_edge::cipher::PastaParams::pasta4_17bit(),
        resolution: pasta_edge::hhe::link::Resolution::Qvga,
        frames: 5,
        target_fps: 20.0,
        channel: ChannelConfig {
            bandwidth_bps: 1.0e6,
            seed: 13,
            ..ChannelConfig::default()
        },
        ..SessionConfig::default()
    };
    let report = run_session(&cfg).unwrap();
    assert!(!report.downshifts.is_empty(), "{report:?}");
    assert_eq!(
        report.final_resolution,
        pasta_edge::hhe::link::Resolution::Qqvga
    );
    assert_eq!(report.verify_failures, 0);
    assert!(report.frames_delivered > 0);
}
