//! Video surveillance over a *lossy* uplink — the §V application with
//! the link the paper assumes away.
//!
//! A QQVGA camera streams PASTA-encrypted frames over a 12.5 MB/s
//! mid-band 5G link with 1% packet loss and a 1e-6 bit-error rate. The
//! ARQ recovers every corrupted or dropped wire frame, and every frame
//! that reaches the cloud decrypts pixel-exact. The example exits
//! non-zero when a delivered frame mismatches or the session is refused.
//!
//! Run with: `cargo run --release --example lossy_surveillance`

use pasta_edge::cipher::PastaParams;
use pasta_edge::hhe::link::Resolution;
use pasta_edge::pipeline::ChannelConfig;
use pasta_edge::server::{run_session, SessionConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = SessionConfig {
        params: PastaParams::pasta4_17bit(),
        resolution: Resolution::Qqvga,
        frames: 30,
        target_fps: 10.0,
        // Stop-and-wait pays one round trip per wire frame, so the edge
        // uses jumbo frames to keep the latency overhead off the
        // critical path.
        mtu: 9_000,
        channel: ChannelConfig {
            drop_prob: 0.01,
            bit_error_rate: 1e-6,
            bandwidth_bps: pasta_edge::hhe::link::MIN_5G_BPS,
            bandwidth_swing: 0.2,
            seed: 2025,
            ..ChannelConfig::default()
        },
        ..SessionConfig::default()
    };

    println!("=== PASTA surveillance over an unreliable 5G uplink ===\n");
    println!("{}", cfg.params);
    println!(
        "{} @ {:.0} fps target, {:.1} MB/s link, 1% loss, 1e-6 BER\n",
        cfg.resolution.name(),
        cfg.target_fps,
        cfg.channel.bandwidth_bps / 1e6
    );

    match run_session(&cfg) {
        Ok(report) => {
            println!("{}", report.summary());
            let exact =
                report.verify_failures == 0 && report.verified_frames == report.frames_delivered;
            println!("\nEvery delivered frame verified pixel-exact: {exact}");
            if exact {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("session refused: {e}");
            ExitCode::FAILURE
        }
    }
}
