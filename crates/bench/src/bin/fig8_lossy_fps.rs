//! Fig. 8 extension: effective frames/s under packet loss.
//!
//! The paper's Fig. 8 computes bandwidth-limited fps over a perfect
//! link. This experiment pushes the same stream through the lossy-link
//! simulator and reports the *effective* fps the stop-and-wait ARQ
//! sustains at packet-loss rates {0%, 0.1%, 1%, 5%} per resolution —
//! the cost of reliability, measured rather than assumed.
//!
//! Run with: `cargo run --release -p pasta-bench --bin fig8_lossy_fps`

use pasta_core::PastaParams;
use pasta_hhe::link::{PastaLink, Resolution, MIN_5G_BPS};
use pasta_pipeline::ChannelConfig;
use pasta_server::{run_session, SessionConfig};

const LOSS_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

fn main() {
    let params = PastaParams::pasta4_17bit();
    let link = PastaLink::new(params);
    println!(
        "# Effective fps vs packet loss ({params}, {:.1} MB/s link, BER 1e-6)",
        MIN_5G_BPS / 1e6
    );
    println!(
        "# {:<7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "res", "ideal", "0%", "0.1%", "1%", "5%"
    );
    for res in Resolution::ALL {
        let ideal = link.frames_per_second(res, MIN_5G_BPS);
        print!("{:<9} {:>10.2}", res.name(), ideal);
        for loss in LOSS_RATES {
            let cfg = SessionConfig {
                params,
                resolution: res,
                frames: 5,
                // Camera never starves the link: fps is ARQ-limited.
                target_fps: 10_000.0,
                degrade: false,
                // Jumbo frames: stop-and-wait pays one round trip per
                // wire frame, so the MTU sets the latency overhead.
                mtu: 9_000,
                channel: ChannelConfig {
                    drop_prob: loss,
                    bit_error_rate: 1e-6,
                    bandwidth_bps: MIN_5G_BPS,
                    latency_ms: 1.0,
                    seed: 88,
                    ..ChannelConfig::default()
                },
                ..SessionConfig::default()
            };
            match run_session(&cfg) {
                Ok(report) => print!(" {:>10.2}", report.effective_fps()),
                Err(e) => {
                    print!(" {:>10}", "-");
                    eprintln!("{} at {loss}: {e}", res.name());
                }
            }
        }
        println!();
    }
    println!("# ideal = bandwidth-only bound (Fig. 8). Measured columns add framing, the");
    println!("# stop-and-wait round trip per 9 KB wire frame (the dominant gap: throughput");
    println!("# caps near mtu/RTT regardless of bandwidth), and loss-driven retransmission.");
}
