//! Command execution.

use crate::args::{Command, USAGE};
use pasta_core::{PastaCipher, PastaParams, SecretKey};
use pasta_hw::area::{estimate_fpga, ARTIX7_AC701};
use pasta_hw::asic::{estimate_asic, TechNode};
use pasta_hw::PastaProcessor;
use std::fmt::Write as _;
use std::fs;

/// Executes a parsed command, returning the printable result.
///
/// # Errors
///
/// Returns a human-readable message on I/O or cipher errors.
pub fn execute(command: &Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Keygen { params, seed, out } => {
            let key = SecretKey::from_seed(params, seed.as_bytes());
            let text = elements_to_text(key.expose_elements());
            write_or_return(out.as_deref(), text)
        }
        Command::Encrypt {
            params,
            key,
            nonce,
            input,
            output,
        } => {
            let cipher = load_cipher(params, key)?;
            let message = read_elements(input, params)?;
            let ct = cipher
                .encrypt(*nonce, &message)
                .map_err(|e| e.to_string())?;
            write_or_return(output.as_deref(), elements_to_text(ct.elements()))
        }
        Command::Decrypt {
            params,
            key,
            nonce,
            input,
            output,
        } => {
            let cipher = load_cipher(params, key)?;
            let elements = read_elements(input, params)?;
            let ct = pasta_core::Ciphertext::from_packed_bytes(
                params,
                *nonce,
                &pack(params, &elements),
                elements.len(),
            )
            .map_err(|e| e.to_string())?;
            let m = cipher.decrypt(&ct).map_err(|e| e.to_string())?;
            write_or_return(output.as_deref(), elements_to_text(&m))
        }
        Command::Keystream {
            params,
            key,
            nonce,
            count,
        } => {
            let cipher = load_cipher(params, key)?;
            let mut ks = pasta_core::Keystream::new(*params, cipher.key().clone(), *nonce);
            let elements = ks.take_elements(*count).map_err(|e| e.to_string())?;
            Ok(elements_to_text(&elements))
        }
        Command::Simulate { params, blocks } => {
            let key = SecretKey::from_seed(params, b"cli-simulate");
            let proc = PastaProcessor::new(*params);
            let avg = proc
                .average_cycles(&key, 0xC11, *blocks)
                .map_err(|e| e.to_string())?;
            let sample = proc
                .keystream_block(&key, 0xC11, 0)
                .map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(out, "{params}");
            let _ = writeln!(out, "average cycles/block over {blocks} blocks: {avg:.1}");
            let _ = writeln!(out, "  FPGA @75 MHz : {:.2} us", avg / 75.0);
            let _ = writeln!(out, "  ASIC @1 GHz  : {:.3} us", avg / 1_000.0);
            let _ = writeln!(out, "  SoC  @100 MHz: {:.2} us", avg / 100.0);
            let _ = writeln!(
                out,
                "sample block: {} Keccak permutations, {:.1}% acceptance, XOF busy {:.1}%",
                sample.cycles.keccak_permutations,
                sample.cycles.acceptance_rate() * 100.0,
                sample.cycles.xof_utilization() * 100.0
            );
            Ok(out)
        }
        Command::Area { params } => {
            let fpga = estimate_fpga(params);
            let (lut, ff, dsp) = fpga.utilization(&ARTIX7_AC701);
            let mut out = String::new();
            let _ = writeln!(out, "{params}");
            let _ = writeln!(
                out,
                "FPGA (Artix-7): {} LUT ({lut:.0}%), {} FF ({ff:.0}%), {} DSP ({dsp:.0}%), 0 BRAM",
                fpga.luts, fpga.ffs, fpga.dsps
            );
            for node in [
                TechNode::Asap7,
                TechNode::Tsmc28,
                TechNode::Node65,
                TechNode::Node130,
            ] {
                let e = estimate_asic(params, node);
                let _ = writeln!(
                    out,
                    "ASIC {:<12}: {:.3} mm^2 @ {:.0} MHz, {:.2} W max",
                    e.node.name(),
                    e.area_mm2,
                    e.clock_mhz,
                    e.power_w
                );
            }
            Ok(out)
        }
        Command::Pipeline {
            params,
            loss,
            ber,
            bandwidth_mbps,
            seed,
            frames,
            resolution,
            fps,
            pixels,
            mtu,
        } => {
            let cfg = pasta_server::SessionConfig {
                params: *params,
                resolution: *resolution,
                frames: *frames,
                target_fps: *fps,
                mtu: *mtu,
                channel: pasta_pipeline::ChannelConfig {
                    drop_prob: *loss,
                    bit_error_rate: *ber,
                    bandwidth_bps: bandwidth_mbps * 1e6,
                    seed: *seed,
                    ..pasta_pipeline::ChannelConfig::default()
                },
                pixels_override: *pixels,
                ..pasta_server::SessionConfig::default()
            };
            let report = pasta_server::run_session(&cfg).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(out, "{params}");
            let _ = writeln!(
                out,
                "simd backend: {} (PASTA_SIMD=auto|scalar|avx2)",
                pasta_math::simd::backend_label()
            );
            let _ = writeln!(
                out,
                "link: {:.1} MB/s, loss {:.2}%, BER {:.0e}, seed {seed}",
                bandwidth_mbps,
                loss * 100.0,
                ber
            );
            let _ = writeln!(out, "{}", report.summary());
            Ok(out)
        }
        Command::Server {
            full,
            multiplex,
            seed,
            devices,
            loss,
            ber,
        } => {
            let mut cfg = match (*full, *multiplex) {
                (true, true) => pasta_server::LoadgenConfig::full_mux(),
                (true, false) => pasta_server::LoadgenConfig::full(),
                (false, true) => pasta_server::LoadgenConfig::quick().with_multiplex(),
                (false, false) => pasta_server::LoadgenConfig::quick(),
            };
            if let Some(seed) = seed {
                cfg.seed = *seed;
            }
            if let Some(devices) = devices {
                cfg.devices = *devices;
            }
            if let Some(loss) = loss {
                cfg.drop_prob = *loss;
            }
            if let Some(ber) = ber {
                cfg.bit_error_rate = *ber;
            }
            let report = pasta_server::run_loadgen(&cfg).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "multi-tenant transciphering service: {} devices, seed {}, simd backend {}",
                report.devices, report.seed, report.simd_backend
            );
            let _ = writeln!(
                out,
                "completed {}/{} intended ({} verified by decryption), p50 {} us, p99 {} us, {:.1} req/s",
                report.completed,
                report.requests_intended,
                report.correct,
                report.p50_latency_us,
                report.p99_latency_us,
                report.throughput_rps
            );
            let _ = writeln!(
                out,
                "refused: queue_full {}, budget {}, session {}, malformed {}; shed {}, worker faults {}, retries {}",
                report.refused_queue_full,
                report.refused_budget,
                report.refused_session,
                report.refused_malformed,
                report.shed_deadline,
                report.worker_faults,
                report.retries
            );
            if cfg.multiplex {
                let _ = writeln!(
                    out,
                    "multiplexed: {} bucket(s) for {} request(s); flushes full {} / deadline {} / drain {}; fill mean {} p50 {} permille",
                    report.mux_buckets,
                    report.mux_requests,
                    report.flush_full,
                    report.flush_deadline,
                    report.flush_drain,
                    report.mux_mean_fill_permille,
                    report.mux_p50_fill_permille
                );
            }
            out.push_str(&report.to_json());
            Ok(out)
        }
        Command::Info { params } => {
            let mut out = String::new();
            let _ = writeln!(out, "{params}");
            let _ = writeln!(out, "state size       : {} elements", params.state_size());
            let _ = writeln!(out, "block size       : {} elements", params.t());
            let _ = writeln!(out, "affine layers    : {}", params.affine_layers());
            let _ = writeln!(
                out,
                "XOF coefficients : {}/block",
                params.xof_coefficients_per_block()
            );
            let _ = writeln!(
                out,
                "ciphertext block : {} bytes",
                params.ciphertext_block_bytes()
            );
            let _ = writeln!(out, "sampler acceptance: {:.4}", params.acceptance_rate());
            Ok(out)
        }
    }
}

fn load_cipher(params: &PastaParams, path: &str) -> Result<PastaCipher, String> {
    let elements = read_elements(path, params)?;
    let key = SecretKey::from_elements(params, elements).map_err(|e| e.to_string())?;
    Ok(PastaCipher::new(*params, key))
}

fn read_elements(path: &str, params: &PastaParams) -> Result<Vec<u64>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let p = params.modulus().value();
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let v: u64 = l
                .parse()
                .map_err(|_| format!("{path}: bad element '{l}'"))?;
            if v >= p {
                return Err(format!("{path}: element {v} >= modulus {p}"));
            }
            Ok(v)
        })
        .collect()
}

fn elements_to_text(elements: &[u64]) -> String {
    let mut out = String::with_capacity(elements.len() * 7);
    for e in elements {
        let _ = writeln!(out, "{e}");
    }
    out
}

fn write_or_return(path: Option<&str>, text: String) -> Result<String, String> {
    match path {
        Some(p) => {
            fs::write(p, &text).map_err(|e| format!("cannot write {p}: {e}"))?;
            Ok(format!("wrote {p}\n"))
        }
        None => Ok(text),
    }
}

/// Bit-packs elements in the wire format (used to rebuild a ciphertext
/// value from an element file).
fn pack(params: &PastaParams, elements: &[u64]) -> Vec<u8> {
    let bits = params.modulus().bits() as usize;
    let mut out = vec![0u8; (elements.len() * bits).div_ceil(8)];
    for (i, &v) in elements.iter().enumerate() {
        for b in 0..bits {
            if (v >> b) & 1 == 1 {
                let pos = i * bits + b;
                out[pos / 8] |= 1 << (pos % 8);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pasta-cli-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn keygen_encrypt_decrypt_roundtrip() {
        let key_path = tmp("key.txt");
        let msg_path = tmp("msg.txt");
        let ct_path = tmp("ct.txt");
        let out = run(&[
            "keygen",
            "--params",
            "pasta4-17",
            "--seed",
            "cli",
            "--out",
            &key_path,
        ])
        .unwrap();
        assert!(out.contains("wrote"));

        fs::write(&msg_path, "1\n2\n3\n65000\n").unwrap();
        let _ = run(&[
            "encrypt",
            "--params",
            "pasta4-17",
            "--key",
            &key_path,
            "--nonce",
            "7",
            "--input",
            &msg_path,
            "--output",
            &ct_path,
        ])
        .unwrap();
        let decrypted = run(&[
            "decrypt",
            "--params",
            "pasta4-17",
            "--key",
            &key_path,
            "--nonce",
            "7",
            "--input",
            &ct_path,
        ])
        .unwrap();
        assert_eq!(decrypted, "1\n2\n3\n65000\n");
    }

    #[test]
    fn keystream_is_deterministic() {
        let key_path = tmp("ks-key.txt");
        let _ = run(&[
            "keygen",
            "--params",
            "pasta4-17",
            "--seed",
            "ks",
            "--out",
            &key_path,
        ])
        .unwrap();
        let a = run(&[
            "keystream",
            "--params",
            "pasta4-17",
            "--key",
            &key_path,
            "--nonce",
            "1",
            "--count",
            "40",
        ])
        .unwrap();
        let b = run(&[
            "keystream",
            "--params",
            "pasta4-17",
            "--key",
            &key_path,
            "--nonce",
            "1",
            "--count",
            "40",
        ])
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 40);
    }

    #[test]
    fn simulate_and_area_and_info() {
        let sim = run(&["simulate", "--params", "pasta4-17", "--blocks", "3"]).unwrap();
        assert!(sim.contains("average cycles/block"), "{sim}");
        assert!(sim.contains("ASIC"), "{sim}");
        let area = run(&["area", "--params", "pasta4-17"]).unwrap();
        assert!(area.contains("64 DSP"), "{area}");
        assert!(area.contains("0.240 mm^2"), "{area}");
        let info = run(&["info"]).unwrap();
        assert!(info.contains("640/block"), "{info}");
    }

    #[test]
    fn pipeline_prints_delivery_summary() {
        // Tiny frames keep this fast: 8 pixels/frame through a lossy link.
        let out = run(&[
            "pipeline",
            "--params",
            "pasta4-17",
            "--loss",
            "0.1",
            "--ber",
            "1e-5",
            "--seed",
            "3",
            "--frames",
            "4",
            "--pixels",
            "8",
            "--fps",
            "30",
        ])
        .unwrap();
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("fps effective"), "{out}");
        assert!(out.contains("seed 3"), "{out}");
        // Determinism: the same seed prints the same report.
        let again = run(&[
            "pipeline",
            "--params",
            "pasta4-17",
            "--loss",
            "0.1",
            "--ber",
            "1e-5",
            "--seed",
            "3",
            "--frames",
            "4",
            "--pixels",
            "8",
            "--fps",
            "30",
        ])
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn io_errors_are_reported() {
        let e = run(&[
            "encrypt",
            "--params",
            "pasta4-17",
            "--key",
            "/nonexistent/key",
            "--nonce",
            "1",
            "--input",
            "/nonexistent/in",
        ])
        .unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
        let bad = tmp("bad.txt");
        fs::write(&bad, "99999999\n").unwrap();
        let key_path = tmp("err-key.txt");
        let _ = run(&[
            "keygen",
            "--params",
            "pasta4-17",
            "--seed",
            "e",
            "--out",
            &key_path,
        ])
        .unwrap();
        let e = run(&[
            "encrypt",
            "--params",
            "pasta4-17",
            "--key",
            &key_path,
            "--nonce",
            "1",
            "--input",
            &bad,
        ])
        .unwrap_err();
        assert!(e.contains(">= modulus"), "{e}");
    }

    #[test]
    fn comments_and_blanks_in_element_files() {
        let p = tmp("comments.txt");
        fs::write(&p, "# header\n1\n\n2\n").unwrap();
        let params = pasta_core::PastaParams::pasta4_17bit();
        assert_eq!(read_elements(&p, &params).unwrap(), vec![1, 2]);
    }
}
