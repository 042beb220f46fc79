//! Fault-tolerant edge-to-cloud transciphering pipeline.
//!
//! The paper's §V application (edge video surveillance over a mid-band
//! 5G uplink) assumes a perfect link. This crate holds the protocol
//! that carries the transciphering flow through an *imperfect* one and
//! makes the robustness story concrete:
//!
//! - [`channel`] — a deterministic, seedable lossy-link simulator
//!   (packet drop, bit-error rate, reordering, breathing bandwidth);
//! - [`wire`] — a framed wire protocol (nonce, block counter, length,
//!   CRC-32) so corruption is *detected*, never silently transciphered;
//! - [`edge`] — the sender, computing every keystream block through a
//!   `pasta_hw::fault` countermeasure so SASTA-style datapath faults are
//!   caught on-device before a corrupted block leaves the radio;
//! - [`pack`] — bit-packing of ciphertext elements into frame payloads;
//! - [`guard`] — the noise-budget pre-flight that consults
//!   `pasta_fhe::noise::NoiseModel` and refuses under-provisioned
//!   parameters with a structured error naming the prime count that
//!   would work;
//! - [`error`] — the error taxonomy and the typed refusal reasons a
//!   NACK carries.
//!
//! The session that drives these pieces end to end — stop-and-wait
//! ARQ, backoff, degradation, and FHE verification through the
//! transciphering service — is `pasta_server::uplink`, which sits above
//! this crate because the service already imports every module here.
//! Everything runs on a virtual clock from one seed, so every test and
//! CLI run replays bit-for-bit.

#![forbid(unsafe_code)]

pub mod channel;
pub mod crc;
pub mod edge;
pub mod error;
pub mod guard;
pub mod pack;
pub mod wire;

pub use channel::{ChannelConfig, Delivery, LossyChannel};
pub use edge::{EdgeEncryptor, ScheduledFault};
pub use error::{PipelineError, RefusalReason};
pub use guard::NoiseBudgetGuard;
pub use wire::{FrameError, FrameKind, WireFrame};
