//! # PASTA on Edge — umbrella crate
//!
//! A full-stack Rust reproduction of *"PASTA on Edge: Cryptoprocessor for
//! Hybrid Homomorphic Encryption"* (DATE 2025). This crate re-exports the
//! workspace members so the examples and integration tests have a single
//! import root:
//!
//! - [`math`] — modular arithmetic over structured primes;
//! - [`keccak`] — Keccak-f\[1600\], SHAKE128/256 and the hardware XOF
//!   timing model;
//! - [`cipher`] — the PASTA-3/PASTA-4 stream cipher;
//! - [`hw`] — the cycle-accurate cryptoprocessor model with FPGA/ASIC
//!   area, power and performance models;
//! - [`fhe`] — a from-scratch BFV substrate;
//! - [`hhe`] — the end-to-end hybrid homomorphic encryption protocol;
//! - [`soc`] — an RV32IM SoC simulator with the PASTA peripheral;
//! - [`rasta`] — a binary HHE cipher for the binary-vs-integer study;
//! - [`pipeline`] — the fault-tolerant edge→cloud transciphering
//!   protocol over a simulated lossy link;
//! - [`server`] — the multi-tenant transciphering service, its load
//!   generator, and the edge uplink session that transciphers through
//!   it.
//!
//! # Examples
//!
//! ```
//! use pasta_edge::cipher::{PastaCipher, PastaParams, SecretKey};
//!
//! let params = PastaParams::pasta4_17bit();
//! let cipher = PastaCipher::new(params, SecretKey::from_seed(&params, b"k"));
//! let ct = cipher.encrypt(1, &[1, 2, 3])?;
//! assert_eq!(cipher.decrypt(&ct)?, vec![1, 2, 3]);
//! # Ok::<(), pasta_edge::cipher::PastaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pasta_core as cipher;
pub use pasta_fhe as fhe;
pub use pasta_hhe as hhe;
pub use pasta_hw as hw;
pub use pasta_keccak as keccak;
pub use pasta_math as math;
pub use pasta_pipeline as pipeline;
pub use pasta_rasta as rasta;
pub use pasta_server as server;
pub use pasta_soc as soc;
