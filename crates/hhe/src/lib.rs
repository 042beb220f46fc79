//! End-to-end Hybrid Homomorphic Encryption (paper Fig. 1).
//!
//! Ties the PASTA client cipher (`pasta-core`) to the BFV server
//! substrate (`pasta-fhe`):
//!
//! - [`client`]: key provisioning (FHE-encrypt the PASTA key once),
//!   symmetric data encryption, and FHE result retrieval;
//! - [`server`]: homomorphic evaluation of the PASTA decryption circuit —
//!   the *transciphering* step that turns compact symmetric ciphertexts
//!   into FHE ciphertexts the cloud can compute on. One [`HheServer`]
//!   serves one FHE domain (one analyst keypair and its relinearization
//!   key); each call passes the client's encrypted PASTA key, and a pass
//!   carries either one block or a whole bucket;
//! - [`mux`]: the SIMD throughput mode (`N` blocks per ciphertext) —
//!   blocks from one session, or from *different* sessions and tenants
//!   via slot-masked key composition, packed into one shared pass;
//! - [`packed`]: the latency mode (one block per ciphertext via the
//!   rotation/diagonal method);
//! - [`link`]: the §V communication model (ciphertext sizes, 5G
//!   bandwidths, video frames/s) regenerating Fig. 8;
//! - [`cache`]: [`cache::BlockEntry`], one block's matrices and round
//!   constants, derived in the pass that reads them and never stored
//!   (no session nonce recurs). Nothing is kept across passes; the
//!   module's cache types are inert names the wall-clock benchmark
//!   builds against.
//!
//! # Examples
//!
//! A complete HHE round trip with a scaled-down PASTA instance:
//!
//! ```
//! use pasta_core::PastaParams;
//! use pasta_fhe::{BfvContext, BfvParams};
//! use pasta_hhe::{HheClient, HheServer};
//! use pasta_math::Modulus;
//! use rand::SeedableRng;
//!
//! let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT)?;
//! let ctx = BfvContext::new(BfvParams::test_tiny())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let fhe_sk = ctx.generate_secret_key(&mut rng);
//! let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
//! let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);
//!
//! let client = HheClient::new(params, b"seed");
//! let encrypted_key = client.provision_key(&ctx, &fhe_pk, &mut rng);
//! let server = HheServer::new(params, &ctx, relin)?;
//!
//! let message = vec![1u64, 2, 3, 4];
//! let pasta_ct = client.encrypt(42, &message)?;                        // tiny, fast
//! let fhe_cts = server.transcipher(&ctx, &encrypted_key, &pasta_ct)?;  // heavy, on the server
//! assert_eq!(client.retrieve(&ctx, &fhe_sk, &fhe_cts), message);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod circuit;
pub mod client;
pub mod link;
pub mod mux;
mod noise_proof;
pub mod packed;
pub mod server;

pub use cache::{MaterialCache, ShardedCache, ShardedCacheConfig};
pub use client::{EncryptedPastaKey, HheClient};
pub use link::{figure8, Fig8Point, PastaLink, Resolution, RiseReference};
pub use mux::{retrieve_muxed, MuxHheServer, MuxMember, MuxedBlocks, SlotRange};
pub use packed::{required_shifts, BsgsPlan, PackedHheServer};
pub use server::HheServer;
