//! A from-scratch BFV fully homomorphic encryption substrate.
//!
//! The HHE workflow of the PASTA-on-Edge paper (Fig. 1) needs a server
//! that evaluates the PASTA *decryption circuit homomorphically*. The
//! original PASTA software uses Microsoft SEAL; nothing comparable is
//! available offline, so this crate implements the required subset of BFV
//! from first principles:
//!
//! - [`bigint`]: minimal multi-limb unsigned integers for decryption
//!   scaling, setup-time precomputation, and the bigint multiplication
//!   oracle;
//! - [`oracle`]: the exact big-integer multiplication, the reference
//!   the full-RNS path is checked against. Tests and benches build it
//!   from a context and call it directly; a context does not carry it;
//! - [`ntt`]: the negacyclic number-theoretic transform;
//! - [`ring`]: RNS polynomials over `Z_q[X]/(X^N + 1)`;
//! - [`rns_mul`]: BEHZ-style fast base conversion so ciphertext
//!   multiplication never leaves RNS;
//! - [`bfv`]: key generation, encryption, decryption, addition,
//!   plaintext/scalar multiplication, tensor-product ciphertext
//!   multiplication and RNS-decomposition relinearization, with an exact
//!   noise-budget meter;
//! - [`encoding`]: SIMD batching over `Z_t` slots (`t = 65537`).
//!
//! Parameters are sized for *functional* noise budgets, not security —
//! the paper's contribution is the client accelerator; the server side
//! here exists to run the end-to-end workflow. See DESIGN.md.
//!
//! # Examples
//!
//! ```
//! use pasta_fhe::{BfvContext, BfvParams};
//! use rand::SeedableRng;
//!
//! let ctx = BfvContext::new(BfvParams::test_tiny())?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sk = ctx.generate_secret_key(&mut rng);
//! let pk = ctx.generate_public_key(&sk, &mut rng);
//! let ct = ctx.encrypt(&pk, &ctx.encode_scalar(41), &mut rng);
//! let ct = ctx.add_plain(&ct, &ctx.encode_scalar(1));
//! assert_eq!(ctx.decrypt(&sk, &ct).scalar(), 42);
//! # Ok::<(), pasta_fhe::FheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfv;
pub mod bigint;
pub mod encoding;
mod galois_tests;
pub mod noise;
pub mod ntt;
pub mod oracle;
pub mod ring;
pub mod rns_mul;
pub mod scratch;

pub use bfv::{
    BfvContext, BfvGaloisKey, BfvParams, BfvPublicKey, BfvRelinKey, BfvSecretKey, Ciphertext,
    FheError, HoistedCiphertext, PeriodicPlaintext, Plaintext, PreparedCiphertext,
    PreparedPlaintext,
};
pub use encoding::BatchEncoder;
pub use noise::{suggest_bfv_params, NoiseModel};
pub use rns_mul::RnsMulContext;
