//! The PASTA permutation π (paper Fig. 2, §II.B).
//!
//! The permutation maps the secret key `K ∈ F_p^{2t}` to a keystream block
//! `KS ∈ F_p^t` under public per-block randomness derived from
//! `(nonce, counter)`:
//!
//! ```text
//! (X_L, X_R) ← K
//! for i in 0..r:
//!     X_L ← M_{i,L}·X_L + RC_{i,L};  X_R ← M_{i,R}·X_R + RC_{i,R}   (A_i)
//!     (X_L, X_R) ← (2X_L + X_R, 2X_R + X_L)                         (Mix)
//!     state ← S'(state)   for i < r-1,   S(state) for i = r-1       (S-box)
//! X_L ← M_{r,L}·X_L + RC_{r,L};  X_R ← M_{r,R}·X_R + RC_{r,R}       (A_r)
//! KS ← X_L                                                          (Trunc)
//! ```
//!
//! so there are `r + 1` affine layers, each with *independent* matrices
//! and round constants for the two halves — four XOF vectors per layer, in
//! the order `(seed_L, seed_R, rc_L, rc_R)` matching the Fig. 3 schedule
//! (`V_0 → M_0`, `V_1 → M_1`, `V_2/V_3 → VecAdd`).
//!
//! The Feistel S-box chains across the concatenated state `X_L ‖ X_R`
//! (all squares taken of *input* values, so the hardware can evaluate all
//! lanes in parallel).

use crate::layers;
use crate::matrix::RowGenerator;
use crate::params::{PastaError, PastaParams};
use crate::sampler::{SamplerStats, XofSampler};

/// The public per-block randomness of one affine layer, as drawn from the
/// XOF (used by the homomorphic evaluator, which must recompute exactly
/// the same material on the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineMaterial {
    /// Seed row of the left-half matrix (`α_0 ≠ 0`).
    pub seed_left: Vec<u64>,
    /// Seed row of the right-half matrix.
    pub seed_right: Vec<u64>,
    /// Round constant added to the left half.
    pub rc_left: Vec<u64>,
    /// Round constant added to the right half.
    pub rc_right: Vec<u64>,
}

/// All public randomness of one block: `r + 1` affine layers' material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMaterial {
    /// Per-affine-layer material, index `0..=r`.
    pub layers: Vec<AffineMaterial>,
    /// Rejection-sampling statistics for the block.
    pub stats: SamplerStats,
    /// Keccak permutations consumed for the block.
    pub keccak_permutations: u64,
}

/// Expands the XOF for `(nonce, counter)` into the full block material.
///
/// This is *public* data (paper Fig. 2: everything outside the box is
/// public): both the client and the server derive it identically.
#[must_use]
pub fn derive_block_material(params: &PastaParams, nonce: u128, counter: u64) -> BlockMaterial {
    let t = params.t();
    let mut sampler = XofSampler::for_block(params, nonce, counter);
    let layers = (0..params.affine_layers())
        .map(|_| AffineMaterial {
            seed_left: sampler.next_matrix_seed(t),
            seed_right: sampler.next_matrix_seed(t),
            rc_left: sampler.next_vector(t),
            rc_right: sampler.next_vector(t),
        })
        .collect();
    BlockMaterial {
        layers,
        stats: sampler.stats(),
        keccak_permutations: sampler.permutations(),
    }
}

/// A snapshot of the state after each layer, for cross-checking the
/// hardware datapath against the software reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationTrace {
    /// State (`X_L ‖ X_R`) after each affine layer, index `0..=r`.
    pub after_affine: Vec<Vec<u64>>,
    /// State after each Mix, index `0..r`.
    pub after_mix: Vec<Vec<u64>>,
    /// State after each S-box, index `0..r`.
    pub after_sbox: Vec<Vec<u64>>,
    /// The final truncated keystream block.
    pub keystream: Vec<u64>,
}

/// Applies π to `key` under the given block material, recording a trace.
///
/// # Errors
///
/// Returns [`PastaError::InvalidKey`] if the key length is not `2t`, or
/// [`PastaError::ElementOutOfRange`] if any key element is `≥ p`.
// audit: secret(key)
pub fn permute_with_trace(
    params: &PastaParams,
    key: &[u64],
    material: &BlockMaterial,
) -> Result<PermutationTrace, PastaError> {
    let t = params.t();
    // audit: allow(secret-branch, reason = "one-time import validation on the key length, independent of element values")
    if key.len() != params.state_size() {
        return Err(PastaError::InvalidKey {
            expected: params.state_size(),
            found: key.len(),
        });
    }
    let zp = params.field();
    // audit: allow(secret-branch, reason = "one-time canonicality check at key import, outside the per-block hot path; rejects malformed keys before any keystream exists")
    if let Some(&bad) = key.iter().find(|&&x| x >= zp.p()) {
        return Err(PastaError::ElementOutOfRange(bad));
    }
    debug_assert_eq!(material.layers.len(), params.affine_layers());

    // audit: secret
    let mut left = key[..t].to_vec();
    // audit: secret
    let mut right = key[t..].to_vec();
    let r = params.rounds();
    let mut trace = PermutationTrace {
        after_affine: Vec::with_capacity(r + 1),
        after_mix: Vec::with_capacity(r),
        after_sbox: Vec::with_capacity(r),
        keystream: Vec::new(),
    };

    for (i, layer) in material.layers.iter().enumerate() {
        layers::affine_streamed(
            &zp,
            &mut RowGenerator::new(zp, layer.seed_left.clone()),
            &mut left,
            &layer.rc_left,
        );
        layers::affine_streamed(
            &zp,
            &mut RowGenerator::new(zp, layer.seed_right.clone()),
            &mut right,
            &layer.rc_right,
        );
        trace.after_affine.push(concat(&left, &right));
        if i < r {
            layers::mix(&zp, &mut left, &mut right);
            trace.after_mix.push(concat(&left, &right));
            let mut full = concat(&left, &right);
            if i < r - 1 {
                layers::sbox_feistel(&zp, &mut full);
            } else {
                layers::sbox_cube(&zp, &mut full);
            }
            left.copy_from_slice(&full[..t]);
            right.copy_from_slice(&full[t..]);
            trace.after_sbox.push(full);
        }
    }
    trace.keystream = layers::truncate(&left);
    Ok(trace)
}

/// Applies π to `key` for `(nonce, counter)` and returns the keystream
/// block `KS ∈ F_p^t`.
///
/// # Errors
///
/// Same conditions as [`permute_with_trace`].
///
/// # Examples
///
/// ```
/// use pasta_core::{PastaParams, permutation::permute};
/// let params = PastaParams::pasta4_17bit();
/// let key = vec![1u64; params.state_size()];
/// let ks = permute(&params, &key, 123, 0)?;
/// assert_eq!(ks.len(), params.t());
/// # Ok::<(), pasta_core::PastaError>(())
/// ```
// audit: secret(key)
pub fn permute(
    params: &PastaParams,
    key: &[u64],
    nonce: u128,
    counter: u64,
) -> Result<Vec<u64>, PastaError> {
    let material = derive_block_material(params, nonce, counter);
    Ok(permute_with_trace(params, key, &material)?.keystream)
}

fn concat(left: &[u64], right: &[u64]) -> Vec<u64> {
    let mut v = Vec::with_capacity(left.len() + right.len());
    v.extend_from_slice(left);
    v.extend_from_slice(right);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PastaParams;
    use pasta_math::Modulus;
    use proptest::prelude::*;

    fn small_params() -> PastaParams {
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
    }

    #[test]
    fn material_has_expected_shape() {
        let params = PastaParams::pasta4_17bit();
        let m = derive_block_material(&params, 5, 9);
        assert_eq!(m.layers.len(), 5);
        for layer in &m.layers {
            assert_eq!(layer.seed_left.len(), 32);
            assert_eq!(layer.seed_right.len(), 32);
            assert_eq!(layer.rc_left.len(), 32);
            assert_eq!(layer.rc_right.len(), 32);
            assert_ne!(layer.seed_left[0], 0);
            assert_ne!(layer.seed_right[0], 0);
        }
        // PASTA-4 needs 640 accepted coefficients (§III.A); the nonzero
        // retry for matrix seeds may very rarely consume a couple more.
        assert!(
            (640..=644).contains(&m.stats.accepted),
            "accepted = {}",
            m.stats.accepted
        );
    }

    #[test]
    fn keystream_depends_on_all_inputs() {
        let params = small_params();
        let key = vec![3u64; 8];
        let base = permute(&params, &key, 1, 0).unwrap();
        assert_ne!(
            permute(&params, &key, 2, 0).unwrap(),
            base,
            "nonce must matter"
        );
        assert_ne!(
            permute(&params, &key, 1, 1).unwrap(),
            base,
            "counter must matter"
        );
        let mut key2 = key.clone();
        key2[0] = 4;
        assert_ne!(
            permute(&params, &key2, 1, 0).unwrap(),
            base,
            "key must matter"
        );
    }

    #[test]
    fn permutation_is_deterministic() {
        let params = PastaParams::pasta4_17bit();
        let key: Vec<u64> = (0..64).map(|i| i * 1_000 % 65_537).collect();
        assert_eq!(
            permute(&params, &key, 42, 7).unwrap(),
            permute(&params, &key, 42, 7).unwrap()
        );
    }

    #[test]
    fn trace_records_every_layer() {
        let params = small_params();
        let key = vec![1u64; 8];
        let material = derive_block_material(&params, 9, 9);
        let trace = permute_with_trace(&params, &key, &material).unwrap();
        assert_eq!(trace.after_affine.len(), 3); // r + 1 = 3
        assert_eq!(trace.after_mix.len(), 2);
        assert_eq!(trace.after_sbox.len(), 2);
        assert_eq!(trace.keystream.len(), 4);
        // The keystream is the left half of the final affine output.
        assert_eq!(trace.keystream[..], trace.after_affine[2][..4]);
    }

    #[test]
    fn bad_key_rejected() {
        let params = small_params();
        assert_eq!(
            permute(&params, &[1, 2, 3], 0, 0).unwrap_err(),
            PastaError::InvalidKey {
                expected: 8,
                found: 3
            }
        );
        let mut key = vec![0u64; 8];
        key[5] = 65_537;
        assert_eq!(
            permute(&params, &key, 0, 0).unwrap_err(),
            PastaError::ElementOutOfRange(65_537)
        );
    }

    #[test]
    fn distinct_keys_distinct_keystreams_injective_smoke() {
        // π is a bijection of the state before truncation; truncation
        // keeps t of 2t elements, so collisions are possible but
        // astronomically unlikely for distinct random keys.
        let params = small_params();
        let mut seen = std::collections::HashSet::new();
        for k in 0..20u64 {
            let key: Vec<u64> = (0..8).map(|i| (k * 7 + i) % 65_537).collect();
            let ks = permute(&params, &key, 11, 0).unwrap();
            assert!(seen.insert(ks), "keystream collision for key {k}");
        }
    }

    #[test]
    fn pasta3_block_consumes_about_186_keccak_calls() {
        // §IV.B: "the average number of Keccak calls as 186" for PASTA-3.
        let params = PastaParams::pasta3_17bit();
        let mut total = 0u64;
        let n = 5;
        for counter in 0..n {
            total += derive_block_material(&params, 0xABCD, counter).keccak_permutations;
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 186.0).abs() < 12.0, "average Keccak calls = {avg}");
    }

    #[test]
    fn pasta4_block_consumes_about_60_keccak_calls() {
        // §IV.B: "we require, on average, 60 Keccak permutation rounds".
        let params = PastaParams::pasta4_17bit();
        let mut total = 0u64;
        let n = 10;
        for counter in 0..n {
            total += derive_block_material(&params, 0x1234, counter).keccak_permutations;
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 60.0).abs() < 6.0, "average Keccak calls = {avg}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Truncation property the homomorphic evaluators rely on: the
        /// keystream is `A_{r,L}` applied to the left half of the last
        /// S-box output, so `X_R` after the final S-box (and `A_{r,R}`)
        /// never reaches `KS` and need not be evaluated.
        #[test]
        fn prop_keystream_reads_only_the_left_half_after_the_last_sbox(
            t in 2usize..9,
            r in 1usize..5,
            key_seed in any::<u64>(),
            nonce in any::<u128>(),
            counter in any::<u64>(),
        ) {
            let params = PastaParams::custom(t, r, Modulus::PASTA_17_BIT).unwrap();
            let key: Vec<u64> = (0..2 * t as u64)
                .map(|i| key_seed.wrapping_mul(i + 1).wrapping_add(i) % 65_537)
                .collect();
            let material = derive_block_material(&params, nonce, counter);
            let trace = permute_with_trace(&params, &key, &material).unwrap();
            let zp = params.field();
            let last = &material.layers[r];
            let mut left = trace.after_sbox[r - 1][..t].to_vec();
            layers::affine_streamed(
                &zp,
                &mut RowGenerator::new(zp, last.seed_left.clone()),
                &mut left,
                &last.rc_left,
            );
            prop_assert_eq!(&left, &trace.keystream);
        }
    }
}
