//! Block material, and the inert cache names the wall-clock benchmark
//! builds against.
//!
//! Everything the homomorphic PASTA evaluation consumes besides the
//! encrypted key is *public* and a pure function of
//! `(params, nonce, counter)`: the per-block affine matrices and round
//! constants. None of it is cached. Every server mode derives a block's
//! [`BlockEntry`] from the XOF in the pass that reads it, and builds
//! each BFV plaintext encoding (batch-encode, lift, forward NTT) inside
//! the task that consumes it, dropping both after use — the paper's
//! MatGen feeds MatMul the same way (Fig. 3). A session nonce is never
//! accepted twice, so a cache keyed by it would never hit.
//!
//! The mux's composed key is not cached either: each pass builds it
//! (see [`crate::mux`]), since a bucket's `(tenant, blocks)` layout
//! almost never recurs. [`MaterialCache`], [`ShardedCache`],
//! [`ShardedCacheConfig`] and [`CacheStats`] hold nothing and count
//! nothing; they stay only because the wall-clock benchmark
//! (`perfbench`) builds against these names.

use pasta_core::matrix::RowGenerator;
use pasta_core::permutation::{derive_block_material, BlockMaterial};
use pasta_core::PastaParams;
use pasta_math::linalg::Matrix;
use std::sync::Arc;

/// The two materialized matrices of one affine layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMatrices {
    /// Left-half matrix `M_L`.
    pub left: Matrix,
    /// Right-half matrix `M_R`.
    pub right: Matrix,
}

/// One block's public material: the XOF output plus the per-layer
/// matrices materialized from the seed rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// The raw derived material (seeds, round constants, stats).
    pub material: BlockMaterial,
    /// `matrices[layer]` — materialized left/right matrices.
    pub matrices: Vec<LayerMatrices>,
}

impl BlockEntry {
    /// Derives the material and materializes every layer's matrices.
    #[must_use]
    pub fn derive(params: &PastaParams, nonce: u128, counter: u64) -> Self {
        let material = derive_block_material(params, nonce, counter);
        let zp = params.field();
        let matrices = material
            .layers
            .iter()
            .map(|layer| LayerMatrices {
                left: RowGenerator::new(zp, layer.seed_left.clone()).into_matrix(),
                right: RowGenerator::new(zp, layer.seed_right.clone()).into_matrix(),
            })
            .collect();
        BlockEntry { material, matrices }
    }
}

/// Hit/miss counters of the inert cache shims: always zero, since
/// nothing is cached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a cache (always 0).
    pub hits: u64,
    /// Lookups that had to build an entry (always 0).
    pub misses: u64,
}

/// An empty cache: it holds nothing. Kept only because the wall-clock
/// benchmark (`perfbench`) builds against the name.
#[derive(Debug, Default)]
pub struct MaterialCache;

/// Configuration of a [`ShardedCache`], ignored. Kept only because the
/// wall-clock benchmark (`perfbench`) builds against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedCacheConfig {
    /// Ignored.
    pub max_resident: usize,
}

/// An inert stand-in for the per-domain cache the service no longer
/// keeps: every shard is an empty [`MaterialCache`] and every counter
/// reads zero. Kept only because the wall-clock benchmark (`perfbench`)
/// builds against these names.
#[derive(Debug, Default)]
pub struct ShardedCache;

impl ShardedCache {
    /// The inert cache; `cfg` is ignored.
    #[must_use]
    pub fn new(_cfg: ShardedCacheConfig) -> Self {
        ShardedCache
    }

    /// An empty [`MaterialCache`] for any domain.
    #[must_use]
    pub fn shard(&self, _domain: u64) -> Arc<MaterialCache> {
        Arc::new(MaterialCache)
    }

    /// Zero hits and zero misses.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Zero evictions.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_math::Modulus;

    #[test]
    fn matrices_match_a_direct_row_generator() {
        let p = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        let entry = BlockEntry::derive(&p, 42, 9);
        let material = derive_block_material(&p, 42, 9);
        for (layer, mats) in material.layers.iter().zip(entry.matrices.iter()) {
            let left = RowGenerator::new(p.field(), layer.seed_left.clone()).into_matrix();
            assert_eq!(mats.left, left);
            let right = RowGenerator::new(p.field(), layer.seed_right.clone()).into_matrix();
            assert_eq!(mats.right, right);
        }
    }
}
