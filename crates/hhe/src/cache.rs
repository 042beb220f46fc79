//! Plaintext-material caching for the transciphering hot path.
//!
//! Everything the homomorphic PASTA evaluation consumes besides the
//! encrypted key is *public* and a pure function of
//! `(params, nonce, counter)`: the per-block affine matrices and round
//! constants. Their BFV plaintext encodings (batch-encode, lift, forward
//! NTT) are deliberately **not** cached: every server mode builds each
//! such plaintext inside the task that consumes it and drops it after
//! one multiply–accumulate, because a session nonce is never accepted
//! twice — a cache keyed by it never hits, and keeping prepared
//! polynomials resident cost gigabytes at the paper's parameters.
//!
//! [`MaterialCache`] memoizes the two shapes that are small or do
//! recur, behind small LRU sections:
//!
//! - **blocks** — [`BlockEntry`]: the raw [`BlockMaterial`] plus the
//!   materialized per-layer matrices, keyed by
//!   `(PastaParams, nonce, counter)`. Shared by all server modes (the
//!   SIMD evaluators read their per-slot matrix entries from here), and
//!   a hit whenever one block is evaluated more than once — e.g. a
//!   retransmitted frame transciphered again.
//! - **composed keys** — [`ComposedKeyEntry`]: the slot-masked,
//!   cross-tenant key ciphertexts of one multiplexing bucket
//!   composition, keyed by [`CompositionKey`] (the ordered
//!   `(tenant, blocks)` slot layout, which recurs under steady load).
//!
//! Both sections are byte-budgeted: entries carry an approximate
//! resident size (`approx_*_bytes`) and eviction fires on *either* the
//! entry-count cap or the section's byte cap.
//!
//! Invalidation rules: entries never go stale — the material is a
//! deterministic function of its key, so the only eviction is LRU
//! capacity pressure. Keys embed the full [`PastaParams`] (and, for
//! composed keys, [`BfvParams`]), so one cache instance can be shared
//! by servers with different parameter sets, and by all server modes at
//! once (pass the same [`std::sync::Arc`] to each server's `with_cache`).
//!
//! Concurrency: each section is guarded by a [`Mutex`]; a miss builds
//! the entry while holding the section lock (deliberate — concurrent
//! callers for the same key would otherwise duplicate an expensive
//! derivation). Entries are returned as [`Arc`]s so evaluation proceeds
//! lock-free after lookup.

use pasta_core::matrix::RowGenerator;
use pasta_core::permutation::{derive_block_material, BlockMaterial};
use pasta_core::PastaParams;
use pasta_fhe::{BfvParams, Ciphertext as FheCiphertext};
use pasta_math::linalg::Matrix;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key for raw block material: the PASTA instance plus the block
/// coordinates. (The material does not depend on any FHE parameter.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockKey {
    /// The PASTA parameter set the material was derived for.
    pub pasta: PastaParams,
    /// Session nonce.
    pub nonce: u128,
    /// Block counter.
    pub counter: u64,
}

/// The two materialized matrices of one affine layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMatrices {
    /// Left-half matrix `M_L`.
    pub left: Matrix,
    /// Right-half matrix `M_R`.
    pub right: Matrix,
}

/// Cached per-block public material: the XOF output plus the per-layer
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

/// Cache key for one multiplexing-bucket key composition: the ordered
/// slot layout of the bucket. Member `m` occupies `members[m].1` slots
/// starting at the prefix sum of the earlier members' block counts.
///
/// The tenant id stands in for the tenant's [`crate::EncryptedPastaKey`]
/// in the key: within one cache domain the binding `tenant → key` is
/// stable (a tenant provisions its key once), so two lookups with equal
/// layouts compose bit-identical ciphertexts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionKey {
    /// The PASTA parameter set (fixes the key length `2t`).
    pub pasta: PastaParams,
    /// The BFV parameters the masks were encoded under.
    pub bfv: BfvParams,
    /// `(tenant, blocks)` per member, in ascending slot order.
    pub members: Vec<(u64, usize)>,
}

/// The slot-masked cross-tenant key of one bucket composition: element
/// `j`'s slot `s` holds key element `j` of the member owning slot `s`
/// (and `0` in unassigned slots).
#[derive(Debug, Clone)]
pub struct ComposedKeyEntry {
    /// Composed key ciphertexts `K_0 … K_{2t−1}`.
    pub elements: Vec<FheCiphertext>,
}

/// Hit/miss counters for one cache section (or the aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the entry.
    pub misses: u64,
}

/// A tiny move-to-front LRU over a `Vec` — the working sets here are a
/// handful of entries, so linear scans beat a hash map plus ordering
/// side-structure. Each entry carries its approximate resident size;
/// eviction fires on the entry-count cap *or* the byte cap, always
/// keeping at least the most recent entry so a starved budget still
/// yields a working single-entry cache.
#[derive(Debug)]
struct Lru<K, V> {
    cap: usize,
    cap_bytes: usize,
    entries: Vec<(K, Arc<V>, usize)>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq + Clone, V> Lru<K, V> {
    fn new(cap: usize, cap_bytes: usize) -> Self {
        Lru {
            cap: cap.max(1),
            cap_bytes: cap_bytes.max(1),
            entries: Vec::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn get_or_insert_with(&mut self, key: &K, bytes: usize, build: impl FnOnce() -> V) -> Arc<V> {
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| k == key) {
            self.hits += 1;
            let entry = self.entries.remove(pos);
            let value = Arc::clone(&entry.1);
            self.entries.insert(0, entry);
            return value;
        }
        self.misses += 1;
        let value = Arc::new(build());
        self.entries
            .insert(0, (key.clone(), Arc::clone(&value), bytes));
        self.bytes += bytes;
        while self.entries.len() > 1
            && (self.entries.len() > self.cap || self.bytes > self.cap_bytes)
        {
            if let Some((_, _, freed)) = self.entries.pop() {
                self.bytes = self.bytes.saturating_sub(freed);
            }
        }
        value
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// Default capacity of the raw block-material section.
pub const DEFAULT_BLOCK_CAPACITY: usize = 256;
/// Default capacity of the composed-key section (one entry per live
/// bucket composition; compositions repeat under steady load).
pub const DEFAULT_COMPOSED_CAPACITY: usize = 8;

/// The shared plaintext-material cache (see the module docs).
#[derive(Debug)]
pub struct MaterialCache {
    blocks: Mutex<Lru<BlockKey, BlockEntry>>,
    composed: Mutex<Lru<CompositionKey, ComposedKeyEntry>>,
}

impl Default for MaterialCache {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The builders cannot panic in normal operation; if one ever does,
    // the cached data is still internally consistent (entries are only
    // inserted whole), so recover the guard instead of poisoning every
    // later transciphering call.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MaterialCache {
    /// A cache with the default per-section capacities.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacities(DEFAULT_BLOCK_CAPACITY, DEFAULT_COMPOSED_CAPACITY)
    }

    /// A cache with explicit per-section entry capacities (each clamped
    /// to at least one entry; byte caps unbounded).
    #[must_use]
    pub fn with_capacities(blocks: usize, composed: usize) -> Self {
        MaterialCache {
            blocks: Mutex::new(Lru::new(blocks, usize::MAX)),
            composed: Mutex::new(Lru::new(composed, usize::MAX)),
        }
    }

    /// A cache bounded by an approximate total byte budget: blocks get
    /// ¼, composed keys ¾ (a composed entry is `2t` ciphertexts, two
    /// orders of magnitude larger than a block entry). Entry counts are
    /// generous — the byte caps govern — and every section keeps at
    /// least its most recent entry, so a starved budget degrades to
    /// single-entry memoization instead of breaking.
    #[must_use]
    pub fn with_budget(budget_bytes: usize) -> Self {
        let budget = budget_bytes.max(1);
        let quarter = (budget / 4).max(1);
        MaterialCache {
            blocks: Mutex::new(Lru::new(4096, quarter)),
            composed: Mutex::new(Lru::new(1024, (budget - quarter).max(1))),
        }
    }

    /// The block material (and materialized matrices) for
    /// `(params, nonce, counter)`, derived on first use.
    #[must_use]
    pub fn block(&self, params: &PastaParams, nonce: u128, counter: u64) -> Arc<BlockEntry> {
        let key = BlockKey {
            pasta: *params,
            nonce,
            counter,
        };
        let bytes = approx_block_entry_bytes(params);
        lock(&self.blocks)
            .get_or_insert_with(&key, bytes, || BlockEntry::derive(params, nonce, counter))
    }

    /// The composed cross-tenant key for one bucket layout, built by
    /// `build` on a miss.
    #[must_use]
    pub fn composed_key(
        &self,
        key: &CompositionKey,
        build: impl FnOnce() -> ComposedKeyEntry,
    ) -> Arc<ComposedKeyEntry> {
        let bytes = approx_composed_key_bytes(&key.pasta, &key.bfv);
        lock(&self.composed).get_or_insert_with(key, bytes, build)
    }

    /// Aggregate hit/miss counters across both sections.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let (b, c) = (lock(&self.blocks).stats(), lock(&self.composed).stats());
        CacheStats {
            hits: b.hits + c.hits,
            misses: b.misses + c.misses,
        }
    }

    /// Approximate resident bytes across both sections.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        lock(&self.blocks).bytes + lock(&self.composed).bytes
    }
}

/// Approximate resident size (bytes) of one cached [`BlockEntry`] for a
/// parameter set: the materialized `2 · t × t` matrix rows per layer
/// dominate; seeds and round constants add `4t` words per layer.
///
/// This is the unit the sharded cache's memory budget is divided by, so
/// it only needs to be proportionally right, not byte-exact.
#[must_use]
pub fn approx_block_entry_bytes(params: &PastaParams) -> usize {
    let t = params.t();
    let layers = params.rounds() + 1;
    layers * (2 * t * t + 4 * t) * 8
}

/// Approximate resident size (bytes) of one BFV ciphertext (two ring
/// elements in RNS form).
#[must_use]
pub fn approx_ciphertext_bytes(bfv: &BfvParams) -> usize {
    2 * bfv.n * bfv.prime_count * 8
}

/// Approximate resident size (bytes) of one [`ComposedKeyEntry`]: `2t`
/// composed key ciphertexts.
#[must_use]
pub fn approx_composed_key_bytes(params: &PastaParams, bfv: &BfvParams) -> usize {
    params.state_size() * approx_ciphertext_bytes(bfv)
}

/// Configuration of a [`ShardedCache`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedCacheConfig {
    /// Total memory budget (bytes) across all resident tenant shards.
    /// Each shard is a [`MaterialCache::with_budget`] of the slice
    /// `budget_bytes / max_resident`, so both cache shapes — raw block
    /// entries and the multiplexer's composed keys — count against the
    /// budget.
    pub budget_bytes: usize,
    /// Maximum number of tenant shards kept resident; the least recently
    /// used shard beyond this is evicted whole.
    pub max_resident: usize,
}

impl Default for ShardedCacheConfig {
    fn default() -> Self {
        ShardedCacheConfig {
            budget_bytes: 64 << 20,
            max_resident: 64,
        }
    }
}

/// A per-tenant sharding layer over [`MaterialCache`].
///
/// A multi-tenant transciphering server cannot share one flat LRU: a
/// single tenant streaming fresh `(nonce, counter)` windows would evict
/// everyone else's material. Instead each tenant gets its *own*
/// [`MaterialCache`] shard whose capacity is a fixed slice of the
/// configured memory budget, and whole shards are LRU-evicted when more
/// than [`ShardedCacheConfig::max_resident`] tenants have resident
/// material. A tenant can therefore thrash only its own slice.
///
/// Shards are handed out as [`Arc`]s; an evicted shard's memory is
/// released once its last holder (e.g. an [`crate::HheServer`] that
/// swaps caches via [`crate::HheServer::set_cache`]) drops the `Arc`.
#[derive(Debug)]
pub struct ShardedCache {
    cfg: ShardedCacheConfig,
    shards: Mutex<ShardTable>,
}

/// MRU-ordered `(tenant, shard)` pairs plus the eviction counter.
#[derive(Debug, Default)]
struct ShardTable {
    entries: Vec<(u64, Arc<MaterialCache>)>,
    evictions: u64,
}

impl ShardedCache {
    /// Creates an empty sharded cache (capacities clamped to ≥ 1).
    #[must_use]
    pub fn new(cfg: ShardedCacheConfig) -> Self {
        ShardedCache {
            cfg: ShardedCacheConfig {
                budget_bytes: cfg.budget_bytes.max(1),
                max_resident: cfg.max_resident.max(1),
            },
            shards: Mutex::new(ShardTable::default()),
        }
    }

    /// The configuration the cache was built with.
    #[must_use]
    pub fn config(&self) -> &ShardedCacheConfig {
        &self.cfg
    }

    /// The tenant's shard, created on first use as a byte-budgeted
    /// [`MaterialCache`] over the per-tenant budget slice. Touching a
    /// shard moves it to the front of the eviction order; the least
    /// recently used shard beyond `max_resident` is evicted whole.
    #[must_use]
    pub fn shard(&self, tenant: u64) -> Arc<MaterialCache> {
        let mut guard = lock(&self.shards);
        let table = &mut *guard;
        if let Some(pos) = table.entries.iter().position(|(id, _)| *id == tenant) {
            let entry = table.entries.remove(pos);
            let shard = Arc::clone(&entry.1);
            table.entries.insert(0, entry);
            return shard;
        }
        let per_tenant = (self.cfg.budget_bytes / self.cfg.max_resident).max(1);
        let shard = Arc::new(MaterialCache::with_budget(per_tenant));
        table.entries.insert(0, (tenant, Arc::clone(&shard)));
        if table.entries.len() > self.cfg.max_resident {
            table.entries.truncate(self.cfg.max_resident);
            table.evictions += 1;
        }
        shard
    }

    /// Number of tenant shards currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        lock(&self.shards).entries.len()
    }

    /// Whole-shard evictions since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        lock(&self.shards).evictions
    }

    /// Aggregate hit/miss counters across every *resident* shard
    /// (evicted shards take their counters with them).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let guard = lock(&self.shards);
        let mut out = CacheStats::default();
        for (_, shard) in &guard.entries {
            let s = shard.stats();
            out.hits += s.hits;
            out.misses += s.misses;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_math::Modulus;

    fn params() -> PastaParams {
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
    }

    #[test]
    fn block_entries_are_memoized_and_bit_exact() {
        let cache = MaterialCache::new();
        let a = cache.block(&params(), 7, 3);
        let b = cache.block(&params(), 7, 3);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the entry");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A fresh derivation agrees exactly.
        assert_eq!(*a, BlockEntry::derive(&params(), 7, 3));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = MaterialCache::new();
        let a = cache.block(&params(), 7, 3);
        let b = cache.block(&params(), 7, 4);
        let c = cache.block(
            &PastaParams::custom(4, 3, Modulus::PASTA_17_BIT).unwrap(),
            7,
            3,
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(*a, *b);
        assert_ne!(
            a.matrices.len(),
            c.matrices.len(),
            "different rounds, different layers"
        );
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = MaterialCache::with_capacities(2, 1);
        let a0 = cache.block(&params(), 1, 0);
        let _ = cache.block(&params(), 1, 1);
        // Touch counter 0 so counter 1 is the LRU victim.
        let _ = cache.block(&params(), 1, 0);
        let _ = cache.block(&params(), 1, 2); // evicts counter 1
        let a0_again = cache.block(&params(), 1, 0);
        assert!(Arc::ptr_eq(&a0, &a0_again), "survivor must still be cached");
        let before = cache.stats().misses;
        let _ = cache.block(&params(), 1, 1); // was evicted: a miss
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn shards_are_per_tenant_and_reused() {
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: 1 << 20,
            max_resident: 4,
        });
        let a = sharded.shard(1);
        let a_again = sharded.shard(1);
        assert!(Arc::ptr_eq(&a, &a_again), "same tenant, same shard");
        let b = sharded.shard(2);
        assert!(!Arc::ptr_eq(&a, &b), "tenants must not share a shard");
        assert_eq!(sharded.resident(), 2);
        // Entries populated through one tenant's shard stay invisible to
        // the other tenant.
        let _ = a.block(&params(), 9, 0);
        assert_eq!(b.stats(), CacheStats::default());
        assert_eq!(sharded.stats().misses, 1);
    }

    #[test]
    fn lru_shard_eviction_bounds_residency() {
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: 1 << 20,
            max_resident: 2,
        });
        let one = sharded.shard(1);
        let _ = sharded.shard(2);
        let _ = sharded.shard(1); // touch: 2 becomes LRU
        let _ = sharded.shard(3); // evicts tenant 2
        assert_eq!(sharded.resident(), 2);
        assert_eq!(sharded.evictions(), 1);
        let one_again = sharded.shard(1);
        assert!(Arc::ptr_eq(&one, &one_again), "survivor keeps its shard");
        // Tenant 2 comes back as a *fresh* shard.
        let two = sharded.shard(2);
        assert_eq!(two.stats(), CacheStats::default());
    }

    #[test]
    fn shard_capacity_tracks_the_budget_slice() {
        let per_entry = approx_block_entry_bytes(&params());
        // Blocks get ¼ of the per-tenant slice; budget 24 entries across
        // 2 shards → 12 per tenant → cap 3 block entries.
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: per_entry * 24,
            max_resident: 2,
        });
        let shard = sharded.shard(7);
        for counter in 0..4 {
            let _ = shard.block(&params(), 1, counter);
        }
        // Counter 0 must have been evicted by byte pressure (cap 3).
        let before = shard.stats().misses;
        let _ = shard.block(&params(), 1, 0);
        assert_eq!(shard.stats().misses, before + 1, "cap must be 3");
        // A starved budget still yields a working 1-entry shard.
        let tiny = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: 1,
            max_resident: 1,
        });
        let s = tiny.shard(1);
        let _ = s.block(&params(), 1, 0);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn composed_keys_count_against_the_byte_budget() {
        let p = params();
        let bfv = BfvParams::test_tiny();
        let per_composed = approx_composed_key_bytes(&p, &bfv);
        // A budget whose composed-key slice (¾) holds exactly one
        // entry: a new bucket layout must evict the older one instead of
        // accumulating compositions invisibly.
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: per_composed * 4 / 3 + 4,
            max_resident: 1,
        });
        let shard = sharded.shard(3);
        let key = |blocks: usize| CompositionKey {
            pasta: p,
            bfv,
            members: vec![(1, blocks), (2, 3)],
        };
        let entry = || ComposedKeyEntry {
            elements: Vec::new(),
        };
        let a = shard.composed_key(&key(2), entry);
        let _ = shard.composed_key(&key(4), entry); // evicts layout 2 (bytes)
        assert_eq!(shard.approx_bytes(), per_composed);
        let misses = shard.stats().misses;
        let a_again = shard.composed_key(&key(2), entry);
        assert_eq!(shard.stats().misses, misses + 1, "layout 2 was evicted");
        assert!(!Arc::ptr_eq(&a, &a_again));
    }

    #[test]
    fn matrices_match_a_direct_row_generator() {
        let p = params();
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
