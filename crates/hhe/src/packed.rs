//! Packed transciphering: one PASTA block in a *single* BFV ciphertext,
//! with the affine layers evaluated by the rotation/diagonal method.
//!
//! Where [`crate::mux`] spreads `N` blocks across the slots
//! (throughput), this module packs the `2t` state elements of **one**
//! block into `2t` *lanes* of one ciphertext (latency/minimum ciphertext
//! count — the original PASTA-SEAL evaluation strategy):
//!
//! - lanes are consecutive positions along one orbit of the Galois
//!   element `g = 3` on the batching slots, so `σ_{3^k}` acts as a
//!   cyclic lane shift by `k`;
//! - a matrix–vector product becomes the **diagonal method**:
//!   `M·v = Σ_k diag_k ⊙ rot_k(v)` — `2t` plaintext multiplications per
//!   affine layer (vs `(2t)²` scalar multiplications in scalar mode);
//! - Mix and the Feistel shift are lane rotations against a maintained
//!   *duplicate* copy of the state at lanes `2t..4t`;
//! - the Feistel S-box masks lane 0 with an indicator plaintext; its
//!   squarings ride the full-RNS multiplication of
//!   [`pasta_fhe::rns_mul`] like every server mode.
//!
//! The rotations are where the server time goes, and the evaluation
//! restructures them twice over:
//!
//! - **baby-step/giant-step**: writing `k = g·B + b` with
//!   `B = ⌈√(2t)⌉`, `M·v = Σ_g rot_{gB}(Σ_b E_{g,b} ⊙ rot_b(dup))`
//!   where `E_{g,b}` is diagonal `gB + b` pre-rotated *in plaintext* by
//!   `gB` — so a layer needs `B − 1` baby plus `⌈2t/B⌉ − 1` giant
//!   rotations, O(√t) key-switches instead of `2t − 1`;
//! - **hoisting**: the baby rotations all act on the *same* input, so
//!   its key-switch digit decomposition and forward NTTs are computed
//!   once ([`BfvContext::hoist`]) and each baby rotation degenerates to
//!   a slot permutation plus multiply–accumulate
//!   ([`BfvContext::apply_galois_hoisted`]).
//!
//! A pass is bit-deterministic for any `PASTA_THREADS`. The tests keep
//! the one-rotation-per-diagonal loop as the oracle the BSGS product is
//! checked against.
//!
//! The block's matrices are derived from the XOF in the pass that reads
//! them, and the diagonal plaintexts are single-use: each is
//! lane-encoded, lifted and forward-transformed inside the task that
//! multiplies it, then dropped. The Shoup companions sit on the operand
//! that is reused — each baby rotation, which every giant group reads.
//!
//! Correctness leans on one invariant: after every affine layer the
//! state is **masked** (zero outside lanes `0..2t`), so the garbage that
//! rotations drag in from other lanes/orbits is always cleared before it
//! can reach the output. The BSGS regrouping preserves it: `E_{g,b}` is
//! zero outside lanes `gB..gB+2t`, so each group's term is zero outside
//! lanes `0..2t` after its giant rotation.

use crate::cache::{BlockEntry, MaterialCache};
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{
    BatchEncoder, BfvContext, BfvGaloisKey, BfvRelinKey, BfvSecretKey, Ciphertext as FheCiphertext,
    FheError, Plaintext, PreparedCiphertext, PreparedPlaintext,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The `2t × 2t` matrix of one affine layer, as an entry lookup.
type LayerMatrix<'a> = dyn Fn(usize, usize) -> u64 + Sync + 'a;

/// The lane coordinate system: consecutive positions along the orbit of
/// slot 0 under `σ_3`.
#[derive(Debug, Clone)]
pub struct LaneLayout {
    /// `order[j]` = slot index of lane `j`.
    order: Vec<usize>,
    orbit_len: usize,
}

impl LaneLayout {
    /// Builds the layout from the encoder's `σ_3` slot permutation.
    #[must_use]
    pub fn new(encoder: &BatchEncoder) -> Self {
        let pi = encoder.automorphism_permutation(3);
        let mut order = vec![0usize];
        let mut pos = pi[0];
        while pos != 0 {
            order.push(pos);
            pos = pi[pos];
        }
        let orbit_len = order.len();
        LaneLayout { order, orbit_len }
    }

    /// Number of usable lanes (the orbit length).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.orbit_len
    }

    /// Encodes values into lanes `offset..offset+values.len()`
    /// (all other slots zero).
    ///
    /// # Panics
    ///
    /// Panics if the values run past the orbit.
    #[must_use]
    pub fn encode_lanes(&self, encoder: &BatchEncoder, values: &[u64], offset: usize) -> Plaintext {
        assert!(
            offset + values.len() <= self.orbit_len,
            "values exceed the lane orbit"
        );
        let mut slots = vec![0u64; encoder.slots()];
        for (j, &v) in values.iter().enumerate() {
            slots[self.order[offset + j]] = v;
        }
        encoder.encode(&slots)
    }

    /// Reads lanes `0..n` out of decoded slot values.
    #[must_use]
    pub fn decode_lanes(&self, slots: &[u64], n: usize) -> Vec<u64> {
        (0..n).map(|j| slots[self.order[j]]).collect()
    }
}

/// A transciphering server evaluating one block per ciphertext via
/// rotations.
#[derive(Debug)]
pub struct PackedHheServer {
    params: PastaParams,
    relin_key: BfvRelinKey,
    rot_keys: HashMap<usize, BfvGaloisKey>,
    encrypted_key: FheCiphertext,
    layout: LaneLayout,
    encoder: BatchEncoder,
    masks: Masks,
    /// Key-switches performed since construction (or the last
    /// [`PackedHheServer::reset_key_switch_count`]) — every
    /// [`BfvContext::apply_galois`] / hoisted rotation counts one.
    key_switches: AtomicU64,
}

/// Indicator plaintexts for the three lane windows the evaluation masks,
/// NTT-prepared once at setup.
#[derive(Debug)]
struct Masks {
    /// Lanes `0..2t`: clears the garbage Mix drags in.
    state: PreparedPlaintext,
    /// Lanes `1..2t`: the Feistel square skips lane 0.
    feistel: PreparedPlaintext,
    /// Lanes `0..t`: the final truncation.
    truncate: PreparedPlaintext,
}

/// The baby-step/giant-step split of a `2t`-diagonal matrix–vector
/// product: diagonal `k = g·B + b` with `b < B` (baby, hoisted) and
/// `g < G` (giant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsgsPlan {
    /// Diagonal count `2t`.
    pub width: usize,
    /// Baby-step count `B = ⌈√(2t)⌉`.
    pub baby: usize,
    /// Giant-step count `G = ⌈2t / B⌉`.
    pub giant: usize,
}

impl BsgsPlan {
    /// The plan for block size `t`.
    ///
    /// # Panics
    ///
    /// Panics for `t = 0`.
    #[must_use]
    pub fn new(t: usize) -> Self {
        assert!(t > 0, "block size must be positive");
        let width = 2 * t;
        let mut baby = 1usize;
        while baby * baby < width {
            baby += 1;
        }
        BsgsPlan {
            width,
            baby,
            giant: width.div_ceil(baby),
        }
    }

    /// Worst-case key-switch count per affine layer under this plan:
    /// `B − 1` hoisted baby rotations plus `G − 1` giant rotations
    /// (rotation 0 of each kind is free).
    #[must_use]
    pub fn key_switches_per_layer(&self) -> usize {
        (self.baby - 1) + (self.giant - 1)
    }
}

/// The lane shifts (realized as Galois elements `3^k mod 2N`) the packed
/// evaluation needs for block size `t` on an orbit of `orbit_len` lanes.
///
/// These are the baby shifts `1..B`, the giant shifts
/// `{g·B : 0 < g < G}`, the Mix shift `t`, the Feistel shift `2t − 1` and
/// the duplicate-refresh shift `orbit_len − 2t` — O(√t) keys, where one
/// rotation per diagonal would need `2t`.
#[must_use]
pub fn required_shifts(t: usize, orbit_len: usize) -> Vec<usize> {
    let plan = BsgsPlan::new(t);
    let mut shifts: Vec<usize> = (1..plan.baby.min(plan.width))
        .chain((1..plan.giant).map(|g| g * plan.baby))
        .chain([t, 2 * t - 1, orbit_len - 2 * t])
        .collect();
    shifts.sort_unstable();
    shifts.dedup();
    shifts
}

/// The Galois element `3^k mod 2N` that shifts the lanes by `k`.
fn shift_element(ctx: &BfvContext, k: usize) -> usize {
    let two_n = 2 * ctx.params().n;
    (0..k).fold(1, |g, _| (g * 3) % two_n)
}

impl PackedHheServer {
    /// Sets up the packed server: provisions the packed key ciphertext
    /// and generates the O(√t) rotation key set, exactly
    /// [`required_shifts`].
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if `4t` exceeds the lane orbit
    /// (the duplicate would not fit), or propagates key errors.
    pub fn new<R: rand::Rng>(
        params: PastaParams,
        ctx: &BfvContext,
        fhe_sk: &BfvSecretKey,
        key_elements: &[u64],
        rng: &mut R,
    ) -> Result<Self, FheError> {
        let encoder = BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n)
            .map_err(FheError::from)?;
        let layout = LaneLayout::new(&encoder);
        let t = params.t();
        if 4 * t > layout.lanes() {
            return Err(FheError::Incompatible(format!(
                "state 2t = {} needs 4t lanes but the orbit has only {}",
                2 * t,
                layout.lanes()
            )));
        }
        if key_elements.len() != params.state_size() {
            return Err(FheError::Incompatible("key length mismatch".into()));
        }
        let relin_key = ctx.generate_relin_key(fhe_sk, rng);
        let pk = ctx.generate_public_key(fhe_sk, rng);
        let packed = layout.encode_lanes(&encoder, key_elements, 0);
        let encrypted_key = ctx.encrypt(&pk, &packed, rng);
        let mut rot_keys = HashMap::new();
        for k in required_shifts(t, layout.lanes()) {
            rot_keys.insert(
                k,
                ctx.generate_galois_key(fhe_sk, shift_element(ctx, k), rng)?,
            );
        }
        let window = |from: usize, range: usize| {
            let ones = vec![1u64; range - from];
            ctx.prepare_plaintext(&layout.encode_lanes(&encoder, &ones, from))
        };
        let masks = Masks {
            state: window(0, 2 * t),
            feistel: window(1, 2 * t),
            truncate: window(0, t),
        };
        Ok(PackedHheServer {
            params,
            relin_key,
            rot_keys,
            encrypted_key,
            layout,
            encoder,
            masks,
            key_switches: AtomicU64::new(0),
        })
    }

    /// Returns the server unchanged and drops `cache`: a packed pass
    /// derives its block material and reads no cache. Kept only because
    /// the wall-clock benchmark (`perfbench`) builds against it.
    #[must_use]
    pub fn with_cache(self, _cache: Arc<MaterialCache>) -> Self {
        self
    }

    /// The packed, FHE-encrypted key as shipped by the client (exposed
    /// for size accounting: it is ONE ciphertext, vs `2t` in scalar
    /// mode).
    #[must_use]
    pub fn encrypted_key_size_bytes(&self, ctx: &BfvContext) -> usize {
        self.encrypted_key.size_bytes(ctx)
    }

    fn rot_key(&self, k: usize) -> Result<&BfvGaloisKey, FheError> {
        self.rot_keys
            .get(&k)
            .ok_or_else(|| FheError::Incompatible(format!("no rotation key for shift {k}")))
    }

    /// Lane rotation by `k`. The identity rotation is free: it returns a
    /// borrowed handle instead of cloning the `2·k·N` residue words of
    /// the ciphertext, so `rot_0` call sites cost nothing.
    fn rotate<'a>(
        &self,
        ctx: &BfvContext,
        ct: &'a FheCiphertext,
        k: usize,
    ) -> Result<Cow<'a, FheCiphertext>, FheError> {
        if k == 0 {
            return Ok(Cow::Borrowed(ct));
        }
        self.key_switches.fetch_add(1, Ordering::Relaxed);
        ctx.apply_galois(ct, self.rot_key(k)?).map(Cow::Owned)
    }

    /// Key-switches (classic and hoisted rotations) performed since
    /// construction or the last [`PackedHheServer::reset_key_switch_count`].
    #[must_use]
    pub fn key_switch_count(&self) -> u64 {
        self.key_switches.load(Ordering::Relaxed)
    }

    /// Resets the key-switch counter (instrumentation for tests and
    /// benches).
    pub fn reset_key_switch_count(&self) {
        self.key_switches.store(0, Ordering::Relaxed);
    }

    /// The nonzero diagonals of the `2t × 2t` layer matrix `bd`:
    /// `diag_k[j] = bd(j, (j + k) mod 2t)`, `None` where all-zero (the
    /// evaluation then skips that rotation/product entirely).
    fn diagonals(&self, bd: &LayerMatrix<'_>) -> Vec<Option<Vec<u64>>> {
        let width = 2 * self.params.t();
        (0..width)
            .map(|k| {
                let diag: Vec<u64> = (0..width).map(|j| bd(j, (j + k) % width)).collect();
                diag.iter().any(|&d| d != 0).then_some(diag)
            })
            .collect()
    }

    /// Evaluates one affine layer the pre-BSGS way: one key-switch per
    /// nonzero diagonal, each diagonal lane-encoded at offset 0 and
    /// multiplied once. Returns the coefficient-domain accumulator, or
    /// `None` if every diagonal was zero. The BSGS product's test oracle;
    /// it needs a rotation key for every diagonal shift `1..2t`.
    #[cfg(test)]
    fn eval_affine_naive(
        &self,
        ctx: &BfvContext,
        bd: &LayerMatrix<'_>,
        dup: &FheCiphertext,
    ) -> Result<Option<FheCiphertext>, FheError> {
        let mut acc: Option<FheCiphertext> = None;
        for (k, diag) in self.diagonals(bd).iter().enumerate() {
            let Some(diag) = diag else { continue };
            let rotated = ctx.prepare_ciphertext(self.rotate(ctx, dup, k)?.into_owned());
            let pt = self.layout.encode_lanes(&self.encoder, diag, 0);
            ctx.add_mul_plain_assign(acc.get_or_insert_with(|| ctx.zero_ntt_ct()), &rotated, &pt)?;
        }
        if let Some(a) = acc.as_mut() {
            ctx.to_coeff_ct(a);
        }
        Ok(acc)
    }

    /// Evaluates one affine layer by hoisted baby-step/giant-step:
    ///
    /// 1. hoist `dup` once (one digit decomposition + forward NTTs);
    /// 2. produce the `B` baby rotations from it (fanned over the worker
    ///    pool; each is a slot permutation + multiply–accumulate) and
    ///    Shoup-prepare each, since every giant group reads it;
    /// 3. per giant group `g`, encode each diagonal `k = g·B + b` at lane
    ///    offset `g·B` (the plaintext pre-rotation that lets one giant
    ///    rotation serve the whole group), multiply–accumulate it against
    ///    baby `b` and drop it, then apply the giant rotation (groups
    ///    fanned over the worker pool);
    /// 4. sum the group terms serially in ascending group order, so the
    ///    result is bit-identical for any `PASTA_THREADS`.
    fn eval_affine_bsgs(
        &self,
        ctx: &BfvContext,
        bd: &LayerMatrix<'_>,
        dup: &FheCiphertext,
    ) -> Result<Option<FheCiphertext>, FheError> {
        let plan = BsgsPlan::new(self.params.t());
        let diagonals = self.diagonals(bd);
        let diagonal =
            |g: usize, b: usize| diagonals.get(g * plan.baby + b).and_then(Option::as_ref);
        // A baby rotation is only worth computing if some group uses it.
        let needed: Vec<bool> = (0..plan.baby)
            .map(|b| (0..plan.giant).any(|g| diagonal(g, b).is_some()))
            .collect();
        let hoisted = ctx.hoist(dup)?;
        let baby_shifts: Vec<usize> = (0..plan.baby).collect();
        let babies: Vec<Option<PreparedCiphertext>> =
            pasta_par::parallel_map(&baby_shifts, |_, &b| -> Result<_, FheError> {
                if !needed[b] {
                    return Ok(None);
                }
                let baby = if b == 0 {
                    dup.clone()
                } else {
                    self.key_switches.fetch_add(1, Ordering::Relaxed);
                    ctx.apply_galois_hoisted(&hoisted, self.rot_key(b)?)?
                };
                Ok(Some(ctx.prepare_ciphertext(baby)))
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let giants: Vec<usize> = (0..plan.giant).collect();
        let terms: Vec<Option<FheCiphertext>> =
            pasta_par::parallel_map(&giants, |_, &g| -> Result<_, FheError> {
                let shift = g * plan.baby;
                let mut acc: Option<FheCiphertext> = None;
                for (b, baby) in babies.iter().enumerate() {
                    let Some(diag) = diagonal(g, b) else { continue };
                    let baby = baby.as_ref().ok_or_else(|| {
                        FheError::Incompatible(
                            "BSGS baby rotation missing for a used diagonal".into(),
                        )
                    })?;
                    let pt = self.layout.encode_lanes(&self.encoder, diag, shift);
                    ctx.add_mul_plain_assign(
                        acc.get_or_insert_with(|| ctx.zero_ntt_ct()),
                        baby,
                        &pt,
                    )?;
                }
                let Some(mut acc) = acc else { return Ok(None) };
                ctx.to_coeff_ct(&mut acc);
                if shift != 0 {
                    acc = self.rotate(ctx, &acc, shift)?.into_owned();
                }
                Ok(Some(acc))
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let mut total: Option<FheCiphertext> = None;
        for term in terms.into_iter().flatten() {
            total = Some(match total {
                None => term,
                Some(acc) => ctx.add(&acc, &term)?,
            });
        }
        Ok(total)
    }

    /// `state + rot_{-(2t)}(state)`: refresh the duplicate copy at lanes
    /// `2t..4t` (valid only for a masked state).
    fn with_duplicate(
        &self,
        ctx: &BfvContext,
        masked: &FheCiphertext,
    ) -> Result<FheCiphertext, FheError> {
        let neg = self.layout.lanes() - 2 * self.params.t();
        ctx.add(masked, self.rotate(ctx, masked, neg)?.as_ref())
    }

    /// Homomorphically computes the keystream of one block, packed into
    /// lanes `0..t` of a single ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates FHE errors.
    pub fn keystream_packed(
        &self,
        ctx: &BfvContext,
        nonce: u128,
        counter: u64,
    ) -> Result<FheCiphertext, FheError> {
        let t = self.params.t();
        let r = self.params.rounds();
        let block = BlockEntry::derive(&self.params, nonce, counter);

        // The provisioned key ciphertext is already masked to lanes 0..2t.
        let mut state = self.encrypted_key.clone();
        for (i, (layer, mats)) in block
            .material
            .layers
            .iter()
            .zip(block.matrices.iter())
            .enumerate()
        {
            // Block-diagonal matrix BD = diag(M_L, M_R) evaluated by the
            // diagonal method over a window of 2t lanes (hoisted BSGS —
            // see module docs).
            let bd = |row: usize, col: usize| -> u64 {
                if row < t && col < t {
                    mats.left.get(row, col)
                } else if row >= t && col >= t {
                    mats.right.get(row - t, col - t)
                } else {
                    0
                }
            };
            let dup = self.with_duplicate(ctx, &state)?;
            let mut acc = self.eval_affine_bsgs(ctx, &bd, &dup)?.ok_or_else(|| {
                // Unreachable for the invertible matrices Eq. 1 generates,
                // but an all-zero layer must not panic the server.
                FheError::Incompatible("affine layer matrix has no nonzero diagonal".into())
            })?;
            let mut rc = layer.rc_left.clone();
            rc.extend_from_slice(&layer.rc_right);
            ctx.add_plain_assign(&mut acc, &self.layout.encode_lanes(&self.encoder, &rc, 0));
            state = acc;
            // state is masked here: every diagonal plaintext is zero
            // outside lanes 0..2t.

            if i < r {
                // Mix: (2L + R, 2R + L) = 2·state + rot_t(dup(state)).
                let dup = self.with_duplicate(ctx, &state)?;
                let swapped = self.rotate(ctx, &dup, t)?;
                let doubled = state.clone();
                ctx.add_assign(&mut state, &doubled)?;
                ctx.add_assign(&mut state, &swapped)?;
                // Mix dragged garbage into lanes >= 2t: re-mask before
                // the shift-dependent S-box.
                state = ctx.mul_plain_prepared(&state, &self.masks.state);
                if i < r - 1 {
                    // Feistel: y_j = x_j + x_{j-1}² (y_0 = x_0): shift
                    // the duplicate by 2t - 1 so lane j holds x_{j-1},
                    // square it, mask off lane 0, add.
                    let dup = self.with_duplicate(ctx, &state)?;
                    let shifted = self.rotate(ctx, &dup, 2 * t - 1)?;
                    let squared = ctx.square_relin(&shifted, &self.relin_key)?;
                    let masked_sq = ctx.mul_plain_prepared(&squared, &self.masks.feistel);
                    ctx.add_assign(&mut state, &masked_sq)?;
                } else {
                    // Cube on all lanes (garbage outside 0..2t is
                    // cleared by the next affine layer's diagonals).
                    let sq = ctx.square_relin(&state, &self.relin_key)?;
                    state = ctx.mul_relin(&sq, &state, &self.relin_key)?;
                }
            }
        }
        // Truncation: keep lanes 0..t.
        Ok(ctx.mul_plain_prepared(&state, &self.masks.truncate))
    }

    /// Transciphers block `counter` of a PASTA ciphertext: returns a
    /// single FHE ciphertext whose lanes `0..len` hold the block's
    /// message elements.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the ciphertext has no block
    /// `counter`; propagates FHE errors.
    pub fn transcipher_packed(
        &self,
        ctx: &BfvContext,
        pasta_ct: &PastaCiphertext,
        counter: u64,
    ) -> Result<FheCiphertext, FheError> {
        let t = self.params.t();
        let len = pasta_ct.len();
        let start = usize::try_from(counter)
            .ok()
            .and_then(|c| c.checked_mul(t))
            .filter(|&start| start < len)
            .ok_or_else(|| {
                FheError::Incompatible(format!(
                    "block {counter} is past the end of a {len}-element ciphertext"
                ))
            })?;
        let block = &pasta_ct.elements()[start..(start + t).min(len)];
        let ks = self.keystream_packed(ctx, pasta_ct.nonce(), counter)?;
        let mut out = ctx.encrypt_trivial(&self.layout.encode_lanes(&self.encoder, block, 0));
        ctx.sub_assign(&mut out, &ks)?;
        Ok(out)
    }

    /// Client-side: decode lanes `0..n` of a packed result.
    #[must_use]
    pub fn decode(
        &self,
        ctx: &BfvContext,
        sk: &BfvSecretKey,
        ct: &FheCiphertext,
        n: usize,
    ) -> Vec<u64> {
        let slots = self.encoder.decode(&ctx.decrypt(sk, ct));
        self.layout.decode_lanes(&slots, n)
    }

    /// Rotation-key count (the setup cost this mode trades for its
    /// single-ciphertext states).
    #[must_use]
    pub fn rotation_key_count(&self) -> usize {
        self.rot_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HheClient;
    use pasta_fhe::BfvParams;
    use pasta_math::Modulus;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct World {
        ctx: BfvContext,
        sk: BfvSecretKey,
        client: HheClient,
        server: PackedHheServer,
    }

    fn setup() -> World {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        // Generous modulus: rotations add key-switch noise and the
        // packed S-boxes spend extra plaintext masks.
        let bfv = BfvParams {
            prime_count: 8,
            ..BfvParams::test_tiny()
        };
        let ctx = BfvContext::new(bfv).unwrap();
        let mut rng = StdRng::seed_from_u64(0xACED);
        let sk = ctx.generate_secret_key(&mut rng);
        let client = HheClient::new(params, b"packed");
        let server = PackedHheServer::new(
            params,
            &ctx,
            &sk,
            client.cipher().key().expose_elements(),
            &mut rng,
        )
        .unwrap();
        World {
            ctx,
            sk,
            client,
            server,
        }
    }

    /// [`setup`] plus the rotation key of every diagonal shift `1..2t`,
    /// which the naive oracle needs beyond the BSGS key set.
    fn setup_with_diagonal_keys() -> World {
        let mut w = setup();
        let mut rng = StdRng::seed_from_u64(0xD1A6);
        for k in 1..2 * w.server.params.t() {
            if !w.server.rot_keys.contains_key(&k) {
                let key = w
                    .ctx
                    .generate_galois_key(&w.sk, shift_element(&w.ctx, k), &mut rng)
                    .unwrap();
                w.server.rot_keys.insert(k, key);
            }
        }
        w
    }

    #[test]
    fn lane_layout_walks_one_orbit() {
        let encoder = BatchEncoder::new(Modulus::PASTA_17_BIT, 256).unwrap();
        let layout = LaneLayout::new(&encoder);
        assert!(layout.lanes() >= 16, "orbit of 3 must be large enough");
        // Lanes are distinct slots.
        let mut sorted = layout.order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), layout.lanes());
        // encode/decode round-trip through lanes.
        let values = vec![5u64, 6, 7, 8];
        let pt = layout.encode_lanes(&encoder, &values, 2);
        let decoded = encoder.decode(&pt);
        assert_eq!(layout.decode_lanes(&decoded, 2), vec![0, 0]);
        let got: Vec<u64> = (2..6).map(|j| decoded[layout.order[j]]).collect();
        assert_eq!(got, values);
    }

    #[test]
    fn rotation_is_a_lane_shift() {
        let w = setup();
        let values = vec![10u64, 20, 30, 40, 50, 60, 70, 80];
        let pt = w.server.layout.encode_lanes(&w.server.encoder, &values, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let pk = w.ctx.generate_public_key(&w.sk, &mut rng);
        let ct = w.ctx.encrypt(&pk, &pt, &mut rng);
        let rotated = w.server.rotate(&w.ctx, &ct, 3).unwrap();
        let lanes = w.server.decode(&w.ctx, &w.sk, &rotated, 5);
        // Lane j now holds the old lane j+3.
        assert_eq!(lanes, vec![40, 50, 60, 70, 80]);
    }

    #[test]
    fn packed_keystream_matches_plain() {
        let w = setup();
        w.server.reset_key_switch_count();
        let ks = w.server.keystream_packed(&w.ctx, 0xFEED, 0).unwrap();
        // t = 4, r = 2: three affine layers (each with one
        // duplicate-refresh rotation), two Mix (refresh + shift) and one
        // Feistel (refresh + shift). The block-diagonal layer matrix has
        // diag_t ≡ 0, so each layer spends (B - 1) + (G - 1) = 4 BSGS
        // switches.
        assert_eq!(w.server.key_switch_count(), 3 * (4 + 1) + 2 * 2 + 2);
        let decoded = w.server.decode(&w.ctx, &w.sk, &ks, 4);
        let expect = w.client.cipher().keystream_block(0xFEED, 0).unwrap();
        assert_eq!(
            decoded, expect,
            "packed evaluation must equal the plain keystream"
        );
        let budget = w.ctx.noise_budget(&w.sk, &ks);
        assert!(budget > 5, "noise budget after packed evaluation: {budget}");
    }

    #[test]
    fn packed_transcipher_roundtrip() {
        let w = setup();
        let message = vec![101u64, 202, 303, 404];
        let pasta_ct = w.client.encrypt(0xBEAD, &message).unwrap();
        let fhe_ct = w.server.transcipher_packed(&w.ctx, &pasta_ct, 0).unwrap();
        assert_eq!(w.server.decode(&w.ctx, &w.sk, &fhe_ct, 4), message);
        // The whole block is ONE ciphertext (vs t in scalar mode).
        assert_eq!(fhe_ct.components(), 2);
    }

    #[test]
    fn out_of_range_counter_is_refused() {
        let w = setup();
        // Two blocks of t = 4: counter 2 starts exactly at the end,
        // counter 3 past it.
        let ct = w.client.encrypt(0x0B, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        for counter in [2, 3, u64::MAX] {
            assert!(
                matches!(
                    w.server.transcipher_packed(&w.ctx, &ct, counter),
                    Err(FheError::Incompatible(_))
                ),
                "counter {counter}"
            );
        }
    }

    #[test]
    fn warm_cache_pass_is_bit_exact() {
        // Repeat-call determinism: the second call re-derives the block
        // and re-streams every diagonal, and must reproduce the first
        // bit for bit.
        let w = setup();
        let first = w.server.keystream_packed(&w.ctx, 0xF00D, 0).unwrap();
        let again = w.server.keystream_packed(&w.ctx, 0xF00D, 0).unwrap();
        assert_eq!(first, again, "streamed diagonals must be deterministic");
    }

    #[test]
    fn setup_validates_capacity() {
        // The orbit of 3 in (Z/2N)* has length 2^(log2(2N) - 2) = N/2,
        // so N = 256 gives 128 lanes: t = 64 (needs 4t = 256) must be
        // rejected, while PASTA-4's t = 32 (exactly 128) just fits.
        let bfv = BfvParams {
            prime_count: 4,
            ..BfvParams::test_tiny()
        }; // N = 256
        let ctx = BfvContext::new(bfv).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sk = ctx.generate_secret_key(&mut rng);
        let too_big = PastaParams::custom(64, 4, Modulus::PASTA_17_BIT).unwrap();
        let key = vec![0u64; too_big.state_size()];
        assert!(matches!(
            PackedHheServer::new(too_big, &ctx, &sk, &key, &mut rng),
            Err(FheError::Incompatible(_))
        ));
        // And a key-length mismatch is caught too.
        let ok_params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        assert!(matches!(
            PackedHheServer::new(ok_params, &ctx, &sk, &[1, 2, 3], &mut rng),
            Err(FheError::Incompatible(_))
        ));
    }

    #[test]
    fn rotation_key_budget() {
        // BSGS at t = 4 (orbit 128): babies {1, 2}, giants {3, 6}, Mix 4,
        // Feistel 7, duplicate refresh 120 — 7 keys, where one rotation
        // per diagonal would need 2t = 8.
        assert_eq!(setup().server.rotation_key_count(), 7);
    }

    #[test]
    fn bsgs_plan_is_square_root_sized() {
        let p = BsgsPlan::new(4); // width 8
        assert_eq!((p.baby, p.giant), (3, 3));
        assert_eq!(p.key_switches_per_layer(), 4);
        // The paper's PASTA-3 parameter set: t = 128, width 256.
        let p = BsgsPlan::new(128);
        assert_eq!((p.baby, p.giant), (16, 16));
        assert_eq!(p.key_switches_per_layer(), 30); // vs 2t - 1 = 255
                                                    // Every diagonal k < width is reachable as g·B + b.
        for t in [1usize, 2, 3, 4, 7, 32, 100, 128] {
            let p = BsgsPlan::new(t);
            assert!(p.baby * p.giant >= p.width);
            assert!((p.giant - 1) * p.baby < p.width, "empty trailing group");
        }
    }

    #[test]
    fn required_shifts_shrink_under_bsgs() {
        // t = 128 on the N = 1024 orbit (512 lanes): 15 babies + 15
        // giants (128 = 8·16 is already a giant) + Feistel 255 + refresh
        // 256 = 32 keys, vs 256 for one rotation per diagonal.
        let shifts = required_shifts(128, 512);
        assert_eq!(shifts.len(), 32);
        // Every shift but the refresh is a diagonal shift 1..2t.
        assert!(shifts
            .iter()
            .all(|&s| (1..256).contains(&s) || s == 512 - 256));
    }

    /// Evaluates `M·v` through the naive oracle and BSGS and checks each
    /// against the plaintext product; returns the key-switch counts.
    fn matvec_both_ways(w: &World, m: &[Vec<u64>], v: &[u64]) -> (u64, u64) {
        let zp = pasta_math::Zp::new(Modulus::PASTA_17_BIT).unwrap();
        let width = m.len();
        let expect: Vec<u64> = (0..width)
            .map(|r| (0..width).fold(0u64, |acc, c| zp.add(acc, zp.mul(m[r][c], v[c]))))
            .collect();
        let mut rng = StdRng::seed_from_u64(0x1157);
        let pk = w.ctx.generate_public_key(&w.sk, &mut rng);
        let pt = w.server.layout.encode_lanes(&w.server.encoder, v, 0);
        let ct = w.ctx.encrypt(&pk, &pt, &mut rng);
        let dup = w.server.with_duplicate(&w.ctx, &ct).unwrap();
        let bd = |r: usize, c: usize| m[r][c];

        w.server.reset_key_switch_count();
        let got = w
            .server
            .eval_affine_naive(&w.ctx, &bd, &dup)
            .unwrap()
            .unwrap();
        let naive_switches = w.server.key_switch_count();
        assert_eq!(
            w.server.decode(&w.ctx, &w.sk, &got, width),
            expect,
            "naive diagonal loop disagrees with the plaintext product"
        );

        w.server.reset_key_switch_count();
        let got = w
            .server
            .eval_affine_bsgs(&w.ctx, &bd, &dup)
            .unwrap()
            .unwrap();
        let bsgs_switches = w.server.key_switch_count();
        assert_eq!(
            w.server.decode(&w.ctx, &w.sk, &got, width),
            expect,
            "BSGS evaluation disagrees with the plaintext product"
        );
        w.server.reset_key_switch_count();
        (naive_switches, bsgs_switches)
    }

    #[test]
    fn bsgs_matmul_matches_naive_with_sqrt_key_switches() {
        let w = setup_with_diagonal_keys();
        let width = 2 * w.server.params.t();
        let mut rng = StdRng::seed_from_u64(0xB59);
        let m: Vec<Vec<u64>> = (0..width)
            .map(|_| (0..width).map(|_| rng.gen_range(1..65_537u64)).collect())
            .collect();
        let v: Vec<u64> = (0..width).map(|_| rng.gen_range(0..65_537u64)).collect();
        let (naive_switches, bsgs_switches) = matvec_both_ways(&w, &m, &v);
        // Dense matrix: the naive loop key-switches once per diagonal
        // k = 1..2t, the BSGS path (B - 1) + (G - 1) times.
        assert_eq!(naive_switches, (width - 1) as u64);
        let plan = BsgsPlan::new(w.server.params.t());
        assert_eq!(bsgs_switches, plan.key_switches_per_layer() as u64);
        assert!(bsgs_switches < naive_switches);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// BSGS and naive agree with the plaintext `M·v` on random
        /// matrices — including sparse ones that skip whole diagonals
        /// and BSGS groups.
        #[test]
        fn prop_bsgs_matmul_matches_naive(
            seed in 0u64..1_000_000,
            density in 1usize..=4,
        ) {
            let w = setup_with_diagonal_keys();
            let width = 2 * w.server.params.t();
            let mut rng = StdRng::seed_from_u64(seed);
            let m: Vec<Vec<u64>> = (0..width)
                .map(|_| {
                    (0..width)
                        .map(|_| {
                            if rng.gen_range(0..4usize) < density {
                                rng.gen_range(0..65_537u64)
                            } else {
                                0
                            }
                        })
                        .collect()
                })
                .collect();
            let v: Vec<u64> = (0..width).map(|_| rng.gen_range(0..65_537u64)).collect();
            let (_, bsgs_switches) = matvec_both_ways(&w, &m, &v);
            let plan = BsgsPlan::new(w.server.params.t());
            proptest::prop_assert!(
                bsgs_switches <= plan.key_switches_per_layer() as u64
            );
        }
    }
}
