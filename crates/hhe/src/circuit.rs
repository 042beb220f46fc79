//! The PASTA decryption circuit under FHE, written once for every
//! slot-wise server mode.
//!
//! Slot `s` of a pass evaluates the block `per_slot[s mod k]`, with
//! `k = per_slot.len().next_power_of_two()` (see [`crate::mux`],
//! *Periodic layout*). The scalar pass ([`crate::HheServer::transcipher`])
//! runs one block per pass: at `k = 1` every plaintext is a constant
//! polynomial, so a weight multiply is a scalar multiply and the pass is
//! the per-element circuit, bit for bit. The mux pass
//! ([`crate::HheServer::transcipher_mux`]) runs a whole bucket per pass
//! over its composed key.

use crate::cache::BlockEntry;
use pasta_core::PastaParams;
use pasta_fhe::{
    BatchEncoder, BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError,
    PreparedCiphertext,
};

/// Evaluates the keystream circuit over the `2t` key ciphertexts `key`
/// and returns the `t` ciphertexts of `KS = X_L` after the final affine
/// layer.
///
/// Per round `i < r`: the affine layer `A_i` on both halves, Mix, then
/// the Feistel S-box; in the last round, drop `X_R` (truncation keeps
/// `X_L` only) and cube `X_L`. Finally `A_r` on `X_L`.
///
/// # Errors
///
/// Returns [`FheError::Incompatible`] on an empty key half; propagates
/// FHE errors from the squarings.
pub(crate) fn keystream(
    ctx: &BfvContext,
    params: &PastaParams,
    encoder: &BatchEncoder,
    relin_key: &BfvRelinKey,
    per_slot: &[BlockEntry],
    key: &[FheCiphertext],
) -> Result<Vec<FheCiphertext>, FheError> {
    let rounds = params.rounds();
    let (left, right) = key.split_at(params.t().min(key.len()));
    let mut left = left.to_vec();
    let mut right = right.to_vec();
    for i in 0..rounds {
        left = affine_half(ctx, encoder, per_slot, i, true, left)?;
        right = affine_half(ctx, encoder, per_slot, i, false, right)?;
        mix(ctx, &mut left, &mut right)?;
        if i < rounds - 1 {
            feistel(ctx, relin_key, &mut left, &mut right)?;
        } else {
            // The right half is dead from here on; free it before the
            // cubes.
            right.clear();
            left = cube(ctx, relin_key, &left)?;
        }
    }
    affine_half(ctx, encoder, per_slot, rounds, true, left)
}

/// One affine layer-half: output row `i` is `Σ_j W_ij ⊙ x_j + rc_i`,
/// where slot `s` of the plaintexts `W_ij` and `rc_i` carries block
/// `s mod k`'s matrix entry `(i, j)` and round constant `i`. Each input
/// `x_j` is consumed into its NTT- and Shoup-prepared form once for the
/// `t` rows that read it; each `W_ij` is periodic-encoded, multiplied
/// once and dropped; `rc_i` enters as `Δ·m` only. The rows fan out
/// across the worker pool (`PASTA_THREADS`), bit-exact for any thread
/// count.
fn affine_half(
    ctx: &BfvContext,
    encoder: &BatchEncoder,
    per_slot: &[BlockEntry],
    layer: usize,
    is_left: bool,
    half: Vec<FheCiphertext>,
) -> Result<Vec<FheCiphertext>, FheError> {
    if half.is_empty() {
        return Err(FheError::Incompatible(
            "affine layer applied to an empty state half".into(),
        ));
    }
    let rows: Vec<usize> = (0..half.len()).collect();
    let mut cells: Vec<(Option<FheCiphertext>, Option<PreparedCiphertext>)> =
        half.into_iter().map(|ct| (Some(ct), None)).collect();
    pasta_par::parallel_for_each_mut(&mut cells, |_, (ct, prepared)| {
        *prepared = ct.take().map(|ct| ctx.prepare_ciphertext(ct));
    });
    let inputs: Vec<PreparedCiphertext> = cells.into_iter().filter_map(|(_, p)| p).collect();
    pasta_par::parallel_map(&rows, |_, &i| -> Result<FheCiphertext, FheError> {
        let mut slots = vec![0u64; per_slot.len()];
        let mut acc = ctx.zero_ntt_ct();
        for (j, x) in inputs.iter().enumerate() {
            for (v, block) in slots.iter_mut().zip(per_slot) {
                let m = &block.matrices[layer];
                *v = if is_left {
                    m.left.get(i, j)
                } else {
                    m.right.get(i, j)
                };
            }
            ctx.add_mul_periodic_assign(&mut acc, x, &encoder.encode_periodic(&slots))?;
        }
        ctx.to_coeff_ct(&mut acc);
        for (v, block) in slots.iter_mut().zip(per_slot) {
            let l = &block.material.layers[layer];
            *v = if is_left { l.rc_left[i] } else { l.rc_right[i] };
        }
        ctx.add_plain_assign(&mut acc, &encoder.encode_periodic(&slots).expand());
        Ok(acc)
    })
    .into_iter()
    .collect()
}

/// Mix: `(2L + R, 2R + L)` element-wise with additions only.
fn mix(
    ctx: &BfvContext,
    left: &mut [FheCiphertext],
    right: &mut [FheCiphertext],
) -> Result<(), FheError> {
    for (l, r) in left.iter_mut().zip(right.iter_mut()) {
        let mut sum = l.clone();
        ctx.add_assign(&mut sum, r)?;
        ctx.add_assign(l, &sum)?;
        ctx.add_assign(r, &sum)?;
    }
    Ok(())
}

/// Feistel S-box over the concatenated state `X_L ‖ X_R`:
/// `y_0 = x_0`, `y_j = x_j + x_{j-1}²` on input values. The squarings
/// (ciphertext × ciphertext products — the expensive part of the
/// circuit) fan out across the worker pool.
fn feistel(
    ctx: &BfvContext,
    relin_key: &BfvRelinKey,
    left: &mut [FheCiphertext],
    right: &mut [FheCiphertext],
) -> Result<(), FheError> {
    // Targets are taken from the top down, a few squares per worker at
    // a time: every square reads an input no add has touched yet, and
    // only one chunk of squares is held next to the state.
    let chunk = 4 * pasta_par::threads();
    let mut hi = left.len() + right.len();
    while hi > 1 {
        let lo = hi.saturating_sub(chunk).max(1);
        let inputs: Vec<&FheCiphertext> = left.iter().chain(right.iter()).collect();
        let squares: Vec<FheCiphertext> =
            pasta_par::parallel_map(&inputs[lo - 1..hi - 1], |_, x| {
                ctx.square_relin(x, relin_key)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let targets = left.iter_mut().chain(right.iter_mut()).skip(lo);
        for (y, sq) in targets.zip(&squares) {
            ctx.add_assign(y, sq)?;
        }
        hi = lo;
    }
    Ok(())
}

/// The last round's cube S-box, `x³ = relin(x²)·x` relinearized again,
/// on the left half only. The cube is element-wise, and truncation keeps
/// `KS = X_L` after `A_r` (which mixes `X_L` alone), so the right half's
/// cube never reaches the output and is not evaluated. The cubes fan out
/// across the worker pool.
fn cube(
    ctx: &BfvContext,
    relin_key: &BfvRelinKey,
    left: &[FheCiphertext],
) -> Result<Vec<FheCiphertext>, FheError> {
    pasta_par::parallel_map(left, |_, x| {
        let sq = ctx.square_relin(x, relin_key)?;
        ctx.mul_relin(&sq, x, relin_key)
    })
    .into_iter()
    .collect()
}
