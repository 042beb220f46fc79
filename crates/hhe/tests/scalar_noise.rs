//! Soundness of the scalar noise model at the paper's ring.
//!
//! Each paper parameter set runs one scalar-mode block on the ring the
//! admission guard's model suggests (N = 1024, 50-bit primes, the
//! guard's 12-bit margin). After every round the test decrypts the
//! state against the plaintext permutation trace and holds the model's
//! per-round prediction ([`transcipher_round_noise`]) to the measured
//! budget: never above it, and not more than [`SLACK_BITS`] below it.
//!
//! The rounds are replayed through the public `BfvContext` ops of the
//! coefficient-domain circuit: each affine row is a chain of
//! `mul_scalar` + `add_assign`. The server no longer runs that code: it
//! evaluates the slot-parallel circuit with one slot, whose constant
//! weight plaintexts it multiplies in the NTT domain. The replay is
//! therefore an independent oracle. Its output must equal
//! [`HheServer::keystream_encrypted`] bit for bit, so the per-round
//! measurements are those of the server's own circuit.

use pasta_core::permutation::permute_with_trace;
use pasta_core::PastaParams;
use pasta_fhe::noise::{suggest_prime_count, transcipher_round_noise};
use pasta_fhe::{BfvContext, BfvParams, BfvRelinKey, BfvSecretKey, Ciphertext, NoiseModel};
use pasta_hhe::cache::BlockEntry;
use pasta_hhe::{HheClient, HheServer};
use pasta_math::linalg::Matrix;
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The admission guard's default margin (`NoiseBudgetGuard::default()`).
const MARGIN_BITS: f64 = 12.0;

/// How far the worst-case model may trail the measured budget after any
/// round. It is a triangle-inequality bound on the ∞-norm, so it is
/// pessimistic by the gap between worst-case and typical growth, which
/// compounds through the S-box products: the gap grows from ≈ 24 bits
/// after the first round to ≈ 55 (PASTA-4) and ≈ 50 (PASTA-3) at the
/// end of the block.
const SLACK_BITS: f64 = 64.0;

const NONCE: u128 = 0x5CA1_AB1E;

/// `out_i = Σ_j M_ij·ct_j + rc_i` in the coefficient domain: scalar
/// multiplies, chained adds, then `Δ·rc_i` on the constant coefficient.
fn affine(ctx: &BfvContext, half: &[Ciphertext], m: &Matrix, rc: &[u64]) -> Vec<Ciphertext> {
    let rows: Vec<usize> = (0..half.len().min(rc.len())).collect();
    pasta_par::parallel_map(&rows, |_, &i| {
        let row = m.row(i);
        let mut acc = ctx.mul_scalar(&half[0], row[0]);
        for (ct, &coef) in half.iter().zip(row).skip(1) {
            ctx.add_assign(&mut acc, &ctx.mul_scalar(ct, coef)).unwrap();
        }
        ctx.add_scalar_assign(&mut acc, rc[i]);
        acc
    })
}

/// Mix `(2L + R, 2R + L)` then the Feistel S-box over `L ‖ R`
/// (`y_j = x_j + x_{j−1}²`), in place on the concatenated state.
fn mix_feistel(ctx: &BfvContext, rk: &BfvRelinKey, state: &mut [Ciphertext]) {
    let t = state.len() / 2;
    let (left, right) = state.split_at_mut(t);
    for (l, r) in left.iter_mut().zip(right.iter_mut()) {
        let mut sum = l.clone();
        ctx.add_assign(&mut sum, r).unwrap();
        ctx.add_assign(l, &sum).unwrap();
        ctx.add_assign(r, &sum).unwrap();
    }
    let squares =
        pasta_par::parallel_map(&state[..2 * t - 1], |_, x| ctx.square_relin(x, rk).unwrap());
    for (y, sq) in state[1..].iter_mut().zip(&squares) {
        ctx.add_assign(y, sq).unwrap();
    }
}

/// Mix, then the last round's cube on the left half alone (truncation
/// never reads the right half again).
fn mix_cube(ctx: &BfvContext, rk: &BfvRelinKey, state: &[Ciphertext]) -> Vec<Ciphertext> {
    let (left, right) = state.split_at(state.len() / 2);
    let mixed: Vec<Ciphertext> = left
        .iter()
        .zip(right)
        .map(|(l, r)| {
            let sum = ctx.add(l, r).unwrap();
            ctx.add(l, &sum).unwrap()
        })
        .collect();
    pasta_par::parallel_map(&mixed, |_, x| {
        let sq = ctx.square_relin(x, rk).unwrap();
        ctx.mul_relin(&sq, x, rk).unwrap()
    })
}

/// Decrypts `cts`, asserts they hold `expected`, and returns their
/// smallest measured budget.
fn measured_budget(
    ctx: &BfvContext,
    sk: &BfvSecretKey,
    cts: &[Ciphertext],
    expected: &[u64],
    what: &str,
) -> f64 {
    let decrypted: Vec<u64> = cts.iter().map(|ct| ctx.decrypt(sk, ct).scalar()).collect();
    assert_eq!(decrypted, expected, "{what}: wrong plaintext");
    let min = cts.iter().map(|ct| ctx.noise_budget(sk, ct)).min().unwrap();
    f64::from(min)
}

fn assert_tracks(predicted: &NoiseModel, measured: f64, what: &str) {
    let predicted = predicted.predicted_budget();
    assert!(
        predicted <= measured,
        "{what}: predicted {predicted:.1} bits exceeds measured {measured}"
    );
    assert!(
        measured - predicted < SLACK_BITS,
        "{what}: predicted {predicted:.1} bits trails measured {measured} by more than {SLACK_BITS}"
    );
}

/// Runs one scalar block of `pasta` on the guard-sized ring, checking
/// decryption and the prediction after every round and at the end of
/// the block. With `against_server`, the replay's output must also equal
/// the server's own keystream ciphertexts.
fn scalar_block_is_sound(pasta: PastaParams, against_server: bool) {
    let (t, rounds) = (pasta.t(), pasta.rounds());
    let prime_count = suggest_prime_count(
        t,
        rounds,
        false,
        1_024,
        Modulus::PASTA_17_BIT,
        50,
        MARGIN_BITS,
    )
    .expect("the model sizes the paper ring");
    let ctx = BfvContext::new(BfvParams {
        n: 1_024,
        prime_count,
        ..BfvParams::test_tiny()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED ^ t as u64);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let rk = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(pasta, b"scalar noise");
    let key = client.provision_key(&ctx, &pk, &mut rng);
    let predicted = transcipher_round_noise(t, rounds, false, NoiseModel::fresh(&ctx));
    let entry = BlockEntry::derive(&pasta, NONCE, 0);
    let trace = permute_with_trace(
        &pasta,
        client.cipher().key().expose_elements(),
        &entry.material,
    )
    .unwrap();

    let mut state = key.elements.clone();
    for (i, model) in predicted.iter().enumerate().take(rounds) {
        let (mats, layer) = (&entry.matrices[i], &entry.material.layers[i]);
        let (left, right) = state.split_at(t);
        let mut next = affine(&ctx, left, &mats.left, &layer.rc_left);
        next.extend(affine(&ctx, right, &mats.right, &layer.rc_right));
        state = if i < rounds - 1 {
            mix_feistel(&ctx, &rk, &mut next);
            next
        } else {
            mix_cube(&ctx, &rk, &next)
        };
        let what = format!("t = {t}, round {i}");
        let expected = &trace.after_sbox[i][..state.len()];
        let measured = measured_budget(&ctx, &sk, &state, expected, &what);
        assert_tracks(model, measured, &what);
    }
    let last = &entry.material.layers[rounds];
    let output = affine(&ctx, &state, &entry.matrices[rounds].left, &last.rc_left);
    if against_server {
        let server = HheServer::new(pasta, &ctx, rk).unwrap();
        assert!(
            server.keystream_encrypted(&ctx, &key, NONCE, 0).unwrap() == output,
            "t = {t}: the replay must be the server's circuit"
        );
    }

    let what = format!("t = {t}, end of block ({prime_count} primes)");
    let plain = client.cipher().keystream_block(NONCE, 0).unwrap();
    let measured = measured_budget(&ctx, &sk, &output, &plain, &what);
    assert_tracks(&predicted[rounds], measured, &what);
    assert!(
        measured >= MARGIN_BITS,
        "{what}: {measured} bits left, under the {MARGIN_BITS}-bit margin"
    );
}

#[test]
fn pasta4_scalar_block_tracks_the_model_round_by_round() {
    scalar_block_is_sound(PastaParams::pasta4_17bit(), true);
}

/// The replay is generic in `t`, and the PASTA-4 test ties it to the
/// server; PASTA-3's block is four times larger, so it is not run twice.
#[test]
fn pasta3_scalar_block_tracks_the_model_round_by_round() {
    scalar_block_is_sound(PastaParams::pasta3_17bit(), false);
}
