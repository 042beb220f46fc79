//! The noise model's proof matrix.
//!
//! Every server layout runs one pass of each paper parameter set
//! (PASTA-4 and PASTA-3, N = 1024, 50-bit primes) on the ring its own
//! derived count sizes ([`suggest_prime_count_for`] with the guard's
//! 12-bit margin):
//!
//! - the scalar pass (one block, constant weights);
//! - a one-member bucket of [`SLOTS`] blocks;
//! - a mux pass of [`SLOTS`] members, one block each, over the masked
//!   composed key;
//! - the packed server (one block in the lanes of one ciphertext).
//!
//! After every round, and at the end of the pass, the state is decrypted
//! against the plaintext permutation trace of every block it carries,
//! and the model's per-round prediction ([`transcipher_round_noise`]) is
//! held to the least measured invariant budget
//! ([`BfvContext::noise_budget`]): never above it, and less than
//! [`SLACK_BITS`] below it. The rounds are observed through the
//! circuits' own per-round hooks, so the measurements are those of the
//! server's code.

#![cfg(test)]

use crate::cache::BlockEntry;
use crate::client::HheClient;
use crate::mux::{retrieve_muxed, MuxMember};
use crate::packed::PackedHheServer;
use crate::server::HheServer;
use pasta_core::permutation::permute_with_trace;
use pasta_core::PastaParams;
use pasta_fhe::noise::{suggest_prime_count_for, transcipher_round_noise, Layout, NoiseModel};
use pasta_fhe::{BatchEncoder, BfvContext, BfvParams, BfvSecretKey, Ciphertext};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The admission guard's default margin (`NoiseBudgetGuard::default()`).
const MARGIN_BITS: f64 = 12.0;

/// How far the model may trail the measured budget after any round, in
/// every layout. The model's bounds (triangle sums, `δ_R` per product,
/// the mux key composition summed over `N` members) sit above typical
/// growth, and the gap compounds round by round: at the end of a pass it
/// is ≈ 30 bits for the scalar pass, ≈ 45–55 for a one-member bucket
/// and the packed server, and ≈ 57 (PASTA-3) to ≈ 66 (PASTA-4) for the
/// 8-member mux, whose composition the model charges for `N = 1024`
/// members.
const SLACK_BITS: f64 = 72.0;

/// Blocks of the one-member bucket, and members of the mux pass.
const SLOTS: usize = 8;

const NONCE: u128 = 0x9E0F_5EED;

/// One layout's ring, keys and per-round prediction.
struct Cell {
    what: String,
    pasta: PastaParams,
    ctx: BfvContext,
    sk: BfvSecretKey,
    encoder: BatchEncoder,
    predicted: Vec<NoiseModel>,
    rng: StdRng,
}

impl Cell {
    fn new(pasta: PastaParams, layout: Layout) -> Self {
        let (t, rounds) = (pasta.t(), pasta.rounds());
        let prime_count = suggest_prime_count_for(
            &[layout],
            t,
            rounds,
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
        let mut rng = StdRng::seed_from_u64(0x00C0_FFEE ^ t as u64);
        let sk = ctx.generate_secret_key(&mut rng);
        let encoder = BatchEncoder::new(Modulus::PASTA_17_BIT, 1_024).unwrap();
        let predicted = transcipher_round_noise(t, rounds, layout, NoiseModel::fresh(&ctx));
        Cell {
            what: format!("{layout:?}, t = {t}, {prime_count} primes"),
            pasta,
            ctx,
            sk,
            encoder,
            predicted,
            rng,
        }
    }

    /// A client with its own PASTA key.
    fn client(&self, j: usize) -> HheClient {
        HheClient::new(self.pasta, &(j as u64 + 1).to_le_bytes())
    }

    /// The state after each S-box of block `(nonce, counter)` under
    /// `client`'s key.
    fn trace(&self, client: &HheClient, nonce: u128, counter: u64) -> Vec<Vec<u64>> {
        let entry = BlockEntry::derive(&self.pasta, nonce, counter);
        permute_with_trace(
            &self.pasta,
            client.cipher().key().expose_elements(),
            &entry.material,
        )
        .unwrap()
        .after_sbox
    }

    /// Decrypts every ciphertext of `cts`, asserts that slot `s` of
    /// ciphertext `j` holds `expected(s, j)` for each of the first
    /// `slots` slots, and returns the least measured budget.
    fn measure<'c>(
        &self,
        cts: impl IntoIterator<Item = &'c Ciphertext>,
        slots: usize,
        expected: impl Fn(usize, usize) -> u64,
        round: usize,
    ) -> u32 {
        let mut least = u32::MAX;
        for (j, ct) in cts.into_iter().enumerate() {
            let decoded = self.encoder.decode(&self.ctx.decrypt(&self.sk, ct));
            for (s, &v) in decoded[..slots].iter().enumerate() {
                assert_eq!(
                    v,
                    expected(s, j),
                    "{}, round {round}: slot {s} of ciphertext {j}",
                    self.what
                );
            }
            least = least.min(self.ctx.noise_budget(&self.sk, ct));
        }
        least
    }

    /// Holds every round's (and the end's) measurement to the model.
    fn assert_tracks(&self, measured: &[u32]) {
        assert_eq!(measured.len(), self.predicted.len(), "{}", self.what);
        for (round, (model, &measured)) in self.predicted.iter().zip(measured).enumerate() {
            let (predicted, measured) = (model.predicted_budget(), f64::from(measured));
            let what = format!("{}, round {round}", self.what);
            assert!(
                predicted <= measured,
                "{what}: predicted {predicted:.1} bits exceeds measured {measured}"
            );
            assert!(
                measured - predicted < SLACK_BITS,
                "{what}: predicted {predicted:.1} bits trails measured {measured} \
                 by more than {SLACK_BITS}"
            );
        }
        let end = f64::from(measured[measured.len() - 1]);
        assert!(end >= MARGIN_BITS, "{}: {end} bits left", self.what);
    }
}

/// A pass through [`HheServer::transcipher_mux`]: `clients` members of
/// `blocks` blocks each, under one analyst key. One member of one block
/// is the scalar pass: at period 1 every plaintext is a constant.
fn slotted(pasta: PastaParams, layout: Layout, clients: usize, blocks: usize) {
    let mut cell = Cell::new(pasta, layout);
    let t = pasta.t();
    let pk = cell.ctx.generate_public_key(&cell.sk, &mut cell.rng);
    let rk = cell.ctx.generate_relin_key(&cell.sk, &mut cell.rng);
    let server = HheServer::new(pasta, &cell.ctx, rk).unwrap();
    let sides: Vec<_> = (0..clients)
        .map(|j| {
            let client = cell.client(j);
            let key = client.provision_key(&cell.ctx, &pk, &mut cell.rng);
            let message: Vec<u64> = (0..(blocks * t) as u64)
                .map(|i| (i * 7_919 + j as u64) % 65_537)
                .collect();
            let ct = client.encrypt(NONCE + j as u128, &message).unwrap();
            (client, key, ct, message)
        })
        .collect();
    let members: Vec<MuxMember<'_>> = sides
        .iter()
        .enumerate()
        .map(|(j, (_, key, ct, _))| MuxMember {
            tenant: j as u64,
            encrypted_key: key,
            ct,
        })
        .collect();
    // Slot s carries block s mod `blocks` of member s / `blocks`.
    let owner = |s: usize| (s / blocks, (s % blocks) as u64);
    let traces: Vec<Vec<Vec<u64>>> = (0..clients * blocks)
        .map(|s| {
            let (j, counter) = owner(s);
            cell.trace(&sides[j].0, NONCE + j as u128, counter)
        })
        .collect();
    let slots = clients * blocks;
    let mut measured = Vec::new();
    let pass = server
        .transcipher_mux_rounds(&cell.ctx, &members, &mut |round, left, right| {
            let expected = |s: usize, j| traces[s][round][j];
            measured.push(cell.measure(left.iter().chain(right), slots, expected, round));
        })
        .unwrap();
    let positions = &pass.positions;
    measured.push(
        positions
            .iter()
            .map(|ct| cell.ctx.noise_budget(&cell.sk, ct))
            .min()
            .unwrap(),
    );
    for ((.., message), &range) in sides.iter().zip(&pass.ranges) {
        let got = retrieve_muxed(&cell.ctx, &cell.sk, positions, range).unwrap();
        assert_eq!(&got, message, "{}: a member's message", cell.what);
    }
    cell.assert_tracks(&measured);
}

/// The packed server: one block in the lanes of one ciphertext.
fn packed(pasta: PastaParams) {
    let mut cell = Cell::new(pasta, Layout::Packed);
    let t = pasta.t();
    let client = cell.client(0);
    let server = PackedHheServer::new(
        pasta,
        &cell.ctx,
        &cell.sk,
        client.cipher().key().expose_elements(),
        &mut cell.rng,
    )
    .unwrap();
    let trace = cell.trace(&client, NONCE, 0);
    let lanes = |ct: &Ciphertext| server.decode(&cell.ctx, &cell.sk, ct, 2 * t);
    let mut measured = Vec::new();
    let ks = server
        .keystream_packed_rounds(&cell.ctx, NONCE, 0, &mut |round, state| {
            assert_eq!(lanes(state), trace[round], "{}, round {round}", cell.what);
            measured.push(cell.ctx.noise_budget(&cell.sk, state));
        })
        .unwrap();
    let mut expected = client.cipher().keystream_block(NONCE, 0).unwrap();
    expected.resize(2 * t, 0);
    assert_eq!(lanes(&ks), expected, "{}: keystream", cell.what);
    measured.push(cell.ctx.noise_budget(&cell.sk, &ks));
    cell.assert_tracks(&measured);
}

#[test]
fn pasta4_scalar() {
    slotted(PastaParams::pasta4_17bit(), Layout::Scalar, 1, 1);
}

#[test]
fn pasta3_scalar() {
    slotted(PastaParams::pasta3_17bit(), Layout::Scalar, 1, 1);
}

#[test]
fn pasta4_one_member_bucket() {
    slotted(PastaParams::pasta4_17bit(), Layout::Slotted, 1, SLOTS);
}

#[test]
fn pasta3_one_member_bucket() {
    slotted(PastaParams::pasta3_17bit(), Layout::Slotted, 1, SLOTS);
}

#[test]
fn pasta4_masked_mux() {
    slotted(PastaParams::pasta4_17bit(), Layout::Mux, SLOTS, 1);
}

#[test]
fn pasta3_masked_mux() {
    slotted(PastaParams::pasta3_17bit(), Layout::Mux, SLOTS, 1);
}

#[test]
fn pasta4_packed() {
    packed(PastaParams::pasta4_17bit());
}

#[test]
fn pasta3_packed() {
    packed(PastaParams::pasta3_17bit());
}
