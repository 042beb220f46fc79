//! The periodic slot layout of slot-parallel passes: a pass over `b`
//! blocks makes every plaintext `k = b.next_power_of_two()`-periodic, so
//! every slot must decrypt to exactly what its class representative
//! `s mod k` holds, and the classes `b..k` no member owns must decrypt
//! to 0 — no replica slot may carry a value the representatives do not.
//! Smaller periods also mean smaller plaintext norms, so the measured
//! noise budget may only grow as `k` shrinks, and it must stay above
//! the full-width batched prediction that admission relies on. A
//! batched pass is a one-member bucket: one tenant's key, unmasked.
//! At the bottom of the scale, `k = 1`, a one-block pass is the scalar
//! server's circuit: every plaintext is a constant polynomial.

use pasta_core::PastaParams;
use pasta_fhe::noise::{transcipher_noise, Layout};
use pasta_fhe::{
    BatchEncoder, BfvContext, BfvParams, BfvSecretKey, Ciphertext as FheCiphertext, NoiseModel,
};
use pasta_hhe::{retrieve_muxed, EncryptedPastaKey, HheClient, HheServer, MuxMember, MuxedBlocks};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params() -> PastaParams {
    PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
}

fn message(len: usize, salt: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (i * 6_151 + salt) % 65_537)
        .collect()
}

/// Decodes every slot of every position and checks the replica
/// invariant for period `k` with classes `0..used` owned.
fn assert_periodic(
    ctx: &BfvContext,
    sk: &BfvSecretKey,
    positions: &[FheCiphertext],
    k: usize,
    used: usize,
) {
    let encoder = BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n).unwrap();
    for (i, ct) in positions.iter().enumerate() {
        let slots = encoder.decode(&ctx.decrypt(sk, ct));
        for (s, &v) in slots.iter().enumerate() {
            assert_eq!(
                v,
                slots[s % k],
                "position {i}: slot {s} differs from its class"
            );
        }
        for (class, &v) in slots.iter().enumerate().take(k).skip(used) {
            assert_eq!(v, 0, "position {i}: unowned class {class} is not zero");
        }
    }
}

#[test]
fn every_slot_of_a_five_block_mux_pass_repeats_its_class() {
    let ctx = BfvContext::new(BfvParams {
        prime_count: 6,
        ..BfvParams::test_tiny()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5107);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let clients: Vec<HheClient> = (0..3u64)
        .map(|j| HheClient::new(params(), &j.to_le_bytes()))
        .collect();
    let keys: Vec<_> = clients
        .iter()
        .map(|c| c.provision_key(&ctx, &pk, &mut rng))
        .collect();
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let mux = HheServer::new(params(), &ctx, relin).unwrap();
    // 2 + 1 + 2 = 5 blocks: period 8, classes 5..8 unowned.
    let spec = [(0usize, 8usize, 0x51u128), (1, 3, 0x52), (2, 5, 0x53)];
    let cts: Vec<_> = spec
        .iter()
        .map(|&(tenant, len, nonce)| {
            clients[tenant]
                .encrypt(nonce, &message(len, nonce as u64))
                .unwrap()
        })
        .collect();
    let members: Vec<MuxMember<'_>> = spec
        .iter()
        .zip(&cts)
        .map(|(&(tenant, _, _), ct)| MuxMember {
            tenant: tenant as u64,
            encrypted_key: &keys[tenant],
            ct,
        })
        .collect();
    let muxed = mux.transcipher_mux(&ctx, &members).unwrap();
    assert_eq!(muxed.slots_used, 5);
    for (&(_, len, nonce), range) in spec.iter().zip(&muxed.ranges) {
        assert_eq!(
            retrieve_muxed(&ctx, &sk, &muxed.positions, *range).unwrap(),
            message(len, nonce as u64)
        );
    }
    assert_periodic(&ctx, &sk, &muxed.positions, 8, 5);
}

/// A one-member (batched) world: the domain's secret key, the tenant's
/// client and provisioned key, and the server.
struct BatchedWorld {
    ctx: BfvContext,
    sk: BfvSecretKey,
    client: HheClient,
    key: EncryptedPastaKey,
    server: HheServer,
}

impl BatchedWorld {
    fn new(prime_count: usize, seed: u64) -> Self {
        let ctx = BfvContext::new(BfvParams {
            prime_count,
            ..BfvParams::test_tiny()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin = ctx.generate_relin_key(&sk, &mut rng);
        let client = HheClient::new(params(), b"periodic batched");
        let key = client.provision_key(&ctx, &pk, &mut rng);
        let server = HheServer::new(params(), &ctx, relin).unwrap();
        BatchedWorld {
            ctx,
            sk,
            client,
            key,
            server,
        }
    }

    /// Transciphers `msg` under `nonce` in a one-member bucket.
    fn pass(&self, nonce: u128, msg: &[u64]) -> MuxedBlocks {
        let ct = self.client.encrypt(nonce, msg).unwrap();
        let member = MuxMember {
            tenant: 0,
            encrypted_key: &self.key,
            ct: &ct,
        };
        self.server.transcipher_mux(&self.ctx, &[member]).unwrap()
    }
}

#[test]
fn every_slot_of_a_three_block_batched_pass_repeats_its_class() {
    let w = BatchedWorld::new(5, 0xBA73);
    let msg = message(12, 7);
    let batch = w.pass(0x3B, &msg);
    assert_eq!(batch.slots_used, 3);
    assert_eq!(
        retrieve_muxed(&w.ctx, &w.sk, &batch.positions, batch.ranges[0]).unwrap(),
        msg
    );
    assert_periodic(&w.ctx, &w.sk, &batch.positions, 4, 3);
}

#[test]
fn noise_budget_does_not_shrink_with_the_period_and_beats_the_prediction() {
    let w = BatchedWorld::new(5, 0x0B0D);
    let n = w.ctx.params().n;
    let predicted = transcipher_noise(
        4,
        2,
        Layout::Slotted,
        NoiseModel::fresh_for(
            n,
            w.ctx.params().plain_modulus,
            w.ctx.q_bits(),
            w.ctx.params().prime_count,
        ),
    )
    .predicted_budget();
    assert!(predicted > 0.0, "the ring must admit the batched circuit");
    // Full blocks only: subtracting the trivially encrypted ciphertext
    // from the keystream adds no noise, so the budget is the circuit's.
    let budgets: Vec<u32> = [1usize, 8, w.server.capacity()]
        .iter()
        .map(|&blocks| {
            let batch = w.pass(0xB0D6E7, &message(blocks * 4, 1));
            batch
                .positions
                .iter()
                .map(|ct| w.ctx.noise_budget(&w.sk, ct))
                .min()
                .unwrap()
        })
        .collect();
    assert!(
        budgets.windows(2).all(|w| w[0] >= w[1]),
        "budget at k = 1, 8, N: {budgets:?}"
    );
    assert!(
        f64::from(budgets[2]) >= predicted,
        "measured {budgets:?} bits vs {predicted:.1} predicted"
    );
}

#[test]
fn a_one_block_pass_at_period_one_is_the_scalar_transcipher_bit_for_bit() {
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x0001);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params(), b"period one");
    let key = client.provision_key(&ctx, &pk, &mut rng);
    let server = HheServer::new(params(), &ctx, relin).unwrap();
    // One partial block: the scalar output has one ciphertext per
    // element, the pass one per state position.
    let msg = message(3, 11);
    let ct = client.encrypt(0x0E, &msg).unwrap();
    let member = MuxMember {
        tenant: 0,
        encrypted_key: &key,
        ct: &ct,
    };
    let mut pass = server.transcipher_mux(&ctx, &[member]).unwrap();
    assert_eq!(pass.slots_used, 1);
    pass.positions.truncate(msg.len());
    let cts = server.transcipher(&ctx, &key, &ct).unwrap();
    assert!(cts == pass.positions, "k = 1 must be the scalar circuit");
    assert_eq!(client.retrieve(&ctx, &sk, &cts), msg);
}
