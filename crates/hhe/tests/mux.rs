//! Cross-tenant slot multiplexing: randomized bucket compositions must
//! demux to exactly what each member's standalone scalar transcipher
//! produces — mixed tenants, partial final blocks, repeated members,
//! and single-member fast-path buckets alike.

use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey, FheError};
use pasta_hhe::{retrieve_muxed, HheClient, HheServer, MuxHheServer, MuxMember};
use pasta_math::Modulus;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const TENANTS: usize = 4;

/// One analyst FHE keypair (the domain), several tenants provisioned
/// under it — each with its own PASTA key and a private scalar server to
/// compare against.
struct World {
    params: PastaParams,
    ctx: BfvContext,
    sk: BfvSecretKey,
    clients: Vec<HheClient>,
    scalars: Vec<HheServer>,
    mux: MuxHheServer,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        // One extra prime vs a one-member (batched) bucket: the composed key costs
        // one more plaintext multiplication (the slot mask).
        let bfv = BfvParams {
            prime_count: 6,
            ..BfvParams::test_tiny()
        };
        let ctx = BfvContext::new(bfv).unwrap();
        let mut rng = StdRng::seed_from_u64(0x3A7);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let mut clients = Vec::new();
        let mut scalars = Vec::new();
        for j in 0..TENANTS {
            let client = HheClient::new(params, &(j as u64).to_le_bytes());
            let ek = client.provision_key(&ctx, &pk, &mut rng);
            let relin = ctx.generate_relin_key(&sk, &mut rng);
            scalars.push(HheServer::new(params, &ctx, relin, ek).unwrap());
            clients.push(client);
        }
        let relin = ctx.generate_relin_key(&sk, &mut rng);
        let mux = MuxHheServer::new(params, &ctx, relin).unwrap();
        World {
            params,
            ctx,
            sk,
            clients,
            scalars,
            mux,
        }
    })
}

/// A deterministic message of `len` canonical field elements.
fn message(seed: u64, len: usize) -> Vec<u64> {
    let modulus = world().params.modulus().value();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..modulus)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any bucket of 1–4 members (possibly the same tenant twice, each
    /// with its own session nonce; 1–10 elements each, so final blocks
    /// are usually partial) demuxes member-exactly, and every demuxed
    /// message equals what the member's *private scalar* transcipher
    /// recovers for the same ciphertext.
    #[test]
    fn random_buckets_demux_to_the_scalar_result(
        spec in proptest::collection::vec(any::<u64>(), 1..=4),
        seed in any::<u64>(),
    ) {
        let w = world();
        let encrypted: Vec<(usize, Vec<u64>, pasta_core::Ciphertext)> = spec
            .iter()
            .enumerate()
            .map(|(i, &raw)| {
                // Unpack one u64 into (tenant, element count, nonce).
                let tenant = (raw % TENANTS as u64) as usize;
                let elements = 1 + ((raw >> 8) % 10) as usize;
                let nonce = raw >> 16;
                let msg = message(seed ^ i as u64, elements);
                let ct = w.clients[tenant].encrypt(u128::from(nonce), &msg).unwrap();
                (tenant, msg, ct)
            })
            .collect();
        let members: Vec<MuxMember<'_>> = encrypted
            .iter()
            .map(|(tenant, _, ct)| MuxMember {
                tenant: *tenant as u64,
                encrypted_key: w.scalars[*tenant].encrypted_key(),
                ct,
            })
            .collect();
        let muxed = w.mux.transcipher_mux(&w.ctx, &members).unwrap();
        prop_assert_eq!(muxed.ranges.len(), members.len());
        for ((tenant, msg, ct), range) in encrypted.iter().zip(&muxed.ranges) {
            let demuxed = retrieve_muxed(&w.ctx, &w.sk, &muxed.positions, *range).unwrap();
            prop_assert_eq!(&demuxed, msg, "muxed slot range must decrypt to the message");
            let scalar_cts = w.scalars[*tenant].transcipher(&w.ctx, ct).unwrap();
            let scalar = w.clients[*tenant].retrieve(&w.ctx, &w.sk, &scalar_cts);
            prop_assert_eq!(&demuxed, &scalar, "mux and scalar paths must agree");
        }
    }
}

#[test]
fn repeated_bucket_replays_bit_exact_from_the_cache() {
    let w = world();
    let msg_a = message(11, 6);
    let msg_b = message(12, 3);
    let ct_a = w.clients[0].encrypt(0xA0, &msg_a).unwrap();
    let ct_b = w.clients[1].encrypt(0xB0, &msg_b).unwrap();
    let members = [
        MuxMember {
            tenant: 0,
            encrypted_key: w.scalars[0].encrypted_key(),
            ct: &ct_a,
        },
        MuxMember {
            tenant: 1,
            encrypted_key: w.scalars[1].encrypted_key(),
            ct: &ct_b,
        },
    ];
    let cold = w.mux.transcipher_mux(&w.ctx, &members).unwrap();
    let misses = w.mux.cache().stats().misses;
    let warm = w.mux.transcipher_mux(&w.ctx, &members).unwrap();
    assert_eq!(
        cold.positions, warm.positions,
        "memoized composition must be bit-exact"
    );
    assert_eq!(
        w.mux.cache().stats().misses,
        misses,
        "the warm pass must not rebuild the composed key"
    );
}

#[test]
fn oversized_bucket_is_refused() {
    let w = world();
    let msg = message(5, 4);
    let cts: Vec<_> = (0..w.mux.capacity() + 1)
        .map(|i| w.clients[0].encrypt(0x1000 + i as u128, &msg).unwrap())
        .collect();
    let members: Vec<MuxMember<'_>> = cts
        .iter()
        .map(|ct| MuxMember {
            tenant: 0,
            encrypted_key: w.scalars[0].encrypted_key(),
            ct,
        })
        .collect();
    assert!(matches!(
        w.mux.transcipher_mux(&w.ctx, &members),
        Err(FheError::Incompatible(_))
    ));
    assert!(matches!(
        w.mux.transcipher_mux(&w.ctx, &[]),
        Err(FheError::Incompatible(_))
    ));
}
