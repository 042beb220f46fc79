//! Kernel probes on a workload's ring, run after the measured window in
//! the traced run. Each probe times one public kernel call several
//! times and reports the median.

use crate::stats::median;
use crate::trace::Tracer;
use pasta_core::PastaParams;
use pasta_fhe::{BatchEncoder, BfvContext, BfvSecretKey};
use pasta_hhe::cache::BlockEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Repetitions per probe.
const REPS: usize = 9;

/// Median seconds per call of each probed kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `BlockEntry::derive`: XOF, sampling and matrix materialization.
    pub block_material: f64,
    /// `BatchEncoder::encode` + `BfvContext::prepare_plaintext`.
    pub prepare_plaintext: f64,
    /// `BfvContext::mul_plain_prepared`.
    pub mul_plain_prepared: f64,
    /// `BfvContext::mul_relin`.
    pub mul_relin: f64,
    /// `NttTable::forward` + `inverse` on one RNS limb.
    pub ntt_fwd_inv: f64,
    /// `BfvContext::hoist` + `apply_galois_hoisted`.
    pub galois_hoisted: f64,
}

/// Times `f` `REPS` times inside `probe.<name>` spans under `parent`.
fn time(
    tracer: &mut Tracer,
    parent: Option<usize>,
    name: &'static str,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut secs = Vec::with_capacity(REPS);
    for i in 0..REPS {
        let start = std::time::Instant::now();
        tracer.span(name, parent, None, || f(i));
        secs.push(start.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// Runs every probe on `ctx` (keys are generated here, from `seed`).
///
/// # Panics
///
/// Panics if the ring cannot batch or the keys do not fit the ring —
/// both rule out the workload itself, which ran on the same ring first.
pub fn run(
    ctx: &BfvContext,
    sk: &BfvSecretKey,
    pasta: &PastaParams,
    seed: u64,
    tracer: &mut Tracer,
) -> Probes {
    let parent = tracer.open("probes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9B0B);
    let n = ctx.params().n;
    let p = ctx.params().plain_modulus.value();
    let encoder = BatchEncoder::new(ctx.params().plain_modulus, n).expect("batching ring");
    let pk = ctx.generate_public_key(sk, &mut rng);
    let rk = ctx.generate_relin_key(sk, &mut rng);
    let gk = ctx
        .generate_galois_key(sk, 3, &mut rng)
        .expect("odd Galois element");
    let slots: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
    let pt = encoder.encode(&slots);
    let ct = ctx.encrypt(&pk, &pt, &mut rng);
    let prepared = ctx.prepare_plaintext(&pt);
    let mut limb: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(0..ctx.basis().primes()[0].value()))
        .collect();
    let nonce_base = u128::from(seed) << 64 | 1 << 63;

    let probes = Probes {
        block_material: time(tracer, parent, "probe.block_material", |i| {
            black_box(BlockEntry::derive(pasta, nonce_base + i as u128, 0));
        }),
        prepare_plaintext: time(tracer, parent, "probe.prepare_plaintext", |_| {
            black_box(ctx.prepare_plaintext(&encoder.encode(black_box(&slots))));
        }),
        mul_plain_prepared: time(tracer, parent, "probe.mul_plain_prepared", |_| {
            black_box(ctx.mul_plain_prepared(black_box(&ct), &prepared));
        }),
        mul_relin: time(tracer, parent, "probe.mul_relin", |_| {
            black_box(
                ctx.mul_relin(black_box(&ct), &ct, &rk)
                    .expect("same-context operands"),
            );
        }),
        ntt_fwd_inv: time(tracer, parent, "probe.ntt_fwd_inv", |_| {
            let table = ctx.basis().table(0);
            table.forward(black_box(&mut limb));
            table.inverse(black_box(&mut limb));
        }),
        galois_hoisted: time(tracer, parent, "probe.galois_hoisted", |_| {
            let hoisted = ctx.hoist(black_box(&ct)).expect("2-component ciphertext");
            black_box(
                ctx.apply_galois_hoisted(&hoisted, &gk)
                    .expect("key of this ring"),
            );
        }),
    };
    tracer.close(parent);
    probes
}
