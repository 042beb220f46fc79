//! The `pasta-fhe` kernels run serially on the calling thread: the
//! circuit and the service own every fan-out. With two worker threads
//! available and the ring at the paper's N = 1024, a main-thread BFV
//! pass — context build, key generation, encryption, squaring,
//! rotation, modulus switching and decryption — must not dispatch a
//! single job onto the worker pool.
//!
//! Lives in its own integration-test binary: it sets `PASTA_THREADS`
//! and reads the process-global pool counters, which no other test may
//! move while it runs.

use pasta_fhe::{BfvContext, BfvParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bfv_kernels_never_dispatch_onto_the_pool() {
    std::env::set_var(pasta_par::THREADS_ENV, "2");
    let before = pasta_par::pool::stats();

    let ctx = BfvContext::new(BfvParams {
        n: 1_024,
        ..BfvParams::test_tiny()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(24);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let rk = ctx.generate_relin_key(&sk, &mut rng);
    let gk = ctx.generate_galois_key(&sk, 3, &mut rng).unwrap();
    let ct = ctx.encrypt(&pk, &ctx.encode_scalar(7), &mut rng);
    let squared = ctx.square_relin(&ct, &rk).unwrap();
    // X ↦ X³ fixes the constant coefficient.
    let mut rotated = ctx.apply_galois(&squared, &gk).unwrap();
    ctx.mod_switch_to(&mut rotated, 1).unwrap();
    let pt = ctx.decrypt(&sk, &rotated);

    let after = pasta_par::pool::stats();
    std::env::remove_var(pasta_par::THREADS_ENV);
    assert_eq!(pt.coeffs[0], 49);
    assert_eq!(
        after.dispatches, before.dispatches,
        "a BFV kernel dispatched onto the worker pool"
    );
}
