//! Tests for Galois automorphisms and homomorphic slot permutations.

#![cfg(test)]

use crate::bfv::{BfvContext, BfvParams};
use crate::encoding::BatchEncoder;
use crate::ring::RnsPoly;
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (
    BfvContext,
    crate::bfv::BfvSecretKey,
    crate::bfv::BfvPublicKey,
    StdRng,
) {
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x6A10);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    (ctx, sk, pk, rng)
}

#[test]
fn ring_automorphism_is_a_ring_homomorphism() {
    // σ_g(a·b) = σ_g(a)·σ_g(b) and σ_g(a+b) = σ_g(a)+σ_g(b).
    let (ctx, _, _, _) = setup();
    let basis = ctx.basis();
    let a_coeffs: Vec<u64> = (0..256u64).map(|i| i * 97 + 1).collect();
    let b_coeffs: Vec<u64> = (0..256u64).map(|i| i * 31 + 5).collect();
    let a = RnsPoly::from_u64_coeffs(basis, &a_coeffs);
    let b = RnsPoly::from_u64_coeffs(basis, &b_coeffs);
    let g = 3;
    // Sum path.
    let sum_sigma = a.add(basis, &b).automorphism(basis, g);
    let sigma_sum = a
        .automorphism(basis, g)
        .add(basis, &b.automorphism(basis, g));
    assert_eq!(sum_sigma, sigma_sum);
    // Product path (through NTT).
    let (mut an, mut bn) = (a.clone(), b.clone());
    an.to_ntt(basis);
    bn.to_ntt(basis);
    let mut prod = an.mul(basis, &bn);
    prod.to_coeff(basis);
    let prod_sigma = prod.automorphism(basis, g);
    let (mut asg, mut bsg) = (a.automorphism(basis, g), b.automorphism(basis, g));
    asg.to_ntt(basis);
    bsg.to_ntt(basis);
    let mut sigma_prod = asg.mul(basis, &bsg);
    sigma_prod.to_coeff(basis);
    assert_eq!(prod_sigma, sigma_prod);
}

#[test]
fn automorphism_composition() {
    let (ctx, _, _, _) = setup();
    let basis = ctx.basis();
    let n = 256;
    let a = RnsPoly::from_u64_coeffs(basis, &(0..n as u64).map(|i| i + 2).collect::<Vec<_>>());
    let (g1, g2) = (3usize, 5usize);
    let lhs = a.automorphism(basis, g1).automorphism(basis, g2);
    let rhs = a.automorphism(basis, (g1 * g2) % (2 * n));
    assert_eq!(lhs, rhs, "σ_5 ∘ σ_3 = σ_15");
    // Identity element.
    assert_eq!(a.automorphism(basis, 1), a);
}

#[test]
fn slot_permutation_structure() {
    let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, 256).unwrap();
    let perm = enc.automorphism_permutation(3);
    // A permutation: every index exactly once.
    let mut seen = vec![false; 256];
    for &p in &perm {
        assert!(!seen[p], "index {p} repeated");
        seen[p] = true;
    }
    // Nontrivial.
    assert!(perm.iter().enumerate().any(|(i, &p)| i != p));
    // g = 3 generates orbits of length dividing N/2 = 128 (the standard
    // two-orbit batching structure).
    let mut orbit_len = 1;
    let mut pos = perm[0];
    while pos != 0 && orbit_len < 1_000 {
        pos = perm[pos];
        orbit_len += 1;
    }
    assert!(
        128 % orbit_len == 0,
        "orbit length {orbit_len} must divide 128"
    );
}

#[test]
fn homomorphic_galois_matches_plaintext_automorphism() {
    let (ctx, sk, pk, mut rng) = setup();
    let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, ctx.params().n).unwrap();
    let slots: Vec<u64> = (0..256u64).map(|i| i * 137 % 65_537).collect();
    let pt = enc.encode(&slots);
    let ct = ctx.encrypt(&pk, &pt, &mut rng);
    for g in [3usize, 5, 511] {
        let gk = ctx.generate_galois_key(&sk, g, &mut rng).unwrap();
        assert_eq!(gk.galois_element(), g);
        let rotated = ctx.apply_galois(&ct, &gk).unwrap();
        let expect = enc.plaintext_automorphism(&pt, g);
        assert_eq!(ctx.decrypt(&sk, &rotated), expect, "g = {g}");
        // Slot view: the decoded slots are permuted per the map.
        let perm = enc.automorphism_permutation(g);
        let decoded = enc.decode(&ctx.decrypt(&sk, &rotated));
        for (i, &p) in perm.iter().enumerate() {
            assert_eq!(decoded[i], slots[p], "slot {i} under g = {g}");
        }
    }
}

#[test]
fn galois_noise_budget_survives() {
    let (ctx, sk, pk, mut rng) = setup();
    let ct = ctx.encrypt(&pk, &ctx.encode_scalar(9), &mut rng);
    let gk = ctx.generate_galois_key(&sk, 3, &mut rng).unwrap();
    let rotated = ctx.apply_galois(&ct, &gk).unwrap();
    let budget = ctx.noise_budget(&sk, &rotated);
    assert!(budget > 50, "post-rotation budget {budget}");
    // Chain a few rotations.
    let mut chained = rotated;
    for _ in 0..3 {
        chained = ctx.apply_galois(&chained, &gk).unwrap();
    }
    assert!(ctx.noise_budget(&sk, &chained) > 20);
}

#[test]
fn galois_rejects_bad_inputs() {
    let (ctx, sk, pk, mut rng) = setup();
    assert!(
        ctx.generate_galois_key(&sk, 4, &mut rng).is_err(),
        "even g rejected"
    );
    let a = ctx.encrypt(&pk, &ctx.encode_scalar(1), &mut rng);
    let b = ctx.encrypt(&pk, &ctx.encode_scalar(2), &mut rng);
    let three = ctx.mul(&a, &b).unwrap();
    let gk = ctx.generate_galois_key(&sk, 3, &mut rng).unwrap();
    assert!(
        ctx.apply_galois(&three, &gk).is_err(),
        "3-component input rejected"
    );
    // A key from a ring with more primes has more digits than the
    // context: both rotation paths refuse it instead of indexing past
    // the ciphertext's rows.
    let wide = BfvContext::new(BfvParams {
        prime_count: ctx.params().prime_count + 1,
        ..*ctx.params()
    })
    .unwrap();
    let wide_sk = wide.generate_secret_key(&mut rng);
    let wide_gk = wide.generate_galois_key(&wide_sk, 3, &mut rng).unwrap();
    assert!(
        ctx.apply_galois(&a, &wide_gk).is_err(),
        "mismatched key rejected"
    );
    assert!(
        ctx.apply_galois_hoisted(&ctx.hoist(&a).unwrap(), &wide_gk)
            .is_err(),
        "mismatched key rejected by the hoisted path"
    );
}

#[test]
fn sum_slots_totals_everything() {
    // The log-depth rotate-and-add tree must leave Σ slots in every slot.
    let (ctx, sk, pk, mut rng) = setup();
    let n = ctx.params().n;
    let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, n).unwrap();
    let slots: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 1) % 1_000).collect();
    let total: u64 = slots.iter().sum::<u64>() % 65_537;
    let ct = ctx.encrypt(&pk, &enc.encode(&slots), &mut rng);
    let keys = ctx.generate_sum_keys(&sk, &mut rng).unwrap();
    assert_eq!(keys.len(), (n / 2).trailing_zeros() as usize + 1);
    let summed = ctx.sum_slots(&ct, &keys).unwrap();
    let decoded = enc.decode(&ctx.decrypt(&sk, &summed));
    assert!(
        decoded.iter().all(|&v| v == total),
        "every slot must hold the total {total}"
    );
    assert!(
        ctx.noise_budget(&sk, &summed) > 10,
        "budget must survive the tree"
    );
}

#[test]
fn hoisted_rotation_decrypts_identically_and_shares_one_decomposition() {
    // One hoist, many rotations: every hoisted rotation must decrypt to
    // exactly the plaintext the unhoisted key-switch produces, and the
    // noise budget must stay comparable.
    let (ctx, sk, pk, mut rng) = setup();
    let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, ctx.params().n).unwrap();
    let slots: Vec<u64> = (0..256u64).map(|i| (i * 991 + 7) % 65_537).collect();
    let ct = ctx.encrypt(&pk, &enc.encode(&slots), &mut rng);
    let hoisted = ctx.hoist(&ct).unwrap();
    for g in [3usize, 9, 27, 511] {
        let gk = ctx.generate_galois_key(&sk, g, &mut rng).unwrap();
        let classic = ctx.apply_galois(&ct, &gk).unwrap();
        let mut fast = ctx.apply_galois_hoisted(&hoisted, &gk).unwrap();
        ctx.to_coeff_ct(&mut fast);
        assert_eq!(
            ctx.decrypt(&sk, &fast),
            ctx.decrypt(&sk, &classic),
            "g = {g}"
        );
        let (bf, bc) = (
            ctx.noise_budget(&sk, &fast),
            ctx.noise_budget(&sk, &classic),
        );
        assert!(
            bf + 2 >= bc,
            "hoisted budget {bf} must not trail classic {bc}"
        );
    }
    // The hoisted form rejects what apply_galois rejects.
    let a = ctx.encrypt(&pk, &ctx.encode_scalar(1), &mut rng);
    let three = ctx.mul(&a, &a).unwrap();
    assert!(ctx.hoist(&three).is_err(), "3-component input rejected");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

    #[test]
    fn prop_automorphism_composition(
        coeffs in proptest::collection::vec(0u64..65_537, 256),
        gi in 0usize..256,
        hi in 0usize..256,
    ) {
        // σ_h ∘ σ_g = σ_{g·h mod 2N} for arbitrary odd Galois elements.
        let (ctx, _, _, _) = setup();
        let basis = ctx.basis();
        let n = ctx.params().n;
        let (g, h) = (2 * gi + 1, 2 * hi + 1);
        let a = RnsPoly::from_u64_coeffs(basis, &coeffs);
        let lhs = a.automorphism(basis, g).automorphism(basis, h);
        let rhs = a.automorphism(basis, (g * h) % (2 * n));
        proptest::prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn prop_hoisted_rotation_decrypts_like_unhoisted(
        slots in proptest::collection::vec(0u64..65_537, 256),
        gi in 0usize..256,
    ) {
        let (ctx, sk, pk, mut rng) = setup();
        let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, ctx.params().n).unwrap();
        let g = 2 * gi + 1;
        let gk = ctx.generate_galois_key(&sk, g, &mut rng).unwrap();
        let ct = ctx.encrypt(&pk, &enc.encode(&slots), &mut rng);
        let mut fast = ctx
            .apply_galois_hoisted(&ctx.hoist(&ct).unwrap(), &gk)
            .unwrap();
        ctx.to_coeff_ct(&mut fast);
        proptest::prop_assert_eq!(
            ctx.decrypt(&sk, &fast),
            ctx.decrypt(&sk, &ctx.apply_galois(&ct, &gk).unwrap())
        );
    }
}

#[test]
fn rotate_and_sum_all_slots() {
    // The classic rotations application: summing across slots by
    // repeated rotate-and-add (log N steps along the g = 3 orbit plus the
    // conjugate orbit) — here demonstrated along one orbit.
    let (ctx, sk, pk, mut rng) = setup();
    let n = ctx.params().n;
    let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, n).unwrap();
    let slots: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
    let ct = ctx.encrypt(&pk, &enc.encode(&slots), &mut rng);
    // One rotation step: acc = ct + σ(ct) merges each slot with its
    // orbit neighbour.
    let gk = ctx.generate_galois_key(&sk, 3, &mut rng).unwrap();
    let acc = ctx.add(&ct, &ctx.apply_galois(&ct, &gk).unwrap()).unwrap();
    let decoded = enc.decode(&ctx.decrypt(&sk, &acc));
    let perm = enc.automorphism_permutation(3);
    let zp = pasta_math::Zp::new(Modulus::PASTA_17_BIT).unwrap();
    for i in 0..n {
        assert_eq!(decoded[i], zp.add(slots[i], slots[perm[i]]), "slot {i}");
    }
}
