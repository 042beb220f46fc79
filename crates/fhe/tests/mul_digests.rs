//! Pinned multiply digests: FNV-1a over every residue row of the
//! outputs of `square`, `relinearize` and `square_relin` at the paper
//! ring (N = 1024) with 7, 11 and 16 × 50-bit primes, a spread of rings
//! around the benchmark workloads' counts (`scalar-private` runs on 6,
//! `mux-fleet` on 10 and `packed-pasta3` on 7). The kernels under these
//! entry points (auxiliary primes, base-conversion dot products, tensor
//! and key-switch order) may change freely, but the ciphertexts must not
//! move by a single bit.
//!
//! The values were re-recorded when relinearization moved from one
//! digit per prime to one special-modulus switch over `Q ∪ P`: the
//! relinearization key is a different pair, so the relinearized digests
//! moved, and its key generation draws a different amount of
//! randomness, so the plaintext drawn after it (and with it the square
//! digest) moved too.

use pasta_fhe::{BfvContext, BfvParams, Ciphertext};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64 over the component count, the domain flag and every
/// residue row of every component.
fn digest(ctx: &BfvContext, ct: &Ciphertext) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    eat(&(ct.components() as u64).to_le_bytes());
    for poly in ct.polys() {
        eat(&[u8::from(poly.is_ntt())]);
        for i in 0..ctx.basis().len() {
            for v in poly.row(i) {
                eat(&v.to_le_bytes());
            }
        }
    }
    h
}

/// `(square, relinearize(square), square_relin)` digests of one fresh
/// encryption of a random batched plaintext at `prime_count` primes.
fn digests(prime_count: usize) -> [u64; 3] {
    let params = BfvParams {
        n: 1_024,
        plain_modulus: Modulus::PASTA_17_BIT,
        prime_bits: 50,
        prime_count,
    };
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + prime_count as u64);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let rk = ctx.generate_relin_key(&sk, &mut rng);
    let t = params.plain_modulus.value();
    let pt = pasta_fhe::Plaintext {
        coeffs: (0..params.n).map(|_| rng.gen_range(0..t)).collect(),
    };
    let ct = ctx.encrypt(&pk, &pt, &mut rng);
    let sq = ctx.square(&ct).unwrap();
    let relin = ctx.relinearize(&sq, &rk).unwrap();
    let fused = ctx.square_relin(&ct, &rk).unwrap();
    // The squared plaintext: the negacyclic product m·m mod (X^N + 1, t).
    let zp = ctx.plain();
    let n = params.n;
    let mut want = vec![0u64; n];
    for i in 0..n {
        for j in 0..n {
            let prod = zp.mul(pt.coeffs[i], pt.coeffs[j]);
            let k = (i + j) % n;
            want[k] = if i + j < n {
                zp.add(want[k], prod)
            } else {
                zp.sub(want[k], prod)
            };
        }
    }
    assert_eq!(ctx.decrypt(&sk, &sq).coeffs, want, "square decrypts");
    assert_eq!(
        ctx.decrypt(&sk, &relin).coeffs,
        want,
        "relinearize decrypts"
    );
    assert_eq!(fused, relin, "square_relin equals square + relinearize");
    [
        digest(&ctx, &sq),
        digest(&ctx, &relin),
        digest(&ctx, &fused),
    ]
}

#[test]
fn multiply_at_7_primes_is_pinned() {
    assert_eq!(
        digests(7),
        [
            11_348_071_463_410_319_824,
            12_082_147_216_416_682_915,
            12_082_147_216_416_682_915,
        ]
    );
}

#[test]
fn multiply_at_11_primes_is_pinned() {
    assert_eq!(
        digests(11),
        [
            17_136_447_005_257_984_143,
            9_437_122_301_913_628_963,
            9_437_122_301_913_628_963,
        ]
    );
}

#[test]
fn multiply_at_16_primes_is_pinned() {
    assert_eq!(
        digests(16),
        [
            15_420_601_847_625_271_252,
            4_771_929_782_629_730_588,
            4_771_929_782_629_730_588,
        ]
    );
}
