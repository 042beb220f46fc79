//! SIMD batch encoding over `Z_t` slots.
//!
//! When `2N | t - 1` (true for `t = 65537` and `N ≤ 2^15`), the plaintext
//! ring `Z_t[X]/(X^N + 1)` splits into `N` copies of `Z_t` by evaluating
//! at the primitive 2N-th roots of unity — so one BFV ciphertext packs
//! `N` independent `F_p` values, and homomorphic ring operations act
//! slot-wise. This is what lets the HHE server transcipher `N` PASTA
//! blocks in parallel (the original PASTA software does exactly this with
//! SEAL's `BatchEncoder`).
//!
//! Encoding is the inverse negacyclic NTT over `Z_t`; decoding is the
//! forward transform. Slots are in *natural* order: slot `s` holds the
//! evaluation at `ψ^{2s+1}`, which the transform's bit-reversed output
//! keeps at index `bitrev(s)`.
//!
//! Natural order is what makes small passes cheap. A slot vector of
//! period `k` (a power of two: slot `s` equals slot `s mod k`) encodes
//! to a polynomial in the sub-ring `Z_t[X^{N/k}]`, since `ψ^{(2s+1)·N/k}`
//! depends on `s mod k` only. [`BatchEncoder::encode_periodic`] builds
//! it from `k` values with a `k`-point transform, and
//! [`crate::BfvContext::dot_periodic`] multiplies it in with one
//! `k`-point forward transform per RNS prime.
//!
//! Galois rotations are implemented and load-bearing: homomorphic
//! `X ↦ X^g` automorphisms ([`crate::bfv::BfvContext::apply_galois`],
//! and the hoisted form behind [`crate::bfv::BfvContext::hoist`])
//! permute these slots, and the packed HHE evaluator drives its whole
//! affine layer through them; [`BatchEncoder::automorphism_permutation`]
//! exposes the induced slot map.

use crate::bfv::{PeriodicPlaintext, Plaintext};
use crate::ntt::{bit_reverse, NttTable};
use pasta_math::{MathError, Modulus};

/// A batch encoder mapping `N` slot values to/from plaintext polynomials.
///
/// # Examples
///
/// ```
/// use pasta_fhe::encoding::BatchEncoder;
/// use pasta_math::Modulus;
/// let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, 64)?;
/// let slots: Vec<u64> = (0..64).collect();
/// let pt = enc.encode(&slots);
/// assert_eq!(enc.decode(&pt), slots);
/// # Ok::<(), pasta_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    table: NttTable,
    n: usize,
    /// `bitrev[s]` — the transform index of slot `s`.
    bitrev: Vec<usize>,
}

impl BatchEncoder {
    /// Builds an encoder for plaintext modulus `t` and ring degree `n`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `2n ∤ t - 1`.
    pub fn new(plain_modulus: Modulus, n: usize) -> Result<Self, MathError> {
        let table = NttTable::new(plain_modulus, n)?;
        Ok(BatchEncoder {
            bitrev: (0..n).map(|s| bit_reverse(s, n.trailing_zeros())).collect(),
            table,
            n,
        })
    }

    /// Number of slots (`N`).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.n
    }

    /// Encodes up to `N` slot values (missing slots are zero).
    ///
    /// # Panics
    ///
    /// Panics if more than `N` values are supplied or a value is `≥ t`.
    #[must_use]
    pub fn encode(&self, values: &[u64]) -> Plaintext {
        assert!(values.len() <= self.n, "too many slot values");
        let mut slots = values.to_vec();
        slots.resize(self.n, 0);
        self.encode_periodic(&slots).expand()
    }

    /// Encodes the slot vector of period `k = values.len()` rounded up
    /// to a power of two: slot `s` holds `values[s mod k]`, or 0 where
    /// `s mod k ≥ values.len()`. The result lives in the sub-ring
    /// `Z_t[X^{N/k}]` and costs a `k`-point transform; its
    /// [`PeriodicPlaintext::expand`] equals [`BatchEncoder::encode`] of
    /// the replicated vector.
    ///
    /// # Panics
    ///
    /// Panics if more than `N` values are supplied or a value is `≥ t`.
    #[must_use]
    pub fn encode_periodic(&self, values: &[u64]) -> PeriodicPlaintext {
        assert!(values.len() <= self.n, "too many slot values");
        let t = self.table.zp().p();
        let k = values.len().next_power_of_two();
        // Transform index i lands in run i / (N/k), whose slots are the
        // class bitrev_k(run): the run order of the compact vector.
        let shift = (self.n / k).trailing_zeros();
        let mut coeffs = vec![0u64; k];
        for (s, &v) in values.iter().enumerate() {
            assert!(v < t, "slot value {v} not canonical mod {t}");
            coeffs[self.bitrev[s] >> shift] = v;
        }
        self.table.inverse_prefix(&mut coeffs);
        PeriodicPlaintext { coeffs, n: self.n }
    }

    /// Decodes a plaintext polynomial back into its `N` slot values.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext degree differs from `N`.
    #[must_use]
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        assert_eq!(pt.coeffs.len(), self.n, "plaintext degree mismatch");
        let mut evals = pt.coeffs.clone();
        self.table.forward(&mut evals);
        self.bitrev.iter().map(|&i| evals[i]).collect()
    }

    /// Applies the Galois automorphism `X ↦ X^g` to a plaintext — the
    /// reference against which the homomorphic
    /// [`crate::BfvContext::apply_galois`] is validated. On the slot
    /// side this is a fixed permutation (see
    /// [`BatchEncoder::automorphism_permutation`]).
    ///
    /// # Panics
    ///
    /// Panics for even `g` or degree mismatch.
    #[must_use]
    pub fn plaintext_automorphism(&self, pt: &Plaintext, g: usize) -> Plaintext {
        assert!(g % 2 == 1, "Galois element must be odd");
        assert_eq!(pt.coeffs.len(), self.n, "plaintext degree mismatch");
        let zp = self.table.zp();
        let mut coeffs = vec![0u64; self.n];
        for (j, &c) in pt.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let e = (j * g) % (2 * self.n);
            if e < self.n {
                coeffs[e] = zp.add(coeffs[e], c);
            } else {
                coeffs[e - self.n] = zp.sub(coeffs[e - self.n], c);
            }
        }
        Plaintext { coeffs }
    }

    /// The slot permutation induced by `σ_g`: returns `π` such that
    /// `decode(σ_g(pt))[i] = decode(pt)[π[i]]`.
    ///
    /// # Panics
    ///
    /// Panics for even `g`, or if `N > t` (cannot build the probe).
    #[must_use]
    pub fn automorphism_permutation(&self, g: usize) -> Vec<usize> {
        let t = self.table.zp().p();
        assert!((self.n as u64) < t, "probe needs distinct slot values");
        // Probe with the identity map: slot i holds value i + 1 (nonzero).
        let probe: Vec<u64> = (0..self.n as u64).map(|i| i + 1).collect();
        let moved = self.decode(&self.plaintext_automorphism(&self.encode(&probe), g));
        moved
            .iter()
            .map(|&v| {
                assert!(
                    v >= 1 && v <= self.n as u64,
                    "automorphism must permute slots"
                );
                (v - 1) as usize
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::{BfvContext, BfvParams};
    use pasta_math::simd::{force_backend, Backend};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn encoder(n: usize) -> BatchEncoder {
        BatchEncoder::new(Modulus::PASTA_17_BIT, n).unwrap()
    }

    #[test]
    fn roundtrip() {
        let enc = encoder(128);
        let values: Vec<u64> = (0..128u64).map(|i| i * 511 % 65_537).collect();
        assert_eq!(enc.decode(&enc.encode(&values)), values);
    }

    #[test]
    fn partial_fill_pads_with_zero() {
        let enc = encoder(16);
        let values = vec![7u64, 8, 9];
        let decoded = enc.decode(&enc.encode(&values));
        assert_eq!(&decoded[..3], &[7, 8, 9]);
        assert!(decoded[3..].iter().all(|&v| v == 0));
    }

    #[test]
    fn addition_is_slotwise() {
        let enc = encoder(32);
        let zp = pasta_math::Zp::new(Modulus::PASTA_17_BIT).unwrap();
        let a: Vec<u64> = (0..32u64).map(|i| i * 999 % 65_537).collect();
        let b: Vec<u64> = (0..32u64).map(|i| 65_536 - i).collect();
        let pa = enc.encode(&a);
        let pb = enc.encode(&b);
        let sum_coeffs: Vec<u64> = pa
            .coeffs
            .iter()
            .zip(pb.coeffs.iter())
            .map(|(&x, &y)| zp.add(x, y))
            .collect();
        let sum = Plaintext { coeffs: sum_coeffs };
        let expect: Vec<u64> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| zp.add(x, y))
            .collect();
        assert_eq!(enc.decode(&sum), expect);
    }

    #[test]
    fn polynomial_product_is_slotwise_product() {
        let enc = encoder(16);
        let zp = pasta_math::Zp::new(Modulus::PASTA_17_BIT).unwrap();
        let a: Vec<u64> = (1..=16u64).collect();
        let b: Vec<u64> = (0..16u64).map(|i| 3 * i + 2).collect();
        let prod_poly = crate::ntt::negacyclic_mul_schoolbook(
            &zp,
            &enc.encode(&a).coeffs,
            &enc.encode(&b).coeffs,
        );
        let decoded = enc.decode(&Plaintext { coeffs: prod_poly });
        let expect: Vec<u64> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| zp.mul(x, y))
            .collect();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn end_to_end_simd_through_bfv() {
        // Encrypt a batch, homomorphically add slot-wise, decrypt+decode.
        let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
        let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, ctx.params().n).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let a: Vec<u64> = (0..256u64).map(|i| i * 31 % 65_537).collect();
        let b: Vec<u64> = (0..256u64).map(|i| i * 17 % 65_537).collect();
        let ca = ctx.encrypt(&pk, &enc.encode(&a), &mut rng);
        let cb = ctx.encrypt(&pk, &enc.encode(&b), &mut rng);
        let sum = ctx.add(&ca, &cb).unwrap();
        let decoded = enc.decode(&ctx.decrypt(&sk, &sum));
        let zp = pasta_math::Zp::new(Modulus::PASTA_17_BIT).unwrap();
        let expect: Vec<u64> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| zp.add(x, y))
            .collect();
        assert_eq!(decoded, expect);
    }

    /// The test ring and the paper's `N = 1024`, 11 × 50-bit ring.
    fn rings() -> [BfvContext; 2] {
        [
            BfvContext::new(BfvParams::test_tiny()).unwrap(),
            BfvContext::new(BfvParams {
                n: 1024,
                prime_count: 11,
                ..BfvParams::test_tiny()
            })
            .unwrap(),
        ]
    }

    fn periods(n: usize) -> impl Iterator<Item = usize> {
        (0..=n.trailing_zeros()).map(|b| 1usize << b)
    }

    #[test]
    fn natural_slot_order_is_the_root_order() {
        // Slot s evaluates at ψ^{2s+1}: X^{N/2} (value ψ^{(2s+1)N/2} =
        // ±i, one square root of −1) alternates between the two roots
        // with period 2 in natural order.
        let enc = encoder(64);
        let mut coeffs = vec![0u64; 64];
        coeffs[32] = 1;
        let slots = enc.decode(&Plaintext { coeffs });
        assert_ne!(slots[0], slots[1]);
        assert!(slots.chunks(2).all(|pair| pair == &slots[..2]));
        let zp = pasta_math::Zp::new(Modulus::PASTA_17_BIT).unwrap();
        assert_eq!(zp.mul(slots[0], slots[0]), 65_536, "a square root of -1");
    }

    #[test]
    fn encode_periodic_equals_encode_of_the_replicated_vector() {
        for n in [256usize, 1024] {
            let enc = encoder(n);
            let mut rng = StdRng::seed_from_u64(n as u64);
            for k in periods(n) {
                // A full period and, where possible, a short one whose
                // missing classes are zero.
                for len in [k, k / 2 + 1] {
                    let values: Vec<u64> = (0..len).map(|_| rng.gen_range(0..65_537)).collect();
                    let replicated: Vec<u64> = (0..n)
                        .map(|s| values.get(s % k).copied().unwrap_or(0))
                        .collect();
                    let periodic = enc.encode_periodic(&values);
                    assert_eq!(periodic.period(), k);
                    let expanded = periodic.expand();
                    assert_eq!(expanded, enc.encode(&replicated), "n={n} k={k} len={len}");
                    let decoded = enc.decode(&expanded);
                    assert!(
                        (0..n).all(|s| decoded[s] == decoded[s % k]),
                        "decode must be {k}-periodic (n={n})"
                    );
                    assert_eq!(decoded, replicated);
                }
            }
        }
    }

    #[test]
    fn prefix_transform_expanded_over_runs_equals_to_ntt() {
        for ctx in rings() {
            let n = ctx.params().n;
            let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, n).unwrap();
            let mut rng = StdRng::seed_from_u64(0x9F1 ^ n as u64);
            for k in periods(n) {
                let values: Vec<u64> = (0..k).map(|_| rng.gen_range(0..65_537)).collect();
                let pt = enc.encode_periodic(&values);
                let mut full =
                    crate::ring::RnsPoly::from_u64_coeffs(ctx.basis(), &pt.expand().coeffs);
                full.to_ntt(ctx.basis());
                for i in 0..ctx.basis().len() {
                    let mut compact = pt.coeffs.clone();
                    ctx.basis().table(i).forward_prefix(&mut compact);
                    let expanded: Vec<u64> = compact
                        .iter()
                        .flat_map(|&v| std::iter::repeat_n(v, n / k))
                        .collect();
                    assert_eq!(expanded, full.row(i), "n={n} k={k} prime {i}");
                }
            }
        }
    }

    /// Encryptions of random slot vectors (coefficient domain) and
    /// `count` random weights of period `k`.
    fn dot_operands(
        ctx: &BfvContext,
        count: usize,
        seed: u64,
    ) -> (
        Vec<crate::Ciphertext>,
        impl FnMut(usize) -> Vec<PeriodicPlaintext>,
    ) {
        let n = ctx.params().n;
        let enc = BatchEncoder::new(Modulus::PASTA_17_BIT, n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let inputs = (0..count)
            .map(|_| {
                let slots: Vec<u64> = (0..n).map(|_| rng.gen_range(0..65_537)).collect();
                ctx.encrypt(&pk, &enc.encode(&slots), &mut rng)
            })
            .collect();
        let weights = move |k: usize| {
            (0..count)
                .map(|_| {
                    let values: Vec<u64> = (0..k).map(|_| rng.gen_range(0..65_537)).collect();
                    enc.encode_periodic(&values)
                })
                .collect()
        };
        (inputs, weights)
    }

    /// A one-row layer-half kernel against the per-term reference: one
    /// `add_mul_plain_assign` on each expanded weight, for every period
    /// `k ≤ N`, every available backend and, at `k = 1`, both domains.
    #[test]
    fn periodic_mac_is_bit_identical_to_the_expanded_plaintext() {
        let backends: Vec<Backend> = Backend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect();
        for ctx in rings() {
            let n = ctx.params().n;
            let (coeff, mut weights_of) = dot_operands(&ctx, 5, 0x3AC);
            let prepared: Vec<_> = coeff
                .iter()
                .map(|x| ctx.prepare_ciphertext(x.clone()))
                .collect();
            let mut ntt = coeff.clone();
            ntt.iter_mut().for_each(|x| ctx.to_ntt_ct(x));
            for k in periods(n) {
                let weights = weights_of(k);
                let mut want = ctx.zero_ntt_ct();
                for (x, w) in prepared.iter().zip(&weights) {
                    ctx.add_mul_plain_assign(&mut want, x, &w.expand()).unwrap();
                }
                let mut want_coeff = want.clone();
                ctx.to_coeff_ct(&mut want_coeff);
                let row = std::slice::from_ref(&weights);
                for &backend in &backends {
                    force_backend(Some(backend));
                    let got = ctx.dot_periodic(&ntt, row).unwrap();
                    assert_eq!(got, [want.clone()], "n={n} k={k} {backend:?}");
                    if k == 1 {
                        let got = ctx.dot_periodic(&coeff, row).unwrap();
                        assert_eq!(
                            got,
                            [want_coeff.clone()],
                            "coefficient domain n={n} {backend:?}"
                        );
                    }
                }
                force_backend(None);
            }
        }
    }

    /// Near 2⁶² a product of canonical residues nears 2¹²⁴, so 70 of
    /// them overflow a u128: the kernel must sum such a row in several
    /// `dot_mod` calls. Every input residue is `p − 1`, and so is the
    /// constant weight on the first prime; a period-4 weight runs the
    /// split once per run.
    #[test]
    fn dot_periodic_splits_rows_that_could_wrap_u128() {
        let ctx = BfvContext::new(BfvParams {
            prime_bits: 62,
            prime_count: 2,
            ..BfvParams::test_tiny()
        })
        .unwrap();
        let (n, basis) = (ctx.params().n, ctx.basis());
        let worst = || crate::Ciphertext {
            polys: (0..2)
                .map(|_| {
                    let rows = (0..basis.len())
                        .map(|i| vec![basis.zp(i).p() - 1; n])
                        .collect();
                    crate::ring::RnsPoly::from_rows(rows, true)
                })
                .collect(),
        };
        let inputs: Vec<_> = (0..70).map(|_| worst()).collect();
        let prepared = ctx.prepare_ciphertext(worst());
        for coeffs in [
            vec![basis.zp(0).p() - 1],
            vec![basis.zp(0).p() - 1, 3, 5, 7],
        ] {
            let weights = vec![PeriodicPlaintext { coeffs, n }; 70];
            let mut want = ctx.zero_ntt_ct();
            for w in &weights {
                ctx.add_mul_plain_assign(&mut want, &prepared, &w.expand())
                    .unwrap();
            }
            assert_eq!(ctx.dot_periodic(&inputs, &[weights]).unwrap(), [want]);
        }
    }

    #[test]
    fn dot_periodic_refuses_mismatched_operands() {
        let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
        let (coeff, mut weights_of) = dot_operands(&ctx, 2, 0xBAD);
        let mut ntt = coeff.clone();
        ntt.iter_mut().for_each(|x| ctx.to_ntt_ct(x));
        let periodic = weights_of(4);
        let row = std::slice::from_ref(&periodic);
        // A periodic weight does not commute with the transform.
        assert!(ctx.dot_periodic(&coeff, row).is_err());
        assert!(ctx.dot_periodic(&ntt, row).is_ok());
        let mut mixed = periodic.clone();
        mixed[1] = weights_of(2).swap_remove(0);
        assert!(ctx.dot_periodic(&ntt, &[mixed]).is_err());
        assert!(ctx.dot_periodic(&ntt, &[periodic[..1].to_vec()]).is_err());
        assert!(ctx.dot_periodic(&[], &[vec![]]).is_err());
        let scalar = weights_of(1);
        let domains = [ntt[0].clone(), coeff[1].clone()];
        assert!(ctx.dot_periodic(&domains, &[scalar]).is_err());
        // Rows of unequal length, a period mixed across rows, and no
        // rows at all.
        let ragged = [periodic.clone(), periodic[..1].to_vec()];
        assert!(ctx.dot_periodic(&ntt, &ragged).is_err());
        assert!(ctx
            .dot_periodic(&ntt, &[periodic.clone(), weights_of(2)])
            .is_err());
        assert!(ctx.dot_periodic(&ntt, &[]).is_err());
        assert!(ctx
            .dot_periodic(&ntt, &[periodic.clone(), periodic])
            .is_ok());
    }

    /// The layer-half kernel against one call per row on the scalar
    /// backend: 1, 3, 32 and 128 rows over 1, 5, 32 and 70 inputs, at
    /// every period `k ≤ N`, on every backend. The test ring takes all
    /// sixteen shapes (at N = 256 a column tile is half a run at
    /// `k = 1` and whole runs from `k = 2`), the paper's N = 1024 ×
    /// 11-prime ring (tiles inside a run up to `k = 8`) one shape per
    /// count, and a 62-bit ring the 70-input rows, which the kernel sums
    /// in several `dot_mod` calls below the u128 bound.
    #[test]
    fn dot_periodic_rows_equal_one_call_per_row() {
        let backends: Vec<Backend> = Backend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect();
        let wide = BfvContext::new(BfvParams {
            prime_bits: 62,
            prime_count: 2,
            ..BfvParams::test_tiny()
        })
        .unwrap();
        let [tiny, paper] = rings();
        let every: Vec<(usize, usize)> = [1, 3, 32, 128]
            .into_iter()
            .flat_map(|rows| [1, 5, 32, 70].map(|inputs| (rows, inputs)))
            .collect();
        let cases = [
            (tiny, every),
            (paper, vec![(1, 70), (3, 5), (32, 32), (128, 1)]),
            (wide, vec![(3, 70), (128, 70)]),
        ];
        for (ctx, shapes) in cases {
            let n = ctx.params().n;
            for (rows, count) in shapes {
                let (mut inputs, mut weights_of) =
                    dot_operands(&ctx, count, (rows * 97 + count) as u64);
                inputs.iter_mut().for_each(|x| ctx.to_ntt_ct(x));
                for k in periods(n) {
                    let weights: Vec<Vec<PeriodicPlaintext>> =
                        (0..rows).map(|_| weights_of(k)).collect();
                    force_backend(Some(Backend::Scalar));
                    let want: Vec<_> = weights
                        .iter()
                        .flat_map(|row| {
                            ctx.dot_periodic(&inputs, std::slice::from_ref(row))
                                .unwrap()
                        })
                        .collect();
                    for &backend in &backends {
                        force_backend(Some(backend));
                        let got = ctx.dot_periodic(&inputs, &weights).unwrap();
                        assert!(
                            got == want,
                            "n={n} k={k} rows={rows} inputs={count} {backend:?}"
                        );
                    }
                }
            }
        }
        force_backend(None);
    }

    /// A periodic plaintext adds `Δ·m` on its `k` coefficients only:
    /// bit-identical to adding its expansion at every period, also on an
    /// NTT-domain input and below the top level, and
    /// `add_scalar_assign` is the `k = 1` case.
    #[test]
    fn add_periodic_is_the_expanded_plain_add() {
        for ctx in rings() {
            let n = ctx.params().n;
            let (mut inputs, mut weights_of) = dot_operands(&ctx, 2, 0xADD);
            ctx.to_ntt_ct(&mut inputs[0]);
            ctx.mod_switch_to(&mut inputs[1], 2).unwrap();
            for k in periods(n) {
                let pt = weights_of(k).swap_remove(0);
                for x in &inputs {
                    let mut got = x.clone();
                    ctx.add_periodic_assign(&mut got, &pt);
                    let mut want = x.clone();
                    ctx.add_plain_assign(&mut want, &pt.expand());
                    assert_eq!(got, want, "n={n} k={k}");
                }
            }
            let mut got = inputs[1].clone();
            ctx.add_scalar_assign(&mut got, 65_537 + 5);
            let mut want = inputs[1].clone();
            ctx.add_plain_assign(&mut want, &ctx.encode_scalar(5));
            assert_eq!(got, want, "n={n} scalar");
        }
    }

    #[test]
    fn rejects_unsupported_degree() {
        // 2·2^17 does not divide 65537 - 1 = 2^16.
        assert!(BatchEncoder::new(Modulus::PASTA_17_BIT, 1 << 17).is_err());
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn too_many_values_panics() {
        let _ = encoder(8).encode(&[0u64; 9]);
    }
}
