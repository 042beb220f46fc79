//! The exact big-integer multiplication oracle, the reference the
//! full-RNS multiplication ([`crate::rns_mul`]) is checked against.
//! Tests and `bench_mul --phase before` build it from a context and call
//! it directly; no runtime path does, so a context does not carry its
//! extended basis.

use crate::bfv::{BfvContext, Ciphertext, FheError};
use crate::bigint::UBig;
use crate::ring::{generate_ntt_primes, RnsBasis, RnsPoly};

/// The exact bigint multiplication of one context's ciphertexts.
#[derive(Debug, Clone)]
pub struct MulOracle<'a> {
    ctx: &'a BfvContext,
    /// Extended basis holding the exact tensor product.
    ext_basis: RnsBasis,
    /// `Q_ext/2` for centering tensor results.
    half_ext: UBig,
}

impl<'a> MulOracle<'a> {
    /// Builds the oracle for `ctx`'s ciphertexts.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if the extended basis cannot
    /// be generated.
    pub fn new(ctx: &'a BfvContext) -> Result<Self, FheError> {
        let params = ctx.params();
        // Extended basis: enough extra primes (disjoint from the main
        // ones, one bit wider so values never collide) to hold the exact
        // tensor product: 2·bits(q) + log2(N) + 2 bits.
        let needed_bits = 2 * ctx.basis().q().bits() + params.n.trailing_zeros() as usize + 2;
        let ext_bits = (params.prime_bits + 1).min(60);
        let ext_count = needed_bits.div_ceil(ext_bits as usize - 1) + 1;
        let ext_primes = generate_ntt_primes(ext_bits, (2 * params.n).trailing_zeros(), ext_count)
            .map_err(FheError::from)?;
        let ext_basis = RnsBasis::new(params.n, ext_primes).map_err(FheError::from)?;
        let half_ext = ext_basis.q().shr(1);
        Ok(MulOracle {
            ctx,
            ext_basis,
            half_ext,
        })
    }

    /// Homomorphic multiplication via the exact big-integer tensor
    /// product. Aliased operands take a squaring specialization. Every
    /// coefficient is CRT-reconstructed into the extended basis for the
    /// tensor and the `t/q` rounding is done with exact half-up
    /// big-integer division.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] unless both inputs have two
    /// components.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, FheError> {
        if a.polys.len() != 2 || b.polys.len() != 2 {
            return Err(FheError::Incompatible(
                "mul requires 2-component inputs".into(),
            ));
        }
        let basis = self.ctx.basis();
        let half_q = basis.q().shr(1);
        // Lift all four polys (centered) into the extended basis, NTT there.
        let lift = |p: &RnsPoly| -> RnsPoly {
            let mut p = p.clone();
            p.to_coeff(basis);
            let big = p.to_bigint_coeffs(basis);
            let values: Vec<UBig> = big
                .into_iter()
                .map(|v| {
                    if v.cmp_big(&half_q) == std::cmp::Ordering::Greater {
                        // negative: Q_ext - (q - v)
                        self.ext_basis.q().sub(&basis.q().sub(&v))
                    } else {
                        v
                    }
                })
                .collect();
            let mut ext = RnsPoly::from_bigint_coeffs(&self.ext_basis, &values);
            ext.to_ntt(&self.ext_basis);
            ext
        };
        let a0 = lift(&a.polys[0]);
        let a1 = lift(&a.polys[1]);
        // Squaring reuses the lifted operand: two lifts instead of four
        // and three extended-basis products instead of four. Aliasing is
        // detected by pointer only.
        let (t00, t01, t11) = if std::ptr::eq(a, b) {
            let cross = a0.mul(&self.ext_basis, &a1);
            (
                a0.mul(&self.ext_basis, &a0),
                cross.add(&self.ext_basis, &cross),
                a1.mul(&self.ext_basis, &a1),
            )
        } else {
            let b0 = lift(&b.polys[0]);
            let b1 = lift(&b.polys[1]);
            (
                a0.mul(&self.ext_basis, &b0),
                a0.mul(&self.ext_basis, &b1)
                    .add(&self.ext_basis, &a1.mul(&self.ext_basis, &b0)),
                a1.mul(&self.ext_basis, &b1),
            )
        };
        let scale = |mut p: RnsPoly| -> RnsPoly {
            p.to_coeff(&self.ext_basis);
            let big = p.to_bigint_coeffs(&self.ext_basis);
            let t = self.ctx.params().plain_modulus.value();
            let values: Vec<UBig> = big
                .into_iter()
                .map(|w| {
                    // Center in the extended basis, scale by t/q with
                    // rounding, then map back into [0, q).
                    let (mag, negative) =
                        if w.cmp_big(&self.half_ext) == std::cmp::Ordering::Greater {
                            (self.ext_basis.q().sub(&w), true)
                        } else {
                            (w, false)
                        };
                    let rounded = mag.mul_u64(t).div_round(basis.q());
                    let reduced = rounded.div_rem(basis.q()).1;
                    if negative && !reduced.is_zero() {
                        basis.q().sub(&reduced)
                    } else {
                        reduced
                    }
                })
                .collect();
            RnsPoly::from_bigint_coeffs(basis, &values)
        };
        Ok(Ciphertext {
            polys: vec![scale(t00), scale(t01), scale(t11)],
        })
    }
}
