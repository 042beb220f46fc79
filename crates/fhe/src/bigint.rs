//! Minimal unsigned big-integer arithmetic.
//!
//! BFV decryption computes `round(t · [c(s)]_q / q) mod t` where `q` is a
//! product of several 50–60-bit RNS primes (hundreds of bits). The RNS
//! representation must therefore be CRT-reconstructed into a positional
//! integer for the final scaled rounding. This module implements exactly
//! the operations that pipeline needs — little-endian `u64`-limb add,
//! subtract, compare, multiply, shift, and divide-with-remainder — with no
//! external dependencies.

use std::cmp::Ordering;

#[cfg(debug_assertions)]
thread_local! {
    static UBIG_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Debug-build instrumentation: the number of [`UBig`] values constructed
/// on the **current thread** since it started. Release builds always
/// return 0. Tests use the delta across a code region to prove the RNS
/// multiplication fast path allocates no big integers; the counter is
/// thread-local so the worker threads of a caller's fan-out and
/// unrelated test threads cannot pollute the measurement.
#[must_use]
pub fn ubig_alloc_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        UBIG_ALLOCS.with(std::cell::Cell::get)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(debug_assertions)]
fn count_alloc() {
    UBIG_ALLOCS.with(|c| c.set(c.get() + 1));
}

#[cfg(not(debug_assertions))]
fn count_alloc() {}

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs,
/// normalized: no trailing zero limbs; zero is the empty limb vector).
///
/// # Examples
///
/// ```
/// use pasta_fhe::bigint::UBig;
/// let a = UBig::from_u128(u128::MAX);
/// let b = a.mul(&a);
/// let (q, r) = b.div_rem(&a);
/// assert_eq!(q, a);
/// assert!(r.is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// Zero.
    #[must_use]
    pub fn zero() -> Self {
        count_alloc();
        UBig { limbs: Vec::new() }
    }

    /// One.
    #[must_use]
    pub fn one() -> Self {
        count_alloc();
        UBig { limbs: vec![1] }
    }

    /// From a `u64`.
    #[must_use]
    pub fn from_u64(x: u64) -> Self {
        count_alloc();
        if x == 0 {
            UBig { limbs: Vec::new() }
        } else {
            UBig { limbs: vec![x] }
        }
    }

    /// From a `u128`.
    #[must_use]
    pub fn from_u128(x: u128) -> Self {
        count_alloc();
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        let mut v = UBig {
            limbs: vec![lo, hi],
        };
        v.normalize();
        v
    }

    /// From little-endian limbs (normalizing).
    #[must_use]
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        count_alloc();
        let mut v = UBig { limbs };
        v.normalize();
        v
    }

    /// The little-endian limbs (no trailing zeros).
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Bit length (0 for zero).
    #[must_use]
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Lowest 64 bits.
    #[must_use]
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Comparison.
    #[must_use]
    pub fn cmp_big(&self, other: &UBig) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &UBig) -> UBig {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u128;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = u128::from(self.limbs.get(i).copied().unwrap_or(0));
            let b = u128::from(other.limbs.get(i).copied().unwrap_or(0));
            let s = a + b + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (the pipeline never subtracts past zero).
    #[must_use]
    pub fn sub(&self, other: &UBig) -> UBig {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "bigint subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = i128::from(self.limbs[i]);
            let b = i128::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        debug_assert_eq!(borrow, 0);
        UBig::from_limbs(out)
    }

    /// `self · x` for a single limb.
    #[must_use]
    pub fn mul_u64(&self, x: u64) -> UBig {
        if x == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let p = u128::from(l) * u128::from(x) + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }

    /// `self · other` (schoolbook).
    #[must_use]
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        UBig::from_limbs(out)
    }

    /// `self << bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        UBig::from_limbs(out)
    }

    /// `self >> bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> UBig {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return UBig::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = src.get(i + 1).map_or(0, |&n| n << (64 - bit_shift));
            out.push(lo | hi);
        }
        UBig::from_limbs(out)
    }

    /// Tests bit `i`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .is_some_and(|&l| (l >> (i % 64)) & 1 == 1)
    }

    /// `(self / divisor, self % divisor)` by limb-wise schoolbook long
    /// division (Knuth Algorithm D, base 2⁶⁴).
    ///
    /// This sits on the BFV tensor-multiplication hot path: every CRT
    /// reconstruction and every scaled rounding divides by a *fixed*
    /// multi-hundred-bit modulus once per coefficient, so division must
    /// cost O(limbs²) words of work — not O(bits) full-width
    /// compare/subtract passes like naive binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &UBig) -> (UBig, UBig) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_big(divisor) == Ordering::Less {
            return (UBig::zero(), self.clone());
        }
        let n = divisor.limbs.len();
        if n == 1 {
            // Short division: one 128/64 step per dividend limb.
            let d = u128::from(divisor.limbs[0]);
            let mut q = vec![0u64; self.limbs.len()];
            let mut r: u128 = 0;
            for (i, &l) in self.limbs.iter().enumerate().rev() {
                let cur = (r << 64) | u128::from(l);
                q[i] = (cur / d) as u64;
                r = cur % d;
            }
            return (UBig::from_limbs(q), UBig::from_u64(r as u64));
        }

        // Normalize so the divisor's top limb has its high bit set; the
        // two-limb quotient-digit estimate is then off by at most two.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        debug_assert_eq!(v.len(), n);
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // explicit top limb for the loop
        let m = u.len() - 1 - n;
        let mut q = vec![0u64; m + 1];
        let v_top = u128::from(v[n - 1]);
        let v_next = u128::from(v[n - 2]);
        for j in (0..=m).rev() {
            // Estimate q̂ from the top two dividend limbs against v's top limb.
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let mut qhat = top / v_top;
            let mut rhat = top % v_top;
            while qhat >> 64 != 0 || qhat * v_next > (rhat << 64 | u128::from(u[j + n - 2])) {
                qhat -= 1;
                rhat += v_top;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // u[j..=j+n] -= q̂ · v, tracking a signed borrow.
            let qh = qhat as u64;
            let mut borrow: i128 = 0;
            for i in 0..n {
                let p = u128::from(qh) * u128::from(v[i]);
                let t = i128::from(u[j + i]) - borrow - i128::from(p as u64);
                u[j + i] = t as u64;
                borrow = i128::from((p >> 64) as u64) - (t >> 64);
            }
            let t = i128::from(u[j + n]) - borrow;
            u[j + n] = t as u64;
            if t < 0 {
                // q̂ was one too large (rare): add one divisor back.
                q[j] = qh - 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = u128::from(u[j + i]) + u128::from(v[i]) + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            } else {
                q[j] = qh;
            }
        }
        u.truncate(n);
        (UBig::from_limbs(q), UBig::from_limbs(u).shr(shift))
    }

    /// `self mod m` as a `u64`, for `m < 2^63` (used to push CRT values
    /// into small prime fields).
    #[must_use]
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "modulo zero");
        let mut r: u128 = 0;
        for &l in self.limbs.iter().rev() {
            r = ((r << 64) | u128::from(l)) % u128::from(m);
        }
        r as u64
    }

    /// Rounded division `round(self / divisor)` (half-up).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_round(&self, divisor: &UBig) -> UBig {
        let (q, r) = self.div_rem(divisor);
        // round half up: if 2r >= divisor, bump.
        if r.mul_u64(2).cmp_big(divisor) != Ordering::Less {
            q.add(&UBig::one())
        } else {
            q
        }
    }
}

impl std::fmt::Display for UBig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        write!(f, "0x")?;
        for (i, l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_construction() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::from_u64(0), UBig::zero());
        assert_eq!(UBig::from_u128(5).low_u64(), 5);
        assert_eq!(UBig::from_limbs(vec![1, 0, 0]).limbs(), &[1]);
        assert_eq!(UBig::from_u128(1 << 100).bits(), 101);
        assert_eq!(UBig::zero().bits(), 0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = UBig::from_u128(u128::MAX);
        let b = UBig::from_u128(u128::MAX - 12345);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), UBig::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = UBig::from_u64(1).sub(&UBig::from_u64(2));
    }

    #[test]
    fn mul_against_u128() {
        for (a, b) in [
            (u64::MAX, u64::MAX),
            (12345, 678_910),
            (0, 99),
            (1, u64::MAX),
        ] {
            let big = UBig::from_u64(a).mul(&UBig::from_u64(b));
            assert_eq!(big, UBig::from_u128(u128::from(a) * u128::from(b)));
            assert_eq!(UBig::from_u64(a).mul_u64(b), big);
        }
    }

    #[test]
    fn shifts() {
        let a = UBig::from_u64(0b1011);
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(a.shl(1).low_u64(), 0b10110);
        assert_eq!(a.shr(2).low_u64(), 0b10);
        assert_eq!(a.shr(64), UBig::zero());
        assert!(a.shl(64).bit(64 + 3));
    }

    #[test]
    fn div_rem_small_cases() {
        let (q, r) = UBig::from_u64(100).div_rem(&UBig::from_u64(7));
        assert_eq!((q.low_u64(), r.low_u64()), (14, 2));
        let (q, r) = UBig::from_u64(3).div_rem(&UBig::from_u64(7));
        assert_eq!((q, r.low_u64()), (UBig::zero(), 3));
    }

    #[test]
    fn div_round_half_up() {
        assert_eq!(UBig::from_u64(7).div_round(&UBig::from_u64(2)).low_u64(), 4);
        assert_eq!(UBig::from_u64(6).div_round(&UBig::from_u64(4)).low_u64(), 2); // 1.5 -> 2
        assert_eq!(UBig::from_u64(5).div_round(&UBig::from_u64(4)).low_u64(), 1);
    }

    #[test]
    fn div_rem_add_back_branch() {
        // Classic Knuth-D stress shape: the two-limb quotient estimate
        // overshoots and the multiply-subtract underflows, forcing the
        // add-back correction. Verified via the division identity.
        let a = UBig::from_limbs(vec![0, 0xffff_ffff_ffff_fffe, 0x8000_0000_0000_0000]);
        let b = UBig::from_limbs(vec![0xffff_ffff_ffff_ffff, 0x8000_0000_0000_0000]);
        let (q, r) = a.div_rem(&b);
        assert!(r.cmp_big(&b) == Ordering::Less);
        assert_eq!(q.mul(&b).add(&r), a);

        // And a wider case with a maximal divisor top limb.
        let a = UBig::from_limbs(vec![u64::MAX; 9]);
        let b = UBig::from_limbs(vec![1, 0, u64::MAX, u64::MAX]);
        let (q, r) = a.div_rem(&b);
        assert!(r.cmp_big(&b) == Ordering::Less);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn rem_u64_matches_div_rem() {
        let a = UBig::from_u128(u128::MAX).mul(&UBig::from_u128(u128::MAX / 3));
        for m in [2u64, 65_537, (1 << 61) - 1, u64::MAX >> 1] {
            let (_, r) = a.div_rem(&UBig::from_u64(m));
            assert_eq!(a.rem_u64(m), r.low_u64(), "m = {m}");
        }
    }

    #[test]
    fn display_hex() {
        assert_eq!(UBig::zero().to_string(), "0");
        assert_eq!(
            UBig::from_u128((1u128 << 64) + 0xAB).to_string(),
            "0x100000000000000ab"
        );
    }

    proptest! {
        #[test]
        fn prop_div_rem_reconstructs(a in proptest::collection::vec(any::<u64>(), 1..12),
                                     b in proptest::collection::vec(any::<u64>(), 1..7)) {
            let a = UBig::from_limbs(a);
            let b = UBig::from_limbs(b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r.cmp_big(&b) == Ordering::Less);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }

        #[test]
        fn prop_mul_commutes_and_distributes(a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
            let (ba, bb, bc) = (UBig::from_u128(a), UBig::from_u128(b), UBig::from_u128(c));
            prop_assert_eq!(ba.mul(&bb), bb.mul(&ba));
            prop_assert_eq!(ba.mul(&bb.add(&bc)), ba.mul(&bb).add(&ba.mul(&bc)));
        }

        #[test]
        fn prop_shift_is_mul_by_power(a in any::<u128>(), s in 0usize..130) {
            let big = UBig::from_u128(a);
            let pow = UBig::one().shl(s);
            prop_assert_eq!(big.shl(s), big.mul(&pow));
        }
    }
}
