//! Word-sized modular arithmetic with Barrett and Shoup reduction.
//!
//! # Reduction strategies and lazy ranges
//!
//! Two multiplication strategies coexist here, mirroring the
//! Longa–Naehrig/Harvey formulation used by production lattice libraries:
//!
//! * **Barrett** ([`Modulus::mul`], [`Modulus::reduce_u128`]): works for any
//!   pair of reduced operands; used when both factors vary.
//! * **Shoup** ([`Modulus::mul_shoup`], [`Modulus::mul_shoup_lazy`]): when one
//!   factor `w < q` is fixed and reused (NTT twiddles, plaintext diagonals,
//!   key-switching keys), precomputing `w' = floor(w·2^64 / q)` (a
//!   [`ShoupMul`]) turns each product into two multiplies, one high-half
//!   multiply, and at most one conditional subtraction — no 128-bit Barrett
//!   machinery in the inner loop.
//!
//! The *lazy* variants deliberately leave results **unreduced** so hot loops
//! can defer the final correction:
//!
//! | function                     | accepts            | returns    |
//! |------------------------------|--------------------|------------|
//! | [`Modulus::add`]/[`sub`](Modulus::sub)/[`mul`](Modulus::mul) | `[0, q)` | `[0, q)` |
//! | [`Modulus::mul_shoup`]       | any `u64` × Shoup  | `[0, q)`   |
//! | [`Modulus::mul_shoup_lazy`]  | any `u64` × Shoup  | `[0, 2q)`  |
//! | [`Modulus::add_lazy`]        | `[0, 2q)`          | `[0, 2q)`  |
//! | [`Modulus::reduce_lazy`]     | `[0, 2q)`          | `[0, q)`   |
//! | `Modulus::reduce_4q`         | `[0, 4q)`          | `[0, q)`   |
//!
//! Because `q < 2^62`, every value in `[0, 4q)` fits a `u64` with headroom,
//! which is exactly what the Harvey NTT butterflies in `pi-poly` exploit.

use std::fmt;

/// A modulus `q < 2^62` with precomputed Barrett constant.
///
/// All strict arithmetic is over the ring `Z_q = {0, 1, ..., q-1}`. Inputs to
/// [`Modulus::add`], [`Modulus::sub`] and [`Modulus::mul`] must already be
/// reduced; use [`Modulus::reduce`] for arbitrary `u64` and
/// [`Modulus::reduce_u128`] for 128-bit products. See the module docs for the
/// lazy-reduction variants and their accepted/returned ranges.
///
/// # Examples
///
/// ```
/// use pi_field::Modulus;
/// let q = Modulus::new(17);
/// assert_eq!(q.add(16, 5), 4);
/// assert_eq!(q.sub(3, 5), 15);
/// assert_eq!(q.neg(1), 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / q), stored as (hi, lo) 64-bit words.
    barrett_hi: u64,
    barrett_lo: u64,
}

/// A fixed multiplicand `w < q` in Shoup representation: the value itself
/// plus the precomputed quotient `w' = floor(w·2^64 / q)`.
///
/// Build with [`Modulus::shoup`]; consume with [`Modulus::mul_shoup`] /
/// [`Modulus::mul_shoup_lazy`]. Precomputing `w'` costs two multiplies against
/// the modulus's Barrett constant and one exact remainder correction — no
/// division — so building an operand costs about what using it once does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShoupMul {
    /// The multiplicand `w`, reduced into `[0, q)`.
    pub value: u64,
    /// `floor(w · 2^64 / q)`.
    pub quotient: u64,
}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Modulus({})", self.value)
    }
}

impl fmt::Display for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62`.
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(q < (1u64 << 62), "modulus must be below 2^62");
        // Compute floor(2^128 / q) via 128-bit long division in two halves.
        // hi = floor(2^64 / q) contribution; do full division of the 256-bit
        // value 2^128 by q using u128 arithmetic:
        //   2^128 / q = (2^64 / q) * 2^64 + ((2^64 mod q) * 2^64) / q   (approx)
        // We do it exactly with u128:
        let hi = u128::MAX / q as u128; // floor((2^128 - 1)/q) == floor(2^128/q) unless q | 2^128
                                        // q is odd in all our uses (prime), so q does not divide 2^128 and
                                        // floor((2^128-1)/q) == floor(2^128/q). For even q the constant may be
                                        // one short, which Barrett's final correction step absorbs (see the
                                        // bound analysis in `reduce_u128`).
        Self {
            value: q,
            barrett_hi: (hi >> 64) as u64,
            barrett_lo: hi as u64,
        }
    }

    /// Returns the modulus value `q`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Returns `2q`, the upper bound of the lazy `[0, 2q)` range.
    #[inline]
    pub fn twice(&self) -> u64 {
        self.value << 1
    }

    /// Returns the number of bits needed to represent `q - 1`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - (self.value - 1).leading_zeros()
    }

    /// The Barrett constant `floor((2^128 − 1)/q)` as `(hi, lo)` words, for
    /// the lane-wide reduction in [`crate::simd`].
    #[inline]
    pub(crate) fn barrett_parts(&self) -> (u64, u64) {
        (self.barrett_hi, self.barrett_lo)
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        if x < self.value {
            x
        } else {
            x % self.value
        }
    }

    /// Reduces a 128-bit value into `[0, q)` using Barrett reduction.
    ///
    /// The quotient estimate `qhat = floor(x·B / 2^128)` with
    /// `B = floor((2^128 - 1)/q)` undershoots the true quotient
    /// `t = floor(x/q)` by a **proven bound of at most 2**:
    /// `B ≥ 2^128/q − 2` (equality gap 1 from the `−1` in the dividend, 1
    /// from the floor), so `x·B/2^128 ≥ x/q − 2·x/2^128 > x/q − 2`, hence
    /// `qhat ≥ t − 2` and the remainder `x − qhat·q < 3q < 3·2^62 < 2^64`
    /// fits a word. Two explicit conditional subtractions therefore complete
    /// the reduction — no data-dependent loop.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // Estimate quotient: qhat = floor(x * floor(2^128/q) / 2^128).
        let xl = x as u64;
        let xh = (x >> 64) as u64;
        // x * barrett = (xh*2^64 + xl) * (bh*2^64 + bl); we need bits >= 128.
        let bl = self.barrett_lo as u128;
        let bh = self.barrett_hi as u128;
        let xl = xl as u128;
        let xh = xh as u128;
        // Partial products contributing to the >=2^128 part:
        let lo_lo = (xl * bl) >> 64; // carries into the 2^64 word
        let mid1 = xl * bh;
        let mid2 = xh * bl;
        let mid = lo_lo + (mid1 & ((1u128 << 64) - 1)) + (mid2 & ((1u128 << 64) - 1));
        let qhat = xh * bh + (mid1 >> 64) + (mid2 >> 64) + (mid >> 64);
        let mut r = x.wrapping_sub(qhat.wrapping_mul(self.value as u128)) as u64;
        // r < 3q by the bound above: two conditional subtractions finish.
        if r >= self.twice() {
            r -= self.twice();
        }
        if r >= self.value {
            r -= self.value;
        }
        r
    }

    /// Precomputes the Shoup representation of a fixed multiplicand.
    ///
    /// The multiplicand must already be reduced (`w < q`): the range proof
    /// behind [`Modulus::mul_shoup_lazy`] assumes it, and an unreduced `w`
    /// would yield products that are not congruent to `a·(w mod q)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `w >= q`. Release builds do **not** reduce or check;
    /// violating the contract silently produces wrong results, so callers
    /// must pass reduced values (every call site in this workspace does).
    ///
    /// # The quotient without a division
    ///
    /// `w' = floor(x/q)` for `x = w·2^64 < 2^126`. With the Barrett constant
    /// `B = bh·2^64 + bl` the estimate `floor(x·B / 2^128)` is
    /// `w·bh + floor(w·bl / 2^64)` exactly (`w·bh·2^64` is a multiple of
    /// `2^64`), fits a word (`bh ≤ 2^64/q`, `w < q`), and by the bound in
    /// [`Modulus::reduce_u128`] undershoots `w'` by at most 2 with a
    /// remainder `x − est·q < 3q < 2^64` — whose low word is all of it,
    /// since `x`'s low word is zero. Two conditional steps then make the
    /// quotient the **true floor**, which [`Modulus::mul_shoup_lazy`]'s
    /// range proof needs (`r0 < q`): the correction is not optional.
    #[inline]
    pub fn shoup(&self, w: u64) -> ShoupMul {
        debug_assert!(w < self.value, "Shoup operand must be reduced");
        let mut quotient = w
            .wrapping_mul(self.barrett_hi)
            .wrapping_add(((w as u128 * self.barrett_lo as u128) >> 64) as u64);
        let mut r = quotient.wrapping_mul(self.value).wrapping_neg();
        if r >= self.twice() {
            r -= self.twice();
            quotient += 2;
        }
        if r >= self.value {
            quotient += 1;
        }
        debug_assert_eq!(
            quotient,
            (((w as u128) << 64) / self.value as u128) as u64,
            "Shoup quotient must be the true floor"
        );
        ShoupMul { value: w, quotient }
    }

    /// Shoup multiplication `a·w mod q` with the result in `[0, 2q)`.
    ///
    /// Accepts **any** `a: u64` (not just reduced values): with
    /// `w' = floor(w·2^64/q)` and `r0 = w·2^64 − w'·q ∈ [0, q)`, the
    /// estimated quotient `Q = floor(w'·a / 2^64)` satisfies
    /// `Q ≥ floor(w·a/q − r0·a/(q·2^64)) ≥ floor(w·a/q) − 1` because
    /// `r0·a/(q·2^64) < 1`. Hence `w·a − Q·q ∈ [0, 2q)`, which fits a `u64`
    /// (`2q < 2^63`), so computing it in wrapping low-64 arithmetic is exact.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: ShoupMul) -> u64 {
        let q_est = ((w.quotient as u128 * a as u128) >> 64) as u64;
        w.value
            .wrapping_mul(a)
            .wrapping_sub(q_est.wrapping_mul(self.value))
    }

    /// Shoup multiplication `a·w mod q`, fully reduced into `[0, q)`.
    ///
    /// One conditional subtraction on top of [`Modulus::mul_shoup_lazy`].
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: ShoupMul) -> u64 {
        let r = self.mul_shoup_lazy(a, w);
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Lazy addition over the `[0, 2q)` domain: inputs in `[0, 2q)`, output
    /// in `[0, 2q)` (one conditional subtraction of `2q`). Cannot overflow:
    /// `4q < 2^64`.
    #[inline]
    pub fn add_lazy(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.twice() && b < self.twice());
        let s = a + b;
        if s >= self.twice() {
            s - self.twice()
        } else {
            s
        }
    }

    /// Final correction from the lazy `[0, 2q)` domain into `[0, q)`.
    #[inline]
    pub fn reduce_lazy(&self, a: u64) -> u64 {
        debug_assert!(a < self.twice());
        if a >= self.value {
            a - self.value
        } else {
            a
        }
    }

    /// Final correction from the forward-NTT `[0, 4q)` domain into `[0, q)`:
    /// two conditional subtractions.
    #[inline]
    pub(crate) fn reduce_4q(&self, a: u64) -> u64 {
        debug_assert!(a < 4 * self.value);
        let a = if a >= self.twice() {
            a - self.twice()
        } else {
            a
        };
        if a >= self.value {
            a - self.value
        } else {
            a
        }
    }

    /// Modular addition of two reduced values.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of two reduced values.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of a reduced value.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of two reduced values.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `(a * b + c) mod q` for reduced inputs.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1 % self.value;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` if `a` is not invertible (i.e. `gcd(a, q) != 1`).
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        let (mut old_r, mut r) = (a as i128, self.value as i128);
        let (mut old_s, mut s) = (1i128, 0i128);
        while r != 0 {
            let quot = old_r / r;
            (old_r, r) = (r, old_r - quot * r);
            (old_s, s) = (s, old_s - quot * s);
        }
        if old_r != 1 {
            return None;
        }
        let q = self.value as i128;
        Some(((old_s % q + q) % q) as u64)
    }

    /// Maps a reduced value into the balanced representation
    /// `(-q/2, q/2]` as a signed integer.
    ///
    /// Used when interpreting field elements as signed fixed-point numbers.
    #[inline]
    pub fn to_signed(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }

    /// Maps a signed integer into `[0, q)`.
    #[inline]
    pub fn from_signed(&self, a: i64) -> u64 {
        let q = self.value as i64;
        let r = a % q;
        if r < 0 {
            (r + q) as u64
        } else {
            r as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ops() {
        let q = Modulus::new(97);
        assert_eq!(q.add(96, 1), 0);
        assert_eq!(q.sub(0, 1), 96);
        assert_eq!(q.mul(96, 96), 1);
        assert_eq!(q.neg(0), 0);
        assert_eq!(q.neg(40), 57);
        assert_eq!(q.pow(2, 10), 1024 % 97);
        assert_eq!(q.inv(0), None);
    }

    #[test]
    fn reduce_u128_edge_cases() {
        let q = Modulus::new((1u64 << 61) + 1); // not prime, fine for reduction
        assert_eq!(q.reduce_u128(0), 0);
        assert_eq!(q.reduce_u128(q.value() as u128), 0);
        assert_eq!(
            q.reduce_u128(u128::MAX),
            (u128::MAX % q.value() as u128) as u64
        );
    }

    #[test]
    fn shoup_basic() {
        let q = Modulus::new(97);
        let w = q.shoup(35);
        assert_eq!(w.value, 35);
        for a in 0..97 {
            assert_eq!(q.mul_shoup(a, w), q.mul(a, 35));
            assert!(q.mul_shoup_lazy(a, w) < 2 * 97);
        }
        // Lazy result is congruent mod q even for unreduced a.
        for a in [97u64, 1000, u64::MAX, u64::MAX - 1] {
            let lazy = q.mul_shoup_lazy(a, w);
            assert!(lazy < 2 * 97);
            assert_eq!(lazy % 97, ((a as u128 * 35) % 97) as u64);
        }
    }

    #[test]
    fn shoup_at_61_bit_overflow_boundary() {
        // Largest NTT-friendly prime below 2^61 used by default_pi params;
        // exercises the top of the supported range where w·a approaches
        // 2^125 and the lazy domain approaches 2^63.
        let q = Modulus::new(crate::find_ntt_prime(61, 4096));
        assert!(q.value() > (1u64 << 60));
        let w_vals = [1u64, 2, q.value() - 1, q.value() / 2, (1u64 << 60) + 12345];
        let a_vals = [
            0u64,
            1,
            q.value() - 1,
            q.twice() - 1,     // top of the lazy input range
            4 * q.value() - 1, // top of the Harvey forward range
            u64::MAX,          // arbitrary-u64 contract
        ];
        for &wv in &w_vals {
            let w = q.shoup(wv % q.value());
            for &a in &a_vals {
                let lazy = q.mul_shoup_lazy(a, w);
                assert!(lazy < q.twice(), "lazy out of range: {lazy}");
                let expect = ((a as u128 * w.value as u128) % q.value() as u128) as u64;
                assert_eq!(lazy % q.value(), expect);
                assert_eq!(q.mul_shoup(a, w), expect);
            }
        }
    }

    #[test]
    fn lazy_domain_ops() {
        let q = Modulus::new(97);
        let two_q = q.twice();
        for a in (0..two_q).step_by(7) {
            for b in (0..two_q).step_by(11) {
                let s = q.add_lazy(a, b);
                assert!(s < two_q);
                assert_eq!(s % 97, (a + b) % 97);
            }
            assert_eq!(q.reduce_lazy(a), a % 97);
        }
        for a in 0..4 * 97 {
            assert_eq!(q.reduce_4q(a), a % 97);
        }
    }

    #[test]
    fn signed_roundtrip() {
        let q = Modulus::new(1_000_003);
        assert_eq!(q.to_signed(1), 1);
        assert_eq!(q.to_signed(q.value() - 1), -1);
        assert_eq!(q.from_signed(-1), q.value() - 1);
        assert_eq!(q.from_signed(-(q.value() as i64)), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_huge_modulus() {
        Modulus::new(1u64 << 62);
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_modulus() {
        Modulus::new(1);
    }

    proptest! {
        #[test]
        fn mul_matches_u128(q in 2u64..(1 << 62), a: u64, b: u64) {
            let m = Modulus::new(q);
            let a = a % q;
            let b = b % q;
            prop_assert_eq!(m.mul(a, b) as u128, (a as u128 * b as u128) % q as u128);
        }

        #[test]
        fn reduce_u128_matches(q in 2u64..(1 << 62), x: u128) {
            let m = Modulus::new(q);
            prop_assert_eq!(m.reduce_u128(x) as u128, x % q as u128);
        }

        #[test]
        fn mul_shoup_matches_mul(q in 2u64..(1 << 62), w: u64, a: u64) {
            let m = Modulus::new(q);
            let w = m.shoup(w % q);
            let a_red = a % q;
            // Exact Shoup ≡ Barrett on reduced operands.
            prop_assert_eq!(m.mul_shoup(a_red, w), m.mul(a_red, w.value));
            // Lazy Shoup: in range and congruent, for ARBITRARY u64 a.
            let lazy = m.mul_shoup_lazy(a, w);
            prop_assert!(lazy < m.twice());
            prop_assert_eq!(
                lazy as u128 % q as u128,
                (a as u128 * w.value as u128) % q as u128
            );
        }

        /// The division-free quotient against the division it replaced,
        /// over the NTT primes the rings use and over arbitrary moduli
        /// (powers of two included: the Barrett constant is one short
        /// there).
        #[test]
        fn shoup_quotient_is_the_true_floor(
            bits in 28u32..=62,
            log_n in 10u32..=13,
            any_q in 2u64..(1 << 62),
            r: u64,
        ) {
            let prime = crate::find_ntt_prime(bits, 1 << log_n);
            for q in [prime, any_q, 1 << (bits - 1)] {
                let m = Modulus::new(q);
                for w in [0, 1 % q, q - 1, r % q] {
                    let s = m.shoup(w);
                    prop_assert_eq!(s.value, w);
                    prop_assert_eq!(s.quotient as u128, ((w as u128) << 64) / q as u128);
                }
            }
        }

        #[test]
        fn lazy_ops_congruent(q in 2u64..(1 << 62), a: u64, b: u64) {
            let m = Modulus::new(q);
            let a = a % m.twice();
            let b = b % m.twice();
            let s = m.add_lazy(a, b);
            prop_assert!(s < m.twice());
            prop_assert_eq!(s % q, ((a as u128 + b as u128) % q as u128) as u64);
            prop_assert_eq!(m.reduce_lazy(a), a % q);
        }

        #[test]
        fn add_sub_inverse(q in 2u64..(1 << 62), a: u64, b: u64) {
            let m = Modulus::new(q);
            let a = a % q;
            let b = b % q;
            prop_assert_eq!(m.sub(m.add(a, b), b), a);
            prop_assert_eq!(m.add(m.sub(a, b), b), a);
        }

        #[test]
        fn inverse_is_inverse(a in 1u64..96) {
            let m = Modulus::new(97);
            let inv = m.inv(a).unwrap();
            prop_assert_eq!(m.mul(a, inv), 1);
        }

        #[test]
        fn pow_agrees_with_naive(base in 0u64..97, exp in 0u64..64) {
            let m = Modulus::new(97);
            let mut acc = 1u64;
            for _ in 0..exp {
                acc = m.mul(acc, base % 97);
            }
            prop_assert_eq!(m.pow(base, exp), acc);
        }
    }
}
