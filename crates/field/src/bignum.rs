//! The fixed-width integer behind [`crate::CrtBasis`]: a 1024-bit unsigned
//! integer with the comparison, carry-chain, word and division operations
//! that CRT composition, decomposition and rounding need, and nothing
//! modular beyond [`U1024::add_mod`].

use std::cmp::Ordering;
use std::fmt;

/// Number of 64-bit limbs in a [`U1024`].
pub const LIMBS: usize = 16;

/// A 1024-bit unsigned integer stored as 16 little-endian 64-bit limbs.
///
/// # Examples
///
/// ```
/// use pi_field::U1024;
/// let a = U1024::from_u64(7);
/// let b = U1024::from_u64(35);
/// assert!(a < b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U1024 {
    limbs: [u64; LIMBS],
}

impl fmt::Debug for U1024 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U1024(0x")?;
        let mut leading = true;
        for limb in self.limbs.iter().rev() {
            if leading && *limb == 0 {
                continue;
            }
            if leading {
                write!(f, "{limb:x}")?;
                leading = false;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        if leading {
            write!(f, "0")?;
        }
        write!(f, ")")
    }
}

impl PartialOrd for U1024 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U1024 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl Default for U1024 {
    fn default() -> Self {
        Self::ZERO
    }
}

impl U1024 {
    /// The value 0.
    pub const ZERO: Self = Self { limbs: [0; LIMBS] };

    /// The value 1.
    pub const ONE: Self = {
        let mut l = [0u64; LIMBS];
        l[0] = 1;
        Self { limbs: l }
    };

    /// Builds a value from a single `u64`.
    pub const fn from_u64(x: u64) -> Self {
        let mut l = [0u64; LIMBS];
        l[0] = x;
        Self { limbs: l }
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Serializes to 128 little-endian bytes.
    pub fn to_le_bytes(&self) -> [u8; 128] {
        let mut out = [0u8; 128];
        for (i, limb) in self.limbs.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Deserializes from 128 little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8; 128]) -> Self {
        let mut limbs = [0u64; LIMBS];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(b);
        }
        Self { limbs }
    }

    /// Adds with carry; returns (sum, carry).
    #[allow(clippy::needless_range_loop)] // lockstep carry chain over two limb arrays
    pub fn overflowing_add(&self, other: &Self) -> (Self, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (Self { limbs: out }, carry != 0)
    }

    /// Subtracts with borrow; returns (difference, borrow).
    #[allow(clippy::needless_range_loop)] // lockstep borrow chain over two limb arrays
    pub fn overflowing_sub(&self, other: &Self) -> (Self, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = 0u64;
        for i in 0..LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (Self { limbs: out }, borrow != 0)
    }

    /// Adds modulo `m` (assumes both operands `< m`).
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        let (sum, carry) = self.overflowing_add(other);
        let (reduced, borrow) = sum.overflowing_sub(m);
        if carry || !borrow {
            reduced
        } else {
            sum
        }
    }

    /// Number of significant bits (`0` for the value zero).
    pub fn bit_len(&self) -> u32 {
        for i in (0..LIMBS).rev() {
            if self.limbs[i] != 0 {
                return i as u32 * 64 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Tests bit `i` (little-endian numbering).
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Multiplies by a word, saturating semantics are **not** provided: the
    /// product must fit 1024 bits.
    ///
    /// # Panics
    ///
    /// Debug-panics on overflow past the top limb.
    pub fn mul_u64(&self, x: u64) -> Self {
        let mut out = [0u64; LIMBS];
        let mut carry = 0u64;
        for (o, &l) in out.iter_mut().zip(self.limbs.iter()) {
            let prod = l as u128 * x as u128 + carry as u128;
            *o = prod as u64;
            carry = (prod >> 64) as u64;
        }
        debug_assert_eq!(carry, 0, "U1024::mul_u64 overflow");
        Self { limbs: out }
    }

    /// Adds a word.
    ///
    /// # Panics
    ///
    /// Debug-panics on overflow past the top limb.
    pub fn add_u64(&self, x: u64) -> Self {
        let (sum, carry) = self.overflowing_add(&Self::from_u64(x));
        debug_assert!(!carry, "U1024::add_u64 overflow");
        sum
    }

    /// Remainder modulo a word-sized modulus `q < 2^62` (the [`crate::Modulus`]
    /// range), by limb-wise Horner reduction: fast enough to sit inside CRT
    /// residue decomposition loops.
    ///
    /// # Panics
    ///
    /// Debug-panics if `q` is zero or `q >= 2^62` (the intermediate
    /// `r·2^64 + limb` must fit a `u128`).
    pub fn rem_u64(&self, q: u64) -> u64 {
        debug_assert!(q != 0 && q < (1u64 << 62));
        let mut r = 0u64;
        for &limb in self.limbs.iter().rev() {
            r = ((((r as u128) << 64) | limb as u128) % q as u128) as u64;
        }
        r
    }

    /// Left shift by `k` bits.
    ///
    /// # Panics
    ///
    /// Debug-panics if nonzero bits are shifted out the top.
    pub fn shl(&self, k: u32) -> Self {
        debug_assert!(self.bit_len() + k <= 1024, "U1024::shl overflow");
        let word = (k / 64) as usize;
        let bit = k % 64;
        let mut out = [0u64; LIMBS];
        for i in (word..LIMBS).rev() {
            let mut v = self.limbs[i - word] << bit;
            if bit > 0 && i > word {
                v |= self.limbs[i - word - 1] >> (64 - bit);
            }
            out[i] = v;
        }
        Self { limbs: out }
    }

    /// Right shift by one bit.
    #[allow(clippy::needless_range_loop)] // each limb also reads its neighbour
    pub fn shr1(&self) -> Self {
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            out[i] = self.limbs[i] >> 1;
            if i + 1 < LIMBS {
                out[i] |= self.limbs[i + 1] << 63;
            }
        }
        Self { limbs: out }
    }

    /// Quotient and remainder by schoolbook binary long division, iterating
    /// only over the `bit_len(self) − bit_len(d) + 1` candidate quotient
    /// bits. This is what CRT composition/rounding needs: dividends exceed
    /// divisors by at most a couple hundred bits, so the loop is short.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &Self) -> (Self, Self) {
        assert!(!d.is_zero(), "division by zero");
        let my_bits = self.bit_len();
        let d_bits = d.bit_len();
        if my_bits < d_bits {
            return (Self::ZERO, *self);
        }
        let mut shift = my_bits - d_bits;
        let mut shifted = d.shl(shift);
        let mut quot = Self::ZERO;
        let mut rem = *self;
        loop {
            if rem >= shifted {
                rem = rem.overflowing_sub(&shifted).0;
                quot.limbs[(shift / 64) as usize] |= 1 << (shift % 64);
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
            shifted = shifted.shr1();
        }
        (quot, rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_and_basic_arith() {
        let a = U1024::from_u64(10);
        let b = U1024::from_u64(3);
        assert!(a > b);
        let (sum, c) = a.overflowing_add(&b);
        assert_eq!(sum, U1024::from_u64(13));
        assert!(!c);
        let (diff, bo) = b.overflowing_sub(&a);
        assert!(bo); // wraps
        let (back, _) = diff.overflowing_add(&a);
        assert_eq!(back, b);
    }

    #[test]
    fn bytes_roundtrip() {
        let elem = U1024 {
            limbs: std::array::from_fn(|i| 0x0123_4567_89ab_cdef << i),
        };
        let bytes = elem.to_le_bytes();
        assert_eq!(bytes[..8], 0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(U1024::from_le_bytes(&bytes), elem);
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(U1024::ZERO.bit_len(), 0);
        assert_eq!(U1024::ONE.bit_len(), 1);
        assert_eq!(U1024::from_u64(0xff).bit_len(), 8);
        let x = U1024::ONE.shl(3 * 64 + 5);
        assert_eq!(x.bit_len(), 3 * 64 + 6);
        assert!(x.bit(3 * 64 + 5));
        assert!(!x.bit(3 * 64 + 4));
    }

    #[test]
    fn word_arithmetic_and_shifts() {
        let a = U1024::from_u64(1 << 40);
        assert_eq!(a.mul_u64(1 << 20), a.shl(20));
        assert_eq!(a.add_u64(5).rem_u64(1 << 40), 5);
        assert_eq!(a.shl(64).shr1().bit_len(), 104);
        // Cross-limb carry in mul_u64.
        let b = U1024::from_u64(u64::MAX).mul_u64(u64::MAX);
        assert_eq!(b.bit_len(), 128);
        assert_eq!(b.rem_u64((1 << 61) - 1), {
            let m = (1u128 << 61) - 1;
            ((u64::MAX as u128 % m) * (u64::MAX as u128 % m) % m) as u64
        });
    }

    #[test]
    fn div_rem_matches_u128() {
        let cases: [(u128, u128); 5] = [
            (0, 7),
            (6, 7),
            (12345678901234567890, 97),
            (u128::MAX, 3),
            (u128::MAX, u128::MAX - 1),
        ];
        let big = |v: u128| U1024::from_u64((v >> 64) as u64).shl(64).add_u64(v as u64);
        for (x, d) in cases {
            let (q, r) = big(x).div_rem(&big(d));
            assert_eq!(q, big(x / d), "quotient for {x}/{d}");
            assert_eq!(r, big(x % d), "remainder for {x}%{d}");
        }
    }

    #[test]
    fn div_rem_wide_values() {
        // (2^500 + 12345) / (2^130 + 7): verify via multiply-back identity.
        let x = U1024::ONE.shl(500).add_u64(12345);
        let d = U1024::ONE.shl(130).add_u64(7);
        let (q, r) = x.div_rem(&d);
        assert!(r < d);
        // q*d + r == x, assembled with schoolbook ops.
        let mut back = U1024::ZERO;
        // back = q * d via shift-add on set bits of d (d has 2 bits set).
        back = back.overflowing_add(&q.shl(130)).0;
        back = back.overflowing_add(&q.mul_u64(7)).0;
        back = back.overflowing_add(&r).0;
        assert_eq!(back, x);
    }

    #[test]
    fn add_mod_stays_reduced() {
        let p = U1024::from_u64((1 << 61) - 1);
        let a = U1024::from_u64((1 << 61) - 2);
        let s = a.add_mod(&a, &p);
        // (p-1)+(p-1) mod p == p-2
        assert_eq!(s, U1024::from_u64((1 << 61) - 3));
    }
}
