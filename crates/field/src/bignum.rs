//! Fixed-width 1024-bit integers with Montgomery modular arithmetic.
//!
//! This is the big-integer machinery behind the Naor–Pinkas base oblivious
//! transfer in `pi-ot`: multiplication, exponentiation and inversion in a
//! fixed 1024-bit MODP group (Oakley Group 2 from RFC 2409).
//!
//! **Security caveat.** A 1024-bit discrete log is below modern security
//! margins (≈80 bits). The group is a stand-in for an elliptic-curve group,
//! chosen so that the base OT exercises real public-key structure — full
//! 1023-bit exponents, a CDH assumption, 128-byte elements on the wire —
//! without an external curve crate. Nothing below is constant-time either:
//! the windowed exponentiations skip zero digits.
//!
//! Exponentiation comes in the two shapes the base OT needs, both counted
//! in Montgomery multiplications of a full-width exponent:
//!
//! * [`ModpGroup::pow`] — a **variable** base, 5-bit fixed windows:
//!   30 multiplications for the table of odd and even powers, 5 squarings
//!   per window and at most one multiplication per window (≈1 260 against
//!   the ≈1 536 of bit-by-bit square-and-multiply).
//! * [`ModpGroup::pow_fixed`] / [`ModpGroup::pow_g`] — a base **raised
//!   many times**: a [`FixedBase`] table holds `base^(d·16^w)` for every
//!   4-bit digit `d` and window `w` (3 840 multiplications to build, once),
//!   after which a power is the product of one entry per non-zero digit —
//!   at most 256 multiplications and no squaring.
//!
//! [`ModpGroup::batch_inv`] inverts many elements for one Fermat
//! exponentiation plus three multiplications each (Montgomery's trick).

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

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

    /// Builds a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        Self { limbs }
    }

    /// Builds a value from a single `u64`.
    pub const fn from_u64(x: u64) -> Self {
        let mut l = [0u64; LIMBS];
        l[0] = x;
        Self { limbs: l }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
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

    /// Doubles the value modulo `m` (assumes `self < m`).
    fn double_mod(&self, m: &Self) -> Self {
        let (doubled, carry) = self.overflowing_add(self);
        let (reduced, borrow) = doubled.overflowing_sub(m);
        if carry || !borrow {
            reduced
        } else {
            doubled
        }
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

    /// The `width ≤ 8` bits starting at bit `lo`, as a digit; bits past the
    /// top limb read as zero.
    #[inline]
    fn window(&self, lo: u32, width: u32) -> usize {
        let (limb, shift) = ((lo / 64) as usize, lo % 64);
        let mut bits = self.limbs.get(limb).map_or(0, |l| l >> shift);
        if shift + width > 64 {
            bits |= self.limbs.get(limb + 1).map_or(0, |l| l << (64 - shift));
        }
        (bits & ((1 << width) - 1)) as usize
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

/// Digit width of a [`FixedBase`] table.
const FIXED_WINDOW: u32 = 4;
/// Digits of a full-width exponent under [`FIXED_WINDOW`].
const FIXED_WINDOWS: usize = (LIMBS * 64) / FIXED_WINDOW as usize;
/// Non-zero digit values per window.
const FIXED_DIGITS: usize = (1 << FIXED_WINDOW) - 1;
/// Digit width of the variable-base [`ModpGroup::pow`].
const POW_WINDOW: u32 = 5;

/// Every power `base^(d·16^w)` of one base, for digits `d ∈ [1, 16)` and
/// windows `w ∈ [0, 256)`, in the Montgomery form of the group that built
/// it: 480 KB that turn each later exponentiation of that base into at
/// most 256 multiplications. Build with [`ModpGroup::fixed_base`], raise
/// with [`ModpGroup::pow_fixed`] of the **same** group.
#[derive(Clone)]
pub struct FixedBase {
    /// Entry `w·15 + (d − 1)` is `base^(d·16^w)`.
    table: Vec<U1024>,
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedBase({} entries)", self.table.len())
    }
}

/// A fixed prime-order multiplicative group `Z_p^*` with Montgomery
/// arithmetic, supporting the operations the base OT needs: exponentiation,
/// multiplication, inversion, and sampling.
///
/// # Examples
///
/// ```
/// use pi_field::ModpGroup;
/// let g = ModpGroup::oakley2();
/// let mut rng = rand::thread_rng();
/// let (x, gx) = g.random_element(&mut rng);
/// // g^x * g^(-x) == 1 via Fermat inversion
/// let inv = g.inv(&gx);
/// assert_eq!(g.mul(&gx, &inv), pi_field::U1024::ONE);
/// # let _ = x;
/// ```
#[derive(Clone, Debug)]
pub struct ModpGroup {
    /// The prime modulus p.
    p: U1024,
    /// -p^{-1} mod 2^64 (Montgomery constant).
    n0_inv: u64,
    /// R^2 mod p where R = 2^1024 (for conversion into Montgomery form).
    r2: U1024,
    /// R mod p (Montgomery form of 1).
    r1: U1024,
    /// The generator (2 for Oakley Group 2), in normal form.
    generator: U1024,
    /// The generator's window table, behind [`ModpGroup::pow_g`].
    generator_table: FixedBase,
}

/// The 1024-bit Oakley Group 2 prime (RFC 2409 §6.2), big-endian words
/// listed most-significant first.
const OAKLEY2_BE: [u64; LIMBS] = [
    0xFFFFFFFFFFFFFFFF,
    0xC90FDAA22168C234,
    0xC4C6628B80DC1CD1,
    0x29024E088A67CC74,
    0x020BBEA63B139B22,
    0x514A08798E3404DD,
    0xEF9519B3CD3A431B,
    0x302B0A6DF25F1437,
    0x4FE1356D6D51C245,
    0xE485B576625E7EC6,
    0xF44C42E9A637ED6B,
    0x0BFF5CB6F406B7ED,
    0xEE386BFB5A899FA5,
    0xAE9F24117C4B1FE6,
    0x49286651ECE65381,
    0xFFFFFFFFFFFFFFFF,
];

impl ModpGroup {
    /// The Oakley Group 2 (1024-bit MODP, generator 2), built — Montgomery
    /// constants and generator table — once per process.
    pub fn oakley2() -> &'static Self {
        static OAKLEY2: OnceLock<ModpGroup> = OnceLock::new();
        OAKLEY2.get_or_init(|| {
            let mut limbs = OAKLEY2_BE;
            limbs.reverse();
            Self::new(U1024::from_limbs(limbs), U1024::from_u64(2))
        })
    }

    /// Constructs a group from an odd modulus and generator.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or smaller than 3.
    pub fn new(p: U1024, generator: U1024) -> Self {
        assert!(p.limbs[0] & 1 == 1, "modulus must be odd");
        // n0_inv = -p^{-1} mod 2^64 via Newton iteration.
        let p0 = p.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // r1 = 2^1024 mod p: start from the highest representable value and
        // fold in; compute by doubling 1, 1024 times, mod p.
        let mut r1 = U1024::ONE;
        for _ in 0..1024 {
            r1 = r1.double_mod(&p);
        }
        // r2 = R^2 mod p: double r1 another 1024 times.
        let mut r2 = r1;
        for _ in 0..1024 {
            r2 = r2.double_mod(&p);
        }
        let mut group = Self {
            p,
            n0_inv,
            r2,
            r1,
            generator,
            generator_table: FixedBase { table: Vec::new() },
        };
        // Building the table takes the group's own multiply.
        group.generator_table = group.fixed_base(&generator);
        group
    }

    /// Returns the group modulus.
    pub fn modulus(&self) -> &U1024 {
        &self.p
    }

    /// Returns the group generator.
    pub fn generator(&self) -> &U1024 {
        &self.generator
    }

    /// Whether `x` is a reduced, invertible residue: `0 < x < p`. What a
    /// peer-supplied element must satisfy before it reaches the arithmetic.
    pub fn contains(&self, x: &U1024) -> bool {
        !x.is_zero() && *x < self.p
    }

    /// Montgomery reduction of a 32-limb product (CIOS interleaved form
    /// operates on the fly in `mont_mul`; this reduces an existing wide
    /// value).
    fn mont_mul(&self, a: &U1024, b: &U1024) -> U1024 {
        // CIOS (coarsely integrated operand scanning) Montgomery multiply.
        let mut t = [0u64; LIMBS + 2];
        #[allow(clippy::needless_range_loop)] // lockstep scan over a, b, and t
        for i in 0..LIMBS {
            // t += a[i] * b
            let mut carry = 0u64;
            for j in 0..LIMBS {
                let prod = a.limbs[i] as u128 * b.limbs[j] as u128 + t[j] as u128 + carry as u128;
                t[j] = prod as u64;
                carry = (prod >> 64) as u64;
            }
            let s = t[LIMBS] as u128 + carry as u128;
            t[LIMBS] = s as u64;
            t[LIMBS + 1] = (s >> 64) as u64;
            // m = t[0] * n0_inv mod 2^64; t += m * p; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let prod = m as u128 * self.p.limbs[0] as u128 + t[0] as u128;
            let mut carry = (prod >> 64) as u64;
            for j in 1..LIMBS {
                let prod = m as u128 * self.p.limbs[j] as u128 + t[j] as u128 + carry as u128;
                t[j - 1] = prod as u64;
                carry = (prod >> 64) as u64;
            }
            let s = t[LIMBS] as u128 + carry as u128;
            t[LIMBS - 1] = s as u64;
            let s2 = t[LIMBS + 1] + ((s >> 64) as u64);
            t[LIMBS] = s2;
            t[LIMBS + 1] = 0;
        }
        let mut out = [0u64; LIMBS];
        out.copy_from_slice(&t[..LIMBS]);
        let result = U1024::from_limbs(out);
        if t[LIMBS] != 0 || result >= self.p {
            result.overflowing_sub(&self.p).0
        } else {
            result
        }
    }

    /// Converts into Montgomery form.
    fn to_mont(&self, a: &U1024) -> U1024 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)] // "from Montgomery form", not a constructor
    fn from_mont(&self, a: &U1024) -> U1024 {
        self.mont_mul(a, &U1024::ONE)
    }

    /// Modular multiplication `a * b mod p` (normal form in and out).
    pub fn mul(&self, a: &U1024, b: &U1024) -> U1024 {
        // (aR)·b·R^{-1} = ab: one operand in Montgomery form is enough.
        self.mont_mul(&self.to_mont(a), b)
    }

    /// Modular exponentiation `base^exp mod p` of a variable base, by 5-bit
    /// fixed windows from the top of the exponent; high zero windows cost
    /// nothing.
    pub fn pow(&self, base: &U1024, exp: &U1024) -> U1024 {
        self.from_mont(&self.pow_mont(&self.to_mont(base), exp))
    }

    /// [`ModpGroup::pow`] with base and result in Montgomery form.
    fn pow_mont(&self, base_m: &U1024, exp: &U1024) -> U1024 {
        let windows = exp.bit_len().div_ceil(POW_WINDOW);
        if windows == 0 {
            return self.r1;
        }
        let mut powers = [self.r1; 1 << POW_WINDOW];
        powers[1] = *base_m;
        for d in 2..powers.len() {
            powers[d] = self.mont_mul(&powers[d - 1], base_m);
        }
        // The top window holds the exponent's highest set bit: never zero.
        let mut acc = powers[exp.window((windows - 1) * POW_WINDOW, POW_WINDOW)];
        for w in (0..windows - 1).rev() {
            for _ in 0..POW_WINDOW {
                acc = self.mont_mul(&acc, &acc);
            }
            let d = exp.window(w * POW_WINDOW, POW_WINDOW);
            if d != 0 {
                acc = self.mont_mul(&acc, &powers[d]);
            }
        }
        acc
    }

    /// Builds the window table of `base` (3 840 multiplications), for a
    /// base about to be raised to many exponents.
    pub fn fixed_base(&self, base: &U1024) -> FixedBase {
        let mut table = Vec::with_capacity(FIXED_WINDOWS * FIXED_DIGITS);
        let mut unit = self.to_mont(base); // base^(16^w)
        for _ in 0..FIXED_WINDOWS {
            let mut power = unit;
            table.push(power);
            for _ in 1..FIXED_DIGITS {
                power = self.mont_mul(&power, &unit);
                table.push(power);
            }
            unit = self.mont_mul(&power, &unit);
        }
        FixedBase { table }
    }

    /// Raises the base of `table` (built by this group's
    /// [`ModpGroup::fixed_base`]) to `exp`: one multiplication per non-zero
    /// 4-bit digit of the exponent.
    pub fn pow_fixed(&self, table: &FixedBase, exp: &U1024) -> U1024 {
        let mut acc = self.r1;
        for (w, powers) in table.table.chunks_exact(FIXED_DIGITS).enumerate() {
            let d = exp.window(w as u32 * FIXED_WINDOW, FIXED_WINDOW);
            if d != 0 {
                acc = self.mont_mul(&acc, &powers[d - 1]);
            }
        }
        self.from_mont(&acc)
    }

    /// Raises the generator to `exp`, off its window table.
    pub fn pow_g(&self, exp: &U1024) -> U1024 {
        self.pow_fixed(&self.generator_table, exp)
    }

    /// `p − 2`, the Fermat inversion exponent.
    fn inv_exponent(&self) -> U1024 {
        self.p.overflowing_sub(&U1024::from_u64(2)).0
    }

    /// Modular inversion via Fermat's little theorem (`a^(p-2)`).
    pub fn inv(&self, a: &U1024) -> U1024 {
        self.pow(a, &self.inv_exponent())
    }

    /// Inverts every element of `elems` (each in `0 < x < p`) for one
    /// Fermat exponentiation plus three multiplications per element
    /// (Montgomery's trick). A zero among them zeroes every output, as it
    /// zeroes the product: range-check peer input first.
    pub fn batch_inv(&self, elems: &[U1024]) -> Vec<U1024> {
        // `mont_mul` of two normal-form values leaves a factor R^{-1}
        // behind. The factors are left to pile up on the way in and cancel
        // on the way out, so no element is converted:
        //   prefix[i] = a_0 ⋯ a_i · R^{-i}.
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = match elems.first() {
            Some(first) => *first,
            None => return Vec::new(),
        };
        prefix.push(acc);
        for a in &elems[1..] {
            acc = self.mont_mul(&acc, a);
            prefix.push(acc);
        }
        // suffix = (a_0 ⋯ a_i)^{-1} · R^i, from i = n − 1 down.
        let mut suffix = self.inv(&acc);
        let mut out = vec![U1024::ZERO; elems.len()];
        for i in (1..elems.len()).rev() {
            out[i] = self.mont_mul(&suffix, &prefix[i - 1]);
            suffix = self.mont_mul(&suffix, &elems[i]);
        }
        out[0] = suffix;
        out
    }

    /// Samples a random exponent `x` in `[1, p-1)` and returns `(x, g^x)`.
    pub fn random_element<R: Rng + ?Sized>(&self, rng: &mut R) -> (U1024, U1024) {
        let x = self.random_exponent(rng);
        let gx = self.pow_g(&x);
        (x, gx)
    }

    /// Samples a random exponent below `p - 1` (rejection sampling on the
    /// top limb is unnecessary for OT purposes; we mask to 1023 bits which
    /// is < p for the Oakley prime).
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> U1024 {
        let mut limbs = [0u64; LIMBS];
        for limb in &mut limbs {
            *limb = rng.gen();
        }
        limbs[LIMBS - 1] &= (1 << 63) - 1; // clear top bit => value < 2^1023 < p
        if limbs.iter().all(|&l| l == 0) {
            limbs[0] = 1;
        }
        U1024::from_limbs(limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_group() -> ModpGroup {
        // p = 2^61 - 1 (prime), generator 3 (need only correctness of the
        // arithmetic, not that 3 generates the whole group).
        ModpGroup::new(U1024::from_u64((1 << 61) - 1), U1024::from_u64(3))
    }

    /// Bit-by-bit square-and-multiply: what `pow` was before it was
    /// windowed, kept as the oracle the windowed forms are compared with.
    fn pow_binary(g: &ModpGroup, base: &U1024, exp: &U1024) -> U1024 {
        let base_m = g.to_mont(base);
        let mut acc = g.r1;
        for i in (0..exp.bit_len()).rev() {
            acc = g.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = g.mont_mul(&acc, &base_m);
            }
        }
        g.from_mont(&acc)
    }

    /// A random reduced non-zero residue of `g`.
    fn random_residue(g: &ModpGroup, rng: &mut impl Rng) -> U1024 {
        loop {
            let wide = U1024::from_limbs(std::array::from_fn(|_| rng.gen()));
            let x = wide.div_rem(&g.p).1;
            if !x.is_zero() {
                return x;
            }
        }
    }

    /// Exponents on the edges of the window logic: 0, 1, `p − 2`, all-ones
    /// (every window full), a lone top bit at each length around the last
    /// 5-bit boundary (every lower window empty, top window partial), and
    /// alternating empty/full 4-bit and 5-bit windows.
    fn edge_exponents(g: &ModpGroup) -> Vec<U1024> {
        let mut exps = vec![
            U1024::ZERO,
            U1024::ONE,
            g.inv_exponent(),
            U1024::from_limbs([u64::MAX; LIMBS]),
            U1024::from_limbs([0xf0f0_f0f0_f0f0_f0f0; LIMBS]),
            U1024::from_limbs([0x0f0f_0f0f_0f0f_0f0f; LIMBS]),
            // 5-bit windows alternately empty and full (the pattern has
            // period 10, so it drifts across the 64-bit limbs).
            (0..1024 / 10).fold(U1024::ZERO, |acc, i| {
                acc.overflowing_add(&U1024::from_u64(0x1f).shl(10 * i)).0
            }),
        ];
        exps.extend((1018..1024).map(|k| U1024::ONE.shl(k)));
        exps
    }

    #[test]
    fn window_reads_across_limbs_and_past_the_top() {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = 0b1_0110 << 60; // bits 60..64 = 0110, bit 64 comes from limb 1
        limbs[1] = 0b1;
        limbs[LIMBS - 1] = 0b101 << 61;
        let x = U1024::from_limbs(limbs);
        assert_eq!(x.window(60, 5), 0b1_0110);
        assert_eq!(x.window(60, 4), 0b0110);
        assert_eq!(x.window(64, 5), 0b1);
        assert_eq!(x.window(1020, 5), 0b1010); // bit 1024 reads as zero
        assert_eq!(x.window(1020, 4), 0b1010);
    }

    #[test]
    fn windowed_powers_match_the_binary_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let small = small_group();
        for (g, randoms) in [(ModpGroup::oakley2(), 6), (&small, 40)] {
            let p_minus_1 = g.p.overflowing_sub(&U1024::ONE).0;
            let mut bases = vec![U1024::ONE, p_minus_1, *g.generator()];
            bases.extend((0..3).map(|_| random_residue(g, &mut rng)));
            let mut exps = edge_exponents(g);
            exps.extend((0..randoms).map(|_| g.random_exponent(&mut rng)));
            for base in &bases {
                let table = g.fixed_base(base);
                for exp in &exps {
                    let want = pow_binary(g, base, exp);
                    assert_eq!(g.pow(base, exp), want, "pow {base:?}^{exp:?}");
                    assert_eq!(g.pow_fixed(&table, exp), want, "pow_fixed {base:?}^{exp:?}");
                }
            }
            for exp in &exps {
                assert_eq!(g.pow_g(exp), pow_binary(g, g.generator(), exp));
            }
        }
    }

    #[test]
    fn batch_inv_matches_elementwise_inv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        let small = small_group();
        for g in [ModpGroup::oakley2(), &small] {
            for n in [0usize, 1, 2, 128] {
                let elems: Vec<U1024> = (0..n).map(|_| random_residue(g, &mut rng)).collect();
                let want: Vec<U1024> = elems.iter().map(|a| g.inv(a)).collect();
                assert_eq!(g.batch_inv(&elems), want, "n = {n}");
            }
        }
    }

    #[test]
    fn contains_is_the_open_interval_zero_to_p() {
        let g = small_group();
        assert!(!g.contains(&U1024::ZERO));
        assert!(g.contains(&U1024::ONE));
        assert!(g.contains(&g.p.overflowing_sub(&U1024::ONE).0));
        assert!(!g.contains(&g.p));
        assert!(!g.contains(&U1024::from_limbs([u64::MAX; LIMBS])));
    }

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
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = ModpGroup::oakley2();
        let (_, elem) = g.random_element(&mut rng);
        let bytes = elem.to_le_bytes();
        assert_eq!(U1024::from_le_bytes(&bytes), elem);
    }

    #[test]
    fn small_group_matches_u128_math() {
        let g = small_group();
        let p = (1u64 << 61) - 1;
        let mul = |a: u64, b: u64| ((a as u128 * b as u128) % p as u128) as u64;
        let a = 123_456_789_012_345u64;
        let b = 987_654_321_098_765u64;
        assert_eq!(
            g.mul(&U1024::from_u64(a), &U1024::from_u64(b)),
            U1024::from_u64(mul(a, b))
        );
        // pow
        let mut expect = 1u64;
        for _ in 0..77 {
            expect = mul(expect, 3);
        }
        assert_eq!(g.pow_g(&U1024::from_u64(77)), U1024::from_u64(expect));
        // exp 0 and 1
        assert_eq!(g.pow_g(&U1024::ZERO), U1024::ONE);
        assert_eq!(g.pow_g(&U1024::ONE), U1024::from_u64(3));
    }

    #[test]
    fn fermat_inverse_small() {
        let g = small_group();
        let a = U1024::from_u64(0xdead_beef);
        assert_eq!(g.mul(&a, &g.inv(&a)), U1024::ONE);
    }

    #[test]
    fn oakley_group_exponent_laws() {
        let g = ModpGroup::oakley2();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let x = g.random_exponent(&mut rng);
        let y = g.random_exponent(&mut rng);
        // (g^x)^y == (g^y)^x : the Diffie-Hellman property base OT relies on.
        let gx = g.pow_g(&x);
        let gy = g.pow_g(&y);
        assert_eq!(g.pow(&gx, &y), g.pow(&gy, &x));
    }

    #[test]
    fn oakley_inverse() {
        let g = ModpGroup::oakley2();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (_, a) = g.random_element(&mut rng);
        assert_eq!(g.mul(&a, &g.inv(&a)), U1024::ONE);
    }

    #[test]
    fn mont_form_of_one_is_consistent() {
        let g = ModpGroup::oakley2();
        assert_eq!(g.from_mont(&g.r1), U1024::ONE);
        assert_eq!(g.to_mont(&U1024::ONE), g.r1);
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(U1024::ZERO.bit_len(), 0);
        assert_eq!(U1024::ONE.bit_len(), 1);
        assert_eq!(U1024::from_u64(0xff).bit_len(), 8);
        let mut limbs = [0u64; LIMBS];
        limbs[3] = 1 << 5;
        let x = U1024::from_limbs(limbs);
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
        let g = small_group();
        let p = g.modulus();
        let a = U1024::from_u64((1 << 61) - 2);
        let s = a.add_mod(&a, p);
        // (p-1)+(p-1) mod p == p-2
        assert_eq!(s, U1024::from_u64((1 << 61) - 3));
    }
}
