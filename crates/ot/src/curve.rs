//! edwards25519 — the twisted Edwards curve `−x² + y² = 1 + d·x²y²` over
//! GF(2²⁵⁵ − 19) — as the group under the base OT: field elements in five
//! 51-bit limbs with `u128` products, points in extended coordinates
//! `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `xy = T/Z`, and the 32-byte
//! compressed encoding of RFC 8032 (`y` little-endian, the parity of `x` in
//! the top bit).
//!
//! The addition law is complete (`d` is a non-square), so one formula covers
//! doubling, inverses and the identity, and `Z` is never zero: a batched
//! inversion over the `Z`s of points on the curve cannot be voided.
//!
//! **Constants** are derived here from their definitions, once per process:
//! `d = −121665/121666`, `√−1 = 2^((p−1)/4)`, the base point `B` with
//! `y = 4/5` and even `x`. The subgroup order
//! `ℓ = 2²⁵² + 27742317777372353535851937790883648493` is written as
//! exactly that. The tests pin `encode(B) = 58 66 … 66` and `ℓ·B = O`.
//!
//! **Scalars and subgroups.** The curve has order `8ℓ`. A [`Scalar`] is
//! `8·k′` for a uniform 252-bit `k′`: within 2⁻¹²⁵ of uniform on the
//! prime-order subgroup, and a multiple of the cofactor, so whatever
//! small-order component a peer's point carries contributes nothing to a
//! product. [`Point::decode`] rejects non-canonical encodings, `y` with no
//! `x` on the curve, and the eight points of small order;
//! [`Point::is_torsion_free`] is the full `ℓ·P = O` test for the one point
//! that is added to rather than multiplied.
//!
//! Nothing here is constant-time: scalar multiplication skips zero digits
//! and decoding branches on its input.
//!
//! The module is public (and hidden from the docs) only so that the
//! `base_ot` bench group can time its pieces and the integration sweeps can
//! build the points they inject; the protocol's interface is [`crate::base`].

use rand::Rng;
use std::sync::OnceLock;

const MASK: u64 = (1 << 51) - 1;

/// An element of GF(2²⁵⁵ − 19): five 51-bit limbs, little-endian, not
/// necessarily canonical. Every operation accepts limbs below 2⁵⁴;
/// [`Fe::mul`], [`Fe::square`], [`Fe::sub`] and [`Fe::neg`] return limbs
/// below 2⁵¹ + 2¹⁸, and [`Fe::add`] the plain limb sums — so a sum of two
/// products may be multiplied again, a sum of two sums may not.
#[derive(Clone, Copy, Debug)]
pub struct Fe([u64; 5]);

/// `16·p`, limb by limb: what [`Fe::sub`] adds so that no limb underflows.
const P16: [u64; 5] = [16 * (MASK - 18), 16 * MASK, 16 * MASK, 16 * MASK, 16 * MASK];

impl Fe {
    /// Zero.
    pub const ZERO: Fe = Fe([0; 5]);
    /// One.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// The element `x`, for `x < 2⁵¹`.
    const fn small(x: u64) -> Fe {
        Fe([x, 0, 0, 0, 0])
    }

    /// Moves every limb's excess over 51 bits into the next limb, the top
    /// one's (× 19) into the bottom.
    fn carry(mut l: [u64; 5]) -> Fe {
        let c = l.map(|limb| limb >> 51);
        for limb in &mut l {
            *limb &= MASK;
        }
        l[0] += c[4] * 19;
        for i in 1..5 {
            l[i] += c[i - 1];
        }
        Fe(l)
    }

    /// [`Fe::carry`] for the five column sums of a product.
    fn carry_wide(c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut carry = 0u128;
        for (o, c) in out.iter_mut().zip(c) {
            let v = c + carry;
            *o = v as u64 & MASK;
            carry = v >> 51;
        }
        // Limbs below 2⁵⁴ keep the top column below 2¹¹¹: the carry fits a
        // word, and (checked by the multiplication) so does its 19-fold.
        debug_assert!(carry < 1 << 60);
        out[0] += carry as u64 * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    /// `self + rhs`, limb-wise and unreduced.
    pub fn add(&self, rhs: &Fe) -> Fe {
        Fe(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }

    /// `self − rhs`.
    pub fn sub(&self, rhs: &Fe) -> Fe {
        Fe::carry(std::array::from_fn(|i| self.0[i] + P16[i] - rhs.0[i]))
    }

    /// `−self`.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// `self · rhs`.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let (a, b) = (&self.0, &rhs.0);
        let m = |x: u64, y: u64| x as u128 * y as u128;
        // 2²⁵⁵ ≡ 19: the columns that wrap take their `b` limb times 19.
        let w = [0, b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19];
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[4], w[1]) + m(a[3], w[2]) + m(a[2], w[3]) + m(a[1], w[4]),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], w[2]) + m(a[3], w[3]) + m(a[2], w[4]),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], w[3]) + m(a[3], w[4]),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], w[4]),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    /// `self²`: [`Fe::mul`] with the symmetric products taken once.
    pub fn square(&self) -> Fe {
        let a = &self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (a3, a4) = (a[3] * 19, a[4] * 19);
        Fe::carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4) + m(a[2], a3)),
            m(a[3], a3) + 2 * (m(a[0], a[1]) + m(a[2], a4)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3)),
            m(a[4], a4) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)`.
    fn square_times(&self, k: u32) -> Fe {
        (0..k).fold(*self, |x, _| x.square())
    }

    /// `(self^(2²⁵⁰ − 1), self¹¹)`: the shared head of the inversion and
    /// square-root chains.
    fn pow_2_250_1(&self) -> (Fe, Fe) {
        let x2 = self.square();
        let x9 = x2.square_times(2).mul(self);
        let x11 = x9.mul(&x2);
        let e5 = x11.square().mul(&x9); // 2⁵ − 1
        let e10 = e5.square_times(5).mul(&e5);
        let e20 = e10.square_times(10).mul(&e10);
        let e40 = e20.square_times(20).mul(&e20);
        let e50 = e40.square_times(10).mul(&e10);
        let e100 = e50.square_times(50).mul(&e50);
        let e200 = e100.square_times(100).mul(&e100);
        (e200.square_times(50).mul(&e50), x11)
    }

    /// `self^(p − 2)`: the inverse, or zero for zero.
    pub fn invert(&self) -> Fe {
        let (e250, x11) = self.pow_2_250_1();
        e250.square_times(5).mul(&x11)
    }

    /// `self^((p − 5)/8) = self^(2²⁵² − 3)`.
    fn pow_p58(&self) -> Fe {
        self.pow_2_250_1().0.square_times(2).mul(self)
    }

    /// Inverts every element in place for one [`Fe::invert`] and three
    /// multiplications each. All must be non-zero.
    pub fn batch_invert(elems: &mut [Fe]) {
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = Fe::ONE;
        for e in elems.iter() {
            prefix.push(acc);
            acc = acc.mul(e);
        }
        let mut suffix = acc.invert();
        for (e, before) in elems.iter_mut().zip(prefix).rev() {
            let inv = suffix.mul(&before);
            suffix = suffix.mul(e);
            *e = inv;
        }
    }

    /// The canonical encoding: the representative below `p`, little-endian,
    /// top bit clear.
    pub fn to_bytes(&self) -> [u8; 32] {
        // After one carry the value is below 2p.
        let mut l = Fe::carry(self.0).0;
        // q = 1 iff the value is ≥ p, i.e. iff value + 19 reaches 2²⁵⁵.
        let q = l.iter().fold(19, |carry, limb| (limb + carry) >> 51);
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK;
        }
        l[4] &= MASK; // drops q·2²⁵⁵
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reads the low 255 bits of `bytes` (any value below 2²⁵⁵, canonical
    /// or not); the top bit is ignored.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let w: [u64; 4] = std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        });
        Fe([
            w[0] & MASK,
            (w[0] >> 51 | w[1] << 13) & MASK,
            (w[1] >> 38 | w[2] << 26) & MASK,
            (w[2] >> 25 | w[3] << 39) & MASK,
            (w[3] >> 12) & MASK,
        ])
    }

    fn is_zero(&self) -> bool {
        self.to_bytes() == [0; 32]
    }

    /// Whether the canonical representative is odd (RFC 8032's sign of `x`).
    fn is_odd(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

/// A base-OT secret: `8·k′` for a uniform `k′ < 2²⁵²`, as four little-endian
/// words, never reduced mod ℓ.
#[derive(Clone, Copy, Debug)]
pub struct Scalar([u64; 4]);

impl Scalar {
    /// `ℓ = 2²⁵² + 27742317777372353535851937790883648493`, the order of
    /// the base point. Not a base-OT secret: the subgroup test's multiplier.
    const ORDER: Scalar = {
        let low: u128 = 27742317777372353535851937790883648493;
        Scalar([low as u64, (low >> 64) as u64, 0, 1 << 60])
    };

    /// Samples `8·k′`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Scalar {
        let mut k: [u64; 4] = std::array::from_fn(|_| rng.gen());
        k[3] &= (1 << 60) - 1;
        Scalar([
            k[0] << 3,
            k[1] << 3 | k[0] >> 61,
            k[2] << 3 | k[1] >> 61,
            k[3] << 3 | k[2] >> 61,
        ])
    }

    /// The `w`-th 4-bit digit, `w < 64`.
    fn digit(&self, w: usize) -> usize {
        (self.0[w / 16] >> (4 * (w % 16))) as usize & 15
    }
}

/// 4-bit windows in a 256-bit scalar.
const WINDOWS: usize = 64;

/// A point of the curve, in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point readied as the right-hand operand of [`Point::add`]:
/// `(Y + X, Y − X, Z, 2d·T)`.
#[derive(Clone, Copy, Debug)]
pub struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// The curve's derived constants.
struct Curve {
    d: Fe,
    d2: Fe,
    sqrt_m1: Fe,
    base: Table,
}

fn curve() -> &'static Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE.get_or_init(|| {
        let d = Fe::small(121_665).neg().mul(&Fe::small(121_666).invert());
        // (p − 1)/4 = 2²⁵³ − 5 = 2·(2²⁵² − 3) + 1.
        let two = Fe::small(2);
        let sqrt_m1 = two.pow_p58().square().mul(&two);
        let y = Fe::small(4).mul(&Fe::small(5).invert());
        let x = lift_x(&y, &d, &sqrt_m1).expect("4/5 is the y of a curve point");
        let b = Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        };
        let d2 = d.add(&d);
        // The table's entries need d2 and nothing else of the curve.
        let base = Table::with_d2(&b, &d2);
        Curve {
            d,
            d2,
            sqrt_m1,
            base,
        }
    })
}

/// The even `x` with `(x, y)` on the curve, if there is one:
/// `x² = (y² − 1)/(d·y² + 1)`, by RFC 8032's square root of a ratio.
fn lift_x(y: &Fe, d: &Fe, sqrt_m1: &Fe) -> Option<Fe> {
    let yy = y.square();
    let u = yy.sub(&Fe::ONE);
    let v = d.mul(&yy).add(&Fe::ONE);
    let v3 = v.square().mul(&v);
    let v7 = v3.square().mul(&v);
    let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
    let vxx = v.mul(&x.square());
    if vxx == u.neg() {
        x = x.mul(sqrt_m1);
    } else if vxx != u {
        return None;
    }
    Some(if x.is_odd() { x.neg() } else { x })
}

/// The window table of the base point `B`.
pub fn base_table() -> &'static Table {
    &curve().base
}

impl Point {
    /// The neutral element `(0, 1)`.
    pub const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// Decodes a compressed point, or `None` if the bytes are not the
    /// canonical encoding of a curve point of order above 8.
    pub fn decode(bytes: &[u8; 32]) -> Option<Point> {
        let c = curve();
        let y = Fe::from_bytes(bytes);
        let odd = bytes[31] >> 7 == 1;
        let mut canonical = y.to_bytes();
        canonical[31] |= bytes[31] & 0x80;
        if canonical != *bytes {
            return None; // y ≥ p
        }
        let mut x = lift_x(&y, &c.d, &c.sqrt_m1)?;
        if odd {
            if x.is_zero() {
                return None; // −0 is not an encoding
            }
            x = x.neg();
        }
        let t = x.mul(&y);
        let p = Point {
            x,
            y,
            z: Fe::ONE,
            t,
        };
        (!p.double().double().double().is_identity()).then_some(p)
    }

    /// The compressed encoding.
    pub fn encode(&self) -> [u8; 32] {
        self.encode_with(&self.z.invert())
    }

    fn encode_with(&self, z_inv: &Fe) -> [u8; 32] {
        let mut out = self.y.mul(z_inv).to_bytes();
        out[31] |= u8::from(self.x.mul(z_inv).is_odd()) << 7;
        out
    }

    /// [`Point::encode`] of every point, all under one field inversion.
    pub fn encode_batch(points: &[Point]) -> Vec<[u8; 32]> {
        let mut z_inv: Vec<Fe> = points.iter().map(|p| p.z).collect();
        Fe::batch_invert(&mut z_inv);
        (points.iter().zip(&z_inv))
            .map(|(p, z_inv)| p.encode_with(z_inv))
            .collect()
    }

    /// Whether this is the neutral element.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y == self.z
    }

    /// Whether the point lies in the prime-order subgroup: `ℓ·P = O`.
    pub fn is_torsion_free(&self) -> bool {
        self.mul(&Scalar::ORDER).is_identity()
    }

    /// `−self`.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            t: self.t.neg(),
            ..*self
        }
    }

    /// This point as an addend.
    pub fn cached(&self) -> Cached {
        self.cached_with(&curve().d2)
    }

    fn cached_with(&self, d2: &Fe) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(d2),
        }
    }

    /// `self + rhs` by the unified (complete) law, 8 multiplications.
    pub fn add(&self, rhs: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let b = self.y.add(&self.x).mul(&rhs.y_plus_x);
        let c = self.t.mul(&rhs.t2d);
        let zz = self.z.mul(&rhs.z);
        let d = zz.add(&zz);
        let (e, f, g, h) = (b.sub(&a), d.sub(&c), d.add(&c), b.add(&a));
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// `self − rhs`.
    pub fn sub(&self, rhs: &Point) -> Point {
        self.add(&rhs.neg().cached())
    }

    /// `2·self`, 4 squarings and 4 multiplications.
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = b.sub(&a);
        let f = g.sub(&c);
        let h = a.add(&b).neg();
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// `k·self` for a base met once: 4-bit windows from the top, 4
    /// doublings a window and one addition per non-zero digit.
    pub fn mul(&self, k: &Scalar) -> Point {
        let step = self.cached();
        let mut multiples = [step; 15];
        let mut multiple = *self;
        for slot in &mut multiples[1..] {
            multiple = multiple.add(&step);
            *slot = multiple.cached();
        }
        let mut acc = Point::IDENTITY;
        for w in (0..WINDOWS).rev() {
            acc = acc.double().double().double().double();
            if let Some(d) = k.digit(w).checked_sub(1) {
                acc = acc.add(&multiples[d]);
            }
        }
        acc
    }
}

/// Every multiple `d·16^w·P` of one point, for digits `d ∈ [1, 16)` and
/// windows `w ∈ [0, 64)`: 960 additions to build, 150 KB, after which a
/// product is one addition per non-zero digit and no doubling.
#[derive(Clone, Debug)]
pub struct Table {
    /// Entry `15·w + (d − 1)` is `d·16^w·P`.
    entries: Vec<Cached>,
}

impl Table {
    /// Builds the table of `p`.
    pub fn new(p: &Point) -> Table {
        Table::with_d2(p, &curve().d2)
    }

    fn with_d2(p: &Point, d2: &Fe) -> Table {
        let mut entries = Vec::with_capacity(WINDOWS * 15);
        let mut unit = *p; // 16^w · P
        for _ in 0..WINDOWS {
            let step = unit.cached_with(d2);
            entries.push(step);
            for _ in 1..15 {
                unit = unit.add(&step);
                entries.push(unit.cached_with(d2));
            }
            unit = unit.add(&step);
        }
        Table { entries }
    }

    /// `k·P`.
    pub fn mul(&self, k: &Scalar) -> Point {
        let mut acc = Point::IDENTITY;
        for (w, row) in self.entries.chunks_exact(15).enumerate() {
            if let Some(d) = k.digit(w).checked_sub(1) {
                acc = acc.add(&row[d]);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `p` as four little-endian words.
    const P: [u64; 4] = [u64::MAX - 18, u64::MAX, u64::MAX, u64::MAX >> 1];

    fn words(bytes: &[u8; 32]) -> [u64; 4] {
        std::array::from_fn(|i| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap()))
    }

    fn bytes(words: &[u64; 4]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The oracle: `a·b mod p` for any two 256-bit integers, by a 4 × 4
    /// schoolbook product, the high half folded in with 2²⁵⁶ ≡ 38 until
    /// nothing is left of it, then `p` subtracted while it fits.
    fn oracle_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let v = a[i] as u128 * b[j] as u128 + wide[i + j] as u128 + carry;
                wide[i + j] = v as u64;
                carry = v >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        let mut r: [u64; 4] = wide[..4].try_into().unwrap();
        let mut high = [wide[4], wide[5], wide[6], wide[7], 0];
        while high != [0; 5] {
            let mut carry = 0u128;
            for i in 0..4 {
                let v = r[i] as u128 + 38 * high[i] as u128 + carry;
                r[i] = v as u64;
                carry = v >> 64;
            }
            high = [carry as u64 + 38 * high[4], 0, 0, 0, 0];
        }
        let ge_p = |r: &[u64; 4]| r.iter().rev().cmp(P.iter().rev()).is_ge();
        while ge_p(&r) {
            let mut borrow = false;
            for i in 0..4 {
                let (d, b1) = r[i].overflowing_sub(P[i]);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                (r[i], borrow) = (d, b1 || b2);
            }
        }
        r
    }

    /// Field inputs as (element, the integer it stands for): the boundary
    /// values, random ones, and each of them eight-fold as a sum of sums —
    /// limbs up to 2⁵⁴ − 8, the widest any operation is ever handed.
    fn field_inputs(rng: &mut impl Rng) -> Vec<(Fe, [u64; 4])> {
        let mut p_minus_1 = P;
        p_minus_1[0] -= 1;
        // The last is 2²⁵⁵ − 1: non-canonical, every limb all ones.
        let all_ones = [u64::MAX, u64::MAX, u64::MAX, P[3]];
        let mut ints = vec![[0; 4], [1, 0, 0, 0], p_minus_1, P, all_ones];
        ints.extend((0..12).map(|_| {
            let mut w: [u64; 4] = std::array::from_fn(|_| rng.gen());
            w[3] >>= 1;
            w
        }));
        let narrow: Vec<_> = (ints.iter())
            .map(|w| (Fe::from_bytes(&bytes(w)), *w))
            .collect();
        let wide = narrow.iter().map(|(fe, w)| {
            let x2 = fe.add(fe);
            let x4 = x2.add(&x2);
            (x4.add(&x4), oracle_mul(w, &[8, 0, 0, 0]))
        });
        narrow
            .iter()
            .copied()
            .chain(wide.collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn field_ops_match_the_schoolbook_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(25519);
        let inputs = field_inputs(&mut rng);
        let one = [1, 0, 0, 0];
        for (a, ia) in &inputs {
            assert_eq!(words(&a.to_bytes()), oracle_mul(ia, &one), "encode {ia:x?}");
            assert_eq!(
                words(&a.square().to_bytes()),
                oracle_mul(ia, ia),
                "square {ia:x?}"
            );
            let inv = words(&a.invert().to_bytes());
            let unit = if a.is_zero() { [0; 4] } else { one };
            assert_eq!(oracle_mul(&inv, ia), unit, "invert {ia:x?}");
            assert_eq!(a.neg().add(a), Fe::ZERO, "neg {ia:x?}");
            for (b, ib) in &inputs {
                assert_eq!(
                    words(&a.mul(b).to_bytes()),
                    oracle_mul(ia, ib),
                    "{ia:x?}·{ib:x?}"
                );
                assert_eq!(a.sub(b).add(b), *a, "{ia:x?} − {ib:x?}");
            }
        }
        let mut batch: Vec<Fe> = (inputs.iter().map(|(a, _)| *a))
            .filter(|a| !a.is_zero())
            .collect();
        let single: Vec<Fe> = batch.iter().map(Fe::invert).collect();
        Fe::batch_invert(&mut batch);
        assert_eq!(batch, single);
        Fe::batch_invert(&mut []);
    }

    #[test]
    fn constants_are_rfc_8032s() {
        let c = curve();
        assert_eq!(c.d.mul(&Fe::small(121_666)), Fe::small(121_665).neg());
        assert_eq!(c.sqrt_m1.square(), Fe::ONE.neg());
        let b = base_table().mul(&Scalar([1, 0, 0, 0]));
        let mut encoded = [0x66u8; 32];
        encoded[0] = 0x58;
        assert_eq!(b.encode(), encoded);
        assert_eq!(Point::decode(&encoded).unwrap().encode(), encoded);
        let mut order = [0u8; 32];
        order[..16].copy_from_slice(&[
            0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
            0xde, 0x14,
        ]);
        order[31] = 0x10;
        assert_eq!(bytes(&Scalar::ORDER.0), order);
        assert!(b.is_torsion_free());
        assert!(base_table().mul(&Scalar::ORDER).is_identity());
        assert!(!b.mul(&Scalar([7, 0, 0, 0])).is_identity());
    }

    /// The affine addition law, two inversions an addition: what the
    /// extended-coordinate formulas are compared against.
    fn affine_add((x1, y1): (Fe, Fe), (x2, y2): (Fe, Fe)) -> (Fe, Fe) {
        let k = curve().d.mul(&x1.mul(&x2)).mul(&y1.mul(&y2));
        let x = x1.mul(&y2).add(&y1.mul(&x2));
        let y = y1.mul(&y2).add(&x1.mul(&x2));
        (
            x.mul(&Fe::ONE.add(&k).invert()),
            y.mul(&Fe::ONE.sub(&k).invert()),
        )
    }

    /// `k·p` bit by bit over [`affine_add`], encoded.
    fn affine_mul(p: &Point, k: &Scalar) -> [u8; 32] {
        let z_inv = p.z.invert();
        let p = (p.x.mul(&z_inv), p.y.mul(&z_inv));
        let mut acc = (Fe::ZERO, Fe::ONE);
        for bit in (0..256).rev() {
            acc = affine_add(acc, acc);
            if k.0[bit / 64] >> (bit % 64) & 1 == 1 {
                acc = affine_add(acc, p);
            }
        }
        let mut out = acc.1.to_bytes();
        out[31] |= u8::from(acc.0.is_odd()) << 7;
        out
    }

    /// Sampled scalars and the edges of the window logic: 0, 1, ℓ, every
    /// digit full, alternating empty and full digits.
    fn scalars(rng: &mut impl Rng, sampled: usize) -> Vec<Scalar> {
        let mut out = vec![
            Scalar([0; 4]),
            Scalar([1, 0, 0, 0]),
            Scalar::ORDER,
            Scalar([u64::MAX; 4]),
            Scalar([0xf0f0_f0f0_f0f0_f0f0; 4]),
            Scalar([0x0f0f_0f0f_0f0f_0f0f; 4]),
        ];
        out.extend((0..sampled).map(|_| Scalar::random(rng)));
        out
    }

    #[test]
    fn windowed_and_table_products_match_affine_double_and_add() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8032);
        let b = base_table().mul(&Scalar([1, 0, 0, 0]));
        // A point with Z ≠ 1, and one outside the prime-order subgroup.
        let q = base_table().mul(&Scalar::random(&mut rng));
        let mixed = q.add(&small_order_points()[3].cached());
        for p in [b, q, mixed] {
            let table = Table::new(&p);
            for k in scalars(&mut rng, 2) {
                let want = affine_mul(&p, &k);
                assert_eq!(p.mul(&k).encode(), want, "windowed {k:x?}");
                assert_eq!(table.mul(&k).encode(), want, "table {k:x?}");
            }
        }
    }

    #[test]
    fn encodings_round_trip_batched_or_single() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut points = vec![Point::IDENTITY];
        for _ in 0..9 {
            let (a, b) = (Scalar::random(&mut rng), Scalar::random(&mut rng));
            let ab = base_table().mul(&a).mul(&b);
            // The Diffie–Hellman property the base OT rests on.
            assert_eq!(ab.encode(), base_table().mul(&b).mul(&a).encode());
            points.extend([ab, ab.neg(), ab.double()]);
        }
        let single: Vec<[u8; 32]> = points.iter().map(Point::encode).collect();
        assert_eq!(Point::encode_batch(&points), single);
        for enc in &single[1..] {
            assert_eq!(Point::decode(enc).expect("honest point").encode(), *enc);
        }
    }

    /// The eight points of order dividing 8: the multiples of `ℓ·P` for a
    /// curve point `P` whose cofactor component has full order.
    fn small_order_points() -> Vec<Point> {
        let generator = (2u8..)
            .filter_map(|y| Point::decode(&bytes(&[y as u64, 0, 0, 0])))
            .map(|p| p.mul(&Scalar::ORDER))
            .find(|t| !t.double().double().is_identity())
            .expect("a point of order 8");
        let step = generator.cached();
        (0..8)
            .scan(Point::IDENTITY, |t, _| {
                Some(std::mem::replace(t, t.add(&step)))
            })
            .collect()
    }

    #[test]
    fn small_order_points_are_refused_and_killed_by_every_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let torsion = small_order_points();
        let mut seen: Vec<[u8; 32]> = torsion.iter().map(Point::encode).collect();
        assert_eq!(seen[0], bytes(&[1, 0, 0, 0]));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8);
        let b = base_table().mul(&Scalar([1, 0, 0, 0]));
        let secrets: Vec<Scalar> = (0..8).map(|_| Scalar::random(&mut rng)).collect();
        for (i, t) in torsion.iter().enumerate() {
            assert!(t.double().double().double().is_identity());
            assert_eq!(Point::decode(&t.encode()).map(|p| p.encode()), None, "{i}");
            let mixed = b.add(&t.cached());
            assert_eq!(mixed.is_torsion_free(), i == 0);
            for k in &secrets {
                assert!(t.mul(k).is_identity());
                assert!(Table::new(t).mul(k).is_identity());
                assert_eq!(mixed.mul(k).encode(), b.mul(k).encode());
            }
        }
    }

    #[test]
    fn malformed_encodings_are_refused() {
        let refused = |mut enc: [u8; 32], sign: u8| {
            enc[31] |= sign << 7;
            Point::decode(&enc).is_none()
        };
        let mut p_plus_3 = P;
        p_plus_3[0] += 3;
        // y = 3 is on the curve; p + 3 is the same y, non-canonically.
        assert!(!refused(bytes(&[3, 0, 0, 0]), 0) && !refused(bytes(&[3, 0, 0, 0]), 1));
        assert!(refused(bytes(&p_plus_3), 0) && refused(bytes(&p_plus_3), 1));
        assert!(refused(bytes(&P), 0) && refused([0xff; 32], 0));
        // x = 0 has no odd encoding, and is of small order besides.
        assert!(refused(bytes(&[1, 0, 0, 0]), 1) && refused(bytes(&[1, 0, 0, 0]), 0));
        // Some y has no x at all.
        let off_curve = (2u64..20).filter(|&y| refused(bytes(&[y, 0, 0, 0]), 0));
        assert!(off_curve.count() > 2);
    }
}
