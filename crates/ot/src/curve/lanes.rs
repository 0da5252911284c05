//! Eight products by one shared scalar, `[k·P₀, …, k·P₇]`, on AVX-512 IFMA.
//!
//! A field element of eight points is five registers: register `i` holds
//! limb `i` of every lane, in [`Fe`]'s own radix-2⁵¹ limbs, so a point
//! crosses into the lanes and back by a transpose and nothing else. A
//! product is `vpmadd52luq` / `vpmadd52huq` over the 25 limb pairs (15 for
//! a square). Those instructions read the low 52 bits of each operand, so
//! every multiplicand is below 2⁵². Products and differences leave their
//! limbs below 2⁵¹ + 2¹⁸. A sum about to be multiplied, and every
//! coordinate coming in, is first carried once in parallel, which leaves
//! any 64-bit limb below that too. Debug builds check the bound at every
//! product. A pair's 104-bit product then splits into a low half below 2⁵²
//! at its column and a high half below 2⁵² worth twice that at the next
//! one. Five of each per column keep a column below 2⁵⁶, and the columns
//! above 2²⁵⁵ fold in at × 19 (2²⁵⁵ ≡ 19) below 2⁶¹. One parallel carry
//! leaves every output limb below 2⁵¹ + 2¹⁵, inside what every [`Fe`]
//! operation accepts.
//!
//! The point formulas are [`Point::add`], [`Point::double`] and
//! [`Point::cached`] line for line, and the scalar walk is [`Point::mul`]'s:
//! the same fifteen multiples, the same 4-bit digits from the top. The
//! scalar is shared, so every lane takes the same digit at the same step:
//! no gather and no per-lane branch. Each lane therefore ends on the same
//! projective coordinates, as field elements, as [`Point::mul`] does, and
//! every encoding is the same byte string.
//!
//! # Safety
//!
//! This module holds all of pi-ot's `unsafe`: the `#[target_feature]`
//! kernel and the loads and stores that move limbs between arrays and
//! registers. [`mul`] is the only way in. It enters the kernel only after
//! [`detected`] has seen AVX-512F and AVX-512 IFMA on this CPU. Every load
//! reads, and every store writes, one whole `[u64; 8]` it borrows.

#![allow(unsafe_code)]

use super::{curve, Fe, Point, Scalar, MASK, P16, WINDOWS};
use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_epi64, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srli_epi64, _mm512_storeu_epi64, _mm512_sub_epi64,
};

/// Whether this CPU runs the kernel: AVX-512F and AVX-512 IFMA.
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// `[k·P₀, …, k·P₇]`.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F or AVX-512 IFMA ([`detected`]).
pub(super) fn mul(points: &[Point; 8], k: &Scalar) -> [Point; 8] {
    assert!(detected(), "the curve lanes need AVX-512F and AVX-512 IFMA");
    // SAFETY: both target features were just detected on this CPU.
    unsafe { mul_x8(points, k, &curve().d2) }
}

/// The kernel behind [`mul`]; `d2` is the curve's `2d`.
///
/// # Safety
///
/// The caller must have seen AVX-512F and AVX-512 IFMA on this CPU
/// ([`detected`]).
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_x8(points: &[Point; 8], k: &Scalar, d2: &Fe) -> [Point; 8] {
    let d2 = FeX8::splat(d2).carry();
    let p = PointX8::gather(points);
    let step = p.cached(&d2);
    let mut multiples = [step; 15];
    let mut multiple = p;
    for slot in &mut multiples[1..] {
        multiple = multiple.add(&step);
        *slot = multiple.cached(&d2);
    }
    let mut acc = PointX8::gather(&[Point::IDENTITY; 8]);
    for w in (0..WINDOWS).rev() {
        acc = acc.double().double().double().double();
        if let Some(d) = k.digit(w).checked_sub(1) {
            acc = acc.add(&multiples[d]);
        }
    }
    acc.scatter()
}

/// Eight field elements, one per lane: limb `i` of lane `j`'s element is
/// lane `j` of register `i`.
#[derive(Clone, Copy)]
struct FeX8([__m512i; 5]);

#[target_feature(enable = "avx512f")]
fn splat(x: u64) -> __m512i {
    _mm512_set1_epi64(x as i64)
}

#[target_feature(enable = "avx512f")]
fn load(lanes: &[u64; 8]) -> __m512i {
    // SAFETY: an unaligned load of the eight words `lanes` borrows.
    unsafe { _mm512_loadu_epi64(lanes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
fn store(v: __m512i) -> [u64; 8] {
    let mut lanes = [0u64; 8];
    // SAFETY: an unaligned store to the eight words `lanes` owns.
    unsafe { _mm512_storeu_epi64(lanes.as_mut_ptr().cast(), v) };
    lanes
}

/// `19·x`, as `16x + 2x + x`.
#[target_feature(enable = "avx512f")]
fn times19(x: __m512i) -> __m512i {
    let x17 = _mm512_add_epi64(x, _mm512_slli_epi64::<4>(x));
    _mm512_add_epi64(x17, _mm512_slli_epi64::<1>(x))
}

impl FeX8 {
    #[target_feature(enable = "avx512f")]
    fn splat(fe: &Fe) -> FeX8 {
        let mut out = [_mm512_setzero_si512(); 5];
        for (o, &limb) in out.iter_mut().zip(&fe.0) {
            *o = splat(limb);
        }
        FeX8(out)
    }

    /// The transpose in: register `i` gets limb `i` of every element.
    #[target_feature(enable = "avx512f")]
    fn gather(fes: [&Fe; 8]) -> FeX8 {
        let mut out = [_mm512_setzero_si512(); 5];
        for (i, o) in out.iter_mut().enumerate() {
            *o = load(&fes.map(|fe| fe.0[i]));
        }
        FeX8(out)
    }

    /// The transpose out.
    #[target_feature(enable = "avx512f")]
    fn scatter(&self) -> [Fe; 8] {
        let limbs = self.0.map(|r| store(r));
        std::array::from_fn(|j| Fe(limbs.map(|limb| limb[j])))
    }

    /// [`Fe::carry`], in every lane.
    #[target_feature(enable = "avx512f")]
    fn carry(&self) -> FeX8 {
        let mask = splat(MASK);
        let mut c = [_mm512_setzero_si512(); 5];
        let mut l = [_mm512_setzero_si512(); 5];
        for i in 0..5 {
            c[i] = _mm512_srli_epi64::<51>(self.0[i]);
            l[i] = _mm512_and_si512(self.0[i], mask);
        }
        l[0] = _mm512_add_epi64(l[0], times19(c[4]));
        for i in 1..5 {
            l[i] = _mm512_add_epi64(l[i], c[i - 1]);
        }
        FeX8(l)
    }

    /// [`Fe::add`]: limb-wise and unreduced.
    #[target_feature(enable = "avx512f")]
    fn add(&self, rhs: &FeX8) -> FeX8 {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o = _mm512_add_epi64(*o, *r);
        }
        FeX8(out)
    }

    /// [`Fe::sub`], for `rhs` limbs below 2⁵⁵.
    #[target_feature(enable = "avx512f")]
    fn sub(&self, rhs: &FeX8) -> FeX8 {
        let mut out = self.0;
        for i in 0..5 {
            out[i] = _mm512_sub_epi64(_mm512_add_epi64(out[i], splat(P16[i])), rhs.0[i]);
        }
        FeX8(out).carry()
    }

    /// [`Fe::neg`].
    #[target_feature(enable = "avx512f")]
    fn neg(&self) -> FeX8 {
        FeX8([_mm512_setzero_si512(); 5]).sub(self)
    }

    /// The five limbs of `Σ lo[t]·2^(51t) + Σ 2·hi[t]·2^(51(t+1))`, the
    /// columns from the sixth on folded in at × 19, carried once.
    #[target_feature(enable = "avx512f")]
    fn reduce(lo: &[__m512i; 9], hi: &[__m512i; 9]) -> FeX8 {
        let zero = _mm512_setzero_si512();
        // Column t: its low halves and twice the high halves of column t − 1.
        let col = |t: usize| {
            let l = if t < 9 { lo[t] } else { zero };
            let h = if t > 0 { hi[t - 1] } else { zero };
            _mm512_add_epi64(l, _mm512_add_epi64(h, h))
        };
        let mut out = [zero; 5];
        for (t, o) in out.iter_mut().enumerate() {
            *o = _mm512_add_epi64(col(t), times19(col(t + 5)));
        }
        FeX8(out).carry()
    }

    /// Whether every limb is below 2⁵²: a multiplicand IFMA reads whole.
    #[target_feature(enable = "avx512f")]
    fn narrow(&self) -> bool {
        (self.0.iter()).all(|&r| store(r).iter().all(|&limb| limb < 1 << 52))
    }

    /// [`Fe::mul`], of two [narrow](FeX8::narrow) operands.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul(&self, rhs: &FeX8) -> FeX8 {
        debug_assert!(self.narrow() && rhs.narrow());
        let (a, b) = (self.0, rhs.0);
        let mut lo = [_mm512_setzero_si512(); 9];
        let mut hi = lo;
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], b[j]);
                hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a[i], b[j]);
            }
        }
        FeX8::reduce(&lo, &hi)
    }

    /// [`Fe::square`] of a [narrow](FeX8::narrow) operand: the products
    /// off the diagonal taken once, doubled.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn square(&self) -> FeX8 {
        debug_assert!(self.narrow());
        let a = self.0;
        let mut lo = [_mm512_setzero_si512(); 9];
        let mut hi = lo;
        for i in 0..5 {
            for j in i + 1..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], a[j]);
                hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a[i], a[j]);
            }
        }
        for t in 0..9 {
            lo[t] = _mm512_add_epi64(lo[t], lo[t]);
            hi[t] = _mm512_add_epi64(hi[t], hi[t]);
        }
        for i in 0..5 {
            lo[2 * i] = _mm512_madd52lo_epu64(lo[2 * i], a[i], a[i]);
            hi[2 * i] = _mm512_madd52hi_epu64(hi[2 * i], a[i], a[i]);
        }
        FeX8::reduce(&lo, &hi)
    }
}

/// Eight points, one per lane, in extended coordinates.
#[derive(Clone, Copy)]
struct PointX8 {
    x: FeX8,
    y: FeX8,
    z: FeX8,
    t: FeX8,
}

/// [`super::Cached`] of eight points.
#[derive(Clone, Copy)]
struct CachedX8 {
    y_plus_x: FeX8,
    y_minus_x: FeX8,
    z: FeX8,
    t2d: FeX8,
}

impl PointX8 {
    /// The transpose in, every coordinate carried: a [`Point`]'s
    /// coordinates may be sums.
    #[target_feature(enable = "avx512f")]
    fn gather(points: &[Point; 8]) -> PointX8 {
        let p = points.each_ref();
        PointX8 {
            x: FeX8::gather(p.map(|p| &p.x)).carry(),
            y: FeX8::gather(p.map(|p| &p.y)).carry(),
            z: FeX8::gather(p.map(|p| &p.z)).carry(),
            t: FeX8::gather(p.map(|p| &p.t)).carry(),
        }
    }

    /// The transpose out.
    #[target_feature(enable = "avx512f")]
    fn scatter(&self) -> [Point; 8] {
        let [x, y, z, t] = [&self.x, &self.y, &self.z, &self.t].map(|fe| fe.scatter());
        std::array::from_fn(|j| Point {
            x: x[j],
            y: y[j],
            z: z[j],
            t: t[j],
        })
    }

    /// [`Point::cached`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn cached(&self, d2: &FeX8) -> CachedX8 {
        CachedX8 {
            y_plus_x: self.y.add(&self.x).carry(),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(d2),
        }
    }

    /// [`Point::add`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add(&self, rhs: &CachedX8) -> PointX8 {
        let a = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let b = self.y.add(&self.x).carry().mul(&rhs.y_plus_x);
        let c = self.t.mul(&rhs.t2d);
        let zz = self.z.mul(&rhs.z);
        let d = zz.add(&zz);
        let (e, f, g, h) = (b.sub(&a), d.sub(&c), d.add(&c).carry(), b.add(&a).carry());
        PointX8 {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// [`Point::double`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn double(&self) -> PointX8 {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let e = self.x.add(&self.y).carry().square().sub(&a).sub(&b);
        let g = b.sub(&a);
        let f = g.sub(&c);
        let h = a.add(&b).neg();
        PointX8 {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::tests::field_inputs;
    use rand::SeedableRng;

    /// Each lane's `a·b`, `a²`, `a − b` and `−a`, through the kernel, the
    /// inputs carried on the way in as a point's coordinates are.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn ops_x8(a: &[Fe; 8], b: &[Fe; 8]) -> [[Fe; 8]; 4] {
        let a = FeX8::gather(a.each_ref()).carry();
        let b = FeX8::gather(b.each_ref()).carry();
        [a.mul(&b), a.square(), a.sub(&b), a.neg()].map(|r| r.scatter())
    }

    #[test]
    fn lane_field_ops_match_fe_up_to_the_top_of_its_bound() {
        if !detected() {
            println!("skip lane_field_ops_match_fe_up_to_the_top_of_its_bound: no AVX-512 IFMA");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        // Limbs up to 2⁵⁴ − 8: the kernel's entry carry is what keeps
        // them inside the 52 bits IFMA reads.
        let inputs: Vec<Fe> = field_inputs(&mut rng)
            .into_iter()
            .map(|(fe, _)| fe)
            .collect();
        assert!(inputs.iter().any(|fe| fe.0.iter().any(|&l| l >= 1 << 53)));
        for shift in 0..inputs.len() {
            let lane = |j: usize| inputs[(shift + j) % inputs.len()];
            let a: [Fe; 8] = std::array::from_fn(lane);
            let b: [Fe; 8] = std::array::from_fn(|j| lane(3 * j + 1));
            // SAFETY: `detected` saw both target features above.
            let [mul, square, sub, neg] = unsafe { ops_x8(&a, &b) };
            for j in 0..8 {
                let what = format!("{:x?}, {:x?}", a[j], b[j]);
                assert_eq!(mul[j], a[j].mul(&b[j]), "mul {what}");
                assert_eq!(square[j], a[j].square(), "square {what}");
                assert_eq!(sub[j], a[j].sub(&b[j]), "sub {what}");
                assert_eq!(neg[j], a[j].neg(), "neg {what}");
                for out in [mul[j], square[j], sub[j], neg[j]] {
                    assert!(out.0.iter().all(|&l| l < (1 << 51) + (1 << 18)), "{what}");
                }
            }
        }
    }
}
