//! NEON (aarch64) [`Lanes`] impl: 4×u64 as two `uint64x2_t` registers,
//! processed back to back so the block width matches [`super::LANES`].
//!
//! NEON has no 64×64-bit vector multiply, so products are assembled like
//! the AVX2 `vpmuludq` emulation: the 64-bit lanes are narrowed to their
//! 32-bit halves (`vmovn_u64` for the low words, `vshrn_n_u64::<32>` for
//! the high words) and recombined from four `umull` (`vmull_u32`) cross
//! products with the same carry threading. Unsigned 64-bit comparison is
//! native (`vcltq_u64`/`vcgeq_u64`); masks are all-ones lanes.
//!
//! NEON is a baseline feature of every aarch64 target, so the feature half
//! of the `Lanes` safety contract is vacuously satisfied.
#![allow(unsafe_code)]

use super::lanes::{self, Lanes};
use crate::modulus::{Modulus, ShoupMul};
use core::arch::aarch64::*;

#[derive(Clone, Copy)]
pub(super) struct Neon(uint64x2_t, uint64x2_t);

/// The four cross products of `a·b` on one register with the carry
/// threading of `avx2::cross_products`, as `(lolo, mid2, hi)`.
#[inline(always)]
unsafe fn cross_products(a: uint64x2_t, b: uint64x2_t) -> (uint64x2_t, uint64x2_t, uint64x2_t) {
    let (a_lo, a_hi) = (vmovn_u64(a), vshrn_n_u64::<32>(a));
    let (b_lo, b_hi) = (vmovn_u64(b), vshrn_n_u64::<32>(b));
    let lolo = vmull_u32(a_lo, b_lo);
    let hilo = vmull_u32(a_hi, b_lo);
    let lohi = vmull_u32(a_lo, b_hi);
    let hihi = vmull_u32(a_hi, b_hi);
    let mid = vaddq_u64(hilo, vshrq_n_u64::<32>(lolo));
    let mid2 = vaddq_u64(lohi, vandq_u64(mid, vdupq_n_u64(0xffff_ffff)));
    let carries = vaddq_u64(vshrq_n_u64::<32>(mid), vshrq_n_u64::<32>(mid2));
    (lolo, mid2, vaddq_u64(hihi, carries))
}

/// `a·b mod 2^64` on one register: `a0b0 + ((a1b0 + a0b1) << 32)`.
#[inline(always)]
unsafe fn mullo1(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
    let (a_lo, a_hi) = (vmovn_u64(a), vshrn_n_u64::<32>(a));
    let (b_lo, b_hi) = (vmovn_u64(b), vshrn_n_u64::<32>(b));
    let cross = vaddq_u64(vmull_u32(a_hi, b_lo), vmull_u32(a_lo, b_hi));
    vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64::<32>(cross))
}

/// `(hi, lo)` of `a·b` on one register; `lo = (mid2 mod 2^32)·2^32 +
/// (a0b0 mod 2^32)` cannot carry.
#[inline(always)]
unsafe fn mulfull1(a: uint64x2_t, b: uint64x2_t) -> (uint64x2_t, uint64x2_t) {
    let (lolo, mid2, hi) = cross_products(a, b);
    let lo = vaddq_u64(
        vshlq_n_u64::<32>(mid2),
        vandq_u64(lolo, vdupq_n_u64(0xffff_ffff)),
    );
    (hi, lo)
}

impl Lanes for Neon {
    const W: usize = 4;
    type Mask = (uint64x2_t, uint64x2_t);

    #[inline(always)]
    unsafe fn splat(x: u64) -> Self {
        Neon(vdupq_n_u64(x), vdupq_n_u64(x))
    }
    #[inline(always)]
    unsafe fn load(p: &[u64]) -> Self {
        debug_assert!(p.len() >= Self::W);
        Neon(vld1q_u64(p.as_ptr()), vld1q_u64(p.as_ptr().add(2)))
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [u64]) {
        debug_assert!(p.len() >= Self::W);
        vst1q_u64(p.as_mut_ptr(), self.0);
        vst1q_u64(p.as_mut_ptr().add(2), self.1);
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Neon(vaddq_u64(self.0, b.0), vaddq_u64(self.1, b.1))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Neon(vsubq_u64(self.0, b.0), vsubq_u64(self.1, b.1))
    }
    #[inline(always)]
    unsafe fn mullo(self, b: Self) -> Self {
        Neon(mullo1(self.0, b.0), mullo1(self.1, b.1))
    }
    #[inline(always)]
    unsafe fn mulhi(self, b: Self) -> Self {
        Neon(cross_products(self.0, b.0).2, cross_products(self.1, b.1).2)
    }
    #[inline(always)]
    unsafe fn mulfull(self, b: Self) -> (Self, Self) {
        let (h0, l0) = mulfull1(self.0, b.0);
        let (h1, l1) = mulfull1(self.1, b.1);
        (Neon(h0, h1), Neon(l0, l1))
    }
    #[inline(always)]
    unsafe fn csub(self, m: Self) -> Self {
        Neon(
            vsubq_u64(self.0, vandq_u64(vcgeq_u64(self.0, m.0), m.0)),
            vsubq_u64(self.1, vandq_u64(vcgeq_u64(self.1, m.1), m.1)),
        )
    }
    #[inline(always)]
    unsafe fn lt(self, b: Self) -> Self::Mask {
        (vcltq_u64(self.0, b.0), vcltq_u64(self.1, b.1))
    }
    /// A set mask lane is −1; subtracting it adds 1.
    #[inline(always)]
    unsafe fn inc_if(self, k: Self::Mask) -> Self {
        Neon(vsubq_u64(self.0, k.0), vsubq_u64(self.1, k.1))
    }
    /// Scalar picks, as on AVX2 (a `tbl`-based form would need a 16-byte
    /// table lookup per pair).
    #[inline(always)]
    unsafe fn permute_block(blk: &[u64], pat: u64) -> Self {
        Self::load(&lanes::pick_lanes::<4>(blk, pat))
    }
}

stage_entry_points!(Neon, target_feature(enable = "neon"));
pointwise_entry_points!(Neon, target_feature(enable = "neon"));
