//! AVX2 [`Lanes`] impl: 4×u64 in a ymm register.
//!
//! AVX2 has no 64×64-bit multiply, so every product is assembled from
//! 32×32→64 `vpmuludq` cross products (`_mm256_mul_epu32` reads the low 32
//! bits of each 64-bit lane), and unsigned 64-bit comparisons use the
//! sign-flip trick over `_mm256_cmpgt_epi64`; masks are all-ones lanes.
#![allow(unsafe_code)]

use super::lanes::{self, Lanes};
use crate::modulus::{Modulus, ShoupMul};
use core::arch::x86_64::*;

#[derive(Clone, Copy)]
pub(super) struct Ymm(__m256i);

/// One opaque `vpmuludq`: the 32×32→64 multiply of the low halves of each
/// 64-bit lane, emitted through inline asm.
///
/// Semantically identical to `_mm256_mul_epu32`, but deliberately opaque
/// to the optimizer: with the intrinsic, LLVM's pattern matcher recognizes
/// the schoolbook high-half emulation below as a generic `v4i64` high
/// multiply and — having no such instruction pre-AVX512 — *scalarizes* it
/// into four 64-bit `mul`s plus six cross-domain `vmovq`/`vpunpck`/
/// `vinserti128` shuffles per block, which measured ~30% slower than the
/// scalar Harvey path it was meant to beat. The asm keeps the four-
/// `vpmuludq` emulation intact (`pure`/`nomem` still allows CSE and
/// scheduling around it).
///
/// A `#[target_feature]` helper rather than part of the `#[inline(always)]`
/// trait method: rustc accepts the `ymm_reg` class only inside a function
/// that itself carries the feature.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_epu32_opaque(a: __m256i, b: __m256i) -> __m256i {
    let r: __m256i;
    core::arch::asm!(
        "vpmuludq {r}, {a}, {b}",
        r = lateout(ymm_reg) r,
        a = in(ymm_reg) a,
        b = in(ymm_reg) b,
        options(pure, nomem, nostack, preserves_flags)
    );
    r
}

/// The four cross products of `a·b` with the textbook carry threading,
/// as `(lolo, mid2, hi)`.
///
/// With `a = a1·2^32 + a0`, `b = b1·2^32 + b0`:
/// `a·b = a1b1·2^64 + (a1b0 + a0b1)·2^32 + a0b0`. Summing the middle terms
/// directly could overflow, so `mid = a1b0 + (a0b0 >> 32)` (≤ (2^32−1)² +
/// 2^32−2, no overflow) and `mid2 = a0b1 + (mid mod 2^32)` (same bound),
/// giving `hi = a1b1 + (mid >> 32) + (mid2 >> 32)` exactly.
#[inline(always)]
unsafe fn cross_products(a: __m256i, b: __m256i) -> (__m256i, __m256i, __m256i) {
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let lolo = mul_epu32_opaque(a, b);
    let hilo = mul_epu32_opaque(a_hi, b);
    let lohi = mul_epu32_opaque(a, b_hi);
    let hihi = mul_epu32_opaque(a_hi, b_hi);
    let mid = _mm256_add_epi64(hilo, _mm256_srli_epi64::<32>(lolo));
    let low32 = _mm256_set1_epi64x(0xffff_ffff);
    let mid2 = _mm256_add_epi64(lohi, _mm256_and_si256(mid, low32));
    let carries = _mm256_add_epi64(_mm256_srli_epi64::<32>(mid), _mm256_srli_epi64::<32>(mid2));
    (lolo, mid2, _mm256_add_epi64(hihi, carries))
}

impl Lanes for Ymm {
    const W: usize = 4;
    type Mask = __m256i;

    #[inline(always)]
    unsafe fn splat(x: u64) -> Self {
        Ymm(_mm256_set1_epi64x(x as i64))
    }
    #[inline(always)]
    unsafe fn load(p: &[u64]) -> Self {
        debug_assert!(p.len() >= Self::W);
        Ymm(_mm256_loadu_si256(p.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [u64]) {
        debug_assert!(p.len() >= Self::W);
        _mm256_storeu_si256(p.as_mut_ptr().cast(), self.0)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Ymm(_mm256_add_epi64(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Ymm(_mm256_sub_epi64(self.0, b.0))
    }
    /// Three `vpmuludq`: `a0b0 + ((a1b0 + a0b1) << 32)`.
    #[inline(always)]
    unsafe fn mullo(self, b: Self) -> Self {
        let (a, b) = (self.0, b.0);
        let lolo = _mm256_mul_epu32(a, b);
        let hilo = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
        let lohi = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
        let cross = _mm256_slli_epi64::<32>(_mm256_add_epi64(hilo, lohi));
        Ymm(_mm256_add_epi64(lolo, cross))
    }
    #[inline(always)]
    unsafe fn mulhi(self, b: Self) -> Self {
        Ymm(cross_products(self.0, b.0).2)
    }
    #[inline(always)]
    unsafe fn mulfull(self, b: Self) -> (Self, Self) {
        let (lolo, mid2, hi) = cross_products(self.0, b.0);
        // lo = (mid2 mod 2^32)·2^32 + (a0b0 mod 2^32); cannot carry.
        let low32 = _mm256_set1_epi64x(0xffff_ffff);
        let lo = _mm256_add_epi64(_mm256_slli_epi64::<32>(mid2), _mm256_and_si256(lolo, low32));
        (Ymm(hi), Ymm(lo))
    }
    #[inline(always)]
    unsafe fn csub(self, m: Self) -> Self {
        Ymm(_mm256_sub_epi64(
            self.0,
            _mm256_andnot_si256(self.lt(m), m.0),
        ))
    }
    #[inline(always)]
    unsafe fn lt(self, b: Self) -> __m256i {
        let sign = _mm256_set1_epi64x(i64::MIN);
        _mm256_cmpgt_epi64(_mm256_xor_si256(b.0, sign), _mm256_xor_si256(self.0, sign))
    }
    /// A set mask lane is −1; subtracting it adds 1.
    #[inline(always)]
    unsafe fn inc_if(self, k: __m256i) -> Self {
        Ymm(_mm256_sub_epi64(self.0, k))
    }
    /// No cross-lane 64-bit permute takes a runtime pattern on AVX2.
    #[inline(always)]
    unsafe fn permute_block(blk: &[u64], pat: u64) -> Self {
        Self::load(&lanes::pick_lanes::<4>(blk, pat))
    }
}

stage_entry_points!(Ymm, target_feature(enable = "avx2"));
pointwise_entry_points!(Ymm, target_feature(enable = "avx2"));
