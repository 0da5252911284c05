//! The scalar `W = 1` [`Lanes`] impl: plain `u64` words. Instantiating the
//! generic kernels at `u64` *is* the portable backend, compiled on every
//! platform, and the tail path of every vector backend — so the scalar
//! formulas exist once, as the primitives below.
#![allow(unsafe_code)]

use super::lanes::{self, Lanes};
use crate::modulus::{Modulus, ShoupMul};

// The methods are `unsafe fn` only to match the trait: the bodies are safe
// code (checked indexing, no ISA extension).
impl Lanes for u64 {
    const W: usize = 1;
    type Mask = bool;

    #[inline(always)]
    unsafe fn splat(x: u64) -> Self {
        x
    }
    #[inline(always)]
    unsafe fn load(p: &[u64]) -> Self {
        p[0]
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [u64]) {
        p[0] = self;
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        self.wrapping_add(b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        self.wrapping_sub(b)
    }
    #[inline(always)]
    unsafe fn mullo(self, b: Self) -> Self {
        self.wrapping_mul(b)
    }
    #[inline(always)]
    unsafe fn mulhi(self, b: Self) -> Self {
        ((self as u128 * b as u128) >> 64) as u64
    }
    #[inline(always)]
    unsafe fn csub(self, m: Self) -> Self {
        if self >= m {
            self - m
        } else {
            self
        }
    }
    #[inline(always)]
    unsafe fn lt(self, b: Self) -> bool {
        self < b
    }
    #[inline(always)]
    unsafe fn inc_if(self, k: bool) -> Self {
        self.wrapping_add(k as u64)
    }
    #[inline(always)]
    unsafe fn permute_block(blk: &[u64], pat: u64) -> Self {
        blk[pat as usize & 7]
    }
}

stage_entry_points!(u64, inline);
pointwise_entry_points!(u64, inline);
