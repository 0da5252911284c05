//! AVX-512 [`Lanes`] impl (F + DQ + VL): 8×u64 in a zmm register, plus the
//! one ISA-specific hook — the permute-based small-stride stages.
//!
//! `vpmullq` (AVX512DQ) is a native 64×64→low-64 multiply and unsigned
//! compares land in mask registers (`vpcmpuq`), so every conditional
//! correction is compare + masked op. Only the high half of a product
//! still needs the four-`vpmuludq` schoolbook emulation (there is no
//! 64-bit `vpmulhq`), behind the same opaque-asm guard as AVX2.
//!
//! Unlike the other backends, this one also vectorizes the **small-stride
//! stages** (`t ∈ {1, 2, 4}`): 16 consecutive elements are loaded as two
//! zmm registers, repacked into a lo/hi butterfly pair with `vpermt2q`,
//! processed with per-lane twiddles (`vpermq`-replicated from the stage's
//! twiddle array), and repacked back. The permutes move data only — the
//! butterfly is the shared generic one. Rings too small for a 16-element
//! group (`n = 8`'s `t = 4` stage and last inverse stage) run the generic
//! kernels at [`Ymm`] — AVX512F implies AVX2, so that is legal whenever
//! this backend runs.
#![allow(unsafe_code)]

use super::avx2::Ymm;
use super::lanes::{self, Lanes};
use crate::modulus::{Modulus, ShoupMul};
use core::arch::x86_64::*;

#[derive(Clone, Copy)]
pub(super) struct Zmm(__m512i);

/// One opaque `vpmuludq` on zmm registers — the LLVM-scalarization guard of
/// `avx2::mul_epu32_opaque`, and like it a `#[target_feature]` helper
/// because `zmm_reg` is only accepted inside a function carrying the
/// feature.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn mul_epu32_opaque(a: __m512i, b: __m512i) -> __m512i {
    let r: __m512i;
    core::arch::asm!(
        "vpmuludq {r}, {a}, {b}",
        r = lateout(zmm_reg) r,
        a = in(zmm_reg) a,
        b = in(zmm_reg) b,
        options(pure, nomem, nostack, preserves_flags)
    );
    r
}

impl Lanes for Zmm {
    const W: usize = 8;
    type Mask = __mmask8;

    #[inline(always)]
    unsafe fn splat(x: u64) -> Self {
        Zmm(_mm512_set1_epi64(x as i64))
    }
    #[inline(always)]
    unsafe fn load(p: &[u64]) -> Self {
        debug_assert!(p.len() >= Self::W);
        Zmm(_mm512_loadu_epi64(p.as_ptr().cast()))
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [u64]) {
        debug_assert!(p.len() >= Self::W);
        _mm512_storeu_epi64(p.as_mut_ptr().cast(), self.0)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Zmm(_mm512_add_epi64(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Zmm(_mm512_sub_epi64(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mullo(self, b: Self) -> Self {
        Zmm(_mm512_mullo_epi64(self.0, b.0))
    }
    /// The schoolbook emulation of `avx2::cross_products`, lane-widened.
    #[inline(always)]
    unsafe fn mulhi(self, b: Self) -> Self {
        let (a, b) = (self.0, b.0);
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let lolo = mul_epu32_opaque(a, b);
        let hilo = mul_epu32_opaque(a_hi, b);
        let lohi = mul_epu32_opaque(a, b_hi);
        let hihi = mul_epu32_opaque(a_hi, b_hi);
        let mid = _mm512_add_epi64(hilo, _mm512_srli_epi64::<32>(lolo));
        let low32 = _mm512_set1_epi64(0xffff_ffff);
        let mid2 = _mm512_add_epi64(lohi, _mm512_and_si512(mid, low32));
        let hi = _mm512_add_epi64(hihi, _mm512_srli_epi64::<32>(mid));
        Zmm(_mm512_add_epi64(hi, _mm512_srli_epi64::<32>(mid2)))
    }
    #[inline(always)]
    unsafe fn csub(self, m: Self) -> Self {
        let k = _mm512_cmpge_epu64_mask(self.0, m.0);
        Zmm(_mm512_mask_sub_epi64(self.0, k, self.0, m.0))
    }
    #[inline(always)]
    unsafe fn lt(self, b: Self) -> __mmask8 {
        _mm512_cmplt_epu64_mask(self.0, b.0)
    }
    #[inline(always)]
    unsafe fn inc_if(self, k: __mmask8) -> Self {
        let one = Self::splat(1);
        Zmm(_mm512_mask_add_epi64(self.0, k, self.0, one.0))
    }
    /// One contiguous zmm load of the block, then an in-register `vpermq`
    /// (`_mm512_permutexvar_epi64`) steered by the packed byte pattern —
    /// one load + one permute replaces eight gather lanes.
    #[inline(always)]
    unsafe fn permute_block(blk: &[u64], pat: u64) -> Self {
        let patv = _mm512_cvtepu8_epi64(_mm_cvtsi64_si128(pat as i64));
        Zmm(_mm512_permutexvar_epi64(patv, Self::load(blk).0))
    }
}

/// Permute tables for the small-stride stages, indexed by `log2(t)`.
/// `lo_sel`/`hi_sel` pull the butterfly lo/hi lanes out of a 16-element
/// group (two zmm registers; values 0–7 select the first, 8–15 the
/// second), `a_out`/`b_out` repack the results, and `rep` replicates the
/// `8/t` twiddles consumed per group across their lanes.
struct SmallIdx {
    lo_sel: [u64; 8],
    hi_sel: [u64; 8],
    a_out: [u64; 8],
    b_out: [u64; 8],
    rep: [u64; 8],
}

static SMALL_IDX: [SmallIdx; 3] = [
    // t = 1: blocks are adjacent pairs.
    SmallIdx {
        lo_sel: [0, 2, 4, 6, 8, 10, 12, 14],
        hi_sel: [1, 3, 5, 7, 9, 11, 13, 15],
        a_out: [0, 8, 1, 9, 2, 10, 3, 11],
        b_out: [4, 12, 5, 13, 6, 14, 7, 15],
        rep: [0, 1, 2, 3, 4, 5, 6, 7],
    },
    // t = 2: blocks of four.
    SmallIdx {
        lo_sel: [0, 1, 4, 5, 8, 9, 12, 13],
        hi_sel: [2, 3, 6, 7, 10, 11, 14, 15],
        a_out: [0, 1, 8, 9, 2, 3, 10, 11],
        b_out: [4, 5, 12, 13, 6, 7, 14, 15],
        rep: [0, 0, 1, 1, 2, 2, 3, 3],
    },
    // t = 4: blocks of eight.
    SmallIdx {
        lo_sel: [0, 1, 2, 3, 8, 9, 10, 11],
        hi_sel: [4, 5, 6, 7, 12, 13, 14, 15],
        a_out: [0, 1, 2, 3, 8, 9, 10, 11],
        b_out: [4, 5, 6, 7, 12, 13, 14, 15],
        rep: [0, 0, 0, 0, 1, 1, 1, 1],
    },
];

/// Loads the `8/t` twiddles a 16-element group consumes and replicates
/// them across their lanes. Reads exactly `count` words (full/half/quarter
/// register); upper cast lanes are undefined but never referenced by
/// `rep` (all indices < `count`).
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn load_twiddles(w: &[u64], count: usize, rep: __m512i) -> Zmm {
    debug_assert!(w.len() >= count);
    let raw = match count {
        8 => _mm512_loadu_epi64(w.as_ptr().cast()),
        4 => _mm512_castsi256_si512(_mm256_loadu_si256(w.as_ptr().cast())),
        _ => _mm512_castsi128_si512(_mm_loadu_si128(w.as_ptr().cast())),
    };
    Zmm(_mm512_permutexvar_epi64(rep, raw))
}

/// A small-stride stage (`t ∈ {1, 2, 4}`, `a.len()` a multiple of 16):
/// two zmm loads per group, `vpermt2q` repack into lo/hi, per-lane
/// twiddles, the shared butterfly, repack, store.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn small_stage<const FWD: bool>(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    t: usize,
) {
    debug_assert!(matches!(t, 1 | 2 | 4) && a.len().is_multiple_of(16));
    let idx = &SMALL_IDX[t.trailing_zeros() as usize];
    let lo_sel = Zmm::load(&idx.lo_sel).0;
    let hi_sel = Zmm::load(&idx.hi_sel).0;
    let a_out = Zmm::load(&idx.a_out).0;
    let b_out = Zmm::load(&idx.b_out).0;
    let rep = Zmm::load(&idx.rep).0;
    let per_group = Zmm::W / t;
    let (qv, two_q) = (Zmm::splat(q.value()), Zmm::splat(q.twice()));
    let mut base = 0usize;
    for group in a.chunks_exact_mut(2 * Zmm::W) {
        let (ga, gb) = group.split_at_mut(Zmm::W);
        let (ra, rb) = (Zmm::load(ga).0, Zmm::load(gb).0);
        let u = Zmm(_mm512_permutex2var_epi64(ra, lo_sel, rb));
        let v = Zmm(_mm512_permutex2var_epi64(ra, hi_sel, rb));
        let wv = load_twiddles(&w_vals[base..], per_group, rep);
        let wq = load_twiddles(&w_quots[base..], per_group, rep);
        let (x, y) = lanes::butterfly::<Zmm, FWD>(u, v, wv, wq, qv, two_q);
        Zmm(_mm512_permutex2var_epi64(x.0, a_out, y.0)).store(ga);
        Zmm(_mm512_permutex2var_epi64(x.0, b_out, y.0)).store(gb);
        base += per_group;
    }
}

/// The stage entry points: whole-register strides run the generic kernel
/// at `Zmm`, small strides the permute path, and what neither covers
/// (`n = 8`'s `t = 4` stage: one ymm block per butterfly) the generic
/// kernel at `Ymm`.
macro_rules! zmm_stage_entry_points {
    ($($name:ident, $many:ident: $fwd:literal;)*) => {$(
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub(super) unsafe fn $name(
            q: &Modulus,
            w_vals: &[u64],
            w_quots: &[u64],
            a: &mut [u64],
            m: usize,
            t: usize,
        ) {
            if t.is_multiple_of(Zmm::W) {
                lanes::stage::<Zmm, $fwd>(q, w_vals, w_quots, a, m, t)
            } else if t < Zmm::W && a.len().is_multiple_of(2 * Zmm::W) {
                small_stage::<$fwd>(q, w_vals, w_quots, a, t)
            } else {
                lanes::stage::<Ymm, $fwd>(q, w_vals, w_quots, a, m, t)
            }
        }

        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        pub(super) unsafe fn $many(
            q: &Modulus,
            w_vals: &[u64],
            w_quots: &[u64],
            batch: &mut [&mut [u64]],
            m: usize,
            t: usize,
        ) {
            if t.is_multiple_of(Zmm::W) {
                return lanes::stage_many::<Zmm, $fwd>(q, w_vals, w_quots, batch, m, t);
            }
            // Small-stride permute path: per-group twiddle replication
            // already amortizes the loads; run it per column.
            for a in batch.iter_mut() {
                $name(q, w_vals, w_quots, a, m, t);
            }
        }
    )*};
}

zmm_stage_entry_points! {
    forward_stage, forward_stage_many: true;
    inverse_stage, inverse_stage_many: false;
}

#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(super) unsafe fn inverse_last_stage(
    q: &Modulus,
    n_inv: ShoupMul,
    psi_n_inv: ShoupMul,
    a: &mut [u64],
) {
    if (a.len() / 2).is_multiple_of(Zmm::W) {
        lanes::inverse_last_stage::<Zmm>(q, n_inv, psi_n_inv, a)
    } else {
        lanes::inverse_last_stage::<Ymm>(q, n_inv, psi_n_inv, a)
    }
}

pointwise_entry_points!(Zmm, target_feature(enable = "avx512f,avx512dq,avx512vl"));
