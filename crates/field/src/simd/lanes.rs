//! The [`Lanes`] primitive trait and every lane kernel, written once over it.
//!
//! An ISA supplies a register type with a dozen wrapping-u64 primitives;
//! the Shoup/Barrett helpers, the butterflies and all public kernels below
//! are `#[inline(always)]` generic functions composed from those primitives
//! only, so each backend is the *same* sequence of operations by
//! construction. The `stage_entry_points!`/`pointwise_entry_points!`
//! macros instantiate them behind the `#[target_feature]` functions that
//! `dispatch!` calls.
//!
//! # Safety
//!
//! Every function here is `unsafe` with one shared contract: the CPU
//! supports the instruction set of `V` (discharged by `dispatch!`, which
//! checks detection before entering the `#[target_feature]` wrapper the
//! kernel is inlined into), and the slice geometry established by the safe
//! wrapper in `mod.rs` holds — equal operand lengths, a stage stride that
//! is a multiple of `V::W` (the wrapper's `stage_backend` sends every
//! other stride to `scalar.rs`). All memory accesses go through `V::load`/
//! `V::store` on sub-slices at least `V::W` long under those conditions.
#![allow(unsafe_code)]

use crate::modulus::{Modulus, ShoupMul};

/// One register of `W` u64 lanes. All arithmetic wraps modulo 2^64 per
/// lane, exactly like the scalar `wrapping_*` operations.
///
/// # Safety
///
/// Every method requires the implementing ISA's target feature on the
/// running CPU; the implementations are `#[inline(always)]` so they fold
/// into the `#[target_feature]` entry point (the `memchr` `Vector` idiom).
/// `load`/`store` require `p.len() >= W` and `permute_block` requires
/// `blk.len() >= 8` (debug-asserted; upheld by the kernels below).
pub(super) trait Lanes: Copy {
    /// Lanes per register.
    const W: usize;
    /// Per-lane predicate produced by [`Lanes::lt`].
    type Mask: Copy;

    unsafe fn splat(x: u64) -> Self;
    unsafe fn load(p: &[u64]) -> Self;
    unsafe fn store(self, p: &mut [u64]);
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    /// `self·b mod 2^64`.
    unsafe fn mullo(self, b: Self) -> Self;
    /// `floor(self·b / 2^64)`.
    unsafe fn mulhi(self, b: Self) -> Self;
    /// `self − m` in the lanes where `self ≥ m` — every scalar
    /// `if x >= m { x - m }` correction.
    unsafe fn csub(self, m: Self) -> Self;
    /// Lanes where `self < b` (unsigned).
    unsafe fn lt(self, b: Self) -> Self::Mask;
    /// `self + 1` in the lanes of `k`.
    unsafe fn inc_if(self, k: Self::Mask) -> Self;
    /// Lane `t` of the result is `blk[(pat >> 8t) & 7]`: `W` lanes of a
    /// blocked Galois permutation out of one aligned 8-element block.
    unsafe fn permute_block(blk: &[u64], pat: u64) -> Self;

    /// Full 64×64→128 product as `(hi, lo)`. ISAs that emulate both halves
    /// from the same 32-bit cross products override this to share them.
    #[inline(always)]
    unsafe fn mulfull(self, b: Self) -> (Self, Self) {
        (self.mulhi(b), self.mullo(b))
    }

    /// `self + b` with its carry-out (the sum wrapped iff it is below an
    /// addend).
    #[inline(always)]
    unsafe fn add_carry(self, b: Self) -> (Self, Self::Mask) {
        let s = self.add(b);
        (s, s.lt(b))
    }
}

/// [`Lanes::permute_block`] for ISAs without a runtime cross-lane 64-bit
/// permute: the block is one cache line, so the `W` lanes are picked out of
/// it one by one.
#[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[inline(always)]
pub(super) fn pick_lanes<const W: usize>(blk: &[u64], pat: u64) -> [u64; W] {
    std::array::from_fn(|t| blk[(pat >> (8 * t)) as usize & 7])
}

/// Runs `$body` for `$j = $from, $from + W, …` while a whole register fits
/// below `$len`; evaluates to the first index left unprocessed.
macro_rules! lane_loop {
    ($V:ident, $j:ident in $from:expr, $len:expr => $body:block) => {{
        let mut $j: usize = $from;
        while $j + $V::W <= $len {
            $body
            $j += $V::W;
        }
        $j
    }};
}

#[inline(always)]
unsafe fn splat_shoup<V: Lanes>(w: ShoupMul) -> (V, V) {
    (V::splat(w.value), V::splat(w.quotient))
}

/// Lane form of [`Modulus::mul_shoup_lazy`]: `a·w − floor(w'·a/2^64)·q`,
/// result in `[0, 2q)`.
#[inline(always)]
unsafe fn mul_shoup_lazy<V: Lanes>(a: V, wv: V, wq: V, q: V) -> V {
    a.mullo(wv).sub(a.mulhi(wq).mullo(q))
}

/// Lane form of [`Modulus::mul_shoup`], strictly reduced.
#[inline(always)]
unsafe fn mul_shoup<V: Lanes>(a: V, wv: V, wq: V, q: V) -> V {
    mul_shoup_lazy(a, wv, wq, q).csub(q)
}

/// Splat constants of [`Modulus::reduce_u128`].
#[derive(Clone, Copy)]
struct Barrett<V> {
    bh: V,
    bl: V,
    q: V,
    two_q: V,
}

impl<V: Lanes> Barrett<V> {
    #[inline(always)]
    unsafe fn new(q: &Modulus) -> Self {
        let (bh, bl) = q.barrett_parts();
        Barrett {
            bh: V::splat(bh),
            bl: V::splat(bl),
            q: V::splat(q.value()),
            two_q: V::splat(q.twice()),
        }
    }

    /// Lane form of [`Modulus::reduce_u128`] on `(xh, xl)`: the quotient
    /// estimate only matters modulo 2^64 (the remainder fits a word), so
    /// the scalar code's 128-bit `mid` carry count becomes two explicit
    /// carry masks; the same two conditional subtractions finish.
    #[inline(always)]
    unsafe fn reduce(&self, xh: V, xl: V) -> V {
        let (h1, l1) = xl.mulfull(self.bh);
        let (h2, l2) = xh.mulfull(self.bl);
        let (s1, c1) = xl.mulhi(self.bl).add_carry(l1);
        let (_, c2) = s1.add_carry(l2);
        let qhat = xh.mullo(self.bh).add(h1.add(h2)).inc_if(c1).inc_if(c2);
        xl.sub(qhat.mullo(self.q)).csub(self.two_q).csub(self.q)
    }
}

/// One Harvey butterfly on a register pair. Forward (Cooley–Tukey, values
/// in `[0, 4q)`): conditionally subtract `2q` from `u`, lazy-multiply `v`,
/// emit `u + v` / `u + 2q − v`. Inverse (Gentleman–Sande, values in
/// `[0, 2q)`): `add_lazy(u, v)` / lazy multiply of `u + 2q − v`.
#[inline(always)]
pub(super) unsafe fn butterfly<V: Lanes, const FWD: bool>(
    u: V,
    v: V,
    wv: V,
    wq: V,
    q: V,
    two_q: V,
) -> (V, V) {
    if FWD {
        let u = u.csub(two_q);
        let p = mul_shoup_lazy(v, wv, wq, q);
        (u.add(p), u.add(two_q).sub(p))
    } else {
        let d = u.add(two_q).sub(v);
        (u.add(v).csub(two_q), mul_shoup_lazy(d, wv, wq, q))
    }
}

/// All butterflies of one twiddle: `block` is `lo ‖ hi`, each of stride `t`.
#[inline(always)]
unsafe fn butterfly_block<V: Lanes, const FWD: bool>(
    q: V,
    two_q: V,
    wv: V,
    wq: V,
    block: &mut [u64],
) {
    let (lo, hi) = block.split_at_mut(block.len() / 2);
    for (x, y) in lo.chunks_exact_mut(V::W).zip(hi.chunks_exact_mut(V::W)) {
        let (a, b) = butterfly::<V, FWD>(V::load(x), V::load(y), wv, wq, q, two_q);
        a.store(x);
        b.store(y);
    }
}

/// `forward_stage` (`FWD`) / `inverse_stage`: `m` blocks of stride `t`.
#[inline(always)]
pub(super) unsafe fn stage<V: Lanes, const FWD: bool>(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    m: usize,
    t: usize,
) {
    let (qv, two_q) = (V::splat(q.value()), V::splat(q.twice()));
    let twiddles = w_vals.iter().zip(w_quots).take(m);
    for (block, (&wv, &wq)) in a.chunks_exact_mut(2 * t).zip(twiddles) {
        butterfly_block::<V, FWD>(qv, two_q, V::splat(wv), V::splat(wq), block);
    }
}

/// `forward_stage_many` / `inverse_stage_many`: twiddle-outer,
/// column-inner, so one splat pair serves every column of the batch.
#[inline(always)]
pub(super) unsafe fn stage_many<V: Lanes, const FWD: bool>(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    m: usize,
    t: usize,
) {
    let (qv, two_q) = (V::splat(q.value()), V::splat(q.twice()));
    for i in 0..m {
        let (wv, wq) = (V::splat(w_vals[i]), V::splat(w_quots[i]));
        for a in batch.iter_mut() {
            butterfly_block::<V, FWD>(qv, two_q, wv, wq, &mut a[2 * i * t..2 * (i + 1) * t]);
        }
    }
}

#[inline(always)]
pub(super) unsafe fn inverse_last_stage<V: Lanes>(
    q: &Modulus,
    n_inv: ShoupMul,
    psi_n_inv: ShoupMul,
    a: &mut [u64],
) {
    let (qv, two_q) = (V::splat(q.value()), V::splat(q.twice()));
    let (niv, niq) = splat_shoup::<V>(n_inv);
    let (piv, piq) = splat_shoup::<V>(psi_n_inv);
    let (lo, hi) = a.split_at_mut(a.len() / 2);
    for (x, y) in lo.chunks_exact_mut(V::W).zip(hi.chunks_exact_mut(V::W)) {
        let (u, v) = (V::load(x), V::load(y));
        mul_shoup(u.add(v), niv, niq, qv).store(x);
        mul_shoup(u.add(two_q).sub(v), piv, piq, qv).store(y);
    }
}

// The blocked-permute kernels: `8 | len` is asserted by the wrapper and
// `W` divides 8, so there is no tail. The source block is sliced checked.

#[inline(always)]
pub(super) unsafe fn permute8<V: Lanes>(out: &mut [u64], src: &[u64], bsrc: &[u32], bpat: &[u64]) {
    for (b, (&sb, &pat)) in bsrc.iter().zip(bpat).enumerate() {
        let blk = &src[sb as usize * 8..sb as usize * 8 + 8];
        for h in (0..8).step_by(V::W) {
            V::permute_block(blk, pat >> (8 * h)).store(&mut out[b * 8 + h..]);
        }
    }
}

#[inline(always)]
pub(super) unsafe fn permute8_add_lazy<V: Lanes>(
    q: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
) {
    let two_q = V::splat(q.twice());
    for (b, (&sb, &pat)) in bsrc.iter().zip(bpat).enumerate() {
        let blk = &src[sb as usize * 8..sb as usize * 8 + 8];
        for h in (0..8).step_by(V::W) {
            let j = b * 8 + h;
            let t = V::permute_block(blk, pat >> (8 * h));
            V::load(&acc[j..]).add(t).csub(two_q).store(&mut acc[j..]);
        }
    }
}

/// `acc[j..] ← add_lazy(acc[j..], mul_shoup_lazy(a, (vals, quots)[j..]))`.
#[inline(always)]
unsafe fn mul_acc_at<V: Lanes>(
    acc: &mut [u64],
    a: V,
    vals: &[u64],
    quots: &[u64],
    j: usize,
    q: V,
    two_q: V,
) {
    let r = mul_shoup_lazy(a, V::load(&vals[j..]), V::load(&quots[j..]), q);
    V::load(&acc[j..]).add(r).csub(two_q).store(&mut acc[j..]);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn permute8_mul_acc_shoup2<V: Lanes>(
    q: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
    vals0: &[u64],
    quots0: &[u64],
    vals1: &[u64],
    quots1: &[u64],
) {
    let (qv, two_q) = (V::splat(q.value()), V::splat(q.twice()));
    for (b, (&sb, &pat)) in bsrc.iter().zip(bpat).enumerate() {
        let blk = &src[sb as usize * 8..sb as usize * 8 + 8];
        for h in (0..8).step_by(V::W) {
            let j = b * 8 + h;
            let t = V::permute_block(blk, pat >> (8 * h));
            mul_acc_at(acc0, t, vals0, quots0, j, qv, two_q);
            mul_acc_at(acc1, t, vals1, quots1, j, qv, two_q);
        }
    }
}

// The pointwise kernels: each processes whole registers from index `from`
// and returns where it stopped; the entry point then runs the same body at
// `u64` (`W = 1`) lanes over the remainder, so the tail is not a second
// implementation either.

#[inline(always)]
pub(super) unsafe fn reduce_4q<V: Lanes>(q: &Modulus, a: &mut [u64], from: usize) -> usize {
    let (qv, two_q) = (V::splat(q.value()), V::splat(q.twice()));
    lane_loop!(V, j in from, a.len() => {
        V::load(&a[j..]).csub(two_q).csub(qv).store(&mut a[j..]);
    })
}

#[inline(always)]
pub(super) unsafe fn dyadic_mul_shoup<V: Lanes>(
    q: &Modulus,
    out: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
    from: usize,
) -> usize {
    let qv = V::splat(q.value());
    lane_loop!(V, j in from, out.len() => {
        let (wv, wq) = (V::load(&vals[j..]), V::load(&quots[j..]));
        mul_shoup(V::load(&a[j..]), wv, wq, qv).store(&mut out[j..]);
    })
}

#[inline(always)]
pub(super) unsafe fn dyadic_mul_acc_shoup<V: Lanes>(
    q: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
    from: usize,
) -> usize {
    let (qv, two_q) = (V::splat(q.value()), V::splat(q.twice()));
    lane_loop!(V, j in from, acc.len() => {
        mul_acc_at(acc, V::load(&a[j..]), vals, quots, j, qv, two_q);
    })
}

#[inline(always)]
pub(super) unsafe fn dyadic_mul<V: Lanes>(
    q: &Modulus,
    out: &mut [u64],
    a: &[u64],
    b: &[u64],
    from: usize,
) -> usize {
    let br = Barrett::<V>::new(q);
    lane_loop!(V, j in from, out.len() => {
        let (xh, xl) = V::load(&a[j..]).mulfull(V::load(&b[j..]));
        br.reduce(xh, xl).store(&mut out[j..]);
    })
}

#[inline(always)]
pub(super) unsafe fn dyadic_mul_acc<V: Lanes>(
    q: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    b: &[u64],
    from: usize,
) -> usize {
    let br = Barrett::<V>::new(q);
    lane_loop!(V, j in from, acc.len() => {
        let (xh, xl) = V::load(&a[j..]).mulfull(V::load(&b[j..]));
        // 128-bit add of the accumulator: carry into the high word.
        let (xl, carry) = xl.add_carry(V::load(&acc[j..]));
        br.reduce(xh.inc_if(carry), xl).store(&mut acc[j..]);
    })
}

/// Generates the five butterfly-stage entry points `dispatch!` calls for
/// the `Lanes` impl `$V`, each carrying `#[$attr]` (the ISA's
/// `#[target_feature]`) and instantiating the generic kernel.
///
/// # Safety (of the generated functions)
///
/// The module-level contract: `$attr`'s feature is present and the
/// wrapper's stage geometry holds.
macro_rules! stage_entry_points {
    ($V:ty, $attr:meta) => {
        stage_entry_points!(@stages $V, $attr;
            forward_stage = stage[true](a: &mut [u64]);
            forward_stage_many = stage_many[true](batch: &mut [&mut [u64]]);
            inverse_stage = stage[false](a: &mut [u64]);
            inverse_stage_many = stage_many[false](batch: &mut [&mut [u64]]);
        );

        #[$attr]
        pub(super) unsafe fn inverse_last_stage(
            q: &Modulus,
            n_inv: ShoupMul,
            psi_n_inv: ShoupMul,
            a: &mut [u64],
        ) {
            lanes::inverse_last_stage::<$V>(q, n_inv, psi_n_inv, a)
        }
    };
    (@stages $V:ty, $attr:meta;
     $($name:ident = $kernel:ident[$fwd:literal]($data:ident: $ty:ty);)*) => {$(
        #[$attr]
        pub(super) unsafe fn $name(
            q: &Modulus,
            w_vals: &[u64],
            w_quots: &[u64],
            $data: $ty,
            m: usize,
            t: usize,
        ) {
            lanes::$kernel::<$V, $fwd>(q, w_vals, w_quots, $data, m, t)
        }
    )*};
}

/// Generates the pointwise and blocked-permute entry points for the
/// `Lanes` impl `$V` under `#[$attr]`. A pointwise entry runs the kernel at
/// `$V` over the whole registers, then the same kernel at `u64` lanes over
/// the remainder.
///
/// # Safety (of the generated functions)
///
/// The module-level contract: `$attr`'s feature is present and the
/// wrapper's length asserts hold.
macro_rules! pointwise_entry_points {
    ($V:ty, $attr:meta) => {
        pointwise_entry_points!(@gen $V, $attr;
            tail reduce_4q(q: &Modulus, a: &mut [u64]);
            tail dyadic_mul_shoup(
                q: &Modulus, out: &mut [u64], a: &[u64], vals: &[u64], quots: &[u64]);
            tail dyadic_mul_acc_shoup(
                q: &Modulus, acc: &mut [u64], a: &[u64], vals: &[u64], quots: &[u64]);
            tail dyadic_mul(q: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]);
            tail dyadic_mul_acc(q: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]);
            whole permute8(out: &mut [u64], src: &[u64], bsrc: &[u32], bpat: &[u64]);
            whole permute8_add_lazy(
                q: &Modulus, acc: &mut [u64], src: &[u64], bsrc: &[u32], bpat: &[u64]);
            whole permute8_mul_acc_shoup2(
                q: &Modulus, acc0: &mut [u64], acc1: &mut [u64], src: &[u64],
                bsrc: &[u32], bpat: &[u64],
                vals0: &[u64], quots0: &[u64], vals1: &[u64], quots1: &[u64]);
        );
    };
    (@gen $V:ty, $attr:meta; $($kind:ident $name:ident($($arg:ident: $ty:ty),*);)*) => {$(
        #[$attr]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $name($($arg: $ty),*) {
            pointwise_entry_points!(@body $kind $V, $name($($arg),*))
        }
    )*};
    (@body tail $V:ty, $name:ident($($arg:ident),*)) => {{
        let done = lanes::$name::<$V>($($arg,)* 0);
        lanes::$name::<u64>($($arg,)* done);
    }};
    (@body whole $V:ty, $name:ident($($arg:ident),*)) => {
        lanes::$name::<$V>($($arg),*)
    };
}
