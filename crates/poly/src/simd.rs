//! Stage-level SIMD dispatch for the Harvey NTT engine.
//!
//! This module is the bridge between [`crate::ntt::NttTables`] and the
//! lane kernels in [`pi_field::simd`]: it knows the twiddle layout
//! (bit-reversed `ψ` powers with Shoup companions in a [`ShoupVec`]) and
//! the stage geometry, while all lane arithmetic — and all `unsafe` —
//! lives in `pi-field` (see its module docs for the backends, the
//! `PI_SIMD` toggle and the bit-for-bit contract). This crate stays
//! `#![forbid(unsafe_code)]`.
//!
//! * The backend is resolved once per transform via [`backend`].
//! * A butterfly stage takes the vector path when its stride `t` is at
//!   least [`LANES`]; the `log2(LANES)` stages below that run the
//!   canonical scalar butterflies in `ntt.rs`, except on AVX-512, which
//!   routes them through its in-register permute path whenever the ring
//!   holds a 16-element group (see [`stage_vectorizable`]). The same
//!   per-stage rule applies inside the stage-major
//!   `forward_many`/`inverse_many` batching, so the whole RNS stack
//!   inherits the vector path per residue column.
//! * Lazy-range invariants are unchanged from the scalar engine
//!   (forward `[0, 4q)`, inverse `[0, 2q)`, folded-`n^{-1}` last stage
//!   reducing into `[0, q)`).

use crate::ntt::ShoupVec;
use pi_field::{simd as fsimd, Modulus, ShoupMul};

pub use pi_field::simd::{backend, SimdBackend, LANES};

/// Whether a butterfly stage of stride `t` in a ring of degree `n` runs on
/// the vector path under backend `be`. Every backend requires the
/// stride to reach [`LANES`]; AVX-512 also takes the small-stride stages
/// (`t < 4`) through its permute path whenever the ring holds at least one
/// 16-element group.
#[inline]
pub fn stage_vectorizable(be: SimdBackend, t: usize, n: usize) -> bool {
    match be {
        SimdBackend::Scalar => false,
        SimdBackend::Avx512 => t >= LANES || n.is_multiple_of(16),
        _ => t >= LANES,
    }
}

/// One forward Cooley–Tukey stage (`m` blocks of stride `t`) through the
/// lane kernels; twiddles are `psi_rev[m..2m]` as in the scalar stage.
pub(crate) fn forward_stage(
    be: SimdBackend,
    q: Modulus,
    psi_rev: &ShoupVec,
    a: &mut [u64],
    m: usize,
    t: usize,
) {
    fsimd::forward_stage(
        be,
        &q,
        &psi_rev.values()[m..2 * m],
        &psi_rev.quotients()[m..2 * m],
        a,
        m,
        t,
    );
}

/// One forward stage over a whole batch of polynomials: the twiddle-outer
/// batched kernel ([`pi_field::simd::forward_stage_many`]), so each Shoup
/// pair is splat once for all columns — the stage-major `forward_many`
/// batching with the per-block twiddle loads also amortized.
pub(crate) fn forward_stage_many(
    be: SimdBackend,
    q: Modulus,
    psi_rev: &ShoupVec,
    batch: &mut [&mut [u64]],
    m: usize,
    t: usize,
) {
    fsimd::forward_stage_many(
        be,
        &q,
        &psi_rev.values()[m..2 * m],
        &psi_rev.quotients()[m..2 * m],
        batch,
        m,
        t,
    );
}

/// One inverse Gentleman–Sande stage (`h` blocks of stride `t`); twiddles
/// are `psi_inv_rev[h..2h]`.
pub(crate) fn inverse_stage(
    be: SimdBackend,
    q: Modulus,
    psi_inv_rev: &ShoupVec,
    a: &mut [u64],
    h: usize,
    t: usize,
) {
    fsimd::inverse_stage(
        be,
        &q,
        &psi_inv_rev.values()[h..2 * h],
        &psi_inv_rev.quotients()[h..2 * h],
        a,
        h,
        t,
    );
}

/// One inverse stage over a whole batch of polynomials (the inverse
/// counterpart of [`forward_stage_many`]).
pub(crate) fn inverse_stage_many(
    be: SimdBackend,
    q: Modulus,
    psi_inv_rev: &ShoupVec,
    batch: &mut [&mut [u64]],
    h: usize,
    t: usize,
) {
    fsimd::inverse_stage_many(
        be,
        &q,
        &psi_inv_rev.values()[h..2 * h],
        &psi_inv_rev.quotients()[h..2 * h],
        batch,
        h,
        t,
    );
}

/// The last inverse stage with the folded `n^{-1}` twiddles, vectorizable
/// when the half-length reaches [`LANES`] (i.e. `n >= 8`).
pub(crate) fn inverse_last_stage(
    be: SimdBackend,
    q: Modulus,
    n_inv: ShoupMul,
    psi_n_inv: ShoupMul,
    a: &mut [u64],
) {
    fsimd::inverse_last_stage(be, &q, n_inv, psi_n_inv, a);
}

/// Final `[0, 4q) → [0, q)` correction pass.
pub(crate) fn reduce_4q(be: SimdBackend, q: Modulus, a: &mut [u64]) {
    fsimd::reduce_4q(be, &q, a);
}

/// Pointwise Shoup product against a [`ShoupVec`] operand, strictly
/// reduced.
pub(crate) fn dyadic_mul_shoup(
    be: SimdBackend,
    q: Modulus,
    out: &mut [u64],
    a: &[u64],
    op: &ShoupVec,
) {
    fsimd::dyadic_mul_shoup(be, &q, out, a, op.values(), op.quotients());
}

/// Lazy pointwise Shoup multiply-accumulate over `[0, 2q)`.
pub(crate) fn dyadic_mul_acc_shoup(
    be: SimdBackend,
    q: Modulus,
    acc: &mut [u64],
    a: &[u64],
    op: &ShoupVec,
) {
    fsimd::dyadic_mul_acc_shoup(be, &q, acc, a, op.values(), op.quotients());
}

/// Blocked in-register permutation (`out[8b+t] = src[8·bsrc[b] +
/// pat_b(t)]`) for Galois tables with the aligned-8-block structure.
pub(crate) fn permute8(be: SimdBackend, out: &mut [u64], src: &[u64], bsrc: &[u32], bpat: &[u64]) {
    fsimd::permute8(be, out, src, bsrc, bpat);
}

/// Blocked-permute lazy add: `acc[j] = add_lazy(acc[j], permuted src[j])`,
/// fusing a Galois permutation into a `[0, 2q)` accumulate.
pub(crate) fn permute8_add_lazy(
    be: SimdBackend,
    q: Modulus,
    acc: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
) {
    fsimd::permute8_add_lazy(be, &q, acc, src, bsrc, bpat);
}

/// Blocked-permute fused key-switch inner loop: each permuted lane is read
/// once and fed into two lazy Shoup accumulations (against `op0` into
/// `acc0` and `op1` into `acc1`), so the Galois permutation costs no
/// materialized scratch polynomial. Bit-identical to
/// `apply`-then-`dyadic_mul_acc_shoup` twice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn permute8_mul_acc_shoup2(
    be: SimdBackend,
    q: Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
    op0: &ShoupVec,
    op1: &ShoupVec,
) {
    fsimd::permute8_mul_acc_shoup2(
        be,
        &q,
        acc0,
        acc1,
        src,
        bsrc,
        bpat,
        op0.values(),
        op0.quotients(),
        op1.values(),
        op1.quotients(),
    );
}

/// Pointwise Barrett product of strictly reduced slices.
pub(crate) fn dyadic_mul(be: SimdBackend, q: Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    fsimd::dyadic_mul(be, &q, out, a, b);
}

/// Pointwise Barrett multiply-accumulate of strictly reduced slices.
pub(crate) fn dyadic_mul_acc(be: SimdBackend, q: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    fsimd::dyadic_mul_acc(be, &q, acc, a, b);
}
