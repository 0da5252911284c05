//! The [`SimdBackend::Scalar`](super::SimdBackend::Scalar) backend: the
//! canonical element-at-a-time Harvey butterflies and pointwise loops,
//! written against [`Modulus`]'s word operations only — never against
//! `Lanes` — so they share no arithmetic with the lane kernels and stay
//! their independent differential oracle. Every backend also sends here the
//! butterfly stages its registers do not cover (`stage_backend` in `mod.rs`).

use crate::modulus::{Modulus, ShoupMul};

/// One forward Cooley–Tukey stage over one polynomial.
/// Inputs/outputs in `[0, 4q)`.
#[inline]
pub(super) fn forward_stage(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    m: usize,
    t: usize,
) {
    let two_q = q.twice();
    for i in 0..m {
        let j1 = 2 * i * t;
        let (value, quotient) = (w_vals[i], w_quots[i]);
        let s = ShoupMul { value, quotient };
        let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let mut u = *x;
            if u >= two_q {
                u -= two_q;
            }
            let v = q.mul_shoup_lazy(*y, s);
            *x = u + v;
            *y = u + two_q - v;
        }
    }
}

/// One inverse Gentleman–Sande stage (not the last) over one polynomial.
/// Inputs/outputs in `[0, 2q)`.
#[inline]
pub(super) fn inverse_stage(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    h: usize,
    t: usize,
) {
    let two_q = q.twice();
    for i in 0..h {
        let j1 = 2 * i * t;
        let (value, quotient) = (w_vals[i], w_quots[i]);
        let s = ShoupMul { value, quotient };
        let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *x;
            let v = *y;
            *x = q.add_lazy(u, v);
            *y = q.mul_shoup_lazy(u + two_q - v, s);
        }
    }
}

pub(super) fn forward_stage_many(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    m: usize,
    t: usize,
) {
    for a in batch.iter_mut() {
        forward_stage(q, w_vals, w_quots, a, m, t);
    }
}

pub(super) fn inverse_stage_many(
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    h: usize,
    t: usize,
) {
    for a in batch.iter_mut() {
        inverse_stage(q, w_vals, w_quots, a, h, t);
    }
}

/// The last inverse stage with the `n^{-1}` scaling folded into the
/// twiddles; reduces exactly into `[0, q)`.
#[inline]
pub(super) fn inverse_last_stage(q: &Modulus, n_inv: ShoupMul, psi_n_inv: ShoupMul, a: &mut [u64]) {
    let two_q = q.twice();
    let (lo, hi) = a.split_at_mut(a.len() / 2);
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let u = *x;
        let v = *y;
        // u + v < 4q and u + 2q − v < 4q: both valid mul_shoup operands.
        *x = q.mul_shoup(u + v, n_inv);
        *y = q.mul_shoup(u + two_q - v, psi_n_inv);
    }
}

pub(super) fn reduce_4q(q: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = q.reduce_4q(*x);
    }
}

pub(super) fn dyadic_mul(q: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = q.mul(x, y);
    }
}

pub(super) fn dyadic_mul_shoup(
    q: &Modulus,
    out: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
) {
    for (i, (o, &x)) in out.iter_mut().zip(a).enumerate() {
        let (value, quotient) = (vals[i], quots[i]);
        *o = q.mul_shoup(x, ShoupMul { value, quotient });
    }
}

pub(super) fn dyadic_mul_acc_shoup(
    q: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
) {
    for (i, (o, &x)) in acc.iter_mut().zip(a).enumerate() {
        let (value, quotient) = (vals[i], quots[i]);
        *o = q.add_lazy(*o, q.mul_shoup_lazy(x, ShoupMul { value, quotient }));
    }
}
