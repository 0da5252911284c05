//! Negacyclic number-theoretic transform with lazy-reduction Harvey
//! butterflies.
//!
//! For `q ≡ 1 (mod 2N)` there is a primitive 2N-th root of unity `ψ`, and the
//! map `f(x) ↦ (f(ψ ω^0), f(ψ ω^1), ...)` with `ω = ψ²` diagonalizes
//! multiplication in `Z_q[x]/(x^N + 1)`. We implement the in-place
//! Cooley–Tukey forward / Gentleman–Sande inverse transforms with `ψ` powers
//! folded into the butterfly twiddles, as in Longa–Naehrig, and with the
//! Harvey lazy-reduction formulation in the butterflies: twiddles are stored
//! with precomputed Shoup quotients ([`pi_field::ShoupMul`]), so the hot loop
//! is two multiplies, one high-half multiply, and a couple of conditional
//! subtractions — no 128-bit Barrett reduction.
//!
//! # Lazy-reduction invariants
//!
//! With `q < 2^62` every value in `[0, 4q)` fits a `u64`:
//!
//! * **Forward (Cooley–Tukey)**: butterfly inputs and outputs live in
//!   `[0, 4q)`. Each butterfly first conditionally subtracts `2q` from the
//!   upper operand (bringing it to `[0, 2q)`), multiplies the lower operand
//!   by the twiddle via `mul_shoup_lazy` (any `u64` in, `[0, 2q)` out), and
//!   emits `u + v ∈ [0, 4q)` and `u − v + 2q ∈ (0, 4q)`. [`NttTables::forward`]
//!   runs a single final correction pass `[0, 4q) → [0, q)`.
//! * **Inverse (Gentleman–Sande)**: butterfly inputs and outputs live in
//!   `[0, 2q)` (so [`NttTables::inverse`] also accepts lazily-accumulated
//!   inputs in `[0, 2q)`, e.g. from [`NttTables::dyadic_mul_acc_shoup`]).
//!   The sum path uses `add_lazy`; the difference path feeds `u − v + 2q ∈
//!   (0, 4q)` into `mul_shoup_lazy`. The final stage folds the `n^{-1}`
//!   scaling into its twiddles (`n^{-1}` and `ψ^{-1}·n^{-1}` in Shoup form)
//!   and reduces exactly, so the output is strictly in `[0, q)` with no
//!   separate scaling pass.
//!
//! # SIMD dispatch
//!
//! Every public transform and pointwise kernel resolves a backend once per
//! call ([`pi_field::simd::backend`]: AVX-512 / AVX2 / NEON / the portable
//! `u64`-lane backend, or the scalar oracle under `PI_SIMD=scalar`) and
//! hands it, unexamined, to one [`pi_field::simd`] wrapper per butterfly
//! stage or pointwise pass. Which strides a backend runs on its lanes and
//! which fall to the element-at-a-time butterflies is that module's one
//! rule; the scalar loops live there too and double as the differential
//! oracle (`tests/ntt_simd_differential.rs` proves bit-for-bit agreement,
//! lazy representatives included). The stage-major
//! [`NttTables::forward_many`]/[`NttTables::inverse_many`] batching goes
//! through the same wrappers, so a key switch's digits under one modulus
//! take the vector path too. This crate stays `#![forbid(unsafe_code)]`.
//!
//! The pre-optimization Barrett transforms survive as
//! [`NttTables::forward_reference`] / [`NttTables::inverse_reference`]; they
//! are the differential-test oracle and the before/after benchmark baseline.

use pi_field::{prime, simd, Modulus, ShoupMul};

/// A vector of fixed multiplicands in Shoup form: values plus precomputed
/// quotients, stored as two parallel arrays for cache-friendly pointwise
/// kernels. Used for NTT-form polynomials that multiply many ciphertexts
/// (plaintext diagonals, key-switching keys).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShoupVec {
    values: Vec<u64>,
    quotients: Vec<u64>,
}

impl ShoupVec {
    /// Precomputes Shoup quotients for a slice of reduced values.
    pub fn new(q: Modulus, values: &[u64]) -> Self {
        Self::from_vec(q, values.to_vec())
    }

    /// Precomputes Shoup quotients for reduced values the caller already
    /// owns (a freshly unpacked or sampled polynomial): the vector becomes
    /// the operand's value half as it is.
    pub(crate) fn from_vec(q: Modulus, values: Vec<u64>) -> Self {
        Self::from_vec_in(q, values, Vec::new())
    }

    /// [`ShoupVec::from_vec`] with the quotients written into a vector the
    /// caller already owns (cleared and refilled; it reallocates only if
    /// its capacity is below `values.len()`): rebuilding an operand from
    /// the halves of a retired one ([`ShoupVec::into_vecs`]) allocates
    /// nothing.
    pub(crate) fn from_vec_in(q: Modulus, values: Vec<u64>, mut quotients: Vec<u64>) -> Self {
        quotients.clear();
        quotients.extend(values.iter().map(|&v| q.shoup(v).quotient));
        Self { values, quotients }
    }

    /// Takes the operand apart into its `(values, quotients)` vectors.
    pub(crate) fn into_vecs(self) -> (Vec<u64>, Vec<u64>) {
        (self.values, self.quotients)
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The raw (reduced) values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The precomputed Shoup quotients, parallel to [`ShoupVec::values`]
    /// (consumed by the lane kernels in `pi_field::simd`).
    pub fn quotients(&self) -> &[u64] {
        &self.quotients
    }

    /// The `i`-th element as a [`ShoupMul`].
    #[inline]
    pub(crate) fn get(&self, i: usize) -> ShoupMul {
        ShoupMul {
            value: self.values[i],
            quotient: self.quotients[i],
        }
    }
}

/// Precomputed twiddle tables for a negacyclic NTT of size `n` modulo `q`.
///
/// Alongside the bit-reversed `ψ` powers, every table stores the Shoup
/// quotient companion so butterflies avoid Barrett reduction entirely.
#[derive(Clone, Debug)]
pub struct NttTables {
    n: usize,
    q: Modulus,
    /// psi powers in bit-reversed order with Shoup quotients (forward
    /// butterflies).
    psi_rev: ShoupVec,
    /// inverse psi powers in bit-reversed order with Shoup quotients
    /// (inverse butterflies).
    psi_inv_rev: ShoupVec,
    /// n^{-1} mod q, folded into the last inverse stage (Shoup form).
    n_inv: ShoupMul,
    /// psi_inv_rev[1] · n^{-1} mod q, the last-stage twiddle with the
    /// inverse scaling folded in (Shoup form).
    psi_n_inv: ShoupMul,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// The Galois automorphism `x ↦ x^g` expressed as a permutation of the NTT
/// evaluation slots.
///
/// In this engine's (Longa–Naehrig) ordering, output slot `j` of
/// [`NttTables::forward`] holds `f(ψ^{e_j})` with `e_j = 2·rev(j) + 1`
/// (`rev` = bit reversal over `log2 n` bits; [`NttTables::eval_index`] is
/// the inverse map). Since
/// `(φ_g f)(ψ^{e}) = f(ψ^{g·e mod 2n})` and odd exponents are closed under
/// multiplication by odd `g`, the automorphism acts on evaluation vectors as
/// the pure index permutation `out[j] = in[idx[j]]` with
/// `e_{idx[j]} ≡ g·e_j (mod 2n)` — no arithmetic, so any lazy-range
/// invariant (`[0, q)`, `[0, 2q)`, `[0, 4q)`) passes through unchanged.
///
/// This is the core of Halevi–Shoup *hoisting*: a ciphertext decomposed and
/// NTT-transformed once can be rotated by any `g` at the cost of a gather
/// instead of a fresh decompose + batch of forward transforms.
#[derive(Clone, Debug)]
pub struct GaloisPerm {
    g: usize,
    /// `idx[j]` = source slot for output slot `j`.
    idx: Vec<u32>,
    /// Blocked form of the same table (present whenever `8 | n` and the
    /// aligned-8-block structure holds, i.e. always for the automorphism
    /// tables built here): `idx[8b+t] = 8·bsrc[b] + pat_b(t)`.
    blocks: Option<GaloisBlocks>,
}

/// Blocked Galois index table: in the bit-reversed slot order, multiplying
/// the odd exponent `e_j = 2·rev(j)+1` by an odd Galois element only moves
/// bits at or above `log2(n/4)` through the `rev(t)·n/4` term, and those
/// reverse into the *low three* bits of the source index — so every aligned
/// 8-lane output block reads a permutation of exactly one aligned 8-lane
/// source block. This is what lets the permutation run as one contiguous
/// load + `vpermq` per block ([`pi_field::simd::permute8`]).
#[derive(Clone, Debug)]
struct GaloisBlocks {
    /// `bsrc[b]` = source block index for output block `b`.
    bsrc: Vec<u32>,
    /// Packed intra-block pattern: byte `t` of `bpat[b]` is the source lane
    /// (`0..8`) of output lane `t`.
    bpat: Vec<u64>,
}

impl GaloisBlocks {
    /// Derives the blocked tables from a raw index table, or `None` when
    /// the 8-block structure does not hold (`n < 8`, or a table that is not
    /// a power-of-two automorphism — checked defensively rather than
    /// assumed).
    fn derive(idx: &[u32]) -> Option<Self> {
        if idx.len() < 8 || !idx.len().is_multiple_of(8) {
            return None;
        }
        let blocks = idx.len() / 8;
        let mut bsrc = Vec::with_capacity(blocks);
        let mut bpat = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let base = idx[b * 8] >> 3;
            let mut pat = 0u64;
            for t in 0..8 {
                let i = idx[b * 8 + t];
                if i >> 3 != base {
                    return None;
                }
                pat |= ((i & 7) as u64) << (8 * t);
            }
            bsrc.push(base);
            bpat.push(pat);
        }
        Some(GaloisBlocks { bsrc, bpat })
    }
}

impl GaloisPerm {
    /// The Galois element this permutation realizes.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Heap bytes the index tables occupy.
    pub fn byte_len(&self) -> usize {
        let blocks = self.blocks.as_ref();
        self.idx.len() * 4 + blocks.map_or(0, |b| b.bsrc.len() * 4 + b.bpat.len() * 8)
    }

    /// [`GaloisPerm::byte_len`] of every permutation
    /// [`NttTables::galois_permutation`] builds at ring degree `n`, known
    /// before one is built: the index table plus, from `n = 8` on, the
    /// blocked form.
    pub fn byte_len_at(n: usize) -> usize {
        n * 4 + if n >= 8 { n / 8 * 12 } else { 0 }
    }

    /// The ring degree (number of slots).
    pub fn n(&self) -> usize {
        self.idx.len()
    }

    /// The raw index table: `idx[j]` is the source slot for output slot `j`.
    /// Every entry is `< n`.
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// The blocked tables, if backend `be` has lane kernels to run them
    /// on; `None` sends the caller to its scalar index loop (the scalar
    /// backend, or a ring with `n < 8`). The one backend question this
    /// crate asks, on purpose: the blocked tables exist only from `n = 8`,
    /// so the index loop is needed whatever the backend, and as the scalar
    /// oracle it walks the full index table — which is what checks
    /// [`GaloisBlocks::derive`] against the table it was derived from.
    fn lane_blocks(&self, be: simd::SimdBackend) -> Option<&GaloisBlocks> {
        self.blocks.as_ref().filter(|_| be.is_vector())
    }

    /// Applies the permutation: `out[j] = input[idx[j]]`. Values are copied
    /// untouched, so the input's (lazy) range carries over to the output.
    /// On vector backends this runs as in-register permutes — one
    /// contiguous load + `vpermq` per aligned 8-block
    /// ([`pi_field::simd::permute8`]) — whenever the blocked tables are
    /// present (every ring with `8 | n`); otherwise, and under the scalar
    /// backend, as the index loop. The results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n`.
    pub fn apply(&self, out: &mut [u64], input: &[u64]) {
        assert!(
            out.len() == self.idx.len() && input.len() == self.idx.len(),
            "permutation length mismatch"
        );
        pi_trace::incr(pi_trace::Counter::NttGather);
        let be = simd::backend();
        if let Some(bl) = self.lane_blocks(be) {
            simd::permute8(be, out, input, &bl.bsrc, &bl.bpat);
            return;
        }
        for (o, &s) in out.iter_mut().zip(&self.idx) {
            *o = input[s as usize];
        }
    }
}

impl NttTables {
    /// Builds NTT tables for ring degree `n` (a power of two) and prime `q`
    /// with `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `q` is not an NTT prime for `n`.
    pub fn new(n: usize, q: Modulus) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ring degree must be a power of two >= 2"
        );
        assert_eq!(
            (q.value() - 1) % (2 * n as u64),
            0,
            "q must satisfy q ≡ 1 (mod 2n)"
        );
        let psi = prime::root_of_unity(q.value(), 2 * n as u64);
        let psi_inv = q.inv(psi).expect("psi invertible");
        let bits = n.trailing_zeros();
        let mut psi_rev = vec![0u64; n];
        let mut psi_inv_rev = vec![0u64; n];
        let mut power = 1u64;
        let mut power_inv = 1u64;
        let mut psi_pows = vec![0u64; n];
        let mut psi_inv_pows = vec![0u64; n];
        for i in 0..n {
            psi_pows[i] = power;
            psi_inv_pows[i] = power_inv;
            power = q.mul(power, psi);
            power_inv = q.mul(power_inv, psi_inv);
        }
        for i in 0..n {
            psi_rev[i] = psi_pows[bit_reverse(i, bits)];
            psi_inv_rev[i] = psi_inv_pows[bit_reverse(i, bits)];
        }
        let n_inv_val = q.inv(n as u64).expect("n invertible mod q");
        let n_inv = q.shoup(n_inv_val);
        let psi_n_inv = q.shoup(q.mul(psi_inv_rev[1], n_inv_val));
        Self {
            n,
            q,
            psi_rev: ShoupVec::new(q, &psi_rev),
            psi_inv_rev: ShoupVec::new(q, &psi_inv_rev),
            n_inv,
            psi_n_inv,
        }
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Modulus.
    pub fn q(&self) -> Modulus {
        self.q
    }

    /// The evaluation index that holds `f(ψ^e)` after [`NttTables::forward`],
    /// for odd `e < 2n`: `rev((e − 1)/2)`. This is the one definition of
    /// the engine's slot order; `ψ` is `prime::root_of_unity(q, 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is even or `e >= 2n`.
    pub fn eval_index(&self, e: usize) -> usize {
        assert!(
            e % 2 == 1 && e < 2 * self.n,
            "exponent must be odd and < 2n"
        );
        bit_reverse(e >> 1, self.n.trailing_zeros())
    }

    /// Builds the evaluation-slot permutation realizing the Galois
    /// automorphism `x ↦ x^g` directly on NTT-form data (see [`GaloisPerm`]).
    ///
    /// Satisfies `forward(galois(f)) == perm.apply(forward(f))` for every
    /// `f` — pinned down by the `galois_ntt_*` differential tests.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (not a ring automorphism of `Z[x]/(x^n + 1)`).
    pub fn galois_permutation(&self, g: usize) -> GaloisPerm {
        assert!(g % 2 == 1, "Galois element must be odd");
        let n = self.n;
        let bits = n.trailing_zeros();
        let mask = 2 * n - 1;
        let idx = (0..n)
            .map(|j| {
                let e = 2 * bit_reverse(j, bits) + 1;
                self.eval_index((g * e) & mask) as u32
            })
            .collect::<Vec<u32>>();
        let blocks = GaloisBlocks::derive(&idx);
        GaloisPerm { g, idx, blocks }
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation form).
    ///
    /// Input coefficients must be in `[0, q)`; output is in `[0, q)` (the
    /// butterflies run lazily in `[0, 4q)` with a single final correction
    /// pass — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        pi_trace::incr(pi_trace::Counter::NttForward);
        let be = simd::backend();
        let (w, wq) = (self.psi_rev.values(), self.psi_rev.quotients());
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            simd::forward_stage(be, &self.q, &w[m..2 * m], &wq[m..2 * m], a, m, t);
            m *= 2;
        }
        simd::reduce_4q(be, &self.q, a);
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient form).
    ///
    /// Accepts inputs in the lazy range `[0, 2q)` (strictly reduced values
    /// included); output is strictly in `[0, q)`. The `n^{-1}` scaling is
    /// folded into the final stage's twiddles rather than a separate pass.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        pi_trace::incr(pi_trace::Counter::NttInverse);
        let be = simd::backend();
        let (w, wq) = (self.psi_inv_rev.values(), self.psi_inv_rev.quotients());
        let mut t = 1;
        let mut m = self.n;
        while m > 2 {
            let h = m / 2;
            simd::inverse_stage(be, &self.q, &w[h..m], &wq[h..m], a, h, t);
            t *= 2;
            m = h;
        }
        simd::inverse_last_stage(be, &self.q, self.n_inv, self.psi_n_inv, a);
    }

    /// Forward-transforms a batch of polynomials stage-by-stage, so each
    /// twiddle is loaded once per stage for the whole batch (one pass over
    /// the twiddle tables instead of `batch.len()` passes). On the vector
    /// backends the per-block twiddle **splat** is also hoisted over the
    /// batch ([`pi_field::simd::forward_stage_many`]): twiddle-outer,
    /// column-inner, one register broadcast serving all `k` columns. The
    /// per-element invariants match [`NttTables::forward`].
    ///
    /// This is the kernel behind ciphertext-pair transforms and the
    /// key-switch digit transforms (the lifted digits of a rotation, per
    /// modulus).
    ///
    /// # Panics
    ///
    /// Panics if any polynomial's length differs from `n`.
    pub fn forward_many(&self, batch: &mut [&mut [u64]]) {
        for a in batch.iter() {
            assert_eq!(a.len(), self.n);
        }
        pi_trace::add(pi_trace::Counter::NttForward, batch.len() as u64);
        let be = simd::backend();
        let (w, wq) = (self.psi_rev.values(), self.psi_rev.quotients());
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            simd::forward_stage_many(be, &self.q, &w[m..2 * m], &wq[m..2 * m], batch, m, t);
            m *= 2;
        }
        for a in batch.iter_mut() {
            simd::reduce_4q(be, &self.q, a);
        }
    }

    /// Inverse-transforms a batch of polynomials stage-by-stage (the inverse
    /// counterpart of [`NttTables::forward_many`]).
    ///
    /// # Panics
    ///
    /// Panics if any polynomial's length differs from `n`.
    pub fn inverse_many(&self, batch: &mut [&mut [u64]]) {
        for a in batch.iter() {
            assert_eq!(a.len(), self.n);
        }
        pi_trace::add(pi_trace::Counter::NttInverse, batch.len() as u64);
        let be = simd::backend();
        let (w, wq) = (self.psi_inv_rev.values(), self.psi_inv_rev.quotients());
        let mut t = 1;
        let mut m = self.n;
        while m > 2 {
            let h = m / 2;
            simd::inverse_stage_many(be, &self.q, &w[h..m], &wq[h..m], batch, h, t);
            t *= 2;
            m = h;
        }
        for a in batch.iter_mut() {
            simd::inverse_last_stage(be, &self.q, self.n_inv, self.psi_n_inv, a);
        }
    }

    /// Pointwise product `out[i] = a[i]·b[i] mod q` of two evaluation-form
    /// vectors, both strictly reduced.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dyadic_mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        assert!(out.len() == self.n && a.len() == self.n && b.len() == self.n);
        pi_trace::incr(pi_trace::Counter::NttDyadic);
        simd::dyadic_mul(simd::backend(), &self.q, out, a, b);
    }

    /// Pointwise Shoup product `out[i] = a[i]·op[i] mod q`, strictly reduced.
    /// `a` may be in the lazy range `[0, 2q)`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dyadic_mul_shoup(&self, out: &mut [u64], a: &[u64], op: &ShoupVec) {
        assert!(out.len() == self.n && a.len() == self.n && op.len() == self.n);
        pi_trace::incr(pi_trace::Counter::NttDyadic);
        let (be, q) = (simd::backend(), &self.q);
        simd::dyadic_mul_shoup(be, q, out, a, op.values(), op.quotients());
    }

    /// Lazy pointwise Shoup multiply-accumulate over the `[0, 2q)` domain:
    /// `acc[i] ← add_lazy(acc[i], mul_shoup_lazy(a[i], op[i]))`.
    ///
    /// `acc` must be in `[0, 2q)` and stays in `[0, 2q)`; `a` may be any
    /// `u64` (the Shoup contract). Chain across many operands — e.g. the
    /// key-switch digit products or Halevi–Shoup diagonal terms — and either
    /// finish with [`Modulus::reduce_lazy`] per slot or feed the accumulator
    /// directly to [`NttTables::inverse`], which accepts `[0, 2q)`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dyadic_mul_acc_shoup(&self, acc: &mut [u64], a: &[u64], op: &ShoupVec) {
        assert!(acc.len() == self.n && a.len() == self.n && op.len() == self.n);
        pi_trace::incr(pi_trace::Counter::NttDyadic);
        let (be, q) = (simd::backend(), &self.q);
        simd::dyadic_mul_acc_shoup(be, q, acc, a, op.values(), op.quotients());
    }

    /// Fused permute-and-double-accumulate: for each slot `j`, reads
    /// `src[perm.idx[j]]` once and lazily accumulates its Shoup products
    /// against `op0` into `acc0` and against `op1` into `acc1` — the
    /// key-switch inner loop (`D(c)` digit × two key halves) with the
    /// Galois permutation folded into the gather instead of materialized
    /// into a scratch polynomial. One pass over memory per digit.
    ///
    /// `acc0`/`acc1` must be in `[0, 2q)` and stay there; `src` may be any
    /// `u64` (the Shoup contract). Bit-identical to
    /// [`GaloisPerm::apply`]-into-scratch followed by two
    /// [`NttTables::dyadic_mul_acc_shoup`] calls.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch with the ring degree.
    pub fn dyadic_mul_acc_shoup_gather2(
        &self,
        acc0: &mut [u64],
        acc1: &mut [u64],
        src: &[u64],
        perm: &GaloisPerm,
        op0: &ShoupVec,
        op1: &ShoupVec,
    ) {
        assert!(
            acc0.len() == self.n
                && acc1.len() == self.n
                && src.len() == self.n
                && perm.n() == self.n
                && op0.len() == self.n
                && op1.len() == self.n
        );
        pi_trace::incr(pi_trace::Counter::NttDyadic);
        pi_trace::incr(pi_trace::Counter::NttGather);
        let (be, q) = (simd::backend(), &self.q);
        if let Some(bl) = perm.lane_blocks(be) {
            let (bs, bp) = (&bl.bsrc, &bl.bpat);
            let (v0, q0, v1, q1) = (op0.values(), op0.quotients(), op1.values(), op1.quotients());
            simd::permute8_mul_acc_shoup2(be, q, acc0, acc1, src, bs, bp, v0, q0, v1, q1);
            return;
        }
        for (j, &s) in perm.idx.iter().enumerate() {
            let x = src[s as usize];
            acc0[j] = q.add_lazy(acc0[j], q.mul_shoup_lazy(x, op0.get(j)));
            acc1[j] = q.add_lazy(acc1[j], q.mul_shoup_lazy(x, op1.get(j)));
        }
    }

    /// Fused permute-and-add over the lazy `[0, 2q)` domain:
    /// `acc[j] = add_lazy(acc[j], src[perm.idx[j]])`. `src` must be in
    /// `[0, 2q)`. Bit-identical to [`GaloisPerm::apply`]-into-scratch
    /// followed by a per-slot `add_lazy` loop.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch with the ring degree.
    pub fn gather_add_lazy(&self, acc: &mut [u64], src: &[u64], perm: &GaloisPerm) {
        assert!(acc.len() == self.n && src.len() == self.n && perm.n() == self.n);
        pi_trace::incr(pi_trace::Counter::NttGather);
        let (be, q) = (simd::backend(), &self.q);
        if let Some(bl) = perm.lane_blocks(be) {
            simd::permute8_add_lazy(be, q, acc, src, &bl.bsrc, &bl.bpat);
            return;
        }
        for (j, &s) in perm.idx.iter().enumerate() {
            acc[j] = q.add_lazy(acc[j], src[s as usize]);
        }
    }

    /// Reference forward transform using generic Barrett multiplication —
    /// the pre-optimization implementation, kept as the differential-test
    /// oracle and benchmark baseline.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let q = &self.q;
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t /= 2;
            for i in 0..m {
                let j1 = 2 * i * t;
                let j2 = j1 + t;
                let s = self.psi_rev.values()[m + i];
                for j in j1..j2 {
                    let u = a[j];
                    let v = q.mul(a[j + t], s);
                    a[j] = q.add(u, v);
                    a[j + t] = q.sub(u, v);
                }
            }
            m *= 2;
        }
    }

    /// Reference inverse transform using generic Barrett multiplication (see
    /// [`NttTables::forward_reference`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let q = &self.q;
        let mut t = 1;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0;
            for i in 0..h {
                let j2 = j1 + t;
                let s = self.psi_inv_rev.values()[h + i];
                for j in j1..j2 {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = q.add(u, v);
                    a[j + t] = q.mul(q.sub(u, v), s);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = q.mul(*x, self.n_inv.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_field::find_ntt_prime;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn tables(n: usize, bits: u32) -> NttTables {
        NttTables::new(n, Modulus::new(find_ntt_prime(bits, n as u64)))
    }

    fn random_vec(n: usize, q: Modulus, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q.value())).collect()
    }

    /// Schoolbook negacyclic multiplication for reference.
    fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        #[allow(clippy::needless_range_loop)] // i, j index a, b, and out together
        for i in 0..n {
            for j in 0..n {
                let prod = q.mul(a[i], b[j]);
                let k = i + j;
                if k < n {
                    out[k] = q.add(out[k], prod);
                } else {
                    out[k - n] = q.sub(out[k - n], prod);
                }
            }
        }
        out
    }

    #[test]
    fn an_operand_rebuilt_in_a_retired_ones_vectors_allocates_nothing() {
        let q = Modulus::new(find_ntt_prime(50, 64));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (old, new) = (random_vec(32, q, &mut rng), random_vec(32, q, &mut rng));
        let (mut values, quotients) = ShoupVec::from_vec(q, old).into_vecs();
        let (vp, qp) = (values.as_ptr(), quotients.as_ptr());
        values.copy_from_slice(&new);
        let rebuilt = ShoupVec::from_vec_in(q, values, quotients);
        assert_eq!(rebuilt, ShoupVec::new(q, &new));
        assert_eq!(
            (rebuilt.values().as_ptr(), rebuilt.quotients().as_ptr()),
            (vp, qp)
        );
    }

    #[test]
    fn a_permutations_size_is_known_from_the_degree() {
        for n in [4usize, 8, 16, 1024] {
            let t = tables(n, 30);
            for g in [1, 3, 5, 2 * n - 1] {
                let perm = t.galois_permutation(g);
                assert_eq!(perm.byte_len(), GaloisPerm::byte_len_at(n), "n={n} g={g}");
            }
        }
    }

    /// The probe oracle for [`NttTables::eval_index`]: the transform of
    /// `f(x) = x` is the evaluation points themselves, so index
    /// `eval_index(e)` must hold `ψ^e` for every odd `e < 2n`.
    #[test]
    fn eval_index_holds_the_evaluation_point_it_names() {
        for n in [4usize, 64, 4096] {
            let t = tables(n, 30);
            let q = t.q();
            let psi = prime::root_of_unity(q.value(), 2 * n as u64);
            let mut probe = vec![0u64; n];
            probe[1] = 1;
            t.forward(&mut probe);
            for e in (1..2 * n).step_by(2) {
                assert_eq!(probe[t.eval_index(e)], q.pow(psi, e as u64), "n={n} e={e}");
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [4usize, 16, 256, 1024] {
            let t = tables(n, 30);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let orig: Vec<u64> = random_vec(n, t.q(), &mut rng);
            let mut a = orig.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "transform must change the data");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn harvey_matches_reference_transform() {
        // Differential test across the full supported ring-degree and
        // prime-size range: lazy Harvey ≡ Barrett reference, element for
        // element, in both directions.
        for n in [4usize, 16, 64, 256, 1024, 4096] {
            for bits in [28u32, 45, 59, 62] {
                let t = tables(n, bits);
                let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 * 1000 + bits as u64);
                let orig = random_vec(n, t.q(), &mut rng);

                let mut fast = orig.clone();
                let mut slow = orig.clone();
                t.forward(&mut fast);
                t.forward_reference(&mut slow);
                assert_eq!(fast, slow, "forward mismatch at n={n}, bits={bits}");

                let mut fast_inv = fast.clone();
                let mut slow_inv = fast;
                t.inverse(&mut fast_inv);
                t.inverse_reference(&mut slow_inv);
                assert_eq!(fast_inv, slow_inv, "inverse mismatch at n={n}, bits={bits}");
                assert_eq!(fast_inv, orig, "roundtrip mismatch at n={n}, bits={bits}");
            }
        }
    }

    #[test]
    fn harvey_at_62_bit_overflow_boundary() {
        // q just below 2^62 (the Modulus contract's ceiling, and the
        // production BFV modulus since the BSGS headroom bump): the
        // [0, 4q) forward domain tops out just under 2^64, stressing the
        // u64 headroom the lazy invariants rely on.
        let n = 1024;
        let q = Modulus::new(find_ntt_prime(62, n as u64));
        assert!(q.value() > (1u64 << 61));
        let t = NttTables::new(n, q);
        // All-max-value input maximizes intermediate magnitudes.
        let mut a = vec![q.value() - 1; n];
        let mut b = a.clone();
        t.forward(&mut a);
        t.forward_reference(&mut b);
        assert_eq!(a, b);
        t.inverse(&mut a);
        assert_eq!(a, vec![q.value() - 1; n]);
    }

    #[test]
    fn forward_many_matches_individual() {
        let n = 256;
        let t = tables(n, 59);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let polys: Vec<Vec<u64>> = (0..5).map(|_| random_vec(n, t.q(), &mut rng)).collect();
        let mut expect = polys.clone();
        for p in &mut expect {
            t.forward(p);
        }
        let mut batch = polys.clone();
        {
            let mut refs: Vec<&mut [u64]> = batch.iter_mut().map(|p| p.as_mut_slice()).collect();
            t.forward_many(&mut refs);
        }
        assert_eq!(batch, expect);

        // And back, batched.
        {
            let mut refs: Vec<&mut [u64]> = batch.iter_mut().map(|p| p.as_mut_slice()).collect();
            t.inverse_many(&mut refs);
        }
        assert_eq!(batch, polys);
    }

    #[test]
    fn dyadic_kernels_match_scalar_ops() {
        let n = 128;
        let t = tables(n, 59);
        let q = t.q();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let a = random_vec(n, q, &mut rng);
        let b = random_vec(n, q, &mut rng);
        let acc0 = random_vec(n, q, &mut rng);

        let mut out = vec![0u64; n];
        t.dyadic_mul(&mut out, &a, &b);
        for i in 0..n {
            assert_eq!(out[i], q.mul(a[i], b[i]));
        }

        let op = ShoupVec::new(q, &b);
        let mut out_s = vec![0u64; n];
        t.dyadic_mul_shoup(&mut out_s, &a, &op);
        assert_eq!(out_s, out);

        let mut lazy = acc0.clone();
        t.dyadic_mul_acc_shoup(&mut lazy, &a, &op);
        for i in 0..n {
            assert!(lazy[i] < q.twice());
            assert_eq!(q.reduce_lazy(lazy[i]), q.mul_add(a[i], b[i], acc0[i]));
        }
    }

    #[test]
    fn lazy_accumulator_feeds_inverse() {
        // acc = a1⊙b1 + a2⊙b2 in the lazy domain, then inverse() directly.
        let n = 64;
        let t = tables(n, 59);
        let q = t.q();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mk = |rng: &mut rand::rngs::StdRng| {
            let mut v = random_vec(n, q, rng);
            t.forward(&mut v);
            v
        };
        let (a1, b1, a2, b2) = (mk(&mut rng), mk(&mut rng), mk(&mut rng), mk(&mut rng));

        let mut acc = vec![0u64; n];
        t.dyadic_mul_acc_shoup(&mut acc, &a1, &ShoupVec::new(q, &b1));
        t.dyadic_mul_acc_shoup(&mut acc, &a2, &ShoupVec::new(q, &b2));
        t.inverse(&mut acc);

        let mut expect: Vec<u64> = (0..n)
            .map(|i| q.mul_add(a2[i], b2[i], q.mul(a1[i], b1[i])))
            .collect();
        t.inverse(&mut expect);
        assert_eq!(acc, expect);
    }

    #[test]
    fn pointwise_mul_matches_schoolbook() {
        let n = 64;
        let t = tables(n, 30);
        let q = t.q();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let expect = negacyclic_mul_naive(&a, &b, q);

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn x_times_x_n_minus_1_wraps_negatively() {
        // x * x^(n-1) == x^n == -1 in the negacyclic ring.
        let n = 32;
        let t = tables(n, 30);
        let q = t.q();
        let mut a = vec![0u64; n];
        a[1] = 1; // x
        let mut b = vec![0u64; n];
        b[n - 1] = 1; // x^{n-1}
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
        t.inverse(&mut c);
        let mut expect = vec![0u64; n];
        expect[0] = q.value() - 1; // -1
        assert_eq!(c, expect);
    }

    #[test]
    fn minimum_ring_degree() {
        // n = 2 exercises the "last stage only" inverse path.
        let t = tables(2, 28);
        let q = t.q();
        let orig = vec![3u64, q.value() - 2];
        let mut a = orig.clone();
        let mut b = orig.clone();
        t.forward(&mut a);
        t.forward_reference(&mut b);
        assert_eq!(a, b);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn galois_paths_are_blocked_from_n_8_and_backend_invariant_below() {
        use pi_field::simd::{clear_forced_backend, force_backend, SimdBackend};
        // From n = 8 up every automorphism table has the blocked form, so
        // the permute8 kernels are the only vector path a real ring takes.
        for n in [8usize, 16, 64, 1024, 4096] {
            let t = tables(n, 45);
            let step = (n / 32).max(1) * 2;
            for g in (1..2 * n).step_by(step).chain([n + 1, 2 * n - 1]) {
                let perm = t.galois_permutation(g);
                assert!(perm.blocks.is_some(), "no blocked table at n={n} g={g}");
            }
        }
        // Below that there is no blocked table and no lane kernel: every
        // vector backend must fall through to the scalar index loop.
        // (The forced backend is process-global; concurrent tests only ever
        // see a different bit-identical path.)
        let vector_backends = [
            SimdBackend::Portable,
            SimdBackend::Avx2,
            SimdBackend::Avx512,
            SimdBackend::Neon,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for bits in [28u32, 45, 62] {
            let t = tables(4, bits);
            let q = t.q();
            for g in [3usize, 5, 7] {
                let perm = t.galois_permutation(g);
                assert!(perm.blocks.is_none());
                let src: Vec<u64> = (0..4).map(|_| rng.gen_range(0..q.twice())).collect();
                let acc: Vec<u64> = (0..4).map(|_| rng.gen_range(0..q.twice())).collect();
                let op0 = ShoupVec::new(q, &random_vec(4, q, &mut rng));
                let op1 = ShoupVec::new(q, &random_vec(4, q, &mut rng));
                let run = |be: SimdBackend| {
                    force_backend(be);
                    let mut out = vec![0u64; 4];
                    perm.apply(&mut out, &src);
                    let (mut a0, mut a1, mut aa) = (acc.clone(), acc.clone(), acc.clone());
                    t.dyadic_mul_acc_shoup_gather2(&mut a0, &mut a1, &src, &perm, &op0, &op1);
                    t.gather_add_lazy(&mut aa, &src, &perm);
                    clear_forced_backend();
                    (out, a0, a1, aa)
                };
                let expect = run(SimdBackend::Scalar);
                for be in vector_backends.into_iter().filter(|be| be.available()) {
                    assert_eq!(run(be), expect, "n=4 bits={bits} g={g} be={}", be.name());
                }
            }
        }
    }

    #[test]
    fn no_caller_asks_which_backend_it_runs_on() {
        // Source-level guard: `pi_field::simd` is the only place a backend
        // is matched on. Outside the test modules this crate names no
        // variant and keeps no stride rule of its own; the one `is_vector()`
        // is `GaloisPerm::lane_blocks` (which says why it stays).
        let mut is_vector = 0;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(dir).expect("crate source directory") {
            let path = entry.expect("directory entry").path();
            let src = std::fs::read_to_string(&path).expect("source file");
            let body = src.split("#[cfg(test)]").next().unwrap_or(&src);
            for needle in ["SimdBackend::", "stage_vectorizable"] {
                assert!(!body.contains(needle), "{path:?} contains `{needle}`");
            }
            is_vector += body.matches("is_vector()").count();
        }
        assert_eq!(
            is_vector, 1,
            "`is_vector()` outside GaloisPerm::lane_blocks"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_length() {
        let t = tables(16, 30);
        let mut a = vec![0u64; 8];
        t.forward(&mut a);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn roundtrip_random(seed in any::<u64>()) {
            let n = 128;
            let t = tables(n, 28);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.q().value())).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            t.inverse(&mut a);
            prop_assert_eq!(a, orig);
        }

        #[test]
        fn harvey_reference_agree_random(seed in any::<u64>(), bits in 28u32..=62) {
            let n = 64;
            let t = tables(n, bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.q().value())).collect();
            let mut fast = orig.clone();
            let mut slow = orig;
            t.forward(&mut fast);
            t.forward_reference(&mut slow);
            prop_assert_eq!(&fast, &slow);
            t.inverse(&mut fast);
            t.inverse_reference(&mut slow);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn ntt_is_linear(seed in any::<u64>()) {
            let n = 64;
            let t = tables(n, 28);
            let q = t.q();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
            let mut fa = a.clone();
            let mut fb = b.clone();
            let mut fsum = sum;
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.forward(&mut fsum);
            let pointwise: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.add(x, y)).collect();
            prop_assert_eq!(fsum, pointwise);
        }
    }
}
