//! Encrypted linear algebra: the Gazelle/DELPHI offline workhorse.
//!
//! The server holds a plaintext matrix `W` (one linear phase of the model,
//! convolutions included, lowered to a dense matrix by the caller) and an
//! encryption of the client's random vector `r`. It computes `E(W·r)` with
//! the Halevi–Shoup diagonal method over SIMD slots, then subtracts its own
//! random share `s` to produce `E(W·r − s)` — the client's additive share
//! of the layer.
//!
//! # Hoisted baby-step/giant-step (the hot path)
//!
//! [`matvec_precomputed_many`] (and its one-job call
//! [`matvec_precomputed`]) evaluates `W·v = Σ_k diag_k ⊙ rot_k(v)` with
//! `k = j·b + i` split into `b = ⌈√d⌉` baby steps and `g = ⌈d/b⌉` giant
//! steps:
//!
//! ```text
//! W·v = Σ_j rot_{jb}( Σ_i  p_{j,i} ⊙ rot_i(v) ),
//!       p_{j,i}[s] = W[(s − jb) mod d][(s + i) mod d]
//! ```
//!
//! The `b − 1` baby rotations `rot_i(v)` all come from **one** hoisted
//! lift of `v` ([`GaloisKeys::hoist`]): `c1` is split into its key-switch
//! digits and forward-NTT'd once, and each baby rotation is slot gathers,
//! dyadic key accumulates and its own division by the special prime. Each
//! giant step is one multiply-accumulate sweep over pre-rotated diagonal
//! operands ([`BsgsDiagonals`], encoded once per matrix) plus a single
//! fused key switch that accumulates in the extended basis; the giants of
//! one matvec share **one** division at the end (see [`crate::keys`] for
//! why the two kinds differ). Total: `b + g − 2 ≈ 2√d` rotations instead
//! of `d − 1`. The rotation keys this reads — and therefore the whole key
//! set a client generates and a server admits — are [`key_plan`], defined
//! here beside the split it follows.
//!
//! Noise shape: whatever noise a baby rotation's output carries passes
//! through the subsequent plaintext multiplication (amplification
//! ≈ `√(n·d)·t`), which is why diagonals are encoded **centered**
//! (coefficients in `(−t/2, t/2]`, halving the amplification). What the
//! baby key switch itself adds is
//! [`crate::BfvParams::key_switch_noise_bits`] ≈ 3.9 bits rms at
//! `n = 4096`, nearly all of it the rounding of the division by the
//! special prime: under the fresh-encryption term it joins when the input
//! is a public-key encryption (`√(4 + 16n/3)`, ≈ 7.2 bits — there the
//! hoisted path ends level with the naive chain, `tests/noise_probe.rs`),
//! and the larger of the two when it is the protocol's seeded symmetric
//! upload (σ = 2), where the worst `tiny_cnn` / `tiny_resnet` response
//! keeps 8–9 bits at the client's decrypt (9–10 on the `n = 2048` test
//! ring, which `tests/end_to_end.rs` gauges). Giant-step noise only adds,
//! and its rounding part is paid once.
//!
//! # Naive chain (the differential oracle)
//!
//! [`matvec_naive`] keeps the original rotate-after-multiply Horner
//! formulation `W·v = Σ_k rot(v ⊙ rot⁻¹(diag_k, k), k)` (one composed
//! rotation per diagonal, key-switch noise never amplified). It runs under
//! the power-of-two composition keys of [`crate::KeySet::generate`] and
//! serves as the correctness oracle for the BSGS path in
//! `tests/matvec_differential.rs` and as the bench baseline.

use crate::cipher::{Ciphertext, Plaintext};
use crate::encoder::BatchEncoder;
use crate::keys::{rotation_element, ExtPair, GaloisKeys, Lifted};
use crate::params::BfvParams;
use pi_field::Modulus;
use pi_poly::Poly;

/// A dense matrix over `Z_t`, stored row-major, padded internally to a
/// power-of-two dimension for the diagonal method.
#[derive(Clone, Debug)]
pub struct PlainMatrix {
    rows: usize,
    cols: usize,
    /// Padded square dimension (power of two, >= max(rows, cols)).
    dim: usize,
    /// Row-major padded data, `dim x dim`.
    data: Vec<u64>,
}

impl PlainMatrix {
    /// Builds a matrix from row-major data, validating entries against `t`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or any entry is `>= t`.
    pub fn new(rows: usize, cols: usize, data: &[u64], t: Modulus) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        assert!(
            data.iter().all(|&x| x < t.value()),
            "matrix entries must be reduced mod t"
        );
        let dim = rows.max(cols).next_power_of_two();
        let mut padded = vec![0u64; dim * dim];
        for r in 0..rows {
            padded[r * dim..r * dim + cols].copy_from_slice(&data[r * cols..(r + 1) * cols]);
        }
        Self {
            rows,
            cols,
            dim,
            data: padded,
        }
    }

    /// Number of (logical) rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of (logical) columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The padded power-of-two dimension the encrypted kernel works at.
    pub fn padded_dim(&self) -> usize {
        self.dim
    }

    /// Plaintext matrix-vector product mod `t`: the reference the encrypted
    /// kernels are tested against.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec_plain(&self, v: &[u64], t: Modulus) -> Vec<u64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        // Reduce the vector once up front instead of per matrix element, and
        // fuse each step's multiply and add into one Barrett reduction.
        let v_red: Vec<u64> = v.iter().map(|&x| t.reduce(x)).collect();
        (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.dim..r * self.dim + self.cols];
                let mut acc = 0u64;
                for (&w, &x) in row.iter().zip(&v_red) {
                    acc = t.mul_add(w, x, acc);
                }
                acc
            })
            .collect()
    }

    /// The `k`-th generalized diagonal, pre-rotated right by `k` so that the
    /// encrypted kernel can rotate after multiplying:
    /// `p_k[i] = W[(i − k) mod d][i]`.
    fn shifted_diagonal(&self, k: usize) -> Vec<u64> {
        let d = self.dim;
        (0..d)
            .map(|i| self.data[((i + d - k) % d) * d + i])
            .collect()
    }

    /// The BSGS-layout diagonal for baby index `i` and giant offset `jb`:
    /// `p[s] = W[(s − jb) mod d][(s + i) mod d]` — diagonal `jb + i`
    /// pre-rotated right by the giant offset so the giant rotation can be
    /// applied after the inner multiply-accumulate.
    fn bsgs_diagonal(&self, jb: usize, i: usize) -> Vec<u64> {
        let d = self.dim;
        (0..d)
            .map(|s| self.data[((s + d - jb) % d) * d + (s + i) % d])
            .collect()
    }
}

/// The baby-step/giant-step split for a padded dimension: `b = ⌈√dim⌉`
/// baby steps and `g = ⌈dim/b⌉` giant steps.
pub fn bsgs_plan(dim: usize) -> (usize, usize) {
    assert!(dim >= 1, "dimension must be positive");
    let mut b = (dim as f64).sqrt() as usize;
    while b * b < dim {
        b += 1;
    }
    (b, dim.div_ceil(b))
}

/// The rotation-key set of a model whose linear layers have the given
/// padded dimensions: the Galois element of every key
/// [`matvec_precomputed_many`] reads at one of them — per dimension the
/// baby rotations `1..b` and the giant rotations `b·j` for `j` in `1..g`;
/// rotation 0 needs no key. Sorted ascending, each element once: a
/// rotation that is a baby at one dimension and a giant at another is one
/// element with one key.
///
/// This is the one definition of the set. Key generation
/// ([`crate::KeySet::generate_for_dims`]) emits exactly this list in this
/// order, a server admits an upload only if its entries equal it, and both
/// parties key their caches by it.
pub fn key_plan(params: &BfvParams, dims: &[usize]) -> Vec<usize> {
    let n = params.n();
    let mut plan = Vec::new();
    for &dim in dims {
        let (b, g) = bsgs_plan(dim);
        let baby = 1..b.min(dim);
        let giant = (1..g).map(|j| j * b);
        plan.extend(baby.chain(giant).map(|k| rotation_element(n, k)));
    }
    plan.sort_unstable();
    plan.dedup();
    plan
}

/// A matrix's Halevi–Shoup diagonals, encoded and precomputed as Shoup-form
/// multiplication operands.
///
/// Encoding a diagonal costs an inverse NTT (in the plaintext field) plus a
/// forward NTT and Shoup precomputation (in the ciphertext ring); in the
/// DELPHI offline phase the same weight matrix serves every client and every
/// query, so this work is done once via [`encode_diagonals`] and reused by
/// [`matvec_precomputed`].
#[derive(Clone, Debug)]
pub struct EncodedDiagonals {
    dim: usize,
    /// `ops[k]` is the encoded, pre-rotated diagonal `p_k` as an operand.
    ops: Vec<crate::cipher::PlainOperand>,
}

impl EncodedDiagonals {
    /// The padded dimension (number of diagonals).
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Encodes all shifted diagonals of `w` and precomputes their Shoup
/// operands for [`matvec_naive`].
///
/// # Panics
///
/// Panics if the padded dimension exceeds the encoder row size.
pub fn encode_diagonals(enc: &BatchEncoder, w: &PlainMatrix) -> EncodedDiagonals {
    let d = w.dim;
    assert!(
        d <= enc.row_size(),
        "matrix dimension {d} exceeds slot row size {}",
        enc.row_size()
    );
    let ops = (0..d)
        .map(|k| {
            enc.encode_periodic_centered(&w.shifted_diagonal(k))
                .to_operand()
        })
        .collect();
    EncodedDiagonals { dim: d, ops }
}

/// A matrix's diagonals pre-rotated into the baby-step/giant-step layout
/// (`ops[j·b + i]` holds `p_{j,i}`, centered and Shoup-precomputed) — the
/// per-model precomputation behind [`matvec_precomputed`].
#[derive(Clone, Debug)]
pub struct BsgsDiagonals {
    dim: usize,
    baby: usize,
    giant: usize,
    /// `ops[k]` with `k = j·baby + i` is the encoded `p_{j,i}`.
    ops: Vec<crate::cipher::PlainOperand>,
}

impl BsgsDiagonals {
    /// The padded dimension (number of diagonals).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The baby-step count `b = ⌈√dim⌉`.
    pub fn baby(&self) -> usize {
        self.baby
    }

    /// The giant-step count `g = ⌈dim/b⌉`.
    pub fn giant(&self) -> usize {
        self.giant
    }
}

/// Encodes the diagonals of `w` in the baby-step/giant-step layout for
/// [`matvec_precomputed`]: diagonal `j·b + i` pre-rotated right by the
/// giant offset `j·b`, encoded centered, with Shoup operands precomputed.
/// One encoding serves every client and every query of the same matrix.
///
/// # Panics
///
/// Panics if the padded dimension exceeds the encoder row size.
pub fn encode_diagonals_bsgs(enc: &BatchEncoder, w: &PlainMatrix) -> BsgsDiagonals {
    let d = w.dim;
    assert!(
        d <= enc.row_size(),
        "matrix dimension {d} exceeds slot row size {}",
        enc.row_size()
    );
    let (b, g) = bsgs_plan(d);
    let ops = (0..d)
        .map(|k| {
            let (j, i) = (k / b, k % b);
            enc.encode_periodic_centered(&w.bsgs_diagonal(j * b, i))
                .to_operand()
        })
        .collect();
    BsgsDiagonals {
        dim: d,
        baby: b,
        giant: g,
        ops,
    }
}

/// Computes `E(W · v)` from `E(v)` with the hoisted baby-step/giant-step
/// algorithm — the offline-phase hot path, and the one-job call of
/// [`matvec_precomputed_many`] (see the module docs for the decomposition
/// and noise shape).
///
/// # Panics
///
/// Panics under the same conditions as [`matvec_precomputed_many`].
pub fn matvec_precomputed(gk: &GaloisKeys, w: &BsgsDiagonals, ct_v: &Ciphertext) -> Ciphertext {
    let mut prods = matvec_precomputed_many(&[(gk, ct_v)], w);
    prods.pop().expect("one job in, one product out")
}

/// Computes `E(W · vᶜ)` for a batch of independent clients sharing the same
/// matrix with the hoisted baby-step/giant-step algorithm — one job is the
/// plain matvec, several are the serving runtime's cross-request fusion.
///
/// Each job carries its own Galois keys (clients never share key material)
/// and input ciphertext, but all jobs multiply against the **same**
/// [`BsgsDiagonals`]: the loop nest walks each pre-rotated diagonal operand
/// once per giant group and applies it to every client's baby rotation
/// before moving to the next, so the large shared operands stream through
/// cache once instead of once per request.
///
/// Per client: `v` is hoisted once; the `b − 1` baby rotations come from
/// the hoisted lift, in step order; each of the `g − 1` giant steps is one
/// in-order multiply-accumulate sweep over pre-rotated diagonals plus one
/// fused key switch accumulating into the result and the extended-basis
/// pair that is divided by the special prime once, after the last;
/// everything runs in the lazy `[0, 2q)` evaluation domain with a single
/// final correction. Batching is a scheduling change, never a semantic
/// one: a job's result is bit-identical whatever shares its batch.
///
/// # Panics
///
/// Panics if a job's Galois keys lack an entry of [`key_plan`] for
/// `w.dim()` (a caller bug: generate them with
/// [`crate::keys::KeySet::generate_for_dims`]; a server admits no other
/// set), or if the keys and ciphertext come from different parameter sets.
pub fn matvec_precomputed_many(
    jobs: &[(&GaloisKeys, &Ciphertext)],
    w: &BsgsDiagonals,
) -> Vec<Ciphertext> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let params = jobs[0].0.params();
    let ring = params.ring();
    let ntt = ring.ntt();
    let q = params.q();
    let n = params.n();
    let (d, b) = (w.dim, w.baby);
    // The diagonal operands must live in the keys' ring: the dyadic kernels
    // below only length-check raw slices, so a same-degree/different-modulus
    // precomputation would otherwise silently corrupt the result.
    let op_ctx = w.ops[0].op.ctx();
    assert!(
        op_ctx.n() == n && op_ctx.q() == q,
        "diagonal operands' ring (n={}, q={}) does not match the Galois keys' ring (n={n}, q={q})",
        op_ctx.n(),
        op_ctx.q()
    );
    if d == 1 {
        return jobs
            .iter()
            .map(|(_, ct)| ct.mul_plain_operand(&w.ops[0]))
            .collect();
    }
    // Per-client key-switch scratch: the extended-basis pair (its `P` half
    // serves each baby rotation, the whole of it the giants) and the lift
    // of each giant step's inner sum.
    let mut scratch: Vec<(ExtPair, Lifted)> = jobs
        .iter()
        .map(|_| (ExtPair::zeros(n), Lifted::zeros(n)))
        .collect();
    // Per-client hoist + baby rotations of v, kept lazy in [0, 2q)
    // evaluation form, in client order (rotations touch only that client's
    // keys and ciphertext, so there is nothing to share).
    let baby_count = b.min(d);
    let babies: Vec<Vec<(Vec<u64>, Vec<u64>)>> = jobs
        .iter()
        .zip(&mut scratch)
        .map(|((gk, ct_v), (ext, _))| {
            let hoisted = gk.hoist(ct_v);
            (0..baby_count)
                .map(|i| {
                    let mut c0 = vec![0u64; n];
                    let mut c1 = vec![0u64; n];
                    gk.rotate_hoisted_lazy(&hoisted, i, &mut c0, &mut c1, &mut ext.p)
                        .unwrap_or_else(|e| panic!("{e}"));
                    (c0, c1)
                })
                .collect()
        })
        .collect();
    for (ext, _) in &mut scratch {
        ext.clear();
    }
    let mut accs: Vec<(Vec<u64>, Vec<u64>)> = jobs
        .iter()
        .map(|_| (vec![0u64; n], vec![0u64; n]))
        .collect();
    let mut inners: Vec<(Vec<u64>, Vec<u64>)> = jobs
        .iter()
        .map(|_| (vec![0u64; n], vec![0u64; n]))
        .collect();
    for j in 0..w.giant {
        let lo = j * b;
        if lo >= d {
            break;
        }
        let count = b.min(d - lo);
        if j > 0 {
            for inner in inners.iter_mut() {
                inner.0.fill(0);
                inner.1.fill(0);
            }
        }
        // Giant group j accumulates Σ_i p_{j,i} ⊙ rot_i(v) lazily; group 0
        // lands directly in the result accumulator (identity rotation).
        // Operand-outer, client-inner: the shared diagonal op streams once.
        for (i, op) in w.ops[lo..lo + count].iter().enumerate() {
            for (c, client_babies) in babies.iter().enumerate() {
                let (t0, t1) = if j == 0 {
                    let acc = &mut accs[c];
                    (&mut acc.0, &mut acc.1)
                } else {
                    let inner = &mut inners[c];
                    (&mut inner.0, &mut inner.1)
                };
                let baby = &client_babies[i];
                ntt.dyadic_mul_acc_shoup(t0, &baby.0, op.op.shoup());
                ntt.dyadic_mul_acc_shoup(t1, &baby.1, op.op.shoup());
            }
        }
        if j > 0 {
            for (c, (gk, _)) in jobs.iter().enumerate() {
                let (inner0, inner1) = &mut inners[c];
                let (ext, lifted) = &mut scratch[c];
                gk.rotate_acc_lazy(lo, inner0, inner1, &mut accs[c].0, lifted, ext)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
    accs.into_iter()
        .zip(jobs.iter().zip(&mut scratch))
        .map(|((mut acc0, mut acc1), ((gk, _), (ext, _)))| {
            if b < d {
                gk.settle(ext, &mut acc0, &mut acc1);
            }
            for x in acc0.iter_mut().chain(acc1.iter_mut()) {
                *x = q.reduce_lazy(*x);
            }
            Ciphertext {
                c0: Poly::from_ntt_data(ring.clone(), acc0),
                c1: Poly::from_ntt_data(ring.clone(), acc1),
            }
        })
        .collect()
}

/// Computes `E(W · v)` from `E(v)` with the original rotate-after-multiply
/// Horner chain — one composed rotation per diagonal. Slower than
/// [`matvec_precomputed`] by ~`√d/2`× but never amplifies key-switch noise:
/// the differential oracle and benchmark baseline for the BSGS path.
///
/// # Panics
///
/// Panics if `gk` lacks the rotation-by-one key (an oracle `.expect`s its
/// keys: use [`crate::KeySet::generate`]).
pub fn matvec_naive(gk: &GaloisKeys, w: &EncodedDiagonals, ct_v: &Ciphertext) -> Ciphertext {
    // Horner-style chain over diagonals k = d-1 .. 0:
    //   acc <- rot(acc, 1) + v ⊙ p_k
    // yielding acc = Σ_k rot(v ⊙ p_k, k) = W·v.
    let mut acc: Option<Ciphertext> = None;
    for op in w.ops.iter().rev() {
        let term = ct_v.mul_plain_operand(op);
        acc = Some(match acc {
            None => term,
            Some(prev) => {
                let rotated = gk.rotate_rows(&prev, 1);
                rotated.expect("oracle key set").add(&term)
            }
        });
    }
    acc.expect("dimension is at least 1")
}

/// Computes `E(W · v)` from `E(v)`.
///
/// The input ciphertext must hold `v` encoded periodically with period
/// `W.padded_dim()` (see [`BatchEncoder::encode_periodic`]); the result holds
/// `W·v` (padded with zero rows) in the same periodic layout, so
/// `decode_prefix(…, W.rows())` extracts the product.
///
/// Encodes and precomputes the diagonals on every call, then runs the
/// naive Horner chain — a convenience for one-shot products under a plain
/// power-of-two key set. When the same matrix is applied repeatedly, use
/// [`encode_diagonals_bsgs`] + [`matvec_precomputed`] (hot path) or
/// [`encode_diagonals`] + [`matvec_naive`] (oracle).
///
/// # Panics
///
/// Panics if the padded dimension exceeds the encoder row size, or as
/// [`matvec_naive`] does.
pub fn matvec(
    gk: &GaloisKeys,
    enc: &BatchEncoder,
    w: &PlainMatrix,
    ct_v: &Ciphertext,
) -> Ciphertext {
    matvec_naive(gk, &encode_diagonals(enc, w), ct_v)
}

/// Counts the homomorphic operations a `dim × dim` diagonal matvec
/// performs, distinguishing cheap hoisted rotations (slot gathers + dyadic
/// accumulates, no NTTs) from full key switches (gadget decompose + digit
/// NTT batch). Feeds the cost model in `pi-sim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatvecOpCount {
    /// Plaintext multiplications (one per diagonal).
    pub pt_muls: usize,
    /// Hoisted rotations: amortized against one shared decomposition.
    pub hoisted_rotations: usize,
    /// Full key switches (cold rotations: decompose + digit NTTs).
    pub key_switches: usize,
    /// Ciphertext additions.
    pub additions: usize,
}

impl MatvecOpCount {
    /// Total rotations of either kind.
    pub fn rotations(&self) -> usize {
        self.hoisted_rotations + self.key_switches
    }
}

/// Operation count of the hoisted-BSGS [`matvec_precomputed`] at a padded
/// dimension: `⌈√d⌉ − 1` hoisted baby rotations and `⌈d/⌈√d⌉⌉ − 1` giant
/// key switches instead of the naive `d − 1` full switches.
pub fn matvec_op_count(dim: usize) -> MatvecOpCount {
    let (b, g) = bsgs_plan(dim);
    MatvecOpCount {
        pt_muls: dim,
        hoisted_rotations: b.min(dim).saturating_sub(1),
        key_switches: g.saturating_sub(1),
        additions: dim.saturating_sub(1),
    }
}

/// Operation count of the naive Horner chain ([`matvec_naive`]): one full
/// key switch per diagonal.
pub fn matvec_op_count_naive(dim: usize) -> MatvecOpCount {
    MatvecOpCount {
        pt_muls: dim,
        hoisted_rotations: 0,
        key_switches: dim.saturating_sub(1),
        additions: dim.saturating_sub(1),
    }
}

/// Encrypts a vector for [`matvec`]: encodes periodically at the matrix's
/// padded dimension (zero-padding the tail) and encrypts.
///
/// # Panics
///
/// Panics if `v.len() > w.cols()`.
pub fn encrypt_vector<R: rand::Rng + ?Sized>(
    pk: &crate::keys::PublicKey,
    enc: &BatchEncoder,
    w: &PlainMatrix,
    v: &[u64],
    rng: &mut R,
) -> Ciphertext {
    assert!(v.len() <= w.cols(), "vector longer than matrix columns");
    let mut padded = v.to_vec();
    padded.resize(w.padded_dim(), 0);
    pk.encrypt(&enc.encode_periodic(&padded), rng)
}

/// Subtracts a plaintext share vector `s` (periodic layout) from an
/// encrypted matvec result: the DELPHI offline step `E(W·r) − s`.
pub fn sub_share(
    params: &BfvParams,
    enc: &BatchEncoder,
    ct: &Ciphertext,
    s: &[u64],
    dim: usize,
) -> Ciphertext {
    let mut padded = s.to_vec();
    padded.resize(dim, 0);
    let pt: Plaintext = enc.encode_periodic(&padded);
    ct.sub_plain(&pt, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeySet;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (BfvParams, KeySet, BatchEncoder, rand::rngs::StdRng) {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let keys = KeySet::generate(&params, &mut rng);
        let enc = BatchEncoder::new(&params);
        (params, keys, enc, rng)
    }

    fn random_matrix(
        rows: usize,
        cols: usize,
        max: u64,
        t: Modulus,
        rng: &mut impl Rng,
    ) -> PlainMatrix {
        let data: Vec<u64> = (0..rows * cols).map(|_| rng.gen_range(0..max)).collect();
        PlainMatrix::new(rows, cols, &data, t)
    }

    #[test]
    fn plain_matvec_identity() {
        let t = Modulus::new(97);
        let eye = PlainMatrix::new(3, 3, &[1, 0, 0, 0, 1, 0, 0, 0, 1], t);
        assert_eq!(eye.matvec_plain(&[5, 6, 7], t), vec![5, 6, 7]);
    }

    #[test]
    fn plain_matvec_rectangular() {
        let t = Modulus::new(97);
        let w = PlainMatrix::new(2, 3, &[1, 2, 3, 4, 5, 6], t);
        // [1 2 3; 4 5 6] * [1, 1, 1] = [6, 15]
        assert_eq!(w.matvec_plain(&[1, 1, 1], t), vec![6, 15]);
        assert_eq!(w.padded_dim(), 4);
    }

    #[test]
    fn encrypted_matvec_small_square() {
        let (params, keys, enc, mut rng) = setup(7);
        let t = params.t();
        let w = random_matrix(8, 8, 256, t, &mut rng);
        let v: Vec<u64> = (0..8).map(|_| rng.gen_range(0..256)).collect();
        let expect = w.matvec_plain(&v, t);

        let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
        let out = matvec(&keys.galois, &enc, &w, &ct);
        assert!(keys.secret.noise_budget(&out) > 0, "noise exhausted");
        let got = enc.decode_prefix(&keys.secret.decrypt(&out), 8);
        assert_eq!(got, expect);
    }

    #[test]
    fn encrypted_matvec_rectangular_pads() {
        let (params, keys, enc, mut rng) = setup(8);
        let t = params.t();
        let w = random_matrix(5, 12, 64, t, &mut rng);
        assert_eq!(w.padded_dim(), 16);
        let v: Vec<u64> = (0..12).map(|_| rng.gen_range(0..64)).collect();
        let expect = w.matvec_plain(&v, t);
        let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
        let out = matvec(&keys.galois, &enc, &w, &ct);
        let got = enc.decode_prefix(&keys.secret.decrypt(&out), 5);
        assert_eq!(got, expect);
    }

    #[test]
    fn encrypted_matvec_dim_64_with_field_entries() {
        let (params, keys, enc, mut rng) = setup(9);
        let t = params.t();
        // Full-range Z_t entries at a realistic layer dimension.
        let w = random_matrix(64, 64, t.value(), t, &mut rng);
        let v: Vec<u64> = (0..64).map(|_| rng.gen_range(0..t.value())).collect();
        let expect = w.matvec_plain(&v, t);
        let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
        let out = matvec(&keys.galois, &enc, &w, &ct);
        assert!(keys.secret.noise_budget(&out) > 0);
        let got = enc.decode_prefix(&keys.secret.decrypt(&out), 64);
        assert_eq!(got, expect);
    }

    #[test]
    fn precomputed_bsgs_matvec_matches_and_reuses() {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let keys = KeySet::generate_for_dims(&params, &[16], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        let w = random_matrix(16, 16, t.value(), t, &mut rng);
        let diag = encode_diagonals_bsgs(&enc, &w);
        assert_eq!(diag.dim(), 16);
        assert_eq!((diag.baby(), diag.giant()), (4, 4));
        // One precomputation serves many client vectors.
        for _ in 0..3 {
            let v: Vec<u64> = (0..16).map(|_| rng.gen_range(0..t.value())).collect();
            let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
            let out = matvec_precomputed(&keys.galois, &diag, &ct);
            assert!(keys.secret.noise_budget(&out) > 0, "noise exhausted");
            let got = enc.decode_prefix(&keys.secret.decrypt(&out), 16);
            assert_eq!(got, w.matvec_plain(&v, t));
        }
    }

    #[test]
    fn bsgs_matches_naive_oracle() {
        // The BSGS path and the Horner oracle, each under the key set it
        // runs with, must decrypt to the same plaintext, including at
        // non-power-of-two logical shapes and dim 1/2 edges.
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let chain = KeySet::generate(&params, &mut rng);
        let keys = KeySet::generate_for_dims(&params, &[1, 2, 8, 16], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        for (rows, cols) in [(1, 1), (2, 2), (5, 7), (16, 16)] {
            let w = random_matrix(rows, cols, t.value(), t, &mut rng);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
            let ct = encrypt_vector(&chain.public, &enc, &w, &v, &mut rng);
            let naive = matvec_naive(&chain.galois, &encode_diagonals(&enc, &w), &ct);
            let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
            let bsgs = matvec_precomputed(&keys.galois, &encode_diagonals_bsgs(&enc, &w), &ct);
            assert_eq!(
                chain.secret.decrypt(&naive),
                keys.secret.decrypt(&bsgs),
                "naive and BSGS decryptions differ at {rows}x{cols}"
            );
            let got = enc.decode_prefix(&keys.secret.decrypt(&bsgs), rows);
            assert_eq!(got, w.matvec_plain(&v, t));
        }
    }

    #[test]
    fn bsgs_plan_shapes() {
        assert_eq!(bsgs_plan(1), (1, 1));
        assert_eq!(bsgs_plan(2), (2, 1));
        assert_eq!(bsgs_plan(7), (3, 3));
        assert_eq!(bsgs_plan(64), (8, 8));
        assert_eq!(bsgs_plan(100), (10, 10));
        assert_eq!(bsgs_plan(128), (12, 11));
        // Key plan: babies 1..b and giants b·j, one key an element; never
        // rotation 0.
        let params = BfvParams::small_test();
        let n = params.n();
        let elements = |steps: &[usize]| {
            let mut plan: Vec<usize> = steps.iter().map(|&k| rotation_element(n, k)).collect();
            plan.sort_unstable();
            plan
        };
        let at_128: Vec<usize> = (1..12).chain((1..11).map(|j| 12 * j)).collect();
        assert_eq!(key_plan(&params, &[128]), elements(&at_128));
        assert!(key_plan(&params, &[1]).is_empty());
        assert_eq!(key_plan(&params, &[2]), [3]);
        // Rotation 4 is a giant at 16 and a baby at 128, 8 likewise, giant
        // 12 is shared: one key each; a dimension named twice adds nothing.
        assert_eq!(key_plan(&params, &[128, 16, 16]), elements(&at_128));
    }

    #[test]
    fn delphi_offline_share_correctness() {
        // The actual DELPHI offline identity: client decrypts E(W·r − s) and
        // client_share + server-online computation reconstructs W·x.
        let (params, keys, enc, mut rng) = setup(10);
        let t = params.t();
        let w = random_matrix(16, 16, t.value(), t, &mut rng);
        let r: Vec<u64> = (0..16).map(|_| rng.gen_range(0..t.value())).collect();
        let s: Vec<u64> = (0..16).map(|_| rng.gen_range(0..t.value())).collect();

        let ct_r = encrypt_vector(&keys.public, &enc, &w, &r, &mut rng);
        let ct_wr = matvec(&keys.galois, &enc, &w, &ct_r);
        let ct_share = sub_share(&params, &enc, &ct_wr, &s, w.padded_dim());
        let client_share = enc.decode_prefix(&keys.secret.decrypt(&ct_share), 16);

        // client_share + s == W·r
        let wr = w.matvec_plain(&r, t);
        for i in 0..16 {
            assert_eq!(t.add(client_share[i], s[i]), wr[i]);
        }
    }

    #[test]
    fn op_count_formula() {
        // BSGS: 63 full switches collapse to 7 hoisted + 7 cold at d=64.
        let c = matvec_op_count(64);
        assert_eq!(c.pt_muls, 64);
        assert_eq!(c.hoisted_rotations, 7);
        assert_eq!(c.key_switches, 7);
        assert_eq!(c.rotations(), 14);
        assert_eq!(c.additions, 63);
        assert_eq!(matvec_op_count(1).rotations(), 0);
        assert_eq!(matvec_op_count(128).rotations(), 11 + 10);
        // The naive chain keeps the old shape.
        let naive = matvec_op_count_naive(64);
        assert_eq!(naive.key_switches, 63);
        assert_eq!(naive.hoisted_rotations, 0);
        assert_eq!(naive.rotations(), 63);
    }

    #[test]
    #[should_panic]
    fn oversized_matrix_rejected() {
        let (params, keys, enc, mut rng) = setup(11);
        let t = params.t();
        let d = enc.row_size() * 2;
        let w = PlainMatrix::new(d, d, &vec![0u64; d * d], t);
        let ct = keys.public.encrypt_zero(&mut rng);
        matvec(&keys.galois, &enc, &w, &ct);
    }
}
