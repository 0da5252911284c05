//! Encrypted linear algebra: the Gazelle/DELPHI offline workhorse.
//!
//! The server holds a plaintext matrix `W` (one linear phase of the model,
//! convolutions included, lowered to a dense matrix by the caller) and an
//! encryption of the client's random vector `r`. It computes `E(W·r)` with
//! the Halevi–Shoup diagonal method over SIMD slots, then subtracts its own
//! random share `s` to produce `E(W·r − s)` — the client's additive share
//! of the layer.
//!
//! # Layout: replicated diagonals (the hot path)
//!
//! The `N` slots form two rows of `N/2`; a rotation by `k` moves every row
//! left by `k`, the row swap (Galois element `2N − 1`) exchanges them. A
//! phase of padded dimension `d` cuts the slots into `N/d` blocks of `d`.
//! Following Gazelle's replicated packing (Juvekar et al., USENIX Security
//! 2018), the blocks are `c` **replicas** that split the `d` diagonals
//! between them, `m = d/c` each:
//!
//! * **Input** ([`encode_input`]): block `ρ` holds `r` rotated left by
//!   `(ρ mod c)·m` — written by the client in cleartext, for free.
//! * **In-replica steps**: `y = Σ_{k<m} P_k ⊙ rot_k(x)`, where slot `s` of
//!   the packed diagonal `P_k` is `W[s mod d][col]` for whichever column
//!   `col` of `r` the rotation by `k` lands in slot `s`. A row rotation
//!   carries the head of block `ρ + 1` into the tail of block `ρ` — the
//!   next replica's pre-rotation, not this one's — so the packed diagonals
//!   are derived slot by slot from the input layout, never from a
//!   per-replica formula, and a cleartext slot simulation of the whole
//!   schedule checks them against [`PlainMatrix::matvec_plain`]. Over any
//!   `c` consecutive blocks each column of row `s mod d` is read exactly
//!   once.
//! * **Rotate-and-sum**: `y += rot(y, d)`, `rot(y, 2d)`, … inside a row
//!   while the span stays below `min(c·d, N/2)`, then `y += swap(y)` when the
//!   replicas span both rows (`c·d > N/2`): `log₂ c` key switches. Afterwards
//!   **every** slot `s` holds `(W·r)[s mod d]` — the periodic layout the
//!   naive oracle produces, [`sub_share`] subtracts in and `decode_prefix`
//!   reads.
//!
//! `c = min(N/d, d)`, a pure function of the ring and the dimension: once
//! `d² ≥ N` every slot works on a different product term, and below that
//! each replica multiplies one diagonal (`m = 1`) and the spare blocks
//! repeat the pattern. `c = 1` only at `d = 1`. The in-replica steps run as
//! a hoisted baby-step/giant-step over `m` ([`bsgs_plan`]): `b = ⌈√m⌉`
//! baby steps and `g = ⌈m/b⌉` giants,
//!
//! ```text
//! y = Σ_j rot_{jb}( Σ_i  p_{j,i} ⊙ rot_i(x) ),   p_{j,i} = rot_{−jb}(P_{jb+i})
//! ```
//!
//! The `b − 1` baby rotations all come from **one** hoisted lift of `x`
//! ([`GaloisKeys::hoist`]; no lift at all when `b = 1`): `c1` is split into
//! its key-switch digits and forward-NTT'd once, and each baby rotation is
//! slot gathers and dyadic key accumulates — **no** division by the special
//! prime `P`. A baby stays in the extended basis `q·P` as `P·rot_i(x)` plus
//! the keys' error, and its products run there, against packed operands
//! that carry a `P` residue ([`BsgsDiagonals`], encoded once per matrix);
//! the identity step multiplies `x` under `q` alone. Each giant group's sum
//! is divided by `P` once and rotated by one fused key switch that
//! accumulates in the extended basis, where group 0's baby products already
//! are; all of it is divided once at the end (see [`crate::keys`]). Each
//! rotate-and-sum step is one fused key switch and its own division. At
//! `n = 4096`, `d = 128`: 4 plaintext products and 7 rotations (1 baby,
//! 1 giant, 4 in-row sum steps and the row swap) where the one-replica BSGS
//! did 128 and 21 ([`matvec_op_count`]). The rotation keys this reads — and
//! therefore the whole key set a client generates and a server admits —
//! are [`key_plan`], defined here beside the schedule it follows.
//!
//! # Noise
//!
//! Each in-replica term is an input's noise times a plaintext operand
//! (amplification ≈ `√(n·m)·t`), which is why the packed diagonals are
//! encoded **centered** (coefficients in `(−t/2, t/2]`, halving the
//! amplification). What a key switch adds is
//! [`crate::BfvParams::key_switch_noise_bits`] ≈ 3.9 bits rms at
//! `n = 4096`, nearly all of it the rounding of the division by `P` — above
//! the protocol upload's fresh noise, which is why a baby is multiplied
//! before it is divided: its own error is the keys' error over `P`, under
//! one unit, and the roundings are paid after the products (one per
//! giant group, one at the end, one per sum step), never amplified. The
//! rotate-and-sum then adds `c` rotated copies of **one** noise polynomial:
//! at most coefficients the automorphisms scatter the terms (≈ `√c`), but
//! at those they fix — indices divisible by a high power of two — the
//! copies add coherently (up to `c`), so the fresh noise of the upload
//! sets the margin. On the protocol's seeded symmetric upload the decrypt
//! keeps 8–9 bits at every zoo dimension on `n = 4096` (the one-replica
//! BSGS kept 8–9). A public-key encryption carries ≈ 6 more bits of fresh
//! noise, so the same coherent sum leaves it 2 bits at `n = 4096` (3 at
//! `n = 2048`), up to 5 bits under the naive chain and under the 5–9 the
//! one-replica BSGS kept on such an input. That loss is the price of the
//! layout and is accepted: the protocol only ever uploads seeded symmetric
//! encryptions. `tests/noise_probe.rs` records the margins per dimension and
//! ring and holds each at its measured floor, and `tests/end_to_end.rs`
//! gauges the protocol's decrypt on the `n = 2048` test ring.
//!
//! # Why the response leaks nothing more than `W·r`
//!
//! A replica's `y` is a partial sum over `m` of the `d` columns; a client
//! that knows `r` would learn weights from it. The rotate-and-sum adds all
//! `c` replicas before anything leaves the server, so every slot of the
//! response is a complete row product, the same in every replica — the
//! very plaintext the one-replica layout returned. `tests/end_to_end.rs`
//! decrypts all `N` slots of real protocol responses to check it.
//!
//! # Naive chain (the differential oracle)
//!
//! [`matvec_naive`] keeps the original rotate-after-multiply Horner
//! formulation `W·v = Σ_k rot(v ⊙ rot⁻¹(diag_k, k), k)` over a periodic
//! input (`v` zero-padded to `d` and repeated in every block by
//! [`BatchEncoder::encode_periodic`], then encrypted as the client encrypts,
//! [`crate::SecretKey::encrypt_seeded`]; one composed rotation per diagonal,
//! key-switch noise never amplified). It runs under
//! the power-of-two composition keys of [`crate::KeySet::generate`] and
//! serves as the correctness oracle for the replicated path in
//! `tests/matvec_differential.rs` — both paths decrypt to the same `N` slots
//! — and as the bench baseline.

use crate::cipher::{Ciphertext, PlainOperand, Plaintext};
use crate::encoder::BatchEncoder;
use crate::keys::{mod_down, reembed, rotation_element, ExtPair, GaloisKeys, Lifted};
use crate::params::BfvParams;
use pi_field::Modulus;
use pi_poly::{Poly, PolyOperand};

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
    /// naive kernel can rotate after multiplying:
    /// `p_k[i] = W[(i − k) mod d][i]`.
    fn shifted_diagonal(&self, k: usize) -> Vec<u64> {
        let d = self.dim;
        (0..d)
            .map(|i| self.data[((i + d - k) % d) * d + i])
            .collect()
    }

    /// The packed operand `p_{j,i}` for baby step `i` and giant offset `jb`,
    /// all `N` slots: `P_{jb+i}` pre-rotated right by `jb`, so slot `s`
    /// holds `W[row][col]` with `row` the output index the giant rotation
    /// moves `s` to and `col` the input column the baby rotation by `i`
    /// brings into `s` (module docs).
    fn packed_diagonal(&self, packing: &Packing, jb: usize, i: usize) -> Vec<u64> {
        let d = self.dim;
        let back = packing.n / 2 - jb;
        (0..packing.n)
            .map(|s| {
                let row = packing.source(s, back) % d;
                let col = packing.input_column(packing.source(s, i));
                self.data[row * d + col]
            })
            .collect()
    }
}

/// The baby-step/giant-step split of `steps` diagonal steps: `b = ⌈√steps⌉`
/// baby steps and `g = ⌈steps/b⌉` giant steps.
pub fn bsgs_plan(steps: usize) -> (usize, usize) {
    assert!(steps >= 1, "step count must be positive");
    let mut b = (steps as f64).sqrt() as usize;
    while b * b < steps {
        b += 1;
    }
    (b, steps.div_ceil(b))
}

/// How a linear phase of padded dimension `d` fills the `n` slots of one
/// ciphertext, and the rotation schedule that follows from it (module
/// docs): `c = min(n/d, d)` replicas of `m = d/c` diagonal steps each, a
/// [`bsgs_plan`] over `m` (`baby`, `giant`), and a rotate-and-sum across
/// the replicas. A pure function of `(n, d)`: the client's input layout,
/// the server's packed operands and kernel, [`key_plan`] and
/// [`matvec_op_count`] all read it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packing {
    n: usize,
    dim: usize,
    replicas: usize,
    baby: usize,
    giant: usize,
}

impl Packing {
    /// The packing of a `dim`-wide phase in a ring of degree `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `dim` is a power of two no larger than the row size
    /// `n/2`.
    fn new(n: usize, dim: usize) -> Self {
        assert!(
            dim.is_power_of_two() && dim <= n / 2,
            "matrix dimension {dim} is not a power of two within the slot row size {}",
            n / 2
        );
        let replicas = (n / dim).min(dim);
        let (baby, giant) = bsgs_plan(dim / replicas);
        Self {
            n,
            dim,
            replicas,
            baby,
            giant,
        }
    }

    /// The diagonal steps each replica takes, `m = d/c` — one packed
    /// operand and one plaintext product each.
    fn steps(&self) -> usize {
        self.dim / self.replicas
    }

    /// The in-row rotations of the rotate-and-sum, in order: `d, 2d, …`
    /// below `min(c·d, n/2)`.
    fn sum_rotations(&self) -> impl Iterator<Item = usize> {
        let span = (self.replicas * self.dim).min(self.n / 2);
        std::iter::successors(Some(self.dim), |&k| Some(2 * k)).take_while(move |&k| k < span)
    }

    /// Whether the replicas span both rows, so the rotate-and-sum ends with
    /// the row swap.
    fn swaps_rows(&self) -> bool {
        self.replicas * self.dim > self.n / 2
    }

    /// The column of the input vector the client writes into `slot`: block
    /// `ρ = slot / d` holds the input rotated left by `(ρ mod c)·m`.
    fn input_column(&self, slot: usize) -> usize {
        let (block, offset) = (slot / self.dim, slot % self.dim);
        (offset + (block % self.replicas) * self.steps()) % self.dim
    }

    /// The slot a left rotation by `k` moves into `slot` (within its row).
    fn source(&self, slot: usize, k: usize) -> usize {
        let row = self.n / 2;
        slot - slot % row + (slot % row + k) % row
    }

    /// The Galois elements of the rotate-and-sum, in order.
    fn sum_elements(&self) -> impl Iterator<Item = usize> {
        let n = self.n;
        let swap = self.swaps_rows().then_some(2 * n - 1);
        (self.sum_rotations().map(move |k| rotation_element(n, k))).chain(swap)
    }

    /// Every Galois element the matvec reads: babies `1..b`, giants `j·b`,
    /// then the rotate-and-sum.
    fn elements(&self) -> impl Iterator<Item = usize> {
        let (n, b) = (self.n, self.baby);
        let steps = (1..b).chain((1..self.giant).map(move |j| j * b));
        steps
            .map(move |k| rotation_element(n, k))
            .chain(self.sum_elements())
    }
}

/// The rotation-key set of a model whose linear layers have the given
/// padded dimensions: the Galois element of every key
/// [`matvec_precomputed`] reads at one of them — per dimension the
/// in-replica baby rotations `1..b` and giant rotations `b·j`, the
/// rotate-and-sum's rotations `d, 2d, …` and, where the replicas span both
/// rows, the row swap `2N − 1` (module docs); rotation 0 needs no key.
/// Sorted ascending, each element once: a rotation that plays several
/// roles, at one dimension or across several, is one element with one key.
///
/// This is the one definition of the set. Key generation
/// ([`crate::KeySet::generate_for_dims`]) emits exactly this list in this
/// order, a server admits an upload only if its entries equal it, and both
/// parties key their caches by it.
///
/// # Panics
///
/// Panics on a dimension that is not a power of two within the row size
/// `N/2`.
pub fn key_plan(params: &BfvParams, dims: &[usize]) -> Vec<usize> {
    let n = params.n();
    let mut plan: Vec<usize> = (dims.iter())
        .flat_map(|&dim| Packing::new(n, dim).elements())
        .collect();
    plan.sort_unstable();
    plan.dedup();
    plan
}

/// Encodes a phase input for [`matvec_precomputed`] in the replicated
/// layout of a `dim`-wide phase: `values` zero-padded to `dim`, block `ρ`
/// rotated left by `(ρ mod c)·m`.
///
/// # Panics
///
/// Panics if `values` is longer than `dim`, or unless `dim` is a power of
/// two within the row size.
pub fn encode_input(enc: &BatchEncoder, values: &[u64], dim: usize) -> Plaintext {
    assert!(values.len() <= dim, "input longer than the phase dimension");
    let packing = Packing::new(enc.slot_count(), dim);
    let slots: Vec<u64> = (0..enc.slot_count())
        .map(|s| values.get(packing.input_column(s)).copied().unwrap_or(0))
        .collect();
    enc.encode(&slots)
}

/// A matrix's Halevi–Shoup diagonals, encoded and precomputed as Shoup-form
/// multiplication operands for the naive oracle ([`matvec_naive`]).
#[derive(Clone, Debug)]
pub struct EncodedDiagonals {
    dim: usize,
    /// `ops[k]` is the encoded, pre-rotated diagonal `p_k` as an operand.
    ops: Vec<PlainOperand>,
}

impl EncodedDiagonals {
    /// The padded dimension (number of diagonals).
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Encodes all shifted diagonals of `w` (periodic layout) and precomputes
/// their Shoup operands for [`matvec_naive`].
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

/// One packed diagonal as Shoup operands: its `q` residue, and — for a step
/// whose baby rotation is not the identity, whose products run in the
/// extended basis `q·P` — its `P` residue (the same centered integer
/// polynomial, reduced modulo `P`).
#[derive(Clone, Debug)]
struct PackedOperand {
    q: PolyOperand,
    p: Option<PolyOperand>,
}

/// A matrix's packed diagonals in the replicated baby-step/giant-step
/// layout (`ops[j·b + i]` holds `p_{j,i}`, centered and Shoup-precomputed;
/// `m = d/c` of them) — the per-model precomputation behind
/// [`matvec_precomputed`].
#[derive(Clone, Debug)]
pub struct BsgsDiagonals {
    packing: Packing,
    /// `ops[k]` with `k = j·baby + i` is the encoded `p_{j,i}`.
    ops: Vec<PackedOperand>,
}

impl BsgsDiagonals {
    /// The padded dimension.
    pub fn dim(&self) -> usize {
        self.packing.dim
    }

    /// Heap bytes the operands occupy: per residue of an operand, `n`
    /// values and `n` Shoup quotients of 8 bytes.
    pub fn resident_byte_len(&self) -> usize {
        let residues: usize = self
            .ops
            .iter()
            .map(|op| 1 + usize::from(op.p.is_some()))
            .sum();
        residues * 16 * self.packing.n
    }
}

/// Encodes the packed diagonals of `w` for [`matvec_precomputed`]: for each
/// in-replica step `j·b + i`, the slot-by-slot operand of the module docs
/// pre-rotated right by the giant offset `j·b`, encoded centered, with
/// Shoup operands precomputed — under `q`, and under `P` too where the
/// step's baby rotation is not the identity. One encoding serves every
/// client and every query of the same matrix.
///
/// # Panics
///
/// Panics if the padded dimension exceeds the encoder row size.
pub fn encode_diagonals_bsgs(enc: &BatchEncoder, w: &PlainMatrix) -> BsgsDiagonals {
    let packing = Packing::new(enc.slot_count(), w.dim);
    let special = enc.params().special_ring();
    let b = packing.baby;
    let ops = (0..packing.steps())
        .map(|k| {
            let (j, i) = (k / b, k % b);
            let pt = enc.encode_centered(&w.packed_diagonal(&packing, j * b, i));
            let p = (i > 0).then(|| reembed(&pt.poly, special).to_operand());
            PackedOperand {
                q: pt.poly.to_operand(),
                p,
            }
        })
        .collect();
    BsgsDiagonals { packing, ops }
}

/// Computes `E(W · r)` from `E(r)` in the replicated layout — the
/// offline-phase hot path (see the module docs for the decomposition and
/// noise shape). The input is a phase input in the replicated layout
/// ([`encode_input`]); the output holds `(W·r)[s mod d]` in every slot `s`.
///
/// The input is hoisted once (only if there is a baby rotation to take) and
/// the `b − 1` baby rotations are taken from the lift without dividing by
/// the special prime; their products accumulate in the extended basis, the
/// identity step's under `q` alone. Each of the `g − 1` giant groups
/// divides its sum once and rotates it with one fused key switch that
/// accumulates, with group 0's extended-basis sum, into one pair divided
/// once after the last; then each rotate-and-sum step is one fused key
/// switch and its division. Everything runs in the lazy `[0, 2q)` /
/// `[0, 2P)` evaluation domains with a single final correction.
///
/// The input is the protocol's upload, a seeded symmetric encryption
/// ([`crate::SecretKey::encrypt_seeded`]), which keeps a ≥ 7-bit decrypt
/// margin at every zoo dimension (module docs).
///
/// # Panics
///
/// Panics if `gk` lacks an entry of [`key_plan`] for `w.dim()` (a caller
/// bug: generate the keys with [`crate::keys::KeySet::generate_for_dims`];
/// a server admits no other set), or if the keys, the ciphertext and the
/// operands come from different rings.
pub fn matvec_precomputed(gk: &GaloisKeys, w: &BsgsDiagonals, ct_v: &Ciphertext) -> Ciphertext {
    let params = gk.params();
    let ring = params.ring();
    let (ntt, ntt_p) = (ring.ntt(), params.special_ring().ntt());
    let q = params.q();
    let n = params.n();
    let packing = w.packing;
    let (m, b) = (packing.steps(), packing.baby);
    // Operands and input must live in the keys' ring: the dyadic kernels
    // below only length-check raw slices, so a same-degree/different-modulus
    // input would otherwise silently corrupt the result.
    let (op_ctx, ct_ctx) = (w.ops[0].q.ctx(), ct_v.c0.ctx());
    assert!(
        op_ctx.n() == n && op_ctx.q() == q,
        "diagonal operands' ring (n={}, q={}) does not match the Galois keys' ring (n={n}, q={q})",
        op_ctx.n(),
        op_ctx.q()
    );
    assert!(
        ct_ctx.n() == n && ct_ctx.q() == q,
        "the ciphertext is not in the keys' ring (n={n}, q={q})"
    );
    // The input in evaluation form (the identity step), and baby rotations
    // 1..b in the extended basis — `P·rot_i(x)` plus the keys' error,
    // undivided — from one hoisted lift.
    let input = [&ct_v.c0, &ct_v.c1].map(|c| c.clone().into_ntt().into_data());
    let hoisted = (b > 1).then(|| gk.hoist(ct_v));
    let babies: Vec<ExtPair> = (1..b)
        .map(|i| {
            let mut baby = ExtPair::zeros(n);
            let hoisted = hoisted.as_ref().expect("hoisted when b > 1");
            gk.rotate_hoisted_ext(hoisted, i, &mut baby)
                .unwrap_or_else(|e| panic!("{e}"));
            baby
        })
        .collect();
    // The result under `q` (`acc`), what is still multiplied by `P` (`ext`:
    // group 0's baby products and every giant's switched part), a giant
    // group's sum (`inner`) and the lift of each fused switch's input.
    let mut acc = [vec![0; n], vec![0; n]];
    let (mut ext, mut inner, mut lifted) = (ExtPair::zeros(n), ExtPair::zeros(n), Lifted::zeros(n));
    for j in 0..packing.giant {
        let lo = j * b;
        let group = &w.ops[lo..lo + b.min(m - lo)];
        // Giant group j accumulates Σ_i p_{j,i} ⊙ rot_i(x); group 0 lands
        // directly in the result (identity rotation). The babies' terms
        // first, in the extended basis ...
        for (op, baby) in group.iter().skip(1).zip(&babies) {
            let op_p = op.p.as_ref().expect("a baby step has a P residue");
            let sum = if j == 0 { &mut ext } else { &mut inner };
            for (s, y) in sum.q.iter_mut().zip(&baby.q) {
                ntt.dyadic_mul_acc_shoup(s, y, op.q.shoup());
            }
            for (s, y) in sum.p.iter_mut().zip(&baby.p) {
                ntt_p.dyadic_mul_acc_shoup(s, y, op_p.shoup());
            }
        }
        // ... divided once per giant group, then the identity step's term.
        if j > 0 && group.len() > 1 {
            let (xq, xp) = inner.halves();
            mod_down(params, xq, xp);
        }
        let sum = if j == 0 { &mut acc } else { &mut inner.q };
        for (s, y) in sum.iter_mut().zip(&input) {
            ntt.dyadic_mul_acc_shoup(s, y, group[0].q.shoup());
        }
        if j > 0 {
            let g = rotation_element(n, lo);
            let [inner0, inner1] = &mut inner.q;
            gk.rotate_acc_lazy(g, inner0, inner1, &mut acc[0], &mut lifted, &mut ext)
                .unwrap_or_else(|e| panic!("{e}"));
            inner.clear();
        }
    }
    let [mut acc0, mut acc1] = acc;
    if m > 1 {
        gk.settle(&mut ext, &mut acc0, &mut acc1);
    }
    // Rotate-and-sum: acc += rot(acc), one fused switch and its own
    // division per step (the next step rotates this one's sum).
    let [y0, y1] = &mut inner.q;
    for g in packing.sum_elements() {
        y0.copy_from_slice(&acc0);
        y1.copy_from_slice(&acc1);
        ext.clear();
        gk.rotate_acc_lazy(g, y0, y1, &mut acc0, &mut lifted, &mut ext)
            .unwrap_or_else(|e| panic!("{e}"));
        gk.settle(&mut ext, &mut acc0, &mut acc1);
    }
    for x in acc0.iter_mut().chain(acc1.iter_mut()) {
        *x = q.reduce_lazy(*x);
    }
    Ciphertext {
        c0: Poly::from_ntt_data(ring.clone(), acc0),
        c1: Poly::from_ntt_data(ring.clone(), acc1),
    }
}

/// [`matvec_precomputed`] once per `(keys, input)` job against one matrix,
/// products in job order. Kept for the ledger only: `benchmark/` times it
/// as `he.matvec_batch_ms`, and ROADMAP.md item 0 drops that metric, after
/// which this goes.
///
/// # Panics
///
/// Panics under the same conditions as [`matvec_precomputed`].
pub fn matvec_precomputed_many(
    jobs: &[(&GaloisKeys, &Ciphertext)],
    w: &BsgsDiagonals,
) -> Vec<Ciphertext> {
    (jobs.iter())
        .map(|(gk, ct_v)| matvec_precomputed(gk, w, ct_v))
        .collect()
}

/// Computes `E(W · v)` from `E(v)` with the original rotate-after-multiply
/// Horner chain — one composed rotation per diagonal, over a periodic input
/// (`v` zero-padded to `w.dim()`, [`BatchEncoder::encode_periodic`]). Far
/// slower than [`matvec_precomputed`] but never amplifies key-switch noise:
/// the differential oracle and benchmark baseline for the replicated path.
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

/// Counts the homomorphic operations a `dim × dim` diagonal matvec
/// performs, distinguishing cheap hoisted rotations (slot gathers + dyadic
/// accumulates, no NTTs) from full key switches (gadget decompose + digit
/// NTT batch). Feeds the cost model in `pi-sim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatvecOpCount {
    /// Plaintext multiplications (one per packed diagonal).
    pub pt_muls: usize,
    /// Hoisted rotations: amortized against one shared decomposition.
    pub hoisted_rotations: usize,
    /// Full key switches (giant steps and rotate-and-sum steps, and every
    /// rotation of the naive chain).
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

/// Operation count of the replicated [`matvec_precomputed`] for a
/// `dim`-wide phase in a ring of degree `n` (module docs): `m = d/c`
/// plaintext products, `⌈√m⌉ − 1` hoisted baby rotations, `⌈m/⌈√m⌉⌉ − 1`
/// giant key switches and `log₂ c` rotate-and-sum switches — exactly the
/// `he.rotation` counter's delta around one call.
pub fn matvec_op_count(n: usize, dim: usize) -> MatvecOpCount {
    let packing = Packing::new(n, dim);
    let sums = packing.sum_elements().count();
    MatvecOpCount {
        pt_muls: packing.steps(),
        hoisted_rotations: packing.baby - 1,
        key_switches: packing.giant - 1 + sums,
        additions: packing.steps() - 1 + sums,
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

/// Subtracts a plaintext share vector `s` (periodic layout — the layout
/// every matvec result is in) from an encrypted matvec result: the DELPHI
/// offline step `E(W·r) − s`.
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

    /// `W·v` through the naive oracle under `keys`: `v` zero-padded to the
    /// padded dimension, encoded periodically and encrypted as the client
    /// encrypts, then the Horner chain.
    fn naive_product(
        keys: &KeySet,
        enc: &BatchEncoder,
        w: &PlainMatrix,
        v: &[u64],
        rng: &mut impl Rng,
    ) -> Ciphertext {
        let mut padded = v.to_vec();
        padded.resize(w.padded_dim(), 0);
        let (ct, _) = keys
            .secret
            .encrypt_seeded(&enc.encode_periodic(&padded), rng);
        matvec_naive(&keys.galois, &encode_diagonals(enc, w), &ct)
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

    /// The replicated schedule on cleartext slots: the input layout, every
    /// packed operand, the baby and giant rotations and the rotate-and-sum
    /// exactly as [`matvec_precomputed`] applies them, with slot
    /// arithmetic mod `t` in place of ciphertexts.
    fn simulate(packing: &Packing, w: &PlainMatrix, v: &[u64], t: Modulus) -> Vec<u64> {
        let n = packing.n;
        let rot =
            |x: &[u64], k: usize| -> Vec<u64> { (0..n).map(|s| x[packing.source(s, k)]).collect() };
        let add =
            |x: &mut [u64], y: &[u64]| x.iter_mut().zip(y).for_each(|(x, &y)| *x = t.add(*x, y));
        let x: Vec<u64> = (0..n)
            .map(|s| v.get(packing.input_column(s)).copied().unwrap_or(0))
            .collect();
        let (m, b) = (packing.steps(), packing.baby);
        let babies: Vec<Vec<u64>> = (0..b).map(|i| rot(&x, i)).collect();
        let mut acc = vec![0u64; n];
        for j in 0..packing.giant {
            let mut inner = vec![0u64; n];
            for (i, baby) in babies.iter().enumerate().take(m - j * b) {
                let op = w.packed_diagonal(packing, j * b, i);
                for ((y, &p), &x) in inner.iter_mut().zip(&op).zip(baby) {
                    *y = t.mul_add(p, x, *y);
                }
            }
            add(&mut acc, &rot(&inner, j * b));
        }
        for k in packing.sum_rotations() {
            let rotated = rot(&acc, k);
            add(&mut acc, &rotated);
        }
        if packing.swaps_rows() {
            let swapped: Vec<u64> = (0..n).map(|s| acc[(s + n / 2) % n]).collect();
            add(&mut acc, &swapped);
        }
        acc
    }

    /// The packed-diagonal derivation, checked without HE: at every
    /// power-of-two dimension a row holds, on both protocol rings, every
    /// one of the `N` simulated output slots is `(W·v)[s mod d]`.
    #[test]
    fn slot_simulation_of_the_replicated_schedule_is_the_plain_product() {
        let t = BfvParams::small_test().t();
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        for n in [2048usize, 4096] {
            for dim in (0..).map(|e| 1usize << e).take_while(|&d| d <= n / 2) {
                let packing = Packing::new(n, dim);
                let w = random_matrix(dim, dim, t.value(), t, &mut rng);
                let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
                let want = w.matvec_plain(&v, t);
                let got = simulate(&packing, &w, &v, t);
                for (s, &y) in got.iter().enumerate() {
                    assert_eq!(y, want[s % dim], "n={n} d={dim} slot {s}");
                }
            }
        }
    }

    #[test]
    fn packing_shapes() {
        let at = |n, d| {
            let p = Packing::new(n, d);
            let sums: Vec<usize> = p.sum_rotations().collect();
            (
                p.replicas,
                p.steps(),
                (p.baby, p.giant),
                sums,
                p.swaps_rows(),
            )
        };
        // One replica, nothing to rotate.
        assert_eq!(at(4096, 1), (1, 1, (1, 1), vec![], false));
        // d² ≤ N/2: one diagonal per replica, replicas within a row.
        assert_eq!(at(4096, 16), (16, 1, (1, 1), vec![16, 32, 64, 128], false));
        // d² = N: the replicas fill both rows.
        assert_eq!(
            at(4096, 64),
            (64, 1, (1, 1), vec![64, 128, 256, 512, 1024], true)
        );
        assert_eq!(
            at(4096, 128),
            (32, 4, (2, 2), vec![128, 256, 512, 1024], true)
        );
        assert_eq!(at(2048, 128), (16, 8, (3, 3), vec![128, 256, 512], true));
        // A full row: two replicas, one per row, joined by the swap alone.
        assert_eq!(at(4096, 2048), (2, 1024, (32, 32), vec![], true));
        // Block ρ holds the input rotated left by (ρ mod c)·m.
        let p = Packing::new(4096, 128);
        assert_eq!(p.input_column(0), 0);
        assert_eq!(p.input_column(128 + 5), 4 + 5);
        assert_eq!(p.input_column(31 * 128 + 127), (124 + 127) % 128);
        assert_eq!(p.input_column(2048), 16 * 4);
    }

    #[test]
    fn bsgs_plan_shapes() {
        assert_eq!(bsgs_plan(1), (1, 1));
        assert_eq!(bsgs_plan(2), (2, 1));
        assert_eq!(bsgs_plan(7), (3, 3));
        assert_eq!(bsgs_plan(64), (8, 8));
        assert_eq!(bsgs_plan(100), (10, 10));
        assert_eq!(bsgs_plan(128), (12, 11));
        // Key plan: babies 1..b and giants b·j of the in-replica steps,
        // then the rotate-and-sum; one key an element; never rotation 0.
        let params = BfvParams::small_test();
        let n = params.n();
        let elements = |steps: &[usize], swap: bool| {
            let mut plan: Vec<usize> = steps.iter().map(|&k| rotation_element(n, k)).collect();
            plan.extend(swap.then_some(2 * n - 1));
            plan.sort_unstable();
            plan
        };
        // d = 128 at n = 2048: m = 8 → babies 1, 2, giants 3, 6; then
        // 128, 256, 512 and the swap.
        let at_128 = elements(&[1, 2, 3, 6, 128, 256, 512], true);
        assert_eq!(key_plan(&params, &[128]), at_128);
        assert!(key_plan(&params, &[1]).is_empty());
        assert_eq!(key_plan(&params, &[2]), [rotation_element(n, 2)]);
        // d = 16: sixteen one-diagonal replicas, summed by 16..128; 128 is
        // shared with d = 128, and a dimension named twice adds nothing.
        assert_eq!(
            key_plan(&params, &[128, 16, 16]),
            elements(&[1, 2, 3, 6, 16, 32, 64, 128, 256, 512], true)
        );
    }

    #[test]
    fn encrypted_matvec_small_square() {
        let (params, keys, enc, mut rng) = setup(7);
        let t = params.t();
        let w = random_matrix(8, 8, 256, t, &mut rng);
        let v: Vec<u64> = (0..8).map(|_| rng.gen_range(0..256)).collect();
        let expect = w.matvec_plain(&v, t);

        let out = naive_product(&keys, &enc, &w, &v, &mut rng);
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
        let out = naive_product(&keys, &enc, &w, &v, &mut rng);
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
        let out = naive_product(&keys, &enc, &w, &v, &mut rng);
        assert!(keys.secret.noise_budget(&out) > 0);
        let got = enc.decode_prefix(&keys.secret.decrypt(&out), 64);
        assert_eq!(got, expect);
    }

    #[test]
    fn precomputed_bsgs_matvec_matches_and_reuses() {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let keys = KeySet::generate_for_dims(&params, &[256], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        let w = random_matrix(256, 256, t.value(), t, &mut rng);
        let diag = encode_diagonals_bsgs(&enc, &w);
        assert_eq!(diag.dim(), 256);
        // c = 8 replicas of m = 32 steps: 32 operands instead of 256, the
        // 26 off the identity baby (b = 6, g = 6) with a P residue too.
        assert_eq!(diag.packing.replicas, 8);
        assert_eq!(diag.resident_byte_len(), (32 + 26) * 16 * params.n());
        // One precomputation serves many client vectors.
        for _ in 0..3 {
            let v: Vec<u64> = (0..256).map(|_| rng.gen_range(0..t.value())).collect();
            let input = encode_input(&enc, &v, 256);
            let (ct, _) = keys.secret.encrypt_seeded(&input, &mut rng);
            let out = matvec_precomputed(&keys.galois, &diag, &ct);
            assert!(keys.secret.noise_budget(&out) > 0, "noise exhausted");
            let got = enc.decode_prefix(&keys.secret.decrypt(&out), 256);
            assert_eq!(got, w.matvec_plain(&v, t));
        }
    }

    #[test]
    fn bsgs_matches_naive_oracle() {
        // The replicated path and the Horner oracle, each under the key set
        // and input layout it runs with, must decrypt to the same N slots,
        // including at non-power-of-two logical shapes and dim 1/2 edges.
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let chain = KeySet::generate(&params, &mut rng);
        let keys = KeySet::generate_for_dims(&params, &[1, 2, 8, 16], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        for (rows, cols) in [(1, 1), (2, 2), (5, 7), (16, 16)] {
            let w = random_matrix(rows, cols, t.value(), t, &mut rng);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
            let naive = naive_product(&chain, &enc, &w, &v, &mut rng);
            let input = encode_input(&enc, &v, w.padded_dim());
            let (ct, _) = keys.secret.encrypt_seeded(&input, &mut rng);
            let fast = matvec_precomputed(&keys.galois, &encode_diagonals_bsgs(&enc, &w), &ct);
            assert_eq!(
                chain.secret.decrypt(&naive),
                keys.secret.decrypt(&fast),
                "naive and replicated decryptions differ at {rows}x{cols}"
            );
            let got = enc.decode_prefix(&keys.secret.decrypt(&fast), rows);
            assert_eq!(got, w.matvec_plain(&v, t));
        }
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

        let ct_wr = naive_product(&keys, &enc, &w, &r, &mut rng);
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
        // d = 64 at n = 4096: 64 one-diagonal replicas, 5 in-row sum
        // steps and the swap — against the one-replica BSGS's 7 + 7.
        let c = matvec_op_count(4096, 64);
        assert_eq!(c.pt_muls, 1);
        assert_eq!(c.hoisted_rotations, 0);
        assert_eq!(c.key_switches, 6);
        assert_eq!(c.rotations(), 6);
        assert_eq!(c.additions, 6);
        assert_eq!(matvec_op_count(4096, 1).rotations(), 0);
        // d = 128: 1 baby + 1 giant over m = 4, then 4 sum steps + swap.
        let c = matvec_op_count(4096, 128);
        assert_eq!((c.pt_muls, c.hoisted_rotations, c.key_switches), (4, 1, 6));
        // The naive chain keeps the old shape.
        let naive = matvec_op_count_naive(64);
        assert_eq!(naive.key_switches, 63);
        assert_eq!(naive.hoisted_rotations, 0);
        assert_eq!(naive.rotations(), 63);
    }

    #[test]
    #[should_panic]
    fn oversized_matrix_rejected() {
        let (params, _, enc, _) = setup(11);
        let t = params.t();
        let d = enc.row_size() * 2;
        let w = PlainMatrix::new(d, d, &vec![0u64; d * d], t);
        encode_diagonals(&enc, &w);
    }
}
