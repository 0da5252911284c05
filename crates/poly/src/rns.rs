//! RNS (residue number system) polynomials: one residue column per prime.
//!
//! An [`RnsPoly`] represents an element of `Z_Q[x]/(x^N + 1)` for a
//! multi-prime modulus `Q = ∏ q_i` as `k` independent residue columns, the
//! `i`-th being the image in `Z_{q_i}[x]/(x^N + 1)`. Every ring operation
//! (add, sub, NTT, pointwise multiply) acts per column with the existing
//! word-sized kernels, so the >62-bit modulus costs exactly `k` runs of the
//! single-prime machinery — no big-integer arithmetic anywhere on the hot
//! path. Big integers appear only at the CRT boundary:
//! [`RnsPoly::compose_coeffs`] composes whole coefficients through
//! [`pi_field::CrtBasis`] (the decrypt-side decode in `pi-he`).
//!
//! # Residue layout and lazy-range invariants
//!
//! * Data is stored residue-major: `data[i][j]` is coefficient `j` modulo
//!   `q_i`. Columns are independent; batched transforms
//!   ([`RnsNttTables::forward_many`]) iterate residues outermost so each
//!   column's twiddles are streamed once per stage for the whole batch.
//!   Each column's stages route through the SIMD dispatch in
//!   [`pi_field::simd`], so the vector butterflies (AVX2/NEON/portable) pay
//!   off `k`× per RNS transform — once per residue column — with no code
//!   in this module aware of the backend.
//! * Strict form: all stored values are reduced (`< q_i`). The lazy
//!   `[0, 2q_i)` / `[0, 4q_i)` domains of the Harvey butterflies and the
//!   `dyadic_mul_acc_shoup` accumulators never escape a kernel call — an
//!   `RnsPoly` you can observe is always strictly reduced, per column, in
//!   whichever basis [`RnsPoly::form`] reports.
//! * A precomputed multiplication operand ([`RnsOperand`]) is one
//!   `(values, quotients)` [`ShoupVec`] pair per prime — the layout the
//!   Shoup/lazy engine was shaped for, per the PR-1 design note.

use crate::ntt::{NttTables, ShoupVec};
use crate::poly::PolyForm;
use pi_field::{CrtBasis, Modulus, U1024};
use std::fmt;
use std::sync::Arc;

/// Per-residue NTT table set: [`NttTables`] lifted to a CRT basis, one table
/// per prime, with batched stage-major transforms across residue columns.
#[derive(Debug)]
pub struct RnsNttTables {
    tables: Vec<NttTables>,
}

impl RnsNttTables {
    /// Builds tables for ring degree `n` over every prime of `basis`.
    ///
    /// # Panics
    ///
    /// Panics if any basis prime is not NTT-friendly for `n`
    /// (`q_i ≢ 1 (mod 2n)`).
    pub fn new(n: usize, basis: &CrtBasis) -> Self {
        let tables = basis
            .moduli()
            .iter()
            .map(|&q| NttTables::new(n, q))
            .collect();
        Self { tables }
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the table set is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The single-prime tables for residue `i`.
    pub fn table(&self, i: usize) -> &NttTables {
        &self.tables[i]
    }

    /// All per-residue tables, in basis order.
    pub fn tables(&self) -> &[NttTables] {
        &self.tables
    }

    /// In-place forward NTT of one polynomial's residue columns.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the residue count.
    pub fn forward(&self, residues: &mut [Vec<u64>]) {
        assert_eq!(residues.len(), self.tables.len(), "residue count mismatch");
        for (col, t) in residues.iter_mut().zip(&self.tables) {
            t.forward(col);
        }
    }

    /// In-place inverse NTT of one polynomial's residue columns.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the residue count.
    pub fn inverse(&self, residues: &mut [Vec<u64>]) {
        assert_eq!(residues.len(), self.tables.len(), "residue count mismatch");
        for (col, t) in residues.iter_mut().zip(&self.tables) {
            t.inverse(col);
        }
    }

    /// Forward-transforms a batch of RNS polynomials, residue-outermost: for
    /// each prime, all columns of that prime go through one stage-major
    /// [`NttTables::forward_many`] pass, so twiddles are loaded once per
    /// stage for the whole batch (the RNS lift of the PR-1 batching win).
    ///
    /// # Panics
    ///
    /// Panics if any polynomial has the wrong residue count.
    pub fn forward_many(&self, batch: &mut [&mut [Vec<u64>]]) {
        for p in batch.iter() {
            assert_eq!(p.len(), self.tables.len(), "residue count mismatch");
        }
        for (i, t) in self.tables.iter().enumerate() {
            let mut cols: Vec<&mut [u64]> = batch.iter_mut().map(|p| p[i].as_mut_slice()).collect();
            t.forward_many(&mut cols);
        }
    }

    /// Inverse counterpart of [`RnsNttTables::forward_many`].
    ///
    /// # Panics
    ///
    /// Panics if any polynomial has the wrong residue count.
    pub fn inverse_many(&self, batch: &mut [&mut [Vec<u64>]]) {
        for p in batch.iter() {
            assert_eq!(p.len(), self.tables.len(), "residue count mismatch");
        }
        for (i, t) in self.tables.iter().enumerate() {
            let mut cols: Vec<&mut [u64]> = batch.iter_mut().map(|p| p[i].as_mut_slice()).collect();
            t.inverse_many(&mut cols);
        }
    }
}

/// Shared, immutable parameters of an RNS ring: degree, CRT basis, and one
/// set of NTT tables per basis prime.
#[derive(Debug)]
pub struct RnsContext {
    n: usize,
    basis: Arc<CrtBasis>,
    ntt: RnsNttTables,
}

impl RnsContext {
    /// Creates the ring `Z_Q[x]/(x^n + 1)` for `Q = ∏ q_i` over the basis.
    ///
    /// # Panics
    ///
    /// Panics if any basis prime is not NTT-friendly for `n`.
    pub fn new(n: usize, basis: Arc<CrtBasis>) -> Self {
        let ntt = RnsNttTables::new(n, &basis);
        Self { n, basis, ntt }
    }

    /// Convenience: basis of the `count` largest `bits`-bit NTT primes for
    /// degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if the prime search or basis construction fails.
    pub fn with_ntt_primes(n: usize, bits: u32, count: usize) -> Self {
        let basis = CrtBasis::with_ntt_primes(bits, count, n as u64)
            .expect("CRT basis construction failed");
        Self::new(n, Arc::new(basis))
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of residues (basis primes).
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// Whether the basis is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// The CRT basis.
    pub fn basis(&self) -> &Arc<CrtBasis> {
        &self.basis
    }

    /// The `i`-th residue modulus.
    pub fn modulus(&self, i: usize) -> Modulus {
        self.basis.modulus(i)
    }

    /// The per-residue NTT tables.
    pub fn ntt(&self) -> &RnsNttTables {
        &self.ntt
    }
}

/// An RNS polynomial frozen in evaluation form with per-residue Shoup
/// quotients: one `(values, quotients)` pair per prime. The reusable
/// multiplication operand for keys and plaintext diagonals.
#[derive(Clone, Debug)]
pub struct RnsOperand {
    ctx: Arc<RnsContext>,
    ops: Vec<ShoupVec>,
}

impl RnsOperand {
    /// The ring context this operand belongs to.
    pub fn ctx(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// The Shoup-form column for residue `i`.
    pub fn shoup(&self, i: usize) -> &ShoupVec {
        &self.ops[i]
    }
}

/// A polynomial in `Z_Q[x]/(x^N + 1)` stored as residue columns.
#[derive(Clone)]
pub struct RnsPoly {
    ctx: Arc<RnsContext>,
    form: PolyForm,
    /// `data[i][j]` = coefficient/evaluation `j` modulo basis prime `i`.
    data: Vec<Vec<u64>>,
}

impl fmt::Debug for RnsPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RnsPoly(n={}, k={}, form={:?}, r0[..4]={:?})",
            self.ctx.n,
            self.ctx.len(),
            self.form,
            &self.data[0][..self.data[0].len().min(4)]
        )
    }
}

impl PartialEq for RnsPoly {
    fn eq(&self, other: &Self) -> bool {
        if self.ctx.n != other.ctx.n || self.ctx.basis.moduli() != other.ctx.basis.moduli() {
            return false;
        }
        // Matching forms compare residue columns directly (the per-column
        // NTT over identical tables is a bijection); only a form mismatch
        // pays for a conversion.
        if self.form == other.form {
            self.data == other.data
        } else {
            self.clone().into_coeff().data == other.clone().into_coeff().data
        }
    }
}

impl Eq for RnsPoly {}

impl RnsPoly {
    /// The zero polynomial (coefficient form).
    pub fn zero(ctx: Arc<RnsContext>) -> Self {
        let data = vec![vec![0u64; ctx.n]; ctx.len()];
        Self {
            ctx,
            form: PolyForm::Coeff,
            data,
        }
    }

    /// Builds a polynomial from word-sized coefficients, reducing each
    /// modulo every basis prime.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn from_coeffs(ctx: Arc<RnsContext>, coeffs: &[u64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n, "coefficient vector must have length n");
        let data = ctx
            .basis
            .moduli()
            .iter()
            .map(|m| coeffs.iter().map(|&c| m.reduce(c)).collect())
            .collect();
        Self {
            ctx,
            form: PolyForm::Coeff,
            data,
        }
    }

    /// Builds a polynomial from signed coefficients (balanced
    /// representation modulo every prime).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn from_signed(ctx: Arc<RnsContext>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n, "coefficient vector must have length n");
        let data = ctx
            .basis
            .moduli()
            .iter()
            .map(|m| coeffs.iter().map(|&c| m.from_signed(c)).collect())
            .collect();
        Self {
            ctx,
            form: PolyForm::Coeff,
            data,
        }
    }

    /// Builds a polynomial directly from residue columns in the given form.
    /// All values must be strictly reduced per column.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch; debug-panics on unreduced values.
    pub fn from_residues(ctx: Arc<RnsContext>, data: Vec<Vec<u64>>, form: PolyForm) -> Self {
        assert_eq!(data.len(), ctx.len(), "residue count mismatch");
        for (i, col) in data.iter().enumerate() {
            assert_eq!(col.len(), ctx.n, "residue column must have length n");
            debug_assert!(
                col.iter().all(|&x| x < ctx.modulus(i).value()),
                "residue column {i} must be reduced"
            );
        }
        Self { ctx, form, data }
    }

    /// Returns the ring context.
    pub fn ctx(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Returns the current basis (coefficient or evaluation).
    pub fn form(&self) -> PolyForm {
        self.form
    }

    /// The residue column for prime `i`, in the current form.
    pub fn residue(&self, i: usize) -> &[u64] {
        &self.data[i]
    }

    /// All residue columns, in the current form.
    pub fn residues(&self) -> &[Vec<u64>] {
        &self.data
    }

    /// Consumes the polynomial, returning its residue columns.
    pub fn into_residues(self) -> Vec<Vec<u64>> {
        self.data
    }

    /// CRT-composes every coefficient into a big integer in `[0, Q)`.
    ///
    /// The Garner mixed-radix digit recurrence runs column-at-a-time through
    /// [`pi_field::CrtBasis::compose_many`] — lane-parallel on vector
    /// backends, bit-identical to composing each coefficient with
    /// [`pi_field::CrtBasis::compose`].
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is not in coefficient form (convert with
    /// [`RnsPoly::into_coeff`] first — composition of evaluation columns
    /// would mix incompatible evaluation orders across primes).
    pub fn compose_coeffs(&self) -> Vec<U1024> {
        assert_eq!(
            self.form,
            PolyForm::Coeff,
            "compose requires coefficient form"
        );
        self.ctx.basis.compose_many(&self.data)
    }

    /// Converts into coefficient form.
    pub fn into_coeff(mut self) -> Self {
        if self.form == PolyForm::Ntt {
            self.ctx.ntt.inverse(&mut self.data);
            self.form = PolyForm::Coeff;
        }
        self
    }

    /// Converts into NTT (evaluation) form.
    pub fn into_ntt(mut self) -> Self {
        if self.form == PolyForm::Coeff {
            self.ctx.ntt.forward(&mut self.data);
            self.form = PolyForm::Ntt;
        }
        self
    }

    fn assert_same_ring(&self, other: &Self) {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx)
                || (self.ctx.n == other.ctx.n
                    && self.ctx.basis.moduli() == other.ctx.basis.moduli()),
            "RNS polynomials from different rings"
        );
    }

    fn zip_with(&self, other: &Self, f: impl Fn(Modulus, u64, u64) -> u64) -> Self {
        self.assert_same_ring(other);
        // Matching forms zip in place; only a form mismatch pays for the
        // conversion copies.
        let (conv_a, conv_b);
        let (da, db, form) = if self.form == other.form {
            (&self.data, &other.data, self.form)
        } else {
            conv_a = self.clone().into_coeff();
            conv_b = other.clone().into_coeff();
            (&conv_a.data, &conv_b.data, PolyForm::Coeff)
        };
        let data = da
            .iter()
            .zip(db)
            .enumerate()
            .map(|(i, (ca, cb))| {
                let m = self.ctx.modulus(i);
                ca.iter().zip(cb).map(|(&x, &y)| f(m, x, y)).collect()
            })
            .collect();
        Self {
            ctx: self.ctx.clone(),
            form,
            data,
        }
    }

    /// Ring addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_with(other, |m, x, y| m.add(x, y))
    }

    /// Ring subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_with(other, |m, x, y| m.sub(x, y))
    }

    /// Ring negation.
    pub fn neg(&self) -> Self {
        let data = self
            .data
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let m = self.ctx.modulus(i);
                col.iter().map(|&x| m.neg(x)).collect()
            })
            .collect();
        Self {
            ctx: self.ctx.clone(),
            form: self.form,
            data,
        }
    }

    /// Ring multiplication via per-residue NTT.
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_same_ring(other);
        let a = self.clone().into_ntt();
        let b = other.clone().into_ntt();
        let mut data = vec![vec![0u64; self.ctx.n]; self.ctx.len()];
        for (i, out) in data.iter_mut().enumerate() {
            self.ctx
                .ntt
                .table(i)
                .dyadic_mul(out, &a.data[i], &b.data[i]);
        }
        Self {
            ctx: self.ctx.clone(),
            form: PolyForm::Ntt,
            data,
        }
    }

    /// Precomputes this polynomial as a reusable multiplication operand:
    /// evaluation form with one Shoup `(values, quotients)` pair per prime.
    pub fn to_operand(&self) -> RnsOperand {
        let eval = self.clone().into_ntt();
        let ops = eval
            .data
            .iter()
            .enumerate()
            .map(|(i, col)| ShoupVec::new(self.ctx.modulus(i), col))
            .collect();
        RnsOperand {
            ctx: self.ctx.clone(),
            ops,
        }
    }

    /// Ring multiplication by a precomputed operand: one `mul_shoup` pass per
    /// residue column, no Barrett machinery. When `self` is already in
    /// evaluation form (the common case for ciphertext components) no copy
    /// or transform of `self` is made.
    pub fn mul_operand(&self, other: &RnsOperand) -> Self {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx)
                || (self.ctx.n == other.ctx.n
                    && self.ctx.basis.moduli() == other.ctx.basis.moduli()),
            "operand from a different ring"
        );
        let conv;
        let eval = match self.form {
            PolyForm::Ntt => &self.data,
            PolyForm::Coeff => {
                conv = self.clone().into_ntt();
                &conv.data
            }
        };
        let mut data = vec![vec![0u64; self.ctx.n]; self.ctx.len()];
        for (i, out) in data.iter_mut().enumerate() {
            self.ctx
                .ntt
                .table(i)
                .dyadic_mul_shoup(out, &eval[i], other.shoup(i));
        }
        Self {
            ctx: self.ctx.clone(),
            form: PolyForm::Ntt,
            data,
        }
    }

    /// Multiplies by a word-sized scalar (reduced per residue).
    pub fn scale(&self, c: u64) -> Self {
        let data = self
            .data
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let m = self.ctx.modulus(i);
                let c = m.reduce(c);
                col.iter().map(|&x| m.mul(x, c)).collect()
            })
            .collect();
        Self {
            ctx: self.ctx.clone(),
            form: self.form,
            data,
        }
    }

    /// Multiplies residue `i` by `scalars[i]` — the per-residue scalar path
    /// for CRT-dependent constants such as `Δ mod q_i`.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != len()`.
    pub fn scale_residues(&self, scalars: &[u64]) -> Self {
        assert_eq!(scalars.len(), self.ctx.len(), "scalar count mismatch");
        let data = self
            .data
            .iter()
            .zip(scalars)
            .enumerate()
            .map(|(i, (col, &c))| {
                let m = self.ctx.modulus(i);
                let c = m.reduce(c);
                col.iter().map(|&x| m.mul(x, c)).collect()
            })
            .collect();
        Self {
            ctx: self.ctx.clone(),
            form: self.form,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{Poly, RingContext};
    use pi_field::find_ntt_prime;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn ctx(n: usize, bits: u32, count: usize) -> Arc<RnsContext> {
        Arc::new(RnsContext::with_ntt_primes(n, bits, count))
    }

    fn random_rns(ctx: &Arc<RnsContext>, seed: u64) -> RnsPoly {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..ctx.len())
            .map(|i| {
                let q = ctx.modulus(i).value();
                (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();
        RnsPoly::from_residues(ctx.clone(), data, PolyForm::Coeff)
    }

    #[test]
    fn ring_laws() {
        let ctx = ctx(64, 30, 3);
        let a = random_rns(&ctx, 1);
        let b = random_rns(&ctx, 2);
        let c = random_rns(&ctx, 3);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&a.neg()), RnsPoly::zero(ctx.clone()));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn ntt_roundtrip() {
        let ctx = ctx(128, 45, 3);
        let a = random_rns(&ctx, 4);
        assert_eq!(a.clone().into_ntt().into_coeff(), a);
    }

    #[test]
    fn mul_operand_matches_mul() {
        let ctx = ctx(64, 30, 3);
        let a = random_rns(&ctx, 5);
        let b = random_rns(&ctx, 6);
        let op = b.to_operand();
        assert_eq!(a.mul_operand(&op), a.mul(&b));
    }

    #[test]
    fn scale_variants_agree() {
        let ctx = ctx(32, 30, 3);
        let a = random_rns(&ctx, 7);
        let c = 123_456_789u64;
        let per_residue = vec![c; ctx.len()];
        assert_eq!(a.scale(c), a.scale_residues(&per_residue));
    }

    #[test]
    fn single_prime_matches_poly_path() {
        // With a one-prime basis, every RnsPoly operation must agree with the
        // single-modulus Poly implementation element for element.
        let n = 64;
        let q = find_ntt_prime(30, n as u64);
        let basis = Arc::new(CrtBasis::new(&[q]).unwrap());
        let rns_ctx = Arc::new(RnsContext::new(n, basis));
        let poly_ctx = Arc::new(RingContext::with_modulus(n, Modulus::new(q)));

        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let coeffs_a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let coeffs_b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();

        let ra = RnsPoly::from_coeffs(rns_ctx.clone(), &coeffs_a);
        let rb = RnsPoly::from_coeffs(rns_ctx.clone(), &coeffs_b);
        let pa = Poly::from_coeffs(poly_ctx.clone(), coeffs_a.clone());
        let pb = Poly::from_coeffs(poly_ctx.clone(), coeffs_b.clone());

        // add / sub / neg / mul, compared through raw coefficient data.
        assert_eq!(
            ra.add(&rb).into_coeff().residue(0),
            pa.add(&pb).into_coeff().data()
        );
        assert_eq!(
            ra.sub(&rb).into_coeff().residue(0),
            pa.sub(&pb).into_coeff().data()
        );
        assert_eq!(ra.neg().residue(0), pa.neg().data());
        assert_eq!(
            ra.mul(&rb).clone().into_coeff().residue(0),
            pa.mul(&pb).into_coeff().data()
        );
        // NTT evaluation columns agree too (same tables, same order).
        assert_eq!(
            ra.clone().into_ntt().residue(0),
            pa.clone().into_ntt().data()
        );
    }

    #[test]
    fn compose_and_from_big_roundtrip() {
        // Every composed coefficient decomposes back to its residue row.
        let ctx = ctx(32, 30, 3);
        let a = random_rns(&ctx, 9);
        for (j, big) in a.compose_coeffs().iter().enumerate() {
            let row: Vec<u64> = a.residues().iter().map(|col| col[j]).collect();
            assert_eq!(ctx.basis().decompose(big), row, "coefficient {j}");
        }
    }

    #[test]
    fn forward_many_matches_individual() {
        let ctx = ctx(64, 45, 3);
        let polys: Vec<RnsPoly> = (10..14).map(|s| random_rns(&ctx, s)).collect();
        assert_batched_matches_individual(&ctx, &polys);
    }

    /// `forward_many` then `inverse_many` over `polys` against the
    /// per-polynomial transforms.
    fn assert_batched_matches_individual(ctx: &Arc<RnsContext>, polys: &[RnsPoly]) {
        let expect: Vec<RnsPoly> = polys.iter().map(|p| p.clone().into_ntt()).collect();
        let mut batch: Vec<Vec<Vec<u64>>> = polys.iter().map(|p| p.residues().to_vec()).collect();
        {
            let mut refs: Vec<&mut [Vec<u64>]> =
                batch.iter_mut().map(|p| p.as_mut_slice()).collect();
            ctx.ntt().forward_many(&mut refs);
        }
        for (got, want) in batch.iter().zip(&expect) {
            assert_eq!(got.as_slice(), want.residues(), "batch of {}", polys.len());
        }
        {
            let mut refs: Vec<&mut [Vec<u64>]> =
                batch.iter_mut().map(|p| p.as_mut_slice()).collect();
            ctx.ntt().inverse_many(&mut refs);
        }
        for (got, want) in batch.iter().zip(polys) {
            assert_eq!(got.as_slice(), want.residues(), "batch of {}", polys.len());
        }
    }

    #[test]
    fn forward_many_nonpow2_and_singleton_batches_match_individual() {
        // Batch counts 1 (a degenerate single-polynomial batch), 3 and 5
        // (non-powers-of-two) walk different stage-major strides than the
        // round batch above.
        let ctx = ctx(128, 45, 3);
        for batch_len in [1u64, 3, 5] {
            let polys: Vec<RnsPoly> = (0..batch_len).map(|s| random_rns(&ctx, 42 + s)).collect();
            assert_batched_matches_individual(&ctx, &polys);
        }
    }

    #[test]
    fn forward_many_single_column_basis_matches_individual() {
        // A one-prime basis: the residue-outermost batching degenerates to
        // one stage-major pass.
        let ctx = ctx(128, 45, 1);
        let polys: Vec<RnsPoly> = (0..3).map(|s| random_rns(&ctx, 43 + s)).collect();
        assert_batched_matches_individual(&ctx, &polys);
    }

    #[test]
    #[should_panic]
    fn compose_rejects_ntt_form() {
        let ctx = ctx(16, 30, 2);
        random_rns(&ctx, 15).into_ntt().compose_coeffs();
    }

    #[test]
    #[should_panic]
    fn mismatched_residue_count_rejected() {
        let ctx = ctx(16, 30, 2);
        RnsPoly::from_residues(ctx, vec![vec![0u64; 16]], PolyForm::Coeff);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn rns_mul_matches_bigint_schoolbook(seed in any::<u64>()) {
            // Negacyclic schoolbook over composed big coefficients, reduced
            // mod Q, must equal the per-residue NTT product.
            let n = 16usize;
            let ctx = ctx(n, 30, 3);
            let basis = ctx.basis();
            let q_big = basis.product();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = random_rns(&ctx, rng.gen());
            let b = random_rns(&ctx, rng.gen());
            let got = a.mul(&b).into_coeff().compose_coeffs();

            let abig = a.compose_coeffs();
            let bbig = b.compose_coeffs();
            // Schoolbook with residue arithmetic via CrtBasis on each term.
            let mut acc = vec![vec![0u64; basis.len()]; n];
            for (i, x) in abig.iter().enumerate() {
                for (j, y) in bbig.iter().enumerate() {
                    let k = (i + j) % n;
                    let negate = i + j >= n;
                    for (r, m) in basis.moduli().iter().enumerate() {
                        let term = m.mul(x.rem_u64(m.value()), y.rem_u64(m.value()));
                        acc[k][r] = if negate {
                            m.sub(acc[k][r], term)
                        } else {
                            m.add(acc[k][r], term)
                        };
                    }
                }
            }
            for (k, res) in acc.iter().enumerate() {
                let expect = basis.compose(res);
                prop_assert!(expect < *q_big);
                prop_assert_eq!(&got[k], &expect, "coefficient {}", k);
            }
        }
    }
}
