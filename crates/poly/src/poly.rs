//! Ring elements of `Z_q[x]/(x^N + 1)`.

use crate::ntt::{NttTables, ShoupVec};
use pi_field::{find_ntt_prime, Modulus};
use std::fmt;
use std::sync::Arc;

/// Shared, immutable parameters of a negacyclic ring: degree, modulus, and
/// precomputed NTT tables.
#[derive(Debug)]
pub struct RingContext {
    n: usize,
    q: Modulus,
    ntt: NttTables,
}

impl RingContext {
    /// Creates a ring `Z_q[x]/(x^n + 1)` choosing `q` as the largest
    /// NTT-friendly prime of the given bit size.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`pi_field::find_ntt_prime`].
    pub fn new(n: usize, q_bits: u32) -> Self {
        let q = Modulus::new(find_ntt_prime(q_bits, n as u64));
        Self::with_modulus(n, q)
    }

    /// Creates a ring with an explicit modulus (must satisfy
    /// `q ≡ 1 (mod 2n)`).
    ///
    /// # Panics
    ///
    /// Panics if the modulus is not NTT-friendly for `n`.
    pub fn with_modulus(n: usize, q: Modulus) -> Self {
        let ntt = NttTables::new(n, q);
        Self { n, q, ntt }
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coefficient modulus `q`.
    pub fn q(&self) -> Modulus {
        self.q
    }

    /// NTT tables for this ring.
    pub fn ntt(&self) -> &NttTables {
        &self.ntt
    }
}

/// Which basis a [`Poly`]'s data is expressed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolyForm {
    /// Coefficient (power) basis.
    Coeff,
    /// Evaluation (NTT) basis.
    Ntt,
}

/// A polynomial frozen in evaluation form with precomputed Shoup quotients,
/// for repeated multiplication against many ciphertext polynomials.
///
/// Build with [`Poly::to_operand`]; consume with [`Poly::mul_operand`] or,
/// for lazy accumulation chains, via [`PolyOperand::shoup`] and
/// [`NttTables::dyadic_mul_acc_shoup`].
#[derive(Clone, Debug)]
pub struct PolyOperand {
    ctx: Arc<RingContext>,
    op: ShoupVec,
}

impl PolyOperand {
    /// Freezes strictly reduced evaluation-form data the caller owns into
    /// an operand: only the quotients are computed, nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n`; debug-panics if any value is `>= q`.
    pub fn from_ntt_data(ctx: Arc<RingContext>, data: Vec<u64>) -> Self {
        Self::from_ntt_data_in(ctx, data, Vec::new())
    }

    /// [`PolyOperand::from_ntt_data`] with the quotients written into a
    /// vector the caller already owns ([`ShoupVec::from_vec_in`]).
    ///
    /// # Panics
    ///
    /// As [`PolyOperand::from_ntt_data`].
    pub fn from_ntt_data_in(ctx: Arc<RingContext>, data: Vec<u64>, quotients: Vec<u64>) -> Self {
        assert_eq!(data.len(), ctx.n, "evaluation vector must have length n");
        let op = ShoupVec::from_vec_in(ctx.q, data, quotients);
        Self { ctx, op }
    }

    /// Takes the operand apart into its `(values, quotients)` vectors, for
    /// the next operand to be built in.
    pub fn into_vecs(self) -> (Vec<u64>, Vec<u64>) {
        self.op.into_vecs()
    }

    /// The ring context this operand belongs to.
    pub fn ctx(&self) -> &Arc<RingContext> {
        &self.ctx
    }

    /// The underlying Shoup-form evaluation vector.
    pub fn shoup(&self) -> &ShoupVec {
        &self.op
    }
}

/// A polynomial in `Z_q[x]/(x^N + 1)`.
///
/// Values track which basis they are in; binary operations require matching
/// contexts and convert bases as needed ([`Poly::mul`] works in NTT form,
/// additions work in either form as long as both operands agree).
#[derive(Clone)]
pub struct Poly {
    ctx: Arc<RingContext>,
    form: PolyForm,
    data: Vec<u64>,
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Poly(n={}, q={}, form={:?}, data[..4]={:?})",
            self.ctx.n,
            self.ctx.q,
            self.form,
            &self.data[..self.data.len().min(4)]
        )
    }
}

impl PartialEq for Poly {
    fn eq(&self, other: &Self) -> bool {
        self.ctx.n == other.ctx.n
            && self.ctx.q == other.ctx.q
            && self.clone().into_coeff().data == other.clone().into_coeff().data
    }
}

impl Eq for Poly {}

impl Poly {
    /// The zero polynomial (coefficient form).
    pub fn zero(ctx: Arc<RingContext>) -> Self {
        let n = ctx.n;
        Self {
            ctx,
            form: PolyForm::Coeff,
            data: vec![0; n],
        }
    }

    /// Builds a polynomial from coefficients, reducing each mod `q`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn from_coeffs(ctx: Arc<RingContext>, mut coeffs: Vec<u64>) -> Self {
        assert_eq!(coeffs.len(), ctx.n, "coefficient vector must have length n");
        let q = ctx.q;
        for c in &mut coeffs {
            *c = q.reduce(*c);
        }
        Self {
            ctx,
            form: PolyForm::Coeff,
            data: coeffs,
        }
    }

    /// Builds a constant polynomial `c`.
    pub fn constant(ctx: Arc<RingContext>, c: u64) -> Self {
        let mut data = vec![0u64; ctx.n];
        data[0] = ctx.q.reduce(c);
        Self {
            ctx,
            form: PolyForm::Coeff,
            data,
        }
    }

    /// Builds a polynomial from signed coefficients (balanced representation).
    pub fn from_signed(ctx: Arc<RingContext>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n);
        let q = ctx.q;
        let data = coeffs.iter().map(|&c| q.from_signed(c)).collect();
        Self {
            ctx,
            form: PolyForm::Coeff,
            data,
        }
    }

    /// Returns the ring context.
    pub fn ctx(&self) -> &Arc<RingContext> {
        &self.ctx
    }

    /// Returns the current basis.
    pub fn form(&self) -> PolyForm {
        self.form
    }

    /// Returns the raw data in the current basis.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Consumes the polynomial, returning its raw data in the current basis.
    /// Pair with [`Poly::form`] (or [`Poly::into_ntt`]/[`Poly::into_coeff`]
    /// first) and rebuild with [`Poly::from_ntt_data`] /
    /// [`Poly::from_coeffs`]. Used by kernels that accumulate over raw
    /// slices (batched NTTs, lazy dyadic chains).
    pub fn into_data(self) -> Vec<u64> {
        self.data
    }

    /// Builds a polynomial already in evaluation (NTT) form from strictly
    /// reduced data. The inverse of `poly.into_ntt().into_data()`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n`; debug-panics if any value is `>= q`.
    pub fn from_ntt_data(ctx: Arc<RingContext>, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), ctx.n, "evaluation vector must have length n");
        debug_assert!(
            data.iter().all(|&x| x < ctx.q.value()),
            "NTT data must be reduced"
        );
        Self {
            ctx,
            form: PolyForm::Ntt,
            data,
        }
    }

    /// Builds a polynomial already in evaluation (NTT) form from *lazy*
    /// `[0, 2q)` representatives, as produced by the unreduced dyadic
    /// kernels. Values are kept as-is; downstream ops reduce lazily.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n`; debug-panics if any value is `>= 2q`.
    pub fn from_ntt_data_lazy(ctx: Arc<RingContext>, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), ctx.n, "evaluation vector must have length n");
        debug_assert!(
            data.iter().all(|&x| x < ctx.q.twice()),
            "lazy NTT data must be < 2q"
        );
        Self {
            ctx,
            form: PolyForm::Ntt,
            data,
        }
    }

    /// Returns the coefficients, converting from NTT form if needed.
    pub fn coeffs(&self) -> Vec<u64> {
        match self.form {
            PolyForm::Coeff => self.data.clone(),
            PolyForm::Ntt => {
                let mut d = self.data.clone();
                self.ctx.ntt.inverse(&mut d);
                d
            }
        }
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
                || (self.ctx.n == other.ctx.n && self.ctx.q == other.ctx.q),
            "polynomials from different rings"
        );
    }

    fn zip_with(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        self.assert_same_ring(other);
        let (a, b) = if self.form == other.form {
            (self.clone(), other.clone())
        } else {
            (self.clone().into_coeff(), other.clone().into_coeff())
        };
        let data = a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect();
        Self {
            ctx: self.ctx.clone(),
            form: a.form,
            data,
        }
    }

    /// Ring addition.
    pub fn add(&self, other: &Self) -> Self {
        let q = self.ctx.q;
        self.zip_with(other, |x, y| q.add(x, y))
    }

    /// Ring subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        let q = self.ctx.q;
        self.zip_with(other, |x, y| q.sub(x, y))
    }

    /// Ring negation.
    pub fn neg(&self) -> Self {
        let q = self.ctx.q;
        let data = self.data.iter().map(|&x| q.neg(x)).collect();
        Self {
            ctx: self.ctx.clone(),
            form: self.form,
            data,
        }
    }

    /// Ring multiplication via NTT.
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_same_ring(other);
        let a = self.clone().into_ntt();
        let b = other.clone().into_ntt();
        let q = self.ctx.q;
        let data = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| q.mul(x, y))
            .collect();
        Self {
            ctx: self.ctx.clone(),
            form: PolyForm::Ntt,
            data,
        }
    }

    /// Precomputes this polynomial as a reusable multiplication operand:
    /// evaluation form with per-slot Shoup quotients. Worth it whenever the
    /// polynomial multiplies more than one other polynomial (plaintext
    /// diagonals, key-switching keys, fixed masks).
    pub fn to_operand(&self) -> PolyOperand {
        let eval = self.clone().into_ntt();
        PolyOperand::from_ntt_data(eval.ctx, eval.data)
    }

    /// Ring multiplication by a precomputed operand: one pass of
    /// `mul_shoup` per slot, no Barrett reduction. When `self` is already in
    /// evaluation form (the common case for ciphertext components) no copy
    /// or transform of `self` is made.
    pub fn mul_operand(&self, other: &PolyOperand) -> Self {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx)
                || (self.ctx.n == other.ctx.n && self.ctx.q == other.ctx.q),
            "operand from a different ring"
        );
        let mut data = vec![0u64; self.ctx.n];
        match self.form {
            PolyForm::Ntt => self
                .ctx
                .ntt
                .dyadic_mul_shoup(&mut data, &self.data, &other.op),
            PolyForm::Coeff => {
                let a = self.clone().into_ntt();
                self.ctx.ntt.dyadic_mul_shoup(&mut data, &a.data, &other.op);
            }
        }
        Self {
            ctx: self.ctx.clone(),
            form: PolyForm::Ntt,
            data,
        }
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, c: u64) -> Self {
        let q = self.ctx.q;
        let c = q.reduce(c);
        let data = self.data.iter().map(|&x| q.mul(x, c)).collect();
        Self {
            ctx: self.ctx.clone(),
            form: self.form,
            data,
        }
    }

    /// Applies the Galois automorphism `x ↦ x^g` for odd `g`.
    ///
    /// Works in coefficient form: coefficient `i` of the input lands at
    /// position `i*g mod 2N` with a sign flip when the reduced exponent
    /// crosses `N` (because `x^N = -1`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (such maps are not ring automorphisms here).
    pub fn galois(&self, g: usize) -> Self {
        assert!(g % 2 == 1, "Galois element must be odd");
        let n = self.ctx.n;
        let q = self.ctx.q;
        let src = self.clone().into_coeff();
        let mut data = vec![0u64; n];
        for (i, &c) in src.data.iter().enumerate() {
            let e = (i * g) % (2 * n);
            if e < n {
                data[e] = q.add(data[e], c);
            } else {
                data[e - n] = q.sub(data[e - n], c);
            }
        }
        Self {
            ctx: self.ctx.clone(),
            form: PolyForm::Coeff,
            data,
        }
    }

    /// Applies the Galois automorphism `x ↦ x^g` directly in the evaluation
    /// basis via the slot permutation `perm` (see
    /// [`NttTables::galois_permutation`]). Semantically identical to
    /// [`Poly::galois`], but costs one gather instead of an inverse NTT,
    /// a coefficient permutation, and (for NTT-form consumers) a forward
    /// NTT — the primitive behind hoisted rotations in `pi-he`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` was built for a different ring degree.
    pub fn galois_ntt(&self, perm: &crate::ntt::GaloisPerm) -> Self {
        assert_eq!(perm.n(), self.ctx.n, "permutation from a different ring");
        let src = self.clone().into_ntt();
        let mut data = vec![0u64; self.ctx.n];
        perm.apply(&mut data, src.data());
        Self {
            ctx: self.ctx.clone(),
            form: PolyForm::Ntt,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn ctx(n: usize) -> Arc<RingContext> {
        Arc::new(RingContext::new(n, 30))
    }

    fn random_poly(ctx: &Arc<RingContext>, seed: u64) -> Poly {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = ctx.q().value();
        Poly::from_coeffs(
            ctx.clone(),
            (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect(),
        )
    }

    #[test]
    fn add_sub_roundtrip() {
        let ctx = ctx(64);
        let a = random_poly(&ctx, 1);
        let b = random_poly(&ctx, 2);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), Poly::zero(ctx.clone()));
        assert_eq!(a.add(&a.neg()), Poly::zero(ctx));
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let ctx = ctx(64);
        let a = random_poly(&ctx, 3);
        let b = random_poly(&ctx, 4);
        let c = random_poly(&ctx, 5);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn mul_operand_matches_mul() {
        let ctx = ctx(64);
        let a = random_poly(&ctx, 40);
        let b = random_poly(&ctx, 41);
        let op = b.to_operand();
        assert_eq!(a.mul_operand(&op), a.mul(&b));
        // Operand reuse across many multiplicands.
        for seed in 50..54 {
            let c = random_poly(&ctx, seed);
            assert_eq!(c.mul_operand(&op), c.mul(&b));
        }
    }

    #[test]
    fn ntt_data_roundtrip() {
        let ctx = ctx(32);
        let a = random_poly(&ctx, 60);
        let data = a.clone().into_ntt().into_data();
        let back = Poly::from_ntt_data(ctx, data);
        assert_eq!(back, a);
    }

    #[test]
    fn mul_by_constant_one_is_identity() {
        let ctx = ctx(32);
        let a = random_poly(&ctx, 6);
        let one = Poly::constant(ctx.clone(), 1);
        assert_eq!(a.mul(&one), a);
    }

    #[test]
    fn mul_by_x_shifts_negacyclically() {
        let ctx = ctx(8);
        let q = ctx.q();
        let a = Poly::from_coeffs(ctx.clone(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let mut x = vec![0u64; 8];
        x[1] = 1;
        let x = Poly::from_coeffs(ctx.clone(), x);
        let shifted = a.mul(&x).into_coeff();
        // x * (1 + 2x + ... + 8x^7) = -8 + x + 2x^2 + ... + 7x^7
        let expect = vec![q.neg(8), 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(shifted.coeffs(), expect);
    }

    #[test]
    fn galois_is_automorphism() {
        let ctx = ctx(32);
        let a = random_poly(&ctx, 7);
        let b = random_poly(&ctx, 8);
        let g = 3usize;
        // phi(a*b) == phi(a)*phi(b), phi(a+b) == phi(a)+phi(b)
        assert_eq!(a.mul(&b).galois(g), a.galois(g).mul(&b.galois(g)));
        assert_eq!(a.add(&b).galois(g), a.galois(g).add(&b.galois(g)));
    }

    #[test]
    fn galois_identity_element() {
        let ctx = ctx(32);
        let a = random_poly(&ctx, 9);
        assert_eq!(a.galois(1), a);
    }

    #[test]
    fn galois_ntt_matches_coefficient_galois() {
        // The NTT-domain permutation must agree with the coefficient-domain
        // automorphism for every odd g, including the row-swap element 2n−1.
        for n in [8usize, 32, 256] {
            let ctx = Arc::new(RingContext::new(n, 30));
            let a = random_poly(&ctx, n as u64);
            for g in [1usize, 3, 5, 9, 27, 2 * n - 1] {
                let perm = ctx.ntt().galois_permutation(g);
                assert_eq!(perm.g(), g);
                assert_eq!(perm.n(), n);
                assert_eq!(
                    a.galois_ntt(&perm),
                    a.galois(g),
                    "galois_ntt mismatch at n={n}, g={g}"
                );
            }
        }
    }

    #[test]
    fn galois_perm_preserves_lazy_values() {
        // apply() is a pure gather: applied to arbitrary u64 data it must
        // reproduce exactly the source multiset (no reduction).
        let ctx = ctx(64);
        let perm = ctx.ntt().galois_permutation(3);
        let src: Vec<u64> = (0..64u64).map(|i| u64::MAX - i * i).collect();
        let mut dst = vec![0u64; 64];
        perm.apply(&mut dst, &src);
        let mut a = dst.clone();
        let mut b = src.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "gather must be a permutation of the source values");
    }

    #[test]
    #[should_panic]
    fn galois_perm_rejects_even_element() {
        let ctx = ctx(16);
        ctx.ntt().galois_permutation(4);
    }

    #[test]
    fn galois_inverse_composes_to_identity() {
        let ctx = ctx(32);
        let n = ctx.n();
        let a = random_poly(&ctx, 10);
        let g = 3usize;
        // order of 3 mod 2n divides n; composing g and its inverse is id.
        let m = Modulus::new(2 * n as u64);
        let g_inv = m.inv(g as u64).unwrap() as usize;
        assert_eq!(a.galois(g).galois(g_inv), a);
    }

    #[test]
    fn signed_constructor() {
        let ctx = ctx(8);
        let q = ctx.q().value();
        let a = Poly::from_signed(ctx, &[-1, 2, -3, 0, 0, 0, 0, 0]);
        assert_eq!(a.coeffs(), vec![q - 1, 2, q - 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn wrong_length_rejected() {
        let ctx = ctx(8);
        Poly::from_coeffs(ctx, vec![0; 4]);
    }
}
