//! CRT (residue number system) bases over word-sized NTT primes.
//!
//! A [`CrtBasis`] is an ordered set of distinct primes `q_0, ..., q_{k-1}`
//! (each a valid [`Modulus`], so `< 2^62`) with every constant the residue
//! subsystem needs precomputed at construction:
//!
//! * the full product `Q = ∏ q_i` and `⌊Q/2⌋` as [`U1024`] big integers;
//! * the pairwise inverses `q_j^{-1} mod q_i` for `j < i` driving Garner's
//!   mixed-radix composition.
//!
//! # Residue layout
//!
//! A value `x ∈ [0, Q)` is represented by its residue vector
//! `(x mod q_0, ..., x mod q_{k-1})`; [`CrtBasis::decompose`] and
//! [`CrtBasis::compose`] convert in both directions. Composition uses
//! Garner's algorithm: every intermediate stays word-sized (each mixed-radix
//! digit is `< q_i`), and the final value is assembled with big-integer
//! multiply-adds only — no big-integer modular reduction. Arithmetic *on*
//! residues is embarrassingly parallel across primes: `pi-poly` exploits
//! exactly this by running one Harvey NTT column per basis prime.
//!
//! Working bounds: the basis product must fit comfortably inside [`U1024`]
//! (construction asserts `bit_len(Q) ≤ 960`, leaving headroom for the
//! `t·x + Q/2` rounding numerators computed during BFV decoding).

use crate::bignum::U1024;
use crate::modulus::Modulus;
use crate::prime::is_prime;

/// An ordered CRT basis of distinct word-sized primes with precomputed
/// Garner constants.
///
/// # Examples
///
/// ```
/// use pi_field::{CrtBasis, U1024};
/// let basis = CrtBasis::new(&[97, 101, 103]).unwrap();
/// let x = U1024::from_u64(123_456);
/// let residues = basis.decompose(&x);
/// assert_eq!(residues, vec![123_456 % 97, 123_456 % 101, 123_456 % 103]);
/// assert_eq!(basis.compose(&residues), x);
/// ```
#[derive(Clone, Debug)]
pub struct CrtBasis {
    moduli: Vec<Modulus>,
    /// Q = product of all primes.
    product: U1024,
    /// floor(Q / 2), the centering threshold.
    half_product: U1024,
    /// garner_inv[i][j] = q_j^{-1} mod q_i for j < i.
    garner_inv: Vec<Vec<u64>>,
    /// The same constants in Shoup form, for the lane-parallel digit pass
    /// of [`CrtBasis::compose_many`].
    garner_inv_shoup: Vec<Vec<crate::modulus::ShoupMul>>,
}

/// Why a [`CrtBasis`] could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrtError {
    /// The basis had no primes.
    Empty,
    /// A modulus was not prime (value given).
    NotPrime(u64),
    /// The same prime appeared twice (value given).
    Duplicate(u64),
    /// The product of the primes exceeds the supported 960-bit bound.
    ProductTooLarge,
    /// The prime search could not find the requested number of primes
    /// (count given).
    NotEnoughPrimes(usize),
}

impl std::fmt::Display for CrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrtError::Empty => write!(f, "CRT basis must contain at least one prime"),
            CrtError::NotPrime(q) => write!(f, "CRT modulus {q} is not prime"),
            CrtError::Duplicate(q) => write!(f, "CRT modulus {q} appears more than once"),
            CrtError::ProductTooLarge => {
                write!(f, "CRT basis product exceeds the 960-bit working bound")
            }
            CrtError::NotEnoughPrimes(count) => {
                write!(
                    f,
                    "could not find {count} distinct NTT-friendly primes of the requested size"
                )
            }
        }
    }
}

impl std::error::Error for CrtError {}

impl CrtBasis {
    /// Builds a basis from distinct primes (each `< 2^62`).
    ///
    /// # Errors
    ///
    /// Returns a [`CrtError`] if the list is empty, contains a composite or
    /// repeated value, or the product overflows the working bound.
    ///
    /// # Panics
    ///
    /// Panics (inside [`Modulus::new`]) if a value is below 2 or at/above
    /// `2^62`.
    pub fn new(primes: &[u64]) -> Result<Self, CrtError> {
        if primes.is_empty() {
            return Err(CrtError::Empty);
        }
        for (i, &q) in primes.iter().enumerate() {
            if !is_prime(q) {
                return Err(CrtError::NotPrime(q));
            }
            if primes[..i].contains(&q) {
                return Err(CrtError::Duplicate(q));
            }
        }
        let moduli: Vec<Modulus> = primes.iter().map(|&q| Modulus::new(q)).collect();
        let mut product = U1024::ONE;
        let mut bits = 0u32;
        for &q in primes {
            bits += 64 - q.leading_zeros();
            if bits > 960 {
                return Err(CrtError::ProductTooLarge);
            }
            product = product.mul_u64(q);
        }
        if product.bit_len() > 960 {
            return Err(CrtError::ProductTooLarge);
        }
        let garner_inv: Vec<Vec<u64>> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| {
                primes[..i]
                    .iter()
                    .map(|&qj| m.inv(qj).expect("distinct primes are coprime"))
                    .collect()
            })
            .collect();
        let garner_inv_shoup: Vec<Vec<crate::modulus::ShoupMul>> = moduli
            .iter()
            .zip(&garner_inv)
            .map(|(m, row)| row.iter().map(|&inv| m.shoup(inv)).collect())
            .collect();
        let half_product = product.shr1();
        Ok(Self {
            moduli,
            product,
            half_product,
            garner_inv,
            garner_inv_shoup,
        })
    }

    /// Builds the basis of the `count` largest NTT-friendly primes below
    /// `2^bits` for ring degree `n` (each `≡ 1 (mod 2n)`).
    ///
    /// # Errors
    ///
    /// Returns [`CrtError::ProductTooLarge`] via [`CrtBasis::new`], or
    /// [`CrtError::NotEnoughPrimes`] when the prime search cannot find
    /// `count` primes below `2^bits`.
    pub fn with_ntt_primes(bits: u32, count: usize, n: u64) -> Result<Self, CrtError> {
        let primes = crate::prime::find_distinct_ntt_primes(bits, count, 2 * n)
            .ok_or(CrtError::NotEnoughPrimes(count))?;
        Self::new(&primes)
    }

    /// Number of primes in the basis.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The `i`-th modulus.
    pub fn modulus(&self, i: usize) -> Modulus {
        self.moduli[i]
    }

    /// All moduli, in basis order.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The basis product `Q`.
    pub fn product(&self) -> &U1024 {
        &self.product
    }

    /// `⌊Q/2⌋`, the threshold between "positive" and "negative" centered
    /// representatives.
    pub fn half_product(&self) -> &U1024 {
        &self.half_product
    }

    /// Total bit size of the basis product.
    pub fn product_bits(&self) -> u32 {
        self.product.bit_len()
    }

    /// Residues of an arbitrary big value: `(x mod q_0, ..., x mod q_{k-1})`.
    ///
    /// `x` need not be below `Q`; the residues then represent `x mod Q`.
    pub fn decompose(&self, x: &U1024) -> Vec<u64> {
        self.moduli.iter().map(|m| x.rem_u64(m.value())).collect()
    }

    /// Reconstructs the unique `x ∈ [0, Q)` with the given residues, by
    /// Garner mixed-radix conversion (word-sized modular arithmetic to find
    /// the digits, big-integer Horner to assemble the value).
    ///
    /// Residues may be unreduced; they are reduced per prime first.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != len()`.
    pub fn compose(&self, residues: &[u64]) -> U1024 {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        // Mixed-radix digits: t_i = (x_i - (t_0 + t_1 q_0 + ... ))·∏ q_j^{-1}
        // evaluated incrementally so every intermediate is < q_i.
        let k = self.len();
        let mut digits = vec![0u64; k];
        for i in 0..k {
            let m = &self.moduli[i];
            let mut v = m.reduce(residues[i]);
            for (&tj, &inv) in digits[..i].iter().zip(&self.garner_inv[i]) {
                // v = (v - t_j) * q_j^{-1} mod q_i
                v = m.mul(m.sub(v, m.reduce(tj)), inv);
            }
            digits[i] = v;
        }
        // x = t_0 + q_0·(t_1 + q_1·(t_2 + ...)): big-int Horner.
        let mut x = U1024::from_u64(digits[k - 1]);
        for i in (0..k - 1).rev() {
            x = x.mul_u64(self.moduli[i].value()).add_u64(digits[i]);
        }
        x
    }

    /// Batched [`CrtBasis::compose`] over residue-major columns
    /// (`cols[i][j]` = coefficient `j` modulo prime `i`): the Garner digit
    /// recurrence runs lane-parallel down whole coefficient columns (one
    /// Shoup pass per `(i, j < i)` prime pair instead of per coefficient),
    /// leaving only the big-int Horner per coefficient. Digits are the
    /// identical `[0, q_i)` values the scalar recurrence produces — the
    /// Shoup rewrite `(v − t_j)·q_j^{-1} = v·q_j^{-1} − t_j·q_j^{-1} (mod
    /// q_i)` changes the instruction mix, not the result — so the returned
    /// values equal per-coefficient [`CrtBasis::compose`] exactly.
    ///
    /// Residues may be unreduced (the first Shoup pass reduces them). This
    /// is the decrypt-boundary batch path; the scalar `compose` remains the
    /// differential oracle.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the basis size or the
    /// columns have unequal lengths.
    pub fn compose_many(&self, cols: &[Vec<u64>]) -> Vec<U1024> {
        let k = self.len();
        assert_eq!(cols.len(), k, "residue column count mismatch");
        let n = cols[0].len();
        for col in cols {
            assert_eq!(col.len(), n, "residue columns must have equal length");
        }
        let be = crate::simd::backend();
        // A fork on purpose, not a `Scalar` arm behind `garner_step`: the
        // oracle side is a different algorithm (per-coefficient `compose`,
        // no digit columns), and both sides belong to the RNS stack.
        if !be.is_vector() {
            let mut residues = vec![0u64; k];
            return (0..n)
                .map(|j| {
                    for (r, col) in residues.iter_mut().zip(cols) {
                        *r = col[j];
                    }
                    self.compose(&residues)
                })
                .collect();
        }
        // Digit columns: d_cols[i][j] = mixed-radix digit i of coefficient j.
        let mut d_cols: Vec<Vec<u64>> = Vec::with_capacity(k);
        for (i, col) in cols.iter().enumerate() {
            let m = self.moduli[i];
            let mut v = vec![0u64; n];
            // Reduce the raw residues via a Shoup multiply by 1 (exact
            // `x mod q` for any u64 input).
            crate::simd::mul_shoup_bcast(be, &m, &mut v, col, m.shoup(1));
            for (j, &inv) in self.garner_inv_shoup[i].iter().enumerate() {
                crate::simd::garner_step(be, &m, &mut v, &d_cols[j], inv);
            }
            d_cols.push(v);
        }
        (0..n)
            .map(|j| {
                let mut x = U1024::from_u64(d_cols[k - 1][j]);
                for i in (0..k - 1).rev() {
                    x = x.mul_u64(self.moduli[i].value()).add_u64(d_cols[i][j]);
                }
                x
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn basis_3x30() -> CrtBasis {
        CrtBasis::with_ntt_primes(30, 3, 1024).unwrap()
    }

    #[test]
    fn construction_constants() {
        let b = CrtBasis::new(&[97, 101, 103]).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.product(), &U1024::from_u64(97 * 101 * 103));
        assert_eq!(b.half_product(), &U1024::from_u64(97 * 101 * 103 / 2));
    }

    #[test]
    fn rejects_bad_bases() {
        assert!(matches!(CrtBasis::new(&[]), Err(CrtError::Empty)));
        assert!(matches!(
            CrtBasis::new(&[97, 91]),
            Err(CrtError::NotPrime(91))
        ));
        assert!(matches!(
            CrtBasis::new(&[97, 101, 97]),
            Err(CrtError::Duplicate(97))
        ));
        // 16 primes near 2^61 exceed 960 bits.
        let p = crate::prime::find_distinct_ntt_primes(61, 16, 2).unwrap();
        assert!(matches!(CrtBasis::new(&p), Err(CrtError::ProductTooLarge)));
    }

    #[test]
    fn prime_search_exhaustion_is_named() {
        // Below 2^8 with step 64 only one qualifying prime exists.
        assert_eq!(
            CrtBasis::with_ntt_primes(8, 3, 32).err(),
            Some(CrtError::NotEnoughPrimes(3))
        );
    }

    #[test]
    fn compose_decompose_small() {
        let b = CrtBasis::new(&[97, 101, 103]).unwrap();
        for x in [0u64, 1, 96, 97, 10_000, 97 * 101 * 103 - 1] {
            let big = U1024::from_u64(x);
            assert_eq!(b.compose(&b.decompose(&big)), big, "x = {x}");
        }
    }

    #[test]
    fn single_prime_basis_is_identity() {
        let b = CrtBasis::new(&[1_000_003]).unwrap();
        for x in [0u64, 5, 999_999] {
            assert_eq!(b.decompose(&U1024::from_u64(x)), vec![x]);
            assert_eq!(b.compose(&[x]), U1024::from_u64(x));
        }
    }

    #[test]
    fn ntt_basis_covers_requested_width() {
        let b = basis_3x30();
        assert!(b.product_bits() > 85);
        for m in b.moduli() {
            assert_eq!((m.value() - 1) % 2048, 0);
        }
    }

    /// Random big value strictly below the product, built from random
    /// residues (uniform over [0, Q) by CRT bijectivity).
    fn random_below_q(b: &CrtBasis, rng: &mut impl Rng) -> U1024 {
        let residues: Vec<u64> = b
            .moduli()
            .iter()
            .map(|m| rng.gen_range(0..m.value()))
            .collect();
        b.compose(&residues)
    }

    #[test]
    fn compose_is_below_product() {
        let b = basis_3x30();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let x = random_below_q(&b, &mut rng);
            assert!(x < *b.product());
        }
    }

    #[test]
    fn wide_basis_roundtrip() {
        // 8 primes of ~59 bits: ~472-bit values.
        let b = CrtBasis::with_ntt_primes(59, 8, 4096).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let x = random_below_q(&b, &mut rng);
            assert_eq!(b.compose(&b.decompose(&x)), x);
        }
    }

    proptest! {
        #[test]
        fn compose_decompose_roundtrip(seed in any::<u64>()) {
            let b = basis_3x30();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = random_below_q(&b, &mut rng);
            prop_assert_eq!(b.compose(&b.decompose(&x)), x);
        }

        #[test]
        fn decompose_compose_roundtrip(seed in any::<u64>()) {
            // The other direction: residues -> value -> residues.
            let b = basis_3x30();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let residues: Vec<u64> = b
                .moduli()
                .iter()
                .map(|m| rng.gen_range(0..m.value()))
                .collect();
            prop_assert_eq!(b.decompose(&b.compose(&residues)), residues);
        }

        #[test]
        fn compose_respects_crt_structure(x in 0u64..(1 << 40), y in 0u64..(1 << 40)) {
            // compose(decompose(x) + decompose(y)) == (x + y) mod Q, slotwise.
            let b = basis_3x30();
            let sum: Vec<u64> = b
                .moduli()
                .iter()
                .map(|m| m.add(m.reduce(x), m.reduce(y)))
                .collect();
            prop_assert_eq!(
                b.compose(&sum),
                U1024::from_u64(x).add_u64(y)
            );
        }
    }
}
