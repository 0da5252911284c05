//! SIMD batch encoding of `Z_t` vectors into plaintext slots.
//!
//! Because `t ≡ 1 (mod 2N)` is prime, `x^N + 1` splits into `N` linear
//! factors mod `t` and a plaintext polynomial is determined by its values at
//! the `N` primitive 2N-th roots of unity — the *slots*. The Galois group of
//! the extension is `(Z/2N)^* = <3> × <-1>`, so slots arrange into 2 rows of
//! `N/2`: the automorphism `x ↦ x^{3^k}` rotates both rows left by `k` and
//! `x ↦ x^{-1}` swaps the rows.

use crate::cipher::Plaintext;
use crate::params::BfvParams;
use pi_field::Modulus;
use pi_poly::{NttTables, Poly};
use std::collections::HashMap;

/// Encoder/decoder between `Z_t` slot vectors and plaintext polynomials.
#[derive(Debug)]
pub struct BatchEncoder {
    params: BfvParams,
    t_ntt: NttTables,
    /// `slot_to_eval[j]` = index into the NTT evaluation vector holding
    /// slot `j` (slots `0..N/2` are row 0 at exponents `3^j`; slots
    /// `N/2..N` are row 1 at exponents `-3^j`).
    slot_to_eval: Vec<usize>,
}

impl BatchEncoder {
    /// Builds the encoder for a parameter set.
    pub fn new(params: &BfvParams) -> Self {
        let n = params.n();
        let t = params.t();
        let t_ntt = NttTables::new(n, t);
        // Evaluate f(x) = x with the NTT: output[i] is the evaluation point
        // value psi^{sigma(i)} itself, giving us the point at each index.
        let mut probe = vec![0u64; n];
        probe[1] = 1;
        t_ntt.forward(&mut probe);
        let mut point_to_index = HashMap::with_capacity(n);
        for (i, &alpha) in probe.iter().enumerate() {
            point_to_index.insert(alpha, i);
        }
        // psi = value at the index holding exponent 1: recover psi as any
        // evaluation point of odd order 2N; simplest is to compute all odd
        // powers of some point and match. We instead find psi directly:
        // points are psi^e for odd e, and psi itself is among them; identify
        // it as the point whose powers enumerate all others.
        let psi = Self::find_psi(t, &probe);
        let m = 2 * n as u64;
        let mut slot_to_eval = vec![0usize; n];
        let mut e = 1u64; // 3^0
        for j in 0..n / 2 {
            let p_pos = t.pow(psi, e);
            let p_neg = t.pow(psi, m - e);
            slot_to_eval[j] = *point_to_index
                .get(&p_pos)
                .expect("evaluation point for positive slot must exist");
            slot_to_eval[n / 2 + j] = *point_to_index
                .get(&p_neg)
                .expect("evaluation point for negative slot must exist");
            e = (e * 3) % m;
        }
        Self {
            params: params.clone(),
            t_ntt,
            slot_to_eval,
        }
    }

    /// Identifies a primitive 2N-th root psi among the evaluation points such
    /// that every point is an odd power of it (any point works; they are all
    /// primitive since 2N is a power of two and the points have exact order
    /// 2N).
    fn find_psi(t: Modulus, points: &[u64]) -> u64 {
        let n = points.len() as u64;
        for &p in points {
            if t.pow(p, n) == t.value() - 1 {
                return p;
            }
        }
        unreachable!("negacyclic evaluation points always have order 2N")
    }

    /// Number of slots (`N`).
    pub fn slot_count(&self) -> usize {
        self.params.n()
    }

    /// Number of slots per row (`N/2`) — the unit rotations act on.
    pub fn row_size(&self) -> usize {
        self.params.n() / 2
    }

    /// Encodes up to `N` values (zero-padded) into a plaintext.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > N` or any value is `>= t`.
    pub fn encode(&self, values: &[u64]) -> Plaintext {
        let n = self.params.n();
        assert!(values.len() <= n, "too many values for {} slots", n);
        let t = self.params.t();
        let mut evals = vec![0u64; n];
        for (j, &v) in values.iter().enumerate() {
            assert!(v < t.value(), "value {v} not reduced mod t");
            evals[self.slot_to_eval[j]] = v;
        }
        self.t_ntt.inverse(&mut evals);
        Plaintext {
            poly: Poly::from_coeffs(self.params.ring().clone(), evals),
        }
    }

    /// Encodes a vector of length `d` repeated periodically across all `N`
    /// slots (both rows). `d` must divide `N/2`; rotations by any amount then
    /// act as cyclic rotations of the length-`d` vector.
    ///
    /// # Panics
    ///
    /// Panics if `d` does not divide `N/2`.
    pub fn encode_periodic(&self, values: &[u64]) -> Plaintext {
        let d = values.len();
        let half = self.row_size();
        assert!(
            d > 0 && half.is_multiple_of(d),
            "period {d} must divide row size {half}"
        );
        let full: Vec<u64> = (0..self.params.n()).map(|i| values[i % half % d]).collect();
        // i % half maps row-1 slots onto the same column pattern as row 0.
        self.encode(&full)
    }

    /// Like [`BatchEncoder::encode_periodic`], but re-centers the resulting
    /// polynomial's coefficients from `[0, t)` into the balanced range
    /// `(−t/2, t/2]` (embedded in `Z_q` as `q − (t − c)` for `c > t/2`).
    ///
    /// The plaintext represents the same message modulo `t`, so slot-wise
    /// products decrypt identically; what changes is the *magnitude* of the
    /// coefficients a ciphertext gets multiplied by, which halves the rms
    /// noise amplification of `mul_plain` (uniform on `(−t/2, t/2]` has
    /// variance `t²/12` vs `t²/3` for `[0, t)`). Use for multiplication
    /// operands — Halevi–Shoup diagonals — never for additive encodings
    /// (`add_plain`/`sub_plain` scale by `Δ` and would wrap).
    pub fn encode_periodic_centered(&self, values: &[u64]) -> Plaintext {
        self.center(self.encode_periodic(values))
    }

    /// [`BatchEncoder::encode`], re-centered as
    /// [`BatchEncoder::encode_periodic_centered`] is: the packed diagonals'
    /// encoding.
    pub(crate) fn encode_centered(&self, values: &[u64]) -> Plaintext {
        self.center(self.encode(values))
    }

    fn center(&self, pt: Plaintext) -> Plaintext {
        let t = self.params.t().value();
        let q = self.params.q().value();
        let half_t = t / 2;
        let coeffs: Vec<u64> = pt
            .poly
            .coeffs()
            .iter()
            .map(|&c| if c > half_t { q - (t - c) } else { c })
            .collect();
        Plaintext {
            poly: Poly::from_coeffs(self.params.ring().clone(), coeffs),
        }
    }

    /// Encodes signed values (balanced representation mod `t`).
    pub fn encode_signed(&self, values: &[i64]) -> Plaintext {
        let t = self.params.t();
        let mapped: Vec<u64> = values.iter().map(|&v| t.from_signed(v)).collect();
        self.encode(&mapped)
    }

    /// Decodes a plaintext into its `N` slot values.
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        let mut evals = pt.poly.coeffs();
        let t = self.params.t();
        for e in &mut evals {
            *e = t.reduce(*e);
        }
        self.t_ntt.forward(&mut evals);
        self.slot_to_eval.iter().map(|&idx| evals[idx]).collect()
    }

    /// Decodes and returns only the first `d` slots.
    pub fn decode_prefix(&self, pt: &Plaintext, d: usize) -> Vec<u64> {
        let mut v = self.decode(pt);
        v.truncate(d);
        v
    }

    /// Parameters this encoder was built for.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeySet;
    use rand::{Rng, SeedableRng};

    fn setup() -> (BfvParams, BatchEncoder) {
        let params = BfvParams::small_test();
        let enc = BatchEncoder::new(&params);
        (params, enc)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (params, enc) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let t = params.t().value();
        let v: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..t)).collect();
        assert_eq!(enc.decode(&enc.encode(&v)), v);
    }

    #[test]
    fn short_vectors_zero_pad() {
        let (params, enc) = setup();
        let v = vec![7u64, 8, 9];
        let decoded = enc.decode(&enc.encode(&v));
        assert_eq!(&decoded[..3], &[7, 8, 9]);
        assert!(decoded[3..].iter().all(|&x| x == 0));
        let _ = params;
    }

    #[test]
    fn slotwise_addition_via_polys() {
        let (params, enc) = setup();
        let a = enc.encode(&[1, 2, 3, 4]);
        let b = enc.encode(&[10, 20, 30, 40]);
        // Slot-wise structure: adding polynomials adds slots. Note both
        // polys live in the Z_q ring; coefficients stay < t only if sums do,
        // so reduce through decode of sum of small values.
        let t = params.t();
        let sum_coeffs: Vec<u64> = a
            .poly
            .coeffs()
            .iter()
            .zip(b.poly.coeffs().iter())
            .map(|(&x, &y)| t.add(t.reduce(x), t.reduce(y)))
            .collect();
        let sum = Plaintext {
            poly: Poly::from_coeffs(params.ring().clone(), sum_coeffs),
        };
        assert_eq!(&enc.decode(&sum)[..4], &[11, 22, 33, 44]);
    }

    #[test]
    fn periodic_encoding_fills_all_slots() {
        let (params, enc) = setup();
        let pt = enc.encode_periodic(&[3, 1, 4, 1]);
        let decoded = enc.decode(&pt);
        for (i, &v) in decoded.iter().enumerate() {
            assert_eq!(v, [3u64, 1, 4, 1][i % (params.n() / 2) % 4]);
        }
    }

    #[test]
    fn signed_encoding() {
        let (params, enc) = setup();
        let pt = enc.encode_signed(&[-1, 2, -3]);
        let t = params.t().value();
        assert_eq!(&enc.decode(&pt)[..3], &[t - 1, 2, t - 3]);
    }

    #[test]
    #[should_panic]
    fn periodic_rejects_non_divisor() {
        let (_, enc) = setup();
        enc.encode_periodic(&[1, 2, 3]); // 3 does not divide N/2
    }

    #[test]
    fn encrypted_rotation_rotates_rows_left() {
        let params = BfvParams::small_test();
        let enc = BatchEncoder::new(&params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let keys = KeySet::generate(&params, &mut rng);
        let n = params.n();
        let half = n / 2;
        let v: Vec<u64> = (0..n as u64).collect();
        let ct = keys.secret.encrypt_seeded(&enc.encode(&v), &mut rng).0;
        for k in [1usize, 2, 5, 16] {
            let rotated = keys.galois.rotate_rows(&ct, k).expect("chain keys");
            let dec = enc.decode(&keys.secret.decrypt(&rotated));
            for j in 0..half {
                assert_eq!(
                    dec[j],
                    v[(j + k) % half],
                    "row0 slot {j} after rotation by {k}"
                );
                assert_eq!(dec[half + j], v[half + (j + k) % half]);
            }
        }
    }

    #[test]
    fn encrypted_column_swap() {
        let params = BfvParams::small_test();
        let enc = BatchEncoder::new(&params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let keys = KeySet::generate(&params, &mut rng);
        let n = params.n();
        let v: Vec<u64> = (0..n as u64).collect();
        let ct = keys.secret.encrypt_seeded(&enc.encode(&v), &mut rng).0;
        let swapped = keys.galois.rotate_columns(&ct).expect("row-swap key");
        let dec = enc.decode(&keys.secret.decrypt(&swapped));
        assert_eq!(&dec[..n / 2], &v[n / 2..]);
        assert_eq!(&dec[n / 2..], &v[..n / 2]);
    }

    #[test]
    fn rotation_preserves_periodic_structure() {
        let params = BfvParams::small_test();
        let enc = BatchEncoder::new(&params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let keys = KeySet::generate(&params, &mut rng);
        let d = 8usize;
        let v: Vec<u64> = (0..d as u64).map(|x| x + 100).collect();
        let ct = keys
            .secret
            .encrypt_seeded(&enc.encode_periodic(&v), &mut rng)
            .0;
        let rotated = keys.galois.rotate_rows(&ct, 3).expect("chain keys");
        let dec = enc.decode(&keys.secret.decrypt(&rotated));
        // Every slot i must now hold v[(i+3) mod d].
        let half = params.n() / 2;
        for (i, &x) in dec.iter().enumerate() {
            assert_eq!(x, v[(i % half + 3) % d], "slot {i}");
        }
    }
}
