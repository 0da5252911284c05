//! RNS-BFV, linear core: homomorphic encryption over a multi-prime CRT
//! modulus, with the operations a DELPHI-family linear layer is made of.
//!
//! The single-prime BFV in [`crate::params`]/[`crate::keys`] tops out at a
//! 62-bit ciphertext modulus. This module puts the scheme on an
//! [`RnsPoly`] substrate so the ciphertext modulus is a product
//! `Q = ∏ q_i` of NTT-friendly primes, each residue column running the
//! word-sized kernels unchanged. What is here: parameters over one base
//! context ([`RnsBfvParams`]), secret/public key generation, public-key and
//! seed-expanded symmetric encryption, decryption with an exact noise
//! budget, and the linear homomorphic operations — `add`, `sub`, `neg`,
//! `add_plain` and plaintext multiplication against a precomputed
//! [`RnsOperand`]. Ciphertext–ciphertext multiplication, rotations and key
//! switching are not: the protocol in `pi-core` runs on the single-prime
//! types, and this module is the substrate its port onto an RNS basis
//! starts from (ROADMAP, "One HE stack").
//!
//! # Residue layout
//!
//! Every key and ciphertext polynomial is an [`RnsPoly`] over the base
//! context (`k` primes): one residue column per prime, normally kept in
//! evaluation (NTT) form, always strictly reduced per column. Big integers
//! appear only on the secret-key side, where decryption and the noise
//! gauge CRT-compose each coefficient
//! ([`pi_poly::RnsPoly::compose_coeffs`]) to apply the `round(t·x/Q)`
//! decoding map. With `k = 1` every operation agrees with the single-prime
//! path element for element.
//!
//! # Example
//!
//! ```
//! use pi_he::rns::{RnsBfvParams, RnsKeySet};
//! use rand::SeedableRng;
//!
//! let params = RnsBfvParams::new(1024, 40, 3, 16);
//! assert!(params.q_bits() > 100);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys = RnsKeySet::generate(&params, &mut rng);
//!
//! // Enc(3) · 5 + Enc(4) decrypts to the constant 19.
//! let mut three = vec![0u64; 1024];
//! three[0] = 3;
//! let mut four = vec![0u64; 1024];
//! four[0] = 4;
//! let mut five = vec![0u64; 1024];
//! five[0] = 5;
//! let c3 = keys.public.encrypt(&three, &mut rng);
//! let c4 = keys.public.encrypt(&four, &mut rng);
//! let out = c3.mul_plain(&params.plain_operand(&five)).add(&c4);
//! let dec = keys.secret.decrypt(&out);
//! assert_eq!(dec[0], 19);
//! assert!(dec[1..].iter().all(|&c| c == 0));
//! ```

use crate::keys::NoiseStage;
use pi_field::{CrtBasis, Modulus, U1024};
use pi_poly::rns::{RnsContext, RnsOperand, RnsPoly};
use pi_poly::{sample, PolyForm};
use rand::Rng;
use std::sync::Arc;

/// Parameters for an RNS-BFV instance.
///
/// Invariants (checked at construction):
/// * `n` is a power of two and every basis prime satisfies
///   `q_i ≡ 1 (mod 2n)` (per-residue NTT friendliness);
/// * `t` is prime and far below `Q` (noise headroom).
#[derive(Clone, Debug)]
pub struct RnsBfvParams {
    /// Plaintext modulus.
    t: Modulus,
    /// Base context: ciphertext ring over `Q = ∏ q_i`.
    base: Arc<RnsContext>,
    /// `Δ = ⌊Q/t⌋ mod q_i`, per base prime.
    delta_residues: Vec<u64>,
    /// `⌊Q/(2t)⌋`, the decryption-failure threshold.
    noise_threshold: U1024,
    /// Centered-binomial error parameter (variance k/2).
    pub error_k: u32,
}

impl RnsBfvParams {
    /// Builds a parameter set: ring degree `n`, `count` base primes of
    /// `prime_bits` bits each, and a `t_bits`-bit plaintext modulus.
    ///
    /// # Panics
    ///
    /// Panics if the prime search cannot find `count` distinct NTT-friendly
    /// primes of the requested size, or if the plaintext modulus leaves
    /// fewer than 30 bits of noise headroom.
    pub fn new(n: usize, prime_bits: u32, count: usize, t_bits: u32) -> Self {
        assert!(count >= 1, "need at least one base prime");
        assert!(
            t_bits + 30 <= prime_bits * count as u32,
            "plaintext modulus too close to ciphertext modulus"
        );
        let basis = CrtBasis::with_ntt_primes(prime_bits, count, n as u64)
            .unwrap_or_else(|e| panic!("no {count}-prime basis of {prime_bits}-bit primes: {e}"));
        let t = Modulus::new(pi_field::prime::find_prime_congruent(t_bits, 2));
        let q_big = *basis.product();
        let delta = q_big.div_rem(&U1024::from_u64(t.value())).0;
        let delta_residues = basis
            .moduli()
            .iter()
            .map(|m| delta.rem_u64(m.value()))
            .collect();
        let noise_threshold = q_big.div_rem(&U1024::from_u64(2 * t.value())).0;
        Self {
            t,
            base: Arc::new(RnsContext::new(n, Arc::new(basis))),
            delta_residues,
            noise_threshold,
            error_k: 8,
        }
    }

    /// Default parameter set: `N = 4096`, four 50-bit primes (200-bit `Q`),
    /// 20-bit `t`.
    pub fn default_rns() -> Self {
        Self::new(4096, 50, 4, 20)
    }

    /// A small, fast parameter set for unit tests: `N = 1024`, three 40-bit
    /// primes (>100-bit `Q`), 16-bit `t`.
    pub fn small_test() -> Self {
        Self::new(1024, 40, 3, 16)
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Number of base primes `k`.
    pub fn basis_len(&self) -> usize {
        self.base.len()
    }

    /// Total bit size of the ciphertext modulus `Q`.
    pub fn q_bits(&self) -> u32 {
        self.base.basis().product_bits()
    }

    /// Plaintext modulus.
    pub fn t(&self) -> Modulus {
        self.t
    }

    /// The base RNS ring context.
    pub fn base(&self) -> &Arc<RnsContext> {
        &self.base
    }

    /// Serialized size in bytes of a degree-1 ciphertext (`2·k·N` words).
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.basis_len() * self.n() * 8
    }

    /// Embeds a message (coefficients in `[0, t)`) into the base ring,
    /// scaled by `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != n` or any coefficient is `>= t`.
    fn encode_scaled(&self, m: &[u64]) -> RnsPoly {
        assert_eq!(m.len(), self.n(), "message must have length n");
        assert!(
            m.iter().all(|&c| c < self.t.value()),
            "message coefficients must be reduced mod t"
        );
        RnsPoly::from_coeffs(self.base.clone(), m).scale_residues(&self.delta_residues)
    }

    /// Precomputes a plaintext (coefficients in `[0, t)`, *unscaled*) as a
    /// reusable multiplication operand for [`RnsCiphertext::mul_plain`].
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != n` or any coefficient is `>= t`.
    pub fn plain_operand(&self, m: &[u64]) -> RnsOperand {
        assert_eq!(m.len(), self.n(), "message must have length n");
        assert!(
            m.iter().all(|&c| c < self.t.value()),
            "message coefficients must be reduced mod t"
        );
        RnsPoly::from_coeffs(self.base.clone(), m).to_operand()
    }

    /// `round(t·x/Q) mod t` for a composed value `x ∈ [0, Q)` — the BFV
    /// decoding map. Negative noise shows up as `x` just below `Q`, which
    /// rounds to `t` and wraps to `0`: no explicit centering needed.
    fn decode_coeff(&self, x: &U1024) -> u64 {
        let basis = self.base.basis();
        let num = x
            .mul_u64(self.t.value())
            .overflowing_add(basis.half_product())
            .0;
        let (quot, _) = num.div_rem(basis.product());
        // quot may equal t (x just below Q, i.e. small negative noise around
        // m = 0); rem_u64 folds that wrap.
        quot.rem_u64(self.t.value())
    }
}

/// The RNS-BFV secret key: a ternary ring element in per-residue NTT form.
#[derive(Clone, Debug)]
pub struct RnsSecretKey {
    params: RnsBfvParams,
    s: RnsPoly,
}

/// The RNS-BFV public key `(pk0, pk1) = (-(a·s + e), a)`.
#[derive(Clone, Debug)]
pub struct RnsPublicKey {
    params: RnsBfvParams,
    pk0: RnsPoly,
    pk1: RnsPoly,
}

/// A convenience bundle of RNS-BFV keys.
#[derive(Clone, Debug)]
pub struct RnsKeySet {
    /// The secret (decryption) key.
    pub secret: RnsSecretKey,
    /// The public (encryption) key.
    pub public: RnsPublicKey,
}

impl RnsKeySet {
    /// Generates a fresh secret/public key pair.
    pub fn generate<R: Rng + ?Sized>(params: &RnsBfvParams, rng: &mut R) -> Self {
        let secret = RnsSecretKey::generate(params, rng);
        let public = secret.public_key(rng);
        Self { secret, public }
    }
}

impl RnsSecretKey {
    /// Samples a fresh ternary secret key.
    pub fn generate<R: Rng + ?Sized>(params: &RnsBfvParams, rng: &mut R) -> Self {
        let s = sample::ternary_rns(params.base(), rng).into_ntt();
        Self {
            params: params.clone(),
            s,
        }
    }

    /// Parameters this key was generated for.
    pub fn params(&self) -> &RnsBfvParams {
        &self.params
    }

    /// Derives the public key `(-(a·s + e), a)`.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> RnsPublicKey {
        let params = &self.params;
        let a = sample::uniform_rns(params.base(), PolyForm::Ntt, rng);
        let e = sample::centered_binomial_rns(params.base(), rng, params.error_k).into_ntt();
        let pk0 = a.mul(&self.s).add(&e).neg();
        RnsPublicKey {
            params: params.clone(),
            pk0,
            pk1: a,
        }
    }

    /// Symmetric seed-expanded encryption: draws a 32-byte seed from `rng`,
    /// expands the uniform `c1 = a` from it deterministically, and returns
    /// `(Δm + e − a·s, a)` with the seed: a receiver holding `c0` and the
    /// seed regenerates `c1`, so a frame needs half the bytes of a full
    /// ciphertext (the single-prime form of this is
    /// [`crate::wire::ciphertext_to_bytes_seeded`]).
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != n` or any coefficient is `>= t`.
    pub fn encrypt_seeded<R: Rng + ?Sized>(
        &self,
        m: &[u64],
        rng: &mut R,
    ) -> (RnsCiphertext, [u8; 32]) {
        pi_trace::incr(pi_trace::Counter::HeEncrypt);
        let params = &self.params;
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let a = sample::uniform_rns(
            params.base(),
            PolyForm::Ntt,
            &mut crate::keys::expansion_rng(&seed),
        );
        let e = sample::centered_binomial_rns(params.base(), rng, params.error_k).into_ntt();
        let scaled = params.encode_scaled(m).into_ntt();
        let c0 = scaled.add(&e).sub(&a.mul(&self.s));
        (RnsCiphertext { polys: vec![c0, a] }, seed)
    }

    /// Decrypts a ciphertext: computes `Σ c_i·sⁱ`, CRT-composes each
    /// coefficient, and applies the `round(t·x/Q) mod t` decoding map.
    ///
    /// In full trace mode this also gauges the ciphertext's noise budget
    /// into the `he.noise_decrypt_bits` histogram (see
    /// [`RnsSecretKey::gauge_noise`]).
    pub fn decrypt(&self, ct: &RnsCiphertext) -> Vec<u64> {
        pi_trace::incr(pi_trace::Counter::HeDecrypt);
        self.gauge_noise(ct, NoiseStage::Decrypt);
        let v = self.inner_product(ct).into_coeff();
        v.compose_coeffs()
            .iter()
            .map(|x| self.params.decode_coeff(x))
            .collect()
    }

    /// Invariant noise budget in bits: `log2` of the headroom between the
    /// worst-coefficient noise magnitude and the failure threshold `Q/(2t)`,
    /// measured exactly via CRT composition (bit-length granularity). Zero
    /// means decryption is unreliable.
    pub fn noise_budget(&self, ct: &RnsCiphertext) -> u32 {
        let params = &self.params;
        let basis = params.base().basis();
        let q_big = basis.product();
        let v = self.inner_product(ct).into_coeff();
        let delta = q_big.div_rem(&U1024::from_u64(params.t.value())).0;
        let mut worst: u32 = u32::MAX;
        for x in v.compose_coeffs() {
            let m = params.decode_coeff(&x);
            // noise = x − Δ·m (mod Q), centered.
            let dm = delta.mul_u64(m);
            let e = if x >= dm {
                x.overflowing_sub(&dm).0
            } else {
                q_big.overflowing_sub(&dm.overflowing_sub(&x).0).0
            };
            let mag = if e > *basis.half_product() {
                q_big.overflowing_sub(&e).0
            } else {
                e
            };
            if mag >= params.noise_threshold {
                return 0;
            }
            let budget = params.noise_threshold.bit_len() - mag.bit_len().max(1);
            worst = worst.min(budget);
        }
        worst
    }

    /// Records `ct`'s noise budget (bits) into the per-`stage` trace
    /// histogram; full trace mode only (measuring costs a decrypt-sized
    /// pass). The decrypt boundary gauges automatically; call this
    /// explicitly at any other boundary where the secret key is held.
    pub fn gauge_noise(&self, ct: &RnsCiphertext, stage: NoiseStage) {
        if pi_trace::mode() == pi_trace::TraceMode::Full {
            pi_trace::record(stage.hist(), self.noise_budget(ct) as u64);
        }
    }

    /// `Σ c_i·sⁱ` in evaluation form.
    fn inner_product(&self, ct: &RnsCiphertext) -> RnsPoly {
        assert!(!ct.polys.is_empty(), "empty ciphertext");
        let mut acc = ct.polys[0].clone().into_ntt();
        let mut s_pow = self.s.clone();
        for (i, c) in ct.polys.iter().enumerate().skip(1) {
            acc = acc.add(&c.clone().into_ntt().mul(&s_pow));
            if i + 1 < ct.polys.len() {
                s_pow = s_pow.mul(&self.s);
            }
        }
        acc
    }
}

impl RnsPublicKey {
    /// Encrypts a message (coefficients in `[0, t)`):
    /// `(pk0·u + e₁ + Δm, pk1·u + e₂)`.
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != n` or any coefficient is `>= t`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &[u64], rng: &mut R) -> RnsCiphertext {
        pi_trace::incr(pi_trace::Counter::HeEncrypt);
        let params = &self.params;
        let u = sample::ternary_rns(params.base(), rng).into_ntt();
        let e1 = sample::centered_binomial_rns(params.base(), rng, params.error_k).into_ntt();
        let e2 = sample::centered_binomial_rns(params.base(), rng, params.error_k).into_ntt();
        let scaled = params.encode_scaled(m).into_ntt();
        let c0 = self.pk0.mul(&u).add(&e1).add(&scaled);
        let c1 = self.pk1.mul(&u).add(&e2);
        RnsCiphertext {
            polys: vec![c0, c1],
        }
    }

    /// Parameters this key was generated for.
    pub fn params(&self) -> &RnsBfvParams {
        &self.params
    }
}

/// An RNS-BFV ciphertext: `d + 1` polynomials decrypting to
/// `round(t/Q · Σ c_i·sⁱ)`. Every operation here takes and yields degree 1.
#[derive(Clone, Debug)]
pub struct RnsCiphertext {
    /// The component polynomials, lowest degree first.
    pub polys: Vec<RnsPoly>,
}

impl RnsCiphertext {
    /// Ciphertext degree (number of components minus one).
    pub fn degree(&self) -> usize {
        self.polys.len() - 1
    }

    fn zip_with(&self, other: &Self, f: impl Fn(&RnsPoly, &RnsPoly) -> RnsPoly) -> Self {
        assert_eq!(
            self.polys.len(),
            other.polys.len(),
            "ciphertext degree mismatch"
        );
        Self {
            polys: self
                .polys
                .iter()
                .zip(&other.polys)
                .map(|(a, b)| f(a, b))
                .collect(),
        }
    }

    /// Homomorphic addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a.add(b))
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a.sub(b))
    }

    /// Homomorphic negation.
    pub fn neg(&self) -> Self {
        Self {
            polys: self.polys.iter().map(|p| p.neg()).collect(),
        }
    }

    /// Adds a plaintext message (coefficients in `[0, t)`).
    pub fn add_plain(&self, m: &[u64], params: &RnsBfvParams) -> Self {
        let scaled = params.encode_scaled(m).into_ntt();
        let mut polys = self.polys.clone();
        polys[0] = polys[0].add(&scaled);
        Self { polys }
    }

    /// Multiplies by a precomputed plaintext operand (see
    /// [`RnsBfvParams::plain_operand`]). The plaintext is *not* `Δ`-scaled:
    /// `Enc(Δm)·p` decrypts to `m·p` with noise grown by roughly `‖p‖₁`.
    pub fn mul_plain(&self, op: &RnsOperand) -> Self {
        Self {
            polys: self.polys.iter().map(|p| p.mul_operand(op)).collect(),
        }
    }

    /// Serialized size in bytes (`(degree+1)·k·N` words).
    pub fn byte_len(&self) -> usize {
        self.polys.len() * self.polys[0].ctx().len() * self.polys[0].ctx().n() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (RnsBfvParams, RnsKeySet, rand::rngs::StdRng) {
        let params = RnsBfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let keys = RnsKeySet::generate(&params, &mut rng);
        (params, keys, rng)
    }

    fn random_message(params: &RnsBfvParams, rng: &mut impl Rng) -> Vec<u64> {
        let t = params.t().value();
        (0..params.n()).map(|_| rng.gen_range(0..t)).collect()
    }

    /// Negacyclic product of two messages mod t (the plaintext-ring
    /// semantics of `mul_plain`).
    #[allow(clippy::needless_range_loop)] // i, j index a, b, and out together
    fn negacyclic_mul_mod_t(a: &[u64], b: &[u64], t: Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let prod = t.mul(t.reduce(a[i]), t.reduce(b[j]));
                let k = i + j;
                if k < n {
                    out[k] = t.add(out[k], prod);
                } else {
                    out[k - n] = t.sub(out[k - n], prod);
                }
            }
        }
        out
    }

    #[test]
    fn params_meet_acceptance_floor() {
        let params = RnsBfvParams::small_test();
        assert!(params.basis_len() >= 3, "need a >=3-prime basis");
        assert!(params.q_bits() > 100, "need a >100-bit modulus");
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (params, keys, mut rng) = setup();
        let m = random_message(&params, &mut rng);
        let ct = keys.public.encrypt(&m, &mut rng);
        assert_eq!(keys.secret.decrypt(&ct), m);
        assert!(keys.secret.noise_budget(&ct) > 50);
        // The symmetric seed-expanded form: same message, and `c1` is the
        // seed's expansion, so `(c0, seed)` is all a receiver needs.
        let (sct, seed) = keys.secret.encrypt_seeded(&m, &mut rng);
        assert_eq!(keys.secret.decrypt(&sct), m);
        let a = sample::uniform_rns(
            params.base(),
            PolyForm::Ntt,
            &mut crate::keys::expansion_rng(&seed),
        );
        assert_eq!(sct.polys[1], a);
    }

    #[test]
    fn homomorphic_addition() {
        let (params, keys, mut rng) = setup();
        let a = random_message(&params, &mut rng);
        let b = random_message(&params, &mut rng);
        let t = params.t();
        let ca = keys.public.encrypt(&a, &mut rng);
        let cb = keys.public.encrypt(&b, &mut rng);
        let sum = keys.secret.decrypt(&ca.add(&cb));
        let diff = keys.secret.decrypt(&ca.sub(&cb));
        for i in 0..params.n() {
            assert_eq!(sum[i], t.add(a[i], b[i]));
            assert_eq!(diff[i], t.sub(a[i], b[i]));
        }
    }

    #[test]
    fn add_plain_and_neg() {
        let (params, keys, mut rng) = setup();
        let a = random_message(&params, &mut rng);
        let b = random_message(&params, &mut rng);
        let t = params.t();
        let ca = keys.public.encrypt(&a, &mut rng);
        let dec = keys.secret.decrypt(&ca.add_plain(&b, &params));
        for i in 0..params.n() {
            assert_eq!(dec[i], t.add(a[i], b[i]));
        }
        let neg = keys.secret.decrypt(&ca.neg());
        for i in 0..params.n() {
            assert_eq!(neg[i], t.neg(a[i]));
        }
    }

    #[test]
    fn mul_plain_matches_ring_product() {
        let (params, keys, mut rng) = setup();
        let a = random_message(&params, &mut rng);
        let b = random_message(&params, &mut rng);
        let ca = keys.public.encrypt(&a, &mut rng);
        let op = params.plain_operand(&b);
        let dec = keys.secret.decrypt(&ca.mul_plain(&op));
        assert_eq!(dec, negacyclic_mul_mod_t(&a, &b, params.t()));
    }

    #[test]
    fn single_prime_basis_still_works() {
        // k = 1 degenerates to single-modulus BFV: the whole linear core
        // must work over one residue column.
        let params = RnsBfvParams::new(1024, 55, 1, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let keys = RnsKeySet::generate(&params, &mut rng);
        let a = random_message(&params, &mut rng);
        let b = random_message(&params, &mut rng);
        let t = params.t();
        let ca = keys.public.encrypt(&a, &mut rng);
        let cb = keys.public.encrypt(&b, &mut rng);
        assert_eq!(keys.secret.decrypt(&ca), a);
        let sum = keys.secret.decrypt(&ca.add(&cb));
        for i in 0..params.n() {
            assert_eq!(sum[i], t.add(a[i], b[i]));
        }
        let prod = ca.mul_plain(&params.plain_operand(&b));
        assert_eq!(
            keys.secret.decrypt(&prod),
            negacyclic_mul_mod_t(&a, &b, params.t())
        );
    }

    #[test]
    #[should_panic(expected = "different rings")]
    fn mismatched_parameter_rings_rejected() {
        // Ciphertexts from a different parameter set (same n and prime
        // count, different prime size) must be refused, not silently
        // reduced against the wrong moduli.
        let (_, keys, mut rng) = setup();
        let other_params = RnsBfvParams::new(1024, 42, 3, 16);
        let other_keys = RnsKeySet::generate(&other_params, &mut rng);
        let m = vec![1u64; 1024];
        let ca = keys.public.encrypt(&m, &mut rng);
        let cb = other_keys.public.encrypt(&m, &mut rng);
        ca.add(&cb);
    }

    #[test]
    #[should_panic]
    fn unreduced_message_rejected() {
        let (params, keys, mut rng) = setup();
        let m = vec![params.t().value(); params.n()];
        keys.public.encrypt(&m, &mut rng);
    }
}
