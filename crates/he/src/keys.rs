//! Key generation, encryption, decryption, and Galois key switching — with
//! Halevi–Shoup *hoisting* for the rotation-heavy linear algebra.
//!
//! # Hoisting invariants
//!
//! A rotation by `k` applies the automorphism `φ_g` (`g = 3^k mod 2N`) and
//! key-switches `φ_g(c1)` back to `s`. The expensive part is the gadget
//! decomposition of `c1` plus one forward NTT per digit; the cheap part is
//! the dyadic accumulate against the keys. Because `φ_g` acts on NTT-form
//! data as a pure slot permutation ([`pi_poly::GaloisPerm`]) and
//! `Σ_i φ_g(d_i)·B^i = φ_g(c1)` for **any** decomposition `Σ d_i B^i = c1`
//! (`φ_g` is a ring homomorphism fixing scalars), the digits of `c1` can be
//! decomposed and NTT-transformed **once** ([`GaloisKeys::hoist`] →
//! [`HoistedCiphertext`]) and reused for every rotation: each
//! [`GaloisKeys::rotate_hoisted`] pays one gather per digit plus the dyadic
//! accumulates — **zero NTTs per rotation**. The permuted digits
//! `φ_g(d_i)` have the same coefficient magnitudes as `d_i` (a signed
//! permutation), so the usual key-switch noise bound is unchanged.
//!
//! Domains through the hoisted path: hoisted digits live in NTT form,
//! strictly reduced `[0, q)`; the permutation is a value-preserving gather,
//! so any lazy range survives it; accumulation runs in the `[0, 2q)` lazy
//! domain (`dyadic_mul_acc_shoup`) with a single `reduce_lazy` pass at the
//! end (or none, for callers that keep accumulating).
//!
//! # Key sets and gadget bases
//!
//! A key set is a list of (Galois element, gadget base) entries. The one
//! the protocol generates, uploads and admits is
//! [`crate::linalg::key_plan`] for the model's padded dimensions
//! ([`KeySet::generate_for_dims`]): baby rotations under the fine
//! [`BfvParams::bsgs_log_base`] gadget (see its docs for the noise
//! rationale), giant rotations under the ordinary
//! [`BfvParams::ks_log_base`], an element claimed in both roles once per
//! base — and nothing else. [`KeySet::generate`] holds the power-of-two
//! composition chain instead: the key set of [`GaloisKeys::rotate_rows`],
//! which only the `matvec_naive` oracle, tests and benches call. A hoisted
//! ciphertext can only be rotated by an entry whose gadget matches its own
//! decomposition ([`KeyError::GadgetMismatch`] otherwise).
//!
//! Every key digit comes out of one generator (`KeyDigits`), in
//! evaluation form from its first word to its last: a party that rotates
//! builds operands from it ([`KeySet`]), a party that only uploads writes
//! the wire frame from it ([`crate::wire::galois_keys_frame`]) and never
//! holds an operand, a quotient or a slot permutation.
//!
//! All key-switch paths (hoisted and not) draw their digit buffers from
//! one thread-local scratch set, so steady-state rotations allocate only
//! their output polynomials and a fixed worker pool retains one set per
//! worker.

use crate::cipher::{Ciphertext, Plaintext};
use crate::params::{gadget_digits, BfvParams};
use pi_poly::{sample, GaloisPerm, Poly, PolyForm, PolyOperand, ShoupVec};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;

/// Errors from key-dependent operations: what a rotation returns when the
/// key set does not hold the entry it needs. A server rejects the request
/// with it; an oracle or a test `.expect`s at the call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// No key-switching key was generated for the requested Galois element.
    MissingGaloisKey(usize),
    /// The requested element has a key, but not under the gadget base the
    /// operation decomposes at (a hoisted ciphertext's digits, say, cannot
    /// be consumed by a key of a different `log_base`).
    GadgetMismatch {
        /// The requested Galois element.
        g: usize,
        /// log2 of the decomposition base of the key that is held.
        key_log_base: u32,
        /// log2 of the decomposition base the operation needs.
        wanted_log_base: u32,
    },
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::MissingGaloisKey(g) => {
                write!(f, "no Galois key for element {g}")
            }
            KeyError::GadgetMismatch {
                g,
                key_log_base,
                wanted_log_base,
            } => write!(
                f,
                "Galois key for element {g} uses base 2^{key_log_base} but the \
                 operation decomposes at base 2^{wanted_log_base}"
            ),
        }
    }
}

impl std::error::Error for KeyError {}

/// Computes the Galois element realizing a row rotation by `k` slots:
/// `3^k mod 2n` (the generator of the rotation subgroup is 3).
pub fn rotation_element(n: usize, k: usize) -> usize {
    let m = 2 * n;
    let mut acc = 1usize;
    let mut base = 3usize % m;
    let mut e = k;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * base % m;
        }
        base = base * base % m;
        e >>= 1;
    }
    acc
}

/// Scratch buffers for the key-switch hot paths: gadget digit buffers and
/// a coefficient-form staging buffer. Every rotation (hoisted or not)
/// borrows these instead of allocating `digits × n` words per call. There
/// is no permutation target: rotations fold the Galois permutation into
/// the gather of `NttTables::dyadic_mul_acc_shoup_gather2`, so no permuted
/// copy is ever materialized.
#[derive(Default)]
struct KsScratch {
    coeff: Vec<u64>,
    digits: Vec<Vec<u64>>,
}

impl KsScratch {
    /// Makes `count` digit buffers of length `n` available (contents
    /// unspecified — callers fully overwrite).
    fn ensure_digits(&mut self, count: usize, n: usize) {
        if self.digits.len() < count {
            self.digits.resize_with(count, Vec::new);
        }
        let mut grown = 0u64;
        for d in &mut self.digits[..count] {
            if d.capacity() < n {
                grown += 1;
            }
            d.resize(n, 0);
        }
        // Steady state is zero: a warm scratch set never reallocates.
        pi_trace::add(pi_trace::Counter::KsScratchAlloc, grown);
    }
}

thread_local! {
    static KS_SCRATCH: RefCell<KsScratch> = RefCell::new(KsScratch::default());
}

fn with_ks_scratch<T>(f: impl FnOnce(&mut KsScratch) -> T) -> T {
    KS_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Writes the base-`2^log_base` digits of `coeff` into `digits`
/// (least-significant first), fully overwriting each buffer.
fn decompose_into(coeff: &[u64], log_base: u32, digits: &mut [Vec<u64>]) {
    let mask = if log_base == 64 {
        u64::MAX
    } else {
        (1u64 << log_base) - 1
    };
    for (d, out) in digits.iter_mut().enumerate() {
        let shift = d as u32 * log_base;
        out.clear();
        out.extend(coeff.iter().map(|&c| (c >> shift) & mask));
    }
}

/// The BFV secret key: a ternary ring element `s`, plus the same element
/// re-embedded in the down-switch response ring (see
/// [`BfvParams::down_ring`]) so [`SecretKey::decrypt_switched`] can run
/// entirely under `q'`.
#[derive(Clone, Debug)]
pub struct SecretKey {
    params: BfvParams,
    s: Poly,
    /// `s` embedded in the down ring, NTT form.
    s_down: Poly,
}

/// The BFV public key: an RLWE sample `(pk0, pk1) = (-(a·s + e), a)`, where
/// `a` is expanded from a 32-byte PRG seed. The wire layer transmits
/// `(pk0, seed)` and regenerates `a` on the far side.
#[derive(Clone, Debug)]
pub struct PublicKey {
    params: BfvParams,
    pk0: Poly,
    pk1: Poly,
    /// PRG seed `pk1` was expanded from.
    seed: [u8; 32],
}

/// The deterministic PRG stream a 32-byte wire seed expands to. Uniform
/// polynomials are rejection-sampled from its `next_u64` words
/// ([`sample::uniform_into`]) and **are** evaluation-form data as drawn —
/// no transform runs on either party — so expansion is bit-identical on
/// every `PI_SIMD` backend and across machines.
pub(crate) fn expansion_rng(seed: &[u8; 32]) -> StdRng {
    StdRng::from_seed(*seed)
}

/// The one generator of key-switching digits, shared by the party that
/// keeps its keys as operands ([`KeySet`]) and the party that only ships
/// them ([`crate::wire::galois_keys_frame`]): digit `i` of the key for
/// `(g, B)` is `k0 = B^i·s(x^g) − (a·s + e)` with `a` the next polynomial
/// of the set's seed stream — drawn in evaluation form, never transformed —
/// and `e` a fresh centered-binomial error from the caller's RNG, so
/// `k0 + a·s = B^i·s(x^g) − e`.
///
/// Everything lives in evaluation form and in three buffers reused across
/// the whole set: a digit costs two sampler passes, one forward NTT (of
/// `e`), one fused multiply-accumulate against `s` (a Shoup operand built
/// once) and one subtract pass; `B^i·s(x^g)` advances by one Shoup
/// multiply per digit.
pub(crate) struct KeyDigits<'a> {
    secret: &'a SecretKey,
    s_op: ShoupVec,
    s_coeff: Poly,
    /// The seed every `a` of the set expands from, in entry, then digit,
    /// order — the order [`GaloisKeys::from_wire_parts`] replays.
    pub(crate) seed: [u8; 32],
    a_stream: StdRng,
    /// `B^i · s(x^g)` for the digit in hand.
    sg: Vec<u64>,
    k0: Vec<u64>,
    a: Vec<u64>,
}

impl KeyDigits<'_> {
    /// Generates the key for Galois element `g` under gadget base
    /// `2^log_base`, handing each digit's `(k0, a)` — strictly reduced
    /// evaluation-form words, valid for the call — to `digit`, least
    /// significant first.
    pub(crate) fn entry<R: Rng + ?Sized>(
        &mut self,
        g: usize,
        log_base: u32,
        rng: &mut R,
        mut digit: impl FnMut(&[u64], &[u64]),
    ) {
        let params = &self.secret.params;
        let q = params.q();
        let ntt = params.ring().ntt();
        let base = q.shoup(q.reduce(1 << log_base));
        self.sg = self.s_coeff.galois(g).into_ntt().into_data();
        for i in 0..gadget_digits(q, log_base) {
            if i > 0 {
                for x in &mut self.sg {
                    *x = q.mul_shoup(*x, base);
                }
            }
            sample::uniform_into(q, &mut self.a, &mut self.a_stream);
            sample::centered_binomial_into(q, &mut self.k0, rng, params.error_k);
            ntt.forward(&mut self.k0);
            // e + a·s in the lazy [0, 2q) domain, then out of it.
            ntt.dyadic_mul_acc_shoup(&mut self.k0, &self.a, &self.s_op);
            for (x, &sg) in self.k0.iter_mut().zip(&self.sg) {
                *x = q.sub(sg, q.reduce_lazy(*x));
            }
            digit(&self.k0, &self.a);
        }
    }
}

/// One key-set entry: the Galois element, the gadget base its key was
/// generated under, the per-digit Shoup-form key pairs, and the precomputed
/// NTT-slot permutation realizing the automorphism.
#[derive(Clone, Debug)]
pub(crate) struct GaloisKeyEntry {
    /// The Galois element `g` this entry switches `s(x^g)` back from.
    pub(crate) g: usize,
    /// log2 of this entry's gadget decomposition base.
    pub(crate) log_base: u32,
    /// `(k0_i, k1_i)` per digit, satisfying `k0_i + k1_i·s = B^i·s(x^g) + e_i`.
    pub(crate) digits: Vec<(PolyOperand, PolyOperand)>,
    /// `x ↦ x^g` as an evaluation-slot permutation.
    perm: GaloisPerm,
}

/// Key-switching keys for a list of (Galois element, gadget base) entries,
/// enabling slot rotations.
///
/// Keys are stored as precomputed Shoup operands ([`PolyOperand`]): each
/// `(k0_i, k1_i)` pair multiplies every decomposed digit of every rotated
/// ciphertext, so the one-time quotient precomputation at generation pays
/// for itself on the first rotation. An element needed under two gadgets
/// (a rotation that is a BSGS baby at one dimension and a giant at
/// another) holds **one entry per base**.
#[derive(Clone, Debug)]
pub struct GaloisKeys {
    params: BfvParams,
    /// Entries in generation (= wire) order: for keys this crate generated,
    /// ascending element, coarsest base first within one.
    keys: Vec<GaloisKeyEntry>,
    /// PRG seed every gadget `a` column was expanded from (wire layer).
    seed: [u8; 32],
}

/// A ciphertext decomposed once for many rotations (Halevi–Shoup
/// hoisting): both components in evaluation form plus the gadget digits of
/// `c1`, already forward-NTT'd, under the [`BfvParams::bsgs_log_base`]
/// base. Build with [`GaloisKeys::hoist`]; consume with
/// [`GaloisKeys::rotate_hoisted`].
///
/// All stored vectors are strictly reduced `[0, q)` NTT-form data.
#[derive(Clone, Debug)]
pub struct HoistedCiphertext {
    /// log2 of the gadget base the digits were decomposed under.
    log_base: u32,
    /// `c0` in evaluation form.
    c0: Vec<u64>,
    /// `c1` in evaluation form (used for the identity rotation).
    c1: Vec<u64>,
    /// NTT-form gadget digits of `c1`, least significant first.
    digits: Vec<Vec<u64>>,
}

impl HoistedCiphertext {
    /// log2 of the gadget base the digits were decomposed under.
    pub fn log_base(&self) -> u32 {
        self.log_base
    }

    /// Number of gadget digits held.
    pub fn num_digits(&self) -> usize {
        self.digits.len()
    }
}

/// A convenience bundle of all keys one party generates.
#[derive(Clone, Debug)]
pub struct KeySet {
    /// The secret (decryption) key — stays with the client.
    pub secret: SecretKey,
    /// The public (encryption) key — shared with the server.
    pub public: PublicKey,
    /// Rotation keys — shared with the server.
    pub galois: GaloisKeys,
}

/// The power-of-two composition elements `3^(2^j) mod 2N` plus the row
/// swap `2N−1` — the key set [`GaloisKeys::rotate_rows`] composes from.
fn power_of_two_elements(n: usize) -> Vec<usize> {
    let mut elements = Vec::new();
    let m = 2 * n;
    let mut g = 3usize;
    let mut step = 1usize;
    while step < n / 2 {
        elements.push(g);
        g = (g * g) % m;
        step *= 2;
    }
    elements.push(m - 1);
    elements
}

impl KeySet {
    /// Generates a fresh key set with rotation keys for all power-of-two
    /// row rotations and the row swap, under the ordinary gadget: enough
    /// for [`GaloisKeys::rotate_rows`] to compose any rotation in log
    /// steps. This is the `matvec_naive` oracle's key set; the protocol
    /// never generates or uploads it.
    pub fn generate<R: Rng + ?Sized>(params: &BfvParams, rng: &mut R) -> Self {
        let mut chain: Vec<(usize, u32)> = power_of_two_elements(params.n())
            .into_iter()
            .map(|g| (g, params.ks_log_base))
            .collect();
        chain.sort_unstable();
        Self::generate_with(params, &chain, rng)
    }

    /// Generates a fresh key set whose rotation keys are exactly
    /// [`crate::linalg::key_plan`] for the given padded dimensions — what
    /// [`crate::linalg::matvec_precomputed`] reads at those dimensions and
    /// nothing more. This is what a DELPHI-style client generates for the
    /// linear-layer dimensions the model metadata announces, and the only
    /// set a server admits for that model.
    pub fn generate_for_dims<R: Rng + ?Sized>(
        params: &BfvParams,
        dims: &[usize],
        rng: &mut R,
    ) -> Self {
        Self::generate_with(params, &crate::linalg::key_plan(params, dims), rng)
    }

    fn generate_with<R: Rng + ?Sized>(
        params: &BfvParams,
        entries: &[(usize, u32)],
        rng: &mut R,
    ) -> Self {
        let secret = SecretKey::generate(params, rng);
        let public = secret.public_key(rng);
        let galois = secret.galois_keys(entries, rng);
        Self {
            secret,
            public,
            galois,
        }
    }
}

impl SecretKey {
    /// Samples a fresh ternary secret key.
    pub fn generate<R: Rng + ?Sized>(params: &BfvParams, rng: &mut R) -> Self {
        let s_coeff = sample::ternary(params.ring(), rng);
        // Re-embed the ternary coefficients in the down ring while the
        // coefficient form is at hand (values are {0, 1, q−1} ↦ {0, ±1}).
        let q = params.q();
        let signed: Vec<i64> = s_coeff.data().iter().map(|&c| q.to_signed(c)).collect();
        let s_down = Poly::from_signed(params.down_ring().clone(), &signed).into_ntt();
        Self {
            params: params.clone(),
            s: s_coeff.into_ntt(),
            s_down,
        }
    }

    /// Parameters this key was generated for.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Derives the public key `(-(a·s + e), a)` with `a` expanded from a
    /// fresh 32-byte seed (drawn from `rng`), so the wire layer can ship
    /// the seed instead of the uniform polynomial.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> PublicKey {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let a = sample::uniform(self.params.ring(), PolyForm::Ntt, &mut expansion_rng(&seed));
        let e = sample::centered_binomial(self.params.ring(), rng, self.params.error_k);
        let pk0 = a.mul(&self.s).add(&e.into_ntt()).neg();
        PublicKey {
            params: self.params.clone(),
            pk0,
            pk1: a,
            seed,
        }
    }

    /// Symmetric (secret-key) encryption with a seed-expanded mask:
    /// `c1 = a` is drawn from a fresh 32-byte PRG seed and
    /// `c0 = Δm + e − a·s`, so `c0 + c1·s = Δm + e` exactly as for
    /// public-key ciphertexts. Returns the ciphertext together with the
    /// seed; the wire layer transmits `(c0, seed)` — half the bytes of a
    /// two-polynomial frame — and the receiver regenerates `c1`.
    pub fn encrypt_seeded<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        rng: &mut R,
    ) -> (Ciphertext, [u8; 32]) {
        pi_trace::incr(pi_trace::Counter::HeEncrypt);
        let params = &self.params;
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let a = sample::uniform(params.ring(), PolyForm::Ntt, &mut expansion_rng(&seed));
        let e = sample::centered_binomial(params.ring(), rng, params.error_k);
        let scaled = pt.poly.scale(params.delta());
        let c0 = scaled.into_ntt().add(&e.into_ntt()).sub(&a.mul(&self.s));
        (Ciphertext { c0, c1: a }, seed)
    }

    /// Generates one key-switching key per `(element, log2 base)` entry,
    /// in the order given (which becomes the wire order): the operand
    /// builder over [`KeyDigits`], for parties that will rotate with the
    /// keys themselves (the oracle, tests, the ledger's replays). A party
    /// that only uploads them writes the frame instead
    /// ([`crate::wire::galois_keys_frame`]) — same digits, same bytes.
    fn galois_keys<R: Rng + ?Sized>(&self, entries: &[(usize, u32)], rng: &mut R) -> GaloisKeys {
        let ring = self.params.ring();
        let operand = |x: &[u64]| PolyOperand::from_ntt_data(ring.clone(), x.to_vec());
        let mut gen = self.key_digits(rng);
        let mut keys = Vec::with_capacity(entries.len());
        for &(g, log_base) in entries {
            let mut digits = Vec::with_capacity(gadget_digits(self.params.q(), log_base));
            gen.entry(g, log_base, rng, |k0, a| {
                digits.push((operand(k0), operand(a)))
            });
            keys.push(GaloisKeyEntry {
                g,
                log_base,
                digits,
                perm: ring.ntt().galois_permutation(g),
            });
        }
        GaloisKeys {
            params: self.params.clone(),
            keys,
            seed: gen.seed,
        }
    }

    /// Starts the digit generator of one key set, drawing the set's
    /// 32-byte `a` seed from `rng`.
    pub(crate) fn key_digits<R: Rng + ?Sized>(&self, rng: &mut R) -> KeyDigits<'_> {
        let n = self.params.n();
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        KeyDigits {
            secret: self,
            s_op: ShoupVec::new(self.params.q(), self.s.data()),
            s_coeff: self.s.clone().into_coeff(),
            seed,
            a_stream: expansion_rng(&seed),
            sg: Vec::new(),
            k0: vec![0; n],
            a: vec![0; n],
        }
    }

    /// Decrypts a ciphertext to a plaintext (coefficients in `[0, t)`).
    ///
    /// In full trace mode this also gauges the ciphertext's noise budget
    /// into the `he.noise_decrypt_bits` histogram (see
    /// [`SecretKey::gauge_noise`]).
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        pi_trace::incr(pi_trace::Counter::HeDecrypt);
        self.gauge_noise(ct, NoiseStage::Decrypt);
        let v = ct.c0.add(&ct.c1.mul(&self.s)).into_coeff();
        let q = self.params.q().value();
        let t = self.params.t().value();
        let coeffs: Vec<u64> = v
            .coeffs()
            .iter()
            .map(|&c| {
                // round(t * c / q) mod t
                let prod = c as u128 * t as u128;
                let rounded = ((prod + q as u128 / 2) / q as u128) as u64;
                rounded % t
            })
            .collect();
        Plaintext {
            poly: Poly::from_coeffs(self.params.ring().clone(), coeffs),
        }
    }

    /// Decrypts a ciphertext living in the down-switch response ring (see
    /// [`crate::Ciphertext::mod_switch_down`]): same rounding decode as
    /// [`SecretKey::decrypt`], but under `q' =` [`BfvParams::down_q`] with
    /// the re-embedded secret. Accepts full-modulus ciphertexts too (the
    /// down ring may be the ciphertext ring when headroom is tight).
    pub fn decrypt_switched(&self, ct: &Ciphertext) -> Plaintext {
        pi_trace::incr(pi_trace::Counter::HeDecrypt);
        let down = self.params.down_ring();
        assert!(
            ct.c0.ctx().n() == down.n() && ct.c0.ctx().q() == down.q(),
            "ciphertext is not in the down-switch ring"
        );
        let v = ct.c0.add(&ct.c1.mul(&self.s_down)).into_coeff();
        let q = down.q().value();
        let t = self.params.t().value();
        let coeffs: Vec<u64> = v
            .coeffs()
            .iter()
            .map(|&c| {
                let prod = c as u128 * t as u128;
                let rounded = ((prod + q as u128 / 2) / q as u128) as u64;
                rounded % t
            })
            .collect();
        Plaintext {
            poly: Poly::from_coeffs(self.params.ring().clone(), coeffs),
        }
    }

    /// Returns the invariant noise budget of a ciphertext in bits: the
    /// headroom between the current noise magnitude and the decryption
    /// failure threshold `q/(2t)`. Zero means decryption is unreliable.
    pub fn noise_budget(&self, ct: &Ciphertext) -> u32 {
        let v = ct.c0.add(&ct.c1.mul(&self.s)).into_coeff();
        let q = self.params.q().value();
        let t = self.params.t().value();
        let delta = self.params.delta();
        // noise = v - Δ·round(t v / q); measure max |noise| over coefficients.
        let mut max_noise = 0u64;
        for &c in v.coeffs().iter() {
            let m = (((c as u128 * t as u128) + q as u128 / 2) / q as u128) as u64 % t;
            let centered = (c as i128 - (delta as i128 * m as i128)).rem_euclid(q as i128);
            let noise = if centered > q as i128 / 2 {
                (q as i128 - centered) as u64
            } else {
                centered as u64
            };
            max_noise = max_noise.max(noise);
        }
        let threshold = q / (2 * t);
        if max_noise == 0 {
            return 64 - threshold.leading_zeros();
        }
        if max_noise >= threshold {
            return 0;
        }
        (threshold / max_noise).ilog2()
    }

    /// Records `ct`'s noise budget (bits) into the per-`stage` trace
    /// histogram. Active in full trace mode only: measuring the budget costs
    /// a decrypt-sized pass, which the `counters` overhead contract does not
    /// allow. The decrypt boundary gauges automatically; the encrypt
    /// boundary needs the secret key, so call this explicitly where one is
    /// held (the client after encrypting its randomness).
    pub fn gauge_noise(&self, ct: &Ciphertext, stage: NoiseStage) {
        if pi_trace::mode() == pi_trace::TraceMode::Full {
            pi_trace::record(stage.hist(), self.noise_budget(ct) as u64);
        }
    }
}

/// Which pipeline boundary a noise-budget gauge was taken at. Feeds the
/// `he.noise_*_bits` histograms the 2–4-bit-cliff parameter work consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseStage {
    /// Right after encryption (fresh ciphertext).
    Encrypt,
    /// Right before decryption (end of the homomorphic pipeline).
    Decrypt,
}

impl NoiseStage {
    pub(crate) fn hist(self) -> pi_trace::Hist {
        match self {
            NoiseStage::Encrypt => pi_trace::Hist::NoiseEncryptBits,
            NoiseStage::Decrypt => pi_trace::Hist::NoiseDecryptBits,
        }
    }
}

impl PublicKey {
    /// Encrypts a plaintext: `(pk0·u + e1 + Δm, pk1·u + e2)`.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        pi_trace::incr(pi_trace::Counter::HeEncrypt);
        let params = &self.params;
        let u = sample::ternary(params.ring(), rng).into_ntt();
        let e1 = sample::centered_binomial(params.ring(), rng, params.error_k);
        let e2 = sample::centered_binomial(params.ring(), rng, params.error_k);
        let scaled = pt.poly.scale(params.delta());
        let c0 = self.pk0.mul(&u).add(&e1.into_ntt()).add(&scaled.into_ntt());
        let c1 = self.pk1.mul(&u).add(&e2.into_ntt());
        Ciphertext { c0, c1 }
    }

    /// Encrypts the all-zero plaintext (used to re-randomize shares).
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ciphertext {
        let zero = Plaintext {
            poly: Poly::zero(self.params.ring().clone()),
        };
        self.encrypt(&zero, rng)
    }

    /// Parameters this key was generated for.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// In-memory size in bytes (two ring polynomials, flat words). The
    /// serialized wire frame is smaller — packed `pk0` plus a 32-byte seed
    /// (see `pi_he::wire`).
    pub fn byte_len(&self) -> usize {
        2 * self.params.n() * 8
    }

    pub(crate) fn wire_parts(&self) -> (&Poly, &[u8; 32]) {
        (&self.pk0, &self.seed)
    }

    /// Rebuilds the key from its wire parts, regenerating `pk1` from the
    /// seed stream.
    pub(crate) fn from_wire_parts(params: &BfvParams, pk0: Poly, seed: [u8; 32]) -> Self {
        pi_trace::incr(pi_trace::Counter::WireSeedExpand);
        let pk1 = sample::uniform(params.ring(), PolyForm::Ntt, &mut expansion_rng(&seed));
        Self {
            params: params.clone(),
            pk0,
            pk1,
            seed,
        }
    }
}

impl GaloisKeys {
    /// Returns whether a key-switching key exists for Galois element `g`
    /// (under any gadget base).
    pub fn contains(&self, g: usize) -> bool {
        self.keys.iter().any(|e| e.g == g)
    }

    /// The `(Galois element, log2 gadget base)` of every entry, in wire
    /// order — what a server compares against [`crate::linalg::key_plan`]
    /// before it admits an uploaded set.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.keys.iter().map(|e| (e.g, e.log_base))
    }

    /// The entry for element `g` under gadget base `2^log_base`.
    fn entry(&self, g: usize, log_base: u32) -> Result<&GaloisKeyEntry, KeyError> {
        let held = || self.keys.iter().filter(move |e| e.g == g);
        held()
            .find(|e| e.log_base == log_base)
            .ok_or_else(|| match held().next() {
                Some(other) => KeyError::GadgetMismatch {
                    g,
                    key_log_base: other.log_base,
                    wanted_log_base: log_base,
                },
                None => KeyError::MissingGaloisKey(g),
            })
    }

    /// Applies Galois automorphism `g` to a ciphertext and key-switches the
    /// result back to the original secret key.
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] if the set holds no key for `g`.
    pub fn apply(&self, ct: &Ciphertext, g: usize) -> Result<Ciphertext, KeyError> {
        if !self.contains(g) {
            return Err(KeyError::MissingGaloisKey(g));
        }
        self.switch(&ct.galois_raw(g), g)
    }

    /// Key-switches a ciphertext whose `c1` component is keyed under
    /// `s(x^g)` back to `s`.
    ///
    /// The cold-rotation path: all decomposed digits are NTT-transformed in
    /// one batched stage-major pass ([`pi_poly::NttTables::forward_many`]),
    /// then accumulated against the Shoup-form keys in the lazy `[0, 2q)`
    /// domain with one final correction — `mul_shoup + add_lazy` per slot
    /// per digit, no Barrett reduction. Digit buffers come from the
    /// thread-local scratch set, so the only allocations are the two output
    /// polynomials. (For repeated rotations of one ciphertext,
    /// [`GaloisKeys::hoist`] + [`GaloisKeys::rotate_hoisted`] also skips
    /// all per-rotation NTTs.)
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] if the set holds no key for `g`.
    pub fn switch(&self, ct: &Ciphertext, g: usize) -> Result<Ciphertext, KeyError> {
        let _span = pi_trace::span!("he.keyswitch");
        pi_trace::incr(pi_trace::Counter::HeKeySwitch);
        // The first entry of an element is its coarsest gadget: fewest
        // digits, fewest NTTs — the right choice when the rotation's noise
        // only adds.
        let entry = (self.keys.iter())
            .find(|e| e.g == g)
            .ok_or(KeyError::MissingGaloisKey(g))?;
        let ring = self.params.ring();
        let ntt = ring.ntt();
        let q = self.params.q();
        let n = self.params.n();
        with_ks_scratch(|s| {
            // c1 into coefficient form in the scratch staging buffer.
            s.coeff.clear();
            s.coeff.extend_from_slice(ct.c1.data());
            if ct.c1.form() == PolyForm::Ntt {
                ntt.inverse(&mut s.coeff);
            }
            let m = entry.digits.len();
            s.ensure_digits(m, n);
            decompose_into(&s.coeff, entry.log_base, &mut s.digits[..m]);
            {
                let mut batch: Vec<&mut [u64]> =
                    s.digits[..m].iter_mut().map(|d| d.as_mut_slice()).collect();
                ntt.forward_many(&mut batch);
            }
            let mut c0 = ct.c0.clone().into_ntt().into_data();
            let mut c1 = vec![0u64; n];
            for (d, (k0, k1)) in s.digits[..m].iter().zip(&entry.digits) {
                ntt.dyadic_mul_acc_shoup(&mut c0, d, k0.shoup());
                ntt.dyadic_mul_acc_shoup(&mut c1, d, k1.shoup());
            }
            for x in c0.iter_mut().chain(c1.iter_mut()) {
                *x = q.reduce_lazy(*x);
            }
            Ok(Ciphertext {
                c0: Poly::from_ntt_data(ring.clone(), c0),
                c1: Poly::from_ntt_data(ring.clone(), c1),
            })
        })
    }

    /// Decomposes a ciphertext once for many rotations (Halevi–Shoup
    /// hoisting): `c1`'s gadget digits under the fine
    /// [`BfvParams::bsgs_log_base`] base, forward-NTT'd in one batched
    /// pass, plus both components in evaluation form. Each subsequent
    /// [`GaloisKeys::rotate_hoisted`] then costs one slot gather per digit
    /// plus the dyadic key accumulates — no NTTs and no decomposition.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext's ring does not match these keys' ring
    /// (same-degree/different-modulus inputs would otherwise silently
    /// produce garbage).
    pub fn hoist(&self, ct: &Ciphertext) -> HoistedCiphertext {
        let _span = pi_trace::span!("he.hoist");
        pi_trace::incr(pi_trace::Counter::HeHoist);
        let params = &self.params;
        let ntt = params.ring().ntt();
        let n = params.n();
        let ct_ctx = ct.c0.ctx();
        assert!(
            ct_ctx.n() == n && ct_ctx.q() == params.q(),
            "ciphertext ring (n={}, q={}) does not match the Galois keys' ring (n={}, q={})",
            ct_ctx.n(),
            ct_ctx.q(),
            n,
            params.q()
        );
        let log_base = params.bsgs_log_base;
        let m = params.bsgs_digits;
        // c1 in coefficient form (strictly reduced, as decompose requires).
        let mut c1_coeff = ct.c1.data().to_vec();
        if ct.c1.form() == PolyForm::Ntt {
            ntt.inverse(&mut c1_coeff);
        }
        let mut digits: Vec<Vec<u64>> = vec![Vec::with_capacity(n); m];
        decompose_into(&c1_coeff, log_base, &mut digits);
        {
            let mut batch: Vec<&mut [u64]> = digits.iter_mut().map(|d| d.as_mut_slice()).collect();
            ntt.forward_many(&mut batch);
        }
        let c0 = ct.c0.clone().into_ntt().into_data();
        let c1 = ct.c1.clone().into_ntt().into_data();
        HoistedCiphertext {
            log_base,
            c0,
            c1,
            digits,
        }
    }

    /// Rotates the SIMD rows left by `k` from a hoisted decomposition: one
    /// gather per digit (the automorphism in the NTT domain) plus the lazy
    /// key accumulates — zero NTTs per rotation. `k = 0` reconstructs the
    /// original ciphertext.
    ///
    /// Unlike [`GaloisKeys::rotate_rows`] this does **not** compose
    /// power-of-two keys: it requires an entry for the element
    /// `3^k mod 2N` itself, under the same gadget base as the hoisting (a
    /// baby rotation of [`crate::linalg::key_plan`]).
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] without a direct rotation key,
    /// [`KeyError::GadgetMismatch`] with one under another gadget base only.
    ///
    /// # Panics
    ///
    /// Panics if `k >= N/2`.
    pub fn rotate_hoisted(&self, h: &HoistedCiphertext, k: usize) -> Result<Ciphertext, KeyError> {
        let ring = self.params.ring();
        let q = self.params.q();
        let n = self.params.n();
        let mut c0 = vec![0u64; n];
        let mut c1 = vec![0u64; n];
        self.rotate_hoisted_lazy(h, k, &mut c0, &mut c1)?;
        for x in c0.iter_mut().chain(c1.iter_mut()) {
            *x = q.reduce_lazy(*x);
        }
        Ok(Ciphertext {
            c0: Poly::from_ntt_data(ring.clone(), c0),
            c1: Poly::from_ntt_data(ring.clone(), c1),
        })
    }

    /// Core of the hoisted rotation: writes the rotated pair into `out0`/
    /// `out1` in the lazy `[0, 2q)` NTT domain without the final
    /// correction, so the BSGS inner loop can keep multiply-accumulating.
    pub(crate) fn rotate_hoisted_lazy(
        &self,
        h: &HoistedCiphertext,
        k: usize,
        out0: &mut [u64],
        out1: &mut [u64],
    ) -> Result<(), KeyError> {
        let n = self.params.n();
        assert!(k < n / 2, "rotation amount must be below N/2");
        pi_trace::incr(pi_trace::Counter::HeRotation);
        let ntt = self.params.ring().ntt();
        if k == 0 {
            out0.copy_from_slice(&h.c0);
            out1.copy_from_slice(&h.c1);
            return Ok(());
        }
        let entry = self.entry(rotation_element(n, k), h.log_base)?;
        // c0 of the rotated ciphertext starts as φ_g(c0): a pure gather
        // in the evaluation basis, still strictly reduced.
        entry.perm.apply(out0, &h.c0);
        out1.fill(0);
        for (d, (k0, k1)) in h.digits.iter().zip(&entry.digits) {
            // The permutation rides the gather of the fused kernel: one
            // pass over each digit, no scratch polynomial.
            ntt.dyadic_mul_acc_shoup_gather2(out0, out1, d, &entry.perm, k0.shoup(), k1.shoup());
        }
        Ok(())
    }

    /// Rotates a lazy evaluation-form pair (`inner0`, `inner1`, both in
    /// `[0, 2q)`) left by `k` and **accumulates** the result into
    /// `acc0`/`acc1` (also `[0, 2q)`): the fused giant-step of the BSGS
    /// matvec. One inverse NTT (of `inner1`), one gadget decomposition and
    /// digit-batch forward NTT under the ordinary
    /// [`BfvParams::ks_log_base`] gadget, then permuted dyadic accumulates
    /// — the rotated ciphertext is never materialized.
    ///
    /// `inner1` is consumed as scratch (left in coefficient form).
    pub(crate) fn rotate_acc_lazy(
        &self,
        k: usize,
        inner0: &[u64],
        inner1: &mut [u64],
        acc0: &mut [u64],
        acc1: &mut [u64],
    ) -> Result<(), KeyError> {
        let params = &self.params;
        let ntt = params.ring().ntt();
        let q = params.q();
        let n = params.n();
        assert!(k < n / 2, "rotation amount must be below N/2");
        pi_trace::incr(pi_trace::Counter::HeRotation);
        if k == 0 {
            for (a, &v) in acc0.iter_mut().zip(inner0.iter()) {
                *a = q.add_lazy(*a, v);
            }
            for (a, &v) in acc1.iter_mut().zip(inner1.iter()) {
                *a = q.add_lazy(*a, v);
            }
            return Ok(());
        }
        let entry = self.entry(rotation_element(n, k), params.ks_log_base)?;
        with_ks_scratch(|s| {
            // Decompose φ-free: digits of inner1, permuted afterwards.
            ntt.inverse(inner1); // [0, 2q) lazy in → [0, q) coeff out
            let m = entry.digits.len();
            s.ensure_digits(m, n);
            decompose_into(inner1, entry.log_base, &mut s.digits[..m]);
            {
                let mut batch: Vec<&mut [u64]> =
                    s.digits[..m].iter_mut().map(|d| d.as_mut_slice()).collect();
                ntt.forward_many(&mut batch);
            }
            for (d, (k0, k1)) in s.digits[..m].iter().zip(&entry.digits) {
                ntt.dyadic_mul_acc_shoup_gather2(
                    acc0,
                    acc1,
                    d,
                    &entry.perm,
                    k0.shoup(),
                    k1.shoup(),
                );
            }
            // φ_g(inner0) folds into acc0 as a permuted lazy addition —
            // also a single gather pass, no scratch polynomial.
            ntt.gather_add_lazy(acc0, inner0, &entry.perm);
        });
        Ok(())
    }

    /// Rotates the SIMD rows of a batch-encoded ciphertext left by `k`
    /// positions (each of the two length-`N/2` rows rotates cyclically),
    /// composing the power-of-two rotation keys of [`KeySet::generate`].
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] if a needed composition key is
    /// missing.
    ///
    /// # Panics
    ///
    /// Panics if `k >= N/2` (an out-of-domain rotation is a caller bug, not
    /// a key-provisioning failure).
    pub fn rotate_rows(&self, ct: &Ciphertext, k: usize) -> Result<Ciphertext, KeyError> {
        let half = self.params.n() / 2;
        assert!(k < half, "rotation amount must be below N/2");
        let m = 2 * self.params.n();
        let mut result = ct.clone();
        let mut g = 3usize;
        let mut bit = 1usize;
        let mut remaining = k;
        while remaining > 0 {
            if remaining & bit != 0 {
                result = self.apply(&result, g)?;
                remaining -= bit;
            }
            g = (g * g) % m;
            bit <<= 1;
        }
        Ok(result)
    }

    /// Swaps the two SIMD rows (`x ↦ x^{2N-1}`).
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] if the row-swap key is missing.
    pub fn rotate_columns(&self, ct: &Ciphertext) -> Result<Ciphertext, KeyError> {
        self.apply(ct, 2 * self.params.n() - 1)
    }

    /// Parameters these keys were generated for.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Size of the key polynomials as flat words: two per decomposition
    /// digit per entry (baby-step entries carry more digits under their
    /// finer gadget). The serialized wire frame is roughly 4× smaller
    /// — only the packed `k0` halves plus one 32-byte seed cross the wire
    /// (see `pi_he::wire::galois_keys_to_bytes`) — and the key set in
    /// memory is twice as large: [`GaloisKeys::resident_byte_len`].
    pub fn byte_len(&self) -> usize {
        let digits: usize = self.keys.iter().map(|e| e.digits.len()).sum();
        digits * 2 * self.params.n() * 8
    }

    /// Heap bytes this key set occupies: every key polynomial is a Shoup
    /// operand (values **and** quotients), and every entry carries its
    /// slot permutation.
    pub fn resident_byte_len(&self) -> usize {
        let perms: usize = self.keys.iter().map(|e| e.perm.byte_len()).sum();
        2 * self.byte_len() + perms
    }

    /// [`GaloisKeys::resident_byte_len`] of the key set with these
    /// `(Galois element, log2 gadget base)` entries, before one exists: what
    /// a byte-budgeted table needs to know to make room *before* a frame is
    /// decoded.
    pub fn resident_byte_len_of(params: &BfvParams, entries: &[(usize, u32)]) -> usize {
        let n = params.n();
        let digits = entries.iter().map(|&(_, b)| gadget_digits(params.q(), b));
        digits.sum::<usize>() * 4 * n * 8 + entries.len() * GaloisPerm::byte_len_at(n)
    }

    /// Exact length of this key set's serialized wire frame
    /// ([`crate::wire::galois_keys_to_bytes`]): packed `k0` halves plus one
    /// 32-byte seed.
    pub fn wire_byte_len(&self) -> usize {
        let total_digits: usize = self.keys.iter().map(|e| e.digits.len()).sum();
        crate::wire::galois_keys_wire_len(&self.params, self.keys.len(), total_digits)
    }

    /// Serialized size a **per-rotation** key set would need at dimension
    /// `dim`, on the same wire basis as the real frames (packed `k0`
    /// halves, seed-expanded `a` halves): one ordinary-gadget key for each
    /// of the `dim − 1` rotation amounts a hoisted (non-composing) diagonal
    /// matvec would otherwise demand. The BSGS set materializes only
    /// `⌈√dim⌉ + ⌈dim/⌈√dim⌉⌉ − 2` elements; comparing the serialized
    /// Galois frame length against this figure is the offline key-storage
    /// win reported in `pi-core`'s `CostReport`.
    pub fn per_rotation_set_byte_len(params: &BfvParams, dim: usize) -> usize {
        let elements = dim.saturating_sub(1);
        crate::wire::galois_keys_wire_len(params, elements, elements * params.ks_digits)
    }

    pub(crate) fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Entries in wire order — the exact order the seed stream was consumed
    /// in at generation.
    pub(crate) fn wire_entries(&self) -> &[GaloisKeyEntry] {
        &self.keys
    }

    /// Rebuilds keys from wire parts: the `k0` halves (strictly reduced
    /// evaluation-form words, wire order) plus the seed, replaying the `a`
    /// expansion stream exactly as key generation consumed it. Each
    /// unpacked or expanded vector becomes its operand's value half as it
    /// is; only quotients are computed. `spare` and `perms` are what a
    /// retired key set left ([`GaloisKeys::into_vecs`], its `k0` vectors
    /// already taken for `parts`): digit for digit in wire order the `a`
    /// column and both quotient vectors are built in its vectors, and an
    /// entry keeps its slot permutation where that already realizes `g`;
    /// whatever is missing is allocated.
    pub(crate) fn from_wire_parts(
        params: &BfvParams,
        seed: [u8; 32],
        parts: Vec<(usize, u32, Vec<Vec<u64>>)>,
        spare: Vec<DigitVecs>,
        perms: Vec<GaloisPerm>,
    ) -> Self {
        pi_trace::incr(pi_trace::Counter::WireSeedExpand);
        let ring = params.ring();
        let n = params.n();
        let mut a_stream = expansion_rng(&seed);
        let (mut spare, mut perms) = (spare.into_iter(), perms.into_iter());
        let mut keys = Vec::with_capacity(parts.len());
        for (g, log_base, k0s) in parts {
            let mut digits = Vec::with_capacity(k0s.len());
            for k0 in k0s {
                let DigitVecs {
                    mut a,
                    k0_quotients,
                    a_quotients,
                    ..
                } = spare.next().unwrap_or_default();
                // Whatever a reused vector holds, the expansion overwrites;
                // a fresh one comes zeroed from the allocator, not by a pass
                // of ours.
                if a.len() != n {
                    a = vec![0; n];
                }
                sample::uniform_into(params.q(), &mut a, &mut a_stream);
                digits.push((
                    PolyOperand::from_ntt_data_in(ring.clone(), k0, k0_quotients),
                    PolyOperand::from_ntt_data_in(ring.clone(), a, a_quotients),
                ));
            }
            let kept = perms.next().filter(|p| p.g() == g && p.n() == n);
            keys.push(GaloisKeyEntry {
                g,
                log_base,
                digits,
                perm: kept.unwrap_or_else(|| ring.ntt().galois_permutation(g)),
            });
        }
        Self {
            params: params.clone(),
            keys,
            seed,
        }
    }

    /// Takes a key set nobody rotates with any more apart into what the
    /// next one can be built in: every digit's four vectors in wire order,
    /// and the slot permutations in entry order.
    pub(crate) fn into_vecs(self) -> (Vec<DigitVecs>, Vec<GaloisPerm>) {
        let mut vecs = Vec::new();
        let mut perms = Vec::with_capacity(self.keys.len());
        for entry in self.keys {
            for (k0, a) in entry.digits {
                let ((k0, k0_quotients), (a, a_quotients)) = (k0.into_vecs(), a.into_vecs());
                vecs.push(DigitVecs {
                    k0,
                    k0_quotients,
                    a,
                    a_quotients,
                });
            }
            perms.push(entry.perm);
        }
        (vecs, perms)
    }
}

/// The four vectors of one key digit: `k0` and `a`, values and quotients.
/// Empty vectors where there is nothing to reuse.
#[derive(Default)]
pub(crate) struct DigitVecs {
    pub(crate) k0: Vec<u64>,
    pub(crate) k0_quotients: Vec<u64>,
    pub(crate) a: Vec<u64>,
    pub(crate) a_quotients: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (BfvParams, KeySet, rand::rngs::StdRng) {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let keys = KeySet::generate(&params, &mut rng);
        (params, keys, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (params, keys, mut rng) = setup();
        use rand::Rng;
        let t = params.t().value();
        let coeffs: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..t)).collect();
        let pt = Plaintext {
            poly: Poly::from_coeffs(params.ring().clone(), coeffs.clone()),
        };
        let ct = keys.public.encrypt(&pt, &mut rng);
        let dec = keys.secret.decrypt(&ct);
        assert_eq!(dec.poly.coeffs(), coeffs);
        assert!(keys.secret.noise_budget(&ct) > 20);
    }

    #[test]
    fn homomorphic_addition() {
        let (params, keys, mut rng) = setup();
        let t = params.t();
        let a = Plaintext {
            poly: Poly::constant(params.ring().clone(), 5),
        };
        let b = Plaintext {
            poly: Poly::constant(params.ring().clone(), t.value() - 2),
        };
        let ca = keys.public.encrypt(&a, &mut rng);
        let cb = keys.public.encrypt(&b, &mut rng);
        let sum = keys.secret.decrypt(&ca.add(&cb));
        assert_eq!(sum.poly.coeffs()[0], 3); // 5 + (-2) mod t
        let diff = keys.secret.decrypt(&ca.sub(&cb));
        assert_eq!(diff.poly.coeffs()[0], 7);
    }

    #[test]
    fn add_sub_plain() {
        let (params, keys, mut rng) = setup();
        let a = Plaintext {
            poly: Poly::constant(params.ring().clone(), 100),
        };
        let b = Plaintext {
            poly: Poly::constant(params.ring().clone(), 30),
        };
        let ca = keys.public.encrypt(&a, &mut rng);
        assert_eq!(
            keys.secret
                .decrypt(&ca.add_plain(&b, &params))
                .poly
                .coeffs()[0],
            130
        );
        assert_eq!(
            keys.secret
                .decrypt(&ca.sub_plain(&b, &params))
                .poly
                .coeffs()[0],
            70
        );
    }

    #[test]
    fn plaintext_multiplication_constant() {
        let (params, keys, mut rng) = setup();
        let a = Plaintext {
            poly: Poly::constant(params.ring().clone(), 9),
        };
        let b = Plaintext {
            poly: Poly::constant(params.ring().clone(), 7),
        };
        let ca = keys.public.encrypt(&a, &mut rng);
        let prod = keys.secret.decrypt(&ca.mul_plain(&b));
        assert_eq!(prod.poly.coeffs()[0], 63);
        assert!(keys.secret.noise_budget(&ca.mul_plain(&b)) > 5);
    }

    #[test]
    fn encrypt_zero_rerandomizes() {
        let (params, keys, mut rng) = setup();
        let a = Plaintext {
            poly: Poly::constant(params.ring().clone(), 42),
        };
        let ca = keys.public.encrypt(&a, &mut rng);
        let masked = ca.add(&keys.public.encrypt_zero(&mut rng));
        assert_eq!(keys.secret.decrypt(&masked).poly.coeffs()[0], 42);
        assert_ne!(masked.c0.coeffs(), ca.c0.coeffs());
    }

    #[test]
    fn key_switching_preserves_message() {
        let (params, keys, mut rng) = setup();
        use rand::Rng;
        let t = params.t().value();
        let coeffs: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..t)).collect();
        let pt = Plaintext {
            poly: Poly::from_coeffs(params.ring().clone(), coeffs.clone()),
        };
        let ct = keys.public.encrypt(&pt, &mut rng);
        // Apply g then switch; message polynomial becomes m(x^g).
        let g = 3usize;
        let out = keys.galois.apply(&ct, g).expect("chain key");
        let dec = keys.secret.decrypt(&out);
        let expected = pt.poly.galois(g);
        // compare mod t (galois on plaintext ring then reduce)
        let tq = params.t();
        let expect_coeffs: Vec<u64> = {
            // galois was applied in the Z_q ring; re-do it mod t directly.
            let n = params.n();
            let mut out = vec![0u64; n];
            for (i, &c) in coeffs.iter().enumerate() {
                let e = (i * g) % (2 * n);
                if e < n {
                    out[e] = tq.add(out[e], c);
                } else {
                    out[e - n] = tq.sub(out[e - n], c);
                }
            }
            out
        };
        let _ = expected;
        assert_eq!(dec.poly.coeffs(), expect_coeffs);
        assert!(
            keys.secret.noise_budget(&out) > 5,
            "key switching must not exhaust noise"
        );
    }

    #[test]
    fn resident_size_counts_quotients_and_permutations() {
        let (params, keys, _) = setup();
        let gk = &keys.galois;
        let entries = gk.keys.len();
        // idx (u32 per slot) + blocked form (u32 + u64 per 8 slots).
        let perm = params.n() * 4 + params.n() / 8 * 12;
        assert_eq!(gk.resident_byte_len(), 2 * gk.byte_len() + entries * perm);
    }

    #[test]
    fn missing_galois_key_surfaces_error() {
        let (_, keys, mut rng) = setup();
        let ct = keys.public.encrypt_zero(&mut rng);
        assert!(!keys.galois.contains(5)); // 5 is not among generated elements
        assert_eq!(
            keys.galois.apply(&ct, 5).err(),
            Some(KeyError::MissingGaloisKey(5))
        );
        assert_eq!(
            keys.galois.switch(&ct, 5).err(),
            Some(KeyError::MissingGaloisKey(5))
        );
        // The generated power-of-two composition keys work.
        assert!(keys.galois.rotate_rows(&ct, 3).is_ok());
        assert!(keys.galois.rotate_columns(&ct).is_ok());
        // A graceful service can report the failure without dying.
        let msg = keys.galois.apply(&ct, 5).unwrap_err().to_string();
        assert!(msg.contains("no Galois key"));
    }
}
