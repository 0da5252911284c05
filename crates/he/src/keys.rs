//! Key generation, encryption, decryption, and Galois key switching over
//! `q·P` — with Halevi–Shoup *hoisting* for the rotation-heavy linear
//! algebra.
//!
//! # One key switch
//!
//! A rotation by `k` applies the automorphism `φ_g` (`g = 3^k mod 2N`) and
//! key-switches `φ_g(c1)` back to `s`. Every switch in this crate — cold,
//! hoisted, fused into a matvec's giant step, composed by the oracle
//! chain — is the same three steps over the same key:
//!
//! 1. **Lift** (`Lifted`): `c1` in coefficient form (one inverse NTT) is
//!    split into [`KEY_DIGITS`] digits of [`BfvParams::digit_bits`] bits.
//!    A digit is a small non-negative integer, the same under `q` and
//!    under the special prime `P` ([`BfvParams::special_p`]), so it is
//!    forward-NTT'd once in each ring ([`pi_poly::NttTables::forward_many`]).
//! 2. **Accumulate**: `Σ_i d_i·(k0_i, a_i)` in both residues, with the
//!    lazy Shoup kernels. Key digit `i` satisfies
//!    `k0_i + a_i·s = P·2^{wi}·s(x^g) − e_i (mod q·P)`, so the sum is a pair
//!    `(u0, u1)` with `u0 + u1·s = P·c1·s(x^g) − Σ d_i·e_i`.
//! 3. **Divide by `P`** (`mod_down`): `round(u/P) mod q` — inverse NTT
//!    under `P`, the centred remainder re-embedded in `q`, one forward
//!    NTT, `(u_q − r)·P⁻¹`. The keys' error term comes out divided by `P`,
//!    below the rounding term the division itself adds
//!    ([`BfvParams::key_switch_noise_bits`]).
//!
//! # What is hoisted is the lift
//!
//! `φ_g` acts on NTT-form data as a pure slot permutation
//! ([`pi_poly::GaloisPerm`]) and `Σ_i φ_g(d_i)·2^{wi} = φ_g(c1)` for **any**
//! decomposition `Σ d_i 2^{wi} = c1` (`φ_g` is a ring homomorphism fixing
//! scalars), so step 1 runs **once** per ciphertext ([`GaloisKeys::hoist`] →
//! [`HoistedCiphertext`]) and every rotation reuses it: each
//! [`GaloisKeys::rotate_hoisted`] pays one gather per digit per residue,
//! the accumulates, and its own division. The permuted digits `φ_g(d_i)`
//! have the coefficient magnitudes of `d_i` (a signed permutation), so the
//! noise estimate is unchanged.
//!
//! Domains through the extended basis: lifted digits live in NTT form,
//! strictly reduced `[0, q)` / `[0, P)`; the permutation is a
//! value-preserving gather, so any lazy range survives it; accumulation
//! runs in the lazy `[0, 2q)` / `[0, 2P)` domains
//! (`dyadic_mul_acc_shoup(_gather2)`), which is what both the inverse NTT
//! under `P` and the final `(u_q − r)·P⁻¹` accept; `mod_down` returns
//! strictly reduced `[0, q)` words.
//!
//! In the replicated matvec ([`crate::linalg`]) a **baby** rotation does
//! not divide: it stays `P·rot(x)` in the extended basis and is multiplied
//! there by packed diagonals that carry a `P` residue, so the division —
//! and its rounding noise — comes after the plaintext product instead of
//! being amplified by it. **Giant** rotations only add into the in-replica
//! sum, so they accumulate in the extended basis across all giant steps
//! and that division is paid once. Each **rotate-and-sum** step rotates the
//! previous step's sum, so it divides on its own, through the same fused
//! switch as a giant.
//!
//! # Key sets
//!
//! A key set is a list of Galois elements, one key each. The one the
//! protocol generates, uploads and admits is [`crate::linalg::key_plan`]
//! for the model's padded dimensions ([`KeySet::generate_for_dims`]) — the
//! in-replica baby and giant rotations, the rotate-and-sum's rotations by
//! multiples of each dimension and, where a phase's replicas span both
//! rows, the row swap — and nothing else. [`KeySet::generate`] holds the
//! power-of-two composition chain instead: the key set of
//! [`GaloisKeys::rotate_rows`], which only the `matvec_naive` oracle, tests
//! and benches call; it runs on the same switch.
//!
//! Every key digit comes out of one generator (`KeyDigits`), in
//! evaluation form from its first word to its last: a party that rotates
//! builds operands from it ([`KeySet`]), a party that only uploads writes
//! the wire frame from it ([`crate::wire::galois_keys_frame`]) and never
//! holds an operand, a quotient or a slot permutation.

use crate::cipher::{Ciphertext, Plaintext};
use crate::params::{BfvParams, KEY_DIGITS};
use pi_poly::{sample, GaloisPerm, Poly, PolyForm, PolyOperand, ShoupVec};
use rand::rngs::StdRng;
use rand::Rng;

/// Errors from key-dependent operations: what a rotation returns when the
/// key set does not hold the entry it needs. A server rejects the request
/// with it; an oracle or a test `.expect`s at the call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// No key-switching key was generated for the requested Galois element.
    MissingGaloisKey(usize),
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::MissingGaloisKey(g) => {
                write!(f, "no Galois key for element {g}")
            }
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

/// A `c1` lifted into the key-switch basis (step 1 of the module docs):
/// its [`KEY_DIGITS`] digits, least significant first, in evaluation form
/// and strictly reduced, under `q` and under `P`.
#[derive(Clone, Debug)]
pub(crate) struct Lifted {
    q: [Vec<u64>; KEY_DIGITS],
    p: [Vec<u64>; KEY_DIGITS],
}

impl Lifted {
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            q: zeros(n),
            p: zeros(n),
        }
    }

    /// Lifts `c1`, given in coefficient form and strictly reduced,
    /// overwriting whatever was lifted before.
    fn fill(&mut self, params: &BfvParams, c1: &[u64]) {
        let w = params.digit_bits();
        let mask = (1u64 << w) - 1;
        for (i, (dq, dp)) in self.q.iter_mut().zip(&mut self.p).enumerate() {
            let shift = i as u32 * w;
            for ((dq, dp), &c) in dq.iter_mut().zip(dp.iter_mut()).zip(c1) {
                *dq = (c >> shift) & mask;
                *dp = *dq;
            }
        }
        params.ring().ntt().forward_many(&mut slices(&mut self.q));
        params
            .special_ring()
            .ntt()
            .forward_many(&mut slices(&mut self.p));
    }
}

/// A ciphertext pair `(u0, u1)` in the extended basis `q·P`: evaluation
/// form, lazy `[0, 2q)` / `[0, 2P)` — what a switch accumulates into
/// (step 2) before it divides by `P`.
pub(crate) struct ExtPair {
    pub(crate) q: [Vec<u64>; 2],
    pub(crate) p: [Vec<u64>; 2],
}

impl ExtPair {
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            q: zeros(n),
            p: zeros(n),
        }
    }

    pub(crate) fn clear(&mut self) {
        for x in self.q.iter_mut().chain(&mut self.p) {
            x.fill(0);
        }
    }

    /// The `q` half and the `P` half, as the slices the switch steps take.
    pub(crate) fn halves(&mut self) -> ([&mut [u64]; 2], [&mut [u64]; 2]) {
        (slices(&mut self.q), slices(&mut self.p))
    }
}

fn zeros<const K: usize>(n: usize) -> [Vec<u64>; K] {
    std::array::from_fn(|_| vec![0; n])
}

fn slices<const K: usize>(polys: &mut [Vec<u64>; K]) -> [&mut [u64]; K] {
    polys.each_mut().map(|v| v.as_mut_slice())
}

/// Divides an extended-basis pair by `P` with rounding (step 3 of the
/// module docs): on return `xq[j]` holds `round(x_j / P) mod q`, strictly
/// reduced evaluation form, where `x_j` is the ring element whose residues
/// came in as `xq[j]` (lazy `[0, 2q)`) and `xp[j]` (lazy `[0, 2P)`, consumed
/// as scratch). Exactly: with `r` the remainder of `x` modulo `P` centred
/// into `[−⌊P/2⌋, ⌊P/2⌋]`, `x − r` is a multiple of `P` and
/// `(x − r)/P ≡ (x_q − r)·P⁻¹ (mod q)`; `P` is odd, so there are no ties.
pub(crate) fn mod_down(params: &BfvParams, xq: [&mut [u64]; 2], mut xp: [&mut [u64]; 2]) {
    let (q, p) = (params.q(), params.special_p());
    params.special_ring().ntt().inverse_many(&mut xp);
    // r ≥ 0 stays what it is; r < 0 is `x_P − P`, which is `x_P + (q − P)`
    // modulo q.
    let (half, lift) = (p.value() / 2, q.value() - p.value());
    for x in xp.iter_mut().flat_map(|x| x.iter_mut()) {
        if *x > half {
            *x += lift;
        }
    }
    params.ring().ntt().forward_many(&mut xp);
    let (p_inv, twice) = (params.special_inv(), q.twice());
    for (xq, r) in xq.into_iter().zip(xp) {
        for (x, &r) in xq.iter_mut().zip(r.iter()) {
            // x < 2q and r < q: the difference sits in (0, 4q), a word.
            *x = q.mul_shoup(*x + twice - r, p_inv);
        }
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
/// `pk1 = a` is expanded from a 32-byte PRG seed; the key is held, and
/// framed, as `(pk0, seed)`.
///
/// Nothing encrypts under it: the protocol's client encrypts symmetrically
/// ([`SecretKey::encrypt_seeded`]). It is kept, with its `BFVK` frame, for
/// the ledger only (`benchmark/` still encodes and decodes that frame);
/// ROADMAP.md item 0 drops that use, and then the key goes.
#[derive(Clone, Debug)]
pub struct PublicKey {
    params: BfvParams,
    pk0: Poly,
    /// PRG seed `pk1` expands from.
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

/// Draws the `a` of one key digit from a key set's seed stream: uniform
/// modulo `q`, then uniform modulo `P` — by CRT, uniform modulo `q·P` —
/// each by rejection from its own modulus' bit width. This order, digit
/// after digit and entry after entry, is the stream's whole layout; the
/// generator and the frame reader both draw through here.
fn draw_a(params: &BfvParams, a_q: &mut [u64], a_p: &mut [u64], stream: &mut StdRng) {
    sample::uniform_into(params.q(), a_q, stream);
    sample::uniform_into(params.special_p(), a_p, stream);
}

/// The one generator of key-switching digits, shared by the party that
/// keeps its keys as operands ([`KeySet`]) and the party that only ships
/// them ([`crate::wire::galois_keys_frame`]): digit `i` of the key for `g`
/// is `k0 = P·2^{wi}·s(x^g) − (a·s + e) (mod q·P)` with `a` the next draw
/// of the set's seed stream (`draw_a`) — evaluation form as drawn, never
/// transformed — and `e` one fresh centered-binomial error from the
/// caller's RNG, embedded in both residues, so
/// `k0 + a·s = P·2^{wi}·s(x^g) − e`. Modulo `P` the first term vanishes.
///
/// Everything lives in evaluation form and in buffers reused across the
/// whole set: a digit costs three sampler passes, two forward NTTs (of `e`,
/// once per residue), one fused multiply-accumulate against `s` per residue
/// (Shoup operands built once) and one subtract pass each;
/// `P·2^{wi}·s(x^g)` advances by one Shoup multiply per digit.
pub(crate) struct KeyDigits<'a> {
    secret: &'a SecretKey,
    s_q: ShoupVec,
    s_p: ShoupVec,
    s_coeff: Poly,
    /// The seed every `a` of the set expands from, in entry, then digit,
    /// order — the order [`GaloisKeys::from_wire_parts`] replays.
    pub(crate) seed: [u8; 32],
    a_stream: StdRng,
    /// `P·2^{wi}·s(x^g) mod q` for the digit in hand.
    sg: Vec<u64>,
    k0_q: Vec<u64>,
    a_q: Vec<u64>,
    k0_p: Vec<u64>,
    a_p: Vec<u64>,
}

impl KeyDigits<'_> {
    /// Generates the key for Galois element `g`, handing each digit's
    /// `(k0, a)` under `q` and `(k0, a)` under `P` — strictly reduced
    /// evaluation-form words, valid for the call — to `digit`, least
    /// significant first.
    pub(crate) fn entry<R: Rng + ?Sized>(
        &mut self,
        g: usize,
        rng: &mut R,
        mut digit: impl FnMut((&[u64], &[u64]), (&[u64], &[u64])),
    ) {
        let params = &self.secret.params;
        let (q, p) = (params.q(), params.special_p());
        let (ntt_q, ntt_p) = (params.ring().ntt(), params.special_ring().ntt());
        let embed = q.value() - p.value();
        self.sg = self.s_coeff.galois(g).into_ntt().into_data();
        for i in 0..KEY_DIGITS {
            let step = if i == 0 {
                q.reduce(p.value())
            } else {
                1 << params.digit_bits()
            };
            let step = q.shoup(step);
            for x in &mut self.sg {
                *x = q.mul_shoup(*x, step);
            }
            draw_a(params, &mut self.a_q, &mut self.a_p, &mut self.a_stream);
            sample::centered_binomial_into(q, &mut self.k0_q, rng, params.error_k());
            // The same small signed e under P: a negative draw is `q − |e|`.
            for (e_p, &e_q) in self.k0_p.iter_mut().zip(&self.k0_q) {
                *e_p = if e_q > q.value() / 2 {
                    e_q - embed
                } else {
                    e_q
                };
            }
            ntt_q.forward(&mut self.k0_q);
            ntt_p.forward(&mut self.k0_p);
            // e + a·s in the lazy domain of each residue, then out of it.
            ntt_q.dyadic_mul_acc_shoup(&mut self.k0_q, &self.a_q, &self.s_q);
            ntt_p.dyadic_mul_acc_shoup(&mut self.k0_p, &self.a_p, &self.s_p);
            for (x, &sg) in self.k0_q.iter_mut().zip(&self.sg) {
                *x = q.sub(sg, q.reduce_lazy(*x));
            }
            for x in &mut self.k0_p {
                *x = p.neg(p.reduce_lazy(*x));
            }
            digit((&self.k0_q, &self.a_q), (&self.k0_p, &self.a_p));
        }
    }
}

/// One digit of a key-switching key under one modulus: `(k0, a)` as Shoup
/// operands.
pub(crate) type KeyPair = (PolyOperand, PolyOperand);

/// One key-set entry: the Galois element, its key — [`KEY_DIGITS`] digits,
/// least significant first, each a pair under `q` and a pair under `P` —
/// and the precomputed NTT-slot permutation realizing the automorphism
/// (one table serves both rings: it depends on `n` and `g` alone).
#[derive(Clone, Debug)]
pub(crate) struct GaloisKeyEntry {
    /// The Galois element `g` this entry switches `s(x^g)` back from.
    pub(crate) g: usize,
    /// The digits' pairs under `q`.
    pub(crate) q: Vec<KeyPair>,
    /// The digits' pairs under `P`.
    pub(crate) p: Vec<KeyPair>,
    /// `x ↦ x^g` as an evaluation-slot permutation.
    perm: GaloisPerm,
}

/// Key-switching keys for a list of Galois elements, enabling slot
/// rotations.
///
/// Keys are stored as precomputed Shoup operands ([`PolyOperand`]): each
/// `(k0_i, a_i)` pair multiplies a lifted digit of every rotated
/// ciphertext, so the one-time quotient precomputation at generation pays
/// for itself on the first rotation. An element has **one** key, whatever
/// role its rotation plays at whichever dimension.
#[derive(Clone, Debug)]
pub struct GaloisKeys {
    params: BfvParams,
    /// Entries in generation (= wire) order: for keys this crate
    /// generated, ascending element.
    keys: Vec<GaloisKeyEntry>,
    /// PRG seed every `a` was expanded from (wire layer).
    seed: [u8; 32],
}

/// A ciphertext lifted once for many rotations (Halevi–Shoup hoisting):
/// both components times the special prime `P`, in evaluation form, plus
/// `c1` in the key-switch basis. Build with [`GaloisKeys::hoist`]; consume
/// with [`GaloisKeys::rotate_hoisted`].
///
/// All stored vectors are strictly reduced NTT-form data.
#[derive(Clone, Debug)]
pub struct HoistedCiphertext {
    /// `P·c0` and `P·c1` modulo `q`, in evaluation form: what a rotation
    /// adds in the extended basis, whose `P` residue is zero.
    scaled: [Vec<u64>; 2],
    lifted: Lifted,
}

/// A convenience bundle of all keys one party generates.
#[derive(Clone, Debug)]
pub struct KeySet {
    /// The secret key — stays with the client, and the only key anything
    /// encrypts under ([`SecretKey::encrypt_seeded`]).
    pub secret: SecretKey,
    /// The public key, which nothing encrypts under: the ledger's `BFVK`
    /// frame replay is its one reader (see [`PublicKey`]; ROADMAP.md item 0).
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
    /// row rotations and the row swap: enough for
    /// [`GaloisKeys::rotate_rows`] to compose any rotation in log steps.
    /// This is the `matvec_naive` oracle's key set; the protocol never
    /// generates or uploads it.
    pub fn generate<R: Rng + ?Sized>(params: &BfvParams, rng: &mut R) -> Self {
        let mut chain = power_of_two_elements(params.n());
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

    fn generate_with<R: Rng + ?Sized>(params: &BfvParams, elements: &[usize], rng: &mut R) -> Self {
        let secret = SecretKey::generate(params, rng);
        let public = secret.public_key(rng);
        let galois = secret.galois_keys(elements, rng);
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
        let s_down = reembed(&s_coeff, params.down_ring()).into_ntt();
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
    /// the seed instead of the uniform polynomial. Kept for the ledger only
    /// (see [`PublicKey`]).
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> PublicKey {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let a = sample::uniform(self.params.ring(), PolyForm::Ntt, &mut expansion_rng(&seed));
        let e = sample::centered_binomial(self.params.ring(), rng, self.params.error_k());
        let pk0 = a.mul(&self.s).add(&e.into_ntt()).neg();
        PublicKey {
            params: self.params.clone(),
            pk0,
            seed,
        }
    }

    /// Symmetric (secret-key) encryption with a seed-expanded mask:
    /// `c1 = a` is drawn from a fresh 32-byte PRG seed and
    /// `c0 = Δm + e − a·s`, so `c0 + c1·s = Δm + e`. This is the crate's
    /// one encryption: the protocol's upload, and the input of every
    /// oracle, test and bench. Returns the ciphertext together with the
    /// seed; the wire layer transmits `(c0, seed)` — half the bytes of a
    /// two-polynomial frame — and the receiver regenerates `c1`; a caller
    /// that wants the unseeded frame drops the seed.
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
        let e = sample::centered_binomial(params.ring(), rng, params.error_k());
        let scaled = pt.poly.scale(params.delta());
        let c0 = scaled.into_ntt().add(&e.into_ntt()).sub(&a.mul(&self.s));
        (Ciphertext { c0, c1: a }, seed)
    }

    /// Generates one key-switching key per Galois element, in the order
    /// given (which becomes the wire order): the operand builder over
    /// [`KeyDigits`], for parties that will rotate with the keys
    /// themselves (the oracle, tests, the ledger's replays). A party that
    /// only uploads them writes the frame instead
    /// ([`crate::wire::galois_keys_frame`]) — same digits, same bytes.
    fn galois_keys<R: Rng + ?Sized>(&self, elements: &[usize], rng: &mut R) -> GaloisKeys {
        let (ring, special) = (self.params.ring(), self.params.special_ring());
        let operand = |ring: &std::sync::Arc<pi_poly::RingContext>, x: &[u64]| {
            PolyOperand::from_ntt_data(ring.clone(), x.to_vec())
        };
        let mut gen = self.key_digits(rng);
        let mut keys = Vec::with_capacity(elements.len());
        for &g in elements {
            let mut entry = GaloisKeyEntry {
                g,
                q: Vec::with_capacity(KEY_DIGITS),
                p: Vec::with_capacity(KEY_DIGITS),
                perm: ring.ntt().galois_permutation(g),
            };
            gen.entry(g, rng, |q, p| {
                entry.q.push((operand(ring, q.0), operand(ring, q.1)));
                entry.p.push((operand(special, p.0), operand(special, p.1)));
            });
            keys.push(entry);
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
        let params = &self.params;
        let n = params.n();
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let s_coeff = self.s.clone().into_coeff();
        let s_p = reembed(&s_coeff, params.special_ring()).into_ntt();
        KeyDigits {
            secret: self,
            s_q: ShoupVec::new(params.q(), self.s.data()),
            s_p: ShoupVec::new(params.special_p(), s_p.data()),
            s_coeff,
            seed,
            a_stream: expansion_rng(&seed),
            sg: Vec::new(),
            k0_q: vec![0; n],
            a_q: vec![0; n],
            k0_p: vec![0; n],
            a_p: vec![0; n],
        }
    }

    /// The phase `c0 + c1·s` of a ciphertext, as coefficients modulo the
    /// modulus it is returned with — in whichever of the two rings a
    /// ciphertext of this key can live in, the ciphertext ring or the
    /// down-switch response ring.
    ///
    /// # Panics
    ///
    /// Panics on a ciphertext of neither ring.
    fn phase(&self, ct: &Ciphertext) -> (Vec<u64>, u64) {
        let q = ct.c0.ctx().q();
        let s = if q == self.params.q() {
            &self.s
        } else {
            assert!(
                q == self.params.down_q(),
                "ciphertext is in neither the ciphertext ring nor the down-switch ring"
            );
            &self.s_down
        };
        (ct.c0.add(&ct.c1.mul(s)).coeffs(), q.value())
    }

    /// The rounding decode `round(t·v/q) mod t` of a phase.
    fn decode(&self, ct: &Ciphertext) -> Plaintext {
        let (v, q) = self.phase(ct);
        let t = self.params.t().value();
        let coeffs: Vec<u64> = (v.iter())
            .map(|&c| (((c as u128 * t as u128) + q as u128 / 2) / q as u128) as u64 % t)
            .collect();
        Plaintext {
            poly: Poly::from_coeffs(self.params.ring().clone(), coeffs),
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
        self.decode(ct)
    }

    /// Decrypts a ciphertext living in the down-switch response ring (see
    /// [`crate::Ciphertext::mod_switch_down`]) — what the protocol's client
    /// decrypts: same rounding decode as [`SecretKey::decrypt`], but under
    /// `q' =` [`BfvParams::down_q`] with the re-embedded secret, and the
    /// same full-trace-mode noise gauge. Accepts full-modulus ciphertexts
    /// only where the down ring is the ciphertext ring (tight headroom).
    ///
    /// # Panics
    ///
    /// Panics on a ciphertext that is not in the down-switch ring.
    pub fn decrypt_switched(&self, ct: &Ciphertext) -> Plaintext {
        let down = self.params.down_ring();
        assert!(
            ct.c0.ctx().n() == down.n() && ct.c0.ctx().q() == down.q(),
            "ciphertext is not in the down-switch ring"
        );
        self.decrypt(ct)
    }

    /// The largest noise coefficient of a ciphertext, `|v − Δ·m|` for the
    /// phase `v` and the message `m` it decodes to, and the decryption
    /// threshold `q/(2t)` it must stay under — both in the ring the
    /// ciphertext lives in.
    fn max_noise(&self, ct: &Ciphertext) -> (u64, u64) {
        let (v, q) = self.phase(ct);
        let t = self.params.t().value();
        let delta = q / t;
        let mut max_noise = 0u64;
        for &c in &v {
            let m = (((c as u128 * t as u128) + q as u128 / 2) / q as u128) as u64 % t;
            let centered = (c as i128 - (delta as i128 * m as i128)).rem_euclid(q as i128);
            let noise = centered.min(q as i128 - centered) as u64;
            max_noise = max_noise.max(noise);
        }
        (max_noise, q / (2 * t))
    }

    /// Returns the invariant noise budget of a ciphertext in bits: the
    /// headroom between the current noise magnitude and the decryption
    /// failure threshold `q/(2t)`, in the ring the ciphertext lives in (the
    /// ciphertext ring or the down-switch response ring). Zero means
    /// decryption is unreliable.
    pub fn noise_budget(&self, ct: &Ciphertext) -> u32 {
        let (max_noise, threshold) = self.max_noise(ct);
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

/// A small-coefficient polynomial of one ring (coefficient form) as the
/// same signed coefficients in another ring of the same degree.
pub(crate) fn reembed(small: &Poly, ring: &std::sync::Arc<pi_poly::RingContext>) -> Poly {
    let q = small.ctx().q();
    let signed: Vec<i64> = small.data().iter().map(|&c| q.to_signed(c)).collect();
    Poly::from_signed(ring.clone(), &signed)
}

/// Which pipeline boundary a noise-budget gauge was taken at. Feeds the
/// `he.noise_*_bits` histograms.
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
    /// Parameters this key was generated for.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    pub(crate) fn wire_parts(&self) -> (&Poly, &[u8; 32]) {
        (&self.pk0, &self.seed)
    }

    /// Rebuilds the key from its wire parts.
    pub(crate) fn from_wire_parts(params: &BfvParams, pk0: Poly, seed: [u8; 32]) -> Self {
        Self {
            params: params.clone(),
            pk0,
            seed,
        }
    }
}

/// The `(values, quotients)` halves of one retired Shoup operand, for the
/// next one to be built in. Empty vectors where there is nothing to reuse.
pub(crate) type OperandVecs = (Vec<u64>, Vec<u64>);

impl GaloisKeys {
    /// Returns whether a key-switching key exists for Galois element `g`.
    pub fn contains(&self, g: usize) -> bool {
        self.keys.iter().any(|e| e.g == g)
    }

    /// The Galois element of every entry, in wire order — what a server
    /// compares against [`crate::linalg::key_plan`] before it admits an
    /// uploaded set.
    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.iter().map(|e| e.g)
    }

    /// The entry for element `g`.
    fn entry(&self, g: usize) -> Result<&GaloisKeyEntry, KeyError> {
        let held = self.keys.iter().find(|e| e.g == g);
        held.ok_or(KeyError::MissingGaloisKey(g))
    }

    /// Step 2 of a switch (module docs): adds `Σ_i lifted_i · key_i` into
    /// the extended-basis pair `(xq, xp)`, lazily, one residue after the
    /// other. With `permuted`, the lifted digits are those of a `c1` that
    /// `φ_g` has yet to act on, and the entry's slot permutation rides the
    /// gather of the fused kernel — one pass over each digit, no scratch
    /// polynomial.
    fn accumulate(
        &self,
        entry: &GaloisKeyEntry,
        lifted: &Lifted,
        permuted: bool,
        xq: [&mut [u64]; 2],
        xp: [&mut [u64]; 2],
    ) {
        let residues = [
            (self.params.ring(), &lifted.q, &entry.q, xq),
            (self.params.special_ring(), &lifted.p, &entry.p, xp),
        ];
        for (ring, digits, keys, [acc0, acc1]) in residues {
            let ntt = ring.ntt();
            for (d, (k0, a)) in digits.iter().zip(keys) {
                let (k0, a) = (k0.shoup(), a.shoup());
                if permuted {
                    ntt.dyadic_mul_acc_shoup_gather2(acc0, acc1, d, &entry.perm, k0, a);
                } else {
                    ntt.dyadic_mul_acc_shoup(acc0, d, k0);
                    ntt.dyadic_mul_acc_shoup(acc1, d, a);
                }
            }
        }
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
    /// `s(x^g)` back to `s`: the cold rotation path — lift, accumulate,
    /// divide by `P` (module docs), every buffer allocated by the call.
    /// (For repeated rotations of one ciphertext, [`GaloisKeys::hoist`] +
    /// [`GaloisKeys::rotate_hoisted`] lifts once.)
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] if the set holds no key for `g`.
    pub fn switch(&self, ct: &Ciphertext, g: usize) -> Result<Ciphertext, KeyError> {
        let _span = pi_trace::span!("he.keyswitch");
        pi_trace::incr(pi_trace::Counter::HeKeySwitch);
        let entry = self.entry(g)?;
        let params = &self.params;
        let ring = params.ring();
        let q = params.q();
        let mut lifted = Lifted::zeros(params.n());
        lifted.fill(params, &ct.c1.coeffs());
        let mut ext = ExtPair::zeros(params.n());
        let (xq, xp) = ext.halves();
        self.accumulate(entry, &lifted, false, xq, xp);
        let (xq, xp) = ext.halves();
        mod_down(params, xq, xp);
        let [mut c0, c1] = ext.q;
        for (x, &c) in c0.iter_mut().zip(ct.c0.clone().into_ntt().data()) {
            *x = q.add(*x, q.reduce_lazy(c));
        }
        Ok(Ciphertext {
            c0: Poly::from_ntt_data(ring.clone(), c0),
            c1: Poly::from_ntt_data(ring.clone(), c1),
        })
    }

    /// Lifts a ciphertext once for many rotations (Halevi–Shoup hoisting):
    /// `c1` into the key-switch basis — one inverse NTT, the digit split,
    /// one batched forward NTT per ring — plus both components times `P`,
    /// in evaluation form. Each subsequent rotation then costs the slot
    /// gathers and the dyadic key accumulates, plus the division by `P`
    /// when it is wanted as a ciphertext ([`GaloisKeys::rotate_hoisted`];
    /// the matvec keeps its baby rotations undivided).
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
        let n = params.n();
        let q = params.q();
        let ct_ctx = ct.c0.ctx();
        assert!(
            ct_ctx.n() == n && ct_ctx.q() == q,
            "ciphertext ring (n={}, q={}) does not match the Galois keys' ring (n={}, q={})",
            ct_ctx.n(),
            ct_ctx.q(),
            n,
            q
        );
        let mut lifted = Lifted::zeros(n);
        lifted.fill(params, &ct.c1.coeffs());
        let p = q.shoup(q.reduce(params.special_p().value()));
        let scaled = |c: &Poly| {
            let mut x = c.clone().into_ntt().into_data();
            x.iter_mut().for_each(|x| *x = q.mul_shoup(*x, p));
            x
        };
        HoistedCiphertext {
            scaled: [scaled(&ct.c0), scaled(&ct.c1)],
            lifted,
        }
    }

    /// Rotates the SIMD rows left by `k` from a hoisted ciphertext: one
    /// gather per lifted digit per residue (the automorphism in the NTT
    /// domain), the lazy key accumulates and the division by `P`. `k = 0`
    /// reconstructs the original ciphertext.
    ///
    /// Unlike [`GaloisKeys::rotate_rows`] this does **not** compose
    /// power-of-two keys: it requires an entry for the element
    /// `3^k mod 2N` itself (a rotation of [`crate::linalg::key_plan`]).
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] without a direct rotation key.
    ///
    /// # Panics
    ///
    /// Panics if `k >= N/2`.
    pub fn rotate_hoisted(&self, h: &HoistedCiphertext, k: usize) -> Result<Ciphertext, KeyError> {
        let ring = self.params.ring();
        let mut ext = ExtPair::zeros(self.params.n());
        self.rotate_hoisted_ext(h, k, &mut ext)?;
        let (xq, xp) = ext.halves();
        mod_down(&self.params, xq, xp);
        let [c0, c1] = ext.q;
        Ok(Ciphertext {
            c0: Poly::from_ntt_data(ring.clone(), c0),
            c1: Poly::from_ntt_data(ring.clone(), c1),
        })
    }

    /// Core of the hoisted rotation, stopped short of the division: writes
    /// `P·rot_k(h)` plus the keys' error term into `ext` (overwriting it),
    /// so the matvec can multiply-accumulate in the extended basis and
    /// divide once per sum instead of once per rotation — the rounding of
    /// the division is then never multiplied by a plaintext.
    /// [`mod_down`] of `ext` is exactly [`GaloisKeys::rotate_hoisted`]'s
    /// result: `P·φ_g(c0)` has no `P` residue, so adding it before the
    /// division adds `φ_g(c0)` after it.
    ///
    /// # Errors
    ///
    /// [`KeyError::MissingGaloisKey`] without a direct rotation key.
    ///
    /// # Panics
    ///
    /// Panics if `k >= N/2`.
    pub(crate) fn rotate_hoisted_ext(
        &self,
        h: &HoistedCiphertext,
        k: usize,
        ext: &mut ExtPair,
    ) -> Result<(), KeyError> {
        let n = self.params.n();
        assert!(k < n / 2, "rotation amount must be below N/2");
        if k == 0 {
            for (x, scaled) in ext.q.iter_mut().zip(&h.scaled) {
                x.copy_from_slice(scaled);
            }
            ext.p.iter_mut().for_each(|x| x.fill(0));
            return Ok(());
        }
        pi_trace::incr(pi_trace::Counter::HeRotation);
        let entry = self.entry(rotation_element(n, k))?;
        ext.clear();
        let (xq, xp) = ext.halves();
        self.accumulate(entry, &h.lifted, true, xq, xp);
        // P·φ_g(c0) joins as a permuted lazy addition: a pure gather in the
        // evaluation basis.
        let ntt = self.params.ring().ntt();
        ntt.gather_add_lazy(&mut ext.q[0], &h.scaled[0], &entry.perm);
        Ok(())
    }

    /// The fused key switch of the matvec's giant and rotate-and-sum steps:
    /// applies Galois element `g ≠ 1` (a row rotation or the row swap) to a
    /// lazy evaluation-form pair (`inner0`, `inner1`, both in `[0, 2q)`) and
    /// **accumulates** the result — `φ_g(inner0)` into `acc0` (lazy
    /// `[0, 2q)`), the switched part into `ext`, still multiplied by `P`:
    /// every giant step of one matvec adds into the same `ext`, and
    /// [`GaloisKeys::settle`] divides it once. One inverse NTT (of
    /// `inner1`, consumed as scratch and left in coefficient form), one
    /// lift into `lifted` (overwritten), then permuted dyadic accumulates —
    /// the rotated ciphertext is never materialized.
    pub(crate) fn rotate_acc_lazy(
        &self,
        g: usize,
        inner0: &[u64],
        inner1: &mut [u64],
        acc0: &mut [u64],
        lifted: &mut Lifted,
        ext: &mut ExtPair,
    ) -> Result<(), KeyError> {
        let params = &self.params;
        let ntt = params.ring().ntt();
        assert!(g != 1, "the identity needs no key switch");
        pi_trace::incr(pi_trace::Counter::HeRotation);
        let entry = self.entry(g)?;
        ntt.inverse(inner1); // [0, 2q) lazy in → [0, q) coeff out
        lifted.fill(params, inner1);
        let (xq, xp) = ext.halves();
        self.accumulate(entry, lifted, true, xq, xp);
        ntt.gather_add_lazy(acc0, inner0, &entry.perm);
        Ok(())
    }

    /// Divides what a matvec's giant steps accumulated in `ext` by `P` and
    /// adds it into the lazy `[0, 2q)` pair `(acc0, acc1)`. `ext` is left
    /// unspecified.
    pub(crate) fn settle(&self, ext: &mut ExtPair, acc0: &mut [u64], acc1: &mut [u64]) {
        let q = self.params.q();
        let (xq, xp) = ext.halves();
        mod_down(&self.params, xq, xp);
        for (acc, x) in [acc0, acc1].into_iter().zip(&ext.q) {
            for (a, &x) in acc.iter_mut().zip(x) {
                *a = q.add_lazy(*a, x);
            }
        }
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

    /// Size of the key polynomials as flat words: per entry,
    /// [`KEY_DIGITS`] digits of a `(k0, a)` pair under `q` and one under
    /// `P`. The serialized wire frame is about 2.5× smaller — only the
    /// packed `k0` halves plus one 32-byte seed cross the wire (see
    /// `pi_he::wire::galois_keys_to_bytes`) — and the key set in memory is
    /// twice as large: [`GaloisKeys::resident_byte_len`].
    pub fn byte_len(&self) -> usize {
        self.keys.len() * KEY_DIGITS * 4 * self.params.n() * 8
    }

    /// Heap bytes this key set occupies: every key polynomial is a Shoup
    /// operand (values **and** quotients), and every entry carries its
    /// slot permutation.
    pub fn resident_byte_len(&self) -> usize {
        let perms: usize = self.keys.iter().map(|e| e.perm.byte_len()).sum();
        2 * self.byte_len() + perms
    }

    /// [`GaloisKeys::resident_byte_len`] of a key set with `entries`
    /// entries, before one exists: what a byte-budgeted table needs to know
    /// to make room *before* a frame is decoded.
    pub fn resident_byte_len_of(params: &BfvParams, entries: usize) -> usize {
        let n = params.n();
        entries * (KEY_DIGITS * 8 * n * 8 + GaloisPerm::byte_len_at(n))
    }

    /// Exact length of this key set's serialized wire frame
    /// ([`crate::wire::galois_keys_to_bytes`]): packed `k0` halves plus one
    /// 32-byte seed.
    pub fn wire_byte_len(&self) -> usize {
        crate::wire::galois_keys_wire_len(&self.params, self.keys.len())
    }

    /// Serialized size a **per-rotation** key set would need at dimension
    /// `dim`, on the same wire basis as the real frames (packed `k0`
    /// halves, seed-expanded `a` halves): one key for each of the `dim − 1`
    /// rotation amounts a hoisted (non-composing) diagonal matvec would
    /// otherwise demand. The replicated schedule's
    /// [`crate::linalg::key_plan`] holds far fewer (7 at `d = 128`,
    /// `n = 4096`); comparing the serialized Galois frame length against
    /// this figure is the offline key-storage win reported in `pi-core`'s
    /// `CostReport`.
    pub fn per_rotation_set_byte_len(params: &BfvParams, dim: usize) -> usize {
        crate::wire::galois_keys_wire_len(params, dim.saturating_sub(1))
    }

    pub(crate) fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Entries in wire order — the exact order the seed stream was consumed
    /// in at generation.
    pub(crate) fn wire_entries(&self) -> &[GaloisKeyEntry] {
        &self.keys
    }

    /// Rebuilds keys from wire parts: per entry the element and, per digit,
    /// the `k0` under `q` and the `k0` under `P` (strictly reduced
    /// evaluation-form words, wire order), plus the seed, replaying the `a`
    /// expansion stream exactly as key generation consumed it (`draw_a`).
    /// Each unpacked or expanded vector becomes its operand's value half as
    /// it is; only quotients are computed. `spare` and `perms` are what a
    /// retired key set left ([`GaloisKeys::into_vecs`], its `k0` value
    /// vectors already taken for `parts`): operand for operand in wire
    /// order the `a` values and every quotient vector are built in its
    /// vectors, and an entry keeps its slot permutation where that already
    /// realizes `g`; whatever is missing is allocated.
    pub(crate) fn from_wire_parts(
        params: &BfvParams,
        seed: [u8; 32],
        parts: Vec<(usize, Vec<[Vec<u64>; 2]>)>,
        spare: Vec<OperandVecs>,
        perms: Vec<GaloisPerm>,
    ) -> Self {
        pi_trace::incr(pi_trace::Counter::WireSeedExpand);
        let (ring, special) = (params.ring(), params.special_ring());
        let n = params.n();
        let mut a_stream = expansion_rng(&seed);
        let (mut spare, mut perms) = (spare.into_iter(), perms.into_iter());
        let mut next = || spare.next().unwrap_or_default();
        // Whatever a reused vector holds, the expansion overwrites; a fresh
        // one comes zeroed from the allocator, not by a pass of ours.
        let sized = |a: Vec<u64>| if a.len() == n { a } else { vec![0; n] };
        let mut keys = Vec::with_capacity(parts.len());
        for (g, k0s) in parts {
            let (mut q, mut p) = (Vec::with_capacity(k0s.len()), Vec::with_capacity(k0s.len()));
            for [k0_q, k0_p] in k0s {
                // The retired set's operands, in into_vecs order.
                let [(_, k0_q_quot), (a_q, a_q_quot), (_, k0_p_quot), (a_p, a_p_quot)] =
                    [next(), next(), next(), next()];
                let (mut a_q, mut a_p) = (sized(a_q), sized(a_p));
                draw_a(params, &mut a_q, &mut a_p, &mut a_stream);
                q.push((
                    PolyOperand::from_ntt_data_in(ring.clone(), k0_q, k0_q_quot),
                    PolyOperand::from_ntt_data_in(ring.clone(), a_q, a_q_quot),
                ));
                p.push((
                    PolyOperand::from_ntt_data_in(special.clone(), k0_p, k0_p_quot),
                    PolyOperand::from_ntt_data_in(special.clone(), a_p, a_p_quot),
                ));
            }
            let kept = perms.next().filter(|p| p.g() == g && p.n() == n);
            keys.push(GaloisKeyEntry {
                g,
                q,
                p,
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
    /// next one can be built in: every operand's two vectors in wire order
    /// (per digit `k0` and `a` under `q`, then `k0` and `a` under `P`), and
    /// the slot permutations in entry order.
    pub(crate) fn into_vecs(self) -> (Vec<OperandVecs>, Vec<GaloisPerm>) {
        let mut vecs = Vec::new();
        let mut perms = Vec::with_capacity(self.keys.len());
        for entry in self.keys {
            for (q, p) in entry.q.into_iter().zip(entry.p) {
                vecs.extend([q.0, q.1, p.0, p.1].map(PolyOperand::into_vecs));
            }
            perms.push(entry.perm);
        }
        (vecs, perms)
    }
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

    fn zero(params: &BfvParams) -> Plaintext {
        Plaintext {
            poly: Poly::zero(params.ring().clone()),
        }
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
        let ct = keys.secret.encrypt_seeded(&pt, &mut rng).0;
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
        let ca = keys.secret.encrypt_seeded(&a, &mut rng).0;
        let cb = keys.secret.encrypt_seeded(&b, &mut rng).0;
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
        let ca = keys.secret.encrypt_seeded(&a, &mut rng).0;
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
        let ca = keys.secret.encrypt_seeded(&a, &mut rng).0;
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
        let ca = keys.secret.encrypt_seeded(&a, &mut rng).0;
        let (zero, _) = keys.secret.encrypt_seeded(&zero(&params), &mut rng);
        let masked = ca.add(&zero);
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
        let ct = keys.secret.encrypt_seeded(&pt, &mut rng).0;
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

    /// `round(x/P) mod q` of the `x` in `[0, q·P)` with residues
    /// `(x_q, x_p)`, centred, by exact integer arithmetic.
    fn mod_down_exact(params: &BfvParams, x_q: u64, x_p: u64) -> u64 {
        let (q, p) = (
            params.q().value() as u128,
            params.special_p().value() as u128,
        );
        // CRT: x = x_p + P·((x_q − x_p)·P⁻¹ mod q).
        let p_inv = params.special_inv().value as u128;
        let lift = (q + x_q as u128 - x_p as u128 % q) % q * p_inv % q;
        let x = x_p as u128 + p * lift;
        assert!(x < q * p && x % q == x_q as u128 && x % p == x_p as u128);
        let centred = x as i128 - if x > q * p / 2 { (q * p) as i128 } else { 0 };
        // Nearest integer to centred/P (P is odd: no ties).
        let rounded = (2 * centred + p as i128).div_euclid(2 * p as i128);
        rounded.rem_euclid(q as i128) as u64
    }

    #[test]
    fn mod_down_is_the_exact_rounded_division() {
        use pi_field::simd::{clear_forced_backend, force_backend, SimdBackend};
        use rand::Rng;
        let params = BfvParams::small_test();
        let (q, p) = (params.q(), params.special_p());
        let (ntt_q, ntt_p) = (params.ring().ntt(), params.special_ring().ntt());
        let n = params.n();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        // Two polynomials of random residues, the first led by every pair
        // of boundary residues.
        let half = p.value() / 2;
        let edges_p = [0, half, half + 1, p.value() - 1];
        let edges_q = [0, q.value() - 1];
        let mut coeffs_q: [Vec<u64>; 2] =
            std::array::from_fn(|_| (0..n).map(|_| rng.gen_range(0..q.value())).collect());
        let mut coeffs_p: [Vec<u64>; 2] =
            std::array::from_fn(|_| (0..n).map(|_| rng.gen_range(0..p.value())).collect());
        for (i, (&x_p, &x_q)) in (edges_p.iter())
            .flat_map(|x_p| edges_q.iter().map(move |x_q| (x_p, x_q)))
            .enumerate()
        {
            coeffs_q[0][i] = x_q;
            coeffs_p[0][i] = x_p;
        }
        let want: Vec<Vec<u64>> = (coeffs_q.iter().zip(&coeffs_p))
            .map(|(x_q, x_p)| {
                let exact = x_q.iter().zip(x_p);
                exact
                    .map(|(&x_q, &x_p)| mod_down_exact(&params, x_q, x_p))
                    .collect()
            })
            .collect();
        // The boundary cases, by hand: a remainder up to ⌊P/2⌋ rounds down,
        // one above it rounds up.
        let q_inv_p = |x: u64| q.mul(x, params.special_inv().value);
        assert_eq!(want[0][0], 0); // x = 0
        assert_eq!(want[0][2], q_inv_p(q.sub(0, half))); // (0, ⌊P/2⌋): (x − r)/P, r = ⌊P/2⌋
        assert_eq!(want[0][4], q_inv_p(half)); // (0, ⌊P/2⌋ + 1): r = −⌊P/2⌋
        assert_eq!(want[0][6], q_inv_p(1)); // (0, P − 1): r = −1

        for backend in [Some(SimdBackend::Scalar), Some(SimdBackend::Portable), None] {
            // Process-global; concurrent tests only ever see another
            // bit-identical path.
            if let Some(backend) = backend {
                force_backend(backend);
            }
            for lazy in [false, true] {
                let (mut xq, mut xp) = (coeffs_q.clone(), coeffs_p.clone());
                for (x, ntt) in xq
                    .iter_mut()
                    .map(|x| (x, ntt_q))
                    .chain(xp.iter_mut().map(|x| (x, ntt_p)))
                {
                    ntt.forward(x);
                    if lazy {
                        // Every other slot as its [m, 2m) representative.
                        let m = ntt.q().value();
                        x.iter_mut().step_by(2).for_each(|x| *x += m);
                    }
                }
                mod_down(&params, slices(&mut xq), slices(&mut xp));
                for (got, want) in xq.iter_mut().zip(&want) {
                    assert!(got.iter().all(|&x| x < q.value()), "strictly reduced");
                    ntt_q.inverse(got);
                    assert_eq!(got, want, "backend {backend:?}, lazy {lazy}");
                }
            }
            clear_forced_backend();
        }
    }

    /// The analytic estimate against the measurement: switching a fresh
    /// seeded ciphertext (noise σ = 2, far under the switch's own) leaves a
    /// largest noise coefficient between the estimated rms and 3 bits over
    /// it — the maximum of `n` near-Gaussian draws sits ≈ 2 bits over
    /// their deviation.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "keygen and switches at n = 4096 are release-speed work; CI runs pi-he's unit tests in release too"
    )]
    fn key_switch_noise_estimate_brackets_the_measurement() {
        for n in [2048usize, 4096] {
            let params = BfvParams::new(n, 62, 20);
            let estimate = params.key_switch_noise_bits();
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            // d = 256 holds baby rotations 1..3 at both rings.
            let keys = KeySet::generate_for_dims(&params, &[256], &mut rng);
            let enc = crate::BatchEncoder::new(&params);
            let mut worst = 0u64;
            for round in 0..4u64 {
                let pt = enc.encode(&[round, 1, 2, 3]);
                let (ct, _) = keys.secret.encrypt_seeded(&pt, &mut rng);
                let g = rotation_element(n, 1 + round as usize % 3);
                let switched = keys.galois.apply(&ct, g).expect("plan key");
                let (noise, _) = keys.secret.max_noise(&switched);
                let bits = (noise as f64).log2();
                assert!(
                    estimate < bits && bits < estimate + 3.0,
                    "n = {n}: measured {bits:.2} bits against an estimate of {estimate:.2}"
                );
                worst = worst.max(noise);
            }
            println!(
                "n = {n}: estimate {estimate:.2} bits rms, worst coefficient {:.2} bits",
                (worst as f64).log2()
            );
        }
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
        let (params, keys, mut rng) = setup();
        let (ct, _) = keys.secret.encrypt_seeded(&zero(&params), &mut rng);
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
