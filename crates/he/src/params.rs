//! BFV parameter sets.
//!
//! # The key-switch modulus
//!
//! Rotation keys live over `q·P`, one *special prime* `P` beside the
//! ciphertext modulus ([`BfvParams::special_p`]): a key switch accumulates
//! `Σ digit·key` in both residues and divides by `P` with rounding, which
//! divides the key's error term by `P` as well — so the digits can be wide.
//! Everything about the switch is derived here, and nothing is a knob:
//!
//! * the digit width `w = ⌈bits(q)/2⌉` ([`BfvParams::digit_bits`]), so a
//!   key is [`KEY_DIGITS`]` = 2` digits whatever `q` is;
//! * `P`, the largest NTT prime of `w + 9` bits that is none of `q`, `q'`,
//!   `t`. Nine bits over the digit put the key's error term
//!   `√(2n/3)·2^w·σ/P` some 70× under the rounding term
//!   `√((1 + 2n/3)/12)` the division costs anyway, at every `n`
//!   ([`BfvParams::key_switch_noise_bits`] is the root-sum-square of the
//!   two, ≈ 4 bits at `n = 4096`; a measurement checks it in
//!   `keys::tests`), and keep `bits(q) + bits(P)` = 102 at the protocol's
//!   62-bit `q` — inside the 109 bits the HE-standard 128-bit row allows a
//!   ternary secret at `n = 4096`. One 62-bit digit under a 62-bit `P`
//!   would make keys smaller still but is a 124-bit key modulus; that cap
//!   is what `tests::default_params_valid` pins.

use pi_field::{find_distinct_ntt_primes, find_ntt_prime, Modulus, ShoupMul};

use pi_poly::RingContext;
use std::sync::Arc;

/// Digits of a key-switching key: `c1` splits into this many
/// [`BfvParams::digit_bits`]-bit pieces.
pub const KEY_DIGITS: usize = 2;

/// Parameters for a BFV instance.
///
/// Invariants (checked at construction):
/// * `n` is a power of two;
/// * `q ≡ 1 (mod 2n)` and prime (NTT-friendly ciphertext modulus);
/// * `t ≡ 1 (mod 2n)` and prime (plaintext modulus supporting SIMD batching);
/// * `t << q` so the scaling factor `Δ = floor(q/t)` leaves noise headroom;
/// * `P ≡ 1 (mod 2n)`, prime, wider than a key-switch digit and none of
///   `q`, `q'`, `t` (see the module docs).
#[derive(Clone, Debug)]
pub struct BfvParams {
    ring: Arc<RingContext>,
    t: Modulus,
    /// Δ = floor(q / t): the plaintext scaling factor.
    delta: u64,
    /// Centered-binomial error parameter (variance k/2).
    error_k: u32,
    /// Ring for the modulus-down-switched server→client response:
    /// same `N`, but a `min(bits(t) + 25, bits(q))`-bit prime `q' ≡ 1
    /// (mod 2N·t)`. Switching `c ↦ round(q'·c/q)` before transmit shrinks
    /// each response coefficient to `bits(q')` packed bits and scales the
    /// accumulated noise down with it (the switch adds only O(n) rounding
    /// noise, far under the `q'/(2t)` decryption threshold). When
    /// `bits(t) + 25 >= bits(q)` this is the ciphertext ring itself and
    /// the switch is the identity.
    down_ring: Arc<RingContext>,
    /// Ring of the key-switch special prime `P`.
    special_ring: Arc<RingContext>,
    /// `P⁻¹ mod q`, the last step of a key switch's division by `P`.
    special_inv: ShoupMul,
}

impl BfvParams {
    /// Builds a parameter set from ring degree and bit sizes.
    ///
    /// # Panics
    ///
    /// Panics if no suitable primes exist, if `t_bits >= q_bits - 10`
    /// (insufficient noise headroom), or if `q` is so narrow (under 19
    /// bits) that the special prime would not sit below it.
    pub fn new(n: usize, q_bits: u32, t_bits: u32) -> Self {
        assert!(
            t_bits + 10 <= q_bits,
            "plaintext modulus too close to ciphertext modulus"
        );
        let t = Modulus::new(find_ntt_prime(t_bits, n as u64));
        // q ≡ 1 (mod 2N·t): NTT-friendly AND q mod t == 1, so the Δ·t ≈ q
        // rounding error in plaintext multiplication stays negligible.
        let q = Modulus::new(pi_field::prime::find_prime_congruent(
            q_bits,
            2 * n as u64 * t.value(),
        ));
        let ring = Arc::new(RingContext::with_modulus(n, q));
        let down_bits = (t_bits + 25).min(q_bits);
        let down_ring = if down_bits == q_bits {
            ring.clone()
        } else {
            let q_down = Modulus::new(pi_field::prime::find_prime_congruent(
                down_bits,
                2 * n as u64 * t.value(),
            ));
            Arc::new(RingContext::with_modulus(n, q_down))
        };
        let delta = q.value() / t.value();
        // Four candidates: at most three are taken.
        let taken = [q.value(), down_ring.q().value(), t.value()];
        let special = find_distinct_ntt_primes(q.bits().div_ceil(2) + 9, 4, 2 * n as u64)
            .and_then(|primes| primes.into_iter().find(|p| !taken.contains(p)))
            .map(Modulus::new)
            .expect("a special prime exists at this width");
        assert!(
            special.value() < q.value(),
            "ciphertext modulus too narrow for a special prime beside it"
        );
        let special_inv = q.shoup(q.inv(q.reduce(special.value())).expect("P is prime to q"));
        Self {
            ring,
            t,
            delta,
            error_k: 8,
            down_ring,
            special_ring: Arc::new(RingContext::with_modulus(n, special)),
            special_inv,
        }
    }

    /// The default parameter set used by the protocol crates:
    /// `N = 4096`, 62-bit `q`, 20-bit `t`. Mirrors the Gazelle/DELPHI regime
    /// (single-multiplication depth, SIMD batching, rotation support); `q`
    /// sits at the top of the `q < 2^62` lazy-arithmetic contract so the
    /// replicated matvec keeps noise headroom at the largest layer
    /// dimensions.
    pub fn default_pi() -> Self {
        Self::new(4096, 62, 20)
    }

    /// A small, fast parameter set for unit tests: `N = 2048`, 62-bit `q`,
    /// 20-bit `t`.
    pub fn small_test() -> Self {
        Self::new(2048, 62, 20)
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.ring.n()
    }

    /// Ciphertext modulus.
    pub fn q(&self) -> Modulus {
        self.ring.q()
    }

    /// Plaintext modulus.
    pub fn t(&self) -> Modulus {
        self.t
    }

    /// Plaintext scaling factor `Δ = floor(q/t)`.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The shared ring context.
    pub fn ring(&self) -> &Arc<RingContext> {
        &self.ring
    }

    /// Ring for modulus-down-switched responses (see the field docs).
    pub fn down_ring(&self) -> &Arc<RingContext> {
        &self.down_ring
    }

    /// Modulus of the down-switched response ring, `q' ≡ 1 (mod 2N·t)`.
    pub fn down_q(&self) -> Modulus {
        self.down_ring.q()
    }

    /// Ring of the key-switch special prime `P` (see the module docs).
    pub fn special_ring(&self) -> &Arc<RingContext> {
        &self.special_ring
    }

    /// The key-switch special prime `P`.
    pub fn special_p(&self) -> Modulus {
        self.special_ring.q()
    }

    /// `P⁻¹ mod q` as a Shoup multiplicand.
    pub(crate) fn special_inv(&self) -> ShoupMul {
        self.special_inv
    }

    /// Width `w = ⌈bits(q)/2⌉` of a key-switch digit.
    pub fn digit_bits(&self) -> u32 {
        self.q().bits().div_ceil(2)
    }

    /// Centered-binomial error parameter `k` (variance `k/2`).
    pub fn error_k(&self) -> u32 {
        self.error_k
    }

    /// The two rms terms of one key switch's added noise, in units of the
    /// ciphertext's phase: the keys' errors against the digits, divided by
    /// `P` — `√(2n/3)·2^w·σ/P` for [`KEY_DIGITS`] digits uniform below
    /// `2^w` against `n` error coefficients of deviation `σ = √(k/2)` — and
    /// the rounding of that division, `√((1 + 2n/3)/12)`: two polynomials
    /// rounded to the nearest integer, one of them against a ternary secret.
    pub(crate) fn key_switch_noise_terms(&self) -> (f64, f64) {
        let n = self.n() as f64;
        let sigma = (f64::from(self.error_k) / 2.0).sqrt();
        let digit = f64::from(self.digit_bits()).exp2();
        let keys =
            (KEY_DIGITS as f64 * n / 3.0).sqrt() * digit * sigma / self.special_p().value() as f64;
        let rounding = ((1.0 + 2.0 * n / 3.0) / 12.0).sqrt();
        (keys, rounding)
    }

    /// Analytic estimate of the noise one key switch adds, as log2 of its
    /// rms (see the module docs for the two terms). The largest of `n`
    /// coefficients sits about two bits above it.
    pub fn key_switch_noise_bits(&self) -> f64 {
        let (keys, rounding) = self.key_switch_noise_terms();
        keys.hypot(rounding).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_field::is_prime;

    #[test]
    fn default_params_valid() {
        let p = BfvParams::default_pi();
        assert_eq!(p.n(), 4096);
        assert!(is_prime(p.q().value()));
        assert!(is_prime(p.t().value()));
        assert_eq!(p.q().value() % (2 * 4096), 1);
        assert_eq!(p.t().value() % (2 * 4096), 1);
        assert!(p.delta() > (1 << 38));
        // The special prime: NTT-friendly, its own prime, and with q inside
        // the 128-bit security row for a ternary secret at n = 4096.
        let special = p.special_p();
        assert!(is_prime(special.value()));
        assert_eq!(special.value() % (2 * 4096), 1);
        assert_eq!(special.bits(), 40);
        assert!(p.q().bits() + special.bits() <= 109);
        for taken in [p.q(), p.down_q(), p.t()] {
            assert_ne!(special, taken);
        }
        let q = p.q();
        assert_eq!(q.mul(q.reduce(special.value()), p.special_inv().value), 1);
    }

    #[test]
    fn ks_digits_cover_modulus() {
        for p in [
            BfvParams::small_test(),
            BfvParams::default_pi(),
            BfvParams::new(1024, 41, 16),
        ] {
            assert!(KEY_DIGITS as u32 * p.digit_bits() >= p.q().bits());
            // A digit is the same small integer under q and under P.
            assert!(p.digit_bits() < p.special_p().bits());
            // Wide digits are affordable because the division by P takes
            // the keys' error term under what the rounding costs anyway.
            let (keys, rounding) = p.key_switch_noise_terms();
            assert!(keys < rounding, "{keys} vs {rounding}");
            assert!(p.key_switch_noise_bits() < rounding.log2() + 0.01);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_headroom_violation() {
        BfvParams::new(1024, 25, 20);
    }

    #[test]
    fn down_ring_congruence() {
        let p = BfvParams::small_test();
        let q_down = p.down_q().value();
        assert!(is_prime(q_down));
        assert!(p.down_q().bits() <= 45);
        assert!(p.down_q().bits() > p.t().bits() + 20);
        // NTT-friendly and ≡ 1 mod t: decode after switching stays exact.
        assert_eq!(q_down % (2 * p.n() as u64), 1);
        assert_eq!(q_down % p.t().value(), 1);

        // Narrow headroom collapses the down ring onto the ciphertext ring.
        let tight = BfvParams::new(1024, 40, 16);
        assert_eq!(tight.down_q(), tight.q());
        assert!(Arc::ptr_eq(tight.down_ring(), tight.ring()));
    }
}
