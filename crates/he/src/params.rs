//! BFV parameter sets.

use pi_field::{find_ntt_prime, Modulus};

use pi_poly::RingContext;
use std::sync::Arc;

/// Parameters for a BFV instance.
///
/// Invariants (checked at construction):
/// * `n` is a power of two;
/// * `q ≡ 1 (mod 2n)` and prime (NTT-friendly ciphertext modulus);
/// * `t ≡ 1 (mod 2n)` and prime (plaintext modulus supporting SIMD batching);
/// * `t << q` so the scaling factor `Δ = floor(q/t)` leaves noise headroom.
#[derive(Clone, Debug)]
pub struct BfvParams {
    ring: Arc<RingContext>,
    t: Modulus,
    /// Δ = floor(q / t): the plaintext scaling factor.
    delta: u64,
    /// log2 of the key-switching decomposition base.
    pub ks_log_base: u32,
    /// Number of key-switching digits: ceil(bits(q) / ks_log_base).
    pub ks_digits: usize,
    /// log2 of the decomposition base for **baby-step** (hoisted BSGS)
    /// rotation keys. Much smaller than [`BfvParams::ks_log_base`]: a baby
    /// rotation's key-switch noise is later *multiplied* by a plaintext
    /// diagonal (amplification ≈ `√n·t`), whereas an ordinary rotation's
    /// noise only adds, so baby keys need a finer gadget (noise per digit
    /// ∝ base) even though that means more digits. The extra digits are
    /// cheap exactly because hoisting amortizes their forward NTTs across
    /// all baby steps and replaces the per-rotation transforms with slot
    /// gathers.
    pub bsgs_log_base: u32,
    /// Number of baby-step digits: ceil(bits(q) / bsgs_log_base).
    pub bsgs_digits: usize,
    /// Centered-binomial error parameter (variance k/2).
    pub error_k: u32,
    /// Ring for the modulus-down-switched server→client response:
    /// same `N`, but a `min(bits(t) + 25, bits(q))`-bit prime `q' ≡ 1
    /// (mod 2N·t)`. Switching `c ↦ round(q'·c/q)` before transmit shrinks
    /// each response coefficient to `bits(q')` packed bits and scales the
    /// accumulated noise down with it (the switch adds only O(n) rounding
    /// noise, far under the `q'/(2t)` decryption threshold). When
    /// `bits(t) + 25 >= bits(q)` this is the ciphertext ring itself and
    /// the switch is the identity.
    down_ring: Arc<RingContext>,
}

/// Length of the base-`2^log_base` gadget decomposition of a value mod
/// `q`: what key generation emits per key, key switching shifts through,
/// and the wire reader therefore demands of every entry.
pub(crate) fn gadget_digits(q: Modulus, log_base: u32) -> usize {
    q.bits().div_ceil(log_base) as usize
}

impl BfvParams {
    /// Builds a parameter set from ring degree and bit sizes.
    ///
    /// # Panics
    ///
    /// Panics if no suitable primes exist or if `t_bits >= q_bits - 10`
    /// (insufficient noise headroom).
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
        let ks_log_base = 10;
        let ks_digits = gadget_digits(q, ks_log_base);
        let bsgs_log_base = 2;
        let bsgs_digits = gadget_digits(q, bsgs_log_base);
        Self {
            ring,
            t,
            delta,
            ks_log_base,
            ks_digits,
            bsgs_log_base,
            bsgs_digits,
            error_k: 8,
            down_ring,
        }
    }

    /// The default parameter set used by the protocol crates:
    /// `N = 4096`, 62-bit `q`, 20-bit `t`. Mirrors the Gazelle/DELPHI regime
    /// (single-multiplication depth, SIMD batching, rotation support); `q`
    /// sits at the top of the `q < 2^62` lazy-arithmetic contract so the
    /// hoisted-BSGS matvec keeps noise headroom at the largest layer
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

    /// Number of SIMD slots (= `N`, arranged as 2 rows of `N/2`).
    pub fn slot_count(&self) -> usize {
        self.ring.n()
    }

    /// Size in bytes of a serialized ciphertext (two polynomials of `N`
    /// 8-byte words). Used for communication accounting.
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.ring.n() * 8
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
        assert_eq!(p.ciphertext_bytes(), 2 * 4096 * 8);
    }

    #[test]
    fn ks_digits_cover_modulus() {
        let p = BfvParams::small_test();
        assert!(p.ks_digits as u32 * p.ks_log_base >= p.q().bits());
        assert!(p.bsgs_digits as u32 * p.bsgs_log_base >= p.q().bits());
        assert!(
            p.bsgs_log_base < p.ks_log_base,
            "baby-step gadget must be finer than the ordinary key-switch gadget"
        );
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
