//! Ciphertexts, plaintexts, and their homomorphic operations.

use crate::params::BfvParams;
use pi_poly::{Poly, PolyOperand};

/// A BFV plaintext: a polynomial with coefficients in `[0, t)`, stored in the
/// ciphertext ring (coefficients embedded into `Z_q`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plaintext {
    /// The message polynomial in the ciphertext ring (values `< t`).
    pub poly: Poly,
}

/// A plaintext precomputed as a multiplication operand: NTT form with Shoup
/// quotients, so each `ciphertext × plaintext` product is two `mul_shoup`
/// passes instead of two NTT-convert-and-Barrett multiplies.
///
/// Build once per repeated operand ([`Plaintext::to_operand`]) — encoder
/// outputs multiplying many ciphertexts, Halevi–Shoup matrix diagonals — and
/// apply with [`Ciphertext::mul_plain_operand`].
#[derive(Clone, Debug)]
pub struct PlainOperand {
    /// The precomputed evaluation-form operand.
    pub op: PolyOperand,
}

impl Plaintext {
    /// Precomputes this plaintext for repeated ciphertext multiplication.
    pub fn to_operand(&self) -> PlainOperand {
        PlainOperand {
            op: self.poly.to_operand(),
        }
    }
}

/// A degree-1 BFV ciphertext `(c0, c1)` decrypting to
/// `round(t/q * (c0 + c1·s))`.
#[derive(Clone, Debug)]
pub struct Ciphertext {
    /// The constant component.
    pub c0: Poly,
    /// The `s`-linear component.
    pub c1: Poly,
}

impl Ciphertext {
    /// Homomorphic addition.
    pub fn add(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
        }
    }

    /// Homomorphic negation.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Adds a plaintext: the message polynomial is scaled by `Δ` and added to
    /// `c0`.
    pub fn add_plain(&self, pt: &Plaintext, params: &BfvParams) -> Self {
        let scaled = pt.poly.scale(params.delta());
        Self {
            c0: self.c0.add(&scaled),
            c1: self.c1.clone(),
        }
    }

    /// Multiplies by a plaintext polynomial (slot-wise product when both are
    /// batch-encoded). The plaintext is *not* scaled: `Enc(Δm)·p` decrypts to
    /// `m·p` with noise grown by roughly `‖p‖`.
    pub fn mul_plain(&self, pt: &Plaintext) -> Self {
        Self {
            c0: self.c0.mul(&pt.poly),
            c1: self.c1.mul(&pt.poly),
        }
    }

    /// Multiplies by a precomputed plaintext operand (see [`PlainOperand`]).
    /// Semantically identical to [`Ciphertext::mul_plain`], but the
    /// plaintext's NTT transform and Shoup quotients are amortized across
    /// every ciphertext it multiplies.
    pub fn mul_plain_operand(&self, pt: &PlainOperand) -> Self {
        Self {
            c0: self.c0.mul_operand(&pt.op),
            c1: self.c1.mul_operand(&pt.op),
        }
    }

    /// Applies the Galois automorphism `x ↦ x^g` to both components.
    ///
    /// The result decrypts under the permuted secret `s(x^g)`; callers must
    /// key-switch back with [`crate::GaloisKeys::switch`].
    pub(crate) fn galois_raw(&self, g: usize) -> Self {
        Self {
            c0: self.c0.galois(g),
            c1: self.c1.galois(g),
        }
    }

    /// Switches both components to the smaller response modulus
    /// `q' =` [`BfvParams::down_q`], coefficient-wise `c' = round(q'·c/q)`.
    ///
    /// The result lives in [`BfvParams::down_ring`] and decrypts with
    /// [`crate::SecretKey::decrypt_switched`]. Scaling tracks the phase
    /// `Δm + e ↦ (q'/q)(Δm + e) + e_round`, so the message survives as long
    /// as the scaled noise plus the O(n·‖s‖) rounding term stays under
    /// `q'/(2t)` — the switch *gains* absolute noise headroom at the GC
    /// handoff. When the down ring is the ciphertext ring this is a cheap
    /// canonicalizing copy.
    pub fn mod_switch_down(&self, params: &BfvParams) -> Self {
        let down = params.down_ring();
        let q = params.q().value();
        let q_down = params.down_q().value();
        let switch = |p: &Poly| {
            if q == q_down {
                return Poly::from_coeffs(down.clone(), p.coeffs());
            }
            let half = u128::from(q) / 2;
            let coeffs = p
                .coeffs()
                .iter()
                .map(|&c| {
                    let num = u128::from(c) * u128::from(q_down) + half;
                    params.down_q().reduce_u128(num / u128::from(q))
                })
                .collect();
            Poly::from_coeffs(down.clone(), coeffs)
        };
        Self {
            c0: switch(&self.c0),
            c1: switch(&self.c1),
        }
    }
}
