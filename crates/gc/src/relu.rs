//! The garbled ReLU circuit at the heart of hybrid private inference.
//!
//! DELPHI evaluates each non-linearity as a garbled circuit computing
//!
//! `out = ReLU(⟨y⟩₁ + ⟨y⟩₂ mod p) − r  (mod p)`
//!
//! where `⟨y⟩₁, ⟨y⟩₂` are the two parties' additive shares of the linear
//! layer output and `r` is the share-randomness for the *next* linear layer.
//! The output is revealed (as bits) to the party that holds `x_{i+1} − r`,
//! keeping both parties' views additively masked throughout the network.
//!
//! Negative values are the top half of `Z_p` (balanced representation), so
//! `ReLU(y) = 0` iff `y > p/2`.

use crate::circuit::{Circuit, CircuitBuilder};

/// Description of the input layout of a [`relu_circuit`].
///
/// Input wires are ordered: garbler-share bits, evaluator-share bits, then
/// next-layer randomness bits (each `k` bits, little-endian). Which physical
/// party supplies which range depends on the protocol (Server-Garbler vs
/// Client-Garbler); this struct just names the ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReluLayout {
    /// Bit width `k = ceil(log2 p)`.
    pub width: usize,
    /// Offset of the first share's bits (always 0).
    pub share_a: usize,
    /// Offset of the second share's bits.
    pub share_b: usize,
    /// Offset of the next-layer randomness bits.
    pub rand_r: usize,
    /// Total number of input wires (`3k`).
    pub total_inputs: usize,
}

impl ReluLayout {
    /// Computes the layout for bit width `k`.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            share_a: 0,
            share_b: width,
            rand_r: 2 * width,
            total_inputs: 3 * width,
        }
    }
}

/// Builds the DELPHI ReLU circuit over `Z_p`:
/// `out = (ReLU(a + b mod p) − r) mod p`, all values `k`-bit little-endian
/// with `k = ceil(log2 p)`.
///
/// # Panics
///
/// Panics if `p < 3` or `p >= 2^40` (wider fields need multi-word gadgets
/// that this reproduction does not require).
pub fn relu_circuit(p: u64) -> (Circuit, ReluLayout) {
    relu_trunc_circuit(p, 0)
}

/// Builds the fixed-point variant used by DELPHI-style protocols:
/// `out = (ReLU(a + b mod p) >> shift) − r  (mod p)`.
///
/// The truncation is exact because post-ReLU values are non-negative, so
/// dropping `shift` low bits is plain integer division by `2^shift` — this
/// is how the network's fractional scale is restored after every linear
/// layer without any extra garbled gates (bit drops are free).
///
/// # Panics
///
/// Panics if `p < 3`, `p >= 2^40`, or `shift >= ceil(log2 p)`.
pub fn relu_trunc_circuit(p: u64, shift: u32) -> (Circuit, ReluLayout) {
    assert!(p >= 3, "field too small for signed semantics");
    assert!(p < (1 << 40), "field width beyond supported gadget range");
    let k = 64 - (p - 1).leading_zeros() as usize;
    assert!(
        (shift as usize) < k,
        "truncation must leave at least one bit"
    );
    let layout = ReluLayout::new(k);
    let mut cb = CircuitBuilder::new();
    let a = cb.inputs(k);
    let b = cb.inputs(k);
    let r = cb.inputs(k);
    // y = a + b mod p
    let y = cb.add_mod(&a, &b, p);
    // negative iff y > p/2, i.e. y >= floor(p/2) + 1
    let half = cb.constant(p / 2 + 1, k);
    let neg = cb.geq(&y, &half);
    // relu = neg ? 0 : y
    let zero = cb.constant(0, k);
    let relu = cb.mux_word(neg, &zero, &y);
    // trunc: drop `shift` low bits (free), zero-extend back to k bits
    let mut truncated: Vec<_> = relu[shift as usize..].to_vec();
    truncated.resize(k, crate::circuit::Bit::Const(false));
    // out = trunc - r mod p
    let out = cb.sub_mod(&truncated, &r, p);
    (cb.build(&out), layout)
}

/// Reference semantics of [`relu_trunc_circuit`].
pub fn relu_trunc_reference(p: u64, shift: u32, a: u64, b: u64, r: u64) -> u64 {
    let y = (a + b) % p;
    let relu = if y > p / 2 { 0 } else { y };
    ((relu >> shift) + p - r % p) % p
}

/// Reference (cleartext) semantics of the garbled ReLU: what the circuit
/// must compute. Used by tests and by the protocol's correctness checks.
pub fn relu_reference(p: u64, a: u64, b: u64, r: u64) -> u64 {
    let y = (a + b) % p;
    let relu = if y > p / 2 { 0 } else { y };
    (relu + p - r % p) % p
}

/// Number of AND gates in the untruncated (shift 0) ReLU circuit for field
/// `p` — the quantity that determines per-ReLU garbled-circuit size and
/// hence the paper's storage and communication figures. At the protocol's
/// 20-bit field it is 138; a truncating circuit drops one zeroing mux per
/// shifted-out bit (133 at shift 5).
pub fn relu_and_count(p: u64) -> usize {
    relu_circuit(p).0.and_count()
}

/// Garbles `m` independent ReLU-with-truncation comparators through the
/// batched hash — 8 instances per AES batch (see
/// [`crate::garble::garble_many`]) — and returns the shared circuit, its
/// layout, and the per-element garblings. This is the shape every layer of
/// the online phase needs: one comparator per activation element, all over
/// the same circuit.
pub fn garble_relus<R: rand::Rng + ?Sized>(
    p: u64,
    shift: u32,
    m: usize,
    rng: &mut R,
) -> (Circuit, ReluLayout, Vec<crate::garble::Garbling>) {
    let (circuit, layout) = relu_trunc_circuit(p, shift);
    let garblings = crate::garble::garble_many(&circuit, m, rng);
    (circuit, layout, garblings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{from_bits, to_bits};
    use crate::garble::{evaluate, garble};
    use proptest::prelude::*;
    use rand::SeedableRng;

    const P: u64 = 65537; // 17-bit Fermat prime for quick tests

    fn run_plain(p: u64, a: u64, b: u64, r: u64) -> u64 {
        let (c, layout) = relu_circuit(p);
        let mut inp = to_bits(a, layout.width);
        inp.extend(to_bits(b, layout.width));
        inp.extend(to_bits(r, layout.width));
        from_bits(&c.eval_plain(&inp))
    }

    #[test]
    fn layout_shape() {
        let (c, layout) = relu_circuit(P);
        assert_eq!(layout.width, 17);
        assert_eq!(layout.total_inputs, 51);
        assert_eq!(c.num_inputs, 51);
        assert_eq!(c.outputs.len(), 17);
    }

    #[test]
    fn positive_passthrough() {
        // a + b small positive, r = 0 -> output = a + b
        assert_eq!(run_plain(P, 100, 200, 0), 300);
    }

    #[test]
    fn negative_clamps_to_zero() {
        // y in the top half of Z_p is negative.
        let y_neg = P - 5; // represents -5
        assert_eq!(run_plain(P, y_neg, 0, 0), 0);
    }

    #[test]
    fn boundary_values() {
        // y == p/2 (maximum positive) passes through.
        assert_eq!(run_plain(P, P / 2, 0, 0), P / 2);
        // y == p/2 + 1 (minimum magnitude negative) clamps.
        assert_eq!(run_plain(P, P / 2 + 1, 0, 0), 0);
        // y == 0 stays 0.
        assert_eq!(run_plain(P, 0, 0, 0), 0);
    }

    #[test]
    fn masking_subtracts_r() {
        assert_eq!(run_plain(P, 10, 20, 7), 23);
        assert_eq!(run_plain(P, 10, 20, 50), P - 20); // wraps
    }

    #[test]
    fn shares_that_wrap_modulus() {
        // a + b >= p must reduce before the sign test.
        let a = P - 1;
        let b = 5;
        assert_eq!(run_plain(P, a, b, 0), 4); // (-1) + 5 = 4
    }

    #[test]
    fn garbled_relu_matches_reference() {
        let (c, layout) = relu_circuit(P);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        use rand::Rng;
        for _ in 0..20 {
            let a = rng.gen_range(0..P);
            let b = rng.gen_range(0..P);
            let r = rng.gen_range(0..P);
            let mut inp = to_bits(a, layout.width);
            inp.extend(to_bits(b, layout.width));
            inp.extend(to_bits(r, layout.width));
            let g = garble(&c, &mut rng);
            let labels = g.encoding.encode_bits(0, &inp);
            let out = g.garbled.decode_outputs(&evaluate(&c, &g.garbled, &labels));
            assert_eq!(from_bits(&out), relu_reference(P, a, b, r));
        }
    }

    #[test]
    fn and_count_is_linear_in_width() {
        let narrow = relu_and_count(251); // 8-bit
        let wide = relu_and_count(65537); // 17-bit
        assert!(narrow > 0);
        // Roughly proportional to width (each gadget is one AND per bit).
        let per_bit_narrow = narrow as f64 / 8.0;
        let per_bit_wide = wide as f64 / 17.0;
        assert!(
            (per_bit_narrow - per_bit_wide).abs() < 2.0,
            "AND gates per bit should be nearly constant: {per_bit_narrow} vs {per_bit_wide}"
        );
    }

    #[test]
    #[should_panic]
    fn oversized_field_rejected() {
        relu_circuit(1 << 41);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn plain_circuit_matches_reference(a in 0..P, b in 0..P, r in 0..P) {
            prop_assert_eq!(run_plain(P, a, b, r), relu_reference(P, a, b, r));
        }

        #[test]
        fn reference_relu_identity_on_shares(x in 0..P, r1 in 0..P, r2 in 0..P) {
            // Splitting x into shares never changes the result.
            let a = (x + P - r1) % P;
            let out = relu_reference(P, a, r1, r2);
            let direct = {
                let relu = if x > P / 2 { 0 } else { x };
                (relu + P - r2) % P
            };
            prop_assert_eq!(out, direct);
        }
    }
}
#[cfg(test)]
mod trunc_tests {
    use super::*;
    use crate::circuit::{from_bits, to_bits, Gate};
    use crate::garble::{evaluate, garble};
    use proptest::prelude::*;
    use rand::SeedableRng;

    const P: u64 = 65537;

    fn run_plain_trunc(p: u64, shift: u32, a: u64, b: u64, r: u64) -> u64 {
        let (c, layout) = relu_trunc_circuit(p, shift);
        let mut inp = to_bits(a, layout.width);
        inp.extend(to_bits(b, layout.width));
        inp.extend(to_bits(r, layout.width));
        from_bits(&c.eval_plain(&inp))
    }

    #[test]
    fn trunc_drops_low_bits() {
        assert_eq!(run_plain_trunc(P, 5, 320, 0, 0), 10);
        assert_eq!(run_plain_trunc(P, 5, 321, 0, 0), 10); // floor
        assert_eq!(run_plain_trunc(P, 0, 320, 0, 0), 320);
    }

    #[test]
    fn trunc_of_negative_is_zero() {
        assert_eq!(run_plain_trunc(P, 5, P - 320, 0, 0), 0);
    }

    #[test]
    fn garbled_trunc_matches_reference() {
        let shift = 5u32;
        let (c, layout) = relu_trunc_circuit(P, shift);
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        use rand::Rng;
        for _ in 0..10 {
            let a = rng.gen_range(0..P);
            let b = rng.gen_range(0..P);
            let r = rng.gen_range(0..P);
            let mut inp = to_bits(a, layout.width);
            inp.extend(to_bits(b, layout.width));
            inp.extend(to_bits(r, layout.width));
            let g = garble(&c, &mut rng);
            let labels = g.encoding.encode_bits(0, &inp);
            let out = g.garbled.decode_outputs(&evaluate(&c, &g.garbled, &labels));
            assert_eq!(from_bits(&out), relu_trunc_reference(P, shift, a, b, r));
        }
    }

    #[test]
    #[should_panic]
    fn full_truncation_rejected() {
        relu_trunc_circuit(65537, 17);
    }

    /// The AND audit's baseline at the protocol's 20-bit field: 3k for the
    /// reduction (its unread top mux dropped), k for the sign test, k − s
    /// zeroing muxes that truncation keeps, 2k for the masking subtraction
    /// (its final carry dropped).
    #[test]
    fn and_count_at_the_protocol_field() {
        let p = 1032193;
        assert_eq!(relu_and_count(p), 138);
        assert_eq!(relu_trunc_circuit(p, 5).0.and_count(), 133);
        assert_eq!(relu_trunc_circuit(p, 5).0.gates.len(), 579);
    }

    #[test]
    fn no_gate_is_dead_at_any_shift() {
        for p in [31u64, 65537, 1032193] {
            let k = 64 - (p - 1).leading_zeros();
            for shift in 0..k {
                let (c, _) = relu_trunc_circuit(p, shift);
                let mut read = vec![false; c.num_wires];
                for &o in &c.outputs {
                    read[o] = true;
                }
                for g in &c.gates {
                    match *g {
                        Gate::Xor { a, b, .. } | Gate::And { a, b, .. } => {
                            read[a] = true;
                            read[b] = true;
                        }
                        Gate::Not { a, .. } => read[a] = true,
                    }
                }
                let unread = (c.num_inputs..c.num_wires).filter(|&w| !read[w]).count();
                assert_eq!(unread, 0, "p = {p}, shift = {shift}");
                assert_eq!(c.num_wires, c.num_inputs + c.gates.len());
            }
        }
    }

    #[test]
    fn exhaustive_small_field_matches_reference_at_every_shift() {
        let p = 31u64;
        for shift in 0..5 {
            let (c, layout) = relu_trunc_circuit(p, shift);
            for a in 0..p {
                for b in 0..p {
                    for r in 0..p {
                        let mut inp = to_bits(a, layout.width);
                        inp.extend(to_bits(b, layout.width));
                        inp.extend(to_bits(r, layout.width));
                        assert_eq!(
                            from_bits(&c.eval_plain(&inp)),
                            relu_trunc_reference(p, shift, a, b, r),
                            "shift {shift}: a = {a}, b = {b}, r = {r}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn plain_trunc_matches_reference(a in 0..P, b in 0..P, r in 0..P, shift in 0u32..10) {
            prop_assert_eq!(
                run_plain_trunc(P, shift, a, b, r),
                relu_trunc_reference(P, shift, a, b, r)
            );
        }
    }
}
