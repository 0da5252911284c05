//! Garbled circuits for private inference: FreeXOR + HalfGates over a
//! fixed-key AES hash, a constant-folding circuit builder with the mod-p
//! arithmetic the ReLU needs, and the DELPHI garbled ReLU with truncation —
//! the one circuit the protocols garble.
//!
//! # Role in the system
//!
//! Hybrid PI protocols (DELPHI, Gazelle) evaluate every ReLU inside a
//! garbled circuit so the non-linearity never sees cleartext activations.
//! One party garbles (producing ~32 bytes per AND gate that must be stored
//! and transmitted — the dominant storage/communication cost the paper
//! characterizes) and the other evaluates with two AES calls per AND gate.
//!
//! # Example
//!
//! ```
//! use pi_gc::{circuit::CircuitBuilder, garble};
//! use rand::SeedableRng;
//!
//! // Build a tiny circuit: out = (a & b) ^ c
//! let mut cb = CircuitBuilder::new();
//! let w = cb.inputs(3);
//! let ab = cb.and(w[0], w[1]);
//! let out = cb.xor(ab, w[2]);
//! let circuit = cb.build(&[out]);
//!
//! // Garble, encode inputs, evaluate, decode.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = garble::garble(&circuit, &mut rng);
//! let labels = g.encoding.encode_bits(0, &[true, true, false]);
//! let out_labels = garble::evaluate(&circuit, &g.garbled, &labels);
//! assert_eq!(g.garbled.decode_outputs(&out_labels), vec![true]);
//! ```

// `deny` rather than `forbid`: the AES-NI backend (`aes::ni`) carries the
// one scoped `#![allow(unsafe_code)]` for its intrinsics, exactly like
// `pi_field::simd`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod circuit;
pub mod garble;
pub mod relu;

pub use aes::{Aes128, AesBackend, GcHash};
pub use circuit::{Circuit, CircuitBuilder};
pub use garble::{
    evaluate, evaluate_many, evaluate_many_with, garble, garble_many, GarbledCircuit, Garbling,
    InputEncoding, Label,
};
pub use relu::{garble_relus, relu_trunc_circuit, relu_trunc_reference, ReluLayout};
