//! Negacyclic polynomial rings `Z_q[x]/(x^N + 1)` with NTT acceleration.
//!
//! This crate is the lattice substrate underneath the BFV homomorphic
//! encryption scheme in `pi-he`. It provides:
//!
//! * [`RingContext`] — precomputed NTT tables for a power-of-two `N` and an
//!   NTT-friendly prime `q ≡ 1 (mod 2N)`.
//! * [`Poly`] — a polynomial in either coefficient or evaluation (NTT) form,
//!   with ring add/sub/mul and Galois automorphisms `x ↦ x^g`.
//! * [`sample`] — uniform, ternary, and centered-binomial error samplers used
//!   for RLWE key generation and encryption.
//! * [`pack`] — little-endian bit-packing of coefficient vectors, the body
//!   of every `pi-he` wire frame.
//!
//! Every butterfly stage and pointwise pass is one call into
//! [`pi_field::simd`] (runtime AVX-512/AVX2/NEON detection, `PI_SIMD`
//! toggle, the scalar oracle as one more backend); nothing here asks which
//! backend it got, except [`ntt::GaloisPerm`] for its blocked tables.
//!
//! # Examples
//!
//! ```
//! use pi_poly::{RingContext, Poly};
//! use std::sync::Arc;
//!
//! let ctx = Arc::new(RingContext::new(1024, 28));
//! let a = Poly::from_coeffs(ctx.clone(), vec![1; 1024]);
//! let b = Poly::from_coeffs(ctx.clone(), vec![2; 1024]);
//! let c = a.add(&b);
//! assert_eq!(c.coeffs()[0], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ntt;
pub mod pack;
pub mod poly;
pub mod sample;

pub use ntt::{GaloisPerm, NttTables, ShoupVec};
pub use poly::{Poly, PolyForm, PolyOperand, RingContext};
