//! Modular-arithmetic substrate for the private-inference stack.
//!
//! This crate provides the arithmetic building blocks that the polynomial
//! rings and the BFV homomorphic encryption above it are built on:
//!
//! * [`Modulus`] — a word-sized modulus with Barrett reduction, giving fast
//!   `add`/`sub`/`mul`/`pow`/`inv` over `Z_q` for `q < 2^62`, plus
//!   precomputed-quotient (Shoup) multiplication ([`ShoupMul`]) and
//!   lazy-reduction arithmetic over `[0, 2q)`/`[0, 4q)` for hot NTT and
//!   pointwise kernels (see the `modulus` module docs for the range table).
//! * [`prime`] — deterministic Miller–Rabin primality testing and searching
//!   for NTT-friendly primes (`q ≡ 1 (mod 2N)`), plus primitive-root finding
//!   and multi-prime searches ([`find_distinct_ntt_primes`]).
//! * [`simd`] — lane-parallel SIMD kernels (AVX-512 and AVX2 on x86_64,
//!   NEON on aarch64, the same kernels at scalar `u64` lanes
//!   elsewhere) for the Shoup/lazy hot loops, behind runtime detection and
//!   a `PI_SIMD` toggle; the element-at-a-time loops are one more backend
//!   there, written against [`Modulus`] alone, and serve as the
//!   differential oracle.
//!
//! # Examples
//!
//! ```
//! use pi_field::Modulus;
//!
//! let q = Modulus::new(97);
//! assert_eq!(q.mul(50, 2), 3); // 100 mod 97
//! assert_eq!(q.pow(3, 96), 1); // Fermat
//! assert_eq!(q.mul(5, q.inv(5).unwrap()), 1);
//! ```

// `unsafe` is denied crate-wide and allowed back only inside the
// intrinsics backends of `simd` (AVX2/NEON), where every unsafe fn's sole
// obligation — the target feature being present — is discharged by the
// runtime dispatcher before entry.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod modulus;
pub mod prime;
pub mod simd;

pub use modulus::{Modulus, ShoupMul};
pub use prime::{find_distinct_ntt_primes, find_ntt_prime, is_prime};
