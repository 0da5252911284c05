//! Oblivious transfer: Naor–Pinkas base OT over edwards25519 and the IKNP
//! OT extension.
//!
//! OT is the mechanism by which the garbled-circuit evaluator obtains wire
//! labels for *its* input bits without the garbler learning those bits
//! (§2.1.4 of the paper). A handful of public-key **base OTs** bootstrap
//! thousands of cheap symmetric-key **extended OTs** — which is why the
//! paper can treat OT compute as minor while still accounting for its
//! communication.
//!
//! The 128 base OTs run once per client pair: they only seed the
//! extension, and the seeds serve for as long as the two parties agree on
//! a position in the PRG streams they expand to (`pi-core` keeps both
//! halves between a returning client's requests; only a first contact
//! incurs them online). [`base`] keeps them to one variable-base scalar
//! multiplication per transfer: Naor and Pinkas's batched form (one sender
//! scalar `r` and one `r·G` for all 128), every multiple of the base point
//! and of `r·G` read off a fixed-base window table, and every encoding's
//! division folded into one inversion per step — ≈4 000 multiplications in
//! GF(2²⁵⁵ − 19) per transfer, both parties together (the sender's share
//! eight to a register where the CPU has AVX-512 IFMA), and
//! `32 + 32·128 + (32 + 32·128)` = 8 256 bytes on the wire. The group is the
//! prime-order subgroup of edwards25519 (≈126-bit discrete logs, level with
//! the 128-bit labels); secret scalars are multiples of the cofactor and
//! every peer point is validated as it is decoded (see [`base`]).
//!
//! **Stream-position invariant.** Every extension names the PRG block it
//! starts at ([`ext::OtExtReceiver::extend_at`],
//! [`ext::OtExtSender::transfer_at`]) and reads [`ext::blocks`] of them;
//! under one base setup no block is ever expanded twice — not by two
//! extensions of one session, not by two sessions of one pair. Re-reading
//! a block is a two-time pad over the receiver's choice bits (see [`ext`]).
//!
//! **Unsafe code.** The crate is `deny(unsafe_code)`. The one exception is
//! the eight-lane edwards25519 kernel behind the base-OT sender (`curve`'s
//! `lanes` module, AVX-512 IFMA intrinsics): it is built on every x86_64
//! target, carries a scoped `allow`, and states its safety contract. It
//! runs where `pi_field::simd` resolved to AVX-512 and the CPU has IFMA, so
//! `PI_SIMD=scalar` turns it off with every other lane kernel.
//!
//! The crate is transport-agnostic: protocol messages are plain data with
//! `byte_len` accessors, and `pi-core` moves them over its byte-counting
//! channels.
//!
//! The extension hot path works entirely on packed bits: choices travel as
//! a [`bitmat::BitVec`] (128 bits per `u128` word), the `m × 128` OT matrix
//! is built column-major from raw AES-CTR blocks and flipped to row-major
//! with a blocked SWAR transpose, and transfer masks are derived 8 rows per
//! batched AES call. The seed bool-matrix code survives as
//! [`ext::reference`], the bit-exact differential oracle.
//!
//! # Example (in-process round trip)
//!
//! ```
//! use pi_ot::bitmat::BitVec;
//! use pi_ot::ext::{self, OtExtReceiver, OtExtSender};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Base phase (normally over the network).
//! let (sender_setup, receiver_setup) = ext::setup_in_process(&mut rng);
//! let sender = OtExtSender::new(sender_setup);
//! let receiver = OtExtReceiver::new(receiver_setup);
//!
//! let choices = BitVec::from_bools(&[true, false, true]);
//! let pairs: Vec<(u128, u128)> = vec![(1, 2), (3, 4), (5, 6)];
//! let (u_msg, keys) = receiver.extend(&choices, &mut rng);
//! let y_msg = sender.transfer(&u_msg, &pairs);
//! let got = receiver.decode(&y_msg, &choices, &keys);
//! assert_eq!(got, vec![2, 3, 6]);
//! ```

// `deny` rather than `forbid`: the curve's eight-lane kernel
// (`curve::lanes`) carries the one scoped `#![allow(unsafe_code)]` for its
// intrinsics, as `pi_gc::aes::ni` does.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod bitmat;
// Public for `pi-bench`'s `base_ot` group and the peer-point sweeps of
// `tests/serve_concurrency.rs` only; the interface is `base`.
#[doc(hidden)]
pub mod curve;
pub mod ext;

pub use base::{BaseOtReceiver, BaseOtSender};
pub use bitmat::BitVec;
pub use ext::{OtExtReceiver, OtExtSender};
