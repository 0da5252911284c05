//! BFV homomorphic encryption for hybrid private inference.
//!
//! This crate implements the lattice-based leveled HE scheme that DELPHI and
//! Gazelle build their offline linear-layer evaluation on:
//!
//! * [`BfvParams`] — ring degree `N`, ciphertext modulus `q`, plaintext
//!   modulus `t ≡ 1 (mod 2N)` (prime, so plaintexts batch into SIMD slots),
//!   and the special prime `P` rotation keys are extended by.
//! * [`keys`] — the secret key, its one encryption (symmetric, with a
//!   seed-expanded mask: [`SecretKey::encrypt_seeded`], what the protocol's
//!   client uploads) and Galois (rotation) keys: one key an element, two
//!   wide digits over `q·P`, one key-switch path (lift, accumulate, divide
//!   by `P`) under every rotation. A [`PublicKey`] can still be generated
//!   and framed, but nothing encrypts under it; the ledger is its one
//!   reader.
//! * [`BatchEncoder`] — packs vectors of `Z_t` values into plaintext slots
//!   via a CRT/NTT encoding, exactly the layout rotations act on.
//! * [`Ciphertext`] — additions, plaintext multiplication, and slot
//!   rotations; everything DELPHI's offline phase (`E(w·r − s)`) needs.
//! * [`linalg`] — Halevi–Shoup diagonal-method matrix-vector products
//!   over packed ciphertexts (replicated diagonals: a hoisted
//!   baby-step/giant-step inside each replica, then a rotate-and-sum), and
//!   the rotation-key plan they need.
//! * [`wire`] — the byte frames the protocol ships: ciphertexts (seeded
//!   uploads, mod-switched responses) and Galois key sets (`k0` residues
//!   under `q` and `P`), bit-packed and seed-expanded, behind readers that
//!   return a typed [`WireError`] on anything a peer can send — plus the
//!   public-key frame the ledger still replays.
//!
//! # Example
//!
//! ```
//! use pi_he::{BfvParams, KeySet, BatchEncoder};
//! use rand::SeedableRng;
//!
//! let params = BfvParams::small_test();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let keys = KeySet::generate(&params, &mut rng);
//! let enc = BatchEncoder::new(&params);
//!
//! let v: Vec<u64> = (0..enc.slot_count() as u64).collect();
//! let pt = enc.encode(&v);
//! let (ct, _seed) = keys.secret.encrypt_seeded(&pt, &mut rng);
//! let dec = enc.decode(&keys.secret.decrypt(&ct));
//! assert_eq!(dec, v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cipher;
pub mod encoder;
pub mod keys;
pub mod linalg;
pub mod params;
pub mod wire;

pub use cipher::{Ciphertext, PlainOperand, Plaintext};
pub use encoder::BatchEncoder;
pub use keys::{GaloisKeys, HoistedCiphertext, KeyError, KeySet, NoiseStage, PublicKey, SecretKey};
pub use params::BfvParams;
pub use wire::{
    ciphertext_from_bytes, ciphertext_to_bytes, ciphertext_to_bytes_seeded, flat_frame_len,
    galois_keys_frame, galois_keys_frame_entries, galois_keys_from_bytes,
    galois_keys_from_bytes_reusing, galois_keys_to_bytes, public_key_from_bytes,
    public_key_to_bytes, WireError,
};
