//! Binary wire format for the two HE objects the protocol sends across a
//! machine boundary — ciphertexts (fresh, seed-expanded, and
//! modulus-down-switched) and Galois key sets — and for public keys, whose
//! frame only the ledger still encodes (see [`crate::PublicKey`]).
//!
//! # Format, version 4
//!
//! Every frame starts with a 10-byte common header:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic (`u32` LE, one per frame kind — see below) |
//! | 4      | 1    | version (= [`WIRE_VERSION`]; readers reject others) |
//! | 5      | 1    | flags (bit 0 = [`FLAG_SEEDED`]; other bits must be 0) |
//! | 6      | 4    | ring degree `N` (`u32` LE) |
//!
//! **Versioning rule:** any change to the byte layout — or to what the
//! bytes mean — bumps [`WIRE_VERSION`]; readers reject frames whose version
//! byte differs ([`WireError::UnsupportedVersion`]) rather than guessing.
//! Version 3 kept every length of version 2 and changed the basis of the
//! Galois-key polynomials (below), which no reader could have told from
//! the bytes; version 4 changed what a Galois key *is* (two wide digits
//! over `q·P` instead of a gadget's worth over `q`) and the `BFVG` layout
//! with it. Unknown flag bits are likewise rejected
//! ([`WireError::BadFlags`]), so flags can only be added together with a
//! version bump.
//!
//! **Canonical polynomials:** every serialized polynomial is strictly
//! reduced below its modulus — never lazy `[0, 2q)` representatives — in
//! the one basis its frame kind fixes; readers reject any unpacked word at
//! or above the modulus it was packed under
//! ([`WireError::UnreducedCoefficient`]) in either.
//!
//! * Ciphertext components and the public key's `pk0` travel in
//!   **coefficient form**: writers canonicalize (inverse-NTT + reduce)
//!   before packing, so a ciphertext serializes to the same bytes whatever
//!   form it is held in.
//! * The `k0` polynomials of a Galois-key frame travel in **evaluation
//!   form**, the form they are generated in and consumed in: neither party
//!   transforms them. That makes the slot order of
//!   [`pi_poly::NttTables::forward`] wire contract — slot `j` holds
//!   `f(ψ^(2·brv(j) + 1))`, with `brv` the `log2 N`-bit reversal and
//!   `ψ = pi_field::prime::root_of_unity(m, 2N)` for the residue's modulus
//!   `m` (the Longa–Naehrig order) — identical on every `PI_SIMD` backend
//!   and pinned by a known-answer test on each
//!   (`tests/ntt_simd_differential.rs`).
//!
//! **Bit-packing:** each word is stored at `ceil(log2 m)` bits of its
//! modulus `m` in one contiguous little-endian bitstream per polynomial
//! ([`pi_poly::pack`]); the stream's final byte is zero-padded. A 62-bit
//! modulus thus costs 7.75 bytes/coefficient instead of the flat 8, a
//! 45-bit down-switched response 5.625, a key's 40-bit `P` residue 5.
//!
//! **Seed frames:** a frame with [`FLAG_SEEDED`] set replaces every
//! *uniform* polynomial (a ciphertext's `c1`, every `a` of a key set)
//! with the 32-byte PRG seed it was expanded from; the reader regenerates
//! them deterministically (`StdRng::from_seed` → rejection sampling from
//! draws of the modulus' bit width, [`pi_poly::sample::uniform_into`], a
//! function of the word stream alone) and bumps the `wire.seed_expand`
//! trace counter.
//! The expansion **is** evaluation-form data: a uniform ring element is
//! uniform in either basis, so no transform runs on it on either party.
//! This halves fresh-ciphertext frames and drops Galois-key frames to the
//! `k0` halves plus 32 bytes.
//!
//! # Frame bodies (after the common header)
//!
//! * **Ciphertext** (`"BFVC"`): `q: u64 LE`, packed `c0`; then either the
//!   32-byte seed (seeded) or packed `c1`. `q` is the modulus the
//!   components actually live under — the ciphertext modulus for uploads,
//!   [`BfvParams::down_q`] for modulus-down-switched responses; readers
//!   accept either and rebuild in the matching ring.
//! * **Public key** (`"BFVK"`, always seeded): `q: u64 LE`, packed `pk0`,
//!   32-byte seed for `pk1`. The reader keeps the seed and expands
//!   nothing: no encryption runs under a public key.
//! * **Galois keys** (`"BFVG"`, always seeded): `q: u64 LE`, the special
//!   prime `P: u64 LE`, `num_entries: u32 LE`, 32-byte seed, then per entry
//!   (in the seed-stream replay order; writers emit ascending element):
//!
//!   | size | field |
//!   |------|-------|
//!   | 4 | `g` (`u32` LE) |
//!   | `KEY_DIGITS ×` | packed `k0 mod q` at `bits(q)` bits, then packed `k0 mod P` at `bits(P)` bits, evaluation form, least significant digit first |
//!
//!   Every entry has the same length, so the frame's length is a function
//!   of `num_entries`, and a count that disagrees with the length is
//!   refused; it also puts every entry at a fixed offset, so a writer that
//!   generates entries on several cores packs each into its own slice of
//!   the frame. The seed stream holds, digit after digit in the same order,
//!   `a mod q` then `a mod P`. Which entries a set holds is for its user
//!   to check (the server against [`crate::linalg::key_plan`], from the
//!   headers alone: [`galois_keys_frame_entries`]); the reader checks that
//!   each is usable: the keys must be over this party's `q·P`
//!   ([`WireError::ParamMismatch`] otherwise — a key under another special
//!   prime switches to garbage) and `g` must be an odd Galois element
//!   below `2N`, or its slot permutation is undefined.
//!
//! Readers never panic on malformed input: every length is checked before
//! indexing, every header field is checked against what the keys it
//! describes can be used for, a frame must end where its last field does
//! (trailing bytes are [`WireError::Truncated`]'s "wrong length"), and
//! every failure surfaces as a typed [`WireError`].

use crate::cipher::Ciphertext;
use crate::keys::{expansion_rng, GaloisKeys, PublicKey, SecretKey};
use crate::params::{BfvParams, KEY_DIGITS};
use pi_field::Modulus;
use pi_poly::pack::{pack_into, pack_slice, packed_len, unpack_into};
use pi_poly::{sample, Poly, PolyForm, RingContext};
use pi_trace::par;
use rand::Rng;
use std::sync::Arc;

/// Current wire format version (see the module docs' versioning rule).
pub const WIRE_VERSION: u8 = 4;

/// Flag bit 0: uniform components are replaced by a 32-byte PRG seed.
pub const FLAG_SEEDED: u8 = 0b0000_0001;

/// Serialization/deserialization failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Byte buffer too short or of the wrong length.
    Truncated,
    /// The frame's magic does not name the expected frame kind.
    BadMagic,
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The frame carries flag bits this version does not define, or a flag
    /// combination the frame kind does not admit.
    BadFlags(u8),
    /// Header fields disagree with the given parameters.
    ParamMismatch,
    /// A coefficient was not reduced modulo its modulus.
    UnreducedCoefficient,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "byte buffer truncated"),
            WireError::BadMagic => write!(f, "unknown frame magic"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::BadFlags(fl) => write!(f, "undefined flag bits {fl:#04x}"),
            WireError::ParamMismatch => write!(f, "header does not match parameters"),
            WireError::UnreducedCoefficient => {
                write!(f, "coefficient not reduced below its modulus")
            }
        }
    }
}

impl std::error::Error for WireError {}

const MAGIC_CT: u32 = 0x4246_5643; // "BFVC"
const MAGIC_PK: u32 = 0x4246_564B; // "BFVK"
const MAGIC_GK: u32 = 0x4246_5647; // "BFVG"

/// Common-header length: magic + version + flags + n.
const HEADER_LEN: usize = 10;
const SEED_LEN: usize = 32;

fn write_header(out: &mut Vec<u8>, magic: u32, flags: u8, n: usize) {
    out.extend_from_slice(&magic.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(flags);
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Parses the common header, returning `(flags, n)`.
fn read_header(bytes: &[u8], magic: u32, allowed_flags: u8) -> Result<(u8, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if u32::from_le_bytes(bytes[0..4].try_into().expect("len checked")) != magic {
        return Err(WireError::BadMagic);
    }
    if bytes[4] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(bytes[4]));
    }
    let flags = bytes[5];
    if flags & !allowed_flags != 0 {
        return Err(WireError::BadFlags(flags));
    }
    let n = u32::from_le_bytes(bytes[6..10].try_into().expect("len checked")) as usize;
    Ok((flags, n))
}

fn read_u64(bytes: &[u8], offset: &mut usize) -> Result<u64, WireError> {
    let end = offset.checked_add(8).ok_or(WireError::Truncated)?;
    if bytes.len() < end {
        return Err(WireError::Truncated);
    }
    let v = u64::from_le_bytes(bytes[*offset..end].try_into().expect("len checked"));
    *offset = end;
    Ok(v)
}

fn read_u32(bytes: &[u8], offset: &mut usize) -> Result<u32, WireError> {
    let end = offset.checked_add(4).ok_or(WireError::Truncated)?;
    if bytes.len() < end {
        return Err(WireError::Truncated);
    }
    let v = u32::from_le_bytes(bytes[*offset..end].try_into().expect("len checked"));
    *offset = end;
    Ok(v)
}

fn read_seed(bytes: &[u8], offset: &mut usize) -> Result<[u8; 32], WireError> {
    let end = offset.checked_add(SEED_LEN).ok_or(WireError::Truncated)?;
    if bytes.len() < end {
        return Err(WireError::Truncated);
    }
    let seed: [u8; 32] = bytes[*offset..end].try_into().expect("len checked");
    *offset = end;
    Ok(seed)
}

/// Canonicalizes a polynomial (coefficient form, strictly reduced) and
/// appends it bit-packed at `ceil(log2 q)` bits per coefficient.
fn write_poly(out: &mut Vec<u8>, poly: &Poly) {
    let q = poly.ctx().q();
    let mut coeffs = poly.coeffs();
    // `coeffs()` leaves the NTT basis via the strictly-reducing inverse
    // transform, but a coefficient-form poly could in principle carry lazy
    // representatives; one reduce pass makes the bytes canonical either way.
    for c in &mut coeffs {
        *c = q.reduce(*c);
    }
    pack_into(out, &coeffs, q.bits() as usize);
}

/// Unpacks the `n` words of one packed polynomial of `ring` into `words`
/// (which reallocates only if it has to), rejecting any word `>= q` — in
/// whichever basis the frame kind defines them.
fn read_words(
    bytes: &[u8],
    ring: &Arc<RingContext>,
    offset: &mut usize,
    words: &mut Vec<u64>,
) -> Result<(), WireError> {
    let q = ring.q();
    let end = offset
        .checked_add(poly_len(ring.n(), q))
        .ok_or(WireError::Truncated)?;
    if bytes.len() < end || !unpack_into(&bytes[*offset..end], ring.n(), q.bits() as usize, words) {
        return Err(WireError::Truncated);
    }
    if words.iter().any(|&c| c >= q.value()) {
        return Err(WireError::UnreducedCoefficient);
    }
    *offset = end;
    Ok(())
}

/// Reads one coefficient-form polynomial of `ring`.
fn read_poly(bytes: &[u8], ring: &Arc<RingContext>, offset: &mut usize) -> Result<Poly, WireError> {
    let mut coeffs = Vec::new();
    read_words(bytes, ring, offset, &mut coeffs)?;
    Ok(Poly::from_coeffs(ring.clone(), coeffs))
}

/// A frame ends where its last field does: bytes left over are a frame of
/// the wrong length.
fn expect_end(bytes: &[u8], offset: usize) -> Result<(), WireError> {
    if offset == bytes.len() {
        Ok(())
    } else {
        Err(WireError::Truncated)
    }
}

/// Expands the uniform polynomial a 32-byte seed stands for: evaluation
/// form as drawn, bit-identical on every backend.
fn expand_poly(ring: &Arc<RingContext>, seed: &[u8; 32]) -> Poly {
    pi_trace::incr(pi_trace::Counter::WireSeedExpand);
    sample::uniform(ring, PolyForm::Ntt, &mut expansion_rng(seed))
}

/// Bytes a packed polynomial occupies under modulus `m`.
fn poly_len(n: usize, m: Modulus) -> usize {
    packed_len(n, m.bits() as usize)
}

// ---------------------------------------------------------------------------
// Ciphertexts
// ---------------------------------------------------------------------------

/// Serializes a two-polynomial ciphertext. The frame records the modulus the
/// components live under, so both full-width uploads and
/// [`Ciphertext::mod_switch_down`] responses serialize through this one
/// entry point.
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    let ctx = ct.c0.ctx();
    let (n, q) = (ctx.n(), ctx.q());
    let mut out = Vec::with_capacity(HEADER_LEN + 8 + 2 * poly_len(n, q));
    write_header(&mut out, MAGIC_CT, 0, n);
    out.extend_from_slice(&q.value().to_le_bytes());
    write_poly(&mut out, &ct.c0);
    write_poly(&mut out, &ct.c1);
    out
}

/// Serializes a seed-expanded ciphertext (from
/// [`crate::SecretKey::encrypt_seeded`]): packed `c0` plus the 32-byte seed
/// in place of `c1` — about half the bytes of [`ciphertext_to_bytes`].
pub fn ciphertext_to_bytes_seeded(ct: &Ciphertext, seed: &[u8; 32]) -> Vec<u8> {
    let ctx = ct.c0.ctx();
    let (n, q) = (ctx.n(), ctx.q());
    debug_assert_eq!(
        ct.c1.clone().into_ntt().data(),
        expand_poly(ctx, seed).data(),
        "c1 does not match its seed expansion"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + 8 + poly_len(n, q) + SEED_LEN);
    write_header(&mut out, MAGIC_CT, FLAG_SEEDED, n);
    out.extend_from_slice(&q.value().to_le_bytes());
    write_poly(&mut out, &ct.c0);
    out.extend_from_slice(seed);
    out
}

/// Deserializes a ciphertext under the given parameters. Accepts frames
/// under the full ciphertext modulus or the down-switch modulus (rebuilding
/// in the matching ring), seeded or not.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown magic/version/flags,
/// parameter mismatch, or unreduced coefficients. Never panics.
pub fn ciphertext_from_bytes(bytes: &[u8], params: &BfvParams) -> Result<Ciphertext, WireError> {
    let (flags, n) = read_header(bytes, MAGIC_CT, FLAG_SEEDED)?;
    if n != params.n() {
        return Err(WireError::ParamMismatch);
    }
    let mut offset = HEADER_LEN;
    let q = read_u64(bytes, &mut offset)?;
    let ring = if q == params.q().value() {
        params.ring()
    } else if q == params.down_q().value() {
        params.down_ring()
    } else {
        return Err(WireError::ParamMismatch);
    };
    let c0 = read_poly(bytes, ring, &mut offset)?;
    let c1 = if flags & FLAG_SEEDED != 0 {
        let seed = read_seed(bytes, &mut offset)?;
        expand_poly(ring, &seed)
    } else {
        read_poly(bytes, ring, &mut offset)?
    };
    expect_end(bytes, offset)?;
    Ok(Ciphertext { c0, c1 })
}

/// Exact length of a serialized ciphertext frame.
pub fn ciphertext_wire_len(params: &BfvParams, seeded: bool, switched: bool) -> usize {
    let q = if switched {
        params.down_q()
    } else {
        params.q()
    };
    let body = if seeded {
        poly_len(params.n(), q) + SEED_LEN
    } else {
        2 * poly_len(params.n(), q)
    };
    HEADER_LEN + 8 + body
}

// ---------------------------------------------------------------------------
// Public keys
// ---------------------------------------------------------------------------

/// Serializes a public key: packed `pk0` plus the 32-byte seed `pk1`
/// expands from. Kept for the ledger only (see [`crate::PublicKey`]).
pub fn public_key_to_bytes(pk: &PublicKey) -> Vec<u8> {
    let params = pk.params().clone();
    let (pk0, seed) = pk.wire_parts();
    let mut out = Vec::with_capacity(public_key_wire_len(&params));
    write_header(&mut out, MAGIC_PK, FLAG_SEEDED, params.n());
    out.extend_from_slice(&params.q().value().to_le_bytes());
    write_poly(&mut out, pk0);
    out.extend_from_slice(seed);
    out
}

/// Deserializes a public key into its `(pk0, seed)` form; nothing
/// encrypts under it, so `pk1` is never expanded. Kept for the ledger only
/// (see [`crate::PublicKey`]).
///
/// # Errors
///
/// Returns a [`WireError`] on any malformed input; never panics.
pub fn public_key_from_bytes(bytes: &[u8], params: &BfvParams) -> Result<PublicKey, WireError> {
    let (flags, n) = read_header(bytes, MAGIC_PK, FLAG_SEEDED)?;
    if flags & FLAG_SEEDED == 0 {
        return Err(WireError::BadFlags(flags));
    }
    if n != params.n() {
        return Err(WireError::ParamMismatch);
    }
    let mut offset = HEADER_LEN;
    if read_u64(bytes, &mut offset)? != params.q().value() {
        return Err(WireError::ParamMismatch);
    }
    let pk0 = read_poly(bytes, params.ring(), &mut offset)?;
    let seed = read_seed(bytes, &mut offset)?;
    expect_end(bytes, offset)?;
    Ok(PublicKey::from_wire_parts(params, pk0, seed))
}

/// Exact length of a serialized public-key frame.
pub(crate) fn public_key_wire_len(params: &BfvParams) -> usize {
    HEADER_LEN + 8 + poly_len(params.n(), params.q()) + SEED_LEN
}

// ---------------------------------------------------------------------------
// Galois keys
// ---------------------------------------------------------------------------

/// Bytes of a Galois-key frame before its first entry: common header, `q`,
/// `P`, entry count, seed.
const GK_PREAMBLE_LEN: usize = HEADER_LEN + 8 + 8 + 4 + SEED_LEN;

/// Bytes of one Galois-key entry: `g`, then per digit the packed `k0`
/// under `q` and under `P`.
fn gk_entry_len(params: &BfvParams) -> usize {
    let n = params.n();
    4 + KEY_DIGITS * (poly_len(n, params.q()) + poly_len(n, params.special_p()))
}

/// Writes a Galois-key frame up to its first entry.
fn write_gk_preamble(out: &mut Vec<u8>, params: &BfvParams, num_entries: usize, seed: &[u8; 32]) {
    write_header(out, MAGIC_GK, FLAG_SEEDED, params.n());
    out.extend_from_slice(&params.q().value().to_le_bytes());
    out.extend_from_slice(&params.special_p().value().to_le_bytes());
    out.extend_from_slice(&(num_entries as u32).to_le_bytes());
    out.extend_from_slice(seed);
}

/// A Galois-key frame of `num_entries` entries, its preamble written and
/// every entry's bytes still zero, and the entries' slices in wire order.
fn gk_frame(
    params: &BfvParams,
    num_entries: usize,
    seed: &[u8; 32],
    entries: impl FnOnce(Vec<&mut [u8]>),
) -> Vec<u8> {
    let len = galois_keys_wire_len(params, num_entries);
    let mut out = Vec::with_capacity(len);
    write_gk_preamble(&mut out, params, num_entries, seed);
    out.resize(len, 0);
    entries(
        out[GK_PREAMBLE_LEN..]
            .chunks_mut(gk_entry_len(params))
            .collect(),
    );
    out
}

/// Writes one key digit at the front of `dst` — its `k0` under `q`, then
/// under `P` — and returns the bytes written.
fn write_gk_digit(dst: &mut [u8], params: &BfvParams, k0_q: &[u64], k0_p: &[u64]) -> usize {
    let at = pack_slice(dst, k0_q, params.q().bits() as usize);
    at + pack_slice(&mut dst[at..], k0_p, params.special_p().bits() as usize)
}

/// Serializes a Galois key set: per entry only the packed `k0` residues,
/// in the evaluation form the operands already hold them in — every `a`
/// regenerates from the one 32-byte seed.
pub fn galois_keys_to_bytes(gk: &GaloisKeys) -> Vec<u8> {
    let params = gk.params();
    let entries = gk.wire_entries();
    gk_frame(params, entries.len(), gk.seed(), |slots| {
        for (entry, slot) in entries.iter().zip(slots) {
            slot[..4].copy_from_slice(&(entry.g as u32).to_le_bytes());
            let mut at = 4;
            for (q, p) in entry.q.iter().zip(&entry.p) {
                let (k0_q, k0_p) = (q.0.shoup().values(), p.0.shoup().values());
                at += write_gk_digit(&mut slot[at..], params, k0_q, k0_p);
            }
        }
    })
}

/// Generates the key-switching keys for `elements` (Galois elements, in
/// wire order) straight into their wire frame: what an uploading client
/// runs instead of building a [`GaloisKeys`] it would never rotate with.
/// Each digit leaves the generator as packed bytes; no operand, quotient
/// or slot permutation is ever built. From the same RNG state the bytes
/// equal [`galois_keys_to_bytes`] of the key set
/// [`crate::KeySet::generate_for_dims`] builds.
///
/// Every draw is made on the calling thread first; then the entries split
/// across cores from [`crate::keys::GRAIN`] keys on, each generating its
/// key and packing it into its own fixed-offset slice of the frame (every
/// entry has one length), so the bytes are the one-thread ones.
pub fn galois_keys_frame<R: Rng + ?Sized>(
    secret: &SecretKey,
    elements: &[usize],
    rng: &mut R,
) -> Vec<u8> {
    let params = secret.params();
    let gen = secret.key_digits(elements, rng);
    gk_frame(params, elements.len(), &gen.seed, |slots| {
        par::map_runs(slots, gen.width(), |run, slots| {
            let mut scratch = gen.scratch();
            for (i, slot) in run.zip(slots) {
                slot[..4].copy_from_slice(&(elements[i] as u32).to_le_bytes());
                let mut at = 4;
                gen.entry(i, &mut scratch, |q, p| {
                    at += write_gk_digit(&mut slot[at..], params, q.0, p.0);
                });
            }
        });
    })
}

/// What a Galois-key frame says before any polynomial is unpacked: its
/// seed and, per entry, `(g, offset of the first packed k0)`.
struct GkLayout {
    seed: [u8; 32],
    entries: Vec<(usize, usize)>,
}

/// Walks a Galois-key frame's headers — common header, both moduli, the
/// entry count against the frame's length, the seed, every entry's
/// element — checking each field against what a key switch can use.
/// Touches no packed polynomial.
fn read_gk_layout(bytes: &[u8], params: &BfvParams) -> Result<GkLayout, WireError> {
    let (flags, n) = read_header(bytes, MAGIC_GK, FLAG_SEEDED)?;
    if flags & FLAG_SEEDED == 0 {
        return Err(WireError::BadFlags(flags));
    }
    if n != params.n() {
        return Err(WireError::ParamMismatch);
    }
    let mut offset = HEADER_LEN;
    if read_u64(bytes, &mut offset)? != params.q().value()
        || read_u64(bytes, &mut offset)? != params.special_p().value()
    {
        return Err(WireError::ParamMismatch);
    }
    let num_entries = read_u32(bytes, &mut offset)? as usize;
    let seed = read_seed(bytes, &mut offset)?;
    // Entries are all one length: the count fixes the frame's, to the byte,
    // before anything is sized by it.
    let entry_len = gk_entry_len(params);
    if (bytes.len() - offset) / entry_len < num_entries {
        return Err(WireError::Truncated);
    }
    expect_end(bytes, offset + num_entries * entry_len)?;
    let mut entries = Vec::with_capacity(num_entries);
    for _ in 0..num_entries {
        // A Galois element is an odd residue mod 2N; the slot permutation
        // it indexes is undefined (and asserts) for anything else.
        let g = read_u32(bytes, &mut offset)? as usize;
        if g.is_multiple_of(2) || g >= 2 * n {
            return Err(WireError::ParamMismatch);
        }
        entries.push((g, offset));
        offset += entry_len - 4;
    }
    Ok(GkLayout { seed, entries })
}

/// The Galois elements a Galois-key frame announces, in wire order, from
/// its headers alone: every header check of [`galois_keys_from_bytes`] and
/// the exact-length check, with no polynomial unpacked and no seed
/// expanded. A server compares this with the key plan it would admit
/// **before** it pays for the decode.
///
/// # Errors
///
/// Returns a [`WireError`] on any malformed header or a frame whose length
/// is not the one its headers announce; never panics.
pub fn galois_keys_frame_entries(
    bytes: &[u8],
    params: &BfvParams,
) -> Result<Vec<usize>, WireError> {
    let layout = read_gk_layout(bytes, params)?;
    Ok(layout.entries.iter().map(|e| e.0).collect())
}

/// Deserializes a Galois key set, regenerating every `a` from the seed
/// stream in wire order.
///
/// # Errors
///
/// Returns a [`WireError`] on any malformed input; never panics.
pub fn galois_keys_from_bytes(bytes: &[u8], params: &BfvParams) -> Result<GaloisKeys, WireError> {
    galois_keys_from_bytes_reusing(bytes, params, None)
}

/// [`galois_keys_from_bytes`] built in the memory of `retired`, a key set
/// nobody rotates with any more (a table's eviction victim): operand for
/// operand in wire order, the new set's vectors are the retired set's,
/// refilled, and an entry keeps the slot permutation where the Galois
/// element is the same. Between two sets of one key plan — every client of
/// one model — the decode allocates nothing and touches no fresh page, and
/// a server under a byte budget stays in the memory it has instead of
/// handing it back to whichever allocator arena it came from and drawing
/// anew from the current thread's. Where the shapes differ, what fits is
/// reused and the rest is allocated; the result is the same key set either
/// way, and `retired` is dropped on error.
///
/// The calling thread walks the layout and reads the seed stream to where
/// each digit's `a` starts, in wire order; then the entries — their `k0`
/// unpacked and their `a` expanded into the destination vectors, their
/// Shoup quotients and slot permutations — split across cores from
/// [`crate::keys::GRAIN`] keys on. A frame with an unreduced `k0` word is
/// refused with the same error at every width.
///
/// # Errors
///
/// As [`galois_keys_from_bytes`].
pub fn galois_keys_from_bytes_reusing(
    bytes: &[u8],
    params: &BfvParams,
    retired: Option<GaloisKeys>,
) -> Result<GaloisKeys, WireError> {
    let layout = read_gk_layout(bytes, params)?;
    let elements: Vec<usize> = layout.entries.iter().map(|e| e.0).collect();
    let digit_len = poly_len(params.n(), params.q()) + poly_len(params.n(), params.special_p());
    GaloisKeys::from_wire_parts(
        params,
        layout.seed,
        &elements,
        retired,
        |entry, digit, k0_q, k0_p| {
            let mut offset = layout.entries[entry].1 + digit * digit_len;
            read_words(bytes, params.ring(), &mut offset, k0_q)?;
            read_words(bytes, params.special_ring(), &mut offset, k0_p)
        },
    )
}

/// Exact length of a serialized Galois-key frame with `num_entries`
/// entries.
pub fn galois_keys_wire_len(params: &BfvParams, num_entries: usize) -> usize {
    GK_PREAMBLE_LEN + num_entries * gk_entry_len(params)
}

// ---------------------------------------------------------------------------
// Flat-baseline accounting
// ---------------------------------------------------------------------------

/// The bytes this frame would have cost under the pre-packing flat-`u64`
/// encoding (8 bytes per coefficient, uniform components shipped in full).
/// This is the baseline `fig05_comm_bandwidth` compares against: ciphertext
/// frames reproduce the legacy v1 wire size (`2N·8 + 10`), key frames the
/// analytic flat sizes the accounting layer previously reported. Returns
/// `None` if the buffer is not a recognizable frame.
pub fn flat_frame_len(frame: &[u8]) -> Option<usize> {
    if frame.len() < HEADER_LEN {
        return None;
    }
    let magic = u32::from_le_bytes(frame[0..4].try_into().expect("len checked"));
    let n = u32::from_le_bytes(frame[6..10].try_into().expect("len checked")) as usize;
    let u32_at = |off: usize| -> Option<usize> {
        frame
            .get(off..off + 4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("len checked")) as usize)
    };
    match magic {
        MAGIC_CT => Some(2 * n * 8 + 10),
        MAGIC_PK => Some(2 * n * 8),
        // Per entry, KEY_DIGITS digits of a (k0, a) pair under q and one
        // under P: `GaloisKeys::byte_len`.
        MAGIC_GK => Some(u32_at(HEADER_LEN + 8 + 8)? * KEY_DIGITS * 4 * n * 8),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BatchEncoder;
    use crate::keys::KeySet;
    use rand::SeedableRng;

    fn setup() -> (BfvParams, KeySet, BatchEncoder, rand::rngs::StdRng) {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let keys = KeySet::generate(&params, &mut rng);
        let enc = BatchEncoder::new(&params);
        (params, keys, enc, rng)
    }

    /// A fresh encryption of zero, as the client encrypts.
    fn zero(keys: &KeySet, rng: &mut rand::rngs::StdRng) -> Ciphertext {
        let ring = keys.secret.params().ring().clone();
        let pt = crate::Plaintext {
            poly: Poly::zero(ring),
        };
        keys.secret.encrypt_seeded(&pt, rng).0
    }

    #[test]
    fn ciphertext_roundtrip_preserves_decryption() {
        let (params, keys, enc, mut rng) = setup();
        let pt = enc.encode(&[1, 2, 3, 4, 5]);
        let ct = keys.secret.encrypt_seeded(&pt, &mut rng).0;
        let bytes = ciphertext_to_bytes(&ct);
        assert_eq!(bytes.len(), ciphertext_wire_len(&params, false, false));
        let back = ciphertext_from_bytes(&bytes, &params).unwrap();
        assert_eq!(
            &enc.decode(&keys.secret.decrypt(&back))[..5],
            &[1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn seeded_ciphertext_roundtrip_and_size() {
        let (params, keys, enc, mut rng) = setup();
        let pt = enc.encode(&[42, 17]);
        let (ct, seed) = keys.secret.encrypt_seeded(&pt, &mut rng);
        let bytes = ciphertext_to_bytes_seeded(&ct, &seed);
        assert_eq!(bytes.len(), ciphertext_wire_len(&params, true, false));
        // Roughly half the full frame.
        assert!(bytes.len() * 2 < ciphertext_wire_len(&params, false, false) + 100);
        let back = ciphertext_from_bytes(&bytes, &params).unwrap();
        assert_eq!(&enc.decode(&keys.secret.decrypt(&back))[..2], &[42, 17]);
        // The regenerated c1 is bit-identical to the sender's.
        assert_eq!(
            back.c1.clone().into_ntt().data(),
            ct.c1.clone().into_ntt().data()
        );
    }

    #[test]
    fn switched_ciphertext_roundtrip() {
        let (params, keys, enc, mut rng) = setup();
        let pt = enc.encode(&[7, 8, 9]);
        let ct = keys.secret.encrypt_seeded(&pt, &mut rng).0;
        let switched = ct.mod_switch_down(&params);
        let bytes = ciphertext_to_bytes(&switched);
        assert_eq!(bytes.len(), ciphertext_wire_len(&params, false, true));
        assert!(bytes.len() < ciphertext_wire_len(&params, false, false));
        let back = ciphertext_from_bytes(&bytes, &params).unwrap();
        assert_eq!(back.c0.ctx().q(), params.down_q());
        assert_eq!(
            &enc.decode(&keys.secret.decrypt_switched(&back))[..3],
            &[7, 8, 9]
        );
    }

    #[test]
    fn lazy_representatives_roundtrip_canonically() {
        // A poly carrying lazy [0, 2q) NTT representatives — legal
        // everywhere else in the workspace — must serialize to the same
        // canonical bytes as its reduced twin.
        let (params, keys, _, mut rng) = setup();
        let ct = zero(&keys, &mut rng);
        let q = params.q();
        let reduced = ct.c0.clone().into_ntt();
        let lazy_data: Vec<u64> = reduced
            .data()
            .iter()
            .enumerate()
            .map(|(i, &x)| if i % 2 == 0 { x + q.value() } else { x })
            .collect();
        let lazy = Poly::from_ntt_data_lazy(params.ring().clone(), lazy_data);
        let lazy_ct = Ciphertext {
            c0: lazy,
            c1: ct.c1.clone(),
        };
        let canon_ct = Ciphertext {
            c0: reduced,
            c1: ct.c1.clone(),
        };
        assert_eq!(
            ciphertext_to_bytes(&lazy_ct),
            ciphertext_to_bytes(&canon_ct)
        );
        let back = ciphertext_from_bytes(&ciphertext_to_bytes(&lazy_ct), &params).unwrap();
        assert_eq!(back.c0.coeffs(), canon_ct.c0.coeffs());
    }

    #[test]
    fn ntt_and_coeff_forms_serialize_identically() {
        let (_, keys, _, mut rng) = setup();
        let ct = zero(&keys, &mut rng);
        let ntt_ct = Ciphertext {
            c0: ct.c0.clone().into_ntt(),
            c1: ct.c1.clone().into_ntt(),
        };
        let coeff_ct = Ciphertext {
            c0: ct.c0.clone().into_coeff(),
            c1: ct.c1.clone().into_coeff(),
        };
        assert_eq!(ciphertext_to_bytes(&ntt_ct), ciphertext_to_bytes(&coeff_ct));
    }

    #[test]
    fn public_key_roundtrip() {
        let (params, keys, _, _) = setup();
        let bytes = public_key_to_bytes(&keys.public);
        assert_eq!(bytes.len(), public_key_wire_len(&params));
        let back = public_key_from_bytes(&bytes, &params).unwrap();
        // The rebuilt key is the key: same pk0, same seed, so the same
        // frame.
        assert_eq!(
            back.wire_parts().0.coeffs(),
            keys.public.wire_parts().0.coeffs()
        );
        assert_eq!(back.wire_parts().1, keys.public.wire_parts().1);
        assert_eq!(public_key_to_bytes(&back), bytes);
    }

    #[test]
    fn galois_keys_roundtrip_bit_identical_rotations() {
        let (params, keys, enc, mut rng) = setup();
        let bytes = galois_keys_to_bytes(&keys.galois);
        let back = galois_keys_from_bytes(&bytes, &params).unwrap();
        assert!(back.elements().eq(keys.galois.elements()));
        let ct = keys
            .secret
            .encrypt_seeded(&enc.encode(&[1, 2, 3, 4]), &mut rng)
            .0;
        let a = keys.galois.rotate_rows(&ct, 1).expect("chain key");
        let b = back.rotate_rows(&ct, 1).expect("chain key");
        // Regenerated `a` halves are bit-identical, so the rotations are too.
        assert_eq!(a.c0.coeffs(), b.c0.coeffs());
        assert_eq!(a.c1.coeffs(), b.c1.coeffs());
        assert_eq!(
            &enc.decode(&keys.secret.decrypt(&b))[..3],
            &[2, 3, 4],
            "rotation through deserialized keys must still decrypt"
        );
    }

    /// Between two key sets of one plan the decode stays in the retired
    /// set's memory: every operand vector of the new set is, position for
    /// position, a vector the old set held.
    #[test]
    fn a_decode_into_a_retired_set_of_the_same_plan_allocates_no_operand() {
        let (params, keys, _, mut rng) = setup();
        let vectors = |gk: &GaloisKeys| -> Vec<*const u64> {
            let digits = gk.wire_entries().iter().flat_map(|e| e.q.iter().zip(&e.p));
            digits
                .flat_map(|(q, p)| [&q.0, &q.1, &p.0, &p.1])
                .flat_map(|op| {
                    [
                        op.shoup().values().as_ptr(),
                        op.shoup().quotients().as_ptr(),
                    ]
                })
                .collect()
        };
        let retired = galois_keys_from_bytes(&galois_keys_to_bytes(&keys.galois), &params).unwrap();
        let held = vectors(&retired);
        let next = KeySet::generate(&params, &mut rng);
        let frame = galois_keys_to_bytes(&next.galois);
        let reused = galois_keys_from_bytes_reusing(&frame, &params, Some(retired)).unwrap();
        assert_eq!(vectors(&reused), held);
        assert_eq!(galois_keys_to_bytes(&reused), frame);
    }

    #[test]
    fn galois_keys_frame_is_much_smaller_than_flat() {
        let (params, keys, _, _) = setup();
        let bytes = galois_keys_to_bytes(&keys.galois);
        let entries = keys.galois.wire_entries().len();
        assert_eq!(bytes.len(), galois_keys_wire_len(&params, entries));
        let flat = flat_frame_len(&bytes).unwrap();
        assert_eq!(flat, keys.galois.byte_len());
        // Seed expansion halves it, packing shaves the rest (a quarter of
        // the words are 40-bit P residues): > 2×.
        assert!(
            flat > 2 * bytes.len(),
            "flat {flat} vs wire {}",
            bytes.len()
        );
    }

    #[test]
    fn truncation_detected_everywhere() {
        let (params, keys, _, mut rng) = setup();
        let bytes = ciphertext_to_bytes(&zero(&keys, &mut rng));
        assert!(matches!(
            ciphertext_from_bytes(&bytes[..bytes.len() - 1], &params),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            ciphertext_from_bytes(&bytes[..4], &params),
            Err(WireError::Truncated)
        ));
        let gk = galois_keys_to_bytes(&keys.galois);
        assert!(galois_keys_from_bytes(&gk[..gk.len() / 2], &params).is_err());
    }

    #[test]
    fn wrong_magic_version_flags_detected() {
        let (params, keys, _, mut rng) = setup();
        let mut bytes = ciphertext_to_bytes(&zero(&keys, &mut rng));
        bytes[0] ^= 0xFF;
        assert!(matches!(
            ciphertext_from_bytes(&bytes, &params),
            Err(WireError::BadMagic)
        ));
        bytes[0] ^= 0xFF;
        bytes[4] = 1;
        assert!(matches!(
            ciphertext_from_bytes(&bytes, &params),
            Err(WireError::UnsupportedVersion(1))
        ));
        bytes[4] = WIRE_VERSION;
        bytes[5] = 0x80;
        assert!(matches!(
            ciphertext_from_bytes(&bytes, &params),
            Err(WireError::BadFlags(0x80))
        ));
        bytes[5] = 0;
        // Another frame kind's magic fed to the ciphertext parser.
        assert!(matches!(
            ciphertext_from_bytes(&public_key_to_bytes(&keys.public), &params),
            Err(WireError::BadMagic)
        ));
    }

    #[test]
    fn unreduced_coefficient_detected() {
        let (params, keys, _, mut rng) = setup();
        let mut bytes = ciphertext_to_bytes(&zero(&keys, &mut rng));
        // Force the first packed coefficient to all-ones (≥ q for a 62-bit
        // prime below 2^62).
        let start = HEADER_LEN + 8;
        for b in &mut bytes[start..start + 8] {
            *b = 0xFF;
        }
        assert!(matches!(
            ciphertext_from_bytes(&bytes, &params),
            Err(WireError::UnreducedCoefficient)
        ));
    }

    #[test]
    fn unreduced_key_word_detected_after_the_headers_passed() {
        let (params, keys, _, _) = setup();
        let pristine = galois_keys_to_bytes(&keys.galois);
        let plan: Vec<_> = keys.galois.elements().collect();
        // First packed evaluation-form word of the first k0 under q, then
        // of the first k0 under P, all-ones: each is at or above its own
        // modulus.
        let under_q = GK_PREAMBLE_LEN + 4;
        let under_p = under_q + poly_len(params.n(), params.q());
        for start in [under_q, under_p] {
            let mut bytes = pristine.clone();
            for b in &mut bytes[start..start + 8] {
                *b = 0xFF;
            }
            // The header walk reads no polynomial, so it still passes ...
            assert_eq!(galois_keys_frame_entries(&bytes, &params), Ok(plan.clone()));
            // ... and the decode refuses the word.
            assert_eq!(
                galois_keys_from_bytes(&bytes, &params).err(),
                Some(WireError::UnreducedCoefficient)
            );
        }
    }

    #[test]
    fn flat_baseline_matches_legacy_sizes() {
        let (params, keys, enc, mut rng) = setup();
        let ct = keys.secret.encrypt_seeded(&enc.encode(&[1]), &mut rng).0;
        let bytes = ciphertext_to_bytes(&ct);
        // Two polynomials of `N` flat words after the 10-byte header.
        assert_eq!(flat_frame_len(&bytes).unwrap(), 2 * params.n() * 8 + 10);
        // Packed beats flat even without seeding (62-bit packing alone).
        assert!(flat_frame_len(&bytes).unwrap() > bytes.len());
        let pk = public_key_to_bytes(&keys.public);
        // A public key flat: two polynomials of flat words.
        assert_eq!(flat_frame_len(&pk).unwrap(), 2 * params.n() * 8);
        assert!(flat_frame_len(b"short").is_none());
        assert!(flat_frame_len(&[0u8; 32]).is_none());
    }
}
