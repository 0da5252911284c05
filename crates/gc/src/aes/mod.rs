//! AES-128 and the fixed-key garbling hash, behind runtime backend dispatch.
//!
//! Garbled-circuit implementations model their gate hash as a tweakable
//! correlation-robust function built from AES with a fixed, public key
//! (Bellare et al., "Efficient Garbling from a Fixed-Key Blockcipher"):
//!
//! `H(x, tweak) = π(2x ⊕ tweak) ⊕ (2x ⊕ tweak)`
//!
//! where `π` is AES-128 under the fixed key and `2x` doubles in `GF(2^128)`.
//!
//! # Backends and batch widths
//!
//! Three implementations produce **bit-identical** ciphertext; they differ
//! only in throughput. Dispatch follows the same discipline as
//! `pi_field::simd` (override > `PI_AES` environment variable > detection,
//! resolved once per process and cached in an atomic):
//!
//! * [`AesBackend::Ni`] — x86_64 AES-NI: one `aesenc` chain per block with
//!   **8 blocks in flight** so the 4-cycle instruction latency is hidden by
//!   the pipeline. A batch of any width runs in one call: the round keys
//!   are loaded once, the byte order is swapped in registers (`pshufb`),
//!   and the blocks go through fixed-width unrolled groups of 8, then one
//!   each of 4, 2 and 1 for the tail. Compiled on every x86_64 target and
//!   preferred whenever the CPU advertises the `aes` and `ssse3` features.
//! * [`AesBackend::Bitslice`] — portable bitsliced fallback: 8 blocks are
//!   transposed into 8 `u128` bit-planes (plane `b`, bit `8·i + j` = bit
//!   `b` of state byte `i` of block `j`) and all 8 blocks move through the
//!   round function together — SubBytes is the Boyar–Peralta 113-gate
//!   S-box circuit evaluated once on the planes, ShiftRows/MixColumns are
//!   masked byte-group rotations. Engaged only for **full 8-block
//!   batches**; narrower calls fall back to the software path (a half-empty
//!   bitslice batch is slower than table lookups).
//! * [`AesBackend::Soft`] — the original portable table-based AES, retained
//!   unchanged as the differential-test **oracle**. Single-block
//!   [`Aes128::encrypt_u128`] always runs this path regardless of backend,
//!   so scalar callers are bit-stable.
//!
//! `PI_AES` accepts `soft`/`off`/`0` (oracle), `bitslice`, `ni`/`aesni`
//! (**panicking** off x86_64 or where the CPU lacks it — a forced
//! CI run fails loudly instead of silently degrading), and `auto`/`on`/
//! `1`/empty for detection (NI, else bitslice). The earlier revision of
//! this module was software-only and justified that with the paper's Intel
//! Atom client device; that assumption is gone — servers garble at AES-NI
//! rates, the Atom-class fallback is the bitsliced path, and the simulator
//! calibrates absolute rates separately either way. There is no `aarch64`
//! crypto-extension path, so every target that is not `x86_64` — `aarch64`
//! included — resolves [`auto_backend`] to `Bitslice`: that backend is what
//! such a build runs, not only a differential-test subject, and it stays.
//!
//! # Batched hashing
//!
//! [`GcHash::hash_many`] hashes any number of independent `(x, tweak)`
//! lanes through one dispatched [`Aes128::encrypt_blocks`] call — the
//! batched garbler hashes all 4×8 blocks of an AND gate's 8 instances at
//! once, the evaluator its 2×8. `hash4`/`hash2` (the single-instance
//! gate) and [`GcHash::kdf8`] (the OT extension's masks) are fixed-width
//! forms of it. Bitslice runs full groups of 8 and defers the tail to
//! soft. Every width equals the scalar [`GcHash::hash`] lane-for-lane.

use std::sync::atomic::{AtomicU8, Ordering};

mod bitslice;
#[cfg(target_arch = "x86_64")]
mod ni;

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// The selected AES implementation (see the module docs for the dispatch
/// rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum AesBackend {
    /// The portable table-based path — the differential oracle.
    Soft = 1,
    /// The portable bitsliced path (8 blocks per batch, full batches only).
    Bitslice = 2,
    /// x86_64 AES-NI, up to 8 blocks in flight.
    Ni = 3,
}

impl AesBackend {
    /// Short lowercase name, used in bench/CI logs (`csv,aes_backend,…`).
    pub fn name(self) -> &'static str {
        match self {
            AesBackend::Soft => "soft",
            AesBackend::Bitslice => "bitslice",
            AesBackend::Ni => "ni",
        }
    }

    /// Whether this backend can run on the current build and CPU.
    pub fn available(self) -> bool {
        match self {
            AesBackend::Soft | AesBackend::Bitslice => true,
            AesBackend::Ni => {
                // The kernel swaps byte order with `pshufb` (SSSE3).
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("aes")
                        && std::arch::is_x86_feature_detected!("ssse3")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    fn from_u8(v: u8) -> AesBackend {
        match v {
            1 => AesBackend::Soft,
            2 => AesBackend::Bitslice,
            3 => AesBackend::Ni,
            _ => unreachable!("invalid backend encoding"),
        }
    }
}

/// 0 = unresolved; otherwise an `AesBackend` discriminant.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// The backend every batched caller uses, resolved once per process
/// (override > `PI_AES` environment variable > detection) and cached. See
/// the module docs for the full rules.
#[inline]
pub fn backend() -> AesBackend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => {
            let be = resolve();
            BACKEND.store(be as u8, Ordering::Relaxed);
            be
        }
        v => AesBackend::from_u8(v),
    }
}

/// The backend automatic detection would pick on this build and CPU,
/// ignoring any override or environment setting: AES-NI when detected,
/// otherwise the bitsliced fallback.
pub fn auto_backend() -> AesBackend {
    if AesBackend::Ni.available() {
        AesBackend::Ni
    } else {
        AesBackend::Bitslice
    }
}

/// Pins the dispatched backend, overriding environment and detection.
/// Intended for differential tests and benchmarks that compare paths
/// in-process; serialize callers that flip it concurrently. Note that
/// `Aes128` values constructed while a *different* backend was pinned keep
/// working (the bitsliced key schedule is recomputed on demand).
///
/// # Panics
///
/// Panics if the requested backend is not available on this build/CPU.
pub fn force_backend(be: AesBackend) {
    assert!(
        be.available(),
        "AES backend {} is not available on this build/CPU",
        be.name()
    );
    BACKEND.store(be as u8, Ordering::Relaxed);
}

/// Removes a [`force_backend`] override; the next [`backend`] call
/// re-resolves from the environment and detection.
pub fn clear_forced_backend() {
    BACKEND.store(0, Ordering::Relaxed);
}

fn resolve() -> AesBackend {
    match std::env::var("PI_AES") {
        Err(_) => auto_backend(),
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "" | "1" | "on" | "auto" => auto_backend(),
            "0" | "off" | "soft" => AesBackend::Soft,
            "bitslice" => AesBackend::Bitslice,
            "ni" | "aesni" => {
                assert!(
                    AesBackend::Ni.available(),
                    "PI_AES=ni requested but AES-NI is unavailable \
                     (not an x86_64 build, or the CPU lacks it)"
                );
                AesBackend::Ni
            }
            other => panic!("unknown PI_AES value {other:?} (expected soft|bitslice|ni|auto)"),
        },
    }
}

/// An expanded AES-128 key schedule (11 round keys), plus the bitsliced
/// form of the schedule when the bitsliced backend is active at
/// construction time.
#[derive(Clone, Debug)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    /// Round keys as 8 broadcast bit-planes each; populated eagerly only
    /// when [`backend`] resolves to `Bitslice` at construction so the other
    /// backends pay nothing for it.
    bs_round_keys: Option<Box<[[u128; 8]; 11]>>,
}

#[inline]
fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

impl Aes128 {
    /// Expands a 16-byte key.
    pub fn new(key: [u8; 16]) -> Self {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = key;
        for r in 1..11 {
            let prev = rk[r - 1];
            let mut w = [prev[12], prev[13], prev[14], prev[15]];
            w.rotate_left(1);
            for b in &mut w {
                *b = SBOX[*b as usize];
            }
            w[0] ^= RCON[r - 1];
            for i in 0..4 {
                rk[r][i] = prev[i] ^ w[i];
            }
            for i in 4..16 {
                rk[r][i] = prev[i] ^ rk[r][i - 4];
            }
        }
        let bs_round_keys = if backend() == AesBackend::Bitslice {
            Some(Box::new(bitslice::expand_round_keys(&rk)))
        } else {
            None
        };
        Self {
            round_keys: rk,
            bs_round_keys,
        }
    }

    /// Encrypts one 16-byte block in place. Always runs the software
    /// oracle path, independent of the dispatched backend.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Encrypts a `u128` (big-endian byte interpretation). Always runs the
    /// software oracle path, independent of the dispatched backend.
    pub fn encrypt_u128(&self, x: u128) -> u128 {
        let mut b = x.to_be_bytes();
        self.encrypt_block(&mut b);
        u128::from_be_bytes(b)
    }

    /// Encrypts a slice of blocks in place through the dispatched backend
    /// (see the module docs). Each `u128` is interpreted big-endian exactly
    /// as in [`Aes128::encrypt_u128`]; the result is bit-identical to
    /// mapping `encrypt_u128` over the slice on every backend.
    pub fn encrypt_blocks(&self, blocks: &mut [u128]) {
        match backend() {
            AesBackend::Soft => {
                for b in blocks.iter_mut() {
                    *b = self.encrypt_u128(*b);
                }
            }
            AesBackend::Bitslice => {
                let computed;
                let keys = match &self.bs_round_keys {
                    Some(k) => k.as_ref(),
                    None => {
                        computed = bitslice::expand_round_keys(&self.round_keys);
                        &computed
                    }
                };
                let mut chunks = blocks.chunks_exact_mut(8);
                for chunk in &mut chunks {
                    let eight: &mut [u128; 8] = chunk.try_into().unwrap();
                    bitslice::encrypt8(keys, eight);
                }
                // A partial batch would waste most of the bitsliced work;
                // the table path is faster for the tail.
                for b in chunks.into_remainder() {
                    *b = self.encrypt_u128(*b);
                }
            }
            AesBackend::Ni => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `backend()` only yields `Ni` after
                // `AesBackend::Ni.available()` verified the `aes` and
                // `ssse3` CPU features (via `force_backend`, `resolve`, or
                // detection).
                #[allow(unsafe_code)]
                unsafe {
                    ni::encrypt_blocks(&self.round_keys, blocks)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AES-NI backend selected off x86_64")
            }
        }
    }

    /// Fills `out` with the AES-CTR keystream `E(start), E(start+1), …` —
    /// the column-expansion PRG of the IKNP extension writes this straight
    /// into packed bit-matrix words. Like every AES entry point it counts
    /// nothing: callers count `aes.blocks` at their batch boundary, on the
    /// thread that holds the request's trace scope.
    pub fn ctr_keystream(&self, start: u128, out: &mut [u128]) {
        for (j, w) in out.iter_mut().enumerate() {
            *w = start.wrapping_add(j as u128);
        }
        self.encrypt_blocks(out);
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Column-major state: byte (row r, col c) at index c*4 + r.
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[c * 4],
            state[c * 4 + 1],
            state[c * 4 + 2],
            state[c * 4 + 3],
        ];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        for r in 0..4 {
            state[c * 4 + r] ^= t ^ xtime(col[r] ^ col[(r + 1) % 4]);
        }
    }
}

/// The fixed-key tweakable hash used by the garbler and evaluator.
#[derive(Clone, Debug)]
pub struct GcHash {
    aes: Aes128,
}

/// Doubling in GF(2^128) with the standard reduction polynomial.
#[inline]
fn gf_double(x: u128) -> u128 {
    let carry = (x >> 127) & 1;
    (x << 1) ^ (carry * 0x87)
}

impl Default for GcHash {
    fn default() -> Self {
        Self::new()
    }
}

impl GcHash {
    /// Creates the hash with the conventional fixed key.
    pub fn new() -> Self {
        // A fixed, public constant (first 16 bytes of the expansion of pi).
        let key = [
            0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70,
            0x73, 0x44,
        ];
        Self {
            aes: Aes128::new(key),
        }
    }

    /// `H(x, tweak) = π(2x ⊕ tweak) ⊕ (2x ⊕ tweak)` — scalar path, always
    /// through the software oracle.
    #[inline]
    pub fn hash(&self, x: u128, tweak: u64) -> u128 {
        let input = gf_double(x) ^ tweak as u128;
        self.aes.encrypt_u128(input) ^ input
    }

    /// Hash used to derive key material from OT (keyed by index).
    #[inline]
    pub fn kdf(&self, x: u128, index: u64) -> u128 {
        self.hash(x, index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// A batch of independent hashes through **one** dispatched
    /// [`Aes128::encrypt_blocks`] call: `out[i] = self.hash(xs[i],
    /// tweaks[i])` for every `i`, at any width, on every backend.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    #[inline]
    pub fn hash_many(&self, xs: &[u128], tweaks: &[u64], out: &mut [u128]) {
        assert!(xs.len() == out.len() && tweaks.len() == out.len());
        let input = |x: u128, t: u64| gf_double(x) ^ t as u128;
        for ((o, &x), &t) in out.iter_mut().zip(xs).zip(tweaks) {
            *o = input(x, t);
        }
        self.aes.encrypt_blocks(out);
        // The feed-forward recomputes the input rather than keeping a copy.
        for ((o, &x), &t) in out.iter_mut().zip(xs).zip(tweaks) {
            *o ^= input(x, t);
        }
    }

    /// The 4-hash garbler batch of one HalfGates AND gate.
    #[inline]
    pub(crate) fn hash4(&self, xs: [u128; 4], tweaks: [u64; 4]) -> [u128; 4] {
        let mut out = [0; 4];
        self.hash_many(&xs, &tweaks, &mut out);
        out
    }

    /// The 2-hash evaluator batch of one HalfGates AND gate.
    #[inline]
    pub(crate) fn hash2(&self, xs: [u128; 2], tweaks: [u64; 2]) -> [u128; 2] {
        let mut out = [0; 2];
        self.hash_many(&xs, &tweaks, &mut out);
        out
    }

    /// 8 independent KDF lanes; lane `i` equals `self.kdf(xs[i],
    /// indices[i])`.
    #[inline]
    pub fn kdf8(&self, xs: [u128; 8], indices: [u64; 8]) -> [u128; 8] {
        let tweaks = indices.map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut out = [0; 8];
        self.hash_many(&xs, &tweaks, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that pin the dispatched backend. Every backend is
    /// bit-identical, so racing tests cannot produce wrong *values*, but a
    /// test asserting on `backend()` itself must hold this.
    static BACKEND_LOCK: Mutex<()> = Mutex::new(());

    fn with_backend<T>(be: AesBackend, f: impl FnOnce() -> T) -> T {
        let _guard = BACKEND_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        force_backend(be);
        let out = f();
        clear_forced_backend();
        out
    }

    fn available_backends() -> Vec<AesBackend> {
        [AesBackend::Soft, AesBackend::Bitslice, AesBackend::Ni]
            .into_iter()
            .filter(|be| be.available())
            .collect()
    }

    const FIPS_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const FIPS_PT: u128 = 0x3243f6a8_885a308d_313198a2_e0370734;
    const FIPS_CT: u128 = 0x3925841d_02dc09fb_dc118597_196a0b32;

    #[test]
    fn fips197_vector() {
        // FIPS-197 Appendix B test vector.
        let mut block = FIPS_PT.to_be_bytes();
        Aes128::new(FIPS_KEY).encrypt_block(&mut block);
        assert_eq!(block, FIPS_CT.to_be_bytes());
    }

    #[test]
    fn nist_all_zero_vector() {
        // NIST SP 800-38A style: AES-128(key=0, pt=0) well-known value.
        let mut block = [0u8; 16];
        Aes128::new([0u8; 16]).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
                0x2b, 0x2e
            ]
        );
    }

    #[test]
    fn fips197_vector_every_backend_every_width() {
        // The FIPS-197 known answer must come out of every backend at every
        // batch width (1, 2, 4, 7, 8, 9, 16 blocks).
        for be in available_backends() {
            with_backend(be, || {
                let aes = Aes128::new(FIPS_KEY);
                for n in [1usize, 2, 4, 7, 8, 9, 16] {
                    let mut blocks = vec![FIPS_PT; n];
                    aes.encrypt_blocks(&mut blocks);
                    assert_eq!(blocks, vec![FIPS_CT; n], "backend {} width {n}", be.name());
                }
            });
        }
    }

    #[test]
    fn batched_matches_soft_oracle_on_random_blocks() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xAE5);
        let key = rng.gen::<u128>().to_le_bytes();
        let blocks: Vec<u128> = (0..33).map(|_| rng.gen()).collect();
        let oracle_aes = Aes128::new(key);
        let expect: Vec<u128> = blocks.iter().map(|&b| oracle_aes.encrypt_u128(b)).collect();
        for be in available_backends() {
            with_backend(be, || {
                let aes = Aes128::new(key);
                let mut got = blocks.clone();
                aes.encrypt_blocks(&mut got);
                assert_eq!(got, expect, "backend {}", be.name());
            });
        }
    }

    #[test]
    fn bitslice_works_without_cached_schedule() {
        // An `Aes128` built while another backend was pinned lacks the
        // precomputed bitsliced key schedule; encryption must still agree.
        let aes = with_backend(AesBackend::Soft, || Aes128::new(FIPS_KEY));
        assert!(aes.bs_round_keys.is_none());
        with_backend(AesBackend::Bitslice, || {
            let mut blocks = [FIPS_PT; 8];
            aes.encrypt_blocks(&mut blocks);
            assert_eq!(blocks, [FIPS_CT; 8]);
        });
    }

    #[test]
    fn ctr_keystream_matches_counter_encryption() {
        let aes = Aes128::new(FIPS_KEY);
        let mut ks = vec![0u128; 11];
        aes.ctr_keystream(5, &mut ks);
        for (j, &w) in ks.iter().enumerate() {
            assert_eq!(w, aes.encrypt_u128(5 + j as u128));
        }
    }

    #[test]
    fn gf_double_known() {
        assert_eq!(gf_double(1), 2);
        assert_eq!(gf_double(1u128 << 127), 0x87);
        assert_eq!(gf_double((1u128 << 127) | 1), 0x87 ^ 2);
    }

    #[test]
    fn hash_is_deterministic_and_tweaked() {
        let h = GcHash::new();
        let x = 0xdeadbeef_u128;
        assert_eq!(h.hash(x, 7), h.hash(x, 7));
        assert_ne!(h.hash(x, 7), h.hash(x, 8));
        assert_ne!(h.hash(x, 7), h.hash(x ^ 1, 7));
    }

    #[test]
    fn hash_has_no_obvious_linearity() {
        let h = GcHash::new();
        let a = 0x1234_u128;
        let b = 0x5678_u128;
        assert_ne!(h.hash(a, 0) ^ h.hash(b, 0), h.hash(a ^ b, 0));
    }

    #[test]
    fn batched_hashes_match_scalar_lanes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4A5);
        let h = GcHash::new();
        for be in available_backends() {
            with_backend(be, || {
                let xs: [u128; 8] = core::array::from_fn(|_| rng.gen());
                let tw: [u64; 8] = core::array::from_fn(|_| rng.gen::<u128>() as u64);
                let mut out = [0; 8];
                h.hash_many(&xs, &tw, &mut out);
                for i in 0..8 {
                    assert_eq!(out[i], h.hash(xs[i], tw[i]), "backend {}", be.name());
                }
                let out4 = h.hash4([xs[0], xs[1], xs[2], xs[3]], [tw[0], tw[1], tw[2], tw[3]]);
                for i in 0..4 {
                    assert_eq!(out4[i], h.hash(xs[i], tw[i]));
                }
                let out2 = h.hash2([xs[0], xs[1]], [tw[0], tw[1]]);
                for i in 0..2 {
                    assert_eq!(out2[i], h.hash(xs[i], tw[i]));
                }
                let kd = h.kdf8(xs, tw);
                for i in 0..8 {
                    assert_eq!(kd[i], h.kdf(xs[i], tw[i]));
                }
            });
        }
    }

    #[test]
    fn env_and_force_dispatch_rules() {
        let _guard = BACKEND_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        // force > everything; clear re-resolves.
        force_backend(AesBackend::Soft);
        assert_eq!(backend(), AesBackend::Soft);
        force_backend(AesBackend::Bitslice);
        assert_eq!(backend(), AesBackend::Bitslice);
        clear_forced_backend();
        // Auto detection prefers NI when available, else bitslice.
        let auto = auto_backend();
        if AesBackend::Ni.available() {
            assert_eq!(auto, AesBackend::Ni);
        } else {
            assert_eq!(auto, AesBackend::Bitslice);
        }
        clear_forced_backend();
    }
}
