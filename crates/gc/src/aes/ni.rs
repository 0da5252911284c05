//! AES-NI backend: one `aesenc` chain per block, 8 blocks in flight.
//!
//! The AES-NI round instructions have a ~4-cycle latency but pipeline at
//! one per cycle, so a single dependent chain runs at a quarter of the
//! achievable throughput. Interleaving 8 independent blocks keeps the unit
//! saturated — that factor, on top of replacing ~160 table lookups per
//! block with 10 instructions, is where the classic 10–50× software-AES
//! gap closes.
//!
//! A batch is one call: the schedule is loaded into registers once, each
//! `u128` is loaded straight from the slice and byte-reversed in a register
//! (`pshufb`) into the big-endian state order `Aes128::encrypt_u128` uses,
//! and the blocks run through fixed-width groups — 8 at a time, then at
//! most one group each of 4, 2 and 1 — whose loops the compiler unrolls.
//!
//! [`hash_blocks`] runs the garbling hash `π(2x ⊕ t) ⊕ (2x ⊕ t)` through
//! the same groups with the whole hash in registers: each block's
//! doubling in `GF(2^128)` (two 64-bit shifts, the carry between the
//! halves and the `0x87` reduction selected by masks), its tweak and the
//! feed-forward of the hash input happen around the rounds, so the input
//! is neither written out before the AES call nor recomputed after it.
//!
//! This is the only module in `pi-gc` that needs `unsafe` (intrinsics and
//! `#[target_feature]`), mirroring how `pi_field::simd::avx512` scopes its
//! exemption; the crate root remains `deny(unsafe_code)`.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_and_si128, _mm_cvtsi64_si128,
    _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_slli_epi64, _mm_srli_epi64, _mm_storeu_si128, _mm_sub_epi64,
    _mm_xor_si128,
};

/// The expanded schedule in registers, and the byte-reversal shuffle.
struct Keys {
    round: [__m128i; 11],
    bswap: __m128i,
}

/// Encrypts `blocks` in place under the expanded key schedule.
///
/// # Safety
///
/// The caller must have verified that the CPU supports the `aes` and
/// `ssse3` features (the dispatcher in `aes::backend` does).
#[target_feature(enable = "aes,ssse3")]
pub(crate) unsafe fn encrypt_blocks(round_keys: &[[u8; 16]; 11], blocks: &mut [u128]) {
    let keys = Keys::load(round_keys);
    let mut eights = blocks.chunks_exact_mut(8);
    for g in &mut eights {
        group::<8>(&keys, g);
    }
    // The tail (< 8 blocks) splits by its binary digits.
    let tail = eights.into_remainder();
    let (four, tail) = tail.split_at_mut(tail.len() & 4);
    let (two, one) = tail.split_at_mut(tail.len() & 2);
    if !four.is_empty() {
        group::<4>(&keys, four);
    }
    if !two.is_empty() {
        group::<2>(&keys, two);
    }
    if !one.is_empty() {
        group::<1>(&keys, one);
    }
}

/// `out[i] = π(2·xs[i] ⊕ tweaks[i]) ⊕ (2·xs[i] ⊕ tweaks[i])` under the
/// expanded key schedule, in the groups [`encrypt_blocks`] runs.
///
/// # Panics
///
/// Panics if the CPU lacks the `aes` or `ssse3` feature (the dispatcher
/// calls this only on the `Ni` backend, which has checked them), or if
/// `xs` or `tweaks` is shorter than `out`.
pub(crate) fn hash_blocks(
    round_keys: &[[u8; 16]; 11],
    xs: &[u128],
    tweaks: &[u64],
    out: &mut [u128],
) {
    assert!(
        super::AesBackend::Ni.available(),
        "AES-NI hash without the aes and ssse3 CPU features"
    );
    // SAFETY: the assertion above verified the `aes` and `ssse3` features
    // `hash_batch` is compiled for.
    unsafe { hash_batch(round_keys, xs, tweaks, out) }
}

/// [`hash_blocks`]' kernel.
///
/// # Safety
///
/// The caller must have verified that the CPU supports the `aes` and
/// `ssse3` features.
#[target_feature(enable = "aes,ssse3")]
unsafe fn hash_batch(round_keys: &[[u8; 16]; 11], xs: &[u128], tweaks: &[u64], out: &mut [u128]) {
    let keys = Keys::load(round_keys);
    let n = out.len();
    let mut at = 0;
    while n - at >= 8 {
        hash_group::<8>(&keys, &xs[at..], &tweaks[at..], &mut out[at..]);
        at += 8;
    }
    // The tail (< 8 blocks) splits by its binary digits.
    let tail = n - at;
    if tail & 4 != 0 {
        hash_group::<4>(&keys, &xs[at..], &tweaks[at..], &mut out[at..]);
        at += 4;
    }
    if tail & 2 != 0 {
        hash_group::<2>(&keys, &xs[at..], &tweaks[at..], &mut out[at..]);
        at += 2;
    }
    if tail & 1 != 0 {
        hash_group::<1>(&keys, &xs[at..], &tweaks[at..], &mut out[at..]);
    }
}

impl Keys {
    /// The schedule loaded into registers once per batch.
    #[target_feature(enable = "aes,ssse3")]
    #[inline]
    unsafe fn load(round_keys: &[[u8; 16]; 11]) -> Self {
        let mut round = [_mm_setzero_si128(); 11];
        for (k, bytes) in round.iter_mut().zip(round_keys) {
            *k = _mm_loadu_si128(bytes.as_ptr().cast());
        }
        Keys {
            round,
            bswap: _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        }
    }
}

/// Hashes the first `N` lanes of `xs` / `tweaks` into `out`, all in flight
/// together.
#[target_feature(enable = "aes,ssse3")]
#[inline]
unsafe fn hash_group<const N: usize>(keys: &Keys, xs: &[u128], tweaks: &[u64], out: &mut [u128]) {
    let (xs, tweaks, out) = (&xs[..N], &tweaks[..N], &mut out[..N]);
    // Lane 0 of a `u128` is its low 64-bit half. A half's top bit moves to
    // the other half: the low half's as the carry into bit 64, the high
    // half's as the reduction `0x87` into the low half.
    let fold = _mm_set_epi64x(1, 0x87);
    let mut input = [_mm_setzero_si128(); N];
    let mut v = [keys.round[0]; N];
    for i in 0..N {
        let x = _mm_loadu_si128((&xs[i] as *const u128).cast());
        let tops = _mm_shuffle_epi32::<0b01_00_11_10>(_mm_srli_epi64::<63>(x));
        let carry = _mm_and_si128(_mm_sub_epi64(_mm_setzero_si128(), tops), fold);
        let doubled = _mm_xor_si128(_mm_slli_epi64::<1>(x), carry);
        input[i] = _mm_xor_si128(doubled, _mm_cvtsi64_si128(tweaks[i] as i64));
        v[i] = _mm_xor_si128(_mm_shuffle_epi8(input[i], keys.bswap), keys.round[0]);
    }
    for k in &keys.round[1..10] {
        for s in v.iter_mut() {
            *s = _mm_aesenc_si128(*s, *k);
        }
    }
    for i in 0..N {
        let y = _mm_shuffle_epi8(_mm_aesenclast_si128(v[i], keys.round[10]), keys.bswap);
        _mm_storeu_si128(
            (&mut out[i] as *mut u128).cast(),
            _mm_xor_si128(y, input[i]),
        );
    }
}

/// Encrypts exactly `N` blocks, all in flight together.
#[target_feature(enable = "aes,ssse3")]
#[inline]
unsafe fn group<const N: usize>(keys: &Keys, blocks: &mut [u128]) {
    debug_assert_eq!(blocks.len(), N);
    let mut v = [keys.round[0]; N];
    for (s, b) in v.iter_mut().zip(blocks.iter()) {
        let x = _mm_loadu_si128((b as *const u128).cast());
        *s = _mm_xor_si128(_mm_shuffle_epi8(x, keys.bswap), keys.round[0]);
    }
    for k in &keys.round[1..10] {
        for s in v.iter_mut() {
            *s = _mm_aesenc_si128(*s, *k);
        }
    }
    for (s, b) in v.iter().zip(blocks.iter_mut()) {
        let y = _mm_aesenclast_si128(*s, keys.round[10]);
        _mm_storeu_si128((b as *mut u128).cast(), _mm_shuffle_epi8(y, keys.bswap));
    }
}
