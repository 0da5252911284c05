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
//! This is the only module in `pi-gc` that needs `unsafe` (intrinsics and
//! `#[target_feature]`), mirroring how `pi_field::simd::avx512` scopes its
//! exemption; the crate root remains `deny(unsafe_code)`.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi8,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
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
    let mut round = [_mm_setzero_si128(); 11];
    for (k, bytes) in round.iter_mut().zip(round_keys) {
        *k = _mm_loadu_si128(bytes.as_ptr().cast());
    }
    let keys = Keys {
        round,
        bswap: _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    };
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
