//! Little-endian bit-packing for bounded `u64` words.
//!
//! The wire layer stores polynomial coefficients at `ceil(log2 q)` bits
//! each instead of a flat 8 bytes. Packing is a single contiguous
//! little-endian bitstream: word `i` occupies bits `[i*bits, (i+1)*bits)`
//! of the stream, least-significant bit first, and the final byte is
//! zero-padded. `bits` may be anything in `1..=64`.

/// Number of bytes needed to pack `n` words of `bits` bits each.
pub fn packed_len(n: usize, bits: usize) -> usize {
    debug_assert!((1..=64).contains(&bits));
    (n * bits).div_ceil(8)
}

/// The low `bits` bits set, for `bits` in `1..=64`.
fn mask(bits: usize) -> u64 {
    u64::MAX >> (64 - bits)
}

/// Append `words` to `out`, packed at `bits` bits per word.
///
/// Every word must fit in `bits` bits (debug-asserted); callers are
/// expected to have reduced values into canonical range first. The stream
/// is assembled in a 128-bit staging register and leaves it eight bytes at
/// a time.
pub fn pack_into(out: &mut Vec<u8>, words: &[u64], bits: usize) {
    let start = out.len();
    out.resize(start + packed_len(words.len(), bits), 0);
    pack_slice(&mut out[start..], words, bits);
}

/// [`pack_into`] at the front of a slice the caller sized (a fixed-offset
/// field of a preallocated frame): writes exactly
/// [`packed_len`]`(words.len(), bits)` bytes and returns that count.
///
/// # Panics
///
/// Panics if `dst` is shorter than that.
pub fn pack_slice(dst: &mut [u8], words: &[u64], bits: usize) -> usize {
    assert!((1..=64).contains(&bits), "bit width {bits} out of range");
    let mask = mask(bits);
    let len = packed_len(words.len(), bits);
    let dst = &mut dst[..len];
    // `acc_bits < 64` at the top of every iteration, so a 64-bit word never
    // overflows the register.
    let mut acc: u128 = 0;
    let mut acc_bits: usize = 0;
    let mut pos = 0usize;
    for &w in words {
        debug_assert!(w & mask == w, "word {w:#x} exceeds {bits} bits");
        acc |= u128::from(w & mask) << acc_bits;
        acc_bits += bits;
        if acc_bits >= 64 {
            dst[pos..pos + 8].copy_from_slice(&(acc as u64).to_le_bytes());
            pos += 8;
            acc >>= 64;
            acc_bits -= 64;
        }
    }
    let tail = acc_bits.div_ceil(8);
    dst[pos..pos + tail].copy_from_slice(&(acc as u64).to_le_bytes()[..tail]);
    len
}

/// Unpack `n` words of `bits` bits each from the front of `bytes` into a
/// vector the caller already owns: `words` is resized to `n` and every
/// word overwritten, so it reallocates only if its capacity is below `n`.
///
/// Returns `false`, with `words` left empty, if `bytes` is shorter than
/// [`packed_len`]`(n, bits)`. Trailing pad bits in the final byte are
/// ignored. The staging register refills eight bytes at a time while the
/// buffer has them (bytes past the packed length may be loaded, never
/// consumed) and a byte at a time at its very end.
pub fn unpack_into(bytes: &[u8], n: usize, bits: usize, words: &mut Vec<u64>) -> bool {
    assert!((1..=64).contains(&bits), "bit width {bits} out of range");
    if bytes.len() < packed_len(n, bits) {
        words.clear();
        return false;
    }
    let mask = mask(bits);
    let mut acc: u128 = 0;
    let mut acc_bits: usize = 0;
    let mut pos = 0usize;
    // Sized once and filled through a slice — a `push` per word re-reads
    // and re-writes the length behind `words` and runs at under half the
    // speed. A vector that has to be allocated comes zeroed from the
    // allocator, which knows when the memory already is.
    if words.capacity() < n {
        *words = vec![0; n];
    } else {
        words.resize(n, 0);
    }
    for out in words.iter_mut() {
        if acc_bits < bits {
            if let Some(chunk) = bytes.get(pos..pos + 8) {
                let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                acc |= u128::from(word) << acc_bits;
                pos += 8;
                acc_bits += 64;
            } else {
                // Fewer than 8 bytes left, and the length check above says
                // they hold every bit still owed.
                while acc_bits < bits {
                    acc |= u128::from(bytes[pos]) << acc_bits;
                    pos += 1;
                    acc_bits += 8;
                }
            }
        }
        *out = (acc as u64) & mask;
        acc >>= bits;
        acc_bits -= bits;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// [`unpack_into`] into a fresh vector, `None` where it refuses.
    fn unpack(bytes: &[u8], n: usize, bits: usize) -> Option<Vec<u64>> {
        let mut words = Vec::new();
        unpack_into(bytes, n, bits, &mut words).then_some(words)
    }

    #[test]
    fn packed_len_matches_output() {
        for bits in [1, 2, 7, 8, 9, 45, 50, 62, 63, 64] {
            for n in [0, 1, 3, 17, 256] {
                let words: Vec<u64> = (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask(bits))
                    .collect();
                let mut out = Vec::new();
                pack_into(&mut out, &words, bits);
                assert_eq!(out.len(), packed_len(n, bits), "n={n} bits={bits}");
            }
        }
    }

    /// The byte-at-a-time packer the word-wise one replaced: the oracle.
    fn pack_bytewise(out: &mut Vec<u8>, words: &[u64], bits: usize) {
        let mut acc: u128 = 0;
        let mut acc_bits = 0usize;
        for &w in words {
            acc |= u128::from(w & mask(bits)) << acc_bits;
            acc_bits += bits;
            while acc_bits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                acc_bits -= 8;
            }
        }
        if acc_bits > 0 {
            out.push(acc as u8);
        }
    }

    /// Its reader, likewise.
    fn unpack_bytewise(bytes: &[u8], n: usize, bits: usize) -> Option<Vec<u64>> {
        if bytes.len() < packed_len(n, bits) {
            return None;
        }
        let mut words = Vec::with_capacity(n);
        let (mut acc, mut acc_bits, mut pos) = (0u128, 0usize, 0usize);
        for _ in 0..n {
            while acc_bits < bits {
                acc |= u128::from(bytes[pos]) << acc_bits;
                pos += 1;
                acc_bits += 8;
            }
            words.push((acc as u64) & mask(bits));
            acc >>= bits;
            acc_bits -= bits;
        }
        Some(words)
    }

    #[test]
    fn word_wise_matches_the_byte_wise_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for bits in 1..=64usize {
            for n in 0..=67usize {
                let words: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & mask(bits)).collect();
                let (mut got, mut want) = (vec![0x5Au8; 3], vec![0x5Au8; 3]);
                pack_into(&mut got, &words, bits);
                pack_bytewise(&mut want, &words, bits);
                assert_eq!(got, want, "pack bits={bits} n={n}");
                // Exact-length, over-long and one-byte-short buffers.
                let packed = &got[3..];
                assert_eq!(unpack(packed, n, bits), Some(words.clone()));
                let mut longer = packed.to_vec();
                longer.extend([0xFF; 9]);
                assert_eq!(
                    unpack(&longer, n, bits),
                    unpack_bytewise(&longer, n, bits),
                    "unpack bits={bits} n={n}"
                );
                if n > 0 {
                    assert_eq!(unpack(&packed[..packed.len() - 1], n, bits), None);
                }
            }
        }
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for bits in 1..=64usize {
            let n = 1 + rng.gen_range(0..100usize);
            let words: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & mask(bits)).collect();
            let mut out = vec![0xAAu8; 5]; // existing prefix must be preserved
            pack_into(&mut out, &words, bits);
            assert_eq!(&out[..5], &[0xAA; 5]);
            let got = unpack(&out[5..], n, bits).expect("enough bytes");
            assert_eq!(got, words, "bits={bits}");
        }
    }

    #[test]
    fn unpack_rejects_short_input() {
        let words = [1u64, 2, 3, 4];
        let mut out = Vec::new();
        pack_into(&mut out, &words, 62);
        assert!(unpack(&out[..out.len() - 1], 4, 62).is_none());
        assert!(unpack(&[], 1, 8).is_none());
        assert!(unpack(&[], 0, 8).is_some());
    }

    #[test]
    fn unpack_into_refills_the_callers_allocation() {
        let words: Vec<u64> = (0..40u64).map(|i| (i * 0x0101_0101) & mask(45)).collect();
        let mut packed = Vec::new();
        pack_into(&mut packed, &words, 45);
        // Stale contents, capacity to spare: same words, same allocation.
        let mut buf = vec![u64::MAX; 64];
        let ptr = buf.as_ptr();
        assert!(unpack_into(&packed, 40, 45, &mut buf));
        assert_eq!(buf, words);
        assert_eq!(buf.as_ptr(), ptr);
        // A short input leaves nothing stale behind.
        assert!(!unpack_into(&packed[..packed.len() - 1], 40, 45, &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn max_width_is_flat_u64() {
        let words = [u64::MAX, 0, 0x0123_4567_89ab_cdef];
        let mut out = Vec::new();
        pack_into(&mut out, &words, 64);
        assert_eq!(out.len(), 24);
        let got = unpack(&out, 3, 64).unwrap();
        assert_eq!(got, words);
    }
}
