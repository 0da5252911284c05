//! Packed bit vectors and the blocked 128×128 bit-matrix transpose.
//!
//! The IKNP extension is a bit-matrix computation: `m` rows (one per
//! transfer) by [`crate::ext::KAPPA`] = 128 columns (one per base OT). The
//! seed implementation materialized every bit as a `bool`; this module
//! packs 128 bits per `u128` word so column XOR is one machine word per
//! 128 transfers, and the column→row change of basis is a SWAR transpose
//! (7 delta-swap levels over whole words — a blocked SIMD transpose
//! expressed in portable `u128` ops, keeping this crate `forbid(unsafe)`).
//!
//! # Bit-ordering invariant
//!
//! Bit `n` of a [`BitVec`] lives in word `n / 128` at bit position
//! `n % 128` (LSB-first, the same order `ext::prg_bits` emits bits from an
//! AES block). A column of `m` bits therefore occupies `⌈m/128⌉` words,
//! and word `w` of a PRG-expanded column **is** the raw AES-CTR block
//! `E_seed(w)` — the keystream lands in packed form with no per-bit
//! shuffling.

/// A bit vector packed 128 bits per word, LSB-first within each word.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u128>,
    len: usize,
}

impl BitVec {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u128; len.div_ceil(128)],
            len,
        }
    }

    /// Packs a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.words[i / 128] |= 1u128 << (i % 128);
            }
        }
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 128] >> (i % 128)) & 1 == 1
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(128) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 128] |= 1u128 << (self.len % 128);
        }
        self.len += 1;
    }

    /// The packed words (`⌈len/128⌉` of them; bits past `len` in the last
    /// word are zero).
    pub fn words(&self) -> &[u128] {
        &self.words
    }
}

/// In-place 128×128 bit-matrix transpose: `out[k]` bit `b` = `in[b]` bit
/// `k` (LSB-first in both views). Seven delta-swap levels over `u128`
/// words — the Hacker's Delight blocked transpose widened to 128.
pub fn transpose128(a: &mut [u128; 128]) {
    let mut j = 64usize;
    let mut m: u128 = u128::MAX >> 64;
    while j != 0 {
        let mut k = 0usize;
        while k < 128 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Transposes the first `words` words of 128 packed columns into packed
/// rows: row `r`'s `u128` has bit `i` = column `i`'s bit `r`. Returns
/// `128 * words` rows; callers truncate to the live row count.
pub fn columns_to_rows<C: AsRef<[u128]>>(columns: &[C], words: usize) -> Vec<u128> {
    assert_eq!(columns.len(), 128, "need exactly 128 columns");
    let mut rows = vec![0u128; 128 * words];
    let mut block = [0u128; 128];
    for w in 0..words {
        for (i, col) in columns.iter().enumerate() {
            block[i] = col.as_ref()[w];
        }
        transpose128(&mut block);
        rows[128 * w..128 * (w + 1)].copy_from_slice(&block);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bitvec_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for n in [0usize, 1, 127, 128, 129, 300] {
            let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let v = BitVec::from_bools(&bits);
            assert_eq!(v.len(), n);
            assert_eq!((0..n).map(|i| v.get(i)).collect::<Vec<_>>(), bits);
            let mut pushed = BitVec::default();
            for &b in &bits {
                pushed.push(b);
            }
            assert_eq!(pushed, v);
            // Tail bits beyond len must be zero (wire format invariant).
            if n % 128 != 0 && !v.words().is_empty() {
                let tail = v.words()[v.words().len() - 1] >> (n % 128);
                assert_eq!(tail, 0);
            }
        }
    }

    #[test]
    fn transpose128_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let original: [u128; 128] = core::array::from_fn(|_| rng.gen());
        let mut t = original;
        transpose128(&mut t);
        for (k, &row) in t.iter().enumerate() {
            for (b, &orig) in original.iter().enumerate() {
                assert_eq!((row >> b) & 1, (orig >> k) & 1, "row {k} bit {b}");
            }
        }
        // Involution.
        transpose128(&mut t);
        assert_eq!(t, original);
    }

    #[test]
    fn columns_to_rows_matches_bit_gather() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let words = 3usize;
        let columns: Vec<Vec<u128>> = (0..128)
            .map(|_| (0..words).map(|_| rng.gen()).collect())
            .collect();
        let rows = columns_to_rows(&columns, words);
        assert_eq!(rows.len(), 128 * words);
        for (r, &row) in rows.iter().enumerate() {
            for (i, col) in columns.iter().enumerate() {
                let bit = (col[r / 128] >> (r % 128)) & 1;
                assert_eq!((row >> i) & 1, bit, "row {r} col {i}");
            }
        }
    }
}
