//! Log-linear histograms over `u64` values, lock-free.
//!
//! Bucketing follows the HDR-histogram shape: values below 8 get exact
//! unit buckets; every octave `[2^e, 2^(e+1))` above that splits into 8
//! linear sub-buckets, so the recorded lower bound is within 12.5% of the
//! true value at any magnitude. 8 + 61·8 = 496 buckets cover all of `u64`.

use crate::{mode, TraceMode};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (2^3).
const SUB: u64 = 8;
const SUB_BITS: u32 = 3;
/// Total buckets per histogram: 8 unit buckets plus 8 sub-buckets for each
/// of the 61 octaves `[2^3, 2^4) … [2^63, 2^64)`.
pub const NUM_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

macro_rules! hists {
    ($($variant:ident => $name:literal,)+) => {
        /// Fixed histogram identities across the pipeline.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Hist {
            $($variant,)+
        }

        impl Hist {
            /// Number of histograms.
            pub const COUNT: usize = [$(Hist::$variant,)+].len();
            /// All histograms, in slot order.
            pub const ALL: [Hist; Hist::COUNT] = [$(Hist::$variant,)+];

            /// Stable dotted export name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Hist::$variant => $name,)+
                }
            }
        }
    };
}

hists! {
    WireMsgBytes => "wire.msg_bytes",
    NoiseEncryptBits => "he.noise_encrypt_bits",
    NoiseDecryptBits => "he.noise_decrypt_bits",
}

/// Bucket index for a value (log-linear, monotone in `v`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let octave = (e - SUB_BITS) as u64;
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        (SUB + octave * SUB + sub) as usize
    }
}

/// Smallest value that lands in bucket `i` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let octave = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        (SUB + sub) << octave
    }
}

struct Slot {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    buckets: [ZERO; NUM_BUCKETS],
    count: ZERO,
    sum: ZERO,
    max: ZERO,
};
static HISTS: [Slot; Hist::COUNT] = [EMPTY; Hist::COUNT];

/// Records one observation. No-op in `off` mode.
#[inline]
pub fn record(h: Hist, v: u64) {
    if mode() == TraceMode::Off {
        return;
    }
    let slot = &HISTS[h as usize];
    slot.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    slot.count.fetch_add(1, Ordering::Relaxed);
    slot.sum.fetch_add(v, Ordering::Relaxed);
    slot.max.fetch_max(v, Ordering::Relaxed);
}

/// (count, sum, max, sparse non-empty buckets) snapshot of one histogram.
pub(crate) fn snapshot(h: Hist) -> (u64, u64, u64, Vec<(usize, u64)>) {
    let slot = &HISTS[h as usize];
    let buckets: Vec<(usize, u64)> = slot
        .buckets
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let n = b.load(Ordering::Relaxed);
            (n > 0).then_some((i, n))
        })
        .collect();
    (
        slot.count.load(Ordering::Relaxed),
        slot.sum.load(Ordering::Relaxed),
        slot.max.load(Ordering::Relaxed),
        buckets,
    )
}

pub(crate) fn reset() {
    for slot in HISTS.iter() {
        for b in slot.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        slot.count.store(0, Ordering::Relaxed);
        slot.sum.store(0, Ordering::Relaxed);
        slot.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_below_eight() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn octave_edges() {
        // First split octave [8,16): unit-width sub-buckets.
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        // [16,32): width-2 sub-buckets — 16 and 17 share one.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(18), 17);
        assert_eq!(bucket_lower_bound(16), 16);
        assert_eq!(bucket_lower_bound(17), 18);
        // Power-of-two boundaries land exactly on a sub-bucket floor.
        for e in 3..64u32 {
            let v = 1u64 << e;
            assert_eq!(bucket_lower_bound(bucket_index(v)), v, "2^{e}");
            // Last value of the previous octave stays in the previous octave.
            assert!(bucket_index(v - 1) < bucket_index(v), "2^{e}-1");
        }
    }

    #[test]
    fn lower_bound_inverts_and_bounds_error() {
        let samples: Vec<u64> = (0..63)
            .flat_map(|e| {
                let b = 1u64 << e;
                [b, b + 1, b + b / 3, b + b / 2, (b << 1) - 1]
            })
            .chain([0, u64::MAX])
            .collect();
        for v in samples {
            let i = bucket_index(v);
            let lo = bucket_lower_bound(i);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            if i + 1 < NUM_BUCKETS {
                assert!(
                    bucket_lower_bound(i + 1) > v,
                    "value {v} not below next bucket"
                );
            }
            // Log-linear error contract: representative within 12.5%.
            assert!(
                (v - lo) as f64 <= v as f64 / 8.0,
                "bucket error too large at {v}"
            );
        }
    }

    #[test]
    fn monotone_index() {
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|e| {
                [0u64, 1, 2, 3].map(|off| (1u64 << e).saturating_add(off << e.saturating_sub(3)))
            })
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
        }
        assert!(last < NUM_BUCKETS);
    }

    #[test]
    fn record_and_snapshot() {
        let _l = crate::test_lock::hold();
        crate::force_mode(Some(TraceMode::Counters));
        crate::reset();
        for v in [1u64, 1, 5, 100, 1_000_000] {
            record(Hist::WireMsgBytes, v);
        }
        let (count, sum, max, buckets) = snapshot(Hist::WireMsgBytes);
        assert_eq!(count, 5);
        assert_eq!(sum, 1_000_107);
        assert_eq!(max, 1_000_000);
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 5);
        assert_eq!(
            buckets.iter().find(|&&(i, _)| i == bucket_index(1)),
            Some(&(1usize, 2u64))
        );
        crate::force_mode(None);
        crate::reset();
    }
}
