//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the tiny slice of the `rand` 0.8 API it actually uses: [`RngCore`]/[`Rng`]
//! with `gen`/`gen_range`, [`SeedableRng::seed_from_u64`], a deterministic
//! [`rngs::StdRng`] (xoshiro256++ seeded via SplitMix64), and
//! [`thread_rng`]. Statistical quality is more than sufficient for tests and
//! protocol randomness in a research prototype; it is **not** a
//! cryptographically secure generator and must be swapped for the real crate
//! before any production deployment.

/// Low-level generator interface: a source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from the generator's full range
/// (the `Standard` distribution in real `rand`).
pub trait Standard: Sized {
    /// Draws one uniformly random value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for i128 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample_standard(rng) as i128
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Element types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`). Panics if the range is empty.
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let span = (hi as i128 - lo as i128) + inclusive as i128;
                assert!(span > 0, "cannot sample empty range");
                (lo as i128 + (u128::sample_standard(rng) % span as u128) as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for u128 {
    #[inline]
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self {
        assert!(
            lo < hi || (inclusive && lo == hi),
            "cannot sample empty range"
        );
        let span = hi - lo + inclusive as u128;
        if span == 0 {
            // Inclusive full-u128 range: every value is valid.
            return u128::sample_standard(rng);
        }
        lo + u128::sample_standard(rng) % span
    }
}

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                lo + (hi - lo) * <$t>::sample_standard(rng)
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Ranges that [`Rng::gen_range`] accepts, producing values of type `T`.
/// A single generic impl per range shape (like real rand) so integer-literal
/// ranges unify their element type with the call site.
pub trait SampleRange<T> {
    /// Samples uniformly from the range. Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_uniform(*self.start(), *self.end(), true, rng)
    }
}

/// High-level convenience methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its full range.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }

    /// Fills a byte slice with random data.
    #[inline]
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator from OS-ish entropy (time + address entropy).
    fn from_entropy() -> Self {
        Self::seed_from_u64(entropy_seed())
    }
}

fn entropy_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9e3779b97f4a7c15);
    let addr = &t as *const _ as u64;
    t ^ addr.rotate_left(32) ^ std::process::id() as u64
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::*;

    /// Deterministic xoshiro256++ generator (stand-in for `rand::rngs::StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_state(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for limb in &mut s {
                *limb = splitmix64(&mut seed);
            }
            Self { s }
        }

        /// Seeds from a full 256-bit seed (API-compatible with
        /// `rand::SeedableRng::from_seed` for the real `StdRng`).
        ///
        /// Each little-endian `u64` limb of the seed is diffused through
        /// splitmix64 so that sparse seeds (e.g. mostly-zero byte arrays)
        /// still yield a well-mixed, non-zero xoshiro256++ state.
        pub fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (limb, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                let mut v = u64::from_le_bytes(chunk.try_into().unwrap());
                *limb = splitmix64(&mut v);
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self::from_state(seed)
        }
    }

    /// Per-call lightweight generator returned by [`super::thread_rng`].
    #[derive(Clone, Debug)]
    pub struct ThreadRng(pub(crate) StdRng);

    impl RngCore for ThreadRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// Returns a generator seeded from ambient entropy (not cryptographic).
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng(rngs::StdRng::seed_from_u64(entropy_seed()))
}

/// Draws one value of type `T` from a fresh [`thread_rng`].
pub fn random<T: Standard>() -> T {
    T::sample_standard(&mut thread_rng())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_endpoints() {
        let mut rng = rngs::StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dyn_rng_usable() {
        fn takes_dyn(rng: &mut dyn RngCore) -> u64 {
            rng.next_u64()
        }
        let mut rng = rngs::StdRng::seed_from_u64(1);
        takes_dyn(&mut rng);
        fn takes_unsized<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..10u64)
        }
        takes_unsized(&mut rng);
    }

    #[test]
    fn fill_bytes_all_lengths() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        for len in 0..33 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }
}
