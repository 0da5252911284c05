//! The host-speed reference: a fixed piece of arithmetic of the ledger's
//! own, timed between requests, against which every time of an end-to-end
//! run is scaled.
//!
//! Why: this host is a few cores of a shared machine, and for minutes at a
//! time its neighbours slow it down — code that keeps the multipliers busy
//! (the program's 1024-bit base-OT exponentiations) by up to 50 %, lighter
//! code (key generation, NTTs) by 10–25 %, a dependent add chain not at
//! all. Raw medians of ten back-to-back runs of one workload then spread by
//! 15–35 % of their median, which no bound the benchmark may carry covers.
//! The reference runs two kernels the same spell slows in the same two ways
//! — schoolbook multi-limb multiplication, and chains of 64-bit modular
//! multiplications — and a request's time is multiplied by
//! `NOMINAL_MS ÷ (the reference's time just before and after it)`: times
//! are reported as at the speed at which the reference takes `NOMINAL_MS`,
//! this host's when it is quiet. The reference shares no code with the
//! program, so no change to the program moves it. README, "Steadiness", has
//! the measurements.

use std::hint::black_box;
use std::time::Instant;

/// What one sample takes on this host when its neighbours are quiet.
pub const NOMINAL_MS: f64 = 28.0;

const LIMBS: usize = 16;
const BIG_ROUNDS: usize = 40_000;
const MOD_ROUNDS: u64 = 500_000;

/// Rounds of a 16 × 16-limb multiply-and-fold (the shape of a Montgomery
/// multiplication): independent 64 × 64 → 128-bit products with carry
/// chains, as many per cycle as the core issues.
fn big_multiply() {
    let mut a = black_box([0x9e37_79b9_7f4a_7c15_u64; LIMBS]);
    let b: [u64; LIMBS] =
        std::array::from_fn(|i| 0xbf58_476d_1ce4_e5b9_u64.wrapping_mul(i as u64 + 1) | 1);
    for _ in 0..BIG_ROUNDS {
        let mut t = [0u64; LIMBS + 1];
        for &ai in &a {
            let mut carry = 0u64;
            for j in 0..LIMBS {
                let prod = ai as u128 * b[j] as u128 + t[j] as u128 + carry as u128;
                t[j] = prod as u64;
                carry = (prod >> 64) as u64;
            }
            t[LIMBS] = t[LIMBS].wrapping_add(carry);
            // Fold the lowest limb away, as a reduction step does.
            let m = t[0].wrapping_mul(0x2545_f491_4f6c_dd1d);
            let mut carry = ((m as u128 * b[0] as u128 + t[0] as u128) >> 64) as u64;
            for j in 1..LIMBS {
                let prod = m as u128 * b[j] as u128 + t[j] as u128 + carry as u128;
                t[j - 1] = prod as u64;
                carry = (prod >> 64) as u64;
            }
            let top = t[LIMBS] as u128 + carry as u128;
            t[LIMBS - 1] = top as u64;
            t[LIMBS] = (top >> 64) as u64;
        }
        a.copy_from_slice(&t[..LIMBS]);
    }
    black_box(a);
}

/// Eight interleaved chains of multiplications modulo 2^61 − 1: each step
/// waits for the one before it, so the multipliers are half idle.
fn modular_chains() {
    const Q: u128 = (1 << 61) - 1;
    let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for i in 0..MOD_ROUNDS {
        for lane in &mut lanes {
            *lane = ((*lane as u128 * (*lane as u128 + i as u128)) % Q) as u64;
        }
    }
    black_box(lanes);
}

/// The samples of one run.
pub struct Reference {
    samples_ms: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            samples_ms: Vec::new(),
        }
    }

    /// Times the reference once.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        big_multiply();
        modular_chains();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Runs `f` between two samples — the one before it is the one after
    /// the previous call — and returns the factor that takes a time
    /// measured inside `f` to the nominal host speed.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.samples_ms.last() {
            Some(&ms) => ms,
            None => self.sample(),
        };
        let out = f();
        let after = self.sample();
        (out, NOMINAL_MS / ((before + after) / 2.0))
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn around_scales_by_the_samples_on_both_sides() {
        let mut reference = Reference::new();
        let ((), first) = reference.around(|| ());
        let samples = reference.samples_ms().to_vec();
        assert_eq!(
            samples.len(),
            2,
            "one sample before the first call, one after"
        );
        assert_eq!(first, NOMINAL_MS / ((samples[0] + samples[1]) / 2.0));
        // The next call reuses the sample that ended the last one.
        let (value, second) = reference.around(|| 7);
        assert_eq!(value, 7);
        let samples = reference.samples_ms();
        assert_eq!(samples.len(), 3);
        assert_eq!(second, NOMINAL_MS / ((samples[1] + samples[2]) / 2.0));
        assert!(samples.iter().all(|&ms| ms > 0.0));
    }
}
