//! Randomness for RLWE: uniform, ternary, and centered-binomial samplers
//! over [`Poly`] rings.
//!
//! The two samplers key generation spends its time in work a generator
//! word at a time:
//!
//! * **Centered binomial** is bit-sliced: a coefficient is the popcount
//!   difference of two `k`-bit halves of one `2k`-bit draw, and a 64-bit
//!   word is cut into `⌊64 / 2k⌋` such draws — 1 024 words for an
//!   `N = 4096`, `k = 8` polynomial. `2k` independent fair bits per
//!   coefficient is the definition of the distribution, so it is exact.
//! * **Uniform** is rejection from `bits(q)`-bit draws: one word per
//!   accepted coefficient (acceptance is above one half), exactly uniform
//!   on `[0, q)`, no 128-bit remainder. A uniform ring element is uniform
//!   in either basis, so the caller names the [`PolyForm`] the draw is
//!   *labelled* with and no transform is ever run on it.
//!
//! Both are functions of the generator's `next_u64` stream alone, so a
//! seed expands to the same polynomial on every `PI_SIMD` backend.

use crate::poly::{Poly, PolyForm, RingContext};
use pi_field::Modulus;
use rand::Rng;
use std::sync::Arc;

/// The bit-sliced centered-binomial core: fills `out` with `map(draw)`.
fn centered_binomial_with<T, R: Rng + ?Sized>(
    out: &mut [T],
    rng: &mut R,
    k: u32,
    map: impl Fn(i64) -> T,
) {
    assert!(
        (1..=32).contains(&k),
        "centered-binomial parameter {k} outside 1..=32"
    );
    let half = u64::MAX >> (64 - k);
    let per_word = (64 / (2 * k)) as usize;
    for chunk in out.chunks_mut(per_word) {
        let mut w = rng.next_u64();
        for c in chunk {
            let (a, b) = (w & half, (w >> k) & half);
            *c = map(i64::from(a.count_ones()) - i64::from(b.count_ones()));
            // `2k = 64` only with one draw a word, whose shift is unused.
            w = w.checked_shr(2 * k).unwrap_or(0);
        }
    }
}

/// Fills `out` with centered-binomial coefficients (parameter `k`) as
/// residues in `[0, q)`.
///
/// # Panics
///
/// Panics unless `1 <= k <= 32` and `k < q`.
pub fn centered_binomial_into<R: Rng + ?Sized>(q: Modulus, out: &mut [u64], rng: &mut R, k: u32) {
    let qv = q.value();
    assert!(
        u64::from(k) < qv,
        "support [-k, k] does not fit modulus {q}"
    );
    centered_binomial_with(out, rng, k, |v| {
        if v < 0 {
            qv - v.unsigned_abs()
        } else {
            v as u64
        }
    });
}

/// Fills `out` with centered-binomial coefficients (parameter `k`) as
/// signed bytes — the compact form key generation draws every digit's
/// error in before it splits, from the same generator words
/// [`centered_binomial_into`] reads.
///
/// # Panics
///
/// Panics unless `1 <= k <= 32`.
pub fn centered_binomial_small_into<R: Rng + ?Sized>(out: &mut [i8], rng: &mut R, k: u32) {
    centered_binomial_with(out, rng, k, |v| v as i8);
}

/// Fills `out` with values uniform in `[0, q)`, by rejection from
/// `bits(q)`-bit draws.
pub fn uniform_into<R: Rng + ?Sized>(q: Modulus, out: &mut [u64], rng: &mut R) {
    let (qv, shift) = (q.value(), 64 - q.bits());
    for x in out {
        *x = loop {
            let w = rng.next_u64() >> shift;
            if w < qv {
                break w;
            }
        };
    }
}

/// Advances `rng` exactly as [`uniform_into`] of `n` values would, without
/// writing them: the rejection tests alone find where the next draw
/// starts, so a caller can hand each of several draws of one stream to
/// another thread as the stream's state at its start.
pub fn uniform_skip<R: Rng + ?Sized>(q: Modulus, n: usize, rng: &mut R) {
    let (qv, shift) = (q.value(), 64 - q.bits());
    let mut accepted = 0;
    while accepted < n {
        accepted += usize::from(rng.next_u64() >> shift < qv);
    }
}

/// Samples a polynomial uniform over the ring, labelled as `form` (see the
/// module docs: no transform relates the two labels' draws, and none is
/// needed).
pub fn uniform<R: Rng + ?Sized>(ctx: &Arc<RingContext>, form: PolyForm, rng: &mut R) -> Poly {
    let mut data = vec![0u64; ctx.n()];
    uniform_into(ctx.q(), &mut data, rng);
    match form {
        PolyForm::Coeff => Poly::from_coeffs(ctx.clone(), data),
        PolyForm::Ntt => Poly::from_ntt_data(ctx.clone(), data),
    }
}

/// Samples a ternary polynomial with coefficients in `{-1, 0, 1}`, the
/// standard BFV secret-key distribution.
pub fn ternary<R: Rng + ?Sized>(ctx: &Arc<RingContext>, rng: &mut R) -> Poly {
    let signed: Vec<i64> = (0..ctx.n()).map(|_| rng.gen_range(-1i64..=1)).collect();
    Poly::from_signed(ctx.clone(), &signed)
}

/// Samples an error polynomial from a centered binomial distribution with
/// parameter `k` (variance `k/2`, support `[-k, k]`).
///
/// `k = 21` approximates the discrete Gaussian with σ ≈ 3.2 that SEAL uses;
/// centered binomial is the standard constant-time drop-in (as in Kyber).
pub fn centered_binomial<R: Rng + ?Sized>(ctx: &Arc<RingContext>, rng: &mut R, k: u32) -> Poly {
    let mut data = vec![0u64; ctx.n()];
    centered_binomial_into(ctx.q(), &mut data, rng, k);
    Poly::from_coeffs(ctx.clone(), data)
}

/// Default error sampler: centered binomial approximating σ ≈ 3.2.
pub fn error<R: Rng + ?Sized>(ctx: &Arc<RingContext>, rng: &mut R) -> Poly {
    centered_binomial(ctx, rng, 21)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> Arc<RingContext> {
        Arc::new(RingContext::new(1024, 30))
    }

    /// `n` signed centered-binomial draws with parameter `k`.
    fn signed_draws(n: usize, rng: &mut impl Rng, k: u32) -> Vec<i64> {
        let mut out = vec![0i64; n];
        centered_binomial_with(&mut out, rng, k, |v| v);
        out
    }

    #[test]
    fn ternary_support() {
        let ctx = ctx();
        let q = ctx.q();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = ternary(&ctx, &mut rng);
        for c in s.coeffs() {
            let v = q.to_signed(c);
            assert!(
                (-1..=1).contains(&v),
                "ternary coefficient out of range: {v}"
            );
        }
        // All three values should appear in 1024 draws.
        let coeffs = s.coeffs();
        assert!(coeffs.contains(&0));
        assert!(coeffs.contains(&1));
        assert!(coeffs.iter().any(|&c| c == q.value() - 1));
    }

    #[test]
    fn error_bounded_and_centered() {
        let ctx = ctx();
        let q = ctx.q();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let e = error(&ctx, &mut rng);
        let signed: Vec<i64> = e.coeffs().iter().map(|&c| q.to_signed(c)).collect();
        assert!(signed.iter().all(|&v| v.abs() <= 21));
        let mean: f64 = signed.iter().map(|&v| v as f64).sum::<f64>() / signed.len() as f64;
        assert!(
            mean.abs() < 1.0,
            "error distribution should be centered, mean={mean}"
        );
        // Variance should be near k/2 = 10.5.
        let var: f64 = signed
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / signed.len() as f64;
        assert!(
            (5.0..20.0).contains(&var),
            "variance {var} out of plausible range"
        );
    }

    #[test]
    fn centered_binomial_has_its_support_mean_and_variance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // A length no per-word draw count (32, 4, 1, 1) divides.
        let n = (1 << 16) + 3;
        for k in [1u32, 8, 21, 32] {
            let draws = signed_draws(n, &mut rng, k);
            assert_eq!(draws.len(), n);
            let bound = i64::from(k);
            assert!(draws.iter().all(|v| (-bound..=bound).contains(v)), "k={k}");
            let mean = draws.iter().sum::<i64>() as f64 / n as f64;
            let var = draws
                .iter()
                .map(|&v| (v as f64 - mean).powi(2))
                .sum::<f64>()
                / n as f64;
            let want = f64::from(k) / 2.0;
            // Standard error of the mean is sqrt(k/2n) < 0.016.
            assert!(mean.abs() < 0.08, "k={k}: mean {mean}");
            assert!((var / want - 1.0).abs() < 0.03, "k={k}: variance {var}");
        }
    }

    #[test]
    fn centered_binomial_8_matches_the_exact_pmf() {
        // X = A − B with A, B ~ Bin(8, 1/2): P(X = d) = C(16, 8 + d) / 2^16.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 1usize << 18;
        let mut seen = [0u64; 17];
        for v in signed_draws(n, &mut rng, 8) {
            seen[(v + 8) as usize] += 1;
        }
        let mut binom = [1f64; 17];
        for i in 1..17 {
            binom[i] = binom[i - 1] * (17 - i) as f64 / i as f64;
        }
        // Both tails beyond |d| = 5 pooled: every cell expects >= 500.
        let cells: [&[usize]; 13] = [
            &[0, 1, 2],
            &[3],
            &[4],
            &[5],
            &[6],
            &[7],
            &[8],
            &[9],
            &[10],
            &[11],
            &[12],
            &[13],
            &[14, 15, 16],
        ];
        let chi2: f64 = cells
            .iter()
            .map(|cell| {
                let got: u64 = cell.iter().map(|&i| seen[i]).sum();
                let want = cell.iter().map(|&i| binom[i]).sum::<f64>() * n as f64 / 65536.0;
                (got as f64 - want).powi(2) / want
            })
            .sum();
        // 12 degrees of freedom: 32.9 is the 0.1 % point.
        assert!(chi2 < 32.9, "chi-squared {chi2} over {seen:?}");
    }

    #[test]
    fn centered_binomial_into_is_the_signed_draw_mod_q() {
        let q = Modulus::new(97);
        let signed = signed_draws(1001, &mut rand::rngs::StdRng::seed_from_u64(5), 8);
        let mut residues = vec![0u64; 1001];
        centered_binomial_into(
            q,
            &mut residues,
            &mut rand::rngs::StdRng::seed_from_u64(5),
            8,
        );
        for (r, v) in residues.iter().zip(&signed) {
            assert_eq!(*r, q.from_signed(*v));
        }
        let mut small = vec![0i8; 1001];
        centered_binomial_small_into(&mut small, &mut rand::rngs::StdRng::seed_from_u64(5), 8);
        assert!(small.iter().zip(&signed).all(|(&s, &v)| i64::from(s) == v));
    }

    #[test]
    fn uniform_rejection_stays_below_q_and_repeats_per_seed() {
        // Just above a power of two (every other draw is rejected) and at
        // the top of the supported range.
        for q in [(1u64 << 40) + 15, pi_field::find_ntt_prime(62, 4096)] {
            let q = Modulus::new(q);
            let draw = |seed| {
                let mut out = vec![0u64; 4099];
                uniform_into(q, &mut out, &mut rand::rngs::StdRng::seed_from_u64(seed));
                out
            };
            let u = draw(6);
            assert!(u.iter().all(|&x| x < q.value()));
            assert!(u.iter().any(|&x| x < q.value() / 2));
            assert!(u.iter().any(|&x| x >= q.value() / 2));
            assert_eq!(u, draw(6), "same seed, same polynomial");
            assert_ne!(u, draw(7));
            let mut skipped = rand::rngs::StdRng::seed_from_u64(6);
            uniform_skip(q, 4099, &mut skipped);
            let mut drawn = rand::rngs::StdRng::seed_from_u64(6);
            uniform_into(q, &mut vec![0; 4099], &mut drawn);
            let next = |r: &mut rand::rngs::StdRng| r.gen::<u64>();
            assert_eq!(
                next(&mut skipped),
                next(&mut drawn),
                "skip ends where the draw does"
            );
        }
    }

    #[test]
    fn uniform_forms_are_one_draw_under_two_labels() {
        let ctx = ctx();
        let draw = |form| uniform(&ctx, form, &mut rand::rngs::StdRng::seed_from_u64(8));
        let (coeff, ntt) = (draw(PolyForm::Coeff), draw(PolyForm::Ntt));
        assert_eq!((coeff.form(), ntt.form()), (PolyForm::Coeff, PolyForm::Ntt));
        assert_eq!(coeff.data(), ntt.data());
    }

    #[test]
    fn uniform_covers_range() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let u = uniform(&ctx, PolyForm::Coeff, &mut rng);
        let q = ctx.q().value();
        let coeffs = u.coeffs();
        assert!(coeffs.iter().all(|&c| c < q));
        // Expect to see values in both halves of the range.
        assert!(coeffs.iter().any(|&c| c < q / 2));
        assert!(coeffs.iter().any(|&c| c >= q / 2));
    }
}
