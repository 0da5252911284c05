//! Primality testing, NTT-friendly prime search, and primitive roots.

use crate::Modulus;

/// Deterministic Miller–Rabin primality test for `u64`.
///
/// Uses the witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}` which
/// is known to be deterministic for all `n < 3.3 * 10^24`, far beyond `u64`.
///
/// # Examples
///
/// ```
/// assert!(pi_field::is_prime(65537));
/// assert!(!pi_field::is_prime(65535));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mod_mul(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mod_mul(acc, base, m);
        }
        base = mod_mul(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod 2n)`.
///
/// Such primes admit a primitive `2n`-th root of unity, which is what the
/// negacyclic NTT over `Z_q[x]/(x^n + 1)` requires.
///
/// # Panics
///
/// Panics if `bits < 4`, `bits > 62`, `n` is not a power of two, or no such
/// prime exists below `2^bits` (which cannot happen for the parameter ranges
/// used in this workspace).
///
/// # Examples
///
/// ```
/// let q = pi_field::find_ntt_prime(20, 1024);
/// assert!(pi_field::is_prime(q));
/// assert_eq!(q % 2048, 1);
/// ```
pub fn find_ntt_prime(bits: u32, n: u64) -> u64 {
    assert!(n.is_power_of_two(), "n must be a power of two");
    find_prime_congruent(bits, 2 * n)
}

/// Fallible variant of [`find_prime_congruent`]: `None` when no prime of the
/// requested shape exists below `2^bits`.
///
/// # Panics
///
/// Panics if `bits` is outside `4..=62` or `step >= 2^bits`: those are
/// caller bugs, not search failures. The cap of 62 matches the
/// [`crate::Modulus`] contract `q < 2^62` (which keeps the lazy `[0, 4q)`
/// domain inside a `u64`).
pub(crate) fn try_find_prime_congruent(bits: u32, step: u64) -> Option<u64> {
    assert!((4..=62).contains(&bits), "bits must be in 4..=62");
    let top = 1u64 << bits;
    assert!(step < top, "congruence step must be below 2^bits");
    // Largest candidate of the form k*step + 1 below 2^bits.
    let mut cand = (top - 1) / step * step + 1;
    while cand > step {
        if is_prime(cand) {
            return Some(cand);
        }
        cand -= step;
    }
    None
}

/// Finds `count` **distinct** primes below `2^bits`, each `≡ 1 (mod step)`,
/// in descending order (`step = 2N` keeps every one NTT-friendly) — the
/// candidates a ring picks a special prime from beside moduli it already
/// holds.
///
/// Returns `None` if fewer than `count` such primes exist below `2^bits`.
///
/// # Panics
///
/// Panics on input-contract violations as in `try_find_prime_congruent`,
/// or if `count` is zero.
///
/// # Examples
///
/// ```
/// let primes = pi_field::find_distinct_ntt_primes(30, 3, 2 * 1024).unwrap();
/// assert_eq!(primes.len(), 3);
/// assert!(primes.windows(2).all(|w| w[0] > w[1]));
/// ```
pub fn find_distinct_ntt_primes(bits: u32, count: usize, step: u64) -> Option<Vec<u64>> {
    assert!(count > 0, "count must be positive");
    assert!((4..=62).contains(&bits), "bits must be in 4..=62");
    let top = 1u64 << bits;
    assert!(step < top, "congruence step must be below 2^bits");
    let mut primes = Vec::with_capacity(count);
    let mut cand = (top - 1) / step * step + 1;
    while cand > step && primes.len() < count {
        if is_prime(cand) {
            primes.push(cand);
        }
        cand -= step;
    }
    (primes.len() == count).then_some(primes)
}

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod step)`.
///
/// BFV uses this to pick a ciphertext modulus that is simultaneously
/// NTT-friendly and congruent to 1 modulo the plaintext modulus `t`
/// (`step = 2N·t`), which makes `q mod t = 1` and keeps the
/// plaintext-multiplication rounding error negligible.
///
/// # Panics
///
/// Panics if `bits` is outside `4..=62` or no such prime exists below
/// `2^bits`.
///
/// # Examples
///
/// ```
/// let q = pi_field::prime::find_prime_congruent(40, 4096 * 13);
/// assert!(pi_field::is_prime(q));
/// assert_eq!(q % (4096 * 13), 1);
/// ```
pub fn find_prime_congruent(bits: u32, step: u64) -> u64 {
    try_find_prime_congruent(bits, step)
        .unwrap_or_else(|| panic!("no prime of {bits} bits congruent to 1 mod {step}"))
}

/// Finds a generator of the multiplicative group `Z_q^*` for prime `q`.
///
/// # Panics
///
/// Panics if `q` is not prime.
pub(crate) fn primitive_root(q: u64) -> u64 {
    assert!(is_prime(q), "q must be prime");
    if q == 2 {
        return 1;
    }
    let phi = q - 1;
    let factors = factorize(phi);
    let m = Modulus::new(q);
    'cand: for g in 2..q {
        for &f in &factors {
            if m.pow(g, phi / f) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("every prime field has a generator")
}

/// Returns the distinct prime factors of `n` by trial division with Pollard
/// fallback-free bounds (fine for the ≤ 62-bit inputs used here since `n` is
/// always `q - 1` with `q` an NTT prime, whose cofactor after stripping small
/// factors is itself prime or small).
fn factorize(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d.saturating_mul(d) <= n {
        if n.is_multiple_of(d) {
            factors.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

/// Computes a primitive `order`-th root of unity modulo prime `q`.
///
/// # Panics
///
/// Panics if `order` does not divide `q - 1`.
pub fn root_of_unity(q: u64, order: u64) -> u64 {
    assert_eq!((q - 1) % order, 0, "order must divide q-1");
    let g = primitive_root(q);
    let m = Modulus::new(q);
    m.pow(g, (q - 1) / order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 97, 65537, 998244353];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 9, 15, 91, 561, 6601, 41041, 101101];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn large_prime_classification() {
        assert!(is_prime((1u64 << 61) - 1)); // Mersenne prime M61
        assert!(!is_prime((1u64 << 59) - 1));
    }

    #[test]
    fn ntt_prime_structure() {
        for (bits, n) in [(20u32, 1024u64), (30, 2048), (54, 4096), (59, 8192)] {
            let q = find_ntt_prime(bits, n);
            assert!(is_prime(q));
            assert_eq!(q % (2 * n), 1);
            assert!(q < (1 << bits));
        }
    }

    #[test]
    fn primitive_root_has_full_order() {
        for q in [97u64, 257, 65537, find_ntt_prime(20, 512)] {
            let g = primitive_root(q);
            let m = Modulus::new(q);
            assert_eq!(m.pow(g, q - 1), 1);
            // Order must not be a proper divisor.
            for &f in &factorize(q - 1) {
                assert_ne!(m.pow(g, (q - 1) / f), 1);
            }
        }
    }

    #[test]
    fn roots_of_unity() {
        let q = find_ntt_prime(20, 1024);
        let w = root_of_unity(q, 2048);
        let m = Modulus::new(q);
        assert_eq!(m.pow(w, 2048), 1);
        assert_ne!(m.pow(w, 1024), 1);
        // w^1024 must be -1 for a primitive 2048th root.
        assert_eq!(m.pow(w, 1024), q - 1);
    }

    #[test]
    fn try_variants_agree_with_panicking_search() {
        assert_eq!(
            try_find_prime_congruent(20, 2 * 1024),
            Some(find_ntt_prime(20, 1024))
        );
        assert_eq!(
            try_find_prime_congruent(40, 4096 * 13),
            Some(find_prime_congruent(40, 4096 * 13))
        );
        // step = 2^(bits-1): the only candidate is step + 1.
        assert_eq!(try_find_prime_congruent(5, 16), Some(17)); // 17 is prime
        assert_eq!(try_find_prime_congruent(6, 32), None); // 33 = 3·11
    }

    #[test]
    fn distinct_ntt_primes_are_distinct_and_congruent() {
        let step = 2 * 2048u64;
        let primes = find_distinct_ntt_primes(45, 7, step).unwrap();
        assert_eq!(primes.len(), 7);
        for w in primes.windows(2) {
            assert!(w[0] > w[1], "primes must be strictly descending");
        }
        for &p in &primes {
            assert!(is_prime(p));
            assert_eq!(p % step, 1);
            assert!(p < (1 << 45));
        }
    }

    #[test]
    fn distinct_ntt_primes_exhaustion_returns_none() {
        // Below 2^8 with step 64 the candidates are 193, 129, 65: only 193 is
        // prime, so asking for three must fail.
        assert_eq!(find_distinct_ntt_primes(8, 3, 64), None);
    }

    #[test]
    fn factorize_basics() {
        assert_eq!(factorize(12), vec![2, 3]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(2 * 3 * 5 * 7 * 11), vec![2, 3, 5, 7, 11]);
    }
}
