//! Differential harness: the SIMD NTT/dyadic kernels against the canonical
//! scalar path, **bit for bit**.
//!
//! The scalar Harvey engine (forced via `SimdBackend::Scalar`) is the
//! oracle; the vector paths under test are the portable 4-lane fallback
//! (available everywhere) and whatever intrinsics backend this machine
//! detects (AVX2 on x86_64, NEON on aarch64). Because every backend
//! computes the identical sequence of wrapping u64 operations, the
//! comparison is exact equality of the raw words — including **unreduced
//! lazy-domain representatives** from `dyadic_mul_acc_shoup` and inverse
//! transforms fed `[0, 2q)` inputs, not just canonical values.
//!
//! Coverage: n ∈ {4, 8, 16, 64, 256, 1024, 2048, 4096} × 28/45/62-bit NTT
//! primes (the 62-bit prime — the Modulus ceiling and production BFV q — stresses the u64 headroom of the `[0, 4q)`
//! forward domain and the 2^125 Shoup products), plus proptest-driven
//! random sweeps. The four umbrella e2e suites run under `PI_SIMD=scalar`
//! and `PI_SIMD=on` in CI, completing the forced-on/forced-off matrix.
//!
//! Backend selection is process-global, so tests that flip it serialize on
//! a mutex; each comparison re-runs both sides under its own forced
//! backend.

use private_inference::field::simd::{self, SimdBackend};
use private_inference::field::{find_ntt_prime, Modulus};
use private_inference::poly::{NttTables, ShoupVec};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panicking test poisons the mutex; the guard itself carries no state.
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the dispatch pinned to `be`, restoring auto-resolution
/// afterwards. Callers must hold `BACKEND_LOCK`.
fn with_backend<T>(be: SimdBackend, f: impl FnOnce() -> T) -> T {
    simd::force_backend(be);
    let out = f();
    simd::clear_forced_backend();
    out
}

/// The vector backends this machine can execute: always the portable
/// fallback, plus every available intrinsics backend (on an AVX-512 host
/// that is both AVX2 and AVX-512; the auto pick is among them).
fn vector_backends() -> Vec<SimdBackend> {
    let mut v = vec![SimdBackend::Portable];
    for be in [SimdBackend::Avx2, SimdBackend::Avx512, SimdBackend::Neon] {
        if be.available() {
            v.push(be);
        }
    }
    // Detection alone decides: there is no build switch.
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(
            SimdBackend::Avx2.available(),
            is_x86_feature_detected!("avx2")
        );
        assert_eq!(
            SimdBackend::Avx512.available(),
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
        );
    }
    assert!(v.contains(&simd::auto_backend()));
    v
}

fn tables(n: usize, bits: u32) -> NttTables {
    NttTables::new(n, Modulus::new(find_ntt_prime(bits, n as u64)))
}

fn random_vec(n: usize, bound: u64, rng: &mut impl Rng) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..bound)).collect()
}

/// `pi_he::wire` ships key polynomials in evaluation form, so the slot
/// order of [`NttTables::forward`] is wire contract: slot `j` holds
/// `f(ψ^(2·brv(j) + 1))`, `brv` the `log2 n`-bit reversal and
/// `ψ = root_of_unity(q, 2n)`. Pinned by value at `n = 8, q = 17` and at
/// the protocol ring, and by definition at every slot of the latter, on
/// the scalar path and every vector backend this machine runs.
#[test]
fn forward_slot_order_is_the_pinned_wire_contract() {
    use private_inference::field::prime::root_of_unity;
    let _g = lock();
    let points = |t: &NttTables| {
        let mut x = vec![0u64; t.n()];
        x[1] = 1;
        t.forward(&mut x);
        x
    };
    let t8 = NttTables::new(8, Modulus::new(17));
    let big = tables(4096, 62);
    let (n, q) = (big.n(), big.q());
    assert_eq!(q.value(), 4_611_686_018_427_322_369);
    let psi = root_of_unity(q.value(), 2 * n as u64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let f = random_vec(n, q.value(), &mut rng);
    for be in std::iter::once(SimdBackend::Scalar).chain(vector_backends()) {
        with_backend(be, || {
            // ψ = 3: exponents 1, 9, 5, 13, 3, 11, 7, 15.
            assert_eq!(points(&t8), [3, 14, 5, 12, 10, 7, 11, 6], "{}", be.name());
            let mut f8: Vec<u64> = (1..=8).collect();
            t8.forward(&mut f8);
            assert_eq!(f8, [5, 0, 13, 8, 9, 11, 5, 8], "{}", be.name());

            let at = points(&big);
            assert_eq!(
                at[..4],
                [
                    3_391_169_269_051_246_823,
                    1_220_516_749_376_075_546,
                    4_208_338_969_286_933_685,
                    403_347_049_140_388_684
                ],
                "{}",
                be.name()
            );
            for (j, &x) in at.iter().enumerate() {
                let brv = j.reverse_bits() >> (usize::BITS - n.trailing_zeros());
                assert_eq!(
                    x,
                    q.pow(psi, 2 * brv as u64 + 1),
                    "slot {j} on {}",
                    be.name()
                );
            }
            let mut eval = f.clone();
            big.forward(&mut eval);
            for j in [0, 1, 2, 7, 8, 2047, 2048, 4095] {
                let horner = f.iter().rev().fold(0, |acc, &c| q.mul_add(acc, at[j], c));
                assert_eq!(eval[j], horner, "f at slot {j} on {}", be.name());
            }
        });
    }
}

#[test]
fn forward_matches_scalar_bitwise_across_sizes_and_primes() {
    let _g = lock();
    for n in [4usize, 8, 16, 64, 256, 1024, 2048, 4096] {
        for bits in [28u32, 45, 62] {
            let t = tables(n, bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 * 100 + bits as u64);
            let orig = random_vec(n, t.q().value(), &mut rng);
            let expect = with_backend(SimdBackend::Scalar, || {
                let mut a = orig.clone();
                t.forward(&mut a);
                a
            });
            for be in vector_backends() {
                let got = with_backend(be, || {
                    let mut a = orig.clone();
                    t.forward(&mut a);
                    a
                });
                assert_eq!(got, expect, "forward n={n} bits={bits} be={}", be.name());
            }
        }
    }
}

#[test]
fn inverse_matches_scalar_bitwise_on_lazy_representatives() {
    let _g = lock();
    for n in [4usize, 8, 16, 64, 256, 1024, 2048, 4096] {
        for bits in [28u32, 45, 62] {
            let t = tables(n, bits);
            let q = t.q();
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 * 1000 + bits as u64);
            // Inputs across the full lazy [0, 2q) domain, not just [0, q):
            // the inverse contract accepts unreduced accumulator output.
            let lazy = random_vec(n, q.twice(), &mut rng);
            let expect = with_backend(SimdBackend::Scalar, || {
                let mut a = lazy.clone();
                t.inverse(&mut a);
                a
            });
            for be in vector_backends() {
                let got = with_backend(be, || {
                    let mut a = lazy.clone();
                    t.inverse(&mut a);
                    a
                });
                assert_eq!(got, expect, "inverse n={n} bits={bits} be={}", be.name());
            }
            // And the strict-input roundtrip recovers the original exactly.
            let orig = random_vec(n, q.value(), &mut rng);
            for be in vector_backends() {
                let got = with_backend(be, || {
                    let mut a = orig.clone();
                    t.forward(&mut a);
                    t.inverse(&mut a);
                    a
                });
                assert_eq!(got, orig, "roundtrip n={n} bits={bits} be={}", be.name());
            }
        }
    }
}

#[test]
fn batched_transforms_match_scalar_bitwise() {
    let _g = lock();
    for (n, batch_len) in [(256usize, 3usize), (1024, 1), (2048, 6)] {
        for bits in [28u32, 45, 62] {
            let t = tables(n, bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + batch_len as u64);
            let polys: Vec<Vec<u64>> = (0..batch_len)
                .map(|_| random_vec(n, t.q().value(), &mut rng))
                .collect();
            let run = |()| {
                let mut batch = polys.clone();
                {
                    let mut refs: Vec<&mut [u64]> =
                        batch.iter_mut().map(|p| p.as_mut_slice()).collect();
                    t.forward_many(&mut refs);
                }
                let fwd = batch.clone();
                {
                    let mut refs: Vec<&mut [u64]> =
                        batch.iter_mut().map(|p| p.as_mut_slice()).collect();
                    t.inverse_many(&mut refs);
                }
                (fwd, batch)
            };
            let expect = with_backend(SimdBackend::Scalar, || run(()));
            for be in vector_backends() {
                let got = with_backend(be, || run(()));
                assert_eq!(
                    got,
                    expect,
                    "forward_many/inverse_many n={n} batch={batch_len} bits={bits} be={}",
                    be.name()
                );
                assert_eq!(got.1, polys, "batched roundtrip lost data");
            }
        }
    }
}

#[test]
fn dyadic_kernels_match_scalar_bitwise_including_lazy_accumulators() {
    let _g = lock();
    for bits in [28u32, 45, 62] {
        // (The non-multiple-of-LANES tail path is covered by the unit tests
        // in pi-field::simd; NttTables pins slice lengths to n.)
        let q = Modulus::new(find_ntt_prime(bits, 4096));
        let t = NttTables::new(256, q);
        let n_full = 256;
        let mut rng = rand::rngs::StdRng::seed_from_u64(bits as u64);
        let a = random_vec(n_full, q.value(), &mut rng);
        let b = random_vec(n_full, q.value(), &mut rng);
        let lazy_a = random_vec(n_full, q.twice(), &mut rng);
        let acc0 = random_vec(n_full, q.twice(), &mut rng);
        let op = ShoupVec::new(q, &b);

        let run = |()| {
            let mut mul = vec![0u64; n_full];
            t.dyadic_mul(&mut mul, &a, &b);
            let mut shoup = vec![0u64; n_full];
            t.dyadic_mul_shoup(&mut shoup, &lazy_a, &op);
            let mut lazy = acc0.clone();
            t.dyadic_mul_acc_shoup(&mut lazy, &lazy_a, &op);
            (mul, shoup, lazy)
        };
        let expect = with_backend(SimdBackend::Scalar, || run(()));
        for be in vector_backends() {
            let got = with_backend(be, || run(()));
            // Raw-word equality: the lazy accumulator (`.2`) is compared on
            // its unreduced [0, 2q) representatives.
            assert_eq!(got, expect, "dyadic kernels bits={bits} be={}", be.name());
        }
    }
}

#[test]
fn galois_gather_kernels_match_scalar_bitwise_across_sizes() {
    // The Galois slot gather — plain `apply`, the fused permute + double
    // multiply-accumulate key-switch kernel, and the fused permute + lazy
    // add — against the scalar index loops, on strict *and* unreduced
    // lazy inputs (the permutation itself must pass any representative
    // through untouched).
    let _g = lock();
    for n in [4usize, 8, 16, 64, 256, 1024, 4096] {
        for bits in [28u32, 45, 62] {
            let t = tables(n, bits);
            let q = t.q();
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 * 31 + bits as u64);
            for g in [3usize, n + 1, 2 * n - 1] {
                let perm = t.galois_permutation(g);
                let src_lazy = random_vec(n, q.twice(), &mut rng);
                let acc0 = random_vec(n, q.twice(), &mut rng);
                let acc1 = random_vec(n, q.twice(), &mut rng);
                let op0 = ShoupVec::new(q, &random_vec(n, q.value(), &mut rng));
                let op1 = ShoupVec::new(q, &random_vec(n, q.value(), &mut rng));
                let run = |()| {
                    let mut out = vec![0u64; n];
                    perm.apply(&mut out, &src_lazy);
                    let mut a0 = acc0.clone();
                    let mut a1 = acc1.clone();
                    t.dyadic_mul_acc_shoup_gather2(&mut a0, &mut a1, &src_lazy, &perm, &op0, &op1);
                    let mut aa = acc0.clone();
                    t.gather_add_lazy(&mut aa, &src_lazy, &perm);
                    (out, a0, a1, aa)
                };
                let expect = with_backend(SimdBackend::Scalar, || run(()));
                // The scalar fused path must equal unfused
                // gather-then-accumulate on the same representatives.
                let mut unfused0 = acc0.clone();
                let mut unfused1 = acc1.clone();
                with_backend(SimdBackend::Scalar, || {
                    let mut permuted = vec![0u64; n];
                    perm.apply(&mut permuted, &src_lazy);
                    t.dyadic_mul_acc_shoup(&mut unfused0, &permuted, &op0);
                    t.dyadic_mul_acc_shoup(&mut unfused1, &permuted, &op1);
                });
                assert_eq!((&expect.1, &expect.2), (&unfused0, &unfused1));
                for be in vector_backends() {
                    let got = with_backend(be, || run(()));
                    assert_eq!(
                        got,
                        expect,
                        "galois gather n={n} bits={bits} g={g} be={}",
                        be.name()
                    );
                }
            }
        }
    }
}

#[test]
fn boundary_inputs_at_62_bits_match_scalar_bitwise() {
    // All-(q−1) inputs maximize every intermediate in the [0, 4q) domain at
    // the largest supported prime size.
    let _g = lock();
    let n = 1024;
    let q = Modulus::new(find_ntt_prime(62, n as u64));
    assert!(q.value() > (1u64 << 61));
    let t = NttTables::new(n, q);
    let orig = vec![q.value() - 1; n];
    let expect = with_backend(SimdBackend::Scalar, || {
        let mut a = orig.clone();
        t.forward(&mut a);
        let fwd = a.clone();
        t.inverse(&mut a);
        (fwd, a)
    });
    assert_eq!(expect.1, orig);
    for be in vector_backends() {
        let got = with_backend(be, || {
            let mut a = orig.clone();
            t.forward(&mut a);
            let fwd = a.clone();
            t.inverse(&mut a);
            (fwd, a)
        });
        assert_eq!(got, expect, "62-bit boundary be={}", be.name());
    }
}

#[test]
fn scalar_oracle_stays_reachable_via_force_toggle() {
    // force_backend(Scalar) must actually route around the lane kernels:
    // the reference Barrett transform agrees with the scalar Harvey path,
    // and re-resolution restores a vector backend afterwards.
    let _g = lock();
    let t = tables(256, 45);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let orig = random_vec(256, t.q().value(), &mut rng);
    let scalar = with_backend(SimdBackend::Scalar, || {
        let mut a = orig.clone();
        t.forward(&mut a);
        a
    });
    let mut reference = orig;
    t.forward_reference(&mut reference);
    assert_eq!(scalar, reference);
    // Clearing the override restores environment-driven resolution: under a
    // PI_SIMD force the requested backend, otherwise an auto-detected
    // vector path.
    let resolved = simd::backend();
    match std::env::var("PI_SIMD").ok().as_deref() {
        Some("scalar") | Some("off") | Some("0") => assert_eq!(resolved, SimdBackend::Scalar),
        Some("portable") => assert_eq!(resolved, SimdBackend::Portable),
        _ => assert!(
            resolved.is_vector(),
            "auto-resolution must pick a vector path"
        ),
    }
}

#[test]
fn wire_seed_expansion_is_backend_invariant() {
    // A seeded wire frame ships 32 bytes in place of the uniform `c1`; the
    // receiver regenerates the polynomial locally. If that expansion ever
    // routed through a backend-dependent kernel, a client on AVX2 and a
    // server forced to scalar would silently disagree on `c1` and every
    // decryption downstream would be noise. Serialize under one backend,
    // deserialize under every other: the reconstructed ciphertexts must be
    // byte-identical.
    use private_inference::he::{
        ciphertext_from_bytes, ciphertext_to_bytes, ciphertext_to_bytes_seeded, BatchEncoder,
        BfvParams, KeySet,
    };
    let _g = lock();
    let params = BfvParams::small_test();
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    let (ct, seed) = with_backend(SimdBackend::Scalar, || {
        let keys = KeySet::generate(&params, &mut rng);
        let enc = BatchEncoder::new(&params);
        keys.secret
            .encrypt_seeded(&enc.encode(&[5, 4, 3, 2, 1]), &mut rng)
    });
    let frame = ciphertext_to_bytes_seeded(&ct, &seed);
    let reference = with_backend(SimdBackend::Scalar, || {
        ciphertext_to_bytes(&ciphertext_from_bytes(&frame, &params).unwrap())
    });
    let mut backends = vec![SimdBackend::Scalar];
    backends.extend(vector_backends());
    for be in backends {
        let got = with_backend(be, || {
            ciphertext_to_bytes(&ciphertext_from_bytes(&frame, &params).unwrap())
        });
        assert_eq!(
            got,
            reference,
            "seed expansion diverged under {}",
            be.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_forward_inverse_match_scalar(seed in any::<u64>(), bits in 28u32..=62) {
        let _g = lock();
        let n = 256;
        let t = tables(n, bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.q().value())).collect();
        let lazy: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.q().twice())).collect();
        let expect = with_backend(SimdBackend::Scalar, || {
            let mut f = orig.clone();
            t.forward(&mut f);
            let mut i = lazy.clone();
            t.inverse(&mut i);
            (f, i)
        });
        for be in vector_backends() {
            let got = with_backend(be, || {
                let mut f = orig.clone();
                t.forward(&mut f);
                let mut i = lazy.clone();
                t.inverse(&mut i);
                (f, i)
            });
            prop_assert_eq!(&got, &expect, "be={}", be.name());
        }
    }
}
