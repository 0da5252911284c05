//! NTT throughput: the innermost kernel of every HE operation.
//!
//! Reports the Barrett-reduction reference transform (`*_barrett`) next to
//! the lazy-reduction Harvey engine (`*_harvey`) so the speedup of the
//! Shoup/lazy formulation is measured directly, plus the batched stage-major
//! kernel (`forward_many`) and the pointwise Shoup product. The
//! `ntt_simd_vs_scalar` group pins the dispatch to the scalar oracle and to
//! the detected vector backend in turn, and prints `csv,simd_backend,<name>`
//! for the CI dispatch assertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pi_field::simd::{self, SimdBackend};
use pi_field::Modulus;
use pi_poly::{NttTables, ShoupVec};
use rand::{Rng, SeedableRng};

fn bench_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt");
    group.sample_size(20);
    for n in [1024usize, 2048, 4096] {
        let q = Modulus::new(pi_field::find_ntt_prime(59, n as u64));
        let tables = NttTables::new(n, q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();

        group.bench_with_input(BenchmarkId::new("forward_barrett", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                tables.forward_reference(&mut a);
                a
            })
        });
        group.bench_with_input(BenchmarkId::new("forward_harvey", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                tables.forward(&mut a);
                a
            })
        });
        group.bench_with_input(BenchmarkId::new("roundtrip_barrett", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                tables.forward_reference(&mut a);
                tables.inverse_reference(&mut a);
                a
            })
        });
        group.bench_with_input(BenchmarkId::new("roundtrip_harvey", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                tables.forward(&mut a);
                tables.inverse(&mut a);
                a
            })
        });

        // Batched transform of a ciphertext-pair-sized batch (2 polys: also
        // a key switch's digits under one modulus) and a wider one (6).
        for batch_size in [2usize, 6] {
            group.bench_with_input(
                BenchmarkId::new(format!("forward_many_x{batch_size}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut polys: Vec<Vec<u64>> =
                            (0..batch_size).map(|_| data.clone()).collect();
                        let mut refs: Vec<&mut [u64]> =
                            polys.iter_mut().map(|p| p.as_mut_slice()).collect();
                        tables.forward_many(&mut refs);
                        polys
                    })
                },
            );
        }

        // Pointwise products: Barrett mul vs precomputed Shoup operand.
        let other: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let op = ShoupVec::new(q, &other);
        group.bench_with_input(BenchmarkId::new("dyadic_barrett", n), &n, |b, _| {
            b.iter(|| {
                let mut out = vec![0u64; n];
                tables.dyadic_mul(&mut out, &data, &other);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("dyadic_shoup", n), &n, |b, _| {
            b.iter(|| {
                let mut out = vec![0u64; n];
                tables.dyadic_mul_shoup(&mut out, &data, &op);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("dyadic_acc_shoup_lazy", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = vec![0u64; n];
                tables.dyadic_mul_acc_shoup(&mut acc, &data, &op);
                acc
            })
        });
    }
    group.finish();
}

/// Before/after of the SIMD dispatch: the same transforms with the backend
/// pinned to the scalar oracle vs the auto-detected vector path. Also prints
/// `csv,simd_backend,<name>` so CI can assert the runner actually dispatched
/// a vector backend (a silent fallback to scalar fails the grep loudly).
fn bench_ntt_simd_vs_scalar(c: &mut Criterion) {
    let auto = simd::auto_backend();
    println!("csv,simd_backend,{}", auto.name());
    let mut group = c.benchmark_group("ntt_simd_vs_scalar");
    group.sample_size(20);
    for n in [2048usize, 4096] {
        let q = Modulus::new(pi_field::find_ntt_prime(50, n as u64));
        let tables = NttTables::new(n, q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        for (label, be) in [("scalar", SimdBackend::Scalar), ("simd", auto)] {
            simd::force_backend(be);
            group.bench_with_input(
                BenchmarkId::new(format!("forward_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut a = data.clone();
                        tables.forward(&mut a);
                        a
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("roundtrip_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut a = data.clone();
                        tables.forward(&mut a);
                        tables.inverse(&mut a);
                        a
                    })
                },
            );
            simd::clear_forced_backend();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ntt, bench_ntt_simd_vs_scalar);
criterion_main!(benches);
