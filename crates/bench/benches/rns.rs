//! RNS throughput: per-residue NTTs, the batched CRT compose, and the
//! linear RNS-BFV operations.
//!
//! `forward` here is `k` Harvey transforms (one per CRT prime),
//! `forward_many` batches a ciphertext pair residue-major, and the BFV
//! group reports encrypt, decrypt and plaintext multiplication over a
//! multi-prime modulus. The `ntt_simd_vs_scalar` group pins the dispatch to
//! the scalar oracle and to the detected vector backend in turn (also
//! emitting `csv,simd_backend,<name>` for the CI dispatch assertion), and
//! the tail group does the same for the Garner compose at the decrypt
//! boundary (`csv,tail_crt_compose*`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pi_bench::median_ns;
use pi_field::simd::{self, SimdBackend};
use pi_he::rns::{RnsBfvParams, RnsKeySet};
use pi_poly::rns::RnsContext;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Before/after of the SIMD dispatch: the same RNS transforms with the
/// backend pinned to the scalar oracle vs the auto-detected vector path. Also prints `csv,simd_backend,<name>` so CI
/// can assert the runner actually dispatched a vector backend (a silent
/// fallback to scalar fails the grep loudly).
fn bench_ntt_simd_vs_scalar(c: &mut Criterion) {
    let auto = simd::auto_backend();
    println!("csv,simd_backend,{}", auto.name());
    let mut group = c.benchmark_group("ntt_simd_vs_scalar");
    group.sample_size(20);
    for (n, count) in [(2048usize, 3usize), (4096, 4)] {
        let ctx = Arc::new(RnsContext::with_ntt_primes(n, 50, count));
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<Vec<u64>> = (0..count)
            .map(|i| {
                let q = ctx.modulus(i).value();
                (0..n).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();
        for (label, be) in [("scalar", SimdBackend::Scalar), ("simd", auto)] {
            simd::force_backend(be);
            group.bench_with_input(
                BenchmarkId::new(format!("forward_x{count}_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut cols = data.clone();
                        ctx.ntt().forward(&mut cols);
                        cols
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("roundtrip_x{count}_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut cols = data.clone();
                        ctx.ntt().forward(&mut cols);
                        ctx.ntt().inverse(&mut cols);
                        cols
                    })
                },
            );
            simd::clear_forced_backend();
        }
    }
    group.finish();
}

/// Runs `f` once pinned to the scalar oracle and once pinned to the
/// detected vector backend, and prints the same-run A/B as
/// `csv,tail_<kernel>_scalar,<ns>` / `csv,tail_<kernel>,<ns>`.
fn tail_ab(kernel: &str, iters: usize, mut f: impl FnMut()) {
    let auto = simd::auto_backend();
    simd::force_backend(SimdBackend::Scalar);
    let scalar = median_ns(&mut f, iters);
    simd::force_backend(auto);
    let vector = median_ns(&mut f, iters);
    simd::clear_forced_backend();
    println!("csv,tail_{kernel}_scalar,{scalar:.1}");
    println!("csv,tail_{kernel},{vector:.1}");
}

/// Kernel-level A/B of the batched Garner compose at the decrypt boundary
/// (scalar pin vs detected backend) at `n = 4096`, `k = 4` 50-bit primes,
/// emitting the `csv,tail_crt_compose*` lines for the CI grep.
fn bench_tail_breakdown(_c: &mut Criterion) {
    let n = 4096usize;
    let count = 4usize;
    let ctx = Arc::new(RnsContext::with_ntt_primes(n, 50, count));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let cols: Vec<Vec<u64>> = (0..count)
        .map(|i| {
            let q = ctx.modulus(i).value();
            (0..n).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();

    let basis = ctx.basis().clone();
    tail_ab("crt_compose", 21, || {
        std::hint::black_box(basis.compose_many(&cols));
    });
}

fn bench_rns_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("rns_ntt");
    group.sample_size(20);
    for (n, count) in [(2048usize, 3usize), (4096, 4)] {
        let ctx = Arc::new(RnsContext::with_ntt_primes(n, 50, count));
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<Vec<u64>> = (0..count)
            .map(|i| {
                let q = ctx.modulus(i).value();
                (0..n).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();

        group.bench_with_input(
            BenchmarkId::new(format!("forward_x{count}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut cols = data.clone();
                    ctx.ntt().forward(&mut cols);
                    cols
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("roundtrip_x{count}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut cols = data.clone();
                    ctx.ntt().forward(&mut cols);
                    ctx.ntt().inverse(&mut cols);
                    cols
                })
            },
        );
        // Ciphertext-pair-sized batch (2 RNS polys), residue-major.
        group.bench_with_input(
            BenchmarkId::new(format!("forward_many_2x{count}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut polys = vec![data.clone(), data.clone()];
                    let mut refs: Vec<&mut [Vec<u64>]> =
                        polys.iter_mut().map(|p| p.as_mut_slice()).collect();
                    ctx.ntt().forward_many(&mut refs);
                    polys
                })
            },
        );
    }
    group.finish();
}

fn bench_rns_bfv(c: &mut Criterion) {
    let mut group = c.benchmark_group("rns_bfv");
    group.sample_size(10);
    for (label, params) in [
        ("n2048_3x45", RnsBfvParams::new(2048, 45, 3, 16)),
        ("n4096_4x50", RnsBfvParams::default_rns()),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let keys = RnsKeySet::generate(&params, &mut rng);
        let t = params.t().value();
        let m1: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..t)).collect();
        let m2: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..t)).collect();
        let ct1 = keys.public.encrypt(&m1, &mut rng);

        group.bench_function(format!("encrypt/{label}"), |b| {
            b.iter(|| keys.public.encrypt(&m1, &mut rng))
        });
        group.bench_function(format!("decrypt/{label}"), |b| {
            b.iter(|| keys.secret.decrypt(&ct1))
        });
        let op = params.plain_operand(&m2);
        group.bench_function(format!("mul_plain/{label}"), |b| {
            b.iter(|| ct1.mul_plain(&op))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ntt_simd_vs_scalar,
    bench_tail_breakdown,
    bench_rns_ntt,
    bench_rns_bfv
);
criterion_main!(benches);
