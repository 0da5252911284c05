//! NTT throughput: the innermost kernel of every HE operation.
//!
//! Reports the Barrett-reduction reference transform (`*_barrett`) next to
//! the lazy-reduction Harvey engine (`*_harvey`) so the speedup of the
//! Shoup/lazy formulation is measured directly, plus the batched stage-major
//! kernel (`forward_many`) and the pointwise Shoup product. The
//! `ntt_simd_vs_scalar` group pins the dispatch to the scalar oracle and to
//! the detected vector backend in turn, and prints `csv,simd_backend,<name>`
//! for the CI dispatch assertion.

use pi_bench::kernel;
use pi_field::simd::{self, SimdBackend};
use pi_field::Modulus;
use pi_poly::{NttTables, ShoupVec};
use rand::{Rng, SeedableRng};

const SAMPLES: usize = 20;

fn bench_ntt() {
    for n in [1024usize, 2048, 4096] {
        let q = Modulus::new(pi_field::find_ntt_prime(59, n as u64));
        let tables = NttTables::new(n, q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();

        kernel(&format!("ntt/forward_barrett/{n}"), SAMPLES, || {
            let mut a = data.clone();
            tables.forward_reference(&mut a);
            a
        });
        kernel(&format!("ntt/forward_harvey/{n}"), SAMPLES, || {
            let mut a = data.clone();
            tables.forward(&mut a);
            a
        });
        kernel(&format!("ntt/roundtrip_barrett/{n}"), SAMPLES, || {
            let mut a = data.clone();
            tables.forward_reference(&mut a);
            tables.inverse_reference(&mut a);
            a
        });
        kernel(&format!("ntt/roundtrip_harvey/{n}"), SAMPLES, || {
            let mut a = data.clone();
            tables.forward(&mut a);
            tables.inverse(&mut a);
            a
        });

        // Batched transform of a ciphertext-pair-sized batch (2 polys: also
        // a key switch's digits under one modulus) and a wider one (6).
        for batch_size in [2usize, 6] {
            kernel(
                &format!("ntt/forward_many_x{batch_size}/{n}"),
                SAMPLES,
                || {
                    let mut polys: Vec<Vec<u64>> = (0..batch_size).map(|_| data.clone()).collect();
                    let mut refs: Vec<&mut [u64]> =
                        polys.iter_mut().map(|p| p.as_mut_slice()).collect();
                    tables.forward_many(&mut refs);
                    polys
                },
            );
        }

        // Pointwise products: Barrett mul vs precomputed Shoup operand.
        let other: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let op = ShoupVec::new(q, &other);
        kernel(&format!("ntt/dyadic_barrett/{n}"), SAMPLES, || {
            let mut out = vec![0u64; n];
            tables.dyadic_mul(&mut out, &data, &other);
            out
        });
        kernel(&format!("ntt/dyadic_shoup/{n}"), SAMPLES, || {
            let mut out = vec![0u64; n];
            tables.dyadic_mul_shoup(&mut out, &data, &op);
            out
        });
        kernel(&format!("ntt/dyadic_acc_shoup_lazy/{n}"), SAMPLES, || {
            let mut acc = vec![0u64; n];
            tables.dyadic_mul_acc_shoup(&mut acc, &data, &op);
            acc
        });
    }
}

/// Before/after of the SIMD dispatch: the same transforms with the backend
/// pinned to the scalar oracle vs the auto-detected vector path. Also prints
/// `csv,simd_backend,<name>` so CI can assert the runner actually dispatched
/// a vector backend (a silent fallback to scalar fails the grep loudly).
fn bench_ntt_simd_vs_scalar() {
    let auto = simd::auto_backend();
    println!("csv,simd_backend,{}", auto.name());
    for n in [2048usize, 4096] {
        let q = Modulus::new(pi_field::find_ntt_prime(50, n as u64));
        let tables = NttTables::new(n, q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        for (label, be) in [("scalar", SimdBackend::Scalar), ("simd", auto)] {
            simd::force_backend(be);
            kernel(
                &format!("ntt_simd_vs_scalar/forward_{label}/{n}"),
                SAMPLES,
                || {
                    let mut a = data.clone();
                    tables.forward(&mut a);
                    a
                },
            );
            kernel(
                &format!("ntt_simd_vs_scalar/roundtrip_{label}/{n}"),
                SAMPLES,
                || {
                    let mut a = data.clone();
                    tables.forward(&mut a);
                    tables.inverse(&mut a);
                    a
                },
            );
            simd::clear_forced_backend();
        }
    }
}

fn main() {
    bench_ntt();
    bench_ntt_simd_vs_scalar();
}
