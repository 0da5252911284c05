//! Replicated-diagonal (hoisted BSGS inside each replica, then a
//! rotate-and-sum) vs naive Halevi–Shoup matvec, and the key-switch
//! primitives underneath — the offline-phase hot path this repo's PI
//! protocols spend their HE time in.
//!
//! Same-run A/B pairs (`matvec/naive_*` vs `matvec/bsgs_*` under one
//! process on one core) are the meaningful comparison; absolute numbers
//! move with the machine. The harness asserts the two paths decrypt to the
//! same `N` slots before timing anything and emits
//! `csv,matvec_check,d<dim>,ok` and
//! `csv,matvec_rotations,d<dim>,bsgs,<rotations>,naive,<rotations>` lines
//! (printed even under `--test`) so CI fails loudly if the replicated path
//! diverges from the naive chain or its rotation budget moves.

use criterion::{criterion_group, criterion_main, Criterion};
use pi_bench::median_ns;
use pi_field::simd::{self, SimdBackend};
use pi_field::Modulus;
use pi_he::linalg::{
    encode_diagonals, encode_diagonals_bsgs, encode_input, encrypt_vector, matvec_naive,
    matvec_op_count, matvec_op_count_naive, matvec_precomputed, PlainMatrix,
};
use pi_he::{BatchEncoder, BfvParams, KeySet};
use pi_poly::ntt::{NttTables, ShoupVec};
use rand::{Rng, SeedableRng};

/// Same-run scalar-vs-vector A/B of one kernel, printed as
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

/// Kernel-level A/B of the rotation tail: the plain Galois slot gather
/// ([`pi_poly::ntt::GaloisPerm::apply`]), the fused permute + double
/// multiply-accumulate key-switch inner loop, and the fused permute + lazy
/// add — each at the protocol ring degree `n = 4096`.
fn bench_tail_breakdown(_c: &mut Criterion) {
    let n = 4096usize;
    let q = Modulus::new(pi_field::find_ntt_prime(50, n as u64));
    let ntt = NttTables::new(n, q);
    let perm = ntt.galois_permutation(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let src: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
    let ops: Vec<ShoupVec> = (0..2)
        .map(|_| {
            let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            ShoupVec::new(q, &vals)
        })
        .collect();

    // Buffers live outside the timed closures (the lazy accumulators stay
    // inside [0, 2q) across iterations, so repeated accumulation is valid)
    // — the medians time the kernels, not the allocator.
    let mut out = vec![0u64; n];
    tail_ab("galois_apply", 201, || {
        perm.apply(&mut out, &src);
        std::hint::black_box(&out);
    });
    let mut acc0 = vec![0u64; n];
    let mut acc1 = vec![0u64; n];
    tail_ab("ks_gather2", 101, || {
        ntt.dyadic_mul_acc_shoup_gather2(&mut acc0, &mut acc1, &src, &perm, &ops[0], &ops[1]);
        std::hint::black_box((&acc0, &acc1));
    });
    let mut acc = vec![0u64; n];
    tail_ab("gather_add", 201, || {
        ntt.gather_add_lazy(&mut acc, &src, &perm);
        std::hint::black_box(&acc);
    });
}

fn bench_matvec(c: &mut Criterion) {
    // The protocol-default ring (n = 4096) at the zoo models' layer
    // dimensions (256 is tiny_resnet's widest phase).
    let params = BfvParams::default_pi();
    let dims = [64usize, 128, 256];
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    // Two key sets: the power-of-two composition chain drives the naive
    // oracle, the dimensions' key plan the replicated path — each path
    // benches under exactly the keys it ships with.
    let keys = KeySet::generate(&params, &mut rng);
    let bsgs = KeySet::generate_for_dims(&params, &dims, &mut rng);
    let enc = BatchEncoder::new(&params);
    let t = params.t();

    let mut group = c.benchmark_group("matvec");
    group.sample_size(10);
    for dim in dims {
        let data: Vec<u64> = (0..dim * dim)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let w = PlainMatrix::new(dim, dim, &data, t);
        let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
        let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
        let (bsgs_ct, _) = bsgs
            .secret
            .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
        let naive_diag = encode_diagonals(&enc, &w);
        let bsgs_diag = encode_diagonals_bsgs(&enc, &w);

        // Differential gate before timing: identical decryptions or bust.
        let naive_out = matvec_naive(&keys.galois, &naive_diag, &ct);
        let bsgs_out = matvec_precomputed(&bsgs.galois, &bsgs_diag, &bsgs_ct);
        let expect = w.matvec_plain(&v, t);
        let dec = enc.decode_prefix(&bsgs.secret.decrypt(&bsgs_out), dim);
        assert_eq!(dec, expect, "replicated matvec decrypts wrong at d={dim}");
        assert_eq!(
            keys.secret.decrypt(&naive_out),
            bsgs.secret.decrypt(&bsgs_out),
            "naive and replicated matvec diverge at d={dim}"
        );
        println!("csv,matvec_check,d{dim},ok");
        let b = matvec_op_count(params.n(), dim);
        let n = matvec_op_count_naive(dim);
        println!(
            "csv,matvec_rotations,d{dim},bsgs,{},naive,{}",
            b.rotations(),
            n.rotations()
        );

        group.bench_function(format!("naive_d{dim}_n4096"), |bch| {
            bch.iter(|| matvec_naive(&keys.galois, &naive_diag, &ct))
        });
        group.bench_function(format!("bsgs_d{dim}_n4096"), |bch| {
            bch.iter(|| matvec_precomputed(&bsgs.galois, &bsgs_diag, &bsgs_ct))
        });
    }
    group.finish();

    // The primitives: a cold composed rotation (the lift's digit NTTs on
    // every call), the one-time hoist, and the per-rotation cost it buys.
    let mut group = c.benchmark_group("keyswitch");
    group.sample_size(10);
    let ct = keys
        .public
        .encrypt(&enc.encode(&vec![7u64; params.n()]), &mut rng);
    group.bench_function("rotate_cold_1", |b| {
        b.iter(|| keys.galois.rotate_rows(&ct, 1))
    });
    group.bench_function("hoist", |b| b.iter(|| bsgs.galois.hoist(&ct)));
    let hoisted = bsgs.galois.hoist(&ct);
    group.bench_function("rotate_hoisted_1", |b| {
        b.iter(|| bsgs.galois.rotate_hoisted(&hoisted, 1))
    });
    group.finish();
}

/// Same-run scalar-vs-vector A/B of the full replicated matvec at the
/// acceptance dimension `d = 128`: the whole offline-layer operation with
/// the dispatch pinned to the scalar oracle and to the detected backend
/// in turn, under one process on one core.
fn bench_matvec_simd_vs_scalar(c: &mut Criterion) {
    let params = BfvParams::default_pi();
    let dim = 128usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let keys = KeySet::generate_for_dims(&params, &[dim], &mut rng);
    let enc = BatchEncoder::new(&params);
    let t = params.t();
    let data: Vec<u64> = (0..dim * dim)
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let w = PlainMatrix::new(dim, dim, &data, t);
    let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
    let (ct, _) = keys
        .secret
        .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
    let bsgs_diag = encode_diagonals_bsgs(&enc, &w);

    let auto = simd::auto_backend();
    let mut group = c.benchmark_group("matvec_simd_vs_scalar");
    group.sample_size(10);
    for (label, be) in [("scalar", SimdBackend::Scalar), ("simd", auto)] {
        simd::force_backend(be);
        group.bench_function(format!("bsgs_{label}_d{dim}_n4096"), |b| {
            b.iter(|| matvec_precomputed(&keys.galois, &bsgs_diag, &ct))
        });
        simd::clear_forced_backend();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tail_breakdown,
    bench_matvec,
    bench_matvec_simd_vs_scalar
);
criterion_main!(benches);
