//! Replicated-diagonal (hoisted BSGS inside each replica, the replicas
//! folded by the client) vs naive Halevi–Shoup matvec, and the key-switch
//! primitives underneath — the offline-phase hot path this repo's PI
//! protocols spend their HE time in.
//!
//! Same-run A/B pairs (`matvec/naive_*` vs `matvec/bsgs_*` under one
//! process on one core) are the meaningful comparison; absolute numbers
//! move with the machine. The harness asserts, before timing anything,
//! that the fold of the replicated product is the naive chain's product
//! on every output row, and emits
//! `csv,matvec_check,d<dim>,ok` and
//! `csv,matvec_rotations,d<dim>,bsgs,<rotations>,naive,<rotations>` lines
//! so CI fails loudly if the replicated path diverges from the naive chain
//! or its rotation budget moves. It ends with the cleartext linear pass
//! at `relu_heavy`'s shape (`csv,linear/apply_8192x64`).

use pi_bench::kernel;
use pi_field::simd::{self, SimdBackend};
use pi_field::Modulus;
use pi_he::linalg::{
    encode_diagonals, encode_diagonals_bsgs, encode_input, fold_replicas, matvec_naive,
    matvec_op_count, matvec_op_count_naive, matvec_precomputed, PlainMatrix,
};
use pi_he::{BatchEncoder, BfvParams, KeySet};
use pi_nn::PiPhase;
use pi_poly::ntt::{NttTables, ShoupVec};
use rand::{Rng, SeedableRng};

/// Same-run scalar-vs-vector A/B of one kernel, printed as
/// `csv,tail_<name>_scalar,<ns>` / `csv,tail_<name>,<ns>`.
fn tail_ab(name: &str, mut f: impl FnMut()) {
    let auto = simd::auto_backend();
    simd::force_backend(SimdBackend::Scalar);
    kernel(&format!("tail_{name}_scalar"), 20, &mut f);
    simd::force_backend(auto);
    kernel(&format!("tail_{name}"), 20, &mut f);
    simd::clear_forced_backend();
}

/// Kernel-level A/B of the rotation tail: the plain Galois slot gather
/// ([`pi_poly::ntt::GaloisPerm::apply`]), the fused permute + double
/// multiply-accumulate key-switch inner loop, and the fused permute + lazy
/// add — each at the protocol ring degree `n = 4096`.
fn bench_tail_breakdown() {
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
    tail_ab("galois_apply", || {
        perm.apply(&mut out, &src);
        std::hint::black_box(&out);
    });
    let mut acc0 = vec![0u64; n];
    let mut acc1 = vec![0u64; n];
    tail_ab("ks_gather2", || {
        ntt.dyadic_mul_acc_shoup_gather2(&mut acc0, &mut acc1, &src, &perm, &ops[0], &ops[1]);
        std::hint::black_box((&acc0, &acc1));
    });
    let mut acc = vec![0u64; n];
    tail_ab("gather_add", || {
        ntt.gather_add_lazy(&mut acc, &src, &perm);
        std::hint::black_box(&acc);
    });
}

fn bench_matvec() {
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

    for dim in dims {
        let data: Vec<u64> = (0..dim * dim)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let w = PlainMatrix::new(dim, dim, &data, t);
        let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
        let (ct, _) = keys
            .secret
            .encrypt_seeded(&enc.encode_periodic(&v), &mut rng);
        let (bsgs_ct, _) = bsgs
            .secret
            .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
        let naive_diag = encode_diagonals(&enc, &w);
        let bsgs_diag = encode_diagonals_bsgs(&enc, &w);

        // Differential gate before timing: the folded replicated product
        // is the naive product on every row, or bust.
        let naive_out = matvec_naive(&keys.galois, &naive_diag, &ct);
        let bsgs_out = matvec_precomputed(&bsgs.galois, &bsgs_diag, &bsgs_ct);
        let expect = w.matvec_plain(&v, t);
        let slots = enc.decode(&bsgs.secret.decrypt(&bsgs_out));
        let folded = fold_replicas(&slots, dim, dim, t);
        assert_eq!(
            folded, expect,
            "replicated matvec decrypts wrong at d={dim}"
        );
        assert_eq!(
            enc.decode_prefix(&keys.secret.decrypt(&naive_out), dim),
            folded,
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

        kernel(&format!("matvec/naive_d{dim}_n4096"), 10, || {
            matvec_naive(&keys.galois, &naive_diag, &ct)
        });
        kernel(&format!("matvec/bsgs_d{dim}_n4096"), 10, || {
            matvec_precomputed(&bsgs.galois, &bsgs_diag, &bsgs_ct)
        });
    }

    // The primitives: a cold composed rotation (the lift's digit NTTs on
    // every call), the one-time hoist, and the per-rotation cost it buys.
    let (ct, _) = keys
        .secret
        .encrypt_seeded(&enc.encode(&vec![7u64; params.n()]), &mut rng);
    kernel("keyswitch/rotate_cold_1", 10, || {
        keys.galois.rotate_rows(&ct, 1)
    });
    kernel("keyswitch/hoist", 10, || bsgs.galois.hoist(&ct));
    let hoisted = bsgs.galois.hoist(&ct);
    kernel("keyswitch/rotate_hoisted_1", 10, || {
        bsgs.galois.rotate_hoisted(&hoisted, 1)
    });
}

/// Same-run scalar-vs-vector A/B of the full replicated matvec at the
/// acceptance dimension `d = 128`: the whole offline-layer operation with
/// the dispatch pinned to the scalar oracle and to the detected backend
/// in turn, under one process on one core.
fn bench_matvec_simd_vs_scalar() {
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
    for (label, be) in [("scalar", SimdBackend::Scalar), ("simd", auto)] {
        simd::force_backend(be);
        kernel(
            &format!("matvec_simd_vs_scalar/bsgs_{label}_d{dim}_n4096"),
            10,
            || matvec_precomputed(&keys.galois, &bsgs_diag, &ct),
        );
        simd::clear_forced_backend();
    }
}

/// The cleartext linear pass (`PiPhase::apply_linear`, what the server
/// runs on `relu_heavy` instead of HE) at the ledger's `mlp8192` shape:
/// its first phase, 8192 rows of 64 inputs at the protocol field.
fn bench_linear_apply() {
    let p = BfvParams::default_pi().t();
    let (rows, cols) = (8192, 64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8192);
    let mut field =
        |n: usize| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..p.value())).collect() };
    let phase = PiPhase {
        inputs: vec![0],
        matrix: field(rows * cols),
        rows,
        cols,
        bias: field(rows),
        relu_shift: Some(5),
    };
    let x = field(cols);
    kernel(&format!("linear/apply_{rows}x{cols}"), 20, || {
        phase.apply_linear(&x, p)
    });
}

fn main() {
    bench_tail_breakdown();
    bench_matvec();
    bench_matvec_simd_vs_scalar();
    bench_linear_apply();
}
