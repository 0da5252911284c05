//! BFV operation costs: encryption, plaintext multiplication, rotation,
//! and the diagonal-method matvec that dominates DELPHI's offline phase.
//!
//! `mul_plain` / `matvec_64x64` re-encode or re-transform plaintext operands
//! on every call (the pre-optimization behaviour); the `*_precomputed`
//! variants reuse Shoup-form operands, which is how the offline phase
//! actually runs (one weight matrix, many clients).
//!
//! The cold-key path — what a first-time client's request pays before any
//! of that — is timed apart and printed as one
//! `csv,coldkey,<dims>,keys,<n>,wire_bytes,<n>,keygen_us_per_key,…,encode_us_per_key,…,decode_us_per_key,…,frame_us_per_key,…`
//! line in every mode, `--test` included, so CI can see it is still there.

use criterion::{criterion_group, criterion_main, Criterion};
use pi_bench::median_ns;
use pi_he::linalg::{
    encode_diagonals, encode_diagonals_bsgs, encode_input, key_plan, matvec_naive,
    matvec_precomputed, PlainMatrix,
};
use pi_he::{BatchEncoder, BfvParams, KeySet, SecretKey};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The cold-key path at the protocol ring (`default_pi`) and `tiny_cnn`'s
/// padded dimensions, per key: generating a key set as operands
/// (the ledger's `he.keygen_ms`), encoding and decoding its frame
/// (`he.keys_encode_ms` / `he.keys_decode_ms`), and what the protocol
/// client runs instead of the first two — generating the frame directly.
fn bench_cold_key(_c: &mut Criterion) {
    let params = BfvParams::default_pi();
    let dims = [128usize, 128, 16];
    let plan = key_plan(&params, &dims);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let keygen = median_ns(
        || {
            drop(black_box(KeySet::generate_for_dims(
                &params, &dims, &mut rng,
            )))
        },
        3,
    );
    let keys = KeySet::generate_for_dims(&params, &dims, &mut rng);
    let encode = median_ns(
        || drop(black_box(pi_he::galois_keys_to_bytes(&keys.galois))),
        3,
    );
    let frame = pi_he::galois_keys_to_bytes(&keys.galois);
    let decode = median_ns(
        || drop(black_box(pi_he::galois_keys_from_bytes(&frame, &params))),
        3,
    );
    let secret = SecretKey::generate(&params, &mut rng);
    let direct = median_ns(
        || {
            drop(black_box(pi_he::galois_keys_frame(
                &secret, &plan, &mut rng,
            )))
        },
        3,
    );
    let us_per_key = |ns: f64| ns / 1e3 / plan.len() as f64;
    println!(
        "csv,coldkey,d128x128x16,keys,{},wire_bytes,{},keygen_us_per_key,{:.1},\
         encode_us_per_key,{:.1},decode_us_per_key,{:.1},frame_us_per_key,{:.1}",
        plan.len(),
        frame.len(),
        us_per_key(keygen),
        us_per_key(encode),
        us_per_key(decode),
        us_per_key(direct)
    );
}

fn bench_he(c: &mut Criterion) {
    let params = BfvParams::small_test();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let keys = KeySet::generate(&params, &mut rng);
    let enc = BatchEncoder::new(&params);
    let t = params.t();

    let mut group = c.benchmark_group("bfv");
    group.sample_size(10);

    let pt = enc.encode(&vec![42u64; params.n()]);
    group.bench_function("encrypt", |b| {
        b.iter(|| keys.secret.encrypt_seeded(&pt, &mut rng))
    });
    let (ct, _) = keys.secret.encrypt_seeded(&pt, &mut rng);
    group.bench_function("decrypt", |b| b.iter(|| keys.secret.decrypt(&ct)));
    group.bench_function("mul_plain", |b| b.iter(|| ct.mul_plain(&pt)));
    let pt_op = pt.to_operand();
    group.bench_function("mul_plain_precomputed", |b| {
        b.iter(|| ct.mul_plain_operand(&pt_op))
    });
    group.bench_function("rotate_1", |b| b.iter(|| keys.galois.rotate_rows(&ct, 1)));

    let dim = 64usize;
    let data: Vec<u64> = (0..dim * dim)
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let w = PlainMatrix::new(dim, dim, &data, t);
    let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
    // The naive oracle's input: `v` periodic (dim divides the row).
    let (ct_v, _) = keys
        .secret
        .encrypt_seeded(&enc.encode_periodic(&v), &mut rng);
    group.bench_function("matvec_64x64", |b| {
        b.iter(|| matvec_naive(&keys.galois, &encode_diagonals(&enc, &w), &ct_v))
    });
    let diagonals = encode_diagonals(&enc, &w);
    group.bench_function("matvec_64x64_naive_precomputed", |b| {
        b.iter(|| matvec_naive(&keys.galois, &diagonals, &ct_v))
    });
    // The replicated hot path under the key set and input layout it ships
    // with.
    let bsgs = KeySet::generate_for_dims(&params, &[64], &mut rng);
    let (bsgs_ct, _) = bsgs
        .secret
        .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
    let bsgs_diagonals = encode_diagonals_bsgs(&enc, &w);
    group.bench_function("matvec_64x64_bsgs_precomputed", |b| {
        b.iter(|| matvec_precomputed(&bsgs.galois, &bsgs_diagonals, &bsgs_ct))
    });
    group.finish();
}

criterion_group!(benches, bench_he, bench_cold_key);
criterion_main!(benches);
