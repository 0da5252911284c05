//! BFV operation costs: encryption, plaintext multiplication, rotation,
//! and the diagonal-method matvec that dominates DELPHI's offline phase.
//!
//! `mul_plain` / `matvec_64x64` re-encode or re-transform plaintext operands
//! on every call (the pre-optimization behaviour); the `*_precomputed`
//! variants reuse Shoup-form operands, which is how the offline phase
//! actually runs (one weight matrix, many clients). `encoder_new_n4096`
//! is the batch encoder's construction at the protocol ring, which the
//! client pays on every HE request and the server once per model.
//!
//! The cold-key path — what a first-time client's request pays before any
//! of that — is timed apart and printed as one
//! `csv,coldkey,<dims>,keys,<n>,wire_bytes,<n>,keygen_us_per_key,…,encode_us_per_key,…,decode_us_per_key,…,frame_us_per_key,…`
//! line, so CI can see it is still there. Then, for the key plans of
//! `tiny_cnn` and `tiny_resnet` at the protocol ring, the client's frame
//! generation and the server's admission (a fresh decode) each run on one
//! thread and split across the host's cores (`csv,par_ab,keygen_<plan>,…`
//! and `csv,par_ab,admit_<plan>,…`).

use pi_bench::{kernel, median_ns, one_thread_vs_split};
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
fn bench_cold_key() {
    let params = BfvParams::default_pi();
    let dims = [128usize, 128, 16];
    let plan = key_plan(&params, &dims);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let keygen = median_ns(3, || KeySet::generate_for_dims(&params, &dims, &mut rng));
    let keys = KeySet::generate_for_dims(&params, &dims, &mut rng);
    let encode = median_ns(3, || pi_he::galois_keys_to_bytes(&keys.galois));
    let frame = pi_he::galois_keys_to_bytes(&keys.galois);
    let decode = median_ns(3, || pi_he::galois_keys_from_bytes(&frame, &params));
    let secret = SecretKey::generate(&params, &mut rng);
    let direct = median_ns(3, || pi_he::galois_keys_frame(&secret, &plan, &mut rng));
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

/// The protocol ring's key plan of a zoo model, as `ModelMeta` derives it
/// from the lowered model's padded dimensions.
fn zoo_plan(params: &BfvParams, spec: &pi_nn::NetSpec) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let fx = pi_nn::FixedConfig {
        p: params.t(),
        f: 5,
    };
    let net = pi_nn::Network::materialize(spec, &mut rng);
    let model = pi_nn::PiModel::lower(&pi_nn::QuantNetwork::quantize(&net, fx));
    pi_core::ModelMeta::of(&model).key_plan(params)
}

/// Key generation (the client's frame) and admission (the server's
/// decode) of two zoo plans: one thread vs split across cores.
fn bench_cold_key_split() {
    let params = BfvParams::default_pi();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let secret = SecretKey::generate(&params, &mut rng);
    for spec in [pi_nn::zoo::tiny_cnn(), pi_nn::zoo::tiny_resnet()] {
        let plan = zoo_plan(&params, &spec);
        println!("csv,coldkey_plan,{},keys,{}", spec.name, plan.len());
        let keygen = || {
            drop(black_box(pi_he::galois_keys_frame(
                &secret,
                &plan,
                &mut rng.clone(),
            )))
        };
        one_thread_vs_split(
            &format!("keygen_{}", spec.name.replace('-', "_")),
            keygen,
            5,
        );
        let frame = pi_he::galois_keys_frame(&secret, &plan, &mut rng);
        let admit = || drop(black_box(pi_he::galois_keys_from_bytes(&frame, &params)));
        one_thread_vs_split(&format!("admit_{}", spec.name.replace('-', "_")), admit, 5);
    }
}

fn bench_he() {
    let params = BfvParams::small_test();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let keys = KeySet::generate(&params, &mut rng);
    let enc = BatchEncoder::new(&params);
    let t = params.t();
    let samples = 10;

    let pt = enc.encode(&vec![42u64; params.n()]);
    kernel("bfv/encrypt", samples, || {
        keys.secret.encrypt_seeded(&pt, &mut rng)
    });
    let (ct, _) = keys.secret.encrypt_seeded(&pt, &mut rng);
    kernel("bfv/decrypt", samples, || keys.secret.decrypt(&ct));
    kernel("bfv/mul_plain", samples, || ct.mul_plain(&pt));
    let pt_op = pt.to_operand();
    kernel("bfv/mul_plain_precomputed", samples, || {
        ct.mul_plain_operand(&pt_op)
    });
    kernel("bfv/rotate_1", samples, || keys.galois.rotate_rows(&ct, 1));

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
    kernel("bfv/matvec_64x64", samples, || {
        matvec_naive(&keys.galois, &encode_diagonals(&enc, &w), &ct_v)
    });
    let diagonals = encode_diagonals(&enc, &w);
    kernel("bfv/matvec_64x64_naive_precomputed", samples, || {
        matvec_naive(&keys.galois, &diagonals, &ct_v)
    });
    // The replicated hot path under the key set and input layout it ships
    // with.
    let bsgs = KeySet::generate_for_dims(&params, &[64], &mut rng);
    let (bsgs_ct, _) = bsgs
        .secret
        .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
    let bsgs_diagonals = encode_diagonals_bsgs(&enc, &w);
    kernel("bfv/matvec_64x64_bsgs_precomputed", samples, || {
        matvec_precomputed(&bsgs.galois, &bsgs_diagonals, &bsgs_ct)
    });
    // The encoder the client builds on every HE request.
    let default_pi = BfvParams::default_pi();
    kernel("bfv/encoder_new_n4096", samples, || {
        BatchEncoder::new(&default_pi)
    });
}

fn main() {
    bench_he();
    bench_cold_key();
    bench_cold_key_split();
}
