//! The rotation-key plan is the key set: for single dimensions (including
//! the no-rotation `d = 1` edge and the one-diagonal-per-replica `d = 2`,
//! `4`, `16`) and for mixed sets in which dimensions repeat, nest and share
//! elements across the baby, giant and rotate-and-sum roles (one key an
//! element, whatever its roles),
//! `KeySet::generate_for_dims` holds exactly `linalg::key_plan`'s entries in
//! its order, the replicated matvec runs on that set at every dimension named and
//! decrypts to the plaintext product, and a one-job batch is the plain call
//! bit for bit. The same dimensions pin the upload frame: the client's frame
//! writer, the encoder of a generated key set and the re-encoding of a
//! decoded frame are one byte string, on every lane backend, and the keys
//! decoded from it are keys the matvec runs on — the same keys, operand for
//! operand, when they are decoded into a retired set's memory, whatever
//! plan or ring that set was for.

use pi_field::simd::{clear_forced_backend, force_backend, SimdBackend};
use pi_he::linalg::{
    encode_diagonals_bsgs, encode_input, key_plan, matvec_precomputed, matvec_precomputed_many,
    PlainMatrix,
};
use pi_he::{
    galois_keys_frame, galois_keys_frame_entries, galois_keys_from_bytes,
    galois_keys_from_bytes_reusing, galois_keys_to_bytes, BatchEncoder, BfvParams, GaloisKeys,
    KeySet, SecretKey,
};
use rand::{Rng, SeedableRng};

fn dim_sets() -> Vec<Vec<usize>> {
    let singles = [1usize, 2, 4, 16, 64, 128, 256].map(|d| vec![d]);
    let mixed = [
        vec![128, 128, 16],
        vec![64, 64],
        vec![256, 64, 16],
        vec![128, 64, 16],
    ];
    singles.into_iter().chain(mixed).collect()
}

#[test]
fn generated_keys_are_the_plan_and_the_matvec_runs_on_them() {
    let params = BfvParams::small_test();
    let enc = BatchEncoder::new(&params);
    let t = params.t();
    for (case, dims) in dim_sets().iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + case as u64);
        let keys = KeySet::generate_for_dims(&params, dims, &mut rng);
        let plan = key_plan(&params, dims);
        assert!(
            keys.galois.elements().eq(plan.iter().copied()),
            "key set of {dims:?} is not its plan"
        );
        assert!(
            plan.windows(2).all(|w| w[0] < w[1]),
            "plan of {dims:?} is not sorted and unique"
        );

        for &dim in dims {
            let data: Vec<u64> = (0..dim * dim)
                .map(|_| rng.gen_range(0..t.value()))
                .collect();
            let w = PlainMatrix::new(dim, dim, &data, t);
            let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
            let ct = keys
                .secret
                .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng)
                .0;
            let diag = encode_diagonals_bsgs(&enc, &w);
            let prod = matvec_precomputed(&keys.galois, &diag, &ct);
            assert_eq!(
                enc.decode_prefix(&keys.secret.decrypt(&prod), dim),
                w.matvec_plain(&v, t),
                "d = {dim} under the keys of {dims:?}"
            );
            let batch = matvec_precomputed_many(&[(&keys.galois, &ct)], &diag);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].c0.coeffs(), prod.c0.coeffs(), "c0 at d = {dim}");
            assert_eq!(batch[0].c1.coeffs(), prod.c1.coeffs(), "c1 at d = {dim}");
        }
    }
}

/// An element has one key however many dimensions claim it, in whichever
/// role: at `[128, 64, 16]` (n = 2048) rotation 1 is a baby at 128 and at
/// 64, 64 and 128 are rotate-and-sum steps at 64 and at 16 (128, 256
/// and 512 also at 128), and the row swap closes both 128 and 64 — 11 keys
/// for 18 claims.
#[test]
fn the_plan_holds_each_element_once_at_mixed_dims() {
    let params = BfvParams::small_test();
    let n = params.n();
    let elements = |rotations: &[usize], swap: bool| {
        let mut plan: Vec<usize> = (rotations.iter())
            .map(|&k| pi_he::keys::rotation_element(n, k))
            .collect();
        plan.extend(swap.then_some(2 * n - 1));
        plan.sort_unstable();
        plan
    };
    // d = 128: c = 16 replicas of m = 8 steps — babies 1, 2, giants 3, 6 —
    // summed by 128, 256, 512 and the swap.
    let at_128 = elements(&[1, 2, 3, 6, 128, 256, 512], true);
    // d = 64: c = 32 replicas of m = 2 steps — baby 1 — summed by 64, 128,
    // 256, 512 and the swap.
    let at_64 = elements(&[1, 64, 128, 256, 512], true);
    // d = 16: sixteen one-diagonal replicas within a row, summed by 16..128.
    let at_16 = elements(&[16, 32, 64, 128], false);
    assert_eq!(key_plan(&params, &[128]), at_128);
    assert_eq!(key_plan(&params, &[64]), at_64);
    assert_eq!(key_plan(&params, &[16]), at_16);
    assert_eq!(at_128.len() + at_64.len() + at_16.len(), 18);

    let dims = [128, 64, 16];
    let plan = key_plan(&params, &dims);
    assert_eq!(
        plan,
        elements(&[1, 2, 3, 6, 16, 32, 64, 128, 256, 512], true)
    );
    assert_eq!(plan.len(), 11);
    // Order and repetition of the dimensions change nothing.
    assert_eq!(key_plan(&params, &[16, 128, 64, 16, 128]), plan);
    let mut rng = rand::rngs::StdRng::seed_from_u64(899);
    let keys = KeySet::generate_for_dims(&params, &dims, &mut rng);
    assert_eq!(
        keys.galois.resident_byte_len(),
        GaloisKeys::resident_byte_len_of(&params, 11)
    );
}

/// What the protocol client runs from the RNG state `KeySet::generate_*`
/// reaches its rotation keys in: secret key, then the (unsent) public key's
/// draws, then the frame writer.
fn client_frame(params: &BfvParams, dims: &[usize], seed: u64) -> (SecretKey, Vec<u8>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let secret = SecretKey::generate(params, &mut rng);
    secret.public_key(&mut rng);
    let frame = galois_keys_frame(&secret, &key_plan(params, dims), &mut rng);
    (secret, frame)
}

#[test]
fn the_upload_frame_is_one_byte_string_however_it_is_made() {
    let params = BfvParams::small_test();
    let enc = BatchEncoder::new(&params);
    let t = params.t();
    for (case, dims) in dim_sets().iter().enumerate() {
        let seed = 950 + case as u64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let keys = KeySet::generate_for_dims(&params, dims, &mut rng);
        let (secret, frame) = client_frame(&params, dims, seed);
        assert_eq!(
            frame,
            galois_keys_to_bytes(&keys.galois),
            "writer vs encoder, {dims:?}"
        );
        assert_eq!(frame.len(), keys.galois.wire_byte_len());
        assert_eq!(
            galois_keys_frame_entries(&frame, &params).expect("own frame"),
            key_plan(&params, dims)
        );
        let decoded = galois_keys_from_bytes(&frame, &params).expect("own frame");
        assert_eq!(
            galois_keys_to_bytes(&decoded),
            frame,
            "decode ∘ encode, {dims:?}"
        );

        // Evaluation-form words on the wire: the same bytes whichever lane
        // backend ran the one transform a digit needs. (The forced backend
        // is process-global; concurrent tests only ever see a different
        // bit-identical path.)
        force_backend(SimdBackend::Scalar);
        let scalar = client_frame(&params, dims, seed).1;
        clear_forced_backend();
        assert_eq!(scalar, frame, "PI_SIMD=scalar vs default, {dims:?}");

        // The decoded keys are the client's keys: the matvec over them
        // decrypts, under the client's secret, to the plaintext product.
        let dim = dims[0];
        let data: Vec<u64> = (0..dim * dim)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let w = PlainMatrix::new(dim, dim, &data, t);
        let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
        let ct = keys
            .secret
            .encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng)
            .0;
        let prod = matvec_precomputed(&decoded, &encode_diagonals_bsgs(&enc, &w), &ct);
        assert_eq!(
            enc.decode_prefix(&secret.decrypt(&prod), dim),
            w.matvec_plain(&v, t),
            "d = {dim} under the decoded frame of {dims:?}"
        );
    }
}

/// A frame decoded into a retired key set is the frame decoded: whatever
/// the retired set was — another client's keys of the same plan, the keys
/// of a plan with fewer or more entries and other elements, or keys over
/// another ring — the result re-encodes to the frame, meters what
/// the plan says it will, and the matvec over it is the matvec over the
/// fresh decode bit for bit (so every `a` column, quotient and slot
/// permutation is the one a fresh decode builds).
#[test]
fn a_frame_decoded_into_a_retired_key_set_is_the_frame_decoded() {
    let params = BfvParams::small_test();
    let enc = BatchEncoder::new(&params);
    let t = params.t();
    let sets = dim_sets();
    let other_ring = BfvParams::default_pi();
    for (case, dims) in sets.iter().enumerate() {
        let seed = 1000 + case as u64;
        let (secret, frame) = client_frame(&params, dims, seed);
        let fresh = galois_keys_from_bytes(&frame, &params).expect("own frame");
        let plan = key_plan(&params, dims);
        assert_eq!(
            fresh.resident_byte_len(),
            GaloisKeys::resident_byte_len_of(&params, plan.len()),
            "{dims:?}"
        );

        let decode = |params: &BfvParams, dims: &[usize], seed: u64| {
            let frame = client_frame(params, dims, seed).1;
            galois_keys_from_bytes(&frame, params).expect("own frame")
        };
        let neighbour = &sets[(case + 1) % sets.len()];
        let retired = [
            ("same plan", decode(&params, dims, seed + 100)),
            ("another plan", decode(&params, neighbour, seed + 200)),
            ("another ring", decode(&other_ring, &[4], seed + 300)),
        ];

        let dim = dims[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u64> = (0..dim * dim)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let w = PlainMatrix::new(dim, dim, &data, t);
        let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
        let (ct, _) = secret.encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
        let diag = encode_diagonals_bsgs(&enc, &w);
        let want = matvec_precomputed(&fresh, &diag, &ct);
        assert_eq!(
            enc.decode_prefix(&secret.decrypt(&want), dim),
            w.matvec_plain(&v, t)
        );

        for (what, retired) in retired {
            let reused =
                galois_keys_from_bytes_reusing(&frame, &params, Some(retired)).expect("own frame");
            assert!(
                reused.elements().eq(plan.iter().copied()),
                "{what}, {dims:?}"
            );
            assert_eq!(galois_keys_to_bytes(&reused), frame, "{what}, {dims:?}");
            assert_eq!(
                reused.resident_byte_len(),
                fresh.resident_byte_len(),
                "{what}, {dims:?}"
            );
            let got = matvec_precomputed(&reused, &diag, &ct);
            assert_eq!(got.c0.coeffs(), want.c0.coeffs(), "{what}, {dims:?}");
            assert_eq!(got.c1.coeffs(), want.c1.coeffs(), "{what}, {dims:?}");
        }
    }
}
