//! Differential suite: the replicated-diagonal matvec
//! ([`matvec_precomputed`] over [`encode_input`]) against the naive
//! Horner-chain oracle ([`matvec_naive`] over a periodic input) and the
//! plaintext reference, bit-for-bit at the
//! decryption level: the **full N-slot** plaintexts must be equal, so every
//! replica of the replicated result holds the complete `W·v` (a partial sum
//! left in any slot would differ from the oracle's periodic product). Each
//! path runs under the key set it ships with — the rotation-key plan of the
//! dimensions for the replicated path, the power-of-two composition chain
//! for the oracle — so the two never share a secret; the plaintexts they
//! decrypt to are what must agree.
//!
//! Coverage:
//! * dims {1, 2, 7, 64, 100, 128, 256} — including non-power-of-two
//!   logical shapes whose padding exercises partial giant groups (7 → 8,
//!   100 → 128), the degenerate one-replica (d = 1) and one-diagonal-per-
//!   replica (d = 2) packings, and `tiny_resnet`'s widest phase (d = 256,
//!   an inner BSGS plus a row swap);
//! * both ring sizes the protocol uses (n = 2048 test ring, n = 4096
//!   default ring) with full-range `Z_t` entries;
//! * the hoisted single-rotation primitive against composed
//!   `rotate_rows`, including the identity rotation, plan elements in their
//!   giant and rotate-and-sum roles and the rejection of an element outside
//!   the plan;
//! * a proptest over random matrices, dimensions, and vectors.
//!
//! CI runs this suite in release under `PI_SIMD=scalar`, `on`, and
//! `portable`, so the replicated path is pinned against the oracle on every
//! backend.

use private_inference::he::keys::rotation_element;
use private_inference::he::linalg::{
    bsgs_plan, encode_diagonals, encode_diagonals_bsgs, encode_input, matvec_naive,
    matvec_precomputed, PlainMatrix,
};
use private_inference::he::{BatchEncoder, BfvParams, Ciphertext, KeyError, KeySet};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The naive oracle's input: `v` zero-padded to `w`'s padded dimension,
/// repeated in every block, and encrypted as the client encrypts.
fn periodic_upload(
    keys: &KeySet,
    enc: &BatchEncoder,
    w: &PlainMatrix,
    v: &[u64],
    rng: &mut impl Rng,
) -> Ciphertext {
    let mut padded = v.to_vec();
    padded.resize(w.padded_dim(), 0);
    keys.secret
        .encrypt_seeded(&enc.encode_periodic(&padded), rng)
        .0
}

fn check_dims(params: &BfvParams, shapes: &[(usize, usize)], seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dims: Vec<usize> = shapes
        .iter()
        .map(|&(r, c)| r.max(c).next_power_of_two())
        .collect();
    let chain = KeySet::generate(params, &mut rng);
    let keys = KeySet::generate_for_dims(params, &dims, &mut rng);
    let enc = BatchEncoder::new(params);
    let t = params.t();
    for &(rows, cols) in shapes {
        let data: Vec<u64> = (0..rows * cols)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let w = PlainMatrix::new(rows, cols, &data, t);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();

        // Both paths on the client's seeded symmetric encryption: of the
        // periodic layout for the oracle, of the replicated one for the
        // protocol's path.
        let ct = periodic_upload(&chain, &enc, &w, &v, &mut rng);
        let naive = matvec_naive(&chain.galois, &encode_diagonals(&enc, &w), &ct);
        let input = encode_input(&enc, &v, w.padded_dim());
        let (ct, _) = keys.secret.encrypt_seeded(&input, &mut rng);
        let bsgs = matvec_precomputed(&keys.galois, &encode_diagonals_bsgs(&enc, &w), &ct);

        // Bit-for-bit identical decryptions of all N slots, and both match
        // the plaintext reference with noise to spare.
        assert!(
            chain.secret.noise_budget(&naive) > 0,
            "naive noise exhausted at {rows}x{cols}"
        );
        assert!(
            keys.secret.noise_budget(&bsgs) > 0,
            "bsgs noise exhausted at {rows}x{cols}"
        );
        assert_eq!(
            chain.secret.decrypt(&naive),
            keys.secret.decrypt(&bsgs),
            "decryption mismatch at {rows}x{cols} (n={})",
            params.n()
        );
        assert_eq!(
            enc.decode_prefix(&keys.secret.decrypt(&bsgs), rows),
            w.matvec_plain(&v, t),
            "bsgs != plaintext reference at {rows}x{cols}"
        );
    }
}

#[test]
fn bsgs_matches_naive_small_ring() {
    // n = 2048, 20-bit t (the protocol test ring) across the required dims:
    // 1, 2, 7 (pads to 8), 64, 100 (pads to 128), 128, 256.
    check_dims(
        &BfvParams::small_test(),
        &[
            (1, 1),
            (2, 2),
            (7, 7),
            (64, 64),
            (100, 100),
            (128, 128),
            (256, 256),
        ],
        101,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "n = 4096 keygen + 255-rotation naive chain is release-speed work; CI runs this suite in release"
)]
fn bsgs_matches_naive_default_ring() {
    // n = 4096 (the protocol default ring) at tiny_cnn's and tiny_resnet's
    // widest dims.
    check_dims(
        &BfvParams::default_pi(),
        &[(64, 64), (128, 128), (256, 256)],
        202,
    );
}

#[test]
fn bsgs_matches_naive_rectangular() {
    // Rectangular logical shapes: padding leaves zero rows/columns that the
    // diagonal layouts must place identically (130 × 200 is a two-input
    // residual phase's shape, padded to 256).
    check_dims(
        &BfvParams::small_test(),
        &[(5, 12), (40, 100), (3, 64), (130, 200)],
        303,
    );
}

#[test]
fn hoisted_rotation_matches_composed_rotation() {
    let params = BfvParams::small_test();
    let mut rng = rand::rngs::StdRng::seed_from_u64(404);
    // dim 256 at n = 2048 → 8 replicas of 32 steps: babies {1..5}, giants
    // {6, 12, …, 30}, rotate-and-sum {256, 512} and the row swap.
    let keys = KeySet::generate_for_dims(&params, &[256], &mut rng);
    let chain = KeySet::generate(&params, &mut rng);
    let enc = BatchEncoder::new(&params);
    let v: Vec<u64> = (0..params.n() as u64).collect();
    let (ct, _) = keys.secret.encrypt_seeded(&enc.encode(&v), &mut rng);
    let (chain_ct, _) = chain.secret.encrypt_seeded(&enc.encode(&v), &mut rng);
    let hoisted = keys.galois.hoist(&ct);
    // A key is a key: the giants' and the rotate-and-sum's elements rotate a
    // hoisted ciphertext as the babies' do.
    for k in [0usize, 1, 2, 5, 6, 30, 256, 512] {
        let direct = keys.galois.rotate_hoisted(&hoisted, k).expect("plan key");
        let composed = chain.galois.rotate_rows(&chain_ct, k).expect("chain keys");
        // Different keys and key-switch noise, same decryption.
        assert_eq!(
            keys.secret.decrypt(&direct),
            chain.secret.decrypt(&composed),
            "hoisted rotation by {k} diverges from composed rotation"
        );
    }
    // A hoisted rotation by an element outside the plan is a
    // MissingGaloisKey naming it: the API says so rather than corrupt.
    let g7 = rotation_element(params.n(), 7);
    assert_eq!(
        keys.galois.rotate_hoisted(&hoisted, 7).err(),
        Some(KeyError::MissingGaloisKey(g7))
    );
}

#[test]
fn bsgs_plan_covers_all_diagonals() {
    // Structural invariant: every in-replica step k < m appears in exactly
    // one (giant, baby) cell of the plan.
    for d in [1usize, 2, 3, 7, 9, 16, 33, 64, 100, 128, 1000] {
        let (b, g) = bsgs_plan(d);
        assert!(b * g >= d, "plan too small at d={d}");
        assert!(b * (g - 1) < d || d == 1, "empty trailing giant at d={d}");
        let covered: usize = (0..g).map(|j| b.min(d.saturating_sub(j * b))).sum();
        assert_eq!(covered, d, "plan covers {covered} of {d} diagonals");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn bsgs_matches_naive_random(seed in any::<u64>(), rows in 1usize..20, cols in 1usize..20) {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = rows.max(cols).next_power_of_two();
        let chain = KeySet::generate(&params, &mut rng);
        let keys = KeySet::generate_for_dims(&params, &[dim], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        let data: Vec<u64> = (0..rows * cols).map(|_| rng.gen_range(0..t.value())).collect();
        let w = PlainMatrix::new(rows, cols, &data, t);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
        let ct = periodic_upload(&chain, &enc, &w, &v, &mut rng);
        let naive = matvec_naive(&chain.galois, &encode_diagonals(&enc, &w), &ct);
        let (ct, _) = keys.secret.encrypt_seeded(&encode_input(&enc, &v, dim), &mut rng);
        let bsgs = matvec_precomputed(&keys.galois, &encode_diagonals_bsgs(&enc, &w), &ct);
        prop_assert_eq!(chain.secret.decrypt(&naive), keys.secret.decrypt(&bsgs));
        prop_assert_eq!(
            enc.decode_prefix(&keys.secret.decrypt(&bsgs), rows),
            w.matvec_plain(&v, t)
        );
    }
}
