//! The rotation-key plan is the key set: for single dimensions (including
//! the no-rotation `d = 1` and no-giant `d = 2` edges) and for mixed sets
//! in which dimensions repeat, nest and share elements across gadget bases,
//! `KeySet::generate_for_dims` holds exactly `linalg::key_plan`'s entries in
//! its order, the BSGS matvec runs on that set at every dimension named and
//! decrypts to the plaintext product, and a one-job batch is the plain call
//! bit for bit.

use pi_he::linalg::{
    encode_diagonals_bsgs, encrypt_vector, key_plan, matvec_precomputed, matvec_precomputed_many,
    PlainMatrix,
};
use pi_he::{BatchEncoder, BfvParams, KeySet};
use rand::{Rng, SeedableRng};

#[test]
fn generated_keys_are_the_plan_and_the_matvec_runs_on_them() {
    let params = BfvParams::small_test();
    let enc = BatchEncoder::new(&params);
    let t = params.t();
    let singles = [1usize, 2, 4, 16, 64, 128, 256].map(|d| vec![d]);
    let mixed = [vec![128, 128, 16], vec![64, 64], vec![256, 64, 16]];
    for (case, dims) in singles.iter().chain(&mixed).enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + case as u64);
        let keys = KeySet::generate_for_dims(&params, dims, &mut rng);
        let plan = key_plan(&params, dims);
        assert!(
            keys.galois.entries().eq(plan.iter().copied()),
            "key set of {dims:?} is not its plan"
        );
        let mut sorted = plan.clone();
        sorted.sort_unstable_by_key(|&(g, base)| (g, std::cmp::Reverse(base)));
        sorted.dedup();
        assert_eq!(plan, sorted, "plan of {dims:?} is not sorted and unique");

        for &dim in dims {
            let data: Vec<u64> = (0..dim * dim)
                .map(|_| rng.gen_range(0..t.value()))
                .collect();
            let w = PlainMatrix::new(dim, dim, &data, t);
            let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
            let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
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
