//! The cost model is the kernel: at every power-of-two dimension a row of
//! the `n = 4096` ring holds, `linalg::matvec_op_count` names exactly the
//! rotations one `matvec_precomputed` takes (the `he.rotation` counter's
//! delta around the call).

use pi_he::linalg::{
    encode_diagonals_bsgs, encode_input, fold_replicas, matvec_op_count, matvec_precomputed,
    PlainMatrix,
};
use pi_he::{BatchEncoder, BfvParams, KeySet};
use pi_trace::TraceMode;
use rand::SeedableRng;

/// Every power-of-two dimension up to the row size.
fn dims(params: &BfvParams) -> impl Iterator<Item = usize> {
    let row = params.n() / 2;
    (0..).map(|e| 1usize << e).take_while(move |&d| d <= row)
}

#[test]
fn op_count_rotations_are_the_kernels_rotations() {
    let params = BfvParams::default_pi();
    let enc = BatchEncoder::new(&params);
    let mut rng = rand::rngs::StdRng::seed_from_u64(27);
    // The counter reads nothing with tracing off, so the one test in this
    // binary that reads it pins the mode (the scope is this thread's own).
    pi_trace::force_mode(Some(TraceMode::Counters));
    for dim in dims(&params) {
        let keys = KeySet::generate_for_dims(&params, &[dim], &mut rng);
        let w = PlainMatrix::new(dim, dim, &vec![1; dim * dim], params.t());
        let diagonals = encode_diagonals_bsgs(&enc, &w);
        let (ct, _) = keys
            .secret
            .encrypt_seeded(&encode_input(&enc, &vec![1; dim], dim), &mut rng);
        let scope = pi_trace::begin_local();
        let prod = matvec_precomputed(&keys.galois, &diagonals, &ct);
        let rotations = scope.finish().counter("he.rotation").unwrap_or(0);
        assert_eq!(
            rotations,
            matvec_op_count(params.n(), dim).rotations() as u64,
            "d = {dim}"
        );
        // Every folded output row is the row sum of an all-ones matrix.
        let slots = enc.decode(&keys.secret.decrypt(&prod));
        let got = fold_replicas(&slots, dim, dim, params.t());
        assert!(got.iter().all(|&y| y == dim as u64), "d = {dim}");
    }
    pi_trace::force_mode(None);
}
