//! Noise-budget regression guard for the replicated matvec at the
//! protocol's worst shapes (full-range `Z_t` entries at every layer
//! dimension the zoo models pad to). The replicated path's noise is the
//! in-replica sum of `m = d/c` amplified terms and nothing after it: the
//! replicas are never rotated into one another, the client folds their
//! blocks after decryption. Baby rotations stay in the extended basis (the
//! `linalg` module docs), so the rounding of a division by the special
//! prime is never multiplied by a plaintext.
//!
//! Measured at d ∈ {16, 64, 128, 256}, n ∈ {2048, 4096}, 20-bit `t`, three
//! seeds each (bits of budget, worst seed), before and after the
//! replicated path stopped summing its replicas with a rotate-and-sum:
//!
//! | path | n | d = 16 | 64 | 128 | 256 |
//! |---|---|---|---|---|---|
//! | replicated + rotate-and-sum (before) | 2048 | 11 | 9 | 9 | 9 |
//! | replicated + rotate-and-sum (before) | 4096 | 11 | 8 | 8 | 8 |
//! | replicated, folded by the client | 2048 | 15 | 13 | 12 | 11 |
//! | replicated, folded by the client | 4096 | 15 | 13 | 12 | 11 |
//! | naive chain, periodic input | 2048 | 15 | 13 | 12 | 11 |
//! | naive chain, periodic input | 4096 | 15 | 13 | 12 | 11 |
//!
//! Both paths run on the one encryption the crate has, the client's
//! seeded symmetric encryption (σ = 2 error, no `u·e` term): the
//! replicated path on the protocol's upload (`encode_input`), the naive
//! oracle on the same vector in the periodic layout. The rotate-and-sum
//! added `c` rotated copies of one noise polynomial, coherently at the
//! coefficients the rotations fix, and cost the replicated path 3–5 bits;
//! without it the replicated path keeps the naive chain's margin at every
//! shape. The guard holds the upload at ≥ 11 bits, the naive chain at its
//! measured floor (15 / 13 / 12 / 11 bits), and the replicated path within
//! 1 bit of the naive chain. A change that eats a margin (a narrower
//! special prime, uncentered operands, a smaller `q`, a division back under
//! a plaintext product) fails here before it corrupts end-to-end
//! decryptions. The d = 16 shape stands for a phase with few product terms
//! (a 3×3 conv sums 9 taps): its worst margin must not fall below the
//! widest phase's.

use pi_he::linalg::*;
use pi_he::{BatchEncoder, BfvParams, KeySet};
use rand::{Rng, SeedableRng};

/// Budgets in bits, both on the client's seeded symmetric encryption of
/// `v`: the replicated path on the protocol's upload (`encode_input`), and
/// the naive chain on the periodic layout.
fn probe(params: &BfvParams, dim: usize, seed: u64) -> [u32; 2] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Each path under the key set it runs with.
    let chain = KeySet::generate(params, &mut rng);
    let keys = KeySet::generate_for_dims(params, &[dim], &mut rng);
    let enc = BatchEncoder::new(params);
    let t = params.t();
    let data: Vec<u64> = (0..dim * dim)
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let w = PlainMatrix::new(dim, dim, &data, t);
    let v: Vec<u64> = (0..dim).map(|_| rng.gen_range(0..t.value())).collect();
    let want = w.matvec_plain(&v, t);
    let input = encode_input(&enc, &v, dim);
    let (upload, _) = keys.secret.encrypt_seeded(&input, &mut rng);
    let diagonals = encode_diagonals_bsgs(&enc, &w);
    let prod = matvec_precomputed(&keys.galois, &diagonals, &upload);
    let slots = enc.decode(&keys.secret.decrypt(&prod));
    assert_eq!(
        fold_replicas(&slots, dim, dim, t),
        want,
        "replicated matvec wrong at dim {dim}"
    );
    // `v` fills the period: the matrix is square at a power-of-two dim.
    let (ct, _) = chain
        .secret
        .encrypt_seeded(&enc.encode_periodic(&v), &mut rng);
    let naive = matvec_naive(&chain.galois, &encode_diagonals(&enc, &w), &ct);
    let got = enc.decode_prefix(&chain.secret.decrypt(&naive), dim);
    assert_eq!(got, want, "naive matvec wrong at dim {dim}");
    [
        keys.secret.noise_budget(&prod),
        chain.secret.noise_budget(&naive),
    ]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "keygens at n up to 4096 are release-speed work; CI runs this guard in release"
)]
fn noise_margins() {
    // Three independent key/error/matrix realizations per shape: the margin
    // must hold across the seed spread, not at one lucky draw — a
    // production client's keys are a fresh realization of exactly this
    // distribution.
    for n in [2048usize, 4096] {
        let params = BfvParams::new(n, 62, 20);
        // Worst protocol-upload budget over the seeds, per dimension.
        let mut worst = [u32::MAX; 4];
        // The naive chain's measured worst per dimension (the same at both
        // n): its noise grows by about `√d`.
        let naive_floors = [15u32, 13, 12, 11];
        let shapes = [16usize, 64, 128, 256].into_iter().zip(naive_floors);
        for ((dim, naive_floor), worst) in shapes.zip(&mut worst) {
            for seed in 0..3u64 {
                let [upload, naive] = probe(&params, dim, seed * 1000 + (n + dim) as u64);
                println!(
                    "n={n} t=20 dim={dim} seed {seed}: replicated {upload} bits, naive {naive}"
                );
                assert!(
                    upload >= 11,
                    "replicated margin collapsed at n={n} dim={dim} seed={seed}: {upload} bits"
                );
                assert!(
                    naive >= naive_floor,
                    "naive margin fell to {naive} bits at n={n} dim={dim} seed={seed} \
                     (floor {naive_floor})"
                );
                assert!(
                    naive.saturating_sub(upload) <= 1,
                    "replicated margin {upload} bits is more than 1 under the naive chain's \
                     {naive} on the same kind of input at n={n} dim={dim} seed={seed}"
                );
                *worst = (*worst).min(upload);
            }
        }
        // A phase with fewer plaintext-product terms keeps at least the
        // margin of a wider one: the premise of running every DELPHI linear
        // phase (one encrypt, one matvec, one decrypt) on the single prime.
        assert!(
            worst[0] >= worst[3],
            "n={n}: worst replicated margin {} bits at d=16 is below {} at d=256",
            worst[0],
            worst[3]
        );
    }
}
