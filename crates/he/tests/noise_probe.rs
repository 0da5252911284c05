//! Noise-budget regression guard for the hoisted-BSGS matvec at the
//! protocol's worst shapes (full-range `Z_t` entries at the largest layer
//! dimensions). Whatever noise a baby rotation's output carries is
//! amplified by the plaintext multiplication (see the `linalg` module
//! docs); with rotation keys over `q·P` a key switch adds ≈ 4 bits rms
//! (`BfvParams::key_switch_noise_bits`), under the public-key encryption
//! noise this probe's inputs start from, so the hoisted path ends where
//! the unamplified naive chain does. Measured at d ∈ {16, 64, 128},
//! n ∈ {2048, 4096}, 20-bit `t`, three seeds each: 9 bits of budget at
//! d = 16, 7 at d = 64 and 5–6 at d = 128 on the hoisted path, 9, 7 and 6
//! on the naive chain. A change that eats this margin (a narrower special
//! prime, uncentered operands, a smaller `q`) fails here before it
//! corrupts end-to-end decryptions. The d = 16 shape stands for a phase
//! with few plaintext-product terms (a 3×3 conv sums 9 taps): its worst
//! margin must not fall below the widest phase's.

use pi_he::linalg::*;
use pi_he::{BatchEncoder, BfvParams, KeySet};
use rand::{Rng, SeedableRng};

fn probe(params: &BfvParams, dim: usize, seed: u64) -> (u32, u32) {
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
    let ct = encrypt_vector(&chain.public, &enc, &w, &v, &mut rng);
    let naive = matvec_naive(&chain.galois, &encode_diagonals(&enc, &w), &ct);
    let ct = encrypt_vector(&keys.public, &enc, &w, &v, &mut rng);
    let bsgs = matvec_precomputed(&keys.galois, &encode_diagonals_bsgs(&enc, &w), &ct);
    let nb = chain.secret.noise_budget(&naive);
    let bb = keys.secret.noise_budget(&bsgs);
    let got = enc.decode_prefix(&keys.secret.decrypt(&bsgs), dim);
    assert_eq!(got, w.matvec_plain(&v, t), "bsgs wrong at dim {dim}");
    (nb, bb)
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
        // Worst hoisted budget over the seeds, per dimension.
        let mut worst = [u32::MAX; 3];
        for (dim, worst) in [16usize, 64, 128].into_iter().zip(&mut worst) {
            for seed in 0..3u64 {
                let (nb, bb) = probe(&params, dim, seed * 1000 + (n + dim) as u64);
                println!(
                    "n={n} t=20 dim={dim} seed {seed}: naive budget {nb} bits, bsgs budget {bb} bits"
                );
                assert!(
                    nb >= 5,
                    "naive margin collapsed at n={n} dim={dim} seed={seed}: {nb} bits"
                );
                assert!(
                    bb >= 5,
                    "bsgs margin collapsed at n={n} dim={dim} seed={seed}: {bb} bits"
                );
                assert!(
                    bb.abs_diff(nb) <= 1,
                    "bsgs margin {bb} bits is not level with the naive chain's {nb} at n={n} dim={dim} seed={seed}"
                );
                *worst = (*worst).min(bb);
            }
        }
        // A phase with fewer plaintext-product terms keeps at least the
        // margin of a wider one: the premise of running every DELPHI linear
        // phase (one encrypt, one matvec, one decrypt) on the single prime.
        assert!(
            worst[0] >= worst[2],
            "n={n}: worst bsgs margin {} bits at d=16 is below {} at d=128",
            worst[0],
            worst[2]
        );
    }
}
