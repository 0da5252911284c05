//! Noise-budget regression guard for the replicated matvec at the
//! protocol's worst shapes (full-range `Z_t` entries at every layer
//! dimension the zoo models pad to). The replicated path's noise is the
//! in-replica sum of `m = d/c` amplified terms, then a rotate-and-sum that
//! adds `c` rotated copies of **one** noise polynomial — coherently at the
//! coefficients the rotations fix — so the fresh noise of the upload sets
//! the margin. Baby rotations stay in the extended basis (the `linalg`
//! module docs), so the rounding of a division by the special prime is
//! never multiplied by a plaintext.
//!
//! Measured at d ∈ {16, 64, 128, 256}, n ∈ {2048, 4096}, 20-bit `t`, three
//! seeds each (bits of budget, worst seed):
//!
//! | input | n | d = 16 | 64 | 128 | 256 |
//! |---|---|---|---|---|---|
//! | protocol upload, replicated | 2048 | 11 | 9 | 9 | 9 |
//! | protocol upload, replicated | 4096 | 11 | 8 | 8 | 8 |
//! | public-key encryption, replicated | 2048 | 6 | 3 | 3 | 4 |
//! | public-key encryption, replicated | 4096 | 5 | 2 | 2 | 2 |
//! | public-key encryption, naive chain | 2048 | 9 | 7 | 6 | 5 |
//! | public-key encryption, naive chain | 4096 | 9 | 7 | 6 | 4 |
//!
//! The protocol's upload is the client's seeded symmetric encryption
//! (σ = 2 error, no `u·e` term), which is what the guard holds at ≥ 7 bits
//! — level with the 8–9 bits the one-replica BSGS kept at the protocol's
//! decrypt. A public-key encryption carries ≈ 6 more bits of fresh noise,
//! which the coherent rotate-and-sum grows by up to `c`; the naive chain
//! sums `d` different diagonals' terms and grows it by about `√d` — so
//! there the replicated path ends 1–5 bits under the oracle and up to 5
//! under what the one-replica BSGS kept on the same input (9, 7 and 5–6
//! bits at d = 16, 64, 128). The protocol never runs a public-key encryption
//! through the matvec, so that loss is accepted, but not left to drift:
//! the guard holds it at its measured floor (≥ 3 bits at n = 2048, ≥ 2 at
//! n = 4096) and at most 5 bits under the naive chain, and the naive chain
//! itself at ≥ 5 bits up to d = 128 (4 at d = 256, where its `√d` growth
//! is largest). A change that eats a margin (a narrower special
//! prime, uncentered operands, a smaller `q`, a division back under a
//! plaintext product) fails here before it corrupts end-to-end decryptions.
//! The d = 16 shape stands for a phase with few product terms (a 3×3 conv
//! sums 9 taps): its worst margin must not fall below the widest phase's.

use pi_he::linalg::*;
use pi_he::{BatchEncoder, BfvParams, Ciphertext, KeySet};
use rand::{Rng, SeedableRng};

/// Budgets in bits: the replicated path on the protocol's upload and on a
/// public-key encryption, and the naive chain on a public-key encryption.
fn probe(params: &BfvParams, dim: usize, seed: u64) -> [u32; 3] {
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
    let diagonals = encode_diagonals_bsgs(&enc, &w);
    let input = encode_input(&enc, &v, dim);
    let budget = |ct: &Ciphertext| {
        let got = enc.decode_prefix(&keys.secret.decrypt(ct), dim);
        assert_eq!(got, want, "replicated matvec wrong at dim {dim}");
        keys.secret.noise_budget(ct)
    };
    let (upload, _) = keys.secret.encrypt_seeded(&input, &mut rng);
    let upload = budget(&matvec_precomputed(&keys.galois, &diagonals, &upload));
    let public = keys.public.encrypt(&input, &mut rng);
    let public = budget(&matvec_precomputed(&keys.galois, &diagonals, &public));
    let ct = encrypt_vector(&chain.public, &enc, &w, &v, &mut rng);
    let naive = matvec_naive(&chain.galois, &encode_diagonals(&enc, &w), &ct);
    [upload, public, chain.secret.noise_budget(&naive)]
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
        let public_floor = if n == 2048 { 3 } else { 2 };
        // Worst protocol-upload budget over the seeds, per dimension.
        let mut worst = [u32::MAX; 4];
        for (dim, worst) in [16usize, 64, 128, 256].into_iter().zip(&mut worst) {
            let naive_floor = if dim <= 128 { 5 } else { 4 };
            for seed in 0..3u64 {
                let [upload, public, naive] = probe(&params, dim, seed * 1000 + (n + dim) as u64);
                println!(
                    "n={n} t=20 dim={dim} seed {seed}: replicated {upload} bits on the upload, \
                     {public} on a public-key encryption; naive {naive}"
                );
                assert!(
                    naive >= naive_floor,
                    "naive margin collapsed at n={n} dim={dim} seed={seed}: {naive} bits"
                );
                assert!(
                    upload >= 7,
                    "replicated margin collapsed at n={n} dim={dim} seed={seed}: {upload} bits"
                );
                assert!(
                    public >= public_floor,
                    "replicated matvec of a public-key encryption fell to {public} bits at \
                     n={n} dim={dim} seed={seed} (floor {public_floor})"
                );
                assert!(
                    naive.saturating_sub(public) <= 5,
                    "replicated margin {public} bits on a public-key encryption is more than \
                     5 under the naive chain's {naive} at n={n} dim={dim} seed={seed}"
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
