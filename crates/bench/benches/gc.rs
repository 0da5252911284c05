//! Garbled-circuit throughput: garbling and evaluating the DELPHI ReLU
//! circuit (the per-ReLU costs behind Figures 3 and 4).
//!
//! The `relu_aes_vs_soft` group is the online-phase A/B: the same batch of
//! ReLU circuits garbled/evaluated with the AES dispatch pinned to the
//! scalar software oracle and then to the auto-detected batched backend
//! (AES-NI or the bitsliced fallback), in one run. It also prints
//! `csv,aes_backend,<name>` so CI can assert the runner actually dispatched
//! a hardware path — a silent fallback to software AES fails the grep
//! loudly, mirroring the `csv,simd_backend` guard.
//!
//! `gc_hash/hash_many_32` and `gc_hash/encrypt_blocks_32` time the
//! fixed-key hash and the bare AES it wraps on one 32-block batch.
//!
//! Then one phase of the ledger's `relu_heavy` workload: 8192 instances,
//! the scale where a kernel's layout (not its AES) shows. Each kernel is
//! timed on one thread against split across the host's cores, alternating
//! the two (`csv,par_threads,<t>` and `csv,par_ab,…`); the split side is
//! what the ledger runs.

use pi_bench::{kernel, one_thread_vs_split};
use pi_gc::aes::{self, AesBackend};
use pi_gc::circuit::{from_bits, to_bits};
use pi_gc::garble::{evaluate, evaluate_many, garble, garble_many};
use pi_gc::relu::{relu_trunc_circuit, relu_trunc_reference};
use pi_gc::{Aes128, Circuit, GcHash};
use pi_trace::par;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn main() {
    let auto = aes::auto_backend();
    println!("csv,aes_backend,{}", auto.name());
    hash_vs_aes();

    let p = 1032193u64; // 20-bit NTT prime (the protocol field)
    let (circuit, layout) = relu_trunc_circuit(p, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);

    // Single-instance path (scalar hash, the seed numbers' continuity).
    kernel("garbled_relu/garble", 20, || garble(&circuit, &mut rng));

    let g = garble(&circuit, &mut rng);
    let mut inputs = to_bits(12345 % p, layout.width);
    inputs.extend(to_bits(54321 % p, layout.width));
    inputs.extend(to_bits(777 % p, layout.width));
    let labels = g.encoding.encode_bits(0, &inputs);
    kernel("garbled_relu/evaluate", 20, || {
        evaluate(&circuit, &g.garbled, &labels)
    });

    // Same-run A/B: a batch of 64 ReLU instances through `garble_many` /
    // `evaluate_many` under the software oracle and the batched backend.
    let m = 64usize;
    for (label, be) in [("soft", AesBackend::Soft), (auto.name(), auto)] {
        aes::force_backend(be);
        kernel(&format!("relu_aes_vs_soft/garble{m}_{label}"), 20, || {
            garble_many(&circuit, m, &mut rng)
        });
        let garblings = garble_many(&circuit, m, &mut rng);
        let tables: Vec<_> = garblings.iter().map(|g| g.garbled.tables.clone()).collect();
        let label_inputs: Vec<Vec<u128>> = garblings
            .iter()
            .map(|g| g.encoding.encode_bits(0, &inputs))
            .collect();
        kernel(&format!("relu_aes_vs_soft/evaluate{m}_{label}"), 20, || {
            evaluate_many(&circuit, &tables, &label_inputs)
        });
        aes::clear_forced_backend();
    }

    relu_phase_8192(p, &circuit);

    println!(
        "garbled ReLU: {} AND gates, {} bytes/ReLU (paper measures 18.2 KB at 41-bit fields)",
        circuit.and_count(),
        circuit.garbled_size_bytes()
    );
}

/// The garbling hash against the AES it wraps, one 32-block batch each
/// (an AND gate's garbling hashes for 8 instances) under the detected
/// backend: `csv,gc_hash/hash_many_32` beside
/// `csv,gc_hash/encrypt_blocks_32` shows what the hash costs over raw AES.
fn hash_vs_aes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(32);
    let xs: [u128; 32] = std::array::from_fn(|_| rng.gen());
    let tweaks: [u64; 32] = std::array::from_fn(|_| rng.gen());
    let hash = GcHash::new();
    let mut out = [0; 32];
    kernel("gc_hash/hash_many_32", 20, || {
        hash.hash_many(black_box(&xs), &tweaks, &mut out);
        out[31]
    });
    let aes = Aes128::new(rng.gen::<u128>().to_le_bytes());
    let mut blocks = xs;
    kernel("gc_hash/encrypt_blocks_32", 20, || {
        aes.encrypt_blocks(black_box(&mut blocks));
        blocks[31]
    });
}

/// One `relu_heavy` phase: 8192 truncating ReLUs garbled and evaluated
/// under the detected backend. Before timing, every instance is garbled,
/// evaluated on random shares and decoded against `relu_trunc_reference`;
/// `csv,relu_ands,…` and `csv,relu_check,8192,ok` print, so CI pins the
/// AND count and the kernel's correctness at the scale the ledger runs.
fn relu_phase_8192(p: u64, circuit: &Circuit) {
    let (m, shift) = (8192usize, 5);
    let k = circuit.num_inputs / 3;
    println!("csv,relu_ands,{}", circuit.and_count());
    let mut rng = rand::rngs::StdRng::seed_from_u64(8192);
    let garblings = garble_many(circuit, m, &mut rng);
    let shares: Vec<[u64; 3]> = (0..m)
        .map(|_| std::array::from_fn(|_| rng.gen_range(0..p)))
        .collect();
    let tables: Vec<_> = garblings.iter().map(|g| g.garbled.tables.clone()).collect();
    let label_inputs: Vec<Vec<u128>> = garblings
        .iter()
        .zip(&shares)
        .map(|(g, s)| {
            let bits: Vec<bool> = s.iter().flat_map(|&v| to_bits(v, k)).collect();
            g.encoding.encode_bits(0, &bits)
        })
        .collect();
    let outputs = evaluate_many(circuit, &tables, &label_inputs);
    for ((g, [a, b, r]), labels) in garblings.iter().zip(&shares).zip(&outputs) {
        let got = from_bits(&g.garbled.decode_outputs(labels));
        assert_eq!(got, relu_trunc_reference(p, shift, *a, *b, *r));
    }
    println!("csv,relu_check,{m},ok");

    println!("csv,par_threads,{}", par::threads());
    let garble = || _ = black_box(garble_many(circuit, m, &mut rng));
    one_thread_vs_split(&format!("garble{m}"), garble, 5);
    let evaluate = || _ = black_box(evaluate_many(circuit, &tables, &label_inputs));
    one_thread_vs_split(&format!("evaluate{m}"), evaluate, 5);
}
