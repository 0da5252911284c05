//! Differential harness: the batched AES garbling backends and the packed
//! IKNP extension against their scalar/bool oracles, **bit for bit**.
//!
//! The software AES path (forced via `AesBackend::Soft`) is the oracle; the
//! paths under test are the portable bitsliced backend (available
//! everywhere) and the AES-NI pipeline where the host has it. Because the
//! fixed-key hash is a pure function of (block, tweak), every backend must
//! produce the *identical* garbled tables, input encodings, output labels
//! and OT messages — the comparison is exact equality of the raw words,
//! not semantic agreement.
//!
//! Coverage: the DELPHI gadget circuit (the truncating ReLU, at the
//! protocol's field and shift and at shift 0) and
//! proptest-driven random circuits through `garble_many`/`evaluate_many`;
//! the lane kernels against one-instance `garble`/`evaluate` at every
//! chunk boundary; the batched AES and hash entries at widths 1..=33;
//! the packed IKNP path against the retained bool-matrix `ext::reference`
//! for m ∈ {0, 1, 7, 64, 127, 128, 129, 500, 1000}; both batched kernel
//! families across their split boundary (`garble::GRAIN`, `ext::GRAIN`)
//! with the `par` helper pinned to 1, 2 and 3 threads; and cross-backend
//! interop (garble under one backend, evaluate under another). The
//! umbrella e2e suites run under `PI_AES=soft`/`PI_AES=ni` in CI,
//! completing the forced-off/forced-on matrix.
//!
//! Backend selection is process-global, so tests that flip it serialize on
//! a mutex; each comparison re-runs both sides under its own forced
//! backend.

use pi_trace::par;
use private_inference::gc::aes::{self, AesBackend, GcHash};
use private_inference::gc::garble::{
    evaluate, evaluate_many, garble, garble_many, Garbling, GRAIN,
};
use private_inference::gc::{relu_trunc_circuit, Circuit};
use private_inference::ot::bitmat::BitVec;
use private_inference::ot::ext::{self, reference, OtExtReceiver, OtExtSender};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panicking test poisons the mutex; the guard itself carries no state.
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the AES dispatch pinned to `be`, restoring auto-resolution
/// afterwards. Callers must hold `BACKEND_LOCK`.
fn with_backend<T>(be: AesBackend, f: impl FnOnce() -> T) -> T {
    aes::force_backend(be);
    let out = f();
    aes::clear_forced_backend();
    out
}

/// The batched backends this machine can execute: always the portable
/// bitsliced fallback, plus AES-NI where detected (the auto pick is among
/// them).
fn batched_backends() -> Vec<AesBackend> {
    let mut v = vec![AesBackend::Bitslice];
    if AesBackend::Ni.available() {
        v.push(AesBackend::Ni);
    }
    // Detection alone decides: there is no build switch.
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        AesBackend::Ni.available(),
        is_x86_feature_detected!("aes") && is_x86_feature_detected!("ssse3")
    );
    assert!(
        v.contains(&aes::auto_backend()) || aes::auto_backend() == AesBackend::Soft,
        "auto pick must be one of the runnable backends"
    );
    v
}

/// The gadget circuits the protocols actually garble: the truncating ReLU
/// at the protocol's field and shift, and at two other fields and shifts
/// (shift 0 being the plain ReLU).
fn gadget_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("relu_trunc", relu_trunc_circuit(65537, 4).0),
        ("relu", relu_trunc_circuit(12289, 0).0),
        ("relu_protocol", relu_trunc_circuit(1032193, 5).0),
    ]
}

fn assert_garblings_eq(got: &[Garbling], expect: &[Garbling], ctx: &str) {
    assert_eq!(got.len(), expect.len(), "{ctx}: instance count");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.garbled.tables, e.garbled.tables, "{ctx}: tables[{i}]");
        assert_eq!(
            g.garbled.output_decode, e.garbled.output_decode,
            "{ctx}: decode[{i}]"
        );
        assert_eq!(g.encoding.label0, e.encoding.label0, "{ctx}: label0[{i}]");
        assert_eq!(g.encoding.delta, e.encoding.delta, "{ctx}: delta[{i}]");
    }
}

#[test]
fn gadget_garbling_matches_soft_oracle_bitwise() {
    let _g = lock();
    for (name, circuit) in gadget_circuits() {
        // Odd instance count exercises the tail (< 8 lanes) path too.
        let n = 11;
        let expect = with_backend(AesBackend::Soft, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11CE);
            garble_many(&circuit, n, &mut rng)
        });
        // The batch API must also be a pure refactor of sequential garbling
        // sharing one RNG — same randomness order, same output.
        let sequential: Vec<Garbling> = with_backend(AesBackend::Soft, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11CE);
            (0..n).map(|_| garble(&circuit, &mut rng)).collect()
        });
        assert_garblings_eq(&expect, &sequential, &format!("{name} seq-vs-batch"));
        for be in batched_backends() {
            let got = with_backend(be, || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11CE);
                garble_many(&circuit, n, &mut rng)
            });
            assert_garblings_eq(&got, &expect, &format!("{name} be={}", be.name()));
        }
    }
}

#[test]
fn gadget_evaluation_matches_across_backends_and_plain_truth() {
    let _g = lock();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE7A1);
    for (name, circuit) in gadget_circuits() {
        let n = 9;
        let garblings = with_backend(AesBackend::Soft, || {
            let mut grng = rand::rngs::StdRng::seed_from_u64(0x6A5B);
            garble_many(&circuit, n, &mut grng)
        });
        let tables: Vec<_> = garblings.iter().map(|g| g.garbled.tables.clone()).collect();
        let bit_inputs: Vec<Vec<bool>> = (0..n)
            .map(|_| (0..circuit.num_inputs).map(|_| rng.gen()).collect())
            .collect();
        let label_inputs: Vec<Vec<u128>> = garblings
            .iter()
            .zip(&bit_inputs)
            .map(|(g, bits)| g.encoding.encode_bits(0, bits))
            .collect();
        let expect = with_backend(AesBackend::Soft, || {
            evaluate_many(&circuit, &tables, &label_inputs)
        });
        // Output labels decode to the plaintext circuit evaluation.
        for ((g, bits), labels) in garblings.iter().zip(&bit_inputs).zip(&expect) {
            assert_eq!(
                g.garbled.decode_outputs(labels),
                circuit.eval_plain(bits),
                "{name}: decoded output != plain eval"
            );
        }
        for be in batched_backends() {
            let got = with_backend(be, || evaluate_many(&circuit, &tables, &label_inputs));
            assert_eq!(got, expect, "{name}: output labels be={}", be.name());
        }
    }
}

/// Every backend this machine runs, the software oracle first.
fn all_backends() -> Vec<AesBackend> {
    let mut v = vec![AesBackend::Soft];
    v.extend(batched_backends());
    v
}

/// The lane kernels against the one-instance oracles, at the protocol's
/// ReLU shape: empty, single, short-tail, exact, one-over and multi-chunk
/// batches, under every backend; then across the split boundary — just
/// below, at and above `garble::GRAIN`, with ragged tails — with the
/// helper pinned to 1, 2 and 3 threads.
#[test]
fn lane_kernels_match_one_instance_oracles_on_every_backend() {
    let _g = lock();
    let (circuit, _) = relu_trunc_circuit(1032193, 5);
    let check = |n: usize, threads: &[usize], ctx: &str| {
        let mut r2 = rand::rngs::StdRng::seed_from_u64(n as u64);
        let seq: Vec<Garbling> = (0..n).map(|_| garble(&circuit, &mut r2)).collect();
        let inputs: Vec<Vec<u128>> = seq
            .iter()
            .map(|g| {
                let bits: Vec<bool> = (0..circuit.num_inputs).map(|_| r2.gen()).collect();
                g.encoding.encode_bits(0, &bits)
            })
            .collect();
        let tables: Vec<_> = seq.iter().map(|g| g.garbled.tables.clone()).collect();
        let want: Vec<Vec<u128>> = seq
            .iter()
            .zip(&inputs)
            .map(|(g, i)| evaluate(&circuit, &g.garbled, i))
            .collect();
        for &t in threads {
            let ctx = format!("{ctx} n={n} threads={t}");
            let mut r1 = rand::rngs::StdRng::seed_from_u64(n as u64);
            let batch = par::with_threads(t, || garble_many(&circuit, n, &mut r1));
            assert_garblings_eq(&batch, &seq, &ctx);
            for (b, s) in batch.iter().zip(&seq) {
                assert_eq!(b.output_label0, s.output_label0, "{ctx}");
            }
            let got = par::with_threads(t, || evaluate_many(&circuit, &tables, &inputs));
            assert_eq!(got, want, "{ctx}");
        }
    };
    for be in all_backends() {
        with_backend(be, || {
            for n in [0usize, 1, 7, 8, 9, 17, 64] {
                check(n, &[par::threads()], &format!("be={}", be.name()));
            }
        });
    }
    for n in [GRAIN - 1, GRAIN, GRAIN + 13] {
        check(n, &[1, 2, 3], "auto backend");
    }
}

/// The batched AES and hash entries against the scalar software oracle at
/// every width 1..=33: whole groups of 8 and every tail, on every backend.
#[test]
fn batched_aes_and_hash_match_soft_oracle_at_every_width() {
    let _g = lock();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x33);
    let xs: Vec<u128> = (0..33).map(|_| rng.gen()).collect();
    let tweaks: Vec<u64> = (0..33).map(|_| rng.gen()).collect();
    for be in all_backends() {
        with_backend(be, || {
            let aes128 = aes::Aes128::new([0x5A; 16]);
            let hash = GcHash::new();
            for w in 1..=33 {
                let mut blocks = xs[..w].to_vec();
                aes128.encrypt_blocks(&mut blocks);
                let want: Vec<u128> = xs[..w].iter().map(|&x| aes128.encrypt_u128(x)).collect();
                assert_eq!(blocks, want, "encrypt_blocks be={} w={w}", be.name());
                let mut out = vec![0; w];
                hash.hash_many(&xs[..w], &tweaks[..w], &mut out);
                let want: Vec<u128> = (0..w).map(|i| hash.hash(xs[i], tweaks[i])).collect();
                assert_eq!(out, want, "hash_many be={} w={w}", be.name());
            }
        });
    }
}

#[test]
fn cross_backend_interop_garble_one_evaluate_another() {
    let _g = lock();
    let (circuit, _) = relu_trunc_circuit(65537, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let bit_inputs: Vec<Vec<bool>> = (0..8)
        .map(|_| (0..circuit.num_inputs).map(|_| rng.gen()).collect())
        .collect();
    let all_backends = all_backends();
    for &garbler_be in &all_backends {
        let garblings = with_backend(garbler_be, || {
            let mut grng = rand::rngs::StdRng::seed_from_u64(0xF00D);
            garble_many(&circuit, bit_inputs.len(), &mut grng)
        });
        let tables: Vec<_> = garblings.iter().map(|g| g.garbled.tables.clone()).collect();
        let label_inputs: Vec<Vec<u128>> = garblings
            .iter()
            .zip(&bit_inputs)
            .map(|(g, bits)| g.encoding.encode_bits(0, bits))
            .collect();
        for &eval_be in &all_backends {
            let out = with_backend(eval_be, || evaluate_many(&circuit, &tables, &label_inputs));
            for ((g, bits), labels) in garblings.iter().zip(&bit_inputs).zip(&out) {
                assert_eq!(
                    g.garbled.decode_outputs(labels),
                    circuit.eval_plain(bits),
                    "garble={} eval={}",
                    garbler_be.name(),
                    eval_be.name()
                );
            }
        }
    }
}

#[test]
fn packed_iknp_matches_bool_reference_under_every_backend() {
    let _g = lock();
    // One base phase serves every (backend, m) comparison; the packed and
    // reference paths share the same setups so their PRG streams align.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1B2C);
    let (s_setup, r_setup) = ext::setup_in_process(&mut rng);
    let sender = OtExtSender::new(s_setup.clone());
    let receiver = OtExtReceiver::new(r_setup.clone());
    // Each size runs where the previous one ended, as the extensions of one
    // session do: all but the first compare at a non-zero stream position.
    // The last three straddle the split boundary (`ext::GRAIN`), with
    // ragged tails; there the packed path also runs with the helper pinned
    // to 1, 2 and 3 threads.
    let mut block = 0u64;
    let split_sizes = [ext::GRAIN - 1, ext::GRAIN, ext::GRAIN + 100];
    for m in [0usize, 1, 7, 64, 127, 128, 129, 500, 1000]
        .into_iter()
        .chain(split_sizes)
    {
        let bools: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let packed = BitVec::from_bools(&bools);
        let pairs: Vec<(u128, u128)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();
        // The oracle always runs over the scalar software AES.
        let (u_ref, t_ref) = with_backend(AesBackend::Soft, || {
            reference::extend(&r_setup, block, &bools)
        });
        let y_ref = with_backend(AesBackend::Soft, || {
            reference::transfer(&s_setup, block, &u_ref, &pairs)
        });
        let got_ref = with_backend(AesBackend::Soft, || {
            reference::decode(&y_ref, &bools, &t_ref)
        });
        // Sanity: the oracle itself delivers the chosen messages.
        for j in 0..m {
            let want = if bools[j] { pairs[j].1 } else { pairs[j].0 };
            assert_eq!(got_ref[j], want, "oracle broken at m={m} j={j}");
        }
        let widths: &[usize] = if split_sizes.contains(&m) {
            &[1, 2, 3]
        } else {
            &[]
        };
        let runs = (all_backends().into_iter().map(|be| (be, par::threads())))
            .chain(widths.iter().map(|&t| (aes::auto_backend(), t)));
        for (be, t) in runs {
            let ctx = format!("m={m} be={} threads={t}", be.name());
            let (u_fast, t_fast) = with_backend(be, || {
                par::with_threads(t, || receiver.extend_at(block, &packed))
            });
            assert_eq!(u_fast, u_ref, "extend {ctx}");
            assert_eq!(t_fast, t_ref, "t rows {ctx}");
            let y_fast = with_backend(be, || {
                par::with_threads(t, || sender.transfer_at(block, &u_fast, &pairs))
            });
            assert_eq!(y_fast.pairs, y_ref.pairs, "transfer {ctx}");
            let got = with_backend(be, || {
                par::with_threads(t, || receiver.decode(&y_fast, &packed, &t_fast))
            });
            assert_eq!(got, got_ref, "decode {ctx}");
        }
        block += ext::blocks(m);
    }
}

#[test]
fn soft_oracle_stays_reachable_via_force_toggle() {
    // force_backend(Soft) must actually route the batched entry points
    // through the scalar path, and re-resolution must restore the
    // environment/detection pick afterwards (mirrors `PI_SIMD`'s guard).
    let _g = lock();
    let aes128 = aes::Aes128::new([7u8; 16]);
    let mut blocks: Vec<u128> = (0..16u128).collect();
    let scalar: Vec<u128> = blocks.iter().map(|&b| aes128.encrypt_u128(b)).collect();
    with_backend(AesBackend::Soft, || aes128.encrypt_blocks(&mut blocks));
    assert_eq!(blocks, scalar);
    let resolved = aes::backend();
    match std::env::var("PI_AES").ok().as_deref() {
        Some("soft") | Some("off") | Some("0") => assert_eq!(resolved, AesBackend::Soft),
        Some("bitslice") => assert_eq!(resolved, AesBackend::Bitslice),
        Some("ni") | Some("aesni") => assert_eq!(resolved, AesBackend::Ni),
        _ => assert_ne!(
            resolved,
            AesBackend::Soft,
            "auto-resolution must pick a batched path"
        ),
    }
}

fn random_circuit(seed: u64) -> Circuit {
    use private_inference::gc::CircuitBuilder;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cb = CircuitBuilder::new();
    let n_in = rng.gen_range(2..=8usize);
    let mut wires = cb.inputs(n_in);
    for _ in 0..rng.gen_range(5..60usize) {
        let a = wires[rng.gen_range(0..wires.len())];
        let b = wires[rng.gen_range(0..wires.len())];
        let w = match rng.gen_range(0..4u8) {
            0 => cb.and(a, b),
            1 => cb.xor(a, b),
            2 => cb.or(a, b),
            _ => cb.not(a),
        };
        wires.push(w);
    }
    let n_out = rng.gen_range(1..=4usize);
    let outs: Vec<_> = wires[wires.len() - n_out..].to_vec();
    cb.build(&outs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn prop_random_circuits_garble_identically(seed in any::<u64>(), n in 1usize..20) {
        let _g = lock();
        let circuit = random_circuit(seed);
        let expect = with_backend(AesBackend::Soft, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
            garble_many(&circuit, n, &mut rng)
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bit_inputs: Vec<Vec<bool>> = (0..n)
            .map(|_| (0..circuit.num_inputs).map(|_| rng.gen()).collect())
            .collect();
        let tables: Vec<_> = expect.iter().map(|g| g.garbled.tables.clone()).collect();
        let label_inputs: Vec<Vec<u128>> = expect
            .iter()
            .zip(&bit_inputs)
            .map(|(g, bits)| g.encoding.encode_bits(0, bits))
            .collect();
        let out_expect = with_backend(AesBackend::Soft, || {
            evaluate_many(&circuit, &tables, &label_inputs)
        });
        for be in batched_backends() {
            let got = with_backend(be, || {
                let mut grng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
                garble_many(&circuit, n, &mut grng)
            });
            assert_garblings_eq(&got, &expect, &format!("random seed={seed} be={}", be.name()));
            let out = with_backend(be, || evaluate_many(&circuit, &tables, &label_inputs));
            prop_assert_eq!(&out, &out_expect, "eval be={}", be.name());
        }
        // Decoded outputs equal the plaintext evaluation.
        for ((g, bits), labels) in expect.iter().zip(&bit_inputs).zip(&out_expect) {
            prop_assert_eq!(g.garbled.decode_outputs(labels), circuit.eval_plain(bits));
        }
    }
}
