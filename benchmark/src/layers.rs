//! Layer replays: each layer's public functions called in isolation at the
//! shapes the workload hit — the model's padded dimensions and phase count,
//! the request's ReLU and OT counts, the parameters' ring degree — never at
//! constants. Each number is the median of [`CALLS`] calls, or of as many
//! (at least [`MIN_CALLS`]) as fit in a tenth of the replay budget.

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{lower, Built};
use pi_core::{CostReport, LinearMode, ServerPrecomp};
use pi_gc::garble::{evaluate_many, Garbling, Label};
use pi_gc::relu::garble_relus;
use pi_he::{linalg, BatchEncoder, Ciphertext, KeySet};
use pi_ot::bitmat::BitVec;
use pi_ot::ext::{setup_in_process, OtExtReceiver, OtExtSender};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

const CALLS: usize = 9;
const MIN_CALLS: usize = 3;

/// Median seconds of one call of `f` — one span per call — and the last
/// call's result, for the replays downstream of it.
fn timed<T>(spans: Spans, name: &str, cap_s: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let begun = Instant::now();
    let mut secs = Vec::with_capacity(CALLS);
    loop {
        let out = spans.scope(name, None, |_| {
            let t0 = Instant::now();
            let out = black_box(f());
            secs.push(t0.elapsed().as_secs_f64());
            out
        });
        let enough = secs.len() >= MIN_CALLS && begun.elapsed().as_secs_f64() >= cap_s;
        if secs.len() == CALLS || enough {
            return (median(&secs), out);
        }
    }
}

/// Replays every layer the workload reaches and appends `(metric, value)`
/// pairs; a metric that is not appended reads 0 (layer not on the path).
pub fn replay(
    built: &Built,
    shape: &CostReport,
    budget_s: f64,
    spans: Spans,
    values: &mut Vec<(String, f64)>,
) {
    let cap = budget_s / 10.0;
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    let (model, meta, cfg, gen) = (&built.model, &built.meta, &built.cfg, built.gen);
    let mut rng = gen.replay_rng(0);
    let p = meta.p;

    // --- nn ---------------------------------------------------------------
    let spec = built.workload.spec();
    let (lower_s, _) = timed(spans, "nn.lower", cap, || lower(&spec, gen.weight_seed()));
    put("nn.lower_ms", lower_s * 1e3);
    let input = gen.input(model, 0);
    const FORWARDS: usize = 16;
    let (forward_s, ()) = timed(spans, "nn.forward", cap, || {
        for _ in 0..FORWARDS {
            black_box(model.forward(black_box(&input)));
        }
    });
    put("nn.forward_us", forward_s * 1e6 / FORWARDS as f64);
    let phase_inputs: Vec<Vec<u64>> = model
        .phases
        .iter()
        .map(|ph| (0..ph.cols).map(|_| rng.gen_range(0..p.value())).collect())
        .collect();
    let (apply_s, ()) = timed(spans, "nn.phase_apply", cap, || {
        for (ph, x) in model.phases.iter().zip(&phase_inputs) {
            black_box(ph.apply(x, p));
        }
    });
    put("nn.phase_apply_ms", apply_s * 1e3);

    // --- core -------------------------------------------------------------
    let (precomp_s, pre) = timed(spans, "core.precomp", cap, || {
        ServerPrecomp::new(model, cfg)
    });
    put("core.precomp_ms", precomp_s * 1e3);

    // --- poly, he: only where the linear phase is homomorphic ---------------
    if let (LinearMode::He, Some(params)) = (cfg.linear, cfg.he_params.as_ref()) {
        let n = params.n();
        let q = params.q().value();
        let ntt = params.ring().ntt();
        const TRANSFORMS: usize = 32;
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = a.clone();
        let mut per_transform = |name: &str, f: &dyn Fn(&mut [u64])| {
            let (secs, ()) = timed(spans, name, cap, || {
                for _ in 0..TRANSFORMS {
                    // Every transform starts from the same reduced input.
                    buf.copy_from_slice(&a);
                    f(black_box(&mut buf));
                }
            });
            secs * 1e6 / TRANSFORMS as f64
        };
        put(
            "poly.ntt_fwd_us",
            per_transform("poly.ntt_fwd", &|x| ntt.forward(x)),
        );
        put(
            "poly.ntt_inv_us",
            per_transform("poly.ntt_inv", &|x| ntt.inverse(x)),
        );
        put(
            "poly.dyadic_mul_us",
            per_transform("poly.dyadic_mul", &|x| ntt.dyadic_mul(x, &a, &b)),
        );

        let dims: Vec<usize> = meta.phases.iter().map(|ph| ph.padded_dim).collect();
        let (keygen_s, keys) = timed(spans, "he.keygen", cap, || {
            KeySet::generate_for_dims(params, &dims, &mut rng)
        });
        put("he.keygen_ms", keygen_s * 1e3);
        let encoder = BatchEncoder::new(params);
        let diagonals = pre
            .diagonals
            .as_ref()
            .expect("HE mode precomputes diagonals");

        // The client's side of the offline linear pass, as the protocol
        // runs it: seed-expanded symmetric encryption of each phase's
        // masked input, decryption of each switched response.
        let r_cats: Vec<Vec<u64>> = meta
            .phases
            .iter()
            .map(|ph| {
                let mut v: Vec<u64> = (0..ph.cols).map(|_| rng.gen_range(0..p.value())).collect();
                v.resize(ph.padded_dim, 0);
                v
            })
            .collect();
        let (encrypt_s, cts) = timed(spans, "he.encrypt", cap, || -> Vec<Ciphertext> {
            r_cats
                .iter()
                .map(|r| {
                    keys.secret
                        .encrypt_seeded(&encoder.encode_periodic(r), &mut rng)
                        .0
                })
                .collect()
        });
        put("he.encrypt_ms", encrypt_s * 1e3);
        let (matvec_s, prods) = timed(spans, "he.matvec", cap, || -> Vec<Ciphertext> {
            cts.iter()
                .zip(diagonals)
                .map(|(ct, w)| linalg::matvec_precomputed(&keys.galois, w, ct))
                .collect()
        });
        put("he.matvec_ms", matvec_s * 1e3);
        // The batch a fused drain sees with one job per core.
        let batch = crate::host::nproc();
        let (batch_s, ()) = timed(spans, "he.matvec_batch", cap, || {
            for (ct, w) in cts.iter().zip(diagonals) {
                let jobs = vec![(&keys.galois, ct); batch];
                black_box(linalg::matvec_precomputed_many(&jobs, w));
            }
        });
        put("he.matvec_batch_ms", batch_s * 1e3);
        let responses: Vec<Ciphertext> = prods
            .iter()
            .map(|prod| prod.mod_switch_down(params))
            .collect();
        let (decrypt_s, ()) = timed(spans, "he.decrypt", cap, || {
            for (resp, ph) in responses.iter().zip(&meta.phases) {
                let pt = keys.secret.decrypt_switched(resp);
                black_box(encoder.decode_prefix(&pt, ph.rows));
            }
        });
        put("he.decrypt_ms", decrypt_s * 1e3);

        let (encode_s, (pk_bytes, gk_bytes)) = timed(spans, "he.keys_encode", cap, || {
            (
                pi_he::public_key_to_bytes(&keys.public),
                pi_he::galois_keys_to_bytes(&keys.galois),
            )
        });
        put("he.keys_encode_ms", encode_s * 1e3);
        let (decode_s, _) = timed(spans, "he.keys_decode", cap, || {
            (
                pi_he::public_key_from_bytes(&pk_bytes, params).expect("own frame"),
                pi_he::galois_keys_from_bytes(&gk_bytes, params).expect("own frame"),
            )
        });
        put("he.keys_decode_ms", decode_s * 1e3);
        put(
            "he.keys_wire_bytes",
            (pk_bytes.len() + gk_bytes.len()) as f64,
        );
        put(
            "he.ct_wire_bytes_up",
            pi_he::wire::ciphertext_wire_len(params, true, false) as f64,
        );
        put(
            "he.ct_wire_bytes_down",
            pi_he::wire::ciphertext_wire_len(params, false, true) as f64,
        );
    }

    // --- gc ---------------------------------------------------------------
    let relu_phases: Vec<(usize, u32)> = meta
        .phases
        .iter()
        .filter_map(|ph| ph.relu_shift.map(|shift| (ph.rows, shift)))
        .collect();
    let relus = shape.relu_count as f64;
    assert_eq!(
        relu_phases.iter().map(|&(m, _)| m as u64).sum::<u64>(),
        shape.relu_count,
        "the model's ReLU phases are the request's ReLU count"
    );
    let (garble_s, garbled) = timed(spans, "gc.garble", cap, || {
        relu_phases
            .iter()
            .map(|&(m, shift)| garble_relus(p.value(), shift, m, &mut rng))
            .collect::<Vec<_>>()
    });
    put("gc.garble_us_per_relu", garble_s * 1e6 / relus);
    let ands: usize = garbled
        .iter()
        .map(|(circuit, _, gs)| circuit.and_count() * gs.len())
        .sum();
    put("gc.and_per_relu", ands as f64 / relus);
    put(
        "gc.bytes_per_relu",
        garbled
            .iter()
            .flat_map(|(_, _, gs)| gs)
            .map(|g: &Garbling| g.garbled.tables.len() * 32)
            .sum::<usize>() as f64
            / relus,
    );
    // The evaluator's inputs: one label per input wire of each instance.
    type Tables = Vec<Vec<(Label, Label)>>;
    let eval_inputs: Vec<(Tables, Vec<Vec<Label>>)> = garbled
        .iter()
        .map(|(circuit, _, gs)| {
            let tables = gs.iter().map(|g| g.garbled.tables.clone()).collect();
            let labels = gs
                .iter()
                .map(|g| {
                    (0..circuit.num_inputs)
                        .map(|i| g.encoding.encode_bit(i, rng.gen()))
                        .collect()
                })
                .collect();
            (tables, labels)
        })
        .collect();
    let (eval_s, ()) = timed(spans, "gc.eval", cap, || {
        for ((circuit, _, _), (tables, labels)) in garbled.iter().zip(&eval_inputs) {
            black_box(evaluate_many(circuit, tables, labels));
        }
    });
    put("gc.eval_us_per_relu", eval_s * 1e6 / relus);

    // --- ot ---------------------------------------------------------------
    let (base_s, (sender_setup, receiver_setup)) =
        timed(spans, "ot.base", cap, || setup_in_process(&mut rng));
    put("ot.base_ms", base_s * 1e3);
    let ots = shape.ot_count as usize;
    let (sender, receiver) = (
        OtExtSender::new(sender_setup),
        OtExtReceiver::new(receiver_setup),
    );
    let choices = BitVec::from_bools(&(0..ots).map(|_| rng.gen()).collect::<Vec<bool>>());
    let pairs: Vec<(u128, u128)> = (0..ots).map(|_| (rng.gen(), rng.gen())).collect();
    let (ext_s, wire_bytes) = timed(spans, "ot.ext", cap, || {
        let (extend, t_rows) = receiver.extend(&choices, &mut rng);
        let transfer = sender.transfer(&extend, &pairs);
        black_box(receiver.decode(&transfer, &choices, &t_rows));
        extend.byte_len() + transfer.byte_len()
    });
    put("ot.ext_ns_per_ot", ext_s * 1e9 / ots as f64);
    put("ot.ext_bytes_per_ot", wire_bytes as f64 / ots as f64);
}
