//! Cross-substrate integration: HE linear algebra against network phase
//! matrices, garbled ReLU against the quantized reference semantics, and
//! OT delivering usable wire labels.

use pi_gc::circuit::{from_bits, to_bits};
use pi_gc::garble::{evaluate, garble};
use pi_gc::relu::relu_trunc_circuit;
use pi_he::linalg::{
    encode_diagonals_bsgs, encode_input, fold_replicas, matvec_precomputed, replica_mask,
    PlainMatrix,
};
use pi_he::{BatchEncoder, BfvParams, KeySet};
use pi_nn::quant::relu_trunc_field;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use pi_ot::bitmat::BitVec;
use pi_ot::ext::{setup_in_process, OtExtReceiver, OtExtSender};
use rand::{Rng, SeedableRng};

/// The HE diagonal matvec computes real network phase matrices correctly:
/// encrypt r in the replicated layout, evaluate the replicated product,
/// mask it, decrypt, fold the replicas, add s, compare to plain W·r.
#[test]
fn he_matvec_on_real_phase_matrices() {
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
    let model = PiModel::lower(&QuantNetwork::quantize(&net, fx));

    let dims: Vec<usize> = (model.phases.iter())
        .map(|ph| ph.rows.max(ph.cols).next_power_of_two())
        .collect();
    let keys = KeySet::generate_for_dims(&he, &dims, &mut rng);
    let enc = BatchEncoder::new(&he);
    let p = he.t();
    for (i, ph) in model.phases.iter().enumerate() {
        let w = PlainMatrix::new(ph.rows, ph.cols, &ph.matrix, p);
        let dim = w.padded_dim();
        let r: Vec<u64> = (0..ph.cols).map(|_| rng.gen_range(0..p.value())).collect();
        // r in the replicated layout, encrypted as the client encrypts.
        let (ct, _) = keys
            .secret
            .encrypt_seeded(&encode_input(&enc, &r, dim), &mut rng);
        let prod = matvec_precomputed(&keys.galois, &encode_diagonals_bsgs(&enc, &w), &ct);
        let (mask, s) = replica_mask(&enc, dim, ph.rows, &mut rng);
        let resp = prod.add_plain(&mask, &he);
        assert!(
            keys.secret.noise_budget(&resp) > 0,
            "phase {i}: noise exhausted"
        );
        let slots = enc.decode(&keys.secret.decrypt(&resp));
        let share = fold_replicas(&slots, dim, ph.rows, p);
        let expect = w.matvec_plain(&r, p);
        for j in 0..ph.rows {
            assert_eq!(p.add(share[j], s[j]), expect[j], "phase {i} row {j}");
        }
    }
}

/// The garbled ReLU circuit agrees with `relu_trunc_field` — the exact
/// semantics `QuantNetwork::forward_fixed` uses — on structured inputs.
#[test]
fn garbled_relu_equals_quant_semantics() {
    let he = BfvParams::small_test();
    let p = he.t();
    let shift = 5u32;
    let (circuit, layout) = relu_trunc_circuit(p.value(), shift);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for case in 0..30 {
        // Split a target value into two shares, as the protocol does.
        let y: u64 = rng.gen_range(0..p.value());
        let share1: u64 = rng.gen_range(0..p.value());
        let share2 = p.sub(y, share1);
        let r: u64 = rng.gen_range(0..p.value());

        let mut bits = to_bits(share1, layout.width);
        bits.extend(to_bits(share2, layout.width));
        bits.extend(to_bits(r, layout.width));
        let g = garble(&circuit, &mut rng);
        let labels = g.encoding.encode_bits(0, &bits);
        let got = from_bits(
            &g.garbled
                .decode_outputs(&evaluate(&circuit, &g.garbled, &labels)),
        );
        let expect = p.sub(relu_trunc_field(y, shift, p), r);
        assert_eq!(got, expect, "case {case}: y={y}, r={r}");
    }
}

/// Labels fetched through the IKNP extension evaluate a garbled circuit to
/// the right output — OT and GC compose.
#[test]
fn ot_delivered_labels_evaluate_correctly() {
    let p = 65537u64;
    let (circuit, layout) = relu_trunc_circuit(p, 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let g = garble(&circuit, &mut rng);

    let (s_setup, r_setup) = setup_in_process(&mut rng);
    let sender = OtExtSender::new(s_setup);
    let receiver = OtExtReceiver::new(r_setup);

    // Garbler inputs: share_a = 100 (encoded directly). Evaluator fetches
    // labels for share_b = 23 and r = 3 via OT.
    let share_a = 100u64;
    let share_b = 23u64;
    let r = 3u64;
    let mut choice_bits = to_bits(share_b, layout.width);
    choice_bits.extend(to_bits(r, layout.width));
    let choices = BitVec::from_bools(&choice_bits);
    let pairs: Vec<(u128, u128)> = (0..2 * layout.width)
        .map(|i| g.encoding.label_pair(layout.width + i))
        .collect();
    let (ext, keys) = receiver.extend(&choices, &mut rng);
    let transfer = sender.transfer(&ext, &pairs);
    let fetched = receiver.decode(&transfer, &choices, &keys);

    let mut labels = g.encoding.encode_bits(0, &to_bits(share_a, layout.width));
    labels.extend(fetched);
    let got = from_bits(
        &g.garbled
            .decode_outputs(&evaluate(&circuit, &g.garbled, &labels)),
    );
    assert_eq!(got, (share_a + share_b + p - r) % p); // 123 - 3 = 120
    assert_eq!(got, 120);
}

/// Quantized-network field semantics survive the full matrix lowering for
/// every tiny network, across many random inputs (stress beyond the unit
/// tests in pi-nn).
#[test]
fn lowering_stress_many_inputs() {
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 4 };
    for (spec, seed) in [
        (zoo::tiny_cnn(), 10u64),
        (zoo::tiny_resnet(), 11),
        (zoo::tiny_cnn_pool(), 12),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::materialize(&spec, &mut rng);
        let qnet = QuantNetwork::quantize(&net, fx);
        let model = PiModel::lower(&qnet);
        for _ in 0..10 {
            let input: Vec<u64> = (0..model.input_len)
                .map(|_| fx.p.from_signed(rng.gen_range(-64..=64)))
                .collect();
            assert_eq!(
                model.forward(&input),
                qnet.forward_fixed(&input),
                "{}",
                spec.name
            );
        }
    }
}
