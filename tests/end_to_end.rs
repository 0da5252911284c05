//! Workspace-spanning integration tests: full private inference across
//! every crate (nn → he/gc/ot/ss → core), checked against both the
//! fixed-point reference and f64 inference.

use pi_core::{private_inference, ProtocolConfig, ProtocolKind};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork, Tensor};
use rand::{Rng, SeedableRng};

struct Setup {
    net: Network,
    qnet: QuantNetwork,
    model: PiModel,
    fx: FixedConfig,
    he: BfvParams,
}

fn setup(spec: &pi_nn::NetSpec, seed: u64) -> Setup {
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = Network::materialize(spec, &mut rng);
    let qnet = QuantNetwork::quantize(&net, fx);
    let model = PiModel::lower(&qnet);
    Setup {
        net,
        qnet,
        model,
        fx,
        he,
    }
}

/// Serializes the tests that force the process-global trace mode: one
/// that finished would otherwise switch full tracing off under another.
fn full_tracing() -> impl Drop {
    struct Forced(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Drop for Forced {
        fn drop(&mut self) {
            pi_trace::force_mode(None);
        }
    }
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pi_trace::force_mode(Some(pi_trace::TraceMode::Full));
    Forced(guard)
}

fn random_input_f(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Both protocols, real HE: output must be bit-exact with the fixed-point
/// reference and within quantization error of f64 inference.
#[test]
fn he_protocols_match_reference_and_f64() {
    // Force full tracing regardless of the PI_TRACE the suite runs under:
    // the report assertions below need span-derived timings to exist.
    let _full = full_tracing();
    let spec = zoo::tiny_cnn();
    let s = setup(&spec, 100);
    let input_f = random_input_f(s.model.input_len, 101);
    let input = s.fx.quantize_vec(&input_f);
    let reference = s.qnet.forward_fixed(&input);
    let f64_out = s.net.forward(&Tensor::from_vec(&spec.input, input_f));

    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let cfg = match kind {
            ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(s.he.clone()),
            ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(s.he.clone(), 3),
        };
        let (out, report) = private_inference(&s.model, &input, &cfg);
        assert_eq!(
            out, reference,
            "{kind:?} disagrees with fixed-point reference"
        );
        for (&q, &f) in out.iter().zip(f64_out.data()) {
            let deq = s.fx.dequantize(q, 2 * s.fx.f);
            assert!(
                (deq - f).abs() < 0.3,
                "{kind:?}: dequantized {deq} too far from f64 {f}"
            );
        }
        let he_ms = (report.trace.span_total_ms("offline.he")).expect("full tracing measures HE");
        assert!(he_ms > 0.0, "HE must actually run");
        assert!(report.gc_bytes > 0);
        // The merged trace carries both parties' span trees and the
        // substrate counters the run generated.
        assert!(report.trace.span_stat("client").is_some());
        assert!(report.trace.span_stat("server").is_some());
        assert!(report.trace.counter("ntt.forward").unwrap_or(0) > 0);
        assert!(report.trace.counter("aes.blocks").unwrap_or(0) > 0);
        assert_eq!(
            report.trace.counter("gc.relu"),
            Some(report.relu_count),
            "trace ReLU counter must agree with the report"
        );
    }
}

/// A Server-Garbler client's base OT runs between its linear upload and
/// the responses, yet its span stays a sibling of the HE pass's directly
/// under `client`, where the phase breakdown reads both.
#[test]
fn base_ot_and_the_he_pass_are_sibling_client_spans() {
    let _full = full_tracing();
    let s = setup(&zoo::tiny_cnn(), 100);
    let input = s.fx.quantize_vec(&random_input_f(s.model.input_len, 102));
    let cfg = ProtocolConfig::server_garbler(s.he.clone());
    let (out, report) = private_inference(&s.model, &input, &cfg);
    assert_eq!(out, s.qnet.forward_fixed(&input));
    for path in ["client/offline.ot", "client/offline.he"] {
        assert!(report.trace.span_stat(path).is_some(), "no {path} span");
    }
    for path in [
        "client/offline.he/offline.ot",
        "client/offline.ot/offline.he",
    ] {
        assert!(report.trace.span_stat(path).is_none(), "nested {path} span");
    }
}

/// The noise gauge reads where the protocol decrypts — the client's
/// `decrypt_switched` of every down-switched response — so a real request
/// under full tracing fills `he.noise_decrypt_bits` (histograms are
/// process-global: whatever else this binary decrypted is in there too),
/// at least one observation a linear phase, and the worst keeps real
/// headroom.
#[test]
fn the_noise_gauge_reads_where_the_protocol_decrypts() {
    let _full = full_tracing();
    let gauged = || {
        let report = pi_trace::global_report();
        report.hist("he.noise_decrypt_bits").cloned()
    };
    for (spec, seed) in [(zoo::tiny_cnn(), 400), (zoo::tiny_resnet(), 410)] {
        let s = setup(&spec, seed);
        let input =
            s.fx.quantize_vec(&random_input_f(s.model.input_len, seed + 1));
        let cfg = ProtocolConfig::server_garbler(s.he.clone());
        let before = gauged().map_or(0, |h| h.count);
        let (out, _) = private_inference(&s.model, &input, &cfg);
        assert_eq!(out, s.qnet.forward_fixed(&input));
        let gauge = gauged().expect("every response decrypt gauges");
        assert!(
            gauge.count - before >= s.model.phases.len() as u64,
            "{}: {} observations",
            spec.name,
            gauge.count - before
        );
        let least = pi_trace::bucket_lower_bound(gauge.buckets[0].0);
        println!(
            "{}: noise budget at decrypt, least {least} of {} bits",
            spec.name, gauge.max
        );
        assert!(least >= 7, "{}: {least} bits of budget", spec.name);
    }
}

/// Plays the client's half of the offline linear pass by hand against one
/// real server session (`drive_sync`, server RNG seeded with
/// `server_seed`): uploads the key frame and the phases' ciphertext
/// frames, and returns every phase's response decrypted to all `N` slots.
/// A Server-Garbler session opens with the client's base-OT setup and
/// answers it before the linear pass, so that exchange comes first there.
fn linear_responses(
    s: &Setup,
    cfg: &ProtocolConfig,
    pre: &pi_core::ServerPrecomp,
    secret: &pi_he::SecretKey,
    (keys, uploads): (&std::sync::Arc<Vec<u8>>, &[Vec<u8>]),
    server_seed: u64,
) -> Vec<Vec<u64>> {
    use pi_core::msg::Msg;
    let enc = pi_he::BatchEncoder::new(&s.he);
    let (client, server) = pi_core::channel::local_pair();
    std::thread::scope(|scope| {
        // The server stops with a channel error once the client hangs up
        // after the linear responses; only they are under test.
        scope.spawn(|| {
            let rng = rand::rngs::StdRng::seed_from_u64(server_seed);
            let _ = pi_core::serve::session::drive_sync(&s.model, pre, cfg, &server, rng);
        });
        let Ok(Msg::KeyStatus { .. }) = client.recv() else {
            panic!("no KeyStatus");
        };
        if cfg.kind == ProtocolKind::ServerGarbler {
            let mut rng = rand::rngs::StdRng::seed_from_u64(server_seed + 1);
            let (_, setup) = pi_ot::BaseOtSender::new(&mut rng);
            client.send(Msg::OtBaseSetup(setup)).expect("base-OT setup");
            let Ok(Msg::OtBaseChoice(_)) = client.recv() else {
                panic!("no base-OT choice");
            };
        }
        client.send(Msg::HeKeys(keys.clone())).expect("upload");
        for frame in uploads {
            client.send(Msg::HeCts(frame.clone())).expect("upload");
        }
        let responses = (s.model.phases.iter())
            .map(|_| {
                let Ok(Msg::HeCts(frame)) = client.recv() else {
                    panic!("no linear response");
                };
                let ct = pi_he::ciphertext_from_bytes(&frame, &s.he).expect("frame");
                enc.decode(&secret.decrypt_switched(&ct))
            })
            .collect();
        drop(client);
        responses
    })
}

/// A response leaks nothing but `W·r − s`: against real server sessions
/// (both garbler kinds; `tiny_resnet`: padded dims 64 to 256, two-input
/// phases, every block a replica; `tiny_cnn`, whose 16-wide phase has 16
/// replica blocks and 112 spare ones) the client uploads the model's key
/// plan and each phase's `r_cat` in the replicated layout, and decrypts all
/// `N` slots of every response. The unmasked product is recomputed with
/// `matvec_precomputed` on the same upload, keys and diagonals, and per
/// phase:
///
/// * the fold of the response's `c` replica blocks is the client's share,
///   and the share is not `W·r`;
/// * response minus unmasked product is non-zero on the output rows of
///   every replica block and in every spare block;
/// * that difference, the mask, folds to exactly what the share differs
///   from `W·r` by;
/// * a second request with the same upload gets a different mask.
#[test]
fn every_replica_block_of_a_response_is_masked() {
    use pi_core::{ModelMeta, ServerPrecomp};
    use pi_he::linalg::{encode_input, fold_replicas, matvec_precomputed, PlainMatrix};
    use pi_he::{BatchEncoder, SecretKey};

    for spec in [zoo::tiny_resnet(), zoo::tiny_cnn()] {
        let s = setup(&spec, 800);
        let meta = ModelMeta::of(&s.model);
        let enc = BatchEncoder::new(&s.he);
        let (p, n) = (s.model.p, s.he.n());
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(&a, &b)| p.sub(a, b)).collect()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(802);
        let secret = SecretKey::generate(&s.he, &mut rng);
        let plan = meta.key_plan(&s.he);
        let keys = std::sync::Arc::new(pi_he::galois_keys_frame(&secret, &plan, &mut rng));
        let galois = pi_he::galois_keys_from_bytes(&keys, &s.he).expect("own frame");
        let r_cats: Vec<Vec<u64>> = (meta.phases.iter())
            .map(|ph| (0..ph.cols).map(|_| rng.gen_range(0..p.value())).collect())
            .collect();
        let uploads: Vec<Vec<u8>> = (meta.phases.iter().zip(&r_cats))
            .map(|(ph, r)| {
                let input = encode_input(&enc, r, ph.padded_dim);
                let (ct, seed) = secret.encrypt_seeded(&input, &mut rng);
                pi_he::ciphertext_to_bytes_seeded(&ct, &seed)
            })
            .collect();
        for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
            let cfg = match kind {
                ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(s.he.clone()),
                ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(s.he.clone(), 2),
            };
            let pre = ServerPrecomp::new(&s.model, &cfg);
            let diagonals = pre.diagonals.as_ref().expect("HE mode has diagonals");
            let unmasked: Vec<Vec<u64>> = (uploads.iter().zip(diagonals))
                .map(|(upload, w)| {
                    let ct = pi_he::ciphertext_from_bytes(upload, &s.he).expect("own frame");
                    enc.decode(&secret.decrypt(&matvec_precomputed(&galois, w, &ct)))
                })
                .collect();
            let masks = [801, 803].map(|server_seed| {
                let frames = (&keys, &uploads[..]);
                let responses = linear_responses(&s, &cfg, &pre, &secret, frames, server_seed);
                let mut masks = Vec::new();
                for (i, ph) in meta.phases.iter().enumerate() {
                    let (d, rows) = (ph.padded_dim, ph.rows);
                    let c = (n / d).min(d);
                    let at = format!("{}, {kind:?}, phase {i} (d = {d}, c = {c})", spec.name);
                    let share = fold_replicas(&responses[i], d, rows, p);
                    let w = PlainMatrix::new(rows, ph.cols, &s.model.phases[i].matrix, p);
                    let wr = w.matvec_plain(&r_cats[i], p);
                    assert_ne!(share, wr, "{at}: the share must be masked");
                    let mask = sub(&responses[i], &unmasked[i]);
                    for block in 0..n / d {
                        // A replica block's output rows, or a whole spare block.
                        let covered = if block < c { rows } else { d };
                        let words = &mask[block * d..block * d + covered];
                        assert!(
                            words.iter().any(|&x| x != 0),
                            "{at}: block {block} unmasked"
                        );
                    }
                    assert_eq!(
                        fold_replicas(&mask, d, rows, p),
                        sub(&share, &wr),
                        "{at}: the mask's fold is not what the share differs from W·r by"
                    );
                    masks.push(mask);
                }
                masks
            });
            for (i, (a, b)) in masks[0].iter().zip(&masks[1]).enumerate() {
                assert_ne!(a, b, "{kind:?}: phase {i} reused its mask across requests");
            }
        }
    }
}

/// Residual networks (two-input phases) through the full stack.
#[test]
fn residual_network_he_end_to_end() {
    let spec = zoo::tiny_resnet();
    let s = setup(&spec, 200);
    let input_f = random_input_f(s.model.input_len, 201);
    let input = s.fx.quantize_vec(&input_f);
    let cfg = ProtocolConfig::client_garbler(s.he.clone(), 4);
    let (out, _) = private_inference(&s.model, &input, &cfg);
    assert_eq!(out, s.qnet.forward_fixed(&input));
}

/// Pooling networks (divisor folding) through the full stack.
#[test]
fn pooling_network_he_end_to_end() {
    let spec = zoo::tiny_cnn_pool();
    let s = setup(&spec, 300);
    let input_f = random_input_f(s.model.input_len, 301);
    let input = s.fx.quantize_vec(&input_f);
    let cfg = ProtocolConfig::server_garbler(s.he.clone());
    let (out, _) = private_inference(&s.model, &input, &cfg);
    assert_eq!(out, s.qnet.forward_fixed(&input));
}

/// Different inputs through one model: protocols are reusable and the
/// randomness is fresh per inference (outputs differ where they should).
/// Uses the precomputed-server API to assert the per-model precomputation
/// really is inference-independent.
#[test]
fn multiple_inferences_same_model() {
    let spec = zoo::tiny_cnn();
    let s = setup(&spec, 400);
    let cfg = ProtocolConfig::clear(ProtocolKind::ClientGarbler);
    let pre = pi_core::ServerPrecomp::new(&s.model, &cfg);
    for seed in 0..4u64 {
        let input_f = random_input_f(s.model.input_len, 500 + seed);
        let input = s.fx.quantize_vec(&input_f);
        let (out, _) = pi_core::private_inference_precomputed(&s.model, &pre, &input, &cfg);
        assert_eq!(out, s.qnet.forward_fixed(&input), "inference {seed}");
    }
}

/// HE-mode inference reuse: one `ServerPrecomp` (encoded Shoup diagonals)
/// serves several inferences with fresh client keys each time, matching the
/// fixed-point reference bit-exactly.
#[test]
fn he_precomputed_diagonals_reused_across_inferences() {
    let spec = zoo::tiny_cnn();
    let s = setup(&spec, 410);
    let cfg = ProtocolConfig::client_garbler(s.he.clone(), 2);
    let pre = pi_core::ServerPrecomp::new(&s.model, &cfg);
    for seed in 0..2u64 {
        let input_f = random_input_f(s.model.input_len, 520 + seed);
        let input = s.fx.quantize_vec(&input_f);
        let (out, _) = pi_core::private_inference_precomputed(&s.model, &pre, &input, &cfg);
        assert_eq!(out, s.qnet.forward_fixed(&input), "HE inference {seed}");
    }
}

/// Negative-heavy inputs exercise the sign logic in the garbled ReLU.
#[test]
fn all_negative_input_clamps_correctly() {
    let spec = zoo::tiny_cnn();
    let s = setup(&spec, 600);
    let input: Vec<u64> = (0..s.model.input_len)
        .map(|i| s.fx.p.from_signed(-((i % 30) as i64 + 1)))
        .collect();
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let (out, _) = private_inference(&s.model, &input, &cfg);
    assert_eq!(out, s.qnet.forward_fixed(&input));
}

/// Zero input is the degenerate path (everything masked by pure
/// randomness).
#[test]
fn zero_input_works() {
    let spec = zoo::tiny_cnn();
    let s = setup(&spec, 700);
    let input = vec![0u64; s.model.input_len];
    let cfg = ProtocolConfig::clear(ProtocolKind::ClientGarbler);
    let (out, _) = private_inference(&s.model, &input, &cfg);
    assert_eq!(out, s.qnet.forward_fixed(&input));
}
