//! Figure 5 companion: protocol communication under the real wire format.
//!
//! Runs private inference end to end and compares the bytes that actually
//! cross the byte-counting channels — seed-expanded keys/ciphertexts,
//! `ceil(log2 q)`-bit packed coefficients, modulus-down-switched responses
//! — against what the same transcript would have cost under the legacy
//! flat-u64 encoding (8 bytes per coefficient, uniform halves shipped in
//! full). The baseline is measured here, not carried by the protocol: a
//! relay sits between the two parties and sums [`pi_he::flat_frame_len`]
//! over every HE frame it forwards.
//!
//! Two workloads:
//!
//! * `linear-stack` — an HE-only model (no garbled ReLUs), isolating the
//!   wire-format savings on the HE transcript itself. This is the ≥2×
//!   acceptance gate: key upload halves via seed expansion, every packed
//!   coefficient drops 64 → `bits(q)` bits, and responses shrink further
//!   via the modulus down-switch.
//! * `tiny-cnn` — the full hybrid protocol, where unchanged GC/OT bytes
//!   dilute the HE savings; reported for context.
//!
//! Emits greppable `csv,wire_bytes,...` lines and **exits nonzero** if the
//! HE-only ratio regresses below 2×.
//!
//! ```text
//! cargo run --release --example fig05_comm_bandwidth
//! ```

use pi_core::channel::{local_pair, Channel};
use pi_core::msg::Msg;
use pi_core::serve::session::drive_sync;
use pi_core::{
    merge_cost_report, CostReport, ModelMeta, ProtocolConfig, ServerPrecomp, ServiceClient,
};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, NetSpec, Network, PiModel, QuantNetwork, SpecOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What `m` would have cost with its HE frames in the flat-u64 encoding
/// (every other message costs what it costs).
fn flat_len(m: &Msg) -> u64 {
    let flat = |f: &Vec<u8>| pi_he::flat_frame_len(f).expect("relayed HE frame parses");
    let len = match m {
        Msg::HeKeys(gk) => 8 + flat(gk),
        Msg::HeCts(frame) => 8 + flat(frame),
        other => other.byte_len(),
    };
    len as u64
}

/// Forwards messages from `from` to `to` until either side hangs up and
/// returns their flat-baseline size.
fn relay(from: &Channel, to: &Channel) -> u64 {
    let mut flat = 0;
    while let Ok(m) = from.recv() {
        flat += flat_len(&m);
        if to.send(m).is_err() {
            break;
        }
    }
    flat
}

/// Runs one inference with a relay between the parties; returns the cost
/// report and the transcript's flat-u64 baseline in bytes.
fn run_model(spec: &NetSpec, he: BfvParams) -> (CostReport, u64) {
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = StdRng::seed_from_u64(7);
    let net = Network::materialize(spec, &mut rng);
    let qnet = QuantNetwork::quantize(&net, fx);
    let model = PiModel::lower(&qnet);
    let input_f: Vec<f64> = (0..model.input_len)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let input = fx.quantize_vec(&input_f);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let pre = ServerPrecomp::new(&model, &cfg);
    let meta = ModelMeta::of(&model);
    let (c_chan, c_peer) = local_pair();
    let (s_peer, s_chan) = local_pair();
    let (client, server, flat) = std::thread::scope(|scope| {
        let up = scope.spawn(|| relay(&c_peer, &s_peer));
        let down = scope.spawn(|| relay(&s_peer, &c_peer));
        // The parties own their channel ends: dropping them on completion
        // is what ends the relays.
        let client = scope.spawn(|| {
            let c_chan = c_chan;
            let mut rng = StdRng::seed_from_u64(cfg.seeds.0);
            ServiceClient::new().run(&meta, &input, &cfg, &c_chan, &mut rng)
        });
        let server = scope.spawn(|| {
            let s_chan = s_chan;
            drive_sync(
                &model,
                &pre,
                &cfg,
                &s_chan,
                StdRng::seed_from_u64(cfg.seeds.1),
            )
        });
        let client = client.join().expect("client thread");
        let server = server.join().expect("server thread");
        let flat = up.join().expect("up relay") + down.join().expect("down relay");
        (client, server, flat)
    });
    let (output, client_out) = client.expect("client run");
    let server_out = server.expect("server run");
    assert_eq!(
        output,
        qnet.forward_fixed(&input),
        "private inference diverged from the fixed-point reference"
    );
    let relus = model.total_relus() as u64;
    (merge_cost_report(&client_out, &server_out, relus), flat)
}

fn emit(name: &str, (report, flat): &(CostReport, u64)) -> f64 {
    let total = report.offline.total_bytes() + report.online.total_bytes();
    let flat = *flat;
    let ratio = flat as f64 / total as f64;
    println!(
        "csv,wire_bytes,model={name},offline_up={},offline_down={},online_up={},online_down={},total={total},flat={flat},ratio={ratio:.3}",
        report.offline.upload_bytes,
        report.offline.download_bytes,
        report.online.upload_bytes,
        report.online.download_bytes,
    );
    println!(
        "  {name}: {:.1} KB on the wire vs {:.1} KB flat ({ratio:.2}x), galois keys {:.1} KB",
        total as f64 / 1e3,
        flat as f64 / 1e3,
        report.galois_key_bytes as f64 / 1e3,
    );
    ratio
}

fn main() {
    // HE-only workload: one dense layer, no ReLUs, so every byte on the
    // wire is key material or HE transcript.
    let linear_stack = NetSpec {
        name: "linear-stack".into(),
        input: [1, 1, 64],
        ops: vec![SpecOp::Flatten, SpecOp::Linear { out: 64 }],
    };
    let r_linear = run_model(&linear_stack, BfvParams::small_test());
    let ratio_linear = emit("linear-stack", &r_linear);

    // Full hybrid protocol for context: GC tables and OT matrices are not
    // HE frames, so the overall ratio is diluted toward 1.
    let r_cnn = run_model(&zoo::tiny_cnn(), BfvParams::small_test());
    let ratio_cnn = emit("tiny-cnn", &r_cnn);

    println!(
        "csv,wire_bytes,model=summary,seed_expansions={},ratio_linear={ratio_linear:.3},ratio_cnn={ratio_cnn:.3}",
        pi_trace::global_counter(pi_trace::Counter::WireSeedExpand),
    );

    // Acceptance gate: the HE transcript must be at least 2x smaller than
    // the flat-u64 baseline. A regression here means the wire layer started
    // shipping fat frames again.
    assert!(
        ratio_linear >= 2.0,
        "wire-format regression: HE-only ratio {ratio_linear:.3} < 2.0"
    );
    // The hybrid run still has to come out ahead.
    assert!(
        ratio_cnn > 1.0,
        "wire-format regression: hybrid ratio {ratio_cnn:.3} <= 1.0"
    );
    println!("fig05 comm bandwidth OK");
}
