//! Server-Garbler vs Client-Garbler, measured on real crypto.
//!
//! Runs both protocols on the same residual network and compares the
//! measured communication, storage, and per-primitive compute — the
//! small-scale analogue of the paper's §5.1 analysis (storage moves to the
//! server, OT moves online, online GC evaluation moves to the fast party).
//!
//! Timing rows come from `pi-trace` spans, so they print `n/a` when run
//! with `PI_TRACE` below `full`. The tail closes the simulator loop: it
//! derives per-ReLU calibration rates from the measured trace
//! (`pi_sim::calib::from_trace`) next to the paper's published constants,
//! and dumps the Client-Garbler trace as JSON (what CI greps for the
//! expected span names).
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

use pi_core::{private_inference, CostReport, ProtocolConfig, ProtocolKind};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use rand::{Rng, SeedableRng};

fn run(model: &PiModel, input: &[u64], kind: ProtocolKind, he: BfvParams) -> CostReport {
    let cfg = match kind {
        ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(he),
        ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(he, 4),
    };
    let (out, report) = private_inference(model, input, &cfg);
    assert_eq!(out, model.forward(input), "correctness check");
    report
}

fn main() {
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let spec = zoo::tiny_resnet();
    let net = Network::materialize(&spec, &mut rng);
    let model = PiModel::lower(&QuantNetwork::quantize(&net, fx));
    let input: Vec<u64> = (0..model.input_len)
        .map(|_| fx.p.from_signed(rng.gen_range(-32..=32)))
        .collect();

    println!("network: {} ({} ReLUs)\n", spec.name, model.total_relus());
    let sg = run(&model, &input, ProtocolKind::ServerGarbler, he.clone());
    let cg = run(&model, &input, ProtocolKind::ClientGarbler, he);

    let row = |name: &str, a: f64, b: f64, unit: &str| {
        println!("{name:<28} {a:>12.1} {b:>12.1}  {unit}");
    };
    println!("{:<28} {:>12} {:>12}", "", "Server-Garb.", "Client-Garb.");
    row(
        "client storage",
        sg.client_storage_bytes as f64 / 1e3,
        cg.client_storage_bytes as f64 / 1e3,
        "KB",
    );
    row(
        "server storage",
        sg.server_storage_bytes as f64 / 1e3,
        cg.server_storage_bytes as f64 / 1e3,
        "KB",
    );
    row(
        "offline upload",
        sg.offline.upload_bytes as f64 / 1e3,
        cg.offline.upload_bytes as f64 / 1e3,
        "KB",
    );
    row(
        "offline download",
        sg.offline.download_bytes as f64 / 1e3,
        cg.offline.download_bytes as f64 / 1e3,
        "KB",
    );
    row(
        "online bytes (both ways)",
        sg.online.total_bytes() as f64 / 1e3,
        cg.online.total_bytes() as f64 / 1e3,
        "KB",
    );
    // Phase times are the trace's span totals: `n/a` = not measured
    // (PI_TRACE below `full`), never a fake zero.
    let ms = |r: &CostReport, span: &str| {
        let total = r.trace.span_total_ms(span);
        total.map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}"))
    };
    for (name, span) in [
        ("offline garbling", "offline.garble"),
        ("online GC evaluation", "online.eval"),
        ("online OT", "online.ot"),
    ] {
        println!("{name:<28} {:>12} {:>12}  ms", ms(&sg, span), ms(&cg, span));
    }

    // ---- Simulator calibration: the paper's constants vs this run ----
    // `from_trace` derives the simulator's per-unit rates from the
    // measured Client-Garbler trace: the one place a rate is derived from
    // it. The scales differ (DELPHI's 41-bit field on server silicon vs our
    // small test field), so the columns are not expected to agree.
    // No cost model reads such a calibration yet: `pi_sim::cost` runs on
    // the paper's constants.
    let paper = pi_sim::calib::Calibration::paper();
    let measured = pi_sim::calib::from_trace(&cg.trace);
    println!();
    println!("simulator calibration (client-garbler run):");
    println!(
        "{:<28} {:>14} {:>14}",
        "",
        paper.source.label(),
        measured.source.label()
    );
    let calib_row = |name: &str, a: Option<f64>, b: Option<f64>, scale: f64, unit: &str| {
        let f =
            |x: Option<f64>| x.map_or_else(|| "n/a".to_string(), |v| format!("{:.3}", v / scale));
        println!("{name:<28} {:>14} {:>14}  {unit}", f(a), f(b));
    };
    calib_row(
        "garble time per ReLU",
        paper.garble_s_per_relu,
        measured.garble_s_per_relu,
        1e-6,
        "µs",
    );
    calib_row(
        "eval time per ReLU",
        paper.eval_s_per_relu,
        measured.eval_s_per_relu,
        1e-6,
        "µs",
    );
    calib_row(
        "time per extended OT",
        paper.ot_s_per_ot,
        measured.ot_s_per_ot,
        1e-6,
        "µs",
    );
    calib_row(
        "GC bytes per ReLU",
        paper.gc_bytes_per_relu,
        measured.gc_bytes_per_relu,
        1e3,
        "KB",
    );
    calib_row(
        "wire bytes per ReLU",
        paper.wire_bytes_per_relu,
        measured.wire_bytes_per_relu,
        1e3,
        "KB",
    );

    println!();
    println!("trace (client-garbler, JSON):");
    println!("{}", cg.trace.to_json());

    println!();
    println!(
        "client storage reduction: {:.1}x (the paper's Figure 8 shows ~5x at scale,",
        sg.client_storage_bytes as f64 / cg.client_storage_bytes as f64
    );
    println!("where the 18.2 KB/ReLU circuits dominate the fixed-size share vectors)");
    println!("note the direction flip: SG downloads its GCs, CG uploads them; CG pays OT online.");
}
