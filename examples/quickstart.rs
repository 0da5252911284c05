//! Quickstart: one private inference, end to end.
//!
//! Builds a small CNN, quantizes it into the protocol field, and runs the
//! paper's proposed protocol (Client-Garbler + layer-parallel HE) with real
//! BFV homomorphic encryption, garbled circuits, and oblivious transfer —
//! then checks the private result against plaintext inference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pi_core::{private_inference, ProtocolConfig};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork, Tensor};
use rand::{Rng, SeedableRng};

fn main() {
    // 1. Pick HE parameters; the plaintext modulus becomes the protocol
    //    field that activations/weights are quantized into.
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 5 };
    println!(
        "field p = {} ({} bits), {} fractional bits",
        fx.p,
        fx.p.bits(),
        fx.f
    );

    // 2. Build a network (the server's proprietary model).
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let spec = zoo::tiny_cnn();
    let net = Network::materialize(&spec, &mut rng);
    let qnet = QuantNetwork::quantize(&net, fx);
    let model = PiModel::lower(&qnet);
    println!(
        "network: {} ({} linear phases, {} garbled ReLUs)",
        spec.name,
        model.phases.len(),
        model.total_relus()
    );

    // 3. The client's private input.
    let input_f: Vec<f64> = (0..model.input_len)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let input = fx.quantize_vec(&input_f);

    // 4. Run the two-party protocol (client and server threads, real
    //    crypto, byte-counted channels).
    let cfg = ProtocolConfig::client_garbler(he, 4);
    let (output, report) = private_inference(&model, &input, &cfg);

    // 5. Verify: bit-exact with the fixed-point reference, close to f64.
    assert_eq!(
        output,
        qnet.forward_fixed(&input),
        "private != plaintext fixed-point"
    );
    let plain = net.forward(&Tensor::from_vec(&spec.input, input_f));
    println!("\nlogits (private vs f64):");
    for (i, (&q, &f)) in output.iter().zip(plain.data()).enumerate() {
        println!("  class {i}: {:+.4} vs {f:+.4}", fx.dequantize(q, 2 * fx.f));
    }

    println!("\ncosts:");
    // Phase times are the trace's span totals: "n/a" = tracing below
    // PI_TRACE=full.
    let ms = |span: &str| {
        let total = report.trace.span_total_ms(span);
        total.map_or_else(|| "n/a".to_string(), |v| format!("{v:.0} ms"))
    };
    println!(
        "  offline: {} B up, {} B down, HE {}, garble {}, OT {}",
        report.offline.upload_bytes,
        report.offline.download_bytes,
        ms("offline.he"),
        ms("offline.garble"),
        ms("offline.ot")
    );
    println!(
        "  online:  {} B up, {} B down, eval {}",
        report.online.upload_bytes,
        report.online.download_bytes,
        ms("online.eval")
    );
    println!(
        "  storage: client {} B, server {} B ({} ReLUs, {:.1} KB of GC per ReLU)",
        report.client_storage_bytes,
        report.server_storage_bytes,
        report.relu_count,
        report.gc_bytes as f64 / report.relu_count as f64 / 1e3
    );
    println!("\nprivate inference OK");
}
