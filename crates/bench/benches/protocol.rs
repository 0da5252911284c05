//! End-to-end protocol benchmarks on a tiny CNN (cleartext linear mode so
//! the GC/OT paths dominate, as a per-ReLU protocol cost probe).

use pi_bench::kernel;
use pi_core::{private_inference, ProtocolConfig, ProtocolKind};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use rand::SeedableRng;

fn model() -> PiModel {
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
    PiModel::lower(&QuantNetwork::quantize(&net, fx))
}

fn main() {
    let model = model();
    let input = vec![0u64; model.input_len];
    for (name, kind) in [
        ("server_garbler_clear", ProtocolKind::ServerGarbler),
        ("client_garbler_clear", ProtocolKind::ClientGarbler),
    ] {
        kernel(&format!("protocol_tiny_cnn/{name}"), 10, || {
            private_inference(&model, &input, &ProtocolConfig::clear(kind))
        });
    }
}
