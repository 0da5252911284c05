//! End-to-end protocol benchmarks on a tiny CNN: both garblers in
//! cleartext linear mode, so the GC/OT paths dominate (a per-ReLU protocol
//! cost probe), and Server-Garbler over HE, where the client's base-OT
//! transfer runs beside the server's HE pass.

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
    for (name, cfg) in [
        (
            "server_garbler_clear",
            ProtocolConfig::clear(ProtocolKind::ServerGarbler),
        ),
        (
            "client_garbler_clear",
            ProtocolConfig::clear(ProtocolKind::ClientGarbler),
        ),
        (
            "server_garbler_he",
            ProtocolConfig::server_garbler(BfvParams::small_test()),
        ),
    ] {
        kernel(&format!("protocol_tiny_cnn/{name}"), 10, || {
            private_inference(&model, &input, &cfg)
        });
    }
}
