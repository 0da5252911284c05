//! Hybrid private-inference protocols — the paper's core system.
//!
//! End-to-end two-party private inference in the DELPHI family over the
//! substrates in this workspace. Each party is written once and plays
//! either [`ProtocolKind`]: **Server-Garbler**, the baseline (§2.2: the
//! server garbles, the client stores and evaluates the ReLU circuits), or
//! **Client-Garbler**, the paper's §5.1 optimization (roles reversed:
//! storage and online GC evaluation move to the server, the label OT moves
//! online). Each party is one `async` body that receives through a
//! [`channel::Peer`]. The client's is [`ServiceClient::session`], which
//! [`ServiceClient::run`] polls over a blocking channel; the server's
//! ([`serve::session`]) is what [`serve::session::drive_sync`] polls over
//! a blocking channel and [`ServeRuntime`] polls, concurrently, from a
//! session's inbox. The garbler / evaluator / base-OT steps both perform
//! live in `role.rs`. Around them:
//!
//! * layer-parallel HE (§5.2): each server session computes its own
//!   offline matvecs, `ProtocolConfig::lphe_threads` at once, under either
//!   driver. The split is [`pi_trace::par::map_ranges`], the one
//!   data-parallel helper, which also puts a cold request's base OT,
//!   rotation-key generation and key admission, and every large ReLU
//!   phase's garbling, GC evaluation and OT extension, on the host's
//!   cores; every count a split makes reaches the request's report;
//! * HE rotation keys that are the model's key plan
//!   ([`ModelMeta::key_plan`]: a sorted list of Galois elements, one
//!   `pi-he` key over `q·P` each) and nothing else — the client uploads
//!   that list's frame, the server admits no other, both cache by it;
//! * exact communication/storage accounting on byte-counting channels
//!   ([`channel`]), feeding the wireless-slot-allocation analysis (§5.3)
//!   in `pi-sim`;
//! * typed errors ([`ProtocolError`]): nothing a peer sends — or fails to
//!   send — panics a party.
//!
//! Both protocols produce outputs that are **bit-exact** with the
//! plaintext fixed-point reference ([`pi_nn::QuantNetwork::forward_fixed`]).
//!
//! # Example
//!
//! ```no_run
//! use pi_core::{private_inference, ProtocolConfig, ProtocolKind};
//! use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
//! use rand::SeedableRng;
//!
//! let he = pi_he::BfvParams::small_test();
//! let fx = FixedConfig { p: he.t(), f: 5 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
//! let model = PiModel::lower(&QuantNetwork::quantize(&net, fx));
//!
//! let input = vec![0u64; model.input_len];
//! let cfg = ProtocolConfig::client_garbler(he, 4);
//! let (output, report) = private_inference(&model, &input, &cfg);
//! assert_eq!(output, model.forward(&input));
//! println!("offline download: {} bytes", report.offline.download_bytes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod client;
pub mod common;
pub mod error;
pub mod msg;
pub mod report;
mod role;
pub mod serve;

pub use channel::ChannelError;
pub use client::ServiceClient;
pub use common::{
    LinearMode, ModelMeta, PartyOutcome, ProtocolConfig, ProtocolKind, ServerPrecomp,
};
pub use error::ProtocolError;
pub use report::{merge_cost_report, CostReport, SideCosts};
pub use serve::{ClientConn, ServeConfig, ServeRuntime, SessionHandle, TableStats};

use pi_nn::PiModel;
use rand::SeedableRng;

/// Runs a full private inference with both parties in process (one thread
/// each), returning the client's output and the merged cost report.
///
/// # Panics
///
/// Panics on protocol violations (mismatched configuration, wrong input
/// length) — these are programming errors in a two-party deployment.
pub fn private_inference(
    model: &PiModel,
    input: &[u64],
    cfg: &ProtocolConfig,
) -> (Vec<u64>, CostReport) {
    let pre = ServerPrecomp::new(model, cfg);
    private_inference_precomputed(model, &pre, input, cfg)
}

/// Like [`private_inference`], but reuses the server's per-model
/// precomputation ([`ServerPrecomp`]: in HE mode the phase matrices'
/// Shoup-form encoded diagonals, their encoder and the key plan; nothing in
/// cleartext mode). Build the
/// precomputation once per served model — it depends only on the weights
/// and protocol config, not on any client's keys — and amortize it across
/// every inference and client.
///
/// # Panics
///
/// Panics under the same conditions as [`private_inference`].
pub fn private_inference_precomputed(
    model: &PiModel,
    pre: &ServerPrecomp,
    input: &[u64],
    cfg: &ProtocolConfig,
) -> (Vec<u64>, CostReport) {
    let meta = ModelMeta::of(model);
    let (chan_c, chan_s) = channel::local_pair();
    let (client_seed, server_seed) = cfg.seeds;
    // Each party owns its channel end, so one that fails hangs up instead
    // of leaving the other blocked on a receive.
    let (client, server) = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let rng = rand::rngs::StdRng::seed_from_u64(server_seed);
            serve::session::drive_sync(model, pre, cfg, &chan_s, rng)
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(client_seed);
        let client = ServiceClient::new().run(&meta, input, cfg, &chan_c, &mut rng);
        drop(chan_c);
        (client, server.join().expect("server thread must not panic"))
    });
    let (output, client_out) = client.expect("client-side protocol failure");
    let server_out = server.expect("server-side protocol failure");
    (
        output,
        merge_cost_report(&client_out, &server_out, model.total_relus() as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_he::BfvParams;
    use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
    use rand::{Rng, SeedableRng};

    fn build_model(spec: &pi_nn::NetSpec, he: &BfvParams, seed: u64) -> PiModel {
        let fx = FixedConfig { p: he.t(), f: 5 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::materialize(spec, &mut rng);
        PiModel::lower(&QuantNetwork::quantize(&net, fx))
    }

    fn random_input(model: &PiModel, seed: u64) -> Vec<u64> {
        // Small-magnitude fixed-point inputs (|x| < 1).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = 1u64 << model.f;
        (0..model.input_len)
            .map(|_| {
                let v: i64 = rng.gen_range(-(f as i64)..=f as i64);
                model.p.from_signed(v)
            })
            .collect()
    }

    fn check_protocol(cfg: &ProtocolConfig, spec: &pi_nn::NetSpec, he: &BfvParams) {
        let model = build_model(spec, he, 11);
        let input = random_input(&model, 22);
        let expect = model.forward(&input);
        let (got, report) = private_inference(&model, &input, cfg);
        assert_eq!(
            got, expect,
            "private output must equal fixed-point reference"
        );
        assert!(report.offline.download_bytes > 0);
        assert!(report.online.total_bytes() > 0);
        assert!(report.relu_count > 0);
    }

    #[test]
    fn server_garbler_clear_tiny_cnn() {
        check_protocol(
            &ProtocolConfig::clear(ProtocolKind::ServerGarbler),
            &zoo::tiny_cnn(),
            &BfvParams::small_test(),
        );
    }

    #[test]
    fn client_garbler_clear_tiny_cnn() {
        check_protocol(
            &ProtocolConfig::clear(ProtocolKind::ClientGarbler),
            &zoo::tiny_cnn(),
            &BfvParams::small_test(),
        );
    }

    #[test]
    fn server_garbler_clear_residual() {
        check_protocol(
            &ProtocolConfig::clear(ProtocolKind::ServerGarbler),
            &zoo::tiny_resnet(),
            &BfvParams::small_test(),
        );
    }

    #[test]
    fn client_garbler_clear_pooling() {
        check_protocol(
            &ProtocolConfig::clear(ProtocolKind::ClientGarbler),
            &zoo::tiny_cnn_pool(),
            &BfvParams::small_test(),
        );
    }

    #[test]
    fn server_garbler_he_tiny_cnn() {
        let he = BfvParams::small_test();
        check_protocol(
            &ProtocolConfig::server_garbler(he.clone()),
            &zoo::tiny_cnn(),
            &he,
        );
    }

    #[test]
    fn client_garbler_he_tiny_cnn_lphe() {
        let he = BfvParams::small_test();
        check_protocol(
            &ProtocolConfig::client_garbler(he.clone(), 4),
            &zoo::tiny_cnn(),
            &he,
        );
    }

    #[test]
    fn bsgs_key_set_shrinks_offline_key_material() {
        // HE mode reports the Galois key material actually uploaded: the
        // model's key plan, the replicated schedule's rotations for every
        // dim and nothing else. For tiny_cnn (padded dims {128, 128, 16})
        // at n = 2048 the plan is d = 128's babies 1, 2 and giants 3, 6
        // (the 16-wide layer takes one diagonal per replica and no
        // rotation): 4 keys where one per rotation would be 127.
        let he = BfvParams::small_test();
        let model = build_model(&zoo::tiny_cnn(), &he, 31);
        let input = random_input(&model, 32);
        let (_, report) = private_inference(&model, &input, &ProtocolConfig::server_garbler(he));
        // 4 keys on the wire, each 4 + 2·(15 872 + 10 240) bytes at
        // n = 2048 (two digits, 62-bit and 40-bit residues), after a
        // 62-byte preamble.
        assert_eq!(report.galois_key_bytes, 62 + 4 * 52_228);
        // Clear mode reports no HE key material.
        let (_, clear) = private_inference(
            &model,
            &input,
            &ProtocolConfig::clear(ProtocolKind::ServerGarbler),
        );
        assert_eq!(clear.galois_key_bytes, 0);
    }

    #[test]
    fn client_garbler_moves_storage_to_server() {
        let spec = zoo::tiny_cnn();
        let he = BfvParams::small_test();
        let model = build_model(&spec, &he, 5);
        let input = random_input(&model, 6);
        let (_, sg) = private_inference(
            &model,
            &input,
            &ProtocolConfig::clear(ProtocolKind::ServerGarbler),
        );
        let (_, cg) = private_inference(
            &model,
            &input,
            &ProtocolConfig::clear(ProtocolKind::ClientGarbler),
        );
        assert!(
            cg.client_storage_bytes < sg.client_storage_bytes / 2,
            "client-garbler must relieve client storage: SG={} CG={}",
            sg.client_storage_bytes,
            cg.client_storage_bytes
        );
        assert!(
            cg.server_storage_bytes > sg.server_storage_bytes,
            "storage must move to the server"
        );
        // Client-Garbler moves OT online: online comms grow.
        assert!(cg.online.total_bytes() > sg.online.total_bytes());
        // Offline GC bytes flow in opposite directions.
        assert!(sg.offline.download_bytes > sg.offline.upload_bytes);
        assert!(cg.offline.upload_bytes > cg.offline.download_bytes);
    }

    #[test]
    fn lphe_preserves_results() {
        let he = BfvParams::small_test();
        let model = build_model(&zoo::tiny_cnn(), &he, 7);
        let input = random_input(&model, 8);
        let mut seq = ProtocolConfig::client_garbler(he.clone(), 1);
        seq.seeds = (3, 4);
        let mut par = ProtocolConfig::client_garbler(he, 4);
        par.seeds = (3, 4);
        let (out_seq, _) = private_inference(&model, &input, &seq);
        let (out_par, _) = private_inference(&model, &input, &par);
        assert_eq!(
            out_seq, out_par,
            "LPHE is a scheduling change, not a semantic one"
        );
    }

    #[test]
    fn storage_per_relu_in_plausible_band() {
        // Our 20-bit field gives a smaller per-ReLU GC than the paper's
        // 41-bit DELPHI field; the ratio GC-bytes/ReLU must still be in the
        // right order of magnitude (KBs) and the evaluator-side storage must
        // exceed the garbler-side encodings substantially.
        let he = BfvParams::small_test();
        let model = build_model(&zoo::tiny_cnn(), &he, 9);
        let input = random_input(&model, 10);
        let (_, sg) = private_inference(
            &model,
            &input,
            &ProtocolConfig::clear(ProtocolKind::ServerGarbler),
        );
        let per_relu = sg.gc_bytes as f64 / sg.relu_count as f64;
        assert!(
            (1_000.0..20_000.0).contains(&per_relu),
            "GC bytes per ReLU = {per_relu}"
        );
    }
}
