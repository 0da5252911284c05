//! Serving-runtime integration tests: N-client concurrency bit-identity
//! (four client bodies on one thread among them), dropped and misbehaving
//! peers, session-table eviction under a tiny
//! byte budget, the pinned message transcripts of a first and of a
//! returning client's request (base OT once per client pair), one client
//! alternating between two models (rotation keys cached per key plan), and
//! the malformed-shape sweeps, the key upload's among them (nothing a peer
//! sends panics a party).

use pi_core::channel::{local_pair, Channel, Peer};
use pi_core::common::ClientHeKeys;
use pi_core::msg::Msg;
use pi_core::serve::session::drive_sync;
use pi_core::{
    ModelMeta, ProtocolConfig, ProtocolError, ProtocolKind, ServeConfig, ServeRuntime,
    ServiceClient,
};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, NetSpec, Network, PiModel, QuantNetwork, SpecOp};
use pi_ot::curve::Point;
use rand::{Rng, SeedableRng};
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

fn build_model(he: &BfvParams, seed: u64) -> PiModel {
    build_spec(&zoo::tiny_cnn(), he, seed)
}

fn build_spec(spec: &NetSpec, he: &BfvParams, seed: u64) -> PiModel {
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = Network::materialize(spec, &mut rng);
    PiModel::lower(&QuantNetwork::quantize(&net, fx))
}

fn random_input(model: &PiModel, seed: u64) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let f = 1u64 << model.f;
    (0..model.input_len)
        .map(|_| {
            let v: i64 = rng.gen_range(-(f as i64)..=f as i64);
            model.p.from_signed(v)
        })
        .collect()
}

/// Runs `n` concurrent clients against one registered model and checks
/// every output against the fixed-point reference — the same ground truth
/// the sequential drivers are tested against, so concurrent == sequential
/// bit-identity follows.
fn run_concurrent_clients(rt: &ServeRuntime, model: &PiModel, cfg: &ProtocolConfig, n: u64) {
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(model);
    std::thread::scope(|scope| {
        for c in 0..n {
            let meta = &meta;
            scope.spawn(move || {
                let conn = rt.connect(c, model_id, 1_000 + c);
                let input = random_input(model, 50 + c);
                let mut client = ServiceClient::new();
                let mut rng = rand::rngs::StdRng::seed_from_u64(77 + c);
                let (out, c_out) = client
                    .run(meta, &input, cfg, &conn.chan, &mut rng)
                    .expect("client protocol run");
                assert_eq!(out, model.forward(&input), "client {c} output");
                let s_out = conn.handle.wait().expect("server outcome");
                assert!(s_out.total_sent > 0);
                assert!(c_out.total_sent > 0);
            });
        }
    });
}

#[test]
fn concurrent_clients_match_reference_clear_both_kinds() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let rt = ServeRuntime::new(ServeConfig::default());
        run_concurrent_clients(&rt, &model, &ProtocolConfig::clear(kind), 4);
    }
}

/// One `ProtocolConfig` behaves the same under both drivers: each session
/// runs its own matvecs `lphe_threads` wide inside its pump, and the
/// outputs stay bit-exact at every width.
#[test]
fn concurrent_clients_match_reference_he_client_garbler() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    for lphe_threads in [1, 2] {
        let rt = ServeRuntime::new(ServeConfig::default());
        let cfg = ProtocolConfig::client_garbler(he.clone(), lphe_threads);
        run_concurrent_clients(&rt, &model, &cfg, 3);
        // Three distinct clients uploaded keys, and every session ran its
        // own matvecs.
        let what = format!("lphe_threads {lphe_threads}");
        assert_eq!(rt.key_table_stats().inserts, 3, "{what}");
    }
}

#[test]
fn concurrent_clients_match_reference_he_server_garbler() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let rt = ServeRuntime::new(ServeConfig::default());
    run_concurrent_clients(&rt, &model, &ProtocolConfig::server_garbler(he), 2);
}

/// Every runtime's pumps and every split are tasks of `pi_trace::par`'s
/// one pool: with three runtimes alive, each having served a request, and
/// a client-side split run, the process has at most `rt.workers()` pool
/// threads (`pi-pool-…`, counted in `/proc/self/task`).
#[test]
#[cfg(target_os = "linux")]
fn three_live_runtimes_share_the_pool_threads() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let runtimes: Vec<_> = (0..3)
        .map(|_| {
            let rt = ServeRuntime::new(ServeConfig::default());
            run_concurrent_clients(&rt, &model, &cfg, 1);
            rt
        })
        .collect();
    let split = pi_trace::par::with_threads(2, || pi_trace::par::map_ranges(4, 2, |r| r.len()));
    assert_eq!(split, [2, 2]);
    let tasks = std::fs::read_dir("/proc/self/task").expect("the process's threads");
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm"));
    let names = tasks.filter_map(|t| comm(t.ok()?).ok());
    let pool_threads = names.filter(|name| name.starts_with("pi-pool-")).count();
    let workers = runtimes[0].workers();
    assert!(
        pool_threads <= workers,
        "{pool_threads} pool threads for {workers} workers"
    );
}

/// Four client bodies on the test thread: each `ServiceClient::session`
/// awaits its own runtime connection through `Channel::try_recv`, so it
/// suspends while its next message is not there, and one loop polls all
/// four in turn against one runtime until every one resolves —
/// bit-exact, both garbler kinds, HE and clear.
#[test]
fn four_client_bodies_share_one_thread() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        for he in [Some(&he), None] {
            let what = format!("{kind:?}, he={}", he.is_some());
            let cfg = protocol_cfg(kind, he);
            let rt = ServeRuntime::new(ServeConfig::default());
            let model_id = rt.register_model(model.clone(), cfg.clone());
            let conns: Vec<_> = (0..4).map(|c| rt.connect(c, model_id, 4_000 + c)).collect();
            let inputs: Vec<_> = (0..4).map(|c| random_input(&model, 90 + c)).collect();
            let chans: Vec<&Channel> = conns.iter().map(|conn| &conn.chan).collect();
            let recvs: Vec<_> = (chans.iter())
                .map(|chan| move || chan.try_recv().map(|m| m.map_err(ProtocolError::from)))
                .collect();
            let mut clients: Vec<_> = (0..4).map(|_| ServiceClient::new()).collect();
            let mut rngs: Vec<_> = (0..4)
                .map(|c| rand::rngs::StdRng::seed_from_u64(95 + c))
                .collect();
            let mut bodies: Vec<_> = (clients.iter_mut().zip(&mut rngs))
                .zip(chans.iter().zip(&recvs).zip(&inputs))
                .map(|((client, rng), ((chan, recv), input))| {
                    let peer = Peer {
                        sink: chan.tx(),
                        recv,
                    };
                    Box::pin(client.session(&meta, input, &cfg, peer, rng))
                })
                .collect();
            let mut ran: Vec<_> = (0..4).map(|_| None).collect();
            let mut cx = Context::from_waker(Waker::noop());
            let deadline = Instant::now() + Duration::from_secs(60);
            while ran.iter().any(Option::is_none) {
                assert!(
                    Instant::now() < deadline,
                    "{what}: not done within a minute"
                );
                // A body that resolved is never polled again.
                for (body, ran) in bodies.iter_mut().zip(&mut ran) {
                    if ran.is_none() {
                        if let Poll::Ready(out) = body.as_mut().poll(&mut cx) {
                            *ran = Some(out);
                        }
                    }
                }
            }
            drop(bodies);
            for (c, (ran, input)) in ran.into_iter().zip(&inputs).enumerate() {
                let ran = ran.map(|r| r.map(|(out, _)| out));
                assert_eq!(ran, Some(Ok(model.forward(input))), "{what}: client {c}");
            }
            for conn in conns {
                conn.handle.wait().expect("server session");
            }
        }
    }
}

#[test]
fn dropped_client_aborts_one_session_not_the_server() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let rt = ServeRuntime::new(ServeConfig::default());
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    // The dropper connects, reads the KeyStatus preamble, and vanishes
    // mid-protocol.
    let dropper = rt.connect(0, model_id, 1);
    assert!(matches!(
        dropper.chan.recv(),
        Ok(Msg::KeyStatus { flags: 0, .. })
    ));
    drop(dropper.chan);
    assert!(matches!(
        dropper.handle.wait(),
        Err(ProtocolError::Channel(_))
    ));

    // Neighbours opened after the drop still complete.
    std::thread::scope(|scope| {
        for c in 1..3u64 {
            let (meta, cfg, rt, model) = (&meta, &cfg, &rt, &model);
            scope.spawn(move || {
                let conn = rt.connect(c, model_id, 1_000 + c);
                let input = random_input(model, 60 + c);
                let mut rng = rand::rngs::StdRng::seed_from_u64(88 + c);
                let (out, _) = ServiceClient::new()
                    .run(meta, &input, cfg, &conn.chan, &mut rng)
                    .expect("surviving client");
                assert_eq!(out, model.forward(&input));
                conn.handle.wait().expect("surviving server session");
            });
        }
    });
}

#[test]
fn misbehaving_client_gets_a_typed_error_not_a_panic() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let rt = ServeRuntime::new(ServeConfig::default());
    let model_id = rt.register_model(model.clone(), cfg);

    let conn = rt.connect(0, model_id, 1);
    assert!(matches!(conn.chan.recv(), Ok(Msg::KeyStatus { .. })));
    // A first Server-Garbler session expects the client's base-OT setup;
    // send garbage labels.
    conn.chan.send(Msg::GcLabels(Vec::new())).unwrap();
    match conn.handle.wait() {
        Err(ProtocolError::UnexpectedMsg { expected, got }) => {
            assert_eq!(expected, "OtBaseSetup");
            assert_eq!(got, "GcLabels");
        }
        other => panic!("expected UnexpectedMsg, got {other:?}"),
    }
}

#[test]
fn key_table_eviction_forces_reupload_and_stays_correct() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    // A 1-byte budget: each key insert evicts the previous client's keys.
    let rt = ServeRuntime::new(ServeConfig {
        table_budget_bytes: 1,
    });
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    let mut c0 = ServiceClient::new();
    let mut c1 = ServiceClient::new();
    let run = |c: u64, client: &mut ServiceClient, seed: u64| {
        let conn = rt.connect(c, model_id, seed);
        let input = random_input(&model, 70 + seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99 + seed);
        let (out, c_out) = client
            .run(&meta, &input, &cfg, &conn.chan, &mut rng)
            .expect("client run");
        assert_eq!(out, model.forward(&input));
        conn.handle.wait().expect("server outcome");
        c_out
    };
    let first = run(0, &mut c0, 1);
    run(1, &mut c1, 2); // evicts client 0's keys
    let again = run(0, &mut c0, 3); // miss → re-upload of the retained set
    let stats = rt.key_table_stats();
    assert!(stats.evictions >= 1, "stats: {stats:?}");
    assert_eq!(stats.inserts, 3);
    // The re-upload really happened: the offline upload is key-sized both
    // times — no skip — and it is the retained frame that went out again,
    // not a regenerated one.
    assert!(again.offline_sent > first.offline_sent / 2);
    if pi_trace::mode() == pi_trace::TraceMode::Full {
        assert!(first.trace.span_stat("he.keys_generate").is_some());
        assert!(again.trace.span_stat("he.keys_generate").is_none());
    }
    // The OT states share the one budget with the keys: each request's
    // room for its keys evicted the previous request's state, so base OT
    // ran in all three sessions.
    let ot = rt.ot_table_stats();
    assert_eq!((ot.inserts, ot.hits), (3, 0), "ot stats: {ot:?}");
    assert!(ot.evictions >= 1, "ot stats: {ot:?}");
}

/// A full key table turns over in place: with room for two key sets and a
/// new client every request, each upload from the third on evicts the
/// oldest set *before* it is decoded — into that set's memory — so the
/// table never holds more than its budget, the insert that follows finds
/// the room made, and every output is still the plaintext model's.
#[test]
fn a_full_key_table_turns_over_in_place_and_stays_correct() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he.clone(), 1);
    let meta = ModelMeta::of(&model);
    let set = pi_he::GaloisKeys::resident_byte_len_of(&he, meta.key_plan(&he).len()) as u64;
    let rt = ServeRuntime::new(ServeConfig {
        table_budget_bytes: 2 * set + set / 2,
    });
    let model_id = rt.register_model(model.clone(), cfg.clone());
    for c in 0..5u64 {
        let conn = rt.connect(c, model_id, c);
        let input = random_input(&model, 170 + c);
        let mut rng = rand::rngs::StdRng::seed_from_u64(190 + c);
        let (out, _) = ServiceClient::new()
            .run(&meta, &input, &cfg, &conn.chan, &mut rng)
            .expect("client run");
        assert_eq!(out, model.forward(&input), "client {c}");
        conn.handle.wait().expect("server outcome");
        let stats = rt.key_table_stats();
        assert_eq!(
            (stats.inserts, stats.evictions, rt.key_table_bytes()),
            (c + 1, c.saturating_sub(1), set * (c + 1).min(2)),
            "after client {c}"
        );
    }
}

/// One budget covers both kinds: with room for exactly two key sets and a
/// new client every request, the pairs' OT states are metered under the
/// same budget as the keys, so the two kinds together never exceed it and
/// every output is still the plaintext model's.
#[test]
fn one_budget_covers_keys_and_ot_state() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he.clone(), 1);
    let meta = ModelMeta::of(&model);
    let budget = 2 * pi_he::GaloisKeys::resident_byte_len_of(&he, meta.key_plan(&he).len()) as u64;
    let rt = ServeRuntime::new(ServeConfig {
        table_budget_bytes: budget,
    });
    let model_id = rt.register_model(model.clone(), cfg.clone());
    for c in 0..5u64 {
        let conn = rt.connect(c, model_id, c);
        let input = random_input(&model, 210 + c);
        let mut rng = rand::rngs::StdRng::seed_from_u64(230 + c);
        let (out, _) = ServiceClient::new()
            .run(&meta, &input, &cfg, &conn.chan, &mut rng)
            .expect("client run");
        assert_eq!(out, model.forward(&input), "client {c}");
        conn.handle.wait().expect("server outcome");
        let (keys, ot) = (rt.key_table_bytes(), rt.ot_table_bytes());
        assert!(ot > 0, "after client {c}: no OT state resident");
        assert!(
            keys + ot <= budget,
            "after client {c}: {keys} B of keys + {ot} B of OT state > {budget} B"
        );
    }
}

#[test]
fn key_table_hit_skips_the_upload() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let rt = ServeRuntime::new(ServeConfig::default());
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    let mut client = ServiceClient::new();
    let run = |seed: u64, client: &mut ServiceClient| {
        let conn = rt.connect(7, model_id, seed);
        let input = random_input(&model, 80 + seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(111 + seed);
        let (out, c_out) = client
            .run(&meta, &input, &cfg, &conn.chan, &mut rng)
            .expect("client run");
        assert_eq!(out, model.forward(&input));
        conn.handle.wait().expect("server outcome");
        c_out
    };
    let first = run(1, &mut client);
    assert!(client.has_keys());
    let second = run(2, &mut client);
    // Only the request that uploaded the key frame accounts it: the
    // frame of `pinned_transcript`'s `HeKeys`, less the message's 8-byte
    // length prefix.
    let frame = 208_982 - 8;
    let keys = (first.galois_key_bytes, second.galois_key_bytes);
    assert_eq!(keys, (frame, 0));
    let stats = rt.key_table_stats();
    assert!(stats.hits >= 1, "stats: {stats:?}");
    assert_eq!(stats.inserts, 1);
    // The OT state is an entry of its own kind, counted apart from the
    // keys: one insert, one hit and 128 seed pairs (32 B each, plus the
    // state's 48 B inline) resident — seeds, not group elements, so the
    // entry's size does not depend on the base-OT group.
    let ot = rt.ot_table_stats();
    assert_eq!((ot.inserts, ot.hits, ot.misses), (1, 1, 1), "ot: {ot:?}");
    assert_eq!(rt.ot_table_bytes(), 4_144);
    // Cached keys and OT state: the second request's upload drops by
    // exactly the key upload and the base-OT choice of
    // `pinned_transcript`, nothing else.
    assert_eq!(
        first.offline_sent - second.offline_sent,
        208_982 + 4_096,
        "first={} second={}",
        first.offline_sent,
        second.offline_sent
    );
}

/// Recomputes a message's wire size from first principles: HE variants from
/// the lengths of the serialized frames they actually carry, everything
/// else from the analytic binary encoding.
fn relayed_len(m: &Msg) -> u64 {
    let len = match m {
        Msg::HeKeys(gk) => 8 + gk.len(),
        Msg::HeCts(frame) => 8 + frame.len(),
        other => other.byte_len(),
    };
    len as u64
}

/// One direction of a session as a relay saw it: `(Msg::kind(), bytes)`.
type Transcript = Vec<(&'static str, u64)>;

/// Forwards messages from `from` to `to` until either side hangs up,
/// recording each with its independently recomputed size.
fn relay(from: &Channel, to: &Channel) -> Transcript {
    let mut seen = Transcript::new();
    while let Ok(m) = from.recv() {
        seen.push((m.kind(), relayed_len(&m)));
        if to.send(m).is_err() {
            break;
        }
    }
    seen
}

/// The `(upload, download)` transcripts of one HE inference of
/// `build_model(small_test, 11)`, captured at the commit before the two
/// parties were rewritten as one body per role (PR 14): the message kinds,
/// their order and their sizes are the protocol, and no refactoring of the
/// parties may change them. The protocol itself has changed sizes since:
/// the base-OT messages carry 32-byte compressed edwards25519 points, one
/// `r·G` for the whole batch (32, 32·128 and 32 + 32·128 bytes), and
/// `HeKeys` is one rotation-key frame holding the model's key plan —
/// 4 entries of two digits (the replicated schedule's babies and giants at
/// {128, 128, 16}, n = 2048), 8 + 62 + 4 · 52 228 bytes — with no
/// composition chain and no public key. A `HeCts` is one frame behind one
/// 8-byte length, with no batch envelope around it (15 922 B up, 23 058 B
/// down).
/// A `GcTables` message is `rows · (8 + 133 · 32) + 8` bytes: 133 ANDs per
/// truncating ReLU since `CircuitBuilder::build` drops dead gates.
/// Server-Garbler's base OT has since moved ahead of the linear pass, every
/// size unchanged: the client opens with its setup and sends its transfer
/// after its upload, so the server answers with its choice before its
/// linear responses. The download opens with the server's 1-byte
/// `KeyStatus` (nothing cached), on a dedicated pair as on the serving
/// runtime, so a fresh client's first request has this transcript on
/// either.
fn pinned_transcript(kind: ProtocolKind) -> (Transcript, Transcript) {
    let he_up = [("HeKeys", 208_982), ("HeCts", 15_930), ("HeCts", 15_930)];
    let he_down = [("HeCts", 23_066); 3];
    let (open_up, open_down): (&[_], &[_]) = match kind {
        ProtocolKind::ClientGarbler => (&[], &[("KeyStatus", 1)]),
        ProtocolKind::ServerGarbler => (
            &[("OtBaseSetup", 32)],
            &[("KeyStatus", 1), ("OtBaseChoice", 4_096)],
        ),
    };
    let (up, down): (&[_], &[_]) = match kind {
        ProtocolKind::ClientGarbler => (
            &[
                ("HeCts", 15_930),
                ("OtBaseChoice", 4_096),
                ("GcTables", 307_016),
                ("GcDecode", 800),
                ("GcLabels", 46_088),
                ("GcTables", 68_232),
                ("GcDecode", 184),
                ("GcLabels", 10_248),
                ("VecU64", 296),
                ("OtTransfer", 46_088),
                ("OtTransfer", 10_248),
            ],
            &[
                ("OtBaseSetup", 32),
                ("OtBaseTransfer", 4_128),
                ("OtExtend", 23_048),
                ("OtExtend", 5_128),
                ("VecU64", 40),
            ],
        ),
        ProtocolKind::ServerGarbler => (
            &[
                ("HeCts", 15_930),
                ("OtBaseTransfer", 4_128),
                ("OtExtend", 46_088),
                ("OtExtend", 10_248),
                ("VecU64", 296),
                ("GcLabels", 23_048),
                ("GcLabels", 5_128),
            ],
            &[
                ("GcTables", 307_016),
                ("OtTransfer", 92_168),
                ("GcTables", 68_232),
                ("OtTransfer", 20_488),
                ("GcLabels", 23_048),
                ("GcLabels", 5_128),
                ("VecU64", 40),
            ],
        ),
    };
    (
        [open_up, &he_up, up].concat(),
        [open_down, &he_down, down].concat(),
    )
}

/// What [`pinned_transcript`] becomes on the serving runtime for a client
/// that has been there before: the server's `KeyStatus` is 9 bytes (flag
/// byte + stream base), and the key upload and the three base-OT messages
/// are gone. Nothing else moves.
fn pinned_returning_transcript(kind: ProtocolKind) -> (Transcript, Transcript) {
    let (mut up, mut down) = pinned_transcript(kind);
    let kept = |&(name, _): &(&str, u64)| name != "HeKeys" && !name.starts_with("OtBase");
    up.retain(kept);
    down.retain(kept);
    down[0] = ("KeyStatus", 9);
    (up, down)
}

/// The byte accounting is honest and the transcript is pinned: a
/// man-in-the-middle relay that re-measures every message from the
/// serialized frames it actually carries arrives at exactly the numbers the
/// channel atomics (and the `PartyOutcome` totals built from them) report,
/// and sees exactly the message sequence each protocol kind had before the
/// parties were refactored.
#[test]
fn channel_byte_atomics_match_relayed_frames() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let cfg = protocol_cfg(kind, Some(&he));
        let pre = pi_core::ServerPrecomp::new(&model, &cfg);
        let input = random_input(&model, 99);
        let (c_chan, c_peer) = local_pair();
        let (s_peer, s_chan) = local_pair();
        let (up, down, client_side, server_side) = std::thread::scope(|scope| {
            let up = scope.spawn(|| relay(&c_peer, &s_peer));
            let down = scope.spawn(|| relay(&s_peer, &c_peer));
            // The party threads own their channel ends: dropping them on
            // completion is what unblocks the relays' `recv` loops.
            let client = scope.spawn({
                let (meta, input, cfg) = (&meta, &input, &cfg);
                move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                    let (out, c_out) = ServiceClient::new()
                        .run(meta, input, cfg, &c_chan, &mut rng)
                        .expect("client run");
                    (out, c_out, c_chan.tx().bytes_sent())
                }
            });
            let server = scope.spawn({
                let (model, pre, cfg) = (&model, &pre, &cfg);
                move || {
                    let rng = rand::rngs::StdRng::seed_from_u64(6);
                    let s_out = drive_sync(model, pre, cfg, &s_chan, rng).expect("server run");
                    (s_out, s_chan.tx().bytes_sent())
                }
            });
            let client_side = client.join().expect("client thread");
            let server_side = server.join().expect("server thread");
            (
                up.join().expect("up relay"),
                down.join().expect("down relay"),
                client_side,
                server_side,
            )
        });
        let (out, c_out, c_sent) = client_side;
        let (s_out, s_sent) = server_side;
        assert_eq!(out, model.forward(&input), "{kind:?} output");

        // Channel atomics == relay-recomputed serialized sums, per direction.
        let total = |t: &Transcript| t.iter().map(|&(_, len)| len).sum::<u64>();
        assert_eq!(c_sent, total(&up), "{kind:?} upload accounting");
        assert_eq!(s_sent, total(&down), "{kind:?} download accounting");
        // PartyOutcome totals are built from the same atomics.
        assert_eq!(c_out.total_sent, c_sent, "{kind:?} client outcome total");
        assert_eq!(s_out.total_sent, s_sent, "{kind:?} server outcome total");
        // No message, order or size changed.
        let (pinned_up, pinned_down) = pinned_transcript(kind);
        assert_eq!(up, pinned_up, "{kind:?} upload transcript");
        assert_eq!(down, pinned_down, "{kind:?} download transcript");
    }
}

// ---------------------------------------------------------------------------
// Malformed-shape sweeps: an honest party runs behind a relay that corrupts
// one message, so the peer under test is driven by real traffic into the
// exact state the corruption targets.
// ---------------------------------------------------------------------------

/// One corruption: the `nth` relayed message of kind `target` gets `mutate`
/// applied (`p` is the protocol field's modulus), is forwarded, and the
/// relay stops.
#[derive(Clone, Copy)]
struct Tamper {
    target: &'static str,
    nth: usize,
    mutate: fn(&mut Msg, u64),
    /// Keep relaying after the corrupted message: for a corruption the
    /// session is expected to survive.
    relay_on: bool,
}

/// A named corruption for the sweeps' case tables.
fn case(
    what: &'static str,
    target: &'static str,
    nth: usize,
    mutate: fn(&mut Msg, u64),
) -> (&'static str, Tamper) {
    let tamper = Tamper {
        target,
        nth,
        mutate,
        relay_on: false,
    };
    (what, tamper)
}

/// One direction of a relay: counts the messages of the tamper's target
/// kind, corrupts the `nth`, and records everything as it was sent.
struct Tap {
    tamper: Option<(Tamper, u64)>,
    hits: usize,
    seen: Transcript,
}

impl Tap {
    fn new(tamper: Option<(Tamper, u64)>) -> Self {
        let (hits, seen) = (0, Transcript::new());
        Self { tamper, hits, seen }
    }

    /// Records `m`, then corrupts it if it is the one to corrupt: `true`
    /// means forward it and stop relaying.
    fn pass(&mut self, m: &mut Msg) -> bool {
        self.seen.push((m.kind(), relayed_len(m)));
        let Some((t, p)) = self.tamper.filter(|(t, _)| t.target == m.kind()) else {
            return false;
        };
        let hit = self.hits == t.nth;
        if hit {
            (t.mutate)(m, p);
        }
        self.hits += 1;
        hit && !t.relay_on
    }
}

/// Forwards `from` → `to` on a detached thread until either side hangs up
/// or the tampered message went out.
fn spawn_relay(from: Arc<Channel>, to: Arc<Channel>, tamper: Option<(Tamper, u64)>) {
    std::thread::spawn(move || {
        let mut tap = Tap::new(tamper);
        while let Ok(mut m) = from.recv() {
            let last = tap.pass(&mut m);
            if to.send(m).is_err() || last {
                break;
            }
        }
    });
}

/// Runs `f` on a detached thread and returns its result, or panics if it
/// takes longer than a minute (a dead worker never resolves its sessions).
fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what}: no result within a minute"))
}

/// One serving-runtime request as a relay between the client and its
/// session saw it, and how both ends resolved.
struct Relayed {
    /// What the client sent, as it sent it.
    up: Transcript,
    /// What the server sent, as it sent it.
    down: Transcript,
    /// The server's `KeyStatus` flags and stream base.
    status: (u8, u64),
    ran: Result<Vec<u64>, ProtocolError>,
    served: Result<pi_core::PartyOutcome, ProtocolError>,
}

/// Which direction of a [`relayed_request`] a [`Tamper`] sits on.
#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Up,
    Down,
}

/// One request of `client` (as `client_id`) with a relay on both
/// directions of its session: the client runs on a dedicated pair with the
/// relay, the relay forwards to and from the runtime's channel. With a
/// tamper, the relay of that direction corrupts one message and stops; the
/// other stops when its source hangs up. Everything that can block runs on
/// detached threads, so a dead worker is a failed test, not a hung one.
fn relayed_request(
    rt: &ServeRuntime,
    (model_id, client_id): (usize, u64),
    mut client: ServiceClient,
    (meta, cfg): (&ModelMeta, &ProtocolConfig),
    input: Vec<u64>,
    tamper: Option<(Dir, Tamper)>,
    what: &str,
) -> (Relayed, ServiceClient) {
    let conn = rt.connect(client_id, model_id, 2_000 + client_id);
    let (session, handle) = (Arc::new(conn.chan), conn.handle);
    let (c_chan, to_client) = local_pair();
    let to_client = Arc::new(to_client);
    let p = meta.p.value();
    let on = |dir| tamper.filter(|(d, _)| *d == dir).map(|(_, t)| (t, p));
    let up = std::thread::spawn({
        let (session, from_client) = (session.clone(), to_client.clone());
        let mut tap = Tap::new(on(Dir::Up));
        move || {
            // The client hanging up ends the loop too.
            while let Ok(mut m) = from_client.recv() {
                let last = tap.pass(&mut m);
                if session.send(m).is_err() || last {
                    break;
                }
            }
            tap.seen
        }
    });
    let down = std::thread::spawn({
        let mut tap = Tap::new(on(Dir::Down));
        move || {
            let mut status = None;
            while let Ok(mut m) = session.recv() {
                if let Msg::KeyStatus { flags, ot_base } = m {
                    status = Some((flags, ot_base));
                }
                let last = tap.pass(&mut m);
                if to_client.send(m).is_err() || last {
                    break;
                }
            }
            (tap.seen, status)
        }
    });
    let (meta, cfg) = (meta.clone(), cfg.clone());
    let (ran, client) = within_a_minute(what, move || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7 + client_id);
        let ran = client.run(&meta, &input, &cfg, &c_chan, &mut rng);
        (ran.map(|(out, _)| out), client)
    });
    let served = within_a_minute(what, move || handle.wait());
    let (down, status) = down.join().expect("down relay");
    let relayed = Relayed {
        up: up.join().expect("up relay"),
        down,
        status: status.unwrap_or_else(|| panic!("{what}: no KeyStatus")),
        ran,
        served,
    };
    (relayed, client)
}

/// One session of an honest first-time client whose upload passes through
/// a relay applying `tamper`: returns how the server's session resolved,
/// having checked that the abort hung up on the client.
fn tampered_session(
    rt: &ServeRuntime,
    ids: (usize, u64),
    party: (&ModelMeta, &ProtocolConfig),
    input: Vec<u64>,
    tamper: Tamper,
    what: &str,
) -> Result<pi_core::PartyOutcome, ProtocolError> {
    let tamper = Some((Dir::Up, tamper));
    let (r, _) = relayed_request(rt, ids, ServiceClient::new(), party, input, tamper, what);
    assert!(
        matches!(r.ran, Err(ProtocolError::Channel(_))),
        "{what}: {:?}",
        r.ran
    );
    r.served
}

/// A well-behaved first-time client on `rt` completes bit-exact: after
/// aborted sessions, the proof that no worker died and no slot is stuck.
/// `client_id` must be one no earlier session of `rt` used — the server
/// would claim cached state a fresh `ServiceClient` does not hold.
fn neighbour_completes(
    rt: &ServeRuntime,
    (model_id, client_id): (usize, u64),
    model: &PiModel,
    (meta, cfg): (&ModelMeta, &ProtocolConfig),
    what: &str,
) {
    let input = random_input(model, 400);
    let conn = rt.connect(client_id, model_id, 3_000);
    let (meta, cfg) = (meta.clone(), cfg.clone());
    let (out, served) = within_a_minute("neighbour", move || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ran = ServiceClient::new().run(&meta, &input, &cfg, &conn.chan, &mut rng);
        (ran.map(|(out, _)| out), conn.handle.wait().map(|_| input))
    });
    let input = served.unwrap_or_else(|e| panic!("{what}: neighbour session {e:?}"));
    assert_eq!(out, Ok(model.forward(&input)), "{what}: neighbour output");
}

fn unreduced(m: &mut Msg, p: u64) {
    if let Msg::VecU64(v) = m {
        v[0] = p;
    }
}

fn shorten(m: &mut Msg, _: u64) {
    fn pop<T>(v: &mut Vec<T>) {
        v.pop();
    }
    match m {
        Msg::VecU64(v) => pop(v),
        Msg::GcTables(t) => pop(&mut t[0]),
        Msg::GcDecode(d) => pop(&mut d[0]),
        Msg::OtBaseChoice(c) => pop(&mut c.pk0),
        Msg::OtBaseTransfer(t) => t.items.clear(),
        Msg::OtTransfer(t) => pop(&mut t.pairs),
        Msg::OtExtend(e) => e.u_columns.iter_mut().for_each(pop),
        other => panic!("no shortening for {}", other.kind()),
    }
}

/// One more word than the vector should carry.
fn lengthen(m: &mut Msg, _: u64) {
    match m {
        Msg::VecU64(v) => v.push(0),
        other => panic!("no lengthening for {}", other.kind()),
    }
}

/// The base-OT point the sweeps corrupt: the message's only one, or one
/// key in the middle of a choice.
fn point(m: &mut Msg) -> &mut [u8; 32] {
    match m {
        Msg::OtBaseSetup(s) => &mut s.c,
        Msg::OtBaseChoice(c) => &mut c.pk0[5],
        Msg::OtBaseTransfer(t) => &mut t.gr,
        other => panic!("no point in {}", other.kind()),
    }
}

/// The 32-byte little-endian encoding whose low byte is `low`, every byte
/// between `fill`, and whose top byte is `top`.
fn encoding(low: u8, fill: u8, top: u8) -> [u8; 32] {
    let mut enc = [fill; 32];
    (enc[0], enc[31]) = (low, top);
    enc
}

/// `p = 2²⁵⁵ − 19`.
const P25519: [u8; 32] = [
    0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
];

/// The encoding of `P + (0, −1)` from that of `P = (x, y)`, `x ≠ 0`: adding
/// the curve's point of order 2 is `(x, y) ↦ (−x, −y)`, so `y` becomes
/// `p − y` and the parity bit of `x` flips.
fn plus_order_2(enc: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut borrow = 0;
    for i in 0..32 {
        let y = i16::from(if i == 31 { enc[i] & 0x7f } else { enc[i] });
        let d = i16::from(P25519[i]) - y - borrow;
        (out[i], borrow) = (d.rem_euclid(256) as u8, i16::from(d < 0));
    }
    out[31] |= !enc[31] & 0x80;
    out
}

/// `y = p + 3`: the `y` of a curve point, written non-canonically.
fn noncanonical_point(m: &mut Msg, _: u64) {
    *point(m) = encoding(0xf0, 0xff, 0x7f);
}

/// The smallest `y` above 1 that no `x` shares the curve with (nothing
/// that small has small order, so a refusal there is "off the curve").
fn off_curve_point(m: &mut Msg, _: u64) {
    let off = |y: &u8| Point::decode(&encoding(*y, 0, 0)).is_none();
    *point(m) = encoding((2..).find(off).expect("half of all y"), 0, 0);
}

/// `(0, 1)`, the neutral element.
fn identity_point(m: &mut Msg, _: u64) {
    *point(m) = encoding(1, 0, 0);
}

/// `(0, −1)`, the point of order 2.
fn order_2_point(m: &mut Msg, _: u64) {
    *point(m) = encoding(0xec, 0xff, 0x7f);
}

/// The base point plus the point of order 2: on the curve, of order `2ℓ`.
fn mixed_order_base(m: &mut Msg, _: u64) {
    let enc = plus_order_2(&encoding(0x58, 0x66, 0x66));
    let decoded = Point::decode(&enc).expect("on the curve, of large order");
    assert!(!decoded.is_torsion_free());
    *point(m) = enc;
}

/// The honest point plus the point of order 2.
fn mixed_order_point(m: &mut Msg, _: u64) {
    let p = point(m);
    *p = plus_order_2(p);
    let decoded = Point::decode(p).expect("on the curve, of large order");
    assert!(!decoded.is_torsion_free());
}

/// The encodings every base-OT step must refuse in a `target` message.
fn refused_points(target: &'static str) -> [(&'static str, Tamper); 4] {
    [
        case("base-OT point with y ≥ p", target, 0, noncanonical_point),
        case("base-OT point off the curve", target, 0, off_curve_point),
        case("base-OT point is the identity", target, 0, identity_point),
        case("base-OT point of order 2", target, 0, order_2_point),
    ]
}

fn miscount(m: &mut Msg, _: u64) {
    match m {
        Msg::OtExtend(e) => e.num_transfers += 1,
        other => panic!("no miscount for {}", other.kind()),
    }
}

fn drop_column(m: &mut Msg, _: u64) {
    match m {
        Msg::OtExtend(e) => e.u_columns.truncate(e.u_columns.len() - 1),
        other => panic!("no column to drop in {}", other.kind()),
    }
}

/// Nothing a client sends panics a worker: on one runtime, for
/// both protocol kinds, an honest client's traffic is corrupted at each
/// state whose substrate call asserts a shape or a range. The session must
/// resolve to `BadRequest` — a panicked worker would resolve neither it nor
/// any later one — and after all of them a well-behaved client on the same
/// runtime must still complete bit-exact: no slot is stuck.
#[test]
fn malformed_client_messages_are_bad_requests_and_the_worker_survives() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let masked_input = meta.phases.len(); // follows one r_cat per phase
    let both = [
        case("r_cat out of range", "VecU64", 0, unreduced),
        case("r_cat a word too long", "VecU64", 1, lengthen),
        case(
            "masked input out of range",
            "VecU64",
            masked_input,
            unreduced,
        ),
    ];
    let sg_cases = [
        &refused_points("OtBaseSetup")[..],
        &refused_points("OtBaseTransfer"),
        &[
            case("mixed-order base-OT C", "OtBaseSetup", 0, mixed_order_base),
            case("empty base-OT transfer", "OtBaseTransfer", 0, shorten),
            case("extension count off by one", "OtExtend", 0, miscount),
            case("extension misses a column", "OtExtend", 1, drop_column),
            case("extension columns a word short", "OtExtend", 0, shorten),
        ],
    ]
    .concat();
    let cg_cases = [
        &refused_points("OtBaseChoice")[..],
        &[
            case("base-OT choice misses a key", "OtBaseChoice", 0, shorten),
            case("table set misses a gate", "GcTables", 0, shorten),
            case("decode vector misses a bit", "GcDecode", 1, shorten),
            case("OT transfer misses a pair", "OtTransfer", 0, shorten),
        ],
    ]
    .concat();
    for (kind, own) in [
        (ProtocolKind::ServerGarbler, &sg_cases[..]),
        (ProtocolKind::ClientGarbler, &cg_cases[..]),
    ] {
        let cfg = ProtocolConfig::clear(kind);
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model(model.clone(), cfg.clone());
        let party = (&meta, &cfg);
        for (c, &(what, tamper)) in both.iter().chain(own).enumerate() {
            let what = format!("{kind:?}, {} {what}", tamper.target);
            let input = random_input(&model, 300 + c as u64);
            let served = tampered_session(&rt, (model_id, c as u64), party, input, tamper, &what);
            assert!(
                matches!(served, Err(ProtocolError::BadRequest(_))),
                "{what}: {served:?}"
            );
        }
        // Same runtime, same workers, after every abort.
        let neighbour = (model_id, (both.len() + own.len()) as u64);
        neighbour_completes(&rt, neighbour, &model, party, &format!("{kind:?}"));
    }
}

/// Where a rotation-key frame's entry count sits — after the common
/// header, `q` and `P` — and where its entries start, after the seed.
const GK_COUNT_AT: usize = 10 + 8 + 8;
const GK_ENTRIES_AT: usize = GK_COUNT_AT + 4 + 32;

/// Flips the low bit of the first Galois-key entry's element `g`, making it
/// even: an element with no slot permutation.
fn even_galois_element(m: &mut Msg, _: u64) {
    match m {
        // The relayed frame is shared with the client's retained copy:
        // the tampered one is the relay's own.
        Msg::HeKeys(gk) => Arc::make_mut(gk)[GK_ENTRIES_AT] ^= 1,
        other => panic!("no Galois keys in {}", other.kind()),
    }
}

/// The key upload is parsed on the worker: a `HeKeys` whose Galois frame
/// names an even element must come back as the reader's typed error — a
/// panic in the parse would leave this session unresolved and cost its
/// worker a task — and a well-behaved client on the same
/// runtime must then complete bit-exact under its own fresh keys.
#[test]
fn unusable_uploaded_galois_keys_are_a_wire_error_and_the_worker_survives() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let rt = ServeRuntime::new(ServeConfig::default());
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let (what, tamper) = case("even Galois element", "HeKeys", 0, even_galois_element);

    let input = random_input(&model, 300);
    let served = tampered_session(&rt, (model_id, 0), (&meta, &cfg), input, tamper, what);
    assert!(
        matches!(
            served,
            Err(ProtocolError::Wire(pi_he::WireError::ParamMismatch))
        ),
        "{what}: {served:?}"
    );
    // Nothing of the refused upload was cached; the neighbour's is.
    assert_eq!(rt.key_table_stats().inserts, 0);
    neighbour_completes(&rt, (model_id, 1), &model, (&meta, &cfg), what);
    assert_eq!(rt.key_table_stats().inserts, 1);
}

/// Rewrites the entry list of a relayed rotation-key upload — every entry
/// is its element `g` (`u32`) and one fixed length of packed `k0` residues —
/// and recomputes the count, so the frame stays one the reader accepts and
/// only the admission check can object.
fn edit_key_entries(m: &mut Msg, edit: impl FnOnce(&mut Vec<Vec<u8>>)) {
    let Msg::HeKeys(frame) = m else {
        panic!("no rotation keys in {}", m.kind());
    };
    let frame = Arc::make_mut(frame);
    let count_at = GK_COUNT_AT..GK_COUNT_AT + 4;
    let count = u32::from_le_bytes(frame[count_at.clone()].try_into().expect("4 bytes"));
    let entry_len = (frame.len() - GK_ENTRIES_AT) / count as usize;
    let mut entries: Vec<Vec<u8>> = frame[GK_ENTRIES_AT..]
        .chunks_exact(entry_len)
        .map(<[u8]>::to_vec)
        .collect();
    edit(&mut entries);
    frame.truncate(GK_ENTRIES_AT);
    frame[count_at].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    frame.extend(entries.concat());
}

fn no_entries(m: &mut Msg, _: u64) {
    edit_key_entries(m, |entries| entries.clear());
}

fn drop_entry(m: &mut Msg, _: u64) {
    edit_key_entries(m, |entries| drop(entries.remove(1)));
}

/// Adds a key for the identity element `g = 1`, which no plan holds.
fn extra_entry(m: &mut Msg, _: u64) {
    edit_key_entries(m, |entries| {
        let mut extra = entries[0].clone();
        extra[..4].copy_from_slice(&1u32.to_le_bytes());
        entries.insert(0, extra);
    });
}

/// Swaps the first two entries: every planned key once, out of the plan's
/// order — which is also the order the seed stream is replayed in, so the
/// keys a reader would build from it are not the keys that were generated.
fn entries_out_of_order(m: &mut Msg, _: u64) {
    edit_key_entries(m, |entries| entries.swap(0, 1));
}

fn duplicate_entry(m: &mut Msg, _: u64) {
    edit_key_entries(m, |entries| entries.insert(1, entries[0].clone()));
}

/// Key uploads every frame reader accepts and no model's key plan equals.
fn off_plan_key_uploads() -> [(&'static str, Tamper); 5] {
    [
        case("no entries", "HeKeys", 0, no_entries),
        case("a planned entry dropped", "HeKeys", 0, drop_entry),
        case("an unplanned entry added", "HeKeys", 0, extra_entry),
        case(
            "two entries out of order",
            "HeKeys",
            0,
            entries_out_of_order,
        ),
        case("an entry sent twice", "HeKeys", 0, duplicate_entry),
    ]
}

/// The server admits a key upload only if it **is** the model's key plan:
/// on one runtime each off-plan upload ends its own session in
/// `BadRequest` and is not cached, while a neighbour running at the same
/// time on the same pool — its pumps queued beside the refused
/// session's — completes bit-exact. A worker that panicked on a missing key
/// would resolve neither.
#[test]
fn off_plan_key_uploads_are_bad_requests_and_the_neighbour_completes() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let party = (&meta, &cfg);
    let rt = ServeRuntime::new(ServeConfig::default());
    let model_id = rt.register_model(model.clone(), cfg.clone());
    for (c, (what, tamper)) in off_plan_key_uploads().into_iter().enumerate() {
        let (bad, good) = (2 * c as u64, 2 * c as u64 + 1);
        let served = std::thread::scope(|scope| {
            scope.spawn(|| neighbour_completes(&rt, (model_id, good), &model, party, what));
            let input = random_input(&model, 300);
            tampered_session(&rt, (model_id, bad), party, input, tamper, what)
        });
        assert!(
            matches!(served, Err(ProtocolError::BadRequest(_))),
            "{what}: {served:?}"
        );
        // Only the neighbour's keys went into the table.
        assert_eq!(rt.key_table_stats().inserts, c as u64 + 1, "{what}");
    }
}

/// An upload that is not the plan is refused from its headers: the sweep's
/// frames — each one the reader would decode in full — and a frame cut one
/// byte short all come back refused with `wire.seed_expand` unmoved and no
/// room asked for, so a peer buys no seed expansion, no quotient and no
/// eviction with a frame that was never going to be admitted. The
/// untampered frame is admitted, expands, and asks once for exactly the room
/// it takes.
#[test]
fn off_plan_key_uploads_are_refused_before_any_expansion() {
    let he = BfvParams::small_test();
    let plan = ModelMeta::of(&build_model(&he, 11)).key_plan(&he);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let secret = pi_he::SecretKey::generate(&he, &mut rng);
    let frame = Arc::new(pi_he::galois_keys_frame(&secret, &plan, &mut rng));
    let admit = |frame: &[u8]| {
        let scope = pi_trace::begin_local();
        let mut asked = Vec::new();
        let admitted = ClientHeKeys::admit(frame, &he, &plan, |bytes| {
            asked.push(bytes);
            None
        });
        let expansions = scope.finish().counter("wire.seed_expand").unwrap_or(0);
        (
            admitted.map(|keys| keys.resident_byte_len()),
            expansions,
            asked,
        )
    };
    for (what, tamper) in off_plan_key_uploads() {
        let mut upload = Msg::HeKeys(frame.clone());
        (tamper.mutate)(&mut upload, 0);
        let Msg::HeKeys(off_plan) = upload else {
            unreachable!("tampering keeps the message kind");
        };
        assert!(
            pi_he::galois_keys_from_bytes(&off_plan, &he).is_ok(),
            "{what}"
        );
        let (admitted, expansions, asked) = admit(&off_plan);
        assert!(
            matches!(admitted, Err(ProtocolError::BadRequest(_))),
            "{what}: {admitted:?}"
        );
        assert_eq!((expansions, asked.len()), (0, 0), "{what}");
    }
    let (admitted, expansions, asked) = admit(&frame[..frame.len() - 1]);
    assert!(
        matches!(admitted, Err(ProtocolError::Wire(_))),
        "{admitted:?}"
    );
    assert_eq!((expansions, asked.len()), (0, 0), "short frame");
    let (admitted, expansions, asked) = admit(&frame);
    assert_eq!(asked, [admitted.expect("the plan's own frame")]);
    if pi_trace::mode() != pi_trace::TraceMode::Off {
        assert_eq!(expansions, 1, "the plan's own frame");
    }
}

/// The same sweep on a dedicated pair: `drive_sync` runs the same session,
/// so it refuses the same uploads.
#[test]
fn off_plan_key_uploads_are_bad_requests_to_drive_sync() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let cfg = ProtocolConfig::server_garbler(he);
    for (what, tamper) in off_plan_key_uploads() {
        let (ran, served) = tampered_sync_run(&model, &cfg, (Dir::Up, tamper), what);
        assert!(
            matches!(served, Err(ProtocolError::BadRequest(_))),
            "{what}: {served:?}"
        );
        assert!(
            matches!(ran, Err(ProtocolError::Channel(_))),
            "{what}: {ran:?}"
        );
    }
}

/// A precomputation built for cleartext mode has no HE context: an HE
/// session over it refuses the client's first HE upload with `BadRequest`
/// and hangs up, and the client sees the hang-up — under both garbler
/// kinds, with no party panicking.
#[test]
fn an_he_session_on_a_cleartext_precomputation_is_a_bad_request() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let input = random_input(&model, 510);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let cfg = ProtocolConfig {
            kind,
            ..ProtocolConfig::client_garbler(he.clone(), 1)
        };
        let pre = pi_core::ServerPrecomp::new(&model, &ProtocolConfig::clear(kind));
        let (c_chan, s_chan) = local_pair();
        let (ran, served) = std::thread::scope(|scope| {
            let (model, pre, cfg) = (&model, &pre, &cfg);
            let server = scope.spawn(move || {
                let rng = rand::rngs::StdRng::seed_from_u64(6);
                drive_sync(model, pre, cfg, &s_chan, rng)
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let ran = ServiceClient::new().run(&meta, &input, cfg, &c_chan, &mut rng);
            (ran, server.join().expect("the server must not panic"))
        });
        assert!(
            matches!(served, Err(ProtocolError::BadRequest(_))),
            "{kind:?}: {served:?}"
        );
        assert!(
            matches!(ran, Err(ProtocolError::Channel(_))),
            "{kind:?}: {:?}",
            ran.map(|(out, _)| out)
        );
    }
}

/// One inference of an honest client against an honest `drive_sync` server
/// on a dedicated pair, behind a relay that applies `tamper` to its
/// direction: how the client and the server resolved, each within a minute.
fn tampered_sync_run(
    model: &Arc<PiModel>,
    cfg: &ProtocolConfig,
    (dir, tamper): (Dir, Tamper),
    what: &str,
) -> (
    Result<Vec<u64>, ProtocolError>,
    Result<pi_core::PartyOutcome, ProtocolError>,
) {
    let meta = ModelMeta::of(model);
    let on = |d| (d == dir).then_some((tamper, model.p.value()));
    let (c_chan, c_peer) = local_pair();
    let (s_peer, s_chan) = local_pair();
    let (c_peer, s_peer) = (Arc::new(c_peer), Arc::new(s_peer));
    spawn_relay(s_peer.clone(), c_peer.clone(), on(Dir::Down));
    spawn_relay(c_peer, s_peer, on(Dir::Up));
    let server = {
        let (model, cfg) = (model.clone(), cfg.clone());
        std::thread::spawn(move || {
            let pre = pi_core::ServerPrecomp::new(&model, &cfg);
            let rng = rand::rngs::StdRng::seed_from_u64(6);
            drive_sync(&model, &pre, &cfg, &s_chan, rng)
        })
    };
    let input = random_input(model, 500);
    let cfg = cfg.clone();
    let ran = within_a_minute(what, move || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ran = ServiceClient::new().run(&meta, &input, &cfg, &c_chan, &mut rng);
        ran.map(|(out, _)| out)
    });
    let served = within_a_minute(what, move || server.join().expect("server thread"));
    (ran, served)
}

/// The mirror image: nothing a server sends panics the client. An honest
/// `drive_sync` server's traffic is corrupted on its way down; the client
/// must return `BadRequest`.
#[test]
fn malformed_server_messages_are_bad_requests_to_the_client() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let output_share = ModelMeta::of(&model).phases.len(); // follows one linear share per phase
    let both = [
        case("linear share out of range", "VecU64", 1, unreduced),
        case("linear share short", "VecU64", 0, shorten),
        case(
            "output share out of range",
            "VecU64",
            output_share,
            unreduced,
        ),
    ];
    let sg_cases = [
        &refused_points("OtBaseChoice")[..],
        &[
            case("base-OT choice misses a key", "OtBaseChoice", 0, shorten),
            case("table set misses a gate", "GcTables", 1, shorten),
            case("OT transfer misses a pair", "OtTransfer", 0, shorten),
        ],
    ]
    .concat();
    let cg_cases = [
        &refused_points("OtBaseSetup")[..],
        &refused_points("OtBaseTransfer"),
        &[
            case("mixed-order base-OT C", "OtBaseSetup", 0, mixed_order_base),
            case("empty base-OT transfer", "OtBaseTransfer", 0, shorten),
            case("extension count off by one", "OtExtend", 0, miscount),
            case("extension columns a word short", "OtExtend", 1, shorten),
        ],
    ]
    .concat();
    for (kind, own) in [
        (ProtocolKind::ServerGarbler, &sg_cases[..]),
        (ProtocolKind::ClientGarbler, &cg_cases[..]),
    ] {
        let cfg = ProtocolConfig::clear(kind);
        for &(what, tamper) in both.iter().chain(own) {
            let what = format!("{kind:?}, {} {what}", tamper.target);
            let (ran, served) = tampered_sync_run(&model, &cfg, (Dir::Down, tamper), &what);
            assert!(
                matches!(ran, Err(ProtocolError::BadRequest(_))),
                "{what}: {ran:?}"
            );
            // The client hung up; the server notices instead of waiting
            // (unless the corrupted message was its last).
            assert!(
                !matches!(served, Err(ProtocolError::BadRequest(_))),
                "{what}: {served:?}"
            );
        }
    }
}

/// Replaces the relayed message with an empty `VecU64`.
fn vec_u64(m: &mut Msg, _: u64) {
    *m = Msg::VecU64(Vec::new());
}

/// Replaces the relayed message with a well-formed base-OT choice.
fn base_ot_choice(m: &mut Msg, _: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let (_, setup) = pi_ot::BaseOtSender::new(&mut rng);
    let choice = pi_ot::BaseOtReceiver::choose_packed(&setup, 0, 128, &mut rng);
    *m = Msg::OtBaseChoice(choice.expect("an honest setup").1);
}

/// A server message of the wrong kind is the client's `UnexpectedMsg`
/// naming the one it awaited, never a panic, under both garbler kinds:
/// through `drive_sync` the opening `KeyStatus`, a table set, a linear
/// share, an extension and each kind's base-OT message replaced by one of
/// another kind, and on the runtime the `KeyStatus` replaced. The server
/// sees the client hang up, and a neighbour on the runtime then completes.
#[test]
fn wrong_kind_server_messages_are_unexpected_to_the_client() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let meta = ModelMeta::of(&model);
    let is_unexpected = |ran: &Result<Vec<u64>, ProtocolError>, want, what: &str| {
        let got = match ran {
            Err(ProtocolError::UnexpectedMsg { expected, got }) => Some((*expected, *got)),
            _ => None,
        };
        assert_eq!(got, Some(want), "{what}: {ran:?}");
    };
    let hung_up = |served: &Result<pi_core::PartyOutcome, ProtocolError>, what: &str| {
        let hung_up = matches!(served, Err(ProtocolError::Channel(_)));
        assert!(hung_up, "{what}: {served:?}");
    };
    let sg_cases = [
        (case("", "KeyStatus", 0, vec_u64), "VecU64"),
        (case("", "GcTables", 0, vec_u64), "VecU64"),
        (case("", "OtBaseChoice", 0, base_ot_setup), "OtBaseSetup"),
    ];
    let cg_cases = [
        (case("", "KeyStatus", 0, vec_u64), "VecU64"),
        (case("", "VecU64", 0, base_ot_setup), "OtBaseSetup"),
        (case("", "OtBaseSetup", 0, base_ot_choice), "OtBaseChoice"),
        (case("", "OtExtend", 0, vec_u64), "VecU64"),
    ];
    for (kind, cases) in [
        (ProtocolKind::ServerGarbler, &sg_cases[..]),
        (ProtocolKind::ClientGarbler, &cg_cases[..]),
    ] {
        let cfg = ProtocolConfig::clear(kind);
        for &((_, tamper), got) in cases {
            let what = format!("{kind:?}, {} as {got}", tamper.target);
            let (ran, served) = tampered_sync_run(&model, &cfg, (Dir::Down, tamper), &what);
            is_unexpected(&ran, (tamper.target, got), &what);
            hung_up(&served, &what);
        }
        let what = format!("{kind:?}, KeyStatus as VecU64");
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model((*model).clone(), cfg.clone());
        let tamper = Some((Dir::Down, case("", "KeyStatus", 0, vec_u64).1));
        let input = random_input(&model, 900);
        let party = (&meta, &cfg);
        let client = ServiceClient::new();
        let (r, _) = relayed_request(&rt, (model_id, 0), client, party, input, tamper, &what);
        is_unexpected(&r.ran, ("KeyStatus", "VecU64"), &what);
        assert_eq!(r.up, Transcript::new(), "{what}: the client sent something");
        hung_up(&r.served, &what);
        neighbour_completes(&rt, (model_id, 1), &model, party, &what);
    }
}

/// Cuts the last byte off a ciphertext frame.
fn truncate_frame(m: &mut Msg, _: u64) {
    match m {
        Msg::HeCts(frame) => drop(frame.pop()),
        other => panic!("no ciphertext frame in {}", other.kind()),
    }
}

/// A `HeCts` frame a byte short is the frame reader's typed error to
/// whichever party receives it, upload or response, both garbler kinds,
/// under `drive_sync` and on the serving runtime; the party that sent it
/// sees the hang-up, and a neighbour on the same runtime then completes
/// bit-exact.
#[test]
fn a_truncated_ciphertext_frame_is_a_wire_error_to_either_party() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let meta = ModelMeta::of(&model);
    let tamper = case("", "HeCts", 0, truncate_frame).1;
    for cfg in [
        ProtocolConfig::server_garbler(he.clone()),
        ProtocolConfig::client_garbler(he.clone(), 1),
    ] {
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model((*model).clone(), cfg.clone());
        for (c, dir) in [Dir::Up, Dir::Down].into_iter().enumerate() {
            let what = match dir {
                Dir::Up => format!("{:?}, truncated upload", cfg.kind),
                Dir::Down => format!("{:?}, truncated response", cfg.kind),
            };
            let (ran, served) = tampered_sync_run(&model, &cfg, (dir, tamper), &what);
            let input = random_input(&model, 900 + c as u64);
            let ids = (model_id, c as u64);
            let tap = Some((dir, tamper));
            let (r, _) = relayed_request(
                &rt,
                ids,
                ServiceClient::new(),
                (&meta, &cfg),
                input,
                tap,
                &what,
            );
            for (via, ran, served) in [
                ("drive_sync", ran.map(drop), served.map(drop)),
                ("runtime", r.ran.map(drop), r.served.map(drop)),
            ] {
                let (receiver, sender) = match dir {
                    Dir::Up => (served, ran),
                    Dir::Down => (ran, served),
                };
                assert!(
                    matches!(
                        receiver,
                        Err(ProtocolError::Wire(pi_he::WireError::Truncated))
                    ),
                    "{what}, {via}: receiver {receiver:?}"
                );
                assert!(
                    matches!(sender, Err(ProtocolError::Channel(_))),
                    "{what}, {via}: sender {sender:?}"
                );
            }
        }
        let what = format!("{:?}", cfg.kind);
        neighbour_completes(&rt, (model_id, 2), &model, (&meta, &cfg), &what);
    }
}

/// A peer's point with a small-order component — the honest one plus the
/// point of order 2 — decodes, being on the curve and of large order, and
/// changes nothing where it is only ever multiplied (`PK_0`, `r·G`): every
/// secret scalar is a multiple of the cofactor. Both kinds, both parties:
/// the relay corrupts the point, keeps relaying, and the session completes
/// bit-exact.
#[test]
fn mixed_order_peer_points_change_nothing() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let (up, down) = match kind {
            ProtocolKind::ServerGarbler => ("OtBaseTransfer", "OtBaseChoice"),
            ProtocolKind::ClientGarbler => ("OtBaseChoice", "OtBaseTransfer"),
        };
        let passing = |target| Tamper {
            relay_on: true,
            ..case("", target, 0, mixed_order_point).1
        };
        let cfg = ProtocolConfig::clear(kind);
        let what = format!("{kind:?}, mixed-order {up}");
        let rt = ServeRuntime::new(ServeConfig::default());
        let ids = (rt.register_model((*model).clone(), cfg.clone()), 0);
        let input = random_input(&model, 600);
        let tamper = Some((Dir::Up, passing(up)));
        let client = ServiceClient::new();
        let (r, _) = relayed_request(
            &rt,
            ids,
            client,
            (&meta, &cfg),
            input.clone(),
            tamper,
            &what,
        );
        assert_eq!(r.ran, Ok(model.forward(&input)), "{what}");
        assert!(r.served.is_ok(), "{what}: {:?}", r.served);

        let what = format!("{kind:?}, mixed-order {down}");
        let (ran, served) = tampered_sync_run(&model, &cfg, (Dir::Down, passing(down)), &what);
        assert_eq!(ran, Ok(model.forward(&random_input(&model, 500))), "{what}");
        assert!(served.is_ok(), "{what}: {served:?}");
    }
}

/// One client whose uplink a relay holds after its first linear message,
/// so its session is suspended mid-upload until [`Suspended::release`].
struct Suspended {
    release: std::sync::mpsc::Sender<()>,
    handle: pi_core::serve::SessionHandle,
    run: std::thread::JoinHandle<Result<Vec<u64>, ProtocolError>>,
    relays: [std::thread::JoinHandle<()>; 2],
    expect: Vec<u64>,
}

/// Connects `client_id` to `model_id` on `rt` behind a holding relay and
/// returns once the relay holds the client's first linear message.
fn suspend_mid_upload(
    rt: &ServeRuntime,
    (model_id, client_id): (usize, u64),
    model: &PiModel,
    (meta, cfg): (&ModelMeta, &ProtocolConfig),
) -> Suspended {
    let conn = rt.connect(client_id, model_id, 10 + client_id);
    let session = Arc::new(conn.chan);
    let (chan, to_client) = local_pair();
    let to_client = Arc::new(to_client);
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let (release, release_rx) = std::sync::mpsc::channel::<()>();
    let up = std::thread::spawn({
        let (session, from_client) = (session.clone(), to_client.clone());
        move || {
            let mut hold = Some((held_tx, release_rx));
            while let Ok(m) = from_client.recv() {
                let linear = matches!(m, Msg::HeKeys(_) | Msg::HeCts(_) | Msg::VecU64(_));
                if session.send(m).is_err() {
                    break;
                }
                if let Some((held, release)) = hold.take_if(|_| linear) {
                    let _ = held.send(());
                    let _ = release.recv();
                }
            }
        }
    });
    let down = std::thread::spawn(move || {
        while let Ok(m) = session.recv() {
            if to_client.send(m).is_err() {
                break;
            }
        }
    });
    let input = random_input(model, 70 + client_id);
    let expect = model.forward(&input);
    let run = {
        let (meta, cfg) = (meta.clone(), cfg.clone());
        std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(71 + client_id);
            let ran = ServiceClient::new().run(&meta, &input, &cfg, &chan, &mut rng);
            ran.map(|(out, _)| out)
        })
    };
    held_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("client {client_id} sent no linear message"));
    Suspended {
        release,
        handle: conn.handle,
        run,
        relays: [up, down],
        expect,
    }
}

/// A session waiting for its client's next message gives its worker back.
/// Under both garbler kinds, one session per pool worker is suspended
/// mid-upload behind a holding relay; a further client then runs a whole
/// inference meanwhile, bit-exact, and once the relays let go every held
/// client completes bit-exact too. A receive that blocked its worker
/// would leave the further client without one, at any width.
#[test]
fn a_suspended_session_gives_its_only_worker_back() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let what = format!("{kind:?}");
        let cfg = protocol_cfg(kind, Some(&he));
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model(model.clone(), cfg.clone());
        let held = rt.workers() as u64;
        let suspended: Vec<_> = (0..held)
            .map(|c| suspend_mid_upload(&rt, (model_id, c), &model, (&meta, &cfg)))
            .collect();
        // Every held client is released whatever became of the further
        // one: a worker stuck in a held session fails the test instead of
        // hanging the relays.
        let further = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            neighbour_completes(&rt, (model_id, held), &model, (&meta, &cfg), &what)
        }));
        for s in &suspended {
            s.release.send(()).expect("relay waiting");
        }
        if let Err(panic) = further {
            std::panic::resume_unwind(panic);
        }
        for (c, s) in suspended.into_iter().enumerate() {
            let served = within_a_minute(&what, move || s.handle.wait());
            assert!(served.is_ok(), "{what}: client {c}'s session {served:?}");
            let ran = s.run.join().expect("held client");
            assert_eq!(ran, Ok(s.expect), "{what}: client {c}");
            for relay in s.relays {
                relay.join().expect("relay");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Base OT once per client pair: a returning client's request runs on the
// IKNP state both parties kept, in a range of the PRG streams the server
// reserves per session.
// ---------------------------------------------------------------------------

fn protocol_cfg(kind: ProtocolKind, he: Option<&BfvParams>) -> ProtocolConfig {
    match (kind, he) {
        (_, None) => ProtocolConfig::clear(kind),
        (ProtocolKind::ClientGarbler, Some(he)) => ProtocolConfig::client_garbler(he.clone(), 1),
        (ProtocolKind::ServerGarbler, Some(he)) => ProtocolConfig::server_garbler(he.clone()),
    }
}

/// The second request of one `ServiceClient`, both kinds, HE and clear:
/// bit-exact, no base-OT message in either direction, a 9-byte `KeyStatus`
/// whose base is where the first session's range ended — and, under HE,
/// exactly the pinned transcripts (a first request's is the dedicated
/// pair's, message for message).
#[test]
fn returning_client_runs_no_base_ot() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        for he in [Some(&he), None] {
            let what = format!("{kind:?}, he={}", he.is_some());
            let cfg = protocol_cfg(kind, he);
            let rt = ServeRuntime::new(ServeConfig::default());
            let ids = (rt.register_model(model.clone(), cfg.clone()), 7);
            let mut client = ServiceClient::new();
            let mut requests = Vec::new();
            for seed in [91, 92] {
                let input = random_input(&model, seed);
                let expect = model.forward(&input);
                let (r, back) =
                    relayed_request(&rt, ids, client, (&meta, &cfg), input, None, &what);
                assert_eq!(r.ran, Ok(expect), "{what}: request {seed}");
                assert!(r.served.is_ok(), "{what}: server {:?}", r.served);
                client = back;
                requests.push(r);
            }
            let (first, second) = (&requests[0], &requests[1]);
            let need_keys = if he.is_some() { Msg::NEED_KEYS } else { 0 };
            assert_eq!(first.status, (need_keys, 0), "{what}");
            assert_eq!(first.down[0], ("KeyStatus", 1), "{what}");
            assert_eq!(
                second.status,
                (Msg::OT_CACHED, meta.ot_blocks(kind)),
                "{what}"
            );
            assert_eq!(second.down[0], ("KeyStatus", 9), "{what}");
            let base_ot = |t: &Transcript| t.iter().filter(|m| m.0.starts_with("OtBase")).count();
            assert_eq!((base_ot(&first.up), base_ot(&first.down)), {
                match kind {
                    ProtocolKind::ClientGarbler => (1, 2),
                    ProtocolKind::ServerGarbler => (2, 1),
                }
            });
            assert_eq!((base_ot(&second.up), base_ot(&second.down)), (0, 0));
            if he.is_some() {
                let (up, down) = pinned_transcript(kind);
                assert_eq!((&first.up, &first.down), (&up, &down), "{what}: first");
                let (up, down) = pinned_returning_transcript(kind);
                assert_eq!((&second.up, &second.down), (&up, &down), "{what}: second");
            }
            // One base OT, one reuse; the key table reads as it always did.
            let ot = rt.ot_table_stats();
            assert_eq!((ot.inserts, ot.hits, ot.misses), (1, 1, 1), "{what}");
            let keys = rt.key_table_stats();
            let he_requests = u64::from(he.is_some());
            assert_eq!(
                (keys.inserts, keys.hits, keys.misses),
                (he_requests, he_requests, he_requests),
                "{what}"
            );
        }
    }
}

/// One `ServiceClient`'s two HE requests, each against a `drive_sync`
/// server of its own, both kinds: a lone session's table is its own and
/// starts empty, so both times the server holds nothing of the client —
/// `NEED_KEYS` set, `OT_CACHED` clear — and the client uploads its keys
/// again and gets a bit-exact output. A table shared between lone sessions
/// would claim the second request's keys and OT state cached.
#[test]
fn each_drive_sync_session_gets_a_fresh_table() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let cfg = protocol_cfg(kind, Some(&he));
        let pre = pi_core::ServerPrecomp::new(&model, &cfg);
        let mut client = ServiceClient::new();
        for seed in [61, 62] {
            let what = format!("{kind:?}, request {seed}");
            let input = random_input(&model, seed);
            let (c_chan, c_peer) = local_pair();
            let (s_peer, s_chan) = local_pair();
            let (out, flags, up) = std::thread::scope(|scope| {
                let up = scope.spawn(|| relay(&c_peer, &s_peer));
                let down = scope.spawn(|| {
                    let status = s_peer.recv().expect("KeyStatus");
                    let Msg::KeyStatus { flags, .. } = status else {
                        panic!("expected KeyStatus, got {}", status.kind());
                    };
                    c_peer.send(status).expect("forward KeyStatus");
                    relay(&s_peer, &c_peer);
                    flags
                });
                // The party threads own their channel ends: dropping them
                // on completion is what unblocks the relays.
                let server = scope.spawn({
                    let (model, pre, cfg) = (&model, &pre, &cfg);
                    move || {
                        let rng = rand::rngs::StdRng::seed_from_u64(seed);
                        drive_sync(model, pre, cfg, &s_chan, rng).expect("server run")
                    }
                });
                let client = scope.spawn({
                    let (client, meta, input, cfg) = (&mut client, &meta, &input, &cfg);
                    move || {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(5 + seed);
                        let ran = client.run(meta, input, cfg, &c_chan, &mut rng);
                        ran.expect("client run").0
                    }
                });
                server.join().expect("server thread");
                let out = client.join().expect("client thread");
                let up = up.join().expect("up relay");
                (out, down.join().expect("down relay"), up)
            });
            assert_eq!(flags, Msg::NEED_KEYS, "{what}: KeyStatus flags");
            let uploads = up.iter().filter(|m| m.0 == "HeKeys").count();
            assert_eq!(uploads, 1, "{what}: key uploads");
            assert_eq!(out, model.forward(&input), "{what}: output");
        }
        assert!(client.has_keys(), "{kind:?}");
    }
}

/// A 1-byte table budget: every client's state evicts the other's, so base
/// OT runs again in every session and every output stays bit-exact.
#[test]
fn ot_table_eviction_reruns_base_ot_and_stays_correct() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let cfg = ProtocolConfig::clear(kind);
        let rt = ServeRuntime::new(ServeConfig {
            table_budget_bytes: 1,
        });
        let model_id = rt.register_model(model.clone(), cfg.clone());
        let mut clients = [ServiceClient::new(), ServiceClient::new()];
        for (request, c) in [0usize, 1, 0, 1].into_iter().enumerate() {
            let conn = rt.connect(c as u64, model_id, request as u64);
            let input = random_input(&model, 600 + request as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(request as u64);
            let (out, _) = clients[c]
                .run(&meta, &input, &cfg, &conn.chan, &mut rng)
                .unwrap_or_else(|e| panic!("{kind:?} request {request}: {e:?}"));
            assert_eq!(out, model.forward(&input), "{kind:?} request {request}");
            conn.handle.wait().expect("server outcome");
        }
        let ot = rt.ot_table_stats();
        assert_eq!((ot.inserts, ot.hits), (4, 0), "{kind:?}: {ot:?}");
        assert_eq!(ot.evictions, 3, "{kind:?}: {ot:?}");
    }
}

/// Three sessions of one client, the middle one aborted inside its second
/// extension: the ranges the server announces are disjoint — the aborted
/// session's range is burnt, not handed out again — and the session after
/// it is bit-exact.
#[test]
fn sessions_of_one_client_get_disjoint_block_ranges() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let aborts = [
        // The evaluator's second extension (up, offline) miscounts.
        (
            ProtocolKind::ServerGarbler,
            case("abort", "OtExtend", 1, miscount).1,
        ),
        // The garbler's answer to the second extension (up, online) is short.
        (
            ProtocolKind::ClientGarbler,
            case("abort", "OtTransfer", 1, shorten).1,
        ),
    ];
    for (kind, abort) in aborts {
        let what = format!("{kind:?}");
        let cfg = ProtocolConfig::clear(kind);
        let rt = ServeRuntime::new(ServeConfig::default());
        let ids = (rt.register_model(model.clone(), cfg.clone()), 3);
        let blocks = meta.ot_blocks(kind);
        assert!(blocks > 0);
        let mut client = ServiceClient::new();
        let mut bases = Vec::new();
        for (seed, tamper) in [(1, None), (2, Some((Dir::Up, abort))), (3, None)] {
            let input = random_input(&model, 700 + seed);
            let expect = model.forward(&input);
            let (r, back) = relayed_request(&rt, ids, client, (&meta, &cfg), input, tamper, &what);
            client = back;
            match tamper {
                None => assert_eq!(r.ran, Ok(expect), "{what}: session {seed}"),
                Some(_) => {
                    assert!(matches!(r.served, Err(ProtocolError::BadRequest(_))));
                    assert!(matches!(r.ran, Err(ProtocolError::Channel(_))));
                    // It got as far as its second extension.
                    let extensions =
                        |t: &Transcript| t.iter().filter(|m| m.0 == "OtExtend").count();
                    assert_eq!(extensions(&r.up) + extensions(&r.down), 2, "{what}");
                }
            }
            bases.push(r.status);
        }
        assert_eq!(
            bases,
            [
                (0, 0),
                (Msg::OT_CACHED, blocks),
                (Msg::OT_CACHED, 2 * blocks)
            ],
            "{what}"
        );
    }
}

fn claim_cached(m: &mut Msg, _: u64) {
    if let Msg::KeyStatus { flags, ot_base } = m {
        (*flags, *ot_base) = (*flags | Msg::OT_CACHED, 0);
    }
}

fn unknown_flag(m: &mut Msg, _: u64) {
    if let Msg::KeyStatus { flags, .. } = m {
        *flags |= 0x80;
    }
}

fn rewind_base(m: &mut Msg, _: u64) {
    if let Msg::KeyStatus { ot_base, .. } = m {
        *ot_base -= 1;
    }
}

/// Nothing in a `KeyStatus` panics the client or gets a stream block
/// expanded twice: a "cached" claim to a client holding no state, a base
/// below the client's mark and a flag byte with unknown bits are each a
/// `BadRequest` before the client has sent a single message. The session
/// they leave behind ends when the client hangs up, the refused returning
/// client is served on its next honest request, and a neighbour on the same
/// runtime completes. The cached claim and the unknown bits are
/// refused on a dedicated pair too, whose `drive_sync` server then sees the
/// client hang up.
#[test]
fn malformed_key_status_is_a_bad_request_before_the_client_sends() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let cfg = ProtocolConfig::clear(kind);
        let party = (&meta, &cfg);
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model((*model).clone(), cfg.clone());
        // Client 0 has been here before; the others are new.
        let input = random_input(&model, 800);
        let expect = model.forward(&input);
        let (r, returning) = relayed_request(
            &rt,
            (model_id, 0),
            ServiceClient::new(),
            party,
            input,
            None,
            "first visit",
        );
        assert_eq!(r.ran, Ok(expect));
        let cases = [
            case("base below the client's mark", "KeyStatus", 0, rewind_base),
            case(
                "cached claim, stateless client",
                "KeyStatus",
                0,
                claim_cached,
            ),
            case("unknown flag bits", "KeyStatus", 0, unknown_flag),
        ];
        let mut clients = vec![returning, ServiceClient::new(), ServiceClient::new()];
        for (c, (what, tamper)) in cases.into_iter().enumerate() {
            let what = format!("{kind:?}, {what}");
            let input = random_input(&model, 801 + c as u64);
            let tamper = Some((Dir::Down, tamper));
            let ids = (model_id, c as u64);
            let (r, back) =
                relayed_request(&rt, ids, clients.remove(0), party, input, tamper, &what);
            clients.push(back);
            assert!(
                matches!(r.ran, Err(ProtocolError::BadRequest(_))),
                "{what}: {:?}",
                r.ran
            );
            assert_eq!(r.up, Transcript::new(), "{what}: the client sent something");
            assert!(
                matches!(r.served, Err(ProtocolError::Channel(_))),
                "{what}: {:?}",
                r.served
            );
        }
        // Not the rewound base: a fresh session's base is 0.
        for &(what, tamper) in &cases[1..] {
            let what = format!("{kind:?}, dedicated pair, {what}");
            let (ran, served) = tampered_sync_run(&model, &cfg, (Dir::Down, tamper), &what);
            let refused = matches!(ran, Err(ProtocolError::BadRequest(_)));
            assert!(refused, "{what}: {ran:?}");
            let hung_up = matches!(served, Err(ProtocolError::Channel(_)));
            assert!(hung_up, "{what}: {served:?}");
        }
        // The refused returning client kept its mark: the range it was
        // offered is burnt, the next one is served.
        let input = random_input(&model, 810);
        let expect = model.forward(&input);
        let (r, _) = relayed_request(
            &rt,
            (model_id, 0),
            clients.remove(0),
            party,
            input,
            None,
            "return visit",
        );
        assert_eq!(r.ran, Ok(expect), "{kind:?}: return visit");
        assert_eq!(r.status, (Msg::OT_CACHED, 2 * meta.ot_blocks(kind)));
        neighbour_completes(&rt, (model_id, 3), &model, party, &format!("{kind:?}"));
    }
}

fn drop_need_keys(m: &mut Msg, _: u64) {
    if let Msg::KeyStatus { flags, .. } = m {
        *flags &= !Msg::NEED_KEYS;
    }
}

/// A `KeyStatus` that claims the server caches HE keys a fresh client does
/// not hold is a `BadRequest` before the client sends anything, under both
/// garbler kinds: no Server-Garbler base-OT setup goes out ahead of the
/// refusal, and the session left behind ends when the client hangs up.
#[test]
fn a_claim_of_cached_keys_is_refused_before_the_client_sends() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let cfg = match kind {
            ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(he.clone()),
            ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(he.clone(), 1),
        };
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model(model.clone(), cfg.clone());
        let what = format!("{kind:?}, cached-keys claim, fresh client");
        let (_, tamper) = case("", "KeyStatus", 0, drop_need_keys);
        let (r, _) = relayed_request(
            &rt,
            (model_id, 0),
            ServiceClient::new(),
            (&meta, &cfg),
            random_input(&model, 820),
            Some((Dir::Down, tamper)),
            &what,
        );
        assert_eq!(r.status.0 & Msg::NEED_KEYS, Msg::NEED_KEYS, "{what}");
        assert!(
            matches!(r.ran, Err(ProtocolError::BadRequest(_))),
            "{what}: {:?}",
            r.ran
        );
        assert_eq!(r.up, Transcript::new(), "{what}: the client sent something");
        assert!(
            matches!(r.served, Err(ProtocolError::Channel(_))),
            "{what}: {:?}",
            r.served
        );
    }
}

/// Replaces the relayed message with a well-formed base-OT setup.
fn base_ot_setup(m: &mut Msg, _: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    *m = Msg::OtBaseSetup(pi_ot::BaseOtSender::new(&mut rng).1);
}

/// A Server-Garbler session takes the client's base-OT setup as its first
/// message and at no other point: a setup where the first linear message
/// belongs (a second one), one after the first linear message, and one to
/// a session running on cached OT state are each `UnexpectedMsg` — under
/// the runtime and under `drive_sync` (whose session's own table starts
/// empty, so the third has no `drive_sync` form), in both linear modes — and a neighbour
/// completes bit-exact after them.
#[test]
fn a_base_ot_setup_out_of_its_place_is_unexpected() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let meta = ModelMeta::of(&model);
    for he in [Some(&he), None] {
        let cfg = protocol_cfg(ProtocolKind::ServerGarbler, he);
        let party = (&meta, &cfg);
        // The uplink message a setup replaces — `(kind, nth)` — which is
        // also what the session expected: the first linear message, the
        // one after it, and a returning session's first.
        let (first, second, returning) = match he {
            Some(_) => (("HeKeys", 0), ("HeCts", 0), ("HeCts", 0)),
            None => (("VecU64", 0), ("VecU64", 1), ("VecU64", 0)),
        };
        let unexpected =
            |served: &Result<pi_core::PartyOutcome, ProtocolError>, expected: &str, what: &str| {
                let got = match served {
                    Err(ProtocolError::UnexpectedMsg { expected, got }) => Some((*expected, *got)),
                    _ => None,
                };
                assert_eq!(got, Some((expected, "OtBaseSetup")), "{what}: {served:?}");
            };
        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model((*model).clone(), cfg.clone());
        let cases = [
            ("a second setup", first),
            ("a setup after the first linear message", second),
        ];
        for (c, (what, (target, nth))) in cases.into_iter().enumerate() {
            let what = format!("he={}, {what}", he.is_some());
            let (_, tamper) = case("", target, nth, base_ot_setup);
            let input = random_input(&model, 1_000 + c as u64);
            let ids = (model_id, c as u64);
            let served = tampered_session(&rt, ids, party, input, tamper, &what);
            unexpected(&served, target, &format!("runtime, {what}"));
            let (ran, served) = tampered_sync_run(&model, &cfg, (Dir::Up, tamper), &what);
            unexpected(&served, target, &format!("drive_sync, {what}"));
            assert!(
                matches!(ran, Err(ProtocolError::Channel(_))),
                "{what}: {ran:?}"
            );
        }
        // A returning client: its second session runs on cached OT state.
        let what = format!("he={}, a setup on cached OT state", he.is_some());
        let (ids, client) = ((model_id, 2), ServiceClient::new());
        let input = random_input(&model, 1_010);
        let expect = model.forward(&input);
        let (r, client) = relayed_request(&rt, ids, client, party, input, None, &what);
        assert_eq!(r.ran, Ok(expect), "{what}: first visit");
        let (target, nth) = returning;
        let tamper = Some((Dir::Up, case("", target, nth, base_ot_setup).1));
        let input = random_input(&model, 1_011);
        let (r, _) = relayed_request(&rt, ids, client, party, input, tamper, &what);
        assert_eq!(r.status.0 & Msg::OT_CACHED, Msg::OT_CACHED, "{what}");
        unexpected(&r.served, target, &what);
        assert!(
            matches!(r.ran, Err(ProtocolError::Channel(_))),
            "{what}: {:?}",
            r.ran
        );
        let what = format!("he={}", he.is_some());
        neighbour_completes(&rt, (model_id, 3), &model, party, &what);
        let input = random_input(&model, 1_012);
        let (out, _) = pi_core::private_inference(&model, &input, &cfg);
        assert_eq!(out, model.forward(&input), "{what}: drive_sync neighbour");
    }
}

/// `KeyStatus` says exactly what the server caches, in all four
/// combinations of rotation keys and OT state, under both garbler kinds —
/// and every combination completes bit-exact. One client id visits
/// `tiny_cnn`, again, a model of another key plan (keys missed, OT state
/// hit), and `tiny_cnn` under the other garbler kind (keys hit, the OT
/// state the other kind's). A Server-Garbler session without cached OT
/// state, and only that, opens with the client's base-OT setup.
#[test]
fn key_status_flags_what_the_server_caches() {
    let he = BfvParams::small_test();
    let models = [build_model(&he, 11), build_spec(&mlp_spec(), &he, 12)];
    let metas = [ModelMeta::of(&models[0]), ModelMeta::of(&models[1])];
    let (keys, ot) = (Msg::NEED_KEYS, Msg::OT_CACHED);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let other = match kind {
            ProtocolKind::ClientGarbler => ProtocolKind::ServerGarbler,
            ProtocolKind::ServerGarbler => ProtocolKind::ClientGarbler,
        };
        let rt = ServeRuntime::new(ServeConfig::default());
        let cfgs = [
            protocol_cfg(kind, Some(&he)),
            protocol_cfg(other, Some(&he)),
        ];
        let ids = [
            rt.register_model(models[0].clone(), cfgs[0].clone()),
            rt.register_model(models[1].clone(), cfgs[0].clone()),
            rt.register_model(models[0].clone(), cfgs[1].clone()),
        ];
        // (registered model, model, config, expected flags)
        let visits = [
            (0, 0, 0, keys),
            (0, 0, 0, ot),
            (1, 1, 0, keys | ot),
            (2, 0, 1, 0),
        ];
        let mut client = ServiceClient::new();
        for (visit, (id, m, c, flags)) in visits.into_iter().enumerate() {
            let what = format!("{kind:?}, visit {visit}");
            let input = random_input(&models[m], 1_100 + visit as u64);
            let expect = models[m].forward(&input);
            let party = (&metas[m], &cfgs[c]);
            let (r, back) = relayed_request(&rt, (ids[id], 9), client, party, input, None, &what);
            client = back;
            assert_eq!(r.status.0, flags, "{what}");
            assert_eq!(r.ran, Ok(expect), "{what}");
            assert!(r.served.is_ok(), "{what}: server {:?}", r.served);
            let opens_base_ot = cfgs[c].kind == ProtocolKind::ServerGarbler && flags & ot == 0;
            assert_eq!(
                r.up[0].0 == "OtBaseSetup",
                opens_base_ot,
                "{what}: {:?}",
                r.up
            );
            let uploads = r.up.iter().filter(|m| m.0 == "HeKeys").count();
            assert_eq!(uploads, usize::from(flags & keys != 0), "{what}");
        }
    }
}

/// A 64-wide MLP: both linear phases pad to 64, so its key plan shares
/// elements with `tiny_cnn`'s (dims 128/128/16) and equals no part of it.
fn mlp_spec() -> NetSpec {
    NetSpec {
        name: "mlp-64".into(),
        input: [1, 8, 8],
        ops: vec![
            SpecOp::Flatten,
            SpecOp::Linear { out: 40 },
            SpecOp::Relu,
            SpecOp::Linear { out: 4 },
        ],
    }
}

/// One client id alternating between two models of one runtime, A-B-A-B,
/// both kinds under HE: rotation keys are generated, uploaded and cached
/// per key plan, so every visit is bit-exact, the first visit to each model
/// uploads that model's plan and the second is a key-table hit with no
/// `HeKeys` on the wire. (Cached per client alone, model B's matvec would
/// run under model A's keys: a missing key, a dead worker, a hung client.)
#[test]
fn one_client_alternating_between_two_models_is_served_both_ways() {
    let he = BfvParams::small_test();
    let models = [build_model(&he, 11), build_spec(&mlp_spec(), &he, 12)];
    let metas = [ModelMeta::of(&models[0]), ModelMeta::of(&models[1])];
    assert_ne!(metas[0].key_plan(&he), metas[1].key_plan(&he));
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let cfg = protocol_cfg(kind, Some(&he));
        let rt = ServeRuntime::new(ServeConfig::default());
        let ids = [0, 1].map(|m| rt.register_model(models[m].clone(), cfg.clone()));
        let mut client = ServiceClient::new();
        for (visit, m) in [0, 1, 0, 1].into_iter().enumerate() {
            let what = format!("{kind:?}, visit {visit}");
            let input = random_input(&models[m], 900 + visit as u64);
            let expect = models[m].forward(&input);
            let party = (&metas[m], &cfg);
            let (r, back) = relayed_request(&rt, (ids[m], 5), client, party, input, None, &what);
            client = back;
            assert_eq!(r.ran, Ok(expect), "{what}");
            assert!(r.served.is_ok(), "{what}: server {:?}", r.served);
            let first_visit = visit < 2;
            assert_eq!(r.status.0 & Msg::NEED_KEYS != 0, first_visit, "{what}");
            let uploads = r.up.iter().filter(|m| m.0 == "HeKeys").count();
            assert_eq!(uploads, usize::from(first_visit), "{what}");
        }
        let keys = rt.key_table_stats();
        assert_eq!(
            (keys.inserts, keys.hits, keys.misses),
            (2, 2, 2),
            "{kind:?}"
        );
    }
}
