//! Serving-runtime integration tests: N-client concurrency bit-identity,
//! dropped and misbehaving clients, session-table eviction under a tiny
//! byte budget, the pinned message transcript, and the malformed-shape
//! sweeps (nothing a peer sends panics a party).

use pi_core::channel::{local_pair, Channel};
use pi_core::msg::Msg;
use pi_core::serve::session::drive_sync;
use pi_core::{
    ModelMeta, ProtocolConfig, ProtocolError, ProtocolKind, ServeConfig, ServeRuntime,
    ServiceClient,
};
use pi_field::{ModpGroup, U1024};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn build_model(he: &BfvParams, seed: u64) -> PiModel {
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
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

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..Default::default()
    }
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
        let rt = ServeRuntime::new(serve_cfg(4));
        run_concurrent_clients(&rt, &model, &ProtocolConfig::clear(kind), 4);
    }
}

#[test]
fn concurrent_clients_match_reference_he_client_garbler() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let rt = ServeRuntime::new(serve_cfg(4));
    run_concurrent_clients(&rt, &model, &ProtocolConfig::client_garbler(he, 1), 3);
    // Three distinct clients uploaded keys; the fused matvec batches ran.
    assert_eq!(rt.key_table_stats().inserts, 3);
}

#[test]
fn concurrent_clients_match_reference_he_server_garbler() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let rt = ServeRuntime::new(serve_cfg(2));
    run_concurrent_clients(&rt, &model, &ProtocolConfig::server_garbler(he), 2);
}

#[test]
fn dropped_client_aborts_one_session_not_the_server() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let rt = ServeRuntime::new(serve_cfg(2));
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    // The dropper connects, reads the KeyStatus preamble, and vanishes
    // mid-protocol.
    let dropper = rt.connect(0, model_id, 1);
    assert!(matches!(
        dropper.chan.recv(),
        Ok(Msg::KeyStatus { need_keys: false })
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
    let rt = ServeRuntime::new(serve_cfg(1));
    let model_id = rt.register_model(model.clone(), cfg);

    let conn = rt.connect(0, model_id, 1);
    assert!(matches!(conn.chan.recv(), Ok(Msg::KeyStatus { .. })));
    // Clear mode expects a VecU64 offline input; send garbage labels.
    conn.chan.send(Msg::GcLabels(Vec::new())).unwrap();
    match conn.handle.wait() {
        Err(ProtocolError::UnexpectedMsg { expected, got }) => {
            assert_eq!(expected, "VecU64");
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
        workers: 2,
        table_budget_bytes: 1,
        table_shards: 1,
        ..Default::default()
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
    // times (no regeneration, but no skip either).
    assert!(again.offline_sent > first.offline_sent / 2);
}

#[test]
fn key_table_hit_skips_the_upload() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let rt = ServeRuntime::new(serve_cfg(2));
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
    let stats = rt.key_table_stats();
    assert!(stats.hits >= 1, "stats: {stats:?}");
    assert_eq!(stats.inserts, 1);
    // Cached keys: the second request's upload drops by the key material.
    assert!(
        second.offline_sent < first.offline_sent / 2,
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
        Msg::HeKeys { pk, gk } => 8 + pk.len() + 8 + gk.len(),
        Msg::HeCts(frames) => 8 + frames.iter().map(|f| 8 + f.len()).sum::<usize>(),
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
/// parties may change them. `OtBaseTransfer` is the one size the protocol
/// itself has changed since: one `g^r` for the batch, 128 + 32·128 bytes.
fn pinned_transcript(kind: ProtocolKind) -> (Transcript, Transcript) {
    let he_up = [("HeKeys", 7_761_820), ("HeCts", 15_938), ("HeCts", 15_938)];
    let he_down = [("HeCts", 23_074); 3];
    let (up, down): (&[_], &[_]) = match kind {
        ProtocolKind::ClientGarbler => (
            &[
                ("HeCts", 15_938),
                ("OtBaseChoice", 16_384),
                ("GcTables", 323_144),
                ("GcDecode", 800),
                ("GcLabels", 46_088),
                ("GcTables", 71_816),
                ("GcDecode", 184),
                ("GcLabels", 10_248),
                ("VecU64", 296),
                ("OtTransfer", 46_088),
                ("OtTransfer", 10_248),
            ],
            &[
                ("OtBaseSetup", 128),
                ("OtBaseTransfer", 4_224),
                ("OtExtend", 23_048),
                ("OtExtend", 5_128),
                ("VecU64", 40),
            ],
        ),
        ProtocolKind::ServerGarbler => (
            &[
                ("HeCts", 15_938),
                ("OtBaseSetup", 128),
                ("OtBaseTransfer", 4_224),
                ("OtExtend", 46_088),
                ("OtExtend", 10_248),
                ("VecU64", 296),
                ("GcLabels", 23_048),
                ("GcLabels", 5_128),
            ],
            &[
                ("OtBaseChoice", 16_384),
                ("GcTables", 323_144),
                ("OtTransfer", 92_168),
                ("GcTables", 71_816),
                ("OtTransfer", 20_488),
                ("GcLabels", 23_048),
                ("GcLabels", 5_128),
                ("VecU64", 40),
            ],
        ),
    };
    ([&he_up, up].concat(), [&he_down, down].concat())
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
        let cfg = match kind {
            ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(he.clone(), 1),
            ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(he.clone()),
        };
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
    };
    (what, tamper)
}

/// Forwards `from` → `to` on a detached thread until either side hangs up
/// or the tampered message went out.
fn spawn_relay(from: Arc<Channel>, to: Arc<Channel>, tamper: Option<(Tamper, u64)>) {
    std::thread::spawn(move || {
        let mut seen = 0;
        while let Ok(mut m) = from.recv() {
            let mut last = false;
            if let Some((t, p)) = tamper.filter(|(t, _)| t.target == m.kind()) {
                last = seen == t.nth;
                if last {
                    (t.mutate)(&mut m, p);
                }
                seen += 1;
            }
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

/// One session of an honest client whose upload passes through a relay
/// applying `tamper`: returns how the server's session resolved, having
/// checked that the abort hung up on the client. The honest client runs on
/// a dedicated pair; the relays splice it onto the session (whose preamble
/// this swallows).
fn tampered_session(
    rt: &ServeRuntime,
    (model_id, client_id): (usize, u64),
    (meta, cfg): (&ModelMeta, &ProtocolConfig),
    input: Vec<u64>,
    (tamper, p): (Tamper, u64),
    what: &str,
) -> Result<pi_core::PartyOutcome, ProtocolError> {
    let conn = rt.connect(client_id, model_id, 2_000 + client_id);
    assert!(matches!(conn.chan.recv(), Ok(Msg::KeyStatus { .. })));
    let (c_chan, c_peer) = local_pair();
    let (c_peer, session) = (Arc::new(c_peer), Arc::new(conn.chan));
    spawn_relay(c_peer.clone(), session.clone(), Some((tamper, p)));
    spawn_relay(session, c_peer, None);
    let honest = {
        let (meta, cfg) = (meta.clone(), cfg.clone());
        std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            ServiceClient::new().run(&meta, &input, &cfg, &c_chan, &mut rng)
        })
    };
    let handle = conn.handle;
    let served = within_a_minute(what, move || handle.wait());
    let ran = honest.join().expect("honest client thread");
    assert!(
        matches!(ran, Err(ProtocolError::Channel(_))),
        "{what}: {ran:?}"
    );
    served
}

/// A well-behaved client on `rt` completes bit-exact: after aborted
/// sessions, the proof that no worker died and no slot is stuck.
fn neighbour_completes(
    rt: &ServeRuntime,
    model_id: usize,
    model: &PiModel,
    (meta, cfg): (&ModelMeta, &ProtocolConfig),
    what: &str,
) {
    let input = random_input(model, 400);
    let conn = rt.connect(100, model_id, 3_000);
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

/// The base-OT group element the sweeps corrupt: the message's only one,
/// or one key in the middle of a choice.
fn group_element(m: &mut Msg) -> &mut U1024 {
    match m {
        Msg::OtBaseSetup(s) => &mut s.c,
        Msg::OtBaseChoice(c) => &mut c.pk0[5],
        Msg::OtBaseTransfer(t) => &mut t.gr,
        other => panic!("no group element in {}", other.kind()),
    }
}

fn zero_element(m: &mut Msg, _: u64) {
    *group_element(m) = U1024::ZERO;
}

fn unreduced_element(m: &mut Msg, _: u64) {
    *group_element(m) = *ModpGroup::oakley2().modulus();
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

/// Nothing a client sends panics a worker: on a **one-worker** runtime, for
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
    let p = model.p.value();
    let masked_input = meta.phases.len(); // follows one r_cat per phase
    let both = [
        case("r_cat out of range", "VecU64", 0, unreduced),
        case(
            "masked input out of range",
            "VecU64",
            masked_input,
            unreduced,
        ),
    ];
    let sg_cases = [
        case("base-OT setup element zero", "OtBaseSetup", 0, zero_element),
        case(
            "base-OT setup element ≥ p",
            "OtBaseSetup",
            0,
            unreduced_element,
        ),
        case("empty base-OT transfer", "OtBaseTransfer", 0, shorten),
        case(
            "base-OT transfer g^r zero",
            "OtBaseTransfer",
            0,
            zero_element,
        ),
        case(
            "base-OT transfer g^r ≥ p",
            "OtBaseTransfer",
            0,
            unreduced_element,
        ),
        case("extension count off by one", "OtExtend", 0, miscount),
        case("extension misses a column", "OtExtend", 1, drop_column),
        case("extension columns a word short", "OtExtend", 0, shorten),
    ];
    let cg_cases = [
        case("base-OT choice misses a key", "OtBaseChoice", 0, shorten),
        case("base-OT choice key zero", "OtBaseChoice", 0, zero_element),
        case(
            "base-OT choice key ≥ p",
            "OtBaseChoice",
            0,
            unreduced_element,
        ),
        case("table set misses a gate", "GcTables", 0, shorten),
        case("decode vector misses a bit", "GcDecode", 1, shorten),
        case("OT transfer misses a pair", "OtTransfer", 0, shorten),
    ];
    for (kind, own) in [
        (ProtocolKind::ServerGarbler, &sg_cases[..]),
        (ProtocolKind::ClientGarbler, &cg_cases[..]),
    ] {
        let cfg = ProtocolConfig::clear(kind);
        let rt = ServeRuntime::new(serve_cfg(1));
        let model_id = rt.register_model(model.clone(), cfg.clone());
        for (c, &(what, tamper)) in both.iter().chain(own).enumerate() {
            let what = format!("{kind:?}, {what}");
            let input = random_input(&model, 300 + c as u64);
            let served = tampered_session(
                &rt,
                (model_id, c as u64),
                (&meta, &cfg),
                input,
                (tamper, p),
                &what,
            );
            assert!(
                matches!(served, Err(ProtocolError::BadRequest(_))),
                "{what}: {served:?}"
            );
        }
        // Same runtime, same single worker, after every abort.
        neighbour_completes(&rt, model_id, &model, (&meta, &cfg), &format!("{kind:?}"));
    }
}

/// Flips the low bit of the first Galois-key entry's element `g` (it
/// follows the common header, `q`, the two counts and the seed), making it
/// even: an element with no slot permutation.
fn even_galois_element(m: &mut Msg, _: u64) {
    match m {
        Msg::HeKeys { gk, .. } => gk[10 + 8 + 4 + 4 + 32] ^= 1,
        other => panic!("no Galois keys in {}", other.kind()),
    }
}

/// The key upload is parsed on the worker: a `HeKeys` whose Galois frame
/// names an even element must come back as the reader's typed error — on a
/// one-worker runtime a panic in the parse would leave this session and
/// every later one unresolved — and a well-behaved client on the same
/// runtime must then complete bit-exact under its own fresh keys.
#[test]
fn unusable_uploaded_galois_keys_are_a_wire_error_and_the_worker_survives() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let rt = ServeRuntime::new(serve_cfg(1));
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let (what, tamper) = case("even Galois element", "HeKeys", 0, even_galois_element);

    let served = tampered_session(
        &rt,
        (model_id, 0),
        (&meta, &cfg),
        random_input(&model, 300),
        (tamper, 0),
        what,
    );
    assert!(
        matches!(
            served,
            Err(ProtocolError::Wire(pi_he::WireError::ParamMismatch))
        ),
        "{what}: {served:?}"
    );
    // Nothing of the refused upload was cached; the neighbour's is.
    assert_eq!(rt.key_table_stats().inserts, 0);
    neighbour_completes(&rt, model_id, &model, (&meta, &cfg), what);
    assert_eq!(rt.key_table_stats().inserts, 1);
}

/// The mirror image: nothing a server sends panics the client. An honest
/// `drive_sync` server's traffic is corrupted on its way down; the client
/// must return `BadRequest`.
#[test]
fn malformed_server_messages_are_bad_requests_to_the_client() {
    let he = BfvParams::small_test();
    let model = Arc::new(build_model(&he, 11));
    let meta = ModelMeta::of(&model);
    let p = model.p.value();
    let output_share = meta.phases.len(); // follows one linear share per phase
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
        case("base-OT choice misses a key", "OtBaseChoice", 0, shorten),
        case("base-OT choice key zero", "OtBaseChoice", 0, zero_element),
        case(
            "base-OT choice key ≥ p",
            "OtBaseChoice",
            0,
            unreduced_element,
        ),
        case("table set misses a gate", "GcTables", 1, shorten),
        case("OT transfer misses a pair", "OtTransfer", 0, shorten),
    ];
    let cg_cases = [
        case("base-OT setup element zero", "OtBaseSetup", 0, zero_element),
        case(
            "base-OT setup element ≥ p",
            "OtBaseSetup",
            0,
            unreduced_element,
        ),
        case("empty base-OT transfer", "OtBaseTransfer", 0, shorten),
        case(
            "base-OT transfer g^r zero",
            "OtBaseTransfer",
            0,
            zero_element,
        ),
        case(
            "base-OT transfer g^r ≥ p",
            "OtBaseTransfer",
            0,
            unreduced_element,
        ),
        case("extension count off by one", "OtExtend", 0, miscount),
        case("extension columns a word short", "OtExtend", 1, shorten),
    ];
    for (kind, own) in [
        (ProtocolKind::ServerGarbler, &sg_cases[..]),
        (ProtocolKind::ClientGarbler, &cg_cases[..]),
    ] {
        let cfg = ProtocolConfig::clear(kind);
        for &(what, tamper) in both.iter().chain(own) {
            let what = format!("{kind:?}, {what}");
            let (c_chan, c_peer) = local_pair();
            let (s_peer, s_chan) = local_pair();
            let (c_peer, s_peer) = (Arc::new(c_peer), Arc::new(s_peer));
            spawn_relay(s_peer.clone(), c_peer.clone(), Some((tamper, p)));
            spawn_relay(c_peer, s_peer, None);
            let server = {
                let (model, cfg) = (model.clone(), cfg.clone());
                std::thread::spawn(move || {
                    let pre = pi_core::ServerPrecomp::new(&model, &cfg);
                    let rng = rand::rngs::StdRng::seed_from_u64(6);
                    drive_sync(&model, &pre, &cfg, &s_chan, rng)
                })
            };
            let input = random_input(&model, 500);
            let (meta, cfg) = (meta.clone(), cfg.clone());
            let ran = within_a_minute(&what, move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                ServiceClient::new().run(&meta, &input, &cfg, &c_chan, &mut rng)
            });
            assert!(
                matches!(ran, Err(ProtocolError::BadRequest(_))),
                "{what}: {ran:?}"
            );
            // The client hung up; the server notices instead of waiting
            // (unless the corrupted message was its last).
            let served = server.join().expect("server thread");
            assert!(
                !matches!(served, Err(ProtocolError::BadRequest(_))),
                "{what}: {served:?}"
            );
        }
    }
}
