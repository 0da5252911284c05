//! The pi-trace overhead contract, measured from outside the crate:
//!
//! * `PI_TRACE=off` must be *bit-identical* — tracing may never perturb
//!   protocol results, only observe them.
//! * `counters` mode must be cheap enough to leave on in release: the
//!   target is <2% on the replicated matvec at d = 128 (the HE kernel
//!   the protocol spends its linear-layer time in; one call crosses the
//!   `he.hoist`, `he.rotation`, `he.key_switch` and NTT counters and runs
//!   for milliseconds, well above timer noise). Counting happens at batch
//!   boundaries only, so the atomics are amortized over thousands of
//!   coefficient operations.
//! * Histogram bucketing and cross-thread span collection must stay sane
//!   at the edges — these back every merged `TraceReport` the service
//!   layer prints.
//!
//! Mode forcing mutates process-global state, so the tests that force a
//! mode serialize on a local mutex (integration tests in one binary run on
//! parallel threads).

use pi_core::{
    private_inference, ModelMeta, ProtocolConfig, ProtocolKind, ServeConfig, ServeRuntime,
    ServiceClient,
};
use pi_he::linalg::{self, BsgsDiagonals, PlainMatrix};
use pi_he::{BatchEncoder, BfvParams, Ciphertext, KeySet};
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use pi_trace::TraceMode;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes tests that force the global trace mode.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Matvec dimension of the HE fixture: at n = 2048, 16 replicas of 8 steps —
/// 2 baby and 2 giant rotations, then 3 rotate-and-sum rotations and the
/// row swap.
const DIM: usize = 128;

/// A seeded `DIM × DIM` matvec: keys, packed matrix, encrypted input.
struct MatvecFixture {
    keys: KeySet,
    enc: BatchEncoder,
    diags: BsgsDiagonals,
    ct: Ciphertext,
}

impl MatvecFixture {
    fn new(seed: u64) -> Self {
        let params = BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let keys = KeySet::generate_for_dims(&params, &[DIM], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        let mut draw =
            |len: usize| -> Vec<u64> { (0..len).map(|_| rng.gen_range(0..t.value())).collect() };
        let w = PlainMatrix::new(DIM, DIM, &draw(DIM * DIM), t);
        let v = draw(DIM);
        let diags = linalg::encode_diagonals_bsgs(&enc, &w);
        let (ct, _) = keys
            .secret
            .encrypt_seeded(&linalg::encode_input(&enc, &v, DIM), &mut rng);
        Self {
            keys,
            enc,
            diags,
            ct,
        }
    }

    fn run(&self) -> Ciphertext {
        linalg::matvec_precomputed(&self.keys.galois, &self.diags, &self.ct)
    }

    /// The decrypted, decoded product.
    fn output(&self) -> Vec<u64> {
        let pt = self.keys.secret.decrypt(&self.run());
        self.enc.decode_prefix(&pt, DIM)
    }

    fn time(&self) -> Duration {
        let t0 = Instant::now();
        std::hint::black_box(self.run());
        t0.elapsed()
    }
}

/// Tracing observes; it must never change a single bit of the result.
#[test]
fn off_and_full_modes_are_bit_identical() {
    let _l = mode_lock();

    // HE path: same seed, different trace mode, identical ciphertext math.
    pi_trace::force_mode(Some(TraceMode::Off));
    let he_off = MatvecFixture::new(41).output();
    pi_trace::force_mode(Some(TraceMode::Full));
    let he_full = MatvecFixture::new(41).output();
    assert_eq!(he_off, he_full, "trace mode changed HE results");

    // Full protocol (GC + OT + secret sharing), deterministic seeds.
    let spec = zoo::tiny_cnn();
    let fx = FixedConfig {
        p: pi_he::BfvParams::small_test().t(),
        f: 5,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let net = Network::materialize(&spec, &mut rng);
    let qnet = QuantNetwork::quantize(&net, fx);
    let model = PiModel::lower(&qnet);
    let input: Vec<u64> = (0..model.input_len)
        .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
        .collect();
    let cfg = ProtocolConfig::clear(ProtocolKind::ClientGarbler);

    pi_trace::force_mode(Some(TraceMode::Off));
    let (out_off, rep_off) = private_inference(&model, &input, &cfg);
    pi_trace::force_mode(Some(TraceMode::Full));
    let (out_full, rep_full) = private_inference(&model, &input, &cfg);
    pi_trace::force_mode(None);

    assert_eq!(out_off, out_full, "trace mode changed protocol outputs");
    assert_eq!(out_off, qnet.forward_fixed(&input));
    // Channel byte accounting is authoritative and mode-independent; only
    // the trace mirror comes and goes.
    assert_eq!(rep_off.gc_bytes, rep_full.gc_bytes);
    assert_eq!(rep_off.offline.upload_bytes, rep_full.offline.upload_bytes);
    assert_eq!(rep_off.online.total_bytes(), rep_full.online.total_bytes());
    assert!(
        rep_off.trace.counters.is_empty(),
        "off mode must record nothing"
    );
    assert!(rep_full.trace.counter("gc.relu").unwrap_or(0) > 0);
}

/// `CostReport`'s gate rates read the gate counts the GC kernels put in the
/// trace: under full tracing, a Client-Garbler `tiny_cnn` report's garble
/// rate is `gc.and_garbled` over `offline.garble_ms`; below full nothing is
/// timed and there is no rate.
#[test]
fn gate_rates_are_the_trace_counters_over_the_phase_spans() {
    use pi_trace::Counter;
    let _l = mode_lock();
    let fx = FixedConfig {
        p: pi_he::BfvParams::small_test().t(),
        f: 5,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
    let model = PiModel::lower(&QuantNetwork::quantize(&net, fx));
    let input: Vec<u64> = (0..model.input_len)
        .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
        .collect();
    let cfg = ProtocolConfig::clear(ProtocolKind::ClientGarbler);

    pi_trace::force_mode(Some(TraceMode::Counters));
    let (_, counted) = private_inference(&model, &input, &cfg);
    pi_trace::force_mode(Some(TraceMode::Full));
    let (_, full) = private_inference(&model, &input, &cfg);
    pi_trace::force_mode(None);

    assert!(counted
        .trace
        .counter(Counter::GcAndGarbled.name())
        .is_some());
    assert_eq!(counted.garble_gates_per_sec(), None);
    assert_eq!(counted.eval_gates_per_sec(), None);
    let garbled = full.trace.counter(Counter::GcAndGarbled.name());
    let and_gates: u64 = (model.phases.iter())
        .filter_map(|ph| ph.relu_shift.map(|shift| (ph.rows, shift)))
        .map(|(rows, shift)| {
            let ands = pi_gc::relu::relu_trunc_circuit(fx.p.value(), shift)
                .0
                .and_count();
            (rows * ands) as u64
        })
        .sum();
    assert_eq!(garbled, Some(and_gates), "one count per garbled AND");
    let ms = full
        .offline
        .garble_ms
        .expect("garbling is timed under full");
    let rate = full.garble_gates_per_sec().expect("a measured rate");
    assert_eq!(rate, and_gates as f64 / (ms / 1e3));
}

/// A request's trace scope is thread-local, and the GC and OT kernels of a
/// large ReLU phase split across cores: every count must still land on the
/// thread that holds the scope. For a Client-Garbler inference with 8192
/// ReLUs (garbling, evaluation and 163 840 OTs all above their split grain
/// on a multi-core host), the request's own counters equal what the
/// process-global ones moved by.
#[test]
fn split_kernels_keep_every_count_in_the_request_report() {
    use pi_trace::Counter;
    let _l = mode_lock();
    let spec = pi_nn::NetSpec {
        name: "mlp8192".into(),
        input: [1, 8, 8],
        ops: vec![
            pi_nn::SpecOp::Flatten,
            pi_nn::SpecOp::Linear { out: 8192 },
            pi_nn::SpecOp::Relu,
            pi_nn::SpecOp::Linear { out: 10 },
        ],
    };
    let fx = FixedConfig {
        p: pi_he::BfvParams::small_test().t(),
        f: 5,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(8192);
    let qnet = QuantNetwork::quantize(&Network::materialize(&spec, &mut rng), fx);
    let model = PiModel::lower(&qnet);
    let input: Vec<u64> = (0..model.input_len)
        .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
        .collect();
    let cfg = ProtocolConfig::clear(ProtocolKind::ClientGarbler);

    let counters = [
        Counter::AesBlocks,
        Counter::OtExtended,
        Counter::GcAndGarbled,
        Counter::GcAndEvaluated,
    ];
    pi_trace::force_mode(Some(TraceMode::Counters));
    let before = counters.map(pi_trace::global_counter);
    let (out, report) = private_inference(&model, &input, &cfg);
    let after = counters.map(pi_trace::global_counter);
    pi_trace::force_mode(None);

    assert_eq!(out, qnet.forward_fixed(&input));
    assert_eq!(report.trace.counter("ot.extended"), Some(8192 * 20));
    for ((c, b), a) in counters.iter().zip(before).zip(after) {
        assert_eq!(report.trace.counter(c.name()), Some(a - b), "{}", c.name());
    }
}

/// A serving-runtime session computes its own HE matvecs, inside its own
/// pump, so their work lands in the request's report. For one
/// Client-Garbler `tiny_cnn` request on a one-worker runtime, the server's
/// `he.rotation` count is the sum of `matvec_op_count` over the model's
/// phases, and exactly what the process-global counter moved by.
#[test]
fn a_served_request_reports_its_own_matvec_rotations() {
    use pi_trace::Counter;
    let _l = mode_lock();
    let he = BfvParams::small_test();
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
    let model = PiModel::lower(&QuantNetwork::quantize(&net, fx));
    let meta = ModelMeta::of(&model);
    let input: Vec<u64> = (0..model.input_len)
        .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
        .collect();
    let cfg = ProtocolConfig::client_garbler(he.clone(), 1);
    let rt = ServeRuntime::new(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let model_id = rt.register_model(model.clone(), cfg.clone());

    pi_trace::force_mode(Some(TraceMode::Counters));
    let before = pi_trace::global_counter(Counter::HeRotation);
    let conn = rt.connect(0, model_id, 1);
    let (out, _) = ServiceClient::new()
        .run(&meta, &input, &cfg, &conn.chan, &mut rng)
        .expect("client run");
    let server = conn.handle.wait().expect("server outcome");
    let after = pi_trace::global_counter(Counter::HeRotation);
    pi_trace::force_mode(None);

    assert_eq!(out, model.forward(&input));
    let expect: u64 = (meta.phases.iter())
        .map(|ph| linalg::matvec_op_count(he.n(), ph.padded_dim).rotations() as u64)
        .sum();
    assert!(expect > 0);
    let reported = server.trace.counter(Counter::HeRotation.name());
    assert_eq!(reported, Some(expect), "the session's own report");
    assert_eq!(after - before, expect, "the global counter");
}

/// Counters mode on the replicated matvec. Interleaved single-call trials with
/// min-statistics (the minimum is the least noise-contaminated estimate of
/// the true cost). On a shared host the two minima can sit a few percent
/// apart after thirty trials, so sampling continues in blocks, both minima
/// accumulating, until the estimate is inside the bound or three blocks are
/// spent: noise passes on more data, an overhead that is really there does
/// not. The 2% contract is asserted in release, with slack for unoptimized
/// timer-noise-dominated debug builds.
#[test]
fn counters_mode_overhead_is_negligible_on_bsgs_matvec() {
    let _l = mode_lock();
    let fx = MatvecFixture::new(7);

    // Warm up caches and the lazy mode dispatch before timing anything.
    pi_trace::force_mode(Some(TraceMode::Counters));
    fx.time();
    pi_trace::force_mode(Some(TraceMode::Off));
    fx.time();

    // Contract: <2%. Debug builds get headroom — the work under test is
    // ~20x slower unoptimized, so scheduler noise swamps the 2% band.
    let limit = if cfg!(debug_assertions) { 1.20 } else { 1.02 };
    let mut best_off = Duration::MAX;
    let mut best_counters = Duration::MAX;
    let mut ratio = f64::INFINITY;
    for _block in 0..3 {
        for _ in 0..31 {
            pi_trace::force_mode(Some(TraceMode::Off));
            best_off = best_off.min(fx.time());
            pi_trace::force_mode(Some(TraceMode::Counters));
            best_counters = best_counters.min(fx.time());
        }
        ratio = best_counters.as_secs_f64() / best_off.as_secs_f64();
        if ratio < limit {
            break;
        }
    }
    pi_trace::force_mode(None);

    assert!(
        ratio < limit,
        "counters-mode overhead {:.1}% exceeds limit ({:.1}%): off {:?} vs counters {:?}",
        (ratio - 1.0) * 100.0,
        (limit - 1.0) * 100.0,
        best_off,
        best_counters
    );
}

/// Log-linear bucketing invariants at the edges: every value lands in a
/// bucket whose lower bound does not exceed it, indices are monotone in
/// the value, and the extremes (0, u64::MAX) stay in range.
#[test]
fn histogram_bucketing_edges() {
    let edge_values = [
        0u64,
        1,
        7,
        8, // SUB boundary: first log-linear bucket
        9,
        15,
        16,
        255,
        256,
        257,
        u32::MAX as u64,
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut last_idx = 0usize;
    for &v in &edge_values {
        let idx = pi_trace::bucket_index(v);
        assert!(idx < pi_trace::NUM_BUCKETS, "index out of range for {v}");
        assert!(idx >= last_idx, "bucket index not monotone at {v}");
        last_idx = idx;
        let lb = pi_trace::bucket_lower_bound(idx);
        assert!(lb <= v, "lower bound {lb} exceeds value {v}");
        if idx + 1 < pi_trace::NUM_BUCKETS {
            assert!(
                pi_trace::bucket_lower_bound(idx + 1) > v,
                "value {v} belongs in a later bucket"
            );
        }
    }
    // The log-linear scheme promises <=12.5% relative error (SUB = 8
    // sub-buckets per octave): check it across the whole range.
    for shift in 4..63 {
        let v = (1u64 << shift) + (1u64 << (shift - 2));
        let lb = pi_trace::bucket_lower_bound(pi_trace::bucket_index(v));
        assert!(
            (v - lb) as f64 / v as f64 <= 0.125 + 1e-9,
            "bucket error too large at {v}: lower bound {lb}"
        );
    }
}

/// Spans recorded on worker threads merge into one report: same-name spans
/// accumulate counts, and per-party local scopes stay isolated until the
/// service merges them (the pi-core `PartyOutcome::trace` pattern).
#[test]
fn cross_thread_spans_merge_into_one_report() {
    let _l = mode_lock();
    pi_trace::force_mode(Some(TraceMode::Full));
    let reports: Vec<pi_trace::TraceReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                scope.spawn(move || {
                    let local = pi_trace::begin_local();
                    let _party = pi_trace::span!("party");
                    {
                        let _phase = pi_trace::span!("phase");
                        pi_trace::add(pi_trace::Counter::OtExtended, k + 1);
                    }
                    drop(_party);
                    local.finish()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    pi_trace::force_mode(None);

    // Each thread saw only its own work...
    for (k, r) in reports.iter().enumerate() {
        assert_eq!(r.counter("ot.extended"), Some(k as u64 + 1));
        assert_eq!(r.span_stat("party").unwrap().count, 1);
    }
    // ...and the merged view accumulates all of it under shared paths.
    let mut merged = pi_trace::TraceReport::default();
    for r in &reports {
        merged.merge(r);
    }
    assert_eq!(merged.counter("ot.extended"), Some(1 + 2 + 3 + 4));
    let party = merged.span_stat("party").unwrap();
    assert_eq!(party.count, 4);
    let phase = merged.span_stat("party/phase").unwrap();
    assert_eq!(phase.count, 4);
    assert!(
        phase.total_ns <= party.total_ns,
        "nesting must be contained"
    );
}
