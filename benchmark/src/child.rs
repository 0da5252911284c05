//! One workload in one process: what `ledger child` runs. A process per
//! workload keeps CPU time, peak RSS and the trace mode (which `pi-trace`
//! resolves once per process) separate between workloads.
//!
//! An end-to-end child runs with `PI_TRACE=off` and reports the end-to-end
//! metrics; a traced child runs with `PI_TRACE=full` and reports the
//! per-layer metrics. The parent sets the variable, because the program
//! defaults to `full` when it is unset.

use crate::json::Value;
use crate::names::{END_TO_END, PER_LAYER};
use crate::reference::Reference;
use crate::spans::{Recorder, Spans};
use crate::stats::{median, percentile};
use crate::workloads::{Built, Engine, Generator, Outcome, Workload, CLIENTS};
use crate::{host, layers};
use pi_core::{CostReport, TableStats};
use pi_trace::{TraceMode, TraceReport};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median. A set-up is as
/// noisy as a request, so there are five of them — but three where five
/// would take a third of the run (`relu_heavy` lowers for 2.5 s each time).
const SETUP_REPS: usize = 5;
const MIN_SETUP_REPS: usize = 3;

/// Alternating untraced / traced blocks of a traced run: overhead is read
/// from neighbouring blocks, so drift of the host cancels.
const TRACE_BLOCKS: usize = 4;

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

/// Runs the workload and returns the result object the parent parses.
pub fn run(args: &ChildArgs) -> Value {
    let expected = if args.trace {
        TraceMode::Full
    } else {
        TraceMode::Off
    };
    assert_eq!(
        pi_trace::mode(),
        expected,
        "run the child with PI_TRACE={}",
        expected.name()
    );
    let mut reference = Reference::new();
    let (outcomes, values) = if args.trace {
        traced(args, &mut reference)
    } else {
        end_to_end(args, &mut reference)
    };
    let failed = outcomes.iter().filter(|o| o.report.is_none()).count();
    let nums = |values: Vec<f64>| Value::Arr(values.into_iter().map(Value::Num).collect());
    Value::obj([
        ("workload", Value::str(args.workload.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace_mode", Value::str(expected.name())),
        ("clients", Value::Num(CLIENTS as f64)),
        ("attempted", Value::Num(outcomes.len() as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", values),
        // Every request in order (failed ones included), for looking at
        // drift inside a run: its latency as the clock read it, and the
        // factor that took it to the nominal host speed.
        ("samples_ms", nums(outcomes.iter().map(|o| o.ms).collect())),
        (
            "samples_scale",
            nums(outcomes.iter().map(|o| o.scale).collect()),
        ),
        ("host_ref_ms", Value::Num(median(reference.samples_ms()))),
        ("fingerprint", host::fingerprint()),
    ])
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

fn ok_reports(outcomes: &[Outcome]) -> Vec<&CostReport> {
    outcomes.iter().filter_map(|o| o.report.as_ref()).collect()
}

fn succeeded(outcomes: &[Outcome]) -> impl Iterator<Item = &Outcome> {
    outcomes.iter().filter(|o| o.report.is_some())
}

fn end_to_end(args: &ChildArgs, reference: &mut Reference) -> (Vec<Outcome>, Value) {
    let gen = Generator::new(args.seed);
    let setup_budget_s = args.seconds / 3.0;
    // Seconds of each set-up: as the clock read them, and at the nominal
    // host speed.
    let (mut spent_s, mut setups) = (0.0, Vec::with_capacity(SETUP_REPS));
    let mut set_up = |reference: &mut Reference| {
        let ((built, secs), scale) = reference.around(|| {
            let t0 = Instant::now();
            let built = Built::new(args.workload, gen, Spans::off());
            (built, t0.elapsed().as_secs_f64())
        });
        spent_s += secs;
        setups.push(secs * scale);
        let enough = setups.len() >= MIN_SETUP_REPS && spent_s >= setup_budget_s;
        (built, setups.len() == SETUP_REPS || enough)
    };
    let (mut built, _) = set_up(reference);
    let outcomes = built.run_section(
        Duration::from_secs_f64(args.seconds),
        Spans::off(),
        Some(reference),
    );
    // The peak of one set-up and the requests it served: what the repeated
    // set-ups below leave behind depends on when the runtime's threads free
    // it, and would move the peak by a third from run to run.
    let peak_rss_mb = host::peak_rss_mb();
    // Each set-up's runtime and tables go before the next starts, as they
    // would between two runs of a server.
    drop(built);
    while !set_up(reference).1 {}

    let reports = ok_reports(&outcomes);
    let ok = reports.len().max(1) as f64;
    // Every time is taken to the nominal host speed request by request. The
    // rate and the CPU time are the median request's, not the mean's: on
    // this host a first touch of fresh memory now and then costs 30 times
    // what it usually does, which doubles single requests of `serve_churn`.
    let scaled = |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> {
        succeeded(&outcomes).map(|o| f(o) * o.scale).collect()
    };
    let latencies = scaled(&|o| o.ms);
    let (cycle_s, cpu_s) = (
        median(&scaled(&|o| o.wall_s)),
        median(&scaled(&|o| o.cpu_s)),
    );
    let per_req =
        |f: &dyn Fn(&CostReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>() / ok;
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&setups),
            "infer_ms_p50" => median(&latencies),
            "infer_ms_p75" => percentile(&latencies, 0.75).unwrap_or(0.0),
            "throughput_rps" => CLIENTS as f64 / cycle_s,
            "cpu_ms_per_req" => cpu_s * 1e3,
            "bytes_up_per_req" => per_req(&|r| r.offline.upload_bytes + r.online.upload_bytes),
            "bytes_down_per_req" => {
                per_req(&|r| r.offline.download_bytes + r.online.download_bytes)
            }
            "client_storage_bytes" => per_req(&|r| r.client_storage_bytes),
            "server_storage_bytes" => per_req(&|r| r.server_storage_bytes),
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics = Value::obj(
        END_TO_END
            .iter()
            .map(|m| (m.name, metric(value(m.name), m.unit))),
    );
    drop(reports);
    (outcomes, metrics)
}

/// Milliseconds of the span at exactly `path`.
fn span_ms(trace: &TraceReport, path: &str) -> f64 {
    trace
        .spans
        .iter()
        .find(|s| s.path == path)
        .map_or(0.0, |s| s.stat.total_ns as f64 / 1e6)
}

/// `1 − Σ direct children ÷ root` of one party's span tree.
fn unattributed_frac(trace: &TraceReport, root: &str) -> f64 {
    let total = span_ms(trace, root);
    if total == 0.0 {
        return 0.0;
    }
    let prefix = format!("{root}/");
    let children: f64 = trace
        .spans
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix(&prefix)
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|s| s.stat.total_ns as f64 / 1e6)
        .sum();
    1.0 - children / total
}

/// The protocol's phase spans (`pi-trace`'s naming table).
const PHASES: [&str; 6] = [
    "offline.he",
    "offline.garble",
    "offline.ot",
    "online.ot",
    "online.eval",
    "online.ss",
];

/// `(metric, pi-trace counter)`.
const COUNTERS: [(&str, &str); 8] = [
    ("count.ntt_fwd", "ntt.forward"),
    ("count.he_rotation", "he.rotation"),
    ("count.aes_blocks", "aes.blocks"),
    ("count.ot_base", "ot.base"),
    ("count.ot_extended", "ot.extended"),
    ("count.gc_and_garbled", "gc.and_garbled"),
    ("count.gc_and_evaluated", "gc.and_evaluated"),
    ("count.wire_msgs", "wire.msgs"),
];

/// What the program's own gauges read at one moment of a traced run.
struct Gauges {
    /// Process-wide counters: both parties, and for the serving runtime
    /// also the fused batches that no session owns.
    global: TraceReport,
    /// `(key-table stats, aggregate trace)` of the serving runtime.
    serve: Option<(TableStats, TraceReport)>,
}

impl Gauges {
    fn read(built: &Built) -> Self {
        Self {
            global: pi_trace::global_report(),
            serve: match &built.engine {
                Engine::Serve { rt, .. } => Some((rt.key_table_stats(), rt.aggregate_trace())),
                Engine::Direct { .. } => None,
            },
        }
    }
}

fn traced(args: &ChildArgs, reference: &mut Reference) -> (Vec<Outcome>, Value) {
    let rec = Recorder::new();
    let root = Spans::root(&rec);
    let gen = Generator::new(args.seed);
    let mut built = root.scope("setup", None, |s| Built::new(args.workload, gen, s));

    // Half the time goes to requests, the rest to the layer replays.
    let block = Duration::from_secs_f64(args.seconds / 2.0 / TRACE_BLOCKS as f64);
    let before = Gauges::read(&built);
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut full: Vec<Outcome> = Vec::new();
    for b in 0..TRACE_BLOCKS {
        if b % 2 == 0 {
            pi_trace::force_mode(Some(TraceMode::Off));
            untraced.extend(root.scope("untraced", None, |s| {
                built.run_section(block, s, Some(&mut *reference))
            }));
            // Back to what PI_TRACE says, which `run` checked is `full`.
            pi_trace::force_mode(None);
        } else {
            full.extend(root.scope("traced", None, |s| {
                built.run_section(block, s, Some(&mut *reference))
            }));
        }
    }
    let after = Gauges::read(&built);
    let reports = ok_reports(&full);
    let shape = *reports.first().expect("a traced request succeeded");
    assert!(
        reports
            .iter()
            .all(|r| r.trace.mode == TraceMode::Full && !r.trace.spans.is_empty()),
        "full tracing produced no phase spans"
    );
    let n_traced = reports.len() as f64;

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    let per_request = |f: &dyn Fn(&TraceReport) -> f64| -> f64 {
        median(&reports.iter().map(|r| f(&r.trace)).collect::<Vec<_>>())
    };

    // The paper's Table 1 rows. `CostReport`'s own fields sum both
    // parties, so each party's tree is read by path.
    for phase in PHASES {
        let key = phase.replace('.', "_");
        put(
            &format!("phase.{key}_ms"),
            per_request(&|t| span_ms(t, &format!("client/{phase}"))),
        );
        put(
            &format!("phase.server_{key}_ms"),
            per_request(&|t| span_ms(t, &format!("server/{phase}"))),
        );
    }
    put(
        "phase.online_total_ms",
        per_request(&|t| {
            ["online.ot", "online.eval", "online.ss"]
                .iter()
                .map(|p| span_ms(t, &format!("client/{p}")))
                .sum()
        }),
    );
    put(
        "phase.unattributed_frac",
        per_request(&|t| unattributed_frac(t, "client").max(unattributed_frac(t, "server"))),
    );

    // Work done, as exact counts: nothing is counted in the untraced
    // blocks, so the difference belongs to the traced requests alone.
    for (name, counter) in COUNTERS {
        let count = |g: &Gauges| g.global.counter(counter).unwrap_or(0);
        put(name, (count(&after) - count(&before)) as f64 / n_traced);
    }

    if let (Some((keys0, agg0)), Some((keys1, agg1)), Engine::Serve { rt, .. }) =
        (&before.serve, &after.serve, &built.engine)
    {
        let (hits, misses) = (keys1.hits - keys0.hits, keys1.misses - keys0.misses);
        put(
            "serve.key_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        put("serve.key_inserts", (keys1.inserts - keys0.inserts) as f64);
        put(
            "serve.key_evictions",
            (keys1.evictions - keys0.evictions) as f64,
        );
        put("serve.key_resident_mb", rt.key_table_bytes() as f64 / 1e6);
        put("serve.workers", rt.workers() as f64);
        // Fused-batch HE time: the aggregate's root-level `offline.he`
        // span, which no session's own trace carries.
        put(
            "serve.agg_offline_he_ms",
            (span_ms(agg1, "offline.he") - span_ms(agg0, "offline.he")) / n_traced,
        );
    }

    // Per-layer times are as the clock read them: `host.ref_ms` says how
    // fast the host was while it did.
    let raw_p50 =
        |outcomes: &[Outcome]| median(&succeeded(outcomes).map(|o| o.ms).collect::<Vec<_>>());
    let (traced_p50, untraced_p50) = (raw_p50(&full), raw_p50(&untraced));
    put("host.ref_ms", median(reference.samples_ms()));
    put("trace.infer_ms_p50", traced_p50);
    put("trace.requests", n_traced);
    if untraced_p50 > 0.0 {
        put("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    }
    put("shape.relu_count", shape.relu_count as f64);
    put("shape.ot_count", shape.ot_count as f64);
    put("shape.phases", built.meta.phases.len() as f64);

    // Replays time layers in isolation, so nothing is traced inside them.
    pi_trace::force_mode(Some(TraceMode::Off));
    root.scope("replay", None, |s| {
        layers::replay(&built, shape, args.seconds / 2.0, s, &mut values);
    });
    pi_trace::force_mode(None);

    let metrics = Value::obj(PER_LAYER.iter().map(|&(name, unit, _)| {
        // A layer the workload never reaches reads 0.
        let value = values.iter().find(|(n, _)| n == name).map_or(0.0, |v| v.1);
        (name, metric(value, unit))
    }));
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| n == name),
            "per-layer metric {name} is not in the contract"
        );
    }

    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let trace_file = Value::obj([
        ("workload", Value::str(args.workload.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("spans", rec.to_json()),
    ]);
    std::fs::write(
        args.out_dir
            .join(format!("trace_{}.json", args.workload.name())),
        trace_file.to_pretty(),
    )
    .expect("write the trace file");

    drop(reports);
    untraced.extend(full);
    (untraced, metrics)
}
