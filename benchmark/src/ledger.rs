//! The parent side: spawns one child per workload, collects sets of
//! results, prints them, compares two sets under the benchmark's bounds,
//! and derives the Amdahl table.

use crate::host::fingerprint_mismatch;
use crate::json::{self, Value};
use crate::names::{END_TO_END, PER_LAYER};
use crate::reference::NOMINAL_MS;
use crate::stats::worse_by;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs one workload in a child process with `PI_TRACE` pinned, and
/// returns the result object it printed.
pub fn spawn_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        // Unset means `full` to the program, so both modes are explicit.
        .env("PI_TRACE", if trace { "full" } else { "off" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {} exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| "child printed nothing".to_string())?;
    json::parse(last)
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The value of metric `name` in a child result or a saved workload entry.
fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload `sets` times and gathers the results into that many
/// sets. The sets are **interleaved** — each workload runs once for every
/// set before the next workload starts — so that sets being compared saw
/// the same minutes of the host: its speed drifts over minutes, and two
/// sets run one after the other would differ by the drift, not the code.
pub fn run_sets(
    sets: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Vec<Value>, String> {
    let mut fingerprint: Option<Value> = None;
    let mut entries = vec![Vec::new(); sets];
    for w in Workload::ALL {
        for (set, entries) in entries.iter_mut().enumerate() {
            eprintln!(
                "[ledger] {} ({}, set {} of {sets}, seed {seed}, {seconds} s)",
                w.name(),
                if trace { "traced" } else { "end to end" },
                set + 1,
            );
            let result = spawn_child(w, seed, seconds, trace, out_dir)?;
            let fp = result
                .get("fingerprint")
                .ok_or("child result has no fingerprint")?;
            match &fingerprint {
                None => fingerprint = Some(fp.clone()),
                Some(first) => {
                    if let Some(diff) = fingerprint_mismatch(first, fp) {
                        return Err(format!("host changed between runs: {diff}"));
                    }
                }
            }
            entries.push((
                w.name().to_string(),
                Value::obj(
                    ["clients", "attempted", "failed", "host_ref_ms", "metrics"]
                        .map(|k| (k, result.get(k).cloned().unwrap_or(Value::Null))),
                ),
            ));
        }
    }
    Ok(entries
        .into_iter()
        .map(|entries| {
            Value::obj([
                ("seed", Value::Num(seed as f64)),
                ("seconds", Value::Num(seconds)),
                ("traced", Value::Bool(trace)),
                ("fingerprint", fingerprint.clone().unwrap_or(Value::Null)),
                ("workloads", Value::Obj(entries)),
            ])
        })
        .collect())
}

/// Runs every workload once: one set.
pub fn run_set(seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Result<Value, String> {
    Ok(run_sets(1, seed, seconds, trace, out_dir)?.remove(0))
}

/// Failed requests across a set.
pub fn failed_requests(set: &Value) -> u64 {
    set.get("workloads")
        .and_then(Value::as_obj)
        .map_or(0, |ws| {
            ws.iter().map(|(_, w)| num(w, "failed") as u64).sum()
        })
}

/// Every metric of every workload by name, with its unit and the sample
/// count beside the percentiles.
pub fn print_set(set: &Value) {
    let Some(workloads) = set.get("workloads").and_then(Value::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        let (attempted, failed) = (num(w, "attempted"), num(w, "failed"));
        println!(
            "{name}: {} closed-loop client(s), {attempted} requests attempted, {failed} failed, failed_frac = {}, host reference {:.2} ms (nominal {NOMINAL_MS})",
            num(w, "clients"),
            failed / attempted.max(1.0),
            num(w, "host_ref_ms"),
        );
        for (metric, entry) in w.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            let value = num(entry, "value");
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            let samples = if metric.starts_with("infer_ms_p") {
                format!("  (n = {})", attempted - failed)
            } else {
                String::new()
            };
            println!("  {metric:<32} {value:>16.4} {unit}{samples}");
        }
    }
}

/// One row of a comparison.
pub struct Gap {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (the absolute gap when the two
    /// sets are repeats of the same code).
    pub gap: f64,
    pub bound: f64,
    pub ok: bool,
}

/// Compares set `b` against set `a` on every end-to-end metric of every
/// workload. With `repeat`, the sets are two runs of one commit: the gap
/// is taken in both directions and exact metrics must be identical.
pub fn compare_sets(a: &Value, b: &Value, repeat: bool) -> Result<Vec<Gap>, String> {
    let fp = |s: &Value| s.get("fingerprint").cloned().unwrap_or(Value::Null);
    if let Some(diff) = fingerprint_mismatch(&fp(a), &fp(b)) {
        return Err(format!(
            "refusing to compare sets from different hosts or builds — {diff}"
        ));
    }
    let workloads = |s: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(s.get("workloads")
            .and_then(Value::as_obj)
            .ok_or("set has no workloads")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut gaps = Vec::new();
    for (name, entry_a) in &wa {
        let entry_b = &wb
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("workload {name} is missing from the second set"))?
            .1;
        for m in &END_TO_END {
            let read = |e: &Value| {
                metric_value(e, m.name).ok_or_else(|| format!("{name} has no {}", m.name))
            };
            let (va, vb) = (read(entry_a)?, read(entry_b)?);
            let mut gap = worse_by(va, vb, m.better);
            if repeat {
                gap = gap.abs();
            }
            let ok = if m.exact && repeat {
                va == vb
            } else {
                gap <= m.bound
            };
            gaps.push(Gap {
                workload: name.clone(),
                metric: m.name,
                a: va,
                b: vb,
                gap,
                bound: m.bound,
                ok,
            });
        }
    }
    Ok(gaps)
}

impl Gap {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("metric", Value::str(self.metric)),
            ("first", Value::Num(self.a)),
            ("second", Value::Num(self.b)),
            ("gap", Value::Num(self.gap)),
            ("bound", Value::Num(self.bound)),
        ])
    }
}

/// Prints a comparison and returns whether every row is within its bound.
pub fn print_gaps(gaps: &[Gap]) -> bool {
    println!(
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for g in gaps {
        println!(
            "{:<12} {:<22} {:>16.4} {:>16.4} {:>8.2}% {:>6.1}%{}",
            g.workload,
            g.metric,
            g.a,
            g.b,
            g.gap * 100.0,
            g.bound * 100.0,
            if g.ok { "" } else { "  OVER BOUND" }
        );
    }
    gaps.iter().all(|g| g.ok)
}

/// One term of a workload's latency: a phase of the traced timeline or a
/// replayed layer at the workload's per-request multiplicity.
pub struct Term {
    pub name: String,
    pub ms: f64,
}

/// The Amdahl table of one workload from its traced run: the client-side
/// timeline (phase spans plus what no span covers — together they add up to
/// the traced requests' median latency) and the replayed layers, each as
/// milliseconds per request, largest first.
pub fn amdahl(workload: Workload, layers: &Value) -> (Vec<Term>, Vec<Term>) {
    let get = |name: &str| metric_value(layers, name).unwrap_or(0.0);
    let mut timeline: Vec<Term> = PER_LAYER
        .iter()
        .map(|&(name, ..)| name)
        .filter(|n| {
            n.starts_with("phase.")
                && n.ends_with("_ms")
                && !n.starts_with("phase.server_")
                && *n != "phase.online_total_ms"
        })
        .map(|name| Term {
            name: name.to_string(),
            ms: get(name),
        })
        .collect();
    let covered: f64 = timeline.iter().map(|t| t.ms).sum();
    timeline.push(Term {
        name: "unattributed".into(),
        ms: get("trace.infer_ms_p50") - covered,
    });

    let (relus, ots) = (get("shape.relu_count"), get("shape.ot_count"));
    // Key generation and the key upload happen only when the client has
    // no keys the server still caches.
    let cold = if workload.fresh_keys() { 1.0 } else { 0.0 };
    let mut replayed: Vec<Term> = [
        ("ot.base_ms", 1.0),
        ("he.keygen_ms", cold),
        ("he.keys_encode_ms", cold),
        ("he.keys_decode_ms", cold),
        ("he.encrypt_ms", 1.0),
        ("he.matvec_ms", 1.0),
        ("he.decrypt_ms", 1.0),
        ("gc.garble_us_per_relu", relus / 1e3),
        ("gc.eval_us_per_relu", relus / 1e3),
        ("ot.ext_ns_per_ot", ots / 1e6),
        ("nn.phase_apply_ms", 1.0),
    ]
    .into_iter()
    .map(|(name, per_request)| Term {
        name: name.to_string(),
        ms: get(name) * per_request,
    })
    .collect();
    for terms in [&mut timeline, &mut replayed] {
        terms.retain(|t| t.ms != 0.0);
        terms.sort_by(|x, y| y.ms.total_cmp(&x.ms));
    }
    (timeline, replayed)
}

/// The Amdahl tables of every workload as markdown, from an end-to-end set
/// and the traced set of the same commit.
pub fn amdahl_markdown(set: &Value, layers: &Value) -> String {
    let mut out = String::new();
    let w = &mut out;
    let entry = |s: &Value, name: &str| s.get("workloads").and_then(|ws| ws.get(name)).cloned();
    writeln!(w, "# Where the time of one private inference goes\n").unwrap();
    writeln!(
        w,
        "Each term as a share of the median latency of the traced run's own requests \
         (`trace.infer_ms_p50`: the same process and the same minute as the terms — the host's \
         speed drifts by more than the smaller rows between runs), largest first. *Timeline* \
         rows are the client's phase spans of the traced requests (the parties alternate, so \
         the client's tree covers the request) plus `unattributed`, what no span covers; they \
         add up to that latency. *Replayed* rows are each layer's public functions timed alone \
         at the workload's shapes, times how often a request calls them; they overlap the \
         timeline rows rather than add to them, and under the serving workloads a request \
         shares the cores with another, so a layer can take longer inside a request than alone.\n"
    )
    .unwrap();
    for workload in Workload::ALL {
        let name = workload.name();
        let (Some(e2e), Some(traced)) = (entry(set, name), entry(layers, name)) else {
            continue;
        };
        let untraced = metric_value(&e2e, "infer_ms_p50").unwrap_or(0.0);
        let p50 = metric_value(&traced, "trace.infer_ms_p50").unwrap_or(0.0);
        let (timeline, replayed) = amdahl(workload, &traced);
        writeln!(
            w,
            "## {name} — {p50:.1} ms traced (end-to-end set, tracing off: infer_ms_p50 = {untraced:.1} ms)\n"
        )
        .unwrap();
        if let Some(top) = replayed.first() {
            writeln!(
                w,
                "Dominant term: `{}` ({:.0} ms, {:.0} % of the latency).\n",
                top.name,
                top.ms,
                100.0 * top.ms / p50
            )
            .unwrap();
        }
        for (title, terms) in [("timeline", &timeline), ("replayed layer", &replayed)] {
            writeln!(w, "| {title} | ms / request | share |\n|---|---:|---:|").unwrap();
            for t in terms {
                writeln!(
                    w,
                    "| `{}` | {:.2} | {:.1} % |",
                    t.name,
                    t.ms,
                    100.0 * t.ms / p50
                )
                .unwrap();
            }
            writeln!(w).unwrap();
        }
    }
    out
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{EXACT_BOUND, WORKLOADS};

    /// A set as `run_set` builds it, every metric at `value(metric)`.
    fn fake_set(value: impl Fn(&str) -> f64) -> Value {
        let metrics = Value::obj(END_TO_END.iter().map(|m| {
            (
                m.name,
                Value::obj([
                    ("value", Value::Num(value(m.name))),
                    ("unit", Value::str(m.unit)),
                ]),
            )
        }));
        Value::obj([
            ("fingerprint", Value::obj([("nproc", Value::Num(2.0))])),
            (
                "workloads",
                Value::Obj(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            (
                                w.name.to_string(),
                                Value::obj([
                                    ("attempted", Value::Num(10.0)),
                                    ("failed", Value::Num(0.0)),
                                    ("metrics", metrics.clone()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn emitted_sets_parse_and_carry_exactly_the_contract_names() {
        let set = fake_set(|_| 1.5);
        let parsed = json::parse(&set.to_pretty()).expect("emitted JSON parses");
        assert_eq!(parsed, set);
        let workloads = parsed.get("workloads").and_then(Value::as_obj).unwrap();
        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, crate::names::workload_names());
        for (_, w) in workloads {
            let metrics: Vec<&str> = w
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            let contract: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(metrics, contract);
        }
    }

    #[test]
    fn repeat_comparison_bounds_timings_and_pins_exact_metrics() {
        let a = fake_set(|_| 100.0);
        assert!(compare_sets(&a, &a, true).unwrap().iter().all(|g| g.ok));
        let timing_bound = END_TO_END[1].bound;
        // Slower by half the timing bound: every timing passes, but bytes
        // must not move at all between two runs of one commit.
        let b = fake_set(|_| 100.0 * (1.0 + timing_bound / 2.0));
        for g in &compare_sets(&a, &b, true).unwrap() {
            let exact = END_TO_END
                .iter()
                .find(|m| m.name == g.metric)
                .unwrap()
                .exact;
            assert_eq!(g.ok, !exact, "{} {}", g.workload, g.metric);
            assert!((g.gap - timing_bound / 2.0).abs() < 1e-9);
        }
        // A repeat that is *faster* by more than the bound is still a
        // repeatability failure; a later commit that is faster is not.
        let faster = 100.0 * (1.0 - 2.0 * timing_bound);
        let c = fake_set(|m| if m == "infer_ms_p50" { faster } else { 100.0 });
        let over = |gaps: Vec<Gap>| gaps.iter().filter(|g| !g.ok).count();
        assert_eq!(over(compare_sets(&a, &c, true).unwrap()), WORKLOADS.len());
        assert_eq!(over(compare_sets(&a, &c, false).unwrap()), 0);
        // Against a parent, an exact metric may move by its (tiny) bound.
        let d = fake_set(|m| {
            if m == "bytes_up_per_req" {
                100.0 * (1.0 + 2.0 * EXACT_BOUND)
            } else {
                100.0
            }
        });
        assert_eq!(over(compare_sets(&a, &d, false).unwrap()), WORKLOADS.len());
    }

    #[test]
    fn sets_from_different_hosts_are_not_compared() {
        let a = fake_set(|_| 1.0);
        let Value::Obj(mut pairs) = a.clone() else {
            unreachable!()
        };
        pairs[0].1 = Value::obj([("nproc", Value::Num(64.0))]);
        let err = compare_sets(&a, &Value::Obj(pairs), true)
            .err()
            .expect("refused");
        assert!(err.contains("nproc"), "{err}");
    }

    #[test]
    fn amdahl_terms_are_sorted_and_close_the_latency() {
        let layers = Value::obj([(
            "metrics",
            Value::obj(
                [
                    ("phase.offline_ot_ms", 600.0),
                    ("phase.offline_he_ms", 300.0),
                    ("phase.server_offline_he_ms", 250.0),
                    ("phase.online_total_ms", 40.0),
                    ("trace.infer_ms_p50", 1000.0),
                    ("ot.base_ms", 590.0),
                    ("he.keygen_ms", 200.0),
                    ("gc.garble_us_per_relu", 10.0),
                    ("shape.relu_count", 1000.0),
                ]
                .map(|(k, v)| (k, Value::obj([("value", Value::Num(v))]))),
            ),
        )]);
        let (timeline, replayed) = amdahl(Workload::ServeWarm, &layers);
        let names: Vec<&str> = timeline.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            ["phase.offline_ot_ms", "phase.offline_he_ms", "unattributed"]
        );
        assert!((timeline.iter().map(|t| t.ms).sum::<f64>() - 1000.0).abs() < 1e-9);
        // A returning client generates no keys; 1000 ReLUs at 10 µs is 10 ms.
        let names: Vec<&str> = replayed.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["ot.base_ms", "gc.garble_us_per_relu"]);
        assert!((replayed[1].ms - 10.0).abs() < 1e-9);
        let (_, cold) = amdahl(Workload::ServeChurn, &layers);
        assert_eq!(cold[1].name, "he.keygen_ms");
    }
}
