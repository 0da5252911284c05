//! `ledger` — the repo's end-to-end benchmark. See `benchmark/README.md`
//! for the workloads, the metrics and how to read them.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line (BENCHMARK.json's command)
//! ledger all          [--seed n] [--seconds s] [--out dir]          every workload end to end, tracing off
//! ledger trace        [--seed n] [--seconds s] [--out dir]          every workload traced: per-layer metrics, trace files
//! ledger check-repeat [--seed n] [--seconds s] [--out dir]          two sets back to back, compared under the bounds
//! ledger record --pr <n> [--seed n] [--seconds s] [--out dir]       two sets + traced run -> BENCH_<n>.json, AMDAHL_<n>.md
//! ledger compare <first.json> <second.json>                         a saved set against another from the same host
//! ledger manifest                                                   the content of BENCHMARK.json
//! ```

mod child;
mod host;
mod json;
mod layers;
mod ledger;
mod names;
mod reference;
mod spans;
mod stats;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Seconds one run measures unless `--seconds` says otherwise; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 7;

/// `--key value` options after the sub-command, plus positional operands.
struct Options {
    named: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut named, mut positional) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    named.push((key.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Self { named, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        self.parsed("seed", DEFAULT_SEED)
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.parsed("seconds", DEFAULT_SECONDS)?;
        if s.is_finite() && s > 0.0 {
            Ok(s)
        } else {
            Err(format!("--seconds must be positive, got {s}"))
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace is 0 or 1, got {other:?}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| {
            format!(
                "unknown workload {name:?}; the workloads are {}",
                names::workload_names().join(", ")
            )
        })
    }

    /// Where result files go: not under the committed `results/` unless
    /// asked, so a run never rewrites the recorded baseline by accident.
    fn out_dir(&self) -> PathBuf {
        self.get("out").map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            PathBuf::from,
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = Options::parse(rest).and_then(|opts| match command {
        "run" => run(&opts),
        "child" => run_child(&opts),
        "all" => all(&opts, false),
        "trace" => all(&opts, true),
        "check-repeat" => check_repeat(&opts),
        "record" => record(&opts),
        "compare" => compare(&opts),
        "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        other => Err(format!("unknown sub-command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// The `BENCHMARK.json` command: one workload, one JSON line.
fn run(opts: &Options) -> Result<bool, String> {
    let result = ledger::spawn_child(
        opts.workload()?,
        opts.seed()?,
        opts.seconds()?,
        opts.trace()?,
        &opts.out_dir(),
    )?;
    let field = |k: &str| {
        result
            .get(k)
            .cloned()
            .ok_or(format!("child result has no {k}"))
    };
    let failed = field("failed")?;
    let line = Value::obj([
        ("correct", Value::Bool(failed == Value::Num(0.0))),
        ("attempted", field("attempted")?),
        ("failed", failed),
        ("metrics", field("metrics")?),
    ]);
    println!("{}", line.to_compact());
    Ok(true)
}

fn run_child(opts: &Options) -> Result<bool, String> {
    let result = child::run(&child::ChildArgs {
        workload: opts.workload()?,
        seed: opts.seed()?,
        seconds: opts.seconds()?,
        trace: opts.trace()?,
        out_dir: opts.out_dir(),
    });
    println!("{}", result.to_compact());
    Ok(true)
}

/// `all` and `trace`: every workload once, printed and saved.
fn all(opts: &Options, trace: bool) -> Result<bool, String> {
    let (seed, out) = (opts.seed()?, opts.out_dir());
    let set = ledger::run_set(seed, opts.seconds()?, trace, &out)?;
    ledger::print_set(&set);
    let stem = if trace { "layers" } else { "set" };
    let path = out.join(format!("{stem}_seed{seed}.json"));
    ledger::write_json(&path, &set)?;
    eprintln!("[ledger] wrote {}", path.display());
    Ok(no_failures(&[&set]))
}

fn no_failures(sets: &[&Value]) -> bool {
    let failed: u64 = sets.iter().map(|s| ledger::failed_requests(s)).sum();
    if failed > 0 {
        eprintln!("[ledger] {failed} request(s) failed");
    }
    failed == 0
}

/// Two end-to-end sets, interleaved workload by workload, and their
/// comparison as repeats of one commit.
struct Repeat {
    sets: [Value; 2],
    gaps: Vec<ledger::Gap>,
}

impl Repeat {
    fn run(opts: &Options) -> Result<Self, String> {
        let (seed, seconds, out) = (opts.seed()?, opts.seconds()?, opts.out_dir());
        let sets: [Value; 2] = ledger::run_sets(2, seed, seconds, false, &out)?
            .try_into()
            .expect("asked for two sets");
        let gaps = ledger::compare_sets(&sets[0], &sets[1], true)?;
        Ok(Self { sets, gaps })
    }

    /// Prints the gaps; every timing within its bound of the other run,
    /// every byte and storage figure identical, no request failed.
    fn report(&self) -> bool {
        let within = ledger::print_gaps(&self.gaps);
        no_failures(&[&self.sets[0], &self.sets[1]]) && within
    }
}

fn check_repeat(opts: &Options) -> Result<bool, String> {
    Ok(Repeat::run(opts)?.report())
}

/// The baseline of one PR: two sets, their repeat check, the traced run
/// and the Amdahl table derived from them.
fn record(opts: &Options) -> Result<bool, String> {
    let pr: u32 = opts.parsed("pr", 0)?;
    if pr == 0 {
        return Err("record needs --pr <number>".into());
    }
    let (seed, seconds, out) = (opts.seed()?, opts.seconds()?, opts.out_dir());
    let repeat = Repeat::run(opts)?;
    let layers = ledger::run_set(seed, seconds, true, &out)?;
    ledger::print_set(&repeat.sets[0]);
    ledger::print_set(&layers);
    let ok = repeat.report() && no_failures(&[&layers]);
    let table = ledger::amdahl_markdown(&repeat.sets[0], &layers);
    println!("{table}");
    let bench = Value::obj([
        ("pr", Value::Num(pr as f64)),
        (
            "fingerprint",
            repeat.sets[0]
                .get("fingerprint")
                .cloned()
                .unwrap_or(Value::Null),
        ),
        (
            "repeat",
            Value::Arr(repeat.gaps.iter().map(ledger::Gap::to_json).collect()),
        ),
        ("sets", Value::Arr(repeat.sets.to_vec())),
        ("traced", layers),
    ]);
    ledger::write_json(&out.join(format!("BENCH_{pr}.json")), &bench)?;
    let md = out.join(format!("AMDAHL_{pr}.md"));
    std::fs::write(&md, table).map_err(|e| format!("write {}: {e}", md.display()))?;
    Ok(ok)
}

/// A saved set (or the first set of a `BENCH_<n>.json`) against another.
fn compare(opts: &Options) -> Result<bool, String> {
    let [first, second] = &opts.positional[..] else {
        return Err("compare needs two files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let doc = ledger::read_json(path.as_ref())?;
        // A BENCH file holds its sets in an array; a set file is the set.
        Ok(match doc.get("sets").and_then(Value::as_arr) {
            Some(sets) => sets.first().cloned().ok_or("BENCH file has no sets")?,
            None => doc,
        })
    };
    let gaps = ledger::compare_sets(&load(first)?, &load(second)?, false)?;
    Ok(ledger::print_gaps(&gaps))
}

/// The content of `BENCHMARK.json`, from the tables in `names.rs`.
fn manifest() -> Value {
    let path = "benchmark/Cargo.toml";
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        path,
        "--",
    ];
    Value::obj([
        ("command", Value::Arr(command.map(Value::str).to_vec())),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                names::WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                names::END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                names::PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Value::obj([
                            ("name", Value::str(name)),
                            ("unit", Value::str(unit)),
                            ("better", Value::str(better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables in `names.rs` say the same thing.
    #[test]
    fn benchmark_json_is_the_ledgers_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = ledger::read_json(path.as_ref()).expect("BENCHMARK.json parses");
        assert_eq!(doc, manifest(), "regenerate it with `ledger manifest`");
        assert!(names::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn options_parse_named_and_positional_arguments() {
        let args: Vec<String> = [
            "--workload",
            "he_cold",
            "a.json",
            "--seed",
            "9",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let opts = Options::parse(&args).unwrap();
        assert_eq!(opts.workload().unwrap(), Workload::HeCold);
        assert_eq!(opts.seed().unwrap(), 9);
        assert!(opts.trace().unwrap());
        assert_eq!(opts.seconds().unwrap(), DEFAULT_SECONDS);
        assert_eq!(opts.positional, ["a.json"]);
        assert!(Options::parse(&["--seed".to_string()]).is_err());
        let bad = Options::parse(&["--workload".into(), "nope".into()]).unwrap();
        assert!(bad.workload().is_err());
    }
}
