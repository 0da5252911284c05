//! The host fingerprint and the process readings (`/proc`) the ledger takes.
//!
//! Numbers from two hosts, two compilers or two backend selections are not
//! comparable, so every result carries the fingerprint and `compare`
//! refuses sets whose fingerprints differ.

use crate::json::Value;
use std::process::Command;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them: the
/// user-space ABI fixes `USER_HZ` at 100 on Linux.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let after = stat.rsplit_once(')').expect("stat has a command name").1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1e3
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpuinfo_field(cpuinfo: &str, key: &str) -> String {
    cpuinfo
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_string())
}

/// Everything that must match before two sets of numbers are compared.
/// `commit` is recorded but not compared: comparing commits is the point.
pub fn fingerprint() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let mut flags: Vec<String> = cpuinfo_field(&cpuinfo, "flags")
        .split_whitespace()
        .filter(|f| {
            // The flags the SIMD / AES dispatchers choose from.
            f.starts_with("avx") || matches!(*f, "aes" | "sse4_2" | "pclmulqdq" | "bmi2" | "adx")
        })
        .map(str::to_string)
        .collect();
    flags.sort();
    let mut pi_env: Vec<(String, Value)> = std::env::vars()
        // PI_TRACE is the one variable the ledger itself sets per child.
        .filter(|(k, _)| k.starts_with("PI_") && k != "PI_TRACE")
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    pi_env.sort_by(|a, b| a.0.cmp(&b.0));
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        (
            "cpu_model",
            Value::Str(cpuinfo_field(&cpuinfo, "model name")),
        ),
        ("cpu_flags", Value::Str(flags.join(" "))),
        (
            "rustc",
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("simd_backend", Value::str(pi_field::simd::backend().name())),
        ("aes_backend", Value::str(pi_gc::aes::backend().name())),
        ("pi_env", Value::Obj(pi_env)),
        (
            "commit",
            Value::Str(
                // Only where the repo itself is a git checkout: elsewhere git
                // would walk up into directories that are not the ledger's.
                std::path::Path::new(repo)
                    .join(".git")
                    .exists()
                    .then(|| command_line("git", &["-C", repo, "rev-parse", "--short", "HEAD"]))
                    .flatten()
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
    ])
}

/// The first fingerprint field on which two results disagree, if any.
pub fn fingerprint_mismatch(a: &Value, b: &Value) -> Option<String> {
    [
        "nproc",
        "cpu_model",
        "cpu_flags",
        "rustc",
        "simd_backend",
        "aes_backend",
        "pi_env",
    ]
    .into_iter()
    .find(|k| a.get(k) != b.get(k))
    .map(|k| {
        let show = |v: Option<&Value>| v.map_or_else(|| "missing".into(), Value::to_compact);
        format!("{k}: {} vs {}", show(a.get(k)), show(b.get(k)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
        assert!(nproc() >= 1);
    }

    #[test]
    fn fingerprints_compare_on_everything_but_the_commit() {
        let a = fingerprint();
        assert_eq!(fingerprint_mismatch(&a, &a), None);
        let Value::Obj(mut pairs) = a.clone() else {
            panic!("fingerprint is an object")
        };
        for (k, v) in &mut pairs {
            if k == "commit" {
                *v = Value::str("someone-else");
            }
        }
        assert_eq!(fingerprint_mismatch(&a, &Value::Obj(pairs.clone())), None);
        for (k, v) in &mut pairs {
            if k == "simd_backend" {
                *v = Value::str("abacus");
            }
        }
        let diff = fingerprint_mismatch(&a, &Value::Obj(pairs)).expect("backends differ");
        assert!(diff.starts_with("simd_backend"), "{diff}");
    }
}
