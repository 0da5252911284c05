//! Shared harness utilities for the figure/table regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (ROADMAP.md names them as the spec). Binaries print the same rows/series
//! the paper reports, alongside the paper's published values where they
//! exist; measured end-to-end numbers live in the perf ledger
//! (`benchmark/README.md`).

use pi_nn::zoo::{Architecture, Dataset};
use pi_sim::cost::{Garbler, ProtocolCosts};
use pi_sim::devices::DeviceProfile;

/// Builds the paper's standard cost profile (Atom client, EPYC server).
pub fn paper_costs(arch: Architecture, ds: Dataset, garbler: Garbler) -> ProtocolCosts {
    ProtocolCosts::new(
        arch,
        ds,
        garbler,
        &DeviceProfile::atom(),
        &DeviceProfile::epyc(),
    )
}

/// Formats a byte count as gigabytes with one decimal.
pub fn gb(bytes: f64) -> String {
    format!("{:.1} GB", bytes / 1e9)
}

/// Formats seconds as `MM:SS` minutes when large, seconds otherwise.
pub fn secs(s: f64) -> String {
    if s >= 120.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.1} s")
    }
}

/// Returns true if the process was invoked with `--full` (paper-scale
/// simulation: 24 h windows, 50 runs). Default is a quick profile so the
/// whole harness finishes in minutes.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Simulation runs to average: 50 in `--full` mode (as in the paper),
/// 8 otherwise.
pub fn sim_runs() -> usize {
    if full_mode() {
        50
    } else {
        8
    }
}

/// The six network/dataset pairs of the paper's main evaluation
/// (CIFAR-100 and TinyImageNet across the three architectures).
pub fn eval_pairs() -> Vec<(Architecture, Dataset)> {
    let mut v = Vec::new();
    for ds in [Dataset::Cifar100, Dataset::TinyImageNet] {
        for arch in [
            Architecture::ResNet32,
            Architecture::Vgg16,
            Architecture::ResNet18,
        ] {
            v.push((arch, ds));
        }
    }
    v
}

/// Prints a standard header naming the experiment and its paper anchor.
pub fn header(what: &str, paper_ref: &str) {
    println!("=== {what} ===");
    println!("(reproduces {paper_ref}; benchmark/README.md has the measured ledger)");
    println!();
}

/// Median wall time of `f` in nanoseconds over `iters` timed runs (plus a
/// short warmup). Hand-rolled rather than criterion so the benches' `csv,…`
/// lines print in every mode, including `--test` where the compat criterion
/// skips measurement (and its own csv output) entirely.
pub fn median_ns(mut f: impl FnMut(), iters: usize) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Same-run A/B of a kernel that splits across cores
/// ([`pi_trace::par`]): `f` pinned to one thread and at the helper's own
/// width, alternating which runs first, `pairs` times after a warmup.
/// Returns the two median wall times in milliseconds and prints them as
/// `csv,par_ab,<name>,one_thread_ms=…,split_ms=…,threads=…` (in every
/// mode, like [`median_ns`]).
pub fn one_thread_vs_split(name: &str, mut f: impl FnMut(), pairs: usize) -> (f64, f64) {
    let mut timed = |threads: usize| {
        let t = std::time::Instant::now();
        pi_trace::par::with_threads(threads, &mut f);
        t.elapsed().as_secs_f64() * 1e3
    };
    let split = pi_trace::par::threads();
    timed(1);
    timed(split);
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        if i % 2 == 0 {
            one.push(timed(1));
            many.push(timed(split));
        } else {
            many.push(timed(split));
            one.push(timed(1));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (one, many) = (median(one), median(many));
    println!("csv,par_ab,{name},one_thread_ms={one:.3},split_ms={many:.3},threads={split}");
    (one, many)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(gb(41.2e9), "41.2 GB");
        assert_eq!(secs(30.0), "30.0 s");
        assert_eq!(secs(600.0), "10.0 min");
    }

    #[test]
    fn eval_pairs_cover_six() {
        assert_eq!(eval_pairs().len(), 6);
    }

    #[test]
    fn paper_costs_builds() {
        let c = paper_costs(Architecture::ResNet32, Dataset::Cifar100, Garbler::Server);
        assert!(c.relus > 0.0);
    }
}
