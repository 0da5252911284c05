//! Shared harness utilities for the figure/table regenerators and the
//! kernel benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (ROADMAP.md names them as the spec). Binaries print the same rows/series
//! the paper reports, alongside the paper's published values where they
//! exist; measured end-to-end numbers live in the perf ledger
//! (`benchmark/README.md`).
//!
//! Each bench in `benches/` is a plain `main` that times every kernel once
//! with [`kernel`] (or [`one_thread_vs_split`] for a kernel that splits
//! across cores) and prints one `csv,<group>/<name>,<median ns>` line per
//! kernel, in every run.

use pi_nn::zoo::{Architecture, Dataset};
use pi_sim::cost::{Garbler, ProtocolCosts};
use pi_sim::devices::DeviceProfile;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// Wall time one sample must cover: calls are batched until it does, so
/// a kernel far below the clock's resolution still reads a mean over
/// milliseconds.
const SAMPLE_FLOOR: Duration = Duration::from_millis(5);

/// One sample of a kernel: `calls` back-to-back calls that took `elapsed`.
#[derive(Debug)]
struct Sample {
    calls: u64,
    elapsed: Duration,
}

impl Sample {
    /// Mean wall time of one call, in nanoseconds.
    fn mean_ns(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.calls as f64
    }
}

fn run_batch<O>(calls: u64, f: &mut impl FnMut() -> O) -> Duration {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    t.elapsed()
}

/// Warms `f` up and sizes its batch: doubles the batch from one call until
/// a batch covers [`SAMPLE_FLOOR`], and returns that size (1 for a call
/// slower than the floor).
fn calibrate<O>(f: &mut impl FnMut() -> O) -> u64 {
    let mut calls = 1;
    while run_batch(calls, f) < SAMPLE_FLOOR {
        calls *= 2;
    }
    calls
}

/// Runs whole batches of `batch` calls until they cover [`SAMPLE_FLOOR`].
fn sample<O>(batch: u64, f: &mut impl FnMut() -> O) -> Sample {
    let mut s = Sample {
        calls: 0,
        elapsed: Duration::ZERO,
    };
    while s.elapsed < SAMPLE_FLOOR {
        s.elapsed += run_batch(batch, f);
        s.calls += batch;
    }
    s
}

/// `n` samples of `f` after a warm-up that sizes their batch.
fn samples<O>(n: usize, mut f: impl FnMut() -> O) -> Vec<Sample> {
    let batch = calibrate(&mut f);
    (0..n).map(|_| sample(batch, &mut f)).collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// The bench line of one kernel: `csv,<name>,<ns to one decimal>`.
fn csv_line(name: &str, ns: f64) -> String {
    format!("csv,{name},{ns:.1}")
}

/// The benches' one timer: the median of the per-call mean of `f` over
/// `n` samples, in nanoseconds. A warm-up sizes the batch; every sample
/// runs whole batches until it covers 5 ms, so a fast kernel is batched
/// and one slower than that runs once a sample.
pub fn median_ns<O>(n: usize, f: impl FnMut() -> O) -> f64 {
    median(samples(n, f).iter().map(Sample::mean_ns).collect())
}

/// Times one kernel with [`median_ns`] and prints it as
/// `csv,<name>,<ns to one decimal>`; returns the median.
pub fn kernel<O>(name: &str, n: usize, f: impl FnMut() -> O) -> f64 {
    let ns = median_ns(n, f);
    println!("{}", csv_line(name, ns));
    ns
}

/// Same-run A/B of a kernel that splits across cores
/// ([`pi_trace::par`]) on [`median_ns`]'s sampler: `pairs` samples of `f`
/// pinned to one thread and as many at the helper's own width,
/// alternating which runs first. Prints the two medians of the per-call
/// means as `csv,par_ab,<name>,one_thread_ms=…,split_ms=…,threads=…`.
pub fn one_thread_vs_split(name: &str, mut f: impl FnMut(), pairs: usize) {
    let split = pi_trace::par::threads();
    let widths = [1, split];
    let mut run = |threads: usize| pi_trace::par::with_threads(threads, &mut f);
    let batches = widths.map(|t| calibrate(&mut || run(t)));
    let mut ms: [Vec<f64>; 2] = Default::default();
    for i in 0..pairs {
        for side in [i % 2, 1 - i % 2] {
            let s = sample(batches[side], &mut || run(widths[side]));
            ms[side].push(s.mean_ns() / 1e6);
        }
    }
    let [one, many] = ms.map(median);
    println!("csv,par_ab,{name},one_thread_ms={one:.3},split_ms={many:.3},threads={split}");
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
    fn a_fast_call_is_batched_until_every_sample_covers_the_floor() {
        // About 10 ns a call: far below what one clock read resolves.
        let taken = samples(5, || (0..16u64).map(black_box).sum::<u64>());
        assert_eq!(taken.len(), 5);
        for s in &taken {
            assert!(s.elapsed >= SAMPLE_FLOOR, "{s:?}");
            assert!(s.calls > 1, "{s:?}");
        }
        assert!(median(taken.iter().map(Sample::mean_ns).collect()) > 0.0);
    }

    #[test]
    fn a_call_slower_than_the_floor_runs_once_a_sample() {
        let slow = || std::thread::sleep(SAMPLE_FLOOR + Duration::from_millis(1));
        let taken = samples(3, slow);
        assert_eq!(taken.len(), 3);
        assert!(taken.iter().all(|s| s.calls == 1), "{taken:?}");
    }

    #[test]
    fn csv_line_prints_name_and_nanoseconds_to_one_decimal() {
        assert_eq!(
            csv_line("ntt/forward_harvey/4096", 12_345.678),
            "csv,ntt/forward_harvey/4096,12345.7"
        );
        assert_eq!(
            csv_line("simulator/one_24h_run", 7.0),
            "csv,simulator/one_24h_run,7.0"
        );
    }

    #[test]
    fn paper_costs_builds() {
        let c = paper_costs(Architecture::ResNet32, Dataset::Cifar100, Garbler::Server);
        assert!(c.relus > 0.0);
    }
}
