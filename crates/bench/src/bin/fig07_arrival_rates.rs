//! Figure 7: mean PI latency vs inference arrival rate for the baseline
//! Server-Garbler protocol (ResNet-18/TinyImageNet, 128 GB client
//! storage), broken into online, offline-exposed, and queueing time.

use pi_bench::{header, paper_costs, sim_runs};
use pi_nn::zoo::{Architecture, Dataset};
use pi_sim::calib::CalibSource;
use pi_sim::cost::Garbler;
use pi_sim::engine::{simulate, OfflineScheduling, SystemConfig, Workload};
use pi_sim::link::Link;

fn main() {
    header(
        "Mean latency vs arrival rate (Server-Garbler, 128 GB)",
        "Figure 7",
    );
    let c = paper_costs(
        Architecture::ResNet18,
        Dataset::TinyImageNet,
        Garbler::Server,
    );
    println!("calibration: {}", CalibSource::Paper.label());
    let sys = SystemConfig {
        scheduling: OfflineScheduling::Sequential,
        link: Link::even(1e9),
        client_storage_bytes: 128e9,
    };
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "req/min", "mean (min)", "queue", "offline", "online", "sat?"
    );
    for per_min in [180.0f64, 120.0, 95.0, 80.0, 65.0, 50.0, 40.0, 30.0] {
        let wl = Workload {
            rate_per_min: 1.0 / per_min,
            duration_s: 24.0 * 3600.0,
            runs: sim_runs(),
            seed: 7,
        };
        let s = simulate(&c, &sys, &wl);
        println!(
            "{:>14} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>6}",
            format!("1/{per_min}"),
            s.mean_latency_s / 60.0,
            s.mean_queue_s / 60.0,
            s.mean_offline_s / 60.0,
            s.mean_online_s / 60.0,
            if s.saturated { "yes" } else { "no" }
        );
    }
    println!();
    println!("paper shape: online-only at near-zero rates; offline exposure from ~1/120;");
    println!("queueing dominates by ~1/30 req/min");
}
