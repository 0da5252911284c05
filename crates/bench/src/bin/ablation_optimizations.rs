//! Ablation: each proposed optimization in isolation and cumulatively.
//! Reports single-inference total latency and the maximum sustainable
//! arrival rate for ResNet-18/TinyImageNet.

use pi_bench::{header, paper_costs, sim_runs};
use pi_nn::zoo::{Architecture, Dataset};
use pi_sim::cost::Garbler;
use pi_sim::engine::{simulate, OfflineScheduling, SystemConfig, Workload};
use pi_sim::link::Link;

fn max_sustainable_per_min(costs: &pi_sim::ProtocolCosts, sys: &SystemConfig) -> f64 {
    // Bisect the saturation boundary (minutes per request).
    let mut lo = 1.0f64; // surely saturated
    let mut hi = 240.0f64; // surely fine
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        let wl = Workload {
            rate_per_min: 1.0 / mid,
            duration_s: 24.0 * 3600.0,
            runs: sim_runs().min(8),
            seed: 21,
        };
        if simulate(costs, sys, &wl).saturated {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

fn main() {
    header(
        "Ablation of the proposed optimizations (ResNet-18/TinyImageNet)",
        "§5.4",
    );
    let sg = paper_costs(
        Architecture::ResNet18,
        Dataset::TinyImageNet,
        Garbler::Server,
    );
    let cg = paper_costs(
        Architecture::ResNet18,
        Dataset::TinyImageNet,
        Garbler::Client,
    );

    // (protocol costs, scheduling, link, label)
    let configs: Vec<(&str, &pi_sim::ProtocolCosts, OfflineScheduling, Link)> = vec![
        (
            "baseline (SG)",
            &sg,
            OfflineScheduling::Sequential,
            Link::even(1e9),
        ),
        ("+ LPHE only", &sg, OfflineScheduling::Lphe, Link::even(1e9)),
        (
            "+ WSA only",
            &sg,
            OfflineScheduling::Sequential,
            sg.wsa_link(1e9),
        ),
        (
            "+ CG only",
            &cg,
            OfflineScheduling::Sequential,
            Link::even(1e9),
        ),
        ("CG + LPHE", &cg, OfflineScheduling::Lphe, Link::even(1e9)),
        (
            "CG + LPHE + WSA (proposed)",
            &cg,
            OfflineScheduling::Lphe,
            cg.wsa_link(1e9),
        ),
    ];

    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>16}",
        "configuration", "offline (s)", "online (s)", "total (s)", "max rate (1/min)"
    );
    let mut baseline_total = 0.0;
    for (i, (name, costs, sched, link)) in configs.iter().enumerate() {
        let offline = match sched {
            OfflineScheduling::Lphe => costs.offline_lphe_s(link),
            _ => costs.offline_seq_s(link),
        };
        let online = costs.online_s(link);
        let total = offline + online;
        if i == 0 {
            baseline_total = total;
        }
        let sys = SystemConfig {
            scheduling: *sched,
            link: *link,
            client_storage_bytes: 16e9,
        };
        let per_min = max_sustainable_per_min(costs, &sys);
        println!(
            "{:<28} {:>12.0} {:>12.1} {:>12.0} {:>13} {:>5.2}x",
            name,
            offline,
            online,
            total,
            format!("1/{per_min:.0}"),
            baseline_total / total
        );
    }
    println!();
    println!("paper headline: 1.8x total-PI speedup, 2.24x sustainable-rate improvement");
}
