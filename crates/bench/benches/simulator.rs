//! Simulator step rate: how fast a 24-hour workload run executes.

use pi_bench::kernel;
use pi_nn::zoo::{Architecture, Dataset};
use pi_sim::cost::{Garbler, ProtocolCosts};
use pi_sim::devices::DeviceProfile;
use pi_sim::engine::{simulate_once, OfflineScheduling, ServiceProfile, SystemConfig, Workload};

fn main() {
    let costs = ProtocolCosts::new(
        Architecture::ResNet18,
        Dataset::TinyImageNet,
        Garbler::Client,
        &DeviceProfile::atom(),
        &DeviceProfile::epyc(),
    );
    let sys = SystemConfig {
        scheduling: OfflineScheduling::Lphe,
        link: costs.wsa_link(1e9),
        client_storage_bytes: 64e9,
    };
    let profile = ServiceProfile::derive(&costs, &sys);
    let wl = Workload {
        rate_per_min: 1.0 / 20.0,
        duration_s: 24.0 * 3600.0,
        runs: 1,
        seed: 5,
    };
    let mut seed = 0u64;
    kernel("simulator/one_24h_run", 20, || {
        seed += 1;
        simulate_once(&profile, &wl, 1, seed)
    });
}
