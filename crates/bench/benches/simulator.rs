//! Simulator step rate: how fast a 24-hour workload run executes.

use criterion::{criterion_group, criterion_main, Criterion};
use pi_nn::zoo::{Architecture, Dataset};
use pi_sim::cost::{Garbler, ProtocolCosts};
use pi_sim::devices::DeviceProfile;
use pi_sim::engine::{simulate_once, OfflineScheduling, ServiceProfile, SystemConfig, Workload};

fn bench_sim(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    group.bench_function("one_24h_run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            simulate_once(&profile, &wl, 1, seed)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
