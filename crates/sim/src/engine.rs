//! Discrete-event simulation of streaming private-inference requests
//! (§3 methodology, Figures 7, 10, 12, 13).
//!
//! Clients send Poisson-arriving inference requests to one server, which
//! serves them FIFO. Between requests, the parties continuously produce
//! *precomputes* (offline phases) into each client's buffer, bounded by that
//! client's storage; each online inference consumes one of its client's.
//! When the buffer cannot hold even a single precompute, the full offline
//! cost is paid inline per request — the regime that makes prior work's
//! "offline costs are free" assumption collapse at realistic storage sizes.
//!
//! [`simulate`] runs one client, as every figure does. [`simulate_clients`]
//! runs `n` identical clients against the one server (§5.2): each has its
//! own arrival stream and its own buffer, so aggregate client storage scales
//! with `n` and RLP may run one precompute per buffer slot in the fleet,
//! while each client's latency still looks like its own single-buffer case.
//! Offline jobs share the server's concurrency under every scheduling
//! policy.

use crate::cost::ProtocolCosts;
use crate::link::Link;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// How offline HE work is scheduled across server cores (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfflineScheduling {
    /// Baseline: sequential HE, one precompute at a time (DELPHI as
    /// published — what Figures 7, 12, and 13 use for Server-Garbler).
    Sequential,
    /// Layer-parallel HE: one precompute at a time, all cores on its
    /// layers.
    Lphe,
    /// Request-level parallelism: each precompute on one core, many
    /// precomputes concurrently (bounded by cores and storage slots).
    Rlp,
}

/// System-level configuration of one simulated deployment.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Offline scheduling policy.
    pub scheduling: OfflineScheduling,
    /// Wireless link (total capacity + slot allocation).
    pub link: Link,
    /// Client storage budget for precomputes, bytes.
    pub client_storage_bytes: f64,
}

/// Workload description: Poisson arrivals over a window, averaged over
/// independent runs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Mean arrival rate, requests per minute.
    pub rate_per_min: f64,
    /// Simulated duration in seconds (the paper uses 24 h).
    pub duration_s: f64,
    /// Independent simulation runs to average (the paper uses 50).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Workload {
    /// The paper's standard setup: 24 hours, 50 runs.
    pub fn standard(rate_per_min: f64, seed: u64) -> Self {
        Self {
            rate_per_min,
            duration_s: 24.0 * 3600.0,
            runs: 50,
            seed,
        }
    }
}

/// Aggregated simulation output.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Mean end-to-end latency (seconds) over completed requests.
    pub mean_latency_s: f64,
    /// Mean time waiting behind earlier requests.
    pub mean_queue_s: f64,
    /// Mean offline-phase exposure (waiting for / running pre-processing).
    pub mean_offline_s: f64,
    /// Mean online-phase time.
    pub mean_online_s: f64,
    /// Completed requests per run (average).
    pub completed: f64,
    /// True if the backlog was still growing at the end of the window
    /// (arrival rate beyond sustainable throughput).
    pub saturated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A request from `client`.
    Arrival {
        client: usize,
    },
    /// A precompute for `client`'s buffer is ready.
    PrecomputeDone {
        client: usize,
    },
    ServiceDone,
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    /// Push order, which breaks ties in `time`.
    seq: usize,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, push order).
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Pending events, earliest first; equal times pop in push order, so a run
/// is a function of its seed.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Scheduled>,
    pushed: usize,
}

impl Agenda {
    fn push(&mut self, time: f64, event: Event) {
        self.heap.push(Scheduled {
            time,
            seq: self.pushed,
            event,
        });
        self.pushed += 1;
    }

    fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }
}

/// Derived service-time profile of a deployment.
#[derive(Clone, Copy, Debug)]
pub struct ServiceProfile {
    /// Duration of one precompute job.
    pub offline_job_s: f64,
    /// Number of precompute jobs that may run concurrently.
    pub offline_concurrency: usize,
    /// Buffered precomputes the client can store.
    pub storage_slots: usize,
    /// Online service time when a precompute is available.
    pub online_s: f64,
}

impl ServiceProfile {
    /// Computes the profile for a cost model under a system configuration,
    /// for one client.
    pub fn derive(costs: &ProtocolCosts, sys: &SystemConfig) -> Self {
        Self::shared(costs, sys, 1)
    }

    /// The profile of `clients` clients sharing the server: RLP may run one
    /// precompute per buffer slot across all of them, and one per core.
    fn shared(costs: &ProtocolCosts, sys: &SystemConfig, clients: usize) -> Self {
        let storage_slots =
            (sys.client_storage_bytes / costs.client_storage_bytes).floor() as usize;
        let (offline_job_s, offline_concurrency) = match sys.scheduling {
            OfflineScheduling::Sequential => (costs.offline_seq_s(&sys.link), 1),
            OfflineScheduling::Lphe => (costs.offline_lphe_s(&sys.link), 1),
            OfflineScheduling::Rlp => (
                costs.offline_seq_s(&sys.link),
                costs.server_cores.min((clients * storage_slots).max(1)),
            ),
        };
        Self {
            offline_job_s,
            offline_concurrency,
            storage_slots,
            online_s: costs.online_s(&sys.link),
        }
    }
}

/// Runs the simulation for one client and averages over the workload's
/// runs.
pub fn simulate(costs: &ProtocolCosts, sys: &SystemConfig, wl: &Workload) -> SimStats {
    simulate_clients(costs, sys, wl, 1)
}

/// Runs the simulation for `clients` identical clients, each arriving at
/// the workload's rate with its own storage, and averages over the
/// workload's runs. Means are per request; `completed` counts every
/// client's requests.
pub fn simulate_clients(
    costs: &ProtocolCosts,
    sys: &SystemConfig,
    wl: &Workload,
    clients: usize,
) -> SimStats {
    let profile = ServiceProfile::shared(costs, sys, clients);
    let mut agg = SimStats::default();
    let mut saturated_runs = 0usize;
    for run in 0..wl.runs {
        let one = simulate_once(&profile, wl, clients, wl.seed.wrapping_add(run as u64));
        agg.mean_latency_s += one.mean_latency_s;
        agg.mean_queue_s += one.mean_queue_s;
        agg.mean_offline_s += one.mean_offline_s;
        agg.mean_online_s += one.mean_online_s;
        agg.completed += one.completed;
        if one.saturated {
            saturated_runs += 1;
        }
    }
    let n = wl.runs.max(1) as f64;
    agg.mean_latency_s /= n;
    agg.mean_queue_s /= n;
    agg.mean_offline_s /= n;
    agg.mean_online_s /= n;
    agg.completed /= n;
    agg.saturated = saturated_runs * 2 > wl.runs;
    agg
}

/// One simulation run of `clients` clients; `profile.offline_concurrency`
/// caps the precompute jobs running across all of them.
pub fn simulate_once(
    profile: &ServiceProfile,
    wl: &Workload,
    clients: usize,
    seed: u64,
) -> SimStats {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let rate_per_s = wl.rate_per_min / 60.0;
    // Each client's Poisson arrivals, client 0's drawn first.
    let mut agenda = Agenda::default();
    let mut arrivals = 0usize;
    for client in 0..clients {
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_per_s;
            if t > wl.duration_s {
                break;
            }
            agenda.push(t, Event::Arrival { client });
            arrivals += 1;
        }
    }

    let inline = profile.storage_slots == 0;
    // Buffered precomputes per client, and each empty buffer slot's client
    // in the order the slots emptied.
    let mut ready = vec![0usize; clients];
    let mut empty: VecDeque<usize> = (0..profile.storage_slots)
        .flat_map(|_| 0..clients)
        .collect();
    let mut in_flight = 0usize; // precompute jobs running
    let mut queue: VecDeque<(f64, usize)> = VecDeque::new(); // (arrival, client)
    let mut server_busy = false;
    let mut server_free_since = 0.0f64; // when the head request became eligible

    let mut total_latency = 0.0;
    let mut total_queue = 0.0;
    let mut total_offline = 0.0;
    let mut total_online = 0.0;
    let mut completed = 0usize;

    // Starts a job for each empty slot, in order, while the server has room.
    fn refill(
        agenda: &mut Agenda,
        now: f64,
        profile: &ServiceProfile,
        empty: &mut VecDeque<usize>,
        in_flight: &mut usize,
    ) {
        while *in_flight < profile.offline_concurrency {
            let Some(client) = empty.pop_front() else {
                break;
            };
            *in_flight += 1;
            agenda.push(
                now + profile.offline_job_s,
                Event::PrecomputeDone { client },
            );
        }
    }

    refill(&mut agenda, 0.0, profile, &mut empty, &mut in_flight);

    while let Some((now, event)) = agenda.pop() {
        // Observation window ends with the workload: requests still queued
        // at that point count as backlog (saturation), as in the paper's
        // 24-hour simulations.
        if now > wl.duration_s {
            break;
        }
        match event {
            Event::Arrival { client } => {
                queue.push_back((now, client));
                if !server_busy && queue.len() == 1 {
                    server_free_since = now;
                }
            }
            Event::PrecomputeDone { client } => {
                in_flight -= 1;
                ready[client] += 1;
            }
            Event::ServiceDone => {
                server_busy = false;
                server_free_since = now;
            }
        }
        // Try to start the next service.
        if !server_busy {
            if let Some(&(arrival, client)) = queue.front() {
                let eligible_at = server_free_since.max(arrival);
                if inline {
                    queue.pop_front();
                    let service = profile.offline_job_s + profile.online_s;
                    let finish = eligible_at + service;
                    server_busy = true;
                    agenda.push(finish, Event::ServiceDone);
                    total_latency += finish - arrival;
                    total_queue += eligible_at - arrival;
                    total_offline += profile.offline_job_s;
                    total_online += profile.online_s;
                    completed += 1;
                } else if ready[client] > 0 {
                    queue.pop_front();
                    ready[client] -= 1;
                    empty.push_back(client);
                    let start = eligible_at.max(now);
                    let finish = start + profile.online_s;
                    server_busy = true;
                    agenda.push(finish, Event::ServiceDone);
                    total_latency += finish - arrival;
                    // Attribution: waiting before the server was free is
                    // queueing; waiting after (for a precompute) is offline
                    // exposure.
                    let queue_wait = (server_free_since - arrival).max(0.0).min(start - arrival);
                    total_queue += queue_wait;
                    total_offline += (start - arrival) - queue_wait;
                    total_online += profile.online_s;
                    completed += 1;
                }
                // else: wait for this client's next PrecomputeDone.
            }
        }
        refill(&mut agenda, now, profile, &mut empty, &mut in_flight);
    }

    let n = completed.max(1) as f64;
    SimStats {
        mean_latency_s: total_latency / n,
        mean_queue_s: total_queue / n,
        mean_offline_s: total_offline / n,
        mean_online_s: total_online / n,
        completed: completed as f64,
        saturated: queue.len() > (arrivals / 10).max(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Garbler;
    use crate::devices::DeviceProfile;
    use pi_nn::zoo::{Architecture, Dataset};

    fn r18_costs(garbler: Garbler) -> ProtocolCosts {
        ProtocolCosts::new(
            Architecture::ResNet18,
            Dataset::TinyImageNet,
            garbler,
            &DeviceProfile::atom(),
            &DeviceProfile::epyc(),
        )
    }

    fn sys(storage_gb: f64, costs: &ProtocolCosts) -> SystemConfig {
        SystemConfig {
            scheduling: OfflineScheduling::Lphe,
            link: costs.wsa_link(1e9),
            client_storage_bytes: storage_gb * 1e9,
        }
    }

    fn fast_wl(rate_per_min: f64, seed: u64) -> Workload {
        Workload {
            rate_per_min,
            duration_s: 24.0 * 3600.0,
            runs: 8,
            seed,
        }
    }

    #[test]
    fn low_rate_latency_is_online_only() {
        // With plenty of storage and rare arrivals, mean latency ≈ online.
        let costs = r18_costs(Garbler::Client);
        let s = sys(128.0, &costs);
        let stats = simulate(&costs, &s, &fast_wl(1.0 / 180.0, 1));
        let online = costs.online_s(&s.link);
        assert!(
            (stats.mean_latency_s - online).abs() < 0.2 * online,
            "latency {} vs online {}",
            stats.mean_latency_s,
            online
        );
        assert!(!stats.saturated);
    }

    #[test]
    fn high_rate_saturates() {
        let costs = r18_costs(Garbler::Client);
        let s = sys(128.0, &costs);
        // Far beyond the offline pipeline rate.
        let stats = simulate(&costs, &s, &fast_wl(2.0, 2));
        assert!(stats.saturated);
        assert!(stats.mean_queue_s > stats.mean_online_s);
    }

    #[test]
    fn latency_monotonic_in_rate() {
        let costs = r18_costs(Garbler::Client);
        let s = sys(64.0, &costs);
        let lat: Vec<f64> = [1.0 / 95.0, 1.0 / 40.0, 1.0 / 20.0]
            .iter()
            .map(|&r| simulate(&costs, &s, &fast_wl(r, 3)).mean_latency_s)
            .collect();
        assert!(lat[0] <= lat[1] && lat[1] <= lat[2], "{lat:?}");
    }

    #[test]
    fn insufficient_storage_forces_inline_offline() {
        // Server-Garbler needs ~41 GB per precompute; 16 GB -> inline.
        let costs = r18_costs(Garbler::Server);
        let s = sys(16.0, &costs);
        let profile = ServiceProfile::derive(&costs, &s);
        assert_eq!(profile.storage_slots, 0);
        let stats = simulate(&costs, &s, &fast_wl(1.0 / 120.0, 4));
        // Every request pays offline inline: latency >= offline + online.
        assert!(stats.mean_offline_s > 0.9 * profile.offline_job_s);
        assert!(stats.mean_latency_s > profile.offline_job_s);
    }

    #[test]
    fn client_garbler_fits_in_16gb() {
        let costs = r18_costs(Garbler::Client);
        let s = sys(16.0, &costs);
        let profile = ServiceProfile::derive(&costs, &s);
        assert!(
            profile.storage_slots >= 1,
            "CG must buffer a precompute in 16 GB"
        );
        let stats = simulate(&costs, &s, &fast_wl(1.0 / 100.0, 5));
        // Low-rate latency is online-dominated, minutes not hours.
        assert!(stats.mean_latency_s < 600.0, "{}", stats.mean_latency_s);
    }

    #[test]
    fn rlp_beats_lphe_only_with_ample_storage() {
        let costs = r18_costs(Garbler::Client);
        let mk = |sched, gb: f64| SystemConfig {
            scheduling: sched,
            link: costs.wsa_link(1e9),
            client_storage_bytes: gb * 1e9,
        };
        let rate = 1.0 / 15.0;
        let lphe_small = simulate(
            &costs,
            &mk(OfflineScheduling::Lphe, 16.0),
            &fast_wl(rate, 6),
        );
        let rlp_small = simulate(&costs, &mk(OfflineScheduling::Rlp, 16.0), &fast_wl(rate, 6));
        // With one slot, RLP under-utilizes cores: worse latency.
        assert!(
            lphe_small.mean_latency_s < rlp_small.mean_latency_s,
            "LPHE {} vs RLP {}",
            lphe_small.mean_latency_s,
            rlp_small.mean_latency_s
        );
        // With many slots, RLP throughput wins at high rates.
        let rate_hi = 1.0 / 11.0;
        let lphe_big = simulate(
            &costs,
            &mk(OfflineScheduling::Lphe, 140.0),
            &fast_wl(rate_hi, 7),
        );
        let rlp_big = simulate(
            &costs,
            &mk(OfflineScheduling::Rlp, 140.0),
            &fast_wl(rate_hi, 7),
        );
        assert!(
            rlp_big.mean_latency_s < lphe_big.mean_latency_s,
            "RLP {} vs LPHE {}",
            rlp_big.mean_latency_s,
            lphe_big.mean_latency_s
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let costs = r18_costs(Garbler::Client);
        let s = sys(64.0, &costs);
        let a = simulate(&costs, &s, &fast_wl(1.0 / 30.0, 42));
        let b = simulate(&costs, &s, &fast_wl(1.0 / 30.0, 42));
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
    }

    #[test]
    fn one_client_runs_are_pinned() {
        // `simulate` at a fixed seed on the storage-less inline path,
        // one-at-a-time LPHE and multi-core RLP. The event loop's client
        // count must leave one-client runs where they were.
        let cases = [
            (
                Garbler::Server,
                16.0,
                OfflineScheduling::Sequential,
                1.0 / 120.0,
                [
                    2478.628231769991,
                    524.7026729585535,
                    1688.8883222181046,
                    265.03723659333315,
                ],
                14.5,
            ),
            (
                Garbler::Client,
                16.0,
                OfflineScheduling::Lphe,
                1.0 / 40.0,
                [
                    230.9060007375284,
                    33.83428397140454,
                    84.54630157295634,
                    112.52541519316594,
                ],
                38.5,
            ),
            (
                Garbler::Client,
                64.0,
                OfflineScheduling::Rlp,
                1.0 / 15.0,
                [
                    149.21194510125764,
                    22.810574923593606,
                    13.875954984496438,
                    112.52541519316586,
                ],
                101.5,
            ),
        ];
        for (garbler, gb, scheduling, rate, means, completed) in cases {
            let costs = r18_costs(garbler);
            let s = SystemConfig {
                scheduling,
                link: costs.wsa_link(1e9),
                client_storage_bytes: gb * 1e9,
            };
            let stats = simulate(&costs, &s, &fast_wl(rate, 29));
            let got = [
                stats.mean_latency_s,
                stats.mean_queue_s,
                stats.mean_offline_s,
                stats.mean_online_s,
            ];
            for (g, want) in got.iter().zip(means) {
                assert!(
                    (g - want).abs() <= 1e-12 * want,
                    "{garbler:?} {scheduling:?}: {got:?} vs {means:?}"
                );
            }
            assert_eq!(stats.completed, completed, "{garbler:?} {scheduling:?}");
            assert!(!stats.saturated, "{garbler:?} {scheduling:?}");
        }
    }

    /// ResNet-32 / CIFAR-100 Client-Garbler clients with 16 GB each under
    /// RLP, over 12 hours.
    fn r32_fleet(clients: usize, rate_per_min: f64) -> (SimStats, ServiceProfile) {
        let costs = ProtocolCosts::new(
            Architecture::ResNet32,
            Dataset::Cifar100,
            Garbler::Client,
            &DeviceProfile::atom(),
            &DeviceProfile::epyc(),
        );
        let s = SystemConfig {
            scheduling: OfflineScheduling::Rlp,
            link: costs.wsa_link(1e9),
            client_storage_bytes: 16e9,
        };
        let wl = Workload {
            rate_per_min,
            duration_s: 12.0 * 3600.0,
            runs: 4,
            seed: 11,
        };
        (
            simulate_clients(&costs, &s, &wl, clients),
            ServiceProfile::derive(&costs, &s),
        )
    }

    #[test]
    fn single_client_low_rate_is_online_dominated() {
        let (stats, profile) = r32_fleet(1, 1.0 / 60.0);
        assert!(
            stats.mean_latency_s < 3.0 * profile.online_s,
            "{}",
            stats.mean_latency_s
        );
    }

    #[test]
    fn server_absorbs_several_clients() {
        // The shared 32-core server should serve 8 low-rate clients with
        // per-client latency close to the single-client case (§5.2: RLP
        // across clients).
        let (one, _) = r32_fleet(1, 1.0 / 30.0);
        let (eight, _) = r32_fleet(8, 1.0 / 30.0);
        assert!(
            eight.mean_latency_s < 2.5 * one.mean_latency_s,
            "1 client: {} s, 8 clients: {} s",
            one.mean_latency_s,
            eight.mean_latency_s
        );
    }

    #[test]
    fn too_many_clients_saturate_the_online_pipeline() {
        let (stats, _) = r32_fleet(64, 1.0 / 4.0);
        assert!(
            stats.saturated || stats.mean_queue_s > stats.mean_online_s,
            "64 aggressive clients must stress the shared pipeline: {stats:?}"
        );
    }

    #[test]
    fn completed_scales_with_clients() {
        let (one, _) = r32_fleet(1, 1.0 / 30.0);
        let (four, _) = r32_fleet(4, 1.0 / 30.0);
        assert!(four.completed > 3.0 * one.completed);
    }

    #[test]
    fn storage_less_clients_pay_their_own_offline_phase_inline() {
        // Server-Garbler needs ~41 GB per precompute: neither of two 16 GB
        // clients buffers one, so every request runs its offline phase
        // inline on the server, never beside another request's.
        let costs = r18_costs(Garbler::Server);
        let s = SystemConfig {
            scheduling: OfflineScheduling::Rlp,
            link: costs.wsa_link(1e9),
            client_storage_bytes: 16e9,
        };
        let profile = ServiceProfile::derive(&costs, &s);
        assert_eq!(profile.storage_slots, 0);
        let stats = simulate_clients(&costs, &s, &fast_wl(1.0 / 120.0, 8), 2);
        assert!(stats.completed > 0.0);
        assert!(
            (stats.mean_offline_s - profile.offline_job_s).abs() <= 1e-12 * profile.offline_job_s,
            "offline {} vs job {}",
            stats.mean_offline_s,
            profile.offline_job_s
        );
        assert!(
            stats.mean_latency_s >= profile.offline_job_s + profile.online_s,
            "latency {} vs offline + online {}",
            stats.mean_latency_s,
            profile.offline_job_s + profile.online_s
        );
    }
}
