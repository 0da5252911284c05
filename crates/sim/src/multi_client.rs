//! Multiple clients sharing one server (§5.2 discussion).
//!
//! The paper observes that with `n` clients, aggregate client storage
//! scales with `n`, so the *server* can exploit request-level parallelism
//! across clients even when each client only buffers a single precompute —
//! but each client's own latency still looks like the single-precompute
//! case. This module simulates that regime: independent Poisson streams
//! per client, a shared server core pool for offline HE, and per-client
//! precompute buffers.

use crate::cost::ProtocolCosts;
use crate::engine::{SimStats, SystemConfig};
use rand::{Rng, SeedableRng};

/// A multi-client deployment.
#[derive(Clone, Debug)]
pub struct MultiClientConfig {
    /// Number of identical clients.
    pub clients: usize,
    /// Per-client system configuration (storage is per client).
    pub per_client: SystemConfig,
    /// Per-client arrival rate, requests per minute.
    pub rate_per_min: f64,
    /// Simulated window, seconds.
    pub duration_s: f64,
    /// Averaging runs.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

/// Simulates `n` clients against one server with a shared offline core
/// pool: each client's precompute occupies one server core for the
/// sequential HE time (RLP across clients, as §5.2 suggests), and online
/// service is FIFO on the single online pipeline.
///
/// Returns per-client-averaged stats.
pub fn simulate_multi_client(costs: &ProtocolCosts, cfg: &MultiClientConfig) -> SimStats {
    let mut agg = SimStats::default();
    let mut saturated = 0usize;
    for run in 0..cfg.runs {
        let one = simulate_multi_once(costs, cfg, cfg.seed.wrapping_add(run as u64));
        agg.mean_latency_s += one.mean_latency_s;
        agg.mean_queue_s += one.mean_queue_s;
        agg.mean_offline_s += one.mean_offline_s;
        agg.mean_online_s += one.mean_online_s;
        agg.completed += one.completed;
        if one.saturated {
            saturated += 1;
        }
    }
    let n = cfg.runs.max(1) as f64;
    agg.mean_latency_s /= n;
    agg.mean_queue_s /= n;
    agg.mean_offline_s /= n;
    agg.mean_online_s /= n;
    agg.completed /= n;
    agg.saturated = saturated * 2 > cfg.runs;
    agg
}

/// Index of the smallest time (a free core, a ready precompute).
fn earliest(times: &[f64]) -> Option<usize> {
    (0..times.len()).min_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("finite times"))
}

/// Removes and returns the buffered precompute that is ready first. The
/// buffer is unordered (`swap_remove`), so the pick is by ready time, not
/// by position.
fn take_earliest(ready: &mut Vec<f64>) -> Option<f64> {
    earliest(ready).map(|pos| ready.swap_remove(pos))
}

fn simulate_multi_once(costs: &ProtocolCosts, cfg: &MultiClientConfig, seed: u64) -> SimStats {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let rate_per_s = cfg.rate_per_min / 60.0;
    let offline_s = costs.he_seq_s() + costs.garble_s + costs.offline_comm_s(&cfg.per_client.link);
    let online_s = costs.online_s(&cfg.per_client.link);
    let slots_per_client =
        (cfg.per_client.client_storage_bytes / costs.client_storage_bytes).floor() as usize;

    // Generate all arrivals tagged by client.
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for c in 0..cfg.clients {
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_per_s;
            if t > cfg.duration_s {
                break;
            }
            arrivals.push((t, c));
        }
    }
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    // Per-client buffers; shared offline core pool of `server_cores`.
    // Approximation: offline jobs complete `offline_s` after they start;
    // a per-client job starts whenever the client has a free slot and a
    // core is free (earliest-core-available).
    let mut core_free = vec![0.0f64; costs.server_cores.max(1)];
    let mut client_ready: Vec<Vec<f64>> = vec![Vec::new(); cfg.clients]; // ready times
                                                                         // Seed initial precompute production per client.
    for ready in client_ready.iter_mut() {
        for _ in 0..slots_per_client {
            let core = earliest(&core_free).expect("at least one core");
            let done = core_free[core] + offline_s;
            core_free[core] = done;
            ready.push(done);
        }
    }

    let mut online_free = 0.0f64; // single shared online pipeline
    let mut total_latency = 0.0;
    let mut total_queue = 0.0;
    let mut total_offline = 0.0;
    let mut total_online = 0.0;
    let mut completed = 0usize;
    let mut backlog = 0usize;

    for &(arrival, c) in &arrivals {
        // Next precompute ready time for this client; if none buffered,
        // schedule one inline on the earliest core.
        let ready_at = if let Some(ready) = take_earliest(&mut client_ready[c]) {
            ready
        } else {
            let core = earliest(&core_free).expect("at least one core");
            let done = core_free[core].max(arrival) + offline_s;
            core_free[core] = done;
            done
        };
        let start = arrival.max(ready_at).max(online_free);
        let finish = start + online_s;
        if start > cfg.duration_s {
            backlog += 1;
            continue;
        }
        online_free = finish;
        // Replenish this client's buffer.
        if slots_per_client > 0 {
            let core = earliest(&core_free).expect("at least one core");
            let done = core_free[core].max(start) + offline_s;
            core_free[core] = done;
            client_ready[c].push(done);
        }
        total_latency += finish - arrival;
        let offline_wait = (ready_at - arrival).max(0.0);
        total_offline += offline_wait.min(finish - arrival - online_s);
        total_queue += (start - arrival - offline_wait).max(0.0);
        total_online += online_s;
        completed += 1;
    }

    let n = completed.max(1) as f64;
    SimStats {
        mean_latency_s: total_latency / n,
        mean_queue_s: total_queue / n,
        mean_offline_s: total_offline / n,
        mean_online_s: total_online / n,
        completed: completed as f64,
        saturated: backlog > (arrivals.len() / 10).max(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Garbler;
    use crate::devices::DeviceProfile;
    use crate::engine::OfflineScheduling;
    use pi_nn::zoo::{Architecture, Dataset};

    fn costs() -> ProtocolCosts {
        ProtocolCosts::new(
            Architecture::ResNet32,
            Dataset::Cifar100,
            Garbler::Client,
            &DeviceProfile::atom(),
            &DeviceProfile::epyc(),
        )
    }

    fn cfg(clients: usize, rate: f64) -> MultiClientConfig {
        let c = costs();
        MultiClientConfig {
            clients,
            per_client: SystemConfig {
                scheduling: OfflineScheduling::Rlp,
                link: c.wsa_link(1e9),
                client_storage_bytes: 16e9,
            },
            rate_per_min: rate,
            duration_s: 12.0 * 3600.0,
            runs: 4,
            seed: 11,
        }
    }

    #[test]
    fn single_client_low_rate_is_online_dominated() {
        let c = costs();
        let stats = simulate_multi_client(&c, &cfg(1, 1.0 / 60.0));
        let online = c.online_s(&cfg(1, 1.0).per_client.link);
        assert!(
            stats.mean_latency_s < 3.0 * online,
            "{}",
            stats.mean_latency_s
        );
    }

    #[test]
    fn server_absorbs_several_clients() {
        // The shared 32-core server should serve 8 low-rate clients with
        // per-client latency close to the single-client case (§5.2: RLP
        // across clients).
        let c = costs();
        let one = simulate_multi_client(&c, &cfg(1, 1.0 / 30.0));
        let eight = simulate_multi_client(&c, &cfg(8, 1.0 / 30.0));
        assert!(
            eight.mean_latency_s < 2.5 * one.mean_latency_s,
            "1 client: {} s, 8 clients: {} s",
            one.mean_latency_s,
            eight.mean_latency_s
        );
    }

    #[test]
    fn too_many_clients_saturate_the_online_pipeline() {
        let c = costs();
        let stats = simulate_multi_client(&c, &cfg(64, 1.0 / 4.0));
        assert!(
            stats.saturated || stats.mean_queue_s > stats.mean_online_s,
            "64 aggressive clients must stress the shared pipeline: {stats:?}"
        );
    }

    #[test]
    fn a_request_takes_the_precompute_that_is_ready_first() {
        // One server core seeds three slots at T, 2T, 3T. The first request
        // takes T and `swap_remove` leaves [3T, 2T]; a request arriving at
        // 2.5T must get the 2T precompute and start at once, not wait for
        // the 3T one that happens to sit at index 0.
        let mut ready = vec![1.0, 2.0, 3.0];
        assert_eq!(take_earliest(&mut ready), Some(1.0));
        assert_eq!(ready, [3.0, 2.0]);
        assert_eq!(take_earliest(&mut ready), Some(2.0));
        assert_eq!(take_earliest(&mut ready), Some(3.0));
        assert_eq!(take_earliest(&mut ready), None);
    }

    #[test]
    fn completed_scales_with_clients() {
        let c = costs();
        let one = simulate_multi_client(&c, &cfg(1, 1.0 / 30.0));
        let four = simulate_multi_client(&c, &cfg(4, 1.0 / 30.0));
        assert!(four.completed > 3.0 * one.completed);
    }
}
