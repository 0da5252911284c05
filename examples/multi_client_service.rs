//! A shared PI prediction service: many phone-class clients, one server.
//!
//! §5.2 of the paper observes that with `n` clients the *aggregate* client
//! storage scales with `n`, so the server can run request-level
//! parallelism across clients even though each client only buffers a
//! single precompute. This example sweeps the client count through
//! `pi_sim::engine::simulate_clients` (each client with its own arrival
//! stream and 16 GB buffer, RLP offline work on the shared 32-core server)
//! and shows how the server absorbs load until the online pipeline
//! saturates — and what the GC role swap costs each client in energy.
//!
//! ```text
//! cargo run --release --example multi_client_service
//! ```

use pi_core::{
    private_inference_precomputed, ModelMeta, ProtocolConfig, ServeConfig, ServeRuntime,
    ServerPrecomp, ServiceClient,
};
use pi_he::{BatchEncoder, BfvParams, KeyError, KeySet};
use pi_nn::zoo::{Architecture, Dataset};
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use pi_sim::cost::{Garbler, ProtocolCosts};
use pi_sim::devices::DeviceProfile;
use pi_sim::energy::ClientEnergy;
use pi_sim::engine::{simulate_clients, OfflineScheduling, SystemConfig, Workload};
use rand::{Rng, SeedableRng};

fn main() {
    let arch = Architecture::ResNet32;
    let ds = Dataset::Cifar100;
    let costs = ProtocolCosts::new(
        arch,
        ds,
        Garbler::Client,
        &DeviceProfile::atom(),
        &DeviceProfile::epyc(),
    );
    println!(
        "service: {} on {} | per-client rate: 1 request / 20 min | 16 GB clients\n",
        arch.name(),
        ds.name()
    );
    println!(
        "{:>8} {:>14} {:>10} {:>10} {:>12} {:>6}",
        "clients", "mean (min)", "queue", "offline", "served/24h", "sat?"
    );
    let sys = SystemConfig {
        scheduling: OfflineScheduling::Rlp,
        link: costs.wsa_link(1e9),
        client_storage_bytes: 16e9,
    };
    let wl = Workload {
        rate_per_min: 1.0 / 20.0,
        duration_s: 24.0 * 3600.0,
        runs: 6,
        seed: 23,
    };
    for clients in [1usize, 2, 4, 8, 16, 32, 64] {
        let s = simulate_clients(&costs, &sys, &wl, clients);
        println!(
            "{:>8} {:>14.1} {:>10.1} {:>10.1} {:>12.0} {:>6}",
            clients,
            s.mean_latency_s / 60.0,
            s.mean_queue_s / 60.0,
            s.mean_offline_s / 60.0,
            s.completed,
            if s.saturated { "yes" } else { "no" }
        );
    }

    println!("\nclient energy per inference (GC role, Atom measurements):");
    for (name, g) in [
        ("Server-Garbler (evaluate)", Garbler::Server),
        ("Client-Garbler (garble)", Garbler::Client),
    ] {
        let e = ClientEnergy::per_inference(costs.relus, g);
        println!(
            "  {name:<26} {:.3} J  ({:.0} inferences per 12 Wh battery)",
            e.gc_joules,
            e.inferences_per_battery(12.0)
        );
    }
    println!("\nthe role swap costs each client 1.8x GC energy (§5.1) but buys the 5x");
    println!("storage reduction that makes the precompute pipeline possible at all.");

    // A service worker must never die on a malformed client request: a
    // rotation the key set cannot serve is an error to reject the request
    // with, not a panic.
    println!("\nrequest validation (rotations return `Result`):");
    let he = BfvParams::small_test();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let keys = KeySet::generate(&he, &mut rng);
    let enc = BatchEncoder::new(&he);
    let ct = keys
        .secret
        .encrypt_seeded(&enc.encode(&[1, 2, 3, 4]), &mut rng)
        .0;
    for requested_g in [3usize, 5] {
        match keys.galois.apply(&ct, requested_g) {
            Ok(_) => println!("  rotation request g={requested_g}: served"),
            Err(KeyError::MissingGaloisKey(g)) => {
                println!("  rotation request g={g}: rejected (no key provisioned), worker alive")
            }
        }
    }

    // The sweep above is a simulator projection. Close the loop at toy
    // scale: one shared `ServerPrecomp`, fresh keys per request — every
    // client walks away with its own TraceReport, and the service
    // aggregates them with `TraceReport::merge` to see fleet-wide message
    // sizes.
    println!("\nmeasured per-client traces (tiny-cnn, shared server precompute):");
    pi_trace::force_mode(Some(pi_trace::TraceMode::Full));
    let fx = FixedConfig { p: he.t(), f: 5 };
    let spec = zoo::tiny_cnn();
    let net = Network::materialize(&spec, &mut rng);
    let model = PiModel::lower(&QuantNetwork::quantize(&net, fx));
    let cfg = ProtocolConfig::client_garbler(he, 2);
    let pre = ServerPrecomp::new(&model, &cfg);
    // Per-request views come from the reports' local traces; the
    // message-size histogram is process-global, so start it from zero.
    pi_trace::reset();
    let mut fleet = pi_trace::TraceReport::default();
    for client in 0..3 {
        let input: Vec<u64> = (0..model.input_len)
            .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
            .collect();
        let (_, report) = private_inference_precomputed(&model, &pre, &input, &cfg);
        let t = &report.trace;
        let ms = |name: &str| t.span_total_ms(name).unwrap_or(0.0);
        println!(
            "  client {client}: {:>3} msgs / {:>6.1} KB on the wire | HE {:>5.1} ms, garble {:>5.1} ms, eval {:>5.1} ms",
            t.counter("wire.msgs").unwrap_or(0),
            t.counter("wire.bytes").unwrap_or(0) as f64 / 1e3,
            ms("offline.he"),
            ms("offline.garble"),
            ms("online.eval"),
        );
        fleet.merge(t);
    }
    println!(
        "  fleet totals: {} msgs / {:.1} KB across {} ReLU evaluations",
        fleet.counter("wire.msgs").unwrap_or(0),
        fleet.counter("wire.bytes").unwrap_or(0) as f64 / 1e3,
        fleet.counter("gc.relu").unwrap_or(0),
    );
    // Histograms are recorded process-wide (local scopes carry counters
    // and spans only), so the message-size distribution comes from the
    // global report.
    match pi_trace::global_report().hist("wire.msg_bytes") {
        Some(h) => println!(
            "  fleet message sizes: {} msgs, p50 {} B, p90 {} B, max {} B (mean {:.0} B)",
            h.count,
            h.percentile(0.50),
            h.percentile(0.90),
            h.max,
            h.mean(),
        ),
        None => println!("  fleet message sizes: no histogram (`PI_TRACE=off`)"),
    }
    pi_trace::force_mode(None);

    // ------------------------------------------------------------------
    // The serving runtime itself: 8 clients through one shared worker
    // pool, sessions cached in the byte-budgeted table, each session
    // computing its own HE matvecs (`lphe_threads` = 2) inside its pump.
    // The A/B below runs the same eight
    // requests twice over the SAME runtime — one at a time, then all in
    // flight — so the speedup line is honest wall-clock on this machine
    // (a single-core container pins it near 1x; the concurrency win needs
    // cores).
    println!("\nconcurrent serving runtime (tiny-cnn, client-garbler HE, 8 clients):");
    let meta = ModelMeta::of(&model);
    let rt = ServeRuntime::new(ServeConfig::default());
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let clients = 8u64;
    let inputs: Vec<Vec<u64>> = (0..clients)
        .map(|_| {
            (0..model.input_len)
                .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<u64>> = inputs.iter().map(|i| model.forward(i)).collect();

    let run_one = |c: u64, client_id: u64| {
        let conn = rt.connect(client_id, model_id, 500 + c);
        let mut sc = ServiceClient::new();
        let mut crng = rand::rngs::StdRng::seed_from_u64(900 + c);
        let (out, _) = sc
            .run(&meta, &inputs[c as usize], &cfg, &conn.chan, &mut crng)
            .expect("service client run");
        assert_eq!(
            out, expected[c as usize],
            "served output must be bit-identical to the reference"
        );
        conn.handle.wait().expect("server session outcome");
    };

    let t_seq = std::time::Instant::now();
    for c in 0..clients {
        run_one(c, 1_000 + c);
    }
    let seq_ms = t_seq.elapsed().as_secs_f64() * 1e3;

    let t_conc = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let run_one = &run_one;
            scope.spawn(move || run_one(c, c));
        }
    });
    let conc_ms = t_conc.elapsed().as_secs_f64() * 1e3;

    let stats = rt.key_table_stats();
    println!(
        "  session table: {} key uploads cached, {} hits, {} evictions ({:.1} MB resident)",
        stats.inserts,
        stats.hits,
        stats.evictions,
        rt.key_table_bytes() as f64 / 1e6
    );
    println!(
        "  sequential {seq_ms:.0} ms vs concurrent {conc_ms:.0} ms on {} worker(s)",
        rt.workers()
    );
    println!(
        "csv,serve_throughput,clients={clients},workers={},seq_ms={seq_ms:.0},conc_ms={conc_ms:.0},speedup={:.2}",
        rt.workers(),
        seq_ms / conc_ms
    );

    // A returning client: the 128 base OTs ran in its first request and
    // seeded IKNP state both parties kept, so its second request carries no
    // public-key work at all (and no key upload). The `ot.base` counter is
    // incremented where the base-OT sender transfers; summed over both
    // parties' traces it reads 128 for the first request and 0 for the
    // second.
    pi_trace::force_mode(Some(pi_trace::TraceMode::Counters));
    let mut returning = ServiceClient::new();
    let mut request = |c: usize| {
        let t0 = std::time::Instant::now();
        let conn = rt.connect(2_000, model_id, 700 + c as u64);
        let mut crng = rand::rngs::StdRng::seed_from_u64(800 + c as u64);
        let (out, c_out) = returning
            .run(&meta, &inputs[c], &cfg, &conn.chan, &mut crng)
            .expect("returning client run");
        let s_out = conn.handle.wait().expect("server session outcome");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            out, expected[c],
            "served output must be bit-identical to the reference"
        );
        let base_ot = |t: &pi_trace::TraceReport| t.counter("ot.base").unwrap_or(0);
        (ms, base_ot(&c_out.trace) + base_ot(&s_out.trace))
    };
    let (first_ms, base_ot_first) = request(0);
    let (second_ms, base_ot_second) = request(1);
    pi_trace::force_mode(None);
    assert_eq!((base_ot_first, base_ot_second), (128, 0));
    let ot = rt.ot_table_stats();
    println!(
        "  returning client: first request {first_ms:.0} ms ({base_ot_first} base OTs), second {second_ms:.0} ms ({base_ot_second}); OT table: {} cached, {} hits ({:.1} KB resident)",
        ot.inserts,
        ot.hits,
        rt.ot_table_bytes() as f64 / 1e3
    );
    println!(
        "csv,serve_returning,first_ms={first_ms:.0},second_ms={second_ms:.0},base_ot_second={base_ot_second}"
    );
}
