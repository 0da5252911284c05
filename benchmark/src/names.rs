//! The names the benchmark fixes: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root lists the same names (a unit test holds the two together); every
//! later performance or simplicity PR is judged with them.

use crate::stats::Better;

/// A workload and the reason it exists.
pub struct WorkloadName {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadName; 4] = [
    WorkloadName {
        name: "he_cold",
        why: "tiny_resnet, server-garbler, fresh HE keys every request: pre-processing incurred online by a first-time client, so keygen, key upload and the HE stack do half the work",
    },
    WorkloadName {
        name: "relu_heavy",
        why: "8192-ReLU MLP, client-garbler, cleartext linear phase: HE is bypassed, so garbling, GC evaluation and OT extension do all the work that is not base OT; an HE change must read flat here",
    },
    WorkloadName {
        name: "serve_warm",
        why: "serving runtime, tiny_cnn, one closed-loop returning client with retained keys: every key-table lookup hits, no keygen and no key upload, so base OT and the HE matvec are what is left",
    },
    WorkloadName {
        name: "serve_churn",
        why: "same runtime and model, every request a new client id: every key-table lookup misses, every request generates, uploads, decodes and inserts keys, and the table evicts",
    },
];

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Byte and storage figures come from protocol bookkeeping, not a
    /// clock: two sets of the same code must agree on them exactly.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit: "B",
        better: Better::Lower,
        bound: EXACT_BOUND,
        exact: true,
    }
}

/// The bound `BENCHMARK.json` carries for an exact metric: small enough
/// that no real change in bytes passes, without relying on a zero bound.
pub const EXACT_BOUND: f64 = 0.001;

/// The bound of every timing metric. This shared host slows for minutes at
/// a time; scaled to the host-speed reference (README, "Steadiness"), ten
/// back-to-back 20-second runs of one workload spread by 3–15 % of their
/// median on a busy hour, and the residual grows with the spell, so the
/// bounds stay at the contract's largest. A claimed gain is judged by
/// alternating pairs, not by these.
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 10] = [
    timed("setup_s", "s", Better::Lower, TIMING_BOUND),
    timed("infer_ms_p50", "ms", Better::Lower, TIMING_BOUND),
    timed("infer_ms_p75", "ms", Better::Lower, TIMING_BOUND),
    timed("throughput_rps", "1/s", Better::Higher, TIMING_BOUND),
    timed("cpu_ms_per_req", "ms", Better::Lower, TIMING_BOUND),
    exact("bytes_up_per_req"),
    exact("bytes_down_per_req"),
    exact("client_storage_bytes"),
    exact("server_storage_bytes"),
    timed("peak_rss_mb", "MB", Better::Lower, TIMING_BOUND),
];

/// A per-layer metric: `(name, unit, better)`. The prefix before the first
/// dot is the layer (a crate on the inference path, `phase`/`count`/
/// `serve`/`trace` for what `pi-core` and `pi-trace` report, or `host` for
/// the ledger's own speed reference).
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 59] = [
    ("nn.lower_ms", "ms", Lower),
    ("nn.forward_us", "us", Lower),
    ("nn.phase_apply_ms", "ms", Lower),
    ("poly.ntt_fwd_us", "us", Lower),
    ("poly.ntt_inv_us", "us", Lower),
    ("poly.dyadic_mul_us", "us", Lower),
    ("he.keygen_ms", "ms", Lower),
    ("he.encrypt_ms", "ms", Lower),
    ("he.decrypt_ms", "ms", Lower),
    ("he.matvec_ms", "ms", Lower),
    ("he.matvec_batch_ms", "ms", Lower),
    ("he.keys_encode_ms", "ms", Lower),
    ("he.keys_decode_ms", "ms", Lower),
    ("he.keys_wire_bytes", "B", Lower),
    ("he.ct_wire_bytes_up", "B", Lower),
    ("he.ct_wire_bytes_down", "B", Lower),
    ("gc.garble_us_per_relu", "us", Lower),
    ("gc.eval_us_per_relu", "us", Lower),
    ("gc.bytes_per_relu", "B", Lower),
    ("gc.and_per_relu", "count", Lower),
    ("ot.base_ms", "ms", Lower),
    ("ot.ext_ns_per_ot", "ns", Lower),
    ("ot.ext_bytes_per_ot", "B", Lower),
    ("core.precomp_ms", "ms", Lower),
    ("phase.offline_he_ms", "ms", Lower),
    ("phase.offline_garble_ms", "ms", Lower),
    ("phase.offline_ot_ms", "ms", Lower),
    ("phase.online_ot_ms", "ms", Lower),
    ("phase.online_eval_ms", "ms", Lower),
    ("phase.online_ss_ms", "ms", Lower),
    ("phase.online_total_ms", "ms", Lower),
    ("phase.server_offline_he_ms", "ms", Lower),
    ("phase.server_offline_garble_ms", "ms", Lower),
    ("phase.server_offline_ot_ms", "ms", Lower),
    ("phase.server_online_ot_ms", "ms", Lower),
    ("phase.server_online_eval_ms", "ms", Lower),
    ("phase.server_online_ss_ms", "ms", Lower),
    ("phase.unattributed_frac", "frac", Lower),
    ("count.ntt_fwd", "count", Lower),
    ("count.he_rotation", "count", Lower),
    ("count.aes_blocks", "count", Lower),
    ("count.ot_base", "count", Lower),
    ("count.ot_extended", "count", Lower),
    ("count.gc_and_garbled", "count", Lower),
    ("count.gc_and_evaluated", "count", Lower),
    ("count.wire_msgs", "count", Lower),
    ("serve.key_hit_ratio", "frac", Higher),
    ("serve.key_inserts", "count", Lower),
    ("serve.key_evictions", "count", Lower),
    ("serve.key_resident_mb", "MB", Lower),
    ("serve.workers", "count", Higher),
    ("serve.agg_offline_he_ms", "ms", Lower),
    ("trace.overhead_frac", "frac", Lower),
    ("trace.infer_ms_p50", "ms", Lower),
    ("trace.requests", "count", Higher),
    ("shape.relu_count", "count", Lower),
    ("shape.ot_count", "count", Lower),
    ("shape.phases", "count", Lower),
    ("host.ref_ms", "ms", Lower),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}
