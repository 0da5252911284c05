//! Cost accounting: compute time, communication, and storage per phase.
//!
//! Byte and count fields are exact (they come from the byte-counting
//! channels and protocol bookkeeping). Timing fields are `Option<f64>`:
//! `None` means *not measured* — the run executed with `PI_TRACE` below
//! `full`, so no span timings exist — while `Some(0.0)` means the phase
//! ran under full tracing and genuinely took no measurable time. The
//! distinction keeps "tracing was off" from masquerading as "infinitely
//! fast" in downstream rate math: a rate over an unmeasured duration is
//! `None`, never a silent zero.

use crate::common::PartyOutcome;

/// Merges the two parties' [`PartyOutcome`]s into one [`CostReport`] — the
/// canonical accounting used by [`crate::private_inference`], shared with
/// serving-runtime callers that collect the two outcomes themselves (a
/// [`crate::serve::SessionHandle`] on the server side, a
/// [`crate::ServiceClient`] on the client side).
pub fn merge_cost_report(
    client: &PartyOutcome,
    server: &PartyOutcome,
    relu_count: u64,
) -> CostReport {
    // Each party collected its own span tree (rooted at `client` /
    // `server`) on its own thread; the merged report accumulates both, so a
    // leaf lookup like `offline.he` sums the two parties' contributions.
    let mut trace = client.trace.clone();
    trace.merge(&server.trace);

    let mut report = CostReport {
        offline: SideCosts {
            upload_bytes: client.offline_sent,
            download_bytes: server.offline_sent,
            ..Default::default()
        },
        online: SideCosts {
            upload_bytes: client.total_sent - client.offline_sent,
            download_bytes: server.total_sent - server.offline_sent,
            ..Default::default()
        },
        client_storage_bytes: client.storage_bytes,
        server_storage_bytes: server.storage_bytes,
        relu_count,
        gc_bytes: client.gc_bytes.max(server.gc_bytes),
        galois_key_bytes: client.galois_key_bytes,
        galois_key_bytes_per_rotation: client.galois_key_bytes_per_rotation,
        // Both parties count the same OTs, so take the max rather than
        // double-count.
        ot_count: client.ot_count.max(server.ot_count),
        trace,
    };
    // Phase timings come from the span tree instead of hand-threaded
    // timers: `None` when spans were not recorded (PI_TRACE below `full`).
    report.offline.he_ms = report.trace.span_total_ms("offline.he");
    report.offline.garble_ms = report.trace.span_total_ms("offline.garble");
    report.offline.ot_ms = report.trace.span_total_ms("offline.ot");
    report.online.ot_ms = report.trace.span_total_ms("online.ot");
    report.online.eval_ms = report.trace.span_total_ms("online.eval");
    report.online.ss_ms = report.trace.span_total_ms("online.ss");
    report
}

/// Costs attributed to one protocol phase (offline or online).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SideCosts {
    /// Bytes sent client → server during this phase (actual serialized
    /// frames: seed-expanded, bit-packed, mod-switched).
    pub upload_bytes: u64,
    /// Bytes sent server → client during this phase.
    pub download_bytes: u64,
    /// Wall-clock milliseconds spent in homomorphic evaluation (`None` =
    /// not measured: spans need `PI_TRACE=full`).
    pub he_ms: Option<f64>,
    /// Wall-clock milliseconds spent garbling.
    pub garble_ms: Option<f64>,
    /// Wall-clock milliseconds spent evaluating garbled circuits.
    pub eval_ms: Option<f64>,
    /// Wall-clock milliseconds spent in oblivious transfer (both roles).
    pub ot_ms: Option<f64>,
    /// Wall-clock milliseconds spent in secret-sharing arithmetic.
    pub ss_ms: Option<f64>,
}

impl SideCosts {
    /// Total communication in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.upload_bytes + self.download_bytes
    }

    /// Total accounted compute milliseconds: the sum of the measured phase
    /// timings, or `None` if none of them was measured.
    pub fn total_compute_ms(&self) -> Option<f64> {
        let parts = [
            self.he_ms,
            self.garble_ms,
            self.eval_ms,
            self.ot_ms,
            self.ss_ms,
        ];
        if parts.iter().all(Option::is_none) {
            return None;
        }
        Some(parts.iter().flatten().sum())
    }
}

/// Events per second from a count and an optional millisecond duration.
///
/// * duration `None` (not measured) → `None`;
/// * `count == 0` with a measured duration → `Some(0.0)` (measured, and
///   nothing happened);
/// * `count > 0` against a measured zero/negative duration → `None` (the
///   clock resolution defeated us; an infinite rate would be a lie).
fn rate(count: u64, ms: Option<f64>) -> Option<f64> {
    let ms = ms?;
    if count == 0 {
        Some(0.0)
    } else if ms <= 0.0 {
        None
    } else {
        Some(count as f64 / (ms / 1e3))
    }
}

/// Full cost report of one private inference.
#[derive(Clone, Debug, Default)]
pub struct CostReport {
    /// Offline (pre-processing) phase costs.
    pub offline: SideCosts,
    /// Online phase costs.
    pub online: SideCosts,
    /// Bytes the client must store between the offline and online phases
    /// (the paper's Figure 3 / Figure 8 quantity).
    pub client_storage_bytes: u64,
    /// Bytes the server must store between phases.
    pub server_storage_bytes: u64,
    /// Number of garbled ReLU elements in the inference.
    pub relu_count: u64,
    /// Total garbled-circuit material transmitted (bytes).
    pub gc_bytes: u64,
    /// Galois (rotation) key material the client generated and uploaded:
    /// the model's key plan (the replicated schedule's babies, giants and
    /// rotate-and-sum steps per layer dimension).
    pub galois_key_bytes: u64,
    /// What a full per-rotation key set (`d − 1` elements per dimension,
    /// the one-replica hoisting-without-BSGS baseline) would cost — the
    /// offline key-storage figure the key plan replaces.
    pub galois_key_bytes_per_rotation: u64,
    /// Extended OTs executed (one per evaluator input bit served).
    pub ot_count: u64,
    /// Merged client+server trace of the inference: phase spans, substrate
    /// counters (NTTs, key switches, AES blocks, OTs, wire bytes), and
    /// histograms. The timing fields above are derived from its spans;
    /// everything finer-grained (per-span min/max, counter totals) is read
    /// from here.
    pub trace: pi_trace::TraceReport,
}

impl CostReport {
    /// Client storage per ReLU in bytes (compare with the paper's
    /// 18.2 KB/ReLU for Server-Garbler).
    pub fn client_storage_per_relu(&self) -> f64 {
        if self.relu_count == 0 {
            0.0
        } else {
            self.client_storage_bytes as f64 / self.relu_count as f64
        }
    }

    /// Sum of two optional durations: `None` only when *both* are
    /// unmeasured (a phase that only one party timed is still measured).
    fn opt_sum(a: Option<f64>, b: Option<f64>) -> Option<f64> {
        match (a, b) {
            (None, None) => None,
            _ => Some(a.unwrap_or(0.0) + b.unwrap_or(0.0)),
        }
    }

    /// A counter of [`CostReport::trace`], zero where the trace holds none
    /// (tracing off, or nothing counted).
    fn counted(&self, counter: pi_trace::Counter) -> u64 {
        self.trace.counter(counter.name()).unwrap_or(0)
    }

    /// Measured garbling throughput in AND gates per second: the trace's
    /// `gc.and_garbled` over offline + online garble time (`None` if garble
    /// time was not measured). Feeds the fig07/fig12 online-phase rate
    /// columns.
    pub fn garble_gates_per_sec(&self) -> Option<f64> {
        rate(
            self.counted(pi_trace::Counter::GcAndGarbled),
            Self::opt_sum(self.offline.garble_ms, self.online.garble_ms),
        )
    }

    /// Measured GC evaluation throughput in AND gates per second: the
    /// trace's `gc.and_evaluated` over offline + online evaluation time.
    pub fn eval_gates_per_sec(&self) -> Option<f64> {
        rate(
            self.counted(pi_trace::Counter::GcAndEvaluated),
            Self::opt_sum(self.offline.eval_ms, self.online.eval_ms),
        )
    }

    /// Measured extended-OT throughput in transfers per second (includes
    /// the base-OT phase the extension amortizes away).
    pub fn ot_per_sec(&self) -> Option<f64> {
        rate(
            self.ot_count,
            Self::opt_sum(self.offline.ot_ms, self.online.ot_ms),
        )
    }

    /// Offline Galois-key storage/upload saving of the key plan over a
    /// full per-rotation set (the union over the model's dimensions, i.e.
    /// the largest dim's `d − 1` rotations). Every key is one size, so this
    /// is the ratio of the element counts: at n = 4096, 127 / 7 ≈ 18× for a
    /// single 128-wide layer and 127 / 10 for a whole tiny-cnn key upload
    /// (dims 128/128/16: the 16-wide layer adds its rotate-and-sum steps
    /// 16, 32 and 64); grows with the dimension. `1.0` when no HE keys were
    /// generated.
    pub fn galois_key_saving(&self) -> f64 {
        if self.galois_key_bytes == 0 {
            1.0
        } else {
            self.galois_key_bytes_per_rotation as f64 / self.galois_key_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let c = SideCosts {
            upload_bytes: 10,
            download_bytes: 20,
            he_ms: Some(1.0),
            garble_ms: Some(2.0),
            eval_ms: Some(3.0),
            ot_ms: Some(4.0),
            ss_ms: Some(5.0),
        };
        assert_eq!(c.total_bytes(), 30);
        assert!((c.total_compute_ms().unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn total_compute_distinguishes_unmeasured() {
        // Nothing measured: None, not 0.0.
        assert_eq!(SideCosts::default().total_compute_ms(), None);
        // Partially measured: sum of what exists.
        let c = SideCosts {
            he_ms: Some(2.0),
            ss_ms: Some(1.0),
            ..Default::default()
        };
        assert!((c.total_compute_ms().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_relu_guard() {
        let r = CostReport::default();
        assert_eq!(r.client_storage_per_relu(), 0.0);
    }

    #[test]
    fn throughput_rates() {
        let mut r = CostReport::default();
        // Untimed report: rates are "not measured", not zero.
        assert_eq!(r.garble_gates_per_sec(), None);
        assert_eq!(r.eval_gates_per_sec(), None);
        assert_eq!(r.ot_per_sec(), None);
        // Gate counts come from the trace's counters.
        let count = |c: pi_trace::Counter, value| pi_trace::CounterSnap {
            name: c.name(),
            value,
        };
        r.trace.counters = vec![
            count(pi_trace::Counter::GcAndGarbled, 1000),
            count(pi_trace::Counter::GcAndEvaluated, 300),
        ];
        assert_eq!(r.garble_gates_per_sec(), None, "counted, not timed");
        r.offline.garble_ms = Some(500.0);
        assert!((r.garble_gates_per_sec().unwrap() - 2000.0).abs() < 1e-9);
        r.online.eval_ms = Some(100.0);
        assert!((r.eval_gates_per_sec().unwrap() - 3000.0).abs() < 1e-9);
        r.ot_count = 640;
        r.offline.ot_ms = Some(3200.0);
        assert!((r.ot_per_sec().unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn measured_zero_vs_unmeasured() {
        let mut r = CostReport::default();
        // Measured time, zero events: a true zero rate.
        r.offline.ot_ms = Some(10.0);
        assert_eq!(r.ot_per_sec(), Some(0.0));
        // Events against an unmeasurably small duration: refuse to divide.
        r.ot_count = 5;
        r.offline.ot_ms = Some(0.0);
        assert_eq!(r.ot_per_sec(), None);
    }
}
