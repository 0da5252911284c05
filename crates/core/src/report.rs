//! Cost accounting: communication, storage and counts per inference.
//!
//! Every field of a [`CostReport`] is exact: the byte-counting channels and
//! the protocol bookkeeping count it. What was timed stays in the merged
//! trace, [`CostReport::trace`]: a phase time is
//! `report.trace.span_total_ms("offline.he")` (`None` below
//! `PI_TRACE=full`, where no span is timed), and a per-unit rate is
//! `pi_sim::calib::from_trace(&report.trace)`, which divides the same spans
//! by the trace's counters.

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

    CostReport {
        offline: SideCosts {
            upload_bytes: client.offline_sent,
            download_bytes: server.offline_sent,
        },
        online: SideCosts {
            upload_bytes: client.total_sent - client.offline_sent,
            download_bytes: server.total_sent - server.offline_sent,
        },
        client_storage_bytes: client.storage_bytes,
        server_storage_bytes: server.storage_bytes,
        relu_count,
        gc_bytes: client.gc_bytes.max(server.gc_bytes),
        galois_key_bytes: client.galois_key_bytes,
        // Both parties count the same OTs, so take the max rather than
        // double-count.
        ot_count: client.ot_count.max(server.ot_count),
        trace,
    }
}

/// Communication of one protocol phase (offline or online).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SideCosts {
    /// Bytes sent client → server during this phase (actual serialized
    /// frames: seed-expanded, bit-packed, mod-switched).
    pub upload_bytes: u64,
    /// Bytes sent server → client during this phase.
    pub download_bytes: u64,
}

impl SideCosts {
    /// Total communication in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.upload_bytes + self.download_bytes
    }
}

/// Full cost report of one private inference.
#[derive(Clone, Debug, Default)]
pub struct CostReport {
    /// Offline (pre-processing) phase communication.
    pub offline: SideCosts,
    /// Online phase communication.
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
    /// Galois (rotation) key material the client uploaded in this
    /// request: the model's key plan (the replicated schedule's babies and
    /// giants per layer dimension); zero when the server still cached it.
    pub galois_key_bytes: u64,
    /// Extended OTs executed (one per evaluator input bit served).
    pub ot_count: u64,
    /// Merged client+server trace of the inference: phase spans, substrate
    /// counters (NTTs, key switches, AES blocks, OTs, wire bytes), and
    /// histograms. Every time of the inference is read from here.
    pub trace: pi_trace::TraceReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let c = SideCosts {
            upload_bytes: 10,
            download_bytes: 20,
        };
        assert_eq!(c.total_bytes(), 30);
    }
}
