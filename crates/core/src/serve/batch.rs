//! Cross-request batching of offline HE matvecs.
//!
//! Sessions of the same model stall on the same per-phase
//! [`BsgsDiagonals`](pi_he::linalg::BsgsDiagonals) pass, so the runtime
//! fuses them: jobs queue per `(model, phase)` key and a batch worker
//! drains the **deepest** queue first (the hash-join-style adaptation —
//! spend the shared-operand pass where it amortizes over the most
//! requests). Batch width is capped ([`MAX_BATCH`]) so one backlogged model
//! cannot monopolize a worker for an unbounded stretch, and the fused
//! pass's working set (one hoisted ciphertext + baby set per admitted job)
//! stays within a predictable byte envelope. A session files one job per
//! phase, so no queue ever holds two jobs of one session and a batch is
//! simply the front of its queue; jobs past the cap keep their position.

use super::session::MatvecJob;
use std::collections::{HashMap, VecDeque};

/// A queued matvec with its owning session.
pub(crate) struct Pending {
    pub sid: u64,
    pub job: MatvecJob,
}

/// One admitted batch: every job shares `(model, phase)` and therefore a
/// single diagonals pass.
pub(crate) struct Batch {
    pub model: usize,
    pub phase: usize,
    pub jobs: Vec<Pending>,
}

/// Maximum jobs fused into one cross-request matvec batch: it bounds how
/// long one backlogged model holds a worker, and the fused pass's working
/// set (one hoisted ciphertext + baby set per admitted job). A constant and
/// not a [`super::ServeConfig`] field because no caller, test or ledger
/// workload ever ran another value.
const MAX_BATCH: usize = 8;

#[derive(Default)]
pub(crate) struct Batcher {
    queues: parking_lot::Mutex<HashMap<(usize, usize), VecDeque<Pending>>>,
}

impl Batcher {
    /// Enqueues one session's matvec jobs under its model.
    pub(crate) fn push(&self, model: usize, sid: u64, jobs: Vec<MatvecJob>) {
        let mut queues = self.queues.lock();
        for job in jobs {
            queues
                .entry((model, job.phase))
                .or_default()
                .push_back(Pending { sid, job });
        }
    }

    /// Admits the next batch: the front of the deepest `(model, phase)`
    /// queue, at most [`MAX_BATCH`] jobs. Returns `None` when nothing is
    /// queued.
    pub(crate) fn take_batch(&self) -> Option<Batch> {
        let mut queues = self.queues.lock();
        let (&(model, phase), q) = queues.iter_mut().max_by_key(|(_, q)| q.len())?;
        let jobs: Vec<Pending> = q.drain(..q.len().min(MAX_BATCH)).collect();
        if q.is_empty() {
            queues.remove(&(model, phase));
        }
        Some(Batch { model, phase, jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // MatvecJob carries real HE material; batcher logic is exercised
    // end-to-end by tests/serve_concurrency.rs. Here we only check the
    // admission bookkeeping on the queue shapes via push/take of empty
    // batches, which needs no ciphertexts.
    #[test]
    fn empty_batcher_yields_none() {
        let b = Batcher::default();
        assert!(b.take_batch().is_none());
    }
}
