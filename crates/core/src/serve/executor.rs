//! The serving runtime's worker pool: a fixed set of threads on one shared
//! FIFO run queue.
//!
//! Every task is a session pump and goes through the same channel, whoever
//! submits it, and an idle worker blocks on that channel: while one worker
//! grinds a session's garbling or HE matvecs, the rest drain every other
//! session's inbox. No task ever waits on another task, so the pool is
//! correct at any width, one worker included.
//!
//! The workers are a fixed set of threads, so `pi-he`'s thread-local
//! key-switch scratch is one warm set per worker however sessions migrate
//! between them.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

/// A unit of work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// The pool handle. Dropping it closes the run queue: the workers run what
/// is already queued, then exit, and the drop joins them.
pub(crate) struct Executor {
    // `None` only inside `drop`, which must close the queue before it joins.
    tx: Option<Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Resolves the worker count: an explicit non-zero request wins, then the
/// `PI_WORKERS` environment variable, then the machine's parallelism.
///
/// # Panics
///
/// Panics if `PI_WORKERS` is set to anything but a positive integer.
pub(super) fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    workers_from_env(std::env::var("PI_WORKERS").ok().as_deref())
}

/// [`resolve_workers`] below an explicit request, on the value of
/// `PI_WORKERS` (`None` when unset).
fn workers_from_env(value: Option<&str>) -> usize {
    let Some(v) = value else {
        return std::thread::available_parallelism().map_or(1, |n| n.get());
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => panic!("PI_WORKERS must be a positive integer, got {v:?}"),
    }
}

impl Executor {
    /// Spawns `workers` threads.
    pub(crate) fn new(workers: usize) -> Self {
        let (tx, rx) = channel::<Task>();
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        let handles = (0..workers)
            .map(|w| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("pi-serve-{w}"))
                    .spawn(move || loop {
                        // Its own statement: the guard must be gone before
                        // the task runs, or one worker runs at a time.
                        let task = rx.lock().recv();
                        match task {
                            Ok(task) => task(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
        }
    }

    /// Queues a task behind everything already submitted.
    pub(crate) fn spawn(&self, task: Task) {
        let tx = self.tx.as_ref().expect("queue open until drop");
        // The workers hold the receiver for as long as `self` exists.
        let _ = tx.send(task);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_workers_is_a_positive_integer_or_a_panic() {
        assert_eq!(workers_from_env(Some("4")), 4);
        assert_eq!(workers_from_env(Some(" 3\n")), 3);
        assert!(workers_from_env(None) >= 1);
        for bad in ["0", "", "four", "-1", "2.5"] {
            let err = std::panic::catch_unwind(|| workers_from_env(Some(bad)))
                .expect_err("a malformed PI_WORKERS must panic");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains(&format!("{bad:?}")), "{bad:?}: {msg}");
        }
    }
}
