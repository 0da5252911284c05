//! Work-stealing executor for the serving runtime.
//!
//! The pool is built from the workspace's own channel substrate (no new
//! dependencies): a shared **injector** channel doubles as the blocking
//! wake mechanism, and each worker owns a **local deque** it pushes
//! follow-on work to (a session pump scheduling the matvec batch it just
//! enqueued, say). Locality keeps a session's cache-warm follow-up on the
//! worker that produced it; whenever a worker stacks local work, it posts
//! a `Steal` token to the injector so an idle worker wakes and takes the
//! oldest local task from whoever has one. Independent sessions therefore
//! fill each other's stalls: while one worker grinds a garbling or a fused
//! matvec batch, the rest drain every other session's inbox.
//!
//! The workers are a fixed set of threads, so `pi-he`'s thread-local
//! key-switch scratch is one warm set per worker however sessions migrate
//! between them.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A unit of work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

enum Injected {
    /// A task submitted from outside the pool.
    Task(Task),
    /// A worker stacked local work; wake up and steal it.
    Steal,
    /// Shutdown notice (one per worker).
    Stop,
}

static EXEC_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (executor id, worker index) when running on a pool thread.
    static WORKER: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

struct ExecInner {
    id: u64,
    tx: Sender<Injected>,
    locals: Vec<parking_lot::Mutex<VecDeque<Task>>>,
    stopping: AtomicBool,
}

/// The pool handle. Dropping it stops the workers after their in-flight
/// tasks finish; queued tasks are discarded.
pub(crate) struct Executor {
    inner: Arc<ExecInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Resolves the worker count: an explicit non-zero request wins, then the
/// `PI_WORKERS` environment variable, then the machine's parallelism.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("PI_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Executor {
    /// Spawns `workers` threads.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Injected>();
        let inner = Arc::new(ExecInner {
            id: EXEC_IDS.fetch_add(1, Ordering::Relaxed),
            tx,
            locals: (0..workers)
                .map(|_| parking_lot::Mutex::new(VecDeque::new()))
                .collect(),
            stopping: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = inner.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("pi-serve-{w}"))
                    .spawn(move || worker_loop(w, inner, rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { inner, handles }
    }

    /// Submits a task. From a pool thread it lands on that worker's local
    /// deque (with a steal token so an idle sibling can take it); from
    /// outside it goes through the shared injector.
    pub(crate) fn spawn(&self, task: Task) {
        let (exec_id, w) = WORKER.with(|c| c.get());
        if exec_id == self.inner.id {
            self.inner.locals[w].lock().push_back(task);
            let _ = self.inner.tx.send(Injected::Steal);
        } else {
            let _ = self.inner.tx.send(Injected::Task(task));
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        for _ in 0..self.handles.len() {
            let _ = self.inner.tx.send(Injected::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(me: usize, inner: Arc<ExecInner>, rx: Receiver<Injected>) {
    WORKER.with(|c| c.set((inner.id, me)));
    loop {
        // Own work first: newest-first locality is deliberately *not* used —
        // FIFO keeps per-session event order intuitive in traces.
        let local = inner.locals[me].lock().pop_front();
        if let Some(task) = local {
            task();
            continue;
        }
        match rx.recv() {
            Ok(Injected::Task(task)) => task(),
            Ok(Injected::Steal) => {
                // Oldest-first steal from the first sibling with work,
                // scanning from our right neighbour for spread.
                let n = inner.locals.len();
                for off in 1..=n {
                    let victim = (me + off) % n;
                    let stolen = inner.locals[victim].lock().pop_front();
                    if let Some(task) = stolen {
                        task();
                        break;
                    }
                }
            }
            Ok(Injected::Stop) | Err(_) => break,
        }
        if inner.stopping.load(Ordering::SeqCst) {
            break;
        }
    }
}
