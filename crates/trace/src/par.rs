//! The one intra-request data-parallel helper, a map over contiguous index
//! ranges, and the one pool of threads the stack keeps.
//!
//! [`map_ranges`] cuts `0..n` into contiguous ranges, runs the first on the
//! calling thread and the others on the caller or the pool's workers, and
//! returns the results in range order, so concatenating them
//! ([`concat()`]) gives exactly what one pass over `0..n` gives: a split
//! changes where the work runs, never a bit of its result. Callers keep
//! everything order-dependent on the calling thread: every RNG draw, and
//! every read of a stream whose position depends on what came before (a
//! seed expansion by rejection), happens before the split.
//!
//! # The pool
//!
//! The process keeps one pool: [`workers`] threads (`pi-pool-0…`) on one
//! FIFO queue, started by the first split or [`spawn`] and idle on the
//! queue until the process exits. Its tasks are the serving runtime's
//! session pumps ([`spawn`]) and the helper parts of every split, on a
//! pump or anywhere else. A split queues a task per part `1..` at the
//! back, behind every task already waiting, runs part 0, then claims and
//! runs inline every part no worker has claimed, and blocks only on parts
//! a worker runs. So a split spreads over an idle pool and runs inline on
//! a busy one, and no waiting session is passed over for a split:
//! request-level parallelism comes first. Nothing waits on a part nobody
//! started, so a nested split, or one whose caller is the only worker,
//! cannot deadlock. The caller runs no other task while it waits: a
//! session pump would record into the caller's trace scope, or wait on its
//! own session's body lock.
//!
//! **Unsafe code.** pi-trace is `deny(unsafe_code)`, with one exception:
//! a worker runs a part through the caller's borrowed closure, whose
//! lifetime the split erases to queue it. Its contract: the caller neither
//! returns nor unwinds until every part has finished or been claimed back,
//! so no worker calls the closure once its borrow has ended.
//!
//! # The request's scope crosses the split
//!
//! A request's trace scope ([`crate::begin_local`]) is thread-local. A part
//! a worker runs records under a scope of its own and opens its spans under
//! the caller's current span path, in the global aggregate too; once every
//! part has finished, the caller folds what they recorded into its scope
//! if it holds an active one. A part the caller runs records straight into
//! it. So a kernel counts on the thread that does the work, and a request's
//! report holds every count a split made for it: a per-request counter
//! equals the global counter's delta at every width. A part that panics on
//! a worker records nothing; the first panic in range order is re-raised
//! on the caller with its own payload. A worker leaves no span stack, scope
//! or pinned width behind for its next task.
//!
//! # Width and grains
//!
//! The width is the pool's, the host's available parallelism
//! ([`threads`]; a process pinned to one core gets 1 and every split runs
//! inline). Each kernel runs inline below a minimum size it measured,
//! where a hand-off costs more than the part it would take. Nothing about either is configurable;
//! [`with_threads`] pins the width on one thread for differential tests
//! and same-run A/Bs. The kernels that split, with each grain and what a
//! two-way split measured at it on a 2-vCPU host (AES-NI), handing parts
//! to the pool (≈ 11 µs a hand-off, against ≈ 45 µs for the scoped spawn
//! and join it replaced). Each range is two runs in spells where the
//! second vCPU was there; where it was not, every split reads ≈ 1.0×.
//!
//! | kernel | unit | grain | measured |
//! |--------|------|-------|----------|
//! | `pi_gc::garble::garble_many`, `evaluate_many` | instance | 256 (`pi_gc::garble::GRAIN`) | garble 1.6–1.9×, evaluate 1.2–1.8× at 256; 1.7–1.9×, 1.7–1.8× at `relu_heavy`'s 8 192 |
//! | `pi_ot::ext` extend, transfer, decode | OT | 16 384 (`pi_ot::ext::GRAIN`) | 1.2×, 1.6–1.8×, 1.7–2.0× at 16 384; 1.2–1.5×, 1.5–1.7×, 1.6–1.7× at 163 840 |
//! | `pi_ot::base` transfer, choose, receive | transfer | 32 (`pi_ot::base::GRAIN`) | 1.6×, 1.5–1.7×, 1.0–1.1× at 32; 1.6×, 1.1×, 1.4× at the protocol's 128 (one run; the sender's products on the IFMA lanes) |
//! | `pi_he` key generation (`KeySet`, `galois_keys_frame`) | key | 2 (`pi_he::keys::GRAIN`) | 1.4–1.6× at 2; 1.7× at `tiny_resnet`'s 6-key plan (one run) |
//! | `pi_he` key admission (`galois_keys_from_bytes_reusing`) | key | 2 (`pi_he::keys::GRAIN`) | 1.6–1.8× at 2; 1.8× at a 6-key plan (one run) |
//! | `pi_core` LPHE matvecs | phase | none: `lphe_threads` wide | |
//!
//! Key generation stops short of 2× because its draws stay on the calling
//! thread; so do base OT's `r·G`, `r·C`, the receiver's scalars and its
//! table for `r·G`.

use crate::{local, span};
use parking_lot::Mutex;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

thread_local! {
    /// A width [`with_threads`] pinned on this thread; 0 = none.
    static PINNED: Cell<usize> = const { Cell::new(0) };
}

/// The pool's width: the host's available parallelism, resolved once per
/// process.
pub fn workers() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads a split on this thread uses: the pool's width, unless
/// [`with_threads`] pinned another.
pub fn threads() -> usize {
    match PINNED.get() {
        0 => workers(),
        pinned => pinned,
    }
}

/// Runs `f` with this thread's splits pinned to `threads` wide (1 = every
/// split inline), restoring the previous width afterwards, also on unwind.
/// Results do not depend on the width; this exists so tests can check that
/// and benches can time it.
///
/// # Panics
///
/// Panics if `threads` is 0.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    assert!(threads > 0, "a split needs at least one thread");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.set(self.0);
        }
    }
    let _restore = Restore(PINNED.replace(threads));
    f()
}

/// The width a loop of `n` items splits to: [`threads`], or 1 (inline)
/// when `n` is below the kernel's `grain`.
pub fn width(n: usize, grain: usize) -> usize {
    if n < grain {
        1
    } else {
        threads()
    }
}

type Task = Box<dyn FnOnce() + Send>;

/// The pool's one FIFO queue.
struct Queue {
    tx: Sender<Task>,
    rx: Mutex<Receiver<Task>>,
}

impl Queue {
    fn push(&self, task: Task) {
        // The queue holds its receiver, so the send cannot fail.
        let _ = self.tx.send(task);
    }

    fn work(&self) {
        loop {
            // Its own statement: the guard must be gone before the task
            // runs, or one worker runs at a time.
            let task = self.rx.lock().recv().expect("the queue holds its sender");
            // A task's panic message is already printed; the worker goes on.
            let _ = catch_unwind(AssertUnwindSafe(task));
        }
    }
}

/// The pool's queue, on the heap, with its [`workers`] threads started by
/// the first call.
fn pool() -> &'static Queue {
    static POOL: OnceLock<&'static Queue> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = channel();
        let queue: &'static Queue = Box::leak(Box::new(Queue {
            tx,
            rx: Mutex::new(rx),
        }));
        for k in 0..workers() {
            let worker = std::thread::Builder::new().name(format!("pi-pool-{k}"));
            worker
                .spawn(move || queue.work())
                .expect("spawn a pool worker");
        }
        queue
    })
}

/// Queues `task` on the pool, behind everything already queued. No task
/// may wait on another (a split waits only on parts that run), so the
/// pool is correct at any width, one included. A panic loses its task,
/// not its worker.
pub fn spawn(task: impl FnOnce() + Send + 'static) {
    pool().push(Box::new(task));
}

/// Cuts `0..n` into `parts` contiguous ranges of near-equal length (at
/// most `n` of them, and always at least one, `0..0` when `n` is 0), maps
/// each through `f` — the first on the calling thread, each other on the
/// caller or a pool worker — and returns the results in range order.
///
/// A panic in any part is re-raised on the calling thread with its own
/// payload once every started part has finished.
pub fn map_ranges<T: Send>(n: usize, parts: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    map_parts(n, parts, |_, range| f(range))
}

/// [`map_ranges`] over items the parts take by value: each part gets its
/// range and that run of `items`, moved out of the vector in order — for
/// work that fills buffers it owns (a slice of a preallocated frame, the
/// vectors of a retired key set) rather than reading shared ones.
pub fn map_runs<T: Send, U: Send>(
    items: Vec<T>,
    parts: usize,
    f: impl Fn(Range<usize>, Vec<T>) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let mut items = items.into_iter();
    let runs: Vec<Mutex<Vec<T>>> = (0..parts)
        .map(|i| Mutex::new(items.by_ref().take(cut(n, parts, i).len()).collect()))
        .collect();
    // Taken once, by part `i`: the lock is never held across `f`.
    map_parts(n, parts, |i, range| {
        f(range, std::mem::take(&mut *runs[i].lock()))
    })
}

/// Part `i` of `0..n` cut into `parts` (each part at most one longer than
/// another).
fn cut(n: usize, parts: usize, i: usize) -> Range<usize> {
    i * n / parts..(i + 1) * n / parts
}

/// A part's result with what it recorded on a worker (nothing inline).
type PartOut<T> = Mutex<Option<std::thread::Result<(T, local::LocalBuf)>>>;

/// The one split: [`map_ranges`] with each part's index.
fn map_parts<T: Send>(
    n: usize,
    parts: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    let parts = parts.clamp(1, n.max(1));
    if parts == 1 {
        return vec![f(0, 0..n)];
    }
    let stack = if crate::mode() == crate::TraceMode::Full {
        span::stack()
    } else {
        Vec::new()
    };
    let outs: Vec<PartOut<T>> = (0..parts).map(|_| Mutex::new(None)).collect();
    let part = |i| f(i, cut(n, parts, i));
    let on_worker = |i: usize| {
        span::set_stack(stack.clone());
        let out = catch_unwind(AssertUnwindSafe(|| local::run_part(|| part(i))));
        span::set_stack(Vec::new());
        *outs[i].lock() = Some(out);
    };
    let inline = |i: usize| {
        let out = catch_unwind(AssertUnwindSafe(|| (part(i), local::LocalBuf::new())));
        *outs[i].lock() = Some(out);
    };
    share(parts, &on_worker, inline);
    let outs = outs
        .into_iter()
        .map(|out| out.into_inner().expect("every part ran"));
    let outs: Vec<_> = outs
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| resume_unwind(e));
    let outs = outs.into_iter().map(|(out, recorded)| {
        local::merge_part(recorded);
        out
    });
    outs.collect()
}

/// Runs parts `0..parts` once each and returns when all have finished:
/// part 0, and every part no pool worker claimed first, through
/// `inline` on the calling thread, each other through `on_worker` on the
/// worker that claimed it. A task per part `1..` is queued; each claims
/// the next unclaimed part, and so does the caller once part 0 is done.
fn share(parts: usize, on_worker: &(dyn Fn(usize) + Sync), inline: impl Fn(usize)) {
    let (next, left) = (AtomicUsize::new(1), AtomicUsize::new(parts - 1));
    let caller = std::thread::current();
    let claims = Arc::new(Claims {
        parts,
        next,
        left,
        caller,
    });
    // SAFETY: pi-trace's one `unsafe`, a lifetime erasure. A task calls
    // `on_worker` only for a part it claimed, and `_wait`'s drop — which
    // every way out of this frame runs, unwinding included — claims every
    // part still unclaimed and returns only once every part a worker
    // claimed has finished. So no call outlives the borrow; a task popped
    // later claims nothing and only drops its `Arc`.
    #[allow(unsafe_code)]
    let on_worker = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(on_worker)
    };
    let _wait = Wait(&claims);
    for _ in 1..parts {
        let claims = claims.clone();
        spawn(move || {
            if let Some(i) = claims.claim() {
                on_worker(i);
                if claims.left.fetch_sub(1, SeqCst) == 1 {
                    claims.caller.unpark();
                }
            }
        });
    }
    inline(0);
    while let Some(i) = claims.claim() {
        claims.left.fetch_sub(1, SeqCst);
        inline(i);
    }
}

/// Which of a split's parts `1..` are claimed, and how many are left.
struct Claims {
    parts: usize,
    next: AtomicUsize,
    /// Parts neither claimed by the caller nor finished on a worker.
    left: AtomicUsize,
    /// Woken by the worker that finishes the last part.
    caller: Thread,
}

impl Claims {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, SeqCst);
        (i < self.parts).then_some(i)
    }
}

/// Claims every part still unclaimed (only on unwind), then waits until
/// no worker runs one.
struct Wait<'a>(&'a Claims);

impl Drop for Wait<'_> {
    fn drop(&mut self) {
        let claims = self.0;
        let unclaimed = claims
            .parts
            .saturating_sub(claims.next.swap(claims.parts, SeqCst));
        claims.left.fetch_sub(unclaimed, SeqCst);
        while claims.left.load(SeqCst) > 0 {
            std::thread::park();
        }
    }
}

/// Concatenates per-range results in order, moving the first part's
/// buffer rather than copying it (an inline split costs no copy).
pub fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve_exact(total - out.len());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Waits for what `rx` gets under a deadline: a hang fails the test
    /// instead of stalling the suite.
    fn within_a_minute<T>(rx: &Receiver<T>) -> T {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the task finished within a minute")
    }

    /// Runs `f` as a pool task and waits for its result.
    fn on_pool<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        spawn(move || _ = tx.send(f()));
        within_a_minute(&rx)
    }

    /// Runs `f` on a thread of its own, off the pool.
    fn off_pool<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        std::thread::spawn(move || _ = tx.send(f()));
        within_a_minute(&rx)
    }

    /// Whether this thread is one of the pool's workers.
    fn on_a_worker() -> bool {
        let me = std::thread::current();
        me.name().is_some_and(|name| name.starts_with("pi-pool-"))
    }

    /// Holds every worker at once (a task each on a barrier with the
    /// caller) and returns what `check` read on each: every worker is up,
    /// and `check` sees the state a task finds. A test that holds workers
    /// holds `test_lock`: two at once, or one beside a task that waits
    /// for another worker, could deadlock.
    fn on_every_worker<T: Send + 'static>(check: fn() -> T) -> Vec<T> {
        let (barrier, (tx, rx)) = (Arc::new(Barrier::new(workers() + 1)), channel());
        for _ in 0..workers() {
            let (barrier, tx): (_, Sender<T>) = (barrier.clone(), tx.clone());
            spawn(move || {
                _ = tx.send(check());
                barrier.wait();
            });
        }
        barrier.wait();
        (0..workers()).map(|_| within_a_minute(&rx)).collect()
    }

    /// Runs `f` on one worker while every other waits on a barrier, and
    /// re-raises its panic on the caller: `f` has the pool to itself, as
    /// on a pool of one. Holds workers like [`on_every_worker`].
    fn alone_on_the_pool<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let barrier = || Arc::new(Barrier::new(workers()));
        let (all_in, done) = (barrier(), barrier());
        let (f, (tx, rx)) = (Arc::new(Mutex::new(Some(f))), channel());
        for _ in 0..workers() {
            let (all_in, done, f, tx) = (all_in.clone(), done.clone(), f.clone(), tx.clone());
            spawn(move || {
                if all_in.wait().is_leader() {
                    let f = f.lock().take().expect("one leader");
                    _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
                }
                done.wait();
            });
        }
        within_a_minute(&rx).unwrap_or_else(|e| resume_unwind(e))
    }

    /// What a worker holds between tasks: its span stack, whether a local
    /// scope is active, and its pinned width.
    fn leftover() -> (Vec<&'static str>, bool, usize) {
        (span::stack(), local::tests::active(), PINNED.get())
    }

    #[test]
    fn ranges_cover_in_order_at_every_width() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for parts in 1..=5 {
                let got = map_ranges(n, parts, |r| r);
                assert_eq!(got.len(), parts.clamp(1, n.max(1)), "n={n} parts={parts}");
                let flat: Vec<usize> = concat(got.into_iter().map(Vec::from_iter).collect());
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn runs_take_their_items_in_order_at_every_width() {
        for n in [0usize, 1, 2, 7, 100] {
            for parts in 1..=5 {
                let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
                let got = map_runs(items.clone(), parts, |range, run| {
                    assert_eq!(run.len(), range.len());
                    run.into_iter().zip(range).collect::<Vec<_>>()
                });
                let flat = concat(got);
                assert!(flat.iter().all(|(s, i)| *s == i.to_string()));
                assert_eq!(flat.len(), n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn first_range_runs_on_the_caller_and_every_other_on_the_caller_or_its_pool() {
        // Off the pool and on one of its workers alike.
        let split = || {
            let me = std::thread::current().id();
            let got = map_ranges(64, 4, |_| (std::thread::current().id(), on_a_worker()));
            got[0].0 == me && got.iter().all(|&(id, worker)| id == me || worker)
        };
        assert!(split());
        assert!(on_pool(split));
    }

    /// Linux only: counts the process's threads named as pool workers.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_pool_starts_its_width_of_threads_however_many_splits_run() {
        let pool_threads = || {
            let tasks = std::fs::read_dir("/proc/self/task").expect("the process's threads");
            let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm"));
            let names = tasks.filter_map(|t| comm(t.ok()?).ok());
            names.filter(|name| name.starts_with("pi-pool-")).count()
        };
        let splits = || {
            for _ in 0..1_000 {
                assert_eq!(concat(map_ranges(8, 3, Vec::from_iter)).len(), 8);
            }
        };
        on_pool(splits);
        with_threads(3, splits);
        let (tx, rx) = channel();
        for k in 0..100 {
            let tx = tx.clone();
            spawn(move || _ = tx.send(k));
        }
        assert_eq!((0..100).map(|_| within_a_minute(&rx)).sum::<usize>(), 4_950);
        let _l = crate::test_lock::hold();
        on_every_worker(|| ());
        assert_eq!(pool_threads(), workers());
    }

    #[test]
    fn a_nested_split_inside_a_part_completes() {
        let nested = || {
            let sums = map_ranges(6, 3, |r| map_ranges(r.len(), 2, |r| r.len()).iter().sum());
            sums.iter().sum::<usize>()
        };
        assert_eq!(on_pool(nested), 6);
        assert_eq!(off_pool(move || with_threads(3, nested)), 6);
        let _l = crate::test_lock::hold();
        assert_eq!(alone_on_the_pool(move || with_threads(3, nested)), 6);
    }

    /// A split made while every other worker is held has no worker to
    /// hand a part to: its caller runs them all.
    #[test]
    fn a_split_on_the_only_worker_of_a_pool_runs_inline() {
        let _l = crate::test_lock::hold();
        let got = alone_on_the_pool(|| {
            let me = std::thread::current().id();
            map_ranges(100, 4, |r| (r, std::thread::current().id() == me))
        });
        assert!(got.iter().all(|(_, inline)| *inline));
        let ranges: Vec<usize> = concat(got.into_iter().map(|(r, _)| Vec::from_iter(r)).collect());
        assert_eq!(ranges, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_part_that_panics_on_a_worker_panics_the_caller_and_keeps_the_worker() {
        let _l = crate::test_lock::hold();
        let err = off_pool(|| {
            // Part 0 holds its caller until a worker runs part 1.
            let both = Barrier::new(2);
            catch_unwind(AssertUnwindSafe(|| {
                map_ranges(4, 2, |r| {
                    both.wait();
                    if r.start > 0 {
                        panic!("part {}", r.start);
                    }
                })
            }))
            .expect_err("the second part panicked")
        });
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("part 2")
        );
        // Every worker takes a task again.
        assert_eq!(on_every_worker(|| ()).len(), workers());
        assert_eq!(on_pool(|| map_ranges(4, 2, |r| r.len())), [2, 2]);
    }

    #[test]
    fn pinned_width_is_scoped_to_the_thread_and_the_call() {
        let host = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            assert_eq!(width(9, 10), 1);
            assert_eq!(width(10, 10), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
            std::thread::scope(|s| s.spawn(|| assert_eq!(threads(), host)).join().unwrap());
        });
        assert_eq!(threads(), host);
        let unwound = std::panic::catch_unwind(|| with_threads(2, || panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(threads(), host);
    }

    /// Splits 6 items 1, 2 and 3 ways under a local scope and a span, each
    /// part nesting a split of its own, and checks the request's report.
    fn splits_report_into_the_callers_scope() {
        use crate::{counter, span, Counter};
        for parts in 1..=3 {
            let local = crate::begin_local();
            {
                let _outer = span("outer");
                map_ranges(6, parts, |r| {
                    let _inner = span("inner");
                    counter::add(Counter::OtBase, r.len() as u64);
                    // A nested split reports through its own caller's scope.
                    map_ranges(2, 2, |_| counter::incr(Counter::WireMsgs));
                });
            }
            let report = local.finish();
            assert_eq!(report.counter("ot.base"), Some(6), "parts={parts}");
            assert_eq!(report.counter("wire.msgs"), Some(2 * parts as u64));
            assert_eq!(report.span_stat("outer/inner").unwrap().count, parts as u64);
            let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
            assert_eq!(
                paths,
                ["outer", "outer/inner"],
                "a part's span lost its path"
            );
        }
    }

    #[test]
    fn helper_parts_report_into_the_callers_scope_under_its_span() {
        use crate::{counter, force_mode, test_lock, Counter, TraceMode};
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Full));
        // Off the pool (its workers take parts), then on a worker with the
        // pool to itself (every part reclaimed inline).
        let runs: [&dyn Fn(); 2] = [&|| off_pool(splits_report_into_the_callers_scope), &|| {
            alone_on_the_pool(splits_report_into_the_callers_scope)
        }];
        for run in runs {
            crate::reset();
            run();
            // Every part recorded globally too, under the same path.
            assert_eq!(crate::global_counter(Counter::OtBase), 18);
            let global = crate::global_report();
            assert_eq!(global.span_stat("outer/inner").unwrap().count, 1 + 2 + 3);
            // Without a scope on the caller, nothing is collected locally.
            map_ranges(4, 2, |r| counter::add(Counter::OtBase, r.len() as u64));
            assert_eq!(crate::global_counter(Counter::OtBase), 22);
        }
        // A part a worker surely runs (part 0 waits for it to start), under
        // a scope, a span and a pinned width on both sides.
        let both = Barrier::new(2);
        with_threads(2, || {
            let _scope = crate::begin_local();
            let _outer = span("outer");
            map_ranges(2, 2, |_| with_threads(3, || both.wait()));
        });
        // No worker keeps a task's or a part's span stack, scope or width.
        let clean = (Vec::new(), false, 0);
        assert!(on_every_worker(leftover).iter().all(|l| *l == clean));
        force_mode(None);
        crate::reset();
    }

    #[test]
    fn a_panicking_part_panics_the_caller_with_its_payload() {
        let err = std::panic::catch_unwind(|| {
            map_ranges(4, 2, |r| {
                if r.start > 0 {
                    panic!("part {}", r.start);
                }
            })
        })
        .expect_err("the second part panicked");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("part 2")
        );
    }
}
