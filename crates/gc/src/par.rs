//! The one intra-request data-parallel helper: a scoped-thread map over
//! contiguous index ranges.
//!
//! A ReLU phase's garbling and evaluation (instances), its IKNP extension
//! (128-row blocks) and LPHE's matvecs (phases) are loops over independent
//! items. [`map_ranges`] cuts `0..n` into contiguous ranges, runs the first
//! on the calling thread and each other on a scoped thread of its own, and
//! returns the results in range order, so concatenating them ([`concat()`])
//! gives exactly what one pass over `0..n` gives: a split changes where the
//! work runs, never a bit of its result.
//!
//! Callers keep everything order-dependent on the calling thread: RNG draws
//! happen before the split, and trace counts at the batch boundary. The
//! latter matters beyond tidiness — a request's per-request trace scope is
//! thread-local ([`pi_trace::begin_local`]), so a count made on a helper
//! thread would reach the global counters but not the request's report.
//!
//! The width is the host's available parallelism ([`threads`]; a process
//! pinned to one core gets 1 and every split runs inline), and each kernel
//! runs inline below a minimum size it measured, where spawning a thread
//! costs more than the part it would take (see [`crate::garble::GRAIN`]
//! and `pi_ot::ext::GRAIN`). Nothing about it is configurable;
//! [`with_threads`] pins the width on one thread for differential tests and
//! same-run A/Bs.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// A width [`with_threads`] pinned on this thread; 0 = none.
    static PINNED: Cell<usize> = const { Cell::new(0) };
}

/// Threads a split on this thread uses: the host's available parallelism,
/// resolved once per process, unless [`with_threads`] pinned another width.
pub fn threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    match PINNED.get() {
        0 => *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
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

/// Cuts `0..n` into `parts` contiguous ranges of near-equal length (at
/// most `n` of them, and always at least one, `0..0` when `n` is 0), maps
/// each through `f` — the first on the calling thread, the others on
/// scoped threads — and returns the results in range order.
///
/// A panic in any part is re-raised on the calling thread with its own
/// payload once every part has finished.
pub fn map_ranges<T: Send>(n: usize, parts: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    let parts = parts.clamp(1, n.max(1));
    if parts == 1 {
        return vec![f(0..n)];
    }
    let range = |i: usize| i * n / parts..(i + 1) * n / parts;
    let f = &f;
    std::thread::scope(|scope| {
        let rest: Vec<_> = (1..parts)
            .map(|i| scope.spawn(move || f(range(i))))
            .collect();
        let mut out = Vec::with_capacity(parts);
        out.push(f(range(0)));
        for part in rest {
            out.push(part.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
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
    fn first_range_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = map_ranges(4, 2, |_| std::thread::current().id());
        assert_eq!(ids[0], me);
        assert_ne!(ids[1], me);
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
