//! The one intra-request data-parallel helper: a scoped-thread map over
//! contiguous index ranges.
//!
//! [`map_ranges`] cuts `0..n` into contiguous ranges, runs the first on the
//! calling thread and each other on a scoped thread of its own, and
//! returns the results in range order, so concatenating them ([`concat()`])
//! gives exactly what one pass over `0..n` gives: a split changes where the
//! work runs, never a bit of its result. Callers keep everything
//! order-dependent on the calling thread: every RNG draw, and every read of
//! a stream whose position depends on what came before (a seed expansion
//! by rejection), happens before the split.
//!
//! # The request's scope crosses the split
//!
//! A request's trace scope ([`crate::begin_local`]) is thread-local. When
//! the caller holds an active one, each helper part runs under a scope of
//! its own, and once every part has joined the caller folds the parts'
//! counters and spans into its scope, in range order. Every helper part
//! also opens its spans under the caller's current span path, in the
//! global aggregate too. So a kernel counts on the thread that does the
//! work, and a request's report holds every count a split made for it: a
//! per-request counter equals the global counter's delta at every width.
//! A part that panics records nothing; its panic is re-raised on the
//! caller.
//!
//! # Width and grains
//!
//! The width is the host's available parallelism ([`threads`]; a process
//! pinned to one core gets 1 and every split runs inline). Each kernel
//! runs inline below a minimum size it measured, where a thread costs more
//! than the part it would take. Nothing about either is configurable;
//! [`with_threads`] pins the width on one thread for differential tests
//! and same-run A/Bs. The kernels that split, with each grain and what a
//! two-way split measured at it on a 2-vCPU host (AES-NI):
//!
//! | kernel | unit | grain | measured |
//! |--------|------|-------|----------|
//! | `pi_gc::garble::garble_many`, `evaluate_many` | instance | 256 (`pi_gc::garble::GRAIN`) | garble 1.84×, evaluate 1.51× at 256 |
//! | `pi_ot::ext` extend, transfer, decode | OT | 16 384 (`pi_ot::ext::GRAIN`) | 1.0×, 1.3×, 1.5× at 16 384 |
//! | `pi_ot::base` transfer, choose, receive | transfer | 32 (`pi_ot::base::GRAIN`) | 1.5×, 1.6×, 1.2× at 32; 1.8×, 1.8×, 1.6× at the protocol's 128 (the sender's products on the IFMA lanes) |
//! | `pi_he` key generation (`KeySet`, `galois_keys_frame`) | key | 2 (`pi_he::keys::GRAIN`) | 1.25× at 2; 1.6× at a 10-key plan |
//! | `pi_he` key admission (`galois_keys_from_bytes_reusing`) | key | 2 (`pi_he::keys::GRAIN`) | 1.4× at 2; 2.0× at a 10-key plan |
//! | `pi_core` LPHE matvecs | phase | none: `lphe_threads` wide | |
//!
//! Key generation stops short of 2× because its draws stay on the calling
//! thread; so do base OT's `r·G`, `r·C`, the receiver's scalars and its
//! table for `r·G`.

use crate::{local, span};
use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

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
    map_parts(n, parts, |i, range| {
        // Taken once, by part `i`: the lock is never held across `f`.
        let run = std::mem::take(&mut *runs[i].lock().expect("a run's lock is never poisoned"));
        f(range, run)
    })
}

/// Part `i` of `0..n` cut into `parts` (each part at most one longer than
/// another).
fn cut(n: usize, parts: usize, i: usize) -> Range<usize> {
    i * n / parts..(i + 1) * n / parts
}

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
    let (f, scoped) = (&f, local::active());
    let stack = if crate::mode() == crate::TraceMode::Full {
        span::stack()
    } else {
        Vec::new()
    };
    let out = std::thread::scope(|scope| {
        let rest: Vec<_> = (1..parts)
            .map(|i| {
                let stack = stack.clone();
                scope.spawn(move || {
                    span::set_stack(stack);
                    if scoped {
                        let (out, part) = local::run_part(|| f(i, cut(n, parts, i)));
                        (out, Some(part))
                    } else {
                        (f(i, cut(n, parts, i)), None)
                    }
                })
            })
            .collect();
        let mut out = Vec::with_capacity(parts);
        out.push((f(0, cut(n, parts, 0)), None));
        for part in rest {
            out.push(part.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    });
    (out.into_iter())
        .map(|(out, part)| {
            if let Some(part) = part {
                local::merge_part(part);
            }
            out
        })
        .collect()
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
    fn helper_parts_report_into_the_callers_scope_under_its_span() {
        use crate::{counter, force_mode, span, test_lock, Counter, TraceMode};
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Full));
        crate::reset();
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
        // Every part recorded globally too, under the same path.
        assert_eq!(crate::global_counter(Counter::OtBase), 18);
        let global = crate::global_report();
        assert_eq!(global.span_stat("outer/inner").unwrap().count, 1 + 2 + 3);
        // Without a scope on the caller, nothing is collected locally.
        map_ranges(4, 2, |r| counter::add(Counter::OtBase, r.len() as u64));
        assert_eq!(crate::global_counter(Counter::OtBase), 22);
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
