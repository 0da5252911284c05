//! Per-request (thread-local) collection scopes.
//!
//! A protocol party function brackets its run with [`begin_local`] /
//! [`LocalScope::finish`]; every counter add and span exit on that thread
//! is mirrored into the scope, yielding a per-request [`TraceReport`] that
//! is isolated from concurrent requests (each party runs on its own
//! thread). The global aggregate keeps accumulating regardless — local
//! scopes are a view, not a redirect.
//!
//! A split ([`crate::par::map_ranges`]) carries the scope across threads:
//! each part a pool worker runs records into a scope of its own
//! ([`run_part`]) and the caller folds what it recorded into its scope
//! ([`merge_part`]).

use crate::span::SpanStat;
use crate::{mode, Counter, TraceMode, TraceReport};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;

/// What one scope recorded: counter values by slot, spans by path.
pub(crate) struct LocalBuf {
    counters: [u64; Counter::COUNT],
    spans: HashMap<String, SpanStat>,
}

impl LocalBuf {
    pub(crate) fn new() -> Self {
        LocalBuf {
            counters: [0; Counter::COUNT],
            spans: HashMap::new(),
        }
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static BUF: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// Runs one helper part of a split under a scope of its own on this
/// thread (a pool worker, which holds none between tasks) and returns its
/// result with everything the scope recorded.
pub(crate) fn run_part<T>(f: impl FnOnce() -> T) -> (T, LocalBuf) {
    let scope = begin_local();
    let out = f();
    drop(scope);
    (
        out,
        BUF.with(|b| std::mem::replace(&mut *b.borrow_mut(), LocalBuf::new())),
    )
}

/// Folds a helper part's records into this thread's scope, if one is
/// active: counters add, spans merge by path.
pub(crate) fn merge_part(part: LocalBuf) {
    if !ACTIVE.get() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        for (total, n) in b.counters.iter_mut().zip(part.counters) {
            *total += n;
        }
        for (path, stat) in part.spans {
            b.spans
                .entry(path)
                .and_modify(|total| total.merge(&stat))
                .or_insert(stat);
        }
    });
}

#[inline]
pub(crate) fn add_counter(slot: usize, n: u64) {
    if !ACTIVE.get() {
        return;
    }
    BUF.with(|b| b.borrow_mut().counters[slot] += n);
}

pub(crate) fn add_span(path: &str, ns: u64) {
    if !ACTIVE.get() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        match b.spans.get_mut(path) {
            Some(stat) => stat.merge(&SpanStat::one_ns(ns)),
            None => {
                b.spans.insert(path.to_string(), SpanStat::one_ns(ns));
            }
        }
    });
}

/// Active per-request collection scope; not `Send` — it belongs to the
/// thread that opened it.
#[must_use = "finish() the scope to obtain the per-request TraceReport"]
pub struct LocalScope {
    _not_send: PhantomData<*const ()>,
}

/// Starts per-request collection on the current thread, clearing any
/// previous local data. Returns an inert scope in `off` mode (its
/// [`LocalScope::finish`] yields an empty report).
pub fn begin_local() -> LocalScope {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.counters = [0; Counter::COUNT];
        b.spans.clear();
    });
    ACTIVE.set(mode() != TraceMode::Off);
    LocalScope {
        _not_send: PhantomData,
    }
}

impl LocalScope {
    /// Ends the scope and returns what this thread recorded while it was
    /// active (histograms stay global-only; see [`crate::global_report`]).
    pub fn finish(self) -> TraceReport {
        ACTIVE.set(false);
        BUF.with(|b| {
            let b = b.borrow();
            TraceReport::from_parts(mode(), &b.counters, &b.spans)
        })
    }
}

impl Drop for LocalScope {
    fn drop(&mut self) {
        ACTIVE.set(false);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{counter, force_mode, span, test_lock};

    /// Whether a scope is collecting on this thread.
    pub(crate) fn active() -> bool {
        ACTIVE.get()
    }

    #[test]
    fn scope_isolates_threads() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Full));
        crate::reset();
        let reports: Vec<TraceReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=3u64)
                .map(|k| {
                    scope.spawn(move || {
                        let local = begin_local();
                        counter::add(Counter::OtExtended, 10 * k);
                        {
                            let _g = span("phase");
                        }
                        local.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut values: Vec<u64> = reports
            .iter()
            .map(|r| r.counter("ot.extended").unwrap_or(0))
            .collect();
        values.sort_unstable();
        assert_eq!(values, vec![10, 20, 30], "local counters leaked");
        for r in &reports {
            let s = r.span_stat("phase").expect("local span recorded");
            assert_eq!(s.count, 1);
        }
        // Global view saw everything.
        assert_eq!(crate::global_counter(Counter::OtExtended), 60);
        force_mode(None);
        crate::reset();
    }

    #[test]
    fn inactive_thread_records_nothing_locally() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Counters));
        crate::reset();
        counter::add(Counter::OtBase, 5);
        let local = begin_local();
        counter::add(Counter::OtBase, 7);
        let report = local.finish();
        assert_eq!(report.counter("ot.base"), Some(7), "pre-scope adds leaked");
        counter::add(Counter::OtBase, 11);
        assert_eq!(crate::global_counter(Counter::OtBase), 23);
        force_mode(None);
        crate::reset();
    }

    #[test]
    fn off_mode_scope_is_empty() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Off));
        let local = begin_local();
        counter::add(Counter::NttForward, 42);
        let report = local.finish();
        assert_eq!(report.counter("ntt.forward"), None);
        assert!(report.spans.is_empty());
        force_mode(None);
    }
}
