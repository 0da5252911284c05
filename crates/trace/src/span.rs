//! Nestable RAII phase spans with wall-clock timing.
//!
//! Spans are active only in [`TraceMode::Full`]. Each thread keeps a stack
//! of span names; on guard drop the slash-joined path
//! (`client/offline.he/he.keyswitch`) is merged into a global aggregate map
//! (short `parking_lot` mutex hold, exit-only) and into the thread's local
//! collector when a [`crate::begin_local`] scope is active. Cross-thread
//! merging is by path: two threads timing `he.keyswitch` under the same
//! parent accumulate into one [`SpanStat`].

use crate::{local, mode, TraceMode};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::OnceLock;
use std::time::Instant;

/// Aggregate statistics for one span path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across completions.
    pub total_ns: u64,
    /// Shortest completion.
    pub min_ns: u64,
    /// Longest completion.
    pub max_ns: u64,
}

impl SpanStat {
    pub(crate) fn one_ns(ns: u64) -> Self {
        SpanStat {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        }
    }

    /// Folds another stat into this one (used for cross-thread and
    /// cross-party report merging).
    pub fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// This thread's open span names, outermost first: what a split's helper
/// parts open their own spans under ([`set_stack`]).
pub(crate) fn stack() -> Vec<&'static str> {
    STACK.with(|s| s.borrow().clone())
}

/// Makes `stack` this thread's open span names, so a helper part's spans
/// record under the path of the caller that split.
pub(crate) fn set_stack(stack: Vec<&'static str>) {
    STACK.with(|s| *s.borrow_mut() = stack);
}

fn global_spans() -> &'static Mutex<HashMap<String, SpanStat>> {
    static SPANS: OnceLock<Mutex<HashMap<String, SpanStat>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// RAII guard for one span; records on drop. Inert outside `Full` mode.
///
/// The guard is not `Send`: its span lives on this thread's stack of open
/// spans. So an `async` block that holds one across an `.await` is not a
/// `Send` future, and a runtime that moves suspended futures between
/// threads refuses it — a span never straddles a suspension:
///
/// ```compile_fail
/// fn f<T: Send>(_: T) {}
/// f(async {
///     let span = pi_trace::span("offline.he");
///     std::future::ready(()).await;
///     drop(span);
/// });
/// ```
///
/// Dropping the guard before the `.await` is fine:
///
/// ```
/// fn f<T: Send>(_: T) {}
/// f(async {
///     let span = pi_trace::span("offline.he");
///     drop(span);
///     std::future::ready(()).await;
/// });
/// ```
#[must_use = "bind the span guard or the region is timed as empty"]
pub struct SpanGuard {
    start: Option<Instant>,
    _not_send: PhantomData<*const ()>,
}

/// Enters a span named `name` on the current thread (see the module-level
/// naming table in the crate docs). Prefer the [`crate::span!`] macro at
/// call sites.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if mode() != TraceMode::Full {
        return SpanGuard {
            start: None,
            _not_send: PhantomData,
        };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join("/");
            s.pop();
            path
        });
        record_path(&path, ns);
    }
}

fn record_path(path: &str, ns: u64) {
    let mut map = global_spans().lock();
    match map.get_mut(path) {
        Some(stat) => stat.merge(&SpanStat::one_ns(ns)),
        None => {
            map.insert(path.to_string(), SpanStat::one_ns(ns));
        }
    }
    drop(map);
    local::add_span(path, ns);
}

/// Sorted snapshot of the global span aggregate.
pub(crate) fn snapshot() -> Vec<(String, SpanStat)> {
    let map = global_spans().lock();
    let mut out: Vec<(String, SpanStat)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
    drop(map);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

pub(crate) fn reset() {
    global_spans().lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_mode, test_lock};

    fn stat(path: &str) -> Option<SpanStat> {
        snapshot().into_iter().find(|(p, _)| p == path).map(|x| x.1)
    }

    #[test]
    fn nested_paths() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Full));
        reset();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            {
                let _b = span("inner");
            }
        }
        let outer = stat("outer").expect("outer recorded");
        let inner = stat("outer/inner").expect("nested path recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(inner.total_ns >= inner.min_ns + inner.max_ns - inner.total_ns.min(1));
        assert!(stat("inner").is_none(), "nested span must not appear bare");
        force_mode(None);
        reset();
    }

    #[test]
    fn cross_thread_merge() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Full));
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _g = span("worker");
                    std::hint::black_box(0u64);
                });
            }
        });
        let s = stat("worker").expect("merged across threads");
        assert_eq!(s.count, 4);
        assert!(s.total_ns >= s.max_ns);
        assert!(s.min_ns <= s.max_ns);
        force_mode(None);
        reset();
    }

    #[test]
    fn counters_mode_records_no_spans() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Counters));
        reset();
        {
            let _g = span("ghost");
        }
        assert!(stat("ghost").is_none());
        force_mode(None);
        reset();
    }

    #[test]
    fn merge_identities() {
        let mut a = SpanStat::one_ns(10);
        a.merge(&SpanStat::one_ns(4));
        assert_eq!(
            a,
            SpanStat {
                count: 2,
                total_ns: 14,
                min_ns: 4,
                max_ns: 10
            }
        );
        let mut zero = SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
        };
        zero.merge(&a);
        assert_eq!(zero, a);
    }
}
