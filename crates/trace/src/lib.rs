//! `pi-trace` — zero-dependency observability for the HE→GC pipeline.
//!
//! The paper this repo reproduces is a *measurement-driven* characterization
//! of private inference; this crate is the measurement substrate. It
//! provides three primitives, all offline-first (no crates.io, only the
//! `parking_lot` stand-in from `crates/compat/`):
//!
//! 1. **Phase spans** — RAII guards ([`span!`]/[`span()`]) that time a region
//!    of wall clock on the current thread. Spans nest; a guard records its
//!    full slash-joined path (`client/offline.he/he.keyswitch`) into a
//!    global, thread-safe aggregate and — when a [`begin_local`] scope is
//!    active on the thread — into a per-request collector.
//! 2. **Counters and log-linear histograms** — lock-free `AtomicU64`
//!    primitives ([`Counter`], [`Hist`]) cheap enough to stay enabled in
//!    release builds (one relaxed `fetch_add` per event on the global array
//!    plus a thread-local add when a local scope is active).
//! 3. **Export** — [`TraceReport`] snapshots render as a human table
//!    (`Display`), machine-readable JSON ([`TraceReport::to_json`]), and the
//!    repo's `csv,<name>,<value>` bench convention
//!    ([`TraceReport::csv_lines`]).
//!
//! # Overhead contract
//!
//! | mode       | spans | counters/hists | cost per event                     |
//! |------------|-------|----------------|------------------------------------|
//! | `off`      | no    | no             | one relaxed atomic load            |
//! | `counters` | no    | yes            | +1 relaxed `fetch_add` (+ a thread-local add inside a local scope) |
//! | `full`     | yes   | yes            | counters cost, plus `Instant` + one short mutex hold per span *exit* |
//!
//! Counter mode is budgeted at **<2%** on the replicated matvec
//! (`pi_he::linalg::matvec_precomputed` at d = 128; enforced by
//! `tests/trace_overhead.rs`); `off` must be bit-identical to
//! untraced behavior. Instrumentation sites honor the contract by counting
//! at batch boundaries (per NTT transform, per `garble_many` call, per
//! message send), never inside per-coefficient or per-AES-block loops.
//!
//! # Dispatch order
//!
//! The active [`TraceMode`] is resolved once and cached in an atomic,
//! mirroring `PI_SIMD`/`PI_AES`:
//!
//! 1. [`force_mode`] (programmatic override, used by tests) — strongest;
//! 2. the `PI_TRACE` environment variable: `off`, `counters`, or `full`;
//! 3. default: `full` (timings in `CostReport` stay populated out of the
//!    box; set `PI_TRACE=counters` for the strict low-overhead profile).
//!
//! Unknown `PI_TRACE` values panic loudly rather than silently tracing at
//! the wrong level.
//!
//! # Span naming scheme
//!
//! One canonical name per protocol phase; drivers must use exactly these so
//! CI can grep the JSON export for silent de-instrumentation:
//!
//! | span              | where                                            |
//! |-------------------|--------------------------------------------------|
//! | `client`          | root of the client party's request tree          |
//! | `server`          | root of the server party's request tree          |
//! | `offline.he`      | offline linear phase (keygen/encrypt/matvec/decrypt) |
//! | `offline.garble`  | offline ReLU garbling                            |
//! | `offline.ot`      | base-OT setup (and offline extension, SG)        |
//! | `online.ot`       | online OT extension rounds                       |
//! | `online.eval`     | online GC evaluation / label decode              |
//! | `online.ss`       | online secret-share linear arithmetic            |
//! | `he.keyswitch`    | one Galois key switch (inside `offline.he`)      |
//! | `he.hoist`        | one hoisted key-switch lift (inside `offline.he`) |
//! | `he.keys_generate`| client: fresh secret key + rotation-key upload frame (inside `offline.he`) |
//! | `he.keys_admit`   | server: plan check + decode of an uploaded frame (inside `offline.he`) |
//!
//! `CostReport` phase timings are derived from these spans
//! (`span_total_ms("offline.he")` etc.), replacing the hand-threaded
//! `Instant` deltas the drivers used to carry — one source of truth.

mod counter;
mod hist;
mod local;
mod report;
mod span;

pub use counter::{add, global_counter, incr, Counter};
pub use hist::{bucket_index, bucket_lower_bound, record, Hist, NUM_BUCKETS};
pub use local::{begin_local, LocalScope};
pub use report::{global_report, reset, CounterSnap, HistSnap, SpanSnap, TraceReport};
pub use span::{span, SpanGuard, SpanStat};

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the pipeline records. Ordered: `Off < Counters < Full`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceMode {
    /// Record nothing; instrumentation folds to a cached atomic load.
    #[default]
    Off = 0,
    /// Counters and histograms only (the strict low-overhead profile).
    Counters = 1,
    /// Counters plus phase spans (wall-clock timing, span tree).
    Full = 2,
}

impl TraceMode {
    fn from_u8(v: u8) -> TraceMode {
        match v {
            0 => TraceMode::Off,
            1 => TraceMode::Counters,
            _ => TraceMode::Full,
        }
    }

    /// Canonical lowercase name (`off`/`counters`/`full`).
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Counters => "counters",
            TraceMode::Full => "full",
        }
    }
}

const UNSET: u8 = 0xff;
static CACHED: AtomicU8 = AtomicU8::new(UNSET);
static FORCED: AtomicU8 = AtomicU8::new(UNSET);

/// The active trace mode (`force_mode` > `PI_TRACE` env > default `full`),
/// cached after first resolution.
#[inline(always)]
pub fn mode() -> TraceMode {
    let m = CACHED.load(Ordering::Relaxed);
    if m == UNSET {
        resolve_mode()
    } else {
        TraceMode::from_u8(m)
    }
}

#[cold]
fn resolve_mode() -> TraceMode {
    let forced = FORCED.load(Ordering::Relaxed);
    let m = if forced != UNSET {
        TraceMode::from_u8(forced)
    } else {
        match std::env::var("PI_TRACE") {
            Ok(v) => parse_mode(&v),
            Err(_) => TraceMode::Full,
        }
    };
    CACHED.store(m as u8, Ordering::Relaxed);
    m
}

fn parse_mode(v: &str) -> TraceMode {
    match v {
        "" => TraceMode::Full,
        "off" | "0" | "none" => TraceMode::Off,
        "counters" => TraceMode::Counters,
        "full" | "on" | "1" => TraceMode::Full,
        other => panic!("PI_TRACE={other:?} not recognized (expected off|counters|full)"),
    }
}

/// Forces the trace mode programmatically (wins over `PI_TRACE`), or
/// restores env-driven dispatch with `None`. Used by tests that must pin a
/// mode regardless of the CI matrix.
pub fn force_mode(m: Option<TraceMode>) {
    match m {
        Some(m) => {
            FORCED.store(m as u8, Ordering::Relaxed);
            CACHED.store(m as u8, Ordering::Relaxed);
        }
        None => {
            FORCED.store(UNSET, Ordering::Relaxed);
            CACHED.store(UNSET, Ordering::Relaxed);
        }
    }
}

/// Enters a named span (see the module-level naming table). Expands to
/// [`span()`]; bind the guard (`let _g = span!("offline.he");`) so it lives
/// for the region being timed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Global-state tests (mode forcing, reset) must not interleave.
    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("off"), TraceMode::Off);
        assert_eq!(parse_mode("0"), TraceMode::Off);
        assert_eq!(parse_mode("counters"), TraceMode::Counters);
        assert_eq!(parse_mode("full"), TraceMode::Full);
        assert_eq!(parse_mode(""), TraceMode::Full);
    }

    #[test]
    #[should_panic(expected = "not recognized")]
    fn mode_parsing_rejects_unknown() {
        parse_mode("verbose");
    }

    #[test]
    fn force_wins_and_restores() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Counters));
        assert_eq!(mode(), TraceMode::Counters);
        force_mode(Some(TraceMode::Off));
        assert_eq!(mode(), TraceMode::Off);
        force_mode(None);
        // Env-driven again; whatever it resolves to must be stable.
        assert_eq!(mode(), mode());
    }

    #[test]
    fn mode_ordering() {
        assert!(TraceMode::Off < TraceMode::Counters);
        assert!(TraceMode::Counters < TraceMode::Full);
    }
}
