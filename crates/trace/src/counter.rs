//! Lock-free event counters with fixed identities.
//!
//! Each counter is one slot in a static `AtomicU64` array; recording is a
//! single relaxed `fetch_add` (plus a thread-local add when a
//! [`crate::begin_local`] scope is active). Sites count at batch
//! boundaries — per transform, per `garble_many` call, per message — never
//! inside per-coefficient loops, which is what keeps counter mode under the
//! 2% overhead contract.

use crate::{local, mode, TraceMode};
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($variant:ident => $name:literal,)+) => {
        /// Fixed counter identities across the pipeline.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($variant,)+
        }

        impl Counter {
            /// Number of counters.
            pub const COUNT: usize = [$(Counter::$variant,)+].len();
            /// All counters, in slot order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)+];

            /// Stable dotted export name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    NttForward => "ntt.forward",
    NttInverse => "ntt.inverse",
    NttDyadic => "ntt.dyadic_mul",
    NttGather => "ntt.gather",
    HeEncrypt => "he.encrypt",
    HeDecrypt => "he.decrypt",
    HeKeySwitch => "he.key_switch",
    HeHoist => "he.hoist",
    HeRotation => "he.rotation",
    AesBlocks => "aes.blocks",
    GcAndGarbled => "gc.and_garbled",
    GcAndEvaluated => "gc.and_evaluated",
    GcRelu => "gc.relu",
    GcBytes => "gc.bytes",
    OtBase => "ot.base",
    OtExtended => "ot.extended",
    WireBytes => "wire.bytes",
    WireMsgs => "wire.msgs",
    WireSeedExpand => "wire.seed_expand",
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static GLOBAL: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];

/// Adds `n` events to a counter. No-op in `off` mode or when `n == 0`.
#[inline]
pub fn add(c: Counter, n: u64) {
    if mode() == TraceMode::Off || n == 0 {
        return;
    }
    GLOBAL[c as usize].fetch_add(n, Ordering::Relaxed);
    local::add_counter(c as usize, n);
}

/// Adds one event to a counter.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current global value of a counter.
pub fn global_counter(c: Counter) -> u64 {
    GLOBAL[c as usize].load(Ordering::Relaxed)
}

pub(crate) fn snapshot() -> [u64; Counter::COUNT] {
    let mut out = [0u64; Counter::COUNT];
    for (slot, g) in out.iter_mut().zip(GLOBAL.iter()) {
        *slot = g.load(Ordering::Relaxed);
    }
    out
}

pub(crate) fn reset() {
    for g in GLOBAL.iter() {
        g.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_mode, test_lock};

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate counter names");
        for n in names {
            assert!(n.contains('.'), "counter name {n:?} not namespaced");
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Off));
        let before = global_counter(Counter::NttForward);
        add(Counter::NttForward, 100);
        assert_eq!(global_counter(Counter::NttForward), before);
        force_mode(None);
    }

    #[test]
    fn counters_mode_accumulates() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Counters));
        crate::reset();
        incr(Counter::OtBase);
        add(Counter::OtBase, 9);
        assert_eq!(global_counter(Counter::OtBase), 10);
        crate::reset();
        assert_eq!(global_counter(Counter::OtBase), 0);
        force_mode(None);
    }
}
