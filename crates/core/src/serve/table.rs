//! The serving runtime's session table: one byte-budgeted LRU cache.
//!
//! The per-client state a shared server keeps between requests is large:
//! a single client's `tiny_cnn` key set at n = 4096 is two keys, ≈1.1 MB
//! resident, beside a client pair's few KB of IKNP state. Both kinds
//! share one table and one budget, metered by **bytes, not entries**: once
//! the budget is exceeded, the least-recently-used entries go, whatever
//! their kind; counters and resident bytes are kept per kind. One lock
//! guards the map, the byte counts and the recency clock. A session
//! reaches the table through its client's [`ClientCache`].
//!
//! Values are handed out as `Arc`s: eviction drops the table's reference
//! only, so sessions already holding an entry are never invalidated
//! mid-protocol. An inserter whose value is large can ask for its room
//! first ([`ByteLru::make_room`]) and build the value in a victim nobody
//! else holds, instead of freeing one allocation and making another like
//! it.

use crate::common::{ClientHeKeys, ClientOtState, ProtocolKind};
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Monotonic counters describing one entry kind's behaviour in the table,
/// for tests and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups that found the entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
}

/// A table key that names its entry's kind: the table counts and meters
/// each kind apart, under its one budget.
pub(crate) trait EntryKind {
    fn kind(&self) -> usize;
}

struct Entry<V: ?Sized> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
}

struct State<K, V: ?Sized> {
    map: HashMap<K, Entry<V>>,
    used_bytes: u64,
    /// Recency clock: every hit and every insert takes the next tick.
    clock: u64,
    /// Each entry kind's counters and resident bytes.
    kinds: HashMap<usize, (TableStats, u64)>,
}

/// An LRU map bounded by a total byte budget.
pub(crate) struct ByteLru<K, V: ?Sized> {
    budget: u64,
    state: parking_lot::Mutex<State<K, V>>,
}

impl<K: Hash + Eq + Clone + EntryKind, V: ?Sized> State<K, V> {
    /// Takes out the least-recently-used entries, `keep` excepted, until at
    /// most `limit` bytes are resident; returns them oldest first.
    fn evict_down_to(&mut self, limit: u64, keep: Option<&K>) -> Vec<Arc<V>> {
        let mut evicted = Vec::new();
        while self.used_bytes > limit {
            let others = self.map.iter().filter(|(k, _)| Some(*k) != keep);
            let Some((victim, _)) = others.min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let victim = victim.clone();
            let e = self.map.remove(&victim).expect("just found");
            let (stats, kind_bytes) = self.kinds.entry(victim.kind()).or_default();
            *kind_bytes -= e.bytes;
            stats.evictions += 1;
            self.used_bytes -= e.bytes;
            evicted.push(e.value);
        }
        evicted
    }
}

impl<K: Hash + Eq + Clone + EntryKind, V: ?Sized> ByteLru<K, V> {
    /// Creates an empty table under a budget of `budget_bytes`.
    pub(crate) fn new(budget_bytes: u64) -> Self {
        Self {
            budget: budget_bytes,
            state: parking_lot::Mutex::new(State {
                map: HashMap::new(),
                used_bytes: 0,
                clock: 0,
                kinds: HashMap::new(),
            }),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        let state = &mut *self.state.lock();
        let stats = &mut state.kinds.entry(key.kind()).or_default().0;
        match state.map.get_mut(key) {
            Some(e) => {
                state.clock += 1;
                e.last_used = state.clock;
                stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, then evicts the least-recently-used
    /// entries until the table fits its budget again. The entry just
    /// inserted is exempt from its own eviction pass — an entry larger than
    /// the whole budget still serves its session, it just won't survive the
    /// next insert.
    pub(crate) fn insert(&self, key: K, value: Arc<V>, bytes: u64) {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        state.clock += 1;
        let entry = Entry {
            value,
            bytes,
            last_used: state.clock,
        };
        let replaced = state.map.insert(key.clone(), entry);
        let (stats, kind_bytes) = state.kinds.entry(key.kind()).or_default();
        if let Some(old) = &replaced {
            *kind_bytes -= old.bytes;
            state.used_bytes -= old.bytes;
        }
        *kind_bytes += bytes;
        stats.inserts += 1;
        state.used_bytes += bytes;
        let evicted = state.evict_down_to(self.budget, Some(&key));
        // Whatever a replaced entry and the victims free, they free with
        // the lock released.
        drop(guard);
        drop((replaced, evicted));
    }

    /// Evicts least-recently-used entries until `bytes` more would fit the
    /// budget — what the insert of an entry that size would evict — and
    /// returns them, oldest first. An inserter that calls this *before* it
    /// builds its value can build it in the memory of a victim nobody else
    /// holds ([`Arc::into_inner`]), so a full table turns over in place.
    pub(crate) fn make_room(&self, bytes: u64) -> Vec<Arc<V>> {
        let limit = self.budget.saturating_sub(bytes);
        self.state.lock().evict_down_to(limit, None)
    }

    /// Bytes of entries of `kind` currently resident.
    pub(crate) fn used_bytes(&self, kind: usize) -> u64 {
        self.state.lock().kinds.get(&kind).map_or(0, |t| t.1)
    }

    /// Snapshot of the hit/miss/insert/eviction counters of `kind`.
    pub(crate) fn stats(&self, kind: usize) -> TableStats {
        let kinds = &self.state.lock().kinds;
        kinds.get(&kind).map(|t| t.0).unwrap_or_default()
    }
}

/// A key of the runtime's session table; each kind names the type of its
/// value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// A client's [`ClientHeKeys`] as admitted for one key plan: a set is
    /// only ever used for a model it was admitted for, and models with one
    /// plan share it.
    Keys(u64, Vec<usize>),
    /// A client pair's [`ClientOtState`], by the protocol kind whose
    /// sessions run on it (the extension role the server plays).
    Ot(u64, ProtocolKind),
}

/// The kinds' indices, for the per-kind counters and resident bytes.
impl CacheKey {
    pub(crate) const KEYS: usize = 0;
    pub(crate) const OT: usize = 1;
}

impl EntryKind for CacheKey {
    fn kind(&self) -> usize {
        match self {
            Self::Keys(..) => Self::KEYS,
            Self::Ot(..) => Self::OT,
        }
    }
}

/// The runtime's one session table: every client's keys and OT state
/// under one budget.
pub(crate) type SessionTable = ByteLru<CacheKey, dyn Any + Send + Sync>;

/// One client's handle on the session table (the table, the client id):
/// what its server session looks up, makes room for and caches there.
pub(crate) struct ClientCache(pub(crate) Arc<SessionTable>, pub(crate) u64);

impl ClientCache {
    /// The client's rotation keys as admitted for `plan`, if resident.
    pub(crate) fn keys(&self, plan: &[usize]) -> Option<Arc<ClientHeKeys>> {
        let key = CacheKey::Keys(self.1, plan.to_vec());
        self.0.get(&key)?.downcast().ok()
    }

    /// The pair's IKNP state for sessions of `kind`, if resident.
    pub(crate) fn ot(&self, kind: ProtocolKind) -> Option<Arc<ClientOtState>> {
        self.0.get(&CacheKey::Ot(self.1, kind))?.downcast().ok()
    }

    /// The eviction the insert of a key set of `bytes` would do, done
    /// before its decode: returns the first evicted key set no session
    /// holds, for the new set to be decoded into.
    pub(crate) fn room_for_keys(&self, bytes: usize) -> Option<ClientHeKeys> {
        let evicted = self.0.make_room(bytes as u64);
        let mut sets = evicted.into_iter().filter_map(|e| e.downcast().ok());
        sets.find_map(Arc::into_inner)
    }

    /// Caches the client's keys, admitted for `plan`.
    pub(crate) fn insert_keys(&self, plan: &[usize], keys: Arc<ClientHeKeys>) {
        let key = CacheKey::Keys(self.1, plan.to_vec());
        let bytes = keys.resident_byte_len() as u64;
        self.0.insert(key, keys, bytes);
    }

    /// Caches the pair's IKNP state for sessions of `kind`.
    pub(crate) fn insert_ot(&self, kind: ProtocolKind, ot: Arc<ClientOtState>) {
        let bytes = ot.resident_byte_len() as u64;
        self.0.insert(CacheKey::Ot(self.1, kind), ot, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EntryKind for u64 {
        fn kind(&self) -> usize {
            0
        }
    }

    /// A key of kind `.0`.
    impl EntryKind for (usize, u64) {
        fn kind(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn lru_evicts_by_bytes_not_count() {
        let t: ByteLru<u64, &'static str> = ByteLru::new(100);
        t.insert(1, Arc::new("a"), 40);
        t.insert(2, Arc::new("b"), 40);
        assert!(t.get(&1).is_some());
        // Touch 1 so 2 is the LRU victim when 3 overflows the budget.
        t.insert(3, Arc::new("c"), 40);
        assert!(t.get(&2).is_none());
        assert!(t.get(&1).is_some());
        assert!(t.get(&3).is_some());
        let s = t.stats(0);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 3);
        assert!(t.used_bytes(0) <= 100);
    }

    #[test]
    fn budget_holds_and_the_least_recently_used_entry_goes_first() {
        // Entries of 40 against a budget of 100: the table holds at most
        // two of them, and the two most recently used.
        let t: ByteLru<u64, u64> = ByteLru::new(100);
        for k in 0..20u64 {
            t.insert(k, Arc::new(k), 40);
            assert!(
                t.used_bytes(0) <= 100,
                "after insert {k}: {}",
                t.used_bytes(0)
            );
        }
        assert_eq!(t.stats(0).evictions, 18);
        assert_eq!(t.used_bytes(0), 80);
        assert!((0..18).all(|k| t.get(&k).is_none()));
        // Replacing an entry re-meters it instead of counting it twice.
        t.insert(19, Arc::new(0), 10);
        assert_eq!(t.used_bytes(0), 50);
        // A `get` refreshes recency: 18 survives 19.
        assert!(t.get(&18).is_some());
        t.insert(20, Arc::new(0), 60);
        assert!(t.get(&19).is_none());
        assert!(t.get(&18).is_some());
        assert_eq!(t.used_bytes(0), 100);
    }

    #[test]
    fn make_room_evicts_what_the_insert_would_and_hands_it_over() {
        let t: ByteLru<u64, u64> = ByteLru::new(100);
        for k in 0..2u64 {
            t.insert(k, Arc::new(k), 40);
        }
        // 80 resident: 20 more fit, 40 more do not.
        assert!(t.make_room(20).is_empty());
        let held = t.get(&0).expect("resident");
        let evicted = t.make_room(40);
        // 1 is the least recently used now; 0 was just touched.
        assert_eq!(evicted.iter().map(|v| **v).collect::<Vec<_>>(), [1]);
        assert_eq!((t.used_bytes(0), t.stats(0).evictions), (40, 1));
        // A victim nobody else holds comes out whole; a held one does not.
        assert_eq!(evicted.into_iter().find_map(Arc::into_inner), Some(1));
        let evicted = t.make_room(100);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted.into_iter().find_map(Arc::into_inner), None);
        assert_eq!(*held, 0);
        // The insert that follows finds the room made and evicts nothing.
        t.insert(2, Arc::new(2), 100);
        assert_eq!((t.used_bytes(0), t.stats(0).evictions), (100, 2));
    }

    #[test]
    fn oversized_entry_still_admitted() {
        let t: ByteLru<u64, u8> = ByteLru::new(10);
        t.insert(7, Arc::new(0), 1000);
        assert!(t.get(&7).is_some(), "oversized entries serve their session");
        t.insert(8, Arc::new(1), 5);
        // The oversized entry is the eviction victim of the next insert.
        assert!(t.get(&7).is_none());
        assert!(t.get(&8).is_some());
    }

    /// Two kinds share one budget: an insert of either evicts the least
    /// recently used entry of any kind, and each kind's counters and
    /// resident bytes count its own entries only.
    #[test]
    fn kinds_share_one_budget_and_count_apart() {
        let t: ByteLru<(usize, u64), u64> = ByteLru::new(100);
        t.insert((0, 1), Arc::new(1), 60);
        t.insert((1, 1), Arc::new(2), 30);
        assert_eq!((t.used_bytes(0), t.used_bytes(1)), (60, 30));
        // A kind-1 insert overflows the budget and evicts the kind-0 entry.
        t.insert((1, 2), Arc::new(3), 30);
        assert_eq!((t.used_bytes(0), t.used_bytes(1)), (0, 60));
        assert!(t.get(&(0, 1)).is_none());
        assert!(t.get(&(1, 1)).is_some());
        let (keys, ot) = (t.stats(0), t.stats(1));
        assert_eq!((keys.inserts, keys.evictions, keys.misses), (1, 1, 1));
        assert_eq!((ot.inserts, ot.evictions, ot.hits), (2, 0, 1));
        // Making room for a kind-0 entry evicts kind-1 entries, oldest
        // first: (1, 2) is older than the (1, 1) just looked up.
        let evicted = t.make_room(60);
        assert_eq!(evicted.iter().map(|v| **v).collect::<Vec<_>>(), [3]);
        assert_eq!((t.used_bytes(1), t.stats(1).evictions), (30, 1));
    }
}
