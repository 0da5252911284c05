//! Byte-budgeted LRU cache — the serving runtime's session table.
//!
//! The expensive per-client state a shared server wants to keep between
//! requests (a client's uploaded HE keys, a client pair's post-base-OT
//! IKNP state) is large: a single client's
//! `tiny_cnn` key set at n = 4096 is two keys, ≈1.1 MB resident (≈0.2 MB
//! on the wire). The table meters admission by **bytes, not entries**:
//! once the budget is exceeded, the least-recently-used entries go. One
//! lock guards the map, the byte count and the recency clock; a request
//! takes it a handful of times, each for a hash lookup or — on an insert
//! that overflows — one scan per victim.
//!
//! Values are handed out as `Arc`s: eviction drops the table's reference
//! only, so sessions already holding an entry are never invalidated
//! mid-protocol — an evicted client simply re-uploads, or runs base OT
//! again, on its *next* request (the [`crate::msg::Msg::KeyStatus`]
//! handshake). An inserter whose value is large can ask for its room first
//! ([`ByteLru::make_room`]) and build the value in a victim nobody else
//! holds, instead of freeing one allocation and making another like it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Monotonic counters describing table behaviour, for tests and reports.
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

struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
}

struct State<K, V> {
    map: HashMap<K, Entry<V>>,
    used_bytes: u64,
    /// Recency clock: every hit and every insert takes the next tick.
    clock: u64,
    stats: TableStats,
}

/// An LRU map bounded by a total byte budget.
pub(crate) struct ByteLru<K, V> {
    budget: u64,
    state: parking_lot::Mutex<State<K, V>>,
}

impl<K: Hash + Eq + Clone, V> State<K, V> {
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
            self.used_bytes -= e.bytes;
            self.stats.evictions += 1;
            evicted.push(e.value);
        }
        evicted
    }
}

impl<K: Hash + Eq + Clone, V> ByteLru<K, V> {
    /// Creates an empty table under a budget of `budget_bytes`.
    pub(crate) fn new(budget_bytes: u64) -> Self {
        Self {
            budget: budget_bytes,
            state: parking_lot::Mutex::new(State {
                map: HashMap::new(),
                used_bytes: 0,
                clock: 0,
                stats: TableStats::default(),
            }),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        let state = &mut *self.state.lock();
        match state.map.get_mut(key) {
            Some(e) => {
                state.clock += 1;
                e.last_used = state.clock;
                state.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                state.stats.misses += 1;
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
        let mut state = self.state.lock();
        state.clock += 1;
        let entry = Entry {
            value,
            bytes,
            last_used: state.clock,
        };
        let replaced = state.map.insert(key.clone(), entry);
        if let Some(old) = &replaced {
            state.used_bytes -= old.bytes;
        }
        state.used_bytes += bytes;
        state.stats.inserts += 1;
        let evicted = state.evict_down_to(self.budget, Some(&key));
        // Whatever a replaced entry and the victims free, they free with
        // the lock released.
        drop(state);
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

    /// Total bytes currently resident.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.state.lock().used_bytes
    }

    /// Snapshot of the hit/miss/insert/eviction counters.
    pub(crate) fn stats(&self) -> TableStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = t.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 3);
        assert!(t.used_bytes() <= 100);
    }

    #[test]
    fn budget_holds_and_the_least_recently_used_entry_goes_first() {
        // Entries of 40 against a budget of 100: the table holds at most
        // two of them, and the two most recently used.
        let t: ByteLru<u64, u64> = ByteLru::new(100);
        for k in 0..20u64 {
            t.insert(k, Arc::new(k), 40);
            assert!(
                t.used_bytes() <= 100,
                "after insert {k}: {}",
                t.used_bytes()
            );
        }
        assert_eq!(t.stats().evictions, 18);
        assert_eq!(t.used_bytes(), 80);
        assert!((0..18).all(|k| t.get(&k).is_none()));
        // Replacing an entry re-meters it instead of counting it twice.
        t.insert(19, Arc::new(0), 10);
        assert_eq!(t.used_bytes(), 50);
        // A `get` refreshes recency: 18 survives 19.
        assert!(t.get(&18).is_some());
        t.insert(20, Arc::new(0), 60);
        assert!(t.get(&19).is_none());
        assert!(t.get(&18).is_some());
        assert_eq!(t.used_bytes(), 100);
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
        assert_eq!((t.used_bytes(), t.stats().evictions), (40, 1));
        // A victim nobody else holds comes out whole; a held one does not.
        assert_eq!(evicted.into_iter().find_map(Arc::into_inner), Some(1));
        let evicted = t.make_room(100);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted.into_iter().find_map(Arc::into_inner), None);
        assert_eq!(*held, 0);
        // The insert that follows finds the room made and evicts nothing.
        t.insert(2, Arc::new(2), 100);
        assert_eq!((t.used_bytes(), t.stats().evictions), (100, 2));
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
}
