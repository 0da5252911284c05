//! Sharded, byte-budgeted LRU cache — the serving runtime's session table.
//!
//! The expensive per-client state a shared server wants to keep between
//! requests (a client's uploaded HE keys, a client pair's post-base-OT
//! IKNP state, a model's encoded diagonals) is large: a single client's
//! Galois keys run to tens of megabytes. The table
//! meters admission by **bytes, not entries**, and the budget is the whole
//! table's: once it is exceeded, the least-recently-used entries go,
//! whichever shard holds them. Shards (key-hash modulo shard count) are
//! lock stripes only — they keep the lock a worker grabs on the request
//! path short and uncontended, and own no slice of the budget, so an entry
//! larger than `budget / shards` is an entry like any other.
//!
//! Values are handed out as `Arc`s: eviction drops the table's reference
//! only, so sessions already holding an entry are never invalidated
//! mid-protocol — an evicted client simply re-uploads, or runs base OT
//! again, on its *next* request (the [`crate::msg::Msg::KeyStatus`]
//! handshake). An inserter whose value is large can ask for its room first
//! ([`ShardedLru::make_room`]) and build the value in a victim nobody else
//! holds, instead of freeing one allocation and making another like it.

use std::collections::hash_map::{self, DefaultHasher};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

#[derive(Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
}

type Shard<K, V> = HashMap<K, Entry<V>>;

/// A sharded LRU map bounded by a total byte budget.
pub struct ShardedLru<K, V> {
    shards: Vec<parking_lot::Mutex<Shard<K, V>>>,
    budget: u64,
    /// Bytes resident across all shards.
    used_bytes: AtomicU64,
    /// Recency clock shared by all shards, so "least recently used" is a
    /// table-wide order.
    clock: AtomicU64,
    stats: StatCells,
}

impl<K: Hash + Eq + Clone, V> ShardedLru<K, V> {
    /// Creates a table of `shards` lock stripes under one budget of
    /// `budget_bytes`. Shard counts are clamped to at least 1.
    pub fn new(shards: usize, budget_bytes: u64) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| parking_lot::Mutex::new(HashMap::new()))
                .collect(),
            budget: budget_bytes,
            used_bytes: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            stats: StatCells::default(),
        }
    }

    fn shard_of(&self, key: &K) -> &parking_lot::Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut shard = self.shard_of(key).lock();
        match shard.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick();
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.value.clone())
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, then evicts the table's
    /// least-recently-used entries, whichever shard holds them, until the
    /// table fits its budget again. The entry just inserted is exempt from
    /// its own eviction pass — an entry larger than the whole budget still
    /// serves its session, it just won't survive the next insert.
    pub fn insert(&self, key: K, value: Arc<V>, bytes: u64) {
        let entry = Entry {
            value,
            bytes,
            last_used: self.tick(),
        };
        {
            // `used_bytes` moves under the lock of the shard whose entry it
            // accounts for, so an entry is never subtracted before it was
            // added.
            let mut shard = self.shard_of(&key).lock();
            let replaced = shard.insert(key.clone(), entry);
            self.used_bytes.fetch_add(bytes, Ordering::Relaxed);
            if let Some(old) = replaced {
                self.used_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            }
        }
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.evict_down_to(self.budget, Some(&key));
    }

    /// Evicts least-recently-used entries until `bytes` more would fit the
    /// budget — what the insert of an entry that size would evict — and
    /// returns them, oldest first. An inserter that calls this *before* it
    /// builds its value can build it in the memory of a victim nobody else
    /// holds ([`Arc::into_inner`]), so a full table turns over in place.
    pub fn make_room(&self, bytes: u64) -> Vec<Arc<V>> {
        self.evict_down_to(self.budget.saturating_sub(bytes), None)
    }

    /// Takes out the table's least-recently-used entries, whichever shard
    /// holds them and `keep` excepted, until at most `limit` bytes are
    /// resident.
    fn evict_down_to(&self, limit: u64, keep: Option<&K>) -> Vec<Arc<V>> {
        let mut evicted = Vec::new();
        // One shard lock at a time: pick the oldest entry, then take it out
        // if a concurrent `get` has not refreshed it since.
        while self.used_bytes.load(Ordering::Relaxed) > limit {
            let oldest = (self.shards.iter())
                .filter_map(|shard| {
                    let shard = shard.lock();
                    let others = shard.iter().filter(|(k, _)| Some(*k) != keep);
                    let (k, e) = others.min_by_key(|(_, e)| e.last_used)?;
                    Some((e.last_used, k.clone()))
                })
                .min_by_key(|(last_used, _)| *last_used);
            let Some((last_used, victim)) = oldest else {
                break;
            };
            let mut shard = self.shard_of(&victim).lock();
            if let hash_map::Entry::Occupied(e) = shard.entry(victim) {
                if e.get().last_used == last_used {
                    let e = e.remove();
                    self.used_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted.push(e.value);
                }
            }
        }
        evicted
    }

    /// Total bytes currently resident across shards.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the hit/miss/insert/eviction counters.
    pub fn stats(&self) -> TableStats {
        TableStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_by_bytes_not_count() {
        let t: ShardedLru<u64, &'static str> = ShardedLru::new(1, 100);
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
    fn budget_holds_across_shards_for_entries_over_a_shard_slice() {
        // 8 stripes, entries of 40 against a budget of 100: each is larger
        // than budget / shards, and any two of them share a stripe only by
        // chance. The table must still hold at most two, and the two most
        // recently used.
        let t: ShardedLru<u64, u64> = ShardedLru::new(8, 100);
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
        // A `get` refreshes recency table-wide: 18 survives 19.
        assert!(t.get(&18).is_some());
        t.insert(20, Arc::new(0), 60);
        assert!(t.get(&19).is_none());
        assert!(t.get(&18).is_some());
        assert_eq!(t.used_bytes(), 100);
    }

    #[test]
    fn make_room_evicts_what_the_insert_would_and_hands_it_over() {
        let t: ShardedLru<u64, u64> = ShardedLru::new(4, 100);
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
        let t: ShardedLru<u64, u8> = ShardedLru::new(1, 10);
        t.insert(7, Arc::new(0), 1000);
        assert!(t.get(&7).is_some(), "oversized entries serve their session");
        t.insert(8, Arc::new(1), 5);
        // The oversized entry is the eviction victim of the next insert.
        assert!(t.get(&7).is_none());
        assert!(t.get(&8).is_some());
    }
}
