//! The session table: every server session's per-client state, in one
//! byte-budgeted LRU cache.
//!
//! The per-client state a server keeps between requests is large: a
//! single client's `tiny_cnn` key set at n = 4096 is two keys, ≈1.1 MB
//! resident, beside a client pair's few KB of IKNP state. Each kind of
//! state is a [`CacheKey`] variant whose value is the matching [`Entry`]
//! variant. Both kinds share one table and one budget, metered by **bytes,
//! not entries**: once the budget is exceeded, the least-recently-used
//! entries go, whatever their kind; counters and resident bytes are kept
//! per kind. One lock guards the map, the byte counts and the recency
//! clock. A session reaches the table through its client's
//! [`ClientCache`]: the serving runtime's one table, or a lone session's
//! own.
//!
//! Values are handed out as `Arc`s: eviction drops the table's reference
//! only, so sessions already holding an entry are never invalidated
//! mid-protocol. A key upload asks for its room first
//! ([`SessionTable::make_room`]) and is decoded into a victim nobody else
//! holds, instead of freeing one allocation and making another like it.

use crate::common::{ClientHeKeys, ClientOtState, ProtocolKind};
use std::collections::HashMap;
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

/// A key of the session table; each kind holds the [`Entry`] variant of
/// its name.
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

    fn kind(&self) -> usize {
        match self {
            Self::Keys(..) => Self::KEYS,
            Self::Ot(..) => Self::OT,
        }
    }
}

/// A value of the session table, of its key's kind.
#[derive(Clone)]
pub(crate) enum Entry {
    Keys(Arc<ClientHeKeys>),
    Ot(Arc<ClientOtState>),
}

struct Resident {
    value: Entry,
    bytes: u64,
    last_used: u64,
}

struct State {
    map: HashMap<CacheKey, Resident>,
    /// Recency clock: every hit and every insert takes the next tick.
    clock: u64,
    /// Each kind's counters and resident bytes, by [`CacheKey`] kind: the
    /// table's resident bytes are their sum.
    kinds: [(TableStats, u64); 2],
}

/// Per-client state under one byte budget, least recently used out first.
pub(crate) struct SessionTable {
    budget: u64,
    state: parking_lot::Mutex<State>,
}

impl State {
    /// Takes out the least-recently-used entries, `keep` excepted, until at
    /// most `limit` bytes are resident; returns them oldest first.
    fn evict_down_to(&mut self, limit: u64, keep: Option<&CacheKey>) -> Vec<Entry> {
        let mut evicted = Vec::new();
        while self.kinds.iter().map(|k| k.1).sum::<u64>() > limit {
            let others = self.map.iter().filter(|(k, _)| Some(*k) != keep);
            let Some((victim, _)) = others.min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let victim = victim.clone();
            let e = self.map.remove(&victim).expect("just found");
            let (stats, kind_bytes) = &mut self.kinds[victim.kind()];
            *kind_bytes -= e.bytes;
            stats.evictions += 1;
            evicted.push(e.value);
        }
        evicted
    }
}

impl SessionTable {
    /// Creates an empty table under a budget of `budget_bytes`.
    pub(crate) fn new(budget_bytes: u64) -> Self {
        Self {
            budget: budget_bytes,
            state: parking_lot::Mutex::new(State {
                map: HashMap::new(),
                clock: 0,
                kinds: Default::default(),
            }),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&self, key: &CacheKey) -> Option<Entry> {
        let state = &mut *self.state.lock();
        let stats = &mut state.kinds[key.kind()].0;
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
    fn insert(&self, key: CacheKey, value: Entry, bytes: u64) {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        state.clock += 1;
        let entry = Resident {
            value,
            bytes,
            last_used: state.clock,
        };
        let replaced = state.map.insert(key.clone(), entry);
        let (stats, kind_bytes) = &mut state.kinds[key.kind()];
        if let Some(old) = &replaced {
            *kind_bytes -= old.bytes;
        }
        *kind_bytes += bytes;
        stats.inserts += 1;
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
    fn make_room(&self, bytes: u64) -> Vec<Entry> {
        let limit = self.budget.saturating_sub(bytes);
        self.state.lock().evict_down_to(limit, None)
    }

    /// Bytes of entries of `kind` currently resident.
    pub(crate) fn used_bytes(&self, kind: usize) -> u64 {
        self.state.lock().kinds[kind].1
    }

    /// Snapshot of the hit/miss/insert/eviction counters of `kind`.
    pub(crate) fn stats(&self, kind: usize) -> TableStats {
        self.state.lock().kinds[kind].0
    }
}

/// One client's handle on a session table (the table, the client id):
/// what its server session looks up, makes room for and caches there.
pub(crate) struct ClientCache(pub(crate) Arc<SessionTable>, pub(crate) u64);

impl ClientCache {
    /// The client's rotation keys as admitted for `plan`, if resident.
    pub(crate) fn keys(&self, plan: &[usize]) -> Option<Arc<ClientHeKeys>> {
        match self.0.get(&CacheKey::Keys(self.1, plan.to_vec()))? {
            Entry::Keys(keys) => Some(keys),
            Entry::Ot(_) => unreachable!("a key-set key holds a key set"),
        }
    }

    /// The pair's IKNP state for sessions of `kind`, if resident.
    pub(crate) fn ot(&self, kind: ProtocolKind) -> Option<Arc<ClientOtState>> {
        match self.0.get(&CacheKey::Ot(self.1, kind))? {
            Entry::Ot(ot) => Some(ot),
            Entry::Keys(_) => unreachable!("an OT key holds OT state"),
        }
    }

    /// The eviction the insert of a key set of `bytes` would do, done
    /// before its decode: returns the first evicted key set no session
    /// holds, for the new set to be decoded into.
    pub(crate) fn room_for_keys(&self, bytes: usize) -> Option<ClientHeKeys> {
        let evicted = self.0.make_room(bytes as u64);
        evicted.into_iter().find_map(|e| match e {
            Entry::Keys(keys) => Arc::into_inner(keys),
            Entry::Ot(_) => None,
        })
    }

    /// Caches the client's keys, admitted for `plan`.
    pub(crate) fn insert_keys(&self, plan: &[usize], keys: Arc<ClientHeKeys>) {
        let key = CacheKey::Keys(self.1, plan.to_vec());
        let bytes = keys.resident_byte_len() as u64;
        self.0.insert(key, Entry::Keys(keys), bytes);
    }

    /// Caches the pair's IKNP state for sessions of `kind`.
    pub(crate) fn insert_ot(&self, kind: ProtocolKind, ot: Arc<ClientOtState>) {
        let bytes = ot.resident_byte_len() as u64;
        self.0
            .insert(CacheKey::Ot(self.1, kind), Entry::Ot(ot), bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ot::ext::{OtExtSender, SenderSetup, KAPPA};
    use rand::SeedableRng;

    const OT: usize = CacheKey::OT;

    /// The OT-state key of client `id`.
    fn key(id: u64) -> CacheKey {
        CacheKey::Ot(id, ProtocolKind::ServerGarbler)
    }

    /// A cheap OT-state entry whose next free block is `id`, its name in
    /// these tests (the table meters it by the bytes it is inserted with).
    fn ot(id: u64) -> Entry {
        let ext = OtExtSender::new(SenderSetup {
            s: 0,
            seeds: vec![0; KAPPA],
        });
        Entry::Ot(Arc::new(ClientOtState::sender(Arc::new(ext), id)))
    }

    /// The name [`ot`] gave an OT-state entry.
    fn id(e: &Entry) -> u64 {
        match e {
            Entry::Ot(ot) => ot.reserve(0),
            Entry::Keys(_) => panic!("a key set has no name here"),
        }
    }

    /// The name of the first evicted OT state nobody else holds.
    fn first_whole(evicted: Vec<Entry>) -> Option<u64> {
        evicted.into_iter().find_map(|e| match e {
            Entry::Ot(ot) => Arc::into_inner(ot).map(|ot| ot.reserve(0)),
            Entry::Keys(_) => None,
        })
    }

    /// A key-set entry: an admitted empty plan.
    fn keys() -> Entry {
        let params = pi_he::BfvParams::small_test();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let secret = pi_he::SecretKey::generate(&params, &mut rng);
        let frame = pi_he::galois_keys_frame(&secret, &[], &mut rng);
        let keys = ClientHeKeys::admit(&frame, &params, &[], |_| None).expect("empty plan");
        Entry::Keys(Arc::new(keys))
    }

    #[test]
    fn lru_evicts_by_bytes_not_count() {
        let t = SessionTable::new(100);
        t.insert(key(1), ot(1), 40);
        t.insert(key(2), ot(2), 40);
        assert!(t.get(&key(1)).is_some());
        // Touch 1 so 2 is the LRU victim when 3 overflows the budget.
        t.insert(key(3), ot(3), 40);
        assert!(t.get(&key(2)).is_none());
        assert!(t.get(&key(1)).is_some());
        assert!(t.get(&key(3)).is_some());
        let s = t.stats(OT);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 3);
        assert!(t.used_bytes(OT) <= 100);
    }

    #[test]
    fn budget_holds_and_the_least_recently_used_entry_goes_first() {
        // Entries of 40 against a budget of 100: the table holds at most
        // two of them, and the two most recently used.
        let t = SessionTable::new(100);
        for k in 0..20u64 {
            t.insert(key(k), ot(k), 40);
            assert!(
                t.used_bytes(OT) <= 100,
                "after insert {k}: {}",
                t.used_bytes(OT)
            );
        }
        assert_eq!(t.stats(OT).evictions, 18);
        assert_eq!(t.used_bytes(OT), 80);
        assert!((0..18).all(|k| t.get(&key(k)).is_none()));
        // Replacing an entry re-meters it instead of counting it twice.
        t.insert(key(19), ot(0), 10);
        assert_eq!(t.used_bytes(OT), 50);
        // A `get` refreshes recency: 18 survives 19.
        assert!(t.get(&key(18)).is_some());
        t.insert(key(20), ot(0), 60);
        assert!(t.get(&key(19)).is_none());
        assert!(t.get(&key(18)).is_some());
        assert_eq!(t.used_bytes(OT), 100);
    }

    #[test]
    fn make_room_evicts_what_the_insert_would_and_hands_it_over() {
        let t = SessionTable::new(100);
        for k in 0..2u64 {
            t.insert(key(k), ot(k), 40);
        }
        // 80 resident: 20 more fit, 40 more do not.
        assert!(t.make_room(20).is_empty());
        let held = t.get(&key(0)).expect("resident");
        let evicted = t.make_room(40);
        // 1 is the least recently used now; 0 was just touched.
        assert_eq!(evicted.iter().map(id).collect::<Vec<_>>(), [1]);
        assert_eq!((t.used_bytes(OT), t.stats(OT).evictions), (40, 1));
        // A victim nobody else holds comes out whole; a held one does not.
        assert_eq!(first_whole(evicted), Some(1));
        let evicted = t.make_room(100);
        assert_eq!(evicted.len(), 1);
        assert_eq!(first_whole(evicted), None);
        assert_eq!(id(&held), 0);
        // The insert that follows finds the room made and evicts nothing.
        t.insert(key(2), ot(2), 100);
        assert_eq!((t.used_bytes(OT), t.stats(OT).evictions), (100, 2));
    }

    #[test]
    fn oversized_entry_still_admitted() {
        let t = SessionTable::new(10);
        t.insert(key(7), ot(0), 1000);
        assert!(
            t.get(&key(7)).is_some(),
            "oversized entries serve their session"
        );
        t.insert(key(8), ot(1), 5);
        // The oversized entry is the eviction victim of the next insert.
        assert!(t.get(&key(7)).is_none());
        assert!(t.get(&key(8)).is_some());
    }

    /// Two kinds share one budget: an insert of either evicts the least
    /// recently used entry of any kind, and each kind's counters and
    /// resident bytes count its own entries only.
    #[test]
    fn kinds_share_one_budget_and_count_apart() {
        const KEYS: usize = CacheKey::KEYS;
        let t = SessionTable::new(100);
        let keys_key = CacheKey::Keys(1, Vec::new());
        t.insert(keys_key.clone(), keys(), 60);
        t.insert(key(1), ot(2), 30);
        assert_eq!((t.used_bytes(KEYS), t.used_bytes(OT)), (60, 30));
        // An OT insert overflows the budget and evicts the key set.
        t.insert(key(2), ot(3), 30);
        assert_eq!((t.used_bytes(KEYS), t.used_bytes(OT)), (0, 60));
        assert!(t.get(&keys_key).is_none());
        assert!(t.get(&key(1)).is_some());
        let (keys, ot) = (t.stats(KEYS), t.stats(OT));
        assert_eq!((keys.inserts, keys.evictions, keys.misses), (1, 1, 1));
        assert_eq!((ot.inserts, ot.evictions, ot.hits), (2, 0, 1));
        // Making room for a key set evicts OT states, oldest first:
        // key(2) is older than the key(1) just looked up.
        let evicted = t.make_room(60);
        assert_eq!(evicted.iter().map(id).collect::<Vec<_>>(), [3]);
        assert_eq!((t.used_bytes(OT), t.stats(OT).evictions), (30, 1));
    }
}
