//! The synthesis store: one byte-bounded, content-addressed map behind a
//! mutex, with one LRU policy over module solves and certified responses,
//! plus per-run session counters.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use modsyn_fault::fnv1a64;
use modsyn_fault::{site, FaultHook, Faults};
use modsyn_sg::{EdgeLabel, StateGraph};

use crate::durable::DurableStore;
use crate::provenance::{ModuleEntry, SynthRecord};
use crate::wal::StoreMutation;

/// A content-addressed store for per-module SAT solutions and certified
/// synthesis responses.
///
/// Both namespaces share one byte bound and one least-recently-used
/// eviction order. Each entry is charged its compact encoded length — the
/// payload its journal frame carries — so the bound tracks what
/// persistence writes. Lookups and inserts take one mutex, poison-
/// tolerantly, and never hold it across journal or snapshot I/O.
///
/// Module lookups and inserts from a synthesis run go through a
/// [`StoreSession`], which tallies per-run hits and misses on top of the
/// store-wide counters — the per-request dirty-module accounting of
/// `POST /synth/incr`.
#[derive(Debug)]
pub struct SynthStore {
    inner: Mutex<Inner>,
    max_bytes: usize,
    /// Probed on every insert: an armed `cache.evict-storm` rule evicts
    /// every resident entry first.
    faults: Faults,
    /// Write-ahead journal attachment; when set, every insert is journaled
    /// *before* it lands in memory. Kept outside `Inner` (and appended to
    /// before `inner` is locked) so the journal→store lock order matches
    /// the checkpoint path and can never deadlock against it.
    durable: Mutex<Option<Arc<DurableStore>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Which namespace an entry lives in, and under what key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Module(u64),
    Record(u128),
}

#[derive(Debug)]
struct Slot {
    entry: StoreMutation,
    bytes: usize,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<Key, Slot>,
    /// Recency stamp → key; the first entry is the eviction victim.
    order: BTreeMap<u64, Key>,
    bytes: usize,
    clock: u64,
}

impl Inner {
    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn remove(&mut self, key: Key) {
        if let Some(slot) = self.slots.remove(&key) {
            self.order.remove(&slot.stamp);
            self.bytes -= slot.bytes;
        }
    }
}

impl Default for SynthStore {
    fn default() -> Self {
        SynthStore::with_capacity(usize::MAX)
    }
}

impl SynthStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        SynthStore::default()
    }

    /// An empty store that keeps at most `max_bytes` of encoded entries.
    pub fn with_capacity(max_bytes: usize) -> Self {
        SynthStore {
            inner: Mutex::new(Inner::default()),
            max_bytes,
            faults: Faults::none(),
            durable: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Attaches a fault-injection handle for the `cache.evict-storm` site.
    /// A storm costs only re-solves: the store is an economy, never the
    /// source of truth, so it stays invisible to correctness — but not to
    /// the eviction counter, which is what chaos runs assert on.
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Recovering a poisoned guard is sound: nothing that runs under the
    /// lock can panic between the updates of `slots`, `order` and `bytes`.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, marking it most recently used.
    fn touch(&self, key: Key) -> Option<StoreMutation> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let stamp = inner.stamp();
        let slot = inner.slots.get_mut(&key)?;
        inner.order.remove(&slot.stamp);
        inner.order.insert(stamp, key);
        slot.stamp = stamp;
        Some(slot.entry.clone())
    }

    /// Looks up a module solve by content key (uncounted; sessions count).
    pub fn get_module(&self, key: u64) -> Option<Arc<ModuleEntry>> {
        match self.touch(Key::Module(key))? {
            StoreMutation::Module { entry, .. } => Some(entry),
            StoreMutation::Record { .. } => None,
        }
    }

    /// Inserts a module solve under its content key.
    pub fn put_module(&self, key: u64, entry: ModuleEntry) {
        self.insert(StoreMutation::Module {
            key,
            entry: Arc::new(entry),
        });
    }

    /// Looks up a certified response by [`record_key`].
    pub fn get_record(&self, key: u128) -> Option<Arc<SynthRecord>> {
        match self.touch(Key::Record(key))? {
            StoreMutation::Record { record, .. } => Some(record),
            StoreMutation::Module { .. } => None,
        }
    }

    /// Inserts a certified response under its [`record_key`].
    pub fn put_record(&self, key: u128, record: SynthRecord) {
        self.insert(StoreMutation::Record {
            key,
            record: Arc::new(record),
        });
    }

    /// Inserts (or replaces) one entry as the most recently used, evicting
    /// the least recently used entries until the byte bound holds. With a
    /// durable attachment the entry is journaled first; eviction writes no
    /// frame. An entry larger than the whole bound is not stored at all.
    pub fn insert(&self, entry: StoreMutation) {
        let payload = entry.payload();
        let bytes = payload.len();
        if bytes > self.max_bytes {
            return;
        }
        let durable = self.durable();
        let seq = durable.as_ref().and_then(|d| d.append(&payload).ok());
        let storm = self.faults.fire(site::CACHE_EVICT_STORM);
        let key = match &entry {
            StoreMutation::Module { key, .. } => Key::Module(*key),
            StoreMutation::Record { key, .. } => Key::Record(*key),
        };

        let mut evicted = 0u64;
        {
            let mut inner = self.lock();
            inner.remove(key);
            if storm {
                evicted += inner.slots.len() as u64;
                inner.slots.clear();
                inner.order.clear();
                inner.bytes = 0;
            }
            while inner.bytes + bytes > self.max_bytes {
                let Some(&victim) = inner.order.values().next() else {
                    break;
                };
                inner.remove(victim);
                evicted += 1;
            }
            let stamp = inner.stamp();
            inner.order.insert(stamp, key);
            inner.bytes += bytes;
            inner.slots.insert(
                key,
                Slot {
                    entry,
                    bytes,
                    stamp,
                },
            );
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if let (Some(d), Some(seq)) = (durable, seq) {
            d.applied(seq);
        }
    }

    /// Every resident entry, least recently used first. The payloads are
    /// shared `Arc`s cloned under the lock, so serialising them (a
    /// checkpoint) never holds it; restoring them in this order rebuilds
    /// the same recency order.
    pub fn entries(&self) -> Vec<StoreMutation> {
        let inner = self.lock();
        inner
            .order
            .values()
            .map(|key| inner.slots[key].entry.clone())
            .collect()
    }

    /// Attaches the write-ahead journal. Do this *after* restoring
    /// recovered state, so the replay itself is not re-journaled.
    pub fn attach_durable(&self, durable: Arc<DurableStore>) {
        *self.durable.lock().unwrap_or_else(PoisonError::into_inner) = Some(durable);
    }

    /// The durable attachment, if one was made.
    pub fn durable(&self) -> Option<Arc<DurableStore>> {
        self.durable
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of resident entries, modules and responses together.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded bytes of the resident entries; never above the bound.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Entries evicted to keep the byte bound (storms included).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Store-wide module-lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Store-wide module-lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One synthesis run's view of a [`SynthStore`]: shares the cache, tallies
/// its own hits and misses so callers can report per-run dirty counts even
/// with concurrent runs on the same store.
#[derive(Debug)]
pub struct StoreSession {
    store: Arc<SynthStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StoreSession {
    /// Opens a session on `store`.
    pub fn new(store: Arc<SynthStore>) -> Arc<StoreSession> {
        Arc::new(StoreSession {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Counted module lookup: bumps the session *and* store hit/miss
    /// counters.
    pub fn get_module(&self, key: u64) -> Option<Arc<ModuleEntry>> {
        let found = self.store.get_module(key);
        let (own, global) = if found.is_some() {
            (&self.hits, &self.store.hits)
        } else {
            (&self.misses, &self.store.misses)
        };
        own.fetch_add(1, Ordering::Relaxed);
        global.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a module solve (after a miss was solved for real).
    pub fn put_module(&self, key: u64, entry: ModuleEntry) {
        self.store.put_module(key, entry);
    }

    /// Module lookups this session that hit.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Module lookups this session that missed (modules solved for real —
    /// the run's *dirty* count).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Modules consulted this session (hits + misses).
    pub fn total(&self) -> u64 {
        self.hits() + self.misses()
    }
}

/// An optional store attachment for synthesis options.
///
/// Compares by identity (like `CancelToken` and `Faults` do), so two
/// default option values — both unattached — are still equal, and attaching
/// a store never makes two otherwise-equal option sets spuriously equal.
#[derive(Clone, Default)]
pub struct StoreLink(Option<Arc<StoreSession>>);

impl StoreLink {
    /// No store attached (the default).
    pub fn none() -> Self {
        StoreLink(None)
    }

    /// Attaches a session.
    pub fn to(session: Arc<StoreSession>) -> Self {
        StoreLink(Some(session))
    }

    /// The attached session, if any.
    pub fn session(&self) -> Option<&Arc<StoreSession>> {
        self.0.as_ref()
    }
}

impl PartialEq for StoreLink {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for StoreLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "StoreLink(attached)"
        } else {
            "StoreLink(none)"
        })
    }
}

/// The key of a certified response: the STG content digest in the high
/// 64 bits and the method tag in the low ones, so every (digest, method)
/// pair keys a distinct entry.
pub fn record_key(digest: u64, method_tag: u8) -> u128 {
    (u128::from(digest) << 64) | u128::from(method_tag)
}

/// The exact canonical rendering of a state graph used for module keys.
///
/// Signals, codes and edges are emitted **in storage order**, not sorted:
/// the SAT encoding's clause order — and with it the solver's decision
/// sequence and the model it returns — depends on that order, so two graphs
/// must be *indistinguishable to the solver* (not merely isomorphic) to
/// share a key. Equal text ⇒ equal data structure ⇒ a cached solution is
/// byte-for-byte what a fresh solve would produce.
pub fn graph_key_text(graph: &StateGraph) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(64 + 16 * graph.state_count());
    out.push_str("sg/v1\n");
    for meta in graph.signals() {
        let _ = writeln!(out, "s {} {}", meta.name, meta.kind);
    }
    let _ = writeln!(out, "i {}", graph.initial());
    for s in 0..graph.state_count() {
        let _ = writeln!(out, "c {:x}", graph.code(s));
    }
    for e in graph.edges() {
        match e.label {
            EdgeLabel::Signal { signal, polarity } => {
                let _ = writeln!(out, "e {} {} {}{}", e.from, e.to, signal, polarity);
            }
            EdgeLabel::Epsilon => {
                let _ = writeln!(out, "e {} {} ~", e.from, e.to);
            }
        }
    }
    out
}

/// Content key for one module solve: the exact graph rendering plus every
/// solver-relevant parameter (`fingerprint`: scope, name offset, solver
/// options — assembled by the caller, which knows its option type).
pub fn module_key(graph: &StateGraph, fingerprint: &str) -> u64 {
    let mut text = String::with_capacity(fingerprint.len() + 64);
    text.push_str("modsyn-store/module/v1\n");
    text.push_str(fingerprint);
    text.push('\n');
    text.push_str(&graph_key_text(graph));
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::benchmarks;

    fn entry(n: usize) -> ModuleEntry {
        ModuleEntry {
            assignments: Vec::new(),
            formulas: vec![crate::FormulaStat {
                state_signals: n,
                ..Default::default()
            }],
            provenance: Vec::new(),
        }
    }

    /// The encoded cost of `entry(n)` under module key `key`.
    fn cost(key: u64, n: usize) -> usize {
        StoreMutation::Module {
            key,
            entry: Arc::new(entry(n)),
        }
        .payload()
        .len()
    }

    fn record(body: &str) -> SynthRecord {
        SynthRecord {
            benchmark: "b".into(),
            inserted: vec![],
            provenance: vec![],
            body: body.into(),
        }
    }

    #[test]
    fn entries_are_point_in_time_copies_coldest_first() {
        let store = SynthStore::new();
        store.put_module(1, entry(1));
        let before = store.entries();
        store.put_module(2, entry(2));
        store.put_record(record_key(9, 0), record("{}"));
        store.get_module(1);
        let after = store.entries();

        assert_eq!(before.len(), 1);
        let keys: Vec<String> = after
            .iter()
            .map(|e| match e {
                StoreMutation::Module { key, .. } => format!("m{key}"),
                StoreMutation::Record { key, .. } => format!("r{}", key >> 64),
            })
            .collect();
        assert_eq!(keys, ["m2", "r9", "m1"], "least recently used first");
        // The copies share payload with the live store.
        match (&before[0], &after[2]) {
            (StoreMutation::Module { entry: a, .. }, StoreMutation::Module { entry: b, .. }) => {
                assert!(Arc::ptr_eq(a, b));
            }
            _ => panic!("module entries expected"),
        }
    }

    #[test]
    fn record_keys_separate_digest_and_method() {
        let d = 0x71fc_a33e_af8a_4b08_u64;
        // A key that XORed the tag into the digest would fold these two
        // pairs into one.
        assert_ne!(record_key(d, 1), record_key(d ^ 1, 0));
        assert_ne!(record_key(d, 0), record_key(d, 1));

        let store = SynthStore::new();
        store.put_record(record_key(d, 1), record("min-area"));
        assert!(store.get_record(record_key(d ^ 1, 0)).is_none());
        assert!(store.get_record(record_key(d, 0)).is_none());
        assert_eq!(store.get_record(record_key(d, 1)).unwrap().body, "min-area");
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let store = SynthStore::with_capacity(cost(1, 0) + cost(2, 0));
        store.put_module(1, entry(0));
        store.put_module(2, entry(0));
        // Touch 1 so 2 is the LRU victim.
        store.get_module(1);
        store.put_module(3, entry(0));
        assert!(store.get_module(1).is_some());
        assert!(store.get_module(2).is_none());
        assert!(store.get_module(3).is_some());
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn byte_budget_holds() {
        let one = cost(1, 0);
        let store = SynthStore::with_capacity(one + one / 2);
        store.put_module(1, entry(0));
        store.put_module(2, entry(0));
        assert!(store.bytes() <= one + one / 2, "bytes = {}", store.bytes());
        assert_eq!(store.len(), 1);
        // A value larger than the whole bound is refused outright, and
        // evicts nothing.
        store.put_record(record_key(3, 0), record(&"x".repeat(2 * one)));
        assert!(store.get_record(record_key(3, 0)).is_none());
        assert_eq!(store.len(), 1);
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let store = SynthStore::with_capacity(4096);
        store.put_record(record_key(1, 0), record(&"x".repeat(400)));
        store.put_record(record_key(1, 0), record("y"));
        assert_eq!(store.len(), 1);
        let small = StoreMutation::Record {
            key: record_key(1, 0),
            record: Arc::new(record("y")),
        };
        assert_eq!(store.bytes(), small.payload().len());
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn an_eviction_storm_evicts_every_entry_but_stays_correct() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let faults = FaultPlan::new("storm", 7)
            .rule(FaultRule::at(site::CACHE_EVICT_STORM).skip(2).times(1))
            .arm();
        let store = SynthStore::with_capacity(1 << 20).with_faults(faults.clone());
        store.put_module(1, entry(1));
        store.put_record(record_key(2, 0), record("{}"));
        // The storm fires on this insert: both prior entries are dumped,
        // the new one still lands, and lookups stay consistent.
        store.put_module(3, entry(3));
        assert_eq!(faults.total_injected(), 1);
        assert_eq!(store.evictions(), 2);
        assert!(store.get_module(1).is_none());
        assert!(store.get_record(record_key(2, 0)).is_none());
        assert_eq!(*store.get_module(3).unwrap(), entry(3));
        assert_eq!(store.bytes(), cost(3, 3));
    }

    #[test]
    fn sessions_tally_hits_and_misses_independently() {
        let store = Arc::new(SynthStore::new());
        let a = StoreSession::new(store.clone());
        assert!(a.get_module(5).is_none());
        a.put_module(5, entry(5));
        assert!(a.get_module(5).is_some());
        assert_eq!((a.hits(), a.misses()), (1, 1));

        let b = StoreSession::new(store.clone());
        assert!(b.get_module(5).is_some());
        assert_eq!((b.hits(), b.misses()), (1, 0));
        assert_eq!((store.hits(), store.misses()), (2, 1));
        assert_eq!(b.total(), 1);
    }

    #[test]
    fn store_link_compares_by_identity() {
        let store = Arc::new(SynthStore::new());
        let s = StoreSession::new(store);
        assert_eq!(StoreLink::none(), StoreLink::default());
        assert_eq!(StoreLink::to(s.clone()), StoreLink::to(s.clone()));
        let other = StoreSession::new(Arc::new(SynthStore::new()));
        assert_ne!(StoreLink::to(s.clone()), StoreLink::to(other));
        assert_ne!(StoreLink::to(s), StoreLink::none());
    }

    #[test]
    fn graph_key_text_is_exact_not_isomorphic() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let text = graph_key_text(&sg);
        assert_eq!(text, graph_key_text(&sg.clone()));
        assert_eq!(
            module_key(&sg, "scope=all offset=0"),
            module_key(&sg, "scope=all offset=0"),
        );
        assert_ne!(
            module_key(&sg, "scope=all offset=0"),
            module_key(&sg, "scope=all offset=1"),
            "fingerprint must separate keys"
        );
        // A different graph (another benchmark) keys differently.
        let other = derive(&benchmarks::vbe_ex2(), &DeriveOptions::default()).unwrap();
        assert_ne!(
            module_key(&sg, "scope=all offset=0"),
            module_key(&other, "scope=all offset=0"),
        );
    }
}
