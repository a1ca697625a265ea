//! Histories: the formal objects of the paper's §2.1 and §2.3.
//!
//! An execution is a finite sequence of call and return events; a *stuck*
//! history additionally ends with the symbol `#`, meaning none of its
//! pending operations can complete (deadlock, livelock, divergence).

use crate::target::Invocation;
use crate::value::Value;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Index of an operation within a [`History`].
pub type OpIndex = usize;

/// One event of a history: a call or a return, referring to an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Invocation of the operation with the given index.
    Call(OpIndex),
    /// Response of the operation with the given index.
    Return(OpIndex),
}

/// One operation of a history: an invocation and, if complete, the next
/// matching response (paper §2.1.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    /// The thread performing the operation.
    pub thread: usize,
    /// The invocation (name and arguments).
    pub invocation: Invocation,
    /// The response value; `None` while pending.
    pub response: Option<Value>,
    /// Position of the call event in the event sequence.
    pub call_pos: usize,
    /// Position of the matching return event, if complete.
    pub return_pos: Option<usize>,
}

impl Operation {
    /// Whether the operation completed (has a response).
    pub fn is_complete(&self) -> bool {
        self.response.is_some()
    }
}

/// A (well-formed, single-object) history: a sequence of call/return
/// events, possibly stuck.
///
/// The paper's `H|t` (thread subhistory), `<H` (precedence order),
/// `complete(H)` and pending-call notions are all methods here.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct History {
    /// Number of threads of the test that produced this history.
    pub thread_count: usize,
    /// The operations, in call order.
    pub ops: Vec<Operation>,
    /// The event sequence.
    pub events: Vec<Event>,
    /// True when the history is stuck (ends with `#`): at least one
    /// pending operation that can never complete (paper §2.3).
    pub stuck: bool,
}

impl History {
    /// Builds a history incrementally; used by the harness recorder.
    pub fn new(thread_count: usize) -> Self {
        History {
            thread_count,
            ..History::default()
        }
    }

    /// An empty history with room for `ops` operations and their events.
    pub(crate) fn with_capacity(thread_count: usize, ops: usize) -> Self {
        History {
            thread_count,
            ops: Vec::with_capacity(ops),
            events: Vec::with_capacity(2 * ops),
            stuck: false,
        }
    }

    /// Appends a call event, returning the new operation's index.
    pub fn push_call(&mut self, thread: usize, invocation: Invocation) -> OpIndex {
        let idx = self.ops.len();
        self.ops.push(Operation {
            thread,
            invocation,
            response: None,
            call_pos: self.events.len(),
            return_pos: None,
        });
        self.events.push(Event::Call(idx));
        idx
    }

    /// Appends the matching return event for `op`.
    ///
    /// # Panics
    ///
    /// Panics if the operation already returned.
    pub fn push_return(&mut self, op: OpIndex, response: Value) {
        assert!(self.ops[op].response.is_none(), "operation returned twice");
        self.ops[op].return_pos = Some(self.events.len());
        self.ops[op].response = Some(response);
        self.events.push(Event::Return(op));
    }

    /// Whether the history is complete: no pending calls (paper §2.1.1).
    pub fn is_complete(&self) -> bool {
        self.ops.iter().all(Operation::is_complete)
    }

    /// Indexes of the pending operations.
    pub fn pending_ops(&self) -> Vec<OpIndex> {
        (0..self.ops.len())
            .filter(|&i| !self.ops[i].is_complete())
            .collect()
    }

    /// Indexes of the complete operations.
    pub fn complete_ops(&self) -> Vec<OpIndex> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].is_complete())
            .collect()
    }

    /// The precedence order `<H` (paper §2.1.3): `e1 <H e2` iff the
    /// response of `e1` precedes the invocation of `e2` in the history.
    pub fn precedes(&self, e1: OpIndex, e2: OpIndex) -> bool {
        match self.ops[e1].return_pos {
            Some(r) => r < self.ops[e2].call_pos,
            None => false,
        }
    }

    /// Whether two operations overlap (neither precedes the other).
    pub fn overlapping(&self, e1: OpIndex, e2: OpIndex) -> bool {
        !self.precedes(e1, e2) && !self.precedes(e2, e1)
    }

    /// The thread subhistory `H|t`: this thread's operations in call order
    /// (which, by well-formedness, is also return order).
    pub fn thread_ops(&self, thread: usize) -> Vec<OpIndex> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].thread == thread)
            .collect()
    }

    /// Whether the history is serial: calls and returns alternate, each
    /// return matching the immediately preceding call (paper §2.1.1). A
    /// stuck serial history may end with one unmatched call.
    pub fn is_serial(&self) -> bool {
        let mut open: Option<OpIndex> = None;
        for ev in &self.events {
            match *ev {
                Event::Call(i) => {
                    if open.is_some() {
                        return false;
                    }
                    open = Some(i);
                }
                Event::Return(i) => {
                    if open != Some(i) {
                        return false;
                    }
                    open = None;
                }
            }
        }
        // A trailing open call is allowed only in stuck histories.
        open.is_none() || self.stuck
    }

    /// Whether the history is well-formed: per-thread subhistories are
    /// serial (paper §2.1.1).
    pub fn is_well_formed(&self) -> bool {
        (0..self.thread_count).all(|t| {
            let mut open = false;
            for ev in &self.events {
                let op = match *ev {
                    Event::Call(i) => i,
                    Event::Return(i) => i,
                };
                if self.ops[op].thread != t {
                    continue;
                }
                match *ev {
                    Event::Call(_) => {
                        if open {
                            return false;
                        }
                        open = true;
                    }
                    Event::Return(_) => {
                        if !open {
                            return false;
                        }
                        open = false;
                    }
                }
            }
            true
        })
    }

    /// Returns a copy of the history with the given operations removed,
    /// together with the index mapping (old op index → new op index).
    ///
    /// Used by the spurious-failure extension: an operation declared "may
    /// fail on interference" whose failed response overlaps another
    /// operation is deleted before witness search, implementing
    /// linearizability with respect to the specification closed under
    /// such spurious failures (the paper's future-work item on
    /// nondeterministic methods).
    pub fn without_ops(
        &self,
        remove: &std::collections::BTreeSet<OpIndex>,
    ) -> (History, Vec<Option<OpIndex>>) {
        let mut out = History::new(self.thread_count);
        out.stuck = self.stuck;
        let mut map: Vec<Option<OpIndex>> = vec![None; self.ops.len()];
        for ev in &self.events {
            match *ev {
                Event::Call(i) => {
                    if !remove.contains(&i) {
                        let new = out.push_call(self.ops[i].thread, self.ops[i].invocation.clone());
                        map[i] = Some(new);
                    }
                }
                Event::Return(i) => {
                    if let Some(new) = map[i] {
                        out.push_return(
                            new,
                            self.ops[i]
                                .response
                                .clone()
                                .expect("return event implies a response"),
                        );
                    }
                }
            }
        }
        (out, map)
    }

    /// Renders the interleaving in the paper's Fig. 7 notation: `i[` for
    /// the call and `]i` for the return of operation `i`, with operations
    /// numbered 1-based in thread-major order (thread A's operations
    /// first), a trailing `#` for stuck histories.
    pub fn interleaving_string(&self) -> String {
        let numbers = self.fig7_numbers();
        let mut out = String::new();
        for ev in &self.events {
            if !out.is_empty() {
                out.push(' ');
            }
            match *ev {
                Event::Call(i) => out.push_str(&format!("{}[", numbers[i])),
                Event::Return(i) => out.push_str(&format!("]{}", numbers[i])),
            }
        }
        if self.stuck {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push('#');
        }
        out
    }

    /// Operation numbers in the paper's Fig. 7 convention: 1-based,
    /// thread-major (all of thread 0's operations, then thread 1's, …).
    pub fn fig7_numbers(&self) -> Vec<usize> {
        let mut numbers = vec![0usize; self.ops.len()];
        let mut next = 1;
        for t in 0..self.thread_count {
            for i in self.thread_ops(t) {
                numbers[i] = next;
                next += 1;
            }
        }
        numbers
    }

    /// The thread label used in reports: A, B, C, … (paper Fig. 2).
    pub fn thread_label(thread: usize) -> String {
        let mut n = thread;
        let mut label = String::new();
        loop {
            label.insert(0, (b'A' + (n % 26) as u8) as char);
            if n < 26 {
                break;
            }
            n = n / 26 - 1;
        }
        label
    }
}

/// A sharded history-keyed verdict cache: the one duplicate-history cache
/// shared by phase-2 checking (`check`), the stress runner, and the
/// monitoring server's shards.
///
/// Callers key it on the *canonical* form of each history
/// ([`SymmetryGroups::canonicalize`](crate::SymmetryGroups::canonicalize)),
/// so a cached verdict covers the history's whole symmetry class: phase 2
/// computes one monitor verdict per class instead of one per renaming.
/// With empty symmetry groups canonicalization is the identity and the
/// cache degenerates to the raw duplicate-history cache the stress bin
/// originally grew.
///
/// Each `get` and `insert_if_absent` hashes the history once, with a keyed
/// [`RandomState`] so that hostile server streams cannot aim histories at
/// one bucket. That one hash picks the shard and keys the shard's map;
/// full-history equality still decides a hit.
///
/// Sharded by history hash so parallel workers rarely contend on one
/// mutex; single-threaded consumers simply use one shard. Hits (a `get`
/// that found an entry) are counted across all shards for the
/// `phase2_cache_hits` statistics.
#[derive(Debug)]
pub struct HistoryCache<V, S = RandomState> {
    shards: Vec<Mutex<Shard<V>>>,
    hasher: S,
    hits: AtomicU64,
}

/// One shard's map from keyed hash to the histories with that hash.
type Shard<V> = HashMap<u64, Slot<V>, BuildHasherDefault<HashIsKey>>;

/// The cached histories of one hash value. Two histories share a 64-bit
/// keyed hash only by accident, so a slot holds one entry inline and
/// allocates a list only on such a collision.
#[derive(Debug)]
enum Slot<V> {
    One(History, V),
    Colliding(Vec<(History, V)>),
}

impl<V> Slot<V> {
    fn get(&self, key: &History) -> Option<&V> {
        match self {
            Slot::One(h, v) => (h == key).then_some(v),
            Slot::Colliding(entries) => entries.iter().find(|(h, _)| h == key).map(|(_, v)| v),
        }
    }

    fn push(&mut self, key: History, verdict: V) {
        let entries = match std::mem::replace(self, Slot::Colliding(Vec::new())) {
            Slot::One(h, v) => vec![(h, v), (key, verdict)],
            Slot::Colliding(mut entries) => {
                entries.push((key, verdict));
                entries
            }
        };
        *self = Slot::Colliding(entries);
    }

    fn len(&self) -> usize {
        match self {
            Slot::One(..) => 1,
            Slot::Colliding(entries) => entries.len(),
        }
    }
}

/// The hasher of a shard's map, whose keys are already hashes: it passes
/// the `u64` key through.
#[derive(Debug, Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps hash only their u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl<V: Clone> HistoryCache<V> {
    /// Shard count used by parallel consumers: comfortably more than the
    /// worker counts in play, so two workers rarely map to one mutex.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a cache with the given number of shards (at least 1).
    pub fn new(shards: usize) -> Self {
        Self::with_hasher(shards, RandomState::new())
    }
}

impl<V: Clone, S: BuildHasher> HistoryCache<V, S> {
    fn with_hasher(shards: usize, hasher: S) -> Self {
        HistoryCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            hasher,
            hits: AtomicU64::new(0),
        }
    }

    /// The history's hash and the locked shard it selects. The shard comes
    /// from the hash's upper half; the shard's map buckets by the lower
    /// bits and tags by the top seven, which the choice leaves varied.
    fn locate(&self, key: &History) -> (u64, MutexGuard<'_, Shard<V>>) {
        let hash = self.hasher.hash_one(key);
        let shard = &self.shards[(hash >> 32) as usize % self.shards.len()];
        (hash, shard.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Looks up a verdict by (canonical) history key, counting a hit when
    /// one is found.
    pub fn get(&self, key: &History) -> Option<V> {
        let (hash, shard) = self.locate(key);
        let found = shard.get(&hash).and_then(|slot| slot.get(key)).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts a verdict unless another consumer beat us to it; returns
    /// the verdict now in the cache and whether this call inserted it.
    /// The first-wins discipline keeps concurrent workers agreeing on one
    /// verdict per class even if they raced to compute it.
    pub fn insert_if_absent(&self, key: &History, verdict: V) -> (V, bool) {
        let (hash, mut shard) = self.locate(key);
        match shard.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(Slot::One(key.clone(), verdict.clone()));
                (verdict, true)
            }
            Entry::Occupied(mut slot) => match slot.get().get(key) {
                Some(existing) => (existing.clone(), false),
                None => {
                    slot.get_mut().push(key.clone(), verdict.clone());
                    (verdict, true)
                }
            },
        }
    }

    /// Total `get` hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct (canonical) histories cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(|e| e.into_inner());
                shard.values().map(Slot::len).sum::<usize>()
            })
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ev in &self.events {
            match *ev {
                Event::Call(i) => {
                    let op = &self.ops[i];
                    writeln!(
                        f,
                        "(call  {} {})",
                        op.invocation,
                        History::thread_label(op.thread)
                    )?;
                }
                Event::Return(i) => {
                    let op = &self.ops[i];
                    writeln!(
                        f,
                        "(ret   {} = {} {})",
                        op.invocation,
                        op.response.as_ref().expect("returned op has response"),
                        History::thread_label(op.thread)
                    )?;
                }
            }
        }
        if self.stuck {
            writeln!(f, "#")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Invocation;

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    /// Builds the Fig. 2 history of the paper:
    /// (c set(0) A)(c get B)(c ok A)(c inc A)(c ok(0) B)(c get B)(c ok A)(c ok(1) B)
    fn fig2_history() -> History {
        let mut h = History::new(2);
        let set0 = h.push_call(0, Invocation::with_int("set", 0));
        let get1 = h.push_call(1, inv("get"));
        h.push_return(set0, Value::Unit);
        let inc = h.push_call(0, inv("inc"));
        h.push_return(get1, Value::Int(0));
        let get2 = h.push_call(1, inv("get"));
        h.push_return(inc, Value::Unit);
        h.push_return(get2, Value::Int(1));
        h
    }

    #[test]
    fn fig2_is_well_formed_and_complete() {
        let h = fig2_history();
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        assert!(!h.is_serial());
        assert_eq!(h.pending_ops(), Vec::<usize>::new());
        assert_eq!(h.complete_ops().len(), 4);
    }

    #[test]
    fn fig2_thread_subhistories() {
        let h = fig2_history();
        assert_eq!(h.thread_ops(0).len(), 2); // set(0), inc
        assert_eq!(h.thread_ops(1).len(), 2); // get, get
    }

    #[test]
    fn precedence_order() {
        let h = fig2_history();
        // set(0) returns before inc is called.
        assert!(h.precedes(0, 2));
        // set(0) overlaps the first get (call of get precedes return of set).
        assert!(h.overlapping(0, 1));
        // first get overlaps inc.
        assert!(h.overlapping(1, 2));
        // irreflexive
        assert!(!h.precedes(0, 0));
    }

    #[test]
    fn serial_history_recognized() {
        let mut h = History::new(2);
        let a = h.push_call(0, inv("inc"));
        h.push_return(a, Value::Unit);
        let b = h.push_call(1, inv("get"));
        h.push_return(b, Value::Int(1));
        assert!(h.is_serial());
        assert!(h.is_well_formed());
    }

    #[test]
    fn stuck_serial_history_allows_trailing_call() {
        let mut h = History::new(1);
        let a = h.push_call(0, inv("inc"));
        h.push_return(a, Value::Unit);
        h.push_call(0, inv("dec"));
        h.stuck = true;
        assert!(h.is_serial());
        assert!(!h.is_complete());
        assert_eq!(h.pending_ops(), vec![1]);
    }

    #[test]
    fn incomplete_nonstuck_is_not_serial() {
        let mut h = History::new(1);
        h.push_call(0, inv("inc"));
        assert!(!h.is_serial());
    }

    #[test]
    fn interleaving_string_fig7() {
        // Thread A: op1; thread B: op2. A calls, B calls, A returns, B returns.
        let mut h = History::new(2);
        let a = h.push_call(0, Invocation::with_int("Add", 200));
        let b = h.push_call(1, inv("TryTake"));
        h.push_return(a, Value::Unit);
        h.push_return(b, Value::Fail);
        assert_eq!(h.interleaving_string(), "1[ 2[ ]1 ]2");
    }

    #[test]
    fn interleaving_string_stuck() {
        let mut h = History::new(1);
        h.push_call(0, inv("Take"));
        h.stuck = true;
        assert_eq!(h.interleaving_string(), "1[ #");
    }

    #[test]
    fn fig7_numbers_are_thread_major() {
        // Thread B's op called first, but numbering is thread-major.
        let mut h = History::new(2);
        let b = h.push_call(1, inv("x"));
        h.push_return(b, Value::Unit);
        let a = h.push_call(0, inv("y"));
        h.push_return(a, Value::Unit);
        let numbers = h.fig7_numbers();
        assert_eq!(numbers[b], 2);
        assert_eq!(numbers[a], 1);
    }

    #[test]
    fn thread_labels() {
        assert_eq!(History::thread_label(0), "A");
        assert_eq!(History::thread_label(1), "B");
        assert_eq!(History::thread_label(25), "Z");
        assert_eq!(History::thread_label(26), "AA");
    }

    #[test]
    #[should_panic(expected = "returned twice")]
    fn double_return_panics() {
        let mut h = History::new(1);
        let a = h.push_call(0, inv("x"));
        h.push_return(a, Value::Unit);
        h.push_return(a, Value::Unit);
    }

    #[test]
    fn without_ops_removes_and_remaps() {
        // H: a (complete), b (complete), c (pending); drop b.
        let mut h = History::new(3);
        let a = h.push_call(0, inv("a"));
        let b = h.push_call(1, inv("b"));
        h.push_return(a, Value::Int(1));
        h.push_return(b, Value::Int(2));
        let _c = h.push_call(2, inv("c"));
        h.stuck = true;

        let mut remove = std::collections::BTreeSet::new();
        remove.insert(b);
        let (reduced, map) = h.without_ops(&remove);
        assert_eq!(reduced.ops.len(), 2);
        assert!(reduced.stuck);
        assert_eq!(map[a], Some(0));
        assert_eq!(map[b], None);
        assert_eq!(map[2], Some(1));
        assert!(reduced.is_well_formed());
        assert_eq!(reduced.ops[0].invocation.name, "a");
        assert_eq!(reduced.ops[1].invocation.name, "c");
        assert!(!reduced.ops[1].is_complete());
    }

    #[test]
    fn without_ops_preserves_event_order() {
        // Overlap: a calls, b calls, a returns, b returns; drop a.
        let mut h = History::new(2);
        let a = h.push_call(0, inv("a"));
        let b = h.push_call(1, inv("b"));
        h.push_return(a, Value::Unit);
        h.push_return(b, Value::Unit);
        let mut remove = std::collections::BTreeSet::new();
        remove.insert(a);
        let (reduced, _) = h.without_ops(&remove);
        assert_eq!(reduced.events.len(), 2);
        assert!(reduced.is_serial());
    }

    #[test]
    fn without_empty_set_is_identity() {
        let h = fig2_history();
        let (same, map) = h.without_ops(&std::collections::BTreeSet::new());
        assert_eq!(same, h);
        assert!(map.iter().enumerate().all(|(i, m)| *m == Some(i)));
    }

    #[test]
    fn history_cache_counts_hits_and_first_insert_wins() {
        let cache: HistoryCache<bool> = HistoryCache::new(4);
        let mut h = History::new(1);
        let a = h.push_call(0, inv("x"));
        h.push_return(a, Value::Unit);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&h), None);
        assert_eq!(cache.hits(), 0, "a miss is not a hit");
        let (v, inserted) = cache.insert_if_absent(&h, true);
        assert!(v && inserted);
        let (v, inserted) = cache.insert_if_absent(&h, false);
        assert!(v, "first verdict wins");
        assert!(!inserted);
        assert_eq!(cache.get(&h), Some(true));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn history_cache_distinguishes_histories() {
        let cache: HistoryCache<u32> = HistoryCache::new(1);
        let mut h1 = History::new(1);
        let a = h1.push_call(0, inv("x"));
        h1.push_return(a, Value::Int(1));
        let mut h2 = History::new(1);
        let a = h2.push_call(0, inv("x"));
        h2.push_return(a, Value::Int(2));
        cache.insert_if_absent(&h1, 10);
        cache.insert_if_absent(&h2, 20);
        assert_eq!(cache.get(&h1), Some(10));
        assert_eq!(cache.get(&h2), Some(20));
        assert_eq!(cache.len(), 2);
    }

    /// Histories `x() = v` for `v` in `values`, on one thread.
    fn histories(values: std::ops::Range<i64>) -> Vec<History> {
        values
            .map(|v| {
                let mut h = History::new(1);
                let a = h.push_call(0, inv("x"));
                h.push_return(a, Value::Int(v));
                h
            })
            .collect()
    }

    #[test]
    fn history_cache_shard_count_changes_nothing() {
        let one: HistoryCache<i64> = HistoryCache::new(1);
        let many: HistoryCache<i64> = HistoryCache::new(HistoryCache::<i64>::DEFAULT_SHARDS);
        let hs = histories(0..64);
        for cache in [&one, &many] {
            for (v, h) in hs.iter().enumerate().step_by(2) {
                cache.insert_if_absent(h, v as i64);
            }
            for (v, h) in hs.iter().enumerate() {
                cache.insert_if_absent(h, -(v as i64));
            }
        }
        for h in &hs {
            assert_eq!(one.get(h), many.get(h));
        }
        assert_eq!(one.hits(), many.hits());
        assert_eq!(one.hits(), 64);
        assert_eq!(one.len(), many.len());
        assert_eq!(one.len(), 64);
    }

    /// A hasher that sends every history to one hash value.
    #[derive(Default)]
    struct Collide;

    impl Hasher for Collide {
        fn finish(&self) -> u64 {
            0x5eed
        }

        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn history_cache_keeps_colliding_histories_apart() {
        for shards in [1, 4] {
            let cache: HistoryCache<i64, BuildHasherDefault<Collide>> =
                HistoryCache::with_hasher(shards, BuildHasherDefault::default());
            let hs = histories(0..3);
            for (v, h) in hs.iter().enumerate() {
                assert_eq!(cache.get(h), None);
                assert_eq!(cache.insert_if_absent(h, v as i64), (v as i64, true));
            }
            for (v, h) in hs.iter().enumerate() {
                assert_eq!(cache.insert_if_absent(h, 99), (v as i64, false));
                assert_eq!(cache.get(h), Some(v as i64));
            }
            assert_eq!(cache.get(&histories(3..4)[0]), None);
            assert_eq!(cache.hits(), 3);
            assert_eq!(cache.len(), 3);
        }
    }

    #[test]
    fn display_renders_events() {
        let h = fig2_history();
        let s = h.to_string();
        assert!(s.contains("(call  set(0) A)"));
        assert!(s.contains("(ret   get() = 1 B)"));
    }
}
