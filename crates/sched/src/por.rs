//! Dynamic partial-order reduction (sleep sets + happens-before
//! backtracking) for the phase-2 exploration.
//!
//! Two schedules that differ only in the order of *non-conflicting*
//! transitions are Mazurkiewicz-equivalent: they drive the program through
//! the same sequence of per-object states and produce the identical
//! call/return history, so Line-Up's phase 2 — which only needs the set of
//! *distinct* observations — can soundly explore one representative per
//! equivalence class. This module implements the two classic ingredients:
//!
//! * **Sleep sets** (Godefroid): after fully exploring thread `t` from a
//!   schedule point, `t` is put to sleep while the siblings are explored,
//!   and wakes only when an executed transition *conflicts* with `t`'s
//!   pending transition. A run whose every candidate is asleep is pruned
//!   ([`RunOutcome::Pruned`](crate::RunOutcome)).
//! * **DPOR backtracking** (Flanagan–Godefroid, POPL 2005): each run tracks
//!   happens-before with per-thread vector clocks; when a transition
//!   conflicts with an earlier, causally-unordered transition of another
//!   thread, the schedule point where that earlier transition was chosen
//!   gains a *backtrack point* so the reversed order is also explored. The
//!   serial DFS only expands candidates demanded by a backtrack point
//!   (plus the initial choice), which skips whole redundant subtrees.
//!
//! Transitions here are the baton intervals of the cooperative runtime:
//! everything a thread does between two schedule points. A transition's
//! *footprint* (the accesses it actually performed, recorded via
//! [`note_effect`](crate::state)) decides conflicts with the *pending*
//! declarations of sleeping threads (the object each parked thread will
//! touch next, declared at its schedule point). Where the next transition
//! of a thread is not fully predictable — timed waits that mutate wait
//! sets on timeout, transitions that append to the Line-Up history — the
//! declaration is conservative, trading pruning power for soundness.

use crate::events::AccessKind;
use crate::ids::ObjId;

/// Maximum number of virtual threads when partial-order reduction is
/// active: sleep and backtrack sets are `u64` bitmasks over thread ids.
pub const MAX_POR_THREADS: usize = 64;

/// Pseudo-object key under which Line-Up history appends (see
/// [`mark_history_event`](crate::runtime::mark_history_event)) are
/// tracked: the history is an ordered observation, so any two appends
/// conflict like two writes to one object.
pub(crate) const MARK_KEY: u32 = u32::MAX;

/// A vector clock over the (dense) thread ids of one execution.
///
/// Used by the race/serializability checkers in `lineup-checkers`. The
/// DPOR bookkeeping here keeps its clocks as rows of flat arrays instead
/// (see `PorRun`); this type serves it only as the test reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.0.len() <= n {
            self.0.resize(n + 1, 0);
        }
    }

    /// Advances this clock's component for thread `t` by one.
    pub fn tick(&mut self, t: usize) {
        self.ensure(t);
        self.0[t] += 1;
    }

    /// This clock's component for thread `t` (0 when never ticked).
    pub fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        self.ensure(other.0.len().saturating_sub(1));
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Whether the epoch `(thread, time)` is ordered before this clock.
    pub fn covers(&self, thread: usize, time: u64) -> bool {
        self.get(thread) >= time
    }

    /// Resets every component to zero, keeping the allocation (clear-and-
    /// reuse across runs).
    pub fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// Declared intent of the access behind a schedule point: whether the
/// primitive operation about to run only reads its object or may write it.
/// Declared via [`schedule_access`](crate::runtime::schedule_access); the
/// conservative default ([`schedule`](crate::runtime::schedule)) is
/// [`AccessIntent::Write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessIntent {
    /// The operation reads the object and leaves it unchanged (atomic /
    /// volatile loads, plain data reads).
    Read,
    /// The operation may mutate the object (stores, RMWs, lock and monitor
    /// operations — lock ops mutate wait sets even when they fail).
    Write,
}

/// What a parked thread will do when next scheduled, declared at its
/// schedule point. This is the sleeping side of the conflict relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Pending {
    /// Parked at `schedule_access(obj, intent)`: the next transition
    /// performs that access (and possibly appends to the history, which
    /// the conflict rule accounts for separately).
    Obj { obj: u32, write: bool },
    /// Parked at a yield or operation boundary, not yet started, or
    /// resumed from an untimed block: the next transition touches no model
    /// object (it may still append to the history).
    #[default]
    NoObj,
    /// Parked in a timed block: if the modelled timeout fires, the thread
    /// mutates wait sets and runs arbitrary recovery code without a
    /// declared object. Conflicts with anything non-pure.
    Unknown,
}

/// The accumulated effects of one transition (one baton interval), reset
/// at every scheduling decision.
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// `(object, is_write)` for every logged access to a real object.
    pub accesses: Vec<(u32, bool)>,
    /// Line-Up history appends performed in this transition.
    pub marks: u32,
    /// Threads this transition unblocked.
    pub woke: Vec<usize>,
    /// True when the transition ended in a yield (it touches the fair-
    /// scheduling state, so it is conservatively dependent on everything)
    /// or started from an [`Pending::Unknown`] declaration.
    pub wildcard: bool,
    /// The declared intent of the thread that ran this transition, used as
    /// a fallback when the primitive logged nothing (e.g. a failed lock
    /// acquire mutates the wait set without an access-log entry).
    pub declared: Pending,
}

impl Footprint {
    /// Empties the footprint in place, retaining its buffers for the next
    /// transition.
    fn clear(&mut self) {
        self.accesses.clear();
        self.marks = 0;
        self.woke.clear();
        self.wildcard = false;
        self.declared = Pending::NoObj;
    }

    fn is_pure(&self) -> bool {
        self.accesses.is_empty() && self.marks == 0 && self.woke.is_empty() && !self.wildcard
    }

    /// Whether this (finalized) footprint conflicts with the pending
    /// transition of a sleeping thread. Conservative in both directions:
    /// history appends conflict with every pending (any resumed operation
    /// may append its call/return next), and wildcards conflict with
    /// everything.
    fn conflicts(&self, pending: Pending) -> bool {
        if self.wildcard || self.marks > 0 {
            return true;
        }
        match pending {
            Pending::Obj { obj, write } => {
                self.accesses.iter().any(|&(o, w)| o == obj && (w || write))
            }
            Pending::NoObj => false,
            Pending::Unknown => !self.is_pure(),
        }
    }
}

/// The last recorded access of one kind to one object: who did it, at
/// which schedule-tree node they were chosen, and their clock after it.
/// The clock lives in the run's snapshot arena ([`PorRun::snaps`]); every
/// record of one transition shares its snapshot.
#[derive(Debug, Clone, Copy)]
struct Rec {
    thread: usize,
    /// The strategy-tree node at which `thread` was chosen for the
    /// transition performing this access; `None` when the transition was
    /// forced (singleton candidate) or chosen inside a replayed prefix.
    node: Option<usize>,
    /// `thread`'s own component of the snapshot: the epoch of this access.
    epoch: u64,
    /// Index of the transition's clock snapshot in the arena.
    snap: usize,
}

#[derive(Debug, Default)]
struct ObjRecords {
    last_write: Option<Rec>,
    /// Last read per thread since the last write.
    reads: Vec<Rec>,
}

impl ObjRecords {
    /// Forgets the records, keeping the read list's allocation.
    fn clear(&mut self) {
        self.last_write = None;
        self.reads.clear();
    }
}

/// A backtrack demand produced while finalizing a transition: thread
/// `thread` must also be tried at strategy-tree node `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BacktrackDemand {
    pub node: usize,
    pub thread: usize,
}

/// Per-run partial-order-reduction state.
///
/// Every buffer is kept across the runs of an exploration, so after the
/// first few runs a schedule point allocates nothing: clocks are rows of
/// one flat array, transition clocks are snapshots in a per-run arena that
/// records point into by index, and object records sit in a table indexed
/// by the dense per-run object id.
#[derive(Debug, Default)]
pub(crate) struct PorRun {
    /// Sleep set: bitmask of threads whose exploration from the current
    /// state is redundant.
    pub sleep: u64,
    /// Number of threads of the current run: the stride of `clocks` and
    /// `snaps`.
    threads: usize,
    /// Per-thread vector clocks, row `t` at `t * threads`.
    clocks: Vec<u64>,
    /// Clock snapshots of this run's transitions, one row each; a [`Rec`]
    /// names its row by index. Cleared, not freed, by [`PorRun::reset`].
    snaps: Vec<u64>,
    /// Records per model object, indexed by its dense per-run id.
    objects: Vec<ObjRecords>,
    /// Records of the history pseudo-object [`MARK_KEY`].
    marks: ObjRecords,
    last_wildcard: Option<Rec>,
    /// The strategy-tree node at which the current transition's thread was
    /// chosen (`None` for forced transitions).
    pub cur_node: Option<usize>,
    /// The footprint of the transition currently executing.
    pub foot: Footprint,
    /// Declared pending transition per thread.
    pub pending: Vec<Pending>,
    /// Per-decision sleep additions, parallel to the run's `decisions`;
    /// shipped with stolen subtree prefixes so parallel workers inherit
    /// the sleep sets a serial DFS would have at the subtree root.
    pub slept_log: Vec<u64>,
    /// The demands of the last finished transition (recycled buffer).
    demands: Vec<BacktrackDemand>,
    /// The clock of the transition being finished (recycled buffer).
    clock: Vec<u64>,
}

fn bit(t: usize) -> u64 {
    1u64 << t
}

/// Whether a logged access mutates its object *for conflict purposes*.
/// Broader than [`AccessKind::is_write`]: lock and monitor operations
/// mutate owner/wait-set state even though the race detector does not
/// treat them as data writes, so two of them on the same object must be
/// ordered for DPOR to explore both orders (e.g. the ABBA deadlock).
fn mutates(kind: AccessKind) -> bool {
    kind.is_write()
        || matches!(
            kind,
            AccessKind::LockAcquire
                | AccessKind::LockRelease
                | AccessKind::MonitorWait
                | AccessKind::MonitorPulse { .. }
        )
}

/// A dependent record met by the transition being finished: demand a
/// backtrack where its thread was chosen (unless the record is already
/// ordered before `clock`) and join its snapshot into `clock`.
fn meet(rec: &Rec, p: usize, snaps: &[u64], clock: &mut [u64], demands: &mut Vec<BacktrackDemand>) {
    if rec.thread != p && clock[rec.thread] < rec.epoch {
        if let Some(node) = rec.node {
            demands.push(BacktrackDemand { node, thread: p });
        }
    }
    let n = clock.len();
    join(clock, &snaps[rec.snap * n..(rec.snap + 1) * n]);
}

/// Pointwise maximum of two clocks of one run, into `clock`.
fn join(clock: &mut [u64], other: &[u64]) {
    for (c, &o) in clock.iter_mut().zip(other) {
        if *c < o {
            *c = o;
        }
    }
}

impl PorRun {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the per-run reduction state for reuse, keeping every
    /// allocation. The thread count is known only once the run's setup
    /// closure has spawned its threads, so the thread-sized state is
    /// rebuilt separately by [`PorRun::init_threads`].
    pub fn reset(&mut self) {
        self.sleep = 0;
        self.snaps.clear();
        for recs in &mut self.objects {
            recs.clear();
        }
        self.marks.clear();
        self.last_wildcard = None;
        self.cur_node = None;
        self.foot.clear();
        self.slept_log.clear();
    }

    /// Sizes the clocks and pending declarations for a run of `n` threads,
    /// all zero / [`Pending::NoObj`].
    pub fn init_threads(&mut self, n: usize) {
        self.threads = n;
        self.clocks.clear();
        self.clocks.resize(n * n, 0);
        self.pending.clear();
        self.pending.resize(n, Pending::NoObj);
    }

    /// Thread `t`'s vector clock (one component per thread).
    fn clock(&self, t: usize) -> &[u64] {
        &self.clocks[t * self.threads..(t + 1) * self.threads]
    }

    pub fn set_pending(&mut self, t: usize, p: Pending) {
        self.pending[t] = p;
    }

    /// Records one logged access into the current footprint.
    pub fn note_access(&mut self, obj: ObjId, kind: AccessKind) {
        if obj == crate::events::AccessEvent::NO_OBJ {
            if kind == AccessKind::Yield {
                self.foot.wildcard = true;
            }
            return;
        }
        self.foot.accesses.push((obj.0, mutates(kind)));
    }

    /// Records a Line-Up history append into the current footprint.
    pub fn note_mark(&mut self) {
        self.foot.marks += 1;
    }

    /// Records that the current transition unblocked `t`.
    pub fn note_wake(&mut self, t: usize) {
        self.foot.woke.push(t);
    }

    /// Whether every candidate thread is asleep (the run is redundant).
    pub fn all_asleep(&self, candidates: &[usize]) -> bool {
        candidates.iter().all(|&t| self.sleep & bit(t) != 0)
    }

    /// The records of object key `o`: the dense table slot, or the history
    /// pseudo-object's.
    fn records(&self, o: u32) -> Option<&ObjRecords> {
        if o == MARK_KEY {
            Some(&self.marks)
        } else {
            self.objects.get(o as usize)
        }
    }

    fn records_mut(&mut self, o: u32) -> &mut ObjRecords {
        if o == MARK_KEY {
            return &mut self.marks;
        }
        let i = o as usize;
        if self.objects.len() <= i {
            self.objects.resize_with(i + 1, ObjRecords::default);
        }
        &mut self.objects[i]
    }

    /// Finalizes the footprint of the transition `p` just completed:
    /// computes DPOR backtrack demands against the happens-before
    /// relation, updates clocks and per-object records, wakes sleeping
    /// threads the transition conflicts with, and resets the footprint.
    /// The returned demands are valid until the next call.
    pub fn finish_transition(&mut self, p: usize) -> &[BacktrackDemand] {
        let mut foot = std::mem::take(&mut self.foot);
        // Declared fallback: a primitive that logged nothing on its
        // declared object still touched it (failed lock acquires mutate
        // wait sets; reentrant monitor enters/exits go unlogged).
        match foot.declared {
            Pending::Obj { obj, write } => {
                if !foot.accesses.iter().any(|&(o, _)| o == obj) {
                    foot.accesses.push((obj, write));
                }
            }
            Pending::Unknown => foot.wildcard = true,
            Pending::NoObj => {}
        }
        if foot.marks > 0 {
            // History appends behave like writes to one pseudo-object.
            foot.accesses.push((MARK_KEY, true));
        }

        let n = self.threads;
        let mut demands = std::mem::take(&mut self.demands);
        demands.clear();
        let mut clock = std::mem::take(&mut self.clock);
        clock.clear();
        clock.extend_from_slice(self.clock(p));

        // Yield-containing (and undeclared-timeout) transitions are
        // conservatively dependent on everything recorded so far. Records
        // are met in object-id order, the history pseudo-object last.
        if let Some(rec) = &self.last_wildcard {
            meet(rec, p, &self.snaps, &mut clock, &mut demands);
        }
        if foot.wildcard {
            for recs in self.objects.iter().chain(std::iter::once(&self.marks)) {
                if let Some(rec) = &recs.last_write {
                    meet(rec, p, &self.snaps, &mut clock, &mut demands);
                }
                for rec in &recs.reads {
                    meet(rec, p, &self.snaps, &mut clock, &mut demands);
                }
            }
        }
        for &(o, w) in &foot.accesses {
            if let Some(recs) = self.records(o) {
                if let Some(rec) = &recs.last_write {
                    meet(rec, p, &self.snaps, &mut clock, &mut demands);
                }
                if w {
                    for rec in &recs.reads {
                        meet(rec, p, &self.snaps, &mut clock, &mut demands);
                    }
                }
            }
        }

        clock[p] += 1;
        if !foot.accesses.is_empty() || foot.wildcard {
            // One snapshot per recording transition, shared by its records.
            let rec = Rec {
                thread: p,
                node: self.cur_node,
                epoch: clock[p],
                snap: self.snaps.len() / n,
            };
            self.snaps.extend_from_slice(&clock);
            for &(o, w) in &foot.accesses {
                let recs = self.records_mut(o);
                if w {
                    recs.reads.clear();
                    recs.last_write = Some(rec);
                } else {
                    recs.reads.retain(|r| r.thread != p);
                    recs.reads.push(rec);
                }
            }
            if foot.wildcard {
                self.last_wildcard = Some(rec);
            }
        }
        self.clocks[p * n..(p + 1) * n].copy_from_slice(&clock);
        // Waking a thread is an enabling happens-before edge.
        for &u in &foot.woke {
            join(&mut self.clocks[u * n..(u + 1) * n], &clock);
        }

        // Sleep wake-up: a sleeping thread whose pending transition
        // conflicts with (or was woken by) this one must be re-explored.
        let mut sleep = self.sleep;
        let mut t = 0;
        while sleep >> t != 0 {
            if sleep & bit(t) != 0
                && (foot.woke.contains(&t)
                    || foot.conflicts(self.pending.get(t).copied().unwrap_or_default()))
            {
                sleep &= !bit(t);
            }
            t += 1;
        }
        self.sleep = sleep;
        self.cur_node = None;
        // Recycle the footprint's buffers for the next transition instead
        // of dropping them: finish_transition runs at every schedule
        // point, so this keeps the hot path allocation-free.
        foot.clear();
        self.foot = foot;
        self.clock = clock;
        self.demands = demands;
        &self.demands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_basics() {
        let mut a = VectorClock::new();
        a.tick(0);
        a.tick(0);
        a.tick(2);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 0);
        assert!(a.covers(0, 2));
        assert!(!a.covers(0, 3));
        let mut b = VectorClock::new();
        b.tick(1);
        b.join(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
        assert_eq!(b.get(2), 1);
    }

    #[test]
    fn footprint_conflicts() {
        let mut f = Footprint::default();
        f.accesses.push((3, false));
        assert!(!f.conflicts(Pending::Obj {
            obj: 3,
            write: false
        }));
        assert!(f.conflicts(Pending::Obj {
            obj: 3,
            write: true
        }));
        assert!(!f.conflicts(Pending::Obj {
            obj: 4,
            write: true
        }));
        assert!(!f.conflicts(Pending::NoObj));
        assert!(f.conflicts(Pending::Unknown), "non-pure vs unknown");
        f.accesses.clear();
        f.marks = 1;
        assert!(f.conflicts(Pending::NoObj), "history appends order-matter");
        f.marks = 0;
        f.wildcard = true;
        assert!(f.conflicts(Pending::Obj {
            obj: 9,
            write: false
        }));
    }

    #[test]
    fn writes_wake_sleeping_readers() {
        let mut por = PorRun::new();
        por.init_threads(3);
        por.sleep = bit(1) | bit(2);
        por.set_pending(
            1,
            Pending::Obj {
                obj: 7,
                write: false,
            },
        );
        por.set_pending(
            2,
            Pending::Obj {
                obj: 8,
                write: false,
            },
        );
        por.foot.declared = Pending::Obj {
            obj: 7,
            write: true,
        };
        por.foot.accesses.push((7, true));
        let demands = por.finish_transition(0);
        assert!(demands.is_empty(), "nothing recorded yet");
        assert_eq!(
            por.sleep,
            bit(2),
            "reader of 7 wakes; reader of 8 sleeps on"
        );
    }

    #[test]
    fn unordered_conflict_demands_backtrack() {
        let mut por = PorRun::new();
        por.init_threads(2);
        // Thread 0 writes object 5 from node 4.
        por.cur_node = Some(4);
        por.foot.declared = Pending::Obj {
            obj: 5,
            write: true,
        };
        por.foot.accesses.push((5, true));
        assert!(por.finish_transition(0).is_empty());
        // Thread 1, causally unordered, writes object 5 too.
        por.cur_node = Some(6);
        por.foot.declared = Pending::Obj {
            obj: 5,
            write: true,
        };
        por.foot.accesses.push((5, true));
        let demands = por.finish_transition(1);
        assert_eq!(demands.len(), 1);
        assert_eq!(demands[0].node, 4);
        assert_eq!(demands[0].thread, 1);
        // Thread 1 again: now ordered after its own write — no demand.
        por.cur_node = Some(8);
        por.foot.declared = Pending::Obj {
            obj: 5,
            write: false,
        };
        por.foot.accesses.push((5, false));
        assert!(por.finish_transition(1).is_empty());
    }

    #[test]
    fn wake_edge_orders_threads() {
        let mut por = PorRun::new();
        por.init_threads(2);
        // Thread 0 writes object 9 and wakes thread 1.
        por.foot.declared = Pending::Obj {
            obj: 9,
            write: true,
        };
        por.foot.accesses.push((9, true));
        por.foot.woke.push(1);
        por.finish_transition(0);
        // Thread 1 now accesses object 9: ordered via the wake edge.
        por.foot.declared = Pending::Obj {
            obj: 9,
            write: true,
        };
        por.foot.accesses.push((9, true));
        assert!(por.finish_transition(1).is_empty());
    }

    /// The DPOR bookkeeping as it was before the flat-clock arena: a
    /// `HashMap` of object records, each record owning a cloned
    /// [`VectorClock`]. Kept as the reference the arena version is
    /// compared against. One deliberate difference: a wildcard transition
    /// meets the object records in key order (the history pseudo-object
    /// last) instead of hash order, because the demands it produces
    /// depend on that order.
    mod reference {
        use std::collections::HashMap;

        use super::super::{BacktrackDemand, Footprint, Pending, VectorClock, MARK_KEY};

        #[derive(Debug, Clone)]
        struct Rec {
            thread: usize,
            node: Option<usize>,
            clock: VectorClock,
        }

        #[derive(Debug, Default)]
        struct ObjRecords {
            last_write: Option<Rec>,
            reads: Vec<Rec>,
        }

        #[derive(Debug, Default)]
        pub(super) struct RefPorRun {
            pub sleep: u64,
            clocks: Vec<VectorClock>,
            objects: HashMap<u32, ObjRecords>,
            last_wildcard: Option<Rec>,
            pub cur_node: Option<usize>,
            pub foot: Footprint,
            pub pending: Vec<Pending>,
        }

        impl RefPorRun {
            pub fn reset(&mut self) {
                self.sleep = 0;
                for clock in &mut self.clocks {
                    clock.clear();
                }
                self.objects.clear();
                self.last_wildcard = None;
                self.cur_node = None;
                self.foot.clear();
                self.pending.fill(Pending::NoObj);
            }

            fn clock_mut(&mut self, t: usize) -> &mut VectorClock {
                if self.clocks.len() <= t {
                    self.clocks.resize(t + 1, VectorClock::new());
                }
                &mut self.clocks[t]
            }

            pub fn clock(&self, t: usize) -> VectorClock {
                self.clocks.get(t).cloned().unwrap_or_default()
            }

            pub fn set_pending(&mut self, t: usize, p: Pending) {
                if self.pending.len() <= t {
                    self.pending.resize(t + 1, Pending::NoObj);
                }
                self.pending[t] = p;
            }

            pub fn finish_transition(&mut self, p: usize) -> Vec<BacktrackDemand> {
                let mut foot = std::mem::take(&mut self.foot);
                match foot.declared {
                    Pending::Obj { obj, write } => {
                        if !foot.accesses.iter().any(|&(o, _)| o == obj) {
                            foot.accesses.push((obj, write));
                        }
                    }
                    Pending::Unknown => foot.wildcard = true,
                    Pending::NoObj => {}
                }
                if foot.marks > 0 {
                    foot.accesses.push((MARK_KEY, true));
                }

                let mut demands = Vec::new();
                let mut clock = self.clock_mut(p).clone();
                let meet =
                    |rec: &Rec, clock: &mut VectorClock, demands: &mut Vec<BacktrackDemand>| {
                        if rec.thread != p && !clock.covers(rec.thread, rec.clock.get(rec.thread)) {
                            if let Some(node) = rec.node {
                                demands.push(BacktrackDemand { node, thread: p });
                            }
                        }
                        clock.join(&rec.clock);
                    };
                if let Some(rec) = &self.last_wildcard {
                    meet(rec, &mut clock, &mut demands);
                }
                if foot.wildcard {
                    let mut keys: Vec<u32> = self.objects.keys().copied().collect();
                    keys.sort_unstable();
                    for recs in keys.iter().map(|k| &self.objects[k]) {
                        if let Some(rec) = &recs.last_write {
                            meet(rec, &mut clock, &mut demands);
                        }
                        for rec in &recs.reads {
                            meet(rec, &mut clock, &mut demands);
                        }
                    }
                }
                for &(o, w) in &foot.accesses {
                    if let Some(recs) = self.objects.get(&o) {
                        if let Some(rec) = &recs.last_write {
                            meet(rec, &mut clock, &mut demands);
                        }
                        if w {
                            for rec in &recs.reads {
                                meet(rec, &mut clock, &mut demands);
                            }
                        }
                    }
                }

                clock.tick(p);
                let rec = Rec {
                    thread: p,
                    node: self.cur_node,
                    clock: clock.clone(),
                };
                for &(o, w) in &foot.accesses {
                    let recs = self.objects.entry(o).or_default();
                    if w {
                        recs.reads.clear();
                        recs.last_write = Some(rec.clone());
                    } else {
                        recs.reads.retain(|r| r.thread != p);
                        recs.reads.push(rec.clone());
                    }
                }
                if foot.wildcard {
                    self.last_wildcard = Some(rec);
                }
                *self.clock_mut(p) = clock.clone();
                for &u in &foot.woke {
                    self.clock_mut(u).join(&clock);
                }

                let mut sleep = self.sleep;
                let mut t = 0;
                while sleep >> t != 0 {
                    let pending = self.pending.get(t).copied().unwrap_or_default();
                    if sleep & (1u64 << t) != 0
                        && (foot.woke.contains(&t) || foot.conflicts(pending))
                    {
                        sleep &= !(1u64 << t);
                    }
                    t += 1;
                }
                self.sleep = sleep;
                self.cur_node = None;
                foot.clear();
                self.foot = foot;
                demands
            }
        }
    }

    /// Drives the arena bookkeeping and the reference through the same
    /// random transition scripts and compares them after every
    /// transition: the demands (in order), the sleep mask, and every
    /// thread's clock. One `PorRun` serves all scripts, so reuse across
    /// runs and changing thread counts are covered too.
    #[test]
    fn arena_bookkeeping_matches_the_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn pending(rng: &mut SmallRng, objects: u32) -> Pending {
            match rng.gen_range(0..4) {
                0 => Pending::NoObj,
                1 => Pending::Unknown,
                _ => Pending::Obj {
                    obj: rng.gen_range(0..objects),
                    write: rng.gen_bool(0.5),
                },
            }
        }

        let mut rng = SmallRng::seed_from_u64(0x5eed_d90a);
        let mut por = PorRun::new();
        let mut demands = 0usize;
        let mut wildcards = 0usize;
        for _script in 0..400 {
            let n = rng.gen_range(1..6);
            let objects = rng.gen_range(1..5u32);
            por.reset();
            por.init_threads(n);
            let mut reference = reference::RefPorRun::default();
            reference.reset();
            for t in 0..n {
                reference.set_pending(t, Pending::NoObj);
            }
            for _transition in 0..rng.gen_range(1..40) {
                let p = rng.gen_range(0..n);
                // Pending declarations of the parked threads.
                for _ in 0..rng.gen_range(0..3) {
                    let t = rng.gen_range(0..n);
                    let decl = pending(&mut rng, objects);
                    por.set_pending(t, decl);
                    reference.set_pending(t, decl);
                }
                // The decision: forced (no node) or chosen at a node,
                // possibly putting threads to sleep.
                let node = rng.gen_bool(0.7).then(|| rng.gen_range(0..50));
                por.cur_node = node;
                reference.cur_node = node;
                if rng.gen_bool(0.3) {
                    let slept = rng.gen_range(0..(1u64 << n)) & !(1u64 << p);
                    por.sleep |= slept;
                    reference.sleep |= slept;
                }
                let declared = pending(&mut rng, objects);
                por.foot.declared = declared;
                reference.foot.declared = declared;
                // The transition's footprint.
                for _ in 0..rng.gen_range(0..4) {
                    let access = (rng.gen_range(0..objects), rng.gen_bool(0.5));
                    por.foot.accesses.push(access);
                    reference.foot.accesses.push(access);
                }
                let marks = if rng.gen_bool(0.3) {
                    rng.gen_range(1..3)
                } else {
                    0
                };
                por.foot.marks = marks;
                reference.foot.marks = marks;
                if rng.gen_bool(0.2) {
                    let woke = rng.gen_range(0..n);
                    por.note_wake(woke);
                    reference.foot.woke.push(woke);
                }
                if rng.gen_bool(0.15) {
                    // A yield (or any wildcard step).
                    por.note_access(crate::events::AccessEvent::NO_OBJ, AccessKind::Yield);
                    reference.foot.wildcard = true;
                    wildcards += 1;
                }

                let expected = reference.finish_transition(p);
                let got = por.finish_transition(p).to_vec();
                assert_eq!(got, expected, "demands of thread {p}");
                demands += got.len();
                assert_eq!(por.sleep, reference.sleep, "sleep mask");
                for t in 0..n {
                    let want: Vec<u64> = (0..n).map(|u| reference.clock(t).get(u)).collect();
                    assert_eq!(por.clock(t), &want[..], "clock of thread {t}");
                }
            }
        }
        assert!(
            demands > 1000 && wildcards > 500,
            "scripts exercise demands and wildcards"
        );
    }
}
