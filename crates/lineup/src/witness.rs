//! Serial-witness search (paper §2.1.4 and §4.2).
//!
//! A serial history `S` is a *witness* for a history `H` when (1) `S` is
//! serial, (2) `H|t = S|t` for every thread `t`, and (3) `<H ⊆ <S`.
//! Phase 2 of the Line-Up check reduces both its checks to witness search:
//! a full history needs a witness among the full serial histories (`A`),
//! and a stuck history needs, for each pending operation `e`, a witness
//! for `H[e]` among the stuck serial histories (`B`) — Definitions 1 and 2.

use crate::history::{History, OpIndex};
use crate::spec::{GroupTable, Outcome, SerialHistory, SpecIndex, SpecTables, ThreadKey};
use std::collections::BTreeSet;

/// An operation identified by `(thread, index within thread)` — the
/// identification that survives reordering into a serial witness.
pub type ThreadPos = (usize, usize);

/// A witness query: the per-thread operation sequences a witness must
/// reproduce, plus the precedence constraints it must respect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessQuery {
    /// Per-thread `(invocation, outcome)` sequences — the grouping key.
    pub key: ThreadKey,
    /// Pairs `(a, b)` with `a <H b`: every witness must order `a` before
    /// `b`. Sorted, deduplicated and transitively reduced — pairs implied
    /// by the composition of two others are omitted, which shrinks the
    /// per-candidate work of witness search without changing its verdict.
    pub precedence: Vec<(ThreadPos, ThreadPos)>,
}

impl WitnessQuery {
    /// Builds the query for a *complete* history (Definition 1, with the
    /// trivial extension: full histories of a test have no pending calls).
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn for_full(h: &History) -> Self {
        Self::for_full_relaxed(h, &[])
    }

    /// Like [`for_full`](WitnessQuery::for_full), but operations whose
    /// method name appears in `async_methods` are *asynchronous*: their
    /// effects may linearize after their return (paper §6 future work,
    /// "asynchronous methods, such as the cancel method"). Concretely, the
    /// precedence constraints `a <H b` with `a` asynchronous are dropped —
    /// `a`'s linearization point may move past `b`'s, though never before
    /// `a`'s own call.
    ///
    /// # Panics
    ///
    /// Panics if the history has pending operations.
    pub fn for_full_relaxed(h: &History, async_methods: &[String]) -> Self {
        assert!(
            h.is_complete(),
            "use for_stuck on histories with pending ops"
        );
        let included: Vec<OpIndex> = (0..h.ops.len()).collect();
        Self::build_relaxed(h, &included, async_methods)
    }

    /// Builds the query for `H[e]` where `e` is a pending operation of a
    /// stuck history `H`: all complete operations of `H`, plus `e` itself
    /// as a trailing pending call (Definition 2; `H[e]` removes all
    /// pending calls except `inv(e)`).
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn for_stuck(h: &History, pending: OpIndex) -> Self {
        Self::for_stuck_relaxed(h, pending, &[])
    }

    /// [`for_stuck`](WitnessQuery::for_stuck) with asynchronous methods
    /// (see [`for_full_relaxed`](WitnessQuery::for_full_relaxed)).
    ///
    /// # Panics
    ///
    /// Panics if `pending` is in fact complete.
    pub fn for_stuck_relaxed(h: &History, pending: OpIndex, async_methods: &[String]) -> Self {
        assert!(
            !h.ops[pending].is_complete(),
            "H[e] requires a pending operation e"
        );
        let mut included = h.complete_ops();
        included.push(pending);
        included.sort_by_key(|&i| h.ops[i].call_pos);
        Self::build_relaxed(h, &included, async_methods)
    }

    fn build_relaxed(h: &History, included: &[OpIndex], async_methods: &[String]) -> Self {
        // Per-thread position of each included op (call order = thread
        // subhistory order by well-formedness).
        let mut key: ThreadKey = vec![Vec::new(); h.thread_count];
        let mut pos_of = vec![(0usize, 0usize); h.ops.len()];
        let mut sorted = included.to_vec();
        sorted.sort_by_key(|&i| h.ops[i].call_pos);
        for &i in &sorted {
            let op = &h.ops[i];
            let outcome = match &op.response {
                Some(v) => Outcome::Returned(v.clone()),
                None => Outcome::Pending,
            };
            pos_of[i] = (op.thread, key[op.thread].len());
            key[op.thread].push((op.invocation.clone(), outcome));
        }
        // Asynchronous operations do not constrain later operations: their
        // effect may linearize past their return.
        let constrains = |a: OpIndex| !async_methods.contains(&h.ops[a].invocation.name);
        let precedence = if sorted.len() <= 64 {
            reduced_precedence_bits(h, &sorted, &pos_of, constrains)
        } else {
            reduced_precedence_set(h, &sorted, &pos_of, constrains)
        };
        WitnessQuery { key, precedence }
    }
}

// Both reductions below compute the same thing: the pairs of `<H` over the
// included operations (left-hand side restricted by `constrains`), minus
// every pair `(a, c)` implied by two pairs `(a, b)` and `(b, c)`, sorted.
// Any serial order satisfying the reduced set satisfies the dropped pairs
// too (order is transitive), so witness verdicts are unchanged while each
// candidate is checked against fewer pairs: `<H` is dense for mostly-serial
// histories, with up to quadratically many pairs for a linear reduction.

/// The reduction with one `u64` successor bitmask per operation, indexed
/// by thread-major ordinal (the order of [`ThreadPos`]), for at most 64
/// included operations.
fn reduced_precedence_bits(
    h: &History,
    sorted: &[OpIndex],
    pos_of: &[ThreadPos],
    constrains: impl Fn(OpIndex) -> bool,
) -> Vec<(ThreadPos, ThreadPos)> {
    let mut at: Vec<ThreadPos> = sorted.iter().map(|&i| pos_of[i]).collect();
    at.sort_unstable();
    let ordinal: Vec<usize> = sorted
        .iter()
        .map(|&i| at.binary_search(&pos_of[i]).expect("included op"))
        .collect();
    let mut succ = vec![0u64; at.len()];
    for (x, &a) in sorted.iter().enumerate() {
        if constrains(a) {
            for (y, &b) in sorted.iter().enumerate() {
                if h.precedes(a, b) {
                    succ[ordinal[x]] |= 1 << ordinal[y];
                }
            }
        }
    }
    let mut precedence = Vec::new();
    for (a, &direct) in succ.iter().enumerate() {
        let implied = ones(direct).fold(0u64, |acc, b| acc | succ[b]);
        precedence.extend(ones(direct & !implied).map(|c| (at[a], at[c])));
    }
    precedence
}

/// The indices of the set bits of `mask`, ascending.
fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The reduction over an ordered set of pairs, for more than 64 included
/// operations.
fn reduced_precedence_set(
    h: &History,
    sorted: &[OpIndex],
    pos_of: &[ThreadPos],
    constrains: impl Fn(OpIndex) -> bool,
) -> Vec<(ThreadPos, ThreadPos)> {
    let mut edges: BTreeSet<(ThreadPos, ThreadPos)> = BTreeSet::new();
    for &a in sorted.iter().filter(|&&a| constrains(a)) {
        for &b in sorted {
            if a != b && h.precedes(a, b) {
                edges.insert((pos_of[a], pos_of[b]));
            }
        }
    }
    let mids: BTreeSet<ThreadPos> = edges.iter().flat_map(|&(x, y)| [x, y]).collect();
    edges
        .iter()
        .copied()
        .filter(|&(a, c)| {
            !mids
                .iter()
                .any(|&b| b != a && b != c && edges.contains(&(a, b)) && edges.contains(&(b, c)))
        })
        .collect()
}

/// Whether the serial history `s` is a witness for the query: it must have
/// the same per-thread sequences and order all precedence pairs correctly.
///
/// The reference oracle for [`find_witness`], which decides the same
/// question for a whole group of candidates at once.
pub fn is_witness(s: &SerialHistory, q: &WitnessQuery) -> bool {
    if s.thread_count != q.key.len() {
        return false;
    }
    // Serial position of each operation, by thread-major ordinal: thread
    // `t`'s `k`-th operation is ordinal `base[t] + k`.
    let mut base = Vec::with_capacity(q.key.len());
    let mut width = 0;
    for ops in &q.key {
        base.push(width);
        width += ops.len();
    }
    if s.ops.len() != width {
        return false;
    }
    let mut next = vec![0usize; q.key.len()];
    let mut pos = vec![0usize; width];
    for (serial_pos, op) in s.ops.iter().enumerate() {
        let k = next[op.thread];
        match q.key[op.thread].get(k) {
            Some((invocation, outcome))
                if *invocation == op.invocation && *outcome == op.outcome => {}
            _ => return false,
        }
        pos[base[op.thread] + k] = serial_pos;
        next[op.thread] += 1;
    }
    // Every thread matched a prefix of its sequence and the lengths sum
    // up, so every thread matched its whole sequence.
    q.precedence
        .iter()
        .all(|&((ta, ka), (tb, kb))| pos[base[ta] + ka] < pos[base[tb] + kb])
}

/// Searches the indexed observation set for a witness; returns the first
/// one found. Only the group with the query's per-thread key is scanned
/// (paper §4.2).
pub fn find_witness<'a>(index: &SpecIndex<'a>, q: &WitnessQuery) -> Option<&'a SerialHistory> {
    let table = index.table(&q.key)?;
    first_witness(table, q).map(|m| index.members_of(table)[m])
}

/// Whether the compiled observation set has a witness for the query: the
/// yes/no form of [`find_witness`] for callers that keep only the tables.
pub(crate) fn has_witness(tables: &SpecTables, q: &WitnessQuery) -> bool {
    tables
        .get(&q.key)
        .is_some_and(|table| first_witness(table, q).is_some())
}

/// The row of the first group member that orders every precedence pair
/// of the query. The group already guarantees the per-thread sequences,
/// so each candidate costs only one integer comparison per pair.
fn first_witness(table: &GroupTable, q: &WitnessQuery) -> Option<usize> {
    let pairs: Vec<(usize, usize)> = q
        .precedence
        .iter()
        .map(|&((ta, ka), (tb, kb))| (table.ordinal(ta, ka), table.ordinal(tb, kb)))
        .collect();
    (0..table.rows()).find(|&m| {
        let row = table.row(m);
        pairs.iter().all(|&(a, b)| row[a] < row[b])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ObservationSet, SpecOp};
    use crate::target::Invocation;
    use crate::value::Value;

    fn inv(name: &str) -> Invocation {
        Invocation::new(name)
    }

    fn sop(thread: usize, name: &str, outcome: Outcome) -> SpecOp {
        SpecOp {
            thread,
            invocation: inv(name),
            outcome,
        }
    }

    fn ret(v: i64) -> Outcome {
        Outcome::Returned(Value::Int(v))
    }

    /// The paper's §2.2.1 example: two overlapping incs, then get → 1.
    /// No witness exists in the correct counter's specification: if both
    /// incs precede the get, the get must return 2.
    #[test]
    fn buggy_counter_history_has_no_witness() {
        // H: (inc A)(inc B)(ok A)(ok B)(get A)(ok(1) A)
        let mut h = History::new(2);
        let i1 = h.push_call(0, inv("inc"));
        let i2 = h.push_call(1, inv("inc"));
        h.push_return(i1, Value::Unit);
        h.push_return(i2, Value::Unit);
        let g = h.push_call(0, inv("get"));
        h.push_return(g, Value::Int(1));

        // Specification of the correct counter for this thread key: the
        // only serial histories with these per-thread op lists return 2
        // from get.
        let mut spec = ObservationSet::new();
        let u = || Outcome::Returned(Value::Unit);
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "inc", u()),
                sop(1, "inc", u()),
                sop(0, "get", ret(2)),
            ],
        });
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "inc", u()),
                sop(0, "inc", u()),
                sop(0, "get", ret(2)),
            ],
        });
        // A spurious history where get returns 1 but the per-thread key
        // differs (get=1 key group) must not be found either because of
        // ordering: place inc B after get — but then <H is violated.
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "inc", u()),
                sop(0, "get", ret(1)),
                sop(1, "inc", u()),
            ],
        });

        let q = WitnessQuery::for_full(&h);
        let idx = spec.index();
        // The candidate group with get=1 exists but its only member orders
        // inc B after get, violating inc B <H get.
        assert!(find_witness(&idx, &q).is_none());
    }

    /// A correct concurrent history finds its witness.
    #[test]
    fn overlapping_ops_find_witness() {
        // H: (inc A)(get B)(ok A)(ok(1) B): inc and get overlap.
        let mut h = History::new(2);
        let i = h.push_call(0, inv("inc"));
        let g = h.push_call(1, inv("get"));
        h.push_return(i, Value::Unit);
        h.push_return(g, Value::Int(1));

        let mut spec = ObservationSet::new();
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(0, "inc", Outcome::Returned(Value::Unit)),
                sop(1, "get", ret(1)),
            ],
        });
        let q = WitnessQuery::for_full(&h);
        assert!(find_witness(&spec.index(), &q).is_some());
    }

    /// Precedence in H must be respected by the witness even when the
    /// per-thread key matches.
    #[test]
    fn witness_must_respect_precedence() {
        // H: a returns before b is called: a <H b.
        let mut h = History::new(2);
        let a = h.push_call(0, inv("a"));
        h.push_return(a, Value::Int(0));
        let b = h.push_call(1, inv("b"));
        h.push_return(b, Value::Int(0));

        let s_wrong = SerialHistory {
            thread_count: 2,
            ops: vec![sop(1, "b", ret(0)), sop(0, "a", ret(0))],
        };
        let s_right = SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "a", ret(0)), sop(1, "b", ret(0))],
        };
        let q = WitnessQuery::for_full(&h);
        assert!(!is_witness(&s_wrong, &q));
        assert!(is_witness(&s_right, &q));
    }

    /// The Fig. 9 situation: a stuck Wait whose H[e] has no witness
    /// because serially Wait cannot block after Set-Reset-Set.
    #[test]
    fn stuck_query_includes_only_complete_ops_plus_e() {
        // H: (Wait A)(Set B)(ok B)(Reset B)(ok B)(Set B)(ok B) #
        let mut h = History::new(2);
        let w = h.push_call(0, inv("Wait"));
        for name in ["Set", "Reset", "Set"] {
            let o = h.push_call(1, inv(name));
            h.push_return(o, Value::Unit);
        }
        h.stuck = true;

        let q = WitnessQuery::for_stuck(&h, w);
        // Thread A's key: a single pending Wait.
        assert_eq!(q.key[0], vec![(inv("Wait"), Outcome::Pending)]);
        assert_eq!(q.key[1].len(), 3);

        // B contains only (Set)(Reset)(Wait)# — the serial run where Wait
        // blocks after Reset never performs the second Set (serial stuck
        // histories end at the blocked call). It has a different thread
        // key, so it cannot be a witness.
        let mut spec = ObservationSet::new();
        let u = || Outcome::Returned(Value::Unit);
        spec.insert(SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "Set", u()),
                sop(1, "Reset", u()),
                sop(0, "Wait", Outcome::Pending),
            ],
        });
        assert!(find_witness(&spec.index(), &q).is_none());
    }

    /// H[e] drops other pending operations.
    #[test]
    fn stuck_query_drops_other_pending_ops() {
        let mut h = History::new(3);
        let a = h.push_call(0, inv("p"));
        let _b = h.push_call(1, inv("q"));
        let c = h.push_call(2, inv("r"));
        h.push_return(c, Value::Int(1));
        h.stuck = true;

        let q = WitnessQuery::for_stuck(&h, a);
        assert_eq!(q.key[0], vec![(inv("p"), Outcome::Pending)]);
        assert!(q.key[1].is_empty(), "other pending ops are removed");
        assert_eq!(q.key[2].len(), 1);
    }

    /// Declaring an op asynchronous drops exactly its left-hand
    /// precedence constraints.
    #[test]
    fn async_methods_relax_precedence() {
        // H: cancel returns before set is called: cancel <H set.
        let mut h = History::new(2);
        let c = h.push_call(0, inv("cancel"));
        h.push_return(c, Value::Unit);
        let s = h.push_call(1, inv("set"));
        h.push_return(s, Value::Unit);

        // Witness with set *before* cancel: invalid normally…
        let witness = SerialHistory {
            thread_count: 2,
            ops: vec![
                sop(1, "set", Outcome::Returned(Value::Unit)),
                sop(0, "cancel", Outcome::Returned(Value::Unit)),
            ],
        };
        let strict = WitnessQuery::for_full(&h);
        assert!(!is_witness(&witness, &strict));
        // …but valid once cancel's effects may land late.
        let relaxed = WitnessQuery::for_full_relaxed(&h, &["cancel".to_string()]);
        assert!(is_witness(&witness, &relaxed));
        // The other direction is still constrained: set is synchronous, so
        // a witness may not move *set* before an op that precedes it…
        // (covered by `witness_must_respect_precedence`).
    }

    /// A serial chain a <H b <H c produces only the two adjacent pairs:
    /// (a, c) is implied and dropped by the transitive reduction.
    #[test]
    fn precedence_is_transitively_reduced() {
        let mut h = History::new(3);
        for (t, name) in ["a", "b", "c"].iter().enumerate() {
            let o = h.push_call(t, inv(name));
            h.push_return(o, Value::Int(0));
        }
        let q = WitnessQuery::for_full(&h);
        assert_eq!(
            q.precedence,
            vec![((0, 0), (1, 0)), ((1, 0), (2, 0))],
            "only adjacent chain edges survive"
        );
        // The dropped edge is still enforced through the kept ones: any
        // witness putting c before a must break an adjacent pair.
        let bad = SerialHistory {
            thread_count: 3,
            ops: vec![
                sop(2, "c", ret(0)),
                sop(0, "a", ret(0)),
                sop(1, "b", ret(0)),
            ],
        };
        assert!(!is_witness(&bad, &q));
        let good = SerialHistory {
            thread_count: 3,
            ops: vec![
                sop(0, "a", ret(0)),
                sop(1, "b", ret(0)),
                sop(2, "c", ret(0)),
            ],
        };
        assert!(is_witness(&good, &q));
    }

    /// Precedence pairs come out canonically ordered and duplicate-free.
    #[test]
    fn precedence_is_deduplicated_and_sorted() {
        let mut h = History::new(4);
        // Two sequential "waves" of two parallel ops each: every op of
        // wave 1 precedes every op of wave 2 (4 cross edges, none
        // reducible, no duplicates).
        let w1a = h.push_call(0, inv("a"));
        let w1b = h.push_call(1, inv("b"));
        h.push_return(w1a, Value::Int(0));
        h.push_return(w1b, Value::Int(0));
        let w2a = h.push_call(2, inv("c"));
        let w2b = h.push_call(3, inv("d"));
        h.push_return(w2a, Value::Int(0));
        h.push_return(w2b, Value::Int(0));
        let q = WitnessQuery::for_full(&h);
        let mut sorted = q.precedence.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(q.precedence, sorted);
        assert_eq!(q.precedence.len(), 4);
    }

    /// `H[e]` where `e` is the only operation: a one-op query with no
    /// constraints, matched exactly by the serial history that blocks
    /// immediately.
    #[test]
    fn stuck_query_with_only_the_pending_op() {
        let mut h = History::new(2);
        let e = h.push_call(0, inv("Wait"));
        h.stuck = true;
        let q = WitnessQuery::for_stuck_relaxed(&h, e, &[]);
        assert_eq!(q.key[0], vec![(inv("Wait"), Outcome::Pending)]);
        assert!(q.key[1].is_empty());
        assert!(q.precedence.is_empty());
        let s = SerialHistory {
            thread_count: 2,
            ops: vec![sop(0, "Wait", Outcome::Pending)],
        };
        assert!(is_witness(&s, &q));
    }

    /// A pending operation whose method is itself asynchronous: `H[e]`
    /// still records it as pending (asynchrony relaxes *ordering*, not
    /// the pending outcome), and completed asynchronous ops before it
    /// impose no precedence on it.
    #[test]
    fn stuck_query_with_async_pending_op() {
        let mut h = History::new(2);
        let c = h.push_call(1, inv("cancel"));
        h.push_return(c, Value::Unit);
        // cancel returned before Wait was called: cancel <H Wait.
        let e = h.push_call(0, inv("Wait"));
        h.stuck = true;
        let asyncs = ["cancel".to_string(), "Wait".to_string()];
        let q = WitnessQuery::for_stuck_relaxed(&h, e, &asyncs);
        assert_eq!(q.key[0], vec![(inv("Wait"), Outcome::Pending)]);
        assert!(
            q.precedence.is_empty(),
            "async lhs drops the only edge: {:?}",
            q.precedence
        );
        // Without the relaxation the edge is present.
        let strict = WitnessQuery::for_stuck_relaxed(&h, e, &[]);
        assert_eq!(strict.precedence, vec![((1, 0), (0, 0))]);
    }

    #[test]
    #[should_panic(expected = "use for_stuck")]
    fn for_full_rejects_pending() {
        let mut h = History::new(1);
        h.push_call(0, inv("x"));
        h.stuck = true;
        WitnessQuery::for_full(&h);
    }

    #[test]
    #[should_panic(expected = "requires a pending operation")]
    fn for_stuck_rejects_complete_op() {
        let mut h = History::new(1);
        let a = h.push_call(0, inv("x"));
        h.push_return(a, Value::Unit);
        WitnessQuery::for_stuck(&h, a);
    }
}
