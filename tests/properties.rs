//! Property-based tests (proptest) over the core Line-Up data structures
//! and algorithms: witness-search soundness, value-format round-trips,
//! matrix algebra, and never-failing checks on a known-correct component.

use std::collections::BTreeSet;

use proptest::prelude::*;

use lineup::doc_support::CounterTarget;
use lineup::witness::ThreadPos;
use lineup::{
    check, find_witness, is_witness, CheckOptions, Event, History, Invocation, ObservationSet,
    Outcome, SerialHistory, SpecOp, TestMatrix, Value, WitnessQuery,
};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        Just(Value::Fail),
        Just(Value::Opt(None)),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        "[a-zA-Z0-9 <>&\"\\\\]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            inner.prop_map(Value::some),
        ]
    })
}

/// A random serial history over up to 3 threads and a tiny op alphabet.
fn serial_history_strategy() -> impl Strategy<Value = SerialHistory> {
    let op = (0usize..3, 0usize..3, 0i64..4).prop_map(|(thread, name, result)| SpecOp {
        thread,
        invocation: Invocation::new(["put", "take", "len"][name]),
        outcome: Outcome::Returned(Value::Int(result)),
    });
    prop::collection::vec(op, 1..7).prop_map(|ops| SerialHistory {
        thread_count: 3,
        ops,
    })
}

/// Builds a concurrent history from a serial one by optionally overlapping
/// each adjacent pair of different-thread operations (delaying the first
/// return past the second call). This keeps `H|t = S|t` and `<H ⊆ <S`, so
/// `S` remains a witness of the result by construction.
fn overlap(serial: &SerialHistory, overlaps: &[bool]) -> History {
    let mut h = History::new(serial.thread_count);
    let mut i = 0;
    while i < serial.ops.len() {
        let a = &serial.ops[i];
        let overlap_next = overlaps.get(i).copied().unwrap_or(false)
            && i + 1 < serial.ops.len()
            && serial.ops[i + 1].thread != a.thread;
        let va = match &a.outcome {
            Outcome::Returned(v) => v.clone(),
            Outcome::Pending => unreachable!("strategy yields complete ops"),
        };
        if overlap_next {
            let b = &serial.ops[i + 1];
            let vb = match &b.outcome {
                Outcome::Returned(v) => v.clone(),
                Outcome::Pending => unreachable!(),
            };
            let ia = h.push_call(a.thread, a.invocation.clone());
            let ib = h.push_call(b.thread, b.invocation.clone());
            h.push_return(ia, va);
            h.push_return(ib, vb);
            i += 2;
        } else {
            let ia = h.push_call(a.thread, a.invocation.clone());
            h.push_return(ia, va);
            i += 1;
        }
    }
    h
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Display → parse round-trips for arbitrary values.
    #[test]
    fn value_display_roundtrips(v in value_strategy()) {
        let text = v.to_string();
        prop_assert_eq!(lineup::value::parse_value(&text), Ok(v));
    }

    /// A history built by overlapping a serial history always finds a
    /// witness when that serial history is in the spec (search soundness
    /// on positives).
    #[test]
    fn overlapped_history_finds_its_witness(
        s in serial_history_strategy(),
        overlaps in prop::collection::vec(any::<bool>(), 0..7),
        extras in prop::collection::vec(serial_history_strategy(), 0..4),
    ) {
        let h = overlap(&s, &overlaps);
        prop_assert!(h.is_well_formed());
        prop_assert!(h.is_complete());
        let mut spec = ObservationSet::new();
        spec.insert(s.clone());
        for e in extras {
            spec.insert(e);
        }
        let q = WitnessQuery::for_full(&h);
        let found = find_witness(&spec.index(), &q);
        prop_assert!(found.is_some(), "S must be a witness of H:\nS = {}\nH =\n{}", s, h);
        // And whatever was found truly is a witness.
        prop_assert!(is_witness(found.unwrap(), &q));
    }

    /// Corrupting one response makes the (singleton-spec) witness search
    /// fail: the per-thread key no longer matches (search soundness on
    /// negatives).
    #[test]
    fn corrupted_history_has_no_witness(
        s in serial_history_strategy(),
        overlaps in prop::collection::vec(any::<bool>(), 0..7),
        at in 0usize..7,
    ) {
        let mut h = overlap(&s, &overlaps);
        let at = at % h.ops.len();
        // Corrupt to a value outside the strategy's result range.
        h.ops[at].response = Some(Value::Int(999));
        let mut spec = ObservationSet::new();
        spec.insert(s);
        let q = WitnessQuery::for_full(&h);
        prop_assert!(find_witness(&spec.index(), &q).is_none());
    }

    /// Witness queries are self-consistent: the serial history viewed as a
    /// (trivially serial) History is its own witness.
    #[test]
    fn serial_history_is_its_own_witness(s in serial_history_strategy()) {
        let h = overlap(&s, &[]);
        let q = WitnessQuery::for_full(&h);
        prop_assert!(is_witness(&s, &q));
    }

    /// Determinism check: a singleton spec is always deterministic; a
    /// duplicated spec too (sets deduplicate).
    #[test]
    fn singleton_specs_are_deterministic(s in serial_history_strategy()) {
        let mut spec = ObservationSet::new();
        spec.insert(s.clone());
        spec.insert(s);
        prop_assert_eq!(spec.len(), 1);
        prop_assert!(spec.check_determinism().is_none());
    }

    /// The observation-file parser never panics on arbitrary input: it
    /// returns a structured error instead (robustness fuzzing).
    #[test]
    fn observation_parser_never_panics(text in "[ -~\n]{0,400}") {
        let _ = lineup::parse_observation_file(&text);
    }

    /// Nor on mutations of a *valid* file.
    #[test]
    fn observation_parser_survives_mutations(
        histories in prop::collection::vec(serial_history_strategy(), 1..4),
        cut in any::<u16>(),
        insert in "[ -~]{0,8}",
    ) {
        let spec: ObservationSet = histories.into_iter().collect();
        let mut text = lineup::write_observation_file(&spec);
        let pos = (cut as usize) % (text.len() + 1);
        // Insert garbage at a char boundary near pos.
        let pos = text.floor_char_boundary(pos);
        text.insert_str(pos, &insert);
        let _ = lineup::parse_observation_file(&text);
    }

    /// Observation files round-trip for arbitrary specs.
    #[test]
    fn observation_files_roundtrip(
        histories in prop::collection::vec(serial_history_strategy(), 0..6)
    ) {
        let spec: ObservationSet = histories.into_iter().collect();
        let text = lineup::write_observation_file(&spec);
        let parsed = lineup::parse_observation_file(&text).unwrap();
        prop_assert_eq!(parsed, spec);
    }

    /// Matrix enumeration has exactly |I|^(rows·cols) elements and every
    /// element has the right shape.
    #[test]
    fn matrix_enumeration_counts(rows in 1usize..3, cols in 1usize..3, n in 1usize..3) {
        let invs: Vec<Invocation> =
            (0..n).map(|i| Invocation::with_int("op", i as i64)).collect();
        let all = TestMatrix::enumerate(&invs, rows, cols);
        prop_assert_eq!(all.len(), n.pow((rows * cols) as u32));
        for m in &all {
            prop_assert_eq!(m.dimension(), (rows, cols));
            prop_assert_eq!(m.operation_count(), rows * cols);
        }
    }

    /// Prefix order: reflexive, and column-truncations are prefixes.
    #[test]
    fn matrix_prefix_order(rows in 1usize..4, cols in 1usize..4, cut in 0usize..3) {
        let col: Vec<Invocation> =
            (0..rows).map(|i| Invocation::with_int("op", i as i64)).collect();
        let m = TestMatrix::from_columns(vec![col; cols]);
        prop_assert!(m.is_prefix_of(&m));
        let mut small = m.clone();
        let cut = cut.min(rows);
        for c in &mut small.columns {
            c.truncate(rows - cut);
        }
        prop_assert!(small.is_prefix_of(&m));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stuck-history witness search: a serial history whose last op is
    /// made pending is a witness for the overlap-expanded stuck history's
    /// `H[e]` query.
    #[test]
    fn stuck_history_finds_its_witness(
        s in serial_history_strategy(),
        overlaps in prop::collection::vec(any::<bool>(), 0..7),
    ) {
        // Build the stuck serial spec entry: complete prefix + pending last.
        let mut stuck = s.clone();
        let last = stuck.ops.last_mut().unwrap();
        last.outcome = Outcome::Pending;
        prop_assert!(stuck.is_stuck());

        // Build the concurrent history: overlap-expand the complete
        // prefix, then append the pending call (never returned).
        let prefix = SerialHistory {
            thread_count: s.thread_count,
            ops: s.ops[..s.ops.len() - 1].to_vec(),
        };
        let mut h = overlap(&prefix, &overlaps);
        let pending_op = &stuck.ops[stuck.ops.len() - 1];
        let e = h.push_call(pending_op.thread, pending_op.invocation.clone());
        h.stuck = true;

        let mut spec = ObservationSet::new();
        spec.insert(stuck);
        let q = WitnessQuery::for_stuck(&h, e);
        prop_assert!(
            find_witness(&spec.index(), &q).is_some(),
            "the stuck serial history witnesses its own expansion"
        );
    }

    /// Full-history queries never match stuck serial histories and vice
    /// versa: the Pending outcome keys the groups apart, so the sets A and
    /// B of Fig. 5 need no explicit separation.
    #[test]
    fn full_and_stuck_groups_are_disjoint(s in serial_history_strategy()) {
        let mut stuck = s.clone();
        stuck.ops.last_mut().unwrap().outcome = Outcome::Pending;
        let mut spec = ObservationSet::new();
        spec.insert(stuck);
        // The complete history's query cannot find the stuck entry.
        let h = overlap(&s, &[]);
        let q = WitnessQuery::for_full(&h);
        prop_assert!(find_witness(&spec.index(), &q).is_none());
    }
}

proptest! {
    // Model-executing properties are expensive: few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A known-correct component never fails Check, for random small test
    /// matrices (no false alarms — the practical face of Theorem 5).
    #[test]
    fn correct_counter_never_fails_random_tests(
        cells in prop::collection::vec(0usize..2, 4)
    ) {
        let inv = |i: usize| {
            if i == 0 { Invocation::new("inc") } else { Invocation::new("get") }
        };
        let m = TestMatrix::from_columns(vec![
            vec![inv(cells[0]), inv(cells[1])],
            vec![inv(cells[2]), inv(cells[3])],
        ]);
        let report = check(&CounterTarget, &m, &CheckOptions::new());
        prop_assert!(report.passed(), "violations: {:?}", report.violations);
    }
}

// ---------------------------------------------------------------------
// The compiled witness index against the reference oracle
// ---------------------------------------------------------------------

/// A SplitMix64 stream: the random interleavings below draw from it.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

type Seqs = Vec<Vec<(Invocation, Value)>>;

/// Per-thread operation sequences from `(thread, method, result)` cells,
/// appended to their thread's sequence in order.
fn per_thread(cells: &[(usize, usize, i64)], threads: usize) -> Seqs {
    let mut seqs = vec![Vec::new(); threads];
    for &(t, name, result) in cells {
        let invocation = Invocation::new(["put", "take", "len"][name]);
        seqs[t].push((invocation, Value::Int(result)));
    }
    seqs
}

/// A random well-formed history over the sequences: at each step a random
/// thread returns its open operation or calls its next one. The last
/// operation of each thread flagged in `pending` is called but never
/// returns, and the history is then stuck.
fn random_history(seqs: &Seqs, pending: &[bool], rng: &mut Mix) -> History {
    let mut h = History::new(seqs.len());
    let mut next = vec![0; seqs.len()];
    let mut open: Vec<Option<usize>> = vec![None; seqs.len()];
    loop {
        let live: Vec<usize> = (0..seqs.len())
            .filter(|&t| match open[t] {
                Some(_) => !(pending[t] && next[t] == seqs[t].len()),
                None => next[t] < seqs[t].len(),
            })
            .collect();
        if live.is_empty() {
            break;
        }
        let t = live[rng.below(live.len())];
        match open[t].take() {
            Some(op) => h.push_return(op, seqs[t][next[t] - 1].1.clone()),
            None => {
                open[t] = Some(h.push_call(t, seqs[t][next[t]].0.clone()));
                next[t] += 1;
            }
        }
    }
    h.stuck = pending.iter().any(|&p| p);
    h
}

/// A random serial interleaving of the sequences. With `blocked = Some(t)`
/// thread `t`'s last operation comes last and is pending.
fn random_serial(seqs: &Seqs, blocked: Option<usize>, rng: &mut Mix) -> SerialHistory {
    let limit: Vec<usize> = (0..seqs.len())
        .map(|t| seqs[t].len() - usize::from(blocked == Some(t)))
        .collect();
    let mut next = vec![0; seqs.len()];
    let mut ops = Vec::new();
    loop {
        let live: Vec<usize> = (0..seqs.len()).filter(|&t| next[t] < limit[t]).collect();
        if live.is_empty() {
            break;
        }
        let t = live[rng.below(live.len())];
        let (invocation, result) = seqs[t][next[t]].clone();
        ops.push(SpecOp {
            thread: t,
            invocation,
            outcome: Outcome::Returned(result),
        });
        next[t] += 1;
    }
    if let Some(t) = blocked {
        ops.push(SpecOp {
            thread: t,
            invocation: seqs[t].last().expect("blocked thread has ops").0.clone(),
            outcome: Outcome::Pending,
        });
    }
    SerialHistory {
        thread_count: seqs.len(),
        ops,
    }
}

/// The serial history that orders a complete history's operations by
/// their returns: always a witness, since `a <H b` puts `a`'s return
/// before `b`'s.
fn return_order(h: &History) -> SerialHistory {
    let ops = h
        .events
        .iter()
        .filter_map(|ev| match *ev {
            Event::Return(i) => Some(SpecOp {
                thread: h.ops[i].thread,
                invocation: h.ops[i].invocation.clone(),
                outcome: Outcome::Returned(h.ops[i].response.clone().unwrap()),
            }),
            Event::Call(_) => None,
        })
        .collect();
    SerialHistory {
        thread_count: h.thread_count,
        ops,
    }
}

/// A random history over the sequences, an observation set holding
/// `members` random serial interleavings of each query's per-thread
/// sequences (plus `extras`), and the history's queries with the
/// operations each one includes: one full query, or one `H[e]` per
/// pending `e`.
fn random_case(
    seqs: &Seqs,
    pending_flags: &[bool],
    members: usize,
    async_methods: &[String],
    rng: &mut Mix,
) -> (History, ObservationSet, Vec<(WitnessQuery, Vec<usize>)>) {
    let pending: Vec<bool> = (0..seqs.len())
        .map(|t| pending_flags[t] && !seqs[t].is_empty())
        .collect();
    let h = random_history(seqs, &pending, rng);
    let mut spec = ObservationSet::new();
    let queries = if h.stuck {
        for e in h.pending_ops() {
            // H[e]: the complete operations plus e itself.
            let t = h.ops[e].thread;
            let sub: Seqs = (0..seqs.len())
                .map(|u| {
                    let keep = seqs[u].len() - usize::from(pending[u] && u != t);
                    seqs[u][..keep].to_vec()
                })
                .collect();
            for _ in 0..members {
                spec.insert(random_serial(&sub, Some(t), rng));
            }
        }
        h.pending_ops()
            .into_iter()
            .map(|e| {
                let mut included = h.complete_ops();
                included.push(e);
                (
                    WitnessQuery::for_stuck_relaxed(&h, e, async_methods),
                    included,
                )
            })
            .collect()
    } else {
        for _ in 0..members {
            spec.insert(random_serial(seqs, None, rng));
        }
        let included = (0..h.ops.len()).collect();
        vec![(WitnessQuery::for_full_relaxed(&h, async_methods), included)]
    };
    (h, spec, queries)
}

/// The transitive reduction as witness queries computed it over an
/// ordered set of `<H` pairs before the bitmask version: every pair
/// implied by two others is dropped. The reference the library's
/// reduction must reproduce exactly.
fn reference_reduction(
    h: &History,
    included: &[usize],
    async_methods: &[String],
) -> Vec<(ThreadPos, ThreadPos)> {
    let mut sorted = included.to_vec();
    sorted.sort_by_key(|&i| h.ops[i].call_pos);
    let mut count = vec![0; h.thread_count];
    let mut pos_of = vec![(0, 0); h.ops.len()];
    for &i in &sorted {
        let t = h.ops[i].thread;
        pos_of[i] = (t, count[t]);
        count[t] += 1;
    }
    let mut edges = BTreeSet::new();
    for &a in &sorted {
        if async_methods.contains(&h.ops[a].invocation.name) {
            continue;
        }
        for &b in &sorted {
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

fn async_methods(async_put: bool) -> Vec<String> {
    if async_put {
        vec!["put".to_string()]
    } else {
        Vec::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Witness search on the compiled index returns exactly what a linear
    /// scan of the whole observation set with the reference oracle
    /// returns: the first witness in canonical order, or none. Random full
    /// and stuck histories, with and without an asynchronous method.
    #[test]
    fn compiled_index_agrees_with_linear_scan(
        cells in prop::collection::vec((0usize..3, 0usize..3, 0i64..3), 0..9),
        pending_flags in prop::collection::vec(any::<bool>(), 3),
        members in 0usize..6,
        async_put in any::<bool>(),
        extras in prop::collection::vec(serial_history_strategy(), 0..3),
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let asyncs = async_methods(async_put);
        let seqs = per_thread(&cells, 3);
        let (_, mut spec, queries) = random_case(&seqs, &pending_flags, members, &asyncs, &mut rng);
        spec.extend(extras);
        let index = spec.index();
        for (q, _) in &queries {
            let found = find_witness(&index, q);
            prop_assert_eq!(found, spec.iter().find(|s| is_witness(s, q)));
        }
    }

    /// The bitmask transitive reduction yields exactly the reference
    /// reduction's pairs, in the same order.
    #[test]
    fn bitmask_reduction_matches_reference(
        cells in prop::collection::vec((0usize..4, 0usize..3, 0i64..3), 0..14),
        pending_flags in prop::collection::vec(any::<bool>(), 4),
        async_put in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let asyncs = async_methods(async_put);
        let seqs = per_thread(&cells, 4);
        let (h, _, queries) = random_case(&seqs, &pending_flags, 0, &asyncs, &mut rng);
        for (q, included) in &queries {
            prop_assert_eq!(&q.precedence, &reference_reduction(&h, included, &asyncs));
        }
    }
}

/// A query whose thread sequences are all empty has a group of width
/// zero, and its witness is the empty serial history.
#[test]
fn empty_thread_sequences_find_the_empty_witness() {
    let h = History::new(2);
    let q = WitnessQuery::for_full(&h);
    assert!(q.key.iter().all(Vec::is_empty));
    let empty = SerialHistory {
        thread_count: 2,
        ops: Vec::new(),
    };
    let spec: ObservationSet = [
        empty.clone(),
        SerialHistory {
            thread_count: 2,
            ops: vec![SpecOp {
                thread: 1,
                invocation: Invocation::new("len"),
                outcome: Outcome::Returned(Value::Int(0)),
            }],
        },
    ]
    .into_iter()
    .collect();
    assert_eq!(find_witness(&spec.index(), &q), Some(&empty));
    assert!(is_witness(&empty, &q));
}

/// Around and beyond 64 included operations (where the reduction leaves
/// its bitmasks) the reduction still matches the reference and the
/// search still agrees with the linear scan.
#[test]
fn long_histories_match_the_reference() {
    for (n, seed) in [(63, 1), (64, 2), (65, 3), (90, 4)] {
        let mut rng = Mix(seed);
        let cells: Vec<(usize, usize, i64)> = (0..n)
            .map(|_| (rng.below(3), rng.below(3), rng.below(3) as i64))
            .collect();
        let seqs = per_thread(&cells, 3);
        for (pending_flags, async_put) in [
            ([false; 3], false),
            ([false; 3], true),
            ([true, false, true], false),
        ] {
            let asyncs = async_methods(async_put);
            let (h, mut spec, queries) = random_case(&seqs, &pending_flags, 3, &asyncs, &mut rng);
            if !h.stuck {
                spec.insert(return_order(&h));
            }
            let index = spec.index();
            for (q, included) in &queries {
                assert_eq!(
                    q.precedence,
                    reference_reduction(&h, included, &asyncs),
                    "n = {n}"
                );
                let found = find_witness(&index, q);
                assert_eq!(found, spec.iter().find(|s| is_witness(s, q)), "n = {n}");
                assert!(
                    h.stuck || found.is_some(),
                    "the return order witnesses n = {n}"
                );
            }
        }
    }
}
