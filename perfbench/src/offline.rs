//! The two offline workloads, `explore_exhaustive` and `check_suite`:
//! whole `check` calls timed from outside, and a traced replica of phase 2
//! that puts spans around each public layer the check is built from.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Instant;

use lineup::{
    check_against_spec, explore_matrix, find_witness, synthesize_spec, CheckOptions, HistoryCache,
    Invocation, ObservationSet, PhaseStats, SymmetryGroups, TestMatrix, TestTarget, WitnessQuery,
};
use lineup_collections::barrier::BarrierTarget;
use lineup_collections::blocking_collection::BlockingCollectionTarget;
use lineup_collections::cancellation_token_source::CancellationTokenSourceTarget;
use lineup_collections::concurrent_bag::ConcurrentBagTarget;
use lineup_collections::concurrent_dictionary::ConcurrentDictionaryTarget;
use lineup_collections::concurrent_linked_list::ConcurrentLinkedListTarget;
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_collections::concurrent_stack::ConcurrentStackTarget;
use lineup_collections::countdown_event::CountdownEventTarget;
use lineup_collections::lazy::LazyTarget;
use lineup_collections::manual_reset_event::ManualResetEventTarget;
use lineup_collections::semaphore_slim::SemaphoreSlimTarget;
use lineup_collections::task_completion_source::TaskCompletionSourceTarget;
use lineup_collections::{all_classes, ClassEntry, Variant};
use lineup_sched::{Config, RunOutcome};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::{SpanId, Tracer};

/// `table2`'s phase-2 run cap for sampled 3×3 tests.
const SAMPLE_RUN_CAP: u64 = 30_000;
/// `table2`'s default sampling seed.
const TABLE2_SEED: u64 = 2010;

/// One check with its known answer.
#[derive(Debug, Clone)]
pub struct Case {
    /// Registry entry name.
    pub class: &'static str,
    pub matrix: TestMatrix,
    pub options: CheckOptions,
    /// Expected verdict, taken from registry metadata only: an entry with
    /// expected root causes is convicted by its regression matrices, and
    /// an entry without any passes every test.
    pub expect_pass: bool,
    /// A targeted regression check rather than a sampled or exhaustive
    /// test.
    pub regression: bool,
}

/// The inputs of an offline workload.
pub struct Suite {
    pub registry: Vec<ClassEntry>,
    pub cases: Vec<Case>,
}

impl Suite {
    fn entry(&self, class: &str) -> &ClassEntry {
        self.registry
            .iter()
            .find(|e| e.name == class)
            .expect("case names a registry entry")
    }
}

/// `explore_exhaustive`: one unbounded, 2-worker check of the fixed
/// ConcurrentQueue on `[Enq a, TryDeq, Enq b] × [Enq c, TryDeq, TryDeq]`.
/// The seed picks the distinct values `a`, `b`, `c`; the schedule space does
/// not depend on them.
pub fn explore_exhaustive(seed: u64) -> Suite {
    let registry = all_classes();
    let entry = registry
        .iter()
        .find(|e| e.name == "ConcurrentQueue")
        .expect("registry has the fixed ConcurrentQueue");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut values: Vec<i64> = Vec::new();
    while values.len() < 3 {
        let v = rng.gen_range(1..1000);
        if !values.contains(&v) {
            values.push(v);
        }
    }
    let matrix = TestMatrix::from_columns(vec![
        vec![
            Invocation::with_int("Enqueue", values[0]),
            Invocation::new("TryDequeue"),
            Invocation::with_int("Enqueue", values[1]),
        ],
        vec![
            Invocation::with_int("Enqueue", values[2]),
            Invocation::new("TryDequeue"),
            Invocation::new("TryDequeue"),
        ],
    ]);
    let case = Case {
        class: entry.name,
        matrix,
        options: CheckOptions::new()
            .with_preemption_bound(None)
            .with_workers(2),
        expect_pass: entry.expected_root_causes.is_empty(),
        regression: false,
    };
    Suite {
        registry,
        cases: vec![case],
    }
}

/// `check_suite`: the Table-2 protocol, one check at a time at 1 worker and
/// preemption bound 2: every entry's own regression matrices (and those of
/// its Pre sibling, run on the fixed variant), and `samples_per_class`
/// random 3×3 tests of every entry without expected root causes, capped at
/// 30,000 phase-2 runs.
///
/// The 3×3 tests are drawn from `table2`'s protocol seed, not from `seed`:
/// which tests are drawn moves the suite's cost by about ±45% (the
/// interquartile range over eight samples was 0.44 of the median), more
/// than any regression bound could absorb. `seed` shuffles the order the
/// checks run in, which leaves every verdict and count unchanged.
pub fn check_suite(seed: u64, samples_per_class: usize) -> Suite {
    let registry = all_classes();
    let options = CheckOptions::new().with_preemption_bound(Some(2));
    let mut cases = Vec::new();
    for entry in &registry {
        for matrix in entry.regression_matrices() {
            cases.push(Case {
                class: entry.name,
                matrix: matrix.clone(),
                options: options.clone(),
                expect_pass: false,
                regression: true,
            });
            if entry.variant == Variant::Pre {
                let fixed_name = entry.name.trim_end_matches(" (Pre)");
                let fixed = registry
                    .iter()
                    .find(|e| e.name == fixed_name && e.variant == Variant::Fixed)
                    .expect("every Pre entry has a fixed sibling");
                cases.push(Case {
                    class: fixed.name,
                    matrix,
                    options: options.clone(),
                    expect_pass: fixed.expected_root_causes.is_empty(),
                    regression: true,
                });
            }
        }
    }
    let sampled = options.with_max_phase2_runs(SAMPLE_RUN_CAP);
    for (i, entry) in registry
        .iter()
        .enumerate()
        .filter(|(_, e)| e.expected_root_causes.is_empty())
    {
        let catalog = entry.target().invocations();
        let mut rng = SmallRng::seed_from_u64(
            TABLE2_SEED ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1),
        );
        for _ in 0..samples_per_class {
            let columns: Vec<Vec<Invocation>> = (0..3)
                .map(|_| {
                    (0..3)
                        .map(|_| catalog[rng.gen_range(0..catalog.len())].clone())
                        .collect()
                })
                .collect();
            cases.push(Case {
                class: entry.name,
                matrix: TestMatrix::from_columns(columns),
                options: sampled.clone(),
                expect_pass: true,
                regression: false,
            });
        }
    }
    cases.shuffle(&mut SmallRng::seed_from_u64(seed));
    Suite { registry, cases }
}

/// What one check returned, as far as the benchmark compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub passed: bool,
    /// Phase-1 serial histories (full + stuck).
    pub serial_histories: usize,
    /// Phase-2 distinct histories (full + stuck).
    pub distinct: usize,
    /// Phase-1 plus phase-2 runs.
    pub runs: u64,
}

impl Verdict {
    fn from_phases(passed: bool, phase1: &PhaseStats, phase2: &PhaseStats) -> Self {
        Verdict {
            passed,
            serial_histories: phase1.full_histories + phase1.stuck_histories,
            distinct: phase2.full_histories + phase2.stuck_histories,
            runs: phase1.runs + phase2.runs,
        }
    }
}

/// Runs one case through the public `check` entry point.
pub fn run_case(suite: &Suite, case: &Case) -> Verdict {
    let report = suite
        .entry(case.class)
        .target()
        .check(&case.matrix, &case.options);
    Verdict::from_phases(report.passed(), &report.phase1, &report.phase2)
}

/// Per-layer figures of one traced check.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub synth_s: f64,
    pub serial_histories: f64,
    pub explore_self_s: f64,
    pub canonicalize_s: f64,
    pub cache_lookup_s: f64,
    pub lookups: f64,
    pub hits: f64,
    pub witness_s: f64,
    pub queries: f64,
    pub replica_steps: f64,
    /// Replica phase-2 wall time not covered by any child span.
    pub unattributed_s: f64,
    pub replica_s: f64,
    /// Untraced `check_against_spec` at 1 worker, the replica's baseline.
    pub untraced_s: f64,
    /// Counters the real `check_against_spec` returned at the case's own
    /// worker count.
    pub phase2: PhaseStats,
}

impl Layers {
    /// Adds another check's figures to these.
    pub fn absorb(&mut self, l: &Layers) {
        self.synth_s += l.synth_s;
        self.serial_histories += l.serial_histories;
        self.explore_self_s += l.explore_self_s;
        self.canonicalize_s += l.canonicalize_s;
        self.cache_lookup_s += l.cache_lookup_s;
        self.lookups += l.lookups;
        self.hits += l.hits;
        self.witness_s += l.witness_s;
        self.queries += l.queries;
        self.replica_steps += l.replica_steps;
        self.unattributed_s += l.unattributed_s;
        self.replica_s += l.replica_s;
        self.untraced_s += l.untraced_s;
        let (p, q) = (&mut self.phase2, &l.phase2);
        p.runs += q.runs;
        p.total_steps += q.total_steps;
        p.handoffs += q.handoffs;
        p.fast_path_steps += q.fast_path_steps;
        p.sleep_prunes += q.sleep_prunes;
        p.symmetry_prunes += q.symmetry_prunes;
        p.steals += q.steals;
        p.splits += q.splits;
        p.steal_replays += q.steal_replays;
        p.idle_parks += q.idle_parks;
    }
}

/// A traced check: its verdict (from the real check) and the replica's
/// agreement with it.
#[derive(Debug)]
pub struct Traced {
    pub verdict: Verdict,
    pub replica_agrees: bool,
    pub layers: Layers,
}

/// Runs one case with spans under `parent`.
pub fn trace_case(case: &Case, tracer: &mut Tracer, parent: SpanId) -> Traced {
    with_target(
        case.class,
        TraceCase {
            case,
            tracer,
            parent,
        },
    )
}

/// A computation generic over the concrete target type. The registry hands
/// out type-erased targets, but `explore_matrix` and `check_against_spec`
/// take a concrete `TestTarget`.
trait WithTarget {
    type Out;
    fn run<T: TestTarget>(self, target: &T) -> Self::Out;
}

/// The concrete target behind each registry entry, built with the same
/// parameters the registry uses.
fn with_target<W: WithTarget>(class: &str, w: W) -> W::Out {
    use Variant::{Fixed, Pre};
    match class {
        "Lazy Initialization" => w.run(&LazyTarget),
        "ManualResetEvent" => w.run(&ManualResetEventTarget { variant: Fixed }),
        "ManualResetEvent (Pre)" => w.run(&ManualResetEventTarget { variant: Pre }),
        "SemaphoreSlim" => w.run(&SemaphoreSlimTarget {
            variant: Fixed,
            initial: 0,
        }),
        "SemaphoreSlim (Pre)" => w.run(&SemaphoreSlimTarget {
            variant: Pre,
            initial: 0,
        }),
        "CountdownEvent" => w.run(&CountdownEventTarget {
            variant: Fixed,
            initial: 2,
        }),
        "CountdownEvent (Pre)" => w.run(&CountdownEventTarget {
            variant: Pre,
            initial: 2,
        }),
        "ConcurrentDictionary" => w.run(&ConcurrentDictionaryTarget { variant: Fixed }),
        "ConcurrentDictionary (Pre)" => w.run(&ConcurrentDictionaryTarget { variant: Pre }),
        "ConcurrentQueue" => w.run(&ConcurrentQueueTarget { variant: Fixed }),
        "ConcurrentQueue (Pre)" => w.run(&ConcurrentQueueTarget { variant: Pre }),
        "ConcurrentStack" => w.run(&ConcurrentStackTarget { variant: Fixed }),
        "ConcurrentStack (Pre)" => w.run(&ConcurrentStackTarget { variant: Pre }),
        "ConcurrentLinkedList" => w.run(&ConcurrentLinkedListTarget { variant: Fixed }),
        "ConcurrentLinkedList (Pre)" => w.run(&ConcurrentLinkedListTarget { variant: Pre }),
        "BlockingCollection" => w.run(&BlockingCollectionTarget { capacity: 2 }),
        "ConcurrentBag" => w.run(&ConcurrentBagTarget { variant: Fixed }),
        "TaskCompletionSource" => w.run(&TaskCompletionSourceTarget),
        "CancellationTokenSource" => w.run(&CancellationTokenSourceTarget),
        "Barrier" => w.run(&BarrierTarget { participants: 2 }),
        other => panic!("no concrete target for registry entry {other:?}"),
    }
}

struct TraceCase<'a> {
    case: &'a Case,
    tracer: &'a mut Tracer,
    parent: SpanId,
}

impl WithTarget for TraceCase<'_> {
    type Out = Traced;

    fn run<T: TestTarget>(self, target: &T) -> Traced {
        let TraceCase {
            case,
            tracer: tr,
            parent,
        } = self;
        let check = tr.open("check", Some(parent));
        let ((spec, phase1, panic), synth) = tr.span("spec.synthesize", Some(check), || {
            synthesize_spec(target, &case.matrix)
        });
        let mut layers = Layers {
            synth_s: tr.secs(synth),
            serial_histories: (phase1.full_histories + phase1.stuck_histories) as f64,
            ..Layers::default()
        };
        if panic.is_some() || spec.check_determinism().is_some() {
            // `check` stops after phase 1 here; so does the trace.
            tr.close(check);
            return Traced {
                verdict: Verdict::from_phases(false, &phase1, &PhaseStats::default()),
                replica_agrees: true,
                layers,
            };
        }
        let ((violations, phase2), real) = tr.span("check_against_spec", Some(check), || {
            check_against_spec(target, &case.matrix, &spec, &case.options)
        });
        let verdict = Verdict::from_phases(violations.is_empty(), &phase1, &phase2);
        let serial_options = case.options.clone().with_workers(1);
        let (baseline, untraced_s) = if case.options.workers > 1 {
            let ((v, p), id) = tr.span("check_against_spec.1worker", Some(check), || {
                check_against_spec(target, &case.matrix, &spec, &serial_options)
            });
            (Verdict::from_phases(v.is_empty(), &phase1, &p), tr.secs(id))
        } else {
            (verdict.clone(), tr.secs(real))
        };
        let replica = replica(target, &case.matrix, &spec, &serial_options, tr, check);
        tr.close(check);
        let explore_s = tr.secs(replica.explore);
        let visit_s = tr.secs(replica.visit);
        layers.canonicalize_s = tr.secs(replica.canonicalize);
        layers.cache_lookup_s = tr.secs(replica.lookup);
        layers.witness_s = tr.secs(replica.witness);
        layers.lookups = tr.count(replica.canonicalize) as f64;
        layers.hits = replica.hits as f64;
        layers.queries = replica.queries as f64;
        layers.replica_steps = replica.steps as f64;
        layers.explore_self_s = explore_s - visit_s;
        layers.replica_s = tr.secs(replica.phase);
        layers.unattributed_s = layers.replica_s
            - layers.explore_self_s
            - layers.canonicalize_s
            - layers.cache_lookup_s
            - layers.witness_s;
        layers.untraced_s = untraced_s;
        layers.phase2 = phase2;
        Traced {
            replica_agrees: replica.passed == baseline.passed
                && replica.distinct == baseline.distinct,
            verdict,
            layers,
        }
    }
}

struct Replica {
    passed: bool,
    distinct: usize,
    hits: u64,
    queries: u64,
    steps: u64,
    phase: SpanId,
    explore: SpanId,
    visit: SpanId,
    canonicalize: SpanId,
    lookup: SpanId,
    witness: SpanId,
}

/// Phase 2 rebuilt from the public layers, in the order the serial checker
/// calls them: explore the schedules, canonicalise each history, look it up
/// in the verdict cache, and search a witness for each new one. Covers the
/// options the benchmark's cases use: no spurious failures, no
/// asynchronous methods, no monitor backend, no iterative bounding.
fn replica<T: TestTarget>(
    target: &T,
    matrix: &TestMatrix,
    spec: &ObservationSet,
    options: &CheckOptions,
    tr: &mut Tracer,
    parent: SpanId,
) -> Replica {
    assert!(
        options.spurious_failures.is_empty()
            && options.async_methods.is_empty()
            && options.witness_monitor.is_none()
            && !options.iterative_bounding
            && options.workers == 1,
        "the replica covers plain serial phase-2 options only"
    );
    let phase = tr.open("phase2.replica", Some(parent));
    let index = spec.index();
    let groups = if options.symmetry {
        matrix.symmetry_groups(target.symmetry_policy())
    } else {
        SymmetryGroups::default()
    };
    let cache: HistoryCache<bool> = HistoryCache::new(1);
    let mut config = Config::exhaustive()
        .with_por(options.por)
        .with_symmetry(groups.masks())
        .with_fast_path(options.fast_path)
        .with_backend(options.backend);
    config.preemption_bound = options.preemption_bound;
    config.max_runs = options.max_phase2_runs;
    config.strategy = options.strategy.clone();

    let explore = tr.open("harness.explore_matrix", Some(phase));
    let visit = tr.rollup("harness.visit", explore);
    let canonicalize = tr.rollup("matrix.canonicalize", visit);
    let lookup = tr.rollup("history.cache_lookup", visit);
    let witness = tr.rollup("witness.find", visit);
    let mut passed = true;
    let mut distinct = 0usize;
    let mut queries = 0u64;
    let stats = explore_matrix(target, matrix, &config, |run| {
        let start = Instant::now();
        let stuck = match run.outcome {
            RunOutcome::Pruned => None,
            RunOutcome::Panicked { .. } | RunOutcome::StepLimit => {
                passed = false;
                None
            }
            RunOutcome::Complete => Some(false),
            RunOutcome::Deadlock | RunOutcome::Livelock | RunOutcome::StuckSerial => Some(true),
        };
        if let Some(stuck) = stuck {
            let key = tr.time(canonicalize, || groups.canonicalize(&run.history));
            let seen = tr.time(lookup, || cache.get(&key).is_some());
            if !seen {
                distinct += 1;
                let history = &run.history;
                let ok = tr.time(witness, || {
                    if stuck {
                        history.pending_ops().into_iter().all(|e| {
                            queries += 1;
                            find_witness(&index, &WitnessQuery::for_stuck(history, e)).is_some()
                        })
                    } else {
                        queries += 1;
                        find_witness(&index, &WitnessQuery::for_full(history)).is_some()
                    }
                });
                passed &= ok;
                tr.time(lookup, || cache.insert_if_absent(&key, ok));
            }
        }
        tr.add(visit, start, Instant::now());
        if !passed && options.stop_at_first_violation {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    tr.close(explore);
    tr.close(phase);
    Replica {
        passed,
        distinct,
        hits: cache.hits(),
        queries,
        steps: stats.total_steps,
        phase,
        explore,
        visit,
        canonicalize,
        lookup,
        witness,
    }
}

/// Checks, per case, that the counts a deterministic exploration fixes
/// repeat exactly across rounds. Phase-2 runs are exempt when the case
/// explores with several workers: stealing legitimately moves them.
#[derive(Debug, Default)]
pub struct RepeatCheck {
    first: BTreeMap<usize, Verdict>,
    pub mismatches: u64,
}

impl RepeatCheck {
    pub fn record(&mut self, case_index: usize, case: &Case, verdict: &Verdict) {
        let mut key = verdict.clone();
        if case.options.workers > 1 {
            key.runs = 0;
        }
        match self.first.get(&case_index) {
            Some(first) if *first != key => {
                eprintln!(
                    "repeat mismatch on case {case_index} ({}): first {first:?}, now {key:?}",
                    case.class
                );
                self.mismatches += 1;
            }
            Some(_) => {}
            None => {
                self.first.insert(case_index, key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regression part of `check_suite` with every expectation as the
    /// registry gives it, then with one expectation deliberately flipped:
    /// the gate must count exactly that one case as a wrong verdict.
    #[test]
    fn a_wrong_expectation_trips_the_gate() {
        let suite = check_suite(1, 0);
        assert_eq!(
            suite.cases.len(),
            19,
            "12 convictions plus 7 fixed siblings"
        );
        let verdicts: Vec<Verdict> = suite.cases.iter().map(|c| run_case(&suite, c)).collect();
        let wrong = |cases: &[Case]| {
            cases
                .iter()
                .zip(&verdicts)
                .filter(|(c, v)| c.expect_pass != v.passed)
                .count()
        };
        assert_eq!(wrong(&suite.cases), 0);
        let mut flipped = suite.cases.clone();
        flipped[0].expect_pass = !flipped[0].expect_pass;
        assert_eq!(wrong(&flipped), 1);
    }

    /// The traced run checks the concrete targets, the untraced run the
    /// registry's: both must be the same component, down to the serial
    /// specification they synthesize.
    #[test]
    fn every_registry_entry_has_the_same_concrete_target() {
        struct Fingerprint<'a>(&'a TestMatrix);
        impl WithTarget for Fingerprint<'_> {
            type Out = (String, Vec<Invocation>, ObservationSet);
            fn run<T: TestTarget>(self, target: &T) -> Self::Out {
                let spec = synthesize_spec(target, self.0).0;
                (target.name().to_string(), target.invocations(), spec)
            }
        }
        for entry in all_classes() {
            let target = entry.target();
            let catalog = target.invocations();
            let matrix = entry.regression_matrix().unwrap_or_else(|| {
                TestMatrix::from_columns(vec![
                    vec![catalog[0].clone(), catalog[1].clone()],
                    vec![catalog[1].clone(), catalog[0].clone()],
                ])
            });
            let (name, invocations, spec) = with_target(entry.name, Fingerprint(&matrix));
            assert_eq!(name, target.name(), "{}", entry.name);
            assert_eq!(invocations, catalog, "{}", entry.name);
            assert_eq!(spec, target.synthesize_spec(&matrix).0, "{}", entry.name);
        }
    }
}
