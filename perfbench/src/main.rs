//! Line-Up's repository benchmark: three workloads, each checked against
//! answers known without the checker, reporting end-to-end metrics with
//! tracing off (`--trace 0`) and per-layer metrics from a traced run
//! (`--trace 1`).
//!
//! ```text
//! perfbench --workload explore_exhaustive|check_suite|serve_mixed
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it is a
//! JSON report with the seed, `nproc`, the repeat count and every metric's
//! median, quartiles and sample count; the same report, and in traced runs
//! the spans, are written under `.bench_out/`. The process exits non-zero
//! on a wrong verdict, a count that failed to repeat exactly, or a failed
//! attempt.

mod measure;
mod offline;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use measure::{nproc, peak_rss_mb, process_cpu, release_free_memory, summarize, Summary};
use offline::{Layers, RepeatCheck, Suite};
use trace::Tracer;

/// Random 3×3 tests per class in one `check_suite` round.
const SAMPLES_PER_CLASS: usize = 1;
/// Set-ups of the offline inputs timed before every repeat; `setup_s` is
/// the median over all of them. Spreading the set-ups over the run keeps
/// one slow moment of the host from deciding the figure.
const OFFLINE_SETUPS: usize = 20;
/// Untraced runs repeat the workload at least this often, so exact-repeat
/// assertions always have a pair to compare.
const MIN_ROUNDS: usize = 2;

/// How many times a run repeats its workload: enough repeats of the
/// workload's nominal duration on a 2-core host to fill `seconds`. The
/// count depends on `seconds` only, never on how fast this run happens to
/// go, so every run of one setting takes the same number of samples and a
/// percentile such as `check_tail_ms` always reads the same rank.
fn repeats(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).ceil() as usize).max(min)
}

/// Nominal duration of one repeat, untraced and traced, per workload.
fn nominal_repeat_s(workload: &str, trace: bool) -> f64 {
    match (workload, trace) {
        ("explore_exhaustive", false) => 3.0,
        ("explore_exhaustive", true) => 15.0,
        ("check_suite", false) => 13.0,
        ("check_suite", true) => 30.0,
        (_, false) => 0.55,
        (_, true) => 2.3,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !["explore_exhaustive", "check_suite", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: the value the result line carries plus the summary of
/// the samples it was taken from.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Summary,
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    rounds: usize,
    attempted: u64,
    failed: u64,
    wrong_verdicts: u64,
    /// Counts that did not repeat exactly across repeats, or (traced) a
    /// replica that disagreed with the real check.
    count_mismatches: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    trace_json: Option<String>,
}

impl Report {
    /// A metric reported as the median of its samples.
    fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let summary = summarize(samples);
        self.metrics.push(Metric {
            name,
            unit,
            value: summary.median,
            summary,
        });
    }

    /// A metric reported as the tail percentile of its samples.
    fn tail(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let summary = summarize(samples);
        self.metrics.push(Metric {
            name,
            unit,
            value: summary.tail,
            summary,
        });
    }

    fn end_to_end(
        &mut self,
        wall: &[f64],
        cpu: &[f64],
        setup: &[f64],
        check_ms: &[f64],
        ops_per_s: &[f64],
    ) {
        self.median("wall_s", "s", wall);
        self.median("cpu_s", "s", cpu);
        self.median("setup_s", "s", setup);
        self.median("peak_rss_mb", "MiB", &[peak_rss_mb()]);
        self.median("check_p50_ms", "ms", check_ms);
        self.tail("check_tail_ms", "ms", check_ms);
        self.median("ops_per_s", "1/s", ops_per_s);
    }
}

fn median_of(samples: &[f64]) -> f64 {
    summarize(samples).median
}

fn time_setup<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        samples.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), samples)
}

/// Untraced offline workload: whole checks, round after round, each round
/// on freshly built inputs.
fn offline_untraced(build: impl Fn() -> Suite, repeats: usize) -> Report {
    let mut report = Report::default();
    let mut repeat = RepeatCheck::default();
    let (mut wall, mut cpu, mut check_ms, mut ops_per_s) = (vec![], vec![], vec![], vec![]);
    let (mut setup, mut regression_ms) = (vec![], vec![]);
    while report.rounds < repeats {
        let (suite, samples) = time_setup(OFFLINE_SETUPS, &build);
        setup.extend(samples);
        let suite = &suite;
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let mut ops = 0u64;
        for (i, case) in suite.cases.iter().enumerate() {
            report.attempted += 1;
            let c0 = Instant::now();
            let verdict = catch_unwind(AssertUnwindSafe(|| offline::run_case(suite, case)));
            let ms = c0.elapsed().as_secs_f64() * 1e3;
            if case.regression {
                regression_ms.push(ms);
            } else {
                check_ms.push(ms);
            }
            match verdict {
                Ok(v) => {
                    if v.passed != case.expect_pass {
                        report.wrong_verdicts += 1;
                        eprintln!(
                            "wrong verdict: {} on {:?}: passed={}, expected {}",
                            case.class, case.matrix, v.passed, case.expect_pass
                        );
                    }
                    repeat.record(i, case, &v);
                    ops += v.runs * case.matrix.operation_count() as u64;
                }
                Err(_) => report.failed += 1,
            }
        }
        let w = t0.elapsed().as_secs_f64();
        wall.push(w);
        cpu.push((process_cpu() - cpu0).as_secs_f64());
        ops_per_s.push(ops as f64 / w);
        report.rounds += 1;
        release_free_memory();
    }
    report.count_mismatches = repeat.mismatches;
    report.end_to_end(&wall, &cpu, &setup, &check_ms, &ops_per_s);
    if !regression_ms.is_empty() {
        report.notes.push(format!(
            "regression checks (not in check_p50_ms/check_tail_ms): median {:.3} ms over {}",
            median_of(&regression_ms),
            regression_ms.len()
        ));
    }
    report
}

/// Traced offline workload: every check through the traced replica.
fn offline_traced(suite: &Suite, repeats: usize) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut replica_mismatches = 0u64;
    while report.rounds < repeats {
        let root = tracer.open("round", None);
        let mut sum = Layers::default();
        for case in &suite.cases {
            report.attempted += 1;
            let traced = catch_unwind(AssertUnwindSafe(|| {
                offline::trace_case(case, &mut tracer, root)
            }));
            let Ok(t) = traced else {
                report.failed += 1;
                continue;
            };
            if t.verdict.passed != case.expect_pass {
                report.wrong_verdicts += 1;
            }
            if !t.replica_agrees {
                replica_mismatches += 1;
                eprintln!("traced replica disagrees with check on {}", case.class);
            }
            sum.absorb(&t.layers);
        }
        tracer.close(root);
        rounds.push(sum);
        report.rounds += 1;
    }
    report.count_mismatches = replica_mismatches;
    let col = |f: &dyn Fn(&Layers) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.median("spec.synth_s", "s", &col(&|l| l.synth_s));
    report.median(
        "spec.serial_histories",
        "count",
        &col(&|l| l.serial_histories),
    );
    report.median("harness.explore_s", "s", &col(&|l| l.explore_self_s));
    report.median("sched.runs", "count", &col(&|l| l.phase2.runs as f64));
    report.median(
        "sched.steps",
        "count",
        &col(&|l| l.phase2.total_steps as f64),
    );
    report.median(
        "sched.ns_per_step",
        "ns",
        &col(&|l| ratio(l.explore_self_s * 1e9, l.replica_steps)),
    );
    report.median(
        "sched.handoffs",
        "count",
        &col(&|l| l.phase2.handoffs as f64),
    );
    report.median(
        "sched.fast_path_steps",
        "count",
        &col(&|l| l.phase2.fast_path_steps as f64),
    );
    report.median(
        "sched.sleep_prunes",
        "count",
        &col(&|l| l.phase2.sleep_prunes as f64),
    );
    report.median(
        "sched.symmetry_prunes",
        "count",
        &col(&|l| l.phase2.symmetry_prunes as f64),
    );
    report.median("sched.steals", "count", &col(&|l| l.phase2.steals as f64));
    report.median("sched.splits", "count", &col(&|l| l.phase2.splits as f64));
    report.median(
        "sched.steal_replays",
        "count",
        &col(&|l| l.phase2.steal_replays as f64),
    );
    report.median(
        "sched.idle_parks",
        "count",
        &col(&|l| l.phase2.idle_parks as f64),
    );
    report.median("matrix.canonicalize_s", "s", &col(&|l| l.canonicalize_s));
    report.median("history.cache_lookup_s", "s", &col(&|l| l.cache_lookup_s));
    report.median(
        "history.cache_hit_ratio",
        "ratio",
        &col(&|l| ratio(l.hits, l.lookups)),
    );
    report.median("witness.find_s", "s", &col(&|l| l.witness_s));
    report.median("witness.queries", "count", &col(&|l| l.queries));
    report.median(
        "witness.ns_per_query",
        "ns",
        &col(&|l| ratio(l.witness_s * 1e9, l.queries)),
    );
    report.median("check.unattributed_s", "s", &col(&|l| l.unattributed_s));
    server_layers_absent(&mut report);
    report.median(
        "trace.overhead_share",
        "ratio",
        &col(&|l| ratio(l.replica_s, l.untraced_s) - 1.0),
    );
    let coverage = col(&|l| ratio(l.replica_s - l.unattributed_s, l.replica_s));
    report.median("trace.span_coverage", "ratio", &coverage);
    report.notes.push(format!(
        "spans cover {:.2}% of check_against_spec (replica) wall time",
        100.0 * median_of(&coverage)
    ));
    report.trace_json = Some(tracer.to_json());
    report
}

/// Per-layer metrics of the server, zero on the offline workloads.
fn server_layers_absent(report: &mut Report) {
    for (name, unit) in SERVER_LAYERS {
        report.median(name, unit, &[0.0]);
    }
}

/// Per-layer metrics of phase 1 and phase 2, zero on `serve_mixed`.
fn offline_layers_absent(report: &mut Report) {
    for (name, unit) in OFFLINE_LAYERS {
        report.median(name, unit, &[0.0]);
    }
}

const OFFLINE_LAYERS: [(&str, &str); 21] = [
    ("spec.synth_s", "s"),
    ("spec.serial_histories", "count"),
    ("harness.explore_s", "s"),
    ("sched.runs", "count"),
    ("sched.steps", "count"),
    ("sched.ns_per_step", "ns"),
    ("sched.handoffs", "count"),
    ("sched.fast_path_steps", "count"),
    ("sched.sleep_prunes", "count"),
    ("sched.symmetry_prunes", "count"),
    ("sched.steals", "count"),
    ("sched.splits", "count"),
    ("sched.steal_replays", "count"),
    ("sched.idle_parks", "count"),
    ("matrix.canonicalize_s", "s"),
    ("history.cache_lookup_s", "s"),
    ("history.cache_hit_ratio", "ratio"),
    ("witness.find_s", "s"),
    ("witness.queries", "count"),
    ("witness.ns_per_query", "ns"),
    ("check.unattributed_s", "s"),
];

const SERVER_LAYERS: [(&str, &str); 18] = [
    ("wire.decode_s", "s"),
    ("wire.records", "count"),
    ("wire.ns_per_record", "ns"),
    ("server.apply_call_s", "s"),
    ("server.apply_return_s", "s"),
    ("server.apply_end_s", "s"),
    ("server.route_s", "s"),
    ("server.drain_ms", "ms"),
    ("shard.close_s", "s"),
    ("shard.windows_closed", "count"),
    ("shard.windows_held", "count"),
    ("shard.peak_window_ops", "count"),
    ("shard.verdict_cache_hits", "count"),
    ("monitor.checks", "count"),
    ("monitor.specialized_checks", "count"),
    ("monitor.fallback_checks", "count"),
    ("monitor.oracle_steps", "count"),
    ("monitor.memo_hits", "count"),
];

/// Counts the loopback rounds must repeat exactly.
#[derive(Debug, PartialEq, Eq)]
struct ServeCounts {
    ops: u64,
    checks: u64,
    windows_closed: u64,
    violations: u64,
}

fn serve_untraced(seed: u64, repeats: usize) -> Report {
    let mut report = Report::default();
    let first_stream = serve::generate(seed);
    // The exact flagged ids, checked once per run on direct shards; the
    // loopback rounds below are then held to the same count.
    let flagged = serve::direct_shards(&first_stream, None);
    report.wrong_verdicts += flagged
        .symmetric_difference(&first_stream.expect_flagged)
        .count() as u64;
    let (mut wall, mut cpu, mut batch_ms, mut ops_per_s, mut setup) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut first: Option<ServeCounts> = None;
    while report.rounds < repeats {
        let (stream, generate_s) = time_setup(1, || serve::generate(seed));
        if stream.whole != first_stream.whole {
            report.count_mismatches += 1;
            eprintln!("the stream generated from seed {seed} changed between repeats");
        }
        let (live, spawn_s) = serve::start();
        setup.push(generate_s[0] + spawn_s);
        let r = serve::round(live, &stream);
        report.attempted += stream.objects;
        report.failed += r.failed;
        let expected = stream.expect_flagged.len() as u64;
        if r.violations != expected {
            report.wrong_verdicts += r.violations.abs_diff(expected);
            eprintln!(
                "server flagged {} objects, expected {expected}",
                r.violations
            );
        }
        let counts = ServeCounts {
            ops: r.ops,
            checks: r.checks,
            windows_closed: r.windows_closed,
            violations: r.violations,
        };
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => {
                report.count_mismatches += 1;
                eprintln!("serve counts changed between rounds: {f:?} then {counts:?}");
            }
            Some(_) => {}
        }
        if r.ops != stream.ops {
            report.count_mismatches += 1;
            eprintln!("server ingested {} ops of {}", r.ops, stream.ops);
        }
        wall.push(r.wall_s);
        cpu.push(r.cpu_s);
        ops_per_s.push(r.ops as f64 / r.wall_s);
        batch_ms.extend(r.batch_ms);
        report.rounds += 1;
        release_free_memory();
    }
    let stream = &first_stream;
    let shapes = [
        serve::Shape::Unambiguous,
        serve::Shape::Ambiguous,
        serve::Shape::Violating,
        serve::Shape::Resent,
    ]
    .map(|shape| {
        format!(
            "{shape:?} {}",
            stream.shapes.iter().filter(|&&s| s == shape).count()
        )
    });
    report.notes.push(format!(
        "{} objects, {} ops: {}; {} flagged by construction",
        stream.objects,
        stream.ops,
        shapes.join(", "),
        stream.expect_flagged.len()
    ));
    report.end_to_end(&wall, &cpu, &setup, &batch_ms, &ops_per_s);
    report
}

fn serve_traced(seed: u64, repeats: usize) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let stream = serve::generate(seed);
    struct Round {
        decode_s: f64,
        records: f64,
        call_s: f64,
        return_s: f64,
        end_s: f64,
        route_s: f64,
        drain_ms: f64,
        close_s: f64,
        overhead: f64,
        coverage: f64,
        snap: lineup_server::StatsSnapshot,
    }
    let expected = stream.expect_flagged.len() as u64;
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < repeats {
        let root = tr.open("round", None);
        let (r, _) = tr.span("serve.loopback", Some(root), || {
            let (live, _) = serve::start();
            serve::round(live, &stream)
        });
        let ((_, untraced_s), _) = tr.span("serve.ingest_untraced", Some(root), || {
            serve::ingest_untraced(&stream)
        });
        let ingest = tr.open("serve.ingest_traced", Some(root));
        let engine = serve::ingest_traced(&stream, &mut tr, ingest);
        tr.close(ingest);
        let direct = tr.open("serve.direct_shards", Some(root));
        let flagged = serve::direct_shards(&stream, Some((&mut tr, direct)));
        tr.close(direct);
        tr.close(root);

        let snap = engine.snapshot();
        report.attempted += stream.objects;
        report.failed += r.failed + snap.protocol_errors;
        report.wrong_verdicts += flagged.symmetric_difference(&stream.expect_flagged).count()
            as u64
            + r.violations.abs_diff(expected)
            + snap.counters.violations.abs_diff(expected);

        let sum = |name: &str| tr.sum_since(root, name).0;
        let (decode_s, records) = tr.sum_since(root, "wire.next_record");
        let (call_s, return_s, end_s) = (
            sum("server.apply_call"),
            sum("server.apply_return"),
            sum("server.apply_end"),
        );
        let apply_s = call_s + return_s + end_s + sum("server.apply_register");
        let direct_s: f64 = ["shard.new", "shard.call", "shard.ret", "shard.end"]
            .into_iter()
            .map(sum)
            .sum();
        let traced_s = tr.secs(ingest);
        rounds.push(Round {
            decode_s,
            records: records as f64,
            call_s,
            return_s,
            end_s,
            route_s: apply_s - direct_s,
            drain_ms: median_of(&r.drain_ms),
            close_s: sum("shard.close"),
            overhead: traced_s / untraced_s - 1.0,
            coverage: (decode_s + apply_s) / traced_s,
            snap,
        });
    }
    report.rounds = rounds.len();
    offline_layers_absent(&mut report);
    let col = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let snap = |f: &dyn Fn(&lineup_server::StatsSnapshot) -> u64| -> Vec<f64> {
        rounds.iter().map(|r| f(&r.snap) as f64).collect()
    };
    report.median("wire.decode_s", "s", &col(&|r| r.decode_s));
    report.median("wire.records", "count", &col(&|r| r.records));
    report.median(
        "wire.ns_per_record",
        "ns",
        &col(&|r| r.decode_s * 1e9 / r.records),
    );
    report.median("server.apply_call_s", "s", &col(&|r| r.call_s));
    report.median("server.apply_return_s", "s", &col(&|r| r.return_s));
    report.median("server.apply_end_s", "s", &col(&|r| r.end_s));
    report.median("server.route_s", "s", &col(&|r| r.route_s));
    report.median("server.drain_ms", "ms", &col(&|r| r.drain_ms));
    report.median("shard.close_s", "s", &col(&|r| r.close_s));
    report.median(
        "shard.windows_closed",
        "count",
        &snap(&|s| s.counters.windows_closed),
    );
    report.median(
        "shard.windows_held",
        "count",
        &snap(&|s| s.counters.windows_held),
    );
    report.median(
        "shard.peak_window_ops",
        "count",
        &snap(&|s| s.counters.peak_window_ops as u64),
    );
    report.median(
        "shard.verdict_cache_hits",
        "count",
        &snap(&|s| s.counters.verdict_cache_hits),
    );
    report.median("monitor.checks", "count", &snap(&|s| s.counters.checks));
    report.median(
        "monitor.specialized_checks",
        "count",
        &snap(&|s| s.counters.paths.specialized_checks),
    );
    report.median(
        "monitor.fallback_checks",
        "count",
        &snap(&|s| s.counters.paths.fallback_checks),
    );
    report.median(
        "monitor.oracle_steps",
        "count",
        &snap(&|s| s.counters.oracle_steps),
    );
    report.median(
        "monitor.memo_hits",
        "count",
        &snap(&|s| s.counters.memo_hits),
    );
    report.median("trace.overhead_share", "ratio", &col(&|r| r.overhead));
    let coverage = col(&|r| r.coverage);
    report.median("trace.span_coverage", "ratio", &coverage);
    report.notes.push(format!(
        "spans cover {:.2}% of in-process serve wall time",
        100.0 * median_of(&coverage)
    ));
    report.trace_json = Some(tr.to_json());
    report
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload explore_exhaustive|check_suite|serve_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let run_start = Instant::now();
    let repeats = repeats(
        args.seconds,
        nominal_repeat_s(&args.workload, args.trace),
        if args.trace { 1 } else { MIN_ROUNDS },
    );
    let report = match (args.workload.as_str(), args.trace) {
        ("serve_mixed", false) => serve_untraced(args.seed, repeats),
        ("serve_mixed", true) => serve_traced(args.seed, repeats),
        (workload, trace) => {
            let build = || match workload {
                "explore_exhaustive" => offline::explore_exhaustive(args.seed),
                _ => offline::check_suite(args.seed, SAMPLES_PER_CLASS),
            };
            if trace {
                offline_traced(&build(), repeats)
            } else {
                offline_untraced(build, repeats)
            }
        }
    };

    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    let correct = report.wrong_verdicts == 0 && report.count_mismatches == 0;
    println!(
        "perfbench {} seed {} trace {} | nproc {} | repeats {} | {:.1}s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        report.rounds,
        run_start.elapsed().as_secs_f64()
    );
    println!(
        "  wrong_verdicts {} | count_mismatches {} | failed_share {} ({} of {})",
        report.wrong_verdicts,
        report.count_mismatches,
        failed_share,
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        let s = &m.summary;
        println!(
            "  {:<28} {:>14.6} {:<6} median {:.6} q1 {:.6} q3 {:.6} n {}{}",
            m.name,
            m.value,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.samples,
            if m.name == "check_tail_ms" {
                format!(" (p{:.1})", s.tail_pct)
            } else {
                String::new()
            }
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }

    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"repeats\": {}, \"wrong_verdicts\": {}, \"count_mismatches\": {}, \
         \"failed_share\": {}, \"metrics\": {{",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        report.rounds,
        report.wrong_verdicts,
        report.count_mismatches,
        json_num(failed_share)
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let s = &m.summary;
        let _ = write!(
            detail,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \
             \"q3\": {}, \"samples\": {}, \"tail_pct\": {}}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(m.value),
            m.unit,
            json_num(s.median),
            json_num(s.q1),
            json_num(s.q3),
            s.samples,
            json_num(s.tail_pct)
        );
    }
    detail.push_str("}}");
    let out_dir = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("report-{stem}.json")), &detail))
        .and_then(|()| match &report.trace_json {
            Some(spans) => std::fs::write(out_dir.join(format!("spans-{stem}.json")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write under .bench_out: {e}");
        std::process::exit(1);
    }
    println!("report {detail}");

    let mut last = String::new();
    let _ = write!(
        last,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let _ = write!(
            last,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    last.push_str("}}");
    println!("{last}");
    if !correct || report.failed > 0 {
        std::process::exit(1);
    }
}
