//! Exact exploration counts of one fixed phase-2 test, pinned.
//!
//! The equivalence suites compare configurations against each other; this
//! file pins absolute numbers, so a change to the scheduler's bookkeeping
//! (clock storage, node storage, per-run buffers) that silently moved the
//! reduction would fail here even if every configuration moved together.
//! The workload is the `queue_2x2_exhaustive` row of the `phase2` bench:
//! `[[Enqueue 10, TryDequeue], [Enqueue 20, TryDequeue]]` on the fixed
//! ConcurrentQueue, explored exhaustively at one worker with partial-order
//! reduction, with and without thread symmetry, on both backends.
//!
//! Besides the counters, each case pins two digests: one over the decision
//! vectors of every run in visit order, one over the histories of every
//! unpruned run in visit order.

use std::ops::ControlFlow;

use lineup::{explore_matrix, Backend, Invocation, SymmetryGroups, TestMatrix, TestTarget};
use lineup_collections::concurrent_queue::ConcurrentQueueTarget;
use lineup_collections::Variant;
use lineup_sched::{Config, ExploreStats, RunOutcome};

#[derive(Debug, PartialEq, Eq)]
struct Counts {
    runs: u64,
    steps: u64,
    sleep_prunes: u64,
    symmetry_prunes: u64,
    backtrack_points: u64,
    handoffs: u64,
    fast_path_steps: u64,
    decisions_digest: u64,
    histories_digest: u64,
}

/// FNV-1a, so the digests do not depend on the process's hash seed.
fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn queue_2x2() -> TestMatrix {
    TestMatrix::from_columns(vec![
        vec![
            Invocation::with_int("Enqueue", 10),
            Invocation::new("TryDequeue"),
        ],
        vec![
            Invocation::with_int("Enqueue", 20),
            Invocation::new("TryDequeue"),
        ],
    ])
}

fn explore(symmetry: bool, backend: Backend) -> Counts {
    let target = ConcurrentQueueTarget {
        variant: Variant::Fixed,
    };
    let matrix = queue_2x2();
    let groups = if symmetry {
        matrix.symmetry_groups(target.symmetry_policy())
    } else {
        SymmetryGroups::default()
    };
    assert_eq!(
        groups.is_empty(),
        !symmetry,
        "the two columns are symmetric"
    );
    let config = Config::exhaustive()
        .with_por(true)
        .with_symmetry(groups.masks())
        .with_backend(backend);
    let mut decisions_digest = FNV_OFFSET;
    let mut histories_digest = FNV_OFFSET;
    let stats: ExploreStats = explore_matrix(&target, &matrix, &config, |run| {
        for d in &run.decisions {
            fnv(&mut decisions_digest, &(*d as u64).to_le_bytes());
        }
        fnv(&mut decisions_digest, b";");
        if run.outcome != RunOutcome::Pruned {
            fnv(
                &mut histories_digest,
                format!("{:?}", run.history).as_bytes(),
            );
        }
        ControlFlow::Continue(())
    });
    Counts {
        runs: stats.runs,
        steps: stats.total_steps,
        sleep_prunes: stats.sleep_prunes,
        symmetry_prunes: stats.symmetry_prunes,
        backtrack_points: stats.backtrack_points,
        handoffs: stats.handoffs,
        fast_path_steps: stats.fast_path_steps,
        decisions_digest,
        histories_digest,
    }
}

fn por_counts() -> Counts {
    Counts {
        runs: 2_834,
        steps: 75_146,
        sleep_prunes: 0,
        symmetry_prunes: 0,
        backtrack_points: 3_661,
        handoffs: 20_736,
        fast_path_steps: 51_576,
        decisions_digest: 16_477_335_776_192_001_696,
        histories_digest: 16_560_136_807_412_812_989,
    }
}

fn por_symmetry_counts() -> Counts {
    Counts {
        runs: 1_417,
        steps: 37_573,
        sleep_prunes: 0,
        symmetry_prunes: 1_417,
        backtrack_points: 1_830,
        handoffs: 10_368,
        fast_path_steps: 25_788,
        decisions_digest: 14_349_249_858_139_559_246,
        histories_digest: 15_496_346_606_529_260_293,
    }
}

#[test]
fn queue_2x2_por_counts_are_pinned_on_fibers() {
    assert_eq!(explore(false, Backend::Fibers), por_counts());
}

#[test]
fn queue_2x2_por_counts_are_pinned_on_os_threads() {
    assert_eq!(explore(false, Backend::OsThreads), por_counts());
}

#[test]
fn queue_2x2_por_symmetry_counts_are_pinned_on_fibers() {
    assert_eq!(explore(true, Backend::Fibers), por_symmetry_counts());
}

#[test]
fn queue_2x2_por_symmetry_counts_are_pinned_on_os_threads() {
    assert_eq!(explore(true, Backend::OsThreads), por_symmetry_counts());
}
