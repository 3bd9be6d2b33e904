//! Integration coverage for admission control under overload: with the
//! batch class saturated well past its bound, batch work sheds before
//! any interactive job, every rejected job emits exactly one terminal
//! `rejected` event in a lifecycle that still validates, and the shed
//! decision is a pure function of the submission order — reruns (at
//! job thread counts 1, 2 and 7) shed the identical job set and
//! produce bit-identical results for everything that completed.
//!
//! Determinism setup: one worker, huge quantum, and a long-running
//! *interactive* blocker occupying the array. While it runs, the main
//! thread submits the burst — each submit is a synchronous scheduler
//! round trip, so the burst reaches the scheduler in program order and
//! no batch job can start or complete mid-burst. The admission
//! decisions therefore depend only on the queue contents the burst
//! itself built.

use retrsu_serve::{
    serve, validate_lifecycle, Admission, JobKind, JobSpec, JobState, Priority, QueueLimits,
    ServeOutcome, ServerConfig, WaitOutcome,
};

/// 12 batch arrivals against a 2-slot batch bound: 6× overload, costs
/// strictly decreasing so the displacement contest's expected outcome
/// is exact (each arrival evicts the costliest queued entry, leaving
/// the two cheapest holding the slots).
const BATCH_BURST: usize = 12;
const MAX_BATCH: usize = 2;

fn burst_spec(id: String, priority: Priority, tenant: String, iterations: usize) -> JobSpec {
    JobSpec {
        id,
        tenant,
        priority,
        seed: 11,
        iterations,
        threads: 1,
        kind: JobKind::Segmentation {
            width: 16,
            height: 12,
            num_regions: 3,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed: 400,
        },
    }
}

fn run_burst(threads: usize) -> ServeOutcome {
    let handle = serve(ServerConfig {
        workers: 1,
        quantum: 100_000, // nothing interleaves but the blocker's own run
        cache_capacity: 0,
        spool_dir: None,
        trace_path: None,
        limits: QueueLimits {
            max_interactive: usize::MAX,
            max_batch: MAX_BATCH,
            max_per_tenant: usize::MAX,
        },
    });
    // The interactive blocker saturates the single worker for the whole
    // burst; the batch class's live set is then exactly what admission
    // control queued.
    let blocker = JobSpec {
        threads,
        ..burst_spec(
            "blocker".into(),
            Priority::Interactive,
            "tenant-live".into(),
            600,
        )
    };
    assert_eq!(handle.submit(&blocker).unwrap(), Admission::Queued);
    handle.wait_for("blocker", JobState::Started);
    for i in 0..BATCH_BURST {
        // Distinct tenants (all served 0) and strictly decreasing cost:
        // the contest is decided by cost alone, newest-cheapest wins.
        let spec = JobSpec {
            threads,
            ..burst_spec(
                format!("batch-{i:02}"),
                Priority::Batch,
                format!("tenant-{i:02}"),
                240 - 10 * i,
            )
        };
        handle.submit(&spec).unwrap();
        if i % 3 == 2 {
            // Interleaved interactive traffic must never shed while
            // only the batch bound is saturated.
            let live = JobSpec {
                threads,
                ..burst_spec(
                    format!("live-{i:02}"),
                    Priority::Interactive,
                    "tenant-live".into(),
                    8,
                )
            };
            assert_eq!(
                handle.submit(&live).unwrap(),
                Admission::Queued,
                "interactive must not shed under batch overload"
            );
        }
    }
    handle.finish()
}

fn rejected_ids(outcome: &ServeOutcome) -> Vec<String> {
    outcome
        .results
        .iter()
        .filter(|r| r.rejected)
        .map(|r| r.id.clone())
        .collect()
}

#[test]
fn batch_sheds_before_interactive_and_the_shed_set_is_deterministic() {
    let baseline = run_burst(1);
    validate_lifecycle(&baseline.events).expect("overloaded lifecycle validates");

    // Batch shed before any interactive job: every rejection is batch.
    let rejected = rejected_ids(&baseline);
    assert!(
        rejected.iter().all(|id| id.starts_with("batch-")),
        "only batch jobs may shed here, got {rejected:?}"
    );
    // Cost-aware displacement leaves exactly the two cheapest (newest)
    // batch arrivals holding the slots; everything earlier/costlier
    // shed.
    let expected: Vec<String> = (0..BATCH_BURST - MAX_BATCH)
        .map(|i| format!("batch-{i:02}"))
        .collect();
    assert_eq!(rejected, expected, "shed set must follow the cost order");
    assert_eq!(baseline.shed_jobs, rejected.len() as u64);
    // The queue bound held throughout the burst.
    assert!(
        baseline.peak_queued <= MAX_BATCH + 5,
        "queue depth must stay bounded, got {}",
        baseline.peak_queued
    );

    // Every rejected job: exactly one terminal rejected event, a
    // rejected result, and a wait that resolves.
    for id in &rejected {
        assert_eq!(
            baseline
                .events
                .iter()
                .filter(|e| e.job == *id && e.state == JobState::Rejected)
                .count(),
            1,
            "{id}: exactly one rejected event"
        );
        let result = baseline.result(id).expect("rejected jobs get results");
        assert!(result.rejected);
        assert!(result.reason.is_some(), "{id}: rejection carries a reason");
    }
    // Everyone else completed exactly once.
    for result in baseline.results.iter().filter(|r| !r.rejected) {
        assert_eq!(
            baseline
                .events
                .iter()
                .filter(|e| e.job == result.id && e.state == JobState::Completed)
                .count(),
            1
        );
    }
    assert!(
        baseline.result("batch-10").is_some_and(|r| !r.rejected)
            && baseline.result("batch-11").is_some_and(|r| !r.rejected),
        "the two cheapest batch arrivals must survive"
    );

    // Determinism contract: reruns at other job thread counts shed the
    // identical set, in the identical order, and every completed job's
    // artifact is bit-identical.
    for threads in [2usize, 7] {
        let rerun = run_burst(threads);
        validate_lifecycle(&rerun.events).expect("rerun lifecycle validates");
        assert_eq!(
            rejected_ids(&rerun),
            rejected,
            "shed decisions must be identical at {threads} threads"
        );
        for result in baseline.results.iter().filter(|r| !r.rejected) {
            let again = rerun.result(&result.id).expect("same jobs complete");
            assert_eq!(
                again.field_digest, result.field_digest,
                "{}: digest diverged at {threads} threads",
                result.id
            );
            assert_eq!(again.score.to_bits(), result.score.to_bits());
        }
    }
}

#[test]
fn waits_on_shed_jobs_resolve_while_the_server_is_still_running() {
    let handle = serve(ServerConfig {
        workers: 1,
        quantum: 100_000,
        limits: QueueLimits {
            max_batch: 1,
            ..QueueLimits::unbounded()
        },
        ..ServerConfig::default()
    });
    let blocker = burst_spec("bg".into(), Priority::Batch, "t".into(), 400);
    handle.submit(&blocker).unwrap();
    handle.wait_for("bg", JobState::Started);
    let shed = burst_spec("extra".into(), Priority::Batch, "u".into(), 5);
    assert!(matches!(
        handle.submit(&shed).unwrap(),
        Admission::Rejected(_)
    ));
    // Both orders resolve: wait after rejection (terminal replay) and
    // wait on a never-submitted id (unknown).
    assert_eq!(
        handle.wait_for("extra", JobState::Completed),
        WaitOutcome::Terminal(JobState::Rejected)
    );
    assert_eq!(
        handle.wait_for("nope", JobState::Started),
        WaitOutcome::Unknown
    );
    let outcome = handle.finish();
    validate_lifecycle(&outcome.events).unwrap();
    assert_eq!(outcome.shed_jobs, 1);
}
