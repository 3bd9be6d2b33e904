//! CI gate for the job server: submits a mixed batch with one forced
//! preemption, re-parses the live lifecycle trace from disk, checks the
//! state machine, and verifies the whole run is deterministic.
//!
//! Exits non-zero (panics) on any violation. Checks:
//!
//! 1. every submitted job completes, and the victim was preempted;
//! 2. the interactive job finishes before the preempted batch job;
//! 3. the trace file re-parses through `bench::minijson`, its `"job"`
//!    records reconstruct the in-memory event log exactly, and every
//!    one-shot lifecycle transition appears exactly once per job
//!    (preempted/resumed in matched pairs);
//! 4. the victim's field digest equals an uninterrupted single-task
//!    run, and a full server rerun reproduces every digest;
//! 5. a duplicate spec (different id/tenant/threads) is answered from
//!    the result cache without touching a worker, and the cached
//!    result is bit-identical to a cache-disabled recompute;
//! 6. the shared percentile reporter survives NaN/empty samples
//!    (regression for the `partial_cmp().expect(...)` panic);
//! 7. forced-shed gate: against a capacity-1 batch queue, an overflow
//!    submission comes back with a typed rejection, emits exactly one
//!    `rejected` event in a lifecycle that still validates, its
//!    `rejected: true` result round-trips the wire format, and
//!    `wait_for` resolves for unknown and rejected ids instead of
//!    hanging.

use bench::minijson::Value;
use bench::trace_jsonl::parse_jsonl;
use retrsu_serve::{
    percentile, serve, validate_lifecycle, Admission, JobEvent, JobKind, JobResult, JobSpec,
    JobState, JobTask, Priority, QueueLimits, ServeOutcome, ServerConfig, ShedReason, SliceStatus,
    WaitOutcome,
};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

/// The batch job the scenarios hold the worker with. 2000 sweeps take
/// about 100 ms in a release build, so it is still running when the
/// next submit lands (a preemptor, or the overflow of the shed gate),
/// even with every thread pinned to one loaded CPU, and with room for a
/// much faster kernel.
fn victim_spec() -> JobSpec {
    JobSpec {
        id: "victim-seg".into(),
        tenant: "tenant-batch".into(),
        priority: Priority::Batch,
        seed: 31,
        iterations: 2_000,
        threads: 1,
        kind: JobKind::Segmentation {
            width: 24,
            height: 18,
            num_regions: 3,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed: 301,
        },
    }
}

fn mixed_batch() -> Vec<JobSpec> {
    vec![
        JobSpec {
            id: "urgent-stereo".into(),
            tenant: "tenant-live".into(),
            priority: Priority::Interactive,
            seed: 32,
            iterations: 6,
            threads: 1,
            kind: JobKind::Stereo {
                width: 24,
                height: 18,
                num_disparities: 5,
                num_layers: 2,
                noise_sigma: 1.0,
                scene_seed: 302,
            },
        },
        JobSpec {
            id: "tail-motion".into(),
            tenant: "tenant-batch".into(),
            priority: Priority::Batch,
            seed: 33,
            iterations: 8,
            threads: 1,
            kind: JobKind::Motion {
                width: 20,
                height: 16,
                window: 3,
                num_patches: 2,
                noise_sigma: 0.5,
                scene_seed: 303,
            },
        },
    ]
}

fn run_scenario(trace: PathBuf, spool: PathBuf) -> ServeOutcome {
    let handle = serve(ServerConfig {
        workers: 1,
        quantum: 1_000, // only preemption may interleave jobs
        cache_capacity: 256,
        spool_dir: Some(spool),
        trace_path: Some(trace),
        limits: QueueLimits::unbounded(),
    });
    handle.submit(&victim_spec()).expect("victim admits");
    // Guarantee the fleet is saturated by the victim before the
    // higher-priority traffic arrives.
    handle.wait_for("victim-seg", JobState::Started);
    for spec in mixed_batch() {
        handle.submit(&spec).expect("spec admits");
    }
    handle.finish()
}

fn check_exactly_once(events: &[JobEvent], job: &str) {
    let count = |state: JobState| {
        events
            .iter()
            .filter(|e| e.job == job && e.state == state)
            .count()
    };
    for state in [
        JobState::Submitted,
        JobState::Admitted,
        JobState::Started,
        JobState::Completed,
    ] {
        assert_eq!(count(state), 1, "{job}: {state} must appear exactly once");
    }
    assert_eq!(count(JobState::Failed), 0, "{job}: no failures expected");
    assert_eq!(
        count(JobState::Preempted),
        count(JobState::Resumed),
        "{job}: preempted/resumed must pair up"
    );
}

fn main() {
    let dir = std::env::temp_dir().join("retrsu-serve-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("lifecycle.jsonl");
    let outcome = run_scenario(trace_path.clone(), dir.join("spool"));

    // 1. All jobs completed; the victim really was preempted.
    assert_eq!(outcome.results.len(), 3, "all three jobs must complete");
    let victim = outcome.result("victim-seg").expect("victim result");
    assert!(
        victim.preemptions >= 1,
        "the batch victim must be preempted at least once, got {victim:?}"
    );

    // 2. The interactive job overtook the already-running batch job.
    let completion_order: Vec<&str> = outcome
        .events
        .iter()
        .filter(|e| e.state == JobState::Completed)
        .map(|e| e.job.as_str())
        .collect();
    assert_eq!(
        completion_order.first().copied(),
        Some("urgent-stereo"),
        "interactive job must complete first, got {completion_order:?}"
    );

    // 3. Re-parse the live trace from disk and check the state machine.
    let text = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let records = parse_jsonl(&text).expect("trace re-parses");
    let from_disk: Vec<JobEvent> = records
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("job"))
        .map(|r| JobEvent::from_value(r).expect("job record parses"))
        .collect();
    assert_eq!(
        from_disk, outcome.events,
        "trace on disk must reconstruct the in-memory event log"
    );
    validate_lifecycle(&from_disk).expect("lifecycle state machine holds");
    for job in ["victim-seg", "urgent-stereo", "tail-motion"] {
        check_exactly_once(&from_disk, job);
    }

    // 4a. The preempted run is bit-identical to an uninterrupted one.
    let spec = victim_spec();
    let mut alone = JobTask::start(spec.clone()).expect("victim starts standalone");
    let status = alone.run_slice(
        &mut rsu::RsuArray::new(rsu::RsuConfig::new_design(), 8),
        spec.iterations,
        &AtomicBool::new(false),
    );
    assert_eq!(status, SliceStatus::Completed);
    let (_, _, baseline_digest) = alone.finish();
    assert_eq!(
        victim.field_digest, baseline_digest,
        "preempted victim must match the uninterrupted digest"
    );

    // 4b. A full rerun reproduces every digest and every result wire
    // document round-trips.
    let rerun = run_scenario(dir.join("lifecycle2.jsonl"), dir.join("spool2"));
    for result in &outcome.results {
        let again = rerun.result(&result.id).expect("rerun completes same jobs");
        assert_eq!(
            again.field_digest, result.field_digest,
            "rerun digest diverged for {}",
            result.id
        );
        let wire = JobResult::from_json(&result.to_json()).expect("result round-trips");
        assert_eq!(wire.field_digest, result.field_digest);
    }

    // 5. Cache-hit gate: a duplicate spec under a different scheduling
    // identity is answered from the result cache — no worker, no
    // started event — and the cached result is bit-identical to a
    // cache-disabled recompute of the same spec.
    let original = JobSpec {
        id: "cache-orig".into(),
        iterations: 8,
        ..victim_spec()
    };
    let duplicate = JobSpec {
        id: "cache-dup".into(),
        tenant: "tenant-other".into(),
        priority: Priority::Interactive,
        threads: 2,
        ..original.clone()
    };
    let config = |cache_capacity: usize| ServerConfig {
        workers: 1,
        quantum: 1_000,
        cache_capacity,
        spool_dir: None,
        trace_path: None,
        limits: QueueLimits::unbounded(),
    };
    let handle = serve(config(256));
    handle.submit(&original).expect("original admits");
    handle.wait_for("cache-orig", JobState::Completed);
    handle.submit(&duplicate).expect("duplicate admits");
    let cached_run = handle.finish();
    validate_lifecycle(&cached_run.events).expect("cached lifecycle holds");
    let hit = cached_run.result("cache-dup").expect("duplicate completes");
    assert!(hit.cached, "duplicate spec must be a cache hit: {hit:?}");
    assert_eq!(cached_run.cache_hits, 1, "exactly one cache hit expected");
    assert!(
        !cached_run
            .events
            .iter()
            .any(|e| e.job == "cache-dup" && e.state == JobState::Started),
        "a cache hit must never reach a worker"
    );

    let uncached = serve(config(0));
    uncached.submit(&duplicate).expect("duplicate admits");
    let recompute_run = uncached.finish();
    assert_eq!(recompute_run.cache_hits, 0);
    let recomputed = recompute_run.result("cache-dup").expect("recompute done");
    assert!(!recomputed.cached);
    assert_eq!(
        hit.field_digest, recomputed.field_digest,
        "cache hit must be bit-identical to an uncached recompute"
    );
    assert_eq!(
        hit.score.to_bits(),
        recomputed.score.to_bits(),
        "cached score must equal the recomputed score bit-for-bit"
    );
    assert_eq!(hit.metric, recomputed.metric);
    assert_eq!(hit.iterations, recomputed.iterations);

    // 6. Percentile regression: NaN/empty samples must degrade, not
    // panic the reporter.
    assert!(percentile(&[], 0.5).is_nan(), "empty sample reports NaN");
    let poisoned = [1.0, f64::NAN, 0.0, f64::NAN];
    assert_eq!(percentile(&poisoned, 0.25), 0.0);
    assert_eq!(percentile(&poisoned, 0.50), 1.0);
    assert!(percentile(&poisoned, 1.0).is_nan());

    // 7. Forced-shed gate: a capacity-1 batch queue must shed the
    // overflow submission with a typed rejection and a clean lifecycle,
    // and waits on unknown/rejected ids must resolve, not hang.
    let gate = serve(ServerConfig {
        workers: 1,
        quantum: 1_000,
        cache_capacity: 0, // no cache: the overflow must hit admission
        spool_dir: None,
        trace_path: None,
        limits: QueueLimits {
            max_interactive: usize::MAX,
            max_batch: 1,
            max_per_tenant: usize::MAX,
        },
    });
    assert_eq!(
        gate.wait_for("never-submitted", JobState::Completed),
        WaitOutcome::Unknown,
        "a wait on an unknown id must resolve immediately"
    );
    let blocker = victim_spec();
    assert_eq!(
        gate.submit(&blocker).expect("blocker is valid"),
        Admission::Queued
    );
    gate.wait_for(&blocker.id, JobState::Started);
    let overflow = JobSpec {
        id: "shed-me".into(),
        tenant: "tenant-over".into(),
        ..victim_spec()
    };
    let admission = gate.submit(&overflow).expect("overflow spec is valid");
    assert_eq!(
        admission,
        Admission::Rejected(ShedReason::ClassFull {
            class: Priority::Batch,
            limit: 1
        }),
        "the overflow submission must come back with the typed shed reason"
    );
    assert_eq!(
        gate.wait_for("shed-me", JobState::Completed),
        WaitOutcome::Terminal(JobState::Rejected),
        "a wait on a rejected job must resolve with its terminal state"
    );
    let gate_run = gate.finish();
    validate_lifecycle(&gate_run.events).expect("shed lifecycle holds");
    assert_eq!(gate_run.shed_jobs, 1);
    assert_eq!(
        gate_run
            .events
            .iter()
            .filter(|e| e.job == "shed-me" && e.state == JobState::Rejected)
            .count(),
        1,
        "a shed job emits exactly one rejected event"
    );
    let shed = gate_run.result("shed-me").expect("shed jobs get a result");
    assert!(shed.rejected, "the shed result must say so: {shed:?}");
    let shed_wire = JobResult::from_json(&shed.to_json()).expect("rejected result round-trips");
    assert!(shed_wire.rejected);
    assert_eq!(shed_wire.reason, shed.reason);
    assert!(
        shed_wire
            .reason
            .as_deref()
            .unwrap_or("")
            .contains("class full"),
        "the wire reason must name the bound, got {:?}",
        shed_wire.reason
    );
    assert!(
        !gate_run
            .result(&blocker.id)
            .expect("blocker completes")
            .rejected,
        "the running blocker must never be displaced"
    );

    println!(
        "serve_smoke: OK — 3 jobs, victim preempted {}x, {} trace events, digests stable across \
         rerun, cache hit bit-identical to recompute, percentile NaN-safe, forced shed typed + \
         lifecycle-clean, waits resolve on unknown/rejected ids",
        victim.preemptions,
        outcome.events.len()
    );
}
