//! Result-cache soundness, end to end: a cache hit is the *same
//! artifact* as an uncached recompute — not approximately, bit for bit
//! — because [`retrsu_serve::JobSpec::digest`] hashes exactly the
//! fields the result depends on and chains are thread-count-invariant.
//!
//! Covers the two ways a result enters the cache: a job that ran
//! straight through, and a job that was preempted mid-flight and
//! resumed from its checkpoint before completing.

use proptest::prelude::*;
use retrsu_serve::{
    serve, JobKind, JobSpec, JobState, JobTask, Priority, ServerConfig, SliceStatus,
};
use rsu::{RsuArray, RsuConfig};
use std::sync::atomic::AtomicBool;

fn seg_spec(id: &str, seed: u64, iterations: usize, threads: usize) -> JobSpec {
    JobSpec {
        id: id.into(),
        tenant: "cache-test".into(),
        priority: Priority::Batch,
        seed,
        iterations,
        threads,
        kind: JobKind::Segmentation {
            width: 16,
            height: 12,
            num_regions: 3,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed: 11 + seed % 5,
        },
    }
}

fn config(cache_capacity: usize, quantum: usize) -> ServerConfig {
    ServerConfig {
        workers: 1,
        quantum,
        cache_capacity,
        ..ServerConfig::default()
    }
}

/// Uncached recompute through the runner, at the spec's own thread
/// count: `(score bits, field digest)`.
fn recompute(spec: &JobSpec) -> (u64, u64) {
    let mut task = JobTask::start(spec.clone()).unwrap();
    let status = task.run_slice(
        &mut RsuArray::new(RsuConfig::new_design(), 8),
        spec.iterations,
        &AtomicBool::new(false),
    );
    assert_eq!(status, SliceStatus::Completed);
    let (_, score, digest) = task.finish();
    (score.to_bits(), digest)
}

#[test]
fn cache_hits_agree_with_recompute_at_one_two_and_seven_threads() {
    let original = seg_spec("orig", 41, 12, 1);
    let handle = serve(config(64, 4));
    handle.submit(&original).unwrap();
    handle.wait_for("orig", JobState::Completed);
    // Duplicates at every thread count the determinism contract covers:
    // threads are outside the digest because they cannot change the
    // artifact.
    for threads in [1usize, 2, 7] {
        let dup = JobSpec {
            id: format!("dup-t{threads}"),
            tenant: "another-tenant".into(),
            threads,
            ..original.clone()
        };
        handle.submit(&dup).unwrap();
    }
    let outcome = handle.finish();
    assert_eq!(outcome.cache_hits, 3);

    let served = outcome.result("orig").unwrap();
    assert!(!served.cached);
    for threads in [1usize, 2, 7] {
        let spec = JobSpec {
            threads,
            ..original.clone()
        };
        let (score_bits, digest) = recompute(&spec);
        let hit = outcome.result(&format!("dup-t{threads}")).unwrap();
        assert!(hit.cached, "dup at {threads} threads must hit: {hit:?}");
        assert_eq!(
            hit.field_digest, digest,
            "cache hit diverged from a {threads}-thread recompute"
        );
        assert_eq!(hit.score.to_bits(), score_bits);
        assert_eq!(hit.field_digest, served.field_digest);
    }
}

#[test]
fn preempted_then_resumed_jobs_populate_the_cache_correctly() {
    // 2000 sweeps (about 50 ms in a release build): still running when
    // the urgent submit lands, with room for a much faster kernel.
    let victim = seg_spec("victim", 77, 2_000, 1);
    let handle = serve(config(64, 1_000)); // only preemption interleaves
    handle.submit(&victim).unwrap();
    handle.wait_for("victim", JobState::Started);
    // A different chain entirely — it forces the preemption but cannot
    // pollute the victim's cache slot.
    let urgent = JobSpec {
        id: "urgent".into(),
        tenant: "live".into(),
        priority: Priority::Interactive,
        ..seg_spec("urgent", 78, 6, 1)
    };
    handle.submit(&urgent).unwrap();
    handle.wait_for("victim", JobState::Completed);
    let dup = JobSpec {
        id: "victim-dup".into(),
        tenant: "another-tenant".into(),
        ..victim.clone()
    };
    handle.submit(&dup).unwrap();
    let outcome = handle.finish();

    let served = outcome.result("victim").unwrap();
    assert!(
        served.preemptions >= 1,
        "the victim must really have been preempted: {served:?}"
    );
    let hit = outcome.result("victim-dup").unwrap();
    assert!(hit.cached, "duplicate of a preempted job must hit: {hit:?}");
    // The cached artifact equals both the preempted run that populated
    // it and an uninterrupted recompute.
    let (score_bits, digest) = recompute(&victim);
    assert_eq!(hit.field_digest, served.field_digest);
    assert_eq!(hit.field_digest, digest);
    assert_eq!(hit.score.to_bits(), score_bits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random chains, scenes and thread counts: the hit equals the
    /// recompute everywhere, not just at hand-picked parameters.
    #[test]
    fn prop_cache_hit_equals_uncached_recompute(
        seed in 0u64..1_000_000,
        iterations in 4usize..16,
        threads in 1usize..4,
    ) {
        let original = seg_spec("p-orig", seed, iterations, 1);
        let dup = JobSpec {
            id: "p-dup".into(),
            tenant: "p-other".into(),
            threads,
            ..original.clone()
        };
        let handle = serve(config(8, 4));
        handle.submit(&original).unwrap();
        handle.wait_for("p-orig", JobState::Completed);
        handle.submit(&dup).unwrap();
        let outcome = handle.finish();
        let hit = outcome.result("p-dup").unwrap();
        prop_assert!(hit.cached);
        let (score_bits, digest) = recompute(&dup);
        prop_assert_eq!(hit.field_digest, digest);
        prop_assert_eq!(hit.score.to_bits(), score_bits);
    }
}
