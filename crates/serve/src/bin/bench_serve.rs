//! Serving benchmark: latency-vs-load curves for the job server under
//! mixed interactive/batch traffic, plus an end-to-end preemption
//! demonstration. Writes `BENCH_serve.json` at the workspace root.
//!
//! Three scenarios:
//!
//! * **preemption demo** — one worker, one long batch victim, one
//!   interactive job arriving after the victim saturates the fleet.
//!   Records that the victim was suspended and resumed bit-identically
//!   (digest equals an uninterrupted run) while the interactive job
//!   completed first, and that every lifecycle transition appears
//!   exactly once in the JSONL trace.
//! * **open-loop sweep** — a traffic generator submitting jobs at a
//!   fixed arrival rate regardless of completions (the "many clients"
//!   regime), swept across offered loads from half the calibrated
//!   single-stream throughput to 4×. The server runs with bounded
//!   admission ([`QueueLimits`]), so past saturation the sweep shows
//!   load *shedding* (shed ratio up, goodput flat, interactive p99
//!   bounded) instead of unbounded queue growth. Each point also
//!   records the *achieved* arrival rate — when `sleep_until(due)`
//!   falls behind, the generator delivers less than the labeled rate,
//!   and the point warns on >5% drift instead of silently lying.
//! * **closed-loop sweep** — K client threads each in a
//!   submit → wait → submit loop (the "think-time-free session"
//!   regime), swept across client counts.
//!
//! Every point reports achieved jobs/s, goodput (completed jobs only),
//! shed count/ratio, queue high-water mark, p50/p99 latency overall and
//! per priority class (rejected jobs excluded from latency samples),
//! the result-cache hit ratio (the traffic re-submits a share of
//! duplicate specs, as real inference traffic does) and the preemption
//! count. Percentiles come from [`retrsu_serve::percentile`] —
//! NaN-total-ordered, so a degenerate sample can never panic the
//! reporter.
//!
//! Usage: `bench_serve [--workers N] [--jobs N] [--quantum N]`.

use bench::minijson::Value;
use bench::trace_jsonl::parse_jsonl;
use retrsu_serve::{
    percentile, serve, validate_lifecycle, JobEvent, JobKind, JobSpec, JobState, JobTask, Priority,
    QueueLimits, ServeOutcome, ServerConfig, SliceStatus,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return iter
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a positive integer"));
        }
        if let Some(value) = arg.strip_prefix(&format!("{flag}=")) {
            return value
                .parse()
                .unwrap_or_else(|_| panic!("{flag} needs a positive integer"));
        }
    }
    default
}

/// The three applications cycled through the traffic mix, scaled small
/// enough that a full benchmark run stays in CI territory.
fn kind_for(index: usize, scene_seed: u64) -> JobKind {
    match index % 3 {
        0 => JobKind::Stereo {
            width: 32,
            height: 24,
            num_disparities: 6,
            num_layers: 2,
            noise_sigma: 1.0,
            scene_seed,
        },
        1 => JobKind::Motion {
            width: 24,
            height: 20,
            window: 3,
            num_patches: 2,
            noise_sigma: 0.5,
            scene_seed,
        },
        _ => JobKind::Segmentation {
            width: 32,
            height: 24,
            num_regions: 4,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed,
        },
    }
}

struct PreemptionDemo {
    victim_preemptions: u32,
    digest_matches: bool,
    interactive_first: bool,
    lifecycle_valid: bool,
    transitions_exactly_once: bool,
    trace_events: usize,
}

fn preemption_demo(trace_path: PathBuf) -> PreemptionDemo {
    let victim = JobSpec {
        id: "demo-victim".into(),
        tenant: "batch-tenant".into(),
        priority: Priority::Batch,
        seed: 77,
        iterations: 60,
        threads: 1,
        kind: kind_for(0, 700),
    };
    let urgent = JobSpec {
        id: "demo-urgent".into(),
        tenant: "live-tenant".into(),
        priority: Priority::Interactive,
        seed: 78,
        iterations: 8,
        threads: 1,
        kind: kind_for(1, 701),
    };
    let handle = serve(ServerConfig {
        workers: 1,
        quantum: 1_000,
        cache_capacity: 256,
        spool_dir: None,
        trace_path: Some(trace_path.clone()),
        limits: QueueLimits::unbounded(),
    });
    handle.submit(&victim).expect("victim admits");
    handle.wait_for("demo-victim", JobState::Started);
    handle.submit(&urgent).expect("urgent admits");
    let outcome = handle.finish();

    // Uninterrupted baseline for the victim.
    let mut alone = JobTask::start(victim.clone()).expect("victim starts standalone");
    let status = alone.run_slice(
        &mut rsu::RsuArray::new(rsu::RsuConfig::new_design(), 8),
        victim.iterations,
        &AtomicBool::new(false),
    );
    assert_eq!(status, SliceStatus::Completed);
    let (_, _, baseline) = alone.finish();

    let text = std::fs::read_to_string(&trace_path).expect("trace readable");
    let from_disk: Vec<JobEvent> = parse_jsonl(&text)
        .expect("trace re-parses")
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("job"))
        .map(|r| JobEvent::from_value(r).expect("job record parses"))
        .collect();
    let once = |job: &str, state: JobState| {
        from_disk
            .iter()
            .filter(|e| e.job == job && e.state == state)
            .count()
            == 1
    };
    let exactly_once = ["demo-victim", "demo-urgent"].iter().all(|job| {
        once(job, JobState::Submitted)
            && once(job, JobState::Admitted)
            && once(job, JobState::Started)
            && once(job, JobState::Completed)
    }) && once("demo-victim", JobState::Preempted)
        && once("demo-victim", JobState::Resumed);

    let completions: Vec<&str> = outcome
        .events
        .iter()
        .filter(|e| e.state == JobState::Completed)
        .map(|e| e.job.as_str())
        .collect();
    let victim_result = outcome.result("demo-victim").expect("victim completed");
    PreemptionDemo {
        victim_preemptions: victim_result.preemptions,
        digest_matches: victim_result.field_digest == baseline,
        interactive_first: completions.first().copied() == Some("demo-urgent"),
        lifecycle_valid: validate_lifecycle(&from_disk).is_ok(),
        transitions_exactly_once: exactly_once,
        trace_events: from_disk.len(),
    }
}

/// Distinct `(seed, scene, iterations)` tuples the traffic cycles
/// through; job `i` and job `i + TRAFFIC_UNIQUE` carry the same spec
/// digest (the class cycle divides it), so roughly a third of a 24-job
/// point is duplicate traffic the result cache can answer.
const TRAFFIC_UNIQUE: usize = 16;

/// Job `i` of a load point: 1-in-4 interactive, three tenants, all
/// three applications, with the digest-bearing fields cycling modulo
/// [`TRAFFIC_UNIQUE`].
fn traffic_spec(i: usize) -> JobSpec {
    let interactive = i % 4 == 3;
    let key = (i % TRAFFIC_UNIQUE) as u64;
    JobSpec {
        id: format!("{}-{i:04}", if interactive { "live" } else { "batch" }),
        tenant: ["acme", "globex", "initech"][i % 3].into(),
        priority: if interactive {
            Priority::Interactive
        } else {
            Priority::Batch
        },
        seed: 1_000 + key,
        iterations: if interactive { 8 } else { 24 },
        threads: 1,
        kind: kind_for(key as usize, 2_000 + key),
    }
}

fn server(workers: usize, quantum: usize, limits: QueueLimits) -> ServerConfig {
    ServerConfig {
        workers,
        quantum,
        cache_capacity: 256,
        spool_dir: None,
        trace_path: None,
        limits,
    }
}

/// Admission bounds for the open-loop sweep: room for a healthy queue
/// (4 waiting jobs per worker per class), small enough that 4× overload
/// visibly sheds instead of growing the queue without bound.
fn overload_limits(workers: usize) -> QueueLimits {
    QueueLimits {
        max_interactive: 4 * workers.max(1),
        max_batch: 4 * workers.max(1),
        max_per_tenant: usize::MAX,
    }
}

/// Open loop: submissions arrive at `rate` jobs/s whether or not
/// anything completed — arrivals and service are decoupled, so once
/// offered load crosses capacity the bounded queue starts shedding.
/// Returns the outcome plus the *achieved* submission rate: when
/// `sleep_until(due)` falls behind, the generator delivers less than
/// the labeled rate, and pretending otherwise mislabels the point.
fn open_loop(workers: usize, quantum: usize, jobs: usize, rate: f64) -> (ServeOutcome, f64) {
    let handle = serve(server(workers, quantum, overload_limits(workers)));
    let start = Instant::now();
    for i in 0..jobs {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        handle.submit(&traffic_spec(i)).expect("spec is valid");
    }
    // `jobs` arrivals span `jobs - 1` inter-arrival gaps.
    let achieved = (jobs.saturating_sub(1)) as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (handle.finish(), achieved)
}

/// Closed loop: `clients` threads each in a submit → wait → submit
/// cycle over a cloneable [`retrsu_serve::ServeClient`] — offered load
/// self-limits to service capacity, so the sweep traces the
/// throughput/latency trade-off as concurrency grows (no bounds
/// needed: the loop never outruns the fleet).
fn closed_loop(workers: usize, quantum: usize, jobs: usize, clients: usize) -> ServeOutcome {
    let handle = serve(server(workers, quantum, QueueLimits::unbounded()));
    let per_client = (jobs / clients).max(1);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = handle.client();
            scope.spawn(move || {
                for k in 0..per_client {
                    let spec = traffic_spec(c * per_client + k);
                    client.submit(&spec).expect("spec admits");
                    client.wait_for(&spec.id, JobState::Completed);
                }
            });
        }
    });
    handle.finish()
}

struct LoadPoint {
    label: String,
    mode: &'static str,
    offered_jobs_per_s: Option<f64>,
    /// Arrival rate the open-loop generator actually delivered; `None`
    /// for closed-loop points (no target to drift from).
    achieved_jobs_per_s: Option<f64>,
    clients: Option<usize>,
    jobs: usize,
    jobs_per_s: f64,
    /// Completed (non-rejected) jobs per second — the rate that counts
    /// under overload, where `jobs_per_s` includes shed decisions.
    goodput_jobs_per_s: f64,
    shed: u64,
    shed_ratio: f64,
    peak_queued: usize,
    p50_ms: f64,
    p99_ms: f64,
    interactive_p50_ms: f64,
    interactive_p99_ms: f64,
    batch_p50_ms: f64,
    batch_p99_ms: f64,
    cache_hit_ratio: f64,
    preemptions: u32,
}

fn summarize(
    label: String,
    mode: &'static str,
    offered_jobs_per_s: Option<f64>,
    achieved_jobs_per_s: Option<f64>,
    clients: Option<usize>,
    outcome: &ServeOutcome,
) -> LoadPoint {
    validate_lifecycle(&outcome.events).expect("load-point lifecycle validates");
    // Latency percentiles describe served jobs; a rejection is an
    // admission decision, not a service time.
    let latencies = |prefix: Option<&str>| -> Vec<f64> {
        outcome
            .results
            .iter()
            .filter(|r| !r.rejected && prefix.is_none_or(|p| r.id.starts_with(p)))
            .map(|r| r.latency_ms)
            .collect()
    };
    let all = latencies(None);
    let live = latencies(Some("live-"));
    let batch = latencies(Some("batch-"));
    let hits = outcome.results.iter().filter(|r| r.cached).count();
    let completed = outcome.results.iter().filter(|r| !r.rejected).count();
    if let (Some(offered), Some(achieved)) = (offered_jobs_per_s, achieved_jobs_per_s) {
        let drift = (offered - achieved) / offered.max(1e-9);
        if drift > 0.05 {
            eprintln!(
                "bench_serve: WARNING — {label}: generator fell behind, achieved \
                 {achieved:.1} jobs/s of the {offered:.1} offered ({:.0}% drift); \
                 the point records both rates",
                drift * 100.0
            );
        }
    }
    LoadPoint {
        label,
        mode,
        offered_jobs_per_s,
        achieved_jobs_per_s,
        clients,
        jobs: outcome.results.len(),
        jobs_per_s: outcome.results.len() as f64 / outcome.wall.as_secs_f64(),
        goodput_jobs_per_s: completed as f64 / outcome.wall.as_secs_f64(),
        shed: outcome.shed_jobs,
        shed_ratio: outcome.shed_jobs as f64 / outcome.results.len().max(1) as f64,
        peak_queued: outcome.peak_queued,
        p50_ms: percentile(&all, 0.50),
        p99_ms: percentile(&all, 0.99),
        interactive_p50_ms: percentile(&live, 0.50),
        interactive_p99_ms: percentile(&live, 0.99),
        batch_p50_ms: percentile(&batch, 0.50),
        batch_p99_ms: percentile(&batch, 0.99),
        cache_hit_ratio: hits as f64 / outcome.results.len().max(1) as f64,
        preemptions: outcome.results.iter().map(|r| r.preemptions).sum(),
    }
}

/// `null` for NaN/∞ so the artifact stays valid JSON whatever the
/// sample looked like.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".into()
    }
}

fn point_json(p: &LoadPoint) -> String {
    format!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"offered_jobs_per_s\": {}, \
         \"achieved_jobs_per_s\": {}, \"clients\": {}, \
         \"jobs\": {}, \"jobs_per_s\": {}, \"goodput_jobs_per_s\": {}, \
         \"shed\": {}, \"shed_ratio\": {:.3}, \"peak_queued\": {}, \
         \"p50_ms\": {}, \"p99_ms\": {}, \
         \"interactive_p50_ms\": {}, \"interactive_p99_ms\": {}, \
         \"batch_p50_ms\": {}, \"batch_p99_ms\": {}, \
         \"cache_hit_ratio\": {:.3}, \"preemptions\": {}}}",
        p.label,
        p.mode,
        p.offered_jobs_per_s.map_or("null".into(), num),
        p.achieved_jobs_per_s.map_or("null".into(), num),
        p.clients.map_or("null".into(), |c| c.to_string()),
        p.jobs,
        num(p.jobs_per_s),
        num(p.goodput_jobs_per_s),
        p.shed,
        p.shed_ratio,
        p.peak_queued,
        num(p.p50_ms),
        num(p.p99_ms),
        num(p.interactive_p50_ms),
        num(p.interactive_p99_ms),
        num(p.batch_p50_ms),
        num(p.batch_p99_ms),
        p.cache_hit_ratio,
        p.preemptions,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = parse_flag(&args, "--workers", 4);
    let jobs = parse_flag(&args, "--jobs", 24).max(8);
    let quantum = parse_flag(&args, "--quantum", 8);

    let trace_dir = bench::artifacts_dir();
    eprintln!("bench_serve: preemption demo (1 worker, forced preemption)…");
    let demo = preemption_demo(trace_dir.join("bench_serve_demo.jsonl"));
    assert!(demo.digest_matches, "victim digest must match baseline");
    assert!(demo.lifecycle_valid, "demo lifecycle must validate");
    assert!(demo.interactive_first, "interactive job must finish first");
    assert!(
        demo.transitions_exactly_once,
        "every lifecycle transition must appear exactly once"
    );

    // Calibrate the arrival-rate axis in units the current machine
    // understands: one closed-loop client's throughput ≈ the inverse
    // mean service time.
    eprintln!("bench_serve: calibrating single-stream throughput…");
    let probe = closed_loop(workers, quantum, 8, 1);
    let single_stream = probe.results.len() as f64 / probe.wall.as_secs_f64();

    let mut points: Vec<LoadPoint> = Vec::new();
    for multiplier in [0.5, 1.0, 2.0, 4.0] {
        let rate = (single_stream * multiplier).max(1.0);
        eprintln!(
            "bench_serve: open loop at {multiplier}× single-stream ({rate:.1} jobs/s, {jobs} jobs)…"
        );
        let (outcome, achieved) = open_loop(workers, quantum, jobs, rate);
        points.push(summarize(
            format!("open@{multiplier}x"),
            "open_loop",
            Some(rate),
            Some(achieved),
            None,
            &outcome,
        ));
    }
    for clients in [1usize, 2, 4, 8] {
        eprintln!("bench_serve: closed loop with {clients} client(s) ({jobs} jobs)…");
        let outcome = closed_loop(workers, quantum, jobs, clients);
        points.push(summarize(
            format!("closed@c{clients}"),
            "closed_loop",
            None,
            None,
            Some(clients),
            &outcome,
        ));
    }
    let open_json: Vec<String> = points
        .iter()
        .filter(|p| p.mode == "open_loop")
        .map(point_json)
        .collect();
    let closed_json: Vec<String> = points
        .iter()
        .filter(|p| p.mode == "closed_loop")
        .map(point_json)
        .collect();

    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"workers\": {workers}, \"quantum\": {quantum}, \
         \"jobs_per_point\": {jobs},\n  {},\n  \
         \"note\": \"retrsu-serve latency-vs-load: each point is a fresh server absorbing mixed \
         traffic (1-in-4 interactive at 8 sweeps, batch at 24 sweeps, 3 tenants, all 3 \
         applications, ~1/3 duplicate specs for the result cache); open loop submits at a fixed \
         arrival rate swept around the calibrated single-stream throughput against bounded \
         admission (4 queued jobs per worker per class — overload sheds deterministically, \
         recorded as shed/shed_ratio/goodput_jobs_per_s, with achieved_jobs_per_s the rate the \
         generator really delivered), closed loop runs K submit-wait clients unbounded; latency \
         = submit-to-complete over served jobs only; demo = 1-worker forced preemption \
         with digest vs an uninterrupted run\",\n  \
         \"preemption_demo\": {{\"victim_preemptions\": {}, \"digest_matches_uninterrupted\": {}, \
         \"interactive_completed_first\": {}, \"lifecycle_valid\": {}, \
         \"transitions_exactly_once\": {}, \"trace_events\": {}}},\n  \
         \"load_sweep\": {{\n    \"single_stream_jobs_per_s\": {},\n    \"open_loop\": [\n      {}\n    ],\n    \
         \"closed_loop\": [\n      {}\n    ]\n  }}\n}}\n",
        bench::provenance_json_fields(),
        demo.victim_preemptions,
        demo.digest_matches,
        demo.interactive_first,
        demo.lifecycle_valid,
        demo.transitions_exactly_once,
        demo.trace_events,
        num(single_stream),
        open_json.join(",\n      "),
        closed_json.join(",\n      "),
    );
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/serve.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root");
    let path = root.join("BENCH_serve.json");
    let mut file = std::fs::File::create(&path).expect("can create BENCH_serve.json");
    file.write_all(json.as_bytes())
        .expect("can write BENCH_serve.json");
    println!("wrote {}", path.display());
    for p in &points {
        println!(
            "bench_serve: {:<12} {:>6} jobs/s ({:>6} goodput), p50 {:>8} ms, p99 {:>8} ms, \
             shed {:>2} ({:.0}%), peak queue {:>2}, hit ratio {:.2}, {} preemptions",
            p.label,
            num(p.jobs_per_s),
            num(p.goodput_jobs_per_s),
            num(p.p50_ms),
            num(p.p99_ms),
            p.shed,
            p.shed_ratio * 100.0,
            p.peak_queued,
            p.cache_hit_ratio,
            p.preemptions
        );
    }
}
