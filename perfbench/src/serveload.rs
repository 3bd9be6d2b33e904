//! What the three `serve-*` workloads share: set-up, the timed phase,
//! the traced phase, the runner replay and the output checks.
//!
//! A workload supplies its traffic ([`Traffic`]); this module starts the
//! server through `retrsu_serve::serve`, measures process and per-thread
//! CPU around the traffic, and turns the outcome into metrics.

use crate::checks::{self, Reference};
use crate::host::{self, Task};
use crate::spans::Tracer;
use crate::stats;
use crate::{Ctx, Outcome};
use retrsu_serve::{
    serve, Admission, JobSpec, JobState, JobTask, Priority, SceneModelCache, ServeHandle,
    ServeOutcome, ServerConfig, SliceStatus,
};
use rsu::{RsuArray, RsuConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runs `set_up` (which returns its calibrated CPU seconds) at least 15
/// times and for at least a second, at most 61 times, and returns the
/// median: a set-up of a few milliseconds gets more readings.
pub fn median_set_up(mut set_up: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut cpu_s = Vec::new();
    while cpu_s.len() < 15 || (start.elapsed() < Duration::from_secs(1) && cpu_s.len() < 61) {
        cpu_s.push(set_up());
    }
    stats::median(&cpu_s)
}

/// One request the load generator sent.
#[derive(Debug, Clone)]
pub struct Sent {
    pub spec: JobSpec,
    /// How late the submit call started against its due time, in ms
    /// (zero in a closed loop, where a request is due when sent).
    pub late_ms: f64,
    pub admission: Admission,
}

/// A serve workload's inputs and load pattern.
pub trait Traffic: Sync {
    /// The generator's own record of the timed phase, kept compact
    /// while memory is measured and expanded by [`Traffic::sent`] after.
    type Log;
    /// Server shape (the trace path is filled in by the caller).
    fn config(&self) -> ServerConfig;
    /// Set-up work on a fresh server: warm-up jobs, run one at a time,
    /// each on a scene of its own, so it builds one model per job and
    /// hits no cache. Returns the jobs run.
    fn warm_up(&self, handle: &ServeHandle) -> usize;
    /// The timed phase: sends the load and returns once every request
    /// is terminal.
    fn drive(&self, handle: &ServeHandle, tracer: &mut Tracer, seconds: f64) -> Self::Log;
    /// The requests a log records.
    fn sent(&self, log: Self::Log) -> Vec<Sent>;
    /// Workload-specific checks of the served results.
    fn check(&self, phase: &Phase, reference: &Reference) -> Vec<String>;
    /// Self-check that the timed phase exercised what the workload is
    /// for.
    fn self_check(&self, phase: &Phase) -> Vec<String>;
    /// The server thread class (`serve-scheduler` or `serve-worker`)
    /// that must hold the largest share of a traced phase's CPU, and
    /// the least share it must hold.
    fn dominant(&self) -> Option<(&'static str, f64)>;
}

/// Submits `spec` and blocks until it completes; for set-up and closed
/// loops.
pub fn submit_and_wait(handle: &ServeHandle, spec: &JobSpec) -> Admission {
    let admission = handle.submit(spec).expect("generated specs are valid");
    handle.wait_for(&spec.id, JobState::Completed);
    admission
}

/// Everything one timed phase produced.
pub struct Phase {
    pub sent: Vec<Sent>,
    pub outcome: ServeOutcome,
    pub warm_up_jobs: usize,
    /// Process CPU seconds, less the calibration threads', scaled to the
    /// reference host speed.
    pub cpu_s: f64,
    /// The same, unscaled.
    pub raw_cpu_s: f64,
    /// How much slower than the reference speed the host ran.
    pub slowdown: f64,
    pub wall_s: f64,
    pub sched_cpu_ns: u64,
    pub worker_cpu_ns: u64,
    pub ctx_switches: u64,
    pub rss_growth_kb: f64,
    /// Resident high-water mark once the phase ended, before the
    /// generator's log is expanded for the checks.
    pub peak_rss_kb: u64,
    /// Per-thread CPU samples `(ms into the phase, threads)`; traced
    /// phases only.
    pub samples: Vec<(f64, Vec<Task>)>,
}

impl Phase {
    pub fn jobs(&self) -> f64 {
        self.sent.len() as f64
    }

    pub fn cpu_s_per_job(&self) -> f64 {
        self.cpu_s / self.jobs().max(1.0)
    }

    /// Results of the timed requests (warm-up jobs excluded).
    pub fn timed_results(&self) -> impl Iterator<Item = &retrsu_serve::JobResult> {
        let ids: std::collections::HashSet<&str> =
            self.sent.iter().map(|s| s.spec.id.as_str()).collect();
        self.outcome
            .results
            .iter()
            .filter(move |r| ids.contains(r.id.as_str()))
    }

    pub fn cache_hits(&self) -> u64 {
        self.timed_results().filter(|r| r.cached).count() as u64
    }

    pub fn computed(&self) -> u64 {
        self.timed_results().filter(|r| !r.cached).count() as u64
    }

    pub fn preemptions(&self) -> u64 {
        self.timed_results().map(|r| u64::from(r.preemptions)).sum()
    }

    /// Models built for the timed requests: the warm-up built exactly
    /// one per warm-up job (see [`Traffic::warm_up`]).
    pub fn model_builds(&self) -> u64 {
        self.outcome
            .model_builds
            .saturating_sub(self.warm_up_jobs as u64)
    }
}

/// Per-thread deltas between two samples of the same threads.
fn thread_deltas(before: &[Task], after: &[Task]) -> (u64, u64, u64) {
    let start: HashMap<i32, &Task> = before.iter().map(|t| (t.tid, t)).collect();
    let (mut sched, mut workers, mut ctx) = (0, 0, 0);
    for t in after {
        let Some(b) = start.get(&t.tid) else {
            continue;
        };
        let cpu = t.cpu_ns.saturating_sub(b.cpu_ns);
        if t.name == "serve-scheduler" {
            sched += cpu;
        } else if t.name.starts_with("serve-worker") {
            workers += cpu;
        }
        ctx += t.ctx_switches.saturating_sub(b.ctx_switches);
    }
    (sched, workers, ctx)
}

/// Samples every thread's CPU every 100 ms until dropped.
struct Sampler {
    stop: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<Vec<(f64, Vec<Task>)>>,
}

impl Sampler {
    fn start() -> Self {
        let (stop, rx) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("perfbench-sampl".into())
            .spawn(move || {
                let epoch = Instant::now();
                let mut samples = Vec::new();
                while let Err(mpsc::RecvTimeoutError::Timeout) =
                    rx.recv_timeout(Duration::from_millis(100))
                {
                    let tasks = host::tasks()
                        .into_iter()
                        .filter(|t| t.name.starts_with("serve-"))
                        .collect();
                    samples.push((epoch.elapsed().as_secs_f64() * 1e3, tasks));
                }
                samples
            })
            .expect("sampler thread spawns");
        Sampler { stop, thread }
    }

    fn finish(self) -> Vec<(f64, Vec<Task>)> {
        let _ = self.stop.send(());
        self.thread.join().expect("sampler thread panicked")
    }
}

/// Starts a server and warms it up; returns the handle, the warm-up job
/// count and the process CPU seconds spent.
fn set_up<T: Traffic>(
    traffic: &T,
    ctx: &Ctx,
    trace_path: Option<PathBuf>,
) -> (ServeHandle, usize, f64) {
    let m0 = ctx.cal.mark();
    let handle = serve(ServerConfig {
        trace_path,
        ..traffic.config()
    });
    let warm = traffic.warm_up(&handle);
    let (cpu_s, _) = ctx.cal.cpu_s(&m0, &ctx.cal.mark());
    (handle, warm, cpu_s)
}

fn timed<T: Traffic>(
    traffic: &T,
    ctx: &Ctx,
    handle: ServeHandle,
    warm_up_jobs: usize,
    tracer: &mut Tracer,
    seconds: f64,
) -> Phase {
    let sampler = tracer.enabled().then(Sampler::start);
    let tasks0 = host::tasks();
    let rss0 = host::memory_kb("VmRSS");
    let wall0 = Instant::now();
    let m0 = ctx.cal.mark();
    let sent = traffic.drive(&handle, tracer, seconds);
    let m1 = ctx.cal.mark();
    let wall_s = wall0.elapsed().as_secs_f64();
    let (cpu_s, raw_cpu_s) = ctx.cal.cpu_s(&m0, &m1);
    let rss1 = host::memory_kb("VmRSS");
    let tasks1 = host::tasks();
    let samples = sampler.map(Sampler::finish).unwrap_or_default();
    let (sched_cpu_ns, worker_cpu_ns, ctx_switches) = thread_deltas(&tasks0, &tasks1);
    let outcome = handle.finish();
    let peak_rss_kb = host::memory_kb("VmHWM");
    Phase {
        sent: traffic.sent(sent),
        outcome,
        warm_up_jobs,
        cpu_s,
        raw_cpu_s,
        slowdown: ctx.cal.slowdown(&m0, &m1),
        wall_s,
        sched_cpu_ns,
        worker_cpu_ns,
        ctx_switches,
        rss_growth_kb: rss1 as f64 - rss0 as f64,
        peak_rss_kb,
        samples,
    }
}

/// Standalone reference runs: every distinct spec of the phases, run
/// uninterrupted through `JobTask` on a fresh array (no server, no
/// cache, no slicing), on two threads.
pub fn reference(phases: &[&Phase]) -> Reference {
    let mut distinct: BTreeMap<u64, JobSpec> = BTreeMap::new();
    for phase in phases {
        for s in &phase.sent {
            distinct
                .entry(s.spec.digest())
                .or_insert_with(|| s.spec.clone());
        }
    }
    let specs: Vec<(u64, JobSpec)> = distinct.into_iter().collect();
    let half = specs.len().div_ceil(2);
    let run = |chunk: &[(u64, JobSpec)]| -> Vec<(u64, (f64, u64))> {
        chunk
            .iter()
            .map(|(digest, spec)| {
                let mut task = JobTask::start(spec.clone()).expect("generated specs are valid");
                let mut array = RsuArray::new(RsuConfig::new_design(), 8);
                let status = task.run_slice(&mut array, spec.iterations, &AtomicBool::new(false));
                assert_eq!(status, SliceStatus::Completed);
                let (_, score, field) = task.finish();
                (*digest, (score, field))
            })
            .collect()
    };
    std::thread::scope(|scope| {
        let (a, b) = specs.split_at(half);
        let second = scope.spawn(|| run(b));
        let mut out = run(a);
        out.extend(second.join().expect("reference thread panicked"));
        out.into_iter().collect()
    })
}

/// The runner replay: a sample of the served specs run through the
/// calls a worker makes — `start_cached`, `run_slice` per quantum,
/// `checkpoint` + `resume_cached` between quanta, `finish` — each in a
/// span. Returns the per-layer metrics and any digest mismatch.
fn replay(
    specs: &[JobSpec],
    quantum: usize,
    reference: &Reference,
    tracer: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut array = RsuArray::new(RsuConfig::new_design(), 8);
    let (mut site_sweeps, mut boundaries) = (0u64, 0u64);
    let never = AtomicBool::new(false);
    for spec in specs {
        let id = Some(spec.id.as_str());
        // A fresh model cache per job, so every start is a build.
        let mut models = SceneModelCache::new(4);
        let mut task = tracer.span("runner.start_cached", id, || {
            JobTask::start_cached(spec.clone(), &mut models).expect("spec is valid")
        });
        loop {
            let status = tracer.span("runner.run_slice", id, || {
                task.run_slice(&mut array, quantum, &never)
            });
            if status == SliceStatus::Completed {
                break;
            }
            boundaries += 1;
            let open = tracer.open("runner.slice", id);
            let checkpoint = tracer.span("runner.checkpoint", id, || task.checkpoint());
            task = tracer.span("runner.resume_cached", id, || {
                JobTask::resume_cached(spec.clone(), &checkpoint, &mut models)
                    .expect("own checkpoint resumes")
            });
            tracer.close(open);
        }
        site_sweeps += (spec.kind.sites() * spec.iterations) as u64;
        let (_, score, digest) = tracer.span("runner.finish", id, || task.finish());
        if reference.get(&spec.digest()) != Some(&(score, digest)) {
            problems.push(format!(
                "{}: replay differs from the standalone run",
                spec.id
            ));
        }
    }
    let cpu = |name| tracer.cpu_of(name);
    let per = |(ns, n): (u64, usize)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    layers.insert(
        "runner.sweep_ns_per_site",
        cpu("runner.run_slice").0 as f64 / site_sweeps.max(1) as f64,
    );
    layers.insert("runner.build_ms", per(cpu("runner.start_cached")) / 1e6);
    layers.insert(
        "runner.slice_us",
        if boundaries == 0 {
            0.0
        } else {
            cpu("runner.slice").0 as f64 / boundaries as f64 / 1e3
        },
    );
    layers.insert("runner.finish_us", per(cpu("runner.finish")) / 1e3);
    let stats = array.combined_stats();
    layers.insert(
        "rsu.label_evals_per_site",
        stats.label_evaluations as f64 / stats.variable_evaluations.max(1) as f64,
    );
    problems
}

/// Latency figures per priority class, from when each request was due.
fn latency_layers(
    phase: &Phase,
    layers: &mut BTreeMap<&'static str, f64>,
    lines: &mut Vec<String>,
) {
    let results: HashMap<&str, &retrsu_serve::JobResult> = phase
        .outcome
        .results
        .iter()
        .map(|r| (r.id.as_str(), r))
        .collect();
    for (class, name) in [
        (Priority::Interactive, "interactive"),
        (Priority::Batch, "batch"),
    ] {
        let (mut latency, mut wait) = (Vec::new(), Vec::new());
        for s in phase.sent.iter().filter(|s| s.spec.priority == class) {
            if let Some(r) = results.get(s.spec.id.as_str()) {
                latency.push(s.late_ms + r.latency_ms);
                wait.push(s.late_ms + r.wait_ms);
            }
        }
        let keys: [&'static str; 3] = match class {
            Priority::Interactive => [
                "serve.latency_ms.interactive.p50",
                "serve.latency_ms.interactive.tail",
                "serve.wait_ms.interactive.p50",
            ],
            Priority::Batch => [
                "serve.latency_ms.batch.p50",
                "serve.latency_ms.batch.tail",
                "serve.wait_ms.batch.p50",
            ],
        };
        if latency.is_empty() {
            continue;
        }
        let (q, tail) = stats::tail(&latency);
        layers.insert(keys[0], stats::percentile(&latency, 50.0));
        layers.insert(keys[1], tail);
        layers.insert(keys[2], stats::percentile(&wait, 50.0));
        lines.push(format!(
            "  {name}: {} requests, latency p50 {:.3} ms, tail = p{q} {:.3} ms",
            latency.len(),
            stats::percentile(&latency, 50.0),
            tail
        ));
    }
    let late: Vec<f64> = phase.sent.iter().map(|s| s.late_ms).collect();
    layers.insert("serve.generator_late_ms", stats::mean(&late));
    lines.push(format!(
        "  arrivals: {} over {:.3} s ({:.2}/s achieved), generator late mean {:.3} ms, max {:.3} ms",
        phase.sent.len(),
        phase.wall_s,
        phase.sent.len() as f64 / phase.wall_s,
        stats::mean(&late),
        late.iter().cloned().fold(0.0, f64::max)
    ));
}

/// Runs a serve workload end to end and checks its outputs.
pub fn run<T: Traffic>(traffic: &T, ctx: &Ctx, replay_sample: usize) -> Outcome {
    let run = &ctx.run;
    let mut out = Outcome::default();
    // Set up several times and keep the last server, so set-up time is
    // a median rather than one reading.
    let mut server = None;
    out.setup_s = median_set_up(|| {
        if let Some((old, _)) = server.take() {
            ServeHandle::finish(old);
        }
        let (handle, warm, cpu_s) = set_up(traffic, ctx, None);
        server = Some((handle, warm));
        cpu_s
    });
    let (handle, warm) = server.expect("at least one set-up");
    let mut quiet = Tracer::new(false);
    let phase = timed(traffic, ctx, handle, warm, &mut quiet, run.seconds);
    out.peak_rss_mb = phase.peak_rss_kb as f64 / 1024.0;
    out.attempted = phase.sent.len() as u64;
    out.jobs_per_cpu_s = phase.jobs() / phase.cpu_s;
    out.lines.push(format!(
        "timed phase: {} requests in {:.3} s wall, {:.3} s CPU at reference speed \
         ({:.3} s measured, host {:.3}x slower than reference)",
        phase.sent.len(),
        phase.wall_s,
        phase.cpu_s,
        phase.raw_cpu_s,
        phase.slowdown
    ));

    let traced = run.trace.then(|| {
        let mut tracer = Tracer::new(true);
        let (handle, warm, _) = set_up(traffic, ctx, Some(run.out_path("events.jsonl")));
        let phase = timed(traffic, ctx, handle, warm, &mut tracer, run.seconds);
        (phase, tracer)
    });

    let mut phases = vec![&phase];
    if let Some((p, _)) = &traced {
        phases.push(p);
    }
    let reference = reference(&phases);
    for p in &phases {
        out.problems.extend(checks::summarize(
            "served vs standalone",
            checks::served_match_reference(&p.sent, &p.outcome.results, &reference),
        ));
        out.problems.extend(checks::summarize(
            "lifecycle",
            checks::lifecycle(&p.sent, &p.outcome.events),
        ));
        out.problems
            .extend(checks::summarize("quality", traffic.check(p, &reference)));
    }
    out.problems
        .extend(checks::summarize("self-check", traffic.self_check(&phase)));
    out.failed = phase.timed_results().filter(|r| r.rejected).count() as u64
        + (phase.sent.len() as u64).saturating_sub(phase.timed_results().count() as u64);

    if let Some((tp, mut tracer)) = traced {
        let jobs = phase.jobs().max(1.0);
        let l = &mut out.layers;
        l.insert(
            "serve.sched_cpu_us_per_job",
            phase.sched_cpu_ns as f64 / jobs / 1e3,
        );
        l.insert(
            "serve.ctx_switches_per_job",
            phase.ctx_switches as f64 / jobs,
        );
        l.insert("serve.retained_kb_per_job", phase.rss_growth_kb / jobs);
        l.insert("serve.cache_hits", phase.cache_hits() as f64);
        l.insert("serve.model_builds", phase.model_builds() as f64);
        l.insert("serve.preemptions", phase.preemptions() as f64);
        l.insert("serve.peak_queued", phase.outcome.peak_queued as f64);
        l.insert(
            "runner.worker_cpu_ms_per_job",
            phase.worker_cpu_ns as f64 / jobs / 1e6,
        );
        l.insert(
            "trace.overhead_pct",
            100.0 * (tp.cpu_s_per_job() / phase.cpu_s_per_job() - 1.0),
        );
        l.insert("host.slowdown", phase.slowdown);
        out.lines.push(format!(
            "untraced phase: {} requests ({} computed, {} cache hits), {:.3} s wall, {:.3} s CPU \
             measured (scheduler {:.3} s, workers {:.3} s)",
            phase.sent.len(),
            phase.computed(),
            phase.cache_hits(),
            phase.wall_s,
            phase.raw_cpu_s,
            phase.sched_cpu_ns as f64 / 1e9,
            phase.worker_cpu_ns as f64 / 1e9
        ));
        latency_layers(&phase, &mut out.layers, &mut out.lines);
        out.lines.push(format!(
            "traced phase: {:.3} s CPU measured (scheduler {:.3} s, workers {:.3} s, client {:.3} s), \
             {} thread samples",
            tp.raw_cpu_s,
            tp.sched_cpu_ns as f64 / 1e9,
            tp.worker_cpu_ns as f64 / 1e9,
            tp.raw_cpu_s - (tp.sched_cpu_ns + tp.worker_cpu_ns) as f64 / 1e9,
            tp.samples.len()
        ));

        // The first distinct specs in send order: on serve-hits these
        // are the popular specs the cache answers.
        let mut sample: Vec<JobSpec> = Vec::new();
        for s in &tp.sent {
            if sample.len() < replay_sample && !sample.iter().any(|x| x.digest() == s.spec.digest())
            {
                sample.push(s.spec.clone());
            }
        }
        let quantum = traffic.config().quantum;
        out.problems.extend(checks::summarize(
            "runner replay",
            replay(&sample, quantum, &reference, &mut tracer, &mut out.layers),
        ));
        let (name, share) = dominant_thread(&tp);
        if let Some((want, min_share)) = traffic.dominant() {
            if name != want || share < min_share {
                out.problems.push(format!(
                    "self-check: traced phase's busiest thread class is {name} at {:.1}% of CPU; \
                     expected {want} at {:.0}% or more",
                    100.0 * share,
                    100.0 * min_share
                ));
            }
        }
        out.dominant = Some((name, share));
        out.problems
            .extend(crate::report::write_trace(run, &tracer, &tp.samples));
        out.self_ns = tracer.layer_self_ns();
    }
    out
}

/// Which server thread class spent the most CPU in a traced phase, with
/// its share of process CPU.
fn dominant_thread(phase: &Phase) -> (String, f64) {
    let cpu_ns = (phase.raw_cpu_s * 1e9) as u64;
    let client = cpu_ns.saturating_sub(phase.sched_cpu_ns + phase.worker_cpu_ns);
    let (name, ns) = [
        ("serve-scheduler", phase.sched_cpu_ns),
        ("serve-worker", phase.worker_cpu_ns),
        ("client", client),
    ]
    .into_iter()
    .max_by_key(|(_, ns)| *ns)
    .expect("three candidates");
    (name.to_string(), ns as f64 / cpu_ns.max(1) as f64)
}
