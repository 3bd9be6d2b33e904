//! Host-CPU-time benchmark of the RSU-G reproduction.
//!
//! ```text
//! perfbench --workload <serve-mixed|serve-solve|serve-hits|paper-eval>
//!           [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! One run drives one workload for about `--seconds` seconds through
//! the program's public functions, checks every output apart from the
//! measured path, and prints one metric per line followed by a JSON
//! summary as the last line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload a second time with spans, the server's
//! lifecycle trace and per-thread CPU sampling on, and reports the
//! per-layer metrics. `--repeat N` runs the workload N times in fresh
//! processes (seeds `seed .. seed+N`) and prints each end-to-end
//! metric's median, quartiles and worst deviation against its bound in
//! `BENCHMARK.json`. See `README.md` for the workloads and metrics.

mod checks;
mod hits;
mod host;
mod mixed;
mod paper;
mod report;
mod serveload;
mod solve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("jobs_per_cpu_s", "jobs/cpu_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. A workload whose path does not
/// include a layer reports 0 for it (marked `n/a` in the report).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("serve.sched_cpu_us_per_job", "us"),
    ("serve.ctx_switches_per_job", "count"),
    ("serve.retained_kb_per_job", "KB"),
    ("serve.cache_hits", "count"),
    ("serve.model_builds", "count"),
    ("serve.preemptions", "count"),
    ("serve.peak_queued", "count"),
    ("serve.latency_ms.interactive.p50", "ms"),
    ("serve.latency_ms.interactive.tail", "ms"),
    ("serve.latency_ms.batch.p50", "ms"),
    ("serve.latency_ms.batch.tail", "ms"),
    ("serve.wait_ms.interactive.p50", "ms"),
    ("serve.wait_ms.batch.p50", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("runner.sweep_ns_per_site", "ns"),
    ("runner.build_ms", "ms"),
    ("runner.slice_us", "us"),
    ("runner.finish_us", "us"),
    ("runner.worker_cpu_ms_per_job", "ms"),
    ("rsu.label_evals_per_site", "count"),
    ("harness.ns_per_site.software", "ns"),
    ("harness.ns_per_site.prev_rsu", "ns"),
    ("harness.ns_per_site.new_rsu", "ns"),
    ("vision.model_build_ms", "ms"),
    ("vision.score_ms", "ms"),
    ("scenes.generate_ms", "ms"),
    ("host.steal_pct", "%"),
    ("host.slowdown", "x"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 4] = ["serve-mixed", "serve-solve", "serve-hits", "paper-eval"];

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A run in progress: its settings and the host-speed calibrator every
/// CPU-time figure is read through.
pub struct Ctx {
    pub run: Run,
    pub cal: host::Calibrator,
}

impl Run {
    /// Where traced runs write their span and event files.
    pub fn out_path(&self, what: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("output directory is creatable");
        dir.join(format!("{}.{what}", self.workload))
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and self-checks; any one fails the run.
    pub problems: Vec<String>,
    pub jobs_per_cpu_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall-clock self time per layer in the traced phase.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The thread class with the most CPU in the traced phase, and its
    /// share of process CPU.
    pub dominant: Option<(String, f64)>,
    /// Extra report lines (sample counts, phase summaries).
    pub lines: Vec<String>,
}

/// The benchmark's own input generator (SplitMix64), kept here rather
/// than borrowed from the program so that a change to the program's
/// random number code cannot change the inputs two commits receive.
pub struct Gen(u64);

impl Gen {
    /// A generator for one purpose (`stream`) under one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.draw();
        g
    }

    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is small, so the modulo bias is far below
    /// anything a benchmark input could notice).
    pub fn below(&mut self, n: usize) -> usize {
        (self.draw() % n as u64) as usize
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]",
        WORKLOADS.join("|")
    )
}

struct Args {
    run: Run,
    repeat: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (DEFAULT_SEED, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                workload = Some(w);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|_| "--repeat needs an integer")?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must be in 1..=100".into());
                }
                repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        run: Run {
            workload,
            seed,
            seconds,
            trace,
        },
        repeat,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return report::repeat(&args.run, n);
    }
    let ctx = Ctx {
        run: args.run,
        cal: host::Calibrator::start(),
    };
    let (seed, seconds) = (ctx.run.seed, ctx.run.seconds);
    let ticks = host::host_ticks();
    let mut outcome = match ctx.run.workload.as_str() {
        "serve-mixed" => serveload::run(&mixed::Mixed::new(seed, seconds), &ctx, 12),
        "serve-solve" => serveload::run(&solve::Solve::new(seed), &ctx, 3),
        "serve-hits" => serveload::run(&hits::Hits::new(seed, seconds), &ctx, 4),
        "paper-eval" => paper::run(&ctx),
        _ => unreachable!("workload names are checked by the parser"),
    };
    outcome
        .layers
        .insert("host.steal_pct", host::steal_pct(ticks, host::host_ticks()));
    ctx.cal.stop();
    report::print(&ctx.run, &outcome);
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
