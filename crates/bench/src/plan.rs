//! How a driver runs its chains: one [`RunPlan`] built from the command
//! line, one chain entry point ([`RunPlan::run`]), checkpoint/resume.
//!
//! Every chain driver takes the same six flags, one per [`RunPlan`]
//! field ([`RunPlan::from_args`]; `--flag=value` works too). An unknown
//! flag or a malformed value exits with code 2 and a usage line; so
//! does, without the usage line, a flag the driver cannot honour
//! ([`RunPlan::reject`]).
//!
//! # Engines
//!
//! A chain runs on the raster engine ([`mrf::SweepSolver`]: raster
//! order, one sequential stream seeded by the chain seed) when the plan
//! has one thread, exact numerics and no active set — the historical
//! chains. Otherwise it runs on the checkerboard engine
//! ([`mrf::ParallelSweepSolver`]: per-site counter-based streams), whose
//! result depends on the seed and never on the thread count. Both start
//! from the same random field.
//!
//! # Resume model
//!
//! A driver executes a fixed, deterministic sequence of runs, each with
//! a unique label (e.g. `fig8/tb5/tr0.5`). With `--checkpoint-every N`
//! the running chain is written to `artifacts/<driver>.ckpt` after every
//! `N` completed sweeps and at the end of the run, atomically; the
//! checkpoint records the run's label (in [`mrf::Checkpoint::engine`]).
//! On `--resume`, runs *before* the labelled one are recomputed — they
//! are deterministic and cheap relative to the tail — and the labelled
//! run continues from the stored field, energy accumulator and RNG
//! state; runs after it proceed normally. A `--resume` checkpoint that
//! no run claims fails the driver after its last run
//! ([`RunPlan::finish`]).
//!
//! A checkpoint shows how its chain was scheduled: raster checkpoints
//! carry the sequential generator's state words, checkerboard ones do
//! not, and a checkerboard checkpoint records its numeric policy and,
//! under `--active`, the active-site worklist. Resuming a label under a
//! plan that schedules it differently — on the other engine, or with
//! another `--numeric` or `--active` setting — would continue neither
//! chain, so it is refused with [`CheckpointError::EngineMismatch`].
//!
//! # Determinism contract
//!
//! A resumed run is **bit-identical** to an uninterrupted one: same
//! final field, same energy history (every f64), same RNG consumption —
//! at any thread count. On the raster engine this holds because the
//! checkpoint stores the exact [`Xoshiro256pp`] state words; on the
//! checkerboard engine because the per-site streams are pure functions
//! of `(seed, iteration, site)`. Both continue the incremental energy
//! accumulator through [`mrf::ResumeState`] rather than rescanning.

use crate::{artifacts_dir, SamplerKind};
use mrf::{
    Checkpoint, CheckpointError, LabelField, MrfModel, NumericPolicy, ParallelSweepSolver,
    ResumeState, Schedule, SolveReport, SweepObserver, SweepSolver,
};
use rand::SeedableRng;
use rsu::RsuArray;
use sampling::Xoshiro256pp;
use std::fmt::{self, Display};
use std::path::PathBuf;

/// The flags of [`RunPlan::from_args`], in usage-line form.
const USAGE: &str = "[--threads N] [--numeric exact|fast] [--active] \
                     [--checkpoint-every N] [--resume PATH] [--trace PATH]";

/// How a driver runs its chains; see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// Site-kernel precision (`--numeric`).
    pub numeric: NumericPolicy,
    /// Active-site scheduling (`--active`).
    pub active: bool,
    /// Sweeps between checkpoint writes (`--checkpoint-every`); `None`
    /// writes none.
    pub checkpoint_every: Option<usize>,
    /// Where checkpoints are written.
    pub checkpoint_path: PathBuf,
    /// The `--resume` checkpoint, until the run it is labelled with
    /// claims it.
    pub resume: Option<Checkpoint>,
    /// JSONL trace destination (`--trace`) of drivers with a trace mode.
    pub trace: Option<PathBuf>,
}

impl Default for RunPlan {
    /// One thread, exact numerics, full sweeps, no checkpoints, no
    /// resume, no trace: the historical raster chains.
    fn default() -> Self {
        RunPlan {
            threads: 1,
            numeric: NumericPolicy::Exact,
            active: false,
            checkpoint_every: None,
            checkpoint_path: PathBuf::new(),
            resume: None,
            trace: None,
        }
    }
}

/// A parsed driver command line: the plan (without its checkpoint path
/// and loaded resume), the `--resume` path and the driver switches set.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The plan the flags describe.
    pub plan: RunPlan,
    /// `--resume PATH`, not yet loaded.
    pub resume: Option<PathBuf>,
    /// The driver-specific switches given (e.g. `--smoke`).
    pub switches: Vec<String>,
}

impl Args {
    /// Parses `args` (without the program name): the six plan flags
    /// plus the presence-only `switches` the driver declares. Returns a
    /// description of the first unknown flag or malformed value.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            plan: RunPlan::default(),
            resume: None,
            switches: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
                _ => (arg.as_str(), None),
            };
            if inline.is_none() && flag == "--active" {
                parsed.plan.active = true;
                continue;
            }
            if inline.is_none() && switches.contains(&flag) {
                parsed.switches.push(flag.to_string());
                continue;
            }
            if ![
                "--threads",
                "--numeric",
                "--checkpoint-every",
                "--resume",
                "--trace",
            ]
            .contains(&flag)
            {
                return Err(format!("unknown argument '{arg}'"));
            }
            let value = match inline {
                Some(value) => value,
                None => match rest.next() {
                    // `--threads --trace out.jsonl`: the next token is
                    // another flag, not a value.
                    Some(next) if next.starts_with("--") => {
                        return Err(format!("{flag} requires a value, found flag '{next}'"))
                    }
                    Some(next) => next.as_str(),
                    None => return Err(format!("{flag} requires a value")),
                },
            };
            let positive = || {
                value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{flag} requires a positive integer, got '{value}'"))
            };
            let path = || {
                (!value.is_empty())
                    .then(|| PathBuf::from(value))
                    .ok_or_else(|| format!("{flag} requires a non-empty path"))
            };
            match flag {
                "--threads" => parsed.plan.threads = positive()?,
                "--checkpoint-every" => parsed.plan.checkpoint_every = Some(positive()?),
                "--numeric" => {
                    parsed.plan.numeric = value.parse().map_err(|_| {
                        format!("--numeric must be 'exact' or 'fast', got '{value}'")
                    })?
                }
                "--resume" => parsed.resume = Some(path()?),
                _ => parsed.plan.trace = Some(path()?),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments; on an error prints it with the
    /// usage line of `driver` and exits with code 2.
    pub fn from_env(driver: &str, switches: &[&str]) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&args, switches).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            let extra: String = switches.iter().map(|s| format!(" [{s}]")).collect();
            eprintln!("usage: {driver} {USAGE}{extra}");
            std::process::exit(2)
        })
    }

    /// Whether the driver switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Completes the plan of `driver`: checkpoints go to
    /// `artifacts/<driver>.ckpt`, and the `--resume` checkpoint is
    /// loaded (one that cannot be exits with code 2).
    pub fn into_plan(self, driver: &str) -> RunPlan {
        let resume = self.resume.map(|path| {
            Checkpoint::load(&path).unwrap_or_else(|e| {
                exit_usage(format!("cannot resume from {}: {e}", path.display()))
            })
        });
        RunPlan {
            checkpoint_path: artifacts_dir().join(format!("{driver}.ckpt")),
            resume,
            ..self.plan
        }
    }
}

/// Prints `error: {message}` and exits with code 2: how drivers refuse
/// a command line, a checkpoint or a flag they cannot honour.
pub fn exit_usage<T>(message: impl Display) -> T {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Which engine a chain runs on, and how (see the [module docs](self)):
/// what a checkpoint records and a resume must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Raster,
    Checkerboard {
        numeric: NumericPolicy,
        active: bool,
    },
}

impl Engine {
    /// How the chain that wrote `checkpoint` was scheduled.
    fn of(checkpoint: &Checkpoint) -> Engine {
        match checkpoint.rng_state {
            Some(_) => Engine::Raster,
            None => Engine::Checkerboard {
                numeric: checkpoint.numeric,
                active: checkpoint.active_sites.is_some(),
            },
        }
    }

    fn numeric(self) -> NumericPolicy {
        match self {
            Engine::Raster => NumericPolicy::Exact,
            Engine::Checkerboard { numeric, .. } => numeric,
        }
    }
}

impl Display for Engine {
    /// The engine, plus the flags that select a non-default checkerboard
    /// schedule.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Engine::Raster => f.write_str("raster"),
            Engine::Checkerboard { numeric, active } => {
                f.write_str("checkerboard")?;
                if numeric != NumericPolicy::Exact {
                    write!(f, " --numeric {numeric}")?;
                }
                if active {
                    f.write_str(" --active")?;
                }
                Ok(())
            }
        }
    }
}

impl RunPlan {
    /// The plan of `driver`'s command line (see the [module docs](self)
    /// for the flags); exits with code 2 on a malformed command line or
    /// an unreadable `--resume` checkpoint.
    pub fn from_args(driver: &str) -> RunPlan {
        Args::from_env(driver, &[]).into_plan(driver)
    }

    /// Exits with code 2 if the command line set any of `flags` (any
    /// plan flag; `--threads` counts as set above 1), which `driver`
    /// cannot honour.
    pub fn reject(&self, driver: &str, flags: &[&str]) {
        for &flag in flags {
            let set = match flag {
                "--threads" => self.threads > 1,
                "--numeric" => self.numeric != NumericPolicy::Exact,
                "--active" => self.active,
                "--checkpoint-every" => self.checkpoint_every.is_some(),
                "--resume" => self.resume.is_some(),
                "--trace" => self.trace.is_some(),
                other => panic!("{other} cannot be rejected"),
            };
            if set {
                exit_usage::<()>(format!("{driver} does not support {flag}"));
            }
        }
    }

    /// The label of the `--resume` checkpoint, while no run has claimed
    /// it.
    pub fn pending_resume(&self) -> Option<&str> {
        self.resume.as_ref().map(|cp| cp.engine.as_str())
    }

    /// Checks, after a driver's last run, that a `--resume` checkpoint
    /// was used: one that no run claimed means every run was recomputed
    /// from scratch, and the error names its label.
    pub fn finish(&self) -> Result<(), String> {
        match self.pending_resume() {
            Some(label) => Err(format!(
                "no run is labelled {label:?}: the --resume checkpoint was not used"
            )),
            None => Ok(()),
        }
    }

    fn engine(&self) -> Engine {
        if self.threads <= 1 && self.numeric == NumericPolicy::Exact && !self.active {
            Engine::Raster
        } else {
            Engine::Checkerboard {
                numeric: self.numeric,
                active: self.active,
            }
        }
    }

    /// The one chain entry point: runs `sampler` over `model` for
    /// `iterations` sweeps of `schedule` from the random field the chain
    /// `seed` draws, on the engine the plan routes to, and returns the
    /// final field. The run named `label` claims a matching `--resume`
    /// checkpoint; a checkpoint the routed engine cannot continue is
    /// refused.
    #[allow(clippy::too_many_arguments)]
    pub fn run<M, O>(
        &mut self,
        model: &M,
        sampler: &SamplerKind,
        schedule: Schedule,
        iterations: usize,
        seed: u64,
        label: &str,
        observer: &mut O,
    ) -> Result<LabelField, CheckpointError>
    where
        M: MrfModel + Sync,
        O: SweepObserver,
    {
        let engine = self.engine();
        let threads = self.threads;
        let mut sampler = sampler.sampler();
        self.chunked(
            model,
            label,
            seed,
            engine,
            iterations,
            |field, state, end, rng| match engine {
                Engine::Raster => {
                    let mut solver = SweepSolver::new(model)
                        .schedule(schedule)
                        .iterations(end)
                        .observer(&mut *observer);
                    if let Some(state) = state {
                        solver = solver.resume(state);
                    }
                    let report = solver.run(field, &mut sampler, rng);
                    (report, Some(rng.state()))
                }
                Engine::Checkerboard { numeric, active } => {
                    let mut solver = ParallelSweepSolver::new(model)
                        .schedule(schedule)
                        .iterations(end)
                        .threads(threads)
                        .seed(seed)
                        .numeric(numeric)
                        .active_sites(active)
                        .observer(&mut *observer);
                    if let Some(state) = state {
                        solver = solver.resume(state);
                    }
                    (solver.run(field, &sampler), None)
                }
            },
        )
    }

    /// Runs a chain on an [`RsuArray`] (possibly fault-injected) on the
    /// plan's threads: the checkerboard solver sweeps the array's units
    /// ([`ParallelSweepSolver::run_on`]), so the chain is a pure function
    /// of `(seed, iteration, site)` — fault service being a pure function
    /// of `(plan, iteration)` — and checkpoints like a checkerboard
    /// chain.
    ///
    /// The array's cumulative [`rsu::DegradationReport`] covers only the
    /// sweeps this process executed; a resumed driver reconstructs the
    /// full-run report analytically via
    /// [`rsu::FaultPlan::predicted_degradation`], which is bit-identical to
    /// the measured accounting by the measured-equals-predicted contract.
    pub fn run_array<M: MrfModel + Sync>(
        &mut self,
        model: &M,
        array: &mut RsuArray,
        schedule: Schedule,
        iterations: usize,
        seed: u64,
        label: &str,
    ) -> Result<LabelField, CheckpointError> {
        let threads = self.threads;
        // Array sweeps have no f32 kernel and no active set.
        let engine = Engine::Checkerboard {
            numeric: NumericPolicy::Exact,
            active: false,
        };
        self.chunked(
            model,
            label,
            seed,
            engine,
            iterations,
            |field, state, end, _| {
                let mut solver = ParallelSweepSolver::new(model)
                    .schedule(schedule)
                    .iterations(end)
                    .threads(threads)
                    .seed(seed);
                if let Some(state) = state {
                    solver = solver.resume(state);
                }
                (solver.run_on(field, array), None)
            },
        )
    }

    /// Claims the `--resume` checkpoint if it belongs to the run `label`;
    /// runs with other labels leave it in place (they recompute from
    /// scratch until the interrupted run comes up in driver order). A
    /// claimed checkpoint whose chain was scheduled otherwise than
    /// `engine` is refused.
    fn take_resume(
        &mut self,
        label: &str,
        engine: Engine,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        if self.resume.as_ref().is_none_or(|cp| cp.engine != label) {
            return Ok(None);
        }
        let checkpoint = self.resume.take().expect("the label matched");
        let written_by = Engine::of(&checkpoint);
        if written_by != engine {
            return Err(CheckpointError::EngineMismatch {
                expected: engine.to_string(),
                found: written_by.to_string(),
            });
        }
        Ok(Some(checkpoint))
    }

    /// Runs chain `label` on `engine` to `iterations` in
    /// checkpoint-interval chunks and returns the final field. The chain
    /// starts from the claimed checkpoint's field and progress, or from
    /// the random field drawn from the chain seed's stream (which a
    /// raster chain goes on drawing from). `chunk(field, state, end,
    /// rng)` continues the chain from `state` to sweep `end` and returns
    /// its report plus, on the raster engine, the generator's state
    /// words. A checkpoint is written after every chunk, the last one
    /// included.
    fn chunked<M, F>(
        &mut self,
        model: &M,
        label: &str,
        seed: u64,
        engine: Engine,
        iterations: usize,
        mut chunk: F,
    ) -> Result<LabelField, CheckpointError>
    where
        M: MrfModel,
        F: FnMut(
            &mut LabelField,
            Option<ResumeState>,
            usize,
            &mut Xoshiro256pp,
        ) -> (SolveReport, Option<[u64; 4]>),
    {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let (mut field, mut state) = match self.take_resume(label, engine)? {
            Some(cp) => {
                if let Some(words) = cp.rng_state {
                    rng = Xoshiro256pp::from_state(words);
                }
                (cp.restore_field(), Some(cp.resume_state()))
            }
            None => {
                let field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
                (field, None)
            }
        };
        loop {
            let start = state.as_ref().map_or(0, |s| s.start_iteration);
            let end = match self.checkpoint_every {
                Some(every) => ((start / every + 1) * every).min(iterations),
                None => iterations,
            }
            .max(start);
            let (report, rng_state) = chunk(&mut field, state.take(), end, &mut rng);
            if self.checkpoint_every.is_some() {
                let mut cp = Checkpoint::capture(
                    label,
                    &field,
                    report.iterations_run,
                    report.final_energy(),
                    report.labels_changed,
                    report.energy_history.clone(),
                )
                .with_seed(seed)
                .with_numeric(engine.numeric());
                if let Some(words) = rng_state {
                    cp = cp.with_rng_state(words);
                }
                if let Some(mask) = report.active_sites.clone() {
                    cp = cp.with_active_sites(mask);
                }
                // Best effort: the checkpoint is a durability aid, not an
                // output artifact, so a failed write does not abort the run.
                if let Err(e) = cp.save(&self.checkpoint_path) {
                    eprintln!(
                        "warning: failed to write checkpoint {}: {e}",
                        self.checkpoint_path.display()
                    );
                }
            }
            if report.iterations_run >= iterations {
                return Ok(field);
            }
            state = Some(report.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrf::{DistanceFn, NoopObserver, SoftwareGibbs, TabularMrf};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bench-plan-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn model() -> TabularMrf {
        TabularMrf::checkerboard(10, 8, 3, 4.0, DistanceFn::Binary, 0.3)
    }

    fn schedule() -> Schedule {
        Schedule::geometric(3.0, 0.9, 0.1)
    }

    fn plan(threads: usize, every: Option<usize>, path: &str) -> RunPlan {
        RunPlan {
            threads,
            checkpoint_every: every,
            checkpoint_path: if path.is_empty() {
                PathBuf::new()
            } else {
                temp_ckpt(path)
            },
            ..RunPlan::default()
        }
    }

    fn run(plan: &mut RunPlan, iterations: usize, label: &str) -> LabelField {
        plan.run(
            &model(),
            &SamplerKind::Software,
            schedule(),
            iterations,
            11,
            label,
            &mut NoopObserver,
        )
        .expect("no refused resume")
    }

    #[test]
    fn args_parse_every_flag_form_and_reject_malformed_values() {
        let ok = |args: &[&str]| Args::parse(&strs(args), &["--smoke"]).unwrap();
        assert_eq!(ok(&[]).plan, RunPlan::default());
        assert_eq!(ok(&["--threads", "4"]).plan.threads, 4);
        assert_eq!(ok(&["--threads=8"]).plan.threads, 8);
        let both = ok(&["--threads=8", "--active"]).plan;
        assert!(both.threads == 8 && both.active);
        assert_eq!(
            ok(&["--numeric", "exact"]).plan.numeric,
            NumericPolicy::Exact
        );
        assert_eq!(ok(&["--numeric", "fast"]).plan.numeric, NumericPolicy::Fast);
        assert_eq!(
            ok(&["--threads", "2", "--numeric=fast"]).plan.numeric,
            NumericPolicy::Fast
        );
        assert!(ok(&["--active"]).plan.active);
        assert_eq!(
            ok(&["--checkpoint-every", "25"]).plan.checkpoint_every,
            Some(25)
        );
        assert_eq!(
            ok(&["--checkpoint-every=40"]).plan.checkpoint_every,
            Some(40)
        );
        assert_eq!(
            ok(&["--resume", "a.ckpt"]).resume,
            Some(PathBuf::from("a.ckpt"))
        );
        assert_eq!(
            ok(&["--resume=b/c.ckpt"]).resume,
            Some(PathBuf::from("b/c.ckpt"))
        );
        assert_eq!(
            ok(&["--trace", "out.jsonl"]).plan.trace,
            Some(PathBuf::from("out.jsonl"))
        );
        assert_eq!(
            ok(&["--trace=a/b.jsonl"]).plan.trace,
            Some(PathBuf::from("a/b.jsonl"))
        );
        let smoke = ok(&["--smoke", "--threads", "2"]);
        assert!(smoke.switch("--smoke") && smoke.plan.threads == 2);
        assert!(!ok(&[]).switch("--smoke"));
        for bad in [
            &["--threads"][..],
            &["--threads", "--trace"],
            &["--threads", "zero"],
            &["--threads", "0"],
            &["--threads=-3"],
            &["--threads="],
            &["--numeric"],
            &["--numeric", "--active"],
            &["--numeric", "f32"],
            &["--numeric="],
            &["--numeric", "Fast"],
            &["--checkpoint-every"],
            &["--checkpoint-every", "--resume"],
            &["--checkpoint-every", "0"],
            &["--checkpoint-every=x"],
            &["--resume"],
            &["--resume", "--threads"],
            &["--resume="],
            &["--trace"],
            &["--trace", "--threads"],
            &["--trace="],
            &["--active=yes"],
            &["--smoke=1"],
        ] {
            assert!(
                Args::parse(&strs(bad), &["--smoke"]).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn args_parse_rejects_unknown_flags() {
        for bad in [
            &["--thread", "4"][..],
            &["--other", "x", "--threads", "2"],
            &["tail"],
            &["--smoke"],
        ] {
            let err = Args::parse(&strs(bad), &[]).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn take_resume_only_matches_its_own_label() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let field = LabelField::random(mrf::Grid::new(4, 4), 2, &mut rng);
        let cp = Checkpoint::capture("fig/x", &field, 5, -1.0, 3, vec![-1.0]);
        let mut plan = RunPlan {
            resume: Some(cp),
            ..RunPlan::default()
        };
        assert_eq!(plan.pending_resume(), Some("fig/x"));
        assert!(plan.finish().is_err());
        let claim = |plan: &mut RunPlan, label| {
            let engine = Engine::Checkerboard {
                numeric: NumericPolicy::Exact,
                active: false,
            };
            plan.take_resume(label, engine).unwrap().is_some()
        };
        assert!(!claim(&mut plan, "fig/other"));
        assert!(claim(&mut plan, "fig/x"));
        // Claimed exactly once.
        assert!(!claim(&mut plan, "fig/x"));
        assert_eq!(plan.pending_resume(), None);
        assert!(plan.finish().is_ok());
    }

    #[test]
    fn checkpointing_does_not_change_the_raster_chain() {
        let plain = SamplerKind::Software.run(&model(), schedule(), 20, 11);
        let mut chunked = plan(1, Some(7), "raster-chunks.ckpt");
        assert_eq!(plain, run(&mut chunked, 20, "t/software"));
        // The last chunk's checkpoint is the end of the run.
        let cp = Checkpoint::load(&chunked.checkpoint_path).unwrap();
        assert_eq!(cp.next_iteration, 20);
        std::fs::remove_file(&chunked.checkpoint_path).ok();
    }

    #[test]
    fn sequential_kill_and_resume_is_bit_identical() {
        let uninterrupted = run(&mut RunPlan::default(), 30, "t/seq");
        // "Kill" after 13 sweeps: run only that far, checkpointing at 13.
        let mut killed = plan(1, Some(13), "sequential.ckpt");
        run(&mut killed, 13, "t/seq");
        let cp = Checkpoint::load(&killed.checkpoint_path).unwrap();
        assert_eq!(cp.next_iteration, 13);
        assert!(
            cp.rng_state.is_some(),
            "sequential checkpoints carry RNG words"
        );
        let mut resumed = RunPlan {
            resume: Some(cp),
            ..RunPlan::default()
        };
        assert_eq!(uninterrupted, run(&mut resumed, 30, "t/seq"));
        std::fs::remove_file(&killed.checkpoint_path).ok();
    }

    #[test]
    fn parallel_kill_and_resume_is_bit_identical_across_thread_counts() {
        // One thread routes to the raster engine, so the uninterrupted
        // checkerboard reference comes from the solver itself.
        let reference = {
            let mut rng = Xoshiro256pp::seed_from_u64(11);
            let mut field = LabelField::random(model().grid(), 3, &mut rng);
            ParallelSweepSolver::new(&model())
                .schedule(schedule())
                .iterations(30)
                .threads(1)
                .seed(11)
                .run(&mut field, &SoftwareGibbs::new());
            field
        };
        for (kill_threads, resume_threads) in [(2, 7), (7, 2)] {
            let name = format!("parallel-{kill_threads}-{resume_threads}.ckpt");
            let mut killed = plan(kill_threads, Some(10), &name);
            run(&mut killed, 20, "t/par");
            let cp = Checkpoint::load(&killed.checkpoint_path).unwrap();
            assert_eq!(cp.next_iteration, 20);
            assert_eq!(cp.energy_history.len(), 20);
            let mut resumed = RunPlan {
                resume: Some(cp),
                ..plan(resume_threads, None, "")
            };
            assert_eq!(
                reference,
                run(&mut resumed, 30, "t/par"),
                "kill at {kill_threads} threads, resume at {resume_threads}"
            );
            std::fs::remove_file(&killed.checkpoint_path).ok();
        }
    }

    #[test]
    fn resume_on_the_other_engine_is_refused() {
        let mut raster = plan(1, Some(10), "cross-raster.ckpt");
        run(&mut raster, 10, "t/x");
        let mut checkerboard = plan(2, Some(10), "cross-checkerboard.ckpt");
        run(&mut checkerboard, 10, "t/x");
        let cases = [
            (&raster.checkpoint_path, 2, "checkerboard", "raster"),
            (&checkerboard.checkpoint_path, 1, "raster", "checkerboard"),
        ];
        for (path, threads, expected, found) in cases {
            let mut resumed = RunPlan {
                resume: Some(Checkpoint::load(path).unwrap()),
                ..plan(threads, None, "")
            };
            let refused = resumed
                .run(
                    &model(),
                    &SamplerKind::Software,
                    schedule(),
                    30,
                    11,
                    "t/x",
                    &mut NoopObserver,
                )
                .unwrap_err();
            assert!(
                matches!(
                    &refused,
                    CheckpointError::EngineMismatch { expected: e, found: f }
                        if e == expected && f == found
                ),
                "{refused}"
            );
        }
        std::fs::remove_file(&raster.checkpoint_path).ok();
        std::fs::remove_file(&checkerboard.checkpoint_path).ok();
    }

    #[test]
    fn resume_under_other_numeric_or_active_flags_is_refused() {
        let (exact, fast) = (NumericPolicy::Exact, NumericPolicy::Fast);
        // (written with, resumed with), each as (numeric, active): both
        // directions of both flags.
        let cases = [
            ((exact, true), (exact, false)),
            ((exact, false), (exact, true)),
            ((fast, false), (exact, false)),
            ((exact, false), (fast, false)),
        ];
        for (index, ((kill_numeric, kill_active), (numeric, active))) in
            cases.into_iter().enumerate()
        {
            let mut killed = RunPlan {
                numeric: kill_numeric,
                active: kill_active,
                ..plan(2, Some(10), &format!("scheduling-{index}.ckpt"))
            };
            run(&mut killed, 10, "t/s");
            let mut resumed = RunPlan {
                numeric,
                active,
                resume: Some(Checkpoint::load(&killed.checkpoint_path).unwrap()),
                ..plan(2, None, "")
            };
            let refused = resumed
                .run(
                    &model(),
                    &SamplerKind::Software,
                    schedule(),
                    30,
                    11,
                    "t/s",
                    &mut NoopObserver,
                )
                .unwrap_err();
            let name = |numeric, active| Engine::Checkerboard { numeric, active }.to_string();
            assert!(
                matches!(
                    &refused,
                    CheckpointError::EngineMismatch { expected, found }
                        if *expected == name(numeric, active)
                            && *found == name(kill_numeric, kill_active)
                ),
                "case {index}: {refused}"
            );
            std::fs::remove_file(&killed.checkpoint_path).ok();
        }
    }

    #[test]
    fn an_unclaimed_resume_fails_the_driver_naming_its_label() {
        let mut killed = plan(1, Some(5), "unclaimed.ckpt");
        run(&mut killed, 5, "t/old-label");
        let mut resumed = RunPlan {
            resume: Some(Checkpoint::load(&killed.checkpoint_path).unwrap()),
            ..RunPlan::default()
        };
        run(&mut resumed, 10, "t/a");
        run(&mut resumed, 10, "t/b");
        let err = resumed.finish().unwrap_err();
        assert!(err.contains("t/old-label"), "{err}");
        std::fs::remove_file(&killed.checkpoint_path).ok();
    }

    #[test]
    fn parallel_fast_active_kill_and_resume_is_bit_identical() {
        let fast_active = |threads, every, path: &str| RunPlan {
            numeric: NumericPolicy::Fast,
            active: true,
            ..plan(threads, every, path)
        };
        let reference = run(&mut fast_active(1, None, ""), 30, "t/fa");
        let mut killed = fast_active(2, Some(10), "parallel-fast-active.ckpt");
        run(&mut killed, 20, "t/fa");
        let cp = Checkpoint::load(&killed.checkpoint_path).unwrap();
        assert_eq!(cp.next_iteration, 20);
        assert!(
            cp.active_sites.is_some(),
            "active checkpoints carry the worklist"
        );
        let mut resumed = RunPlan {
            resume: Some(cp),
            ..fast_active(7, None, "")
        };
        assert_eq!(
            reference,
            run(&mut resumed, 30, "t/fa"),
            "fast+active kill at 2 threads, resume at 7"
        );
        std::fs::remove_file(&killed.checkpoint_path).ok();
    }

    #[test]
    fn parallel_resumed_energy_history_is_bit_identical() {
        let model = TabularMrf::checkerboard(8, 8, 3, 4.0, DistanceFn::Binary, 0.3);
        let traced = |plan: &mut RunPlan, iterations, trace: &mut mrf::EnergyTrace| {
            plan.run(
                &model,
                &SamplerKind::Software,
                schedule(),
                iterations,
                5,
                "t/energy",
                trace,
            )
            .unwrap();
        };
        let mut whole = mrf::EnergyTrace::new();
        traced(&mut plan(2, None, ""), 24, &mut whole);
        let mut killed = plan(2, Some(9), "parallel-energy.ckpt");
        traced(&mut killed, 9, &mut mrf::EnergyTrace::new());
        let mut tail = mrf::EnergyTrace::new();
        let mut resumed = RunPlan {
            resume: Some(Checkpoint::load(&killed.checkpoint_path).unwrap()),
            ..plan(2, None, "")
        };
        traced(&mut resumed, 24, &mut tail);
        let whole_bits: Vec<u64> = whole.energies().iter().map(|e| e.to_bits()).collect();
        let tail_bits: Vec<u64> = tail.energies().iter().map(|e| e.to_bits()).collect();
        assert_eq!(&whole_bits[9..], &tail_bits[..], "resumed sweeps 9..24");
        std::fs::remove_file(&killed.checkpoint_path).ok();
    }
}
