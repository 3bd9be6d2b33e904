//! Solver checkpoints: save a chain mid-run, resume it bit-identically.
//!
//! The paper's workloads are long annealed MCMC runs; a production
//! deployment has to survive interruption without redoing thousands of
//! sweeps. A [`Checkpoint`] captures everything a sweep engine needs to
//! continue *exactly* where it stopped:
//!
//! * the label field (the latent state `X`),
//! * the incrementally-tracked total energy **bit-exactly** — resumed
//!   runs must keep accumulating the same f64, not a freshly rescanned
//!   one, or the energy history diverges in the last ulp,
//! * the sweep/annealing iteration index (one shared counter: the
//!   schedule, the per-site RNG streams and the observers all key off
//!   it),
//! * the RNG state: the chain `seed` for counter-based
//!   [`sampling::SiteRng`] streams (the parallel engines are pure
//!   functions of `(seed, iteration, site)`, so the seed plus the next
//!   iteration index *is* the full generator state), and the four raw
//!   [`sampling::Xoshiro256pp`] state words for sequential-path
//!   generators.
//!
//! # Determinism contract
//!
//! For every engine (`SweepSolver`, `ParallelSweepSolver`, the `rsu`
//! crate's `RsuArray`): running `k` iterations, checkpointing, loading
//! the checkpoint and running the remaining iterations produces the
//! same label field, the same energy history (every f64 bit-identical)
//! and the same RNG consumption as the uninterrupted run — at any
//! thread count. This extends the thread-invariance contract of the
//! parallel engine to interruption.
//!
//! # File format
//!
//! The workspace has no serializer library, so checkpoints use a
//! self-contained, versioned, line-oriented text format. Every `f64` is
//! round-tripped through [`f64::to_bits`] as 16 hex digits — decimal
//! formatting would lose the low mantissa bits and break the
//! bit-identity contract. Writes go to a sibling temporary file which
//! is fsynced and then atomically renamed into place, with the parent
//! directory fsynced after the rename: a run killed mid-write never
//! leaves a torn checkpoint behind, and a completed [`Checkpoint::save`]
//! survives power loss (rename without `sync_all` can persist the new
//! name pointing at unwritten data).
//!
//! ```text
//! retrsu-checkpoint v1
//! engine <tag>
//! grid <width> <height> <num_labels>
//! progress <next_iteration> <labels_changed>
//! energy <16-hex f64 bits>
//! seed <u64>
//! rng none | rng <4 × 16-hex u64 words>
//! history <len> <16-hex f64 bits>...
//! field <len> <label>...
//! numeric fast                        (optional)
//! active <len> <0/1 bitstring>        (optional)
//! end
//! ```
//!
//! The `numeric` line is optional and records a chain run on the f32
//! kernel ([`NumericPolicy::Fast`]); without it the chain ran exact.
//! The `active` line is optional and carries the active-site worklist
//! of a run using active-site scheduling
//! ([`SweepSolver::active_sites`](crate::SweepSolver::active_sites)):
//! the row-major visit mask of the *next* sweep. Checkpoints without
//! either line (all pre-existing ones) parse exactly as before.

use crate::field::LabelField;
use crate::grid::Grid;
use crate::model::Label;
use crate::solver::{NumericPolicy, SolveReport};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Current checkpoint format version (the `v1` in the header).
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: &str = "retrsu-checkpoint";

/// Error raised while saving, loading or validating a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io(io::Error),
    /// The checkpoint text is not a valid `retrsu-checkpoint` document.
    Malformed {
        /// 1-based line the parser rejected.
        line: usize,
        /// Why it was rejected.
        reason: String,
    },
    /// The file is a valid checkpoint of a future/unknown format version.
    UnsupportedVersion(u32),
    /// The checkpoint was written by a different engine than the one
    /// trying to resume from it.
    EngineMismatch {
        /// Engine tag the caller expected.
        expected: String,
        /// Engine tag recorded in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint at line {line}: {reason}")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::EngineMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint engine mismatch: expected {expected:?}, found {found:?}"
                )
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The part of a [`Checkpoint`] a sweep engine consumes to continue a
/// chain: where to restart and the accumulated report state.
///
/// Pass to [`SweepSolver::resume`](crate::SweepSolver::resume) or
/// [`ParallelSweepSolver::resume`](crate::ParallelSweepSolver::resume);
/// the resumed report then contains the *full* history (restored
/// prefix plus new iterations), so the history and `final_energy`
/// behave as if the run was never interrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// First iteration the resumed run executes (iterations
    /// `0..start_iteration` already ran before the checkpoint).
    pub start_iteration: usize,
    /// The incrementally-accumulated total energy, bit-exact.
    pub energy: f64,
    /// Label flips accumulated so far.
    pub labels_changed: u64,
    /// Per-iteration energies of the completed prefix.
    pub energy_history: Vec<f64>,
    /// Active-site visit mask for the first resumed sweep, when the
    /// interrupted run used active-site scheduling. `None` resumes
    /// with full sweeps (or, if the solver enables active scheduling,
    /// a conservative all-active worklist).
    pub active_sites: Option<Vec<bool>>,
}

impl From<SolveReport> for ResumeState {
    /// Where a finished or stopped run left its chain: a solver resumed
    /// from here with the same settings continues it bit-identically.
    fn from(report: SolveReport) -> Self {
        ResumeState {
            start_iteration: report.iterations_run,
            energy: report.final_energy(),
            labels_changed: report.labels_changed,
            energy_history: report.energy_history,
            active_sites: report.active_sites,
        }
    }
}

/// A complete, serializable snapshot of a sweep engine mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Engine tag (e.g. `"sweep"`, `"parallel"`, `"rsu-array"`); free
    /// form, validated by [`expect_engine`](Self::expect_engine).
    pub engine: String,
    /// Grid width of the label field.
    pub grid_width: usize,
    /// Grid height of the label field.
    pub grid_height: usize,
    /// Label-space size of the field.
    pub num_labels: usize,
    /// First iteration still to run.
    pub next_iteration: usize,
    /// Label flips accumulated so far.
    pub labels_changed: u64,
    /// Incrementally-tracked total energy at the checkpoint, bit-exact.
    pub energy: f64,
    /// Per-iteration energy history of the completed prefix.
    pub energy_history: Vec<f64>,
    /// Chain seed for counter-based per-site RNG streams (parallel
    /// engines; 0 when unused).
    pub seed: u64,
    /// Raw xoshiro256++ state of a sequential-path generator, if the
    /// checkpointed run threads one (label-field init, raster sweeps,
    /// random-permutation shuffles).
    pub rng_state: Option<[u64; 4]>,
    /// The label field in row-major order.
    pub labels: Vec<Label>,
    /// Site-kernel precision the chain ran with.
    pub numeric: NumericPolicy,
    /// Active-site worklist of the next sweep (row-major), when the
    /// checkpointed run used active-site scheduling.
    pub active_sites: Option<Vec<bool>>,
}

impl Checkpoint {
    /// Captures a checkpoint: the field plus the chain progress. The
    /// seed defaults to 0 and no sequential RNG state is recorded; use
    /// [`with_seed`](Self::with_seed) /
    /// [`with_rng_state`](Self::with_rng_state) for those.
    pub fn capture(
        engine: &str,
        field: &LabelField,
        next_iteration: usize,
        energy: f64,
        labels_changed: u64,
        energy_history: Vec<f64>,
    ) -> Self {
        Checkpoint {
            engine: engine.to_string(),
            grid_width: field.grid().width(),
            grid_height: field.grid().height(),
            num_labels: field.num_labels(),
            next_iteration,
            labels_changed,
            energy,
            energy_history,
            seed: 0,
            rng_state: None,
            labels: field.as_slice().to_vec(),
            numeric: NumericPolicy::Exact,
            active_sites: None,
        }
    }

    /// Records the chain seed driving counter-based per-site streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records a sequential-path generator's exact state
    /// ([`sampling::Xoshiro256pp::state`]).
    pub fn with_rng_state(mut self, state: [u64; 4]) -> Self {
        self.rng_state = Some(state);
        self
    }

    /// Records the site-kernel precision the chain ran with.
    pub fn with_numeric(mut self, numeric: NumericPolicy) -> Self {
        self.numeric = numeric;
        self
    }

    /// Records the active-site worklist of a run using active-site
    /// scheduling (the [`SolveReport::active_sites`] mask — the visit
    /// set of the next sweep). Resuming with the mask reproduces the
    /// uninterrupted chain bit-identically; without it, an active-set
    /// resume falls back to a full first sweep and diverges.
    ///
    /// [`SolveReport::active_sites`]: crate::SolveReport::active_sites
    pub fn with_active_sites(mut self, mask: Vec<bool>) -> Self {
        self.active_sites = Some(mask);
        self
    }

    /// Rebuilds the label field recorded in the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the recorded grid/label data is internally inconsistent
    /// (cannot happen for checkpoints that round-tripped through
    /// [`load`](Self::load), which validates).
    pub fn restore_field(&self) -> LabelField {
        let grid = Grid::new(self.grid_width, self.grid_height);
        LabelField::from_labels(grid, self.num_labels, self.labels.clone())
    }

    /// The engine-facing resume state.
    pub fn resume_state(&self) -> ResumeState {
        ResumeState {
            start_iteration: self.next_iteration,
            energy: self.energy,
            labels_changed: self.labels_changed,
            energy_history: self.energy_history.clone(),
            active_sites: self.active_sites.clone(),
        }
    }

    /// Fails unless the checkpoint was written by the given engine.
    pub fn expect_engine(&self, engine: &str) -> Result<(), CheckpointError> {
        if self.engine == engine {
            Ok(())
        } else {
            Err(CheckpointError::EngineMismatch {
                expected: engine.to_string(),
                found: self.engine.clone(),
            })
        }
    }

    /// Serializes to the versioned text format.
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC} v{CHECKPOINT_VERSION}");
        let _ = writeln!(out, "engine {}", self.engine);
        let _ = writeln!(
            out,
            "grid {} {} {}",
            self.grid_width, self.grid_height, self.num_labels
        );
        let _ = writeln!(
            out,
            "progress {} {}",
            self.next_iteration, self.labels_changed
        );
        let _ = writeln!(out, "energy {:016x}", self.energy.to_bits());
        let _ = writeln!(out, "seed {}", self.seed);
        match self.rng_state {
            None => {
                let _ = writeln!(out, "rng none");
            }
            Some(s) => {
                let _ = writeln!(
                    out,
                    "rng {:016x} {:016x} {:016x} {:016x}",
                    s[0], s[1], s[2], s[3]
                );
            }
        }
        let _ = write!(out, "history {}", self.energy_history.len());
        for e in &self.energy_history {
            let _ = write!(out, " {:016x}", e.to_bits());
        }
        out.push('\n');
        let _ = write!(out, "field {}", self.labels.len());
        for l in &self.labels {
            let _ = write!(out, " {l}");
        }
        out.push('\n');
        if self.numeric != NumericPolicy::Exact {
            let _ = writeln!(out, "numeric {}", self.numeric);
        }
        if let Some(mask) = &self.active_sites {
            let _ = write!(out, "active {} ", mask.len());
            out.extend(mask.iter().map(|&b| if b { '1' } else { '0' }));
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the versioned text format, validating structure and
    /// ranges (labels within `num_labels`, field length matching the
    /// grid).
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines().enumerate();
        let mut next = |expect: &str| -> Result<(usize, String), CheckpointError> {
            match lines.next() {
                Some((i, line)) => Ok((i + 1, line.to_string())),
                None => Err(CheckpointError::Malformed {
                    line: 0,
                    reason: format!("missing {expect} line"),
                }),
            }
        };
        let malformed = |line: usize, reason: String| CheckpointError::Malformed { line, reason };

        let (ln, header) = next("header")?;
        let version = header
            .strip_prefix(MAGIC)
            .map(str::trim)
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| malformed(ln, format!("expected `{MAGIC} v<N>` header")))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }

        let (ln, line) = next("engine")?;
        let engine = line
            .strip_prefix("engine ")
            .ok_or_else(|| malformed(ln, "expected `engine <tag>`".into()))?
            .trim()
            .to_string();

        let (ln, line) = next("grid")?;
        let grid_parts = parse_fields::<usize>(&line, "grid", 3).map_err(|r| malformed(ln, r))?;
        let (grid_width, grid_height, num_labels) = (grid_parts[0], grid_parts[1], grid_parts[2]);
        if grid_width == 0 || grid_height == 0 || num_labels == 0 {
            return Err(malformed(ln, "grid dimensions must be non-zero".into()));
        }

        let (ln, line) = next("progress")?;
        let progress = parse_fields::<u64>(&line, "progress", 2).map_err(|r| malformed(ln, r))?;
        let next_iteration = progress[0] as usize;
        let labels_changed = progress[1];

        let (ln, line) = next("energy")?;
        let energy_bits = line
            .strip_prefix("energy ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| malformed(ln, "expected `energy <16-hex bits>`".into()))?;
        let energy = f64::from_bits(energy_bits);

        let (ln, line) = next("seed")?;
        let seed = line
            .strip_prefix("seed ")
            .and_then(|s| s.trim().parse::<u64>().ok())
            .ok_or_else(|| malformed(ln, "expected `seed <u64>`".into()))?;

        let (ln, line) = next("rng")?;
        let rng_body = line
            .strip_prefix("rng ")
            .ok_or_else(|| malformed(ln, "expected `rng none` or `rng <4 words>`".into()))?;
        let rng_state = if rng_body.trim() == "none" {
            None
        } else {
            let words: Vec<u64> = rng_body
                .split_whitespace()
                .map(|w| u64::from_str_radix(w, 16))
                .collect::<Result<_, _>>()
                .map_err(|e| malformed(ln, format!("bad rng word: {e}")))?;
            if words.len() != 4 {
                return Err(malformed(
                    ln,
                    format!("expected 4 rng words, got {}", words.len()),
                ));
            }
            Some([words[0], words[1], words[2], words[3]])
        };

        let (ln, line) = next("history")?;
        let energy_history = parse_counted_list(&line, "history", |w| {
            u64::from_str_radix(w, 16).ok().map(f64::from_bits)
        })
        .map_err(|r| malformed(ln, r))?;

        let (ln, line) = next("field")?;
        let labels: Vec<Label> = parse_counted_list(&line, "field", |w| w.parse::<Label>().ok())
            .map_err(|r| malformed(ln, r))?;
        if labels.len() != grid_width * grid_height {
            return Err(malformed(
                ln,
                format!(
                    "field has {} labels for a {}x{} grid",
                    labels.len(),
                    grid_width,
                    grid_height
                ),
            ));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l as usize >= num_labels) {
            return Err(malformed(
                ln,
                format!("label {bad} out of range for {num_labels} labels"),
            ));
        }

        // Optional `numeric` and `active` lines (absent in older
        // checkpoints), then `end`.
        let (mut ln, mut line) = next("end")?;
        let mut numeric = NumericPolicy::Exact;
        if let Some(body) = line.strip_prefix("numeric ") {
            numeric = body.trim().parse().map_err(|e| malformed(ln, e))?;
            (ln, line) = next("end")?;
        }
        let mut active_sites = None;
        if let Some(body) = line.strip_prefix("active ") {
            let mut words = body.split_whitespace();
            let len: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| malformed(ln, "expected a count after `active`".into()))?;
            let bits = words
                .next()
                .ok_or_else(|| malformed(ln, "expected a bitstring after the count".into()))?;
            if words.next().is_some() {
                return Err(malformed(
                    ln,
                    "trailing tokens after `active` bitstring".into(),
                ));
            }
            let mask: Vec<bool> = bits
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    other => Err(malformed(ln, format!("bad bit {other:?} in `active`"))),
                })
                .collect::<Result<_, _>>()?;
            if mask.len() != len {
                return Err(malformed(
                    ln,
                    format!("`active` declared {len} bits but carries {}", mask.len()),
                ));
            }
            if mask.len() != grid_width * grid_height {
                return Err(malformed(
                    ln,
                    format!(
                        "`active` has {} bits for a {}x{} grid",
                        mask.len(),
                        grid_width,
                        grid_height
                    ),
                ));
            }
            active_sites = Some(mask);
            (ln, line) = next("end")?;
        }
        if line.trim() != "end" {
            return Err(malformed(ln, "expected `end`".into()));
        }

        Ok(Checkpoint {
            engine,
            grid_width,
            grid_height,
            num_labels,
            next_iteration,
            labels_changed,
            energy,
            energy_history,
            seed,
            rng_state,
            labels,
            numeric,
            active_sites,
        })
    }

    /// Writes the checkpoint to `path` atomically **and durably**: the
    /// text goes to a sibling `.tmp` file which is `sync_all`ed before
    /// being renamed into place, and the parent directory is fsynced
    /// after the rename. A kill mid-write never leaves a torn
    /// checkpoint, and a power loss after `save` returns cannot surface
    /// a truncated file either — rename-without-fsync may persist the
    /// new name pointing at unwritten data, which is fatal once
    /// checkpoints are a preemption mechanism rather than a convenience.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        use std::io::Write as _;
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(self.to_text().as_bytes())?;
        // Data must be on stable storage before the rename publishes the
        // name; otherwise the rename can be durable while the bytes are
        // not.
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // The rename itself lives in the directory; fsync it so the new
        // entry survives power loss too.
        fs::File::open(parent_dir(path))?.sync_all()?;
        Ok(())
    }

    /// Loads and validates a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path)?;
        Checkpoint::from_text(&text)
    }
}

/// The directory holding `path`'s entry; a bare relative file name
/// (empty parent) lives in the current directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Parses `<key> <v1> ... <vN>` with exactly `n` values.
fn parse_fields<T: std::str::FromStr>(line: &str, key: &str, n: usize) -> Result<Vec<T>, String> {
    let body = line
        .strip_prefix(key)
        .ok_or_else(|| format!("expected `{key} ...`"))?;
    let values: Vec<T> = body
        .split_whitespace()
        .map(|w| {
            w.parse::<T>()
                .map_err(|_| format!("bad value {w:?} in `{key}`"))
        })
        .collect::<Result<_, _>>()?;
    if values.len() != n {
        return Err(format!(
            "expected {n} values after `{key}`, got {}",
            values.len()
        ));
    }
    Ok(values)
}

/// Parses `<key> <len> <v1> ... <vlen>` where each value goes through
/// `parse_one`.
fn parse_counted_list<T>(
    line: &str,
    key: &str,
    parse_one: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let body = line
        .strip_prefix(key)
        .ok_or_else(|| format!("expected `{key} ...`"))?;
    let mut words = body.split_whitespace();
    let len: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("expected a count after `{key}`"))?;
    let values: Vec<T> = words
        .map(|w| parse_one(w).ok_or_else(|| format!("bad value {w:?} in `{key}`")))
        .collect::<Result<_, _>>()?;
    if values.len() != len {
        return Err(format!(
            "`{key}` declared {len} values but carries {}",
            values.len()
        ));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        let grid = Grid::new(3, 2);
        let field = LabelField::from_labels(grid, 4, vec![0, 1, 2, 3, 0, 1]);
        Checkpoint::capture(
            "parallel",
            &field,
            17,
            -123.456_789_f64,
            42,
            vec![-100.0, -110.5, f64::from_bits(0x3FF0_0000_0000_0001)],
        )
        .with_seed(987)
        .with_rng_state([1, 2, 3, u64::MAX])
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let ck = sample_checkpoint();
        let text = ck.to_text();
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back, ck);
        // f64s survive to the bit, including a 1-ulp-off-1.0 value.
        assert_eq!(back.energy_history[2].to_bits(), 0x3FF0_0000_0000_0001_u64);
    }

    #[test]
    fn nan_and_infinite_energies_round_trip() {
        let mut ck = sample_checkpoint();
        ck.energy = f64::NAN;
        ck.energy_history = vec![f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert!(back.energy.is_nan());
        assert_eq!(back.energy_history[0], f64::INFINITY);
        assert_eq!(back.energy_history[1], f64::NEG_INFINITY);
        assert_eq!(back.energy_history[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn restore_field_rebuilds_the_labelling() {
        let ck = sample_checkpoint();
        let field = ck.restore_field();
        assert_eq!(field.grid(), Grid::new(3, 2));
        assert_eq!(field.num_labels(), 4);
        assert_eq!(field.as_slice(), &[0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn resume_state_carries_progress() {
        let ck = sample_checkpoint();
        let rs = ck.resume_state();
        assert_eq!(rs.start_iteration, 17);
        assert_eq!(rs.labels_changed, 42);
        assert_eq!(rs.energy.to_bits(), ck.energy.to_bits());
        assert_eq!(rs.energy_history.len(), 3);
    }

    #[test]
    fn engine_mismatch_is_detected() {
        let ck = sample_checkpoint();
        assert!(ck.expect_engine("parallel").is_ok());
        let err = ck.expect_engine("sweep").unwrap_err();
        assert!(err.to_string().contains("sweep"));
        assert!(err.to_string().contains("parallel"));
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("retrsu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parent_dir_defaults_bare_names_to_the_current_directory() {
        // A bare file name has an empty parent; the directory fsync
        // must target "." rather than failing to open "".
        assert_eq!(parent_dir(Path::new("bare.ckpt")), Path::new("."));
        assert_eq!(parent_dir(Path::new("a/b.ckpt")), Path::new("a"));
        assert_eq!(parent_dir(Path::new("/tmp/x.ckpt")), Path::new("/tmp"));
    }

    #[test]
    fn save_leaves_no_staging_file_behind() {
        let dir = std::env::temp_dir().join("retrsu-checkpoint-staging");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.ckpt");
        sample_checkpoint().save(&path).unwrap();
        assert!(path.exists());
        assert!(
            !dir.join("chain.ckpt.tmp").exists(),
            "the staging file must be renamed away"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn active_mask_round_trips() {
        let mask = vec![true, false, true, true, false, false];
        let ck = sample_checkpoint().with_active_sites(mask.clone());
        let text = ck.to_text();
        assert!(text.contains("active 6 101100\n"));
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.resume_state().active_sites, Some(mask));
    }

    #[test]
    fn numeric_policy_round_trips_and_defaults_to_exact() {
        let exact = sample_checkpoint();
        assert!(!exact.to_text().contains("numeric"), "exact writes no line");
        assert_eq!(
            Checkpoint::from_text(&exact.to_text()).unwrap().numeric,
            NumericPolicy::Exact
        );
        let fast = sample_checkpoint()
            .with_numeric(NumericPolicy::Fast)
            .with_active_sites(vec![true; 6]);
        let text = fast.to_text();
        assert!(text.contains("numeric fast\nactive 6 111111\nend\n"));
        assert_eq!(Checkpoint::from_text(&text).unwrap(), fast);
        let bad = text.replace("numeric fast", "numeric f16");
        assert!(matches!(
            Checkpoint::from_text(&bad),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn checkpoints_without_active_line_still_parse() {
        let ck = sample_checkpoint();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back.active_sites, None);
        assert_eq!(back.resume_state().active_sites, None);
    }

    #[test]
    fn rejects_malformed_active_lines() {
        let ck = sample_checkpoint().with_active_sites(vec![true; 6]);
        let text = ck.to_text();
        // Declared count disagrees with the bitstring.
        assert!(Checkpoint::from_text(&text.replace("active 6", "active 5")).is_err());
        // Non-binary characters.
        assert!(Checkpoint::from_text(&text.replace("111111", "1121x1")).is_err());
        // Mask length disagrees with the grid.
        assert!(Checkpoint::from_text(&text.replace("active 6 111111", "active 4 1111")).is_err());
        // Trailing tokens.
        assert!(
            Checkpoint::from_text(&text.replace("active 6 111111", "active 6 111111 extra"))
                .is_err()
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        // Wrong magic.
        assert!(Checkpoint::from_text("bogus v1\n").is_err());
        // Future version.
        let future = sample_checkpoint().to_text().replace("v1", "v999");
        assert!(matches!(
            Checkpoint::from_text(&future),
            Err(CheckpointError::UnsupportedVersion(999))
        ));
        // Truncated document.
        let text = sample_checkpoint().to_text();
        let cut = &text[..text.len() / 2];
        assert!(Checkpoint::from_text(cut).is_err());
        // Field length disagreeing with the grid.
        let bad = text.replace("grid 3 2 4", "grid 3 3 4");
        assert!(Checkpoint::from_text(&bad).is_err());
        // Label out of range.
        let bad = text.replace("grid 3 2 4", "grid 3 2 2");
        assert!(Checkpoint::from_text(&bad).is_err());
    }
}
