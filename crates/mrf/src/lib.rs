#![warn(missing_docs)]

//! Markov Random Field substrate: models, energies, annealing and the
//! MCMC sweep driver the RSU-G accelerates.
//!
//! The paper's target computation (Fig. 1) is MRF Bayesian inference by
//! Markov-Chain Monte Carlo: iterate over every pixel, compute the energy
//! of each possible label from the singleton (data) term and the
//! neighbourhood (smoothness) terms (Eq. 1), convert energies to relative
//! probabilities through `λ = e^{−E/T}` (Eq. 2), and draw the new label.
//! This crate implements that machinery generically:
//!
//! * [`Grid`] / [`LabelField`] — 2-D lattices and their label states.
//! * [`DistanceFn`] — the three distance functions the new RSU-G supports
//!   (squared for motion estimation, absolute for stereo, binary/Potts for
//!   segmentation).
//! * [`MrfModel`] — the model trait applications implement; the solver and
//!   every sampler (software float, previous RSU-G, new RSU-G) consume it
//!   identically, which is what makes the paper's apples-to-apples quality
//!   comparison possible.
//! * [`SiteSampler`] — the pluggable per-site Gibbs kernel. The pure
//!   software implementation lives here ([`SoftwareGibbs`]); the RSU-G
//!   implementations live in the `rsu` crate.
//! * [`Schedule`] — simulated-annealing temperature schedules.
//! * [`solve`] / [`SweepSolver`] — the outer MCMC loop with energy
//!   tracking and a stop flag polled at every sweep boundary.
//! * [`SweepObserver`] / [`EnergyTrace`] — zero-overhead-when-off sweep
//!   tracing plus convergence diagnostics (autocorrelation ESS,
//!   Gelman–Rubin PSRF, iterations-to-within-ε), honoured identically by
//!   every engine (see the [`trace`] module's determinism contract).
//! * [`Checkpoint`] / [`ResumeState`] — bit-exact save/resume of a chain
//!   mid-run: a resumed run reproduces the uninterrupted one label for
//!   label and bit for bit, at any thread count (see the [`checkpoint`]
//!   module's determinism contract).
//!
//! # Example
//!
//! ```
//! use mrf::{DistanceFn, LabelField, MrfModel, Schedule, SoftwareGibbs, SweepSolver, TabularMrf};
//! use rand::SeedableRng;
//! use sampling::Xoshiro256pp;
//!
//! // A tiny 4x4 segmentation-style problem with 2 labels.
//! let model = TabularMrf::checkerboard(4, 4, 2, 1.0, DistanceFn::Binary, 0.8);
//! let mut field = LabelField::constant(model.grid(), 2, 0);
//! let mut rng = Xoshiro256pp::seed_from_u64(1);
//! let mut sampler = SoftwareGibbs::new();
//! let report = SweepSolver::new(&model)
//!     .schedule(Schedule::geometric(2.0, 0.95, 0.05))
//!     .iterations(50)
//!     .run(&mut field, &mut sampler, &mut rng);
//! assert_eq!(report.energy_history.len(), 50);
//! ```

pub mod active;
pub mod annealing;
pub mod beliefprop;
pub mod checkpoint;
pub mod energy;
pub mod field;
pub mod graphcut;
pub mod grid;
pub mod maxflow;
pub mod metropolis;
pub mod model;
pub mod parallel;
pub mod solver;
pub mod trace;

pub use active::ActiveSet;
pub use annealing::Schedule;
pub use beliefprop::{belief_propagation, BeliefPropReport};
pub use checkpoint::{Checkpoint, CheckpointError, ResumeState};
pub use energy::{DistanceFn, PairwiseTable};
pub use field::LabelField;
pub use graphcut::{alpha_expansion, distance_is_metric, ExpansionReport, GraphCutError};
pub use grid::{Grid, Neighbors};
pub use metropolis::MetropolisSampler;
pub use model::{Label, MrfModel, TabularMrf};
pub use parallel::ParallelSweepSolver;
pub use solver::{
    solve, total_energy, IcmSampler, NumericPolicy, SiteSampler, SoftwareGibbs, SolveReport,
    Solver, SweepSolver,
};
pub use trace::{
    effective_sample_size, potential_scale_reduction, EnergyTrace, FanOut, FaultRecord,
    NoopObserver, SweepObserver, SweepRecord,
};
