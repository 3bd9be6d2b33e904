#![warn(missing_docs)]

//! RSU-G: functional and cycle-level simulation of RET-based Gibbs
//! sampling units — the primary contribution of *Architecting a
//! Stochastic Computing Unit with Molecular Optical Devices* (ISCA 2018).
//!
//! An RSU-G evaluates one Markov-Random-Field variable per invocation:
//! it receives the local conditional energy of every candidate label,
//! converts each energy to an exponential decay rate `λ = e^{−E/T}`
//! (Eq. 2), samples a time-to-fluorescence per label from a RET circuit,
//! and selects the label that fires first. The paper's study revolves
//! around four limited-precision design parameters and the techniques
//! that recover software-level result quality:
//!
//! | Parameter | Type | Paper §III | This crate |
//! |---|---|---|---|
//! | `Energy_bits` | energy quantisation | 8 bits suffice | [`EnergyQuantizer`] |
//! | `Lambda_bits` | decay-rate precision | 4 bits + scaling + cut-off + 2^n | [`convert`] |
//! | `Time_bits` | TTF resolution | 5 bits | [`RsuConfig::time_bits`] |
//! | `Truncation` | censored tail mass | 0.5 | [`RsuConfig::truncation`] |
//!
//! Two full design points are provided:
//!
//! * [`RsuG::previous_design`] — the Wang et al. (ISCA 2016) unit as
//!   characterised by this paper: intensity-controlled rates, straight
//!   `λ`-LUT with a λ0 floor, **no** decay-rate scaling, **no**
//!   probability cut-off, truncation 0.004, LUT rewritten (with stalls)
//!   on every temperature update.
//! * [`RsuG::new_design`] — the paper's proposal: decay-rate scaling
//!   (FIFO + min registers), probability cut-off, `2^n` lambda
//!   approximation, concentration-based rates, comparison-based
//!   energy-to-λ conversion with double-buffered boundary registers
//!   (stall-free annealing), truncation 0.5 with 8 RET-network replica
//!   rows.
//!
//! Both implement [`mrf::SiteSampler`], so swapping the software Gibbs
//! kernel for an RSU-G in any application is a one-line change — exactly
//! the experimental methodology of the paper.
//!
//! # Example
//!
//! ```
//! use mrf::{LabelField, MrfModel, Schedule, SweepSolver, TabularMrf, DistanceFn};
//! use rsu::RsuG;
//! use rand::SeedableRng;
//! use sampling::Xoshiro256pp;
//!
//! let model = TabularMrf::checkerboard(6, 6, 3, 4.0, DistanceFn::Binary, 0.3);
//! let mut rng = Xoshiro256pp::seed_from_u64(7);
//! let mut field = LabelField::random(model.grid(), 3, &mut rng);
//! let mut unit = RsuG::new_design();
//! SweepSolver::new(&model)
//!     .schedule(Schedule::geometric(3.0, 0.9, 0.05))
//!     .iterations(60)
//!     .run(&mut field, &mut unit, &mut rng);
//! assert!(unit.stats().variable_evaluations > 0);
//! ```

pub mod analysis;
pub mod array;
pub mod config;
pub mod convert;
pub mod cyclesim;
pub mod error;
pub mod fault;
pub mod pipeline;
pub mod quantize;
mod race;
pub mod sampler;
pub mod scaling;

pub use array::RsuArray;
pub use config::{
    CensoredPolicy, Conversion, PhotonPath, RateControl, RsuConfig, RsuConfigBuilder, TieBreak,
};
pub use convert::{ComparisonConverter, EnergyToLambda, LambdaConverter, LutConverter};
pub use cyclesim::{CycleAccuratePipeline, CycleReport};
pub use error::ConfigError;
pub use fault::{DegradationReport, DegradePolicy, FaultKind, FaultPlan, ScheduledFault};
pub use pipeline::{DesignKind, PipelineModel};
pub use quantize::EnergyQuantizer;
pub use sampler::{RsuG, RsuStats};
pub use scaling::EnergyFifo;
