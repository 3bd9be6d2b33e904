//! Cycle-level pipeline model of the two RSU-G microarchitectures.
//!
//! The model reproduces the paper's published timing facts and exposes
//! the quantities the `uarch` performance model consumes:
//!
//! * previous design (§II-C): five stages, one label evaluated per cycle,
//!   sampling is a 4-cycle multicycle stage covered by replicated RET
//!   circuits, total latency `7 + (M − 1)` cycles for `M` labels;
//! * new design (§IV-B): the pipeline is decoupled by the energy FIFO so
//!   the back-end works on variable `v` while the front-end fills
//!   variable `v+1` — per-variable latency grows by the fill time `M`,
//!   but steady-state throughput is unchanged at one label per cycle;
//! * temperature updates: full-LUT rewrite stalls in the previous design
//!   versus zero stalls with the double-buffered comparison boundaries.

use crate::config::{Conversion, RsuConfig};
use ret_device::replicas_for_interference;

/// Which microarchitecture the model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Wang et al. 2016, as characterised by this paper.
    Previous,
    /// The paper's proposed high-quality design.
    New,
}

/// Analytical pipeline timing model.
///
/// # Example
///
/// ```
/// use rsu::{DesignKind, PipelineModel, RsuConfig};
///
/// let model = PipelineModel::new(DesignKind::Previous, RsuConfig::previous_design());
/// // §II-C: "the total latency is 7 + (M − 1) for M possible labels".
/// assert_eq!(model.variable_latency_cycles(49), 7 + 48);
/// assert_eq!(model.steady_state_cycles_per_variable(49), 49);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    kind: DesignKind,
    config: RsuConfig,
}

impl PipelineModel {
    /// Creates the model for a design kind and configuration.
    pub fn new(kind: DesignKind, config: RsuConfig) -> Self {
        PipelineModel { kind, config }
    }

    /// Model of the paper's previous design point.
    pub fn previous() -> Self {
        PipelineModel::new(DesignKind::Previous, RsuConfig::previous_design())
    }

    /// Model of the paper's new design point.
    pub fn new_design() -> Self {
        PipelineModel::new(DesignKind::New, RsuConfig::new_design())
    }

    /// The design kind.
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    /// The configuration.
    pub fn config(&self) -> &RsuConfig {
        &self.config
    }

    /// Number of pipeline stages.
    ///
    /// Previous design (Fig. 2b): label decrement, energy computation,
    /// energy→intensity, sampling, selection = 5. New design (Fig. 10)
    /// adds the FIFO insert, min-register/subtract and boundary-compare
    /// stages = 8.
    pub fn stage_count(&self) -> u32 {
        match self.kind {
            DesignKind::Previous => 5,
            DesignKind::New => 8,
        }
    }

    /// RET sampling window in clock cycles (`2^Time_bits / 8` at the
    /// paper's 8-bin shift register), hence the RET-circuit replica count
    /// needed to sustain one label per cycle.
    pub fn ret_circuit_replicas(&self) -> u32 {
        (self.config.t_max_bins() / 8).max(1)
    }

    /// RET-network replica rows per circuit, from the bleed-through law
    /// (8 at truncation 0.5, 1 at 0.004).
    pub fn ret_network_rows(&self) -> u32 {
        replicas_for_interference(self.config.truncation(), 0.004)
    }

    /// Latency from a variable's first label entering the pipeline to
    /// its selected label emerging, in cycles.
    ///
    /// Previous design: `7 + (M − 1)` (the published formula: 5 stages
    /// with a 4-cycle sampling stage pipelined across replicas). New
    /// design: the FIFO decoupling delays λ conversion until all `M`
    /// energies have been observed, adding `M` fill cycles, plus the
    /// three extra stages.
    pub fn variable_latency_cycles(&self, labels: u32) -> u64 {
        assert!(labels >= 1, "need at least one label");
        let m = labels as u64;
        match self.kind {
            DesignKind::Previous => 7 + (m - 1),
            DesignKind::New => (7 + (m - 1)) + m + 3,
        }
    }

    /// Steady-state cycles per variable: both designs complete one label
    /// evaluation per cycle, so a variable costs `M` cycles.
    pub fn steady_state_cycles_per_variable(&self, labels: u32) -> u64 {
        labels as u64
    }

    /// Stall cycles charged per temperature update.
    pub fn temperature_update_stall_cycles(&self) -> u64 {
        match (self.kind, self.config.conversion()) {
            (_, Conversion::Comparison) => 0,
            (_, Conversion::Lut) => {
                // Full-LUT rewrite over the 8-bit interface:
                // 2^energy_bits entries × lambda_bits bits / 8.
                let bits = (1u64 << self.config.energy_bits()) * self.config.lambda_bits() as u64;
                bits.div_ceil(8)
            }
        }
    }

    /// Total cycles for a full MCMC run: `pixels` variables × `labels`
    /// each, over `iterations` sweeps, plus one temperature update per
    /// iteration (simulated annealing) and the one-time fill latency.
    pub fn cycles_for_run(&self, pixels: u64, labels: u32, iterations: u64) -> u64 {
        let per_iter = pixels * self.steady_state_cycles_per_variable(labels)
            + self.temperature_update_stall_cycles();
        per_iter * iterations + self.variable_latency_cycles(labels)
    }

    /// Throughput in label evaluations per cycle (1 for both designs).
    pub fn labels_per_cycle(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn previous_latency_matches_published_formula() {
        let m = PipelineModel::previous();
        for labels in [2u32, 5, 10, 49, 64] {
            assert_eq!(m.variable_latency_cycles(labels), 7 + (labels as u64 - 1));
        }
    }

    #[test]
    fn new_design_latency_grows_but_throughput_is_identical() {
        let prev = PipelineModel::previous();
        let new = PipelineModel::new_design();
        for labels in [5u32, 49, 64] {
            assert!(new.variable_latency_cycles(labels) > prev.variable_latency_cycles(labels));
            assert_eq!(
                new.steady_state_cycles_per_variable(labels),
                prev.steady_state_cycles_per_variable(labels),
                "throughput must remain one label per cycle"
            );
        }
    }

    #[test]
    fn replica_counts_match_paper() {
        let prev = PipelineModel::previous();
        assert_eq!(
            prev.ret_circuit_replicas(),
            4,
            "four replicated RET circuits (§II-C)"
        );
        assert_eq!(prev.ret_network_rows(), 1);
        let new = PipelineModel::new_design();
        assert_eq!(
            new.ret_circuit_replicas(),
            4,
            "window 32/8 = 4 cycles (§IV-B5)"
        );
        assert_eq!(
            new.ret_network_rows(),
            8,
            "8 replicas at truncation 0.5 (§IV-B6)"
        );
    }

    #[test]
    fn stalls_only_in_previous_design() {
        let prev = PipelineModel::previous();
        let new = PipelineModel::new_design();
        assert_eq!(prev.temperature_update_stall_cycles(), 128);
        assert_eq!(new.temperature_update_stall_cycles(), 0);
    }

    #[test]
    fn run_cycles_are_dominated_by_pixel_work() {
        let new = PipelineModel::new_design();
        let pixels = 320 * 320u64;
        let cycles = new.cycles_for_run(pixels, 10, 100);
        let floor = pixels * 10 * 100;
        assert!(cycles >= floor);
        assert!(cycles < floor + floor / 100, "overheads must be tiny");
    }

    #[test]
    fn stage_counts() {
        assert_eq!(PipelineModel::previous().stage_count(), 5);
        assert_eq!(PipelineModel::new_design().stage_count(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn zero_labels_rejected() {
        PipelineModel::previous().variable_latency_cycles(0);
    }
}
