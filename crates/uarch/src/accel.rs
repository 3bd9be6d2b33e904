//! Epoch-based simulation of the discrete RSU-G accelerator (§II-C).
//!
//! The paper's discrete accelerator packs 336 RSU-Gs behind a
//! 336 GB/s memory system and reports 21×/54× speedups for 5-/49-label
//! workloads. Where [`crate::perf::discrete_accelerator_time_s`] is a
//! closed-form bound, this module simulates the machine epoch by epoch:
//!
//! * pixels are processed in checkerboard phases (same-phase pixels have
//!   no 4-neighbourhood dependencies, so they parallelise freely across
//!   units — the standard parallel-Gibbs decomposition);
//! * each pixel update occupies one RSU-G for `M` cycles (one label per
//!   cycle) and moves a fixed number of bytes through the shared memory
//!   system;
//! * compute and memory overlap; an epoch ends when the slower of the
//!   two finishes its batch.
//!
//! The simulator exposes utilisation, the compute/memory-bound boundary
//! and sizing sweeps — the analysis a designer would run before choosing
//! the unit count.

/// Static description of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorSpec {
    /// Number of RSU-G units (336 in the paper).
    pub units: u32,
    /// Core clock in Hz (1 GHz).
    pub clock_hz: f64,
    /// Memory bandwidth in bytes/s (336 GB/s in the paper).
    pub bandwidth_bytes_per_s: f64,
    /// Bytes moved per pixel update (labels of the 4-neighbourhood, the
    /// pixel data and the write-back).
    pub bytes_per_update: f64,
}

impl AcceleratorSpec {
    /// The paper's configuration.
    pub fn paper() -> Self {
        AcceleratorSpec {
            units: 336,
            clock_hz: 1.0e9,
            bandwidth_bytes_per_s: 336.0e9,
            bytes_per_update: 16.0,
        }
    }

    /// Label count at which the machine transitions from memory-bound to
    /// compute-bound: updates take `M` unit-cycles but a fixed number of
    /// bytes, so larger `M` amortises bandwidth.
    pub fn compute_bound_threshold_labels(&self) -> f64 {
        // compute time per update (aggregate) = M / (units · f);
        // memory time per update = bytes / BW. Equal at:
        self.bytes_per_update * self.units as f64 * self.clock_hz / self.bandwidth_bytes_per_s
    }
}

/// Result of simulating one full MCMC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorReport {
    /// Total wall-clock seconds.
    pub time_s: f64,
    /// Fraction of unit-cycles doing useful label evaluations.
    pub compute_utilisation: f64,
    /// Fraction of memory-system time spent transferring.
    pub memory_utilisation: f64,
    /// Whether the run was memory-bound.
    pub memory_bound: bool,
}

/// Simulates `iterations` checkerboard sweeps over a `width × height`
/// image with `labels` labels per pixel.
///
/// # Panics
///
/// Panics on zero-sized inputs.
pub fn simulate(
    spec: AcceleratorSpec,
    width: u64,
    height: u64,
    labels: u32,
    iterations: u64,
) -> AcceleratorReport {
    assert!(
        width > 0 && height > 0 && labels > 0 && iterations > 0,
        "empty workload"
    );
    assert!(spec.units > 0 && spec.clock_hz > 0.0 && spec.bandwidth_bytes_per_s > 0.0);
    let pixels = width * height;
    // Checkerboard phases: ceil/floor halves.
    let phase_sizes = [pixels.div_ceil(2), pixels / 2];
    let mut total_time = 0.0f64;
    let mut busy_unit_cycles = 0.0f64;
    let mut busy_memory_s = 0.0f64;
    let mut memory_bound_epochs = 0u64;
    let mut epochs = 0u64;
    for _ in 0..iterations {
        for &phase_pixels in &phase_sizes {
            if phase_pixels == 0 {
                continue;
            }
            // Units round-robin the phase's pixels: batches of `units`.
            let batches = phase_pixels.div_ceil(spec.units as u64);
            // Compute time: each batch is M cycles deep (pipelined units,
            // one update per unit per batch).
            let compute_s = batches as f64 * labels as f64 / spec.clock_hz;
            // Memory time: all the phase's bytes through the shared bus.
            let memory_s = phase_pixels as f64 * spec.bytes_per_update / spec.bandwidth_bytes_per_s;
            let epoch = compute_s.max(memory_s);
            total_time += epoch;
            busy_unit_cycles += phase_pixels as f64 * labels as f64;
            busy_memory_s += memory_s;
            if memory_s > compute_s {
                memory_bound_epochs += 1;
            }
            epochs += 1;
        }
    }
    let available_unit_cycles = total_time * spec.clock_hz * spec.units as f64;
    AcceleratorReport {
        time_s: total_time,
        compute_utilisation: busy_unit_cycles / available_unit_cycles,
        memory_utilisation: busy_memory_s / total_time,
        memory_bound: memory_bound_epochs * 2 > epochs,
    }
}

/// A sizing sweep has no entry for the requested unit count — the grid
/// changed under the caller. Carries what was asked for and what the
/// sweep actually contains, so the failure is diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingUnitCount {
    /// The unit count looked up.
    pub units: u32,
    /// The unit counts the sweep does contain, in sweep order.
    pub available: Vec<u32>,
}

impl std::fmt::Display for MissingUnitCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sizing sweep has no entry for {} units (available: {:?})",
            self.units, self.available
        )
    }
}

impl std::error::Error for MissingUnitCount {}

/// Looks up the simulated time for `units` in a [`sizing_sweep`]
/// result, failing with a [`MissingUnitCount`] that names the missing
/// count instead of a bare `unwrap` panic.
pub fn sweep_time_for_units(sweep: &[(u32, f64)], units: u32) -> Result<f64, MissingUnitCount> {
    sweep
        .iter()
        .find(|&&(u, _)| u == units)
        .map(|&(_, t)| t)
        .ok_or_else(|| MissingUnitCount {
            units,
            available: sweep.iter().map(|&(u, _)| u).collect(),
        })
}

/// Sweeps the unit count and returns `(units, time_s)` pairs — the
/// sizing curve that flattens once the machine becomes memory-bound.
pub fn sizing_sweep(
    base: AcceleratorSpec,
    unit_counts: &[u32],
    width: u64,
    height: u64,
    labels: u32,
    iterations: u64,
) -> Vec<(u32, f64)> {
    unit_counts
        .iter()
        .map(|&units| {
            let spec = AcceleratorSpec { units, ..base };
            (
                units,
                simulate(spec, width, height, labels, iterations).time_s,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_threshold_is_16_labels() {
        // 16 B × 336 units × 1 GHz / 336 GB/s = 16 labels: below that the
        // paper's machine is memory-bound, above compute-bound.
        let spec = AcceleratorSpec::paper();
        assert!((spec.compute_bound_threshold_labels() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn five_labels_is_memory_bound_49_is_compute_bound() {
        let spec = AcceleratorSpec::paper();
        let seg = simulate(spec, 320, 320, 5, 10);
        let motion = simulate(spec, 320, 320, 49, 10);
        assert!(
            seg.memory_bound,
            "5-label segmentation should be memory-bound"
        );
        assert!(
            !motion.memory_bound,
            "49-label motion should be compute-bound"
        );
        assert!(motion.compute_utilisation > 0.9);
        assert!(seg.memory_utilisation > 0.9);
    }

    #[test]
    fn simulation_matches_closed_form_bound_at_scale() {
        let spec = AcceleratorSpec::paper();
        for labels in [5u32, 16, 49, 64] {
            let sim = simulate(spec, 1920, 1080, labels, 20);
            let w = crate::perf::StereoWorkload {
                width: 1920,
                height: 1080,
                labels,
                iterations: 20,
            };
            let bound = crate::perf::discrete_accelerator_time_s(
                w,
                spec.units,
                spec.bandwidth_bytes_per_s,
                spec.bytes_per_update,
            );
            // The epoch simulation adds batching-granularity overhead but
            // must stay within a few percent of the bound at HD sizes.
            assert!(sim.time_s >= bound * 0.999, "sim cannot beat the bound");
            assert!(
                sim.time_s <= bound * 1.05,
                "labels {labels}: sim {} vs bound {bound}",
                sim.time_s
            );
        }
    }

    #[test]
    fn sizing_curve_flattens_when_memory_bound() {
        let base = AcceleratorSpec::paper();
        let sweep = sizing_sweep(base, &[84, 168, 336, 672, 1344], 1920, 1080, 5, 10);
        // 5 labels: memory-bound at 336 already; doubling units beyond
        // must not help noticeably.
        let t336 = sweep_time_for_units(&sweep, 336).expect("336 units in sweep");
        let t1344 = sweep_time_for_units(&sweep, 1344).expect("1344 units in sweep");
        assert!(
            t1344 > t336 * 0.95,
            "scaling past the memory wall should not help"
        );
        // Going 84 → 168 units helps only until the memory wall
        // intervenes (threshold is 4 labels at 84 units, 8 at 168).
        let t84 = sweep_time_for_units(&sweep, 84).expect("84 units in sweep");
        let t168 = sweep_time_for_units(&sweep, 168).expect("168 units in sweep");
        assert!(t168 < t84 * 0.85, "partial scaling before the wall");
        // Fully compute-bound workloads (49 labels) scale ~linearly.
        let c = sizing_sweep(base, &[84, 168], 1920, 1080, 49, 10);
        assert!(
            c[1].1 < c[0].1 * 0.55,
            "compute-bound regime must scale: {c:?}"
        );
    }

    #[test]
    fn more_bandwidth_helps_only_memory_bound_workloads() {
        let spec = AcceleratorSpec::paper();
        let double_bw = AcceleratorSpec {
            bandwidth_bytes_per_s: 672.0e9,
            ..spec
        };
        let seg = simulate(spec, 320, 320, 5, 10).time_s;
        let seg_fast = simulate(double_bw, 320, 320, 5, 10).time_s;
        assert!(
            seg_fast < seg * 0.55,
            "memory-bound: doubling BW halves time"
        );
        let motion = simulate(spec, 320, 320, 49, 10).time_s;
        let motion_fast = simulate(double_bw, 320, 320, 49, 10).time_s;
        assert!(
            motion_fast > motion * 0.95,
            "compute-bound: BW is not the limit"
        );
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn rejects_empty_workload() {
        simulate(AcceleratorSpec::paper(), 0, 10, 5, 1);
    }

    #[test]
    fn missing_unit_count_names_the_culprit() {
        let sweep = sizing_sweep(AcceleratorSpec::paper(), &[84, 336], 320, 320, 5, 1);
        let err = sweep_time_for_units(&sweep, 512).expect_err("512 not in grid");
        assert_eq!(err.units, 512);
        assert_eq!(err.available, vec![84, 336]);
        let msg = err.to_string();
        assert!(
            msg.contains("512") && msg.contains("84"),
            "diagnosable message: {msg}"
        );
    }
}
