//! RET circuits: the sampling engine of the new RSU-G design (Fig. 11).
//!
//! One RET circuit couples a QDLED and waveguide to **four RET networks
//! with concentrations 1×, 2×, 4×, 8×** (one per unique 2^n decay rate)
//! and replicates that row **eight times** so a truncated-but-still-
//! excited network is not reused until its residual fire probability has
//! decayed below 0.4 % (`Truncation^8 ≈ 0.004` at `Truncation = 0.5`).
//! A QDLED counter advances the active row each observation window and a
//! 32-to-1 multiplexer selects the SPAD output of the (row, concentration)
//! pair in use.
//!
//! To sustain one label evaluation per clock cycle while each observation
//! window spans `2^Time_bits / 8` cycles, the RSU-G instantiates several
//! such circuits round-robin ([`RetCircuitBank`]), exactly as the previous
//! design replicated its circuits to avoid the structural hazard.

use crate::network::{RetCalibration, RetNetwork};
use rand::Rng;

/// Concentration multipliers of the four networks on one waveguide row.
pub const ROW_CONCENTRATIONS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Residual-interference target from the previous design: each network has
/// at most a 0.4 % probability of producing an unwanted sample when
/// reused (99.6 % coverage, §IV-B6).
pub const INTERFERENCE_TARGET: f64 = 0.004;

/// Number of replica rows needed so that a network reused after `k` full
/// observation windows has residual fire probability at most `target`:
/// the residual after one window is exactly `truncation`, and after `k`
/// windows `truncation^k`, so `k = ceil(ln target / ln truncation)`.
///
/// Reproduces the paper's counts: 8 rows at truncation 0.5, 1 row at the
/// previous design's 0.004.
///
/// # Panics
///
/// Panics unless `0 < truncation < 1` and `0 < target < 1`.
///
/// # Example
///
/// ```
/// use ret_device::replicas_for_interference;
///
/// assert_eq!(replicas_for_interference(0.5, 0.004), 8);
/// assert_eq!(replicas_for_interference(0.004, 0.004), 1);
/// ```
pub fn replicas_for_interference(truncation: f64, target: f64) -> u32 {
    assert!(
        truncation > 0.0 && truncation < 1.0,
        "truncation must be in (0, 1)"
    );
    assert!(target > 0.0 && target < 1.0, "target must be in (0, 1)");
    (target.ln() / truncation.ln()).ceil().max(1.0) as u32
}

/// One RET circuit: `rows × 4` stateful RET networks, a QDLED counter
/// rotating the active row every observation window, and sampling state.
///
/// Each [`sample`](Self::sample) call models one observation window on
/// this circuit (the circuit starts a new sample every `window_cycles`
/// clock cycles; the bank interleaves several circuits to reach one
/// sample per cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct RetCircuit {
    cal: RetCalibration,
    /// `networks[row][lambda_code]`.
    networks: Vec<[RetNetwork; 4]>,
    row_counter: usize,
    /// Absolute time in bins; advances one window per sample.
    now_bins: f64,
    samples_drawn: u64,
    reuse_with_pending: u64,
}

impl RetCircuit {
    /// Creates a circuit with an explicit number of replica rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn new(cal: RetCalibration, rows: u32) -> Self {
        assert!(rows > 0, "need at least one replica row");
        let networks = (0..rows)
            .map(|_| {
                ROW_CONCENTRATIONS
                    .map(|c| RetNetwork::new(c).expect("fixed concentrations are valid"))
            })
            .collect();
        RetCircuit {
            cal,
            networks,
            row_counter: 0,
            now_bins: 0.0,
            samples_drawn: 0,
            reuse_with_pending: 0,
        }
    }

    /// Creates the paper's design: replica rows chosen so residual
    /// interference meets the 99.6 % target at the calibration's
    /// truncation (8 rows at truncation 0.5).
    pub fn new_paper_design(cal: RetCalibration) -> Self {
        let rows = replicas_for_interference(cal.truncation(), INTERFERENCE_TARGET);
        RetCircuit::new(cal, rows)
    }

    /// The calibration in use.
    pub fn calibration(&self) -> RetCalibration {
        self.cal
    }

    /// Number of replica rows.
    pub fn rows(&self) -> u32 {
        self.networks.len() as u32
    }

    /// Total RET networks in the circuit (`rows × 4`).
    pub fn network_count(&self) -> u32 {
        self.rows() * 4
    }

    /// SPAD-multiplexer width required (`rows × 4`-to-1; 32-to-1 in the
    /// paper's design).
    pub fn mux_inputs(&self) -> u32 {
        self.network_count()
    }

    /// Samples one binned TTF using the network with decay-rate code
    /// `lambda_code` (0..=3 selecting concentration `2^code`), advancing
    /// the QDLED counter and the circuit clock by one window.
    ///
    /// Returns the 1-based time bin, or `None` if no photon was observed
    /// within the window (truncated — "rounded up to infinity").
    ///
    /// # Panics
    ///
    /// Panics if `lambda_code > 3`.
    pub fn sample<R: Rng + ?Sized>(&mut self, lambda_code: u8, rng: &mut R) -> Option<u32> {
        assert!(lambda_code <= 3, "lambda code must be 0..=3");
        let row = self.row_counter % self.networks.len();
        self.row_counter += 1;
        let now = self.now_bins;
        self.now_bins += self.cal.t_max_bins() as f64;
        let net = &mut self.networks[row][lambda_code as usize];
        // Emissions that fired unobserved during the cooldown are gone;
        // only a still-future emission can interfere with this window.
        net.relax(now);
        if net.has_pending() {
            self.reuse_with_pending += 1;
        }
        self.samples_drawn += 1;
        net.excite_and_observe(now, 1.0, self.cal, rng)
    }

    /// Number of samples drawn so far.
    pub fn samples_drawn(&self) -> u64 {
        self.samples_drawn
    }

    /// Observed fraction of samples that reused a network while a
    /// previous excitation was still pending — the empirical interference
    /// exposure, which the replica count keeps at or below the 0.4 %
    /// target in expectation.
    pub fn interference_exposure(&self) -> f64 {
        if self.samples_drawn == 0 {
            0.0
        } else {
            self.reuse_with_pending as f64 / self.samples_drawn as f64
        }
    }
}

/// A bank of identical RET circuits dispatched round-robin, one sample
/// issued per clock cycle: the structural-hazard mitigation of both RSU-G
/// designs ("replicated RET circuits are used to avoid structural hazards
/// caused by this multicycle stage", §II-C).
#[derive(Debug, Clone, PartialEq)]
pub struct RetCircuitBank {
    circuits: Vec<RetCircuit>,
    cycle: u64,
}

impl RetCircuitBank {
    /// Creates a bank of `count` circuits.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(cal: RetCalibration, count: u32, rows_per_circuit: u32) -> Self {
        assert!(count > 0, "need at least one circuit");
        RetCircuitBank {
            circuits: (0..count)
                .map(|_| RetCircuit::new(cal, rows_per_circuit))
                .collect(),
            cycle: 0,
        }
    }

    /// The paper's new design: `2^Time_bits / 8` circuits (one per window
    /// cycle) each with interference-driven replica rows.
    pub fn new_paper_design(cal: RetCalibration) -> Self {
        let window_cycles = (cal.t_max_bins() / 8).max(1);
        let rows = replicas_for_interference(cal.truncation(), INTERFERENCE_TARGET);
        RetCircuitBank::new(cal, window_cycles, rows)
    }

    /// Number of circuits in the bank.
    pub fn circuit_count(&self) -> u32 {
        self.circuits.len() as u32
    }

    /// Total RET networks across the bank.
    pub fn network_count(&self) -> u32 {
        self.circuits.iter().map(RetCircuit::network_count).sum()
    }

    /// Issues the next sample (one per clock cycle) on the circuit whose
    /// turn it is.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_code > 3`.
    pub fn sample<R: Rng + ?Sized>(&mut self, lambda_code: u8, rng: &mut R) -> Option<u32> {
        let idx = (self.cycle % self.circuits.len() as u64) as usize;
        self.cycle += 1;
        self.circuits[idx].sample(lambda_code, rng)
    }

    /// Worst interference exposure across the bank's circuits.
    pub fn interference_exposure(&self) -> f64 {
        self.circuits
            .iter()
            .map(RetCircuit::interference_exposure)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    #[test]
    fn replica_law_matches_paper() {
        assert_eq!(replicas_for_interference(0.5, 0.004), 8);
        assert_eq!(replicas_for_interference(0.004, 0.004), 1);
        // Monotone: higher truncation needs more replicas.
        assert!(replicas_for_interference(0.7, 0.004) > replicas_for_interference(0.3, 0.004));
    }

    #[test]
    #[should_panic(expected = "truncation")]
    fn replica_law_rejects_bad_truncation() {
        replicas_for_interference(1.0, 0.004);
    }

    #[test]
    fn paper_circuit_has_8_rows_32_networks() {
        let circuit = RetCircuit::new_paper_design(RetCalibration::paper_new_design());
        assert_eq!(circuit.rows(), 8);
        assert_eq!(circuit.network_count(), 32);
        assert_eq!(circuit.mux_inputs(), 32, "the 32-to-1 MUX of Fig. 11");
    }

    #[test]
    fn previous_design_circuit_has_1_row() {
        let circuit = RetCircuit::new_paper_design(RetCalibration::paper_previous_design());
        assert_eq!(circuit.rows(), 1);
    }

    #[test]
    fn paper_bank_has_4_circuits() {
        let bank = RetCircuitBank::new_paper_design(RetCalibration::paper_new_design());
        assert_eq!(bank.circuit_count(), 4, "2^5 / 8 window cycles");
        assert_eq!(bank.network_count(), 4 * 32);
    }

    #[test]
    fn higher_lambda_codes_censor_less() {
        let cal = RetCalibration::paper_new_design();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let censor_rate = |code: u8, rng: &mut Xoshiro256pp| {
            let mut circuit = RetCircuit::new_paper_design(cal);
            let n = 40_000;
            let censored = (0..n)
                .filter(|_| circuit.sample(code, rng).is_none())
                .count();
            censored as f64 / n as f64
        };
        let c0 = censor_rate(0, &mut rng);
        let c3 = censor_rate(3, &mut rng);
        // code 0 (λ0) censors ~truncation = 0.5; code 3 (8λ0) ~0.5^8.
        assert!((c0 - 0.5).abs() < 0.02, "λ0 censor rate {c0}");
        assert!((c3 - 0.5f64.powi(8)).abs() < 0.01, "8λ0 censor rate {c3}");
    }

    #[test]
    fn interference_exposure_meets_target_with_paper_rows() {
        let cal = RetCalibration::paper_new_design();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut circuit = RetCircuit::new_paper_design(cal);
        // Hammer the lowest rate (worst case for residual excitation).
        for _ in 0..100_000 {
            circuit.sample(0, &mut rng);
        }
        let exposure = circuit.interference_exposure();
        assert!(
            exposure <= INTERFERENCE_TARGET * 2.0,
            "exposure {exposure} exceeds ~0.4 % target"
        );
    }

    #[test]
    fn single_row_at_high_truncation_interferes_heavily() {
        // The failure mode the replicas exist to prevent: one row at
        // truncation 0.5 reuses a pending network about half the time.
        let cal = RetCalibration::paper_new_design();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut circuit = RetCircuit::new(cal, 1);
        for _ in 0..50_000 {
            circuit.sample(0, &mut rng);
        }
        assert!(
            circuit.interference_exposure() > 0.2,
            "exposure {} should be large without replicas",
            circuit.interference_exposure()
        );
    }

    #[test]
    fn bank_round_robin_covers_all_circuits() {
        let cal = RetCalibration::paper_new_design();
        let mut bank = RetCircuitBank::new(cal, 4, 8);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..400 {
            bank.sample(1, &mut rng);
        }
        for c in &bank.circuits {
            assert_eq!(c.samples_drawn(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "lambda code")]
    fn sample_rejects_bad_code() {
        let mut circuit = RetCircuit::new_paper_design(RetCalibration::paper_new_design());
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        circuit.sample(4, &mut rng);
    }

    #[test]
    fn bins_are_always_in_window() {
        let cal = RetCalibration::new(4, 0.3).unwrap();
        let mut bank = RetCircuitBank::new_paper_design(cal);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for i in 0..20_000u32 {
            if let Some(b) = bank.sample((i % 4) as u8, &mut rng) {
                assert!((1..=cal.t_max_bins()).contains(&b));
            }
        }
    }
}
