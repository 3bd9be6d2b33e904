//! The RSU-G functional simulator: a [`mrf::SiteSampler`] that follows
//! the hardware pipeline semantics step by step.
//!
//! Per variable evaluation (Fig. 2/Fig. 10 of the paper):
//!
//! 1. quantise every label's energy to `Energy_bits`
//!    ([`EnergyQuantizer`]);
//! 2. optionally apply decay-rate scaling `E' = E − E_min`
//!    ([`EnergyFifo::scale_batch`](crate::EnergyFifo::scale_batch));
//! 3. convert each scaled energy to a λ multiplier (LUT or comparison
//!    structure, with λ0 floor / probability cut-off / 2^n truncation per
//!    the configuration);
//! 4. sample a binned time-to-fluorescence for each active label —
//!    either exactly ([`PhotonPath::Ideal`]) or through the stateful RET
//!    circuit bank with replica scheduling and bleed-through
//!    ([`PhotonPath::RetCircuits`]);
//! 5. select the earliest bin (first-to-fire), breaking bin ties by the
//!    configured policy.
//!
//! The simulator computes these steps the way the hardware does, with
//! integer work. Steps 1–3 are a quantising pass, a minimum, and one
//! lookup pass in a per-code multiplier table that is filled from the
//! converter at each temperature change and also lists the active
//! labels. Step 4 on the ideal path counts per-bin integer thresholds of
//! the RNG word, derived from [`ret_device::sample_binned_ttf`] and
//! rebuilt at each derating change (see `race.rs`). Both tables are pure
//! functions of the configuration, temperature and derating, and every
//! label, counter and RNG word is the same as the step-by-step float
//! pipeline's.

use crate::config::{CensoredPolicy, Conversion, PhotonPath, RsuConfig, TieBreak};
use crate::convert::{ComparisonConverter, EnergyToLambda, LambdaConverter, LutConverter};
use crate::quantize::EnergyQuantizer;
use crate::race::RaceTable;
use mrf::{Label, SiteSampler};
use rand::Rng;
use ret_device::{RetCalibration, RetCircuitBank};

/// Counters accumulated by an [`RsuG`] across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RsuStats {
    /// Variables (pixels) evaluated.
    pub variable_evaluations: u64,
    /// Candidate labels processed.
    pub label_evaluations: u64,
    /// Labels whose probability was cut off (multiplier 0).
    pub cutoff_labels: u64,
    /// Samples censored by the detection window (no photon observed).
    pub censored_samples: u64,
    /// Evaluations that needed a tie-break between equal earliest bins.
    pub ties_broken: u64,
    /// Evaluations where no active label fired, resolved by the
    /// max-λ fallback.
    pub all_censored_fallbacks: u64,
    /// Evaluations where every label was cut off, resolved by keeping the
    /// current label.
    pub all_cutoff_keeps: u64,
    /// Pipeline stall cycles charged to temperature updates (LUT rewrites
    /// in the previous design; zero in the new design).
    pub stall_cycles: u64,
    /// Temperature updates applied.
    pub temperature_updates: u64,
}

/// Outcome of one first-to-fire race over λ multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceResult {
    /// Winning label index, or `None` when nothing fired (only possible
    /// when censoring is not clamped).
    pub winner: Option<usize>,
    /// Winning time bin (1-based), when something fired.
    pub winning_bin: Option<u32>,
    /// Number of labels tied at the winning bin.
    pub tie_size: usize,
}

/// An RSU-G functional unit.
///
/// Construct one of the two paper design points with
/// [`previous_design`](Self::previous_design) /
/// [`new_design`](Self::new_design), or any custom point with
/// [`with_config`](Self::with_config). The unit implements
/// [`mrf::SiteSampler`] so it drops into the same solver as the software
/// kernel.
///
/// # Example
///
/// ```
/// use rsu::{RsuConfig, RsuG};
/// use rand::SeedableRng;
/// use sampling::Xoshiro256pp;
/// use mrf::SiteSampler;
///
/// let mut unit = RsuG::new_design();
/// let mut rng = Xoshiro256pp::seed_from_u64(9);
/// unit.begin_iteration(1.0);
/// let label = unit.sample_label(&[0.0, 40.0, 40.0], 1.0, 0, &mut rng);
/// assert_eq!(label, 0, "the low-energy label dominates at T = 1");
/// ```
#[derive(Debug, Clone)]
pub struct RsuG {
    config: RsuConfig,
    quantizer: EnergyQuantizer,
    converter: LambdaConverter,
    // `converter.multiplier_of(code)` for every energy code, refilled at
    // each temperature change.
    multiplier_of_code: Vec<u16>,
    photons: Photons,
    stats: RsuStats,
    temperature_initialised: bool,
    // Multiplicative emission-rate derating in (0, 1]: 1.0 = healthy
    // chromophores. Photobleaching faults lower it, shifting the λ of
    // every label this unit samples (see `fault::FaultKind::Bleached`).
    rate_derating: f64,
    // Scratch buffers reused across evaluations. The per-variable hot
    // loop (front_end → race) must never heap-allocate: the λ
    // multipliers (codes until the lookup pass overwrites them), the
    // indices of the active (non-zero) ones, their drawn bins and the
    // tie candidates of the current race live here and only grow to the
    // unit's label capacity once.
    multipliers: Vec<u16>,
    active: Vec<u32>,
    bins: Vec<u32>,
    tied: Vec<usize>,
}

/// Where a unit's fluorescence times come from.
#[derive(Debug, Clone)]
enum Photons {
    /// The exact exponential draw, tabulated at the unit's derating
    /// ([`PhotonPath::Ideal`]).
    Ideal(RaceTable),
    /// The stateful RET-circuit bank ([`PhotonPath::RetCircuits`]).
    Circuits(RetCircuitBank),
}

impl RsuG {
    /// Builds a unit for an arbitrary validated configuration.
    pub fn with_config(config: RsuConfig) -> Self {
        let quantizer = EnergyQuantizer::new(config.energy_bits(), config.energy_lsb());
        let scale = config.lambda_scale();
        let converter = match config.conversion() {
            Conversion::Lut => LambdaConverter::Lut(LutConverter::new(
                config.energy_bits(),
                scale,
                config.pow2_lambda(),
                config.probability_cutoff(),
                1.0,
            )),
            Conversion::Comparison => LambdaConverter::Comparison(ComparisonConverter::new(
                config.energy_bits(),
                scale,
                config.probability_cutoff(),
                1.0,
            )),
        };
        let photons = match config.photon_path() {
            PhotonPath::Ideal => Photons::Ideal(RaceTable::new(&config, 1.0)),
            PhotonPath::RetCircuits => {
                let cal = RetCalibration::new(config.time_bits(), config.truncation())
                    .expect("config validation guarantees a legal calibration");
                Photons::Circuits(RetCircuitBank::new_paper_design(cal))
            }
        };
        RsuG {
            config,
            quantizer,
            converter,
            multiplier_of_code: vec![0; 1 << config.energy_bits()],
            photons,
            stats: RsuStats::default(),
            temperature_initialised: false,
            rate_derating: 1.0,
            multipliers: Vec::new(),
            active: Vec::new(),
            bins: Vec::new(),
            tied: Vec::new(),
        }
    }

    /// The previous RSU-G design (Wang et al. 2016 as characterised in
    /// the paper).
    pub fn previous_design() -> Self {
        RsuG::with_config(RsuConfig::previous_design())
    }

    /// The paper's proposed high-quality RSU-G design.
    pub fn new_design() -> Self {
        RsuG::with_config(RsuConfig::new_design())
    }

    /// The active configuration.
    pub fn config(&self) -> &RsuConfig {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &RsuStats {
        &self.stats
    }

    /// Resets the lifetime counters.
    pub fn reset_stats(&mut self) {
        self.stats = RsuStats::default();
    }

    /// Sets the emission-rate derating applied to every λ this unit
    /// samples on the ideal photon path: `λ_eff = λ · derating`.
    ///
    /// `1.0` models healthy chromophores (the default, and bit-identical
    /// to a unit that never heard of derating); photobleaching faults
    /// install the ladder's surviving-rate fraction here
    /// ([`ret_device::BleachingModel::rate_derating`]). The RET-circuit
    /// photon path models bleaching inside the circuit bank itself and
    /// ignores this knob.
    ///
    /// A new value rebuilds the unit's race table (tens of microseconds
    /// for the paper's designs); setting the current value is free.
    ///
    /// # Panics
    ///
    /// Panics unless `derating` is in `(0, 1]`.
    pub fn set_rate_derating(&mut self, derating: f64) {
        assert!(
            derating > 0.0 && derating <= 1.0,
            "derating must be in (0, 1]"
        );
        if derating != self.rate_derating {
            self.rate_derating = derating;
            if let Photons::Ideal(table) = &mut self.photons {
                *table = RaceTable::new(&self.config, derating);
            }
        }
    }

    /// The active emission-rate derating (1.0 = healthy).
    pub fn rate_derating(&self) -> f64 {
        self.rate_derating
    }

    /// Runs the front-end (quantise → scale → convert) for one variable
    /// under the given temperature and returns the λ multiplier of every
    /// label. Exposed for the precision experiments (Fig. 5/Fig. 7).
    pub fn lambda_multipliers(&mut self, energies: &[f64], temperature: f64) -> &[u16] {
        self.apply_temperature(temperature);
        self.front_end(energies);
        &self.multipliers
    }

    fn apply_temperature(&mut self, temperature: f64) {
        let t_code = (temperature / self.config.energy_lsb()).max(f64::MIN_POSITIVE);
        if !self.temperature_initialised
            || (self.converter.temperature() - t_code).abs() > 1e-12 * t_code
        {
            self.converter.set_temperature(t_code);
            for (code, m) in self.multiplier_of_code.iter_mut().enumerate() {
                *m = self.converter.multiplier_of(code as u16);
            }
            self.stats.temperature_updates += 1;
            self.stats.stall_cycles += self.converter.update_stall_cycles();
            self.temperature_initialised = true;
        }
    }

    fn front_end(&mut self, energies: &[f64]) {
        assert!(!energies.is_empty(), "need at least one label");
        assert!(
            energies.len() <= self.config.max_labels(),
            "label count {} exceeds the unit's maximum {}",
            energies.len(),
            self.config.max_labels()
        );
        let quantizer = self.quantizer;
        self.multipliers.clear();
        self.multipliers
            .extend(energies.iter().map(|&e| quantizer.quantize(e)));
        // Decay-rate scaling, E' = E − E_min, as the FIFO's min register
        // applies it (`EnergyFifo::scale_batch`).
        let offset = if self.config.decay_rate_scaling() {
            *self.multipliers.iter().min().expect("at least one label")
        } else {
            0
        };
        // Branch-free: every index is written, and kept by advancing
        // past it only when its label is active.
        self.active.resize(energies.len(), 0);
        let mut n_active = 0;
        for (i, slot) in self.multipliers.iter_mut().enumerate() {
            let m = self.multiplier_of_code[usize::from(*slot - offset)];
            *slot = m;
            self.active[n_active] = i as u32;
            n_active += usize::from(m != 0);
        }
        self.active.truncate(n_active);
        self.stats.cutoff_labels += (energies.len() - n_active) as u64;
    }

    /// Runs the back-end (sampling + selection) over explicit λ
    /// multipliers.
    ///
    /// With `clamp_to_t_max` set, censored samples are rounded to the
    /// last bin instead of dropped — the §III-C3 convention used by the
    /// Fig. 7 ratio-error analysis. The functional unit itself uses the
    /// censoring convention (`false`).
    pub fn race<R: Rng + ?Sized>(
        &mut self,
        multipliers: &[u16],
        clamp_to_t_max: bool,
        rng: &mut R,
    ) -> RaceResult {
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        active.extend((0..multipliers.len() as u32).filter(|&i| multipliers[i as usize] != 0));
        let result = self.race_active(multipliers, &active, clamp_to_t_max, rng);
        self.active = active;
        result
    }

    /// The race over the labels `active` lists, in index order: one
    /// draw per active label, then the earliest bin and its ties.
    fn race_active<R: Rng + ?Sized>(
        &mut self,
        multipliers: &[u16],
        active: &[u32],
        clamp_to_t_max: bool,
        rng: &mut R,
    ) -> RaceResult {
        let t_max = self.config.t_max_bins();
        let censored = t_max + 1;
        let ceiling = if clamp_to_t_max { t_max } else { censored };
        let mut best = censored;
        let mut censored_samples = 0;
        self.bins.clear();
        for &i in active {
            let m = multipliers[i as usize];
            let bin = match &mut self.photons {
                Photons::Ideal(table) => table.bin(m, rng),
                Photons::Circuits(bank) => {
                    debug_assert!(m.is_power_of_two() && m <= 8);
                    bank.sample(m.trailing_zeros() as u8, rng)
                        .unwrap_or(censored)
                }
            };
            censored_samples += u64::from(bin == censored);
            let bin = bin.min(ceiling);
            best = best.min(bin);
            self.bins.push(bin);
        }
        self.stats.label_evaluations += active.len() as u64;
        self.stats.censored_samples += censored_samples;
        self.tied.clear();
        if best <= t_max {
            for (&i, &bin) in active.iter().zip(&self.bins) {
                if bin == best {
                    self.tied.push(i as usize);
                }
            }
        }
        let tie_size = self.tied.len();
        let winner = match tie_size {
            0 => None,
            1 => Some(self.tied[0]),
            _ => {
                self.stats.ties_broken += 1;
                match self.config.tie_break() {
                    TieBreak::Random => Some(self.tied[rng.gen_range(0..tie_size)]),
                    TieBreak::LowestIndex => Some(self.tied[0]),
                }
            }
        };
        RaceResult {
            winner,
            winning_bin: (best <= t_max).then_some(best),
            tie_size,
        }
    }

    /// Fallback label when no active label fired within the window: the
    /// label with the largest multiplier (lowest scaled energy), keeping
    /// the current label when it is among the maximisers. Returns `None`
    /// when every label was cut off.
    fn fallback_label(&self, current: Label) -> Option<Label> {
        let max = *self.multipliers.iter().max().expect("non-empty");
        if max == 0 {
            return None;
        }
        let current_idx = current as usize;
        if self.multipliers.get(current_idx) == Some(&max) {
            return Some(current);
        }
        self.multipliers
            .iter()
            .position(|&m| m == max)
            .map(|i| i as Label)
    }
}

impl SiteSampler for RsuG {
    fn begin_iteration(&mut self, temperature: f64) {
        self.apply_temperature(temperature);
        if let LambdaConverter::Comparison(c) = &mut self.converter {
            // Double-buffered boundary registers commit at iteration
            // boundaries; set_temperature already committed, so this is a
            // no-op kept for pipeline fidelity.
            c.commit();
        }
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        self.apply_temperature(temperature);
        self.front_end(energies);
        self.stats.variable_evaluations += 1;
        let policy = self.config.censored_policy();
        let result = self.race_current(policy == CensoredPolicy::ClampToTMax, rng);
        match result.winner {
            Some(w) => w as Label,
            None => match policy {
                // Under ClampToTMax a winner exists whenever any label is
                // active, so reaching here means everything was cut off.
                CensoredPolicy::ClampToTMax | CensoredPolicy::KeepCurrent => {
                    if self.active.is_empty() {
                        self.stats.all_cutoff_keeps += 1;
                    } else {
                        self.stats.all_censored_fallbacks += 1;
                    }
                    current
                }
                CensoredPolicy::FallbackMaxLambda => match self.fallback_label(current) {
                    Some(l) => {
                        self.stats.all_censored_fallbacks += 1;
                        l
                    }
                    None => {
                        self.stats.all_cutoff_keeps += 1;
                        current
                    }
                },
            },
        }
    }
}

impl RsuG {
    /// Back-end over the front-end's buffers (taken out for the race to
    /// avoid borrowing conflicts).
    fn race_current<R: Rng + ?Sized>(&mut self, clamp: bool, rng: &mut R) -> RaceResult {
        let multipliers = std::mem::take(&mut self.multipliers);
        let active = std::mem::take(&mut self.active);
        let result = self.race_active(&multipliers, &active, clamp, rng);
        self.multipliers = multipliers;
        self.active = active;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sampling::{stats as sstats, Xoshiro256pp};

    fn seeded(n: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(n)
    }

    #[test]
    fn new_design_realises_lambda_ratio_probabilities() {
        // Two labels with multipliers 8 and 4 should win in ratio ~2:1 —
        // the paper's core correctness property (§III-C2) at a
        // well-behaved operating point.
        let mut unit = RsuG::new_design();
        let mut rng = seeded(1);
        unit.begin_iteration(1.0);
        let mut wins = [0u64; 2];
        let n = 120_000;
        for _ in 0..n {
            let r = unit.race(&[8, 4], false, &mut rng);
            if let Some(w) = r.winner {
                wins[w] += 1;
            }
        }
        let ratio = wins[0] as f64 / wins[1] as f64;
        // Discretisation perturbs the ratio somewhat; it must sit near 2.
        assert!((1.7..=2.3).contains(&ratio), "win ratio {ratio}");
    }

    #[test]
    fn scaling_pins_best_label_to_max_multiplier_at_any_temperature() {
        let mut unit = RsuG::new_design();
        for t in [0.05, 1.0, 10.0, 200.0] {
            let ms = unit.lambda_multipliers(&[90.0, 100.0, 250.0], t).to_vec();
            assert_eq!(ms[0], 8, "T = {t}: best label must sit at λmax");
        }
    }

    #[test]
    fn previous_design_floors_small_probabilities_to_lambda0() {
        let mut unit = RsuG::previous_design();
        // Low temperature, non-zero minimum energy: every exp(−E/T)
        // rounds below one code, so the previous design maps ALL labels
        // to λ0 — the uniform-noise failure of §III-C2.
        let ms = unit.lambda_multipliers(&[90.0, 100.0, 250.0], 1.0).to_vec();
        assert_eq!(ms, vec![1, 1, 1]);
    }

    #[test]
    fn new_design_cuts_off_negligible_labels() {
        let mut unit = RsuG::new_design();
        let ms = unit.lambda_multipliers(&[0.0, 3.0, 200.0], 1.0).to_vec();
        assert_eq!(ms[0], 8);
        assert_eq!(ms[2], 0, "far label is cut off");
        assert!(unit.stats().cutoff_labels > 0);
    }

    #[test]
    fn cutoff_without_scaling_freezes_the_field() {
        // The paper: "probability cut-off must be incorporated with decay
        // rate scaling, otherwise all probabilities are cut off".
        let cfg = RsuConfig::builder()
            .decay_rate_scaling(false)
            .probability_cutoff(true)
            .conversion(Conversion::Lut)
            .build()
            .unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(3);
        // Min energy 60 at T = 4: exp(−60/4)·8 << 1 → everything cut.
        let label = unit.sample_label(&[60.0, 70.0, 80.0], 4.0, 2, &mut rng);
        assert_eq!(label, 2, "keeps the current label");
        assert_eq!(unit.stats().all_cutoff_keeps, 1);
    }

    #[test]
    fn all_censored_falls_back_to_max_lambda_label() {
        // Force heavy censoring: high truncation and the lowest rate.
        let cfg = RsuConfig::builder().truncation(0.95).build().unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(4);
        let mut fallbacks = 0;
        for _ in 0..2000 {
            // Single label with multiplier λ0 after scaling: censors with
            // probability 0.95.
            let l = unit.sample_label(&[5.0, 5.0], 10_000.0, 1, &mut rng);
            assert!(l < 2);
            fallbacks = unit.stats().all_censored_fallbacks;
        }
        assert!(fallbacks > 0, "expected some all-censored fallbacks");
    }

    #[test]
    fn fallback_prefers_current_label_among_maximisers() {
        let unit_cfg = RsuConfig::new_design();
        let mut unit = RsuG::with_config(unit_cfg);
        // Equal energies → equal multipliers; fallback must keep current.
        unit.lambda_multipliers(&[5.0, 5.0, 5.0], 1.0);
        assert_eq!(unit.fallback_label(2), Some(2));
        assert_eq!(unit.fallback_label(0), Some(0));
    }

    #[test]
    fn race_with_clamp_always_produces_a_winner() {
        let cfg = RsuConfig::builder().truncation(0.9).build().unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(5);
        unit.begin_iteration(1.0);
        for _ in 0..5000 {
            let r = unit.race(&[1, 1], true, &mut rng);
            assert!(r.winner.is_some());
            assert!(r.winning_bin.is_some());
        }
    }

    #[test]
    fn race_without_clamp_can_censor_everything() {
        let cfg = RsuConfig::builder().truncation(0.9).build().unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(6);
        unit.begin_iteration(1.0);
        let mut none_seen = false;
        for _ in 0..5000 {
            if unit.race(&[1], false, &mut rng).winner.is_none() {
                none_seen = true;
                break;
            }
        }
        assert!(none_seen, "λ0 at truncation 0.9 must censor sometimes");
    }

    #[test]
    fn lowest_index_tie_break_is_deterministic() {
        let cfg = RsuConfig::builder()
            .tie_break(TieBreak::LowestIndex)
            .time_bits(1)
            .build()
            .unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(7);
        unit.begin_iteration(1.0);
        // With 2 bins and max rates, ties are constant; index 0 must win
        // every tie. Checked inline — the race's own tie bookkeeping
        // lives in the unit's reusable `tied` scratch, so no per-call
        // collection is needed here either.
        let mut ties_seen = 0u32;
        for _ in 0..2000 {
            let r = unit.race(&[8, 8], false, &mut rng);
            if r.tie_size > 1 {
                ties_seen += 1;
                assert_eq!(r.winner, Some(0), "lowest-index tie-break must pick 0");
            }
        }
        assert!(ties_seen > 0);
    }

    #[test]
    fn random_tie_break_is_fair() {
        let mut unit = RsuG::new_design();
        let mut rng = seeded(8);
        unit.begin_iteration(1.0);
        let mut wins = [0u64; 2];
        let mut ties = 0u64;
        for _ in 0..60_000 {
            let r = unit.race(&[8, 8], false, &mut rng);
            if let Some(w) = r.winner {
                wins[w] += 1;
            }
            if r.tie_size > 1 {
                ties += 1;
            }
        }
        assert!(ties > 1000, "equal max rates in 32 bins must tie often");
        let p = sstats::chi_square_pvalue_uniformish(&wins, &[0.5, 0.5]);
        assert!(p > 1e-4, "tie-breaking biased: {wins:?}, p = {p}");
    }

    #[test]
    fn temperature_updates_stall_previous_but_not_new_design() {
        let mut prev = RsuG::previous_design();
        let mut new = RsuG::new_design();
        for (i, t) in [4.0, 2.0, 1.0, 0.5].iter().enumerate() {
            prev.begin_iteration(*t);
            new.begin_iteration(*t);
            assert_eq!(prev.stats().temperature_updates, (i + 1) as u64);
        }
        assert_eq!(
            prev.stats().stall_cycles,
            4 * 128,
            "128 LUT-rewrite stalls per update"
        );
        assert_eq!(
            new.stats().stall_cycles,
            0,
            "double buffering hides updates"
        );
    }

    #[test]
    fn repeated_same_temperature_does_not_reupdate() {
        let mut unit = RsuG::previous_design();
        unit.begin_iteration(2.0);
        unit.begin_iteration(2.0);
        unit.begin_iteration(2.0);
        assert_eq!(unit.stats().temperature_updates, 1);
    }

    #[test]
    fn device_photon_path_matches_ideal_statistics() {
        // The RET-circuit path (with replica scheduling and bleed-through
        // kept below 0.4 %) must realise the same win ratios as the ideal
        // sampler within tolerance.
        let ideal_cfg = RsuConfig::new_design();
        let device_cfg = RsuConfig::builder()
            .photon_path(PhotonPath::RetCircuits)
            .build()
            .unwrap();
        let mut rng = seeded(9);
        let ratio_of = |cfg: RsuConfig, rng: &mut Xoshiro256pp| {
            let mut unit = RsuG::with_config(cfg);
            unit.begin_iteration(1.0);
            let mut wins = [0u64; 2];
            for _ in 0..80_000 {
                if let Some(w) = unit.race(&[8, 2], false, rng).winner {
                    wins[w] += 1;
                }
            }
            wins[0] as f64 / wins[1] as f64
        };
        let r_ideal = ratio_of(ideal_cfg, &mut rng);
        let r_device = ratio_of(device_cfg, &mut rng);
        assert!(
            (r_ideal - r_device).abs() / r_ideal < 0.1,
            "ideal {r_ideal} vs device {r_device}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the unit's maximum")]
    fn rejects_more_than_max_labels() {
        let mut unit = RsuG::new_design();
        let energies = vec![1.0; 65];
        let mut rng = seeded(0);
        unit.sample_label(&energies, 1.0, 0, &mut rng);
    }

    #[test]
    fn stats_reset() {
        let mut unit = RsuG::new_design();
        let mut rng = seeded(1);
        unit.sample_label(&[1.0, 2.0], 1.0, 0, &mut rng);
        assert!(unit.stats().variable_evaluations > 0);
        unit.reset_stats();
        assert_eq!(unit.stats(), &RsuStats::default());
    }

    #[test]
    fn clamp_policy_always_selects_an_active_label() {
        let cfg = RsuConfig::builder()
            .truncation(0.9)
            .censored_policy(crate::config::CensoredPolicy::ClampToTMax)
            .build()
            .unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(31);
        for _ in 0..3000 {
            let l = unit.sample_label(&[3.0, 5.0, 9.0], 6.0, 2, &mut rng);
            assert!(l < 3);
        }
        // With everything clamped, no fallback events occur while at
        // least one label is active.
        assert_eq!(unit.stats().all_censored_fallbacks, 0);
    }

    #[test]
    fn keep_current_policy_retains_state_on_total_censoring() {
        let cfg = RsuConfig::builder()
            .truncation(0.97)
            .censored_policy(crate::config::CensoredPolicy::KeepCurrent)
            .build()
            .unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(32);
        let mut kept_when_censored = true;
        let mut saw_censored = false;
        for _ in 0..4000 {
            let before = unit.stats().all_censored_fallbacks;
            let l = unit.sample_label(&[4.0, 4.0], 50_000.0, 1, &mut rng);
            if unit.stats().all_censored_fallbacks > before {
                saw_censored = true;
                if l != 1 {
                    kept_when_censored = false;
                }
            }
        }
        assert!(
            saw_censored,
            "truncation 0.97 must censor whole evaluations"
        );
        assert!(
            kept_when_censored,
            "KeepCurrent must return the current label"
        );
    }

    #[test]
    fn clamp_policy_keeps_current_when_everything_is_cut_off() {
        let cfg = RsuConfig::builder()
            .decay_rate_scaling(false)
            .probability_cutoff(true)
            .pow2_lambda(false)
            .conversion(Conversion::Lut)
            .censored_policy(crate::config::CensoredPolicy::ClampToTMax)
            .build()
            .unwrap();
        let mut unit = RsuG::with_config(cfg);
        let mut rng = seeded(33);
        // Huge energies at low temperature: all labels cut off.
        let l = unit.sample_label(&[200.0, 210.0, 220.0], 2.0, 2, &mut rng);
        assert_eq!(l, 2);
        assert_eq!(unit.stats().all_cutoff_keeps, 1);
    }

    #[test]
    fn entropy_rate_is_substantial_for_uniform_races() {
        // The paper quotes 2.89 Gb/s at 1 GHz ≈ 2.89 bits per variable
        // evaluation. A 8-way uniform race carries log2(8) = 3 bits; the
        // discretised unit should realise most of it.
        let mut unit = RsuG::new_design();
        let mut rng = seeded(10);
        unit.begin_iteration(1.0);
        let mut counts = [0u64; 8];
        for _ in 0..80_000 {
            if let Some(w) = unit.race(&[8; 8], false, &mut rng).winner {
                counts[w] += 1;
            }
        }
        let h = sstats::discrete_entropy(&counts);
        assert!(h > 2.9, "entropy {h} bits per evaluation");
    }

    #[test]
    fn unity_rate_derating_is_bit_identical_to_the_default() {
        let run = |touch_knob: bool| {
            let mut unit = RsuG::new_design();
            if touch_knob {
                unit.set_rate_derating(1.0);
            }
            unit.begin_iteration(1.0);
            let mut rng = seeded(21);
            let results: Vec<_> = (0..2000)
                .map(|_| unit.race(&[4, 2, 1], false, &mut rng).winner)
                .collect();
            (results, *unit.stats())
        };
        assert_eq!(
            run(false),
            run(true),
            "1.0 must be exactly the healthy path"
        );
    }

    #[test]
    fn rate_derating_slows_the_race_into_censoring() {
        let censored = |derating: f64| {
            let mut unit = RsuG::new_design();
            unit.set_rate_derating(derating);
            unit.begin_iteration(1.0);
            let mut rng = seeded(22);
            for _ in 0..5000 {
                unit.race(&[4, 2, 1], false, &mut rng);
            }
            unit.stats().censored_samples
        };
        let healthy = censored(1.0);
        let derated = censored(0.05);
        // Healthy censoring is already ~27% of samples at truncation 0.5
        // (probs 0.5^m for m = 4, 2, 1); at 20x slower it nears 100%,
        // roughly a 3.4x jump in expectation.
        assert!(
            derated > healthy.max(1) * 2,
            "a 20x-slower race must censor far more often ({derated} vs {healthy})"
        );
    }

    #[test]
    #[should_panic(expected = "derating")]
    fn zero_rate_derating_rejected() {
        RsuG::new_design().set_rate_derating(0.0);
    }
}
