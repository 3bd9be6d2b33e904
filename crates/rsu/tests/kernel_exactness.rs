//! Word-level exactness of the RSU-G kernel against the reference
//! functions it replaces.
//!
//! - The race: for each design, derating, censoring convention and
//!   multiplier (tabulated or not), every RNG word within ±256 of each
//!   bin threshold, plus the first and last word, must land in the bin
//!   `ret_device::sample_binned_ttf` gives that word. The thresholds
//!   are found here by plain bisection against the reference, apart
//!   from the kernel's own search.
//! - The quantiser: `EnergyQuantizer::quantize` must equal the
//!   `f64::round` formula it replaced on every special value and around
//!   every rounding boundary.
//! - The tables depend only on the configuration, temperature and
//!   derating, never on what the unit ran before.

use mrf::SiteSampler;
use rand::{Error, RngCore, SeedableRng};
use ret_device::sample_binned_ttf;
use rsu::{CensoredPolicy, EnergyQuantizer, RsuConfig, RsuG};
use sampling::Xoshiro256pp;
use std::collections::BTreeSet;

/// An RNG that returns one fixed word forever.
struct FixedWord(u64);

impl RngCore for FixedWord {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.0
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(self.0 as u8);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// `k` values run over `0 .. 2^53`; the word carries `k` in its top 53
/// bits and arbitrary low bits, which no draw may read.
const WORDS: u64 = 1 << 53;

fn word(k: u64) -> u64 {
    k << 11 | (k.wrapping_mul(0x9e37_79b9) & 0x7ff)
}

fn reference(rate: f64, t_max: u32, k: u64) -> Option<u32> {
    sample_binned_ttf(rate, t_max, &mut FixedWord(word(k)))
}

/// The smallest `k` whose reference bin exceeds `bin` (`WORDS` when
/// none does), by bisection.
fn threshold(rate: f64, t_max: u32, bin: u32) -> u64 {
    let past = |k: u64| reference(rate, t_max, k).is_none_or(|b| b > bin);
    let (mut lo, mut hi) = (0, WORDS);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if past(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// The `k` values to check for one rate: ±256 around every threshold of
/// the first 66 bins (the table's 64, and past them), around bins deep
/// into a long window, and the two ends.
fn probe_words(rate: f64, t_max: u32) -> BTreeSet<u64> {
    let mut bins: Vec<u32> = (1..=t_max.min(66)).collect();
    bins.extend(
        [t_max / 2, t_max - 1, t_max]
            .into_iter()
            .filter(|&b| b > 66),
    );
    let mut ks: BTreeSet<u64> = [0, WORDS - 1].into();
    for bin in bins {
        let t = threshold(rate, t_max, bin);
        ks.extend(t.saturating_sub(256)..(t + 257).min(WORDS));
    }
    ks
}

fn multipliers(config: &RsuConfig) -> Vec<u16> {
    let scale = config.lambda_scale() as u16;
    let mut held: Vec<u16> = (1..=scale)
        .filter(|m| !config.pow2_lambda() || m.is_power_of_two())
        .collect();
    // Outside the table: above the scale, and between powers of two.
    held.extend([scale + 1, 2 * scale, 3]);
    held.sort_unstable();
    held.dedup();
    held
}

fn check_race(name: &str, config: RsuConfig) {
    let t_max = config.t_max_bins();
    for derating in [1.0, 0.73, 0.05] {
        let mut unit = RsuG::with_config(config);
        unit.set_rate_derating(derating);
        let mut censored = 0u64;
        let mut draws = 0u64;
        for m in multipliers(&config) {
            let rate = m as f64 * config.lambda0_per_bin() * derating;
            for k in probe_words(rate, t_max) {
                let expected = reference(rate, t_max, k);
                for clamp in [false, true] {
                    let got = unit.race(&[m], clamp, &mut FixedWord(word(k)));
                    let want = if clamp {
                        Some(expected.unwrap_or(t_max))
                    } else {
                        expected
                    };
                    assert_eq!(
                        got.winning_bin, want,
                        "{name}, derating {derating}, m = {m}, clamp {clamp}, k = {k}"
                    );
                    assert_eq!(got.winner, want.map(|_| 0));
                    draws += 1;
                    censored += u64::from(expected.is_none());
                }
            }
        }
        assert_eq!(unit.stats().label_evaluations, draws, "{name}");
        assert_eq!(unit.stats().censored_samples, censored, "{name}");
    }
}

#[test]
fn new_design_race_matches_the_reference_draw_word_for_word() {
    check_race("new design", RsuConfig::new_design());
}

#[test]
fn previous_design_race_matches_the_reference_draw_word_for_word() {
    check_race("previous design", RsuConfig::previous_design());
}

#[test]
fn twelve_time_bit_race_matches_the_reference_draw_word_for_word() {
    // 4096 bins: the table holds the first 64, and later words fall
    // through to the formula.
    let config = RsuConfig::builder()
        .time_bits(12)
        .censored_policy(CensoredPolicy::ClampToTMax)
        .build()
        .unwrap();
    check_race("12 time bits", config);
}

/// `EnergyQuantizer::quantize` as the `f64::round` formula computed it.
fn quantize_oracle(bits: u32, lsb: f64, energy: f64) -> u16 {
    let max_code = ((1u32 << bits) - 1) as u16;
    if !energy.is_finite() {
        return if energy == f64::NEG_INFINITY {
            0
        } else {
            max_code
        };
    }
    let code = (energy / lsb).round();
    code.clamp(0.0, max_code as f64) as u16
}

#[test]
fn quantizer_matches_the_rounding_formula_bit_for_bit() {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        -f64::MIN_POSITIVE,
        -0.3,
        -0.5,
        -0.7,
        -1.0,
        -255.0,
        -1e300,
        f64::MAX,
        -f64::MAX,
        1e300,
        0.49999999999999994,
    ];
    for bits in [4, 8, 16] {
        for lsb in [1.0, 0.5, 0.3] {
            let q = EnergyQuantizer::new(bits, lsb);
            let mut energies = specials.to_vec();
            for k in 0..=q.max_code() as u32 + 1 {
                for half in [-0.5, 0.5] {
                    let e = (k as f64 + half) * lsb;
                    energies.extend([e.next_down(), e, e.next_up()]);
                }
            }
            for e in energies {
                assert_eq!(
                    q.quantize(e),
                    quantize_oracle(bits, lsb, e),
                    "bits {bits}, lsb {lsb}, energy {e:e} ({:#x})",
                    e.to_bits()
                );
            }
        }
    }
}

#[test]
fn tables_depend_only_on_config_temperature_and_derating() {
    let energies: Vec<f64> = (0..56).map(|i| ((i * 37) % 91) as f64 * 1.7).collect();
    for config in [RsuConfig::new_design(), RsuConfig::previous_design()] {
        // A unit with a history: other temperatures, a derating that was
        // later restored, hundreds of draws.
        let mut used = RsuG::with_config(config);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for (temperature, derating) in [(40.0, 0.3), (0.4, 0.05), (3.0, 1.0)] {
            used.set_rate_derating(derating);
            used.begin_iteration(temperature);
            for current in 0..200 {
                used.sample_label(&energies, temperature, current % 56, &mut rng);
            }
        }
        for (temperature, derating) in [(2.0, 1.0), (2.0, 0.73)] {
            let mut fresh = RsuG::with_config(config);
            fresh.set_rate_derating(derating);
            used.set_rate_derating(derating);
            fresh.begin_iteration(temperature);
            used.begin_iteration(temperature);
            let mut a = Xoshiro256pp::seed_from_u64(9);
            let mut b = a.clone();
            for current in 0..500 {
                assert_eq!(
                    fresh.sample_label(&energies, temperature, current % 56, &mut a),
                    used.sample_label(&energies, temperature, current % 56, &mut b),
                    "T = {temperature}, derating {derating}, draw {current}"
                );
            }
        }
    }
}
