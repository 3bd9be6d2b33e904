//! The ideal photon path's binned TTF draw as integer thresholds.
//!
//! [`sample_binned_ttf`]`(rate, t_max, rng)` reads one word `w` and bins
//! `t = −ln(1 − u) / rate` with `u = k · 2⁻⁵³`, `k = w >> 11`, so its bin
//! is a non-decreasing step function of `k`. For every multiplier `m` a
//! unit can emit, [`RaceTable`] stores the smallest `k` past each bin
//! boundary of the rate `m · λ0 · derating`, found by searching against
//! `sample_binned_ttf` itself. A draw then reads the same single word and
//! counts the thresholds at or below its `k`: the same bin, no `ln`. A
//! directory on the top 8 bits of `k` holds the count at the start of
//! `k`'s slice, so a draw usually costs two loads and one compare.
//!
//! A row covers at most [`MAX_ROW_BINS`] bins, every bin of the paper's
//! 5-time-bit designs. A word past a shorter row's last threshold, and a
//! multiplier the table does not hold, fall through to the formula, so
//! the table is an exact stand-in for `sample_binned_ttf` at any rate.

use crate::config::RsuConfig;
use rand::{Error, Rng, RngCore};
use ret_device::sample_binned_ttf;

/// Bins one row covers: every bin of a window up to 6 time bits.
const MAX_ROW_BINS: u32 = 64;

/// `2^53`, one past the largest `k`: the threshold of a bin no word
/// passes.
const WORDS: u64 = 1 << 53;

/// `row_of` entry of a multiplier without a row.
const NO_ROW: u16 = u16::MAX;

/// Top bits of `k` that index a row's directory.
const DIRECTORY_BITS: u32 = 8;
const DIRECTORY_SHIFT: u32 = 53 - DIRECTORY_BITS;

/// Bin thresholds of every multiplier a configuration emits, at one
/// emission-rate derating. A pure function of `(config, derating)`.
#[derive(Debug, Clone)]
pub(crate) struct RaceTable {
    lambda0: f64,
    derating: f64,
    t_max: u32,
    /// Thresholds per row: `min(t_max, MAX_ROW_BINS)`.
    bins: usize,
    /// Row index of each multiplier value, [`NO_ROW`] where none.
    row_of: Vec<u16>,
    /// Per row, `bins` ascending thresholds and a `u64::MAX` sentinel:
    /// entry `b` is the smallest `k` whose bin exceeds `b + 1`
    /// ([`WORDS`] when none does).
    thresholds: Vec<u64>,
    /// Per row, `2^DIRECTORY_BITS` entries: entry `j` counts the row's
    /// thresholds at or below `j << DIRECTORY_SHIFT`.
    directory: Vec<u8>,
}

impl RaceTable {
    /// Tabulates the multipliers `config`'s converters emit: the powers
    /// of two up to the λ scale in 2^n mode, every code up to it
    /// otherwise.
    pub(crate) fn new(config: &RsuConfig, derating: f64) -> Self {
        let scale = config.lambda_scale();
        let t_max = config.t_max_bins();
        let bins = t_max.min(MAX_ROW_BINS) as usize;
        let mut table = RaceTable {
            lambda0: config.lambda0_per_bin(),
            derating,
            t_max,
            bins,
            row_of: vec![NO_ROW; scale as usize + 1],
            thresholds: Vec::new(),
            directory: Vec::new(),
        };
        let mut rows = 0;
        for m in 1..=scale as u16 {
            if config.pow2_lambda() && !m.is_power_of_two() {
                continue;
            }
            table.row_of[m as usize] = rows;
            rows += 1;
            let rate = table.rate(m);
            let start = table.thresholds.len();
            let mut threshold = 0;
            for bin in 1..=bins as u32 {
                threshold = table.first_word_past(rate, bin, threshold);
                table.thresholds.push(threshold);
            }
            let row = &table.thresholds[start..];
            table.directory.extend(
                (0..1u64 << DIRECTORY_BITS)
                    .map(|j| row.partition_point(|&t| t <= j << DIRECTORY_SHIFT) as u8),
            );
            table.thresholds.push(u64::MAX);
        }
        table
    }

    /// Exactly `sample_binned_ttf(m · λ0 · derating, t_max, rng)`, with
    /// a censored draw as `t_max + 1`: the same bin from the same single
    /// RNG word.
    #[inline]
    pub(crate) fn bin<R: Rng + ?Sized>(&self, m: u16, rng: &mut R) -> u32 {
        let row = match self.row_of.get(m as usize) {
            Some(&row) if row != NO_ROW => row as usize,
            _ => return self.reference_bin(m, rng),
        };
        let word = rng.next_u64();
        let k = word >> 11;
        let thresholds = &self.thresholds[row * (self.bins + 1)..][..=self.bins];
        let mut passed =
            self.directory[row << DIRECTORY_BITS | (k >> DIRECTORY_SHIFT) as usize] as usize;
        while thresholds[passed] <= k {
            passed += 1;
        }
        if passed < self.bins {
            passed as u32 + 1
        } else if self.bins as u32 == self.t_max {
            self.t_max + 1
        } else {
            self.reference_bin(m, &mut Replay(Some(word)))
        }
    }

    fn reference_bin<R: Rng + ?Sized>(&self, m: u16, rng: &mut R) -> u32 {
        sample_binned_ttf(self.rate(m), self.t_max, rng).unwrap_or(self.t_max + 1)
    }

    /// The rate the reference draw uses, in its evaluation order.
    fn rate(&self, m: u16) -> f64 {
        m as f64 * self.lambda0 * self.derating
    }

    /// The smallest `k ≥ floor` whose bin exceeds `bin` ([`WORDS`] when
    /// none does), given that no `k < floor` does. Gallops out from the
    /// analytic `P(T ≤ bin) · 2^53`, which lands within a few words, then
    /// bisects.
    fn first_word_past(&self, rate: f64, bin: u32, floor: u64) -> u64 {
        let past = |k: u64| {
            k == WORDS
                || sample_binned_ttf(rate, self.t_max, &mut Replay(Some(k << 11)))
                    .is_none_or(|b| b > bin)
        };
        let guess = (1.0 - (-rate * bin as f64).exp()) * WORDS as f64;
        // Invariant: no k < lo is past, and hi is.
        let (mut lo, mut hi) = (floor, WORDS);
        let start = (guess as u64).clamp(lo, hi);
        let mut step = 1;
        if past(start) {
            hi = start;
            while hi - lo > step {
                if past(hi - step) {
                    hi -= step;
                    step *= 2;
                } else {
                    lo = hi - step + 1;
                    break;
                }
            }
        } else {
            lo = start + 1;
            while hi - lo > step {
                if past(lo + step) {
                    hi = lo + step;
                    break;
                }
                lo += step + 1;
                step *= 2;
            }
        }
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
}

/// Replays one word already drawn from a chain's generator, so the
/// reference draw bins exactly that word.
struct Replay(Option<u64>);

impl RngCore for Replay {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the binned TTF draw reads one next_u64")
    }

    fn next_u64(&mut self) -> u64 {
        self.0.take().expect("the binned TTF draw reads one word")
    }

    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("the binned TTF draw reads one next_u64")
    }

    fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), Error> {
        unreachable!("the binned TTF draw reads one next_u64")
    }
}
