//! Statistical test kit.
//!
//! Small, dependency-free implementations of the tests the rest of the
//! workspace uses to validate samplers: χ² goodness-of-fit (with p-values
//! via the regularised incomplete gamma function), the one-sample
//! Kolmogorov–Smirnov statistic, Shannon entropy-rate estimation for
//! bitstreams (the paper quotes the RSU-G entropy rate of 2.89 Gb/s), and
//! lag-k serial correlation.

/// Pearson χ² statistic for observed counts against expected
/// probabilities.
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or if any
/// expected probability is non-positive while its observed count is
/// non-zero.
pub fn chi_square_statistic(observed: &[u64], expected_probs: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected_probs.len(), "length mismatch");
    assert!(!observed.is_empty(), "empty input");
    let total: u64 = observed.iter().sum();
    let mut stat = 0.0;
    for (&o, &p) in observed.iter().zip(expected_probs) {
        if p <= 0.0 {
            assert_eq!(o, 0, "observed count in zero-probability cell");
            continue;
        }
        let e = p * total as f64;
        let d = o as f64 - e;
        stat += d * d / e;
    }
    stat
}

/// χ² goodness-of-fit p-value for observed counts against expected
/// probabilities (degrees of freedom = non-zero cells − 1).
///
/// Returns a value in `[0, 1]`; small values reject the hypothesis that
/// the counts follow the expected distribution.
///
/// # Panics
///
/// Same conditions as [`chi_square_statistic`].
pub fn chi_square_pvalue_uniformish(observed: &[u64], expected_probs: &[f64]) -> f64 {
    let stat = chi_square_statistic(observed, expected_probs);
    let df = expected_probs
        .iter()
        .filter(|&&p| p > 0.0)
        .count()
        .saturating_sub(1);
    if df == 0 {
        return 1.0;
    }
    chi_square_survival(stat, df as f64)
}

/// Survival function of the χ² distribution: `P(X > x)` with `k` degrees
/// of freedom, computed as `1 − P(k/2, x/2)` via the regularised
/// incomplete gamma function.
pub fn chi_square_survival(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    1.0 - regularized_gamma_p(k / 2.0, x / 2.0)
}

/// Regularised lower incomplete gamma function `P(a, x)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes §6.2). Accurate to ~1e-12 for the ranges used in
/// the tests.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid gamma arguments a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a, x), then P = 1 − Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// One-sample Kolmogorov–Smirnov statistic `D = sup |F_n(t) − F(t)|`
/// against a theoretical CDF.
///
/// # Panics
///
/// Panics if `samples` is empty or contains NaN.
pub fn ks_statistic<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> f64 {
    assert!(!samples.is_empty(), "empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// Shannon entropy (bits per symbol) of a byte stream, estimated from
/// the empirical byte histogram.
///
/// A full-entropy source yields ~8 bits/byte; the RSU-G entropy-rate claim
/// (2.89 Gb/s at 1 GHz producing ~2.89 bits/cycle) is checked against this
/// estimator in the `rsu` crate.
pub fn byte_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let n = data.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Shannon entropy (bits per symbol) of a discrete sample given outcome
/// counts.
pub fn discrete_entropy(counts: &[u64]) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n as f64;
            -p * p.log2()
        })
        .sum()
}

/// Lag-`k` serial correlation coefficient of a sequence.
///
/// Both the lag-`k` autocovariance and the variance are normalised by
/// `n` (the standard biased autocorrelation estimator, as in Geyer's
/// initial-sequence ESS machinery). Normalising the covariance by
/// `n − k` while dividing the variance by `n` — the previous behaviour —
/// biases short-sequence lag estimates upward by `n / (n − k)` and can
/// report correlations above 1.
///
/// Returns 0 for sequences shorter than `k + 2` or with zero variance.
pub fn serial_correlation(xs: &[f64], k: usize) -> f64 {
    if xs.len() < k + 2 {
        return 0.0;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    if var == 0.0 {
        return 0.0;
    }
    let cov: f64 = (0..n - k)
        .map(|i| (xs[i] - mean) * (xs[i + k] - mean))
        .sum::<f64>()
        / n as f64;
    cov / var
}

/// Sample mean and (population) variance in one pass (Welford's method).
pub fn mean_variance(xs: &[f64]) -> (f64, f64) {
    let mut mean = 0.0;
    let mut m2 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    if xs.is_empty() {
        (0.0, 0.0)
    } else {
        (mean, m2 / xs.len() as f64)
    }
}

/// Sample standard deviation (with Bessel's correction), as used for the
/// paper's Table I ("standard deviation of VoI across 30 tested images").
pub fn sample_std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (mean, _) = mean_variance(xs);
    let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_matches_known_values() {
        // P(1, x) = 1 − e^{−x} (chi-square with 2 df).
        for x in [0.1f64, 1.0, 3.0, 10.0] {
            let expected = 1.0 - (-x).exp();
            assert!(
                (regularized_gamma_p(1.0, x) - expected).abs() < 1e-10,
                "x={x}"
            );
        }
        // P(0.5, x) = erf(sqrt(x)); check a tabulated point: erf(1) ≈ 0.8427007929.
        assert!((regularized_gamma_p(0.5, 1.0) - 0.842_700_792_9).abs() < 1e-8);
    }

    #[test]
    fn chi_square_survival_median_is_near_df() {
        // The median of chi-square with k df is ≈ k(1 − 2/(9k))^3, so the
        // survival there is 0.5.
        for k in [1.0f64, 4.0, 10.0, 50.0] {
            let median = k * (1.0 - 2.0 / (9.0 * k)).powi(3);
            let s = chi_square_survival(median, k);
            assert!((s - 0.5).abs() < 0.02, "k={k}: survival {s}");
        }
    }

    #[test]
    fn chi_square_accepts_true_distribution() {
        let mut rng = Xoshiro256pp::seed_from_u64(55);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut counts = [0u64; 4];
        for _ in 0..100_000 {
            let u: f64 = rng.gen();
            let idx = if u < 0.1 {
                0
            } else if u < 0.3 {
                1
            } else if u < 0.6 {
                2
            } else {
                3
            };
            counts[idx] += 1;
        }
        let p = chi_square_pvalue_uniformish(&counts, &probs);
        assert!(p > 0.001, "p-value {p}");
    }

    #[test]
    fn chi_square_rejects_wrong_distribution() {
        // Claim uniform but sample heavily skewed.
        let counts = [90_000u64, 4_000, 3_000, 3_000];
        let probs = [0.25; 4];
        let p = chi_square_pvalue_uniformish(&counts, &probs);
        assert!(p < 1e-6, "p-value {p} should reject");
    }

    #[test]
    #[should_panic(expected = "zero-probability cell")]
    fn chi_square_panics_on_impossible_observation() {
        chi_square_statistic(&[5, 5], &[1.0, 0.0]);
    }

    #[test]
    fn ks_statistic_detects_wrong_cdf() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let samples: Vec<f64> = (0..5_000).map(|_| rng.gen::<f64>()).collect();
        // Against the true U[0,1] CDF: small.
        let d_true = ks_statistic(&samples, |t| t.clamp(0.0, 1.0));
        assert!(d_true < 0.03);
        // Against a wrong CDF (squared): large.
        let d_false = ks_statistic(&samples, |t| (t * t).clamp(0.0, 1.0));
        assert!(d_false > 0.2);
    }

    #[test]
    fn byte_entropy_of_constant_and_uniform() {
        assert_eq!(byte_entropy(&[7u8; 1000]), 0.0);
        let all: Vec<u8> = (0..=255u8).cycle().take(25_600).collect();
        assert!((byte_entropy(&all) - 8.0).abs() < 1e-9);
        assert_eq!(byte_entropy(&[]), 0.0);
    }

    #[test]
    fn discrete_entropy_uniform_is_log2_k() {
        assert!((discrete_entropy(&[10, 10, 10, 10]) - 2.0).abs() < 1e-12);
        assert_eq!(discrete_entropy(&[]), 0.0);
        assert_eq!(discrete_entropy(&[0, 0]), 0.0);
    }

    #[test]
    fn serial_correlation_of_alternating_sequence_is_negative() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(serial_correlation(&xs, 1) < -0.99);
        assert!(serial_correlation(&xs, 2) > 0.99);
    }

    #[test]
    fn serial_correlation_of_random_sequence_is_small() {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.gen::<f64>()).collect();
        assert!(serial_correlation(&xs, 1).abs() < 0.02);
    }

    #[test]
    fn serial_correlation_matches_ar1_process() {
        // AR(1): x_t = phi * x_{t-1} + e_t has theoretical lag-k
        // autocorrelation phi^k. With the consistent `n` normalisation the
        // estimates converge to that; the old mixed n/(n−k) normalisation
        // inflated them by n/(n−k).
        let phi = 0.8;
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let n = 200_000;
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            // Uniform(-0.5, 0.5) innovations: zero mean is all the
            // autocorrelation shape needs.
            let e = rng.gen::<f64>() - 0.5;
            x = phi * x + e;
            xs.push(x);
        }
        for k in 1..=4usize {
            let expected = phi.powi(k as i32);
            let got = serial_correlation(&xs, k);
            assert!(
                (got - expected).abs() < 0.02,
                "lag {k}: got {got}, expected {expected}"
            );
        }
        // Estimates are proper correlations: bounded by 1 in magnitude.
        for k in 1..=4usize {
            assert!(serial_correlation(&xs, k).abs() <= 1.0);
        }
    }

    #[test]
    fn serial_correlation_degenerate_inputs() {
        assert_eq!(serial_correlation(&[1.0], 1), 0.0);
        assert_eq!(serial_correlation(&[2.0; 100], 1), 0.0);
    }

    #[test]
    fn mean_variance_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let (mean, var) = mean_variance(&xs);
        assert!((mean - 5.0).abs() < 1e-12);
        assert!((var - 4.0).abs() < 1e-12);
        let sd = sample_std_dev(&xs);
        assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(sample_std_dev(&[1.0]), 0.0);
        assert_eq!(mean_variance(&[]), (0.0, 0.0));
    }
}
