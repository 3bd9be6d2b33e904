//! Order statistics for the report.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`q` in 0..=100); NaN for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so the figures here match an outside check of the same runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = v.len() as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let scaled = (i as i64 + 1) * m;
        let j = (scaled / 4).clamp(1, v.len() as i64 - 1);
        let delta = (scaled - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; the median when there are fewer than forty
/// samples, since a higher percentile would rest on too few.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let q = [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|q| n >= 40.0 && n * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (q, percentile(values, q))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let small: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&small).0, 50.0);
    }
}
