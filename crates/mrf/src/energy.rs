//! Label-distance functions for doubleton (pairwise) energies.

/// The three label-distance functions the new RSU-G supports in its energy
/// calculation stage (§IV-B1 of the paper):
///
/// * [`Squared`](DistanceFn::Squared) — motion estimation (Konrad &
///   Dubois); the only function the previous RSU-G supported.
/// * [`Absolute`](DistanceFn::Absolute) — stereo vision (Barnard;
///   Scharstein & Szeliski).
/// * [`Binary`](DistanceFn::Binary) — Potts model for image segmentation
///   (Szirányi et al.).
///
/// # Example
///
/// ```
/// use mrf::DistanceFn;
///
/// assert_eq!(DistanceFn::Squared.eval(2, 5), 9.0);
/// assert_eq!(DistanceFn::Absolute.eval(2, 5), 3.0);
/// assert_eq!(DistanceFn::Binary.eval(2, 5), 1.0);
/// assert_eq!(DistanceFn::Binary.eval(4, 4), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceFn {
    /// `(a − b)²`.
    Squared,
    /// `|a − b|`.
    Absolute,
    /// `0` if `a == b`, else `1` (Potts).
    Binary,
}

impl DistanceFn {
    /// Evaluates the distance between two integer labels.
    #[inline]
    pub fn eval(self, a: u16, b: u16) -> f64 {
        let d = (a as i32 - b as i32).unsigned_abs() as f64;
        match self {
            DistanceFn::Squared => d * d,
            DistanceFn::Absolute => d,
            DistanceFn::Binary => {
                if d == 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// Evaluates the distance on real-valued quantities (used for
    /// singleton data terms such as intensity differences).
    #[inline]
    pub fn eval_f64(self, a: f64, b: f64) -> f64 {
        let d = (a - b).abs();
        match self {
            DistanceFn::Squared => d * d,
            DistanceFn::Absolute => d,
            DistanceFn::Binary => {
                if d == 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// All supported distance functions, in the order the paper introduces
    /// them.
    pub const ALL: [DistanceFn; 3] = [
        DistanceFn::Squared,
        DistanceFn::Absolute,
        DistanceFn::Binary,
    ];
}

/// Precomputed pairwise-energy lookup table: `M × M` values of the
/// smoothness term for every `(label, neighbor_label)` pair, laid out
/// **neighbor-label-major** so one neighbour contributes one contiguous
/// row.
///
/// This is the software analogue of the per-label smoothness tables a
/// streaming MRF accelerator precomputes once per model: with the table
/// in hand, the Eq. 1 conditional `E_l = E_singleton(l) + Σ_n E_pair(l,
/// x_n)` becomes a singleton copy plus one branch-free row-add per
/// neighbour, replacing a per-element `DistanceFn` enum dispatch in the
/// innermost solver loop. Entries are stored exactly as the model's
/// `pairwise` would compute them, so the fast path is **bit-identical**
/// to the direct path (see [`MrfModel::local_energies`]).
///
/// [`MrfModel::local_energies`]: crate::MrfModel::local_energies
///
/// # Example
///
/// ```
/// use mrf::{DistanceFn, PairwiseTable};
///
/// let table = PairwiseTable::homogeneous(3, 0.5, DistanceFn::Absolute);
/// assert_eq!(table.get(0, 2), 1.0); // 0.5 · |0 − 2|
/// assert_eq!(table.row(1), &[0.5, 0.0, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseTable {
    num_labels: usize,
    /// `rows[neighbor_label * num_labels + label]`.
    rows: Vec<f64>,
    /// The same rows narrowed to f32 once at construction, for the
    /// `NumericPolicy::Fast` solver path (half the memory traffic and
    /// twice the SIMD lanes per row-add).
    rows_f32: Vec<f32>,
}

impl PairwiseTable {
    /// Builds a table from an arbitrary pairwise function
    /// `f(label, neighbor_label)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_labels` is zero, exceeds the `u16` label space, or
    /// `f` returns a non-finite value.
    pub fn from_fn(num_labels: usize, mut f: impl FnMut(u16, u16) -> f64) -> Self {
        assert!(num_labels > 0, "need at least one label");
        assert!(
            num_labels <= u16::MAX as usize + 1,
            "label count exceeds the u16 label space"
        );
        let mut rows = Vec::with_capacity(num_labels * num_labels);
        for neighbor_label in 0..num_labels as u16 {
            for label in 0..num_labels as u16 {
                let v = f(label, neighbor_label);
                assert!(
                    v.is_finite(),
                    "pairwise({label}, {neighbor_label}) is not finite: {v}"
                );
                rows.push(v);
            }
        }
        let rows_f32 = rows.iter().map(|&v| v as f32).collect();
        PairwiseTable {
            num_labels,
            rows,
            rows_f32,
        }
    }

    /// Builds the table for a homogeneous smoothness term
    /// `weight · distance(l, l')` — the form every model in this
    /// workspace uses.
    ///
    /// # Panics
    ///
    /// Panics if `num_labels` is zero or `weight` is negative or not
    /// finite.
    pub fn homogeneous(num_labels: usize, weight: f64, distance: DistanceFn) -> Self {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "pairwise weight must be non-negative and finite"
        );
        PairwiseTable::from_fn(num_labels, |a, b| weight * distance.eval(a, b))
    }

    /// Number of labels `M` (the table holds `M²` entries).
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The contiguous row of pairwise energies contributed by a
    /// neighbour holding `neighbor_label`: `row[l] = pairwise(l,
    /// neighbor_label)`.
    ///
    /// # Panics
    ///
    /// Panics if `neighbor_label` is out of range.
    #[inline]
    pub fn row(&self, neighbor_label: u16) -> &[f64] {
        let start = neighbor_label as usize * self.num_labels;
        &self.rows[start..start + self.num_labels]
    }

    /// The f32 narrowing of [`row`](Self::row), used by the solver fast
    /// path. Each entry is the f64 entry rounded once to f32 (never a
    /// re-computation in f32 arithmetic), so the narrowing error is a
    /// single rounding of ≤ half an ulp per entry.
    ///
    /// # Panics
    ///
    /// Panics if `neighbor_label` is out of range.
    #[inline]
    pub fn row_f32(&self, neighbor_label: u16) -> &[f32] {
        let start = neighbor_label as usize * self.num_labels;
        &self.rows_f32[start..start + self.num_labels]
    }

    /// One table entry: the pairwise energy between a site holding
    /// `label` and a neighbour holding `neighbor_label`.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    #[inline]
    pub fn get(&self, label: u16, neighbor_label: u16) -> f64 {
        self.rows[neighbor_label as usize * self.num_labels + label as usize]
    }
}

impl std::fmt::Display for DistanceFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DistanceFn::Squared => "squared",
            DistanceFn::Absolute => "absolute",
            DistanceFn::Binary => "binary",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_symmetric() {
        for d in DistanceFn::ALL {
            for a in 0..10u16 {
                for b in 0..10u16 {
                    assert_eq!(d.eval(a, b), d.eval(b, a), "{d} not symmetric at ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn distances_are_zero_iff_equal() {
        for d in DistanceFn::ALL {
            for a in 0..10u16 {
                assert_eq!(d.eval(a, a), 0.0);
                assert!(d.eval(a, a + 1) > 0.0);
            }
        }
    }

    #[test]
    fn squared_dominates_absolute_beyond_one() {
        for delta in 2..20u16 {
            assert!(DistanceFn::Squared.eval(0, delta) > DistanceFn::Absolute.eval(0, delta));
        }
        // At distance one they agree, and binary matches too.
        assert_eq!(DistanceFn::Squared.eval(3, 4), 1.0);
        assert_eq!(DistanceFn::Absolute.eval(3, 4), 1.0);
        assert_eq!(DistanceFn::Binary.eval(3, 4), 1.0);
    }

    #[test]
    fn f64_variant_agrees_with_integer_variant() {
        for d in DistanceFn::ALL {
            for a in 0..8u16 {
                for b in 0..8u16 {
                    assert_eq!(d.eval(a, b), d.eval_f64(a as f64, b as f64));
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DistanceFn::Squared.to_string(), "squared");
        assert_eq!(DistanceFn::Absolute.to_string(), "absolute");
        assert_eq!(DistanceFn::Binary.to_string(), "binary");
    }

    #[test]
    fn pairwise_table_matches_direct_evaluation_exactly() {
        for dist in DistanceFn::ALL {
            for m in [1usize, 2, 7, 64] {
                let weight = 0.3;
                let table = PairwiseTable::homogeneous(m, weight, dist);
                assert_eq!(table.num_labels(), m);
                for a in 0..m as u16 {
                    for b in 0..m as u16 {
                        let direct = weight * dist.eval(a, b);
                        assert_eq!(table.get(a, b), direct, "{dist} M={m} ({a},{b})");
                        assert_eq!(table.row(b)[a as usize], direct);
                    }
                }
            }
        }
    }

    #[test]
    fn f32_rows_are_single_roundings_of_f64_rows() {
        for dist in DistanceFn::ALL {
            for m in [1usize, 2, 16, 64] {
                let table = PairwiseTable::homogeneous(m, 0.3, dist);
                for n in 0..m as u16 {
                    let (row64, row32) = (table.row(n), table.row_f32(n));
                    assert_eq!(row32.len(), row64.len());
                    for (a, b) in row64.iter().zip(row32) {
                        assert_eq!(*b, *a as f32, "{dist} M={m} neighbour {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_table_rows_are_neighbor_major() {
        let table = PairwiseTable::from_fn(3, |l, n| (n as f64) * 10.0 + l as f64);
        assert_eq!(table.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(table.row(2), &[20.0, 21.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn pairwise_table_rejects_zero_labels() {
        PairwiseTable::from_fn(0, |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn pairwise_table_rejects_non_finite_entries() {
        PairwiseTable::from_fn(2, |a, b| if a == b { 0.0 } else { f64::INFINITY });
    }

    #[test]
    #[should_panic(expected = "pairwise weight")]
    fn pairwise_table_rejects_negative_weight() {
        PairwiseTable::homogeneous(2, -1.0, DistanceFn::Binary);
    }

    #[test]
    fn no_overflow_on_extreme_labels() {
        // u16::MAX difference squared exceeds u32; the f64 path must not
        // wrap.
        let d = DistanceFn::Squared.eval(0, u16::MAX);
        assert_eq!(d, (u16::MAX as f64) * (u16::MAX as f64));
    }
}
