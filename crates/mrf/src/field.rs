//! Label-field state for MCMC solvers.

use crate::grid::Grid;
use crate::model::Label;
use rand::Rng;

/// The labelling of every site on a grid — the latent variable state `X`
/// that MCMC iterates on.
///
/// # Example
///
/// ```
/// use mrf::{Grid, LabelField};
///
/// let grid = Grid::new(3, 3);
/// let mut field = LabelField::constant(grid, 4, 0);
/// field.set(4, 3);
/// assert_eq!(field.get(4), 3);
/// assert_eq!(field.num_labels(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelField {
    grid: Grid,
    num_labels: usize,
    labels: Vec<Label>,
}

impl LabelField {
    /// Creates a field with every site set to `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `num_labels` is zero or `initial >= num_labels`.
    pub fn constant(grid: Grid, num_labels: usize, initial: Label) -> Self {
        assert!(num_labels > 0, "need at least one label");
        assert!(
            (initial as usize) < num_labels,
            "initial label out of range"
        );
        LabelField {
            grid,
            num_labels,
            labels: vec![initial; grid.len()],
        }
    }

    /// Creates a field with independently uniform random labels — the
    /// standard MCMC initial state.
    ///
    /// # Panics
    ///
    /// Panics if `num_labels` is zero or exceeds `Label::MAX + 1`.
    pub fn random<R: Rng + ?Sized>(grid: Grid, num_labels: usize, rng: &mut R) -> Self {
        assert!(num_labels > 0, "need at least one label");
        assert!(
            num_labels <= Label::MAX as usize + 1,
            "too many labels for Label type"
        );
        let labels = (0..grid.len())
            .map(|_| rng.gen_range(0..num_labels) as Label)
            .collect();
        LabelField {
            grid,
            num_labels,
            labels,
        }
    }

    /// Creates a field from explicit labels.
    ///
    /// # Panics
    ///
    /// Panics if the label vector length does not match the grid or any
    /// label is out of range.
    pub fn from_labels(grid: Grid, num_labels: usize, labels: Vec<Label>) -> Self {
        assert_eq!(labels.len(), grid.len(), "label count must match grid size");
        assert!(
            labels.iter().all(|&l| (l as usize) < num_labels),
            "label out of range for num_labels={num_labels}"
        );
        LabelField {
            grid,
            num_labels,
            labels,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of labels each site may take.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Label at a site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[inline]
    pub fn get(&self, site: usize) -> Label {
        self.labels[site]
    }

    /// Sets the label at a site.
    ///
    /// # Panics
    ///
    /// Panics if `site` or `label` is out of range.
    #[inline]
    pub fn set(&mut self, site: usize, label: Label) {
        assert!(
            (label as usize) < self.num_labels,
            "label {label} out of range"
        );
        self.labels[site] = label;
    }

    /// All labels in row-major order.
    pub fn as_slice(&self) -> &[Label] {
        &self.labels
    }

    /// Mutable view of all labels in row-major order. Callers must keep
    /// every label below `num_labels`; the parallel sweep engine writes
    /// sampler output here, which is range-checked by construction.
    pub(crate) fn labels_mut(&mut self) -> &mut [Label] {
        &mut self.labels
    }

    /// Overwrites this field's labels with `other`'s without
    /// reallocating (both fields must share a grid).
    pub(crate) fn copy_labels_from(&mut self, other: &LabelField) {
        debug_assert_eq!(self.grid, other.grid, "grid mismatch");
        self.labels.copy_from_slice(&other.labels);
    }

    /// Fraction of sites whose labels differ from `other`.
    ///
    /// # Panics
    ///
    /// Panics if the fields have different grids.
    pub fn disagreement(&self, other: &LabelField) -> f64 {
        assert_eq!(self.grid, other.grid, "grid mismatch");
        let differing = self
            .labels
            .iter()
            .zip(&other.labels)
            .filter(|(a, b)| a != b)
            .count();
        differing as f64 / self.labels.len() as f64
    }

    /// Histogram of label occupancy.
    pub fn histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_labels];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    #[test]
    fn constant_field_is_uniform() {
        let f = LabelField::constant(Grid::new(4, 4), 3, 2);
        assert!(f.as_slice().iter().all(|&l| l == 2));
        assert_eq!(f.histogram(), vec![0, 0, 16]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn constant_rejects_bad_initial() {
        LabelField::constant(Grid::new(2, 2), 3, 3);
    }

    #[test]
    fn random_field_uses_all_labels_eventually() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let f = LabelField::random(Grid::new(32, 32), 5, &mut rng);
        let hist = f.histogram();
        assert!(
            hist.iter().all(|&c| c > 100),
            "unbalanced histogram {hist:?}"
        );
    }

    #[test]
    fn from_labels_roundtrip() {
        let grid = Grid::new(2, 2);
        let f = LabelField::from_labels(grid, 4, vec![0, 1, 2, 3]);
        assert_eq!(f.get(0), 0);
        assert_eq!(f.get(3), 3);
    }

    #[test]
    #[should_panic(expected = "label count must match")]
    fn from_labels_rejects_wrong_length() {
        LabelField::from_labels(Grid::new(2, 2), 4, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn from_labels_rejects_out_of_range() {
        LabelField::from_labels(Grid::new(2, 2), 2, vec![0, 1, 2, 0]);
    }

    #[test]
    fn disagreement_counts_fraction() {
        let grid = Grid::new(2, 2);
        let a = LabelField::from_labels(grid, 4, vec![0, 1, 2, 3]);
        let b = LabelField::from_labels(grid, 4, vec![0, 1, 0, 0]);
        assert_eq!(a.disagreement(&b), 0.5);
        assert_eq!(a.disagreement(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn set_rejects_out_of_range() {
        let mut f = LabelField::constant(Grid::new(2, 2), 3, 0);
        f.set(0, 5);
    }
}
