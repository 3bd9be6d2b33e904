//! 2-D lattices and neighbourhood iteration.

/// A rectangular 2-D lattice of sites, addressed either by `(x, y)`
/// coordinates or by a flat row-major index.
///
/// # Example
///
/// ```
/// use mrf::Grid;
///
/// let grid = Grid::new(4, 3);
/// assert_eq!(grid.len(), 12);
/// assert_eq!(grid.index(1, 2), 9);
/// assert_eq!(grid.coords(9), (1, 2));
/// // Interior sites have 4 neighbours, corners have 2.
/// assert_eq!(grid.neighbors(grid.index(1, 1)).count(), 4);
/// assert_eq!(grid.neighbors(0).count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grid {
    width: usize,
    height: usize,
}

impl Grid {
    /// Creates a grid of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        Grid { width, height }
    }

    /// Width in sites.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in sites.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of sites.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid has no sites (never true; grids are non-empty by
    /// construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat row-major index of `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinates are out of range.
    #[inline]
    pub fn index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Coordinates `(x, y)` of a flat index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index is out of range.
    #[inline]
    pub fn coords(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.len());
        (index % self.width, index / self.width)
    }

    /// Whether `(x, y)` lies on the grid.
    #[inline]
    pub fn contains(&self, x: isize, y: isize) -> bool {
        x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height
    }

    /// Iterator over the 4-neighbourhood (first-order MRF cliques, as used
    /// by all three applications in the paper) of a site.
    #[inline]
    pub fn neighbors(&self, index: usize) -> Neighbors {
        let (x, y) = self.coords(index);
        Neighbors {
            grid: *self,
            x,
            y,
            step: 0,
        }
    }

    /// Iterator over all site indices in raster order.
    pub fn sites(&self) -> std::ops::Range<usize> {
        0..self.len()
    }
}

/// Iterator over the up-to-four lattice neighbours of a site, produced by
/// [`Grid::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors {
    grid: Grid,
    x: usize,
    y: usize,
    step: u8,
}

impl Iterator for Neighbors {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        const OFFSETS: [(isize, isize); 4] = [(0, -1), (-1, 0), (1, 0), (0, 1)];
        while (self.step as usize) < OFFSETS.len() {
            let (dx, dy) = OFFSETS[self.step as usize];
            self.step += 1;
            let nx = self.x as isize + dx;
            let ny = self.y as isize + dy;
            if self.grid.contains(nx, ny) {
                return Some(self.grid.index(nx as usize, ny as usize));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        Grid::new(0, 5);
    }

    #[test]
    fn index_and_coords_roundtrip() {
        let g = Grid::new(7, 5);
        for i in g.sites() {
            let (x, y) = g.coords(i);
            assert_eq!(g.index(x, y), i);
        }
    }

    #[test]
    fn neighbor_counts_by_position() {
        let g = Grid::new(5, 4);
        // Corners: 2 neighbours.
        for &(x, y) in &[(0, 0), (4, 0), (0, 3), (4, 3)] {
            assert_eq!(g.neighbors(g.index(x, y)).count(), 2, "corner ({x},{y})");
        }
        // Edges (non-corner): 3 neighbours.
        assert_eq!(g.neighbors(g.index(2, 0)).count(), 3);
        assert_eq!(g.neighbors(g.index(0, 2)).count(), 3);
        // Interior: 4 neighbours.
        assert_eq!(g.neighbors(g.index(2, 2)).count(), 4);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = Grid::new(6, 6);
        for i in g.sites() {
            for n in g.neighbors(i) {
                let back: HashSet<usize> = g.neighbors(n).collect();
                assert!(back.contains(&i), "site {n} not linked back to {i}");
            }
        }
    }

    #[test]
    fn neighbors_are_distinct_and_adjacent() {
        let g = Grid::new(8, 3);
        for i in g.sites() {
            let (x, y) = g.coords(i);
            let ns: Vec<usize> = g.neighbors(i).collect();
            let set: HashSet<usize> = ns.iter().copied().collect();
            assert_eq!(set.len(), ns.len(), "duplicate neighbours of {i}");
            for n in ns {
                let (nx, ny) = g.coords(n);
                let dist = x.abs_diff(nx) + y.abs_diff(ny);
                assert_eq!(dist, 1, "site {n} not adjacent to {i}");
            }
        }
    }

    #[test]
    fn one_by_one_grid_has_no_neighbors() {
        let g = Grid::new(1, 1);
        assert_eq!(g.neighbors(0).count(), 0);
    }

    #[test]
    fn single_row_grid() {
        let g = Grid::new(5, 1);
        assert_eq!(g.neighbors(0).count(), 1);
        assert_eq!(g.neighbors(2).count(), 2);
    }
}
