//! Decay-rate scaling: the FIFO + min-register structure (§IV-B2).
//!
//! Scaling maximises the dynamic range of λ by subtracting the minimum
//! energy of the variable's labels from every label energy
//! (`E'_i = E_i − E_min`, Eq. 4) — a multiplication of every λ by a
//! common factor, which leaves the winning probabilities untouched but
//! keeps the best label pinned at λmax regardless of temperature.
//!
//! In hardware this "requires observing all label energies to find
//! E_min": the new design inserts a FIFO between energy computation and λ
//! look-up, with one register accumulating the minimum of the energies
//! being *inserted* (variable v+1) and a second register holding the
//! frozen minimum used to scale the energies being *drained* (variable
//! v). [`EnergyFifo`] models that structure cycle-by-cycle, and its test
//! suite proves the streamed result equals the batch subtraction.

/// Cycle-accurate model of the energy FIFO with its two min registers.
///
/// Protocol, mirroring the pipeline: push the energies of variable `v+1`
/// one per cycle with [`push`](Self::push) while popping scaled energies
/// of variable `v` with [`pop_scaled`](Self::pop_scaled); call
/// [`rotate`](Self::rotate) at the variable boundary to freeze the
/// incoming minimum for draining.
///
/// # Example
///
/// ```
/// use rsu::EnergyFifo;
///
/// let mut fifo = EnergyFifo::new(64);
/// for e in [7u16, 3, 9] {
///     fifo.push(e);
/// }
/// fifo.rotate();
/// assert_eq!(fifo.pop_scaled(), Some(4)); // 7 − 3
/// assert_eq!(fifo.pop_scaled(), Some(0)); // 3 − 3
/// assert_eq!(fifo.pop_scaled(), Some(6)); // 9 − 3
/// assert_eq!(fifo.pop_scaled(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyFifo {
    capacity: usize,
    queue: std::collections::VecDeque<u16>,
    /// Minimum of the energies inserted since the last rotate (variable
    /// v+1).
    incoming_min: u16,
    /// Frozen minimum used to scale pops (variable v).
    draining_min: u16,
    /// Number of entries that belong to the draining variable.
    draining_len: usize,
    max_occupancy: usize,
}

impl EnergyFifo {
    /// Creates a FIFO able to hold the energies of two `capacity`-label
    /// variables (the steady-state requirement: "at any given time during
    /// the steady state, energies of two different variables reside in
    /// the queue").
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        EnergyFifo {
            capacity,
            queue: std::collections::VecDeque::with_capacity(2 * capacity),
            incoming_min: u16::MAX,
            draining_min: 0,
            draining_len: 0,
            max_occupancy: 0,
        }
    }

    /// Pushes one label energy of the incoming variable, updating the
    /// incoming min register.
    ///
    /// # Panics
    ///
    /// Panics if the incoming variable already has `capacity` energies
    /// queued (a real pipeline would have stalled).
    pub fn push(&mut self, energy: u16) {
        assert!(
            self.queue.len() - self.draining_len < self.capacity,
            "incoming variable exceeds FIFO capacity"
        );
        self.incoming_min = self.incoming_min.min(energy);
        self.queue.push_back(energy);
        self.max_occupancy = self.max_occupancy.max(self.queue.len());
    }

    /// Variable boundary: the incoming variable becomes the draining one;
    /// its accumulated minimum moves into the frozen register.
    ///
    /// # Panics
    ///
    /// Panics if the previous draining variable has not fully drained
    /// (structural hazard).
    pub fn rotate(&mut self) {
        assert_eq!(self.draining_len, 0, "previous variable not fully drained");
        self.draining_len = self.queue.len();
        self.draining_min = if self.draining_len == 0 {
            0
        } else {
            self.incoming_min
        };
        self.incoming_min = u16::MAX;
    }

    /// Pops the next scaled energy `E − E_min` of the draining variable,
    /// or `None` when it is exhausted.
    pub fn pop_scaled(&mut self) -> Option<u16> {
        if self.draining_len == 0 {
            return None;
        }
        let e = self.queue.pop_front().expect("draining_len tracks queue");
        self.draining_len -= 1;
        Some(e - self.draining_min)
    }

    /// Entries currently queued (both variables).
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the occupancy — must stay ≤ 2 × capacity (the
    /// register sizing claim of §IV-B2).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// One-shot convenience used by the functional simulator: batch
    /// subtraction `E_i − min(E)`.
    pub fn scale_batch(energies: &[u16], out: &mut Vec<u16>) {
        out.clear();
        let min = energies.iter().copied().min().unwrap_or(0);
        out.extend(energies.iter().map(|&e| e - min));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_equals_batch_under_pipeline_interleaving() {
        // Steady state: while variable v drains (one pop per cycle), the
        // energies of variable v+1 arrive (one push per cycle).
        let vars: Vec<Vec<u16>> = vec![
            vec![5, 2, 9, 2, 7],
            vec![100, 0, 255, 13, 40],
            vec![8, 8, 8, 8, 8],
            vec![3, 250, 3, 17, 3],
        ];
        let labels = vars[0].len();
        let mut fifo = EnergyFifo::new(labels);
        // Prime the pipeline with the first variable.
        for &e in &vars[0] {
            fifo.push(e);
        }
        fifo.rotate();
        let mut streamed: Vec<Vec<u16>> = Vec::new();
        for k in 0..vars.len() {
            let mut drained = Vec::with_capacity(labels);
            for cycle in 0..labels {
                drained.push(fifo.pop_scaled().expect("draining variable present"));
                if let Some(next) = vars.get(k + 1) {
                    fifo.push(next[cycle]);
                }
            }
            fifo.rotate();
            streamed.push(drained);
        }
        let mut expect = Vec::new();
        for (var, got) in vars.iter().zip(&streamed) {
            EnergyFifo::scale_batch(var, &mut expect);
            assert_eq!(got, &expect, "variable {var:?}");
        }
    }

    #[test]
    fn sequential_variables_scale_independently() {
        let mut fifo = EnergyFifo::new(8);
        let mut out = Vec::new();
        for var in [vec![5u16, 2, 9], vec![100, 40], vec![7, 7, 7, 7]] {
            for &e in &var {
                fifo.push(e);
            }
            fifo.rotate();
            let mut drained = Vec::new();
            while let Some(s) = fifo.pop_scaled() {
                drained.push(s);
            }
            EnergyFifo::scale_batch(&var, &mut out);
            assert_eq!(drained, out, "variable {var:?}");
        }
    }

    #[test]
    fn scaled_minimum_is_always_zero() {
        let mut fifo = EnergyFifo::new(16);
        for e in [9u16, 14, 3, 200, 3] {
            fifo.push(e);
        }
        fifo.rotate();
        let mut min_seen = u16::MAX;
        while let Some(s) = fifo.pop_scaled() {
            min_seen = min_seen.min(s);
        }
        assert_eq!(min_seen, 0, "the best label always scales to E' = 0 (λmax)");
    }

    #[test]
    fn steady_state_holds_two_variables() {
        let mut fifo = EnergyFifo::new(4);
        for e in [1u16, 2, 3, 4] {
            fifo.push(e);
        }
        fifo.rotate();
        // Drain one while pushing the next, one per cycle.
        for e in [10u16, 20, 30, 40] {
            assert!(fifo.pop_scaled().is_some());
            fifo.push(e);
        }
        assert_eq!(fifo.occupancy(), 4);
        assert!(fifo.max_occupancy() <= 8, "never exceeds 2 x capacity");
        fifo.rotate();
        assert_eq!(fifo.pop_scaled(), Some(0));
    }

    #[test]
    #[should_panic(expected = "not fully drained")]
    fn rotate_before_drain_is_a_structural_hazard() {
        let mut fifo = EnergyFifo::new(4);
        fifo.push(1);
        fifo.rotate();
        fifo.push(2);
        fifo.rotate(); // variable with energy 1 still queued
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overfull_push_panics() {
        let mut fifo = EnergyFifo::new(2);
        fifo.push(1);
        fifo.push(2);
        fifo.push(3);
    }

    #[test]
    fn batch_scaling_of_empty_slice_is_empty() {
        let mut out = vec![1u16];
        EnergyFifo::scale_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let mut fifo = EnergyFifo::new(4);
        assert_eq!(fifo.pop_scaled(), None);
        fifo.rotate();
        assert_eq!(fifo.pop_scaled(), None);
    }
}
