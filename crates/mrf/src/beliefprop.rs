//! Loopy belief propagation (min-sum): the third classic MRF solver of
//! the Scharstein–Szeliski taxonomy the paper draws its stereo
//! methodology from, alongside Graph Cuts and MCMC.
//!
//! Min-sum BP passes messages along lattice edges; each message is the
//! neighbour's current estimate of the per-label cost. After `T`
//! iterations every site picks the label minimising its belief
//! (data cost + incoming messages). On loopy graphs BP is approximate
//! but typically lands near the Graph Cuts energy, making it a useful
//! second deterministic baseline for the quality studies.

use crate::field::LabelField;
use crate::model::{Label, MrfModel};

/// Report of a belief-propagation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefPropReport {
    /// Message-passing iterations executed.
    pub iterations: u32,
    /// Mean absolute message change in the final iteration (convergence
    /// indicator).
    pub final_delta: f64,
}

/// Runs min-sum loopy BP and writes the decoded labelling into `field`.
///
/// Messages are updated synchronously (all edges per iteration) with
/// message normalisation (minimum subtracted) for numerical stability.
///
/// # Panics
///
/// Panics if the field's grid or label count disagree with the model.
pub fn belief_propagation<M: MrfModel>(
    model: &M,
    field: &mut LabelField,
    iterations: u32,
) -> BeliefPropReport {
    assert_eq!(field.grid(), model.grid(), "field grid mismatch");
    assert_eq!(
        field.num_labels(),
        model.num_labels(),
        "label count mismatch"
    );
    let grid = model.grid();
    let k = model.num_labels();
    let n = grid.len();
    // Direction encoding: message INTO site s from its neighbour in
    // direction d (0 = from above, 1 = from left, 2 = from right,
    // 3 = from below). messages[(s * 4 + d) * k + label].
    let mut messages = vec![0.0f64; n * 4 * k];
    let mut next = vec![0.0f64; n * 4 * k];
    // Precompute data costs.
    let mut data = vec![0.0f64; n * k];
    for s in 0..n {
        for l in 0..k {
            data[s * k + l] = model.singleton(s, l as Label);
        }
    }
    let dir_offsets: [(isize, isize); 4] = [(0, -1), (-1, 0), (1, 0), (0, 1)];
    let mut final_delta = 0.0f64;
    for _ in 0..iterations {
        let mut delta_sum = 0.0f64;
        let mut delta_count = 0u64;
        for s in 0..n {
            let (x, y) = grid.coords(s);
            for (d, &(dx, dy)) in dir_offsets.iter().enumerate() {
                // Message into s from neighbour q (in direction d from s).
                let qx = x as isize + dx;
                let qy = y as isize + dy;
                if !grid.contains(qx, qy) {
                    continue;
                }
                let q = grid.index(qx as usize, qy as usize);
                // h_q(l_q) = data_q(l_q) + sum of messages into q except
                // the one from s. The message from s arrives at q from the
                // opposite direction.
                let opposite = 3 - d;
                let base = |lq: usize| -> f64 {
                    let mut v = data[q * k + lq];
                    for dd in 0..4 {
                        if dd == opposite {
                            continue;
                        }
                        v += messages[(q * 4 + dd) * k + lq];
                    }
                    v
                };
                // m_{q→s}(l_s) = min_{l_q} [ h_q(l_q) + V(l_q, l_s) ].
                let mut out_min = f64::INFINITY;
                for ls in 0..k {
                    let mut best = f64::INFINITY;
                    for lq in 0..k {
                        let v = base(lq) + model.pairwise(q, s, lq as Label, ls as Label);
                        if v < best {
                            best = v;
                        }
                    }
                    next[(s * 4 + d) * k + ls] = best;
                    if best < out_min {
                        out_min = best;
                    }
                }
                // Normalise and accumulate the change.
                for ls in 0..k {
                    let idx = (s * 4 + d) * k + ls;
                    next[idx] -= out_min;
                    delta_sum += (next[idx] - messages[idx]).abs();
                    delta_count += 1;
                }
            }
        }
        std::mem::swap(&mut messages, &mut next);
        final_delta = if delta_count == 0 {
            0.0
        } else {
            delta_sum / delta_count as f64
        };
    }
    // Decode beliefs.
    for s in 0..n {
        let mut best = 0usize;
        let mut best_v = f64::INFINITY;
        for l in 0..k {
            let mut v = data[s * k + l];
            for d in 0..4 {
                v += messages[(s * 4 + d) * k + l];
            }
            if v < best_v {
                best_v = v;
                best = l;
            }
        }
        field.set(s, best as Label);
    }
    BeliefPropReport {
        iterations,
        final_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::DistanceFn;
    use crate::model::TabularMrf;
    use crate::solver::total_energy;
    use crate::Grid;

    #[test]
    fn bp_solves_strong_checkerboard_exactly() {
        let model = TabularMrf::checkerboard(8, 8, 3, 10.0, DistanceFn::Binary, 0.2);
        let mut field = LabelField::constant(model.grid(), 3, 0);
        let report = belief_propagation(&model, &mut field, 20);
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert_eq!(field.disagreement(&truth), 0.0);
        assert!(report.final_delta < 1e-9, "messages should converge");
    }

    #[test]
    fn bp_matches_exact_optimum_on_chains() {
        // On a 1-D chain (tree) min-sum BP is exact: compare against
        // brute force.
        use rand::{Rng, SeedableRng};
        let grid = Grid::new(6, 1);
        for seed in 0..10u64 {
            let mut rng = sampling::Xoshiro256pp::seed_from_u64(seed);
            let singleton: Vec<f64> = (0..grid.len() * 3)
                .map(|_| rng.gen_range(0.0..5.0))
                .collect();
            let model = TabularMrf::new(
                grid,
                3,
                singleton,
                DistanceFn::Absolute,
                rng.gen_range(0.1..1.5),
            );
            let mut field = LabelField::constant(grid, 3, 0);
            belief_propagation(&model, &mut field, 15);
            let got = total_energy(&model, &field);
            let mut best = f64::INFINITY;
            for assignment in 0..3u32.pow(6) {
                let mut a = assignment;
                let labels: Vec<Label> = (0..6)
                    .map(|_| {
                        let l = (a % 3) as Label;
                        a /= 3;
                        l
                    })
                    .collect();
                let f = LabelField::from_labels(grid, 3, labels);
                best = best.min(total_energy(&model, &f));
            }
            assert!(
                (got - best).abs() < 1e-9,
                "seed {seed}: BP {got} vs optimum {best}"
            );
        }
    }

    #[test]
    fn bp_energy_is_close_to_graph_cuts_on_grids() {
        use rand::SeedableRng;
        let model = TabularMrf::checkerboard(10, 10, 4, 4.0, DistanceFn::Absolute, 0.5);
        let mut rng = sampling::Xoshiro256pp::seed_from_u64(3);
        let mut f_bp = LabelField::random(model.grid(), 4, &mut rng);
        belief_propagation(&model, &mut f_bp, 30);
        let mut f_gc = f_bp.clone();
        crate::graphcut::alpha_expansion(&model, &mut f_gc).unwrap();
        let e_bp = total_energy(&model, &f_bp);
        let e_gc = total_energy(&model, &f_gc);
        assert!(
            e_bp <= e_gc * 1.1 + 5.0,
            "loopy BP should land near the GC energy: {e_bp} vs {e_gc}"
        );
    }

    #[test]
    fn zero_iterations_decodes_pure_data_term() {
        let model = TabularMrf::checkerboard(4, 4, 2, 3.0, DistanceFn::Binary, 5.0);
        let mut field = LabelField::constant(model.grid(), 2, 1);
        belief_propagation(&model, &mut field, 0);
        // With no messages the decode is the per-pixel argmin of the data
        // term — the checkerboard truth by construction.
        let truth = TabularMrf::checkerboard_truth(4, 4, 2);
        assert_eq!(field.disagreement(&truth), 0.0);
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn rejects_mismatched_field() {
        let model = TabularMrf::checkerboard(4, 4, 2, 1.0, DistanceFn::Binary, 1.0);
        let mut field = LabelField::constant(Grid::new(5, 4), 2, 0);
        belief_propagation(&model, &mut field, 1);
    }
}
