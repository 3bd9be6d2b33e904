//! α-expansion Graph Cuts (Boykov, Veksler & Zabih): the deterministic
//! energy-minimisation baseline the paper benchmarks stereo MCMC against
//! ("very close to quality of Graph Cuts algorithms", §III-B).
//!
//! Each expansion move fixes a candidate label `α` and solves a binary
//! problem — every site either keeps its label or switches to `α` — as a
//! minimum cut (Kolmogorov–Zabih construction). Moves require the
//! pairwise term to be a *metric*; of the paper's three distance
//! functions, absolute and binary qualify, squared does not (the solver
//! rejects it).

use crate::energy::DistanceFn;
use crate::field::LabelField;
use crate::maxflow::FlowNetwork;
use crate::model::{Label, MrfModel};
use crate::solver::total_energy;
use std::error::Error;
use std::fmt;

/// Error raised when α-expansion cannot be applied to a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphCutError {
    /// The pairwise term violates the triangle inequality somewhere, so
    /// expansion moves are not representable as a cut.
    NonMetricPairwise,
}

impl fmt::Display for GraphCutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphCutError::NonMetricPairwise => {
                write!(f, "alpha-expansion requires a metric pairwise term")
            }
        }
    }
}

impl Error for GraphCutError {}

/// Whether a distance function is a metric on the label set (triangle
/// inequality holds), making it safe for expansion moves.
pub fn distance_is_metric(distance: DistanceFn) -> bool {
    match distance {
        DistanceFn::Absolute | DistanceFn::Binary => true,
        DistanceFn::Squared => false,
    }
}

/// Report of one α-expansion run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionReport {
    /// Full passes over the label set executed.
    pub passes: u32,
    /// Total expansion moves that changed at least one site.
    pub successful_moves: u32,
    /// Energy before the run.
    pub initial_energy: f64,
    /// Energy after convergence.
    pub final_energy: f64,
}

/// Minimises a metric MRF by α-expansion, mutating `field` in place
/// until a full pass over all labels yields no energy decrease.
///
/// # Errors
///
/// Returns [`GraphCutError::NonMetricPairwise`] if the model's pairwise
/// term violates the triangle inequality on any clique encountered.
///
/// # Example
///
/// ```
/// use mrf::{alpha_expansion, DistanceFn, LabelField, MrfModel, TabularMrf};
///
/// let model = TabularMrf::checkerboard(8, 8, 3, 5.0, DistanceFn::Binary, 0.3);
/// let mut field = LabelField::constant(model.grid(), 3, 0);
/// let report = alpha_expansion(&model, &mut field)?;
/// assert!(report.final_energy <= report.initial_energy);
/// # Ok::<(), mrf::GraphCutError>(())
/// ```
pub fn alpha_expansion<M: MrfModel>(
    model: &M,
    field: &mut LabelField,
) -> Result<ExpansionReport, GraphCutError> {
    let initial_energy = total_energy(model, field);
    let mut current_energy = initial_energy;
    let mut passes = 0u32;
    let mut successful_moves = 0u32;
    loop {
        passes += 1;
        let mut improved = false;
        for alpha in 0..model.num_labels() as Label {
            let moved = expansion_move(model, field, alpha)?;
            if moved {
                let e = total_energy(model, field);
                if e < current_energy - 1e-9 {
                    current_energy = e;
                    successful_moves += 1;
                    improved = true;
                } // else: numerically neutral move, accept silently
            }
        }
        if !improved {
            break;
        }
    }
    Ok(ExpansionReport {
        passes,
        successful_moves,
        initial_energy,
        final_energy: current_energy,
    })
}

/// Performs one expansion move for label `alpha`; returns whether any
/// site changed.
fn expansion_move<M: MrfModel>(
    model: &M,
    field: &mut LabelField,
    alpha: Label,
) -> Result<bool, GraphCutError> {
    let grid = model.grid();
    let n = grid.len();
    // Node layout: 0..n = sites, n = source ("take alpha"), n+1 = sink
    // ("keep current").
    let source = n;
    let sink = n + 1;
    let mut net = FlowNetwork::new(n + 2, source, sink);
    // Unary terms, expressed as terminal capacities:
    //   x_p = 1 (take alpha, source side)  pays D_p(alpha)  → edge p→t
    //   x_p = 0 (keep, sink side)          pays D_p(f_p)    → edge s→p
    // (an s→p edge is cut exactly when p ends on the sink side, i.e.
    // x_p = 0 — matching `in_source_side` = "take alpha".)
    let mut extra_to_source = vec![0.0f64; n];
    let mut extra_to_sink = vec![0.0f64; n];
    for p in 0..n {
        extra_to_source[p] += model.singleton(p, field.get(p));
        extra_to_sink[p] += model.singleton(p, alpha);
    }
    // Pairwise terms via the Kolmogorov–Zabih decomposition. For the
    // binary move variables (x=1 ⇔ take alpha):
    //   A = V(f_p, f_q)   (0,0)
    //   B = V(f_p, α)     (0,1)
    //   C = V(α, f_q)     (1,0)
    //   D = V(α, α) = 0   (1,1)
    for p in 0..n {
        for q in grid.neighbors(p) {
            if q <= p {
                continue;
            }
            let fp = field.get(p);
            let fq = field.get(q);
            let a = model.pairwise(p, q, fp, fq);
            let b = model.pairwise(p, q, fp, alpha);
            let c = model.pairwise(p, q, alpha, fq);
            let d = model.pairwise(p, q, alpha, alpha);
            let slack = b + c - a - d;
            if slack < -1e-9 {
                return Err(GraphCutError::NonMetricPairwise);
            }
            // Decompose: E_pq = const + c1·[x_p=0] + c2·[x_q=1] + slack·[x_p=1, x_q=0]
            // with c1 = A − C ... use the standard additive split:
            //   θ_p(1) += C − D;  θ_q(1) += D... Simplest correct split:
            //   pay (C − D) when x_p = 1            → p→t? No: x_p = 1 is
            //   source side, paid by cutting p→t.
            // We account costs as: cost(x_p = 1) → capacity p→t (cut when
            // p is on the source side); cost(x_p = 0) → capacity s→p.
            // Split: A = cost when both keep; D = 0.
            //   E = A + (C − A)·x_p + (D − C)... to stay safe with signs,
            // use the symmetric decomposition for metric V:
            //   E_pq(x_p, x_q) = B·x_q·(1−x_p) + C·x_p·(1−x_q)
            //                  + A·(1−x_p)(1−x_q) + D·x_p·x_q
            // Rearranged into non-negative graph weights:
            //   edge p↔q with capacity slack/?; we use the classic BVZ
            //   triple for metric V with D = V(α,α):
            //   s→p ... Simpler and standard (Boykov et al. Fig. 4):
            //   t-link contributions: x_p=1 pays (C − D) ≥ 0? not
            //   guaranteed. Use the always-valid construction below.
            //
            // Always-valid construction for submodular binary energies:
            //   θ_p(0) += A;            (both-keep baseline on p's side)
            //   θ_q(1) += D;            (both-alpha baseline on q's side)
            //   n-link p→q with cap (B − A) + ... — to avoid sign
            // gymnastics we add FOUR capacities that are provably
            // non-negative for metric V with V(x,x) = 0:
            //   A = V(f_p,f_q) ≥ 0, B, C ≥ 0, D = 0:
            //   s-side: nothing; encode E_pq directly:
            //     cap(p→q) = B + C − A − D (≥ 0, submodular slack),
            //     θ_p(1) += C − D = C, θ_p(0) += A... but A belongs to the
            //     pair, attribute it to p: θ_p(0) += A − ? ...
            // Final, verified algebra (see unit test
            // `pairwise_decomposition_is_exact`):
            //   E_pq = D·x_p + (A − D)·(1−x_p) ... no.
            //
            // Use: E_pq = A·(1−x_p)(1−x_q) + B·(1−x_p)x_q + C·x_p(1−x_q)
            //            + D·x_p·x_q
            // = [C − D]·x_p(1−x_q) ... expand:
            // = A + (C − A)x_p + (B − A)x_q + (A + D − B − C)x_p x_q
            // With k = B + C − A − D ≥ 0:
            // = A + (C − A)x_p + (B − A)x_q − k·x_p·x_q
            // = A + (C − A)x_p + (B − A)x_q − k·x_q + k·x_q(1 − x_p)
            // = A + (C − A)x_p + (B − A − k)x_q + k·(1−x_p)x_q
            // B − A − k = D − C.
            // So: constant A; θ_p(1) += (C − A); θ_q(1) += (D − C);
            //     n-link with cap k cut when x_p = 0, x_q = 1, i.e. edge
            //     q→p... x_p = 0 is sink side, x_q = 1 source side: the
            //     cut edge runs source-side → sink-side: q→p with cap k.
            // Negative θ contributions are folded by adding to the
            // opposite terminal (shifting by a constant).
            add_signed_unary(&mut extra_to_sink, &mut extra_to_source, p, c - a);
            add_signed_unary(&mut extra_to_sink, &mut extra_to_source, q, d - c);
            net.add_edge(q, p, slack);
        }
    }
    for p in 0..n {
        // θ_p(1) (take alpha) accumulates in extra_to_sink[p] → cap p→t;
        // θ_p(0) (keep) in extra_to_source[p] → cap s→p.
        net.add_edge(source, p, extra_to_source[p]);
        net.add_edge(p, sink, extra_to_sink[p]);
    }
    net.max_flow();
    let mut changed = false;
    for p in 0..n {
        if net.in_source_side(p) && field.get(p) != alpha {
            field.set(p, alpha);
            changed = true;
        }
    }
    Ok(changed)
}

/// Adds a signed unary cost for `x_p = 1`: positive values charge the
/// take-alpha side, negative values are equivalent (up to a constant) to
/// charging the keep side.
fn add_signed_unary(to_sink: &mut [f64], to_source: &mut [f64], p: usize, theta1: f64) {
    if theta1 >= 0.0 {
        to_sink[p] += theta1;
    } else {
        to_source[p] += -theta1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TabularMrf;
    use crate::solver::{solve, IcmSampler};
    use crate::Schedule;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    #[test]
    fn metric_classification() {
        assert!(distance_is_metric(DistanceFn::Absolute));
        assert!(distance_is_metric(DistanceFn::Binary));
        assert!(!distance_is_metric(DistanceFn::Squared));
    }

    /// Exhaustive check that one expansion move finds the optimal binary
    /// labelling on a tiny problem (compare against brute force).
    #[test]
    fn expansion_move_is_optimal_on_binary_problems() {
        let grid = crate::Grid::new(3, 2);
        for seed in 0..20u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            use rand::Rng;
            let singleton: Vec<f64> = (0..grid.len() * 2)
                .map(|_| rng.gen_range(0.0..5.0))
                .collect();
            let model = TabularMrf::new(
                grid,
                2,
                singleton,
                DistanceFn::Binary,
                rng.gen_range(0.0..2.0),
            );
            let mut field = LabelField::constant(grid, 2, 0);
            alpha_expansion(&model, &mut field).unwrap();
            let got = total_energy(&model, &field);
            // Brute force over 2^6 labellings.
            let mut best = f64::INFINITY;
            for mask in 0..(1u32 << grid.len()) {
                let labels: Vec<Label> = (0..grid.len())
                    .map(|i| ((mask >> i) & 1) as Label)
                    .collect();
                let f = LabelField::from_labels(grid, 2, labels);
                best = best.min(total_energy(&model, &f));
            }
            assert!(
                (got - best).abs() < 1e-9,
                "seed {seed}: expansion {got} vs optimum {best}"
            );
        }
    }

    #[test]
    fn expansion_never_increases_energy() {
        let model = TabularMrf::checkerboard(10, 10, 4, 3.0, DistanceFn::Absolute, 0.5);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut field = LabelField::random(model.grid(), 4, &mut rng);
        let report = alpha_expansion(&model, &mut field).unwrap();
        assert!(report.final_energy <= report.initial_energy);
        assert!((report.final_energy - total_energy(&model, &field)).abs() < 1e-9);
    }

    #[test]
    fn expansion_beats_or_matches_icm() {
        let model = TabularMrf::checkerboard(12, 12, 5, 4.0, DistanceFn::Absolute, 0.6);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let start = LabelField::random(model.grid(), 5, &mut rng);
        let mut f_gc = start.clone();
        let mut f_icm = start;
        alpha_expansion(&model, &mut f_gc).unwrap();
        let mut icm = IcmSampler::new();
        solve(
            &model,
            &mut f_icm,
            &mut icm,
            Schedule::constant(1.0),
            30,
            &mut rng,
        );
        assert!(
            total_energy(&model, &f_gc) <= total_energy(&model, &f_icm) + 1e-9,
            "graph cuts {} vs ICM {}",
            total_energy(&model, &f_gc),
            total_energy(&model, &f_icm)
        );
    }

    #[test]
    fn expansion_recovers_strong_checkerboard() {
        let model = TabularMrf::checkerboard(8, 8, 3, 10.0, DistanceFn::Binary, 0.2);
        let mut field = LabelField::constant(model.grid(), 3, 1);
        alpha_expansion(&model, &mut field).unwrap();
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert_eq!(field.disagreement(&truth), 0.0);
    }

    #[test]
    fn squared_distance_is_rejected_when_triangle_inequality_breaks() {
        // Squared distance violates the metric property as soon as a
        // move would interpolate between two labels two apart:
        // V(0,2) = 4 > V(0,1) + V(1,2) = 2. Build a field where labels
        // 0 and 2 are adjacent so the α = 1 move hits the violation.
        let grid = crate::Grid::new(2, 1);
        // Strong singletons pin site 0 at label 0 and site 1 at label 2,
        // so the configuration survives the α = 0 move and the α = 1
        // move must face the violated triangle inequality.
        let model = TabularMrf::new(
            grid,
            3,
            vec![0.0, 100.0, 100.0, 100.0, 100.0, 0.0],
            DistanceFn::Squared,
            1.0,
        );
        let mut field = LabelField::from_labels(grid, 3, vec![0, 2]);
        assert_eq!(
            alpha_expansion(&model, &mut field),
            Err(GraphCutError::NonMetricPairwise)
        );
    }

    /// The algebraic decomposition used in `expansion_move` must
    /// reproduce E_pq exactly for all four binary configurations.
    #[test]
    fn pairwise_decomposition_is_exact() {
        // For arbitrary metric-consistent A, B, C, D with slack >= 0:
        // E = A + (C−A)·x_p + (D−C)·x_q + k·(1−x_p)·x_q, k = B+C−A−D.
        let cases = [
            (0.0, 2.0, 3.0, 0.0),
            (1.0, 2.0, 2.5, 0.0),
            (0.5, 0.5, 0.5, 0.0),
            (2.0, 3.0, 4.0, 1.0),
        ];
        for (a, b, c, d) in cases {
            let k: f64 = b + c - a - d;
            assert!(k >= 0.0);
            for xp in [0.0, 1.0] {
                for xq in [0.0, 1.0] {
                    let direct = a * (1.0 - xp) * (1.0 - xq)
                        + b * (1.0 - xp) * xq
                        + c * xp * (1.0 - xq)
                        + d * xp * xq;
                    let decomposed = a + (c - a) * xp + (d - c) * xq + k * (1.0 - xp) * xq;
                    assert!(
                        (direct - decomposed).abs() < 1e-12,
                        "A={a} B={b} C={c} D={d} xp={xp} xq={xq}: {direct} vs {decomposed}"
                    );
                }
            }
        }
    }
}
