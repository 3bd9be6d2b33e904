//! Integration tests for active-site sweep scheduling: the worklist
//! semantics (a sweep visits exactly the sites the previous sweep
//! flipped or neighboured), the solver-level wiring of those semantics,
//! and the determinism contract — bit-identical fields across thread
//! counts with scheduling enabled.

use mrf::{
    ActiveSet, DistanceFn, Grid, LabelField, MrfModel, NumericPolicy, ParallelSweepSolver,
    Schedule, SoftwareGibbs, SweepObserver, SweepSolver, TabularMrf,
};
use proptest::prelude::*;
use rand::SeedableRng;
use sampling::Xoshiro256pp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The worklist after a sweep is *exactly* the flipped sites and
    /// their lattice neighbours — no more, no fewer — for arbitrary
    /// grids and flip sequences (duplicates included), compared against
    /// an independent brute-force reconstruction.
    #[test]
    fn prop_next_sweep_visits_exactly_flips_and_neighbours(
        width in 1usize..12,
        height in 1usize..12,
        raw_flips in proptest::collection::vec(0usize..4096, 0..40),
    ) {
        let grid = Grid::new(width, height);
        let flips: Vec<usize> = raw_flips.iter().map(|&r| r % grid.len()).collect();
        let mut set = ActiveSet::all_active(grid.len());
        for &site in &flips {
            set.mark_flip(&grid, site);
        }
        set.advance();
        let mut expect = vec![false; grid.len()];
        for &site in &flips {
            expect[site] = true;
            for n in grid.neighbors(site) {
                expect[n] = true;
            }
        }
        prop_assert_eq!(set.mask(), &expect[..]);
    }
}

/// Records every accepted flip and every active-sweep report the solver
/// emits, so the test can replay the worklist rule independently.
#[derive(Default)]
struct ActiveAudit {
    flips: Vec<Vec<usize>>,
    active: Vec<(usize, u64, u64)>,
}

impl SweepObserver for ActiveAudit {
    fn wants_site_updates(&self) -> bool {
        true
    }

    fn on_site_update(&mut self, iteration: usize, site: usize, _old: u16, _new: u16) {
        while self.flips.len() <= iteration {
            self.flips.push(Vec::new());
        }
        self.flips[iteration].push(site);
    }

    fn on_active_sweep(&mut self, iteration: usize, visited: u64, skipped: u64) {
        self.active.push((iteration, visited, skipped));
    }
}

/// Solver-level form of the worklist property: for every sweep, the
/// visited count the engine reports equals the size of the
/// flipped-or-neighboured set of the *previous* sweep, reconstructed
/// from the observer's flip stream — and visited + skipped always
/// covers the grid. Checked on both engines (the parallel one at a
/// thread count that forces multi-band merging).
#[test]
fn solver_visited_counts_match_brute_force_worklist() {
    let model = TabularMrf::checkerboard(10, 9, 3, 4.0, DistanceFn::Binary, 0.4);
    let grid = model.grid();
    let schedule = Schedule::geometric(2.5, 0.85, 0.1);
    let iterations = 25;

    let sequential = {
        let mut audit = ActiveAudit::default();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut field = LabelField::random(grid, model.num_labels(), &mut rng);
        SweepSolver::new(&model)
            .schedule(schedule)
            .iterations(iterations)
            .active_sites(true)
            .observer(&mut audit)
            .run(&mut field, &mut SoftwareGibbs::new(), &mut rng);
        audit
    };
    let parallel = {
        let mut audit = ActiveAudit::default();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut field = LabelField::random(grid, model.num_labels(), &mut rng);
        ParallelSweepSolver::new(&model)
            .schedule(schedule)
            .iterations(iterations)
            .threads(3)
            .seed(11)
            .active_sites(true)
            .observer(&mut audit)
            .run(&mut field, &SoftwareGibbs::new());
        audit
    };

    for (engine, audit) in [("sequential", sequential), ("parallel", parallel)] {
        assert_eq!(audit.active.len(), iterations, "{engine}");
        assert_eq!(audit.active[0], (0, grid.len() as u64, 0), "{engine}");
        for window in audit.active.windows(2) {
            let (prev_iter, _, _) = window[0];
            let (iter, visited, skipped) = window[1];
            assert_eq!(iter, prev_iter + 1, "{engine}");
            assert_eq!(visited + skipped, grid.len() as u64, "{engine} iter {iter}");
            let mut expect = vec![false; grid.len()];
            for &site in audit.flips.get(prev_iter).map_or(&[][..], |v| v) {
                expect[site] = true;
                for n in grid.neighbors(site) {
                    expect[n] = true;
                }
            }
            let count = expect.iter().filter(|&&b| b).count() as u64;
            assert_eq!(
                visited, count,
                "{engine} iter {iter}: engine visited {visited}, worklist rule says {count}"
            );
        }
    }
}

/// Thread-count invariance with scheduling on: per-band flip lists are
/// merged into one worklist whose contents cannot depend on the band
/// partition, so 1, 2 and 7 threads produce bit-identical fields and
/// reports (including the final worklist mask), under both numeric
/// policies.
#[test]
fn active_parallel_is_thread_count_invariant() {
    for numeric in [NumericPolicy::Exact, NumericPolicy::Fast] {
        let model = TabularMrf::checkerboard(13, 11, 4, 5.0, DistanceFn::Absolute, 0.6);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let init = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        let solve = |threads: usize| {
            let mut field = init.clone();
            let report = ParallelSweepSolver::new(&model)
                .schedule(Schedule::geometric(3.0, 0.9, 0.05))
                .iterations(40)
                .threads(threads)
                .seed(21)
                .numeric(numeric)
                .active_sites(true)
                .run(&mut field, &SoftwareGibbs::new());
            (field, report)
        };
        let (base_field, base_report) = solve(1);
        assert!(
            base_report.active_sites.is_some(),
            "active run must report its worklist"
        );
        for threads in [2, 7] {
            let (field, report) = solve(threads);
            assert_eq!(
                field.as_slice(),
                base_field.as_slice(),
                "{numeric:?} {threads} threads"
            );
            assert_eq!(report, base_report, "{numeric:?} {threads} threads");
        }
    }
}

/// With scheduling disabled the report carries no worklist, and the
/// solver output is byte-identical to the pre-scheduling behaviour of
/// the same seed (guarded more broadly by the observer-identity and
/// fused-kernel suites; this pins the report surface).
#[test]
fn inactive_runs_report_no_worklist() {
    let model = TabularMrf::checkerboard(6, 6, 3, 4.0, DistanceFn::Binary, 0.4);
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
    let report =
        SweepSolver::new(&model)
            .iterations(5)
            .run(&mut field, &mut SoftwareGibbs::new(), &mut rng);
    assert_eq!(report.active_sites, None);
}
