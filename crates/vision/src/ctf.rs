//! Coarse-to-fine motion estimation (the image-pyramid method of
//! §III-D2).
//!
//! The RSU-G caps the per-variable label count at 64, so a 7×7 window
//! only reaches ±3 px of motion. "Larger search windows can be obtained
//! using an image pyramid method": estimate on a downsampled pair,
//! upsample the flow, warp the second frame by it and estimate the
//! residual at the next finer level. Each level stays within the 49-label
//! budget, so the whole procedure runs on the RSU-G unchanged.

use crate::error::VisionError;
use crate::image::GrayImage;
use crate::motion::MotionModel;
use crate::pyramid::Pyramid;
use mrf::{LabelField, MrfModel, Schedule, SiteSampler, SweepSolver};
use rand::Rng;

/// Configuration for the coarse-to-fine solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseToFine {
    /// Per-level MRF search window (odd, ≥ 3; 7 keeps within the RSU-G's
    /// 64-label limit).
    pub window: usize,
    /// Pyramid levels (1 = plain single-level estimation).
    pub levels: usize,
    /// Data-term weight.
    pub data_weight: f64,
    /// Smoothness weight.
    pub smooth_weight: f64,
    /// MCMC iterations per level.
    pub iterations: usize,
    /// Annealing schedule applied at every level.
    pub schedule: Schedule,
}

impl CoarseToFine {
    /// A reasonable default: 7×7 window, 3 levels (±21 px reach).
    pub fn new(levels: usize) -> Self {
        CoarseToFine {
            window: 7,
            levels,
            data_weight: 0.004,
            smooth_weight: 1.2,
            iterations: 80,
            schedule: Schedule::geometric(40.0, 0.93, 0.4),
        }
    }

    /// Total motion radius reachable at the finest level.
    pub fn reach(&self) -> usize {
        (self.window / 2) * ((1usize << self.levels) - 1)
    }

    /// Estimates dense flow from `frame1` to `frame2` with any site
    /// sampler (software Gibbs or an RSU-G).
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors (bad window/weights or
    /// frames too small for the coarsest level), tagged with the
    /// pyramid level that failed
    /// ([`VisionError::PyramidLevel`]).
    pub fn solve<S, R>(
        &self,
        frame1: &GrayImage,
        frame2: &GrayImage,
        sampler: &mut S,
        rng: &mut R,
    ) -> Result<Vec<(isize, isize)>, VisionError>
    where
        S: SiteSampler,
        R: Rng + ?Sized,
    {
        if frame1.width() != frame2.width() || frame1.height() != frame2.height() {
            return Err(VisionError::DimensionMismatch {
                a: (frame1.width(), frame1.height()),
                b: (frame2.width(), frame2.height()),
            });
        }
        let pyr1 = Pyramid::new(frame1, self.levels);
        let pyr2 = Pyramid::new(frame2, self.levels);
        let levels = pyr1.len().min(pyr2.len());
        // Start at the coarsest level with zero flow.
        let coarsest = &pyr1.levels()[levels - 1];
        let mut flow: Vec<(isize, isize)> = vec![(0, 0); coarsest.width() * coarsest.height()];
        for level in (0..levels).rev() {
            let f1 = &pyr1.levels()[level];
            let f2 = &pyr2.levels()[level];
            if level < levels - 1 {
                flow = pyr1.upsample_flow(&flow, level + 1);
            }
            // Warp frame 2 backwards by the current estimate so the model
            // only needs to find the residual motion.
            let warped = warp_by_flow(f2, &flow);
            let model = MotionModel::new(
                f1,
                &warped,
                self.window,
                self.data_weight,
                self.smooth_weight,
            )
            .map_err(|e| e.at_pyramid_level(level))?;
            let mut field = LabelField::random(model.grid(), model.num_labels(), rng);
            SweepSolver::new(&model)
                .schedule(self.schedule)
                .iterations(self.iterations)
                .run(&mut field, sampler, rng);
            for (site, entry) in flow.iter_mut().enumerate() {
                let (dx, dy) = model.label_to_flow(field.get(site));
                entry.0 += dx;
                entry.1 += dy;
            }
        }
        Ok(flow)
    }
}

/// Backward-warps an image by a dense flow: `out(x, y) = img(x + u, y + v)`
/// with border clamping, so residual estimation against `out` measures
/// motion *beyond* the current estimate.
pub fn warp_by_flow(img: &GrayImage, flow: &[(isize, isize)]) -> GrayImage {
    assert_eq!(flow.len(), img.width() * img.height(), "flow size mismatch");
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        let (u, v) = flow[y * img.width() + x];
        img.get_clamped(x as isize + u, y as isize + v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrf::SoftwareGibbs;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    /// Smooth aperiodic texture: bilinear interpolation of hashed
    /// lattice values (period-free, so coarse levels stay unambiguous).
    fn textured(width: usize, height: usize) -> GrayImage {
        fn hash(x: i64, y: i64) -> f32 {
            let mut h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            (h & 0xFFFF) as f32 / 65535.0
        }
        let cell = 5.0f32;
        GrayImage::from_fn(width, height, |x, y| {
            let fx = x as f32 / cell;
            let fy = y as f32 / cell;
            let (ix, iy) = (fx.floor() as i64, fy.floor() as i64);
            let (tx, ty) = (fx - ix as f32, fy - iy as f32);
            let v00 = hash(ix, iy);
            let v10 = hash(ix + 1, iy);
            let v01 = hash(ix, iy + 1);
            let v11 = hash(ix + 1, iy + 1);
            let top = v00 + (v10 - v00) * tx;
            let bot = v01 + (v11 - v01) * tx;
            30.0 + 200.0 * (top + (bot - top) * ty)
        })
    }

    fn translated(img: &GrayImage, dx: isize, dy: isize) -> GrayImage {
        GrayImage::from_fn(img.width(), img.height(), |x, y| {
            img.get_clamped(x as isize - dx, y as isize - dy)
        })
    }

    #[test]
    fn warp_inverts_translation() {
        let img = textured(16, 16);
        let moved = translated(&img, 2, -1);
        let flow = vec![(2isize, -1isize); 256];
        let back = warp_by_flow(&moved, &flow);
        // Interior pixels recover the original exactly.
        for y in 3..13 {
            for x in 3..13 {
                assert_eq!(back.get(x, y), img.get(x, y), "({x},{y})");
            }
        }
    }

    #[test]
    fn reach_formula() {
        assert_eq!(CoarseToFine::new(1).reach(), 3);
        assert_eq!(CoarseToFine::new(2).reach(), 9);
        assert_eq!(CoarseToFine::new(3).reach(), 21);
    }

    #[test]
    fn recovers_motion_beyond_single_level_reach() {
        // Global translation (5, -4): outside the ±3 single-level window
        // but inside the 2-level reach of ±9.
        let f1 = textured(48, 48);
        let f2 = translated(&f1, 5, -4);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let ctf = CoarseToFine::new(2);
        let flow = ctf
            .solve(&f1, &f2, &mut SoftwareGibbs::new(), &mut rng)
            .unwrap();
        // Count interior pixels that recovered the exact motion.
        let mut hits = 0usize;
        let mut total = 0usize;
        for y in 8..40 {
            for x in 8..40 {
                total += 1;
                if flow[y * 48 + x] == (5, -4) {
                    hits += 1;
                }
            }
        }
        let frac = hits as f64 / total as f64;
        assert!(frac > 0.7, "recovered only {frac} of interior pixels");
    }

    #[test]
    fn single_level_fails_on_large_motion() {
        let f1 = textured(48, 48);
        let f2 = translated(&f1, 5, -4);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let ctf = CoarseToFine::new(1);
        let flow = ctf
            .solve(&f1, &f2, &mut SoftwareGibbs::new(), &mut rng)
            .unwrap();
        let hits = (8..40)
            .flat_map(|y| (8..40).map(move |x| (x, y)))
            .filter(|&(x, y)| flow[y * 48 + x] == (5, -4))
            .count();
        assert_eq!(hits, 0, "±3 window cannot represent (5, -4)");
    }

    #[test]
    fn rejects_mismatched_frames() {
        let f1 = textured(16, 16);
        let f2 = textured(17, 16);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert!(CoarseToFine::new(2)
            .solve(&f1, &f2, &mut SoftwareGibbs::new(), &mut rng)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "flow size mismatch")]
    fn warp_rejects_wrong_flow_size() {
        warp_by_flow(&textured(4, 4), &[(0, 0); 3]);
    }

    #[test]
    fn failed_level_solve_reports_the_pyramid_level() {
        use crate::error::VisionError;
        // 12×12 at two levels downsamples to 6×6, smaller than the 9×9
        // window, so the coarsest level (index 1) must fail — and say so.
        let f1 = textured(12, 12);
        let f2 = translated(&f1, 1, 0);
        let mut ctf = CoarseToFine::new(2);
        ctf.window = 9;
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let err = ctf
            .solve(&f1, &f2, &mut SoftwareGibbs::new(), &mut rng)
            .unwrap_err();
        match err {
            VisionError::PyramidLevel { level, ref source } => {
                assert_eq!(level, 1);
                assert!(matches!(
                    **source,
                    VisionError::InvalidParameter { name: "window", .. }
                ));
            }
            other => panic!("expected PyramidLevel, got {other}"),
        }
    }
}
