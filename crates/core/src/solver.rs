//! Iterative reference solver for the relaxed optimization problem.
//!
//! The paper notes that the original constrained problem (Eq. 7) needs
//! iterative solvers that are far too slow for real time, and that the
//! relaxed problem (Eq. 8c — minimize the per-tile range along one axis
//! subject to each color staying inside its ellipsoid) admits an analytical
//! solution. This module implements a straightforward projected-subgradient
//! solver for the relaxed problem. It exists purely as a cross-check: tests
//! assert that the analytical solution of [`crate::adjust`] is never worse
//! than what the iterative solver finds, which is strong evidence the
//! closed form is optimal (as proved in Sec. 3.3).

use pvc_color::{DiscriminationEllipsoid, DklColor, LinearRgb, RgbAxis};

/// Projected-subgradient solver for
/// `min max_i(p_i[axis]) − min_i(p_i[axis])` subject to `p_i ∈ E_i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeSolver {
    /// Number of subgradient iterations.
    pub iterations: usize,
    /// Initial step size along the optimized axis, in linear RGB units.
    pub step: f64,
}

impl Default for IterativeSolver {
    fn default() -> Self {
        IterativeSolver {
            iterations: 400,
            step: 0.02,
        }
    }
}

impl IterativeSolver {
    /// Creates a solver with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero or `step` is not positive.
    pub fn new(iterations: usize, step: f64) -> Self {
        assert!(iterations > 0, "iteration count must be non-zero");
        assert!(step > 0.0, "step size must be positive");
        IterativeSolver { iterations, step }
    }

    /// Minimizes the axis range of a tile, starting from the original colors
    /// (the ellipsoid centers), and returns the adjusted colors.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` and `ellipsoids` have different lengths or are
    /// empty.
    pub fn minimize_axis_range(
        &self,
        pixels: &[LinearRgb],
        ellipsoids: &[DiscriminationEllipsoid],
        axis: RgbAxis,
    ) -> Vec<LinearRgb> {
        assert_eq!(
            pixels.len(),
            ellipsoids.len(),
            "one ellipsoid per pixel is required"
        );
        assert!(!pixels.is_empty(), "cannot optimize an empty tile");
        let mut colors = pixels.to_vec();
        let mut best = colors.clone();
        let mut best_range = axis_range(&colors, axis);
        let mut step = self.step;
        for _ in 0..self.iterations {
            let (max_idx, min_idx) = extreme_indices(&colors, axis);
            if max_idx == min_idx {
                break;
            }
            // Subgradient step: pull the extreme pixels toward each other.
            colors[max_idx] = project(
                colors[max_idx]
                    .with_channel(axis.index(), colors[max_idx].channel(axis.index()) - step),
                &ellipsoids[max_idx],
            );
            colors[min_idx] = project(
                colors[min_idx]
                    .with_channel(axis.index(), colors[min_idx].channel(axis.index()) + step),
                &ellipsoids[min_idx],
            );
            let range = axis_range(&colors, axis);
            if range < best_range {
                best_range = range;
                best = colors.clone();
            } else {
                step *= 0.97;
            }
        }
        best
    }

    /// The axis range achieved by [`Self::minimize_axis_range`].
    pub fn achieved_range(
        &self,
        pixels: &[LinearRgb],
        ellipsoids: &[DiscriminationEllipsoid],
        axis: RgbAxis,
    ) -> f64 {
        axis_range(&self.minimize_axis_range(pixels, ellipsoids, axis), axis)
    }
}

/// Range (max − min) of the given channel over a set of colors.
pub fn axis_range(colors: &[LinearRgb], axis: RgbAxis) -> f64 {
    let values = colors.iter().map(|c| c.channel(axis.index()));
    let max = values.clone().fold(f64::NEG_INFINITY, f64::max);
    let min = values.fold(f64::INFINITY, f64::min);
    max - min
}

fn extreme_indices(colors: &[LinearRgb], axis: RgbAxis) -> (usize, usize) {
    let mut max_idx = 0;
    let mut min_idx = 0;
    for (i, c) in colors.iter().enumerate() {
        if c.channel(axis.index()) > colors[max_idx].channel(axis.index()) {
            max_idx = i;
        }
        if c.channel(axis.index()) < colors[min_idx].channel(axis.index()) {
            min_idx = i;
        }
    }
    (max_idx, min_idx)
}

/// Retracts a candidate color back inside its ellipsoid by shrinking its
/// offset from the center (a feasible, though not orthogonal, projection).
fn project(candidate: LinearRgb, ellipsoid: &DiscriminationEllipsoid) -> LinearRgb {
    let distance = ellipsoid.normalized_distance_rgb(candidate);
    if distance <= 1.0 {
        return candidate;
    }
    let center = ellipsoid.center_dkl().to_vec3();
    let offset = DklColor::from_linear_rgb(candidate).to_vec3() - center;
    let scaled = offset * (1.0 / distance.sqrt());
    DklColor::from_vec3(center + scaled).to_linear_rgb()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::reference::adjust_tile_along_axis;
    use pvc_color::{DiscriminationModel, SyntheticDiscriminationModel};

    fn tile_and_ellipsoids(ecc: f64) -> (Vec<LinearRgb>, Vec<DiscriminationEllipsoid>) {
        let model = SyntheticDiscriminationModel::default();
        let pixels: Vec<LinearRgb> = (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.35 + 0.05 * t, 0.45 + 0.04 * t, 0.3 + 0.06 * t)
            })
            .collect();
        let ellipsoids = pixels.iter().map(|&p| model.ellipsoid(p, ecc)).collect();
        (pixels, ellipsoids)
    }

    #[test]
    fn projection_keeps_points_feasible() {
        let model = SyntheticDiscriminationModel::default();
        let center = LinearRgb::new(0.5, 0.5, 0.5);
        let ellipsoid = model.ellipsoid(center, 20.0);
        let far = LinearRgb::new(0.9, 0.1, 0.9);
        let projected = project(far, &ellipsoid);
        assert!(ellipsoid.contains_rgb(projected, 1e-9));
        // Points already inside are untouched.
        assert_eq!(project(center, &ellipsoid), center);
    }

    #[test]
    fn solver_never_leaves_the_ellipsoids() {
        let (pixels, ellipsoids) = tile_and_ellipsoids(20.0);
        let solver = IterativeSolver::default();
        let solution = solver.minimize_axis_range(&pixels, &ellipsoids, RgbAxis::Blue);
        for (p, e) in solution.iter().zip(&ellipsoids) {
            assert!(e.contains_rgb(*p, 1e-6));
        }
    }

    #[test]
    fn solver_reduces_the_range() {
        let (pixels, ellipsoids) = tile_and_ellipsoids(25.0);
        let solver = IterativeSolver::default();
        let achieved = solver.achieved_range(&pixels, &ellipsoids, RgbAxis::Blue);
        assert!(achieved < axis_range(&pixels, RgbAxis::Blue));
    }

    #[test]
    fn analytical_solution_is_at_least_as_good_as_iterative() {
        for ecc in [5.0, 15.0, 30.0] {
            let (pixels, ellipsoids) = tile_and_ellipsoids(ecc);
            let solver = IterativeSolver::default();
            for axis in [RgbAxis::Blue, RgbAxis::Red] {
                let iterative = solver.achieved_range(&pixels, &ellipsoids, axis);
                let analytical = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                let analytical_range = axis_range(&analytical.adjusted, axis);
                assert!(
                    analytical_range <= iterative + 1e-6,
                    "ecc {ecc}, axis {axis}: analytical {analytical_range} vs iterative {iterative}"
                );
            }
        }
    }

    #[test]
    fn analytical_residual_matches_hl_minus_lh_in_case_one() {
        // Force case 1 with a wide spread of colors at low eccentricity.
        let model = SyntheticDiscriminationModel::default();
        let pixels: Vec<LinearRgb> = (0..8)
            .map(|i| {
                let t = f64::from(i) / 7.0;
                LinearRgb::new(0.2 + 0.5 * t, 0.3 + 0.3 * t, 0.2 + 0.6 * t)
            })
            .collect();
        let ellipsoids: Vec<_> = pixels.iter().map(|&p| model.ellipsoid(p, 3.0)).collect();
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, crate::adjust::AdjustmentCase::NoCommonPlane);
        let achieved = axis_range(&result.adjusted, RgbAxis::Blue);
        let lower_bound = result.hl - result.lh;
        assert!(achieved <= lower_bound + 1e-9);
        assert!(
            achieved >= lower_bound - 1e-6,
            "achieved {achieved} vs bound {lower_bound}"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_solver_parameters_panic() {
        let _ = IterativeSolver::new(0, 0.1);
    }
}
