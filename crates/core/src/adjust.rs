//! The per-tile perceptual color adjustment algorithm (Sec. 3.3–3.4).
//!
//! For every pixel of a tile the algorithm knows the discrimination
//! ellipsoid the adjusted color must stay inside. Along the chosen RGB axis
//! each ellipsoid has a highest point `H` and a lowest point `L` (its
//! *extrema*); across the tile the algorithm computes
//!
//! * `HL` — the **H**ighest of all the **L**owest points, and
//! * `LH` — the **L**owest of all the **H**ighest points.
//!
//! If `LH ≥ HL` (case 2, Fig. 6b) a plane exists that crosses every
//! ellipsoid; all colors are moved onto the average of the two planes and
//! the Δ along the axis collapses to zero. Otherwise (case 1, Fig. 6a)
//! colors above `HL` are pulled down to it and colors below `LH` are pulled
//! up to it, leaving a residual range of `HL − LH`, which is the smallest
//! range achievable without leaving the ellipsoids. Movement is always along
//! each pixel's own extrema vector, so the adjusted color stays inside its
//! ellipsoid by construction; an additional gamut clamp shortens the move if
//! it would leave `[0, 1]`.
//!
//! [`adjust_tile_with`] is the one kernel the encoder runs, over SoA lanes
//! of one tile at a time; [`reference`](mod@reference) keeps the scalar
//! per-pixel kernels it is pinned against.

use pvc_bdc::tile_codec::bits_for_range;
use pvc_color::lanes::{max_f64, min_f64};
use pvc_color::{
    dkl_to_rgb_matrix, linear_to_srgb8_min_max, DiscriminationEllipsoid, LinearRgb, Mat3, RgbAxis,
};
use pvc_frame::LinearTileLanes;

pub mod reference;

/// Which of the two geometric cases of Fig. 6 a tile fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdjustmentCase {
    /// Case 1 (`HL > LH`): no plane crosses every ellipsoid; a residual Δ of
    /// `HL − LH` remains along the optimized axis.
    NoCommonPlane,
    /// Case 2 (`HL ≤ LH`): a common plane exists and the Δ along the
    /// optimized axis collapses to zero.
    CommonPlane,
}

impl AdjustmentCase {
    /// Short label used in reports ("c1" / "c2" as in Fig. 12).
    pub fn label(self) -> &'static str {
        match self {
            AdjustmentCase::NoCommonPlane => "c1",
            AdjustmentCase::CommonPlane => "c2",
        }
    }
}

/// Per-axis SoA working buffers for the lane kernel.
///
/// Each `Vec` is one contiguous lane the 8-wide kernels stream over: the
/// per-pixel extrema direction components (`dir_*`), the low/high plane
/// values the HL/LH reduction consumes, and the candidate and best-so-far
/// output pixel lanes. All buffers are cleared, never shrunk, so the steady
/// state performs no allocation.
#[derive(Debug, Clone, Default)]
struct AdjustLanes {
    pixels: LinearTileLanes,
    dir_x: Vec<f64>,
    dir_y: Vec<f64>,
    dir_z: Vec<f64>,
    low: Vec<f64>,
    high: Vec<f64>,
    out: LinearTileLanes,
    best: LinearTileLanes,
}

impl AdjustLanes {
    /// Phase 1 (the Compute Extrema blocks of the CAU): writes every
    /// ellipsoid's extrema vector and low/high plane values along `axis`
    /// straight into the direction and plane-value lanes.
    ///
    /// `dkl_to_rgb` is fetched once per tile by the caller; each element is
    /// computed by [`DiscriminationEllipsoid::extrema_along_axis_with`], the
    /// same arithmetic as the per-ellipsoid `extrema_along_axis`.
    fn fill_extrema(
        &mut self,
        ellipsoids: &[DiscriminationEllipsoid],
        dkl_to_rgb: &Mat3,
        axis: RgbAxis,
    ) {
        let n = ellipsoids.len();
        for lane in [
            &mut self.dir_x,
            &mut self.dir_y,
            &mut self.dir_z,
            &mut self.low,
            &mut self.high,
        ] {
            lane.clear();
            lane.resize(n, 0.0);
        }
        let lanes = self
            .dir_x
            .iter_mut()
            .zip(&mut self.dir_y)
            .zip(&mut self.dir_z)
            .zip(&mut self.low)
            .zip(&mut self.high);
        for (ellipsoid, ((((dx, dy), dz), low), high)) in ellipsoids.iter().zip(lanes) {
            let extrema = ellipsoid.extrema_along_axis_with(dkl_to_rgb, axis);
            let d = extrema.extrema_vector();
            *dx = d.x;
            *dy = d.y;
            *dz = d.z;
            *low = extrema.low_value();
            *high = extrema.high_value();
        }
    }
}

/// Σ over channels of the per-Δ bit length × pixel count of a tile held in
/// SoA lanes, measured after sRGB quantization.
///
/// Each channel's code range comes from its `f64` min and max, quantized
/// once each ([`linear_to_srgb8_min_max`]): the quantizer is monotone, so
/// this equals quantizing every value, as the scalar
/// [`reference::delta_bit_cost`] does.
fn delta_bit_cost_lanes(lanes: &LinearTileLanes) -> u64 {
    let n = lanes.len() as u64;
    (0..3)
        .map(|channel| {
            let (min, max) = linear_to_srgb8_min_max(lanes.channel(channel));
            u64::from(bits_for_range(max - min)) * n
        })
        .sum()
}

/// The vectorized Phase 3 color shift: moves every pixel lane-wise toward
/// its target plane with a branch-free compute-then-select form of the
/// scalar reference's per-pixel move.
///
/// Every arithmetic operation matches the scalar path in value and order
/// (clamp to the chord, then the three-channel gamut walk in RGB order with
/// the limit chained through), so moved lanes produce bit-identical colors;
/// unmoved lanes (an in-range case-1 pixel, or a degenerate axis span) pass
/// the original pixel bits through the final select, which also discards
/// whatever the speculative arithmetic produced for them (including the
/// infinities and NaNs a near-zero span divides into).
fn lane_axis_adjust(
    pixels: &LinearTileLanes,
    dirs: (&[f64], &[f64], &[f64]),
    axis: RgbAxis,
    hl: f64,
    lh: f64,
    out: &mut LinearTileLanes,
) -> AdjustmentCase {
    let n = pixels.len();
    out.r.clear();
    out.r.resize(n, 0.0);
    out.g.clear();
    out.g.resize(n, 0.0);
    out.b.clear();
    out.b.resize(n, 0.0);
    let (px, py, pz) = (&pixels.r[..n], &pixels.g[..n], &pixels.b[..n]);
    let (dx, dy, dz) = (&dirs.0[..n], &dirs.1[..n], &dirs.2[..n]);
    let cur: &[f64] = match axis.index() {
        0 => px,
        1 => py,
        _ => pz,
    };
    let span: &[f64] = match axis.index() {
        0 => dx,
        1 => dy,
        _ => dz,
    };
    let common_plane = hl <= lh;
    let plane = 0.5 * (hl + lh);
    let (or_, og, ob) = (&mut out.r[..], &mut out.g[..], &mut out.b[..]);
    for i in 0..n {
        let value = cur[i];
        // Which plane this pixel moves toward, and whether it moves at all.
        let (target, wants_move) = if common_plane {
            (plane, true)
        } else {
            let target = if value > hl { hl } else { lh };
            (target, value > hl || value < lh)
        };
        let active = span[i].abs() > f64::EPSILON;
        let t0 = ((target - value) / span[i]).clamp(-0.5, 0.5);
        // clamp_step_to_gamut, unrolled with the limit chained in RGB order.
        let sign = t0.signum();
        let mut limit = t0.abs();
        for (d, o) in [(dx[i], px[i]), (dy[i], py[i]), (dz[i], pz[i])] {
            let d = d * sign;
            let room = if d > 0.0 {
                (1.0 - o) / d
            } else {
                (0.0 - o) / d
            };
            limit = if d.abs() > f64::EPSILON && room < limit {
                room.max(0.0)
            } else {
                limit
            };
        }
        let t = if t0 == 0.0 { 0.0 } else { limit * sign };
        let moved = wants_move && active;
        or_[i] = if moved { px[i] + dx[i] * t } else { px[i] };
        og[i] = if moved { py[i] + dy[i] * t } else { py[i] };
        ob[i] = if moved { pz[i] + dz[i] * t } else { pz[i] };
    }
    if common_plane {
        AdjustmentCase::CommonPlane
    } else {
        AdjustmentCase::NoCommonPlane
    }
}

/// Reusable buffers for per-tile adjustment: the tile's gathered pixels
/// and ellipsoids (filled by the caller) plus the SoA lanes and the
/// best-so-far pixel set the adjustment cycles through internally.
///
/// One scratch serves an unbounded stream of tiles: every buffer is
/// cleared, never shrunk, so after the first few tiles the hot loop of
/// [`adjust_tile_with`] performs no allocation at all. Per-frame encoding
/// threads one scratch per *worker* through the tile fan-out (see
/// `pvc_parallel::parallel_chunk_map_init`), and streaming sessions keep
/// one alive for their whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct AdjustScratch {
    /// The tile's pixels, gathered by the caller (row-major).
    pub pixels: Vec<LinearRgb>,
    /// One discrimination ellipsoid per pixel, built by the caller
    /// (`DiscriminationModel::ellipsoids_into`).
    pub ellipsoids: Vec<DiscriminationEllipsoid>,
    lanes: AdjustLanes,
    best: Vec<LinearRgb>,
}

impl AdjustScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        AdjustScratch::default()
    }

    /// The winning adjusted pixels of the most recent
    /// [`adjust_tile_with`] call.
    pub fn best(&self) -> &[LinearRgb] {
        &self.best
    }
}

/// The metadata of a scratch-based tile adjustment ([`adjust_tile_with`]);
/// the winning pixels themselves stay in the scratch's
/// [`best`](AdjustScratch::best) buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileAdjustOutcome {
    /// The winning axis.
    pub axis: RgbAxis,
    /// Which geometric case the winning attempt fell into.
    pub case: AdjustmentCase,
    /// The winning attempt's HL plane value.
    pub hl: f64,
    /// The winning attempt's LH plane value.
    pub lh: f64,
    /// Δ bit cost of the original (unadjusted) tile.
    pub original_cost: u64,
    /// Δ bit cost of the pixels left in the scratch's `best` buffer.
    pub adjusted_cost: u64,
}

/// Adjusts the tile held in `scratch` (its `pixels` / `ellipsoids`
/// buffers) by trying every candidate axis and keeping the attempt with
/// the smallest Δ bit cost. The winning pixels land in
/// [`AdjustScratch::best`]; only metadata is returned.
///
/// This is the lane kernel the encoder runs. The DKL→RGB matrix is
/// fetched once per tile and the tile is transposed into SoA lanes once;
/// every axis attempt then writes its extrema straight into lanes, reduces
/// HL/LH with the chunked reductions, moves the pixels lane-wise
/// (`lane_axis_adjust`) and costs the result from per-channel min/max
/// (`delta_bit_cost_lanes`). Only the winning lanes are scattered back to
/// AoS. Bit-identical to the scalar [`reference::adjust_tile`] on the same
/// inputs — the lanes only change where intermediate values live and the
/// order of order-independent reductions, never a single computed value.
/// Ties between axes resolve to the first axis tried, matching
/// `Iterator::min_by_key`.
///
/// # Panics
///
/// Panics if `axes` is empty, or if the scratch's `pixels` and
/// `ellipsoids` have different lengths or are empty.
pub fn adjust_tile_with(scratch: &mut AdjustScratch, axes: &[RgbAxis]) -> TileAdjustOutcome {
    assert!(
        !axes.is_empty(),
        "at least one optimization axis is required"
    );
    let AdjustScratch {
        pixels,
        ellipsoids,
        lanes,
        best,
    } = scratch;
    assert_eq!(
        pixels.len(),
        ellipsoids.len(),
        "one ellipsoid per pixel is required"
    );
    assert!(!pixels.is_empty(), "cannot adjust an empty tile");

    // Per-tile constants and the SoA transpose, once for every axis.
    let dkl_to_rgb = dkl_to_rgb_matrix();
    lanes.pixels.fill_from_pixels(pixels);
    let original_cost = delta_bit_cost_lanes(&lanes.pixels);
    let mut chosen: Option<TileAdjustOutcome> = None;
    for &axis in axes {
        // Phase 1: per-pixel extrema, straight into lanes.
        lanes.fill_extrema(ellipsoids, &dkl_to_rgb, axis);

        // Phase 2: HL / LH reduction (the Compute Planes blocks). The
        // chunked reductions visit values in a different order than a
        // scalar fold, which is harmless: f64 max/min are associative and
        // commutative over the non-NaN values extrema produce.
        let hl = max_f64(&lanes.low);
        let lh = min_f64(&lanes.high);

        // Phase 3: color shifts (the Color Shift blocks), lane-wise.
        let case = lane_axis_adjust(
            &lanes.pixels,
            (&lanes.dir_x, &lanes.dir_y, &lanes.dir_z),
            axis,
            hl,
            lh,
            &mut lanes.out,
        );
        let adjusted_cost = delta_bit_cost_lanes(&lanes.out);
        // Strict `<` keeps the first minimal axis, like min_by_key.
        if chosen.map_or(true, |c| adjusted_cost < c.adjusted_cost) {
            std::mem::swap(&mut lanes.out, &mut lanes.best);
            chosen = Some(TileAdjustOutcome {
                axis,
                case,
                hl,
                lh,
                original_cost,
                adjusted_cost,
            });
        }
    }
    let mut outcome = chosen.expect("axes is non-empty");
    // Never regress: if the adjustment does not help (e.g. everything was
    // clamped by the gamut), keep the original pixels.
    if outcome.adjusted_cost >= original_cost {
        best.clear();
        best.extend_from_slice(pixels);
        outcome.adjusted_cost = original_cost;
    } else {
        // Scatter the winning lanes back to AoS once per tile.
        lanes.best.scatter_into(best);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::reference::{adjust_tile, adjust_tile_along_axis, delta_bit_cost, AxisAdjustment};
    use super::*;
    use pvc_color::{DiscriminationModel, SyntheticDiscriminationModel};

    fn ellipsoids_for(pixels: &[LinearRgb], eccentricity: f64) -> Vec<DiscriminationEllipsoid> {
        let model = SyntheticDiscriminationModel::default();
        pixels
            .iter()
            .map(|&p| model.ellipsoid(p, eccentricity))
            .collect()
    }

    fn similar_tile() -> Vec<LinearRgb> {
        // A smooth tile: nearby colors, typical of rendered content.
        (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.42 + 0.01 * t, 0.5 + 0.008 * t, 0.35 + 0.012 * t)
            })
            .collect()
    }

    fn diverse_tile() -> Vec<LinearRgb> {
        (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.2 + 0.6 * t, 0.7 - 0.5 * t, 0.1 + 0.8 * t)
            })
            .collect()
    }

    #[test]
    fn adjusted_colors_stay_inside_ellipsoids() {
        for (pixels, ecc) in [(similar_tile(), 25.0), (diverse_tile(), 10.0)] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            for axis in [RgbAxis::Blue, RgbAxis::Red] {
                let result = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                for (adjusted, ellipsoid) in result.adjusted.iter().zip(&ellipsoids) {
                    assert!(
                        ellipsoid.contains_rgb(*adjusted, 1e-6),
                        "adjusted color left its ellipsoid (axis {axis})"
                    );
                }
            }
        }
    }

    #[test]
    fn adjusted_colors_stay_in_gamut() {
        // Colors near the gamut boundary must not be pushed outside [0, 1].
        let pixels: Vec<LinearRgb> = (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.002 * t, 0.998 + 0.002 * t, 0.001)
            })
            .collect();
        let ellipsoids = ellipsoids_for(&pixels, 30.0);
        let result = adjust_tile(&pixels, &ellipsoids, &[RgbAxis::Blue, RgbAxis::Red]);
        for p in result.adjusted_pixels() {
            assert!(p.in_gamut(1e-9), "adjusted color {p:?} out of gamut");
        }
    }

    #[test]
    fn axis_range_never_grows() {
        for (pixels, ecc) in [(similar_tile(), 25.0), (diverse_tile(), 25.0)] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            for axis in [RgbAxis::Blue, RgbAxis::Red] {
                let result = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                let range = |colors: &[LinearRgb]| {
                    let vals: Vec<f64> = colors.iter().map(|c| c.channel(axis.index())).collect();
                    vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                        - vals.iter().cloned().fold(f64::INFINITY, f64::min)
                };
                assert!(
                    range(&result.adjusted) <= range(&pixels) + 1e-9,
                    "axis range grew on {axis}"
                );
            }
        }
    }

    #[test]
    fn similar_colors_collapse_to_common_plane() {
        // A smooth peripheral tile should land in case 2 and the Δ along the
        // optimized axis should vanish.
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels, 25.0);
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, AdjustmentCase::CommonPlane);
        let values: Vec<f64> = result.adjusted.iter().map(|c| c.b).collect();
        let range = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(range < 1e-6, "blue range after collapse: {range}");
    }

    #[test]
    fn diverse_colors_fall_into_case_one_with_residual_range() {
        let pixels = diverse_tile();
        let ellipsoids = ellipsoids_for(&pixels, 10.0);
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, AdjustmentCase::NoCommonPlane);
        assert!(result.hl > result.lh);
        // The residual range equals HL − LH (up to gamut clamping).
        let values: Vec<f64> = result.adjusted.iter().map(|c| c.b).collect();
        let range = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(range <= result.hl - result.lh + 1e-9);
    }

    #[test]
    fn foveal_ellipsoids_allow_less_adjustment_than_peripheral() {
        let pixels = similar_tile();
        let foveal = adjust_tile(&pixels, &ellipsoids_for(&pixels, 2.0), &RgbAxis::OPTIMIZED);
        let peripheral = adjust_tile(&pixels, &ellipsoids_for(&pixels, 30.0), &RgbAxis::OPTIMIZED);
        assert!(peripheral.chosen.delta_bit_cost() <= foveal.chosen.delta_bit_cost());
    }

    #[test]
    fn adjustment_reduces_delta_bits_on_smooth_peripheral_tiles() {
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels, 25.0);
        let result = adjust_tile(&pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
        assert!(
            result.delta_bits_saved() > 0,
            "expected savings on a smooth peripheral tile"
        );
        assert!(result.chosen.delta_bit_cost() < result.original_cost);
    }

    #[test]
    fn adjustment_never_increases_total_delta_bits() {
        for (pixels, ecc) in [(similar_tile(), 5.0), (diverse_tile(), 30.0)] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            let result = adjust_tile(&pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
            assert!(result.chosen.delta_bit_cost() <= result.original_cost);
        }
    }

    #[test]
    fn scratch_adjustment_is_bit_identical_to_the_allocating_path() {
        let mut scratch = AdjustScratch::new();
        for (pixels, ecc) in [
            (similar_tile(), 25.0),
            (diverse_tile(), 10.0),
            (similar_tile(), 2.0),
            (vec![LinearRgb::new(0.3, 0.4, 0.5)], 15.0),
        ] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            let expected = adjust_tile(&pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
            // The scratch arrives dirty from the previous tile on purpose.
            scratch.pixels.clear();
            scratch.pixels.extend_from_slice(&pixels);
            SyntheticDiscriminationModel::default().ellipsoids_into(
                &scratch.pixels,
                ecc,
                &mut scratch.ellipsoids,
            );
            let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);
            assert_eq!(scratch.best(), expected.adjusted_pixels());
            assert_eq!(outcome.axis, expected.chosen.axis);
            assert_eq!(outcome.case, expected.chosen.case);
            assert_eq!(outcome.hl, expected.chosen.hl);
            assert_eq!(outcome.lh, expected.chosen.lh);
            assert_eq!(outcome.original_cost, expected.original_cost);
            assert_eq!(outcome.adjusted_cost, expected.chosen.delta_bit_cost());
        }
    }

    #[test]
    fn scratch_no_regress_keeps_the_original_pixels() {
        // Near-zero ellipsoids leave no room to improve: the scratch path
        // must fall back to the original pixels, exactly like adjust_tile.
        let pixels = diverse_tile();
        let model = SyntheticDiscriminationModel::default();
        let mut scratch = AdjustScratch::new();
        scratch.pixels.extend_from_slice(&pixels);
        model.ellipsoids_into(&scratch.pixels, 0.01, &mut scratch.ellipsoids);
        let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);
        let ellipsoids = ellipsoids_for(&pixels, 0.01);
        let expected = adjust_tile(&pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
        assert_eq!(scratch.best(), expected.adjusted_pixels());
        assert_eq!(outcome.adjusted_cost, expected.chosen.delta_bit_cost());
        assert!(
            outcome.adjusted_cost <= outcome.original_cost,
            "the no-regress guard must hold"
        );
    }

    #[test]
    fn lane_path_matches_the_scalar_reference_composition() {
        // Rebuild adjust_tile_with's axis selection from the scalar
        // per-axis reference and require bit-identical pixels, plane
        // values and costs from the lane path.
        for (pixels, ecc) in [
            (similar_tile(), 25.0),
            (diverse_tile(), 10.0),
            (similar_tile(), 0.01),
            (vec![LinearRgb::new(0.3, 0.4, 0.5)], 15.0),
        ] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            let mut scratch = AdjustScratch::new();
            scratch.pixels.extend_from_slice(&pixels);
            scratch.ellipsoids.extend_from_slice(&ellipsoids);
            let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);

            // Scalar reference: first axis with strictly minimal cost.
            let mut expected: Option<AxisAdjustment> = None;
            for &axis in &RgbAxis::OPTIMIZED {
                let attempt = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                if expected
                    .as_ref()
                    .map_or(true, |b| attempt.delta_bit_cost() < b.delta_bit_cost())
                {
                    expected = Some(attempt);
                }
            }
            let expected = expected.unwrap();
            let original_cost = delta_bit_cost(&pixels);
            assert_eq!(outcome.axis, expected.axis, "ecc {ecc}");
            assert_eq!(outcome.case, expected.case, "ecc {ecc}");
            assert_eq!(outcome.hl, expected.hl, "ecc {ecc}");
            assert_eq!(outcome.lh, expected.lh, "ecc {ecc}");
            assert_eq!(outcome.original_cost, original_cost, "ecc {ecc}");
            if expected.delta_bit_cost() >= original_cost {
                assert_eq!(scratch.best(), &pixels[..], "ecc {ecc}");
                assert_eq!(outcome.adjusted_cost, original_cost, "ecc {ecc}");
            } else {
                assert_eq!(scratch.best(), &expected.adjusted[..], "ecc {ecc}");
                assert_eq!(
                    outcome.adjusted_cost,
                    expected.delta_bit_cost(),
                    "ecc {ecc}"
                );
            }
        }
    }

    #[test]
    fn case_labels_match_figure_12() {
        assert_eq!(AdjustmentCase::NoCommonPlane.label(), "c1");
        assert_eq!(AdjustmentCase::CommonPlane.label(), "c2");
    }

    #[test]
    fn single_pixel_tile_is_trivially_common_plane() {
        let pixels = vec![LinearRgb::new(0.3, 0.4, 0.5)];
        let ellipsoids = ellipsoids_for(&pixels, 15.0);
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, AdjustmentCase::CommonPlane);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels[..4], 10.0);
        let _ = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
    }

    #[test]
    #[should_panic]
    fn empty_axes_panic() {
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels, 10.0);
        let _ = adjust_tile(&pixels, &ellipsoids, &[]);
    }
}
