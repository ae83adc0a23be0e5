//! Scalar reference kernels of the per-tile adjustment.
//!
//! These walk array-of-structs pixels one at a time, straight from the
//! algorithm of Sec. 3.4: per-pixel extrema from
//! [`DiscriminationEllipsoid::extrema_along_axis`], an HL/LH fold, then a
//! move along each pixel's extrema vector with a gamut clamp. The encoder
//! never calls them; it runs the lane kernel
//! [`adjust_tile_with`](super::adjust_tile_with). They stay as the oracle
//! the lane kernel is pinned against (the `lane_equivalence` proptests,
//! the tests in [`super`] and in [`crate::solver`]) and as the baseline
//! row of the throughput bench. Every function allocates its result.

use super::AdjustmentCase;
use pvc_bdc::tile_codec::bits_for_range;
use pvc_color::{AxisExtrema, DiscriminationEllipsoid, LinearRgb, RgbAxis, Vec3};

/// The result of adjusting one tile along one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisAdjustment {
    /// The axis the adjustment optimized.
    pub axis: RgbAxis,
    /// Which geometric case the tile fell into.
    pub case: AdjustmentCase,
    /// The adjusted pixel colors (same order as the input).
    pub adjusted: Vec<LinearRgb>,
    /// The HL plane value (highest of the lowest extrema) along the axis.
    pub hl: f64,
    /// The LH plane value (lowest of the highest extrema) along the axis.
    pub lh: f64,
}

impl AxisAdjustment {
    /// Total Δ bit cost of the adjusted tile after sRGB quantization,
    /// summed over all three channels (the quantity Eq. 7a minimizes, minus
    /// the constant base cost).
    pub fn delta_bit_cost(&self) -> u64 {
        delta_bit_cost(&self.adjusted)
    }
}

/// The final result of adjusting a tile: the best of the per-axis attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct TileAdjustment {
    /// The winning per-axis adjustment.
    pub chosen: AxisAdjustment,
    /// Δ bit cost of the original (unadjusted) tile, for reporting.
    pub original_cost: u64,
}

impl TileAdjustment {
    /// The adjusted pixels of the winning attempt.
    pub fn adjusted_pixels(&self) -> &[LinearRgb] {
        &self.chosen.adjusted
    }

    /// Δ bits saved relative to the unadjusted tile (zero if the adjustment
    /// could not help).
    pub fn delta_bits_saved(&self) -> u64 {
        self.original_cost
            .saturating_sub(self.chosen.delta_bit_cost())
    }
}

/// Σ over channels of the per-Δ bit length × pixel count for a tile of
/// linear-RGB pixels, measured after sRGB quantization: every pixel is
/// quantized and the codes are reduced.
pub fn delta_bit_cost(pixels: &[LinearRgb]) -> u64 {
    let mut total = 0u64;
    for channel in 0..3 {
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        for p in pixels {
            let v = p.to_srgb8().channel(channel);
            min = min.min(v);
            max = max.max(v);
        }
        total += u64::from(bits_for_range(max - min)) * pixels.len() as u64;
    }
    total
}

/// Moves `color` along its extrema vector until its `axis` channel reaches
/// `target`, shortening the move if it would leave the `[0, 1]` gamut.
///
/// `color` must be the center of the ellipsoid that produced `extrema`; the
/// extrema vector passes through the center, so any point reached this way
/// stays inside the ellipsoid.
fn move_along_extrema(
    color: LinearRgb,
    extrema: &AxisExtrema,
    axis: RgbAxis,
    target: f64,
) -> LinearRgb {
    let direction = extrema.extrema_vector();
    let axis_span = direction.component(axis.index());
    if axis_span.abs() <= f64::EPSILON {
        return color;
    }
    let current = color.channel(axis.index());
    // Fraction of the full extrema vector needed to reach the target.
    let mut t = (target - current) / axis_span;
    // The chord through the center spans t ∈ [-0.5, 0.5]; numerical safety.
    t = t.clamp(-0.5, 0.5);
    // Shorten the move so every channel stays inside [0, 1].
    t = clamp_step_to_gamut(color.to_vec3(), direction, t);
    LinearRgb::from_vec3(color.to_vec3() + direction * t)
}

/// Largest-magnitude step `t'` with `|t'| ≤ |t|` and the same sign such that
/// `origin + direction · t'` stays inside the unit cube.
fn clamp_step_to_gamut(origin: Vec3, direction: Vec3, t: f64) -> f64 {
    if t == 0.0 {
        return 0.0;
    }
    let mut limit = t.abs();
    let sign = t.signum();
    for i in 0..3 {
        let d = direction.component(i) * sign;
        if d.abs() <= f64::EPSILON {
            continue;
        }
        let o = origin.component(i);
        // Allowed movement along +d before hitting 0 or 1.
        let room = if d > 0.0 {
            (1.0 - o) / d
        } else {
            (0.0 - o) / d
        };
        if room < limit {
            limit = room.max(0.0);
        }
    }
    limit * sign
}

/// Adjusts one tile along a single axis.
///
/// # Panics
///
/// Panics if `pixels` and `ellipsoids` have different lengths or are empty.
pub fn adjust_tile_along_axis(
    pixels: &[LinearRgb],
    ellipsoids: &[DiscriminationEllipsoid],
    axis: RgbAxis,
) -> AxisAdjustment {
    assert_eq!(
        pixels.len(),
        ellipsoids.len(),
        "one ellipsoid per pixel is required"
    );
    assert!(!pixels.is_empty(), "cannot adjust an empty tile");

    // Phase 1: per-pixel extrema (the Compute Extrema blocks of the CAU).
    let extrema: Vec<AxisExtrema> = ellipsoids
        .iter()
        .map(|e| e.extrema_along_axis(axis))
        .collect();

    // Phase 2: HL / LH reduction (the Compute Planes blocks).
    let hl = extrema
        .iter()
        .map(AxisExtrema::low_value)
        .fold(f64::NEG_INFINITY, f64::max);
    let lh = extrema
        .iter()
        .map(AxisExtrema::high_value)
        .fold(f64::INFINITY, f64::min);

    // Phase 3: color shifts (the Color Shift blocks).
    let pairs = pixels.iter().zip(&extrema);
    let (case, adjusted) = if hl <= lh {
        // Case 2: collapse every color onto the average plane.
        let plane = 0.5 * (hl + lh);
        let adjusted = pairs
            .map(|(&p, ext)| move_along_extrema(p, ext, axis, plane))
            .collect();
        (AdjustmentCase::CommonPlane, adjusted)
    } else {
        // Case 1: clamp the axis values into [LH, HL].
        let adjusted = pairs
            .map(|(&p, ext)| {
                let value = p.channel(axis.index());
                if value > hl {
                    move_along_extrema(p, ext, axis, hl)
                } else if value < lh {
                    move_along_extrema(p, ext, axis, lh)
                } else {
                    p
                }
            })
            .collect();
        (AdjustmentCase::NoCommonPlane, adjusted)
    };
    AxisAdjustment {
        axis,
        case,
        adjusted,
        hl,
        lh,
    }
}

/// Adjusts one tile by trying every candidate axis and keeping the attempt
/// with the smallest Δ bit cost (Fig. 7: "pick the one with smaller Δ").
///
/// Ties go to the first axis tried. If no attempt is cheaper than the
/// original tile, the chosen attempt keeps its axis, case and planes but
/// hands back the original pixels (the no-regress guard).
///
/// # Panics
///
/// Panics if `axes` is empty, or if `pixels` and `ellipsoids` have different
/// lengths or are empty.
pub fn adjust_tile(
    pixels: &[LinearRgb],
    ellipsoids: &[DiscriminationEllipsoid],
    axes: &[RgbAxis],
) -> TileAdjustment {
    assert!(
        !axes.is_empty(),
        "at least one optimization axis is required"
    );
    let mut chosen: Option<AxisAdjustment> = None;
    for &axis in axes {
        let attempt = adjust_tile_along_axis(pixels, ellipsoids, axis);
        if chosen.as_ref().map_or(true, |best| {
            attempt.delta_bit_cost() < best.delta_bit_cost()
        }) {
            chosen = Some(attempt);
        }
    }
    let mut chosen = chosen.expect("axes is non-empty");
    let original_cost = delta_bit_cost(pixels);
    if chosen.delta_bit_cost() >= original_cost {
        chosen.adjusted = pixels.to_vec();
    }
    TileAdjustment {
        chosen,
        original_cost,
    }
}
