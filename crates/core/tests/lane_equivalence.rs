//! Property-based pin: the SoA lane path through [`adjust_tile_with`] is
//! bit-identical to the scalar per-axis reference ([`adjust_tile_along_axis`]
//! composed with the first-minimal axis selection and the no-regress guard).
//!
//! The strategies deliberately cover the shapes the lane kernels treat
//! specially: full 4×4 and 8×8 tiles (whole lane groups), clipped edge tiles
//! whose pixel count is not a multiple of the lane width (scalar remainder
//! tail), single-pixel tiles, near-constant tiles (degenerate extrema spans,
//! where the speculative lane divide produces garbage that the select must
//! discard), near-zero eccentricities (degenerate ellipsoids that leave
//! no room to move, exercising the no-regress fallback), channels sitting
//! exactly on sRGB code thresholds (where the lane Δ cost, which quantizes
//! only each channel's min and max, is most exposed) and channels on the
//! gamut edges 0 and 1 (where the gamut clamp binds).

use proptest::prelude::*;
use pvc_bdc::tile_codec::bits_for_range;
use pvc_color::{
    linear_to_srgb8, DiscriminationModel, LinearRgb, RgbAxis, SyntheticDiscriminationModel,
};
use pvc_core::adjust::reference::{adjust_tile_along_axis, AxisAdjustment};
use pvc_core::{adjust_tile_with, AdjustScratch};

/// Independent scalar Δ bit cost: per-channel sRGB8 range via the scalar
/// quantizer, never the lane kernels under test.
fn scalar_delta_bit_cost(pixels: &[LinearRgb]) -> u64 {
    let mut total = 0u64;
    for channel in 0..3 {
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        for p in pixels {
            let v = linear_to_srgb8(p.channel(channel));
            min = min.min(v);
            max = max.max(v);
        }
        total += u64::from(bits_for_range(max - min)) * pixels.len() as u64;
    }
    total
}

/// Runs both paths on one tile and requires bit-identical outputs.
fn assert_lane_matches_scalar(pixels: &[LinearRgb], eccentricity: f64) {
    let model = SyntheticDiscriminationModel::default();
    let ellipsoids: Vec<_> = pixels
        .iter()
        .map(|&p| model.ellipsoid(p, eccentricity))
        .collect();

    let mut scratch = AdjustScratch::new();
    scratch.pixels.extend_from_slice(pixels);
    scratch.ellipsoids.extend_from_slice(&ellipsoids);
    let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);

    // Scalar reference composition: first axis with strictly minimal cost.
    let mut expected: Option<AxisAdjustment> = None;
    for &axis in &RgbAxis::OPTIMIZED {
        let attempt = adjust_tile_along_axis(pixels, &ellipsoids, axis);
        if expected.as_ref().map_or(true, |best| {
            attempt.delta_bit_cost() < best.delta_bit_cost()
        }) {
            expected = Some(attempt);
        }
    }
    let expected = expected.expect("at least one axis");
    let original_cost = scalar_delta_bit_cost(pixels);

    prop_assert_eq!(outcome.axis, expected.axis);
    prop_assert_eq!(outcome.case, expected.case);
    prop_assert_eq!(outcome.hl.to_bits(), expected.hl.to_bits());
    prop_assert_eq!(outcome.lh.to_bits(), expected.lh.to_bits());
    prop_assert_eq!(outcome.original_cost, original_cost);
    let expected_cost = expected.delta_bit_cost();
    if expected_cost >= original_cost {
        // No-regress guard: the lane path must hand back the original bits.
        prop_assert_eq!(scratch.best(), pixels);
        prop_assert_eq!(outcome.adjusted_cost, original_cost);
    } else {
        prop_assert_eq!(outcome.adjusted_cost, expected_cost);
        prop_assert_eq!(scratch.best().len(), expected.adjusted.len());
        for (got, want) in scratch.best().iter().zip(expected.adjusted.iter()) {
            for channel in 0..3 {
                prop_assert_eq!(
                    got.channel(channel).to_bits(),
                    want.channel(channel).to_bits()
                );
            }
        }
    }
}

fn arb_pixel() -> impl Strategy<Value = LinearRgb> {
    (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64).prop_map(|(r, g, b)| LinearRgb::new(r, g, b))
}

/// Exactly `side * side` diverse pixels: a full (unclipped) tile.
fn arb_full_tile(side: usize) -> impl Strategy<Value = Vec<LinearRgb>> {
    let pixels = side * side;
    proptest::collection::vec(arb_pixel(), pixels..pixels + 1)
}

/// A clipped edge tile: any pixel count up to a full 8×8 tile, so the
/// length sweeps every remainder class modulo the lane width (including
/// single-pixel tiles).
fn arb_clipped_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    proptest::collection::vec(arb_pixel(), 1..65)
}

/// A smooth tile: one base color plus per-pixel jitter small enough that
/// common planes (case 2) and near-zero extrema spans actually occur.
fn arb_smooth_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    (
        arb_pixel(),
        proptest::collection::vec(-0.01..=0.01f64, 1..65),
    )
        .prop_map(|(base, jitter)| {
            jitter
                .into_iter()
                .map(|j| {
                    LinearRgb::new(
                        (base.channel(0) + j).clamp(0.0, 1.0),
                        (base.channel(1) + 0.5 * j).clamp(0.0, 1.0),
                        (base.channel(2) - j).clamp(0.0, 1.0),
                    )
                })
                .collect()
        })
}

/// Smallest `f64` in `(0, 1]` whose sRGB8 code is at least `code` (a code
/// decision threshold), bisected on the bit pattern, which orders
/// non-negative doubles numerically.
fn code_threshold(code: u8) -> f64 {
    let mut lo = 0.0f64.to_bits();
    let mut hi = 1.0f64.to_bits();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if linear_to_srgb8(f64::from_bits(mid)) >= code {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

/// A tile whose every channel sits exactly on a code threshold: one base
/// code per channel plus a per-pixel step of 0–3 codes, so channel minima
/// and maxima land on decision points.
fn arb_threshold_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    (
        proptest::array::uniform3(1u8..=252),
        proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..65),
    )
        .prop_map(|(base, steps)| {
            steps
                .into_iter()
                .map(|(r, g, b)| {
                    LinearRgb::new(
                        code_threshold(base[0] + r),
                        code_threshold(base[1] + g),
                        code_threshold(base[2] + b),
                    )
                })
                .collect()
        })
}

/// One channel on or next to a gamut edge: exactly 0, exactly 1, or within
/// 0.01 of either.
fn arb_edge_channel() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0..=0.01f64).prop_map(|(edge, offset)| match edge {
        0 => 0.0,
        1 => 1.0,
        2 => offset,
        _ => 1.0 - offset,
    })
}

/// A tile whose channels sit on the gamut edges, so the gamut clamp binds
/// on every axis.
fn arb_gamut_edge_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    proptest::collection::vec(
        (arb_edge_channel(), arb_edge_channel(), arb_edge_channel()),
        1..65,
    )
    .prop_map(|channels| {
        channels
            .into_iter()
            .map(|(r, g, b)| LinearRgb::new(r, g, b))
            .collect()
    })
}

proptest! {
    #[test]
    fn full_4x4_tiles_match(pixels in arb_full_tile(4), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn full_8x8_tiles_match(pixels in arb_full_tile(8), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn clipped_edge_tiles_match(pixels in arb_clipped_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn smooth_tiles_match(pixels in arb_smooth_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn degenerate_ellipsoids_match(pixels in arb_clipped_tile(), ecc in 0.001..0.1f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn code_threshold_tiles_match(pixels in arb_threshold_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn gamut_edge_tiles_match(pixels in arb_gamut_edge_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }
}
