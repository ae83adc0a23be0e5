//! Pin: the per-tile ellipsoid build (`DiscriminationModel::ellipsoids_into`,
//! the call the encoder makes once per tile) equals per-pixel
//! `DiscriminationModel::ellipsoid` bit for bit.
//!
//! Covered: the synthetic model's override with hoisted per-tile constants
//! (default and scaled calibrations), the RBF model's default per-pixel
//! loop, and the `&T` / `Arc<T>` impls. A forwarding impl that forgot
//! `ellipsoids_into` would still produce equal output through the default
//! loop, only slower, so a counting model also checks that the forwarding
//! impls reach the inner model's override.

use pvc_color::{
    DiscriminationEllipsoid, DiscriminationModel, EllipsoidAxes, LinearRgb, RbfConfig,
    RbfDiscriminationModel, SyntheticDiscriminationModel,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Eccentricities below zero, inside the model range, at the synthetic
/// saturation point (40°) and beyond the 55° clamp.
const ECCENTRICITIES: [f64; 7] = [-5.0, 0.0, 2.5, 12.0, 39.9, 40.0, 80.0];

/// A deterministic tile: gamut corners, dark and bright grays and
/// pseudo-random colors (SplitMix64).
fn tile() -> Vec<LinearRgb> {
    let mut pixels = vec![
        LinearRgb::BLACK,
        LinearRgb::WHITE,
        LinearRgb::gray(0.02),
        LinearRgb::gray(0.5),
        LinearRgb::new(1.0, 0.0, 0.0),
        LinearRgb::new(0.0, 1.0, 0.0),
        LinearRgb::new(0.0, 0.0, 1.0),
    ];
    let mut state = 0x7E11_E1A5_u64;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    pixels.extend((0..57).map(|_| LinearRgb::new(unit(), unit(), unit())));
    pixels
}

fn bits(e: &DiscriminationEllipsoid) -> [u64; 6] {
    let c = e.center_dkl();
    let s = e.axes();
    [c.k1, c.k2, c.k3, s.a, s.b, s.c].map(f64::to_bits)
}

/// Builds the tile through `model` (taken by value, so `&T` and `Arc<T>`
/// dispatch through their own impls, as in `PerceptualEncoder<M>`) and
/// compares every ellipsoid with the per-pixel call.
fn assert_tile_build_matches<M: DiscriminationModel>(model: M) {
    let pixels = tile();
    // Stale contents on purpose: the build must clear before filling.
    let mut out = vec![model.ellipsoid(LinearRgb::gray(0.3), 1.0); 3];
    for ecc in ECCENTRICITIES {
        model.ellipsoids_into(&pixels, ecc, &mut out);
        assert_eq!(out.len(), pixels.len());
        for (pixel, built) in pixels.iter().zip(&out) {
            assert_eq!(
                bits(built),
                bits(&model.ellipsoid(*pixel, ecc)),
                "{} model, pixel {pixel:?}, eccentricity {ecc}",
                model.name()
            );
        }
    }
}

#[test]
fn synthetic_tile_build_equals_per_pixel_ellipsoids() {
    assert_tile_build_matches(SyntheticDiscriminationModel::default());
    assert_tile_build_matches(SyntheticDiscriminationModel::with_scale(0.5));
    assert_tile_build_matches(SyntheticDiscriminationModel::with_scale(2.0));
}

#[test]
fn rbf_default_loop_equals_per_pixel_ellipsoids() {
    let rbf = RbfDiscriminationModel::fit_to(
        &SyntheticDiscriminationModel::default(),
        RbfConfig::default(),
    )
    .expect("fit");
    assert_tile_build_matches(rbf);
}

#[test]
fn forwarding_impls_equal_per_pixel_ellipsoids() {
    let model = SyntheticDiscriminationModel::with_scale(1.5);
    // A named reference, so `M = &SyntheticDiscriminationModel`.
    let by_ref = &model;
    assert_tile_build_matches(by_ref);
    assert_tile_build_matches(Arc::new(model));
    let shared: Arc<dyn DiscriminationModel> = Arc::new(model);
    assert_tile_build_matches(&shared);
    assert_tile_build_matches(shared);
}

/// Counts calls of its own `ellipsoids_into` override.
#[derive(Default)]
struct CountingModel {
    tile_builds: AtomicUsize,
}

impl DiscriminationModel for CountingModel {
    fn ellipsoid_axes(&self, _color: LinearRgb, _eccentricity_deg: f64) -> EllipsoidAxes {
        EllipsoidAxes::new(0.01, 0.02, 0.03)
    }

    fn ellipsoids_into(
        &self,
        pixels: &[LinearRgb],
        eccentricity_deg: f64,
        out: &mut Vec<DiscriminationEllipsoid>,
    ) {
        self.tile_builds.fetch_add(1, Ordering::Relaxed);
        out.clear();
        out.extend(pixels.iter().map(|&p| self.ellipsoid(p, eccentricity_deg)));
    }
}

fn build_through<M: DiscriminationModel>(model: M) {
    let mut out = Vec::new();
    model.ellipsoids_into(&tile(), 10.0, &mut out);
}

#[test]
fn forwarding_impls_reach_the_tile_build_override() {
    let model = CountingModel::default();
    // Named references, so `M = &CountingModel` and `M = &&CountingModel`.
    let by_ref = &model;
    let by_ref_ref = &by_ref;
    build_through(by_ref);
    build_through(by_ref_ref);
    assert_eq!(model.tile_builds.load(Ordering::Relaxed), 2, "&T");

    let shared = Arc::new(CountingModel::default());
    build_through(Arc::clone(&shared));
    let erased: Arc<dyn DiscriminationModel> = shared.clone();
    build_through(erased);
    assert_eq!(shared.tile_builds.load(Ordering::Relaxed), 2, "Arc<T>");
}
