//! The DKL (Derrington–Krauskopf–Lennie) opponent color space.
//!
//! Psychophysical color-discrimination studies, including the one the paper
//! builds on, express discrimination thresholds in the DKL space because it
//! models the opponent process of the human visual system. The DKL space is
//! a linear transformation away from linear RGB (Eq. 2).
//!
//! The paper publishes the constant matrix `M_RGB2DKL`. Its Eq. 2 writes the
//! transformation as `RGB = M · DKL`, which contradicts the matrix name; we
//! follow the name (`DKL = M_RGB2DKL · RGB`) because that reading produces
//! the adjustment behaviour the paper describes — moving colors inside their
//! ellipsoids perturbs the green and blue channels together while leaving
//! red nearly untouched — whereas the other reading couples green and blue
//! with opposite signs. The discrepancy and its consequences are documented
//! in `docs/ARCHITECTURE.md` (substitution S1).

use crate::math::{Mat3, Vec3};
use crate::srgb::LinearRgb;

/// The constant matrix mapping linear RGB to DKL coordinates:
/// `[K1, K2, K3]ᵀ = M_RGB2DKL · [R, G, B]ᵀ`.
///
/// The coefficients are the ones published in the paper (and in Duinkharjav
/// et al. 2022).
pub const RGB_TO_DKL: Mat3 = Mat3::from_rows([
    [0.14, 0.17, 0.00],
    [-0.21, -0.71, -0.07],
    [0.21, 0.72, 0.07],
]);

/// Returns the transformation matrix mapping linear RGB to DKL.
pub fn rgb_to_dkl_matrix() -> Mat3 {
    RGB_TO_DKL
}

/// Returns the inverse transformation, mapping DKL coordinates to linear
/// RGB. The published matrix is constant, so its inverse is computed once
/// and cached for the lifetime of the process.
pub fn dkl_to_rgb_matrix() -> Mat3 {
    *DKL_TO_RGB.get_or_init(|| {
        RGB_TO_DKL
            .inverse()
            .expect("the published RGB-to-DKL matrix is invertible")
    })
}

static DKL_TO_RGB: std::sync::OnceLock<Mat3> = std::sync::OnceLock::new();

/// How strongly a unit step along each DKL axis moves a color in linear RGB:
/// the Euclidean norms of the columns of the DKL→RGB matrix, as a vector
/// `(‖col₁‖, ‖col₂‖, ‖col₃‖)`.
///
/// The synthetic discrimination model divides its per-axis extents by these
/// gains so that its calibration is expressed in RGB-sized units even though
/// the ellipsoid semi-axes live in DKL space.
pub fn dkl_axis_rgb_gain() -> Vec3 {
    let m = dkl_to_rgb_matrix();
    Vec3::new(m.column(0).norm(), m.column(1).norm(), m.column(2).norm())
}

/// A color expressed in DKL opponent-space coordinates `(k1, k2, k3)`.
///
/// # Examples
///
/// ```
/// use pvc_color::{DklColor, LinearRgb};
/// let rgb = LinearRgb::new(0.4, 0.5, 0.6);
/// let dkl = DklColor::from_linear_rgb(rgb);
/// let back = dkl.to_linear_rgb();
/// assert!(back.max_channel_distance(rgb) < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DklColor {
    /// First opponent axis (roughly luminance).
    pub k1: f64,
    /// Second opponent axis (roughly L−M, "red–green").
    pub k2: f64,
    /// Third opponent axis (roughly S−(L+M), "blue–yellow").
    pub k3: f64,
}

impl DklColor {
    /// Creates a DKL color from its three coordinates.
    #[inline]
    pub const fn new(k1: f64, k2: f64, k3: f64) -> Self {
        DklColor { k1, k2, k3 }
    }

    /// Converts from a [`Vec3`] interpreted as `(k1, k2, k3)`.
    #[inline]
    pub const fn from_vec3(v: Vec3) -> Self {
        DklColor {
            k1: v.x,
            k2: v.y,
            k3: v.z,
        }
    }

    /// Converts to a [`Vec3`] as `(k1, k2, k3)`.
    #[inline]
    pub const fn to_vec3(self) -> Vec3 {
        Vec3::new(self.k1, self.k2, self.k3)
    }

    /// Converts a linear RGB color into DKL coordinates.
    #[inline]
    pub fn from_linear_rgb(rgb: LinearRgb) -> Self {
        DklColor::from_vec3(RGB_TO_DKL * rgb.to_vec3())
    }

    /// Converts the DKL color back into linear RGB.
    #[inline]
    pub fn to_linear_rgb(self) -> LinearRgb {
        LinearRgb::from_vec3(dkl_to_rgb_matrix() * self.to_vec3())
    }

    /// Euclidean distance to `other` in DKL coordinates.
    #[inline]
    pub fn distance(self, other: DklColor) -> f64 {
        (self.to_vec3() - other.to_vec3()).norm()
    }
}

impl From<LinearRgb> for DklColor {
    fn from(rgb: LinearRgb) -> Self {
        DklColor::from_linear_rgb(rgb)
    }
}

impl From<DklColor> for LinearRgb {
    fn from(dkl: DklColor) -> Self {
        dkl.to_linear_rgb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Mat3;

    #[test]
    fn matrix_is_invertible() {
        let det = RGB_TO_DKL.determinant();
        assert!(det.abs() > 1e-6, "determinant too small: {det}");
        let inv = dkl_to_rgb_matrix();
        let prod = RGB_TO_DKL * inv;
        assert!(prod.distance(&Mat3::identity()) < 1e-8);
    }

    #[test]
    fn inverse_is_cached_and_consistent() {
        let a = dkl_to_rgb_matrix();
        let b = dkl_to_rgb_matrix();
        assert_eq!(a, b);
    }

    #[test]
    fn rgb_dkl_roundtrip() {
        for &(r, g, b) in &[
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            (0.25, 0.5, 0.75),
            (0.8, 0.2, 0.4),
            (0.01, 0.99, 0.5),
        ] {
            let rgb = LinearRgb::new(r, g, b);
            let back = DklColor::from_linear_rgb(rgb).to_linear_rgb();
            assert!(
                back.max_channel_distance(rgb) < 1e-8,
                "roundtrip failed for {rgb:?}"
            );
        }
    }

    #[test]
    fn dkl_of_black_is_origin() {
        let dkl = DklColor::from_linear_rgb(LinearRgb::BLACK);
        assert!(dkl.to_vec3().norm() < 1e-9);
    }

    #[test]
    fn transformation_is_linear() {
        let a = LinearRgb::new(0.2, 0.3, 0.4);
        let b = LinearRgb::new(0.5, 0.1, 0.6);
        let sum = LinearRgb::new(a.r + b.r, a.g + b.g, a.b + b.b);
        let lhs = DklColor::from_linear_rgb(sum).to_vec3();
        let rhs = DklColor::from_linear_rgb(a).to_vec3() + DklColor::from_linear_rgb(b).to_vec3();
        assert!((lhs - rhs).norm() < 1e-8);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = DklColor::new(1.0, -2.0, 3.0);
        let b = DklColor::new(0.5, 0.5, 0.5);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn axis_gains_match_column_norms() {
        let g = dkl_axis_rgb_gain();
        let m = dkl_to_rgb_matrix();
        for (i, gain) in [g.x, g.y, g.z].into_iter().enumerate() {
            assert!(gain > 0.0);
            assert!((gain - m.column(i).norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn chromatic_axes_move_blue_most() {
        // Structural property the encoder relies on: unit steps along the
        // chromatic DKL axes (k2, k3) displace the blue channel far more than
        // the green channel, which is why discrimination ellipsoids end up
        // elongated along the Blue RGB axis.
        let m = dkl_to_rgb_matrix();
        for axis in 1..3 {
            let col = m.column(axis);
            assert!(col.z.abs() > col.y.abs() * 2.0, "axis {axis}: {col:?}");
        }
    }
}
