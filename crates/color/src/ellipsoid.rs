//! Discrimination ellipsoids and their geometry.
//!
//! For a reference color κ at eccentricity *e*, the set of colors that are
//! perceptually indistinguishable from κ forms an ellipsoid that is
//! axis-aligned in the DKL space (Eq. 4). The encoder needs two geometric
//! operations on these ellipsoids, both implemented here:
//!
//! 1. transforming the DKL ellipsoid into a general quadric surface in linear
//!    RGB space (Eq. 9–10), and
//! 2. computing the *extrema* of the ellipsoid along a chosen RGB axis — the
//!    highest and lowest points H and L, and the extrema vector connecting
//!    them (Eq. 11–13).
//!
//! Two independent implementations of the extrema computation are provided:
//! the closed-form Lagrange solution in DKL space (used by the encoder), and
//! the paper's quadric-gradient route (Eq. 11–12 followed by line–ellipsoid
//! intersection). Tests assert that they agree.

use crate::dkl::{dkl_to_rgb_matrix, rgb_to_dkl_matrix, DklColor};
use crate::math::{Mat3, Vec3};
use crate::srgb::LinearRgb;

/// One of the three linear-RGB axes.
///
/// The paper's relaxed objective minimizes the per-tile range along a single
/// axis; empirically the ellipsoids are elongated along Red or Blue, so the
/// encoder tries those two and keeps the better result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RgbAxis {
    /// The red channel (index 0).
    Red,
    /// The green channel (index 1).
    Green,
    /// The blue channel (index 2).
    Blue,
}

impl RgbAxis {
    /// All three axes in index order.
    pub const ALL: [RgbAxis; 3] = [RgbAxis::Red, RgbAxis::Green, RgbAxis::Blue];

    /// Channel index of the axis (0 for red, 1 for green, 2 for blue).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            RgbAxis::Red => 0,
            RgbAxis::Green => 1,
            RgbAxis::Blue => 2,
        }
    }

    /// The two axes the paper's encoder optimizes along.
    pub const OPTIMIZED: [RgbAxis; 2] = [RgbAxis::Blue, RgbAxis::Red];
}

impl std::fmt::Display for RgbAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RgbAxis::Red => "R",
            RgbAxis::Green => "G",
            RgbAxis::Blue => "B",
        };
        f.write_str(name)
    }
}

/// Semi-axis lengths `(a, b, c)` of a discrimination ellipsoid in DKL space.
///
/// This is the output of the color discrimination function Φ (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EllipsoidAxes {
    /// Semi-axis along the first DKL axis.
    pub a: f64,
    /// Semi-axis along the second DKL axis.
    pub b: f64,
    /// Semi-axis along the third DKL axis.
    pub c: f64,
}

impl EllipsoidAxes {
    /// Creates a set of semi-axes.
    ///
    /// # Panics
    ///
    /// Panics if any semi-axis is not strictly positive and finite (a
    /// degenerate ellipsoid has no interior and cannot constrain the
    /// optimization).
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        assert!(
            a > 0.0 && b > 0.0 && c > 0.0 && a.is_finite() && b.is_finite() && c.is_finite(),
            "ellipsoid semi-axes must be positive and finite: ({a}, {b}, {c})"
        );
        EllipsoidAxes { a, b, c }
    }

    /// Semi-axes as a vector `(a, b, c)`.
    #[inline]
    pub const fn to_vec3(self) -> Vec3 {
        Vec3::new(self.a, self.b, self.c)
    }

    /// Returns semi-axes uniformly scaled by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(self, factor: f64) -> Self {
        EllipsoidAxes::new(self.a * factor, self.b * factor, self.c * factor)
    }

    /// Geometric mean of the semi-axes; a scalar "size" useful for reporting.
    #[inline]
    pub fn mean_radius(self) -> f64 {
        (self.a * self.b * self.c).cbrt()
    }
}

/// Highest and lowest points of an ellipsoid along one RGB axis, expressed in
/// linear RGB, together with the extrema vector connecting them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisExtrema {
    /// The axis the extrema refer to.
    pub axis: RgbAxis,
    /// The point of the ellipsoid with the largest value along `axis`.
    pub high: LinearRgb,
    /// The point of the ellipsoid with the smallest value along `axis`.
    pub low: LinearRgb,
}

impl AxisExtrema {
    /// The extrema vector `high − low` (the direction colors are moved along).
    #[inline]
    pub fn extrema_vector(&self) -> Vec3 {
        self.high.to_vec3() - self.low.to_vec3()
    }

    /// Value of the optimized channel at the highest point.
    #[inline]
    pub fn high_value(&self) -> f64 {
        self.high.channel(self.axis.index())
    }

    /// Value of the optimized channel at the lowest point.
    #[inline]
    pub fn low_value(&self) -> f64 {
        self.low.channel(self.axis.index())
    }

    /// Half-extent of the ellipsoid along the optimized channel.
    #[inline]
    pub fn half_extent(&self) -> f64 {
        0.5 * (self.high_value() - self.low_value())
    }
}

/// A discrimination ellipsoid: center color plus DKL semi-axes.
///
/// # Examples
///
/// ```
/// use pvc_color::{DiscriminationEllipsoid, EllipsoidAxes, LinearRgb, RgbAxis};
/// let center = LinearRgb::new(0.5, 0.5, 0.5);
/// let e = DiscriminationEllipsoid::from_rgb_center(center, EllipsoidAxes::new(0.02, 0.01, 0.05));
/// let extrema = e.extrema_along_axis(RgbAxis::Blue);
/// assert!(extrema.high_value() > extrema.low_value());
/// assert!(e.contains_rgb(center, 1e-9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscriminationEllipsoid {
    center: DklColor,
    axes: EllipsoidAxes,
}

impl DiscriminationEllipsoid {
    /// Creates an ellipsoid from a DKL center and DKL semi-axes.
    pub fn new(center: DklColor, axes: EllipsoidAxes) -> Self {
        DiscriminationEllipsoid { center, axes }
    }

    /// Creates an ellipsoid centered at a linear RGB color.
    pub fn from_rgb_center(center: LinearRgb, axes: EllipsoidAxes) -> Self {
        DiscriminationEllipsoid {
            center: DklColor::from_linear_rgb(center),
            axes,
        }
    }

    /// The ellipsoid center in DKL coordinates.
    #[inline]
    pub fn center_dkl(&self) -> DklColor {
        self.center
    }

    /// The ellipsoid center converted to linear RGB.
    #[inline]
    pub fn center_rgb(&self) -> LinearRgb {
        self.center.to_linear_rgb()
    }

    /// The DKL semi-axes.
    #[inline]
    pub fn axes(&self) -> EllipsoidAxes {
        self.axes
    }

    /// Returns a copy with semi-axes uniformly scaled by `factor`.
    ///
    /// Used to model per-observer sensitivity variation.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> Self {
        DiscriminationEllipsoid {
            center: self.center,
            axes: self.axes.scaled(factor),
        }
    }

    /// Left-hand side of the normalized ellipsoid equation (Eq. 4) at a DKL
    /// point: `Σ ((kᵢ − κᵢ)² / sᵢ²)`. The value is 1 on the surface, < 1
    /// inside and > 1 outside.
    pub fn normalized_distance_dkl(&self, point: DklColor) -> f64 {
        let d = point.to_vec3() - self.center.to_vec3();
        let s = self.axes;
        (d.x / s.a).powi(2) + (d.y / s.b).powi(2) + (d.z / s.c).powi(2)
    }

    /// Same as [`Self::normalized_distance_dkl`] but for a linear RGB point.
    pub fn normalized_distance_rgb(&self, point: LinearRgb) -> f64 {
        self.normalized_distance_dkl(DklColor::from_linear_rgb(point))
    }

    /// True if the DKL point is inside the ellipsoid or on its surface
    /// (within `tol` of the normalized equation).
    pub fn contains_dkl(&self, point: DklColor, tol: f64) -> bool {
        self.normalized_distance_dkl(point) <= 1.0 + tol
    }

    /// True if the linear RGB point is inside the ellipsoid or on its surface.
    pub fn contains_rgb(&self, point: LinearRgb, tol: f64) -> bool {
        self.contains_dkl(DklColor::from_linear_rgb(point), tol)
    }

    /// Computes the highest and lowest points of the ellipsoid along an RGB
    /// axis using the closed-form Lagrange solution in DKL space.
    ///
    /// The RGB channel value of a DKL point `k` is `w · k` where `w` is the
    /// corresponding row of the DKL→RGB matrix. Maximizing `w · k` subject to
    /// `(k − κ)ᵀ D (k − κ) = 1` (with `D = diag(1/a², 1/b², 1/c²)`) gives
    /// `k* = κ ± D⁻¹ w / √(wᵀ D⁻¹ w)`, which is exactly the result of the
    /// paper's Eq. 12–13 expressed without the intermediate quadric.
    pub fn extrema_along_axis(&self, axis: RgbAxis) -> AxisExtrema {
        let w = dkl_to_rgb_matrix().row(axis.index());
        let s = self.axes.to_vec3();
        // D⁻¹ w  (D is diagonal).
        let dinv_w = Vec3::new(w.x * s.x * s.x, w.y * s.y * s.y, w.z * s.z * s.z);
        let denom = w.dot(dinv_w).max(0.0).sqrt();
        let offset = if denom <= f64::EPSILON {
            Vec3::ZERO
        } else {
            dinv_w * (1.0 / denom)
        };
        let center = self.center.to_vec3();
        let high = DklColor::from_vec3(center + offset).to_linear_rgb();
        let low = DklColor::from_vec3(center - offset).to_linear_rgb();
        // Ordering: `high` must have the larger channel value.
        if high.channel(axis.index()) >= low.channel(axis.index()) {
            AxisExtrema { axis, high, low }
        } else {
            AxisExtrema {
                axis,
                high: low,
                low: high,
            }
        }
    }

    /// Computes the extrema via the paper's quadric route: transform the
    /// ellipsoid to an RGB quadric (Eq. 9–10), take the two gradient planes
    /// (Eq. 11), cross their normals to get the extrema vector (Eq. 12) and
    /// intersect the line through the center with the ellipsoid (Eq. 13).
    ///
    /// The encoder uses [`Self::extrema_along_axis`]; this method exists to
    /// validate the algebra and to mirror the hardware datapath, which
    /// implements exactly these equations.
    pub fn extrema_along_axis_via_quadric(&self, axis: RgbAxis) -> AxisExtrema {
        let quadric = RgbQuadric::from_ellipsoid(self);
        let v = quadric.extrema_direction(axis);
        // Intersect the line center + t·v with the ellipsoid, in DKL space
        // (Eq. 13a–13c): x = RGB→DKL · v, t = 1/√(Σ xᵢ²/sᵢ²).
        let x = rgb_to_dkl_matrix() * v;
        let s = self.axes.to_vec3();
        let denom = ((x.x / s.x).powi(2) + (x.y / s.y).powi(2) + (x.z / s.z).powi(2)).sqrt();
        let t = if denom <= f64::EPSILON {
            0.0
        } else {
            1.0 / denom
        };
        let center = self.center.to_vec3();
        let p1 = DklColor::from_vec3(center + x * t).to_linear_rgb();
        let p2 = DklColor::from_vec3(center - x * t).to_linear_rgb();
        if p1.channel(axis.index()) >= p2.channel(axis.index()) {
            AxisExtrema {
                axis,
                high: p1,
                low: p2,
            }
        } else {
            AxisExtrema {
                axis,
                high: p2,
                low: p1,
            }
        }
    }

    /// Half-extent of the ellipsoid along an RGB axis (half the difference
    /// between the highest and lowest channel values reachable inside it).
    pub fn half_extent_along_axis(&self, axis: RgbAxis) -> f64 {
        self.extrema_along_axis(axis).half_extent()
    }
}

/// A general quadric surface in linear RGB space,
/// `pᵀ Q p + q · p + k = 0`, obtained by transforming an axis-aligned DKL
/// ellipsoid into RGB (Eq. 9–10).
///
/// The representation keeps the full symmetric matrix rather than the paper's
/// nine normalized scalar coefficients because it is numerically more robust;
/// [`RgbQuadric::paper_coefficients`] recovers the paper's `(A..I)` form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgbQuadric {
    /// Quadratic form matrix `Q` (symmetric).
    pub quadratic: Mat3,
    /// Linear coefficient vector `q`.
    pub linear: Vec3,
    /// Constant term `k`.
    pub constant: f64,
}

impl RgbQuadric {
    /// Builds the RGB quadric of a discrimination ellipsoid.
    ///
    /// With `N` the RGB→DKL matrix, `D = diag(1/a², 1/b², 1/c²)` and κ the
    /// DKL center, the ellipsoid `(N p − κ)ᵀ D (N p − κ) = 1` expands to
    /// `pᵀ (Nᵀ D N) p − 2 (Nᵀ D κ) · p + (κᵀ D κ − 1) = 0`.
    pub fn from_ellipsoid(e: &DiscriminationEllipsoid) -> Self {
        let n = rgb_to_dkl_matrix();
        let axes = e.axes();
        let d = Mat3::from_diagonal(Vec3::new(
            1.0 / (axes.a * axes.a),
            1.0 / (axes.b * axes.b),
            1.0 / (axes.c * axes.c),
        ));
        let kappa = e.center_dkl().to_vec3();
        let ntdn = n.transpose() * d * n;
        let ntdk = n.transpose() * (d * kappa);
        let constant = kappa.dot(d * kappa) - 1.0;
        RgbQuadric {
            quadratic: ntdn,
            linear: ntdk * -2.0,
            constant,
        }
    }

    /// Evaluates the quadric at an RGB point (zero on the surface, negative
    /// inside, positive outside).
    pub fn evaluate(&self, p: LinearRgb) -> f64 {
        let v = p.to_vec3();
        v.dot(self.quadratic * v) + self.linear.dot(v) + self.constant
    }

    /// Gradient of the quadric at an RGB point: `2 Q p + q`.
    pub fn gradient(&self, p: LinearRgb) -> Vec3 {
        (self.quadratic * p.to_vec3()) * 2.0 + self.linear
    }

    /// The extrema direction along `axis` (Eq. 12): the cross product of the
    /// normals of the two gradient planes obtained by zeroing the partial
    /// derivatives along the *other* two axes (Eq. 11).
    pub fn extrema_direction(&self, axis: RgbAxis) -> Vec3 {
        let others: [usize; 2] = match axis {
            RgbAxis::Red => [1, 2],
            RgbAxis::Green => [0, 2],
            RgbAxis::Blue => [0, 1],
        };
        // ∂F/∂p_i = 0 is the plane with normal 2·Q.row(i) (the constant term
        // does not affect the normal).
        let n1 = self.quadratic.row(others[0]) * 2.0;
        let n2 = self.quadratic.row(others[1]) * 2.0;
        n1.cross(n2)
    }

    /// Recovers the paper's normalized coefficients
    /// `(A, B, C, D, E, F, G, H, I)` of Eq. 9, where the quadric is written
    /// `Ax² + By² + Cz² + Dx + Ey + Fz + Gxy + Hyz + Izx + 1 = 0`.
    ///
    /// Returns `None` when the constant term of the quadric is (numerically)
    /// zero, in which case the normalized form does not exist (the surface
    /// passes through the origin).
    pub fn paper_coefficients(&self) -> Option<[f64; 9]> {
        if self.constant.abs() < 1e-15 {
            return None;
        }
        let s = 1.0 / self.constant;
        let q = &self.quadratic;
        Some([
            q.at(0, 0) * s,
            q.at(1, 1) * s,
            q.at(2, 2) * s,
            self.linear.x * s,
            self.linear.y * s,
            self.linear.z * s,
            (q.at(0, 1) + q.at(1, 0)) * s,
            (q.at(1, 2) + q.at(2, 1)) * s,
            (q.at(2, 0) + q.at(0, 2)) * s,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ellipsoid() -> DiscriminationEllipsoid {
        DiscriminationEllipsoid::from_rgb_center(
            LinearRgb::new(0.45, 0.52, 0.38),
            EllipsoidAxes::new(0.012, 0.02, 0.15),
        )
    }

    #[test]
    fn axes_reject_degenerate_values() {
        let ok = std::panic::catch_unwind(|| EllipsoidAxes::new(0.0, 1.0, 1.0));
        assert!(ok.is_err());
        let ok = std::panic::catch_unwind(|| EllipsoidAxes::new(1.0, -1.0, 1.0));
        assert!(ok.is_err());
    }

    #[test]
    fn center_is_inside() {
        let e = sample_ellipsoid();
        assert!(e.contains_rgb(e.center_rgb(), 1e-9));
        assert!(e.normalized_distance_rgb(e.center_rgb()) < 1e-9);
    }

    #[test]
    fn far_point_is_outside() {
        let e = sample_ellipsoid();
        assert!(!e.contains_rgb(LinearRgb::new(0.9, 0.9, 0.9), 1e-9));
    }

    #[test]
    fn extrema_lie_on_surface() {
        let e = sample_ellipsoid();
        for axis in RgbAxis::ALL {
            let ext = e.extrema_along_axis(axis);
            assert!(
                (e.normalized_distance_rgb(ext.high) - 1.0).abs() < 1e-6,
                "high not on surface"
            );
            assert!(
                (e.normalized_distance_rgb(ext.low) - 1.0).abs() < 1e-6,
                "low not on surface"
            );
        }
    }

    #[test]
    fn extrema_bound_random_surface_points() {
        // No sampled surface point may exceed the computed extrema.
        let e = sample_ellipsoid();
        let axes = e.axes();
        let center = e.center_dkl().to_vec3();
        for axis in RgbAxis::ALL {
            let ext = e.extrema_along_axis(axis);
            let hi = ext.high_value() + 1e-9;
            let lo = ext.low_value() - 1e-9;
            let mut u: f64 = 0.17;
            for _ in 0..500 {
                // Cheap deterministic quasi-random sphere sampling.
                u = (u * 997.0 + 0.123).fract();
                let theta = u * std::f64::consts::TAU;
                let v = ((u * 37.0).fract() * 2.0) - 1.0;
                let s = (1.0 - v * v).max(0.0).sqrt();
                let dir = Vec3::new(s * theta.cos(), s * theta.sin(), v);
                let p = center + Vec3::new(dir.x * axes.a, dir.y * axes.b, dir.z * axes.c);
                let rgb = DklColor::from_vec3(p).to_linear_rgb();
                let val = rgb.channel(axis.index());
                assert!(
                    val <= hi && val >= lo,
                    "sampled point escapes extrema on {axis}"
                );
            }
        }
    }

    #[test]
    fn quadric_route_matches_closed_form() {
        let e = sample_ellipsoid();
        for axis in RgbAxis::ALL {
            let a = e.extrema_along_axis(axis);
            let b = e.extrema_along_axis_via_quadric(axis);
            assert!(
                a.high.max_channel_distance(b.high) < 1e-7,
                "high mismatch on {axis}"
            );
            assert!(
                a.low.max_channel_distance(b.low) < 1e-7,
                "low mismatch on {axis}"
            );
        }
    }

    #[test]
    fn quadric_zero_on_extrema_negative_at_center() {
        let e = sample_ellipsoid();
        let q = RgbQuadric::from_ellipsoid(&e);
        assert!(q.evaluate(e.center_rgb()) < 0.0);
        let ext = e.extrema_along_axis(RgbAxis::Blue);
        // The quadric coefficients are large (the RGB→DKL matrix is close to
        // singular), so the on-surface check uses a relative tolerance.
        let scale = q.constant.abs().max(1.0);
        assert!(q.evaluate(ext.high).abs() < 1e-9 * scale);
        assert!(q.evaluate(ext.low).abs() < 1e-9 * scale);
    }

    #[test]
    fn paper_coefficients_describe_same_surface() {
        let e = sample_ellipsoid();
        let q = RgbQuadric::from_ellipsoid(&e);
        let coeffs = q.paper_coefficients().expect("constant term nonzero");
        let [a, b, c, d, ee, f, g, h, i] = coeffs;
        let eval_paper = |p: LinearRgb| {
            a * p.r * p.r
                + b * p.g * p.g
                + c * p.b * p.b
                + d * p.r
                + ee * p.g
                + f * p.b
                + g * p.r * p.g
                + h * p.g * p.b
                + i * p.b * p.r
                + 1.0
        };
        let ext = e.extrema_along_axis(RgbAxis::Red);
        assert!(eval_paper(ext.high).abs() < 1e-6);
        assert!(eval_paper(ext.low).abs() < 1e-6);
    }

    #[test]
    fn scaled_ellipsoid_has_larger_extent() {
        let e = sample_ellipsoid();
        let big = e.scaled(2.0);
        for axis in RgbAxis::ALL {
            assert!(big.half_extent_along_axis(axis) > e.half_extent_along_axis(axis));
        }
    }

    #[test]
    fn extrema_vector_connects_high_and_low() {
        let e = sample_ellipsoid();
        let ext = e.extrema_along_axis(RgbAxis::Blue);
        let v = ext.extrema_vector();
        let reconstructed = LinearRgb::from_vec3(ext.low.to_vec3() + v);
        assert!(reconstructed.max_channel_distance(ext.high) < 1e-12);
    }

    #[test]
    fn axis_display_and_index() {
        assert_eq!(RgbAxis::Red.index(), 0);
        assert_eq!(RgbAxis::Blue.to_string(), "B");
        assert_eq!(RgbAxis::OPTIMIZED, [RgbAxis::Blue, RgbAxis::Red]);
    }

    #[test]
    fn mean_radius_is_geometric_mean() {
        let axes = EllipsoidAxes::new(1.0, 8.0, 27.0);
        assert!((axes.mean_radius() - 6.0).abs() < 1e-12);
    }
}
