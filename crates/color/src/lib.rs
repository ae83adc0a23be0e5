//! Color-science substrate for the perceptual VR frame encoder.
//!
//! This crate implements everything the encoder needs to reason about human
//! color discrimination:
//!
//! * conversions between **linear RGB**, **8-bit sRGB** (gamma encoding,
//!   Eq. 1 of the paper) and the **DKL** opponent color space (Eq. 2),
//! * **discrimination ellipsoids** (Eq. 4) and their geometry: the DKL → RGB
//!   quadric transform (Eq. 9–10) and the per-axis extrema computation
//!   (Eq. 11–13) used by both the software encoder and the Color Adjustment
//!   Unit hardware model,
//! * the eccentricity-dependent **color discrimination function Φ** (Eq. 3)
//!   as a trait, with a calibrated synthetic model and the paper's
//!   RBF-network form.
//!
//! # Examples
//!
//! Compute how much room a peripheral pixel has along the blue axis:
//!
//! ```
//! use pvc_color::{DiscriminationModel, LinearRgb, RgbAxis, SyntheticDiscriminationModel};
//!
//! let model = SyntheticDiscriminationModel::default();
//! let pixel = LinearRgb::new(0.3, 0.55, 0.4);
//! let ellipsoid = model.ellipsoid(pixel, 25.0);
//! let extrema = ellipsoid.extrema_along_axis(RgbAxis::Blue);
//! assert!(extrema.high_value() > extrema.low_value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discrimination;
pub mod dkl;
pub mod ellipsoid;
pub mod lanes;
pub mod math;
pub mod srgb;

pub use discrimination::{
    DiscriminationModel, RbfConfig, RbfDiscriminationModel, RbfFitError,
    SyntheticDiscriminationModel, SyntheticModelParams, MAX_ECCENTRICITY_DEG,
};
pub use dkl::{dkl_axis_rgb_gain, dkl_to_rgb_matrix, rgb_to_dkl_matrix, DklColor, RGB_TO_DKL};
pub use ellipsoid::{AxisExtrema, DiscriminationEllipsoid, EllipsoidAxes, RgbAxis, RgbQuadric};
pub use lanes::LANE_WIDTH;
pub use math::{Mat3, Vec3};
pub use srgb::{
    linear_to_srgb, linear_to_srgb8, linear_to_srgb8_min_max, linear_to_srgb8_reference,
    linear_to_srgb8_slice, srgb8_to_linear, srgb8_to_linear_reference, srgb8_to_linear_slice,
    srgb_to_linear, LinearRgb, Srgb8,
};
