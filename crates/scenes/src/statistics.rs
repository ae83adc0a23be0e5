//! Simple image statistics used to validate scene characteristics.

use pvc_frame::LinearFrame;

/// Aggregate statistics of a rendered frame.
///
/// Used by tests and by the experiment harness to confirm that each
/// synthetic scene has the qualitative character of its namesake in the
/// paper (bright/green fortnite, dark dumbo and monkey, busy skyline, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneStatistics {
    /// Mean relative luminance of the frame (0–1).
    pub mean_luminance: f64,
    /// Fraction of pixels whose green channel is the strict per-pixel
    /// maximum.
    pub green_dominant_fraction: f64,
    /// Mean absolute luminance difference between horizontally adjacent
    /// pixels; a cheap proxy for spatial detail.
    pub mean_local_contrast: f64,
}

impl SceneStatistics {
    /// Computes statistics over a linear-RGB frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame has no pixels (frames always have at least one).
    pub fn of_linear(frame: &LinearFrame) -> Self {
        let pixels = frame.pixels();
        assert!(!pixels.is_empty(), "frame must contain pixels");
        let n = pixels.len() as f64;
        let mean_luminance = pixels.iter().map(|p| p.luminance()).sum::<f64>() / n;
        let green_dominant = pixels.iter().filter(|p| p.g > p.r && p.g > p.b).count() as f64 / n;

        let mut contrast_sum = 0.0;
        let mut contrast_count = 0usize;
        for y in 0..frame.height() {
            for x in 1..frame.width() {
                let a = frame.pixel(x - 1, y).luminance();
                let b = frame.pixel(x, y).luminance();
                contrast_sum += (a - b).abs();
                contrast_count += 1;
            }
        }
        let mean_local_contrast = if contrast_count == 0 {
            0.0
        } else {
            contrast_sum / contrast_count as f64
        };

        SceneStatistics {
            mean_luminance,
            green_dominant_fraction: green_dominant,
            mean_local_contrast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::LinearRgb;
    use pvc_frame::Dimensions;

    #[test]
    fn flat_frame_statistics() {
        let frame = LinearFrame::filled(Dimensions::new(8, 8), LinearRgb::new(0.2, 0.6, 0.1));
        let stats = SceneStatistics::of_linear(&frame);
        assert!((stats.mean_luminance - LinearRgb::new(0.2, 0.6, 0.1).luminance()).abs() < 1e-12);
        assert_eq!(stats.green_dominant_fraction, 1.0);
        assert_eq!(stats.mean_local_contrast, 0.0);
    }

    #[test]
    fn checkerboard_has_high_contrast() {
        let dims = Dimensions::new(16, 16);
        let mut frame = LinearFrame::filled(dims, LinearRgb::BLACK);
        for y in 0..16 {
            for x in 0..16 {
                if (x + y) % 2 == 0 {
                    frame.set_pixel(x, y, LinearRgb::WHITE);
                }
            }
        }
        let stats = SceneStatistics::of_linear(&frame);
        assert!(stats.mean_local_contrast > 0.9);
        assert!((stats.mean_luminance - 0.5).abs() < 0.01);
        assert_eq!(stats.green_dominant_fraction, 0.0);
    }
}
