//! Compressed-size accounting.

/// Bit counts of an encoded tile or frame, split by component.
///
/// The split matches Fig. 11 of the paper: the cost of the per-channel base
/// values, the cost of the per-tile metadata (the delta bit-length fields)
/// and the cost of the Δ payload itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeBreakdown {
    /// Bits spent on base values.
    pub base_bits: u64,
    /// Bits spent on per-tile metadata (delta bit-length fields).
    pub metadata_bits: u64,
    /// Bits spent on the Δ payload.
    pub delta_bits: u64,
}

impl SizeBreakdown {
    /// A breakdown with all counters at zero.
    pub const ZERO: SizeBreakdown = SizeBreakdown {
        base_bits: 0,
        metadata_bits: 0,
        delta_bits: 0,
    };

    /// Total number of bits.
    #[inline]
    pub fn total_bits(&self) -> u64 {
        self.base_bits + self.metadata_bits + self.delta_bits
    }

    /// Average bits per pixel for a region of `pixel_count` pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_count` is zero.
    pub fn bits_per_pixel(&self, pixel_count: usize) -> f64 {
        assert!(pixel_count > 0, "pixel count must be non-zero");
        self.total_bits() as f64 / pixel_count as f64
    }

    /// Per-component bits per pixel `(base, metadata, delta)`.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_count` is zero.
    pub fn bits_per_pixel_split(&self, pixel_count: usize) -> (f64, f64, f64) {
        assert!(pixel_count > 0, "pixel count must be non-zero");
        let n = pixel_count as f64;
        (
            self.base_bits as f64 / n,
            self.metadata_bits as f64 / n,
            self.delta_bits as f64 / n,
        )
    }
}

impl std::ops::Add for SizeBreakdown {
    type Output = SizeBreakdown;
    fn add(self, rhs: SizeBreakdown) -> SizeBreakdown {
        SizeBreakdown {
            base_bits: self.base_bits + rhs.base_bits,
            metadata_bits: self.metadata_bits + rhs.metadata_bits,
            delta_bits: self.delta_bits + rhs.delta_bits,
        }
    }
}

impl std::ops::AddAssign for SizeBreakdown {
    fn add_assign(&mut self, rhs: SizeBreakdown) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SizeBreakdown {
    fn sum<I: Iterator<Item = SizeBreakdown>>(iter: I) -> Self {
        iter.fold(SizeBreakdown::ZERO, |acc, x| acc + x)
    }
}

/// Overall compression statistics of a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Number of pixels in the frame.
    pub pixel_count: usize,
    /// Size of the uncompressed frame in bits (24 bpp).
    pub uncompressed_bits: u64,
    /// Size of the compressed frame in bits.
    pub compressed_bits: u64,
    /// Component split of the compressed size.
    pub breakdown: SizeBreakdown,
}

impl CompressionStats {
    /// Builds statistics from a breakdown.
    pub fn from_breakdown(pixel_count: usize, breakdown: SizeBreakdown) -> Self {
        CompressionStats {
            pixel_count,
            uncompressed_bits: pixel_count as u64 * 24,
            compressed_bits: breakdown.total_bits(),
            breakdown,
        }
    }

    /// Bandwidth (traffic) reduction relative to the uncompressed frame, in
    /// percent. This is the metric of Fig. 10 and Fig. 15.
    pub fn bandwidth_reduction_percent(&self) -> f64 {
        if self.uncompressed_bits == 0 {
            return 0.0;
        }
        (1.0 - self.compressed_bits as f64 / self.uncompressed_bits as f64) * 100.0
    }

    /// Compression ratio `uncompressed / compressed`.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bits == 0 {
            return f64::INFINITY;
        }
        self.uncompressed_bits as f64 / self.compressed_bits as f64
    }

    /// Average compressed bits per pixel.
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixel_count == 0 {
            return 0.0;
        }
        self.compressed_bits as f64 / self.pixel_count as f64
    }

    /// Relative traffic reduction of `self` over another (baseline) encoding
    /// of the same frame, in percent.
    pub fn reduction_over(&self, baseline: &CompressionStats) -> f64 {
        if baseline.compressed_bits == 0 {
            return 0.0;
        }
        (1.0 - self.compressed_bits as f64 / baseline.compressed_bits as f64) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_sums() {
        let a = SizeBreakdown {
            base_bits: 8,
            metadata_bits: 4,
            delta_bits: 20,
        };
        let b = SizeBreakdown {
            base_bits: 2,
            metadata_bits: 1,
            delta_bits: 7,
        };
        assert_eq!(a.total_bits(), 32);
        assert_eq!((a + b).total_bits(), 42);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        let summed: SizeBreakdown = [a, b].into_iter().sum();
        assert_eq!(summed, a + b);
    }

    #[test]
    fn bits_per_pixel_split_adds_up() {
        let a = SizeBreakdown {
            base_bits: 24,
            metadata_bits: 12,
            delta_bits: 60,
        };
        let (base, meta, delta) = a.bits_per_pixel_split(16);
        assert!((base + meta + delta - a.bits_per_pixel(16)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn bits_per_pixel_zero_pixels_panics() {
        SizeBreakdown::ZERO.bits_per_pixel(0);
    }

    #[test]
    fn stats_reduction_percent() {
        let breakdown = SizeBreakdown {
            base_bits: 0,
            metadata_bits: 0,
            delta_bits: 12 * 16,
        };
        let stats = CompressionStats::from_breakdown(16, breakdown);
        assert_eq!(stats.uncompressed_bits, 16 * 24);
        assert!((stats.bandwidth_reduction_percent() - 50.0).abs() < 1e-12);
        assert!((stats.compression_ratio() - 2.0).abs() < 1e-12);
        assert!((stats.bits_per_pixel() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_over_baseline() {
        let ours = CompressionStats::from_breakdown(
            16,
            SizeBreakdown {
                base_bits: 0,
                metadata_bits: 0,
                delta_bits: 100,
            },
        );
        let baseline = CompressionStats::from_breakdown(
            16,
            SizeBreakdown {
                base_bits: 0,
                metadata_bits: 0,
                delta_bits: 200,
            },
        );
        assert!((ours.reduction_over(&baseline) - 50.0).abs() < 1e-12);
        assert!((baseline.reduction_over(&ours) + 100.0).abs() < 1e-12);
    }
}
