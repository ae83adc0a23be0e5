//! DRAM access energy model.

use pvc_bdc::CompressionStats;

/// Energy cost of moving framebuffer data through DRAM.
///
/// The paper estimates the DRAM access energy with Micron's system power
/// calculator for a typical 8 Gb, 32-bit LPDDR4 part and arrives at
/// 3,477 pJ per (24-bit) pixel; the per-byte figure below reproduces that
/// number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Energy per byte transferred through DRAM, in picojoules.
    pub energy_per_byte_pj: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            energy_per_byte_pj: 1159.0,
        }
    }
}

impl DramConfig {
    /// Creates a configuration with an explicit per-byte energy.
    ///
    /// # Panics
    ///
    /// Panics if the energy is not positive.
    pub fn new(energy_per_byte_pj: f64) -> Self {
        assert!(energy_per_byte_pj > 0.0, "DRAM energy must be positive");
        DramConfig { energy_per_byte_pj }
    }

    /// Energy per uncompressed 24-bit pixel, in picojoules (≈ 3,477 pJ with
    /// the default configuration, matching Sec. 5.1).
    pub fn energy_per_pixel_pj(&self) -> f64 {
        self.energy_per_byte_pj * 3.0
    }

    /// Energy (in millijoules) to move `bits` of framebuffer data once
    /// through DRAM.
    pub fn energy_for_bits_mj(&self, bits: u64) -> f64 {
        bits as f64 / 8.0 * self.energy_per_byte_pj * 1e-9
    }

    /// Energy (in millijoules) to move one compressed frame through DRAM.
    pub fn frame_energy_mj(&self, stats: &CompressionStats) -> f64 {
        self.energy_for_bits_mj(stats.compressed_bits)
    }

    /// Average DRAM power (in milliwatts) of streaming frames of the given
    /// compressed size at `fps` frames per second.
    pub fn streaming_power_mw(&self, stats: &CompressionStats, fps: f64) -> f64 {
        self.frame_energy_mj(stats) * fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_bdc::SizeBreakdown;

    fn stats_of_bits(pixels: usize, bits: u64) -> CompressionStats {
        CompressionStats::from_breakdown(
            pixels,
            SizeBreakdown {
                base_bits: 0,
                metadata_bits: 0,
                delta_bits: bits,
            },
        )
    }

    #[test]
    fn per_pixel_energy_matches_paper() {
        let dram = DramConfig::default();
        assert!((dram.energy_per_pixel_pj() - 3477.0).abs() < 1.0);
    }

    #[test]
    fn frame_energy_scales_linearly_with_bits() {
        let dram = DramConfig::default();
        let small = dram.frame_energy_mj(&stats_of_bits(100, 1000));
        let large = dram.frame_energy_mj(&stats_of_bits(100, 2000));
        assert!((large / small - 2.0).abs() < 1e-9);
    }

    #[test]
    fn uncompressed_quest2_frame_energy_is_tens_of_millijoules() {
        // 5408×2736 pixels × 3477 pJ ≈ 51 mJ per uncompressed frame.
        let dram = DramConfig::default();
        let pixels = 5408 * 2736usize;
        let energy = dram.energy_for_bits_mj(pixels as u64 * 24);
        assert!((energy - 51.4).abs() < 1.0, "energy {energy} mJ");
    }

    #[test]
    fn streaming_power_scales_with_fps() {
        let dram = DramConfig::default();
        let stats = stats_of_bits(1000, 24_000);
        let p72 = dram.streaming_power_mw(&stats, 72.0);
        let p120 = dram.streaming_power_mw(&stats, 120.0);
        assert!((p120 / p72 - 120.0 / 72.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn non_positive_energy_panics() {
        let _ = DramConfig::new(0.0);
    }
}
