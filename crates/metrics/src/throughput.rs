//! Aggregate throughput telemetry for streaming workloads.
//!
//! The quality metrics in the crate root compare *one* pair of frames; a
//! streaming service instead wants running totals — frames served, bytes
//! that entered and left the encoder, wall-clock time — and the derived
//! rates (frames per second, megabits per second, effective compression
//! ratio). [`ThroughputReport`] is that accumulator: shards and sessions
//! each keep one and merge them into service-wide totals.

/// Running totals of an encoding stream and the wall-clock time they took.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThroughputReport {
    /// Frames encoded.
    pub frames: u64,
    /// Bytes entering the encoder (uncompressed frame payload).
    pub bytes_in: u64,
    /// Bytes leaving the encoder (compressed bitstream payload).
    pub bytes_out: u64,
    /// Pixels encoded. Under heterogeneous session resolutions this — not
    /// `frames` — is the comparable measure of work: one Vision-class frame
    /// costs several Quest-2 frames.
    pub pixels: u64,
    /// Wall-clock seconds the stream took end to end.
    pub wall_seconds: f64,
}

impl ThroughputReport {
    /// Records one encoded frame's payload sizes.
    pub fn record_frame(&mut self, bytes_in: u64, bytes_out: u64) {
        self.frames += 1;
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
    }

    /// Records one encoded frame whose input size is known in *bits*,
    /// along with its pixel count.
    ///
    /// Rounds the input size **up** to whole bytes (`div_ceil`): a 9-bit
    /// payload occupies 2 bytes on any byte-addressed transport. Flooring
    /// here would undercount `bytes_in` whenever `bits_in % 8 != 0` and
    /// silently inflate [`Self::compression_ratio`].
    pub fn record_frame_bits(&mut self, bits_in: u64, bytes_out: u64, pixels: u64) {
        self.record_frame(bits_in.div_ceil(8), bytes_out);
        self.pixels += pixels;
    }

    /// Adds another report's totals into this one.
    ///
    /// Wall-clock seconds take the maximum rather than the sum: merged
    /// reports describe streams that ran *concurrently*, so the service-wide
    /// elapsed time is the longest stream, not the serialized total.
    pub fn merge(&mut self, other: &ThroughputReport) {
        self.frames += other.frames;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.pixels += other.pixels;
        self.wall_seconds = self.wall_seconds.max(other.wall_seconds);
    }

    /// Aggregate frames per second (0 when no time has elapsed).
    pub fn frames_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.frames as f64 / self.wall_seconds
    }

    /// Output bandwidth in megabits per second (0 when no time elapsed).
    pub fn output_megabits_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.bytes_out as f64 * 8.0 / 1e6 / self.wall_seconds
    }

    /// Pixel throughput in megapixels per second (0 when no time elapsed).
    /// The resolution-independent rate for comparing heterogeneous streams.
    pub fn megapixels_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.pixels as f64 / 1e6 / self.wall_seconds
    }

    /// Effective compression ratio `bytes_in / bytes_out` (infinite when
    /// nothing has been emitted).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return f64::INFINITY;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }

    /// Traffic reduction over the uncompressed input, in percent.
    pub fn bandwidth_reduction_percent(&self) -> f64 {
        if self.bytes_in == 0 {
            return 0.0;
        }
        (1.0 - self.bytes_out as f64 / self.bytes_in as f64) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_frames_accumulates_totals() {
        let mut report = ThroughputReport::default();
        report.record_frame(1000, 250);
        report.record_frame(1000, 150);
        assert_eq!(report.frames, 2);
        assert_eq!(report.bytes_in, 2000);
        assert_eq!(report.bytes_out, 400);
        assert!((report.compression_ratio() - 5.0).abs() < 1e-12);
        assert!((report.bandwidth_reduction_percent() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn bit_sized_inputs_round_up_to_whole_bytes() {
        // Regression: floor division (bits / 8) dropped the partial byte,
        // undercounting bytes_in and inflating the compression ratio.
        let mut report = ThroughputReport::default();
        report.record_frame_bits(9, 1, 100);
        assert_eq!(report.bytes_in, 2, "9 bits occupy 2 bytes, not 1");
        report.record_frame_bits(16, 1, 100);
        assert_eq!(report.bytes_in, 4, "exact multiples stay exact");
        report.record_frame_bits(1, 1, 100);
        assert_eq!(report.bytes_in, 5);
        assert_eq!(report.frames, 3);
        assert_eq!(report.pixels, 300);
    }

    #[test]
    fn rates_follow_wall_clock() {
        let report = ThroughputReport {
            frames: 90,
            bytes_in: 9_000_000,
            bytes_out: 3_000_000,
            pixels: 6_000_000,
            wall_seconds: 3.0,
        };
        assert!((report.frames_per_second() - 30.0).abs() < 1e-12);
        assert!((report.output_megabits_per_second() - 8.0).abs() < 1e-12);
        assert!((report.megapixels_per_second() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_takes_longest_stream() {
        let mut a = ThroughputReport {
            frames: 10,
            bytes_in: 100,
            bytes_out: 50,
            pixels: 1000,
            wall_seconds: 2.0,
        };
        let b = ThroughputReport {
            frames: 5,
            bytes_in: 30,
            bytes_out: 10,
            pixels: 4000,
            wall_seconds: 3.5,
        };
        a.merge(&b);
        assert_eq!(a.frames, 15);
        assert_eq!(a.bytes_in, 130);
        assert_eq!(a.bytes_out, 60);
        assert_eq!(a.pixels, 5000);
        assert!((a.wall_seconds - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_degrades_gracefully() {
        let report = ThroughputReport::default();
        assert_eq!(report.frames_per_second(), 0.0);
        assert_eq!(report.output_megabits_per_second(), 0.0);
        assert_eq!(report.megapixels_per_second(), 0.0);
        assert_eq!(report.bandwidth_reduction_percent(), 0.0);
        assert!(report.compression_ratio().is_infinite());
    }
}
