//! Aggregate temporal-coding accounting for a session's stream.
//!
//! The encoder reports per-frame skip/delta/intra tile counts plus the
//! exact bits emitted and the bits a pure intra frame would have cost
//! (computed in the same pass, so the saving needs no second intra-only
//! run). This module sums those per-frame numbers per session; the
//! service layer then merges sessions per tier and fleet-wide exactly
//! like the other report types.

/// Session-total temporal coding counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TemporalTotals {
    /// Frames emitted as intra keyframes (on an intra-only session:
    /// every frame).
    pub keyframes: u64,
    /// Frames emitted as predicted (temporal) frames.
    pub predicted_frames: u64,
    /// Tiles emitted as `Skip` records.
    pub skip_tiles: u64,
    /// Tiles emitted as `Delta` records.
    pub delta_tiles: u64,
    /// Tiles emitted as `Intra` records (keyframe tiles included).
    pub intra_tiles: u64,
    /// Total emitted bits, frame headers included.
    pub bits: u64,
    /// Bits the same frames would have cost as pure intra frames.
    pub intra_bits: u64,
}

impl TemporalTotals {
    /// Folds one frame's temporal statistics into the session totals.
    #[allow(clippy::too_many_arguments)]
    pub fn record_frame(
        &mut self,
        keyframe: bool,
        skip_tiles: u64,
        delta_tiles: u64,
        intra_tiles: u64,
        bits: u64,
        intra_bits: u64,
    ) {
        if keyframe {
            self.keyframes += 1;
        } else {
            self.predicted_frames += 1;
        }
        self.skip_tiles += skip_tiles;
        self.delta_tiles += delta_tiles;
        self.intra_tiles += intra_tiles;
        self.bits += bits;
        self.intra_bits += intra_bits;
    }

    /// Merges another session's totals into this one (per-tier and
    /// fleet-wide aggregation).
    pub fn merge(&mut self, other: &TemporalTotals) {
        self.keyframes += other.keyframes;
        self.predicted_frames += other.predicted_frames;
        self.skip_tiles += other.skip_tiles;
        self.delta_tiles += other.delta_tiles;
        self.intra_tiles += other.intra_tiles;
        self.bits += other.bits;
        self.intra_bits += other.intra_bits;
    }

    /// Bits the temporal mode saved versus intra-only coding.
    pub fn bits_saved(&self) -> u64 {
        self.intra_bits.saturating_sub(self.bits)
    }

    /// Saving versus intra-only coding, percent (0 on an empty or
    /// intra-only stream).
    pub fn reduction_over_intra_percent(&self) -> f64 {
        if self.intra_bits == 0 {
            return 0.0;
        }
        self.bits_saved() as f64 / self.intra_bits as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_splits_key_and_predicted_frames() {
        let mut totals = TemporalTotals::default();
        totals.record_frame(true, 0, 0, 16, 1000, 1000);
        totals.record_frame(false, 10, 4, 2, 300, 1000);
        assert_eq!(totals.keyframes, 1);
        assert_eq!(totals.predicted_frames, 1);
        assert_eq!(totals.skip_tiles, 10);
        assert_eq!(totals.delta_tiles, 4);
        assert_eq!(totals.intra_tiles, 18);
        assert_eq!(totals.bits, 1300);
        assert_eq!(totals.intra_bits, 2000);
        assert_eq!(totals.bits_saved(), 700);
        assert!((totals.reduction_over_intra_percent() - 35.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = TemporalTotals {
            keyframes: 1,
            predicted_frames: 2,
            skip_tiles: 3,
            delta_tiles: 4,
            intra_tiles: 5,
            bits: 600,
            intra_bits: 700,
        };
        a.merge(&a.clone());
        assert_eq!(a.keyframes, 2);
        assert_eq!(a.predicted_frames, 4);
        assert_eq!(a.skip_tiles, 6);
        assert_eq!(a.delta_tiles, 8);
        assert_eq!(a.intra_tiles, 10);
        assert_eq!(a.bits, 1200);
        assert_eq!(a.intra_bits, 1400);
    }

    #[test]
    fn empty_totals_report_zero_reduction() {
        let totals = TemporalTotals::default();
        assert_eq!(totals.bits_saved(), 0);
        assert_eq!(totals.reduction_over_intra_percent(), 0.0);
    }
}
