//! Per-frame adjustment statistics.

use crate::adjust::AdjustmentCase;

/// Counters describing what the adjustment did to a frame.
///
/// The case counters feed Fig. 12 of the paper (distribution of tiles across
/// the two geometric cases); the foveal counter describes how many tiles
/// were bypassed because they overlap the protected central region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdjustmentStats {
    /// Total number of tiles in the frame.
    pub total_tiles: usize,
    /// Tiles left untouched because they overlap the foveal region.
    pub foveal_tiles: usize,
    /// Adjusted tiles that fell into case 1 (no common plane).
    pub case1_tiles: usize,
    /// Adjusted tiles that fell into case 2 (common plane, Δ collapses).
    pub case2_tiles: usize,
}

impl AdjustmentStats {
    /// Records the outcome of one adjusted (non-foveal) tile.
    pub fn record_case(&mut self, case: AdjustmentCase) {
        match case {
            AdjustmentCase::NoCommonPlane => self.case1_tiles += 1,
            AdjustmentCase::CommonPlane => self.case2_tiles += 1,
        }
    }

    /// Number of tiles that went through the adjustment.
    pub fn adjusted_tiles(&self) -> usize {
        self.case1_tiles + self.case2_tiles
    }

    /// Fraction of adjusted tiles in case 1, in percent (Fig. 12).
    pub fn case1_percent(&self) -> f64 {
        let adjusted = self.adjusted_tiles();
        if adjusted == 0 {
            return 0.0;
        }
        self.case1_tiles as f64 / adjusted as f64 * 100.0
    }

    /// Fraction of adjusted tiles in case 2, in percent (Fig. 12).
    pub fn case2_percent(&self) -> f64 {
        let adjusted = self.adjusted_tiles();
        if adjusted == 0 {
            return 0.0;
        }
        self.case2_tiles as f64 / adjusted as f64 * 100.0
    }

    /// Merges the counters of another frame or tile batch into this one.
    pub fn merge(&mut self, other: &AdjustmentStats) {
        self.total_tiles += other.total_tiles;
        self.foveal_tiles += other.foveal_tiles;
        self.case1_tiles += other.case1_tiles;
        self.case2_tiles += other.case2_tiles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_hundred() {
        let mut s = AdjustmentStats {
            total_tiles: 10,
            foveal_tiles: 2,
            ..Default::default()
        };
        for _ in 0..3 {
            s.record_case(AdjustmentCase::NoCommonPlane);
        }
        for _ in 0..5 {
            s.record_case(AdjustmentCase::CommonPlane);
        }
        assert_eq!(s.adjusted_tiles(), 8);
        assert!((s.case1_percent() + s.case2_percent() - 100.0).abs() < 1e-12);
        assert!((s.case1_percent() - 37.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_percentages() {
        let s = AdjustmentStats::default();
        assert_eq!(s.case1_percent(), 0.0);
        assert_eq!(s.case2_percent(), 0.0);
        assert_eq!(s.adjusted_tiles(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AdjustmentStats {
            total_tiles: 4,
            foveal_tiles: 1,
            case1_tiles: 1,
            case2_tiles: 2,
        };
        let b = AdjustmentStats {
            total_tiles: 6,
            foveal_tiles: 0,
            case1_tiles: 2,
            case2_tiles: 4,
        };
        a.merge(&b);
        assert_eq!(a.total_tiles, 10);
        assert_eq!(a.foveal_tiles, 1);
        assert_eq!(a.case1_tiles, 3);
        assert_eq!(a.case2_tiles, 6);
    }
}
