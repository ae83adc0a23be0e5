//! Decode-side delivery accounting for one session's link-simulated
//! stream.
//!
//! The encoder-side [`crate::ThroughputReport`] counts what a worker
//! produced; this module counts what a client actually *saw* after the
//! link had its say: frames delivered before their refresh deadline,
//! frames that arrived late, frames dropped outright, and the resulting
//! displayed-image quality (a late or dropped frame leaves the previous
//! image on the panel, so the error is the stale frame vs. the frame that
//! should have been shown).
//!
//! On a lossless link every frame is on time, the displayed image always
//! matches the reference, and [`DeliveryReport::psnr_db`] is infinite —
//! the decode-side twin of the encoder's bit-identical determinism pins.

/// What one session's client observed at the end of its stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeliveryReport {
    /// Frames the worker sent (every frame record in the wire stream).
    pub frames_sent: u64,
    /// Frames that arrived before their refresh deadline.
    pub frames_delivered: u64,
    /// Frames that arrived after their deadline (decoded but not shown in
    /// their own slot).
    pub frames_late: u64,
    /// Frames the link dropped.
    pub frames_dropped: u64,
    /// Payload bytes the worker sent.
    pub bytes_sent: u64,
    /// Payload bytes of on-time frames (the goodput numerator).
    pub bytes_delivered: u64,
    /// The stream's duration in seconds at the tier's refresh rate
    /// (`frames_sent / refresh_hz`).
    pub stream_seconds: f64,
    /// Sum of squared per-channel errors of the displayed image vs. the
    /// reference, over every slot where something was on the panel.
    pub error_squared_sum: f64,
    /// Number of per-channel samples behind `error_squared_sum`.
    pub error_samples: u64,
    /// Refresh slots with nothing on the panel yet (stream opened with a
    /// drop); excluded from the MSE accumulation.
    pub blank_slots: u64,
    /// Frames that arrived intact but were undisplayable because an
    /// earlier dropped frame broke the temporal prediction chain: every
    /// dependent (predicted) frame counts as stale until the next
    /// keyframe restores the panel.
    pub stale_frames: u64,
}

impl DeliveryReport {
    /// Records a frame that arrived before its deadline.
    pub fn record_delivered(&mut self, payload_bytes: u64) {
        self.frames_sent += 1;
        self.frames_delivered += 1;
        self.bytes_sent += payload_bytes;
        self.bytes_delivered += payload_bytes;
    }

    /// Records a frame that arrived after its deadline.
    pub fn record_late(&mut self, payload_bytes: u64) {
        self.frames_sent += 1;
        self.frames_late += 1;
        self.bytes_sent += payload_bytes;
    }

    /// Records a frame the link dropped.
    pub fn record_dropped(&mut self, payload_bytes: u64) {
        self.frames_sent += 1;
        self.frames_dropped += 1;
        self.bytes_sent += payload_bytes;
    }

    /// Folds one refresh slot's displayed-vs-reference error into the
    /// quality accumulator (`mse × samples` of that slot's comparison).
    pub fn accumulate_error(&mut self, squared_sum: f64, samples: u64) {
        self.error_squared_sum += squared_sum;
        self.error_samples += samples;
    }

    /// Merges another session's report into this one (per-tier and
    /// fleet-wide aggregation).
    pub fn merge(&mut self, other: &DeliveryReport) {
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.frames_late += other.frames_late;
        self.frames_dropped += other.frames_dropped;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
        self.stream_seconds += other.stream_seconds;
        self.error_squared_sum += other.error_squared_sum;
        self.error_samples += other.error_samples;
        self.blank_slots += other.blank_slots;
        self.stale_frames += other.stale_frames;
    }

    /// Mean squared error of the displayed image over the stream
    /// (0 when every slot matched its reference).
    pub fn mse(&self) -> f64 {
        if self.error_samples == 0 {
            0.0
        } else {
            self.error_squared_sum / self.error_samples as f64
        }
    }

    /// PSNR of the displayed image in dB; infinite when the displayed
    /// image never differed from the reference (lossless link).
    pub fn psnr_db(&self) -> f64 {
        let mse = self.mse();
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    /// Fraction of sent frames that made their deadline.
    pub fn delivery_rate(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.frames_delivered as f64 / self.frames_sent as f64
        }
    }

    /// On-time frames per second of stream time (equals the refresh rate
    /// on a lossless link).
    pub fn delivered_fps(&self) -> f64 {
        if self.stream_seconds <= 0.0 {
            0.0
        } else {
            self.frames_delivered as f64 / self.stream_seconds
        }
    }

    /// On-time payload megabits per second of stream time.
    pub fn goodput_mbits(&self) -> f64 {
        if self.stream_seconds <= 0.0 {
            0.0
        } else {
            self.bytes_delivered as f64 * 8.0 / self.stream_seconds / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_stream_has_infinite_psnr_and_full_delivery() {
        let mut report = DeliveryReport::default();
        for _ in 0..10 {
            report.record_delivered(100);
        }
        report.stream_seconds = 10.0 / 72.0;
        assert_eq!(report.delivery_rate(), 1.0);
        assert!(report.psnr_db().is_infinite());
        assert!((report.delivered_fps() - 72.0).abs() < 1e-9);
        let expected_goodput = 1000.0 * 8.0 / (10.0 / 72.0) / 1e6;
        assert!((report.goodput_mbits() - expected_goodput).abs() < 1e-12);
    }

    #[test]
    fn losses_show_up_in_every_rate() {
        let mut report = DeliveryReport::default();
        report.record_delivered(100);
        report.record_dropped(100);
        report.record_late(100);
        report.record_delivered(100);
        report.stream_seconds = 4.0 / 72.0;
        assert_eq!(report.frames_sent, 4);
        assert_eq!(report.frames_delivered, 2);
        assert_eq!(report.frames_late, 1);
        assert_eq!(report.frames_dropped, 1);
        assert_eq!(report.bytes_sent, 400);
        assert_eq!(report.bytes_delivered, 200);
        assert_eq!(report.delivery_rate(), 0.5);
        assert!((report.delivered_fps() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn accumulated_error_produces_the_expected_psnr() {
        let mut report = DeliveryReport::default();
        // Constant error of 5 code values across 300 samples: MSE = 25.
        report.accumulate_error(25.0 * 300.0, 300);
        assert!((report.mse() - 25.0).abs() < 1e-12);
        let expected = 10.0 * (255.0f64 * 255.0 / 25.0).log10();
        assert!((report.psnr_db() - expected).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = DeliveryReport::default();
        a.record_delivered(10);
        a.stream_seconds = 1.0;
        a.accumulate_error(100.0, 3);
        a.blank_slots = 1;
        a.stale_frames = 2;
        let mut b = DeliveryReport::default();
        b.record_dropped(20);
        b.stream_seconds = 2.0;
        b.accumulate_error(50.0, 3);
        a.merge(&b);
        assert_eq!(a.frames_sent, 2);
        assert_eq!(a.frames_dropped, 1);
        assert_eq!(a.bytes_sent, 30);
        assert_eq!(a.stream_seconds, 3.0);
        assert_eq!(a.error_samples, 6);
        assert_eq!(a.blank_slots, 1);
        assert_eq!(a.stale_frames, 2);
        assert!((a.mse() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = DeliveryReport::default();
        assert_eq!(report.delivery_rate(), 0.0);
        assert_eq!(report.delivered_fps(), 0.0);
        assert_eq!(report.goodput_mbits(), 0.0);
        assert!(report.psnr_db().is_infinite());
    }
}
