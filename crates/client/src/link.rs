//! Deterministic link simulation between a shard and a headset.
//!
//! The model is a single serialized pipe per session: frame `i` is
//! offered to the link at its send slot `i / refresh_hz`, transmission
//! takes `payload_bits / bandwidth` seconds on a link that can carry only
//! one frame at a time, a fixed propagation latency is added, and a
//! seeded coin decides drops. Every quantity is a pure function of
//! `(LinkModel, session id, payload sizes)`, so two runs of the same
//! fleet see byte-identical link behaviour — the decode side inherits
//! the service's determinism guarantee.

use pvc_stream::ResolutionTier;

/// Default seed of the drop coin (xor-ed with the session id).
pub const DEFAULT_LINK_SEED: u64 = 0x114B_5EED;

/// A deterministic, seeded model of one session's downlink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Link bandwidth in Mbit/s; `None` means infinite (no serialization
    /// delay).
    pub bandwidth_mbits: Option<f64>,
    /// Per-tier bandwidth overrides (indexed like [`ResolutionTier::ALL`]);
    /// a tier without an override uses `bandwidth_mbits`.
    pub tier_bandwidth_mbits: [Option<f64>; 3],
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
    /// Probability that any given frame is dropped in flight.
    pub drop_probability: f64,
    /// Seed of the per-session drop coin (xor-ed with the session id, so
    /// sessions see independent but reproducible loss patterns).
    pub seed: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::lossless()
    }
}

impl LinkModel {
    /// An ideal link: infinite bandwidth, zero latency, zero loss. Every
    /// frame arrives exactly on time, so client-decoded frames must be
    /// bit-identical to the worker's adjusted frames.
    pub fn lossless() -> Self {
        LinkModel {
            bandwidth_mbits: None,
            tier_bandwidth_mbits: [None; 3],
            latency_ms: 0.0,
            drop_probability: 0.0,
            seed: DEFAULT_LINK_SEED,
        }
    }

    /// The constrained-link preset (the paper's Fig. 10-style bandwidth
    /// scenario): a 20 Mbit/s pipe with 5 ms latency and a 2% drop rate.
    /// Enough for a small Quest-2-class stream; a Vision-class session's
    /// bigger frames start missing their 96 Hz deadlines.
    pub fn capped() -> Self {
        LinkModel {
            bandwidth_mbits: Some(20.0),
            tier_bandwidth_mbits: [None; 3],
            latency_ms: 5.0,
            drop_probability: 0.02,
            seed: DEFAULT_LINK_SEED,
        }
    }

    /// Returns the model with a different base bandwidth cap.
    pub fn with_bandwidth_mbits(mut self, mbits: Option<f64>) -> Self {
        self.bandwidth_mbits = mbits;
        self
    }

    /// Returns the model with a per-tier bandwidth cap override.
    pub fn with_tier_bandwidth_mbits(mut self, tier: ResolutionTier, mbits: Option<f64>) -> Self {
        let index = ResolutionTier::ALL
            .iter()
            .position(|&t| t == tier)
            .expect("tier is in ALL");
        self.tier_bandwidth_mbits[index] = mbits;
        self
    }

    /// Returns the model with a different propagation latency.
    pub fn with_latency_ms(mut self, latency_ms: f64) -> Self {
        self.latency_ms = latency_ms;
        self
    }

    /// Returns the model with a different drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.drop_probability = p;
        self
    }

    /// Returns the model with a different drop-coin seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The bandwidth cap a given tier's session sees, in Mbit/s.
    pub fn bandwidth_for(&self, tier: ResolutionTier) -> Option<f64> {
        let index = ResolutionTier::ALL
            .iter()
            .position(|&t| t == tier)
            .expect("tier is in ALL");
        self.tier_bandwidth_mbits[index].or(self.bandwidth_mbits)
    }

    /// Seconds the link spends serializing `payload_bytes` for `tier`.
    pub fn transmission_seconds(&self, tier: ResolutionTier, payload_bytes: u64) -> f64 {
        match self.bandwidth_for(tier) {
            None => 0.0,
            Some(mbits) => payload_bytes as f64 * 8.0 / (mbits * 1e6),
        }
    }

    /// One-way propagation latency in seconds.
    pub fn latency_seconds(&self) -> f64 {
        self.latency_ms / 1e3
    }

    /// True when the link can neither delay nor drop a frame.
    pub fn is_lossless(&self) -> bool {
        self.bandwidth_mbits.is_none()
            && self.tier_bandwidth_mbits.iter().all(Option::is_none)
            && self.latency_ms == 0.0
            && self.drop_probability == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_preset_is_lossless() {
        assert!(LinkModel::lossless().is_lossless());
        assert!(!LinkModel::capped().is_lossless());
        assert_eq!(
            LinkModel::lossless().transmission_seconds(ResolutionTier::Quest2, 1 << 20),
            0.0
        );
    }

    #[test]
    fn tier_override_beats_the_base_cap() {
        let link =
            LinkModel::capped().with_tier_bandwidth_mbits(ResolutionTier::VisionClass, Some(50.0));
        assert_eq!(link.bandwidth_for(ResolutionTier::Quest2), Some(20.0));
        assert_eq!(link.bandwidth_for(ResolutionTier::VisionClass), Some(50.0));
        // 50 Mbit/s moves 1 MB in 8/50 of a second.
        let t = link.transmission_seconds(ResolutionTier::VisionClass, 1_000_000);
        assert!((t - 0.16).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_drop_probability_panics() {
        let _ = LinkModel::lossless().with_drop_probability(1.5);
    }
}
