//! The benchmark's workloads: which sessions are served, how, and how a
//! run's time is split between its measurement phases.

use pvc_client::LinkModel;
use pvc_core::{EncoderConfig, TemporalConfig};
use pvc_frame::Dimensions;
use pvc_stream::{
    GazeModel, LeastLoaded, Placement, ServiceConfig, SessionConfig, Static, WorkloadMix,
};

/// Render→encode queue depth of every shard.
const QUEUE_DEPTH: usize = 4;

/// Sessions in every fleet.
const SESSIONS: usize = 8;

/// 72 Hz-equivalent frame budget each tier scales from: one replay round
/// then has at least 200 frames (208 intra-only, 228 in the heavy-tail
/// mix), so p95 has ten frames beyond it.
const BASE_FRAMES: u32 = 26;

/// The measured Quest-2-equivalent per-eye render size each tier scales
/// from. Tests run the same fleets at a smaller base.
pub const SERVING_BASE: Dimensions = Dimensions {
    width: 128,
    height: 128,
};

/// Link seeds each wire stream is replayed under on the capped link.
const LINK_SEEDS: u64 = 8;

/// Times set-up is repeated in an untraced run (`setup_s` is the median).
pub(crate) const SETUP_REPEATS: usize = 3;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight Quest-2 sessions, intra-only coding, static placement.
    IntraFleet,
    /// Eight heavy-tail sessions, temporal coding, mixed gaze,
    /// least-loaded placement.
    TemporalMixedFleet,
    /// The temporal fleet's wire streams, decoded over and over by one
    /// client.
    ClientReplay,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the first two; see the
    /// README for why `client_replay` is run by hand.
    pub const ALL: [Workload; 3] = [
        Workload::IntraFleet,
        Workload::TemporalMixedFleet,
        Workload::ClientReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IntraFleet => "intra_fleet",
            Workload::TemporalMixedFleet => "temporal_mixed_fleet",
            Workload::ClientReplay => "client_replay",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shares of the untraced run's measuring time given to the fleet,
    /// the single-thread replay and the client decode loop;
    /// `client_replay` gives the decode loop a larger share.
    pub fn shares(self) -> PhaseShares {
        match self {
            Workload::IntraFleet | Workload::TemporalMixedFleet => PhaseShares {
                fleet: 0.40,
                replay: 0.35,
                decode: 0.25,
            },
            Workload::ClientReplay => PhaseShares {
                fleet: 0.35,
                replay: 0.35,
                decode: 0.30,
            },
        }
    }

    /// The sessions and serving configuration of this workload at base
    /// render size `base`, with every session seed and the link seeds
    /// derived from `seed`.
    pub fn roster(self, base: Dimensions, seed: u64) -> Roster {
        let shards = (pvc_parallel::available_threads() / 2).max(1);
        let temporal = self != Workload::IntraFleet;
        let mut encoder = EncoderConfig::default();
        if temporal {
            encoder = encoder.with_temporal(TemporalConfig::every(
                TemporalConfig::default().keyframe_interval,
            ));
        }
        let mix = if temporal {
            WorkloadMix::HeavyTail
        } else {
            WorkloadMix::Uniform
        };
        let sessions = (0..SESSIONS)
            .map(|index| {
                let session = SessionConfig::synthetic_mixed(index, mix, base, BASE_FRAMES)
                    .with_seed(derive_seed(seed, index as u64));
                // Temporal fleets pair the two dominant gaze behaviours:
                // fixation-saccade on even sessions, smooth pursuit on odd.
                if temporal && index % 2 == 1 {
                    session.with_gaze_model(GazeModel::pursuit(1.5))
                } else {
                    session
                }
            })
            .collect();
        Roster {
            sessions,
            service: ServiceConfig::default()
                .with_shards(shards)
                .with_queue_depth(QUEUE_DEPTH)
                .with_encoder(encoder),
            least_loaded: temporal,
            link_seeds: (0..LINK_SEEDS)
                .map(|k| derive_seed(seed ^ LINK_SEED_SALT, k))
                .collect(),
        }
    }
}

/// Salt separating link seeds from session seeds.
const LINK_SEED_SALT: u64 = 0x11A7_5EED_0000_0001;

/// SplitMix64 of `(seed, index)`: neighbouring indices get unrelated
/// seeds, and the same pair always gives the same one.
fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a run's measuring time is divided (shares sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseShares {
    /// Untraced fleet runs: `fleet_mpx_per_s`, `bits_per_pixel`.
    pub fleet: f64,
    /// Single-thread replay: `frame_ms_p50`, `frame_ms_p95`.
    pub replay: f64,
    /// Lossless client decode: `decode_mpx_per_s`.
    pub decode: f64,
}

/// A workload's generated inputs: the only thing the program sees.
#[derive(Debug, Clone)]
pub struct Roster {
    /// The sessions, in admission order.
    pub sessions: Vec<SessionConfig>,
    /// Shards, queue depth and encoder; no tracing, no collection.
    pub service: ServiceConfig,
    /// Least-loaded placement (otherwise static modulo).
    pub least_loaded: bool,
    /// Seeds of the capped-link replays.
    pub link_seeds: Vec<u64>,
}

impl Roster {
    /// A fresh placement policy for one runtime.
    pub fn placement(&self) -> Box<dyn Placement> {
        if self.least_loaded {
            Box::new(LeastLoaded)
        } else {
            Box::new(Static)
        }
    }

    /// The capped link under each of the roster's link seeds.
    pub fn capped_links(&self) -> impl Iterator<Item = LinkModel> + '_ {
        self.link_seeds
            .iter()
            .map(|&seed| LinkModel::capped().with_seed(seed))
    }

    /// Frames the whole fleet encodes in one run.
    pub fn total_frames(&self) -> u64 {
        self.sessions.iter().map(|s| u64::from(s.frames())).sum()
    }
}
