//! The headset side: `SessionClient` consuming the set-up's wire streams,
//! over the capped link (delivery and displayed quality) and over a
//! lossless link (decode speed).

use crate::fleet::Prepared;
use crate::workload::Roster;
use crate::Tally;
use pvc_client::{LinkModel, SessionClient};
use pvc_metrics::DeliveryReport;
use std::time::Instant;

/// Every stream replayed over the capped link under each link seed.
#[derive(Debug, Clone, Default)]
pub struct LinkRuns {
    /// Delivery merged over all sessions and link seeds.
    pub delivery: DeliveryReport,
    /// Milliseconds to consume every session's stream once, per link seed.
    pub consume_ms: Vec<f64>,
}

/// Replays every wire stream over `LinkModel::capped()` once per link
/// seed. Each stream counts its frames as attempted; a stream the client
/// refuses fails all of them.
pub fn capped(roster: &Roster, prepared: &Prepared, tally: &mut Tally) -> LinkRuns {
    let mut runs = LinkRuns::default();
    for link in roster.capped_links() {
        let mut client = SessionClient::new(link);
        let started = Instant::now();
        let mut reports = Vec::with_capacity(prepared.wire.len());
        for wire in &prepared.wire {
            reports.push(client.consume(wire));
        }
        runs.consume_ms.push(started.elapsed().as_secs_f64() * 1e3);
        for (session, (report, config)) in reports.into_iter().zip(&roster.sessions).enumerate() {
            let frames = u64::from(config.frames());
            tally.attempted += frames;
            match report {
                Ok(report) => runs.delivery.merge(&report.delivery),
                Err(err) => {
                    tally.failed += frames;
                    tally.fail(format!(
                        "capped link, session {session}: client error: {err}"
                    ));
                }
            }
        }
    }
    runs
}

/// A client decoding every wire stream over a lossless link, one round
/// (every stream once) at a time.
pub struct DecodeLoop {
    client: SessionClient,
    pixels: u64,
    frames: u64,
    /// Megapixels reconstructed per wall second, one per timed round.
    pub rates: Vec<f64>,
}

impl DecodeLoop {
    /// Runs round 0: an untimed warm-up that checks every delivered frame
    /// against the set-up's reference decode.
    pub fn new(roster: &Roster, prepared: &Prepared, tally: &mut Tally) -> DecodeLoop {
        let mut client = SessionClient::new(LinkModel::lossless());
        for (session, wire) in prepared.wire.iter().enumerate() {
            let reference = &prepared.reference[session];
            let frames = u64::from(roster.sessions[session].frames());
            let mut mismatched = 0u64;
            let mut seen = 0usize;
            let report = client.consume_with(wire, |index, frame| {
                seen += 1;
                if reference.get(index as usize) != Some(frame) {
                    mismatched += 1;
                }
            });
            tally.attempted += frames;
            match report {
                Ok(_) if mismatched == 0 && seen == reference.len() => {}
                Ok(_) => {
                    tally.failed += mismatched + frames.saturating_sub(seen as u64);
                    tally.fail(format!(
                        "lossless decode, session {session}: {seen} frames delivered, \
                         {mismatched} differ from the set-up's decode"
                    ));
                }
                Err(err) => {
                    tally.failed += frames;
                    tally.fail(format!(
                        "lossless decode, session {session}: client error: {err}"
                    ));
                }
            }
        }
        DecodeLoop {
            client,
            pixels: prepared
                .reference
                .iter()
                .flatten()
                .map(|frame| frame.dimensions().pixel_count() as u64)
                .sum(),
            frames: roster.total_frames(),
            rates: Vec::new(),
        }
    }

    /// One timed round: consumes every stream once.
    pub fn round(&mut self, prepared: &Prepared, tally: &mut Tally) {
        let started = Instant::now();
        let mut delivered = 0u64;
        let mut errors = 0u64;
        for wire in &prepared.wire {
            match self.client.consume(wire) {
                Ok(report) => delivered += report.delivery.frames_delivered,
                Err(_) => errors += 1,
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        tally.attempted += self.frames;
        if errors > 0 || delivered != self.frames {
            tally.failed += self.frames - delivered.min(self.frames);
            tally.fail(format!(
                "lossless decode: {delivered} of {} frames delivered, {errors} client errors",
                self.frames
            ));
        }
        self.rates.push(self.pixels as f64 / 1e6 / seconds);
    }
}
