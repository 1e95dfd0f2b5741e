//! Synthetic load generation for [`ReconServer`]: replays a fleet of
//! synthetic calls at configurable concurrency, arrival rate, and frame
//! pacing, then reports throughput, eviction activity, and leak checks.
//!
//! Every simulated call replays the same deterministic composited capture
//! (a seeded `bb-synth` scenario pushed through the `bb-callsim`
//! virtual-background compositor, so frames carry real matting leaks), and
//! therefore every completed session must report an identical, non-zero
//! RBRR — a cheap self-check that concurrency, eviction, and resume did
//! not corrupt anything. The VB reference is handed to the prototype as
//! [`VbSource::Exact`], keeping per-session cost dominated by the
//! steady-state per-frame pipeline rather than reference identification,
//! which is what a service actually amortizes.

use crate::server::{ReconServer, ServeConfig};
use crate::ServeError;
use bb_callsim::{
    BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VbMode, VirtualBackground,
};
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::vbmask::VirtualReference;
use bb_imaging::{Frame, Mask};
use bb_synth::{Action, Lighting, Room, Scenario};
use bb_telemetry::{MetricsExporter, Telemetry};
use bb_video::VideoStream;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Shape of the synthetic fleet.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total calls to replay.
    pub sessions: usize,
    /// Maximum simultaneously open sessions (the server's admission cap).
    pub concurrency: usize,
    /// New sessions admitted per scheduling round (arrival rate).
    pub arrivals_per_round: usize,
    /// Frames each call pushes before closing.
    pub frames_per_call: usize,
    /// Frames pushed per session per round (pacing).
    pub chunk: usize,
    /// Call geometry.
    pub width: usize,
    /// Call geometry.
    pub height: usize,
    /// Aggregate resident-memory budget for the server.
    pub budget_bytes: usize,
    /// Scheduler worker threads (0 = auto).
    pub scheduler_workers: usize,
    /// Spill directory for evicted sessions (removed afterwards).
    pub spill_dir: PathBuf,
    /// Seed for the synthetic capture and compositor error model.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            sessions: 64,
            concurrency: 32,
            arrivals_per_round: 8,
            frames_per_call: 24,
            width: 64,
            height: 48,
            chunk: 6,
            budget_bytes: 8 << 20,
            scheduler_workers: 0,
            spill_dir: std::env::temp_dir().join("bb_loadgen_spill"),
            seed: 42,
        }
    }
}

/// What a load run did and how fast it went.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions that failed (always 0 for the synthetic workload).
    pub failed: u64,
    /// Opens refused by admission control and retried later.
    pub denied: u64,
    /// Checkpoint evictions under budget pressure.
    pub evicted: u64,
    /// Evicted sessions transparently resumed.
    pub resumed: u64,
    /// Sessions still open in the server after the run (must be 0).
    pub leaked: usize,
    /// High-water mark of the server's resident footprint.
    pub peak_live_bytes: usize,
    /// Frames served across all sessions.
    pub frames: u64,
    /// Wall-clock duration of the run.
    pub wall_secs: f64,
    /// Completed sessions per second.
    pub sessions_per_sec: f64,
    /// Aggregate served throughput in megapixels per second.
    pub aggregate_mpix_per_sec: f64,
    /// Mean RBRR across completed sessions (identical per session by
    /// construction, so also a corruption check).
    pub mean_rbrr: f64,
}

/// The deterministic composited call every synthetic session replays:
/// a seeded room + arm-waving caller pushed through the Zoom-like
/// virtual-background compositor, so the recording carries real matting
/// leaks for the sessions to recover. Returns the virtual background
/// (handed to the server as the exact reference) and the recorded call.
pub fn synthetic_call(
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
) -> (Frame, VideoStream) {
    let room = Room::sample(seed, width, height, 4, &mut StdRng::seed_from_u64(seed));
    let gt = Scenario {
        action: Action::ArmWaving,
        width,
        height,
        frames,
        seed,
        ..Scenario::baseline(room)
    }
    .render()
    .expect("synthetic scenario renders");
    let vb = match BackgroundId::Beach.realize(width, height) {
        VirtualBackground::Image(img) => img,
        VirtualBackground::Video(_) => unreachable!("beach is a static image"),
    };
    let call = CallSim::new(&gt)
        .vb(VbMode::Image(vb.clone()))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(seed)
        .run()
        .expect("synthetic call composites");
    (vb, call.video)
}

/// The session prototype loadgen drives: exact VB reference, serial inner
/// pipeline (the scheduler supplies the cross-session parallelism), short
/// warmup so steady-state streaming dominates.
pub fn loadgen_prototype(vb: Frame) -> Reconstructor {
    let (w, h) = (vb.width(), vb.height());
    let reference = VirtualReference::Image {
        image: vb,
        valid: Mask::full(w, h),
    };
    let config = ReconstructorConfig {
        tau: 4,
        phi: 2,
        parallelism: 1,
        warmup_frames: 6,
        ..Default::default()
    };
    Reconstructor::new(VbSource::Exact(reference), config)
}

/// Runs the synthetic fleet and reports. Deterministic apart from wall
/// timings: the same config always completes the same sessions with the
/// same per-session output.
///
/// When `exporter` is given, the server writes a
/// [`MetricsSnapshot`](bb_telemetry::MetricsSnapshot) on the exporter's
/// interval throughout the soak (plus one final export after the fleet
/// drains), so an external scraper can watch the run live.
///
/// # Errors
///
/// Server-level failures only (spill I/O); per-session failures are
/// counted in [`LoadgenReport::failed`], not propagated.
pub fn run(
    config: &LoadgenConfig,
    telemetry: Telemetry,
    exporter: Option<MetricsExporter>,
) -> Result<LoadgenReport, ServeError> {
    let (vb, call) = synthetic_call(
        config.width,
        config.height,
        config.frames_per_call,
        config.seed,
    );
    let serve_config = ServeConfig {
        budget_bytes: config.budget_bytes,
        max_sessions: config.concurrency.max(1),
        scheduler_workers: config.scheduler_workers,
        ..ServeConfig::new(config.spill_dir.clone())
    };
    let mut server =
        ReconServer::new(loadgen_prototype(vb), serve_config)?.with_telemetry(telemetry);
    if let Some(exporter) = exporter {
        server = server.with_metrics_exporter(exporter);
    }

    let started = Instant::now();
    let mut next_id: u64 = 0;
    let mut denied: u64 = 0;
    let mut failed: u64 = 0;
    let mut completed: u64 = 0;
    let mut rbrr_sum = 0.0;
    // id -> frames already pushed for that call.
    let mut cursors: BTreeMap<u64, usize> = BTreeMap::new();

    while completed + failed < config.sessions as u64 {
        // Admission: offer up to `arrivals_per_round` new calls; denials are
        // backpressure and retry on a later round.
        let mut admitted = 0;
        while admitted < config.arrivals_per_round && (next_id as usize) < config.sessions {
            match server.open_session(next_id, config.width, config.height) {
                Ok(()) => {
                    cursors.insert(next_id, 0);
                    next_id += 1;
                    admitted += 1;
                }
                Err(ServeError::AdmissionDenied { .. }) => {
                    denied += 1;
                    break;
                }
                Err(e) => return Err(e),
            }
        }

        // Pacing: every open call pushes its next chunk this round.
        let batch: Vec<(u64, Vec<Frame>)> = cursors
            .iter()
            .map(|(&id, &cursor)| {
                let end = (cursor + config.chunk).min(config.frames_per_call);
                (id, call.frames()[cursor..end].to_vec())
            })
            .collect();
        if batch.is_empty() {
            // Nothing open and nothing admitted: all remaining work denied.
            // Cannot happen with concurrency >= 1, but guard against a
            // stall instead of spinning.
            break;
        }
        let results = server.push_many(batch)?;
        for (id, result) in results {
            match result {
                Ok(outcomes) => {
                    let cursor = cursors.get_mut(&id).expect("pushed session is tracked");
                    *cursor += outcomes.len();
                    if *cursor >= config.frames_per_call {
                        cursors.remove(&id);
                        match server.close_session(id) {
                            Ok(recon) => {
                                completed += 1;
                                rbrr_sum += recon.rbrr();
                            }
                            Err(_) => failed += 1,
                        }
                    }
                }
                Err(_) => {
                    // The server reaped it (panic) or it is unusable; stop
                    // tracking and count the failure.
                    cursors.remove(&id);
                    failed += 1;
                }
            }
        }
    }

    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    server.export_metrics_now();
    let stats = server.stats();
    let leaked = server.session_count();
    let pixels = stats.frames_served as f64 * (config.width * config.height) as f64;
    std::fs::remove_dir_all(&config.spill_dir).ok();
    Ok(LoadgenReport {
        completed,
        failed,
        denied,
        evicted: stats.evicted,
        resumed: stats.resumed,
        leaked,
        peak_live_bytes: stats.peak_live_bytes,
        frames: stats.frames_served,
        wall_secs,
        sessions_per_sec: completed as f64 / wall_secs,
        aggregate_mpix_per_sec: pixels / 1e6 / wall_secs,
        mean_rbrr: if completed > 0 {
            rbrr_sum / completed as f64
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_completes_with_no_leaks() {
        let config = LoadgenConfig {
            sessions: 12,
            concurrency: 5,
            arrivals_per_round: 3,
            frames_per_call: 10,
            chunk: 4,
            width: 48,
            height: 36,
            budget_bytes: 48 * 1024,
            spill_dir: std::env::temp_dir().join(format!("bb_loadgen_test_{}", std::process::id())),
            ..LoadgenConfig::default()
        };
        let report = run(&config, Telemetry::disabled(), None).unwrap();
        assert_eq!(report.completed, 12);
        assert_eq!(report.failed, 0);
        assert_eq!(report.leaked, 0, "sessions leaked in the server");
        assert!(report.denied > 0, "admission cap 5 < 12 calls must deny");
        assert!(report.evicted > 0, "48 KiB budget must force eviction");
        assert_eq!(report.evicted >= 1, report.resumed >= 1);
        assert!(report.peak_live_bytes <= 48 * 1024);
        assert!(report.mean_rbrr > 0.0, "toy call must recover background");
        assert_eq!(report.frames, 12 * 10);
    }
}
