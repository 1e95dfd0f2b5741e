//! The `serve_fleet` workload: a closed-loop fleet of small sessions
//! driven through `ReconServer::open_session`/`push_many`/`close_session`
//! under an admission cap and a memory budget tight enough to force
//! checkpoint spill and resume.
//!
//! Every session replays the same seeded composited call, so every session
//! must return the same output; it is checked against a 1-worker
//! reconstruction of the call (or the pin for the default seed). The traced
//! run attaches an enabled `Telemetry` to read the timers the crates record
//! (`serve/drive`, `reconstruct/*`), times every round, open and close from
//! outside, and times the checkpoint codec by calling `checkpoint`,
//! `resume_session` and `evict_session` on twins of the fleet's sessions.

use crate::check::{self, Output};
use crate::stats::{median, quantile, spread, tail_quantile};
use crate::{host, repeat_setup, Outcome, RunConfig, Scale};
use bb_core::pipeline::Reconstructor;
use bb_core::workers::effective_workers;
use bb_imaging::Frame;
use bb_serve::loadgen::{loadgen_prototype, synthetic_call};
use bb_serve::{ReconServer, ServeConfig, ServeError, ServeStats};
use bb_telemetry::{RunReport, Telemetry};
use bb_video::VideoStream;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 1.0;
/// Repetitions of each checkpoint-codec timing in the traced run.
const CODEC_REPS: usize = 16;

/// The fleet's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Calls per fleet.
    pub sessions: usize,
    /// Admission cap (open sessions, live or spilled).
    pub cap: usize,
    /// New calls offered per round.
    pub arrivals_per_round: usize,
    /// Frames per call.
    pub frames_per_call: usize,
    /// Frames each open call pushes per round.
    pub chunk: usize,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Resident-session memory budget.
    pub budget_bytes: usize,
}

impl Spec {
    /// The fleet at `scale`.
    pub fn new(scale: Scale) -> Spec {
        match scale {
            Scale::Full => Spec {
                sessions: 1000,
                cap: 128,
                arrivals_per_round: 64,
                frames_per_call: 24,
                chunk: 8,
                width: 64,
                height: 48,
                // About 100 of the 128 open sessions fit; the rest spill
                // and resume. A tighter budget lets the spill files'
                // page-cache churn dominate, and its cost drifts too much
                // between runs to measure (README.md, "Why an 8 MiB
                // budget").
                budget_bytes: 8 << 20,
            },
            Scale::Tiny => Spec {
                sessions: 24,
                cap: 8,
                arrivals_per_round: 4,
                frames_per_call: 12,
                chunk: 4,
                width: 48,
                height: 36,
                budget_bytes: 48 * 1024,
            },
        }
    }

    fn server(
        &self,
        prototype: &Reconstructor,
        spill: &Path,
        telemetry: Telemetry,
    ) -> Result<ReconServer, String> {
        let config = ServeConfig {
            budget_bytes: self.budget_bytes,
            max_sessions: self.cap,
            scheduler_workers: host::nproc(),
            ..ServeConfig::new(spill)
        };
        Ok(ReconServer::new(prototype.clone(), config)
            .map_err(|e| e.to_string())?
            .with_telemetry(telemetry))
    }
}

/// One fleet: every session's latency, every round's wall, and the
/// server's counters.
#[derive(Debug, Default)]
struct FleetRun {
    wall: f64,
    latencies: Vec<f64>,
    rounds: Vec<f64>,
    opens: f64,
    closes: f64,
    denied: u64,
    stats: ServeStats,
    report: Option<RunReport>,
}

/// Drives one closed-loop fleet: each round offers up to
/// `arrivals_per_round` new calls (refusals retry next round), then every
/// open call pushes its next chunk in one `push_many`, and finished calls
/// close. A session is timed from `open_session`'s return to
/// `close_session`'s.
fn drive(
    spec: &Spec,
    call: &VideoStream,
    prototype: &Reconstructor,
    spill: &Path,
    telemetry: Telemetry,
    expected: &Output,
    outcome: &mut Outcome,
) -> Result<FleetRun, String> {
    let mut server = spec.server(prototype, spill, telemetry.clone())?;
    let mut run = FleetRun::default();
    let started = Instant::now();
    let mut next_id = 0u64;
    let mut done = 0usize;
    // id -> (open time, frames pushed so far)
    let mut open: BTreeMap<u64, (Instant, usize)> = BTreeMap::new();
    while done < spec.sessions {
        let t = Instant::now();
        let mut admitted = 0;
        while admitted < spec.arrivals_per_round && (next_id as usize) < spec.sessions {
            match server.open_session(next_id, spec.width, spec.height) {
                Ok(()) => {
                    open.insert(next_id, (Instant::now(), 0));
                    next_id += 1;
                    admitted += 1;
                }
                Err(ServeError::AdmissionDenied { .. }) => {
                    run.denied += 1;
                    break;
                }
                Err(e) => return Err(format!("open_session: {e}")),
            }
        }
        run.opens += t.elapsed().as_secs_f64();
        let batch: Vec<(u64, Vec<Frame>)> = open
            .iter()
            .map(|(&id, &(_, cursor))| {
                let end = (cursor + spec.chunk).min(spec.frames_per_call);
                (id, call.frames()[cursor..end].to_vec())
            })
            .collect();
        if batch.is_empty() {
            return Err("fleet stalled: nothing open and nothing admitted".into());
        }
        let t = Instant::now();
        let results = server
            .push_many(batch)
            .map_err(|e| format!("push_many: {e}"))?;
        run.rounds.push(t.elapsed().as_secs_f64());
        for (id, result) in results {
            let pushed = match result {
                Ok(outcomes) => outcomes.len(),
                Err(e) => {
                    open.remove(&id);
                    done += 1;
                    outcome.attempted += 1;
                    outcome.fail(format_args!("session {id} push: {e}"));
                    continue;
                }
            };
            let entry = open.get_mut(&id).expect("pushed session is open");
            entry.1 += pushed;
            if entry.1 < spec.frames_per_call {
                continue;
            }
            let (opened, _) = open.remove(&id).expect("session is open");
            let t = Instant::now();
            let closed = server.close_session(id);
            let now = Instant::now();
            run.closes += (now - t).as_secs_f64();
            run.latencies.push((now - opened).as_secs_f64());
            done += 1;
            outcome.attempted += 1;
            match closed {
                Ok(recon) => {
                    let out = Output::of(&recon.background, &recon.recovered);
                    if out != *expected {
                        outcome.fail(format_args!(
                            "session {id} output {:#018x} / RBRR {} differs from \
                             expected {:#018x} / {}",
                            out.digest, out.rbrr, expected.digest, expected.rbrr
                        ));
                    }
                }
                Err(e) => outcome.fail(format_args!("session {id} close: {e}")),
            }
        }
    }
    run.wall = started.elapsed().as_secs_f64();
    run.stats = server.stats();
    if server.session_count() != 0 {
        outcome.fail(format_args!(
            "{} sessions leaked in the server",
            server.session_count()
        ));
    }
    if run.stats.peak_live_bytes > spec.budget_bytes {
        outcome.fail(format_args!(
            "peak resident {} bytes exceeds the {}-byte budget",
            run.stats.peak_live_bytes, spec.budget_bytes
        ));
    }
    if telemetry.is_enabled() {
        run.report = Some(telemetry.report());
    }
    Ok(run)
}

/// Median seconds of `checkpoint`, `resume_session` and `evict_session`,
/// and median checkpoint bytes, on twins of the fleet's sessions at every
/// chunk boundary where the fleet can spill them.
fn time_codec(
    spec: &Spec,
    call: &VideoStream,
    prototype: &Reconstructor,
    spill: &Path,
) -> Result<[f64; 4], String> {
    let frames = call.frames();
    let (mut encode, mut decode, mut evict, mut bytes) = (vec![], vec![], vec![], vec![]);
    let mut twin = prototype.session();
    let mut server = spec.server(prototype, spill, Telemetry::disabled())?;
    server
        .open_session(0, spec.width, spec.height)
        .map_err(|e| e.to_string())?;
    let mut cursor = 0;
    while cursor + spec.chunk < spec.frames_per_call {
        let chunk = &frames[cursor..cursor + spec.chunk];
        cursor += spec.chunk;
        twin.push_frames(chunk).map_err(|e| e.to_string())?;
        server
            .push_frames(0, chunk.to_vec())
            .map_err(|e| e.to_string())?;
        for _ in 0..CODEC_REPS {
            let t = Instant::now();
            let checkpoint = twin.checkpoint();
            encode.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let resumed = prototype.resume_session(&checkpoint);
            decode.push(t.elapsed().as_secs_f64());
            resumed.map_err(|e| format!("resume_session: {e}"))?;
            bytes.push(checkpoint.len() as f64);

            let t = Instant::now();
            server.evict_session(0).map_err(|e| e.to_string())?;
            evict.push(t.elapsed().as_secs_f64());
            // An empty push resumes the twin so the next eviction spills
            // it again.
            server
                .push_frames(0, Vec::new())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok([
        median(&encode),
        median(&decode),
        median(&evict),
        median(&bytes),
    ])
}

/// Runs `serve_fleet` as `config` says.
///
/// # Errors
///
/// Set-up or server-level failures.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let spec = Spec::new(config.scale);
    let nproc = host::nproc();
    let ((call, prototype), setup_times) = repeat_setup(SETUP_MIN_REPS, SETUP_MIN_SECS, || {
        let (vb, call) = synthetic_call(spec.width, spec.height, spec.frames_per_call, config.seed);
        Ok((call, loadgen_prototype(vb)))
    })?;
    let pin = check::pinned("serve_fleet", config.seed, config.scale == Scale::Full);
    let pinned = pin.is_some();
    let expected = match pin {
        Some(pin) => pin,
        None => {
            // The prototype reconstructs on one worker.
            let recon = prototype
                .reconstruct(&call)
                .map_err(|e| format!("1-worker reference reconstruction: {e}"))?;
            Output::of(&recon.background, &recon.recovered)
        }
    };

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    let mut fleet_no = 0;
    // A traced run alternates untraced and traced fleets, so the two see
    // the same host conditions.
    let modes: &[bool] = if config.trace {
        &[false, true]
    } else {
        &[false]
    };
    while untraced.is_empty() || started.elapsed().as_secs_f64() < config.seconds {
        for &with_telemetry in modes {
            let spill = config.work_dir.join(format!("spill-{fleet_no}"));
            fleet_no += 1;
            let telemetry = if with_telemetry {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let run = drive(
                &spec,
                &call,
                &prototype,
                &spill,
                telemetry,
                &expected,
                &mut outcome,
            );
            std::fs::remove_dir_all(&spill).ok();
            if with_telemetry {
                traced.push(run?);
            } else {
                untraced.push(run?);
            }
        }
    }

    let scheduler_workers = effective_workers(nproc, spec.cap) as f64;
    outcome.stamp("width", spec.width);
    outcome.stamp("output_digest", format!("{:#018x}", expected.digest));
    outcome.stamp("pinned", if pinned { "yes" } else { "no" });
    outcome.stamp("height", spec.height);
    outcome.stamp("frames", spec.frames_per_call);
    outcome.stamp("sessions_per_fleet", spec.sessions);
    outcome.stamp("session_cap", spec.cap);
    outcome.stamp("budget_bytes", spec.budget_bytes);
    outcome.stamp("fleets", untraced.len());
    outcome.stamp("parallelism", prototype.config().parallelism);
    outcome.stamp("effective_workers_session", 1usize);
    outcome.stamp("scheduler_workers", scheduler_workers);
    outcome.stamp("setup_reps", setup_times.len());

    let m = &mut outcome.metrics;
    if !config.trace {
        let latencies: Vec<f64> = untraced.iter().flat_map(|r| r.latencies.clone()).collect();
        let tail = tail_quantile(latencies.len());
        let mpix: Vec<f64> = untraced
            .iter()
            .map(|r| {
                (r.stats.frames_served as f64 * (spec.width * spec.height) as f64) / 1e6 / r.wall
            })
            .collect();
        m.insert("setup_s", median(&setup_times));
        m.insert("call_p50_s", median(&latencies));
        m.insert("call_p99_s", quantile(&latencies, tail));
        m.insert("mpix_per_s", median(&mpix));
        m.insert("rbrr_pct", expected.rbrr);
        outcome.stamp("call_tail_quantile", tail);
        outcome.stamp("call_iqr_share", spread(&latencies).unwrap_or(0.0));
        outcome.stamp("calls", latencies.len());
        return Ok(outcome);
    }

    for &(name, _) in crate::PER_LAYER {
        m.insert(name, 0.0);
    }
    let per_fleet =
        |f: &dyn Fn(&FleetRun) -> f64| -> f64 { median(&traced.iter().map(f).collect::<Vec<_>>()) };
    let stage = |r: &FleetRun, name: &str| -> f64 {
        r.report
            .as_ref()
            .and_then(|rep| rep.stages.get(name))
            .map_or(0.0, |s| s.total_ns as f64 / 1e9)
    };
    let counter = |r: &FleetRun, name: &str| -> f64 {
        r.report
            .as_ref()
            .and_then(|rep| rep.counters.get(name))
            .map_or(0.0, |&c| c as f64)
    };
    let rounds: Vec<f64> = traced.iter().flat_map(|r| r.rounds.clone()).collect();
    m.insert("serve.round_p50_s", median(&rounds));
    m.insert("serve.drive_s", per_fleet(&|r| stage(r, "serve/drive")));
    m.insert(
        "serve.spill_s",
        per_fleet(&|r| r.rounds.iter().sum::<f64>() - stage(r, "serve/drive")),
    );
    m.insert("serve.close_s", per_fleet(&|r| r.closes));
    m.insert(
        "unattributed_s",
        per_fleet(&|r| crate::stats::residual(r.wall, &[r.rounds.iter().sum(), r.opens, r.closes])),
    );
    m.insert(
        "trace.overhead_pct",
        (per_fleet(&|r| r.wall) / median(&untraced.iter().map(|r| r.wall).collect::<Vec<_>>())
            - 1.0)
            * 100.0,
    );
    // The crates' own timers, summed over the scheduler's workers.
    for (metric, timer) in [
        ("lock.reference_s", "resolve_reference"),
        ("lock.segmenter_fit_s", "reconstruct/segmenter_fit"),
        ("pass1.busy_s", "reconstruct/pass1"),
        ("color_model.fit_s", "reconstruct/color_model"),
        ("pass2.busy_s", "reconstruct/pass2"),
        ("accumulate.busy_s", "reconstruct/accumulate"),
    ] {
        m.insert(metric, per_fleet(&|r| stage(r, timer)));
    }
    let first = &traced[0];
    for (metric, name) in [
        ("pass1.vbm_px", "pixels/vbm"),
        ("pass1.removed_px", "pixels/removed"),
        ("pass2.leak_px", "pixels/leak"),
        ("accumulate.recovered_px", "pixels/recovered"),
    ] {
        m.insert(metric, counter(first, name));
    }
    let leak = counter(first, "pixels/leak");
    if leak > 0.0 {
        m.insert(
            "accumulate.recovered_per_leak",
            counter(first, "pixels/recovered") / leak,
        );
    }
    m.insert("serve.evictions", first.stats.evicted as f64);
    m.insert("serve.resumes", first.stats.resumed as f64);
    m.insert(
        "serve.resumes_per_session",
        first.stats.resumed as f64 / spec.sessions as f64,
    );
    m.insert("serve.denials", first.denied as f64);
    m.insert("serve.peak_live_bytes", first.stats.peak_live_bytes as f64);
    m.insert("workers.effective.scheduler", scheduler_workers);
    m.insert("workers.effective.pass1", 1.0);
    m.insert("workers.effective.pass2", 1.0);

    let spill = config.work_dir.join("codec");
    let codec = time_codec(&spec, &call, &prototype, &spill);
    std::fs::remove_dir_all(&spill).ok();
    let [encode, decode, evict, bytes] = codec?;
    m.insert("checkpoint.encode_s", encode);
    m.insert("checkpoint.decode_s", decode);
    m.insert("checkpoint.evict_s", evict);
    m.insert("checkpoint.bytes", bytes);
    Ok(outcome)
}
