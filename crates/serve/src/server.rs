//! [`ReconServer`]: many concurrent reconstruction sessions, one budget.
//!
//! The server owns a map of sessions keyed by caller-chosen ids, each in
//! one of two resident states:
//!
//! ```text
//!           open                    evict (budget pressure, LRU)
//! (absent) ──────▶ Live ──────────────────────────────▶ Evicted
//!                    ▲                                     │
//!                    └────── resume (next pushed frame) ───┘
//!            Live/Evicted ──close──▶ Reconstruction (entry removed)
//!            Live ──panic or failed finalize──▶ reaped (entry removed)
//! ```
//!
//! An evicted session's checkpoint is always `session-<id>.bbsc` in the
//! spill directory; a resume that cannot read or decode it fails with a
//! typed error and leaves the session evicted.
//!
//! **Accounting.** The resident footprint is read, not tracked:
//! [`ReconServer::live_bytes`] sums
//! [`state_bytes()`](bb_core::session::ReconstructionSession::state_bytes)
//! over the live sessions, so it cannot drift from them. After every public
//! operation it is at most [`ServeConfig::budget_bytes`]: exceeding it
//! evicts least-recently-active sessions to BBSC checkpoints in the spill
//! directory (atomic tmp + rename, like the CLI's checkpoints). Eviction
//! prefers idle sessions but will spill the just-touched session itself if
//! it alone exceeds the budget — the budget is a hard ceiling, not advice.
//!
//! **Scheduling.** [`ReconServer::push_many`] first resumes every session
//! it addresses; one whose checkpoint fails to resume gets that error as its
//! result and the rest of the batch still runs. The round then takes its
//! sessions out of the map, drives them through
//! `bb_core::workers::run_stage` (one job per session), and puts them back
//! when it settles. Each job wraps its session's frame processing in
//! `catch_unwind`, so a panic in one session (or in a registered frame
//! observer) is converted to [`CoreError::WorkerPanic`], reaps only that
//! session, and leaves every sibling's bytes untouched — `run_stage`'s
//! whole-stage error propagation never sees it. A panicked session and one
//! whose finalize fails in [`ReconServer::close_session`] take the same
//! failure path.

use crate::wire::{self, Message, WireDecoder};
use crate::ServeError;
use bb_core::pipeline::{Reconstruction, Reconstructor};
use bb_core::session::{FrameOutcome, ReconstructionSession};
use bb_core::workers::{effective_workers, panic_text, run_stage, CollectMode};
use bb_core::CoreError;
use bb_imaging::Frame;
use bb_telemetry::{MetricsExporter, Telemetry};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-frame observer: called after every processed frame with the session
/// id and the frame's outcome. Runs inside the scheduler's panic isolation,
/// so a panicking observer fails only its own session.
pub type FrameObserver = Arc<dyn Fn(u64, &FrameOutcome) + Send + Sync>;

/// Server limits and placement.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Aggregate resident-session budget in bytes; exceeding it triggers
    /// checkpoint eviction. A hard ceiling at every API boundary.
    pub budget_bytes: usize,
    /// Maximum simultaneously open sessions (live + evicted); opens past
    /// the cap are refused with [`ServeError::AdmissionDenied`].
    pub max_sessions: usize,
    /// Where evicted sessions' BBSC checkpoints are spilled.
    pub spill_dir: PathBuf,
    /// Scheduler worker threads for [`ReconServer::push_many`]
    /// (0 = the host's available parallelism).
    pub scheduler_workers: usize,
}

impl ServeConfig {
    /// A config with the given spill directory and generous defaults:
    /// 256 MiB budget, 4096-session cap, auto scheduler width.
    pub fn new(spill_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            budget_bytes: 256 << 20,
            max_sessions: 4096,
            spill_dir: spill_dir.into(),
            scheduler_workers: 0,
        }
    }
}

/// Frames buffered per session while draining a wire stream before a
/// scheduler round is dispatched ([`ReconServer::serve_wire`]): batches
/// amortize evict/resume churn and let interleaved sessions progress in one
/// parallel round. Output is byte-identical at any batch size.
const WIRE_BATCH_FRAMES: usize = 8;

/// Monotonic lifetime counters, readable at any point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions admitted.
    pub opened: u64,
    /// Sessions finalized successfully.
    pub closed: u64,
    /// Checkpoint evictions performed.
    pub evicted: u64,
    /// Evicted sessions resumed from their checkpoint.
    pub resumed: u64,
    /// Sessions reaped after a panic or a failed finalize.
    pub failed: u64,
    /// Frames accepted across all sessions.
    pub frames_served: u64,
    /// High-water mark of the aggregate resident footprint.
    pub peak_live_bytes: usize,
}

struct Entry {
    /// `None` while evicted: the checkpoint is at `spill_path(id)`.
    session: Option<Box<ReconstructionSession>>,
    width: usize,
    height: usize,
    /// Next expected wire sequence number == frames accepted so far.
    next_seq: u64,
    /// Logical clock of the last touch, for LRU eviction.
    last_active: u64,
}

/// A multi-session reconstruction service. See the module docs for the
/// state machine and invariants.
pub struct ReconServer {
    prototype: Reconstructor,
    config: ServeConfig,
    telemetry: Telemetry,
    sessions: BTreeMap<u64, Entry>,
    tick: u64,
    stats: ServeStats,
    observer: Option<FrameObserver>,
    exporter: Option<MetricsExporter>,
}

impl ReconServer {
    /// Creates a server multiplexing sessions of `prototype`'s VB source
    /// and config. The spill directory is created if missing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the spill directory cannot be created.
    pub fn new(prototype: Reconstructor, config: ServeConfig) -> Result<ReconServer, ServeError> {
        std::fs::create_dir_all(&config.spill_dir)
            .map_err(|e| ServeError::Io(format!("{}: {e}", config.spill_dir.display())))?;
        Ok(ReconServer {
            prototype,
            config,
            telemetry: Telemetry::disabled(),
            sessions: BTreeMap::new(),
            tick: 0,
            stats: ServeStats::default(),
            observer: None,
            exporter: None,
        })
    }

    /// Attaches a telemetry handle to the server *and* to the session
    /// prototype, so per-stage pipeline spans and the server's
    /// `sessions/…` counters land in the same [`RunReport`](bb_telemetry::RunReport).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ReconServer {
        self.prototype = self.prototype.with_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Registers a per-frame observer (e.g. latency/RBRR sampling). A
    /// panicking observer fails only the session it was observing.
    pub fn set_frame_observer(&mut self, observer: FrameObserver) {
        self.observer = Some(observer);
    }

    /// Attaches a periodic [`MetricsExporter`]: after every scheduler round
    /// the server exports a fresh [`MetricsSnapshot`](bb_telemetry::MetricsSnapshot)
    /// when the exporter's interval has elapsed. Export failures never fail
    /// serving — they are counted under `serve/export_errors`.
    #[must_use]
    pub fn with_metrics_exporter(mut self, exporter: MetricsExporter) -> ReconServer {
        self.exporter = Some(exporter);
        self
    }

    /// Exports a snapshot now, regardless of the interval (used for the
    /// final flush at shutdown). No-op without an attached exporter.
    pub fn export_metrics_now(&mut self) {
        if let Some(exporter) = &mut self.exporter {
            if exporter.export_now(&self.telemetry).is_err() {
                self.telemetry.add("serve/export_errors", 1);
            }
        }
    }

    fn tick_exporter(&mut self) {
        if let Some(exporter) = &mut self.exporter {
            if exporter.maybe_export(&self.telemetry).is_err() {
                self.telemetry.add("serve/export_errors", 1);
            }
        }
    }

    /// Open sessions (live + evicted).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions currently resident in memory.
    pub fn live_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|e| e.session.is_some())
            .count()
    }

    /// Aggregate resident footprint in bytes: the live sessions'
    /// `state_bytes()` summed. At most the budget after every public
    /// operation.
    pub fn live_bytes(&self) -> usize {
        self.sessions
            .values()
            .filter_map(|e| e.session.as_ref())
            .map(|s| s.state_bytes())
            .sum()
    }

    /// Frames accepted for `id` so far.
    pub fn frames_seen(&self, id: u64) -> Option<u64> {
        self.sessions.get(&id).map(|e| e.next_seq)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    fn touch(&mut self, id: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.sessions.get_mut(&id) {
            e.last_active = tick;
        }
    }

    fn note_active_meta(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .set_meta("sessions/active", self.sessions.len());
            self.telemetry
                .set_meta("sessions/peak_live_bytes", self.stats.peak_live_bytes);
        }
        if self.telemetry.metrics().is_some() {
            let live_bytes = self.live_bytes();
            self.telemetry
                .set_gauge("serve/sessions_active", self.sessions.len() as f64);
            self.telemetry
                .set_gauge("serve/sessions_live", self.live_count() as f64);
            self.telemetry
                .set_gauge("serve/live_bytes", live_bytes as f64);
            self.telemetry
                .set_gauge("serve/budget_bytes", self.config.budget_bytes as f64);
            if self.config.budget_bytes > 0 {
                self.telemetry.set_gauge(
                    "serve/budget_pressure",
                    live_bytes as f64 / self.config.budget_bytes as f64,
                );
            }
        }
    }

    /// Admits a new session with the given geometry.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateSession`] when `id` is already open;
    /// [`ServeError::AdmissionDenied`] at the session cap;
    /// [`ServeError::Protocol`] on degenerate geometry.
    pub fn open_session(&mut self, id: u64, width: usize, height: usize) -> Result<(), ServeError> {
        if width == 0 || height == 0 {
            return Err(ServeError::Protocol(format!(
                "session {id} has degenerate geometry {width}x{height}"
            )));
        }
        if self.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateSession(id));
        }
        if self.sessions.len() >= self.config.max_sessions {
            return Err(ServeError::AdmissionDenied {
                active: self.sessions.len(),
                limit: self.config.max_sessions,
            });
        }
        let session = self.prototype.session();
        self.sessions.insert(
            id,
            Entry {
                session: Some(Box::new(session)),
                width,
                height,
                next_seq: 0,
                last_active: 0,
            },
        );
        self.touch(id);
        self.stats.opened += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.add("sessions/opened", 1);
        }
        self.note_active_meta();
        Ok(())
    }

    fn spill_path(&self, id: u64) -> PathBuf {
        self.config.spill_dir.join(format!("session-{id}.bbsc"))
    }

    /// Checkpoints a live session to the spill directory and drops it from
    /// memory. A no-op when `id` is already evicted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`]; [`ServeError::Io`] when the
    /// checkpoint cannot be written (the session stays live).
    pub fn evict_session(&mut self, id: u64) -> Result<(), ServeError> {
        let path = self.spill_path(id);
        let entry = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        let Some(session) = &entry.session else {
            return Ok(());
        };
        let bytes = session.checkpoint();
        let tmp = path.with_extension("bbsc.tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| ServeError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
        entry.session = None;
        self.stats.evicted += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.add("sessions/evicted", 1);
        }
        if self.telemetry.has_journal() {
            self.telemetry.event(
                "serve/session/evicted",
                Some(id),
                &[("bytes", bytes.len() as f64)],
            );
        }
        Ok(())
    }

    /// Brings `id` back into memory if it was evicted (transparent resume).
    /// On failure the session stays evicted.
    fn make_live(&mut self, id: u64) -> Result<(), ServeError> {
        let path = self.spill_path(id);
        let entry = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        if entry.session.is_some() {
            return Ok(());
        }
        let bytes =
            std::fs::read(&path).map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
        let session = self
            .prototype
            .resume_session(&bytes)
            .map_err(|source| ServeError::Session { id, source })?;
        entry.session = Some(Box::new(session));
        std::fs::remove_file(&path).ok();
        self.stats.resumed += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.add("sessions/resumed", 1);
        }
        if self.telemetry.has_journal() {
            self.telemetry.event("serve/session/resumed", Some(id), &[]);
        }
        Ok(())
    }

    /// Evicts least-recently-active live sessions until the aggregate is
    /// within budget. `protect` is evicted only as the last resort (it
    /// alone exceeds the budget).
    fn enforce_budget(&mut self, protect: Option<u64>) -> Result<(), ServeError> {
        while self.live_bytes() > self.config.budget_bytes {
            let victim = self
                .sessions
                .iter()
                .filter(|(_, e)| e.session.is_some())
                .filter(|(id, _)| Some(**id) != protect)
                .min_by_key(|(_, e)| e.last_active)
                .map(|(id, _)| *id)
                .or_else(|| {
                    protect.filter(|id| self.sessions.get(id).is_some_and(|e| e.session.is_some()))
                });
            match victim {
                Some(id) => self.evict_session(id)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Samples the resident high-water mark. Called at API boundaries only
    /// (after budget enforcement), so the reported peak respects the budget
    /// invariant rather than transient mid-batch footprints.
    fn record_peak(&mut self) {
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes());
    }

    /// Counts a session that failed after leaving the map (its processing
    /// panicked or its finalize failed) and was dropped there.
    fn reap(&mut self, id: u64) {
        self.stats.failed += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.add("sessions/failed", 1);
        }
        if self.telemetry.has_journal() {
            self.telemetry.event("serve/session/failed", Some(id), &[]);
        }
    }

    /// Pushes one frame into `id`, resuming it from its checkpoint first if
    /// it was evicted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], spill I/O errors, and per-session
    /// failures as [`ServeError::Session`] (a panicking session is reaped).
    pub fn push_frame(&mut self, id: u64, frame: &Frame) -> Result<FrameOutcome, ServeError> {
        let outcomes = self.push_frames(id, vec![frame.clone()])?;
        Ok(outcomes
            .into_iter()
            .next()
            .expect("one outcome per pushed frame"))
    }

    /// Pushes a batch of frames into one session, in order, with a single
    /// resume/evict round trip — the ingest-side complement of
    /// [`ReconstructionSession::push_frames`]. Frames move by value; no
    /// per-frame clone.
    ///
    /// # Errors
    ///
    /// Same as [`ReconServer::push_frame`].
    pub fn push_frames(
        &mut self,
        id: u64,
        frames: Vec<Frame>,
    ) -> Result<Vec<FrameOutcome>, ServeError> {
        let mut out = self.push_many(vec![(id, frames)])?;
        let (_, result) = out.pop().expect("push_many returns one entry per input");
        result
    }

    /// Drives a batch of sessions concurrently: one scheduler job per
    /// session, each pushing its frames in order. Evicted sessions are
    /// resumed first; results come back in input order. An unknown id, an
    /// id listed twice, and a session whose checkpoint cannot be resumed
    /// (it stays evicted) fail their own entry. A panic inside one
    /// session's processing (or observer) fails that session alone with
    /// [`CoreError::WorkerPanic`] and reaps it — siblings are unaffected.
    ///
    /// # Errors
    ///
    /// A top-level `Err` only for server-wide failures (spill I/O during
    /// eviction); per-session failures are inside the result list.
    #[allow(clippy::type_complexity)]
    pub fn push_many(
        &mut self,
        batch: Vec<(u64, Vec<Frame>)>,
    ) -> Result<Vec<(u64, Result<Vec<FrameOutcome>, ServeError>)>, ServeError> {
        let resumed: Vec<Result<(), ServeError>> = batch
            .iter()
            .map(|&(id, _)| {
                self.make_live(id)?;
                self.touch(id);
                Ok(())
            })
            .collect();

        // The round holds its sessions itself: each leaves the map here and
        // goes back in when the round settles.
        struct Cell {
            id: u64,
            work: Mutex<Option<(Box<ReconstructionSession>, Vec<Frame>)>>,
        }
        let mut held: Vec<(u64, Result<Entry, ServeError>)> = Vec::with_capacity(batch.len());
        let mut cells: Vec<Cell> = Vec::with_capacity(batch.len());
        for ((id, frames), resumed) in batch.into_iter().zip(resumed) {
            let taken = resumed.and_then(|()| {
                let mut entry = self.sessions.remove(&id).ok_or_else(|| {
                    ServeError::Protocol(format!("session {id} is listed twice in one batch"))
                })?;
                let session = entry.session.take().expect("resumed above");
                cells.push(Cell {
                    id,
                    work: Mutex::new(Some((session, frames))),
                });
                Ok(entry)
            });
            held.push((id, taken));
        }

        let workers = if self.config.scheduler_workers == 0 {
            effective_workers(usize::MAX, cells.len())
        } else {
            effective_workers(self.config.scheduler_workers, cells.len())
        };
        let observer = self.observer.clone();
        let telemetry = self.telemetry.clone();
        type JobResult = (
            Option<Box<ReconstructionSession>>,
            Result<Vec<FrameOutcome>, CoreError>,
            std::time::Duration,
        );
        let results: Vec<JobResult> = {
            let _span = self.telemetry.time("serve/drive");
            run_stage(
                cells.len(),
                workers,
                CollectMode::WorkerLocal,
                &telemetry,
                "serve/drive",
                |i| {
                    let cell = &cells[i];
                    let work = cell
                        .work
                        .lock()
                        .expect("cell mutex poisoned")
                        .take()
                        .expect("each cell is driven exactly once");
                    let id = cell.id;
                    let obs = observer.clone();
                    let started = Instant::now();
                    // The session and its frames move INTO the unwind
                    // boundary: on a panic they are consumed by the unwind
                    // and the session is reaped — no poisoned state can
                    // leak back into the server.
                    let outcome = catch_unwind(AssertUnwindSafe(move || {
                        let (mut session, frames) = work;
                        let mut outcomes = Vec::with_capacity(frames.len());
                        for frame in &frames {
                            match session.push_frame(frame) {
                                Ok(o) => {
                                    if let Some(obs) = &obs {
                                        obs(id, &o);
                                    }
                                    outcomes.push(o);
                                }
                                Err(e) => return (Some(session), Err(e), outcomes),
                            }
                        }
                        (Some(session), Ok(()), outcomes)
                    }));
                    Ok(match outcome {
                        Ok((session, Ok(()), outcomes)) => {
                            (session, Ok(outcomes), started.elapsed())
                        }
                        Ok((session, Err(e), _)) => (session, Err(e), started.elapsed()),
                        Err(payload) => (
                            None,
                            Err(CoreError::WorkerPanic(panic_text(&*payload))),
                            started.elapsed(),
                        ),
                    })
                },
            )
            .map_err(|e| ServeError::Session { id: 0, source: e })?
        };

        let mut results = results.into_iter();
        let mut out = Vec::with_capacity(held.len());
        let mut protect = None;
        for (id, taken) in held {
            let mut entry = match taken {
                Ok(entry) => entry,
                Err(e) => {
                    out.push((id, Err(e)));
                    continue;
                }
            };
            let (session, result, elapsed) = results.next().expect("one result per cell");
            if self.telemetry.is_enabled() {
                self.telemetry.record_duration("serve/push", elapsed);
            }
            match session {
                Some(session) => {
                    let accepted = match &result {
                        Ok(outcomes) => outcomes.len() as u64,
                        Err(_) => 0,
                    };
                    if accepted > 0 && self.telemetry.is_enabled() {
                        self.telemetry.add(
                            "serve/pixels",
                            accepted * (entry.width * entry.height) as u64,
                        );
                    }
                    if self.telemetry.has_journal() {
                        if let Ok(outcomes) = &result {
                            if let Some(last) = outcomes.last() {
                                let fill = match last {
                                    FrameOutcome::Buffered { .. } => 0.0,
                                    FrameOutcome::Locked { canvas_fill, .. }
                                    | FrameOutcome::Processed { canvas_fill, .. } => *canvas_fill,
                                };
                                self.telemetry.event(
                                    "serve/push",
                                    Some(id),
                                    &[
                                        ("frames", accepted as f64),
                                        ("canvas_fill", fill),
                                        ("state_bytes", session.state_bytes() as f64),
                                    ],
                                );
                            }
                        }
                    }
                    entry.next_seq += accepted;
                    entry.session = Some(session);
                    self.sessions.insert(id, entry);
                    self.stats.frames_served += accepted;
                    protect = Some(id);
                }
                // The session was consumed by a panic: reap it.
                None => self.reap(id),
            }
            out.push((
                id,
                result.map_err(|source| ServeError::Session { id, source }),
            ));
        }
        self.enforce_budget(protect)?;
        self.record_peak();
        self.note_active_meta();
        self.tick_exporter();
        Ok(out)
    }

    /// Finalizes `id` into its [`Reconstruction`] and removes it from the
    /// server (resuming it from its checkpoint first if needed).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`]; a resume failure (the session stays
    /// evicted); [`ServeError::Session`] when finalize fails (the session
    /// is reaped).
    pub fn close_session(&mut self, id: u64) -> Result<Reconstruction, ServeError> {
        self.make_live(id)?;
        let entry = self.sessions.remove(&id).expect("made live above");
        let session = entry.session.expect("made live above");
        let frames = session.frames_seen();
        let result = session.finalize();
        match &result {
            Ok(recon) => {
                self.stats.closed += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.add("sessions/closed", 1);
                    // Per-session RBRR lands in a histogram (basis points
                    // recorded as pseudo-nanoseconds), so the RunReport
                    // carries recovery quantiles across the fleet, not just
                    // a mean.
                    let bps = (recon.rbrr() * 100.0).round().max(0.0) as u64;
                    self.telemetry.record_duration(
                        "serve/session/rbrr_bp",
                        std::time::Duration::from_nanos(bps),
                    );
                }
                if self.telemetry.has_journal() {
                    self.telemetry.event(
                        "serve/session/closed",
                        Some(id),
                        &[("rbrr", recon.rbrr()), ("frames", frames as f64)],
                    );
                }
            }
            Err(_) => self.reap(id),
        }
        self.note_active_meta();
        result.map_err(|source| ServeError::Session { id, source })
    }

    /// Serves a complete BBWS byte stream: opens, feeds, and closes every
    /// session it describes, returning the finished reconstructions in
    /// close order. Sessions the stream leaves open stay open in the
    /// server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] for framing violations, [`ServeError::Protocol`]
    /// for sequencing violations (out-of-order frames, wrong payload size,
    /// unknown session), plus any session/spill failure.
    pub fn serve_wire(&mut self, bytes: &[u8]) -> Result<Vec<(u64, Reconstruction)>, ServeError> {
        let mut decoder = WireDecoder::new(bytes)?;
        let mut closed = Vec::new();
        // Frames buffered per session between scheduler rounds, in arrival
        // order. Memory is bounded: at most `WIRE_BATCH_FRAMES` frames per
        // open session before a round is forced.
        let mut pending: Vec<(u64, Vec<Frame>)> = Vec::new();
        while let Some(message) = decoder.next_message()? {
            match message {
                Message::Open {
                    session,
                    width,
                    height,
                    ..
                } => {
                    // Settle outstanding frames first so admission and
                    // budget decisions see the true session states.
                    self.flush_wire_pending(&mut pending)?;
                    self.open_session(session, width, height)?;
                }
                Message::Frame { session, seq, rgb } => {
                    let entry = self
                        .sessions
                        .get(&session)
                        .ok_or(ServeError::UnknownSession(session))?;
                    let queued = pending
                        .iter()
                        .find(|(id, _)| *id == session)
                        .map_or(0, |(_, v)| v.len() as u64);
                    let expected = entry.next_seq + queued;
                    if seq != expected {
                        return Err(ServeError::Protocol(format!(
                            "session {session}: frame seq {seq} arrived, expected {expected}"
                        )));
                    }
                    let frame = wire::frame_from_rgb(&rgb, entry.width, entry.height)?;
                    let full = match pending.iter_mut().find(|(id, _)| *id == session) {
                        Some((_, v)) => {
                            v.push(frame);
                            v.len() >= WIRE_BATCH_FRAMES
                        }
                        None => {
                            pending.push((session, vec![frame]));
                            false
                        }
                    };
                    // One full session flushes the whole round: sessions
                    // interleaved in the stream progress in parallel.
                    if full {
                        self.flush_wire_pending(&mut pending)?;
                    }
                }
                Message::Close { session } => {
                    self.flush_wire_pending(&mut pending)?;
                    closed.push((session, self.close_session(session)?));
                }
            }
        }
        self.flush_wire_pending(&mut pending)?;
        Ok(closed)
    }

    /// Dispatches buffered wire frames as one [`ReconServer::push_many`]
    /// round and surfaces the first per-session failure.
    fn flush_wire_pending(
        &mut self,
        pending: &mut Vec<(u64, Vec<Frame>)>,
    ) -> Result<(), ServeError> {
        if pending.is_empty() {
            return Ok(());
        }
        let results = self.push_many(std::mem::take(pending))?;
        for (_, result) in results {
            result?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireEncoder;
    use bb_core::pipeline::{ReconstructorConfig, VbSource};
    use bb_imaging::{draw, Rgb};
    use bb_video::VideoStream;

    fn toy_call(frames: usize) -> VideoStream {
        let vb = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
        VideoStream::generate(frames, 30.0, |i| {
            let mut f = vb.clone();
            let cx = 20 + ((i / 3) % 4) as i64;
            draw::fill_rect(&mut f, cx, 14, 10, 22, Rgb::new(40, 70, 160));
            draw::fill_circle(&mut f, cx + 5, 10, 4, Rgb::new(230, 195, 165));
            if i % 3 != 0 {
                draw::fill_rect(&mut f, cx + 10, 18, 3, 6, Rgb::new(20, 140, 60));
            }
            f
        })
        .unwrap()
    }

    fn prototype() -> Reconstructor {
        let config = ReconstructorConfig {
            tau: 4,
            phi: 2,
            parallelism: 1,
            warmup_frames: 12,
            vc: bb_core::vcmask::VcMaskParams {
                min_flip_cluster: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        Reconstructor::new(VbSource::UnknownImage, config)
    }

    fn temp_spill(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bb_serve_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn wire_served_call_matches_batch_reconstruct() {
        let video = toy_call(20);
        let batch = prototype().reconstruct(&video).unwrap();
        let dir = temp_spill("wire_batch");
        let mut server = ReconServer::new(prototype(), ServeConfig::new(&dir)).unwrap();
        let bytes = wire::encode_call(3, &video);
        let mut closed = server.serve_wire(&bytes).unwrap();
        assert_eq!(closed.len(), 1);
        let (id, recon) = closed.pop().unwrap();
        assert_eq!(id, 3);
        assert_eq!(recon.background, batch.background);
        assert_eq!(recon.recovered, batch.recovered);
        assert_eq!(server.session_count(), 0, "closed sessions leave the map");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_pressure_evicts_and_resumes_transparently() {
        let video = toy_call(20);
        let plain = {
            let mut s = prototype().session();
            s.push_frames(video.frames()).unwrap();
            s.finalize().unwrap()
        };
        let dir = temp_spill("evict");
        // Budget below two sessions' warmup footprint: with three sessions
        // interleaved, evictions must happen on every round.
        let config = ServeConfig {
            budget_bytes: 40 * 1024,
            ..ServeConfig::new(&dir)
        };
        let mut server = ReconServer::new(prototype(), config).unwrap();
        for id in 0..3u64 {
            server.open_session(id, 48, 36).unwrap();
        }
        for frame in video.iter() {
            for id in 0..3u64 {
                server.push_frame(id, frame).unwrap();
                assert!(
                    server.live_bytes() <= 40 * 1024,
                    "budget exceeded: {} bytes live",
                    server.live_bytes()
                );
            }
        }
        let stats = server.stats();
        assert!(stats.evicted > 0, "budget pressure must evict");
        assert!(stats.resumed > 0, "pushes to evicted sessions must resume");
        for id in 0..3u64 {
            let recon = server.close_session(id).unwrap();
            assert_eq!(
                recon.background, plain.background,
                "session {id}: evicted/resumed output diverged"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_cap_refuses_new_sessions() {
        let dir = temp_spill("cap");
        let config = ServeConfig {
            max_sessions: 2,
            ..ServeConfig::new(&dir)
        };
        let mut server = ReconServer::new(prototype(), config).unwrap();
        server.open_session(0, 48, 36).unwrap();
        server.open_session(1, 48, 36).unwrap();
        assert_eq!(
            server.open_session(2, 48, 36),
            Err(ServeError::AdmissionDenied {
                active: 2,
                limit: 2
            })
        );
        // Closing one frees a slot.
        let _ = server.close_session(0);
        server.open_session(2, 48, 36).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_and_duplicate_sessions_are_typed_errors() {
        let dir = temp_spill("ids");
        let mut server = ReconServer::new(prototype(), ServeConfig::new(&dir)).unwrap();
        let frame = Frame::new(48, 36);
        assert_eq!(
            server.push_frame(9, &frame).unwrap_err(),
            ServeError::UnknownSession(9)
        );
        assert!(matches!(
            server.close_session(9).unwrap_err(),
            ServeError::UnknownSession(9)
        ));
        server.open_session(9, 48, 36).unwrap();
        assert_eq!(
            server.open_session(9, 48, 36),
            Err(ServeError::DuplicateSession(9))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_observer_fails_only_its_session() {
        let video = toy_call(12);
        let dir = temp_spill("panic");
        let mut server = ReconServer::new(prototype(), ServeConfig::new(&dir)).unwrap();
        for id in 0..3u64 {
            server.open_session(id, 48, 36).unwrap();
        }
        server.set_frame_observer(Arc::new(|id, _outcome| {
            if id == 1 {
                panic!("observer failure injected for session {id}");
            }
        }));
        let batch: Vec<(u64, Vec<Frame>)> =
            (0..3u64).map(|id| (id, video.frames().to_vec())).collect();
        let results = server.push_many(batch).unwrap();
        assert_eq!(results.len(), 3);
        for (id, result) in &results {
            match id {
                1 => match result {
                    Err(ServeError::Session {
                        id: 1,
                        source: CoreError::WorkerPanic(msg),
                    }) => assert!(msg.contains("injected"), "message: {msg}"),
                    other => panic!("expected WorkerPanic for session 1, got {other:?}"),
                },
                _ => assert!(result.is_ok(), "sibling session {id} failed: {result:?}"),
            }
        }
        // Session 1 was reaped; siblings are intact and finalize cleanly.
        assert_eq!(server.session_count(), 2);
        assert_eq!(server.stats().failed, 1);
        assert!(matches!(
            server.push_frame(1, video.frame(0)).unwrap_err(),
            ServeError::UnknownSession(1)
        ));
        let plain = {
            let mut s = prototype().session();
            s.push_frames(video.frames()).unwrap();
            s.finalize().unwrap()
        };
        for id in [0u64, 2] {
            let recon = server.close_session(id).unwrap();
            assert_eq!(
                recon.background, plain.background,
                "sibling {id} was corrupted by the panic"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_fails_only_its_own_session() {
        let video = toy_call(20);
        let (head, rest) = video.frames().split_at(3);
        let dir = temp_spill("corrupt");
        let mut server = ReconServer::new(prototype(), ServeConfig::new(&dir)).unwrap();
        // A plain session fed the same frames: the oracle for session 1's
        // output and for the bytes the server holds resident.
        let mut twin = prototype().session();
        twin.push_frames(head).unwrap();
        for id in [1u64, 2] {
            server.open_session(id, 48, 36).unwrap();
            server.push_frames(id, head.to_vec()).unwrap();
        }
        assert_eq!(server.live_bytes(), 2 * twin.state_bytes());
        server.evict_session(2).unwrap();
        assert_eq!(server.live_bytes(), twin.state_bytes());
        std::fs::write(dir.join("session-2.bbsc"), b"BBSC? not a checkpoint").unwrap();

        let results = server
            .push_many(vec![(1, rest.to_vec()), (2, rest.to_vec())])
            .unwrap();
        twin.push_frames(rest).unwrap();
        assert!(
            matches!(
                results.as_slice(),
                [(1, Ok(_)), (2, Err(ServeError::Session { id: 2, .. }))]
            ),
            "{results:?}"
        );
        assert_eq!(server.live_count(), 1, "session 2 stays evicted");
        assert_eq!(server.live_bytes(), twin.state_bytes());
        assert_eq!(server.frames_seen(1), Some(20));

        let recon = server.close_session(1).unwrap();
        assert_eq!(server.live_bytes(), 0);
        assert_eq!(recon.background, twin.finalize().unwrap().background);
        assert!(matches!(
            server.close_session(2),
            Err(ServeError::Session { id: 2, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn push_many_answers_in_input_order() {
        let video = toy_call(2);
        let dir = temp_spill("order");
        let mut server = ReconServer::new(prototype(), ServeConfig::new(&dir)).unwrap();
        server.open_session(1, 48, 36).unwrap();
        let frames = video.frames().to_vec();
        let results = server
            .push_many(vec![(1, frames.clone()), (7, frames.clone()), (1, frames)])
            .unwrap();
        assert!(
            matches!(
                results.as_slice(),
                [
                    (1, Ok(_)),
                    (7, Err(ServeError::UnknownSession(7))),
                    (1, Err(ServeError::Protocol(_)))
                ]
            ),
            "{results:?}"
        );
        assert_eq!(server.frames_seen(1), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_wire_frames_are_rejected() {
        let video = toy_call(4);
        let mut enc = WireEncoder::new();
        enc.open(5, 48, 36, 30.0);
        enc.frame(5, 1, video.frame(1)); // seq 1 before seq 0
        let bytes = enc.finish();
        let dir = temp_spill("reorder");
        let mut server = ReconServer::new(prototype(), ServeConfig::new(&dir)).unwrap();
        assert!(matches!(
            server.serve_wire(&bytes).unwrap_err(),
            ServeError::Protocol(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
