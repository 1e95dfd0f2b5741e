//! Streaming reconstruction sessions: the incremental, bounded-memory
//! engine behind [`Reconstructor`](crate::pipeline::Reconstructor).
//!
//! A [`ReconstructionSession`] ingests frames one at a time and maintains
//! the accumulation canvas online. It runs as a two-phase state machine:
//!
//! ```text
//! Warmup ──(warmup_frames reached, or finalize)──▶ Locked
//!   │  buffers raw frames                            │ per-frame pipeline,
//!   │  O(warmup × frame)                             │ O(frame size) state
//!   ▼                                                ▼
//! checkpoint = raw buffer               checkpoint = canvas + reference
//!                                                    + segmenter + model
//! ```
//!
//! During **Warmup** the session only buffers frames — the VB reference
//! (identification or unknown-VB derivation), the person segmenter's
//! background model and the caller color model all need a window of frames
//! to fit, exactly as the batch pipeline fits them over the whole call. At
//! the **lock** point (the `warmup_frames`-th frame, or `finalize()` for
//! shorter calls) those models are fitted once over the buffered window,
//! the window is processed through the standard pass1/pass2/accumulate
//! stages, and the buffer is dropped. Every later frame streams through the
//! locked models with memory bounded by O(frame size) (plus the per-frame
//! masks when [`MaskRetention::Full`](crate::pipeline::MaskRetention) is
//! selected).
//!
//! Batch [`Reconstructor::reconstruct`](crate::pipeline::Reconstructor::reconstruct)
//! pushes every frame through a session and finalizes it, so for calls no
//! longer than `warmup_frames` the streaming path *is* the historical batch
//! path, byte for byte — `tests/determinism.rs` pins this with the golden
//! hash.
//!
//! [`ReconstructionSession::checkpoint`] serializes the full session state
//! into a versioned binary format (magic `BBSC`, version 2 — see
//! DESIGN.md §7) so a long-running capture survives process restart;
//! [`Reconstructor::resume_session`](crate::pipeline::Reconstructor::resume_session)
//! restores it.

use crate::bbmask::bb_mask;
use crate::pipeline::{
    resolve_reference_impl, MaskRetention, ReconMode, Reconstruction, ReconstructorConfig,
    VbSource, DEBLUR_ITERATIONS,
};
use crate::recon::ReconstructionCanvas;
use crate::vbmask::{vb_mask, VirtualReference};
use crate::vcmask::{vc_mask_with_model, CallerColorModel};
use crate::workers::{run_stage, CollectMode};
use crate::CoreError;
use bb_imaging::filter::MAX_BLUR_RADIUS;
use bb_imaging::hist::ColorHistogram;
use bb_imaging::pool::FramePool;
use bb_imaging::{Frame, Mask, Rgb};
use bb_segment::{PersonSegmenter, SegmenterParams};
use bb_telemetry::Telemetry;
use bb_video::source::FrameSource;
use bb_video::stream::STANDARD_FPS;
use bb_video::VideoStream;

/// Checkpoint container magic ("Background buster Streaming Checkpoint").
const MAGIC: &[u8; 4] = b"BBSC";
/// Checkpoint format version (bump on any layout change).
const VERSION: u32 = 2;
/// Dimension sanity bound for decoded frames/masks (matches the `.bbv`
/// decoder's bound).
const MAX_DIM: u64 = 1 << 14;
/// Frame-count sanity bound for decoded collections.
const MAX_FRAMES: u64 = 1 << 20;

/// What happened to a frame handed to
/// [`ReconstructionSession::push_frame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameOutcome {
    /// The frame was buffered; the session is still warming up and has not
    /// fitted its models yet.
    Buffered {
        /// Total frames ingested so far.
        frames_seen: usize,
    },
    /// This frame completed the warmup window: the VB reference, segmenter
    /// and color model were fitted and the whole window was processed.
    Locked {
        /// Total frames ingested (and now processed) so far.
        frames_seen: usize,
        /// Fraction of canvas pixels recovered so far.
        canvas_fill: f64,
    },
    /// The frame streamed through the locked pipeline.
    Processed {
        /// Total frames ingested so far.
        frames_seen: usize,
        /// Leaked-background pixels this frame contributed.
        residue_px: usize,
        /// Fraction of canvas pixels recovered so far.
        canvas_fill: f64,
    },
}

/// A cheap point-in-time view of the partial reconstruction, available at
/// any moment of a streaming session (all-black/empty before the lock).
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Frames ingested when the snapshot was taken.
    pub frames_seen: usize,
    /// Whether the session had locked its models yet.
    pub locked: bool,
    /// The partial background (unknown pixels black).
    pub background: Frame,
    /// Which pixels have been recovered.
    pub recovered: Mask,
}

impl SessionSnapshot {
    /// RBRR of the partial reconstruction (§VIII-A).
    pub fn rbrr(&self) -> f64 {
        crate::metrics::rbrr(&self.recovered)
    }
}

struct WarmupState {
    frames: Vec<Frame>,
}

struct LockedState {
    width: usize,
    height: usize,
    frames_seen: usize,
    reference: VirtualReference,
    segmenter: PersonSegmenter,
    model: Option<CallerColorModel>,
    canvas: ReconstructionCanvas,
    leaks: Vec<Mask>,
    vbms: Vec<Mask>,
    removeds: Vec<Mask>,
}

enum SessionState {
    Warmup(WarmupState),
    Locked(Box<LockedState>),
}

/// An incremental reconstruction over a live stream of frames. Create with
/// [`Reconstructor::session`](crate::pipeline::Reconstructor::session).
pub struct ReconstructionSession {
    source: VbSource,
    config: ReconstructorConfig,
    telemetry: Telemetry,
    state: SessionState,
    /// Set when a push-time lock attempt failed (e.g. no loop period found
    /// yet); the session keeps buffering and retries only at `finalize`,
    /// instead of re-running the expensive derivation on every push.
    lock_failed: bool,
    /// Recycles frame pixel buffers between the warmup copies, the lock
    /// hand-off and [`ReconstructionSession::ingest`]'s chunk buffer, so a
    /// steady-state session performs no per-frame heap allocation on the
    /// session side. Transient: never serialized into checkpoints.
    pool: FramePool,
}

impl ReconstructionSession {
    pub(crate) fn new(
        source: VbSource,
        config: ReconstructorConfig,
        telemetry: Telemetry,
    ) -> ReconstructionSession {
        ReconstructionSession {
            source,
            config,
            telemetry,
            state: SessionState::Warmup(WarmupState { frames: Vec::new() }),
            lock_failed: false,
            pool: FramePool::new(),
        }
    }

    /// Total frames ingested so far.
    pub fn frames_seen(&self) -> usize {
        match &self.state {
            SessionState::Warmup(w) => w.frames.len(),
            SessionState::Locked(l) => l.frames_seen,
        }
    }

    /// Whether the models are fitted and frames now stream through with
    /// bounded memory.
    pub fn is_locked(&self) -> bool {
        matches!(self.state, SessionState::Locked(_))
    }

    /// The session's frame geometry, once the first frame fixed it.
    pub fn dims(&self) -> Option<(usize, usize)> {
        match &self.state {
            SessionState::Warmup(w) => w.frames.first().map(Frame::dims),
            SessionState::Locked(l) => Some((l.width, l.height)),
        }
    }

    /// Approximate heap bytes held by the session — the bounded-memory
    /// claim made measurable. After the lock, with
    /// [`MaskRetention::None`], this stays constant no matter how many
    /// frames are pushed. Idle buffers in the internal frame pool are not
    /// counted; they are capped at
    /// [`DEFAULT_RETAIN`](bb_imaging::pool::DEFAULT_RETAIN) buffers.
    pub fn state_bytes(&self) -> usize {
        fn frame_bytes(w: usize, h: usize) -> usize {
            w * h * 3
        }
        fn mask_bytes(w: usize, h: usize) -> usize {
            w.div_ceil(64) * h * 8
        }
        match &self.state {
            SessionState::Warmup(wst) => wst
                .frames
                .iter()
                .map(|f| {
                    let (w, h) = f.dims();
                    frame_bytes(w, h)
                })
                .sum(),
            SessionState::Locked(l) => {
                let (w, h) = (l.width, l.height);
                let canvas = w * h * (std::mem::size_of::<Option<Rgb>>() + 4 + 4);
                let reference = match &l.reference {
                    VirtualReference::Image { .. } => frame_bytes(w, h) + mask_bytes(w, h),
                    VirtualReference::Video { phases, .. } => {
                        phases.len() * (frame_bytes(w, h) + mask_bytes(w, h))
                    }
                };
                let segmenter = frame_bytes(w, h);
                let model = l
                    .model
                    .as_ref()
                    .map_or(0, |m| m.histogram().bucket_counts().len() * 4);
                let masks = (l.leaks.len() + l.vbms.len() + l.removeds.len()) * mask_bytes(w, h);
                canvas + reference + segmenter + model + masks
            }
        }
    }

    /// `(reuses, fresh allocations)` served by the session's internal
    /// frame-buffer pool — observability for the zero-allocation
    /// steady-state claim. Checkpoints do not carry the pool, so resumed
    /// sessions start from `(0, 0)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }

    fn validate_dims(&self, frame: &Frame) -> Result<(), CoreError> {
        if let Some(expected) = self.dims() {
            let got = frame.dims();
            if got != expected {
                return Err(CoreError::CanvasDimensionMismatch { expected, got });
            }
        }
        Ok(())
    }

    fn canvas_fill(&self) -> f64 {
        match &self.state {
            SessionState::Locked(l) => {
                l.canvas.recovered_count() as f64 / ((l.width * l.height).max(1)) as f64
            }
            SessionState::Warmup(_) => 0.0,
        }
    }

    /// Ingests one frame.
    ///
    /// # Errors
    ///
    /// [`CoreError::CanvasDimensionMismatch`] when the frame does not match
    /// the session geometry; reference-resolution errors when this frame
    /// triggers the lock; worker failures from the per-frame stages.
    pub fn push_frame(&mut self, frame: &Frame) -> Result<FrameOutcome, CoreError> {
        self.validate_dims(frame)?;
        if self.telemetry.is_enabled() {
            self.telemetry.add("frames/input", 1);
            self.telemetry
                .add("session/pixels", (frame.width() * frame.height()) as u64);
        }
        let buffered = match &mut self.state {
            SessionState::Warmup(w) => {
                // Pooled copy: once the pool has been primed (by a previous
                // lock, or by `ingest` recycling its chunk buffers) this is
                // a memcpy into an existing buffer, not an allocation.
                let copy = self
                    .pool
                    .take_copy(frame)
                    .expect("session frames are never zero-sized");
                w.frames.push(copy);
                Some(w.frames.len())
            }
            SessionState::Locked(_) => None,
        };
        match buffered {
            Some(n) => {
                if n >= self.config.warmup_frames && !self.lock_failed {
                    self.lock()?;
                    Ok(FrameOutcome::Locked {
                        frames_seen: self.frames_seen(),
                        canvas_fill: self.canvas_fill(),
                    })
                } else {
                    Ok(FrameOutcome::Buffered { frames_seen: n })
                }
            }
            None => {
                let residue_px = self.process_locked_block(std::slice::from_ref(frame))?;
                Ok(FrameOutcome::Processed {
                    frames_seen: self.frames_seen(),
                    residue_px,
                    canvas_fill: self.canvas_fill(),
                })
            }
        }
    }

    /// Ingests a block of frames — equivalent to pushing them one at a
    /// time, but frames past the lock are processed as one parallel block.
    /// Returns the total frames ingested so far.
    ///
    /// # Errors
    ///
    /// Same as [`ReconstructionSession::push_frame`].
    pub fn push_frames(&mut self, frames: &[Frame]) -> Result<usize, CoreError> {
        let mut i = 0;
        while i < frames.len() && !self.is_locked() {
            self.push_frame(&frames[i])?;
            i += 1;
        }
        if i < frames.len() {
            let block = &frames[i..];
            for f in block {
                self.validate_dims(f)?;
            }
            if self.telemetry.is_enabled() {
                self.telemetry.add("frames/input", block.len() as u64);
                let pixels: usize = block.iter().map(|f| f.width() * f.height()).sum();
                self.telemetry.add("session/pixels", pixels as u64);
            }
            self.process_locked_block(block)?;
        }
        Ok(self.frames_seen())
    }

    /// Drains a [`FrameSource`] into the session, pulling up to
    /// `chunk_frames` frames at a time (so file readers stay bounded too).
    /// Returns the total frames ingested so far.
    ///
    /// Before the lock, chunk frames are pulled by value and recycled into
    /// the pool so the warmup copies reuse them; after the lock the chunk
    /// slots are filled in place via [`FrameSource::next_frame_into`] —
    /// steady-state ingest allocates nothing per frame on either side of
    /// the source boundary.
    ///
    /// # Errors
    ///
    /// Propagates source read errors and processing failures.
    pub fn ingest<S: FrameSource + ?Sized>(
        &mut self,
        source: &mut S,
        chunk_frames: usize,
    ) -> Result<usize, CoreError> {
        let chunk = chunk_frames.max(1);
        let mut buf: Vec<Frame> = Vec::with_capacity(chunk);
        while !self.is_locked() {
            while buf.len() < chunk {
                match source.next_frame()? {
                    Some(f) => buf.push(f),
                    None => break,
                }
            }
            if buf.is_empty() {
                return Ok(self.frames_seen());
            }
            let exhausted = buf.len() < chunk;
            self.push_frames(&buf)?;
            // Recycle the chunk's buffers instead of freeing them; warmup
            // copies in `push_frames` draw from the same pool, so from the
            // second chunk on the session side allocates nothing per frame.
            for f in buf.drain(..) {
                self.pool.recycle(f);
            }
            if exhausted {
                return Ok(self.frames_seen());
            }
        }
        // Locked: frames are processed by reference, so the chunk slots are
        // reusable buffers filled in place. They come out of the pool (the
        // warmup buffers recycled at lock) and go back when the source ends.
        loop {
            let mut filled = 0;
            while filled < chunk {
                if filled == buf.len() {
                    let slot = match source.dims_hint() {
                        Some((w, h)) if w > 0 && h > 0 => {
                            self.pool.take_filled(w, h, Rgb::new(0, 0, 0))?
                        }
                        // Geometry unknown up front: let the source size
                        // the first slot.
                        _ => match source.next_frame()? {
                            Some(f) => {
                                buf.push(f);
                                filled += 1;
                                continue;
                            }
                            None => break,
                        },
                    };
                    buf.push(slot);
                }
                if source.next_frame_into(&mut buf[filled])? {
                    filled += 1;
                } else {
                    break;
                }
            }
            if filled > 0 {
                self.push_frames(&buf[..filled])?;
            }
            if filled < chunk {
                break;
            }
        }
        for f in buf.drain(..) {
            self.pool.recycle(f);
        }
        Ok(self.frames_seen())
    }

    /// A point-in-time view of the partial reconstruction (`None` before
    /// the first frame fixes the geometry). Before the lock the background
    /// is all black; afterwards it reflects everything accumulated so far,
    /// with the `min_observations` filter applied like `finalize` would.
    pub fn snapshot(&self) -> Option<SessionSnapshot> {
        match &self.state {
            SessionState::Warmup(w) => {
                let (width, height) = w.frames.first()?.dims();
                Some(SessionSnapshot {
                    frames_seen: w.frames.len(),
                    locked: false,
                    background: Frame::new(width, height),
                    recovered: Mask::new(width, height),
                })
            }
            SessionState::Locked(l) => {
                let (background, recovered) = if self.config.min_observations > 1 {
                    let filtered = l.canvas.filtered(self.config.min_observations);
                    (filtered.to_frame(Rgb::BLACK), filtered.recovered_mask())
                } else {
                    (l.canvas.to_frame(Rgb::BLACK), l.canvas.recovered_mask())
                };
                Some(SessionSnapshot {
                    frames_seen: l.frames_seen,
                    locked: true,
                    background,
                    recovered,
                })
            }
        }
    }

    /// Completes the session into a [`Reconstruction`]. Sessions shorter
    /// than the warmup window lock here, over every frame pushed — which is
    /// exactly the historical batch pipeline.
    ///
    /// # Errors
    ///
    /// [`CoreError::VideoTooShort`] when no frame was ever pushed;
    /// reference-resolution errors when the lock happens here.
    pub fn finalize(mut self) -> Result<Reconstruction, CoreError> {
        if !self.is_locked() {
            self.lock()?;
        }
        let mut pool = self.pool;
        let telemetry = self.telemetry;
        let config = self.config;
        let locked = match self.state {
            SessionState::Locked(l) => *l,
            SessionState::Warmup(_) => unreachable!("lock() left the session unlocked"),
        };
        let LockedState {
            width,
            height,
            frames_seen,
            reference,
            mut canvas,
            leaks,
            vbms,
            removeds,
            ..
        } = locked;
        if telemetry.is_enabled() {
            telemetry.set_meta("frames", frames_seen);
        }
        if config.min_observations > 1 {
            let _span = telemetry.time("reconstruct/filter");
            canvas = canvas.filtered(config.min_observations);
        }
        let recovered = canvas.recovered_mask();
        if telemetry.is_enabled() {
            telemetry.add("pixels/recovered", recovered.count_set() as u64);
        }
        // Render the background through the pool: the batch path recycled
        // its warmup buffers at lock, and this draw is what cashes them in
        // (`session/pool/reuses` must be non-zero even for a pure-batch
        // run). Stats are read only after the draw so the report includes
        // it.
        let mut background = pool
            .take_filled(width, height, Rgb::BLACK)
            .expect("locked session dimensions are non-zero");
        canvas.write_colors(&mut background);
        if telemetry.is_enabled() {
            let (reuses, allocs) = pool.stats();
            telemetry.add("session/pool/reuses", reuses);
            telemetry.add("session/pool/allocs", allocs);
        }
        Ok(Reconstruction {
            background,
            recovered,
            canvas,
            vb_reference: reference,
            per_frame_leak: leaks,
            per_frame_vbm: vbms,
            per_frame_removed: removeds,
        })
    }

    /// Fits the models over the warmup buffer and processes it, moving the
    /// session to the locked phase. On failure the buffer is kept so a
    /// retry (at `finalize`, with more frames) is possible.
    fn lock(&mut self) -> Result<(), CoreError> {
        let frames = match &mut self.state {
            SessionState::Warmup(w) => std::mem::take(&mut w.frames),
            SessionState::Locked(_) => return Ok(()),
        };
        if frames.is_empty() {
            return Err(CoreError::VideoTooShort { needed: 1, have: 0 });
        }
        // Cannot fail: non-empty, push-time dimension checks, finite fps.
        let stream = VideoStream::from_frames(frames, STANDARD_FPS)?;
        match self.lock_over(&stream) {
            Ok(locked) => {
                self.state = SessionState::Locked(Box::new(locked));
                self.lock_failed = false;
                // The warmup window is done with: return its buffers to the
                // pool instead of freeing them, so later warmups (retry
                // paths) and `ingest` copies reuse them.
                for f in stream.into_frames() {
                    self.pool.recycle(f);
                }
                Ok(())
            }
            Err(e) => {
                self.state = SessionState::Warmup(WarmupState {
                    frames: stream.into_frames(),
                });
                self.lock_failed = true;
                Err(e)
            }
        }
    }

    fn lock_over(&self, stream: &VideoStream) -> Result<LockedState, CoreError> {
        let telemetry = &self.telemetry;
        let (w, h) = stream.dims();
        // Blur residue has no identifiable background media to match
        // against: an empty-valid reference makes the VBM (and hence the
        // BBM) empty, so every non-caller pixel becomes residue and the
        // deblurred frames carry the evidence into the canvas.
        let reference = match self.config.mode {
            ReconMode::ColorResidue => {
                resolve_reference_impl(&self.source, &self.config, telemetry, stream)?
            }
            ReconMode::BlurResidue { .. } => VirtualReference::Image {
                image: Frame::new(w, h),
                valid: Mask::new(w, h),
            },
        };
        let n = stream.len();
        let workers = self.config.parallelism.max(1).min(n.max(1));
        if telemetry.is_enabled() {
            telemetry.set_meta("frames", n);
            telemetry.set_meta("width", w);
            telemetry.set_meta("height", h);
            telemetry.set_meta("parallelism", workers);
        }
        let segmenter = {
            let _span = telemetry.time("reconstruct/segmenter_fit");
            PersonSegmenter::fit(stream)
        };
        let mut locked = LockedState {
            width: w,
            height: h,
            frames_seen: 0,
            reference,
            segmenter,
            model: None,
            canvas: ReconstructionCanvas::new(w, h),
            leaks: Vec::new(),
            vbms: Vec::new(),
            removeds: Vec::new(),
        };
        process_block(&mut locked, &self.config, telemetry, stream.frames(), true)?;
        Ok(locked)
    }

    fn process_locked_block(&mut self, frames: &[Frame]) -> Result<usize, CoreError> {
        match &mut self.state {
            SessionState::Locked(locked) => {
                process_block(locked, &self.config, &self.telemetry, frames, false)
            }
            SessionState::Warmup(_) => {
                unreachable!("process_locked_block called before lock")
            }
        }
    }

    /// Serializes the complete session state into the versioned `BBSC`
    /// checkpoint format (DESIGN.md §7). Restore with
    /// [`Reconstructor::resume_session`](crate::pipeline::Reconstructor::resume_session).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, VERSION);
        put_config(&mut buf, &self.config);
        match &self.state {
            SessionState::Warmup(w) => {
                buf.push(0);
                put_u64(&mut buf, w.frames.len() as u64);
                for f in &w.frames {
                    put_frame(&mut buf, f);
                }
            }
            SessionState::Locked(l) => {
                buf.push(1);
                put_u64(&mut buf, l.frames_seen as u64);
                put_u64(&mut buf, l.width as u64);
                put_u64(&mut buf, l.height as u64);
                match &l.reference {
                    VirtualReference::Image { image, valid } => {
                        buf.push(0);
                        put_frame(&mut buf, image);
                        put_mask(&mut buf, valid);
                    }
                    VirtualReference::Video { phases, offset } => {
                        buf.push(1);
                        put_u64(&mut buf, *offset as u64);
                        put_u64(&mut buf, phases.len() as u64);
                        for (f, m) in phases {
                            put_frame(&mut buf, f);
                            put_mask(&mut buf, m);
                        }
                    }
                }
                let p = l.segmenter.params();
                buf.push(p.diff_tau);
                put_u64(&mut buf, p.close_radius as u64);
                put_u64(&mut buf, p.open_radius as u64);
                put_f64(&mut buf, p.min_component_frac);
                put_f64(&mut buf, p.skin_evidence_frac);
                put_frame(&mut buf, l.segmenter.model());
                match &l.model {
                    Some(m) => {
                        buf.push(1);
                        let hist = m.histogram();
                        buf.push(hist.bits());
                        for &c in hist.bucket_counts() {
                            put_u32(&mut buf, c);
                        }
                    }
                    None => buf.push(0),
                }
                for i in 0..l.width * l.height {
                    match l.canvas.colors[i] {
                        Some(c) => {
                            buf.push(1);
                            buf.push(c.r);
                            buf.push(c.g);
                            buf.push(c.b);
                        }
                        None => buf.push(0),
                    }
                    put_i32(&mut buf, l.canvas.votes[i]);
                    put_u32(&mut buf, l.canvas.counts[i]);
                }
                if self.config.mask_retention == MaskRetention::Full {
                    for masks in [&l.leaks, &l.vbms, &l.removeds] {
                        put_u64(&mut buf, masks.len() as u64);
                        for m in masks {
                            put_mask(&mut buf, m);
                        }
                    }
                }
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry.add("session/checkpoints", 1);
        }
        if self.telemetry.has_journal() {
            self.telemetry.event(
                "session/checkpoint",
                Some(self.frames_seen() as u64),
                &[("bytes", buf.len() as f64)],
            );
        }
        buf
    }

    pub(crate) fn resume(
        source: VbSource,
        config: ReconstructorConfig,
        telemetry: Telemetry,
        bytes: &[u8],
    ) -> Result<ReconstructionSession, CoreError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(corrupt("bad magic (not a BBSC checkpoint)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported checkpoint version {version} (this build reads {VERSION})"
            )));
        }
        let saved = read_config(&mut r)?;
        if saved != config {
            return Err(corrupt(
                "checkpoint config does not match the resuming reconstructor's config",
            ));
        }
        let state = match r.u8()? {
            0 => {
                let count = r.count()?;
                let mut frames: Vec<Frame> = Vec::with_capacity(count);
                for _ in 0..count {
                    let f = read_frame(&mut r)?;
                    if frames.first().is_some_and(|first| f.dims() != first.dims()) {
                        return Err(corrupt("warmup frames have mixed dimensions"));
                    }
                    frames.push(f);
                }
                SessionState::Warmup(WarmupState { frames })
            }
            1 => {
                let frames_seen = r.count()?;
                let width = r.dim()?;
                let height = r.dim()?;
                let dims = (width, height);
                let reference = match r.u8()? {
                    0 => {
                        let image = read_frame(&mut r)?;
                        let valid = read_mask(&mut r)?;
                        if image.dims() != dims || valid.dims() != dims {
                            return Err(corrupt("reference geometry mismatch"));
                        }
                        VirtualReference::Image { image, valid }
                    }
                    1 => {
                        let offset = r.count()?;
                        let count = r.count()?;
                        if count == 0 {
                            return Err(corrupt("video reference with no phases"));
                        }
                        let mut phases = Vec::with_capacity(count);
                        for _ in 0..count {
                            let f = read_frame(&mut r)?;
                            let m = read_mask(&mut r)?;
                            if f.dims() != dims || m.dims() != dims {
                                return Err(corrupt("reference phase geometry mismatch"));
                            }
                            phases.push((f, m));
                        }
                        VirtualReference::Video { phases, offset }
                    }
                    t => return Err(corrupt(format!("unknown reference tag {t}"))),
                };
                let params = SegmenterParams {
                    diff_tau: r.u8()?,
                    close_radius: r.count()?,
                    open_radius: r.count()?,
                    min_component_frac: r.f64()?,
                    skin_evidence_frac: r.f64()?,
                };
                let seg_model = read_frame(&mut r)?;
                if seg_model.dims() != dims {
                    return Err(corrupt("segmenter model geometry mismatch"));
                }
                let segmenter = PersonSegmenter::from_parts(params, seg_model);
                let model = match r.u8()? {
                    0 => None,
                    1 => {
                        let bits = r.u8()?;
                        if !(1..=8).contains(&bits) {
                            return Err(corrupt(format!("histogram bits {bits} out of range")));
                        }
                        let len = 1usize << (3 * bits);
                        let mut counts = Vec::with_capacity(len);
                        for _ in 0..len {
                            counts.push(r.u32()?);
                        }
                        let hist = ColorHistogram::from_raw(bits, counts)
                            .ok_or_else(|| corrupt("histogram rejected its raw parts"))?;
                        CallerColorModel::from_histogram(hist)
                    }
                    t => return Err(corrupt(format!("unknown color-model tag {t}"))),
                };
                let mut canvas = ReconstructionCanvas::new(width, height);
                for i in 0..width * height {
                    canvas.colors[i] = match r.u8()? {
                        0 => None,
                        1 => {
                            let px = r.take(3)?;
                            Some(Rgb::new(px[0], px[1], px[2]))
                        }
                        t => return Err(corrupt(format!("unknown canvas pixel tag {t}"))),
                    };
                    canvas.votes[i] = r.i32()?;
                    canvas.counts[i] = r.u32()?;
                }
                let mut retained: [Vec<Mask>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                if config.mask_retention == MaskRetention::Full {
                    for slot in &mut retained {
                        let count = r.count()?;
                        if count != frames_seen {
                            return Err(corrupt(format!(
                                "retained mask count {count} != frames_seen {frames_seen}"
                            )));
                        }
                        for _ in 0..count {
                            let m = read_mask(&mut r)?;
                            if m.dims() != dims {
                                return Err(corrupt("retained mask geometry mismatch"));
                            }
                            slot.push(m);
                        }
                    }
                }
                let [leaks, vbms, removeds] = retained;
                SessionState::Locked(Box::new(LockedState {
                    width,
                    height,
                    frames_seen,
                    reference,
                    segmenter,
                    model,
                    canvas,
                    leaks,
                    vbms,
                    removeds,
                }))
            }
            t => return Err(corrupt(format!("unknown phase tag {t}"))),
        };
        if r.pos != bytes.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after checkpoint payload",
                bytes.len() - r.pos
            )));
        }
        Ok(ReconstructionSession {
            source,
            config,
            telemetry,
            state,
            lock_failed: false,
            pool: FramePool::new(),
        })
    }
}

/// Runs pass1 (VBM+BBM), optionally the color-model fit, pass2 (VCM) and
/// sequential residue accumulation over a block of frames whose global
/// indices start at `locked.frames_seen`. This is the one shared stage body
/// behind both the warmup lock (where it reproduces the batch pipeline
/// exactly) and steady-state streaming. Returns the last frame's residue
/// pixel count.
fn process_block(
    locked: &mut LockedState,
    config: &ReconstructorConfig,
    telemetry: &Telemetry,
    frames: &[Frame],
    fit_model: bool,
) -> Result<usize, CoreError> {
    let n = frames.len();
    if n == 0 {
        return Ok(0);
    }
    // Requested parallelism is a ceiling, not a demand: the output is
    // index-ordered and identical for any worker count, so never spawn more
    // threads than the host can run.
    let workers = crate::workers::effective_workers(config.parallelism, n);
    let base = locked.frames_seen;
    let tau = config.tau;
    let phi = config.phi;

    // Pass 1: VBM (§V-B) and BBM (§V-C) per frame, on the worker pool.
    let reference = &locked.reference;
    let pass1: Vec<(Mask, Mask)> = {
        let _span = telemetry.time("reconstruct/pass1");
        run_stage(n, workers, config.collect_mode, telemetry, "pass1", |i| {
            let frame = &frames[i];
            let (ref_frame, ref_valid) = reference.for_frame(base + i);
            let vbm = vb_mask(frame, ref_frame, ref_valid, tau)?;
            let bbm = bb_mask(&vbm, phi);
            let removed = vbm.union(&bbm)?;
            if telemetry.is_enabled() {
                telemetry.add("frames/pass1", 1);
                telemetry.add("pixels/vbm", vbm.count_set() as u64);
                telemetry.add("pixels/removed", removed.count_set() as u64);
            }
            Ok((vbm, removed))
        })?
    };
    let (vbms, removeds): (Vec<Mask>, Vec<Mask>) = pass1.into_iter().unzip();
    let candidates: Vec<Mask> = removeds.iter().map(|r| r.complement()).collect();

    // Cross-frame caller color model from the quietest frames (§V-D color
    // analysis across frames) — fitted once, over the warmup window.
    if fit_model {
        let _span = telemetry.time("reconstruct/color_model");
        let pairs: Vec<(&Frame, &Mask)> = frames.iter().zip(candidates.iter()).collect();
        locked.model = CallerColorModel::fit(&pairs, config.vc.refine_bits);
    }

    // Pass 2: VCM (§V-D) in parallel, then sequential residue accumulation
    // (§V-E) — the canvas's majority vote is order-sensitive, and
    // accumulation is cheap next to segmentation.
    let segmenter = &locked.segmenter;
    let model = locked.model.as_ref();
    let leaks: Vec<Mask> = {
        let _span = telemetry.time("reconstruct/pass2");
        run_stage(n, workers, config.collect_mode, telemetry, "pass2", |i| {
            let frame = &frames[i];
            let vc = vc_mask_with_model(segmenter, frame, &candidates[i], &config.vc, model);
            let leak = candidates[i].subtract(&vc.vcm)?;
            if telemetry.is_enabled() {
                telemetry.add("frames/pass2", 1);
                telemetry.add("pixels/leak", leak.count_set() as u64);
            }
            Ok(leak)
        })?
    };
    // Blur residue: invert the compositor's box blur per frame (on the
    // worker pool) so the canvas accumulates deblurred evidence instead of
    // smoothed colors.
    let deblurred: Option<Vec<Frame>> = match config.mode {
        ReconMode::ColorResidue => None,
        ReconMode::BlurResidue { radius } => {
            let _span = telemetry.time("reconstruct/deblur");
            Some(run_stage(
                n,
                workers,
                config.collect_mode,
                telemetry,
                "deblur",
                |i| {
                    Ok(bb_imaging::filter::deblur_box(
                        &frames[i],
                        radius,
                        DEBLUR_ITERATIONS,
                    ))
                },
            )?)
        }
    };
    let mut last_residue = 0usize;
    {
        let _span = telemetry.time("reconstruct/accumulate");
        let journal_frames = telemetry.has_journal();
        let pixels = (locked.width * locked.height).max(1) as f64;
        for (i, leak) in leaks.iter().enumerate() {
            let evidence = deblurred.as_ref().map_or(&frames[i], |d| &d[i]);
            locked.canvas.accumulate(evidence, leak)?;
            last_residue = leak.count_set();
            if journal_frames {
                // One structured event per frame: how much the masks
                // removed, how much residue this frame admitted, and how
                // full the canvas is afterwards.
                telemetry.event(
                    "reconstruct/frame",
                    Some((base + i) as u64),
                    &[
                        ("mask_coverage", removeds[i].count_set() as f64 / pixels),
                        ("residue_px", leak.count_set() as f64),
                        (
                            "canvas_fill",
                            locked.canvas.recovered_count() as f64 / pixels,
                        ),
                    ],
                );
            }
        }
    }
    match config.mask_retention {
        MaskRetention::Full => {
            locked.leaks.extend(leaks);
            locked.vbms.extend(vbms);
            locked.removeds.extend(removeds);
        }
        MaskRetention::None => {}
    }
    locked.frames_seen += n;
    Ok(last_residue)
}

// ---- checkpoint byte codec -------------------------------------------------
//
// serde in this tree is a vendored no-op stub, so the checkpoint format is
// hand-rolled little-endian, mirroring the `.bbv` container's style.

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::CheckpointCorrupt(msg.into())
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_frame(buf: &mut Vec<u8>, frame: &Frame) {
    let (w, h) = frame.dims();
    put_u64(buf, w as u64);
    put_u64(buf, h as u64);
    for p in frame.pixels() {
        buf.push(p.r);
        buf.push(p.g);
        buf.push(p.b);
    }
}

fn put_mask(buf: &mut Vec<u8>, mask: &Mask) {
    let (w, h) = mask.dims();
    put_u64(buf, w as u64);
    put_u64(buf, h as u64);
    for y in 0..h {
        for &word in mask.row_words(y) {
            put_u64(buf, word);
        }
    }
}

fn put_config(buf: &mut Vec<u8>, c: &ReconstructorConfig) {
    buf.push(c.tau);
    put_u64(buf, c.phi as u64);
    put_u64(buf, c.stability_threshold as u64);
    put_u64(buf, c.parallelism as u64);
    put_u32(buf, c.min_observations);
    // The collect-mode byte predates the single collector; it stays so the
    // checkpoint format does not change, and is always 0.
    buf.push(match c.collect_mode {
        CollectMode::WorkerLocal => 0,
    });
    put_u64(buf, c.warmup_frames as u64);
    buf.push(match c.mask_retention {
        MaskRetention::Full => 0,
        MaskRetention::None => 1,
    });
    put_f64(buf, c.vc.refine_min_freq);
    buf.push(c.vc.refine_bits);
    put_u64(buf, c.vc.min_flip_cluster as u64);
    put_f64(buf, c.vc.model_min_freq);
    match c.mode {
        ReconMode::ColorResidue => buf.push(0),
        ReconMode::BlurResidue { radius } => {
            buf.push(1);
            put_u64(buf, radius as u64);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, CoreError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u64 count/offset bounded by the frame-count sanity limit.
    fn count(&mut self) -> Result<usize, CoreError> {
        let v = self.u64()?;
        if v > MAX_FRAMES {
            return Err(corrupt(format!("implausible count {v}")));
        }
        Ok(v as usize)
    }

    /// A u64 dimension bounded by the geometry sanity limit.
    fn dim(&mut self) -> Result<usize, CoreError> {
        let v = self.u64()?;
        if v == 0 || v > MAX_DIM {
            return Err(corrupt(format!("implausible dimension {v}")));
        }
        Ok(v as usize)
    }
}

fn read_config(r: &mut Reader) -> Result<ReconstructorConfig, CoreError> {
    Ok(ReconstructorConfig {
        tau: r.u8()?,
        phi: r.count()?,
        stability_threshold: r.count()?,
        parallelism: r.count()?,
        min_observations: r.u32()?,
        collect_mode: match r.u8()? {
            0 => CollectMode::WorkerLocal,
            t => return Err(corrupt(format!("unknown collect mode {t}"))),
        },
        warmup_frames: r.count()?,
        mask_retention: match r.u8()? {
            0 => MaskRetention::Full,
            1 => MaskRetention::None,
            t => return Err(corrupt(format!("unknown mask retention {t}"))),
        },
        vc: crate::vcmask::VcMaskParams {
            refine_min_freq: r.f64()?,
            refine_bits: r.u8()?,
            min_flip_cluster: r.count()?,
            model_min_freq: r.f64()?,
        },
        mode: match r.u8()? {
            0 => ReconMode::ColorResidue,
            1 => {
                let radius = r.count()?;
                if radius == 0 || radius > MAX_BLUR_RADIUS {
                    return Err(corrupt(format!(
                        "blur-residue radius {radius} outside 1..={MAX_BLUR_RADIUS}"
                    )));
                }
                ReconMode::BlurResidue { radius }
            }
            t => return Err(corrupt(format!("unknown reconstruction mode {t}"))),
        },
    })
}

fn read_frame(r: &mut Reader) -> Result<Frame, CoreError> {
    let w = r.dim()?;
    let h = r.dim()?;
    let bytes = r.take(w * h * 3)?;
    let pixels: Vec<Rgb> = bytes
        .chunks_exact(3)
        .map(|c| Rgb::new(c[0], c[1], c[2]))
        .collect();
    Frame::from_pixels(w, h, pixels).map_err(|e| corrupt(format!("bad frame payload: {e}")))
}

fn read_mask(r: &mut Reader) -> Result<Mask, CoreError> {
    let w = r.dim()?;
    let h = r.dim()?;
    let mut m = Mask::new(w, h);
    let wpr = m.words_per_row();
    for y in 0..h {
        for wi in 0..wpr {
            m.set_row_word(y, wi, r.u64()?);
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Reconstructor;
    use bb_imaging::draw;

    /// Same miniature call as the pipeline tests: VB gradient, swaying
    /// caller, boundary leak strip.
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

    fn config() -> ReconstructorConfig {
        ReconstructorConfig {
            tau: 4,
            phi: 2,
            parallelism: 2,
            vc: crate::vcmask::VcMaskParams {
                min_flip_cluster: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn assert_same(a: &Reconstruction, b: &Reconstruction) {
        assert_eq!(a.background, b.background);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.per_frame_leak, b.per_frame_leak);
        assert_eq!(a.per_frame_vbm, b.per_frame_vbm);
        assert_eq!(a.per_frame_removed, b.per_frame_removed);
    }

    #[test]
    fn streaming_equals_batch_across_the_lock_boundary() {
        let video = toy_call(30);
        // Warmup shorter than the call so frames 10.. stream one by one.
        let cfg = ReconstructorConfig {
            warmup_frames: 10,
            ..config()
        };
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, cfg);
        let batch = reconstructor.reconstruct(&video).unwrap();
        let mut session = reconstructor.session();
        for (i, frame) in video.iter().enumerate() {
            let outcome = session.push_frame(frame).unwrap();
            match outcome {
                FrameOutcome::Buffered { frames_seen } => {
                    assert!(i < 9, "buffered after warmup should be over");
                    assert_eq!(frames_seen, i + 1);
                }
                FrameOutcome::Locked { frames_seen, .. } => {
                    assert_eq!(i, 9);
                    assert_eq!(frames_seen, 10);
                }
                FrameOutcome::Processed { frames_seen, .. } => {
                    assert!(i > 9);
                    assert_eq!(frames_seen, i + 1);
                }
            }
        }
        let streamed = session.finalize().unwrap();
        assert_same(&batch, &streamed);
    }

    #[test]
    fn short_calls_lock_at_finalize() {
        let video = toy_call(30);
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config());
        let mut session = reconstructor.session();
        for frame in video.iter() {
            assert!(matches!(
                session.push_frame(frame).unwrap(),
                FrameOutcome::Buffered { .. }
            ));
        }
        assert!(!session.is_locked());
        let streamed = session.finalize().unwrap();
        let batch = reconstructor.reconstruct(&video).unwrap();
        assert_same(&batch, &streamed);
    }

    #[test]
    fn ingest_reuses_pooled_buffers_and_matches_batch() {
        let video = toy_call(30);
        let cfg = ReconstructorConfig {
            warmup_frames: 10,
            ..config()
        };
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, cfg);
        let batch = reconstructor.reconstruct(&video).unwrap();
        let mut session = reconstructor.session();
        let mut source = bb_video::source::MemorySource::new(video);
        // Chunks smaller than the warmup window: from the second chunk on,
        // warmup copies must come out of the recycled chunk buffers.
        session.ingest(&mut source, 4).unwrap();
        let (reuses, allocs) = session.pool_stats();
        assert!(
            reuses >= 6,
            "warmup copies past the first chunk should reuse ({reuses} reuses, {allocs} allocs)"
        );
        assert!(
            allocs <= 4,
            "session-side allocations must stop after the first chunk ({allocs} allocs)"
        );
        let streamed = session.finalize().unwrap();
        assert_same(&batch, &streamed);
    }

    #[test]
    fn ingest_from_mmap_sources_matches_batch() {
        // Streaming through the zero-copy layer — both container versions,
        // with the chunk slots filled in place — must stay byte-identical
        // to the batch run.
        let video = toy_call(30);
        let cfg = ReconstructorConfig {
            warmup_frames: 10,
            ..config()
        };
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, cfg);
        let batch = reconstructor.reconstruct(&video).unwrap();
        let dir = std::env::temp_dir().join("bb_session_mmap_ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("v1.bbv");
        bb_video::io::save(&video, &p1).unwrap();
        let p2 = dir.join("v2.bbv");
        bb_video::v2::save(&video, &p2, 4).unwrap();
        for path in [&p1, &p2] {
            let mut source = bb_video::mmap::MmapSource::open(path).unwrap();
            let mut session = reconstructor.session();
            session.ingest(&mut source, 7).unwrap();
            let streamed = session.finalize().unwrap();
            assert_same(&batch, &streamed);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_path_reuses_pooled_buffers() {
        // The pure-batch path (every frame buffered, lock at finalize)
        // recycles its warmup buffers at lock and must cash at least one in
        // when the final background is drawn — `session/pool/reuses: 0` on
        // a batch run means the pool is dead weight.
        let video = toy_call(30);
        let telemetry = bb_telemetry::Telemetry::enabled();
        let _ = Reconstructor::new(VbSource::UnknownImage, config())
            .with_telemetry(telemetry.clone())
            .reconstruct(&video)
            .unwrap();
        let report = telemetry.report();
        let reuses = report.counters["session/pool/reuses"];
        let allocs = report.counters["session/pool/allocs"];
        assert!(
            reuses > 0,
            "batch path must hit the pool ({reuses} reuses, {allocs} allocs)"
        );
    }

    #[test]
    fn checkpoint_resume_round_trips_in_both_phases() {
        let video = toy_call(30);
        let cfg = ReconstructorConfig {
            warmup_frames: 12,
            ..config()
        };
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, cfg);
        let full = reconstructor.reconstruct(&video).unwrap();
        // Cut during warmup (6 < 12) and after the lock (20 > 12).
        for cut in [6usize, 20] {
            let mut first = reconstructor.session();
            for frame in video.frames().iter().take(cut) {
                first.push_frame(frame).unwrap();
            }
            let bytes = first.checkpoint();
            drop(first);
            let mut resumed = reconstructor.resume_session(&bytes).unwrap();
            assert_eq!(resumed.frames_seen(), cut);
            for frame in video.frames().iter().skip(cut) {
                resumed.push_frame(frame).unwrap();
            }
            let rec = resumed.finalize().unwrap();
            assert_same(&full, &rec);
        }
    }

    #[test]
    fn blur_residue_checkpoints_round_trip_and_match_batch() {
        let video = toy_call(30);
        let cfg = ReconstructorConfig {
            warmup_frames: 12,
            mode: ReconMode::BlurResidue { radius: 2 },
            ..config()
        };
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, cfg);
        let full = reconstructor.reconstruct(&video).unwrap();
        // Cut during warmup (6 < 12) and after the lock (20 > 12): the mode
        // field must survive the checkpoint codec in both phases.
        for cut in [6usize, 20] {
            let mut first = reconstructor.session();
            for frame in video.frames().iter().take(cut) {
                first.push_frame(frame).unwrap();
            }
            let bytes = first.checkpoint();
            drop(first);
            let mut resumed = reconstructor.resume_session(&bytes).unwrap();
            assert_eq!(resumed.frames_seen(), cut);
            for frame in video.frames().iter().skip(cut) {
                resumed.push_frame(frame).unwrap();
            }
            let rec = resumed.finalize().unwrap();
            assert_same(&full, &rec);
        }
        // A checkpoint claiming a radius past MAX_BLUR_RADIUS is corrupt: the
        // deblur kernel's u16 lanes are only exact up to it.
        let oversized = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig {
                mode: ReconMode::BlurResidue {
                    radius: MAX_BLUR_RADIUS + 1,
                },
                ..cfg
            },
        );
        assert!(matches!(
            oversized.resume_session(&oversized.session().checkpoint()),
            Err(CoreError::CheckpointCorrupt(_))
        ));
        // A color-residue reconstructor refuses a blur-residue checkpoint.
        let session = reconstructor.session();
        let bytes = session.checkpoint();
        let other = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig {
                warmup_frames: 12,
                ..config()
            },
        );
        assert!(matches!(
            other.resume_session(&bytes),
            Err(CoreError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    fn resume_rejects_garbage_and_mismatched_config() {
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config());
        assert!(matches!(
            reconstructor.resume_session(b"not a checkpoint"),
            Err(CoreError::CheckpointCorrupt(_))
        ));
        let session = reconstructor.session();
        let mut bytes = session.checkpoint();
        // Truncation is caught.
        assert!(matches!(
            reconstructor.resume_session(&bytes[..bytes.len() - 1]),
            Err(CoreError::CheckpointCorrupt(_))
        ));
        // Trailing bytes are caught.
        bytes.push(0);
        assert!(matches!(
            reconstructor.resume_session(&bytes),
            Err(CoreError::CheckpointCorrupt(_))
        ));
        bytes.pop();
        // A different config refuses the checkpoint.
        let other = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig { phi: 9, ..config() },
        );
        assert!(matches!(
            other.resume_session(&bytes),
            Err(CoreError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    fn mask_retention_none_matches_full_output_without_masks() {
        let video = toy_call(30);
        let cfg = ReconstructorConfig {
            warmup_frames: 10,
            ..config()
        };
        let full = Reconstructor::new(VbSource::UnknownImage, cfg)
            .reconstruct(&video)
            .unwrap();
        let lean_cfg = ReconstructorConfig {
            mask_retention: MaskRetention::None,
            ..cfg
        };
        let lean = Reconstructor::new(VbSource::UnknownImage, lean_cfg)
            .reconstruct(&video)
            .unwrap();
        assert_eq!(full.background, lean.background);
        assert_eq!(full.recovered, lean.recovered);
        assert!(lean.per_frame_leak.is_empty());
        assert!(lean.per_frame_vbm.is_empty());
        assert!(lean.per_frame_removed.is_empty());
    }

    #[test]
    fn state_is_bounded_after_lock_with_no_retention() {
        let video = toy_call(40);
        let cfg = ReconstructorConfig {
            warmup_frames: 10,
            mask_retention: MaskRetention::None,
            ..config()
        };
        let mut session = Reconstructor::new(VbSource::UnknownImage, cfg).session();
        let mut at_lock = 0usize;
        let mut peak_after = 0usize;
        for (i, frame) in video.iter().enumerate() {
            session.push_frame(frame).unwrap();
            if i == 9 {
                at_lock = session.state_bytes();
            } else if i > 9 {
                peak_after = peak_after.max(session.state_bytes());
            }
        }
        assert!(at_lock > 0);
        assert_eq!(
            peak_after, at_lock,
            "state grew after lock despite MaskRetention::None"
        );
    }

    #[test]
    fn snapshot_tracks_progress() {
        let video = toy_call(30);
        let cfg = ReconstructorConfig {
            warmup_frames: 10,
            ..config()
        };
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, cfg);
        let mut session = reconstructor.session();
        assert!(session.snapshot().is_none());
        session.push_frame(video.frame(0)).unwrap();
        let snap = session.snapshot().unwrap();
        assert!(!snap.locked);
        assert_eq!(snap.frames_seen, 1);
        assert!(snap.recovered.is_empty());
        for frame in video.frames().iter().skip(1) {
            session.push_frame(frame).unwrap();
        }
        let snap = session.snapshot().unwrap();
        assert!(snap.locked);
        assert_eq!(snap.frames_seen, 30);
        let rec = session.finalize().unwrap();
        assert_eq!(snap.recovered, rec.recovered);
        assert_eq!(snap.background, rec.background);
        assert!((snap.rbrr() - rec.rbrr()).abs() < 1e-12);
    }

    #[test]
    fn empty_session_finalize_is_video_too_short() {
        let session = Reconstructor::new(VbSource::UnknownImage, config()).session();
        assert!(matches!(
            session.finalize(),
            Err(CoreError::VideoTooShort { .. })
        ));
    }

    #[test]
    fn mismatched_frame_dims_are_rejected() {
        let video = toy_call(5);
        let mut session = Reconstructor::new(VbSource::UnknownImage, config()).session();
        session.push_frame(video.frame(0)).unwrap();
        let wrong = Frame::new(10, 10);
        assert!(matches!(
            session.push_frame(&wrong),
            Err(CoreError::CanvasDimensionMismatch { .. })
        ));
    }
}
