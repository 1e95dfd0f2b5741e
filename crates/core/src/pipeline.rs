//! The end-to-end reconstruction pipeline ([`Reconstructor`]), tying the
//! Fig 4 stages together: virtual-background masking → blending-blur
//! masking → video-caller masking → residue accumulation.
//!
//! Since the streaming redesign, the batch entry points are thin wrappers
//! over [`crate::session::ReconstructionSession`]: `reconstruct` pushes
//! every frame into a session and finalizes it, so batch and streaming
//! ingestion are byte-identical by construction.

use crate::recon::ReconstructionCanvas;
use crate::session::ReconstructionSession;
use crate::vbmask::{
    derive_unknown_image, derive_unknown_video, identify_known_image, identify_known_video,
    VirtualReference, STABILITY_THRESHOLD,
};
use crate::vcmask::VcMaskParams;
use crate::workers::CollectMode;
use crate::CoreError;
use bb_imaging::filter::MAX_BLUR_RADIUS;
use bb_imaging::{Frame, Mask};
use bb_telemetry::Telemetry;
use bb_video::VideoStream;

/// Default number of frames buffered before the session locks its
/// reference/segmenter/color-model state (see
/// [`ReconstructorConfig::warmup_frames`]).
pub const DEFAULT_WARMUP_FRAMES: usize = 128;

/// Where the adversary's virtual-background reference comes from (§V-B's
/// four scenarios).
#[derive(Debug, Clone)]
pub enum VbSource {
    /// The adversary owns a dataset of candidate virtual images (`D_img`).
    KnownImages(Vec<Frame>),
    /// The adversary owns a dataset of candidate virtual videos (`D_vid`).
    KnownVideos(Vec<VideoStream>),
    /// Derive the virtual image from the call itself (pixel stability).
    UnknownImage,
    /// Derive the looping virtual video from the call itself.
    UnknownVideo {
        /// Minimum candidate loop period in frames.
        min_period: usize,
        /// Maximum candidate loop period in frames.
        max_period: usize,
    },
    /// Use an explicit reference (ablations; cross-call fusion results).
    Exact(VirtualReference),
}

impl VbSource {
    /// Validated constructor for [`VbSource::UnknownVideo`]: rejects a zero
    /// or inverted period range up front instead of failing mid-pipeline.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `min_period == 0` or
    /// `min_period > max_period`.
    pub fn unknown_video(min_period: usize, max_period: usize) -> Result<VbSource, CoreError> {
        if min_period == 0 {
            return Err(CoreError::InvalidConfig(
                "min_period must be at least 1".into(),
            ));
        }
        if min_period > max_period {
            return Err(CoreError::InvalidConfig(format!(
                "inverted period range: min_period {min_period} > max_period {max_period}"
            )));
        }
        Ok(VbSource::UnknownVideo {
            min_period,
            max_period,
        })
    }
}

/// Whether the pipeline keeps the three per-frame mask vectors
/// (`per_frame_leak` / `per_frame_vbm` / `per_frame_removed`) in its output.
///
/// The masks cost O(frames × frame size) memory; production streaming
/// callers that only want the reconstructed background choose
/// [`MaskRetention::None`] so session memory stays bounded by the frame
/// size alone. The default keeps them, matching the historical API (and the
/// golden determinism hash, which covers the per-frame leak masks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskRetention {
    /// Keep every per-frame mask (batch/evaluation default).
    #[default]
    Full,
    /// Drop per-frame masks as soon as their residue is accumulated.
    None,
}

/// Van Cittert iteration count used by the blur-residue deconvolution
/// stage ([`ReconMode::BlurResidue`]). Three iterations recover most of the
/// edge energy a box blur removes; more mainly amplifies clamp noise.
pub const DEBLUR_ITERATIONS: usize = 3;

/// What kind of residue the pipeline accumulates as evidence.
///
/// The paper's attack ([`ReconMode::ColorResidue`]) assumes an
/// image/video-replacement VB: leaked pixels show the *real* background
/// color, so residue accumulates raw frame colors. Against a *blur* VB
/// (`bb_callsim::VbMode::Blur`) there is no reference image to subtract —
/// every background pixel is a low-passed version of the truth — so
/// [`ReconMode::BlurResidue`] skips reference identification (the whole
/// frame is candidate evidence) and accumulates *deblurred* frames instead:
/// each frame is sharpened by [`bb_imaging::filter::deblur_box`] (Van
/// Cittert against the platform's blur radius) before its residue lands on
/// the canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconMode {
    /// Accumulate raw leaked colors (the paper's §V-E attack; the golden
    /// determinism hash pins this path).
    #[default]
    ColorResidue,
    /// Accumulate Van Cittert-deblurred evidence against a blur VB.
    BlurResidue {
        /// The platform's box-blur radius (the deconvolution kernel).
        radius: usize,
    },
}

/// Pipeline tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructorConfig {
    /// Pixel-match tolerance for µ (§V-B); 0 is the paper's exact match,
    /// small positive values absorb sensor noise.
    pub tau: u8,
    /// Blending-blur radius φ (§V-C); the paper calibrates 20 for Zoom at
    /// VGA scale — scale proportionally to the frame size in use.
    pub phi: usize,
    /// Frames a pixel must stay consistent to count as virtual background
    /// in the unknown-VB derivation (§V-B's 10-frame rule).
    pub stability_threshold: usize,
    /// Color-refinement parameters for the VCM stage (§V-D).
    pub vc: VcMaskParams,
    /// Number of worker threads for the per-frame stages (1 = sequential).
    pub parallelism: usize,
    /// Minimum per-pixel observation count kept in the final canvas
    /// (1 keeps everything; higher values harden against the dynamic-VB
    /// mitigation's one-frame artifacts).
    pub min_observations: u32,
    /// How parallel passes collect per-frame results (one strategy; see
    /// [`CollectMode`] for why the field remains).
    pub collect_mode: CollectMode,
    /// Frames a [`ReconstructionSession`] buffers before locking its
    /// VB reference, person segmenter and caller color model. Everything
    /// after the lock streams with O(frame size) memory. Batch
    /// `reconstruct` goes through the same session, so calls no longer than
    /// this lock over the whole call — the historical batch behaviour.
    pub warmup_frames: usize,
    /// Whether per-frame masks are retained in the output (see
    /// [`MaskRetention`]).
    pub mask_retention: MaskRetention,
    /// What kind of residue is accumulated (see [`ReconMode`]). The default
    /// color-residue mode is the paper's attack; blur-residue adapts the
    /// pipeline to blurred (not replaced) backgrounds.
    pub mode: ReconMode,
}

impl Default for ReconstructorConfig {
    fn default() -> Self {
        ReconstructorConfig {
            tau: 12,
            phi: 4,
            stability_threshold: STABILITY_THRESHOLD,
            vc: VcMaskParams::default(),
            parallelism: 4,
            min_observations: 1,
            collect_mode: CollectMode::default(),
            warmup_frames: DEFAULT_WARMUP_FRAMES,
            mask_retention: MaskRetention::Full,
            mode: ReconMode::ColorResidue,
        }
    }
}

impl ReconstructorConfig {
    /// Starts a validated builder pre-loaded with the defaults. Prefer this
    /// over struct-literal construction: `build()` rejects degenerate
    /// values (`phi == 0`, zero parallelism, out-of-range refine bits, …)
    /// that a bare literal would let through to fail obscurely mid-run.
    pub fn builder() -> ReconstructorConfigBuilder {
        ReconstructorConfigBuilder {
            config: ReconstructorConfig::default(),
        }
    }
}

/// Builder for [`ReconstructorConfig`] — see
/// [`ReconstructorConfig::builder`].
#[derive(Debug, Clone)]
pub struct ReconstructorConfigBuilder {
    config: ReconstructorConfig,
}

impl ReconstructorConfigBuilder {
    /// Pixel-match tolerance µ.
    #[must_use]
    pub fn tau(mut self, tau: u8) -> Self {
        self.config.tau = tau;
        self
    }

    /// Blending-blur radius φ.
    #[must_use]
    pub fn phi(mut self, phi: usize) -> Self {
        self.config.phi = phi;
        self
    }

    /// Unknown-VB stability threshold (frames).
    #[must_use]
    pub fn stability_threshold(mut self, frames: usize) -> Self {
        self.config.stability_threshold = frames;
        self
    }

    /// VCM color-refinement parameters.
    #[must_use]
    pub fn vc(mut self, vc: VcMaskParams) -> Self {
        self.config.vc = vc;
        self
    }

    /// Worker-thread count for the per-frame stages.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.parallelism = workers;
        self
    }

    /// Minimum per-pixel observation count kept in the final canvas.
    #[must_use]
    pub fn min_observations(mut self, min: u32) -> Self {
        self.config.min_observations = min;
        self
    }

    /// Session warmup length in frames (the lock point).
    #[must_use]
    pub fn warmup_frames(mut self, frames: usize) -> Self {
        self.config.warmup_frames = frames;
        self
    }

    /// Per-frame mask retention policy.
    #[must_use]
    pub fn mask_retention(mut self, retention: MaskRetention) -> Self {
        self.config.mask_retention = retention;
        self
    }

    /// Residue-accumulation mode (color vs deblurred evidence).
    #[must_use]
    pub fn mode(mut self, mode: ReconMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when any field is degenerate:
    /// `phi == 0`, `parallelism == 0`, `stability_threshold == 0`,
    /// `min_observations == 0`, `warmup_frames == 0`, a blur-residue radius
    /// outside `1..=MAX_BLUR_RADIUS`, refine bits outside `1..=8`, or a
    /// frequency threshold outside `[0, 1]`.
    pub fn build(self) -> Result<ReconstructorConfig, CoreError> {
        let c = &self.config;
        if c.phi == 0 {
            return Err(CoreError::InvalidConfig(
                "phi must be at least 1 (a zero blending-blur radius leaks VB pixels)".into(),
            ));
        }
        if c.parallelism == 0 {
            return Err(CoreError::InvalidConfig(
                "parallelism must be at least 1".into(),
            ));
        }
        if c.stability_threshold == 0 {
            return Err(CoreError::InvalidConfig(
                "stability_threshold must be at least 1 frame".into(),
            ));
        }
        if c.min_observations == 0 {
            return Err(CoreError::InvalidConfig(
                "min_observations must be at least 1".into(),
            ));
        }
        if c.warmup_frames == 0 {
            return Err(CoreError::InvalidConfig(
                "warmup_frames must be at least 1".into(),
            ));
        }
        if let ReconMode::BlurResidue { radius } = c.mode {
            if radius == 0 {
                return Err(CoreError::InvalidConfig(
                    "BlurResidue radius must be at least 1 (radius 0 is ColorResidue)".into(),
                ));
            }
            if radius > MAX_BLUR_RADIUS {
                return Err(CoreError::InvalidConfig(format!(
                    "BlurResidue radius must be at most {MAX_BLUR_RADIUS}, got {radius}"
                )));
            }
        }
        if c.vc.refine_bits == 0 || c.vc.refine_bits > 8 {
            return Err(CoreError::InvalidConfig(format!(
                "vc.refine_bits must be in 1..=8, got {}",
                c.vc.refine_bits
            )));
        }
        for (name, v) in [
            ("vc.refine_min_freq", c.vc.refine_min_freq),
            ("vc.model_min_freq", c.vc.model_min_freq),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be a finite fraction in [0, 1], got {v}"
                )));
            }
        }
        Ok(self.config)
    }
}

/// The output of a reconstruction run.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// The partially reconstructed background (unknown pixels black, as in
    /// the paper's figures).
    pub background: Frame,
    /// Which pixels were recovered.
    pub recovered: Mask,
    /// The accumulation canvas (counts available for confidence filtering).
    pub canvas: ReconstructionCanvas,
    /// The virtual-background reference the pipeline used.
    pub vb_reference: VirtualReference,
    /// Per-frame estimated leaked-background masks (`LBⁱ`).
    pub per_frame_leak: Vec<Mask>,
    /// Per-frame virtual-background masks (`VBMⁱ`), for VBMR evaluation.
    pub per_frame_vbm: Vec<Mask>,
    /// Per-frame removed-region masks (`VBMⁱ ∪ BBMⁱ`), for VBMR evaluation.
    pub per_frame_removed: Vec<Mask>,
}

impl Reconstruction {
    /// The framework's RBRR (§VIII-A): recovered coverage × 100.
    pub fn rbrr(&self) -> f64 {
        crate::metrics::rbrr(&self.recovered)
    }
}

/// The reconstruction framework. Construct with a [`VbSource`] and a
/// [`ReconstructorConfig`], then call [`Reconstructor::reconstruct`].
#[derive(Debug, Clone)]
pub struct Reconstructor {
    pub(crate) source: VbSource,
    pub(crate) config: ReconstructorConfig,
    pub(crate) telemetry: Telemetry,
}

impl Reconstructor {
    /// Creates a reconstructor (telemetry disabled).
    pub fn new(source: VbSource, config: ReconstructorConfig) -> Self {
        Reconstructor {
            source,
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; stage timings land under `reconstruct/…`
    /// and worker-pool statistics under `workers/…`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReconstructorConfig {
        &self.config
    }

    /// Resolves the virtual-background reference for a call (identification
    /// or derivation, §V-B).
    ///
    /// # Errors
    ///
    /// Propagates identification/derivation failures.
    pub fn resolve_reference(&self, video: &VideoStream) -> Result<VirtualReference, CoreError> {
        resolve_reference_impl(&self.source, &self.config, &self.telemetry, video)
    }

    /// Opens a streaming [`ReconstructionSession`] that ingests frames one
    /// at a time with bounded memory. Batch [`Reconstructor::reconstruct`]
    /// is a wrapper over the same session, so the two produce byte-identical
    /// output for the same frames.
    pub fn session(&self) -> ReconstructionSession {
        ReconstructionSession::new(self.source.clone(), self.config, self.telemetry.clone())
    }

    /// Restores a streaming session from bytes produced by
    /// [`ReconstructionSession::checkpoint`]. The VB source and telemetry
    /// handle come from `self`; the checkpointed config must equal this
    /// reconstructor's config.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointCorrupt`] on malformed bytes or a config
    /// mismatch.
    pub fn resume_session(&self, bytes: &[u8]) -> Result<ReconstructionSession, CoreError> {
        ReconstructionSession::resume(
            self.source.clone(),
            self.config,
            self.telemetry.clone(),
            bytes,
        )
    }

    /// Runs the full pipeline over a recorded call.
    ///
    /// Internally this pushes every frame through a streaming
    /// [`ReconstructionSession`] and finalizes it — batch and streaming
    /// ingestion share one engine.
    ///
    /// # Errors
    ///
    /// Propagates reference resolution and masking failures.
    pub fn reconstruct(&self, video: &VideoStream) -> Result<Reconstruction, CoreError> {
        let _whole = self.telemetry.time("reconstruct");
        let mut session = self.session();
        session.push_frames(video.frames())?;
        session.finalize()
    }

    /// Runs the pipeline with a pre-resolved reference (lets experiments
    /// separate identification quality from reconstruction quality).
    ///
    /// # Errors
    ///
    /// Propagates masking failures.
    pub fn reconstruct_with_reference(
        &self,
        video: &VideoStream,
        reference: VirtualReference,
    ) -> Result<Reconstruction, CoreError> {
        let exact = Reconstructor {
            source: VbSource::Exact(reference),
            config: self.config,
            telemetry: self.telemetry.clone(),
        };
        exact.reconstruct(video)
    }
}

/// Reference resolution shared by [`Reconstructor::resolve_reference`] and
/// the session lock step.
pub(crate) fn resolve_reference_impl(
    source: &VbSource,
    config: &ReconstructorConfig,
    telemetry: &Telemetry,
    video: &VideoStream,
) -> Result<VirtualReference, CoreError> {
    let _span = telemetry.time("resolve_reference");
    let (w, h) = video.dims();
    match source {
        VbSource::KnownImages(candidates) => {
            let resized: Vec<Frame> = candidates
                .iter()
                .map(|c| bb_imaging::geom::resize(c, w, h))
                .collect();
            let (idx, _) = identify_known_image(video, &resized, config.tau)?;
            Ok(VirtualReference::Image {
                image: resized[idx].clone(),
                valid: Mask::full(w, h),
            })
        }
        VbSource::KnownVideos(candidates) => {
            let resized: Vec<VideoStream> = candidates
                .iter()
                .map(|v| {
                    let frames: Vec<Frame> = v
                        .iter()
                        .map(|f| bb_imaging::geom::resize(f, w, h))
                        .collect();
                    VideoStream::from_frames(frames, v.fps())
                })
                .collect::<Result<_, _>>()?;
            let (vi, offset, _) = identify_known_video(video, &resized, config.tau)?;
            let phases: Vec<(Frame, Mask)> = resized[vi]
                .iter()
                .map(|f| (f.clone(), Mask::full(w, h)))
                .collect();
            Ok(VirtualReference::Video { phases, offset })
        }
        VbSource::UnknownImage => {
            derive_unknown_image(video, config.stability_threshold, config.tau)
        }
        VbSource::UnknownVideo {
            min_period,
            max_period,
        } => {
            if *min_period == 0 || min_period > max_period {
                return Err(CoreError::InvalidConfig(format!(
                    "invalid period range {min_period}..={max_period} \
                     (use VbSource::unknown_video to validate up front)"
                )));
            }
            derive_unknown_video(
                video,
                *min_period,
                *max_period,
                config.tau,
                (config.stability_threshold / min_period.max(&1)).max(2),
            )
        }
        VbSource::Exact(r) => Ok(r.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    /// A miniature composited call built by hand: VB gradient everywhere, a
    /// caller block in the middle, and a known leak strip that follows the
    /// caller for several frames.
    fn toy_call() -> (VideoStream, Frame, Mask) {
        let vb = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
        let real_bg = Frame::filled(48, 36, Rgb::new(20, 140, 60));
        let mut leaked_union = Mask::new(48, 36);
        let video = VideoStream::generate(30, 30.0, |i| {
            let mut f = vb.clone();
            // Caller: blue block with a skin head, swaying.
            let cx = 20 + ((i / 3) % 4) as i64;
            draw::fill_rect(&mut f, cx, 14, 10, 22, Rgb::new(40, 70, 160));
            draw::fill_circle(&mut f, cx + 5, 10, 4, Rgb::new(230, 195, 165));
            // Leak strip hugging the caller's right edge in most frames
            // (matting leaks are always boundary-adjacent).
            if i % 3 != 0 {
                draw::fill_rect(&mut f, cx + 10, 18, 3, 6, Rgb::new(20, 140, 60));
            }
            f
        })
        .unwrap();
        // Reference leak union for assertions (approximate zone).
        for x in 28..37 {
            for y in 17..25 {
                leaked_union.set(x, y, true);
            }
        }
        (video, real_bg, leaked_union)
    }

    fn config() -> ReconstructorConfig {
        ReconstructorConfig {
            tau: 4,
            phi: 2,
            parallelism: 2,
            // The toy leak strip is only a couple of pixels after masking;
            // don't let the cluster guard swallow it.
            vc: crate::vcmask::VcMaskParams {
                min_flip_cluster: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn unknown_image_pipeline_recovers_leak() {
        let (video, real_bg, leak_zone) = toy_call();
        let rec = Reconstructor::new(VbSource::UnknownImage, config())
            .reconstruct(&video)
            .unwrap();
        // Some of the leak strip is recovered with the real background color.
        let hits = rec
            .recovered
            .intersect(&leak_zone)
            .unwrap()
            .iter_set()
            .filter(|&(x, y)| rec.background.get(x, y).matches(real_bg.get(x, y), 6))
            .count();
        assert!(hits >= 2, "only {hits} leak pixels recovered correctly");
        // The canvas also collects some imprecise (VB-colored) residue —
        // the paper's precision cost of a small φ — but total recovery must
        // be non-trivial.
        assert!(rec.recovered.count_set() >= 4);
        assert!(rec.rbrr() > 0.0);
    }

    #[test]
    fn known_image_pipeline_beats_or_matches_unknown() {
        let (video, _, _) = toy_call();
        let vb = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
        let known = Reconstructor::new(
            VbSource::KnownImages(vec![vb, Frame::filled(48, 36, Rgb::grey(10))]),
            config(),
        )
        .reconstruct(&video)
        .unwrap();
        let unknown = Reconstructor::new(VbSource::UnknownImage, config())
            .reconstruct(&video)
            .unwrap();
        // The known reference is fully valid, so its VBM covers at least as
        // much of the *true* virtual background. (The unknown VBM may be
        // larger in absolute terms because caller-core pixels that never
        // move are wrongly derived as VB — the §V-B stationary-user caveat —
        // so compare within the true VB region only.)
        let vb_ref = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
        let mut known_cover = 0usize;
        let mut unknown_cover = 0usize;
        for i in 0..video.len() {
            let true_vb = video.frame(i).match_mask(&vb_ref, 4).unwrap();
            known_cover += known.per_frame_vbm[i]
                .intersect(&true_vb)
                .unwrap()
                .count_set();
            unknown_cover += unknown.per_frame_vbm[i]
                .intersect(&true_vb)
                .unwrap()
                .count_set();
        }
        assert!(
            known_cover >= unknown_cover,
            "known {known_cover} < unknown {unknown_cover}"
        );
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (video, _, _) = toy_call();
        let seq = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig {
                parallelism: 1,
                ..config()
            },
        )
        .reconstruct(&video)
        .unwrap();
        let par = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig {
                parallelism: 4,
                ..config()
            },
        )
        .reconstruct(&video)
        .unwrap();
        assert_eq!(seq.recovered, par.recovered);
        assert_eq!(seq.background, par.background);
        assert_eq!(seq.per_frame_leak, par.per_frame_leak);
    }

    #[test]
    fn exact_reference_skips_identification() {
        let (video, _, _) = toy_call();
        let vb = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
        let reference = VirtualReference::Image {
            image: vb,
            valid: Mask::full(48, 36),
        };
        let rec = Reconstructor::new(VbSource::Exact(reference), config())
            .reconstruct(&video)
            .unwrap();
        assert!(rec.rbrr() > 0.0);
    }

    #[test]
    fn min_observations_filters_canvas() {
        let (video, _, _) = toy_call();
        let loose = Reconstructor::new(VbSource::UnknownImage, config())
            .reconstruct(&video)
            .unwrap();
        let strict = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig {
                min_observations: 5,
                ..config()
            },
        )
        .reconstruct(&video)
        .unwrap();
        assert!(strict.recovered.count_set() <= loose.recovered.count_set());
    }

    #[test]
    fn per_frame_outputs_cover_all_frames() {
        let (video, _, _) = toy_call();
        let rec = Reconstructor::new(VbSource::UnknownImage, config())
            .reconstruct(&video)
            .unwrap();
        assert_eq!(rec.per_frame_leak.len(), video.len());
        assert_eq!(rec.per_frame_vbm.len(), video.len());
        assert_eq!(rec.per_frame_removed.len(), video.len());
        // Removed ⊇ VBM for every frame.
        for (vbm, removed) in rec.per_frame_vbm.iter().zip(&rec.per_frame_removed) {
            assert!(vbm.subtract(removed).unwrap().is_empty());
        }
    }

    #[test]
    fn leak_disjoint_from_removed_regions() {
        let (video, _, _) = toy_call();
        let rec = Reconstructor::new(VbSource::UnknownImage, config())
            .reconstruct(&video)
            .unwrap();
        for (leak, removed) in rec.per_frame_leak.iter().zip(&rec.per_frame_removed) {
            assert!(leak.intersect(removed).unwrap().is_empty());
        }
    }

    #[test]
    fn journal_gets_one_event_per_frame() {
        let (video, _, _) = toy_call();
        let telemetry = bb_telemetry::Telemetry::enabled()
            .with_journal(bb_telemetry::Journal::with_capacity(1 << 16));
        let rec = Reconstructor::new(VbSource::UnknownImage, config())
            .with_telemetry(telemetry.clone())
            .reconstruct(&video)
            .unwrap();
        let journal = telemetry.journal().unwrap();
        let frame_events: Vec<_> = journal
            .events()
            .into_iter()
            .filter(|e| e.stage == "reconstruct/frame")
            .collect();
        assert_eq!(frame_events.len(), video.len());
        let (w, h) = video.dims();
        let pixels = (w * h) as f64;
        let mut fills = Vec::new();
        for (i, e) in frame_events.iter().enumerate() {
            assert_eq!(e.frame, Some(i as u64));
            assert_eq!(
                e.fields["residue_px"],
                rec.per_frame_leak[i].count_set() as f64
            );
            assert_eq!(
                e.fields["mask_coverage"],
                rec.per_frame_removed[i].count_set() as f64 / pixels
            );
            fills.push(e.fields["canvas_fill"]);
        }
        // Canvas fill is monotone non-decreasing across frames.
        assert!(fills.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(
            *fills.last().unwrap(),
            rec.canvas.recovered_count() as f64 / pixels
        );
        // Worker spans made it into the journal too. The lane name depends
        // on how many threads the host allows (a single-core machine runs
        // the stage inline as `serial`), so accept any pass1 busy lane.
        assert!(journal
            .events()
            .iter()
            .any(|e| e.stage.starts_with("workers/pass1/busy/")));
    }

    #[test]
    fn empty_candidate_dataset_fails() {
        let (video, _, _) = toy_call();
        let r = Reconstructor::new(VbSource::KnownImages(vec![]), config()).reconstruct(&video);
        assert!(matches!(r, Err(CoreError::EmptyCandidateSet)));
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = ReconstructorConfig::builder().build().unwrap();
        assert_eq!(built, ReconstructorConfig::default());
    }

    #[test]
    fn builder_carries_every_setter_through() {
        let built = ReconstructorConfig::builder()
            .tau(9)
            .phi(4)
            .parallelism(3)
            .min_observations(2)
            .warmup_frames(64)
            .mask_retention(MaskRetention::None)
            .mode(ReconMode::BlurResidue { radius: 3 })
            .build()
            .unwrap();
        assert_eq!(built.tau, 9);
        assert_eq!(built.phi, 4);
        assert_eq!(built.parallelism, 3);
        assert_eq!(built.min_observations, 2);
        assert_eq!(built.warmup_frames, 64);
        assert_eq!(built.mask_retention, MaskRetention::None);
        assert_eq!(built.mode, ReconMode::BlurResidue { radius: 3 });
    }

    #[test]
    fn builder_rejects_degenerate_values() {
        for (builder, what) in [
            (ReconstructorConfig::builder().phi(0), "phi 0"),
            (
                ReconstructorConfig::builder().parallelism(0),
                "parallelism 0",
            ),
            (
                ReconstructorConfig::builder().stability_threshold(0),
                "stability 0",
            ),
            (
                ReconstructorConfig::builder().min_observations(0),
                "min_observations 0",
            ),
            (
                ReconstructorConfig::builder().warmup_frames(0),
                "warmup_frames 0",
            ),
            (
                ReconstructorConfig::builder().mode(ReconMode::BlurResidue { radius: 0 }),
                "blur radius 0",
            ),
            (
                ReconstructorConfig::builder().mode(ReconMode::BlurResidue {
                    radius: MAX_BLUR_RADIUS + 1,
                }),
                "blur radius above MAX_BLUR_RADIUS",
            ),
            (
                ReconstructorConfig::builder().vc(crate::vcmask::VcMaskParams {
                    refine_bits: 0,
                    ..Default::default()
                }),
                "refine_bits 0",
            ),
            (
                ReconstructorConfig::builder().vc(crate::vcmask::VcMaskParams {
                    refine_min_freq: f64::NAN,
                    ..Default::default()
                }),
                "NaN refine_min_freq",
            ),
        ] {
            assert!(
                matches!(builder.build(), Err(CoreError::InvalidConfig(_))),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_video_source_validates_periods() {
        assert!(matches!(
            VbSource::unknown_video(0, 10),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            VbSource::unknown_video(10, 4),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            VbSource::unknown_video(2, 8),
            Ok(VbSource::UnknownVideo {
                min_period: 2,
                max_period: 8,
            })
        ));
    }
}
