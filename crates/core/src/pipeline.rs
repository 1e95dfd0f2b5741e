//! The end-to-end reconstruction pipeline ([`Reconstructor`]), tying the
//! Fig 4 stages together: virtual-background masking → blending-blur
//! masking → video-caller masking → residue accumulation.
//!
//! Since the streaming redesign, the batch entry points are thin wrappers
//! over [`crate::session::ReconstructionSession`]: `reconstruct` locks a
//! session directly over the call's first `warmup_frames` frames (no
//! copy), runs the rest through it as one block and finalizes it. The lock
//! and the per-frame stages are the streaming session's own, so batch and
//! streaming ingestion are byte-identical by construction.

use crate::session::{frame_leak, frame_removal, with_scratch, ReconstructionSession};
use crate::vbmask::{
    derive_unknown_image, derive_unknown_video, identify_known_image, identify_known_video,
    VirtualReference,
};
use crate::vcmask::{CallerColorModel, VcMaskParams};
use crate::workers::CollectMode;
use crate::CoreError;
use bb_imaging::filter::MAX_BLUR_RADIUS;
use bb_imaging::{Frame, Mask};
use bb_telemetry::Telemetry;
use bb_video::VideoStream;
use std::borrow::Cow;

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
    /// Color-refinement parameters for the VCM stage (§V-D).
    pub vc: VcMaskParams,
    /// Number of worker threads for the per-frame stages (1 = sequential).
    pub parallelism: usize,
    /// How parallel passes collect per-frame results (one strategy; see
    /// [`CollectMode`] for why the field remains).
    pub collect_mode: CollectMode,
    /// Frames a [`ReconstructionSession`] buffers before locking its
    /// VB reference, person segmenter and caller color model. Everything
    /// after the lock streams with O(frame size) memory. Batch
    /// `reconstruct` goes through the same session, so calls no longer than
    /// this lock over the whole call — the historical batch behaviour.
    pub warmup_frames: usize,
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
            vc: VcMaskParams::default(),
            parallelism: 4,
            collect_mode: CollectMode::default(),
            warmup_frames: DEFAULT_WARMUP_FRAMES,
            mode: ReconMode::ColorResidue,
        }
    }
}

impl ReconstructorConfig {
    /// Checks the config for degenerate values that a struct literal lets
    /// through to fail obscurely mid-run. The CLI builds every config in
    /// one place and validates it there.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when any field is degenerate:
    /// `phi == 0`, `parallelism == 0`, `warmup_frames == 0`, a blur-residue
    /// radius outside `1..=MAX_BLUR_RADIUS`, refine bits outside `1..=8`, or
    /// a frequency threshold outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.phi == 0 {
            return Err(CoreError::InvalidConfig(
                "phi must be at least 1 (a zero blending-blur radius leaks VB pixels)".into(),
            ));
        }
        if self.parallelism == 0 {
            return Err(CoreError::InvalidConfig(
                "parallelism must be at least 1".into(),
            ));
        }
        if self.warmup_frames == 0 {
            return Err(CoreError::InvalidConfig(
                "warmup_frames must be at least 1".into(),
            ));
        }
        if let ReconMode::BlurResidue { radius } = self.mode {
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
        if self.vc.refine_bits == 0 || self.vc.refine_bits > 8 {
            return Err(CoreError::InvalidConfig(format!(
                "vc.refine_bits must be in 1..=8, got {}",
                self.vc.refine_bits
            )));
        }
        for (name, v) in [
            ("vc.refine_min_freq", self.vc.refine_min_freq),
            ("vc.model_min_freq", self.vc.model_min_freq),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be a finite fraction in [0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// The output of a reconstruction run: the accumulated background and what
/// the per-frame masks need to be rebuilt on demand
/// ([`Reconstructor::frame_masks`]).
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// The partially reconstructed background (unknown pixels black, as in
    /// the paper's figures).
    pub background: Frame,
    /// Which pixels were recovered.
    pub recovered: Mask,
    /// The virtual-background reference the pipeline used.
    pub vb_reference: VirtualReference,
    /// The cross-frame caller color model fitted at the lock (`None` when
    /// the warmup window had no candidate pixel).
    pub color_model: Option<CallerColorModel>,
}

/// One frame's masks, as the session computed them (§III's components).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMasks {
    /// Virtual-background mask (`VBMⁱ`, §V-B).
    pub vbm: Mask,
    /// Removed region (`VBMⁱ ∪ BBMⁱ`, §V-C).
    pub removed: Mask,
    /// Estimated leaked-background mask (`LBⁱ`, §V-D).
    pub leak: Mask,
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
        resolve_reference_impl(&self.source, &self.config, &self.telemetry, video.frames())
    }

    /// Opens a streaming [`ReconstructionSession`] that ingests frames one
    /// at a time with bounded memory. Batch [`Reconstructor::reconstruct`]
    /// is a wrapper over the same session, so the two produce byte-identical
    /// output for the same frames.
    pub fn session(&self) -> ReconstructionSession {
        ReconstructionSession::new(self.source.clone(), self.config, self.telemetry.clone())
    }

    /// Restores a streaming session from bytes produced by
    /// [`ReconstructionSession::checkpoint`]. The VB source, telemetry
    /// handle and worker count come from `self`; every other checkpointed
    /// setting must equal this reconstructor's.
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
    /// Internally a streaming [`ReconstructionSession`] locks over the
    /// call's first `warmup_frames` frames where they lie, without copying
    /// them into its warmup buffer, then takes the remaining frames as one
    /// block and finalizes — batch and streaming ingestion share one
    /// engine, and the output equals pushing every frame.
    ///
    /// # Errors
    ///
    /// Propagates reference resolution and masking failures.
    pub fn reconstruct(&self, video: &VideoStream) -> Result<Reconstruction, CoreError> {
        let _whole = self.telemetry.time("reconstruct");
        self.session().reconstruct(video.frames())
    }

    /// Rebuilds frame `index`'s masks as the session that produced `rec`
    /// computed them: pass1's and pass2's per-frame bodies, run against the
    /// locked reference and color model. `frame` is the call's frame
    /// `index`, and this reconstructor's config must be the one that
    /// produced `rec`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Imaging`] when `frame`'s dimensions differ from the
    /// reference's.
    pub fn frame_masks(
        &self,
        rec: &Reconstruction,
        index: usize,
        frame: &Frame,
    ) -> Result<FrameMasks, CoreError> {
        let model_rare = rec
            .color_model
            .as_ref()
            .map(|m| m.histogram().rare_colors(self.config.vc.model_min_freq));
        with_scratch(|s| {
            let (removed, skin) = frame_removal(frame, index, &rec.vb_reference, &self.config, s)?;
            let leak = frame_leak(frame, &removed, &skin, &self.config, model_rare.as_ref(), s)?;
            Ok(FrameMasks {
                vbm: s.vbm.clone(),
                removed,
                leak,
            })
        })
    }
}

/// A candidate frame at the call's size: borrowed when it already is, a
/// resized copy otherwise.
fn at_size(frame: &Frame, w: usize, h: usize) -> Cow<'_, Frame> {
    if frame.dims() == (w, h) {
        Cow::Borrowed(frame)
    } else {
        Cow::Owned(bb_imaging::geom::resize(frame, w, h))
    }
}

/// Reference resolution shared by [`Reconstructor::resolve_reference`] and
/// the session lock step.
pub(crate) fn resolve_reference_impl(
    source: &VbSource,
    config: &ReconstructorConfig,
    telemetry: &Telemetry,
    video: &[Frame],
) -> Result<VirtualReference, CoreError> {
    let _span = telemetry.time("resolve_reference");
    let (w, h) = video[0].dims();
    match source {
        VbSource::KnownImages(candidates) => {
            let mut resized: Vec<Cow<Frame>> =
                candidates.iter().map(|c| at_size(c, w, h)).collect();
            let (idx, _) = identify_known_image(video, &resized, config.tau)?;
            let image = resized.swap_remove(idx);
            Ok(VirtualReference::Image {
                image: image.into_owned(),
                valid: Mask::full(w, h),
            })
        }
        VbSource::KnownVideos(candidates) => {
            let mut resized: Vec<Vec<Cow<Frame>>> = candidates
                .iter()
                .map(|v| v.iter().map(|f| at_size(f, w, h)).collect())
                .collect();
            let slices: Vec<&[Cow<Frame>]> = resized.iter().map(Vec::as_slice).collect();
            let (vi, offset, _) = identify_known_video(video, &slices, config.tau)?;
            let phases = resized
                .swap_remove(vi)
                .into_iter()
                .map(|f| (f.into_owned(), Mask::full(w, h)))
                .collect();
            Ok(VirtualReference::Video { phases, offset })
        }
        VbSource::UnknownImage => derive_unknown_image(video, config.tau),
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
            derive_unknown_video(video, *min_period, *max_period, config.tau)
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
        let known_reconstructor = Reconstructor::new(
            VbSource::KnownImages(vec![vb, Frame::filled(48, 36, Rgb::grey(10))]),
            config(),
        );
        let known = known_reconstructor.reconstruct(&video).unwrap();
        let unknown_reconstructor = Reconstructor::new(VbSource::UnknownImage, config());
        let unknown = unknown_reconstructor.reconstruct(&video).unwrap();
        // The known reference is fully valid, so its VBM covers at least as
        // much of the *true* virtual background. (The unknown VBM may be
        // larger in absolute terms because caller-core pixels that never
        // move are wrongly derived as VB — the §V-B stationary-user caveat —
        // so compare within the true VB region only.)
        let vb_ref = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
        let mut known_cover = 0usize;
        let mut unknown_cover = 0usize;
        for i in 0..video.len() {
            let frame = video.frame(i);
            let true_vb = frame.match_mask(&vb_ref, 4).unwrap();
            known_cover += known_reconstructor
                .frame_masks(&known, i, frame)
                .unwrap()
                .vbm
                .intersect(&true_vb)
                .unwrap()
                .count_set();
            unknown_cover += unknown_reconstructor
                .frame_masks(&unknown, i, frame)
                .unwrap()
                .vbm
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
        let serial = Reconstructor::new(
            VbSource::UnknownImage,
            ReconstructorConfig {
                parallelism: 1,
                ..config()
            },
        );
        let seq = serial.reconstruct(&video).unwrap();
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
        for (i, frame) in video.iter().enumerate() {
            assert_eq!(
                serial.frame_masks(&seq, i, frame).unwrap().leak,
                serial.frame_masks(&par, i, frame).unwrap().leak
            );
        }
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
    fn per_frame_outputs_cover_all_frames() {
        let (video, _, _) = toy_call();
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config());
        let rec = reconstructor.reconstruct(&video).unwrap();
        for (i, frame) in video.iter().enumerate() {
            let masks = reconstructor.frame_masks(&rec, i, frame).unwrap();
            assert_eq!(masks.vbm.dims(), video.dims());
            // Removed ⊇ VBM for every frame.
            assert!(masks.vbm.subtract(&masks.removed).unwrap().is_empty());
        }
        // A frame of the wrong geometry is refused, not misread.
        assert!(reconstructor
            .frame_masks(&rec, 0, &Frame::new(10, 10))
            .is_err());
    }

    #[test]
    fn leak_disjoint_from_removed_regions() {
        let (video, _, _) = toy_call();
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config());
        let rec = reconstructor.reconstruct(&video).unwrap();
        for (i, frame) in video.iter().enumerate() {
            let masks = reconstructor.frame_masks(&rec, i, frame).unwrap();
            assert!(masks.leak.intersect(&masks.removed).unwrap().is_empty());
        }
    }

    #[test]
    fn journal_gets_one_event_per_frame() {
        let (video, _, _) = toy_call();
        let telemetry = bb_telemetry::Telemetry::enabled()
            .with_journal(bb_telemetry::Journal::with_capacity(1 << 16));
        let reconstructor =
            Reconstructor::new(VbSource::UnknownImage, config()).with_telemetry(telemetry.clone());
        let rec = reconstructor.reconstruct(&video).unwrap();
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
            // The session's own masks, as the journal saw them, equal the
            // ones `frame_masks` rebuilds.
            let masks = reconstructor.frame_masks(&rec, i, video.frame(i)).unwrap();
            assert_eq!(e.fields["residue_px"], masks.leak.count_set() as f64);
            assert_eq!(
                e.fields["mask_coverage"],
                masks.removed.count_set() as f64 / pixels
            );
            fills.push(e.fields["canvas_fill"]);
        }
        // Canvas fill is monotone non-decreasing across frames.
        assert!(fills.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(
            *fills.last().unwrap(),
            rec.recovered.count_set() as f64 / pixels
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
    fn default_config_validates() {
        ReconstructorConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_values() {
        type Degrade = fn(&mut ReconstructorConfig);
        let cases: [(Degrade, &str); 7] = [
            (|c| c.phi = 0, "phi 0"),
            (|c| c.parallelism = 0, "parallelism 0"),
            (|c| c.warmup_frames = 0, "warmup_frames 0"),
            (
                |c| c.mode = ReconMode::BlurResidue { radius: 0 },
                "blur radius 0",
            ),
            (
                |c| {
                    c.mode = ReconMode::BlurResidue {
                        radius: MAX_BLUR_RADIUS + 1,
                    }
                },
                "blur radius above MAX_BLUR_RADIUS",
            ),
            (|c| c.vc.refine_bits = 0, "refine_bits 0"),
            (|c| c.vc.refine_min_freq = f64::NAN, "NaN refine_min_freq"),
        ];
        for (degrade, what) in cases {
            let mut config = ReconstructorConfig::default();
            degrade(&mut config);
            assert!(
                matches!(config.validate(), Err(CoreError::InvalidConfig(_))),
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
