//! The end-to-end compositor: ground-truth capture in, recorded call out.
//!
//! This is the OBS-VirtualCam-into-Zoom loop of §VII-D: the synthetic
//! "webcam" frames (with the real background visible) are pushed through the
//! virtual-background feature of a [`SoftwareProfile`], optionally with a
//! §IX mitigation, producing the video the adversary records plus the
//! evaluation-only [`CallTruth`].
//!
//! The entry point is the [`CallSim`] builder:
//!
//! ```
//! # use bb_callsim::{CallSim, ProfilePreset, SoftwareProfile, VbMode};
//! # use bb_synth::{Room, Scenario};
//! # use rand::{rngs::StdRng, SeedableRng};
//! # let room = Room::sample(1, 32, 24, 2, &mut StdRng::seed_from_u64(7));
//! # let gt = Scenario { width: 32, height: 24, frames: 4, ..Scenario::baseline(room) }
//! #     .render().unwrap();
//! let call = CallSim::new(&gt)
//!     .profile(SoftwareProfile::preset(ProfilePreset::MeetLike))
//!     .vb(VbMode::Blur { radius: 4 })
//!     .run()
//!     .unwrap();
//! # assert_eq!(call.len(), 4);
//! ```

use crate::background::VbMode;
use crate::blend::{blend_band, composite};
use crate::matting::{estimate_mask, MattingInput};
use crate::mitigation::{adapt_virtual_background, deepfake_frame, Mitigation};
use crate::profile::{ProfilePreset, SoftwareProfile};
use crate::CallSimError;
use bb_imaging::{Frame, Mask};
use bb_synth::{GroundTruth, Lighting};
use bb_telemetry::Telemetry;
use bb_video::VideoStream;

/// The default blur radius when a [`CallSim`] is not given an explicit VB
/// mode — blur is what real platforms default to.
pub const DEFAULT_BLUR_RADIUS: usize = 4;

/// Evaluation-only ground truth retained alongside the composited call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallTruth {
    /// The matting decisions the software actually used, per frame.
    pub est_masks: Vec<Mask>,
    /// True caller masks, per frame.
    pub true_fg: Vec<Mask>,
    /// Leaked-background masks: pixels shown from the real frame that are
    /// *not* caller — `est ∩ ¬true_fg` (the ground-truth `LBⁱ` of §III).
    pub leaked: Vec<Mask>,
    /// Ground-truth blend bands (`BBⁱ`), per frame.
    pub blend_bands: Vec<Mask>,
    /// The clean background frame (canonical pose, full lighting).
    pub background: Frame,
    /// The raw (uncomposited) capture.
    pub raw: VideoStream,
    /// Index into the virtual media used per output frame.
    pub vb_indices: Vec<usize>,
    /// The exact virtual-background frames pasted (post-mitigation), per
    /// output frame. Lets tests and metrics reason about the dynamic
    /// defence.
    pub vb_frames: Vec<Frame>,
}

/// A composited call: what the adversary records plus the truth.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositedCall {
    /// The recorded call video (virtual background applied).
    pub video: VideoStream,
    /// Evaluation-only ground truth.
    pub truth: CallTruth,
}

impl CompositedCall {
    /// Number of frames in the recorded call.
    pub fn len(&self) -> usize {
        self.video.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Builder for one simulated call: a ground-truth capture pushed through a
/// software profile's virtual-background feature.
///
/// Defaults: background blur at [`DEFAULT_BLUR_RADIUS`] (the real-platform
/// default mode), the Zoom-like profile (the paper's target), no
/// mitigation, lights on, seed 0, telemetry disabled. `lighting` informs
/// the matting error model (low light degrades matting, Fig 10/11); `seed`
/// makes the run deterministic.
#[derive(Debug, Clone)]
pub struct CallSim<'a> {
    gt: &'a GroundTruth,
    vb: VbMode,
    profile: SoftwareProfile,
    mitigation: Mitigation,
    lighting: Lighting,
    seed: u64,
    telemetry: Telemetry,
}

impl<'a> CallSim<'a> {
    /// Starts a session over the given ground-truth capture.
    pub fn new(gt: &'a GroundTruth) -> Self {
        CallSim {
            gt,
            vb: VbMode::Blur {
                radius: DEFAULT_BLUR_RADIUS,
            },
            profile: SoftwareProfile::preset(ProfilePreset::ZoomLike),
            mitigation: Mitigation::None,
            lighting: Lighting::On,
            seed: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the compositor mode (image, video, or blur). Accepts a
    /// [`VirtualBackground`](crate::VirtualBackground) directly.
    #[must_use]
    pub fn vb(mut self, vb: impl Into<VbMode>) -> Self {
        self.vb = vb.into();
        self
    }

    /// Sets the software profile.
    #[must_use]
    pub fn profile(mut self, profile: SoftwareProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the §IX mitigation.
    #[must_use]
    pub fn mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Sets the lighting condition seen by the matting error model.
    #[must_use]
    pub fn lighting(mut self, lighting: Lighting) -> Self {
        self.lighting = lighting;
        self
    }

    /// Sets the determinism seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches instrumentation: wall time lands in the `callsim/session`
    /// stage (matting and compositing split out underneath it) and
    /// frame/leak volumes in `callsim/*` counters.
    #[must_use]
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Runs the session to completion.
    ///
    /// # Errors
    ///
    /// Returns [`CallSimError::Inconsistent`] when the ground truth is
    /// malformed (mask/frame count mismatch) and propagates compositing
    /// failures.
    pub fn run(self) -> Result<CompositedCall, CallSimError> {
        self.run_streamed(|_, _| Ok(()))
    }

    /// [`CallSim::run`] with a live feed: `sink` observes each composited
    /// frame, in output order, the moment it leaves the compositor — before
    /// the full call has been assembled. This models an adversary (or a
    /// streaming reconstruction session in `bb-core`) tapping the call as
    /// it happens rather than working from a finished recording.
    ///
    /// The sink receives the output frame index and the composited frame;
    /// an error from the sink aborts the session and is propagated
    /// verbatim.
    ///
    /// # Errors
    ///
    /// Same contract as [`CallSim::run`], plus any error the sink returns.
    pub fn run_streamed(
        self,
        mut sink: impl FnMut(usize, &Frame) -> Result<(), CallSimError>,
    ) -> Result<CompositedCall, CallSimError> {
        let CallSim {
            gt,
            vb,
            profile,
            mitigation,
            lighting,
            seed,
            telemetry,
        } = self;
        let _span = telemetry.time("callsim/session");
        if gt.fg_masks.len() != gt.video.len() {
            return Err(CallSimError::Inconsistent(format!(
                "{} masks for {} frames",
                gt.fg_masks.len(),
                gt.video.len()
            )));
        }
        let (w, h) = gt.video.dims();
        let low_light = lighting == Lighting::Off;

        // Frame dropping happens on the input side: the software simply
        // sends fewer frames.
        let kept_indices: Vec<usize> = match mitigation {
            Mitigation::FrameDrop { keep_every } => {
                if keep_every == 0 {
                    return Err(CallSimError::Inconsistent(
                        "FrameDrop keep_every must be >= 1".into(),
                    ));
                }
                (0..gt.video.len()).step_by(keep_every).collect()
            }
            _ => (0..gt.video.len()).collect(),
        };

        let mut out_frames = Vec::with_capacity(kept_indices.len());
        let mut est_masks = Vec::with_capacity(kept_indices.len());
        let mut true_fg = Vec::with_capacity(kept_indices.len());
        let mut leaked = Vec::with_capacity(kept_indices.len());
        let mut blend_bands = Vec::with_capacity(kept_indices.len());
        let mut vb_indices = Vec::with_capacity(kept_indices.len());
        let mut vb_frames = Vec::with_capacity(kept_indices.len());
        let mut raw_frames = Vec::with_capacity(kept_indices.len());

        let mut first_composited: Option<Frame> = None;

        for (out_i, &i) in kept_indices.iter().enumerate() {
            let frame = gt.video.frame(i);
            let est = {
                let _matting = telemetry.time("callsim/session/matting");
                estimate_mask(
                    &profile.matting,
                    &MattingInput {
                        frame,
                        true_fg: &gt.fg_masks,
                        index: i,
                        low_light,
                    },
                    seed,
                )
            };

            // Virtual background for this frame, possibly adapted.
            let mut vb_frame = vb.background_for(frame, i, w, h);
            if let Mitigation::DynamicBackground(params) = mitigation {
                vb_frame = adapt_virtual_background(&vb_frame, frame, &params, seed, i);
            }

            let composited = {
                let _compose = telemetry.time("callsim/session/composite");
                match (mitigation, &first_composited) {
                    (Mitigation::DeepfakeReplay, Some(first)) => deepfake_frame(first, out_i),
                    _ => composite(frame, &vb_frame, &est, profile.blend)?,
                }
            };
            if first_composited.is_none() {
                first_composited = Some(composited.clone());
            }

            let leak = est.subtract(&gt.fg_masks[i])?;
            let band = blend_band(&est, profile.blend);
            if telemetry.has_journal() {
                telemetry.event(
                    "callsim/frame",
                    Some(out_i as u64),
                    &[
                        ("source_frame", i as f64),
                        ("leak_px", leak.count_set() as f64),
                        ("est_fg_px", est.count_set() as f64),
                    ],
                );
            }

            sink(out_i, &composited)?;

            out_frames.push(composited);
            est_masks.push(est);
            true_fg.push(gt.fg_masks[i].clone());
            leaked.push(leak);
            blend_bands.push(band);
            vb_indices.push(vb.media_index(i));
            vb_frames.push(vb_frame);
            raw_frames.push(frame.clone());
        }

        let fps = match mitigation {
            Mitigation::FrameDrop { keep_every } => gt.video.fps() / keep_every as f64,
            _ => gt.video.fps(),
        };

        telemetry.add("callsim/frames_in", gt.video.len() as u64);
        telemetry.add("callsim/frames_out", out_frames.len() as u64);
        telemetry.add(
            "callsim/pixels_leaked",
            leaked.iter().map(|m| m.count_set() as u64).sum(),
        );

        Ok(CompositedCall {
            video: VideoStream::from_frames(out_frames, fps)?,
            truth: CallTruth {
                est_masks,
                true_fg,
                leaked,
                blend_bands,
                background: gt.background.clone(),
                raw: VideoStream::from_frames(raw_frames, fps)?,
                vb_indices,
                vb_frames,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::{BackgroundId, VirtualBackground};
    use bb_imaging::filter;
    use bb_synth::{Action, Room, Scenario};
    use rand::{rngs::StdRng, SeedableRng};

    fn ground_truth(action: Action, frames: usize) -> GroundTruth {
        let room = Room::sample(1, 80, 60, 3, &mut StdRng::seed_from_u64(21));
        Scenario {
            action,
            width: 80,
            height: 60,
            frames,
            ..Scenario::baseline(room)
        }
        .render()
        .unwrap()
    }

    fn image_bg() -> VbMode {
        BackgroundId::Beach.realize(80, 60).into()
    }

    #[test]
    fn session_is_deterministic() {
        let gt = ground_truth(Action::ArmWaving, 15);
        let a = CallSim::new(&gt).vb(image_bg()).seed(5).run().unwrap();
        let b = CallSim::new(&gt).vb(image_bg()).seed(5).run().unwrap();
        assert_eq!(a.video, b.video);
    }

    #[test]
    fn composited_hides_most_background() {
        let gt = ground_truth(Action::Still, 20);
        let call = CallSim::new(&gt).vb(image_bg()).seed(1).run().unwrap();
        // A late frame should be mostly virtual background + caller: away
        // from the caller the output pixels must differ from the real
        // background.
        let i = 15;
        let raw = call.truth.raw.frame(i);
        let out = call.video.frame(i);
        let bg_mask = call.truth.true_fg[i].complement();
        let mut hidden = 0usize;
        let mut total = 0usize;
        for (x, y) in bg_mask.iter_set() {
            total += 1;
            if out.get(x, y).linf(raw.get(x, y)) > 12 {
                hidden += 1;
            }
        }
        let frac = hidden as f64 / total as f64;
        assert!(frac > 0.8, "only {frac:.2} of background hidden");
    }

    #[test]
    fn blur_mode_smooths_background_but_keeps_caller() {
        let gt = ground_truth(Action::Still, 16);
        let radius = 3;
        let call = CallSim::new(&gt)
            .vb(VbMode::Blur { radius })
            .profile(SoftwareProfile::preset(ProfilePreset::Perfect))
            .seed(2)
            .run()
            .unwrap();
        // With perfect matting, every non-caller pixel is exactly the
        // box-blurred raw frame (AlphaBand blending is identity off-band).
        let i = 10;
        let raw = call.truth.raw.frame(i);
        let blurred = filter::box_blur(raw, radius);
        let out = call.video.frame(i);
        let off_band = call.truth.true_fg[i]
            .complement()
            .subtract(&call.truth.blend_bands[i])
            .unwrap();
        for (x, y) in off_band.iter_set() {
            assert_eq!(out.get(x, y), blurred.get(x, y), "pixel ({x},{y})");
        }
        // The blurred background still correlates with the real one far
        // more than an image replacement would.
        assert!(out.mean_abs_diff(&blurred).unwrap() < 10.0);
    }

    #[test]
    fn leaked_masks_are_background_only() {
        let gt = ground_truth(Action::ArmWaving, 20);
        let call = CallSim::new(&gt).vb(image_bg()).seed(2).run().unwrap();
        for (i, leak) in call.truth.leaked.iter().enumerate() {
            assert!(leak.intersect(&call.truth.true_fg[i]).unwrap().is_empty());
        }
        // A moving action leaks something.
        let total: usize = call.truth.leaked.iter().map(|m| m.count_set()).sum();
        assert!(total > 0, "no leakage at all");
    }

    #[test]
    fn perfect_profile_never_leaks() {
        let gt = ground_truth(Action::ArmWaving, 15);
        let call = CallSim::new(&gt)
            .vb(image_bg())
            .profile(SoftwareProfile::preset(ProfilePreset::Perfect))
            .seed(3)
            .run()
            .unwrap();
        let total: usize = call.truth.leaked.iter().map(|m| m.count_set()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn initial_frames_leak_more_than_late_frames() {
        let gt = ground_truth(Action::Still, 30);
        let call = CallSim::new(&gt).vb(image_bg()).seed(4).run().unwrap();
        let early: usize = call.truth.leaked[..5].iter().map(|m| m.count_set()).sum();
        let late: usize = call.truth.leaked[20..25]
            .iter()
            .map(|m| m.count_set())
            .sum();
        assert!(
            early > late,
            "early {early} <= late {late} (Fig 5 violated)"
        );
    }

    #[test]
    fn frame_drop_reduces_output() {
        let gt = ground_truth(Action::Still, 30);
        let call = CallSim::new(&gt)
            .vb(image_bg())
            .mitigation(Mitigation::FrameDrop { keep_every: 3 })
            .seed(1)
            .run()
            .unwrap();
        assert_eq!(call.len(), 10);
        assert!((call.video.fps() - 10.0).abs() < 1e-9);
        assert!(CallSim::new(&gt)
            .vb(image_bg())
            .mitigation(Mitigation::FrameDrop { keep_every: 0 })
            .seed(1)
            .run()
            .is_err());
    }

    #[test]
    fn deepfake_replay_transmits_no_real_frame_after_first() {
        let gt = ground_truth(Action::ArmWaving, 12);
        let call = CallSim::new(&gt)
            .vb(image_bg())
            .mitigation(Mitigation::DeepfakeReplay)
            .seed(6)
            .run()
            .unwrap();
        let first = call.video.frame(0);
        for i in 1..call.len() {
            // Every later frame is a warp of frame 0: it must be closer to
            // frame 0 than to the live composited equivalent's leak content.
            let d = call.video.frame(i).mean_abs_diff(first).unwrap();
            assert!(d < 25.0, "fake frame {i} drifted {d} from the frozen frame");
        }
    }

    #[test]
    fn dynamic_background_changes_vb_every_frame() {
        let gt = ground_truth(Action::Still, 10);
        let call = CallSim::new(&gt)
            .vb(image_bg())
            .mitigation(Mitigation::DynamicBackground(Default::default()))
            .seed(9)
            .run()
            .unwrap();
        assert_ne!(call.truth.vb_frames[0], call.truth.vb_frames[1]);
        // Without mitigation the VB frames are constant (image background).
        let plain = CallSim::new(&gt).vb(image_bg()).seed(9).run().unwrap();
        assert_eq!(plain.truth.vb_frames[0], plain.truth.vb_frames[1]);
    }

    #[test]
    fn streamed_sink_sees_every_output_frame_in_order() {
        let gt = ground_truth(Action::ArmWaving, 12);
        let mut seen: Vec<(usize, Frame)> = Vec::new();
        let call = CallSim::new(&gt)
            .vb(image_bg())
            .seed(5)
            .run_streamed(|i, frame| {
                seen.push((i, frame.clone()));
                Ok(())
            })
            .unwrap();
        assert_eq!(seen.len(), call.len());
        for (i, (idx, frame)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(frame, call.video.frame(i));
        }
    }

    #[test]
    fn streamed_sink_error_aborts_the_session() {
        let gt = ground_truth(Action::Still, 10);
        let err = CallSim::new(&gt)
            .vb(image_bg())
            .seed(5)
            .run_streamed(|i, _| {
                if i == 3 {
                    Err(CallSimError::Inconsistent("sink refused".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, CallSimError::Inconsistent(_)));
    }

    #[test]
    fn virtual_video_indices_loop() {
        let gt = ground_truth(Action::Still, 10);
        let vid = match BackgroundId::LavaLamp.realize(80, 60) {
            VirtualBackground::Video(v) => {
                VideoStream::from_frames(v.frames()[..4].to_vec(), 30.0).unwrap()
            }
            VirtualBackground::Image(_) => unreachable!(),
        };
        let call = CallSim::new(&gt)
            .vb(VbMode::Video(vid))
            .seed(0)
            .run()
            .unwrap();
        assert_eq!(call.truth.vb_indices[0], 0);
        assert_eq!(call.truth.vb_indices[5], 1);
        assert_eq!(call.truth.vb_indices[4], 0);
    }
}
