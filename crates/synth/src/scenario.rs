//! Scenarios: a full synthetic recording session.
//!
//! A [`Scenario`] bundles room, caller, action, lighting and camera into one
//! deterministic recipe; [`Scenario::render`] produces the [`GroundTruth`] —
//! the uncomposited video (what OBS VirtualCam fed into Zoom in §VII-D), the
//! per-frame true foreground masks, and the clean background frame used as
//! the RBRR denominator's ground truth (§VIII-A).

use crate::action::{Action, Speed};
use crate::caller::{render_caller, CallerAppearance};
use crate::camera::{capture, CameraPose, CameraQuality, Lighting};
use crate::room::Room;
use bb_imaging::{Frame, Mask};
use bb_video::{VideoError, VideoStream};

/// An additional on-camera participant sharing the frame with the main
/// caller — multi-person calls (§VII-A ran several participants through the
/// same room). Companions render *behind* the main caller and contribute to
/// the true foreground mask like any other body pixel.
#[derive(Debug, Clone, PartialEq)]
pub struct Companion {
    /// Companion appearance.
    pub caller: CallerAppearance,
    /// What the companion does.
    pub action: Action,
    /// How fast they do it.
    pub speed: Speed,
    /// Horizontal shift from the frame centre, as a fraction of frame width
    /// (negative = left of the main caller).
    pub offset_x: f32,
}

impl Companion {
    /// Participant `index` standing `offset_x` from the centre, idling.
    pub fn participant(index: usize, offset_x: f32) -> Self {
        Companion {
            caller: CallerAppearance::participant(index),
            action: Action::Still,
            speed: Speed::Average,
            offset_x,
        }
    }
}

/// A deterministic recording recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The room behind the caller.
    pub room: Room,
    /// Caller appearance.
    pub caller: CallerAppearance,
    /// What the caller does.
    pub action: Action,
    /// How fast they do it.
    pub speed: Speed,
    /// Additional on-camera participants (empty for a one-person call).
    pub companions: Vec<Companion>,
    /// Background lighting state.
    pub lighting: Lighting,
    /// Camera pose relative to the canonical dictionary pose.
    pub camera: CameraPose,
    /// Camera/lighting quality profile.
    pub quality: CameraQuality,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frame rate.
    pub fps: f64,
    /// Number of frames to render.
    pub frames: usize,
    /// Noise seed.
    pub seed: u64,
}

impl Scenario {
    /// A convenient default: participant 0, still action, lights on,
    /// canonical camera, consumer quality, 90 frames of 160×120 at 30 fps.
    pub fn baseline(room: Room) -> Self {
        Scenario {
            room,
            caller: CallerAppearance::participant(0),
            action: Action::Still,
            speed: Speed::Average,
            companions: Vec::new(),
            lighting: Lighting::On,
            camera: CameraPose::canonical(),
            quality: CameraQuality::consumer(),
            width: 160,
            height: 120,
            fps: 30.0,
            frames: 90,
            seed: 0x5EED,
        }
    }

    /// Renders the scenario to ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::EmptyStream`] when `frames == 0` and propagates
    /// stream-construction failures.
    pub fn render(&self) -> Result<GroundTruth, VideoError> {
        if self.frames == 0 {
            return Err(VideoError::EmptyStream);
        }
        // The clean background at canonical pose and full lighting — this is
        // what the adversary's dictionary stores and what RBRR scores
        // against.
        let background = self.room.render(self.width, self.height);

        let mut frames = Vec::with_capacity(self.frames);
        let mut fg_masks = Vec::with_capacity(self.frames);
        for i in 0..self.frames {
            let t = i as f32 / self.fps as f32;
            let pose = self.action.pose_at(t, self.speed);
            let mut scene = background.clone();
            // Companions first: the main caller paints over them, so the
            // depth order is companions behind, caller in front.
            let mut fg = Mask::new(self.width, self.height);
            for companion in &self.companions {
                let mut cpose = companion.action.pose_at(t, companion.speed);
                cpose.center_x += companion.offset_x;
                let cmask = render_caller(&mut scene, &companion.caller, &cpose);
                fg = fg.union(&cmask).expect("companion mask dims match");
            }
            let caller_fg = render_caller(&mut scene, &self.caller, &pose);
            let fg = fg.union(&caller_fg).expect("caller mask dims match");
            let captured = capture(
                &scene,
                &self.camera,
                self.lighting,
                &self.quality,
                self.seed,
                i,
            );
            frames.push(captured);
            fg_masks.push(fg);
        }
        Ok(GroundTruth {
            video: VideoStream::from_frames(frames, self.fps)?,
            fg_masks,
            background,
        })
    }
}

/// Everything the evaluator knows that the adversary does not.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// The recorded (uncomposited) call video — real background visible.
    pub video: VideoStream,
    /// Per-frame true foreground (caller) masks.
    pub fg_masks: Vec<Mask>,
    /// The clean background at canonical pose, before lighting/noise.
    pub background: Frame,
}

impl GroundTruth {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.video.len()
    }

    /// Always false (streams are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The true background mask of frame `i` (complement of the foreground).
    pub fn bg_mask(&self, i: usize) -> Mask {
        self.fg_masks[i].complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_scenario(action: Action) -> Scenario {
        let room = Room::sample(1, 80, 60, 3, &mut StdRng::seed_from_u64(11));
        Scenario {
            action,
            width: 80,
            height: 60,
            frames: 20,
            ..Scenario::baseline(room)
        }
    }

    #[test]
    fn render_is_deterministic() {
        let s = small_scenario(Action::ArmWaving);
        let a = s.render().unwrap();
        let b = s.render().unwrap();
        assert_eq!(a.video, b.video);
        assert_eq!(a.fg_masks, b.fg_masks);
    }

    #[test]
    fn render_produces_consistent_lengths() {
        let gt = small_scenario(Action::Still).render().unwrap();
        assert_eq!(gt.len(), 20);
        assert_eq!(gt.fg_masks.len(), 20);
        assert_eq!(gt.video.dims(), (80, 60));
        assert_eq!(gt.background.dims(), (80, 60));
    }

    #[test]
    fn zero_frames_is_error() {
        let mut s = small_scenario(Action::Still);
        s.frames = 0;
        assert!(matches!(s.render(), Err(VideoError::EmptyStream)));
    }

    #[test]
    fn caller_occupies_foreground() {
        let gt = small_scenario(Action::Still).render().unwrap();
        for m in &gt.fg_masks {
            assert!(m.coverage() > 0.08, "caller too small: {}", m.coverage());
            assert!(m.coverage() < 0.8, "caller too large: {}", m.coverage());
        }
    }

    #[test]
    fn moving_action_changes_masks() {
        let gt = small_scenario(Action::ArmWaving).render().unwrap();
        let first = &gt.fg_masks[0];
        let differing = gt.fg_masks.iter().filter(|m| *m != first).count();
        assert!(differing > 5, "masks barely change: {differing}");
    }

    #[test]
    fn still_action_changes_pixels_only_via_noise() {
        let gt = small_scenario(Action::Still).render().unwrap();
        // Frames differ (noise) but only slightly.
        let d = gt.video.frame(0).mean_abs_diff(gt.video.frame(1)).unwrap();
        assert!(d > 0.0 && d < 6.0, "unexpected inter-frame distance {d}");
    }

    #[test]
    fn bg_mask_is_complement() {
        let gt = small_scenario(Action::Still).render().unwrap();
        let union = gt.fg_masks[0].union(&gt.bg_mask(0)).unwrap();
        assert_eq!(union.count_set(), 80 * 60);
        let inter = gt.fg_masks[0].intersect(&gt.bg_mask(0)).unwrap();
        assert!(inter.is_empty());
    }

    #[test]
    fn companions_add_foreground_and_stay_deterministic() {
        let mut s = small_scenario(Action::Still);
        let solo = s.render().unwrap();
        s.companions = vec![
            Companion::participant(1, -0.28),
            Companion {
                action: Action::ArmWaving,
                ..Companion::participant(2, 0.3)
            },
        ];
        let duo = s.render().unwrap();
        assert_eq!(duo.video, s.render().unwrap().video);
        for (m_solo, m_duo) in solo.fg_masks.iter().zip(duo.fg_masks.iter()) {
            assert!(
                m_duo.count_set() > m_solo.count_set(),
                "companions added no foreground ({} vs {})",
                m_duo.count_set(),
                m_solo.count_set()
            );
            // The main caller is always fully covered by the multi-person
            // mask (companions never erase the caller).
            assert!(m_solo.subtract(m_duo).unwrap().is_empty());
        }
    }

    #[test]
    fn enter_exit_reveals_background() {
        // During absence, frames match the lit background closely.
        let mut s = small_scenario(Action::EnterExit);
        s.frames = 120; // cover absence phase at average speed (period 6 s)
        let gt = s.render().unwrap();
        let absent = gt.fg_masks.iter().filter(|m| m.is_empty()).count();
        assert!(absent > 10, "caller never left: {absent}");
    }
}
