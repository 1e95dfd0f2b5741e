//! Clip specifications: one renderable recording recipe per corpus entry.

use bb_imaging::Mask;
use bb_synth::camera::CameraQuality;
use bb_synth::{
    Accessory, Action, CallerAppearance, CameraPose, GroundTruth, Lighting, Room, Scenario, Speed,
};
use bb_video::{VideoError, VideoStream};

/// Global corpus configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frame rate.
    pub fps: f64,
    /// Frames per E1 clip (two-minute-equivalent).
    pub e1_frames: usize,
    /// Frames per E2 clip (ten-minute-equivalent).
    pub e2_frames: usize,
    /// Frames per E3 clip.
    pub e3_frames: usize,
    /// Master seed; every clip derives its own sub-seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            width: 160,
            height: 120,
            fps: 30.0,
            e1_frames: 120,
            e2_frames: 240,
            e3_frames: 180,
            seed: 0xBB_2022,
        }
    }
}

impl DatasetConfig {
    /// A down-scaled configuration for fast tests.
    pub fn tiny() -> Self {
        DatasetConfig {
            width: 64,
            height: 48,
            e1_frames: 30,
            e2_frames: 45,
            e3_frames: 40,
            ..Default::default()
        }
    }
}

/// Caller activity level in E2 (§VII-B: passive watchers vs active
/// presenters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Passively watching content: minimal movement.
    Passive,
    /// Actively presenting: large gestures throughout.
    Active,
}

impl Activity {
    /// The action segments a clip of this activity level cycles through.
    pub fn segments(self) -> &'static [(Action, Speed)] {
        match self {
            Activity::Passive => &[
                (Action::Still, Speed::Average),
                (Action::Typing, Speed::Slow),
                (Action::Still, Speed::Average),
                (Action::Still, Speed::Average),
            ],
            Activity::Active => &[
                (Action::ArmWaving, Speed::Average),
                (Action::LeaningForward, Speed::Average),
                (Action::Rotating, Speed::Average),
                (Action::Stretching, Speed::Average),
                (Action::Clapping, Speed::Average),
            ],
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Activity::Passive => "passive",
            Activity::Active => "active",
        }
    }
}

/// A renderable corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipSpec {
    /// Stable clip identifier (e.g. `e1-p2-arm-waving-lights-off`).
    pub id: String,
    /// The room (the location-inference ground-truth label is
    /// [`ClipSpec::room_label`]).
    pub room: Room,
    /// Caller appearance.
    pub caller: CallerAppearance,
    /// Action segments performed back-to-back (single-action clips have one
    /// segment).
    pub segments: Vec<(Action, Speed)>,
    /// Background lighting.
    pub lighting: Lighting,
    /// Camera pose (E3 and re-adjusted sessions deviate from canonical).
    pub camera: CameraPose,
    /// Camera quality.
    pub quality: CameraQuality,
    /// Total frames.
    pub frames: usize,
    /// Clip-specific seed.
    pub seed: u64,
}

impl ClipSpec {
    /// The dictionary label of this clip's background.
    pub fn room_label(&self) -> String {
        format!("room-{}", self.room.id)
    }

    /// Renders the clip: segments back-to-back into one ground truth.
    ///
    /// # Errors
    ///
    /// Propagates rendering failures (zero frames, stream errors).
    pub fn render(&self, cfg: &DatasetConfig) -> Result<GroundTruth, VideoError> {
        if self.segments.is_empty() || self.frames == 0 {
            return Err(VideoError::EmptyStream);
        }
        let per_segment = (self.frames / self.segments.len()).max(1);
        let mut frames: Vec<bb_imaging::Frame> = Vec::with_capacity(self.frames);
        let mut fg_masks: Vec<Mask> = Vec::with_capacity(self.frames);
        let mut background = None;
        for (si, &(action, speed)) in self.segments.iter().enumerate() {
            let remaining = self.frames - frames.len();
            let take = if si + 1 == self.segments.len() {
                remaining
            } else {
                per_segment.min(remaining)
            };
            if take == 0 {
                break;
            }
            let scenario = Scenario {
                room: self.room.clone(),
                caller: self.caller.clone(),
                action,
                speed,
                companions: Vec::new(),
                lighting: self.lighting,
                camera: self.camera,
                quality: self.quality,
                width: cfg.width,
                height: cfg.height,
                fps: cfg.fps,
                frames: take,
                seed: self.seed ^ (si as u64).wrapping_mul(0x9E37_79B9),
            };
            let gt = scenario.render()?;
            if background.is_none() {
                background = Some(gt.background.clone());
            }
            frames.extend(gt.video.into_frames());
            fg_masks.extend(gt.fg_masks);
        }
        Ok(GroundTruth {
            video: VideoStream::from_frames(frames, cfg.fps)?,
            fg_masks,
            background: background.expect("at least one segment rendered"),
        })
    }

    /// Convenience for specs with accessories.
    pub fn with_accessories(mut self, accessories: &[Accessory]) -> Self {
        self.caller = self.caller.with_accessories(accessories);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn spec(frames: usize, segments: Vec<(Action, Speed)>) -> ClipSpec {
        let room = Room::sample(9, 64, 48, 3, &mut StdRng::seed_from_u64(5));
        ClipSpec {
            id: "test".into(),
            room,
            caller: CallerAppearance::participant(1),
            segments,
            lighting: Lighting::On,
            camera: CameraPose::canonical(),
            quality: CameraQuality::consumer(),
            frames,
            seed: 77,
        }
    }

    #[test]
    fn render_single_segment() {
        let cfg = DatasetConfig::tiny();
        let gt = spec(20, vec![(Action::Still, Speed::Average)])
            .render(&cfg)
            .unwrap();
        assert_eq!(gt.video.len(), 20);
        assert_eq!(gt.fg_masks.len(), 20);
        assert_eq!(gt.video.dims(), (64, 48));
    }

    #[test]
    fn render_multi_segment_covers_exact_frames() {
        let cfg = DatasetConfig::tiny();
        let segments = Activity::Active.segments().to_vec();
        let gt = spec(33, segments).render(&cfg).unwrap();
        assert_eq!(gt.video.len(), 33);
        assert_eq!(gt.fg_masks.len(), 33);
    }

    #[test]
    fn render_is_deterministic() {
        let cfg = DatasetConfig::tiny();
        let s = spec(24, Activity::Passive.segments().to_vec());
        let a = s.render(&cfg).unwrap();
        let b = s.render(&cfg).unwrap();
        assert_eq!(a.video, b.video);
    }

    #[test]
    fn empty_segments_rejected() {
        let cfg = DatasetConfig::tiny();
        assert!(spec(10, vec![]).render(&cfg).is_err());
        assert!(spec(0, vec![(Action::Still, Speed::Average)])
            .render(&cfg)
            .is_err());
    }

    #[test]
    fn room_label_is_stable() {
        let s = spec(10, vec![(Action::Still, Speed::Average)]);
        assert_eq!(s.room_label(), "room-9");
    }

    #[test]
    fn activity_segments_differ() {
        assert_ne!(Activity::Passive.segments(), Activity::Active.segments());
        assert_eq!(Activity::Passive.name(), "passive");
    }
}
