//! The ten E1 actions and their speed classes.
//!
//! §VII-A: "The ten unique actions/movements included: leaning forward,
//! leaning backward, arm waving, rotating, clapping, stretching, typing,
//! drinking and exiting/entering room" (plus a still/idle baseline). §VIII-C
//! additionally varies arm-waving and clapping speed as slow/average/fast.
//!
//! Each action is a deterministic pose trajectory: [`Action::pose_at`] maps
//! a time (seconds) to a [`CallerPose`]. Speed classes scale the period of
//! the cyclic actions, reproducing the paper's measured pattern that slower
//! executions sweep more unique pixels (greater displacement).

use crate::caller::CallerPose;

/// The E1 action vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Action {
    /// Sitting still (idle baseline with breathing micro-motion).
    Still,
    /// Leaning toward the camera.
    LeaningForward,
    /// Leaning away from the camera.
    LeaningBackward,
    /// Waving one arm overhead.
    ArmWaving,
    /// Rotating the torso left/right.
    Rotating,
    /// Clapping both hands in front of the chest.
    Clapping,
    /// Stretching both arms overhead.
    Stretching,
    /// Typing: small hand/head motion low in the frame.
    Typing,
    /// Drinking: raising one hand to the mouth with a head tilt.
    Drinking,
    /// Leaving and re-entering the room.
    EnterExit,
}

impl Action {
    /// All ten actions in display order (matches Fig 7's x-axis).
    pub const ALL: [Action; 10] = [
        Action::Still,
        Action::LeaningForward,
        Action::LeaningBackward,
        Action::ArmWaving,
        Action::Rotating,
        Action::Clapping,
        Action::Stretching,
        Action::Typing,
        Action::Drinking,
        Action::EnterExit,
    ];

    /// Stable lowercase name (round-trips through [`FromStr`](std::str::FromStr)).
    pub fn name(self) -> &'static str {
        match self {
            Action::Still => "still",
            Action::LeaningForward => "leaning-forward",
            Action::LeaningBackward => "leaning-backward",
            Action::ArmWaving => "arm-waving",
            Action::Rotating => "rotating",
            Action::Clapping => "clapping",
            Action::Stretching => "stretching",
            Action::Typing => "typing",
            Action::Drinking => "drinking",
            Action::EnterExit => "enter-exit",
        }
    }
}

impl std::str::FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.replace('_', "-");
        Action::ALL
            .into_iter()
            .find(|a| a.name() == normalized)
            .ok_or_else(|| {
                let names: Vec<&str> = Action::ALL.iter().map(|a| a.name()).collect();
                format!("unknown action {s:?}; one of {}", names.join(", "))
            })
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Action speed classes (§VIII-C's slow / average / fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Speed {
    /// Slow execution: long period, wide sweep.
    Slow,
    /// The participant's natural pace.
    Average,
    /// Fast execution: short period, slightly truncated sweep.
    Fast,
}

impl Speed {
    /// All speeds slow→fast.
    pub const ALL: [Speed; 3] = [Speed::Slow, Speed::Average, Speed::Fast];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Speed::Slow => "slow",
            Speed::Average => "average",
            Speed::Fast => "fast",
        }
    }

    /// Cycle period in seconds for cyclic actions.
    ///
    /// Calibrated to the paper's measured action speeds (§VIII-C): clapping
    /// [0.9 s, 0.26 s, 0.11 s] and arm-waving [2.3 s, 0.9 s, 0.7 s] map to
    /// these periods scaled per action below.
    pub fn period_scale(self) -> f32 {
        match self {
            Speed::Slow => 2.5,
            Speed::Average => 1.0,
            Speed::Fast => 0.45,
        }
    }

    /// Amplitude scale: fast executions are slightly truncated (a fast wave
    /// covers a narrower arc), matching the paper's displacement ordering.
    pub fn amplitude_scale(self) -> f32 {
        match self {
            Speed::Slow => 1.0,
            Speed::Average => 0.85,
            Speed::Fast => 0.75,
        }
    }
}

impl std::fmt::Display for Speed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Action {
    /// Base cycle period in seconds at [`Speed::Average`].
    fn base_period(self) -> f32 {
        match self {
            Action::Still => 4.0,
            Action::LeaningForward | Action::LeaningBackward => 3.0,
            Action::ArmWaving => 0.9,
            Action::Rotating => 2.4,
            Action::Clapping => 0.26,
            Action::Stretching => 3.2,
            Action::Typing => 0.5,
            Action::Drinking => 3.0,
            Action::EnterExit => 6.0,
        }
    }

    /// The pose at time `t` seconds into the action performed at `speed`.
    ///
    /// Trajectories are smooth (sinusoidal) and deterministic. The phase
    /// argument below is the position inside the current cycle in `[0, 1)`.
    pub fn pose_at(self, t: f32, speed: Speed) -> CallerPose {
        let period = self.base_period() * speed.period_scale();
        let phase = (t / period).rem_euclid(1.0);
        let wave = (phase * std::f32::consts::TAU).sin();
        let amp = speed.amplitude_scale();
        let mut pose = CallerPose::default();
        match self {
            Action::Still => {
                // Breathing: tiny scale oscillation.
                pose.scale = 1.0 + 0.006 * wave;
            }
            Action::LeaningForward => {
                // 0 → lean in → back to neutral.
                pose.scale = 1.0 + 0.22 * amp * (0.5 - 0.5 * (phase * std::f32::consts::TAU).cos());
            }
            Action::LeaningBackward => {
                pose.scale = 1.0 - 0.18 * amp * (0.5 - 0.5 * (phase * std::f32::consts::TAU).cos());
            }
            Action::ArmWaving => {
                // Right arm sweeps between ~100° and ~170°.
                pose.right_arm_deg = 135.0 + 40.0 * amp * wave;
                pose.left_arm_deg = 15.0;
            }
            Action::Rotating => {
                pose.rotate_deg = 55.0 * amp * wave;
            }
            Action::Clapping => {
                // Both arms meet in front: angles oscillate toward 80°.
                let clap = 0.5 + 0.5 * wave;
                pose.left_arm_deg = 25.0 + 55.0 * amp * clap;
                pose.right_arm_deg = 25.0 + 55.0 * amp * clap;
            }
            Action::Stretching => {
                let up = 0.5 - 0.5 * (phase * std::f32::consts::TAU).cos();
                pose.left_arm_deg = 20.0 + 150.0 * amp * up;
                pose.right_arm_deg = 20.0 + 150.0 * amp * up;
                pose.scale = 1.0 + 0.05 * up;
            }
            Action::Typing => {
                // Hands low, tiny shoulder jitter, slight head bob — typing
                // barely moves the silhouette (the paper's lowest-RBRR
                // action).
                pose.left_arm_deg = 40.0 + 2.5 * amp * wave;
                pose.right_arm_deg = 40.0 - 2.5 * amp * wave;
                pose.head_bob = 0.06 * wave;
            }
            Action::Drinking => {
                // Right hand rises to the mouth in the middle of the cycle.
                let lift = (phase * std::f32::consts::TAU).sin().max(0.0);
                pose.right_arm_deg = 20.0 + 115.0 * amp * lift;
                pose.head_bob = -0.3 * lift;
            }
            Action::EnterExit => {
                // Walk out of frame to the left, stay out, walk back in.
                // phase 0.0–0.25: exit; 0.25–0.5: absent; 0.5–0.75: enter;
                // 0.75–1.0: present.
                pose.center_x = match phase {
                    p if p < 0.25 => 0.5 - (p / 0.25) * 1.2,
                    p if p < 0.5 => -0.7,
                    p if p < 0.75 => -0.7 + ((p - 0.5) / 0.25) * 1.2,
                    _ => 0.5,
                };
                pose.visible = pose.center_x > -0.65;
            }
        }
        pose
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Action::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for a in Action::ALL {
            assert_eq!(a.name().parse::<Action>(), Ok(a));
        }
        assert_eq!("arm_waving".parse::<Action>(), Ok(Action::ArmWaving));
        let err = "moonwalk".parse::<Action>().unwrap_err();
        assert!(
            err.contains("moonwalk") && err.contains("enter-exit"),
            "{err}"
        );
    }

    #[test]
    fn still_is_nearly_neutral() {
        let p = Action::Still.pose_at(1.2, Speed::Average);
        assert!((p.scale - 1.0).abs() < 0.01);
        assert_eq!(p.rotate_deg, 0.0);
        assert!(p.visible);
    }

    #[test]
    fn leaning_forward_increases_scale() {
        // Mid-cycle is the deepest lean.
        let period = 3.0;
        let p = Action::LeaningForward.pose_at(period / 2.0, Speed::Average);
        assert!(p.scale > 1.1, "scale {}", p.scale);
        let q = Action::LeaningBackward.pose_at(period / 2.0, Speed::Average);
        assert!(q.scale < 0.95, "scale {}", q.scale);
    }

    #[test]
    fn arm_waving_sweeps_right_arm() {
        let period = 0.9;
        let hi = Action::ArmWaving.pose_at(period / 4.0, Speed::Average);
        let lo = Action::ArmWaving.pose_at(3.0 * period / 4.0, Speed::Average);
        assert!(hi.right_arm_deg > 150.0);
        assert!(lo.right_arm_deg < 120.0);
    }

    #[test]
    fn speed_scales_period() {
        // At the same wall-clock time the fast action has advanced through
        // more cycles than the slow one.
        let t = 0.2;
        let slow = Action::Clapping.pose_at(t, Speed::Slow);
        let fast = Action::Clapping.pose_at(t, Speed::Fast);
        // Not a strict invariant of every t, but for this t the phases differ.
        assert_ne!(slow.left_arm_deg, fast.left_arm_deg);
    }

    #[test]
    fn slow_amplitude_exceeds_fast() {
        // Peak arm elevation over one cycle: slow sweep is wider.
        let peak = |speed: Speed| -> f32 {
            let period = Action::ArmWaving.base_period() * speed.period_scale();
            (0..100)
                .map(|i| {
                    Action::ArmWaving
                        .pose_at(i as f32 / 100.0 * period, speed)
                        .right_arm_deg
                })
                .fold(f32::MIN, f32::max)
        };
        assert!(peak(Speed::Slow) > peak(Speed::Average));
        assert!(peak(Speed::Average) > peak(Speed::Fast));
    }

    #[test]
    fn enter_exit_goes_invisible_and_returns() {
        let period = Action::EnterExit.base_period() * Speed::Average.period_scale();
        let gone = Action::EnterExit.pose_at(period * 0.375, Speed::Average);
        assert!(!gone.visible);
        let back = Action::EnterExit.pose_at(period * 0.9, Speed::Average);
        assert!(back.visible);
        assert!((back.center_x - 0.5).abs() < 1e-5);
    }

    #[test]
    fn enter_exit_sweeps_horizontally() {
        let period = Action::EnterExit.base_period() * Speed::Average.period_scale();
        let xs: Vec<f32> = (0..40)
            .map(|i| {
                Action::EnterExit
                    .pose_at(i as f32 / 40.0 * period, Speed::Average)
                    .center_x
            })
            .collect();
        let min = xs.iter().cloned().fold(f32::MAX, f32::min);
        let max = xs.iter().cloned().fold(f32::MIN, f32::max);
        assert!(min < -0.5 && max >= 0.5, "sweep [{min}, {max}]");
    }

    #[test]
    fn drinking_raises_hand_and_tilts_head() {
        let period = 3.0;
        let p = Action::Drinking.pose_at(period / 4.0, Speed::Average);
        assert!(p.right_arm_deg > 100.0);
        assert!(p.head_bob < 0.0);
    }

    #[test]
    fn poses_are_deterministic() {
        for action in Action::ALL {
            for speed in Speed::ALL {
                let a = action.pose_at(1.234, speed);
                let b = action.pose_at(1.234, speed);
                assert_eq!(a, b);
            }
        }
    }
}
