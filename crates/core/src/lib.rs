//! # bb-core
//!
//! The Background Buster real-background reconstruction framework — the
//! primary contribution of the paper (§V).
//!
//! Given a recorded video call `V` with a virtual background blended in, the
//! framework recovers the parts of the *real* background that the virtual
//! background feature leaked. Per frame it reconstructs three of the four
//! frame components of §III and takes the residue as the fourth:
//!
//! ```text
//! fⁱ  =  VBⁱ ∪ BBⁱ ∪ VCⁱ ∪ LBⁱ           (disjoint bitmaps)
//! LBⁱ =  fⁱ  −  VBⁱ  −  BBⁱ  −  VCⁱ      (§V-E)
//! ```
//!
//! * [`vbmask`] — virtual-background masking (§V-B): highest-likelihood
//!   identification against a candidate dataset (known image/video) or
//!   pixel-stability derivation (unknown image/video, the ≥10-frame rule).
//! * [`bbmask`] — blending-blur masking (§V-C): the radius-φ band around the
//!   VBM, plus the adversarial φ-calibration procedure of §VIII-C.
//! * [`vcmask`] — video-caller masking (§V-D): person segmentation
//!   (DeepLabv3 substitute from `bb-segment`) plus statistical color
//!   refinement.
//! * [`recon`] — the accumulation canvas combining every frame's LBⁱ into a
//!   partial background image (§V-E).
//! * [`metrics`] — VBMR, RBRR, action speed, displacement (§VIII-A).
//! * [`pipeline`] — [`Reconstructor`], the one-call API tying it together.
//!
//! # Example
//!
//! ```no_run
//! use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
//! # fn get_call_video() -> bb_video::VideoStream { unimplemented!() }
//!
//! let video = get_call_video();
//! let reconstructor = Reconstructor::new(
//!     VbSource::UnknownImage,
//!     ReconstructorConfig::default(),
//! );
//! let result = reconstructor.reconstruct(&video).unwrap();
//! println!("recovered {:.1}% of the frame", result.rbrr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbmask;
pub mod ingest;
pub mod metrics;
pub mod pipeline;
pub mod recon;
pub mod session;
pub mod vbmask;
pub mod vcmask;
pub mod workers;

pub use pipeline::{
    MaskRetention, ReconMode, Reconstruction, Reconstructor, ReconstructorConfig,
    ReconstructorConfigBuilder, VbSource, DEBLUR_ITERATIONS,
};
pub use recon::ReconstructionCanvas;
pub use session::{FrameOutcome, ReconstructionSession, SessionSnapshot};

/// Errors produced by the reconstruction framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The candidate dataset required by the chosen VB source is empty.
    EmptyCandidateSet,
    /// The video is too short for the requested derivation (e.g. unknown-VB
    /// stability analysis needs more frames than provided).
    VideoTooShort {
        /// Frames required.
        needed: usize,
        /// Frames available.
        have: usize,
    },
    /// Loop-period detection failed for an unknown virtual video.
    NoPeriodFound,
    /// A worker thread panicked while processing a frame; the payload
    /// message is preserved. Surfaced as an error instead of aborting the
    /// whole process.
    WorkerPanic(String),
    /// A frame or mask fed to the reconstruction canvas does not match the
    /// canvas geometry. Surfaced as an error because silently skipping the
    /// frame would drop its entire residue from the reconstruction.
    CanvasDimensionMismatch {
        /// Canvas `(width, height)`.
        expected: (usize, usize),
        /// Offending input `(width, height)`.
        got: (usize, usize),
    },
    /// A configuration value was rejected by validation (builder `build()`
    /// or a validated constructor such as [`VbSource::unknown_video`]).
    InvalidConfig(String),
    /// A session checkpoint could not be restored: bad magic, unsupported
    /// version, truncated payload, or a config that does not match the
    /// resuming [`Reconstructor`].
    CheckpointCorrupt(String),
    /// Propagated imaging failure.
    Imaging(bb_imaging::ImagingError),
    /// Propagated video failure.
    Video(bb_video::VideoError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::EmptyCandidateSet => write!(f, "candidate dataset is empty"),
            CoreError::VideoTooShort { needed, have } => {
                write!(f, "video too short: need {needed} frames, have {have}")
            }
            CoreError::NoPeriodFound => write!(f, "no loop period found for virtual video"),
            CoreError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
            CoreError::CanvasDimensionMismatch { expected, got } => write!(
                f,
                "canvas dimension mismatch: canvas is {}x{}, input is {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::CheckpointCorrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            CoreError::Imaging(e) => write!(f, "imaging error: {e}"),
            CoreError::Video(e) => write!(f, "video error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Imaging(e) => Some(e),
            CoreError::Video(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bb_imaging::ImagingError> for CoreError {
    fn from(e: bb_imaging::ImagingError) -> Self {
        CoreError::Imaging(e)
    }
}

impl From<bb_video::VideoError> for CoreError {
    fn from(e: bb_video::VideoError) -> Self {
        CoreError::Video(e)
    }
}
