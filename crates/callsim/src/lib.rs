//! # bb-callsim
//!
//! A video-calling-software simulator: the substitute for the Zoom and Skype
//! virtual-background engines the paper drove through OBS VirtualCam (§VII-D).
//!
//! The paper treats those engines as black boxes characterised by their
//! failure modes (§V-D): inaccurate human boundaries (hair, fingers, under
//! the head), poor masking in the first frames of a call, motion-dependent
//! errors, and sensitivity to fore/background color similarity and lighting.
//! This crate implements a compositor with exactly those failure modes,
//! parameterised so that a "Zoom-like" and a more accurate "Skype-like"
//! profile reproduce the §VIII-E ordering (Skype leaks less).
//!
//! Modules:
//!
//! * [`background`] — virtual backgrounds: a [`BackgroundId`]-addressed
//!   catalog of static images (the `D_img` of §V-B) and looping virtual
//!   videos (`D_vid`), plus the [`VbMode`] compositor axis (image / video /
//!   blur).
//! * [`matting`] — the imperfect foreground-mask stage with the §V-D error
//!   model.
//! * [`blend`] — the blending stage (§III: alpha-band, Gaussian, Laplacian
//!   pyramid) that creates the BB region.
//! * [`profile`] — calibrated software profiles, addressed by
//!   [`ProfilePreset`] (`zoom_like`, `skype_like`, `meet_like`,
//!   `teams_like`, `perfect`).
//! * [`mitigation`] — the §IX defences: dynamic virtual background, random
//!   per-call background, frame dropping, deepfake replay.
//! * [`session`] — the end-to-end compositor, driven through the
//!   [`CallSim`] builder, producing what the adversary records plus the
//!   evaluation-only ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod blend;
pub mod matting;
pub mod mitigation;
pub mod profile;
pub mod session;

pub use background::{BackgroundId, VbMode, VirtualBackground};
pub use blend::BlendMode;
pub use matting::MattingParams;
pub use mitigation::Mitigation;
pub use profile::{ProfilePreset, SoftwareProfile};
pub use session::{CallSim, CallTruth, CompositedCall, DEFAULT_BLUR_RADIUS};

/// Errors from the call simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CallSimError {
    /// Mask/frame counts or dimensions disagree.
    Inconsistent(String),
    /// Propagated imaging failure.
    Imaging(bb_imaging::ImagingError),
    /// Propagated video failure.
    Video(bb_video::VideoError),
}

impl std::fmt::Display for CallSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallSimError::Inconsistent(msg) => write!(f, "inconsistent inputs: {msg}"),
            CallSimError::Imaging(e) => write!(f, "imaging error: {e}"),
            CallSimError::Video(e) => write!(f, "video error: {e}"),
        }
    }
}

impl std::error::Error for CallSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CallSimError::Imaging(e) => Some(e),
            CallSimError::Video(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bb_imaging::ImagingError> for CallSimError {
    fn from(e: bb_imaging::ImagingError) -> Self {
        CallSimError::Imaging(e)
    }
}

impl From<bb_video::VideoError> for CallSimError {
    fn from(e: bb_video::VideoError) -> Self {
        CallSimError::Video(e)
    }
}
