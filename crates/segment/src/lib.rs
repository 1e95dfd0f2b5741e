//! # bb-segment
//!
//! A classical person-segmentation pipeline — the substitute for DeepLabv3
//! in the reconstruction framework's video-caller-masking stage (§V-D).
//!
//! The paper runs DeepLabv3 offline over the recorded call to obtain a
//! video-caller mask (VCM), then repairs its residual errors with a
//! statistical color-based refinement. The framework's only contract with
//! the segmenter is therefore: *a mostly-correct caller mask whose errors
//! are color-detectable*. This crate meets that contract with classical
//! machinery:
//!
//! 1. [`person`] — caller selection over the candidate foreground (what the
//!    virtual-background and blending-blur masks left): a skin-color prior
//!    and component scoring keep the person-shaped component(s). Like
//!    DeepLabv3, this mask is deliberately *imperfect*: transient leaked
//!    background fused to the caller survives, which is exactly the error
//!    class the paper's color refinement targets.
//! 2. [`bgmodel`] — a per-pixel temporal median over the composited call,
//!    fitted at the session's lock and kept as [`PersonSegmenter`]'s state
//!    (it is checkpointed, but caller selection does not read it).
//!
//! The §V-D statistical color refinement itself — VCM pixels whose color is
//! rare within the caller's color distribution are flipped to background
//! ("if a color was observed … with a very low frequency (presumably from
//! the real background), we modify VCM(u,w) = 0") — runs in `bb-core`'s
//! video-caller-masking stage, next to the cross-frame caller color model
//! it shares a walk with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgmodel;
pub mod person;

pub use bgmodel::median_model;
pub use person::PersonSegmenter;
