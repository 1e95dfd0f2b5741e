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
//! 1. [`bgmodel`] — a per-pixel temporal median over the composited call.
//!    In a virtual-background call, the static majority at each pixel is the
//!    virtual background; the moving caller and transient leak patches are
//!    outliers.
//! 2. [`person`] — per-frame change detection against the model, cleaned
//!    with morphology, keeping person-plausible connected components. Like
//!    DeepLabv3, this mask is deliberately *imperfect*: transient leaked
//!    background sticks to the caller, which is exactly the error class the
//!    paper's color refinement targets.
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
