//! # bb-imaging
//!
//! Pure-Rust imaging substrate for the Background Buster reproduction.
//!
//! The paper's pipeline (DSN 2022, "Background Buster: Peeking through Virtual
//! Backgrounds in Online Video Calls") operates on 24-bit RGB frames and three
//! kinds of per-frame bitmaps (virtual-background mask, blending-blur mask,
//! video-caller mask). The Rust ecosystem has no suitable offline computer-vision
//! crate, so this crate implements everything the framework needs from scratch:
//!
//! * [`pixel`] — `Rgb` / `Hsv` color types and conversions (hue matching is the
//!   backbone of the paper's location-inference attack, §VI).
//! * [`frame`] — row-major images with typed dimensions ([`Frame`]).
//! * [`mask`] — binary bitmaps with set algebra ([`Mask`]).
//! * [`draw`] — rasterisation used by the synthetic world (rectangles, circles,
//!   lines, bitmap-font text).
//! * [`filter`] — box / Gaussian blur (the blending functions of §III).
//! * [`morph`] — dilation, erosion, and the radius-φ band operator implementing
//!   the blending-blur mask of §V-C.
//! * [`components`] — connected-component labelling (text-box detection).
//! * [`hist`] — color histograms and shape moments (color-based VCM refinement,
//!   §V-D, and the generic-object detector substitute).
//! * [`geom`] — shift / rotate / scale resampling (location inference and
//!   template tracking search spaces, §VI).
//! * [`integral`] — integral images for fast window sums.
//! * [`font`] — a 5×7 bitmap font shared between scene-text rendering and the
//!   text-inference attack (TextFuseNet substitute).
//! * [`io`] — PPM serialization for visual inspection of reconstructions.
//!
//! # Example
//!
//! ```
//! use bb_imaging::{Frame, Rgb};
//!
//! let mut frame = Frame::filled(64, 48, Rgb::new(10, 20, 30));
//! frame.put(5, 7, Rgb::new(200, 0, 0));
//! assert_eq!(frame.get(5, 7), Rgb::new(200, 0, 0));
//! assert_eq!(frame.width(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod draw;
pub mod error;
pub mod filter;
pub mod font;
pub mod frame;
pub mod geom;
pub mod hist;
pub mod integral;
pub mod io;
pub mod mask;
pub mod morph;
pub mod pixel;

pub use error::ImagingError;
pub use filter::{round_div, round_div_u64};
pub use frame::Frame;
pub use mask::{Mask, WORD_BITS};
pub use pixel::{Hsv, Rgb};
