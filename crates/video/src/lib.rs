//! # bb-video
//!
//! Video-stream substrate for the Background Buster reproduction.
//!
//! The paper models a video call as a time-ordered sequence of frames
//! `V = {f¹, f², …, fˡ}` sampled at a fixed frame rate (§III). This crate
//! provides:
//!
//! * [`stream`] — [`VideoStream`], an owned frame sequence with a frame rate,
//!   plus constructors and iteration.
//! * [`delta`] — frame differencing, the paper's *displacement* metric
//!   (percentage of unique pixel changes during an action event, §VIII-A)
//!   and *action speed* (event frames ÷ fps).
//! * [`loopdet`] — periodicity detection for looping virtual-background
//!   videos, needed by the unknown-virtual-video derivation of §V-B.
//! * [`io`] — a minimal `.bbv` container (length-prefixed raw frames) so
//!   corpora can be cached on disk between experiment runs.
//! * [`v2`] — the compressed BBV v2 container (raw keyframes + sparse
//!   span deltas on a striped schedule, so stripes decode independently).
//! * [`mmap`] — memory-mapped file access and [`mmap::MmapSource`], the
//!   zero-copy streaming reader over either container version.

// `deny` rather than `forbid`: the mmap module opts back in for the two
// FFI calls it needs, behind a documented safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod io;
pub mod loopdet;
pub mod mmap;
// Like `mmap::sys`, the RGB24 cast module opts back into `unsafe` behind
// compile-time layout checks and a documented safety argument.
#[allow(unsafe_code)]
mod rgb24;
pub mod stream;
pub mod v2;

pub use stream::VideoStream;

/// Errors produced by video operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VideoError {
    /// The stream contained no frames where at least one is required.
    EmptyStream,
    /// Frames in a stream must share one resolution.
    MixedResolutions {
        /// Resolution of the first frame.
        first: (usize, usize),
        /// Offending resolution.
        other: (usize, usize),
        /// Index of the offending frame.
        index: usize,
    },
    /// Frame rate must be positive and finite.
    BadFrameRate(f64),
    /// An imaging-layer failure.
    Imaging(bb_imaging::ImagingError),
    /// Container decode failure.
    Decode(String),
    /// I/O failure (stringified to keep the error `Clone`).
    Io(String),
}

impl std::fmt::Display for VideoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VideoError::EmptyStream => write!(f, "video stream has no frames"),
            VideoError::MixedResolutions {
                first,
                other,
                index,
            } => write!(
                f,
                "frame {index} has resolution {}x{} but stream started at {}x{}",
                other.0, other.1, first.0, first.1
            ),
            VideoError::BadFrameRate(r) => write!(f, "frame rate must be positive, got {r}"),
            VideoError::Imaging(e) => write!(f, "imaging error: {e}"),
            VideoError::Decode(msg) => write!(f, "container decode error: {msg}"),
            VideoError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for VideoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VideoError::Imaging(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bb_imaging::ImagingError> for VideoError {
    fn from(e: bb_imaging::ImagingError) -> Self {
        VideoError::Imaging(e)
    }
}

impl From<std::io::Error> for VideoError {
    fn from(e: std::io::Error) -> Self {
        VideoError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = VideoError::MixedResolutions {
            first: (4, 3),
            other: (2, 2),
            index: 5,
        };
        let s = e.to_string();
        assert!(s.contains("frame 5"));
        assert!(s.contains("4x3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VideoError>();
    }
}
