//! Error type shared by all fallible operations in this crate.

use std::fmt;

/// Errors produced by imaging operations.
///
/// Every fallible public function in `bb-imaging` returns this type so that
/// downstream crates (the video substrate, the reconstruction framework) can
/// propagate failures with `?` instead of panicking mid-pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImagingError {
    /// Two images/masks that must share a resolution did not.
    ///
    /// Carries `(expected_w, expected_h, got_w, got_h)`.
    DimensionMismatch {
        /// Expected width in pixels.
        expected_w: usize,
        /// Expected height in pixels.
        expected_h: usize,
        /// Actual width in pixels.
        got_w: usize,
        /// Actual height in pixels.
        got_h: usize,
    },
    /// A width or height of zero was supplied where a non-empty image is
    /// required.
    EmptyImage,
    /// A coordinate fell outside the image bounds.
    OutOfBounds {
        /// Requested x coordinate.
        x: usize,
        /// Requested y coordinate.
        y: usize,
        /// Image width.
        w: usize,
        /// Image height.
        h: usize,
    },
    /// A parameter was outside its legal range (e.g. a zero kernel size).
    InvalidParameter(String),
    /// A PPM stream could not be parsed.
    Decode(String),
    /// An underlying I/O error, stringified to keep the type `Clone + Eq`.
    Io(String),
}

impl fmt::Display for ImagingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImagingError::DimensionMismatch {
                expected_w,
                expected_h,
                got_w,
                got_h,
            } => write!(
                f,
                "dimension mismatch: expected {expected_w}x{expected_h}, got {got_w}x{got_h}"
            ),
            ImagingError::EmptyImage => write!(f, "image dimensions must be non-zero"),
            ImagingError::OutOfBounds { x, y, w, h } => {
                write!(f, "coordinate ({x}, {y}) out of bounds for {w}x{h} image")
            }
            ImagingError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ImagingError::Decode(msg) => write!(f, "decode error: {msg}"),
            ImagingError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ImagingError {}

impl From<std::io::Error> for ImagingError {
    fn from(err: std::io::Error) -> Self {
        ImagingError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_dimensions() {
        let err = ImagingError::DimensionMismatch {
            expected_w: 4,
            expected_h: 3,
            got_w: 2,
            got_h: 1,
        };
        let msg = err.to_string();
        assert!(msg.contains("4x3"));
        assert!(msg.contains("2x1"));
    }

    #[test]
    fn display_out_of_bounds() {
        let err = ImagingError::OutOfBounds {
            x: 9,
            y: 2,
            w: 5,
            h: 5,
        };
        assert!(err.to_string().contains("(9, 2)"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let err: ImagingError = io.into();
        assert!(matches!(err, ImagingError::Io(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImagingError>();
    }
}
