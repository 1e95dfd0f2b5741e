//! [`VideoStream`]: an owned, fixed-resolution frame sequence.

use crate::VideoError;
use bb_imaging::Frame;

/// The paper's standard webcam frame rate (§V-B: "for a standard 30 fps
/// video stream, a pixel consistent across 10 or more frames has very high
/// probability of belonging to the virtual background").
pub const STANDARD_FPS: f64 = 30.0;

/// A time-ordered sequence of equally-sized frames with a frame rate —
/// the paper's `V = {f¹, …, fˡ}` (§III).
///
/// # Example
///
/// ```
/// use bb_imaging::{Frame, Rgb};
/// use bb_video::VideoStream;
///
/// # fn main() -> Result<(), bb_video::VideoError> {
/// let frames = vec![Frame::filled(8, 8, Rgb::BLACK); 30];
/// let v = VideoStream::from_frames(frames, 30.0)?;
/// assert_eq!(v.len(), 30);
/// assert!((v.duration_secs() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VideoStream {
    frames: Vec<Frame>,
    fps: f64,
}

impl VideoStream {
    /// Builds a stream from frames, validating resolution consistency.
    ///
    /// # Errors
    ///
    /// * [`VideoError::EmptyStream`] when `frames` is empty.
    /// * [`VideoError::BadFrameRate`] when `fps` is not positive and finite.
    /// * [`VideoError::MixedResolutions`] when frames disagree on size.
    pub fn from_frames(frames: Vec<Frame>, fps: f64) -> Result<Self, VideoError> {
        if frames.is_empty() {
            return Err(VideoError::EmptyStream);
        }
        if !(fps.is_finite() && fps > 0.0) {
            return Err(VideoError::BadFrameRate(fps));
        }
        let first = frames[0].dims();
        for (i, f) in frames.iter().enumerate().skip(1) {
            if f.dims() != first {
                return Err(VideoError::MixedResolutions {
                    first,
                    other: f.dims(),
                    index: i,
                });
            }
        }
        Ok(VideoStream { frames, fps })
    }

    /// Builds a stream by calling `f(frame_index)` for `len` frames.
    ///
    /// # Errors
    ///
    /// Same as [`VideoStream::from_frames`].
    pub fn generate(
        len: usize,
        fps: f64,
        f: impl FnMut(usize) -> Frame,
    ) -> Result<Self, VideoError> {
        let frames: Vec<Frame> = (0..len).map(f).collect();
        Self::from_frames(frames, fps)
    }

    /// Number of frames (`l` in the paper's notation).
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Always `false`: construction guarantees at least one frame.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Frame rate in frames per second.
    #[inline]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Duration in seconds.
    #[inline]
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps
    }

    /// Resolution `(width, height)` shared by every frame.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        self.frames[0].dims()
    }

    /// Frame at index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`; use [`VideoStream::get`] for the checked
    /// variant.
    #[inline]
    pub fn frame(&self, i: usize) -> &Frame {
        &self.frames[i]
    }

    /// Frame at index `i`, or `None` out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Frame> {
        self.frames.get(i)
    }

    /// All frames as a slice.
    #[inline]
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Iterates over the frames in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }

    /// Consumes the stream and returns the frame vector.
    pub fn into_frames(self) -> Vec<Frame> {
        self.frames
    }

    /// A sub-stream covering frames `[start, end)` at the same frame rate.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::EmptyStream`] when the range is empty or out of
    /// bounds.
    pub fn slice(&self, start: usize, end: usize) -> Result<VideoStream, VideoError> {
        if start >= end || end > self.frames.len() {
            return Err(VideoError::EmptyStream);
        }
        VideoStream::from_frames(self.frames[start..end].to_vec(), self.fps)
    }

    /// Appends another stream of the same resolution (frame rate keeps the
    /// receiver's value).
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::MixedResolutions`] on resolution mismatch.
    pub fn concat(&self, other: &VideoStream) -> Result<VideoStream, VideoError> {
        if self.dims() != other.dims() {
            return Err(VideoError::MixedResolutions {
                first: self.dims(),
                other: other.dims(),
                index: self.len(),
            });
        }
        let mut frames = self.frames.clone();
        frames.extend(other.frames.iter().cloned());
        VideoStream::from_frames(frames, self.fps)
    }
}

impl<'a> IntoIterator for &'a VideoStream {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn stream(len: usize) -> VideoStream {
        VideoStream::generate(len, 30.0, |i| Frame::filled(4, 4, Rgb::grey(i as u8))).unwrap()
    }

    #[test]
    fn construction_validates_everything() {
        assert_eq!(
            VideoStream::from_frames(vec![], 30.0),
            Err(VideoError::EmptyStream)
        );
        assert!(matches!(
            VideoStream::from_frames(vec![Frame::new(2, 2)], 0.0),
            Err(VideoError::BadFrameRate(_))
        ));
        assert!(matches!(
            VideoStream::from_frames(vec![Frame::new(2, 2)], f64::NAN),
            Err(VideoError::BadFrameRate(_))
        ));
        let mixed = vec![Frame::new(2, 2), Frame::new(3, 2)];
        assert!(matches!(
            VideoStream::from_frames(mixed, 30.0),
            Err(VideoError::MixedResolutions { index: 1, .. })
        ));
    }

    #[test]
    fn basic_accessors() {
        let v = stream(60);
        assert_eq!(v.len(), 60);
        assert!(!v.is_empty());
        assert_eq!(v.fps(), 30.0);
        assert_eq!(v.dims(), (4, 4));
        assert!((v.duration_secs() - 2.0).abs() < 1e-12);
        assert_eq!(v.frame(10).get(0, 0), Rgb::grey(10));
        assert!(v.get(60).is_none());
    }

    #[test]
    fn slice_extracts_range() {
        let v = stream(10);
        let s = v.slice(2, 5).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.frame(0).get(0, 0), Rgb::grey(2));
        assert!(v.slice(5, 5).is_err());
        assert!(v.slice(8, 20).is_err());
    }

    #[test]
    fn concat_appends() {
        let a = stream(3);
        let b = stream(2);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 5);
        let other = VideoStream::generate(2, 30.0, |_| Frame::new(8, 8)).unwrap();
        assert!(a.concat(&other).is_err());
    }

    #[test]
    fn iteration_visits_in_order() {
        let v = stream(3);
        let lumas: Vec<u8> = v.iter().map(|f| f.get(0, 0).luma()).collect();
        assert_eq!(lumas, vec![0, 1, 2]);
        let count = (&v).into_iter().count();
        assert_eq!(count, 3);
    }
}
