//! Pull-based frame sources for streaming ingestion.
//!
//! A [`FrameSource`] yields frames one at a time so a consumer (e.g.
//! `bb_core`'s `ReconstructionSession`) never has to hold a whole call in
//! memory. Two implementations ship in this crate:
//!
//! * [`MemorySource`] — wraps an in-memory [`VideoStream`] (tests, callsim
//!   live feeds).
//! * [`crate::mmap::MmapSource`] — memory-maps a `.bbv` file (either
//!   container version) and yields borrowed [`FrameView`]s with no
//!   per-frame heap traffic.

use crate::stream::STANDARD_FPS;
use crate::{VideoError, VideoStream};
use bb_imaging::Frame;

/// A borrowed view of one decoded frame: `width × height` RGB24 bytes in
/// row-major order, living inside a source's buffer (or directly inside a
/// memory-mapped file). Converting to an owned [`Frame`] is explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    width: usize,
    height: usize,
    rgb: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Wraps a raw RGB24 slice.
    ///
    /// # Errors
    ///
    /// [`VideoError::Decode`] when the slice length does not equal
    /// `width × height × 3` or either dimension is zero.
    pub fn new(width: usize, height: usize, rgb: &'a [u8]) -> Result<Self, VideoError> {
        if width == 0 || height == 0 {
            return Err(VideoError::Decode(format!(
                "frame view with zero dimension {width}x{height}"
            )));
        }
        if rgb.len() != width * height * 3 {
            return Err(VideoError::Decode(format!(
                "frame view length {} does not match {width}x{height}x3",
                rgb.len()
            )));
        }
        Ok(FrameView { width, height, rgb })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The raw RGB24 bytes, row-major.
    pub fn rgb(&self) -> &'a [u8] {
        self.rgb
    }

    /// Materializes an owned [`Frame`] (allocates; the pixel conversion is
    /// a single memcpy).
    pub fn to_frame(&self) -> Frame {
        Frame::from_pixels(self.width, self.height, crate::rgb24::to_pixels(self.rgb))
            .expect("view length is validated at construction")
    }

    /// Writes the view into `out`, reusing its buffer when the geometry
    /// matches (no allocation, one memcpy) and replacing it otherwise.
    pub fn write_into(&self, out: &mut Frame) {
        if out.dims() == (self.width, self.height) {
            crate::rgb24::copy_into(self.rgb, out.pixels_mut());
        } else {
            *out = self.to_frame();
        }
    }
}

/// A pull-based supplier of video frames.
pub trait FrameSource {
    /// Yields the next frame, or `None` when the source is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates read/decode failures.
    fn next_frame(&mut self) -> Result<Option<Frame>, VideoError>;

    /// Reads the next frame into `out`, reusing its buffer when the
    /// geometry matches so steady-state ingest allocates nothing. Returns
    /// `false` (leaving `out` untouched) when the source is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates read/decode failures.
    fn next_frame_into(&mut self, out: &mut Frame) -> Result<bool, VideoError> {
        match self.next_frame()? {
            Some(f) => {
                if out.dims() == f.dims() {
                    out.copy_from(&f).map_err(VideoError::Imaging)?;
                } else {
                    *out = f;
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Skips up to `n` frames (bounded by what remains), returning how many
    /// were skipped — lets a resumed session jump past the frames its
    /// checkpoint already covers. The default decodes and discards; indexed
    /// sources override this with a seek.
    ///
    /// # Errors
    ///
    /// Propagates read/decode failures.
    fn skip_frames(&mut self, n: usize) -> Result<usize, VideoError> {
        let mut skipped = 0;
        while skipped < n {
            if self.next_frame()?.is_none() {
                break;
            }
            skipped += 1;
        }
        Ok(skipped)
    }

    /// The source's frame rate (defaults to the standard 30 fps).
    fn fps(&self) -> f64 {
        STANDARD_FPS
    }

    /// The frame geometry, when known up front.
    fn dims_hint(&self) -> Option<(usize, usize)> {
        None
    }

    /// Frames remaining, when known up front.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// A [`FrameSource`] over an in-memory [`VideoStream`].
#[derive(Debug, Clone)]
pub struct MemorySource {
    stream: VideoStream,
    next: usize,
}

impl MemorySource {
    /// Wraps a stream; frames are yielded in order from the start.
    pub fn new(stream: VideoStream) -> MemorySource {
        MemorySource { stream, next: 0 }
    }
}

impl FrameSource for MemorySource {
    fn next_frame(&mut self) -> Result<Option<Frame>, VideoError> {
        let frame = self.stream.get(self.next).cloned();
        if frame.is_some() {
            self.next += 1;
        }
        Ok(frame)
    }

    fn next_frame_into(&mut self, out: &mut Frame) -> Result<bool, VideoError> {
        match self.stream.get(self.next) {
            Some(f) => {
                if out.dims() == f.dims() {
                    out.copy_from(f).map_err(VideoError::Imaging)?;
                } else {
                    *out = f.clone();
                }
                self.next += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn skip_frames(&mut self, n: usize) -> Result<usize, VideoError> {
        let skipped = n.min(self.stream.len() - self.next);
        self.next += skipped;
        Ok(skipped)
    }

    fn fps(&self) -> f64 {
        self.stream.fps()
    }

    fn dims_hint(&self) -> Option<(usize, usize)> {
        Some(self.stream.dims())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.stream.len().saturating_sub(self.next))
    }
}

/// Collects any source into a [`VideoStream`], for the round-trip tests.
#[cfg(test)]
pub(crate) fn collect<S: FrameSource + ?Sized>(source: &mut S) -> Result<VideoStream, VideoError> {
    let mut frames = Vec::new();
    while let Some(f) = source.next_frame()? {
        frames.push(f);
    }
    VideoStream::from_frames(frames, source.fps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn sample(frames: usize) -> VideoStream {
        VideoStream::generate(frames, 24.0, |i| {
            Frame::from_fn(5, 4, |x, y| Rgb::new(i as u8, x as u8, y as u8))
        })
        .unwrap()
    }

    #[test]
    fn memory_source_yields_all_frames_in_order() {
        let v = sample(6);
        let mut src = MemorySource::new(v.clone());
        assert_eq!(src.dims_hint(), Some((5, 4)));
        assert_eq!(src.len_hint(), Some(6));
        assert_eq!(src.fps(), 24.0);
        let collected = collect(&mut src).unwrap();
        assert_eq!(collected, v);
        assert!(src.next_frame().unwrap().is_none());
    }

    #[test]
    fn memory_source_skip_is_an_index_seek() {
        let v = sample(6);
        let mut src = MemorySource::new(v.clone());
        assert_eq!(src.skip_frames(4).unwrap(), 4);
        assert_eq!(src.len_hint(), Some(2));
        assert_eq!(src.next_frame().unwrap().unwrap(), *v.frame(4));
        assert_eq!(src.skip_frames(100).unwrap(), 1);
        assert!(src.next_frame().unwrap().is_none());
    }

    #[test]
    fn next_frame_into_reuses_matching_buffers() {
        let v = sample(3);
        let mut src = MemorySource::new(v.clone());
        let mut out = Frame::filled(5, 4, Rgb::new(9, 9, 9));
        for i in 0..3 {
            assert!(src.next_frame_into(&mut out).unwrap());
            assert_eq!(&out, v.frame(i));
        }
        assert!(!src.next_frame_into(&mut out).unwrap());
        // A mismatched buffer is replaced, not written through.
        let mut src = MemorySource::new(v.clone());
        let mut odd = Frame::filled(2, 2, Rgb::new(0, 0, 0));
        assert!(src.next_frame_into(&mut odd).unwrap());
        assert_eq!(&odd, v.frame(0));
    }

    #[test]
    fn frame_view_validates_and_converts() {
        let rgb = [1u8, 2, 3, 4, 5, 6];
        let view = FrameView::new(2, 1, &rgb).unwrap();
        assert_eq!(view.dims(), (2, 1));
        let frame = view.to_frame();
        assert_eq!(frame.pixels(), &[Rgb::new(1, 2, 3), Rgb::new(4, 5, 6)]);
        assert!(FrameView::new(2, 2, &rgb).is_err());
        assert!(FrameView::new(0, 1, &[]).is_err());
    }
}
