//! Row-major RGB image frames.
//!
//! A video stream is a time-ordered sequence of frames, each an `m × n` array
//! of pixels (§III). [`Frame`] is that array; the video substrate
//! (`bb-video`) builds streams out of it.

use crate::error::ImagingError;
use crate::mask::{pack_bytes, Mask};
use crate::pixel::Rgb;
use crate::rgb24;

/// A fixed-size RGB image, stored row-major.
///
/// Coordinates follow image convention: `x` is the column (0 at the left),
/// `y` is the row (0 at the top).
///
/// # Example
///
/// ```
/// use bb_imaging::{Frame, Rgb};
/// let mut f = Frame::new(4, 3);
/// f.put(0, 0, Rgb::WHITE);
/// assert_eq!(f.get(1, 0), Rgb::BLACK);
/// assert_eq!(f.pixels().len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<Rgb>,
}

impl Frame {
    /// Creates a black frame of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero; use [`Frame::try_new`] for a
    /// fallible variant.
    pub fn new(width: usize, height: usize) -> Self {
        Self::try_new(width, height).expect("frame dimensions must be non-zero")
    }

    /// Creates a black frame, returning an error on zero dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] when either dimension is zero,
    /// and [`ImagingError::InvalidParameter`] when the frame's byte size
    /// overflows `usize`.
    pub fn try_new(width: usize, height: usize) -> Result<Self, ImagingError> {
        Ok(Frame {
            width,
            height,
            data: vec![Rgb::BLACK; pixel_count(width, height)?],
        })
    }

    /// Creates a frame filled with `color`.
    pub fn filled(width: usize, height: usize, color: Rgb) -> Self {
        let mut f = Frame::new(width, height);
        f.data.fill(color);
        f
    }

    /// Builds a frame from a generator function called as `f(x, y)`.
    ///
    /// ```
    /// use bb_imaging::{Frame, Rgb};
    /// let grad = Frame::from_fn(8, 8, |x, _| Rgb::grey((x * 32) as u8));
    /// assert_eq!(grad.get(2, 5), Rgb::grey(64));
    /// ```
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> Rgb) -> Self {
        let mut frame = Frame::new(width, height);
        for y in 0..height {
            for x in 0..width {
                frame.data[y * width + x] = f(x, y);
            }
        }
        frame
    }

    /// Builds a frame from a raw row-major pixel vector.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] on zero dimensions, and
    /// [`ImagingError::InvalidParameter`] when `data.len() != width * height`.
    pub fn from_pixels(width: usize, height: usize, data: Vec<Rgb>) -> Result<Self, ImagingError> {
        if data.len() != pixel_count(width, height)? {
            return Err(ImagingError::InvalidParameter(format!(
                "pixel vector length {} does not match {}x{}",
                data.len(),
                width,
                height
            )));
        }
        Ok(Frame {
            width,
            height,
            data,
        })
    }

    /// Builds a frame from packed RGB24 bytes: `width × height × 3` bytes,
    /// row-major, `r, g, b` per pixel — the layout of every byte format in
    /// the workspace. One allocation, one copy.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] on zero dimensions, and
    /// [`ImagingError::InvalidParameter`] when `rgb.len() != width × height × 3`.
    pub fn from_rgb24(width: usize, height: usize, rgb: &[u8]) -> Result<Self, ImagingError> {
        if rgb.len() != 3 * pixel_count(width, height)? {
            return Err(ImagingError::InvalidParameter(format!(
                "RGB24 length {} does not match {width}x{height}x3",
                rgb.len()
            )));
        }
        Ok(Frame {
            width,
            height,
            data: rgb24::to_pixels(rgb),
        })
    }

    /// The pixel buffer as packed RGB24 bytes (`width × height × 3`,
    /// row-major, `r, g, b` per pixel) — no copy.
    #[inline]
    pub fn as_rgb24(&self) -> &[u8] {
        rgb24::bytes_of(&self.data)
    }

    /// Mutable packed RGB24 view of the pixel buffer: every byte pattern
    /// written through it is a valid frame.
    #[inline]
    pub fn as_rgb24_mut(&mut self) -> &mut [u8] {
        rgb24::bytes_mut(&mut self.data)
    }

    /// Width (number of columns, `n` in the paper's notation).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height (number of rows, `m` in the paper's notation).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of pixels (the frame "resolution" used as the RBRR
    /// denominator, §VIII-A).
    #[inline]
    pub fn resolution(&self) -> usize {
        self.width * self.height
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Returns the pixel at `(x, y)` or `None` when out of bounds.
    #[inline]
    pub fn try_get(&self, x: usize, y: usize) -> Option<Rgb> {
        if x < self.width && y < self.height {
            Some(self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn put(&mut self, x: usize, y: usize, p: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = p;
    }

    /// Sets the pixel at `(x, y)` if it is within bounds; out-of-bounds writes
    /// are silently ignored (convenient for rasterisation).
    #[inline]
    pub fn put_clipped(&mut self, x: i64, y: i64, p: Rgb) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.data[y as usize * self.width + x as usize] = p;
        }
    }

    /// Immutable view of the raw pixel buffer, row-major.
    #[inline]
    pub fn pixels(&self) -> &[Rgb] {
        &self.data
    }

    /// Contiguous view of row `y` (length [`Frame::width`]). The row slices
    /// are the unit of the data-parallel kernels: operating on `&[Rgb]` rows
    /// keeps the inner loops free of per-pixel index arithmetic and bounds
    /// checks, which is what lets the compiler vectorise them.
    ///
    /// # Panics
    ///
    /// Panics when `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[Rgb] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable contiguous view of row `y`.
    ///
    /// # Panics
    ///
    /// Panics when `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [Rgb] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterates over the contiguous rows, top to bottom.
    pub fn rows(&self) -> impl Iterator<Item = &[Rgb]> {
        self.data.chunks_exact(self.width)
    }

    /// Mutable view of the raw pixel buffer, row-major.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Rgb] {
        &mut self.data
    }

    /// Iterates `(x, y, pixel)` over the whole frame in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (usize, usize, Rgb)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &p)| (i % w, i / w, p))
    }

    /// Checks that `other` has the same dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] otherwise.
    pub fn check_same_dims(&self, other: &Frame) -> Result<(), ImagingError> {
        if self.dims() != other.dims() {
            return Err(ImagingError::DimensionMismatch {
                expected_w: self.width,
                expected_h: self.height,
                got_w: other.width,
                got_h: other.height,
            });
        }
        Ok(())
    }

    /// Checks that `mask` has the same dimensions as this frame.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] otherwise.
    pub fn check_mask_dims(&self, mask: &Mask) -> Result<(), ImagingError> {
        if (self.width, self.height) != mask.dims() {
            let (mw, mh) = mask.dims();
            return Err(ImagingError::DimensionMismatch {
                expected_w: self.width,
                expected_h: self.height,
                got_w: mw,
                got_h: mh,
            });
        }
        Ok(())
    }

    /// Pastes `src` into this frame with its top-left corner at `(x, y)`,
    /// clipping at the borders.
    pub fn blit(&mut self, src: &Frame, x: i64, y: i64) {
        for sy in 0..src.height {
            for sx in 0..src.width {
                self.put_clipped(x + sx as i64, y + sy as i64, src.get(sx, sy));
            }
        }
    }

    /// Counts pixels for which `pred` holds.
    pub fn count_where(&self, mut pred: impl FnMut(Rgb) -> bool) -> usize {
        self.data.iter().filter(|&&p| pred(p)).count()
    }

    /// Builds the sub-mask of `mask` whose pixels satisfy `pred`, walking
    /// the mask's packed words so all-zero 64-pixel spans cost one
    /// comparison, all-one words take a branch-free pass over their 64
    /// pixels, and set pixels are read from the contiguous row slice.
    /// Each selected pixel is evaluated exactly once, in row-major order,
    /// so callers that need several counts over subsets of `mask`
    /// (per-component evidence, say) can build this once and intersect
    /// instead of re-running the predicate. Mismatched dimensions yield an
    /// empty mask.
    pub fn mask_where(&self, mask: &Mask, pred: impl FnMut(Rgb) -> bool) -> Mask {
        let mut out = Mask::new(self.width, self.height);
        self.mask_where_into(mask, pred, &mut out);
        out
    }

    /// [`Frame::mask_where`] written into `out`, which is reshaped to the
    /// frame's dimensions whatever it held before.
    pub fn mask_where_into(&self, mask: &Mask, mut pred: impl FnMut(Rgb) -> bool, out: &mut Mask) {
        out.reset(self.width, self.height);
        if (self.width, self.height) != mask.dims() {
            return;
        }
        for y in 0..self.height {
            let row = self.row(y);
            for (wi, &word) in mask.row_words(y).iter().enumerate() {
                if word == 0 {
                    continue;
                }
                let lo = wi * 64;
                let mut keep = 0u64;
                if word == u64::MAX {
                    for (b, &p) in row[lo..lo + 64].iter().enumerate() {
                        keep |= u64::from(pred(p)) << b;
                    }
                } else {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        keep |= u64::from(pred(row[lo + b])) << b;
                        bits &= bits - 1;
                    }
                }
                out.set_row_word(y, wi, keep);
            }
        }
    }

    /// Applies `f` to every pixel in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(Rgb) -> Rgb) {
        for p in &mut self.data {
            *p = f(*p);
        }
    }

    /// Per-pixel equality mask against another frame with tolerance `tau`:
    /// output is foreground where the two frames *match* (the paper's µ
    /// applied at every pixel, §V-B).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn match_mask(&self, other: &Frame, tau: u8) -> Result<Mask, ImagingError> {
        self.match_mask_within(other, &Mask::full(self.width, self.height), tau)
    }

    /// [`Frame::match_mask`] restricted to `within`: the pixels of
    /// `within` that match `other` within tolerance `tau`. Only the words
    /// where `within` has set pixels are compared, so an empty `within`
    /// costs one comparison per 64 pixels.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when `other` or `within`
    /// differs in size from `self`.
    pub fn match_mask_within(
        &self,
        other: &Frame,
        within: &Mask,
        tau: u8,
    ) -> Result<Mask, ImagingError> {
        let mut out = Mask::new(self.width, self.height);
        self.match_mask_within_into(other, within, tau, &mut out)?;
        Ok(out)
    }

    /// [`Frame::match_mask_within`] written into `out`, which is reshaped
    /// to the frame's dimensions whatever it held before.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when `other` or `within`
    /// differs in size from `self`.
    pub fn match_mask_within_into(
        &self,
        other: &Frame,
        within: &Mask,
        tau: u8,
        out: &mut Mask,
    ) -> Result<(), ImagingError> {
        self.check_same_dims(other)?;
        out.reset(self.width, self.height);
        out.check_same_dims(within)?;
        // Per word: a vectorisable compare loop fills 0/1 bytes for the
        // word's (at most 64) pixels, then one multiply-pack and one AND —
        // no per-pixel coordinate arithmetic and no serial shift-OR chain.
        let mut bits = [0u8; 64];
        for y in 0..self.height {
            let (a, b) = (self.row(y), other.row(y));
            for (wi, &word) in within.row_words(y).iter().enumerate() {
                if word == 0 {
                    continue;
                }
                let lo = wi * 64;
                let hi = (lo + 64).min(self.width);
                let bits = &mut bits[..hi - lo];
                for ((pa, pb), d) in a[lo..hi].iter().zip(&b[lo..hi]).zip(bits.iter_mut()) {
                    *d = u8::from(pa.matches(*pb, tau));
                }
                out.set_row_word(y, wi, pack_bytes(bits) & word);
            }
        }
        Ok(())
    }

    /// Number of pixels that match `other` within tolerance `tau` — the
    /// highest-likelihood estimator score `Σ µ(img ⊕ f)` from §V-B.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn match_score(&self, other: &Frame, tau: u8) -> Result<usize, ImagingError> {
        self.check_same_dims(other)?;
        // Branchless sum (not filter + count) so the compare loop stays
        // vectorisable.
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| usize::from(a.matches(*b, tau)))
            .sum())
    }

    /// Mean per-channel absolute difference against another frame, a cheap
    /// global distance used by loop detection in `bb-video`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn mean_abs_diff(&self, other: &Frame) -> Result<f64, ImagingError> {
        self.check_same_dims(other)?;
        let total: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.l1(*b) as u64)
            .sum();
        Ok(total as f64 / (self.data.len() as f64 * 3.0))
    }
}

/// `width × height`, for dimensions that are non-zero and whose RGB24 byte
/// size fits `usize` — checked before anything is allocated, since
/// dimensions often come from a file header.
fn pixel_count(width: usize, height: usize) -> Result<usize, ImagingError> {
    if width == 0 || height == 0 {
        return Err(ImagingError::EmptyImage);
    }
    width
        .checked_mul(height)
        .filter(|n| n.checked_mul(3).is_some())
        .ok_or_else(|| {
            ImagingError::InvalidParameter(format!("a {width}x{height} frame overflows usize"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let f = Frame::new(3, 2);
        assert!(f.pixels().iter().all(|&p| p == Rgb::BLACK));
        assert_eq!(f.resolution(), 6);
    }

    #[test]
    fn try_new_rejects_zero() {
        assert_eq!(Frame::try_new(0, 5), Err(ImagingError::EmptyImage));
        assert_eq!(Frame::try_new(5, 0), Err(ImagingError::EmptyImage));
        // (usize::MAX / 2 + 1) × 2 wraps to 0 pixels in unchecked arithmetic.
        let err = Frame::try_new(usize::MAX / 2 + 1, 2).unwrap_err();
        assert!(matches!(err, ImagingError::InvalidParameter(_)));
        let err = Frame::from_pixels(usize::MAX / 2 + 1, 2, Vec::new()).unwrap_err();
        assert!(matches!(err, ImagingError::InvalidParameter(_)));
    }

    #[test]
    fn from_pixels_validates_length() {
        let err = Frame::from_pixels(2, 2, vec![Rgb::BLACK; 3]).unwrap_err();
        assert!(matches!(err, ImagingError::InvalidParameter(_)));
        assert!(Frame::from_pixels(2, 2, vec![Rgb::BLACK; 4]).is_ok());
    }

    #[test]
    fn rgb24_round_trips_through_the_byte_view() {
        let f = Frame::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 9));
        let g = Frame::from_rgb24(3, 2, f.as_rgb24()).unwrap();
        assert_eq!(g, f);
        assert_eq!(&f.as_rgb24()[3..6], &[1, 0, 9]);
        let mut h = f.clone();
        h.as_rgb24_mut()[5] = 200;
        assert_eq!(h.get(1, 0), Rgb::new(1, 0, 200));
    }

    #[test]
    fn from_rgb24_rejects_wrong_length_and_zero_dims() {
        for len in [0, 17, 19, 6] {
            let err = Frame::from_rgb24(3, 2, &vec![0; len]).unwrap_err();
            assert!(
                matches!(err, ImagingError::InvalidParameter(_)),
                "len {len}"
            );
        }
        assert_eq!(Frame::from_rgb24(0, 2, &[]), Err(ImagingError::EmptyImage));
        assert_eq!(Frame::from_rgb24(3, 0, &[]), Err(ImagingError::EmptyImage));
        // An overflowing size is an error, not a panic or a wrapped size.
        let err = Frame::from_rgb24(usize::MAX, 2, &[0; 6]).unwrap_err();
        assert!(matches!(err, ImagingError::InvalidParameter(_)));
    }

    #[test]
    fn get_put_round_trip() {
        let mut f = Frame::new(5, 4);
        f.put(4, 3, Rgb::new(1, 2, 3));
        assert_eq!(f.get(4, 3), Rgb::new(1, 2, 3));
        assert_eq!(f.try_get(5, 3), None);
        assert_eq!(f.try_get(4, 4), None);
    }

    #[test]
    fn put_clipped_ignores_out_of_bounds() {
        let mut f = Frame::new(2, 2);
        f.put_clipped(-1, 0, Rgb::WHITE);
        f.put_clipped(0, 7, Rgb::WHITE);
        assert!(f.pixels().iter().all(|&p| p == Rgb::BLACK));
        f.put_clipped(1, 1, Rgb::WHITE);
        assert_eq!(f.get(1, 1), Rgb::WHITE);
    }

    #[test]
    fn blit_clips() {
        let mut f = Frame::new(4, 4);
        let s = Frame::filled(3, 3, Rgb::WHITE);
        f.blit(&s, 2, 2);
        assert_eq!(f.get(2, 2), Rgb::WHITE);
        assert_eq!(f.get(3, 3), Rgb::WHITE);
        assert_eq!(f.get(1, 1), Rgb::BLACK);
    }

    #[test]
    fn match_score_counts_matches() {
        let a = Frame::filled(3, 3, Rgb::grey(100));
        let mut b = a.clone();
        b.put(0, 0, Rgb::grey(110));
        assert_eq!(a.match_score(&b, 0).unwrap(), 8);
        assert_eq!(a.match_score(&b, 10).unwrap(), 9);
    }

    #[test]
    fn match_mask_marks_matching_pixels() {
        let a = Frame::filled(2, 1, Rgb::grey(0));
        let mut b = a.clone();
        b.put(1, 0, Rgb::grey(200));
        let m = a.match_mask(&b, 0).unwrap();
        assert!(m.get(0, 0));
        assert!(!m.get(1, 0));
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let a = Frame::filled(4, 4, Rgb::new(9, 9, 9));
        assert_eq!(a.mean_abs_diff(&a).unwrap(), 0.0);
        let b = Frame::filled(4, 4, Rgb::new(10, 9, 9));
        let d = a.mean_abs_diff(&b).unwrap();
        assert!((d - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Frame::new(2, 2);
        let b = Frame::new(3, 2);
        assert!(a.match_score(&b, 0).is_err());
        assert!(a.mean_abs_diff(&b).is_err());
    }

    #[test]
    fn enumerate_visits_all() {
        let f = Frame::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 0));
        let v: Vec<_> = f.enumerate().collect();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], (0, 0, Rgb::new(0, 0, 0)));
        assert_eq!(v[5], (2, 1, Rgb::new(2, 1, 0)));
    }
}
