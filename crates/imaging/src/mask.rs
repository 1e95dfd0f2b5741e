//! Binary masks.
//!
//! §III defines a background mask `BMⁱ` as a bitmap the size of the frame with
//! non-zero pixels marking foreground.
//! The reconstruction framework manipulates three binary masks per frame
//! (VBMⁱ, BBMⁱ, VCMⁱ) and relies on set algebra over them (§V-E), so [`Mask`]
//! provides union/intersection/difference/complement plus counting helpers.
//!
//! # Representation
//!
//! A mask is stored as bit-packed `u64` rows: each image row occupies
//! `⌈width / 64⌉` words, pixel `x` living in bit `x % 64` of word `x / 64`.
//! All set algebra, counting and iteration run word-parallel — one `u64`
//! operation covers 64 pixels — which is what keeps the per-frame mask
//! pipeline (VBM → BBM → VCM → residue) cheap at scale. Any bits of a row's
//! last word beyond `width` are **always zero**; every constructor and
//! mutator maintains that invariant, so equality, popcounts and word-level
//! consumers never have to mask the tail themselves.

use crate::error::ImagingError;

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// Mask of the bits actually used by the *last* word of a row of the given
/// `width` (all-ones when the row ends exactly on a word boundary).
#[inline]
fn tail_mask(width: usize) -> u64 {
    match width % WORD_BITS {
        0 => !0u64,
        rem => (1u64 << rem) - 1,
    }
}

/// A binary bitmap with the same resolution as its frame.
///
/// `true` marks foreground (the paper's `(255,255,255)` value), `false`
/// background (§III). Pixels are bit-packed into `u64` words row by row;
/// see the module docs for the layout and the zero-tail invariant.
///
/// # Example
///
/// ```
/// use bb_imaging::Mask;
/// let mut m = Mask::new(4, 4);
/// m.set(1, 1, true);
/// assert_eq!(m.count_set(), 1);
/// assert_eq!(m.coverage(), 1.0 / 16.0);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Mask {
    width: usize,
    height: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl Clone for Mask {
    fn clone(&self) -> Self {
        Mask {
            words: self.words.clone(),
            ..*self
        }
    }

    /// Copies `source` into `self`, reusing `self`'s word buffer.
    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.height = source.height;
        self.words_per_row = source.words_per_row;
        self.words.clone_from(&source.words);
    }
}

impl Mask {
    /// Creates an all-background mask.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        let words_per_row = width.div_ceil(WORD_BITS);
        Mask {
            width,
            height,
            words_per_row,
            words: vec![0u64; words_per_row * height],
        }
    }

    /// Reshapes `self` into an all-background `width × height` mask,
    /// reusing its word buffer: the `*_into` kernels write into masks that
    /// held another frame, or another size, before.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn reset(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        self.width = width;
        self.height = height;
        self.words_per_row = width.div_ceil(WORD_BITS);
        // Cleared first, so the resize zero-fills every word.
        self.words.clear();
        self.words.resize(self.words_per_row * height, 0);
    }

    /// Reshapes `self` to `width × height` for a kernel that then stores
    /// every word: unlike [`Mask::reset`], the words it keeps are not
    /// cleared.
    pub(crate) fn reshape_for_overwrite(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        self.width = width;
        self.height = height;
        self.words_per_row = width.div_ceil(WORD_BITS);
        self.words.resize(self.words_per_row * height, 0);
    }

    /// Creates an all-foreground mask.
    pub fn full(width: usize, height: usize) -> Self {
        let mut m = Mask::new(width, height);
        m.words.fill(!0u64);
        let tail = tail_mask(width);
        for y in 0..height {
            m.words[(y + 1) * m.words_per_row - 1] &= tail;
        }
        m
    }

    /// Builds a mask from a predicate called as `f(x, y)`, row-major with
    /// `x` fastest (the same visit order as the historical `Vec<bool>`
    /// implementation, so stateful predicates behave identically).
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Mask::new(width, height);
        for y in 0..height {
            let base = y * m.words_per_row;
            for wi in 0..m.words_per_row {
                let lo = wi * WORD_BITS;
                let hi = (lo + WORD_BITS).min(width);
                let mut word = 0u64;
                for x in lo..hi {
                    word |= u64::from(f(x, y)) << (x - lo);
                }
                m.words[base + wi] = word;
            }
        }
        m
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of `u64` words backing each row (`⌈width / 64⌉`).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `y`. Bit `x % 64` of word `x / 64` is pixel
    /// `(x, y)`; bits at or beyond `width` in the last word are zero.
    ///
    /// # Panics
    ///
    /// Panics when `y` is out of bounds.
    #[inline]
    pub fn row_words(&self, y: usize) -> &[u64] {
        &self.words[y * self.words_per_row..(y + 1) * self.words_per_row]
    }

    /// Overwrites word `wi` of row `y`. Bits beyond `width` in a row's last
    /// word are cleared automatically, preserving the zero-tail invariant.
    ///
    /// # Panics
    ///
    /// Panics when `y` or `wi` is out of bounds.
    #[inline]
    pub fn set_row_word(&mut self, y: usize, wi: usize, word: u64) {
        assert!(y < self.height && wi < self.words_per_row);
        let masked = if wi + 1 == self.words_per_row {
            word & tail_mask(self.width)
        } else {
            word
        };
        self.words[y * self.words_per_row + wi] = masked;
    }

    /// The bits of columns `x0..=x1` within a row, word by word: yields
    /// `(word index, bit mask)` pairs covering the span.
    fn span_words(x0: usize, x1: usize) -> impl Iterator<Item = (usize, u64)> {
        let (w0, w1) = (x0 / WORD_BITS, x1 / WORD_BITS);
        (w0..=w1).map(move |wi| {
            let lo = if wi == w0 { x0 % WORD_BITS } else { 0 };
            let hi = if wi == w1 {
                x1 % WORD_BITS
            } else {
                WORD_BITS - 1
            };
            (wi, (!0u64 << lo) & (!0u64 >> (WORD_BITS - 1 - hi)))
        })
    }

    /// Sets columns `x0..=x1` of row `y`, a word at a time.
    pub(crate) fn fill_span(&mut self, y: usize, x0: usize, x1: usize) {
        debug_assert!(x0 <= x1 && x1 < self.width && y < self.height);
        let base = y * self.words_per_row;
        for (wi, bits) in Self::span_words(x0, x1) {
            self.words[base + wi] |= bits;
        }
    }

    /// Number of set pixels among columns `x0..=x1` of row `y`.
    pub(crate) fn count_span(&self, y: usize, x0: usize, x1: usize) -> usize {
        debug_assert!(x0 <= x1 && x1 < self.width && y < self.height);
        let row = self.row_words(y);
        Self::span_words(x0, x1)
            .map(|(wi, bits)| (row[wi] & bits).count_ones() as usize)
            .sum()
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        debug_assert!(x < self.width && y < self.height);
        let word = self.words[y * self.words_per_row + x / WORD_BITS];
        (word >> (x % WORD_BITS)) & 1 == 1
    }

    /// Value at `(x, y)`, or `false` when out of bounds.
    #[inline]
    pub fn get_or_false(&self, x: i64, y: i64) -> bool {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.get(x as usize, y as usize)
        } else {
            false
        }
    }

    /// Value at flat row-major *pixel* index `i` (i.e. `y * width + x`; not
    /// a word index).
    #[inline]
    pub fn get_index(&self, i: usize) -> bool {
        self.get(i % self.width, i / self.width)
    }

    /// Sets the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: bool) {
        debug_assert!(x < self.width && y < self.height);
        let word = &mut self.words[y * self.words_per_row + x / WORD_BITS];
        let bit = 1u64 << (x % WORD_BITS);
        if v {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Sets the value at flat row-major *pixel* index `i`.
    #[inline]
    pub fn set_index(&mut self, i: usize, v: bool) {
        self.set(i % self.width, i / self.width, v);
    }

    /// Iterates every pixel value in row-major order (the replacement for
    /// the historical `bits()` slice accessor).
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.height).flat_map(move |y| {
            let row = self.row_words(y);
            (0..self.width).map(move |x| (row[x / WORD_BITS] >> (x % WORD_BITS)) & 1 == 1)
        })
    }

    /// Number of foreground pixels (word-parallel popcount).
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of foreground pixels in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.count_set() as f64 / (self.width * self.height) as f64
    }

    /// True when no pixel is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Checks dimension equality with another mask.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn check_same_dims(&self, other: &Mask) -> Result<(), ImagingError> {
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

    /// Set union (`self ∪ other`).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn union(&self, other: &Mask) -> Result<Mask, ImagingError> {
        let mut out = self.clone();
        out.union_in_place(other)?;
        Ok(out)
    }

    /// Set intersection (`self ∩ other`).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn intersect(&self, other: &Mask) -> Result<Mask, ImagingError> {
        let mut out = self.clone();
        out.intersect_in_place(other)?;
        Ok(out)
    }

    /// Set difference (`self \ other`) — the residue operator of §V-E, where
    /// leaked background is what remains after removing VB, BB and VC.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn subtract(&self, other: &Mask) -> Result<Mask, ImagingError> {
        let mut out = self.clone();
        out.subtract_in_place(other)?;
        Ok(out)
    }

    /// Complement (`¬self`).
    pub fn complement(&self) -> Mask {
        let mut out = self.clone();
        out.complement_in_place();
        out
    }

    /// In-place union (`self ← self ∪ other`).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn union_in_place(&mut self, other: &Mask) -> Result<(), ImagingError> {
        self.check_same_dims(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
        Ok(())
    }

    /// In-place intersection (`self ← self ∩ other`).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn intersect_in_place(&mut self, other: &Mask) -> Result<(), ImagingError> {
        self.check_same_dims(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
        Ok(())
    }

    /// In-place difference (`self ← self \ other`).
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::DimensionMismatch`] when sizes differ.
    pub fn subtract_in_place(&mut self, other: &Mask) -> Result<(), ImagingError> {
        self.check_same_dims(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
        Ok(())
    }

    /// In-place complement (`self ← ¬self`).
    pub fn complement_in_place(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        let tail = tail_mask(self.width);
        for y in 0..self.height {
            self.words[(y + 1) * self.words_per_row - 1] &= tail;
        }
    }

    /// Iterates over the `(x, y)` coordinates of all foreground pixels in
    /// row-major order, skipping all-zero words entirely — leak masks are
    /// sparse, so most words cost one comparison.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let wpr = self.words_per_row;
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(move |(wi, &word)| {
                let y = wi / wpr;
                let x_base = (wi % wpr) * WORD_BITS;
                SetBits(word).map(move |b| (x_base + b, y))
            })
    }

    /// Bounding box `(x0, y0, x1, y1)` of the foreground (inclusive), or
    /// `None` when empty. Scans word-wise: per non-zero word one
    /// trailing/leading-zero count, no per-pixel work.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        let mut rows = None;
        let (mut x0, mut x1) = (usize::MAX, 0usize);
        for y in 0..self.height {
            let mut row_has_any = false;
            for (wi, &word) in self.row_words(y).iter().enumerate() {
                if word == 0 {
                    continue;
                }
                row_has_any = true;
                x0 = x0.min(wi * WORD_BITS + word.trailing_zeros() as usize);
                x1 = x1.max(wi * WORD_BITS + (WORD_BITS - 1) - word.leading_zeros() as usize);
            }
            if row_has_any {
                rows = Some(match rows {
                    None => (y, y),
                    Some((y0, _)) => (y0, y),
                });
            }
        }
        rows.map(|(y0, y1)| (x0, y0, x1, y1))
    }
}

/// Packs up to 64 bytes of 0/1 values into one word, byte `k` to bit `k`.
///
/// Eight bytes at a time with one multiply: the multiplier places byte
/// `k`'s low bit at bit `56 + k` of the product, and every intermediate bit
/// position receives exactly one term, so no carries cross between lanes.
/// Bytes must be 0 or 1; anything else corrupts the packing (enforced with
/// a debug assertion).
pub(crate) fn pack_bytes(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() <= WORD_BITS && bytes.iter().all(|&b| b <= 1));
    let mut word = 0u64;
    for (g, group) in bytes.chunks(8).enumerate() {
        let mut raw = [0u8; 8];
        raw[..group.len()].copy_from_slice(group);
        let x = u64::from_le_bytes(raw);
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    word
}

/// Iterator over the set bit positions of a single word (ascending).
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(w: usize, h: usize) -> Mask {
        Mask::from_fn(w, h, |x, y| (x + y) % 2 == 0)
    }

    #[test]
    fn new_is_empty() {
        let m = Mask::new(3, 3);
        assert!(m.is_empty());
        assert_eq!(m.count_set(), 0);
    }

    #[test]
    fn full_covers_everything() {
        let m = Mask::full(3, 3);
        assert_eq!(m.count_set(), 9);
        assert_eq!(m.coverage(), 1.0);
    }

    #[test]
    fn full_keeps_tail_bits_clear_on_partial_words() {
        // Width 70 spills 6 bits into a second word per row; the unused 58
        // bits must stay zero so popcounts stay exact.
        let m = Mask::full(70, 3);
        assert_eq!(m.count_set(), 210);
        assert_eq!(m.words_per_row(), 2);
        assert_eq!(m.row_words(1)[1], (1u64 << 6) - 1);
    }

    #[test]
    fn union_intersect_difference() {
        let a = checker(4, 4);
        let b = a.complement();
        assert_eq!(a.union(&b).unwrap(), Mask::full(4, 4));
        assert!(a.intersect(&b).unwrap().is_empty());
        assert_eq!(a.subtract(&b).unwrap(), a);
        assert!(a.subtract(&a).unwrap().is_empty());
    }

    #[test]
    fn complement_involution() {
        let a = checker(5, 3);
        assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn complement_respects_partial_tail_word() {
        let m = Mask::new(65, 2);
        let c = m.complement();
        assert_eq!(c.count_set(), 130);
        assert_eq!(c, Mask::full(65, 2));
    }

    #[test]
    fn union_in_place_matches_union() {
        let a = checker(4, 4);
        let b = Mask::from_fn(4, 4, |x, _| x == 0);
        let mut c = a.clone();
        c.union_in_place(&b).unwrap();
        assert_eq!(c, a.union(&b).unwrap());
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = Mask::new(2, 2);
        let b = Mask::new(3, 2);
        assert!(a.union(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.subtract(&b).is_err());
    }

    #[test]
    fn get_or_false_handles_out_of_bounds() {
        let m = Mask::full(2, 2);
        assert!(m.get_or_false(0, 0));
        assert!(!m.get_or_false(-1, 0));
        assert!(!m.get_or_false(0, 2));
    }

    #[test]
    fn index_accessors_are_row_major_pixel_indices() {
        let mut m = Mask::new(100, 3);
        m.set_index(2 * 100 + 97, true);
        assert!(m.get(97, 2));
        assert!(m.get_index(297));
        assert_eq!(m.count_set(), 1);
    }

    #[test]
    fn iter_matches_get_across_word_boundary() {
        let m = Mask::from_fn(67, 2, |x, y| (x * 7 + y) % 3 == 0);
        let flat: Vec<bool> = m.iter().collect();
        assert_eq!(flat.len(), 134);
        for (i, v) in flat.iter().enumerate() {
            assert_eq!(*v, m.get(i % 67, i / 67));
        }
    }

    #[test]
    fn set_row_word_clears_tail() {
        let mut m = Mask::new(65, 1);
        m.set_row_word(0, 1, !0u64);
        assert_eq!(m.count_set(), 1);
        assert!(m.get(64, 0));
    }

    #[test]
    fn bounding_box_of_empty_is_none() {
        assert_eq!(Mask::new(4, 4).bounding_box(), None);
    }

    #[test]
    fn bounding_box_covers_set_pixels() {
        let mut m = Mask::new(10, 10);
        m.set(2, 3, true);
        m.set(7, 5, true);
        assert_eq!(m.bounding_box(), Some((2, 3, 7, 5)));
    }

    #[test]
    fn bounding_box_spans_words() {
        let mut m = Mask::new(130, 4);
        m.set(1, 1, true);
        m.set(128, 3, true);
        assert_eq!(m.bounding_box(), Some((1, 1, 128, 3)));
    }

    #[test]
    fn iter_set_yields_coordinates() {
        let mut m = Mask::new(3, 2);
        m.set(2, 1, true);
        let v: Vec<_> = m.iter_set().collect();
        assert_eq!(v, vec![(2, 1)]);
    }

    #[test]
    fn iter_set_order_is_row_major() {
        let m = Mask::from_fn(70, 3, |x, y| (x + y) % 13 == 0);
        let via_iter: Vec<(usize, usize)> = m.iter_set().collect();
        let mut naive = Vec::new();
        for y in 0..3 {
            for x in 0..70 {
                if m.get(x, y) {
                    naive.push((x, y));
                }
            }
        }
        assert_eq!(via_iter, naive);
    }
}
