//! Color histograms and shape moments.
//!
//! Two paper mechanisms are built on color statistics:
//!
//! * §V-D's color-based VCM refinement flips VCM pixels whose color occurs
//!   "with a very low frequency" in the caller region — implemented via
//!   [`ColorHistogram::frequency`].
//! * The generic-object-inference substitute (RetinaNet/YOLO replacement)
//!   classifies windows by hue histogram plus shape moments
//!   ([`hue_histogram`], [`ShapeMoments`]).

use std::borrow::Cow;

use crate::frame::Frame;
use crate::mask::Mask;
use crate::pixel::Rgb;

/// A quantised RGB color histogram.
///
/// Each channel is reduced to `bits` high bits, giving `2^(3·bits)` buckets —
/// coarse enough that the small per-pixel noise introduced by blending does
/// not split a color across buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorHistogram {
    bits: u8,
    counts: Vec<u32>,
    total: u64,
}

impl ColorHistogram {
    /// Creates an empty histogram with the given per-channel quantisation
    /// (`bits` in `1..=8`).
    ///
    /// # Panics
    ///
    /// Panics when `bits` is 0 or greater than 8.
    pub fn new(bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        ColorHistogram {
            bits,
            counts: vec![0; 1usize << (3 * bits)],
            total: 0,
        }
    }

    fn bucket(&self, p: Rgb) -> usize {
        bucket(p, self.bits)
    }

    /// Adds one pixel.
    pub fn add(&mut self, p: Rgb) {
        let b = self.bucket(p);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Adds every pixel of `frame` where `mask` is foreground.
    ///
    /// Mismatched dimensions add nothing (the caller validated them upstream;
    /// this is a statistics sink, not a validator).
    pub fn add_masked(&mut self, frame: &Frame, mask: &Mask) {
        if frame.dims() != mask.dims() {
            return;
        }
        // Mask-directed: walk the packed row words and skip 64 background
        // pixels per all-zero word; all-one words take the branch-free
        // full-chunk path.
        let (_, h) = mask.dims();
        for y in 0..h {
            let row = frame.row(y);
            for (wi, &word) in mask.row_words(y).iter().enumerate() {
                if word == 0 {
                    continue;
                }
                let lo = wi * 64;
                if word == u64::MAX {
                    for &p in &row[lo..lo + 64] {
                        self.add(p);
                    }
                } else {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        self.add(row[lo + b]);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Number of samples accumulated.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The per-channel quantisation this histogram was built with.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The raw bucket counts (length `1 << (3 * bits)`), for serialization.
    pub fn bucket_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Rebuilds a histogram from its raw parts (the inverse of
    /// [`ColorHistogram::bits`] + [`ColorHistogram::bucket_counts`]); the
    /// sample total is recomputed from the counts. Returns `None` when
    /// `bits` is outside `1..=8` or the count vector has the wrong length.
    pub fn from_raw(bits: u8, counts: Vec<u32>) -> Option<ColorHistogram> {
        if !(1..=8).contains(&bits) || counts.len() != 1usize << (3 * bits) {
            return None;
        }
        let total = counts.iter().map(|&c| u64::from(c)).sum();
        Some(ColorHistogram {
            bits,
            counts,
            total,
        })
    }

    /// Relative frequency of the bucket containing `p`, in `[0, 1]`.
    /// Returns 0 for an empty histogram.
    pub fn frequency(&self, p: Rgb) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[self.bucket(p)] as f64 / self.total as f64
    }

    /// Smallest bucket count whose [`ColorHistogram::frequency`] is at
    /// least `min_freq` — i.e. `frequency(p) < min_freq` exactly when the
    /// count of `p`'s bucket is below `rarity_threshold(min_freq)`.
    ///
    /// `c ↦ (c as f64) / (total as f64)` is monotone non-decreasing in `c`
    /// (both the exact quotient and its rounding are), so a binary search
    /// with the *same float expression* finds the exact cut-over once; hot
    /// loops then test a pixel's rarity with one integer compare instead of
    /// one f64 division per pixel. Returns 0 for an empty histogram (every
    /// frequency is reported as 0, matching [`ColorHistogram::frequency`]'s
    /// guard only when `min_freq <= 0`; callers treat an empty histogram
    /// separately, as there is nothing to refine).
    pub fn rarity_threshold(&self, min_freq: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let total = self.total as f64;
        let (mut lo, mut hi) = (0u64, self.total + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid as f64 / total >= min_freq {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The buckets whose count is below `rarity_threshold(min_freq)`, as a
    /// lookup table: [`RareColors::contains`] answers the hot loops'
    /// rarity test with one table read per pixel.
    pub fn rare_colors(&self, min_freq: f64) -> RareColors {
        // `count < below` as `count <= below - 1` in the counts' own `u32`
        // lanes, which vectorise; a threshold past `u32::MAX` makes every
        // count rare, and a zero threshold none.
        let rare = match self.rarity_threshold(min_freq).checked_sub(1) {
            None => vec![false; self.counts.len()],
            Some(last) => {
                let last = u32::try_from(last).unwrap_or(u32::MAX);
                self.counts.iter().map(|&c| c <= last).collect()
            }
        };
        RareColors {
            bits: self.bits,
            rare,
        }
    }

    /// Histogram intersection similarity with another histogram of the same
    /// quantisation, in `[0, 1]` (1 = identical distributions).
    ///
    /// Returns 0 when quantisations differ or either histogram is empty.
    pub fn intersection(&self, other: &ColorHistogram) -> f64 {
        if self.bits != other.bits || self.total == 0 || other.total == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (a, b) in self.counts.iter().zip(&other.counts) {
            let fa = *a as f64 / self.total as f64;
            let fb = *b as f64 / other.total as f64;
            acc += fa.min(fb);
        }
        acc
    }
}

/// The bucket of `p` at `bits` bits per channel.
#[inline]
fn bucket(p: Rgb, bits: u8) -> usize {
    let shift = 8 - bits;
    let r = (p.r >> shift) as usize;
    let g = (p.g >> shift) as usize;
    let b = (p.b >> shift) as usize;
    (r << (2 * bits)) | (g << bits) | b
}

/// The rare buckets of a [`ColorHistogram`] at one frequency threshold
/// ([`ColorHistogram::rare_colors`]), indexed at that histogram's own
/// quantisation.
#[derive(Debug, Clone, PartialEq)]
pub struct RareColors {
    bits: u8,
    rare: Vec<bool>,
}

impl RareColors {
    /// Whether `p`'s bucket is rare: its count in the histogram this table
    /// was built from is below `rarity_threshold(min_freq)`, i.e. its
    /// `frequency` is below `min_freq`.
    #[inline]
    pub fn contains(&self, p: Rgb) -> bool {
        self.rare[bucket(p, self.bits)]
    }

    /// The colors rare in `self` or in `other`, as one table at the finer
    /// of the two quantisations, so that
    /// `union.contains(p) == self.contains(p) || other.contains(p)` for
    /// every color at one table read.
    pub fn union(&self, other: &RareColors) -> RareColors {
        let bits = self.bits.max(other.bits);
        let (a, b) = (self.at_bits(bits), other.at_bits(bits));
        RareColors {
            bits,
            rare: a.iter().zip(b.iter()).map(|(&x, &y)| x | y).collect(),
        }
    }

    /// This table requantised to `bits >= self.bits` per channel: a bucket
    /// at `bits` lies in exactly one bucket at `self.bits` (its channels
    /// shifted right) and takes that bucket's rarity.
    fn at_bits(&self, bits: u8) -> Cow<'_, [bool]> {
        if bits == self.bits {
            return Cow::Borrowed(&self.rare);
        }
        let (shift, low) = (bits - self.bits, (1usize << bits) - 1);
        let coarse = |v: usize| v >> shift;
        Cow::Owned(
            (0..1usize << (3 * bits))
                .map(|i| {
                    let (r, g, b) = (i >> (2 * bits), (i >> bits) & low, i & low);
                    self.rare[(coarse(r) << (2 * self.bits)) | (coarse(g) << self.bits) | coarse(b)]
                })
                .collect(),
        )
    }
}

/// Number of hue buckets used by [`hue_histogram`].
pub const HUE_BINS: usize = 36;

/// Minimum saturation/value for a pixel to contribute hue information;
/// grey-ish pixels have meaningless hue.
pub const HUE_MIN_SV: f32 = 0.12;

/// Normalised hue histogram (10°-wide bins) over the foreground of `mask`.
/// Low-saturation/low-value pixels are skipped because their hue is noise.
///
/// Returns an all-zero histogram when no pixel qualifies.
pub fn hue_histogram(frame: &Frame, mask: &Mask) -> [f64; HUE_BINS] {
    let mut bins = [0.0f64; HUE_BINS];
    if frame.dims() != mask.dims() {
        return bins;
    }
    let mut n = 0u64;
    for (&p, on) in frame.pixels().iter().zip(mask.iter()) {
        if !on {
            continue;
        }
        let hsv = p.to_hsv();
        if hsv.s < HUE_MIN_SV || hsv.v < HUE_MIN_SV {
            continue;
        }
        let bin = ((hsv.h / 360.0 * HUE_BINS as f32) as usize).min(HUE_BINS - 1);
        bins[bin] += 1.0;
        n += 1;
    }
    if n > 0 {
        for b in &mut bins {
            *b /= n as f64;
        }
    }
    bins
}

/// Cosine similarity between two hue histograms, in `[0, 1]`.
pub fn hue_similarity(a: &[f64; HUE_BINS], b: &[f64; HUE_BINS]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Normalised central shape moments of a mask region — the translation- and
/// scale-invariant features the generic-object detector uses to tell a tall
/// bookshelf from a wide TV from a round clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeMoments {
    /// Region area in pixels.
    pub area: f64,
    /// Aspect ratio of the bounding box (width / height).
    pub aspect: f64,
    /// Fill ratio: area / bounding-box area.
    pub fill: f64,
    /// Normalised second central moment in x (elongation along x).
    pub mu20: f64,
    /// Normalised second central moment in y.
    pub mu02: f64,
    /// Normalised mixed central moment (skew of the principal axis).
    pub mu11: f64,
}

impl ShapeMoments {
    /// Computes moments over the foreground of `mask`; `None` when empty.
    pub fn of_mask(mask: &Mask) -> Option<ShapeMoments> {
        let area = mask.count_set();
        if area == 0 {
            return None;
        }
        let bbox = mask.bounding_box().expect("non-empty mask has bbox");
        let (x0, y0, x1, y1) = bbox;
        let bw = (x1 - x0 + 1) as f64;
        let bh = (y1 - y0 + 1) as f64;

        let mut sx = 0.0f64;
        let mut sy = 0.0f64;
        for (x, y) in mask.iter_set() {
            sx += x as f64;
            sy += y as f64;
        }
        let n = area as f64;
        let (cx, cy) = (sx / n, sy / n);
        let (mut m20, mut m02, mut m11) = (0.0f64, 0.0f64, 0.0f64);
        for (x, y) in mask.iter_set() {
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            m20 += dx * dx;
            m02 += dy * dy;
            m11 += dx * dy;
        }
        // Normalise by area² for scale invariance (η_pq with p+q=2).
        let norm = n * n;
        Some(ShapeMoments {
            area: n,
            aspect: bw / bh,
            fill: n / (bw * bh),
            mu20: m20 / norm,
            mu02: m02 / norm,
            mu11: m11 / norm,
        })
    }

    /// Euclidean distance in feature space (log-scaled aspect to keep the
    /// measure symmetric between wide and tall shapes).
    pub fn distance(&self, other: &ShapeMoments) -> f64 {
        let d_aspect = (self.aspect.ln() - other.aspect.ln()).abs();
        let d_fill = (self.fill - other.fill).abs();
        let d20 = (self.mu20 - other.mu20).abs();
        let d02 = (self.mu02 - other.mu02).abs();
        let d11 = (self.mu11 - other.mu11).abs();
        (d_aspect * d_aspect + d_fill * d_fill + 4.0 * (d20 * d20 + d02 * d02 + d11 * d11)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_frequency_sums() {
        let mut h = ColorHistogram::new(4);
        for _ in 0..3 {
            h.add(Rgb::new(255, 0, 0));
        }
        h.add(Rgb::new(0, 255, 0));
        assert_eq!(h.total(), 4);
        assert!((h.frequency(Rgb::new(255, 0, 0)) - 0.75).abs() < 1e-12);
        assert!((h.frequency(Rgb::new(0, 255, 0)) - 0.25).abs() < 1e-12);
        assert_eq!(h.frequency(Rgb::new(0, 0, 255)), 0.0);
    }

    #[test]
    fn histogram_quantisation_groups_similar_colors() {
        let mut h = ColorHistogram::new(3); // 32-wide buckets
        h.add(Rgb::new(100, 100, 100));
        assert_eq!(h.frequency(Rgb::new(101, 99, 100)), 1.0);
        assert_eq!(h.frequency(Rgb::new(140, 100, 100)), 0.0);
    }

    #[test]
    fn empty_histogram_frequency_zero() {
        let h = ColorHistogram::new(4);
        assert_eq!(h.frequency(Rgb::WHITE), 0.0);
    }

    #[test]
    fn rarity_threshold_matches_frequency_predicate() {
        // For every count value the integer cut-over must reproduce the
        // float comparison exactly, including awkward thresholds.
        let mut h = ColorHistogram::new(2);
        let mut state = 7u64;
        for _ in 0..997 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.add(Rgb::new(
                (state >> 16) as u8,
                (state >> 24) as u8,
                (state >> 32) as u8,
            ));
        }
        for min_freq in [
            0.0,
            1e-9,
            0.001,
            0.02,
            0.03,
            1.0 / 3.0,
            0.5,
            0.999,
            1.0,
            1.5,
        ] {
            let cut = h.rarity_threshold(min_freq);
            for c in 0..=h.total() {
                let by_freq = (c as f64 / h.total() as f64) < min_freq;
                assert_eq!(c < cut, by_freq, "count {c} at min_freq {min_freq}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=8")]
    fn histogram_rejects_zero_bits() {
        let _ = ColorHistogram::new(0);
    }

    #[test]
    fn intersection_of_identical_is_one() {
        let mut a = ColorHistogram::new(4);
        let mut b = ColorHistogram::new(4);
        for v in [10u8, 50, 90, 200] {
            a.add(Rgb::grey(v));
            b.add(Rgb::grey(v));
        }
        assert!((a.intersection(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_of_disjoint_is_zero() {
        let mut a = ColorHistogram::new(4);
        let mut b = ColorHistogram::new(4);
        a.add(Rgb::new(255, 0, 0));
        b.add(Rgb::new(0, 0, 255));
        assert_eq!(a.intersection(&b), 0.0);
    }

    #[test]
    fn add_masked_respects_mask() {
        let f = Frame::filled(2, 2, Rgb::new(200, 10, 10));
        let mut m = Mask::new(2, 2);
        m.set(0, 0, true);
        let mut h = ColorHistogram::new(4);
        h.add_masked(&f, &m);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn hue_histogram_peaks_at_red() {
        let f = Frame::filled(4, 4, Rgb::new(255, 0, 0));
        let m = Mask::full(4, 4);
        let bins = hue_histogram(&f, &m);
        assert!((bins[0] - 1.0).abs() < 1e-12);
        assert_eq!(bins[18], 0.0);
    }

    #[test]
    fn hue_histogram_skips_grey() {
        let f = Frame::filled(4, 4, Rgb::grey(128));
        let bins = hue_histogram(&f, &Mask::full(4, 4));
        assert!(bins.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn hue_similarity_bounds() {
        let f = Frame::filled(4, 4, Rgb::new(0, 255, 0));
        let g = Frame::filled(4, 4, Rgb::new(0, 0, 255));
        let m = Mask::full(4, 4);
        let a = hue_histogram(&f, &m);
        let b = hue_histogram(&g, &m);
        assert!((hue_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(hue_similarity(&a, &b), 0.0);
    }

    #[test]
    fn moments_distinguish_wide_and_tall() {
        let wide = Mask::from_fn(20, 20, |x, y| {
            (2..=17).contains(&x) && (8..=11).contains(&y)
        });
        let tall = Mask::from_fn(20, 20, |x, y| {
            (8..=11).contains(&x) && (2..=17).contains(&y)
        });
        let mw = ShapeMoments::of_mask(&wide).unwrap();
        let mt = ShapeMoments::of_mask(&tall).unwrap();
        assert!(mw.aspect > 1.0);
        assert!(mt.aspect < 1.0);
        assert!(mw.distance(&mt) > 0.5);
        assert_eq!(mw.distance(&mw), 0.0);
    }

    #[test]
    fn moments_scale_invariant() {
        let small = Mask::from_fn(10, 10, |x, y| (2..=5).contains(&x) && (3..=6).contains(&y));
        let big = Mask::from_fn(40, 40, |x, y| {
            (8..=23).contains(&x) && (12..=27).contains(&y)
        });
        let ms = ShapeMoments::of_mask(&small).unwrap();
        let mb = ShapeMoments::of_mask(&big).unwrap();
        assert!(ms.distance(&mb) < 0.05, "distance {}", ms.distance(&mb));
    }

    #[test]
    fn moments_of_empty_is_none() {
        assert!(ShapeMoments::of_mask(&Mask::new(3, 3)).is_none());
    }
}
