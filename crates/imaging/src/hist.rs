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
        for_each_masked(frame, mask, |p| self.add(p));
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
        rarity_threshold(self.total, min_freq)
    }

    /// The buckets whose count is below `rarity_threshold(min_freq)`, as a
    /// bit-packed lookup table: [`RareColors::contains`] answers a color's
    /// rarity with one table read.
    pub fn rare_colors(&self, min_freq: f64) -> RareColors {
        // Packed 64 buckets to a word. The table is built once per lock,
        // off the per-frame path.
        let below = self.rarity_threshold(min_freq);
        let rare = self
            .counts
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |word, (i, &c)| {
                    word | (u64::from(u64::from(c) < below) << i)
                })
            })
            .collect();
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

/// Smallest bucket count whose frequency `count / total` is at least
/// `min_freq` (see [`ColorHistogram::rarity_threshold`]); 0 for an empty
/// histogram.
fn rarity_threshold(total: u64, min_freq: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let samples = total as f64;
    let (mut lo, mut hi) = (0u64, total + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if mid as f64 / samples >= min_freq {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Calls `f` on every pixel of `frame` where `mask` is foreground, in
/// row-major order. Mask-directed: all-zero words skip 64 pixels, and
/// all-one words take the branch-free full-chunk path. Mismatched
/// dimensions visit nothing.
fn for_each_masked(frame: &Frame, mask: &Mask, mut f: impl FnMut(Rgb)) {
    if frame.dims() != mask.dims() {
        return;
    }
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
                    f(p);
                }
            } else {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    f(row[lo + b]);
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// The rare buckets of a [`ColorHistogram`] at one frequency threshold
/// ([`ColorHistogram::rare_colors`]), indexed at that histogram's own
/// quantisation and bit-packed: 4 096 buckets (4 bits per channel) take
/// 512 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct RareColors {
    bits: u8,
    /// Bucket `b` is rare when bit `b % 64` of word `b / 64` is set.
    rare: Vec<u64>,
}

impl RareColors {
    /// Whether `p`'s bucket is rare: its count in the histogram this table
    /// was built from is below `rarity_threshold(min_freq)`, i.e. its
    /// `frequency` is below `min_freq`.
    #[inline]
    pub fn contains(&self, p: Rgb) -> bool {
        self.is_rare(bucket(p, self.bits))
    }

    /// Whether bucket `b` of the table is rare.
    #[inline]
    fn is_rare(&self, b: usize) -> bool {
        (self.rare[b / 64] >> (b % 64)) & 1 == 1
    }

    /// Whether bucket `f` at `bits >= self.bits` per channel lies in a
    /// rare bucket: each channel requantised to the table's bits.
    fn contains_bucket(&self, f: usize, bits: u8) -> bool {
        let (shift, low) = (bits - self.bits, (1usize << bits) - 1);
        let coarse = |v: usize| v >> shift;
        let (r, g, b) = (f >> (2 * bits), (f >> bits) & low, f & low);
        self.is_rare((coarse(r) << (2 * self.bits)) | (coarse(g) << self.bits) | coarse(b))
    }

    /// Heap bytes the table holds.
    pub fn heap_bytes(&self) -> usize {
        self.rare.len() * std::mem::size_of::<u64>()
    }
}

/// A color histogram refilled for every frame from one allocation: the
/// §V-D refinement's per-frame histogram of the raw caller mask, with a
/// rarity flag per bucket. [`FrameHistogram::fill`] clears only the
/// buckets the previous fill touched, and [`FrameHistogram::mark_rare`]
/// flags only the buckets the filled pixels hit, so a frame costs its
/// masked pixels and its distinct colors, not the `2^(3·bits)` buckets.
#[derive(Debug, Clone)]
pub struct FrameHistogram {
    bits: u8,
    counts: Vec<u32>,
    /// The buckets whose count is non-zero, each once.
    touched: Vec<u32>,
    total: u64,
    /// Rarity flags at `rare_bits` per channel; only the buckets the
    /// filled pixels hit are current.
    rare: Vec<bool>,
    rare_bits: u8,
}

impl FrameHistogram {
    /// An empty histogram at `bits` bits per channel (`1..=8`).
    ///
    /// # Panics
    ///
    /// Panics when `bits` is 0 or greater than 8.
    pub fn new(bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        FrameHistogram {
            bits,
            counts: vec![0; 1usize << (3 * bits)],
            touched: Vec::new(),
            total: 0,
            rare: Vec::new(),
            rare_bits: bits,
        }
    }

    /// The per-channel quantisation.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Replaces the histogram's samples with the pixels of `frame` under
    /// `mask` (none when the dimensions differ): the counts
    /// [`ColorHistogram::add_masked`] would give an empty histogram. The
    /// filled buckets are noted as they fill when the mask has fewer pixels
    /// than there are buckets, and found by one scan of the counts when it
    /// has more, whichever costs less.
    pub fn fill(&mut self, frame: &Frame, mask: &Mask) {
        for &b in &self.touched {
            self.counts[b as usize] = 0;
        }
        self.touched.clear();
        let (bits, counts, touched) = (self.bits, &mut self.counts, &mut self.touched);
        let mut total = 0u64;
        if mask.count_set() < counts.len() {
            // Fewer pixels than buckets: note each bucket as it fills.
            for_each_masked(frame, mask, |p| {
                let b = bucket(p, bits);
                if counts[b] == 0 {
                    touched.push(b as u32);
                }
                counts[b] += 1;
                total += 1;
            });
        } else {
            // More pixels than buckets: count with no per-pixel branch,
            // then list the buckets that filled.
            for_each_masked(frame, mask, |p| {
                counts[bucket(p, bits)] += 1;
                total += 1;
            });
            touched.extend((0..counts.len() as u32).filter(|&b| counts[b as usize] != 0));
        }
        self.total = total;
    }

    /// Flags, for every color of the filled pixels, whether it is rare:
    /// its bucket's count is below
    /// [`ColorHistogram::rarity_threshold`]`(min_freq)` of these samples
    /// (`frequency < min_freq`), or `also` (a frozen model's table)
    /// contains it. [`FrameHistogram::is_rare`] then answers with one
    /// lookup per pixel.
    ///
    /// The flags live at the finer of the two quantisations: a bucket of
    /// the histogram spans `8^(fine − bits)` finer buckets, each in exactly
    /// one bucket of `also`.
    pub fn mark_rare(&mut self, min_freq: f64, also: Option<&RareColors>) {
        let below = rarity_threshold(self.total, min_freq);
        let fine = also.map_or(self.bits, |a| a.bits.max(self.bits));
        let spread = fine - self.bits;
        let low = (1usize << self.bits) - 1;
        self.rare_bits = fine;
        self.rare.resize(1usize << (3 * fine), false);
        for &b in &self.touched {
            let b = b as usize;
            let frame_rare = u64::from(self.counts[b]) < below;
            let (r, g, bl) = (b >> (2 * self.bits), (b >> self.bits) & low, b & low);
            for dr in 0..1usize << spread {
                for dg in 0..1usize << spread {
                    for db in 0..1usize << spread {
                        let (fr, fg, fb) =
                            ((r << spread) | dr, (g << spread) | dg, (bl << spread) | db);
                        let f = (fr << (2 * fine)) | (fg << fine) | fb;
                        self.rare[f] =
                            frame_rare || also.is_some_and(|a| a.contains_bucket(f, fine));
                    }
                }
            }
        }
    }

    /// Whether `p`, one of the filled pixels, is rare by the last
    /// [`FrameHistogram::mark_rare`].
    #[inline]
    pub fn is_rare(&self, p: Rgb) -> bool {
        self.rare[bucket(p, self.rare_bits)]
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
