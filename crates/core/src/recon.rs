//! The reconstruction canvas (§V-E).
//!
//! "The residual (leaked background) pixels in all frames are then combined
//! to form a (partially) reconstructed real background." Combination uses a
//! per-pixel majority vote (Boyer–Moore) over the observed colors: genuine
//! background leaks repeat with a consistent color across frames, while
//! false residue (blend mixtures, mis-segmented caller fragments) varies —
//! so the majority color is the background with high probability. The
//! observation count doubles as a confidence signal for the attacks.

use crate::CoreError;
use bb_imaging::{Frame, Mask, Rgb};

/// Color agreement tolerance for the majority vote (absorbs sensor noise
/// between observations of the same background pixel).
pub const VOTE_TAU: u8 = 14;

/// Accumulates per-frame leaked-background residues into a partial
/// background image.
///
/// Accumulation is order-sensitive (majority voting); callers must feed
/// frames in call order. The pipeline computes per-frame residues in
/// parallel and accumulates sequentially.
///
/// # Example
///
/// ```
/// use bb_core::ReconstructionCanvas;
/// use bb_imaging::{Frame, Mask, Rgb};
///
/// let mut canvas = ReconstructionCanvas::new(8, 8);
/// let frame = Frame::filled(8, 8, Rgb::new(10, 20, 30));
/// let mut leak = Mask::new(8, 8);
/// leak.set(3, 3, true);
/// canvas.accumulate(&frame, &leak).unwrap();
/// assert_eq!(canvas.recovered_mask().count_set(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionCanvas {
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) colors: Vec<Option<Rgb>>,
    pub(crate) votes: Vec<i32>,
    pub(crate) counts: Vec<u32>,
    /// How many `colors` are `Some`, kept as they fill: a pixel is
    /// recovered once and never lost.
    recovered: usize,
}

impl ReconstructionCanvas {
    /// Creates an empty canvas.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "canvas dimensions must be non-zero"
        );
        ReconstructionCanvas {
            width,
            height,
            colors: vec![None; width * height],
            votes: vec![0; width * height],
            counts: vec![0; width * height],
            recovered: 0,
        }
    }

    /// `(width, height)` pair.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Adds one frame's leaked residue (call in frame order).
    ///
    /// Per pixel, colors compete by Boyer–Moore majority vote: an
    /// observation matching the current candidate (within [`VOTE_TAU`])
    /// reinforces it; a mismatching observation weakens it, and the
    /// observation that drains the candidate's votes to zero replaces it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CanvasDimensionMismatch`] when `frame` or `leak`
    /// does not match the canvas geometry — an entire frame's residue would
    /// otherwise be silently dropped.
    pub fn accumulate(&mut self, frame: &Frame, leak: &Mask) -> Result<(), CoreError> {
        for got in [frame.dims(), leak.dims()] {
            if got != (self.width, self.height) {
                return Err(CoreError::CanvasDimensionMismatch {
                    expected: (self.width, self.height),
                    got,
                });
            }
        }
        // Mask-directed: walk the leak's packed row words — an all-zero word
        // skips 64 pixels for one comparison, and set pixels index the
        // contiguous frame row and per-row canvas slices directly.
        for y in 0..self.height {
            let row = frame.row(y);
            let base = y * self.width;
            for (wi, &word) in leak.row_words(y).iter().enumerate() {
                if word == 0 {
                    continue;
                }
                let lo = wi * 64;
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = base + lo + b;
                    let observed = row[lo + b];
                    self.counts[idx] += 1;
                    match self.colors[idx] {
                        None => {
                            self.colors[idx] = Some(observed);
                            self.votes[idx] = 1;
                            self.recovered += 1;
                        }
                        Some(current) => {
                            if observed.matches(current, VOTE_TAU) {
                                self.votes[idx] += 1;
                            } else {
                                self.votes[idx] -= 1;
                                // Boyer–Moore: the dissenting observation
                                // that takes the count to zero becomes the
                                // new candidate. (The historical `< 0`
                                // threshold let a deposed color survive one
                                // extra dissent.)
                                if self.votes[idx] == 0 {
                                    self.colors[idx] = Some(observed);
                                    self.votes[idx] = 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of recovered pixels, in O(1).
    pub fn recovered_count(&self) -> usize {
        self.recovered
    }

    /// Recounts the recovered pixels after `colors` was written directly
    /// (checkpoint resume).
    pub(crate) fn recount(&mut self) {
        self.recovered = self.colors.iter().filter(|c| c.is_some()).count();
    }

    /// The mask of recovered pixels.
    pub fn recovered_mask(&self) -> Mask {
        Mask::from_fn(self.width, self.height, |x, y| {
            self.colors[y * self.width + x].is_some()
        })
    }

    /// The reconstructed background: recovered pixels in their majority
    /// colors, unknown pixels in `fill` (the paper renders them black).
    pub fn to_frame(&self, fill: Rgb) -> Frame {
        let mut f = Frame::filled(self.width, self.height, fill);
        for (px, c) in f.pixels_mut().iter_mut().zip(&self.colors) {
            if let Some(color) = c {
                *px = *color;
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_color_wins() {
        let mut canvas = ReconstructionCanvas::new(4, 4);
        let good = Frame::filled(4, 4, Rgb::new(10, 200, 10));
        let bad = Frame::filled(4, 4, Rgb::new(200, 10, 10));
        let mut leak = Mask::new(4, 4);
        leak.set(1, 1, true);
        // Pollution first, then repeated truth.
        canvas.accumulate(&bad, &leak).unwrap();
        canvas.accumulate(&good, &leak).unwrap();
        canvas.accumulate(&good, &leak).unwrap();
        canvas.accumulate(&good, &leak).unwrap();
        assert_eq!(canvas.colors[5], Some(Rgb::new(10, 200, 10))); // (1, 1)
        assert_eq!(canvas.counts[5], 4);
    }

    #[test]
    fn dissent_that_zeroes_votes_replaces_candidate() {
        // Boyer–Moore regression for the off-by-one threshold: one pollution
        // observation holds exactly one vote, so the very first dissenting
        // truth observation drains it to zero and must take over. The old
        // `votes < 0` threshold kept the pollution color alive here.
        let mut canvas = ReconstructionCanvas::new(2, 2);
        let pollution = Frame::filled(2, 2, Rgb::new(200, 10, 10));
        let truth = Frame::filled(2, 2, Rgb::new(10, 200, 10));
        let mut leak = Mask::new(2, 2);
        leak.set(0, 0, true);
        canvas.accumulate(&pollution, &leak).unwrap();
        canvas.accumulate(&truth, &leak).unwrap();
        assert_eq!(canvas.colors[0], Some(Rgb::new(10, 200, 10)));

        // And the exact sequence P T P T T: votes walk 1→(replace)1→0/replace
        // →1→2, ending on truth with two supporting votes.
        let mut canvas = ReconstructionCanvas::new(2, 2);
        for f in [&pollution, &truth, &pollution, &truth, &truth] {
            canvas.accumulate(f, &leak).unwrap();
        }
        assert_eq!(canvas.colors[0], Some(Rgb::new(10, 200, 10)));
        assert_eq!(canvas.counts[0], 5);
    }

    #[test]
    fn single_observation_is_kept() {
        let mut canvas = ReconstructionCanvas::new(4, 4);
        let f = Frame::filled(4, 4, Rgb::new(1, 2, 3));
        let mut leak = Mask::new(4, 4);
        leak.set(0, 0, true);
        canvas.accumulate(&f, &leak).unwrap();
        assert_eq!(canvas.colors[0], Some(Rgb::new(1, 2, 3)));
        assert_eq!(canvas.recovered_count(), 1);
    }

    #[test]
    fn noisy_same_color_reinforces() {
        let mut canvas = ReconstructionCanvas::new(2, 2);
        let mut leak = Mask::new(2, 2);
        leak.set(0, 0, true);
        for d in 0..10u8 {
            let f = Frame::filled(2, 2, Rgb::new(100 + d % 3, 100, 100));
            canvas.accumulate(&f, &leak).unwrap();
        }
        // All within VOTE_TAU of the first → candidate survives.
        let c = canvas.colors[0].unwrap();
        assert!(c.matches(Rgb::new(100, 100, 100), 3));
    }

    #[test]
    fn accumulation_is_monotone() {
        let mut canvas = ReconstructionCanvas::new(6, 6);
        let f = Frame::filled(6, 6, Rgb::WHITE);
        let mut prev = 0;
        for i in 0..6 {
            let mut leak = Mask::new(6, 6);
            leak.set(i, i, true);
            canvas.accumulate(&f, &leak).unwrap();
            assert!(canvas.recovered_count() >= prev);
            prev = canvas.recovered_count();
        }
        assert_eq!(prev, 6);
    }

    #[test]
    fn mismatched_dims_is_error() {
        let mut canvas = ReconstructionCanvas::new(4, 4);
        let r = canvas.accumulate(&Frame::filled(5, 5, Rgb::WHITE), &Mask::full(5, 5));
        assert_eq!(
            r,
            Err(CoreError::CanvasDimensionMismatch {
                expected: (4, 4),
                got: (5, 5),
            })
        );
        // A frame matching the canvas but a leak mask that doesn't is also
        // rejected, and nothing is accumulated either way.
        let r = canvas.accumulate(&Frame::filled(4, 4, Rgb::WHITE), &Mask::full(4, 5));
        assert_eq!(
            r,
            Err(CoreError::CanvasDimensionMismatch {
                expected: (4, 4),
                got: (4, 5),
            })
        );
        assert_eq!(canvas.recovered_count(), 0);
    }

    #[test]
    fn to_frame_fills_unknown() {
        let mut canvas = ReconstructionCanvas::new(3, 3);
        let f = Frame::filled(3, 3, Rgb::new(9, 9, 9));
        let mut leak = Mask::new(3, 3);
        leak.set(0, 0, true);
        canvas.accumulate(&f, &leak).unwrap();
        let out = canvas.to_frame(Rgb::BLACK);
        assert_eq!(out.get(0, 0), Rgb::new(9, 9, 9));
        assert_eq!(out.get(2, 2), Rgb::BLACK);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_canvas_panics() {
        let _ = ReconstructionCanvas::new(0, 4);
    }
}
