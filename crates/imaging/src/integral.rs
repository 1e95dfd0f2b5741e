//! Integral images for O(1) rectangular window sums.
//!
//! The specific-object-tracking attack sweeps windows across the
//! reconstructed background and must repeatedly evaluate "what fraction of
//! this window was recovered" (the ≥50 %-recovered guard of §VIII-D); an
//! integral image over the recovery mask answers that in constant time.

use crate::mask::Mask;

/// Summed-area table over a scalar channel.
#[derive(Debug, Clone)]
pub struct Integral {
    width: usize,
    height: usize,
    /// `(width + 1) × (height + 1)` table, row-major, with a zero border.
    table: Vec<u64>,
}

impl Integral {
    /// Builds the integral of an arbitrary per-pixel scalar in `[0, 255]`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u64) -> Self {
        let tw = width + 1;
        let mut table = vec![0u64; tw * (height + 1)];
        for y in 0..height {
            let mut row_sum = 0u64;
            for x in 0..width {
                row_sum += f(x, y);
                table[(y + 1) * tw + (x + 1)] = table[y * tw + (x + 1)] + row_sum;
            }
        }
        Integral {
            width,
            height,
            table,
        }
    }

    /// Integral of a mask (1 per foreground pixel).
    ///
    /// Reads the packed rows directly: each pixel costs one shift-and-mask
    /// of the row word it lives in, with no per-pixel bounds checks or row
    /// re-indexing.
    pub fn of_mask(mask: &Mask) -> Self {
        let (w, h) = mask.dims();
        let tw = w + 1;
        let mut table = vec![0u64; tw * (h + 1)];
        for y in 0..h {
            let row = mask.row_words(y);
            let mut row_sum = 0u64;
            for x in 0..w {
                row_sum += (row[x / 64] >> (x % 64)) & 1;
                table[(y + 1) * tw + (x + 1)] = table[y * tw + (x + 1)] + row_sum;
            }
        }
        Integral {
            width: w,
            height: h,
            table,
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sum over the window with top-left `(x, y)` and size `w × h`, clipped
    /// to the image. An empty (fully clipped) window sums to 0.
    pub fn window_sum(&self, x: usize, y: usize, w: usize, h: usize) -> u64 {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        let x0 = x.min(self.width);
        let y0 = y.min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return 0;
        }
        let tw = self.width + 1;
        self.table[y1 * tw + x1] + self.table[y0 * tw + x0]
            - self.table[y0 * tw + x1]
            - self.table[y1 * tw + x0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sum_matches_naive() {
        let m = Mask::from_fn(7, 5, |x, y| (x * 31 + y * 17) % 3 == 0);
        let integral = Integral::of_mask(&m);
        for y in 0..5 {
            for x in 0..7 {
                for h in 1..=3 {
                    for w in 1..=3 {
                        let naive: u64 = (y..(y + h).min(5))
                            .flat_map(|yy| (x..(x + w).min(7)).map(move |xx| (xx, yy)))
                            .filter(|&(xx, yy)| m.get(xx, yy))
                            .count() as u64;
                        assert_eq!(integral.window_sum(x, y, w, h), naive);
                    }
                }
            }
        }
    }

    #[test]
    fn full_window_equals_count() {
        let m = Mask::from_fn(9, 9, |x, _| x % 2 == 0);
        let integral = Integral::of_mask(&m);
        assert_eq!(integral.window_sum(0, 0, 9, 9), m.count_set() as u64);
    }

    #[test]
    fn clipped_window_is_partial() {
        let m = Mask::full(4, 4);
        let integral = Integral::of_mask(&m);
        assert_eq!(integral.window_sum(2, 2, 10, 10), 4);
        assert_eq!(integral.window_sum(4, 4, 2, 2), 0);
    }
}
