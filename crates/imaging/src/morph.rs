//! Morphological operations on masks.
//!
//! The blending-blur mask of §V-C is the set of pixels within Euclidean radius
//! φ of a virtual-background pixel that are not themselves virtual-background
//! pixels — exactly the [`band`] operator here. Dilation/erosion with a disc
//! structuring element also power the matting error models in `bb-callsim`
//! and cleanup passes in `bb-segment`.
//!
//! Dilation (and everything built on it: erosion, closing, [`band`]) runs
//! word-parallel on the packed mask rows — the Euclidean disc decomposes into
//! per-row-offset horizontal dilations, each a chain of shift-OR passes over
//! 64-pixel words. The exact two-pass Euclidean distance transform
//! (Felzenszwalb & Huttenlocher, [`squared_distance_transform`]) is retained
//! both as a public primitive and as the bit-exact reference the word-level
//! fast path is tested against.

use crate::mask::{Mask, WORD_BITS};

const INF: f64 = 1e20;

/// One-dimensional squared-distance transform (Felzenszwalb–Huttenlocher).
fn dt_1d(f: &[f64], out: &mut [f64]) {
    let n = f.len();
    if n == 0 {
        return;
    }
    let mut v = vec![0usize; n];
    let mut z = vec![0.0f64; n + 1];
    let mut k = 0usize;
    v[0] = 0;
    z[0] = -INF;
    z[1] = INF;
    for q in 1..n {
        loop {
            let p = v[k];
            let s = ((f[q] + (q * q) as f64) - (f[p] + (p * p) as f64)) / (2.0 * (q - p) as f64);
            if s <= z[k] {
                if k == 0 {
                    // q strictly dominates; replace the only parabola.
                    break;
                }
                k -= 1;
            } else {
                k += 1;
                v[k] = q;
                z[k] = s;
                z[k + 1] = INF;
                break;
            }
        }
    }
    let mut k = 0usize;
    #[allow(clippy::needless_range_loop)] // q walks out[] and the parabola envelope together
    for q in 0..n {
        while z[k + 1] < q as f64 {
            k += 1;
        }
        let p = v[k];
        let d = q as f64 - p as f64;
        out[q] = d * d + f[p];
    }
}

/// Squared Euclidean distance from every pixel to the nearest foreground
/// pixel of `mask`. Foreground pixels have distance 0; if the mask is empty
/// every pixel gets a distance larger than any image diagonal.
pub fn squared_distance_transform(mask: &Mask) -> Vec<f64> {
    let (w, h) = mask.dims();
    let mut grid = vec![INF; w * h];
    for (x, y) in mask.iter_set() {
        grid[y * w + x] = 0.0;
    }
    // Columns.
    let mut col = vec![0.0f64; h];
    let mut out_col = vec![0.0f64; h];
    for x in 0..w {
        for y in 0..h {
            col[y] = grid[y * w + x];
        }
        dt_1d(&col, &mut out_col);
        for y in 0..h {
            grid[y * w + x] = out_col[y];
        }
    }
    // Rows.
    let mut row = vec![0.0f64; w];
    let mut out_row = vec![0.0f64; w];
    for y in 0..h {
        row.copy_from_slice(&grid[y * w..(y + 1) * w]);
        dt_1d(&row, &mut out_row);
        grid[y * w..(y + 1) * w].copy_from_slice(&out_row);
    }
    grid
}

/// One grow-by-one horizontal dilation pass over a row of packed words,
/// appended to `dst`: `src ∪ (src << 1) ∪ (src >> 1)` with carries across
/// word boundaries. Carries never cross rows — callers hand in one row at a
/// time.
fn grow1_row(dst: &mut Vec<u64>, src: &[u64]) {
    let n = src.len();
    dst.extend((0..n).map(|i| {
        let cur = src[i];
        let west = (cur << 1)
            | if i > 0 {
                src[i - 1] >> (WORD_BITS - 1)
            } else {
                0
            };
        let east = (cur >> 1)
            | if i + 1 < n {
                src[i + 1] << (WORD_BITS - 1)
            } else {
                0
            };
        cur | west | east
    }));
}

/// Dilates `mask` with a disc of the given `radius` (Euclidean metric).
///
/// `radius = 0` returns the mask unchanged. Allocates its output and
/// planes; [`dilate_into`] reuses them.
pub fn dilate(mask: &Mask, radius: usize) -> Mask {
    let (w, h) = mask.dims();
    let mut out = Mask::new(w, h);
    dilate_into(mask, radius, &mut ShiftPlanes::default(), &mut out);
    out
}

/// The reusable buffers of [`dilate_into`] and [`close_into`]: the
/// horizontally dilated copies of the source rows (one plane per reach
/// `0..=radius`), the disc's per-row reach and one output row. They grow
/// to the largest mask and radius they have served and are then reused
/// without allocating.
#[derive(Debug, Clone, Default)]
pub struct ShiftPlanes {
    width: usize,
    height: usize,
    words_per_row: usize,
    /// `planes[k]`: every row horizontally dilated by `k`, row-major.
    planes: Vec<Vec<u64>>,
    k_of: Vec<usize>,
    acc: Vec<u64>,
}

impl ShiftPlanes {
    /// Copies `mask`'s rows into plane 0, fixing the geometry of the next
    /// [`ShiftPlanes::dilate_to`].
    fn load(&mut self, mask: &Mask) {
        (self.width, self.height) = mask.dims();
        self.words_per_row = mask.words_per_row();
        if self.planes.is_empty() {
            self.planes.push(Vec::new());
        }
        let base = &mut self.planes[0];
        base.clear();
        base.reserve(self.height * self.words_per_row);
        for y in 0..self.height {
            base.extend_from_slice(mask.row_words(y));
        }
    }

    /// Writes the dilation of the loaded mask by a disc of `radius` into
    /// `out` (see [`dilate_into`]).
    fn dilate_to(&mut self, radius: usize, out: &mut Mask) {
        let (h, wpr) = (self.height, self.words_per_row);
        // planes[k] = all rows horizontally dilated by k, k = 0..=radius.
        if self.planes.len() <= radius {
            self.planes.resize_with(radius + 1, Vec::new);
        }
        for k in 1..=radius {
            let (done, next) = self.planes.split_at_mut(k);
            let next = &mut next[0];
            next.clear();
            next.reserve(h * wpr);
            for src in done[k - 1].chunks(wpr) {
                grow1_row(next, src);
            }
        }

        // k(dy): the widest horizontal reach of the disc at row offset dy.
        // Non-increasing in dy, so one decrementing scan computes all of them.
        let r2 = radius * radius;
        self.k_of.clear();
        let mut k = radius;
        for dy in 0..=radius {
            while k * k + dy * dy > r2 {
                k -= 1;
            }
            self.k_of.push(k);
        }

        // Every word of `out` is stored below.
        out.reshape_for_overwrite(self.width, h);
        self.acc.resize(wpr, 0);
        let row = |k: usize, y: usize| &self.planes[k][y * wpr..(y + 1) * wpr];
        for y in 0..h {
            self.acc.copy_from_slice(row(radius, y));
            for dy in 1..=radius {
                let k = self.k_of[dy];
                if y >= dy {
                    for (a, &s) in self.acc.iter_mut().zip(row(k, y - dy)) {
                        *a |= s;
                    }
                }
                if y + dy < h {
                    for (a, &s) in self.acc.iter_mut().zip(row(k, y + dy)) {
                        *a |= s;
                    }
                }
            }
            for (wi, &word) in self.acc.iter().enumerate() {
                out.set_row_word(y, wi, word);
            }
        }
    }
}

/// [`dilate`] written into `out` (reshaped to `mask`'s dimensions whatever
/// it held before), on reusable `planes`.
///
/// Runs word-parallel on the packed rows: the Euclidean disc decomposes into
/// a union over row offsets `dy ∈ [−r, r]` of *horizontal* dilations by
/// `k(dy) = ⌊√(r² − dy²)⌋`, and a horizontal dilation by `k` is `k`
/// grow-by-one shift-OR passes, computed incrementally for all `k ≤ r` at
/// once. Both this and thresholding the exact squared distance transform at
/// `r²` decide the same predicate — "some source pixel within Euclidean
/// distance r" — so the result is bit-identical to the historical
/// [`squared_distance_transform`]-based dilation (which remains available as
/// the reference implementation). Stray bits that shifts push into a last
/// word's zero tail are harmless: any through-tail path from a source pixel
/// is at least as long as the direct in-row path, and the tail is re-zeroed
/// when the output rows are stored.
pub fn dilate_into(mask: &Mask, radius: usize, planes: &mut ShiftPlanes, out: &mut Mask) {
    planes.load(mask);
    planes.dilate_to(radius, out);
}

/// Erodes `mask` with a disc of the given `radius` (Euclidean metric).
pub fn erode(mask: &Mask, radius: usize) -> Mask {
    let mut out = dilate(&mask.complement(), radius);
    out.complement_in_place();
    out
}

/// Morphological closing: dilation then erosion. Fills holes smaller than
/// the disc.
pub fn close(mask: &Mask, radius: usize) -> Mask {
    let (w, h) = mask.dims();
    let mut out = Mask::new(w, h);
    close_into(mask, radius, &mut ShiftPlanes::default(), &mut out);
    out
}

/// [`close`] written into `out` (reshaped to `mask`'s dimensions whatever
/// it held before), on reusable `planes`: the erosion is the complement of
/// the dilated complement, computed in `out` itself.
pub fn close_into(mask: &Mask, radius: usize, planes: &mut ShiftPlanes, out: &mut Mask) {
    dilate_into(mask, radius, planes, out);
    out.complement_in_place();
    planes.load(out);
    planes.dilate_to(radius, out);
    out.complement_in_place();
}

/// The blending-blur band of §V-C: all pixels within Euclidean distance
/// `phi` of a foreground pixel of `mask`, *excluding* the mask itself.
///
/// In the paper's notation, for every `(u,w)` with `VBM = 1`, mark all
/// `(p,q)` with `√((p−u)² + (q−w)²) ≤ φ`; the result minus the VBM is the
/// BBM. The paper calibrates φ = 20 for Zoom (§VIII-C).
///
/// ```
/// use bb_imaging::{Mask, morph};
/// let mut vbm = Mask::new(9, 9);
/// vbm.set(4, 4, true);
/// let bbm = morph::band(&vbm, 2);
/// assert!(bbm.get(4, 2));       // within radius 2
/// assert!(!bbm.get(4, 4));      // the VB pixel itself is excluded
/// assert!(!bbm.get(0, 0));      // too far
/// ```
pub fn band(mask: &Mask, phi: usize) -> Mask {
    let mut out = dilate(mask, phi);
    out.subtract_in_place(mask)
        .expect("dilate preserves dimensions");
    out
}

/// Inner boundary of a mask: foreground pixels with at least one 4-connected
/// background neighbour. Used by the matting error model to perturb caller
/// boundaries (§V-D "inaccurate human boundaries").
///
/// Runs word-parallel on the packed rows: the four neighbour planes are one
/// shift (with carry across word boundaries) or one row-word read each, so a
/// word of 64 pixels costs a handful of bit operations. Pixels outside the
/// image count as background, which makes the image border part of the
/// boundary — the same semantics the per-pixel `get_or_false` version had.
pub fn inner_boundary(mask: &Mask) -> Mask {
    let (w, h) = mask.dims();
    let wpr = mask.words_per_row();
    let mut out = Mask::new(w, h);
    for y in 0..h {
        let row = mask.row_words(y);
        let above = (y > 0).then(|| mask.row_words(y - 1));
        let below = (y + 1 < h).then(|| mask.row_words(y + 1));
        for wi in 0..wpr {
            let cur = row[wi];
            if cur == 0 {
                continue;
            }
            let carry_lo = if wi > 0 {
                row[wi - 1] >> (WORD_BITS - 1)
            } else {
                0
            };
            let carry_hi = if wi + 1 < wpr {
                row[wi + 1] << (WORD_BITS - 1)
            } else {
                0
            };
            // Bit b of `west` is the mask value at (x-1, y), etc. The zero
            // tail of the last word makes the out-of-image east neighbour of
            // column `w-1` read as background automatically.
            let west = (cur << 1) | carry_lo;
            let east = (cur >> 1) | carry_hi;
            let north = above.map_or(0, |r| r[wi]);
            let south = below.map_or(0, |r| r[wi]);
            out.set_row_word(y, wi, cur & !(west & east & north & south));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_mask(w: usize, h: usize, x: usize, y: usize) -> Mask {
        let mut m = Mask::new(w, h);
        m.set(x, y, true);
        m
    }

    #[test]
    fn distance_transform_of_point() {
        let m = point_mask(5, 5, 2, 2);
        let d = squared_distance_transform(&m);
        assert_eq!(d[2 * 5 + 2], 0.0);
        assert_eq!(d[2 * 5 + 3], 1.0);
        assert_eq!(d[0], 8.0); // (2,2) -> (0,0): 2²+2²
    }

    #[test]
    fn distance_transform_empty_mask_is_far() {
        let m = Mask::new(4, 4);
        let d = squared_distance_transform(&m);
        assert!(d.iter().all(|&v| v > 1e6));
    }

    #[test]
    fn dilate_point_makes_disc() {
        let m = point_mask(9, 9, 4, 4);
        let d = dilate(&m, 2);
        assert!(d.get(4, 4));
        assert!(d.get(4, 6));
        assert!(d.get(6, 4));
        assert!(!d.get(6, 6)); // √8 > 2
        assert!(!d.get(4, 7));
    }

    #[test]
    fn dilate_zero_is_identity() {
        let m = point_mask(5, 5, 1, 1);
        assert_eq!(dilate(&m, 0), m);
        assert_eq!(erode(&m, 0), m);
    }

    #[test]
    fn erode_shrinks_square() {
        let m = Mask::from_fn(9, 9, |x, y| (2..=6).contains(&x) && (2..=6).contains(&y));
        let e = erode(&m, 1);
        assert!(e.get(4, 4));
        assert!(e.get(3, 3));
        assert!(!e.get(2, 2));
        assert!(!e.get(2, 4));
    }

    #[test]
    fn dilation_is_monotone_in_radius() {
        let m = point_mask(15, 15, 7, 7);
        let d1 = dilate(&m, 2);
        let d2 = dilate(&m, 4);
        // d1 ⊆ d2
        assert_eq!(d1.subtract(&d2).unwrap().count_set(), 0);
        assert!(d2.count_set() > d1.count_set());
    }

    #[test]
    fn close_fills_hole() {
        let mut m = Mask::from_fn(12, 12, |x, y| (2..=9).contains(&x) && (2..=9).contains(&y));
        m.set(5, 5, false); // pinhole
        let c = close(&m, 1);
        assert!(c.get(5, 5));
    }

    #[test]
    fn band_excludes_mask_and_far_pixels() {
        let m = point_mask(11, 11, 5, 5);
        let b = band(&m, 3);
        assert!(!b.get(5, 5));
        assert!(b.get(5, 8));
        assert!(!b.get(5, 9));
        // band of φ=0 is empty
        assert!(band(&m, 0).is_empty());
    }

    #[test]
    fn band_radius_matches_paper_definition() {
        // Every band pixel must be within φ of some mask pixel, and no mask
        // pixel may be in the band.
        let m = Mask::from_fn(20, 20, |x, y| {
            (8..=11).contains(&x) && (8..=11).contains(&y)
        });
        let phi = 4usize;
        let b = band(&m, phi);
        for (px, py) in b.iter_set() {
            assert!(!m.get(px, py));
            let within = m.iter_set().any(|(u, w)| {
                let dx = px as f64 - u as f64;
                let dy = py as f64 - w as f64;
                (dx * dx + dy * dy).sqrt() <= phi as f64
            });
            assert!(within, "({px},{py}) outside radius {phi}");
        }
    }

    #[test]
    fn word_parallel_dilate_matches_distance_transform() {
        // The shift-OR fast path must be bit-identical to thresholding the
        // exact squared distance transform — including across word
        // boundaries (w = 70 puts columns 64.. in a second, partial word).
        let (w, h) = (70, 23);
        let m = Mask::from_fn(w, h, |x, y| (x * 7 + y * 13) % 19 == 0);
        for radius in 0..=7 {
            let fast = dilate(&m, radius);
            let dist = squared_distance_transform(&m);
            let r2 = (radius * radius) as f64;
            let reference = Mask::from_fn(w, h, |x, y| dist[y * w + x] <= r2);
            assert_eq!(fast, reference, "radius {radius}");
        }
    }

    #[test]
    fn inner_boundary_of_square() {
        let m = Mask::from_fn(8, 8, |x, y| (2..=5).contains(&x) && (2..=5).contains(&y));
        let b = inner_boundary(&m);
        assert!(b.get(2, 2));
        assert!(b.get(5, 3));
        assert!(!b.get(3, 3));
        assert!(!b.get(0, 0));
    }

    #[test]
    fn boundary_of_full_mask_is_border_ring() {
        let m = Mask::full(5, 5);
        let b = inner_boundary(&m);
        // get_or_false treats outside as background, so the ring is the border.
        assert_eq!(b.count_set(), 16);
        assert!(!b.get(2, 2));
    }
}
