//! Statistical color-based VCM refinement (§V-D).
//!
//! "Although very accurate, DeepLabv3 is not perfect, and as a result, the
//! VCM it outputs may still contain parts of the leaked background. …
//! Specifically, for every pixel in VCM(u,w) = 1, if a color was observed in
//! f(u,w) with a very low frequency (presumably from the real background),
//! we modify VCM(u,w) = 0."
//!
//! The caller's body is large and color-coherent (skin + apparel); leaked
//! background fragments are small and colored like the room. Colors that are
//! rare *within the mask* are therefore flipped out of it.

use bb_imaging::hist::ColorHistogram;
use bb_imaging::{Frame, Mask};

/// Flips mask pixels whose color frequency within the masked region is
/// below `min_freq` (a fraction in `[0, 1]`).
///
/// Returns the refined mask together with the number of flipped pixels.
/// Empty masks and mismatched dimensions return the input unchanged.
pub fn color_refine(frame: &Frame, vcm: &Mask, min_freq: f64, bits: u8) -> (Mask, usize) {
    if frame.dims() != vcm.dims() || vcm.is_empty() {
        return (vcm.clone(), 0);
    }
    let mut hist = ColorHistogram::new(bits);
    hist.add_masked(frame, vcm);
    // One integer compare per pixel instead of one f64 division:
    // `frequency(p) < min_freq` ⇔ `count(p) < rare_below`, resolved once.
    let rare_below = hist.rarity_threshold(min_freq);

    // Mask-directed: walk the packed row words, test only set pixels via the
    // contiguous row slice, and clear whole words at a time.
    let mut refined = vcm.clone();
    let mut flipped = 0usize;
    let (_, h) = vcm.dims();
    for y in 0..h {
        let row = frame.row(y);
        for (wi, &word) in vcm.row_words(y).iter().enumerate() {
            if word == 0 {
                continue;
            }
            let lo = wi * 64;
            let mut cleared = 0u64;
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                if u64::from(hist.count(row[lo + b])) < rare_below {
                    cleared |= 1u64 << b;
                }
                bits &= bits - 1;
            }
            if cleared != 0 {
                refined.set_row_word(y, wi, word & !cleared);
                flipped += cleared.count_ones() as usize;
            }
        }
    }
    (refined, flipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    #[test]
    fn rare_colors_are_flipped() {
        // Mask covers a big red body plus a small green leak patch.
        let mut f = Frame::filled(30, 30, Rgb::grey(220));
        draw::fill_rect(&mut f, 5, 5, 16, 20, Rgb::new(180, 30, 30)); // body: 320 px
        draw::fill_rect(&mut f, 22, 10, 3, 3, Rgb::new(20, 160, 40)); // leak: 9 px
        let mask = Mask::from_fn(30, 30, |x, y| {
            ((5..21).contains(&x) && (5..25).contains(&y))
                || ((22..25).contains(&x) && (10..13).contains(&y))
        });
        let (refined, flipped) = color_refine(&f, &mask, 0.05, 4);
        assert_eq!(flipped, 9);
        assert!(!refined.get(23, 11), "leak pixel survived");
        assert!(refined.get(10, 10), "body pixel flipped");
    }

    #[test]
    fn uniform_mask_is_untouched() {
        let f = Frame::filled(20, 20, Rgb::new(50, 90, 130));
        let mask = Mask::from_fn(20, 20, |x, _| x < 10);
        let (refined, flipped) = color_refine(&f, &mask, 0.05, 4);
        assert_eq!(flipped, 0);
        assert_eq!(refined, mask);
    }

    #[test]
    fn empty_mask_passthrough() {
        let f = Frame::new(10, 10);
        let mask = Mask::new(10, 10);
        let (refined, flipped) = color_refine(&f, &mask, 0.1, 4);
        assert_eq!(flipped, 0);
        assert!(refined.is_empty());
    }

    #[test]
    fn mismatched_dims_passthrough() {
        let f = Frame::new(10, 10);
        let mask = Mask::full(5, 5);
        let (refined, flipped) = color_refine(&f, &mask, 0.1, 4);
        assert_eq!(flipped, 0);
        assert_eq!(refined, mask);
    }

    #[test]
    fn zero_threshold_flips_nothing() {
        let mut f = Frame::filled(10, 10, Rgb::grey(10));
        f.put(0, 0, Rgb::WHITE);
        let mask = Mask::full(10, 10);
        let (_, flipped) = color_refine(&f, &mask, 0.0, 4);
        assert_eq!(flipped, 0);
    }

    #[test]
    fn two_tone_body_survives_reasonable_threshold() {
        // Skin (30%) + apparel (70%): both common, neither flipped at 5%.
        let mut f = Frame::filled(20, 20, Rgb::grey(200));
        draw::fill_rect(&mut f, 0, 0, 20, 6, Rgb::new(230, 200, 170)); // skin
        draw::fill_rect(&mut f, 0, 6, 20, 14, Rgb::new(30, 60, 140)); // apparel
        let mask = Mask::full(20, 20);
        let (_, flipped) = color_refine(&f, &mask, 0.05, 4);
        assert_eq!(flipped, 0);
    }
}
