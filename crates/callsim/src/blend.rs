//! The blending stage.
//!
//! §III: "a blending function is used to combine appropriate portions of
//! virtual image … with the image frame using the background mask … Some
//! state-of-the-art blending techniques that could be employed for this
//! purpose include alpha blending, Gaussian blending, and Laplacian pyramid
//! blending." The "side-effect" the attack exploits is that blending
//! "creates small regions in the output frames (near the foreground–virtual
//! background edges) such that pixel values in these regions are a mixture"
//! — the BB component.
//!
//! [`BlendMode`] models the hard cut, alpha blending and Gaussian blending;
//! every software profile uses one of the feathered two.

use crate::CallSimError;
use bb_imaging::{filter, Frame, Mask};

/// The blending function applied at the foreground/virtual-background seam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlendMode {
    /// No blending: hard mask cut (Fig 1c, "without blending").
    Hard,
    /// Alpha blending through a Gaussian-feathered matte with the given
    /// sigma (Fig 1b, the common case).
    AlphaBand {
        /// Feather width (Gaussian sigma in pixels).
        sigma: f32,
    },
    /// Gaussian blending: like `AlphaBand` but the composited seam is
    /// additionally blurred, hiding sharp residue.
    Gaussian {
        /// Feather and seam-blur sigma.
        sigma: f32,
    },
}

impl Default for BlendMode {
    fn default() -> Self {
        BlendMode::AlphaBand { sigma: 1.5 }
    }
}

/// Composites one frame: keeps `frame` where `fg_mask` says foreground,
/// pastes `virtual_bg` elsewhere, blending per `mode` at the seam.
///
/// # Errors
///
/// Returns [`CallSimError`] when dimensions disagree or blend parameters are
/// invalid.
pub fn composite(
    frame: &Frame,
    virtual_bg: &Frame,
    fg_mask: &Mask,
    mode: BlendMode,
) -> Result<Frame, CallSimError> {
    frame.check_same_dims(virtual_bg)?;
    frame.check_mask_dims(fg_mask)?;
    let out = match mode {
        BlendMode::Hard => {
            let mut out = virtual_bg.clone();
            for (x, y) in fg_mask.iter_set() {
                out.put(x, y, frame.get(x, y));
            }
            out
        }
        BlendMode::AlphaBand { sigma } => {
            let matte = filter::soft_matte(fg_mask, sigma)?;
            filter::alpha_blend(frame, virtual_bg, &matte)?
        }
        BlendMode::Gaussian { sigma } => {
            let matte = filter::soft_matte(fg_mask, sigma)?;
            let blended = filter::alpha_blend(frame, virtual_bg, &matte)?;
            // Blur only the seam band so interior detail survives.
            let band = bb_imaging::morph::band(fg_mask, (sigma.ceil() as usize).max(1) * 2);
            let blurred = filter::gaussian_blur(&blended, sigma)?;
            let mut out = blended;
            for (x, y) in band.iter_set() {
                out.put(x, y, blurred.get(x, y));
            }
            out
        }
    };
    Ok(out)
}

/// The ground-truth blend band for a composited frame: pixels that are a
/// mixture of foreground and virtual background (the BBⁱ component of §III).
///
/// For `Hard` the band is empty; for the feathered modes it is the ring
/// within `3·sigma` of the mask boundary.
pub fn blend_band(fg_mask: &Mask, mode: BlendMode) -> Mask {
    let radius = match mode {
        BlendMode::Hard => 0,
        BlendMode::AlphaBand { sigma } | BlendMode::Gaussian { sigma } => {
            (3.0 * sigma).ceil() as usize
        }
    };
    if radius == 0 {
        let (w, h) = fg_mask.dims();
        return Mask::new(w, h);
    }
    // Ring both inward and outward of the boundary.
    let outer = bb_imaging::morph::dilate(fg_mask, radius);
    let inner = bb_imaging::morph::erode(fg_mask, radius);
    outer.subtract(&inner).expect("dilate/erode preserve dims")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn fixtures() -> (Frame, Frame, Mask) {
        let fg = Frame::filled(24, 24, Rgb::new(200, 40, 40));
        let vb = Frame::filled(24, 24, Rgb::new(40, 40, 200));
        let mask = Mask::from_fn(24, 24, |x, y| {
            let dx = x as i64 - 12;
            let dy = y as i64 - 12;
            dx * dx + dy * dy <= 36
        });
        (fg, vb, mask)
    }

    #[test]
    fn hard_mode_cuts_exactly() {
        let (fg, vb, m) = fixtures();
        let out = composite(&fg, &vb, &m, BlendMode::Hard).unwrap();
        assert_eq!(out.get(12, 12), fg.get(12, 12));
        assert_eq!(out.get(0, 0), vb.get(0, 0));
        // No mixed pixels exist.
        for (_, _, p) in out.enumerate() {
            assert!(p == fg.get(0, 0) || p == vb.get(0, 0));
        }
    }

    #[test]
    fn alpha_band_creates_mixture_at_seam() {
        let (fg, vb, m) = fixtures();
        let out = composite(&fg, &vb, &m, BlendMode::AlphaBand { sigma: 1.5 }).unwrap();
        // Interior pure-ish, seam mixed.
        assert!(out.get(12, 12).linf(fg.get(0, 0)) < 30);
        assert!(out.get(0, 0).linf(vb.get(0, 0)) < 10);
        let seam = out.get(12, 5); // near the circle top boundary (12,6)
        let is_mixture = seam.linf(fg.get(0, 0)) > 20 && seam.linf(vb.get(0, 0)) > 20;
        assert!(is_mixture, "seam pixel {seam} is not a mixture");
    }

    #[test]
    fn gaussian_mode_blurs_band_only() {
        let (fg, vb, m) = fixtures();
        let alpha = composite(&fg, &vb, &m, BlendMode::AlphaBand { sigma: 1.0 }).unwrap();
        let gauss = composite(&fg, &vb, &m, BlendMode::Gaussian { sigma: 1.0 }).unwrap();
        // Far corners identical; some band pixel differs.
        assert_eq!(alpha.get(0, 0), gauss.get(0, 0));
        assert_ne!(alpha, gauss);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (fg, _, m) = fixtures();
        let small = Frame::new(10, 10);
        assert!(composite(&fg, &small, &m, BlendMode::Hard).is_err());
    }

    #[test]
    fn blend_band_empty_for_hard() {
        let (_, _, m) = fixtures();
        assert!(blend_band(&m, BlendMode::Hard).is_empty());
    }

    #[test]
    fn blend_band_straddles_boundary() {
        let (_, _, m) = fixtures();
        let band = blend_band(&m, BlendMode::AlphaBand { sigma: 1.0 });
        assert!(!band.is_empty());
        // Band contains pixels on both sides of the boundary.
        let inside = band.intersect(&m).unwrap().count_set();
        let outside = band.subtract(&m).unwrap().count_set();
        assert!(inside > 0 && outside > 0);
        // Frame centre and far corner are outside the band.
        assert!(!band.get(12, 12));
        assert!(!band.get(0, 0));
    }

    #[test]
    fn wider_sigma_wider_band() {
        let (_, _, m) = fixtures();
        let narrow = blend_band(&m, BlendMode::AlphaBand { sigma: 1.0 });
        let wide = blend_band(&m, BlendMode::AlphaBand { sigma: 2.5 });
        assert!(wide.count_set() > narrow.count_set());
    }
}

#[cfg(test)]
mod band_tests {
    use super::*;
    use bb_imaging::Mask;

    #[test]
    fn gaussian_band_equals_alpha_band() {
        let m = Mask::from_fn(32, 32, |x, y| x + y < 24);
        assert_eq!(
            blend_band(&m, BlendMode::Gaussian { sigma: 1.5 }),
            blend_band(&m, BlendMode::AlphaBand { sigma: 1.5 })
        );
    }
}
