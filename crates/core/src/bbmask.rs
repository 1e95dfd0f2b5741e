//! Blending-blur masking (§V-C) and φ calibration (§VIII-C).
//!
//! "To recover BBM we check all pixels within a radius φ for every pixel in
//! the VBM = 1": the BBM is the set of non-VBM pixels within Euclidean
//! distance φ of a VBM pixel. The paper calibrates φ = 20 for Zoom by
//! applying a virtual background to static images with the target software
//! and measuring the blur depth against the known inputs.

use crate::CoreError;
use bb_imaging::{morph, Frame, Mask};

/// The blending-blur mask: all non-VBM pixels within radius `phi` of a VBM
/// pixel (§V-C).
pub fn bb_mask(vbm: &Mask, phi: usize) -> Mask {
    morph::band(vbm, phi)
}

/// The §VIII-C adversarial calibration: given the output of the target
/// software on *known* inputs (virtual image + real background), measure how
/// deep the mixed-pixel band extends from the virtual-background region.
///
/// A pixel is "mixed" when it matches neither the virtual image nor the real
/// background within `tau`. Returns the `p95` (95th-percentile) mixed-pixel
/// distance, rounded up — a robust depth estimate that ignores stray leak
/// pixels far from the seam.
///
/// # Errors
///
/// Propagates dimension mismatches; returns `Ok(0)` when no mixed pixels
/// exist (hard blending).
pub fn calibrate_phi(
    outputs: &[Frame],
    virtual_image: &Frame,
    real_background: &Frame,
    tau: u8,
) -> Result<usize, CoreError> {
    let mut distances: Vec<f64> = Vec::new();
    for out in outputs {
        out.check_same_dims(virtual_image)?;
        out.check_same_dims(real_background)?;
        let vbm = out.match_mask(virtual_image, tau)?;
        if vbm.is_empty() {
            continue;
        }
        // A pixel outside the VBM already fails µ against the virtual image,
        // so it is mixed exactly when it also fails µ against the real
        // background.
        let mut mixed = out.match_mask(real_background, tau)?;
        mixed.union_in_place(&vbm)?;
        mixed.complement_in_place();
        let dist = morph::squared_distance_transform(&vbm);
        let w = out.width();
        distances.extend(mixed.iter_set().map(|(x, y)| dist[y * w + x].sqrt()));
    }
    if distances.is_empty() {
        return Ok(0);
    }
    distances.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
    let idx = ((distances.len() as f64) * 0.95) as usize;
    Ok(distances[idx.min(distances.len() - 1)].ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    #[test]
    fn bb_mask_is_band() {
        let mut vbm = Mask::new(15, 15);
        vbm.set(7, 7, true);
        let bbm = bb_mask(&vbm, 3);
        assert!(!bbm.get(7, 7));
        assert!(bbm.get(7, 4));
        assert!(!bbm.get(7, 3));
    }

    #[test]
    fn bb_mask_phi_zero_is_empty() {
        let vbm = Mask::full(5, 5);
        assert!(bb_mask(&vbm, 0).is_empty());
    }

    #[test]
    fn calibration_measures_band_depth() {
        // Construct a synthetic "software output": left half VB, right half
        // real background, with a mixed band of width 4 at the seam.
        let vi = Frame::filled(40, 20, Rgb::new(20, 40, 200));
        let real = Frame::filled(40, 20, Rgb::new(200, 180, 120));
        let mut out = Frame::new(40, 20);
        for y in 0..20 {
            for x in 0..40 {
                let p = if x < 18 {
                    vi.get(x, y)
                } else if x < 22 {
                    vi.get(x, y).lerp(real.get(x, y), 0.5) // mixed band
                } else {
                    real.get(x, y)
                };
                out.put(x, y, p);
            }
        }
        let phi = calibrate_phi(&[out], &vi, &real, 4).unwrap();
        assert!(
            (3..=6).contains(&phi),
            "phi {phi} outside expected band depth"
        );
    }

    #[test]
    fn calibration_of_hard_blend_is_zero() {
        let vi = Frame::filled(20, 20, Rgb::new(0, 0, 200));
        let real = Frame::filled(20, 20, Rgb::new(200, 0, 0));
        let mut out = vi.clone();
        draw::fill_rect(&mut out, 10, 0, 10, 20, Rgb::new(200, 0, 0));
        assert_eq!(calibrate_phi(&[out], &vi, &real, 2).unwrap(), 0);
    }

    #[test]
    fn calibration_rejects_mismatched_dims() {
        let vi = Frame::new(10, 10);
        let real = Frame::new(10, 10);
        let out = Frame::new(5, 5);
        assert!(calibrate_phi(&[out], &vi, &real, 0).is_err());
    }

    #[test]
    fn calibration_with_no_outputs_is_zero() {
        let vi = Frame::new(10, 10);
        let real = Frame::new(10, 10);
        assert_eq!(calibrate_phi(&[], &vi, &real, 0).unwrap(), 0);
    }
}
