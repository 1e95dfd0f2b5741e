//! Geometric resampling: shift, rotation and scaling.
//!
//! The location-inference attack must cope with a camera that "may have
//! slightly rotated and/or shifted" between the dictionary capture and the
//! target call; the attack "incrementally rotates and shifts the
//! reconstructed background while trying to find the best match" (§VI).
//! Specific object tracking additionally scales the template. The search
//! spaces are built on the transforms here.
//!
//! All transforms use nearest-neighbour or bilinear sampling around the image
//! centre; pixels that map outside the source are reported through the
//! companion validity [`Mask`], so partial reconstructions (where most pixels
//! are unknown anyway) compose naturally.

use crate::filter::bilinear;
use crate::frame::Frame;
use crate::mask::Mask;

/// A rigid-plus-scale 2-D transform: rotation (degrees, counter-clockwise)
/// about the image centre, uniform scale, then translation in pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transform {
    /// Rotation angle in degrees, counter-clockwise.
    pub rotate_deg: f32,
    /// Uniform scale factor (1.0 = identity).
    pub scale: f32,
    /// Horizontal translation in pixels (applied after rotation/scale).
    pub dx: f32,
    /// Vertical translation in pixels.
    pub dy: f32,
}

impl Default for Transform {
    fn default() -> Self {
        Transform {
            rotate_deg: 0.0,
            scale: 1.0,
            dx: 0.0,
            dy: 0.0,
        }
    }
}

impl Transform {
    /// The identity transform.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Pure translation.
    pub fn shift(dx: f32, dy: f32) -> Self {
        Transform {
            dx,
            dy,
            ..Self::default()
        }
    }

    /// Pure rotation about the image centre.
    pub fn rotation(deg: f32) -> Self {
        Transform {
            rotate_deg: deg,
            ..Self::default()
        }
    }

    /// Pure uniform scaling about the image centre.
    pub fn scaling(scale: f32) -> Self {
        Transform {
            scale,
            ..Self::default()
        }
    }

    /// Maps an output coordinate back to the source coordinate (inverse
    /// transform), with the pivot at `(cx, cy)`.
    pub fn source_coord(&self, x: f32, y: f32, cx: f32, cy: f32) -> (f32, f32) {
        // Undo translation.
        let px = x - self.dx - cx;
        let py = y - self.dy - cy;
        // Undo scale.
        let s = if self.scale.abs() < 1e-6 {
            1e-6
        } else {
            self.scale
        };
        let px = px / s;
        let py = py / s;
        // Undo rotation.
        let rad = self.rotate_deg.to_radians();
        let (sin, cos) = rad.sin_cos();
        let sx = px * cos + py * sin;
        let sy = -px * sin + py * cos;
        (sx + cx, sy + cy)
    }
}

/// Applies `t` to `frame`, producing the transformed image and a validity
/// mask marking output pixels whose source sample fell inside the image.
///
/// Invalid pixels are black in the output frame.
pub fn warp(frame: &Frame, t: &Transform) -> (Frame, Mask) {
    let (w, h) = frame.dims();
    let (cx, cy) = ((w as f32 - 1.0) / 2.0, (h as f32 - 1.0) / 2.0);
    let mut out = Frame::new(w, h);
    let mut valid = Mask::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let (sx, sy) = t.source_coord(x as f32, y as f32, cx, cy);
            if sx >= -0.5 && sy >= -0.5 && sx <= w as f32 - 0.5 && sy <= h as f32 - 0.5 {
                out.put(x, y, bilinear(frame, sx, sy));
                valid.set(x, y, true);
            }
        }
    }
    (out, valid)
}

/// Warps a mask with nearest-neighbour sampling (masks must stay binary).
/// Out-of-range samples become background.
pub fn warp_mask(mask: &Mask, t: &Transform) -> Mask {
    let (w, h) = mask.dims();
    let (cx, cy) = ((w as f32 - 1.0) / 2.0, (h as f32 - 1.0) / 2.0);
    Mask::from_fn(w, h, |x, y| {
        let (sx, sy) = t.source_coord(x as f32, y as f32, cx, cy);
        let (ix, iy) = (sx.round() as i64, sy.round() as i64);
        mask.get_or_false(ix, iy)
    })
}

/// Integer-pixel shift of a frame, returning the shifted frame and the
/// validity mask (cheaper than [`warp`] for the shift-only search moves).
pub fn shift_frame(frame: &Frame, dx: i64, dy: i64) -> (Frame, Mask) {
    let (w, h) = frame.dims();
    let mut out = Frame::new(w, h);
    let mut valid = Mask::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let sx = x as i64 - dx;
            let sy = y as i64 - dy;
            if sx >= 0 && sy >= 0 && (sx as usize) < w && (sy as usize) < h {
                out.put(x, y, frame.get(sx as usize, sy as usize));
                valid.set(x, y, true);
            }
        }
    }
    (out, valid)
}

/// Resizes a frame to an exact target size with bilinear sampling. Used by
/// the template-scaling sweep of the specific-object-tracking attack (§VI).
pub fn resize(frame: &Frame, width: usize, height: usize) -> Frame {
    let (w, h) = frame.dims();
    if (w, h) == (width, height) {
        return frame.clone();
    }
    Frame::from_fn(width.max(1), height.max(1), |x, y| {
        let fx = (x as f32 + 0.5) * w as f32 / width.max(1) as f32 - 0.5;
        let fy = (y as f32 + 0.5) * h as f32 / height.max(1) as f32 - 0.5;
        bilinear(frame, fx, fy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Rgb;

    fn gradient() -> Frame {
        Frame::from_fn(9, 9, |x, y| Rgb::new((x * 20) as u8, (y * 20) as u8, 0))
    }

    #[test]
    fn identity_warp_is_lossless() {
        let f = gradient();
        let (out, valid) = warp(&f, &Transform::identity());
        assert_eq!(out, f);
        assert_eq!(valid.count_set(), 81);
    }

    #[test]
    fn shift_moves_content() {
        let mut f = Frame::new(5, 5);
        f.put(2, 2, Rgb::WHITE);
        let (out, valid) = shift_frame(&f, 1, 0);
        assert_eq!(out.get(3, 2), Rgb::WHITE);
        assert_eq!(out.get(2, 2), Rgb::BLACK);
        // Leftmost column has no source.
        assert!(!valid.get(0, 2));
        assert!(valid.get(4, 2));
    }

    #[test]
    fn warp_shift_matches_integer_shift() {
        let f = gradient();
        let (a, va) = warp(&f, &Transform::shift(2.0, -1.0));
        let (b, vb) = shift_frame(&f, 2, -1);
        for y in 0..9 {
            for x in 0..9 {
                if va.get(x, y) && vb.get(x, y) {
                    assert!(a.get(x, y).linf(b.get(x, y)) <= 1);
                }
            }
        }
    }

    #[test]
    fn rotation_90_moves_corner() {
        let mut f = Frame::new(9, 9);
        f.put(8, 4, Rgb::WHITE); // right-middle
        let (out, _) = warp(&f, &Transform::rotation(90.0));
        // In screen coordinates (y down) a +90° rotation sends
        // right-middle to bottom-middle.
        assert!(out.get(4, 8).luma() > 128);
    }

    #[test]
    fn rotation_360_is_identityish() {
        let f = gradient();
        let (out, valid) = warp(&f, &Transform::rotation(360.0));
        for y in 0..9 {
            for x in 0..9 {
                if valid.get(x, y) {
                    assert!(out.get(x, y).linf(f.get(x, y)) <= 2);
                }
            }
        }
    }

    #[test]
    fn scaling_up_preserves_center() {
        let mut f = Frame::new(9, 9);
        f.put(4, 4, Rgb::WHITE);
        let (out, _) = warp(&f, &Transform::scaling(2.0));
        assert!(out.get(4, 4).luma() > 60);
    }

    #[test]
    fn scaling_out_of_range_marks_invalid() {
        let f = gradient();
        let (_, valid) = warp(&f, &Transform::scaling(0.5));
        // Shrinking means output borders sample outside? No — shrinking the
        // image means output pixels far from center map outside the source.
        assert!(valid.count_set() < 81);
    }

    #[test]
    fn warp_mask_stays_binary_and_moves() {
        let mut m = Mask::new(7, 7);
        m.set(3, 3, true);
        let shifted = warp_mask(&m, &Transform::shift(2.0, 0.0));
        assert!(shifted.get(5, 3));
        assert!(!shifted.get(3, 3));
    }

    #[test]
    fn resize_round_trip_dims() {
        let f = gradient();
        let big = resize(&f, 18, 18);
        assert_eq!(big.dims(), (18, 18));
        let same = resize(&f, 9, 9);
        assert_eq!(same, f);
    }

    #[test]
    fn transform_inverse_round_trip() {
        let t = Transform {
            rotate_deg: 30.0,
            scale: 1.5,
            dx: 3.0,
            dy: -2.0,
        };
        // source_coord of the forward-mapped point should return the original.
        // Forward map: rotate, scale, translate about center.
        let (cx, cy) = (4.0f32, 4.0f32);
        let (ox, oy) = (6.0f32, 2.0f32);
        let rad = t.rotate_deg.to_radians();
        let (sin, cos) = rad.sin_cos();
        let px = ox - cx;
        let py = oy - cy;
        let fx = (px * cos - py * sin) * t.scale + cx + t.dx;
        let fy = (px * sin + py * cos) * t.scale + cy + t.dy;
        let (bx, by) = t.source_coord(fx, fy, cx, cy);
        assert!((bx - ox).abs() < 1e-4, "{bx} vs {ox}");
        assert!((by - oy).abs() < 1e-4, "{by} vs {oy}");
    }
}
