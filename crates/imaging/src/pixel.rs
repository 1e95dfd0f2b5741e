//! 24-bit RGB pixels and the HSV color space.
//!
//! The paper represents each frame as an `m × n` array of Truecolor pixels
//! (§III) and performs *hue* matching when comparing reconstructed backgrounds
//! to dictionary backgrounds, because saturation/value shift with ambient
//! lighting (§VI, location inference). This module provides both
//! representations and exact conversions between them.

/// A 24-bit Truecolor pixel: 8 bits each of red, green and blue (§III).
///
/// `#[repr(C)]` pins the layout to three packed bytes in `r, g, b` order
/// (size 3, align 1, no padding) — [`Frame`](crate::Frame)'s packed RGB24
/// byte view relies on this to reinterpret pixel slices as bytes.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Rgb {
    /// Red intensity.
    pub r: u8,
    /// Green intensity.
    pub g: u8,
    /// Blue intensity.
    pub b: u8,
}

impl Rgb {
    /// Pure black, the color used to visualise removed regions (§V-B).
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };
    /// Pure white, the foreground value of a binary mask (§III).
    pub const WHITE: Rgb = Rgb {
        r: 255,
        g: 255,
        b: 255,
    };

    /// Creates a pixel from its three channel intensities.
    ///
    /// ```
    /// use bb_imaging::Rgb;
    /// let teal = Rgb::new(0, 128, 128);
    /// assert_eq!(teal.g, 128);
    /// ```
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a grey pixel with all channels equal to `v`.
    #[inline]
    pub const fn grey(v: u8) -> Self {
        Rgb { r: v, g: v, b: v }
    }

    /// Packs the pixel into the 24-bit value `0xRRGGBB`.
    #[inline]
    pub const fn to_u32(self) -> u32 {
        ((self.r as u32) << 16) | ((self.g as u32) << 8) | self.b as u32
    }

    /// Unpacks a `0xRRGGBB` value produced by [`Rgb::to_u32`].
    #[inline]
    pub const fn from_u32(v: u32) -> Self {
        Rgb {
            r: ((v >> 16) & 0xff) as u8,
            g: ((v >> 8) & 0xff) as u8,
            b: (v & 0xff) as u8,
        }
    }

    /// Perceptual luma (ITU-R BT.601 weights), in `[0, 255]`.
    ///
    /// Used by the lighting model and by the dynamic-virtual-background
    /// mitigation when transferring brightness (§IX-A).
    #[inline]
    pub fn luma(self) -> u8 {
        let y = 0.299 * self.r as f32 + 0.587 * self.g as f32 + 0.114 * self.b as f32;
        y.round().clamp(0.0, 255.0) as u8
    }

    /// Channel-wise absolute difference, the µ building block of §V-B.
    #[inline]
    pub fn abs_diff(self, other: Rgb) -> Rgb {
        Rgb {
            r: self.r.abs_diff(other.r),
            g: self.g.abs_diff(other.g),
            b: self.b.abs_diff(other.b),
        }
    }

    /// Maximum channel-wise absolute difference (L∞ distance).
    ///
    /// The paper's matching function µ is an exact-equality indicator; real
    /// blended frames need a small tolerance, and this is the distance it is
    /// measured in.
    #[inline]
    pub fn linf(self, other: Rgb) -> u8 {
        let d = self.abs_diff(other);
        d.r.max(d.g).max(d.b)
    }

    /// Sum of channel-wise absolute differences (L1 distance).
    #[inline]
    pub fn l1(self, other: Rgb) -> u16 {
        let d = self.abs_diff(other);
        d.r as u16 + d.g as u16 + d.b as u16
    }

    /// The paper's matching function µ extended with a tolerance: returns
    /// `true` when the two pixels agree within `tau` on every channel
    /// (`tau = 0` recovers exact µ from §V-B).
    #[inline]
    pub fn matches(self, other: Rgb, tau: u8) -> bool {
        self.linf(other) <= tau
    }

    /// Linear interpolation `self * (1 - t) + other * t`; this is per-pixel
    /// alpha blending, one of the blending functions of §III.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `t ∈ [0, 1]`.
    #[inline]
    pub fn lerp(self, other: Rgb, t: f32) -> Rgb {
        debug_assert!((0.0..=1.0).contains(&t), "lerp factor out of range: {t}");
        let mix = |a: u8, b: u8| -> u8 {
            (a as f32 + (b as f32 - a as f32) * t)
                .round()
                .clamp(0.0, 255.0) as u8
        };
        Rgb {
            r: mix(self.r, other.r),
            g: mix(self.g, other.g),
            b: mix(self.b, other.b),
        }
    }

    /// Scales brightness by `factor`, saturating at channel bounds.
    /// Used by the lighting model (lights on/off experiments, Fig 10/11).
    #[inline]
    pub fn scale(self, factor: f32) -> Rgb {
        let s = |c: u8| (c as f32 * factor).round().clamp(0.0, 255.0) as u8;
        Rgb {
            r: s(self.r),
            g: s(self.g),
            b: s(self.b),
        }
    }

    /// Converts to HSV.
    pub fn to_hsv(self) -> Hsv {
        let r = self.r as f32 / 255.0;
        let g = self.g as f32 / 255.0;
        let b = self.b as f32 / 255.0;
        let max = r.max(g).max(b);
        let min = r.min(g).min(b);
        let delta = max - min;

        let h = if delta == 0.0 {
            0.0
        } else if max == r {
            60.0 * (((g - b) / delta).rem_euclid(6.0))
        } else if max == g {
            60.0 * ((b - r) / delta + 2.0)
        } else {
            60.0 * ((r - g) / delta + 4.0)
        };
        let s = if max == 0.0 { 0.0 } else { delta / max };
        Hsv { h, s, v: max }
    }

    /// Hue in degrees `[0, 360)`; shorthand for `to_hsv().h`.
    #[inline]
    pub fn hue(self) -> f32 {
        self.to_hsv().h
    }
}

impl From<(u8, u8, u8)> for Rgb {
    fn from((r, g, b): (u8, u8, u8)) -> Self {
        Rgb { r, g, b }
    }
}

impl From<Rgb> for (u8, u8, u8) {
    fn from(p: Rgb) -> Self {
        (p.r, p.g, p.b)
    }
}

impl std::fmt::Display for Rgb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

/// A pixel in HSV space: hue in degrees `[0, 360)`, saturation and value in
/// `[0, 1]`.
///
/// The location-inference attack matches *hue only* to be robust to ambient
/// lighting changes (§VI); the dynamic-virtual-background mitigation jitters
/// hue per frame (§IX-A).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hsv {
    /// Hue angle in degrees, `[0, 360)`.
    pub h: f32,
    /// Saturation, `[0, 1]`.
    pub s: f32,
    /// Value (brightness), `[0, 1]`.
    pub v: f32,
}

impl Hsv {
    /// Creates an HSV pixel, normalising hue into `[0, 360)` and clamping
    /// saturation and value into `[0, 1]`.
    pub fn new(h: f32, s: f32, v: f32) -> Self {
        Hsv {
            h: h.rem_euclid(360.0),
            s: s.clamp(0.0, 1.0),
            v: v.clamp(0.0, 1.0),
        }
    }

    /// Converts back to RGB.
    pub fn to_rgb(self) -> Rgb {
        let c = self.v * self.s;
        let hp = self.h.rem_euclid(360.0) / 60.0;
        let x = c * (1.0 - (hp.rem_euclid(2.0) - 1.0).abs());
        let (r1, g1, b1) = match hp as u32 {
            0 => (c, x, 0.0),
            1 => (x, c, 0.0),
            2 => (0.0, c, x),
            3 => (0.0, x, c),
            4 => (x, 0.0, c),
            _ => (c, 0.0, x),
        };
        let m = self.v - c;
        let q = |u: f32| ((u + m) * 255.0).round().clamp(0.0, 255.0) as u8;
        Rgb::new(q(r1), q(g1), q(b1))
    }

    /// Circular distance between two hue angles, in `[0, 180]` degrees.
    ///
    /// ```
    /// use bb_imaging::Hsv;
    /// assert_eq!(Hsv::hue_distance(350.0, 10.0), 20.0);
    /// ```
    pub fn hue_distance(a: f32, b: f32) -> f32 {
        let d = (a - b).rem_euclid(360.0);
        d.min(360.0 - d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let p = Rgb::new(0x12, 0x34, 0x56);
        assert_eq!(p.to_u32(), 0x123456);
        assert_eq!(Rgb::from_u32(p.to_u32()), p);
    }

    #[test]
    fn luma_of_extremes() {
        assert_eq!(Rgb::BLACK.luma(), 0);
        assert_eq!(Rgb::WHITE.luma(), 255);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Rgb::new(10, 250, 30);
        let b = Rgb::new(200, 5, 30);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(b), Rgb::new(190, 245, 0));
    }

    #[test]
    fn matches_respects_tolerance() {
        let a = Rgb::new(100, 100, 100);
        let b = Rgb::new(103, 98, 100);
        assert!(a.matches(b, 3));
        assert!(!a.matches(b, 2));
        assert!(a.matches(a, 0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Rgb::new(0, 100, 200);
        let b = Rgb::new(255, 0, 50);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert_eq!(mid, Rgb::new(128, 50, 125));
    }

    #[test]
    fn scale_saturates() {
        let p = Rgb::new(200, 10, 128);
        assert_eq!(p.scale(2.0), Rgb::new(255, 20, 255));
        assert_eq!(p.scale(0.0), Rgb::BLACK);
    }

    #[test]
    fn hsv_primaries() {
        assert_eq!(Rgb::new(255, 0, 0).to_hsv().h, 0.0);
        assert!((Rgb::new(0, 255, 0).to_hsv().h - 120.0).abs() < 1e-3);
        assert!((Rgb::new(0, 0, 255).to_hsv().h - 240.0).abs() < 1e-3);
    }

    #[test]
    fn hsv_grey_has_zero_saturation() {
        let hsv = Rgb::grey(77).to_hsv();
        assert_eq!(hsv.s, 0.0);
        assert!((hsv.v - 77.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn hsv_round_trip_exact_for_all_channel_combos() {
        // Sampled grid: exact round-trip RGB -> HSV -> RGB.
        for r in (0..=255).step_by(51) {
            for g in (0..=255).step_by(51) {
                for b in (0..=255).step_by(51) {
                    let p = Rgb::new(r as u8, g as u8, b as u8);
                    assert_eq!(p.to_hsv().to_rgb(), p, "round trip failed for {p}");
                }
            }
        }
    }

    #[test]
    fn hue_distance_wraps() {
        assert_eq!(Hsv::hue_distance(0.0, 360.0), 0.0);
        assert_eq!(Hsv::hue_distance(10.0, 350.0), 20.0);
        assert_eq!(Hsv::hue_distance(90.0, 270.0), 180.0);
    }

    #[test]
    fn hsv_new_normalises() {
        let h = Hsv::new(-30.0, 2.0, -1.0);
        assert_eq!(h.h, 330.0);
        assert_eq!(h.s, 1.0);
        assert_eq!(h.v, 0.0);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Rgb::new(255, 0, 16).to_string(), "#ff0010");
    }
}
