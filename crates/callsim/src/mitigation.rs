//! The §IX mitigations.
//!
//! * [`Mitigation::DynamicBackground`] — §IX-A: "employ a Gaussian kernel to
//!   modify the brightness and saturation of the virtual background pixels
//!   for each frame depending on the brightness and saturation of the
//!   corresponding real background frame pixels. Further, the hue value of
//!   each modified virtual background pixel is forced to randomly fluctuate
//!   over multiple hue values (closer to the modified hue value) across
//!   different frames."
//! * [`Mitigation::FrameDrop`] — §IX-B: "reduce the number of video call
//!   frames shared with the adversary".
//! * [`Mitigation::DeepfakeReplay`] — §IX-B: after the first frame, send
//!   animated fakes instead of real frames (First Order Motion substitute:
//!   the frozen first composited frame animated with a small parametric
//!   wobble — the security property is that *no real frame after frame 1 is
//!   ever transmitted*, which any animation source preserves).
//!
//! The random-per-call virtual background heuristic (§IX-B) is realised by
//! feeding [`crate::background::random_image`] as the session's background
//! rather than through this enum, since it changes the input, not the
//! pipeline.

use bb_imaging::{filter, geom, Frame, Hsv};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the dynamic-virtual-background defence (§IX-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicBackgroundParams {
    /// Gaussian smoothing sigma applied to the real background's
    /// brightness/saturation fields before transfer.
    pub kernel_sigma: f32,
    /// Maximum per-frame hue fluctuation in degrees.
    pub hue_jitter_deg: f32,
    /// Strength of the brightness/saturation transfer in `[0, 1]`.
    pub transfer_strength: f32,
}

impl Default for DynamicBackgroundParams {
    fn default() -> Self {
        DynamicBackgroundParams {
            kernel_sigma: 2.0,
            hue_jitter_deg: 14.0,
            transfer_strength: 0.8,
        }
    }
}

/// A mitigation applied by the (defending) video-call software.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Mitigation {
    /// No defence (the paper's baseline).
    #[default]
    None,
    /// Dynamic virtual background (§IX-A).
    DynamicBackground(DynamicBackgroundParams),
    /// Keep only every `n`-th frame (§IX-B).
    FrameDrop {
        /// Keep one frame in `n` (must be ≥ 1).
        keep_every: usize,
    },
    /// Replace every frame after the first with an animated fake (§IX-B).
    DeepfakeReplay,
}

/// Adapts a virtual-background frame to the current *real* frame per the
/// dynamic-background defence: smoothed brightness/saturation transfer plus
/// per-pixel hue jitter.
///
/// `real` is the captured (uncomposited) frame — the defender runs inside
/// the video software and sees it; the adversary does not.
///
/// Deterministic in `(seed, frame_index)`.
pub fn adapt_virtual_background(
    vb: &Frame,
    real: &Frame,
    params: &DynamicBackgroundParams,
    seed: u64,
    frame_index: usize,
) -> Frame {
    let (w, h) = vb.dims();
    debug_assert_eq!(real.dims(), (w, h), "vb and real frame must share dims");
    // Smooth the real frame so the transferred fields vary slowly (the
    // "Gaussian kernel" of §IX-A).
    let smooth = filter::gaussian_blur(real, params.kernel_sigma.max(0.1))
        .expect("sigma is validated positive");
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (frame_index as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let s = params.transfer_strength.clamp(0.0, 1.0);

    Frame::from_fn(w, h, |x, y| {
        let v_hsv = vb.get(x, y).to_hsv();
        let r_hsv = smooth.get(x, y).to_hsv();
        let value = v_hsv.v * (1.0 - s) + r_hsv.v * s;
        let sat = v_hsv.s * (1.0 - s) + r_hsv.s * s;
        let jitter = rng.gen_range(-params.hue_jitter_deg..=params.hue_jitter_deg);
        Hsv::new(v_hsv.h + jitter, sat, value).to_rgb()
    })
}

/// Synthesises the deepfake-replay frame for index `i` from the frozen first
/// composited frame: a sub-pixel wobble plus breathing scale, so the frame
/// sequence looks alive while carrying zero information past frame 1.
pub fn deepfake_frame(first: &Frame, i: usize) -> Frame {
    if i == 0 {
        return first.clone();
    }
    let t = i as f32 * 0.21;
    let transform = geom::Transform {
        rotate_deg: 0.35 * (t * 0.7).sin(),
        scale: 1.0 + 0.004 * (t * 0.5).sin(),
        dx: 0.6 * t.sin(),
        dy: 0.4 * (t * 1.3).cos(),
    };
    let (out, valid) = geom::warp(first, &transform);
    // Invalid border pixels keep the original content.
    let mut filled = out;
    for (idx, ok) in valid.iter().enumerate() {
        if !ok {
            filled.pixels_mut()[idx] = first.pixels()[idx];
        }
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn vb() -> Frame {
        Frame::filled(16, 16, Rgb::new(40, 160, 220))
    }

    fn real() -> Frame {
        Frame::from_fn(16, 16, |x, _| Rgb::grey((x * 15) as u8))
    }

    #[test]
    fn adaptation_is_deterministic() {
        let p = DynamicBackgroundParams::default();
        let a = adapt_virtual_background(&vb(), &real(), &p, 3, 7);
        let b = adapt_virtual_background(&vb(), &real(), &p, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_frames_fluctuate() {
        let p = DynamicBackgroundParams::default();
        let a = adapt_virtual_background(&vb(), &real(), &p, 3, 0);
        let b = adapt_virtual_background(&vb(), &real(), &p, 3, 1);
        assert_ne!(a, b, "hue must fluctuate across frames");
    }

    #[test]
    fn brightness_follows_real_background() {
        let p = DynamicBackgroundParams {
            hue_jitter_deg: 0.0,
            ..Default::default()
        };
        let bright_real = Frame::filled(16, 16, Rgb::grey(230));
        let dark_real = Frame::filled(16, 16, Rgb::grey(25));
        let bright = adapt_virtual_background(&vb(), &bright_real, &p, 0, 0);
        let dark = adapt_virtual_background(&vb(), &dark_real, &p, 0, 0);
        let mean = |f: &Frame| f.pixels().iter().map(|q| q.luma() as u64).sum::<u64>() / 256;
        assert!(mean(&bright) > mean(&dark) + 40);
    }

    #[test]
    fn zero_strength_keeps_vb_value() {
        let p = DynamicBackgroundParams {
            hue_jitter_deg: 0.0,
            transfer_strength: 0.0,
            ..Default::default()
        };
        let out = adapt_virtual_background(&vb(), &real(), &p, 0, 0);
        // Hue/sat/val unchanged => pixel unchanged.
        assert_eq!(out, vb());
    }

    #[test]
    fn hue_jitter_stays_near_original() {
        let p = DynamicBackgroundParams {
            hue_jitter_deg: 10.0,
            transfer_strength: 0.0,
            ..Default::default()
        };
        let out = adapt_virtual_background(&vb(), &real(), &p, 1, 4);
        let base_hue = vb().get(0, 0).to_hsv().h;
        for (_, _, px) in out.enumerate() {
            let d = Hsv::hue_distance(px.to_hsv().h, base_hue);
            assert!(d <= 12.0, "hue drifted {d}°");
        }
    }

    #[test]
    fn deepfake_frame_zero_is_identity() {
        let f = real();
        assert_eq!(deepfake_frame(&f, 0), f);
    }

    #[test]
    fn deepfake_frames_move_but_stay_close() {
        let f = real();
        let a = deepfake_frame(&f, 5);
        assert_ne!(a, f, "fake frames must animate");
        let d = a.mean_abs_diff(&f).unwrap();
        assert!(d < 30.0, "fake drifted too far: {d}");
    }

    #[test]
    fn deepfake_sequence_varies() {
        let f = real();
        assert_ne!(deepfake_frame(&f, 3), deepfake_frame(&f, 9));
    }
}
