//! Camera model: pose perturbation, lighting, and sensor noise.
//!
//! Three paper phenomena live here:
//!
//! * **Lighting** (Fig 10/11): lights on vs off scale scene brightness and
//!   raise sensor noise in the dark.
//! * **Camera re-adjustment** (§VI): "the camera view may have slightly
//!   rotated and/or shifted… if the webcam was re-adjusted or if it is a
//!   laptop webcam" — modelled as a per-session [`CameraPose`].
//! * **Sensor noise**: per-pixel deterministic noise; the E3 "in the wild"
//!   profile uses better cameras (lower noise, better lighting), which the
//!   paper credits for Zoom separating fore/background more cleanly there.

use bb_imaging::{geom, Frame, Rgb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Background lighting state (the Fig 10/11 variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lighting {
    /// Background lights on: full brightness, low noise.
    On,
    /// Background lights off: dimmed scene, more sensor noise.
    Off,
}

impl Lighting {
    /// Scene brightness multiplier.
    pub fn brightness(self) -> f32 {
        match self {
            Lighting::On => 1.0,
            Lighting::Off => 0.55,
        }
    }

    /// Sensor noise standard deviation (intensity units).
    pub fn noise_sigma(self) -> f32 {
        match self {
            Lighting::On => 2.0,
            Lighting::Off => 5.0,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Lighting::On => "on",
            Lighting::Off => "off",
        }
    }
}

/// A per-session camera pose: small shift + rotation relative to the pose
/// the adversary's dictionary image was captured at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraPose {
    /// Horizontal shift in pixels.
    pub dx: f32,
    /// Vertical shift in pixels.
    pub dy: f32,
    /// Rotation in degrees.
    pub rot_deg: f32,
}

impl Default for CameraPose {
    fn default() -> Self {
        CameraPose {
            dx: 0.0,
            dy: 0.0,
            rot_deg: 0.0,
        }
    }
}

impl CameraPose {
    /// The canonical (dictionary) pose.
    pub fn canonical() -> Self {
        Self::default()
    }

    /// Samples a small re-adjustment: |shift| ≤ `max_shift` px,
    /// |rotation| ≤ `max_rot` degrees.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, max_shift: f32, max_rot: f32) -> Self {
        CameraPose {
            dx: rng.gen_range(-max_shift..=max_shift),
            dy: rng.gen_range(-max_shift..=max_shift),
            rot_deg: rng.gen_range(-max_rot..=max_rot),
        }
    }

    /// The imaging-layer transform equivalent of this pose.
    pub fn to_transform(self) -> geom::Transform {
        geom::Transform {
            rotate_deg: self.rot_deg,
            scale: 1.0,
            dx: self.dx,
            dy: self.dy,
        }
    }
}

/// Camera quality profile: noise scale and lighting quality, separating the
/// consumer webcams of E1/E2 from the production cameras of E3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraQuality {
    /// Multiplier on [`Lighting::noise_sigma`].
    pub noise_scale: f32,
    /// Additional brightness multiplier (studio lighting ≥ 1.0).
    pub brightness_scale: f32,
}

impl CameraQuality {
    /// Consumer laptop webcam (E1/E2).
    pub fn consumer() -> Self {
        CameraQuality {
            noise_scale: 1.0,
            brightness_scale: 1.0,
        }
    }

    /// Production camera + studio lighting (E3, "high-quality lighting and
    /// cameras employed for producing YouTube videos", §VIII-C).
    pub fn production() -> Self {
        CameraQuality {
            noise_scale: 0.35,
            brightness_scale: 1.08,
        }
    }
}

/// Applies the sensor pipeline to a pristine scene frame: camera pose warp,
/// lighting, then deterministic per-pixel noise seeded by
/// `(seed, frame_index)`.
///
/// Out-of-view pixels (introduced by the warp) are filled with the scene's
/// edge content by clamping — real webcams do not produce black wedges for a
/// two-pixel nudge, and neither should the simulator.
pub fn capture(
    scene: &Frame,
    pose: &CameraPose,
    lighting: Lighting,
    quality: &CameraQuality,
    seed: u64,
    frame_index: usize,
) -> Frame {
    // Pose warp.
    let warped = if *pose == CameraPose::canonical() {
        scene.clone()
    } else {
        let (mut out, valid) = geom::warp(scene, &pose.to_transform());
        // Fill invalid border pixels with the nearest valid content.
        let (w, h) = out.dims();
        for y in 0..h {
            for x in 0..w {
                if !valid.get(x, y) {
                    let cx = x.clamp(1, w - 2);
                    let cy = y.clamp(1, h - 2);
                    // March inward until a valid pixel is found.
                    let mut fill = scene.get(cx, cy);
                    'search: for r in 1..w.max(h) as i64 {
                        for (nx, ny) in [
                            (x as i64 + r, y as i64),
                            (x as i64 - r, y as i64),
                            (x as i64, y as i64 + r),
                            (x as i64, y as i64 - r),
                        ] {
                            if nx >= 0
                                && ny >= 0
                                && (nx as usize) < w
                                && (ny as usize) < h
                                && valid.get(nx as usize, ny as usize)
                            {
                                fill = out.get(nx as usize, ny as usize);
                                break 'search;
                            }
                        }
                    }
                    out.put(x, y, fill);
                }
            }
        }
        out
    };

    // Lighting + noise.
    let brightness = lighting.brightness() * quality.brightness_scale;
    let sigma = lighting.noise_sigma() * quality.noise_scale;
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (frame_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = warped;
    out.map_in_place(|p| {
        let lit = p.scale(brightness);
        if sigma <= 0.0 {
            return lit;
        }
        // Approximate Gaussian noise: sum of 4 uniforms (Irwin–Hall).
        let mut noise = || {
            let u: f32 = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).sum::<f32>() / 2.0;
            (u * sigma).round() as i32
        };
        let clamp = |v: i32| v.clamp(0, 255) as u8;
        Rgb::new(
            clamp(lit.r as i32 + noise()),
            clamp(lit.g as i32 + noise()),
            clamp(lit.b as i32 + noise()),
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn scene() -> Frame {
        Frame::from_fn(32, 24, |x, y| Rgb::new((x * 8) as u8, (y * 10) as u8, 60))
    }

    #[test]
    fn capture_is_deterministic() {
        let s = scene();
        let pose = CameraPose {
            dx: 1.5,
            dy: -0.5,
            rot_deg: 2.0,
        };
        let a = capture(&s, &pose, Lighting::On, &CameraQuality::consumer(), 7, 3);
        let b = capture(&s, &pose, Lighting::On, &CameraQuality::consumer(), 7, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_frames_get_different_noise() {
        let s = scene();
        let a = capture(
            &s,
            &CameraPose::canonical(),
            Lighting::On,
            &CameraQuality::consumer(),
            7,
            0,
        );
        let b = capture(
            &s,
            &CameraPose::canonical(),
            Lighting::On,
            &CameraQuality::consumer(),
            7,
            1,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn lights_off_darkens() {
        let s = scene();
        let on = capture(
            &s,
            &CameraPose::canonical(),
            Lighting::On,
            &CameraQuality::consumer(),
            1,
            0,
        );
        let off = capture(
            &s,
            &CameraPose::canonical(),
            Lighting::Off,
            &CameraQuality::consumer(),
            1,
            0,
        );
        let mean = |f: &Frame| {
            f.pixels().iter().map(|p| p.luma() as u64).sum::<u64>() / f.resolution() as u64
        };
        assert!(mean(&off) < mean(&on));
    }

    #[test]
    fn production_quality_is_cleaner() {
        let s = scene();
        let consumer = capture(
            &s,
            &CameraPose::canonical(),
            Lighting::On,
            &CameraQuality::consumer(),
            3,
            0,
        );
        let production = capture(
            &s,
            &CameraPose::canonical(),
            Lighting::On,
            &CameraQuality::production(),
            3,
            0,
        );
        // Compare residual noise vs the noiselessly lit scene.
        let lit_consumer = {
            let mut f = s.clone();
            f.map_in_place(|p| p.scale(Lighting::On.brightness()));
            f
        };
        let lit_production = {
            let mut f = s.clone();
            f.map_in_place(|p| p.scale(Lighting::On.brightness() * 1.08));
            f
        };
        let noise_consumer = consumer.mean_abs_diff(&lit_consumer).unwrap();
        let noise_production = production.mean_abs_diff(&lit_production).unwrap();
        assert!(
            noise_production < noise_consumer,
            "production {noise_production} >= consumer {noise_consumer}"
        );
    }

    #[test]
    fn warp_fills_borders_without_black_wedges() {
        let s = Frame::filled(20, 20, Rgb::new(200, 150, 100));
        let pose = CameraPose {
            dx: 3.0,
            dy: 2.0,
            rot_deg: 4.0,
        };
        let out = capture(
            &s,
            &pose,
            Lighting::On,
            &CameraQuality {
                noise_scale: 0.0,
                brightness_scale: 1.0,
            },
            0,
            0,
        );
        // No pixel should be black: the scene is uniformly colored.
        assert_eq!(out.count_where(|p| p == Rgb::BLACK), 0);
    }

    #[test]
    fn pose_sampling_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = CameraPose::sample(&mut rng, 3.0, 2.0);
            assert!(p.dx.abs() <= 3.0 && p.dy.abs() <= 3.0);
            assert!(p.rot_deg.abs() <= 2.0);
        }
    }

    #[test]
    fn zero_sigma_is_noise_free() {
        let s = scene();
        let q = CameraQuality {
            noise_scale: 0.0,
            brightness_scale: 1.0,
        };
        let out = capture(&s, &CameraPose::canonical(), Lighting::On, &q, 9, 0);
        assert_eq!(out, s);
    }
}
