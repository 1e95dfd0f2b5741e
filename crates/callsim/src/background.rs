//! Virtual backgrounds: static images, looping videos, and blur.
//!
//! §V-B distinguishes known virtual images (the adversary owns `D_img`, a
//! dataset of "default/popular virtual background images") from unknown ones.
//! The built-in gallery here plays the role of Zoom's default backgrounds:
//! experiments draw the target's background from it (known case) or generate
//! a fresh one outside it (unknown / random-background mitigation).
//!
//! The gallery is addressed through [`BackgroundId`] — a stable, `FromStr`
//! identifier per built-in — so sweep specs and CLI flags can name
//! backgrounds declaratively, and [`VbMode`] adds the compositor axis real
//! platforms actually ship: image replacement, animated video, or
//! background *blur*.

use bb_imaging::{draw, filter, geom, Frame, Rgb};
use bb_video::VideoStream;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A virtual background: what the compositor pastes where the matting stage
/// decided "background".
#[derive(Debug, Clone, PartialEq)]
pub enum VirtualBackground {
    /// A static virtual image (`VI` in §III).
    Image(Frame),
    /// A looping virtual video; frame `i` of the call uses video frame
    /// `i % len`.
    Video(VideoStream),
}

impl VirtualBackground {
    /// The background frame used at call-frame `i`, resized to `w × h`.
    pub fn frame_at(&self, i: usize, w: usize, h: usize) -> Frame {
        match self {
            VirtualBackground::Image(img) => geom::resize(img, w, h),
            VirtualBackground::Video(vid) => geom::resize(vid.frame(i % vid.len()), w, h),
        }
    }

    /// Index into the underlying media used at call-frame `i` (always 0 for
    /// images).
    pub fn media_index(&self, i: usize) -> usize {
        match self {
            VirtualBackground::Image(_) => 0,
            VirtualBackground::Video(v) => i % v.len(),
        }
    }

    /// Loop length: 1 for images, frame count for videos.
    pub fn period(&self) -> usize {
        match self {
            VirtualBackground::Image(_) => 1,
            VirtualBackground::Video(v) => v.len(),
        }
    }
}

/// The compositor mode for a simulated call: what gets painted where the
/// matting stage decided "background".
///
/// `Image` and `Video` replace the scene (the paper's VB modes); `Blur`
/// keeps the scene but low-passes it — the default mode on real platforms,
/// and the mode the blur-residue reconstruction
/// (`bb_core::pipeline::ReconMode::BlurResidue`) attacks.
#[derive(Debug, Clone, PartialEq)]
pub enum VbMode {
    /// Replace the background with a static virtual image.
    Image(Frame),
    /// Replace the background with a looping virtual video.
    Video(VideoStream),
    /// Blur the real background with a `(2·radius+1)`-box kernel
    /// ([`bb_imaging::filter::box_blur`]). `radius = 0` degenerates to a
    /// pass-through (no privacy).
    Blur {
        /// Box-blur radius in pixels.
        radius: usize,
    },
}

impl VbMode {
    /// The background frame the compositor pastes at call-frame `i`, given
    /// the raw captured frame (`w × h`). Image/video media are resized; blur
    /// low-passes the raw frame itself.
    pub fn background_for(&self, raw: &Frame, i: usize, w: usize, h: usize) -> Frame {
        match self {
            VbMode::Image(img) => geom::resize(img, w, h),
            VbMode::Video(vid) => geom::resize(vid.frame(i % vid.len()), w, h),
            VbMode::Blur { radius } => filter::box_blur(raw, *radius),
        }
    }

    /// Index into the underlying media used at call-frame `i` (always 0 for
    /// images and blur).
    pub fn media_index(&self, i: usize) -> usize {
        match self {
            VbMode::Video(v) => i % v.len(),
            _ => 0,
        }
    }

    /// Loop length: frame count for videos, 1 otherwise.
    pub fn period(&self) -> usize {
        match self {
            VbMode::Video(v) => v.len(),
            _ => 1,
        }
    }
}

impl From<VirtualBackground> for VbMode {
    fn from(vb: VirtualBackground) -> Self {
        match vb {
            VirtualBackground::Image(img) => VbMode::Image(img),
            VirtualBackground::Video(vid) => VbMode::Video(vid),
        }
    }
}

/// A named entry in the built-in background catalog.
///
/// Identifiers are stable lowercase `snake_case` strings (`FromStr` also
/// accepts `-` for `_`), so matrix specs and CLI flags reference backgrounds
/// declaratively: `"beach"`, `"drifting_clouds"`, …
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackgroundId {
    /// A sunny beach: sky gradient, sea band, sand, sun.
    Beach,
    /// A tidy office: wall, desk line, shelf block, window.
    Office,
    /// Deep space: dark gradient, deterministic star field, a planet.
    Space,
    /// Looping video: clouds drifting across a sky (period 24).
    DriftingClouds,
    /// Looping video: two blobs orbiting lava-lamp style (period 36).
    LavaLamp,
}

impl BackgroundId {
    /// Every catalog entry, images first, in gallery order.
    pub const ALL: [BackgroundId; 5] = [
        BackgroundId::Beach,
        BackgroundId::Office,
        BackgroundId::Space,
        BackgroundId::DriftingClouds,
        BackgroundId::LavaLamp,
    ];

    /// The three built-in virtual *images* (the paper's VBMR experiment uses
    /// "three different virtual images", §VIII-B).
    pub const IMAGES: [BackgroundId; 3] = [
        BackgroundId::Beach,
        BackgroundId::Office,
        BackgroundId::Space,
    ];

    /// The two built-in virtual *videos* (§VIII-B uses "two virtual
    /// videos").
    pub const VIDEOS: [BackgroundId; 2] = [BackgroundId::DriftingClouds, BackgroundId::LavaLamp];

    /// Stable lowercase identifier (round-trips through [`FromStr`](std::str::FromStr)).
    pub fn name(self) -> &'static str {
        match self {
            BackgroundId::Beach => "beach",
            BackgroundId::Office => "office",
            BackgroundId::Space => "space",
            BackgroundId::DriftingClouds => "drifting_clouds",
            BackgroundId::LavaLamp => "lava_lamp",
        }
    }

    /// True for the looping-video entries.
    pub fn is_video(self) -> bool {
        matches!(self, BackgroundId::DriftingClouds | BackgroundId::LavaLamp)
    }

    /// Renders this catalog entry at `w × h`.
    pub fn realize(self, w: usize, h: usize) -> VirtualBackground {
        match self {
            BackgroundId::Beach => VirtualBackground::Image(draw_beach(w, h)),
            BackgroundId::Office => VirtualBackground::Image(draw_office(w, h)),
            BackgroundId::Space => VirtualBackground::Image(draw_space(w, h)),
            BackgroundId::DriftingClouds => {
                VirtualBackground::Video(draw_drifting_clouds(w, h, 24))
            }
            BackgroundId::LavaLamp => VirtualBackground::Video(draw_lava_lamp(w, h, 36)),
        }
    }
}

impl std::str::FromStr for BackgroundId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.replace('-', "_");
        BackgroundId::ALL
            .into_iter()
            .find(|id| id.name() == normalized)
            .ok_or_else(|| {
                let names: Vec<&str> = BackgroundId::ALL.iter().map(|id| id.name()).collect();
                format!("unknown background {s:?}; one of {}", names.join(", "))
            })
    }
}

impl std::fmt::Display for BackgroundId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The full built-in catalog, images first.
pub fn catalog() -> &'static [BackgroundId] {
    &BackgroundId::ALL
}

/// Renders every catalog *image* at `w × h` (the adversary's `D_img`).
pub fn catalog_images(w: usize, h: usize) -> Vec<Frame> {
    BackgroundId::IMAGES
        .into_iter()
        .map(|id| match id.realize(w, h) {
            VirtualBackground::Image(img) => img,
            VirtualBackground::Video(_) => unreachable!("IMAGES holds no videos"),
        })
        .collect()
}

/// Renders every catalog *video* at `w × h` (the adversary's `D_vid`).
pub fn catalog_videos(w: usize, h: usize) -> Vec<VideoStream> {
    BackgroundId::VIDEOS
        .into_iter()
        .map(|id| match id.realize(w, h) {
            VirtualBackground::Video(vid) => vid,
            VirtualBackground::Image(_) => unreachable!("VIDEOS holds no images"),
        })
        .collect()
}

/// The built-in gallery names, in gallery order.
pub const GALLERY_NAMES: [&str; 3] = ["beach", "office", "space"];

/// A sunny beach: sky gradient, sea band, sand, sun.
fn draw_beach(w: usize, h: usize) -> Frame {
    let mut f = Frame::new(w, h);
    draw::vertical_gradient(&mut f, Rgb::new(118, 183, 236), Rgb::new(188, 224, 245));
    let sea_y = h * 3 / 5;
    draw::fill_rect(&mut f, 0, sea_y as i64, w, h / 5, Rgb::new(36, 118, 170));
    draw::fill_rect(
        &mut f,
        0,
        (sea_y + h / 5) as i64,
        w,
        h - sea_y - h / 5,
        Rgb::new(231, 209, 162),
    );
    draw::fill_circle(
        &mut f,
        (w * 4 / 5) as i64,
        (h / 5) as i64,
        (h / 9).max(2) as i64,
        Rgb::new(250, 230, 120),
    );
    f
}

/// A tidy office: wall, desk line, shelf block, window.
fn draw_office(w: usize, h: usize) -> Frame {
    let mut f = Frame::new(w, h);
    draw::vertical_gradient(&mut f, Rgb::new(214, 210, 200), Rgb::new(180, 176, 168));
    // Window.
    draw::fill_rect(
        &mut f,
        (w / 10) as i64,
        (h / 8) as i64,
        w / 4,
        h / 3,
        Rgb::new(200, 226, 240),
    );
    draw::stroke_rect(
        &mut f,
        (w / 10) as i64,
        (h / 8) as i64,
        w / 4,
        h / 3,
        Rgb::new(90, 84, 70),
    );
    // Shelf.
    draw::fill_rect(
        &mut f,
        (w * 3 / 5) as i64,
        (h / 6) as i64,
        w / 4,
        h / 15 + 1,
        Rgb::new(120, 88, 56),
    );
    // Desk.
    draw::fill_rect(
        &mut f,
        0,
        (h * 3 / 4) as i64,
        w,
        h / 20 + 1,
        Rgb::new(104, 74, 46),
    );
    f
}

/// Deep space: dark gradient plus a deterministic star field and a planet.
fn draw_space(w: usize, h: usize) -> Frame {
    let mut f = Frame::new(w, h);
    draw::vertical_gradient(&mut f, Rgb::new(8, 10, 28), Rgb::new(20, 14, 44));
    let mut rng = SmallRng::seed_from_u64(0xA57E0);
    for _ in 0..(w * h / 60).max(10) {
        let x = rng.gen_range(0..w) as i64;
        let y = rng.gen_range(0..h) as i64;
        let v = rng.gen_range(160..255) as u8;
        f.put_clipped(x, y, Rgb::grey(v));
    }
    draw::fill_circle(
        &mut f,
        (w / 4) as i64,
        (h / 3) as i64,
        (h / 7).max(2) as i64,
        Rgb::new(180, 110, 70),
    );
    f
}

/// A looping virtual video: clouds drifting across a sky, period = `frames`.
fn draw_drifting_clouds(w: usize, h: usize, frames: usize) -> VideoStream {
    assert!(frames >= 2, "a looping video needs at least 2 frames");
    VideoStream::generate(frames, 30.0, |i| {
        let mut f = Frame::new(w, h);
        draw::vertical_gradient(&mut f, Rgb::new(120, 180, 235), Rgb::new(200, 225, 246));
        // Two clouds moving with wrap-around so frame `frames` == frame 0.
        let phase = i as f64 / frames as f64;
        for (lane, speed, ry) in [(h / 4, 1.0, h / 10), (h / 2, 2.0, h / 14)] {
            let cx = ((phase * speed).fract() * w as f64) as i64;
            for dx in [-(w as i64), 0, w as i64] {
                draw::fill_ellipse(
                    &mut f,
                    cx + dx,
                    lane as i64,
                    (w / 6).max(2) as i64,
                    ry.max(1) as i64,
                    Rgb::new(245, 248, 252),
                );
            }
        }
        f
    })
    .expect("clouds video construction is infallible for frames >= 2")
}

/// A looping "lava lamp": two blobs orbiting with period = `frames`.
fn draw_lava_lamp(w: usize, h: usize, frames: usize) -> VideoStream {
    assert!(frames >= 2, "a looping video needs at least 2 frames");
    VideoStream::generate(frames, 30.0, |i| {
        let mut f = Frame::new(w, h);
        draw::vertical_gradient(&mut f, Rgb::new(40, 8, 52), Rgb::new(84, 16, 80));
        let t = i as f64 / frames as f64 * std::f64::consts::TAU;
        let (cx, cy) = (w as f64 / 2.0, h as f64 / 2.0);
        let r = h as f64 / 4.0;
        let b1 = (cx + t.cos() * r, cy + t.sin() * r);
        let b2 = (cx - t.cos() * r, cy - t.sin() * r);
        draw::fill_circle(
            &mut f,
            b1.0 as i64,
            b1.1 as i64,
            (h / 7).max(2) as i64,
            Rgb::new(240, 120, 40),
        );
        draw::fill_circle(
            &mut f,
            b2.0 as i64,
            b2.1 as i64,
            (h / 9).max(2) as i64,
            Rgb::new(250, 180, 60),
        );
        f
    })
    .expect("lava video construction is infallible for frames >= 2")
}

/// Generates a never-seen-before virtual image from a seed — the
/// random-background mitigation of §IX-B ("generate and use a new random
/// virtual background image for every call").
pub fn random_image(w: usize, h: usize, seed: u64) -> Frame {
    let mut rng = SmallRng::seed_from_u64(seed);
    let top = bb_imaging::Hsv::new(
        rng.gen_range(0.0..360.0),
        rng.gen_range(0.3..0.8),
        rng.gen_range(0.5..0.95),
    )
    .to_rgb();
    let bottom = bb_imaging::Hsv::new(
        rng.gen_range(0.0..360.0),
        rng.gen_range(0.3..0.8),
        rng.gen_range(0.3..0.8),
    )
    .to_rgb();
    let mut f = Frame::new(w, h);
    draw::vertical_gradient(&mut f, top, bottom);
    // Scatter some shapes.
    for _ in 0..rng.gen_range(3..9) {
        let color = bb_imaging::Hsv::new(rng.gen_range(0.0..360.0), 0.7, 0.85).to_rgb();
        let x = rng.gen_range(0..w) as i64;
        let y = rng.gen_range(0..h) as i64;
        if rng.gen_bool(0.5) {
            draw::fill_circle(&mut f, x, y, rng.gen_range(2..(h / 5).max(3)) as i64, color);
        } else {
            draw::fill_rect(
                &mut f,
                x,
                y,
                rng.gen_range(3..w / 3),
                rng.gen_range(3..h / 3),
                color,
            );
        }
    }
    // Smooth it slightly so it looks like a photo, not clip art.
    filter::box_blur(&f, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn image_background_is_constant_over_time() {
        let vb = BackgroundId::Beach.realize(40, 30);
        assert_eq!(vb.frame_at(0, 40, 30), vb.frame_at(99, 40, 30));
        assert_eq!(vb.period(), 1);
        assert_eq!(vb.media_index(57), 0);
    }

    #[test]
    fn video_background_loops() {
        let vb = VirtualBackground::Video(draw_lava_lamp(40, 30, 8));
        assert_eq!(vb.period(), 8);
        assert_eq!(vb.frame_at(3, 40, 30), vb.frame_at(11, 40, 30));
        assert_ne!(vb.frame_at(0, 40, 30), vb.frame_at(4, 40, 30));
        assert_eq!(vb.media_index(11), 3);
    }

    #[test]
    fn frame_at_resizes() {
        let vb = BackgroundId::Office.realize(80, 60);
        assert_eq!(vb.frame_at(0, 40, 30).dims(), (40, 30));
    }

    #[test]
    fn catalog_images_are_distinct() {
        let imgs = catalog_images(64, 48);
        assert_eq!(imgs.len(), 3);
        assert_ne!(imgs[0], imgs[1]);
        assert_ne!(imgs[1], imgs[2]);
        assert_ne!(imgs[0], imgs[2]);
    }

    #[test]
    fn catalog_videos_have_stated_periods() {
        let vids = catalog_videos(32, 24);
        assert_eq!(vids.len(), 2);
        assert_eq!(vids[0].len(), 24);
        assert_eq!(vids[1].len(), 36);
    }

    #[test]
    fn catalog_ids_round_trip_through_strings() {
        for id in catalog() {
            assert_eq!(BackgroundId::from_str(&id.to_string()).unwrap(), *id);
        }
        // Dashes normalize to underscores; unknown names are rejected.
        assert_eq!(
            BackgroundId::from_str("drifting-clouds").unwrap(),
            BackgroundId::DriftingClouds
        );
        assert!(BackgroundId::from_str("matrix").is_err());
    }

    #[test]
    fn catalog_partitions_into_images_and_videos() {
        assert_eq!(catalog().len(), 5);
        for id in BackgroundId::IMAGES {
            assert!(!id.is_video());
            assert!(matches!(id.realize(16, 12), VirtualBackground::Image(_)));
        }
        for id in BackgroundId::VIDEOS {
            assert!(id.is_video());
            assert!(matches!(id.realize(16, 12), VirtualBackground::Video(_)));
        }
    }

    #[test]
    fn clouds_wrap_seamlessly() {
        // Frame 0 and frame `frames` (i.e. loop restart) are identical by
        // construction; check near-boundary continuity instead: last frame
        // differs from first (motion) but the loop point matches.
        let v = draw_drifting_clouds(48, 36, 12);
        let vb = VirtualBackground::Video(v);
        assert_eq!(vb.frame_at(0, 48, 36), vb.frame_at(12, 48, 36));
    }

    #[test]
    fn blur_mode_blurs_the_raw_frame() {
        let raw = Frame::from_fn(20, 10, |x, _| if x < 10 { Rgb::BLACK } else { Rgb::WHITE });
        let blur = VbMode::Blur { radius: 2 };
        assert_eq!(
            blur.background_for(&raw, 0, 20, 10),
            filter::box_blur(&raw, 2)
        );
        assert_eq!(blur.period(), 1);
        assert_eq!(blur.media_index(7), 0);
        // Radius 0 degenerates to a pass-through.
        let noop = VbMode::Blur { radius: 0 };
        assert_eq!(noop.background_for(&raw, 0, 20, 10), raw);
    }

    #[test]
    fn vb_mode_from_virtual_background_preserves_media() {
        let img = BackgroundId::Space.realize(24, 18);
        let mode = VbMode::from(img.clone());
        let raw = Frame::new(24, 18);
        assert_eq!(
            mode.background_for(&raw, 5, 24, 18),
            img.frame_at(5, 24, 18)
        );
        let vid = BackgroundId::LavaLamp.realize(24, 18);
        let mode = VbMode::from(vid.clone());
        assert_eq!(mode.period(), vid.period());
        assert_eq!(mode.media_index(40), vid.media_index(40));
    }

    #[test]
    fn random_images_differ_by_seed_and_match_by_seed() {
        let a = random_image(40, 30, 1);
        let b = random_image(40, 30, 1);
        let c = random_image(40, 30, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least 2 frames")]
    fn one_frame_video_panics() {
        let _ = draw_drifting_clouds(10, 10, 1);
    }
}
