//! The articulated video caller.
//!
//! E1 participants performed ten actions wearing different apparel and
//! accessories (§VII-A). The synthetic caller is a layered 2-D body model —
//! torso, head, two articulated arms with hands — whose pose is driven by
//! [`crate::action`] and whose appearance (skin tone, apparel color/pattern,
//! hat, headphones) reproduces the Fig 9 experiment variables.
//!
//! Rendering returns the *true foreground mask* alongside the pixels: the
//! ground truth that `bb-callsim`'s imperfect matting stage corrupts and
//! that `bb-core`'s metrics are scored against.

use crate::palette;
use bb_imaging::{draw, Frame, Mask, Rgb};

/// Wearable accessories (the Fig 9 variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accessory {
    /// A brimmed hat above the head.
    Hat,
    /// Headphones: ear cups plus a headband arc.
    Headphones,
}

/// Visual appearance of a caller: identity (skin), apparel and accessories.
#[derive(Debug, Clone, PartialEq)]
pub struct CallerAppearance {
    /// Skin tone.
    pub skin: Rgb,
    /// Apparel (torso/arm) base color.
    pub apparel: Rgb,
    /// When true the apparel carries a checker pattern — §V-D notes clothing
    /// patterns amplify boundary color variation.
    pub patterned: bool,
    /// Accessories worn during the call.
    pub accessories: Vec<Accessory>,
    /// Hair color.
    pub hair: Rgb,
}

impl CallerAppearance {
    /// The appearance of E1/E2 participant `index` (0-based, wraps beyond 4)
    /// with default apparel and no accessories.
    pub fn participant(index: usize) -> Self {
        CallerAppearance {
            skin: palette::SKIN_TONES[index % palette::SKIN_TONES.len()],
            apparel: palette::APPAREL[index % palette::APPAREL.len()],
            patterned: false,
            accessories: Vec::new(),
            hair: Rgb::new(40, 30, 24),
        }
    }

    /// Returns a copy wearing the given accessories.
    pub fn with_accessories(mut self, accessories: &[Accessory]) -> Self {
        self.accessories = accessories.to_vec();
        self
    }

    /// Returns a copy with different apparel.
    pub fn with_apparel(mut self, apparel: Rgb, patterned: bool) -> Self {
        self.apparel = apparel;
        self.patterned = patterned;
        self
    }
}

/// A caller pose: where the body parts are this frame.
///
/// All positions are in frame coordinates; angles in degrees. The neutral
/// pose has the caller centred horizontally, torso bottom at the frame
/// bottom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallerPose {
    /// Horizontal centre of the torso (fraction of frame width, 0..1; may
    /// leave the unit range during enter/exit).
    pub center_x: f32,
    /// Scale of the whole body (1.0 = neutral; >1 leaning forward/towards
    /// the camera, <1 leaning back).
    pub scale: f32,
    /// Whole-body rotation in degrees (rotating action).
    pub rotate_deg: f32,
    /// Left-arm elevation in degrees (0 = hanging down, 180 = straight up).
    pub left_arm_deg: f32,
    /// Right-arm elevation in degrees.
    pub right_arm_deg: f32,
    /// Vertical head bob in fractions of head radius (drinking, typing).
    pub head_bob: f32,
    /// Whether the caller is present in frame at all (enter/exit).
    pub visible: bool,
}

impl Default for CallerPose {
    fn default() -> Self {
        CallerPose {
            center_x: 0.5,
            scale: 1.0,
            rotate_deg: 0.0,
            left_arm_deg: 20.0,
            right_arm_deg: 20.0,
            head_bob: 0.0,
            visible: true,
        }
    }
}

/// Draws a thick line as a sequence of filled circles (capsule shape), in
/// both the frame and the mask.
#[allow(clippy::too_many_arguments)] // limb geometry reads best as explicit endpoints
fn capsule(
    frame: &mut Frame,
    mask: &mut Mask,
    x0: f32,
    y0: f32,
    x1: f32,
    y1: f32,
    radius: i64,
    color: Rgb,
) {
    let steps = ((x1 - x0).abs().max((y1 - y0).abs()) as i64).max(1);
    for s in 0..=steps {
        let t = s as f32 / steps as f32;
        let cx = (x0 + (x1 - x0) * t) as i64;
        let cy = (y0 + (y1 - y0) * t) as i64;
        draw::fill_circle(frame, cx, cy, radius, color);
        stamp_circle(mask, cx, cy, radius);
    }
}

fn stamp_circle(mask: &mut Mask, cx: i64, cy: i64, r: i64) {
    let (w, h) = mask.dims();
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy <= r * r {
                let (px, py) = (cx + dx, cy + dy);
                if px >= 0 && py >= 0 && (px as usize) < w && (py as usize) < h {
                    mask.set(px as usize, py as usize, true);
                }
            }
        }
    }
}

fn stamp_ellipse(mask: &mut Mask, cx: i64, cy: i64, rx: i64, ry: i64) {
    if rx <= 0 || ry <= 0 {
        return;
    }
    let (w, h) = mask.dims();
    for dy in -ry..=ry {
        for dx in -rx..=rx {
            let nx = dx as f64 / rx as f64;
            let ny = dy as f64 / ry as f64;
            if nx * nx + ny * ny <= 1.0 {
                let (px, py) = (cx + dx, cy + dy);
                if px >= 0 && py >= 0 && (px as usize) < w && (py as usize) < h {
                    mask.set(px as usize, py as usize, true);
                }
            }
        }
    }
}

fn stamp_rect(mask: &mut Mask, x: i64, y: i64, rw: usize, rh: usize) {
    let (w, h) = mask.dims();
    for dy in 0..rh as i64 {
        for dx in 0..rw as i64 {
            let (px, py) = (x + dx, y + dy);
            if px >= 0 && py >= 0 && (px as usize) < w && (py as usize) < h {
                mask.set(px as usize, py as usize, true);
            }
        }
    }
}

/// Renders the caller over `frame` in the given pose and returns the true
/// foreground mask.
///
/// The mask covers exactly the pixels the renderer painted — it is the
/// ground-truth `VCⁱ` bitmap of §III's four-component frame decomposition.
pub fn render_caller(frame: &mut Frame, appearance: &CallerAppearance, pose: &CallerPose) -> Mask {
    let (w, h) = frame.dims();
    let mut mask = Mask::new(w, h);
    if !pose.visible {
        return mask;
    }

    let s = pose.scale;
    let cx = pose.center_x * w as f32;
    // Proportions relative to frame height.
    let torso_h = h as f32 * 0.52 * s;
    let torso_w = h as f32 * 0.36 * s;
    let head_r = h as f32 * 0.13 * s;
    let arm_r = (h as f32 * 0.045 * s).max(1.0) as i64;
    let hand_r = (h as f32 * 0.05 * s).max(1.0) as i64;

    // Torso: an ellipse anchored to the bottom edge.
    let torso_cy = h as f32 - torso_h / 2.0;
    let rot = pose.rotate_deg.to_radians();
    // Rotation narrows the torso (the caller turns sideways).
    let eff_torso_w = torso_w * (0.45 + 0.55 * rot.cos().abs());

    draw::fill_ellipse(
        frame,
        cx as i64,
        torso_cy as i64,
        (eff_torso_w / 2.0) as i64,
        (torso_h / 2.0) as i64,
        appearance.apparel,
    );
    stamp_ellipse(
        &mut mask,
        cx as i64,
        torso_cy as i64,
        (eff_torso_w / 2.0) as i64,
        (torso_h / 2.0) as i64,
    );
    if appearance.patterned {
        // Checker pattern clipped to the torso ellipse.
        let cell = (h / 24).max(2);
        let pattern_color = appearance.apparel.scale(0.7);
        let (rx, ry) = ((eff_torso_w / 2.0) as i64, (torso_h / 2.0) as i64);
        for dy in -ry..=ry {
            for dx in -rx..=rx {
                let nx = dx as f64 / rx.max(1) as f64;
                let ny = dy as f64 / ry.max(1) as f64;
                if nx * nx + ny * ny <= 1.0 {
                    let px = cx as i64 + dx;
                    let py = torso_cy as i64 + dy;
                    if ((px.unsigned_abs() as usize / cell) + (py.unsigned_abs() as usize / cell))
                        .is_multiple_of(2)
                    {
                        frame.put_clipped(px, py, pattern_color);
                    }
                }
            }
        }
    }

    // Shoulders and arms.
    let shoulder_y = h as f32 - torso_h * 0.82;
    let arm_len = torso_h * 0.62;
    for (side, angle_deg) in [(-1.0f32, pose.left_arm_deg), (1.0f32, pose.right_arm_deg)] {
        let sx = cx + side * eff_torso_w * 0.42;
        let a = angle_deg.to_radians();
        // 0° = hanging down along the torso, 90° = horizontal, 180° = up.
        let ex = sx + side * a.sin() * arm_len;
        let ey = shoulder_y + a.cos() * arm_len;
        capsule(
            frame,
            &mut mask,
            sx,
            shoulder_y,
            ex,
            ey,
            arm_r,
            appearance.apparel,
        );
        // Hand.
        draw::fill_circle(frame, ex as i64, ey as i64, hand_r, appearance.skin);
        stamp_circle(&mut mask, ex as i64, ey as i64, hand_r);
    }

    // Neck + head.
    let head_cy = shoulder_y - head_r * 1.1 + pose.head_bob * head_r;
    draw::fill_rect(
        frame,
        (cx - head_r * 0.3) as i64,
        (head_cy + head_r * 0.6) as i64,
        (head_r * 0.6) as usize,
        (head_r * 0.9) as usize,
        appearance.skin,
    );
    stamp_rect(
        &mut mask,
        (cx - head_r * 0.3) as i64,
        (head_cy + head_r * 0.6) as i64,
        (head_r * 0.6) as usize,
        (head_r * 0.9) as usize,
    );
    draw::fill_circle(
        frame,
        cx as i64,
        head_cy as i64,
        head_r as i64,
        appearance.skin,
    );
    stamp_circle(&mut mask, cx as i64, head_cy as i64, head_r as i64);
    // Hair cap.
    draw::fill_ellipse(
        frame,
        cx as i64,
        (head_cy - head_r * 0.55) as i64,
        head_r as i64,
        (head_r * 0.5) as i64,
        appearance.hair,
    );
    stamp_ellipse(
        &mut mask,
        cx as i64,
        (head_cy - head_r * 0.55) as i64,
        head_r as i64,
        (head_r * 0.5) as i64,
    );

    // Accessories.
    for acc in &appearance.accessories {
        match acc {
            Accessory::Hat => {
                let brim_w = (head_r * 2.6) as usize;
                let brim_y = (head_cy - head_r * 1.0) as i64;
                draw::fill_rect(
                    frame,
                    (cx - head_r * 1.3) as i64,
                    brim_y,
                    brim_w,
                    2,
                    palette::INK,
                );
                stamp_rect(&mut mask, (cx - head_r * 1.3) as i64, brim_y, brim_w, 2);
                let crown_w = (head_r * 1.6) as usize;
                let crown_h = (head_r * 0.8) as usize;
                draw::fill_rect(
                    frame,
                    (cx - head_r * 0.8) as i64,
                    brim_y - crown_h as i64,
                    crown_w,
                    crown_h,
                    palette::INK,
                );
                stamp_rect(
                    &mut mask,
                    (cx - head_r * 0.8) as i64,
                    brim_y - crown_h as i64,
                    crown_w,
                    crown_h,
                );
            }
            Accessory::Headphones => {
                let cup_r = (head_r * 0.35).max(1.0) as i64;
                for side in [-1.0f32, 1.0] {
                    let ex = (cx + side * head_r) as i64;
                    draw::fill_circle(frame, ex, head_cy as i64, cup_r, Rgb::grey(30));
                    stamp_circle(&mut mask, ex, head_cy as i64, cup_r);
                }
                // Headband.
                draw::stroke_circle(
                    frame,
                    cx as i64,
                    head_cy as i64,
                    (head_r * 1.05) as i64,
                    Rgb::grey(30),
                );
            }
        }
    }

    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neutral_render(appearance: &CallerAppearance) -> (Frame, Mask) {
        let mut f = Frame::filled(120, 90, Rgb::WHITE);
        let m = render_caller(&mut f, appearance, &CallerPose::default());
        (f, m)
    }

    #[test]
    fn invisible_pose_renders_nothing() {
        let mut f = Frame::filled(60, 40, Rgb::WHITE);
        let pose = CallerPose {
            visible: false,
            ..CallerPose::default()
        };
        let m = render_caller(&mut f, &CallerAppearance::participant(0), &pose);
        assert!(m.is_empty());
        assert!(f.pixels().iter().all(|&p| p == Rgb::WHITE));
    }

    #[test]
    fn mask_covers_painted_pixels() {
        let (f, m) = neutral_render(&CallerAppearance::participant(1));
        // Every non-white pixel is in the mask (painted ⇒ masked).
        for (x, y, p) in f.enumerate() {
            if p != Rgb::WHITE {
                assert!(m.get(x, y), "painted pixel ({x},{y}) not in mask");
            }
        }
        assert!(m.count_set() > 500, "caller too small: {}", m.count_set());
    }

    #[test]
    fn mask_pixels_are_painted() {
        // The converse: mask pixels must be body-colored (not background).
        let (f, m) = neutral_render(&CallerAppearance::participant(2));
        let stray = m
            .iter_set()
            .filter(|&(x, y)| f.get(x, y) == Rgb::WHITE)
            .count();
        // Allow a tiny tolerance for anti-overlap artifacts; expect none.
        assert_eq!(stray, 0, "{stray} mask pixels left unpainted");
    }

    #[test]
    fn scale_changes_body_size() {
        let app = CallerAppearance::participant(0);
        let mut f1 = Frame::filled(120, 90, Rgb::WHITE);
        let m1 = render_caller(
            &mut f1,
            &app,
            &CallerPose {
                scale: 0.8,
                ..Default::default()
            },
        );
        let mut f2 = Frame::filled(120, 90, Rgb::WHITE);
        let m2 = render_caller(
            &mut f2,
            &app,
            &CallerPose {
                scale: 1.2,
                ..Default::default()
            },
        );
        assert!(m2.count_set() > m1.count_set());
    }

    #[test]
    fn arm_raise_moves_hand_up() {
        let app = CallerAppearance::participant(0);
        let down = CallerPose {
            right_arm_deg: 10.0,
            ..Default::default()
        };
        let up = CallerPose {
            right_arm_deg: 170.0,
            ..Default::default()
        };
        let mut fd = Frame::filled(120, 90, Rgb::WHITE);
        let md = render_caller(&mut fd, &app, &down);
        let mut fu = Frame::filled(120, 90, Rgb::WHITE);
        let mu = render_caller(&mut fu, &app, &up);
        let top_of = |m: &Mask| m.bounding_box().unwrap().1;
        assert!(top_of(&mu) <= top_of(&md), "raised arm should reach higher");
        // The two poses differ substantially.
        let diff = mu.subtract(&md).unwrap().count_set() + md.subtract(&mu).unwrap().count_set();
        assert!(diff > 50, "poses nearly identical ({diff} px)");
    }

    #[test]
    fn rotation_narrows_torso() {
        let app = CallerAppearance::participant(0);
        let front = CallerPose::default();
        let side = CallerPose {
            rotate_deg: 80.0,
            ..Default::default()
        };
        let mut ff = Frame::filled(120, 90, Rgb::WHITE);
        let mf = render_caller(&mut ff, &app, &front);
        let mut fs = Frame::filled(120, 90, Rgb::WHITE);
        let ms = render_caller(&mut fs, &app, &side);
        assert!(ms.count_set() < mf.count_set());
    }

    #[test]
    fn accessories_add_pixels() {
        let plain = CallerAppearance::participant(0);
        let hat = plain.clone().with_accessories(&[Accessory::Hat]);
        let phones = plain.clone().with_accessories(&[Accessory::Headphones]);
        let (_, mp) = neutral_render(&plain);
        let (_, mh) = neutral_render(&hat);
        let (_, mhp) = neutral_render(&phones);
        assert!(mh.count_set() > mp.count_set());
        assert!(mhp.count_set() > mp.count_set());
    }

    #[test]
    fn pattern_changes_pixels_not_mask() {
        let plain = CallerAppearance::participant(0);
        let patterned = plain.clone().with_apparel(plain.apparel, true);
        let (fp, mp) = neutral_render(&plain);
        let (fq, mq) = neutral_render(&patterned);
        assert_eq!(mp, mq, "pattern must not change silhouette");
        assert_ne!(fp, fq, "pattern must change pixels");
    }

    #[test]
    fn enter_exit_offscreen_center() {
        let app = CallerAppearance::participant(3);
        let mut f = Frame::filled(120, 90, Rgb::WHITE);
        let off = CallerPose {
            center_x: -0.6,
            ..Default::default()
        };
        let m = render_caller(&mut f, &app, &off);
        // Fully off-screen to the left: nothing (or nearly nothing) painted.
        assert!(
            m.count_set() < 40,
            "off-screen caller painted {}",
            m.count_set()
        );
    }
}
