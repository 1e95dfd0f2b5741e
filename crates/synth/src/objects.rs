//! Scene objects: the privacy-relevant props the attacks look for.
//!
//! §VIII-D's generic-object experiment detects books, TVs, shirts, monitors
//! and clocks in reconstructed backgrounds; specific object tracking finds
//! posters, paintings, toys, bookshelves and books (Fig 13); text inference
//! reads a sticky note (Fig 14b). Every class appears here, each knowing how
//! to render itself and how to produce a clean *template* (the auxiliary
//! image the specific-object-tracking adversary owns, §VI).

use crate::palette;
use bb_imaging::{draw, Frame, Rgb};
use rand::Rng;

/// Semantic class of a scene object — the detector vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ObjectClass {
    /// A framed poster with colored stripes (often with a short title).
    Poster,
    /// A bookshelf with colored book spines.
    Bookshelf,
    /// A sticky note carrying text.
    StickyNote,
    /// A round wall clock.
    Clock,
    /// A television (wide dark panel).
    Tv,
    /// A computer monitor on a desk (smaller panel with a stand).
    Monitor,
    /// A hanging shirt.
    Shirt,
    /// A window showing daylight.
    Window,
    /// A door.
    Door,
    /// A small colorful toy figure.
    Toy,
    /// A framed painting (gradient scene).
    Painting,
}

impl ObjectClass {
    /// All classes, in a fixed order.
    pub const ALL: [ObjectClass; 11] = [
        ObjectClass::Poster,
        ObjectClass::Bookshelf,
        ObjectClass::StickyNote,
        ObjectClass::Clock,
        ObjectClass::Tv,
        ObjectClass::Monitor,
        ObjectClass::Shirt,
        ObjectClass::Window,
        ObjectClass::Door,
        ObjectClass::Toy,
        ObjectClass::Painting,
    ];

    /// Stable lowercase name (used in experiment reports).
    pub fn name(self) -> &'static str {
        match self {
            ObjectClass::Poster => "poster",
            ObjectClass::Bookshelf => "bookshelf",
            ObjectClass::StickyNote => "sticky-note",
            ObjectClass::Clock => "clock",
            ObjectClass::Tv => "tv",
            ObjectClass::Monitor => "monitor",
            ObjectClass::Shirt => "shirt",
            ObjectClass::Window => "window",
            ObjectClass::Door => "door",
            ObjectClass::Toy => "toy",
            ObjectClass::Painting => "painting",
        }
    }
}

impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete object instance: class, placement, and the style parameters
/// that make each instance visually unique.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Semantic class.
    pub class: ObjectClass,
    /// Left edge in background coordinates.
    pub x: i64,
    /// Top edge in background coordinates.
    pub y: i64,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
    /// Primary color.
    pub primary: Rgb,
    /// Secondary color (stripes, frame, spines...).
    pub secondary: Rgb,
    /// Optional text (sticky notes and posters).
    pub text: Option<String>,
    /// Style seed for per-instance details (spine layout etc.).
    pub style_seed: u64,
}

impl SceneObject {
    /// Samples a random instance of `class` sized for a `bg_w × bg_h`
    /// background.
    pub fn sample<R: Rng + ?Sized>(
        class: ObjectClass,
        bg_w: usize,
        bg_h: usize,
        rng: &mut R,
    ) -> Self {
        let unit = (bg_w.min(bg_h) as f64 / 10.0).max(3.0) as usize;
        let (w, h) = match class {
            ObjectClass::Poster => (unit * 2, unit * 3),
            ObjectClass::Bookshelf => (unit * 3, unit * 4),
            ObjectClass::StickyNote => (unit, unit),
            ObjectClass::Clock => (unit + unit / 2, unit + unit / 2),
            ObjectClass::Tv => (unit * 4, unit * 2 + unit / 2),
            ObjectClass::Monitor => (unit * 2, unit * 2),
            ObjectClass::Shirt => (unit * 2, unit * 2 + unit / 2),
            ObjectClass::Window => (unit * 3, unit * 3),
            ObjectClass::Door => (unit * 2 + unit / 2, unit * 6),
            ObjectClass::Toy => (unit, unit + unit / 3),
            ObjectClass::Painting => (unit * 3, unit * 2),
        };
        let text = match class {
            ObjectClass::StickyNote => Some(Self::sample_word(rng)),
            ObjectClass::Poster if rng.gen_bool(0.5) => Some(Self::sample_word(rng)),
            _ => None,
        };
        // Sticky notes size themselves to their text (two lines max) so the
        // text-inference target is actually legible in the scene.
        let (w, h) = if class == ObjectClass::StickyNote {
            let t = text.as_deref().unwrap_or("");
            let longest = t.split(' ').map(|p| p.chars().count()).max().unwrap_or(1);
            let lines = t.split(' ').count().min(2);
            (
                bb_imaging::font::text_width(&"M".repeat(longest), 1) + 3,
                lines * 8 + 3,
            )
        } else {
            (w, h)
        };
        let w = w.min(bg_w.saturating_sub(2)).max(3);
        let h = h.min(bg_h.saturating_sub(2)).max(3);
        let x = rng.gen_range(0..=(bg_w - w)) as i64;
        let y = rng.gen_range(0..=(bg_h - h)) as i64;
        SceneObject {
            class,
            x,
            y,
            w,
            h,
            primary: palette::vivid(rng),
            secondary: palette::vivid(rng),
            text,
            style_seed: rng.gen(),
        }
    }

    fn sample_word<R: Rng + ?Sized>(rng: &mut R) -> String {
        const WORDS: [&str; 10] = [
            "CALL MOM",
            "VOTE",
            "RENT DUE",
            "PIN 4921",
            "DR FRIDAY",
            "SELL GME",
            "TAX APRIL",
            "WIFI KEY",
            "BUY MILK",
            "GYM 6AM",
        ];
        (*palette::pick(rng, &WORDS)).to_string()
    }

    /// Inclusive bounding box `(x0, y0, x1, y1)` in background coordinates.
    pub fn bbox(&self) -> (i64, i64, i64, i64) {
        (
            self.x,
            self.y,
            self.x + self.w as i64 - 1,
            self.y + self.h as i64 - 1,
        )
    }

    /// Renders the object onto a background frame.
    pub fn render(&self, frame: &mut Frame) {
        let (x, y) = (self.x, self.y);
        let (w, h) = (self.w, self.h);
        let mut style = self.style_seed;
        let mut next = || {
            // xorshift64* — cheap deterministic per-instance detail stream.
            style ^= style << 13;
            style ^= style >> 7;
            style ^= style << 17;
            style
        };
        match self.class {
            ObjectClass::Poster => {
                draw::fill_rect(frame, x, y, w, h, self.primary);
                draw::stroke_rect(frame, x, y, w, h, palette::INK);
                // Horizontal stripes.
                let stripe_h = (h / 5).max(1);
                for s in 0..2 {
                    draw::fill_rect(
                        frame,
                        x + 1,
                        y + ((1 + 2 * s) * stripe_h) as i64,
                        w.saturating_sub(2),
                        stripe_h,
                        self.secondary,
                    );
                }
                if let Some(t) = &self.text {
                    draw::text(frame, x + 2, y + 2, t, 1, palette::INK);
                }
            }
            ObjectClass::Bookshelf => {
                draw::fill_rect(frame, x, y, w, h, palette::WOOD);
                let shelf_count = 3usize;
                let shelf_h = h / shelf_count;
                for s in 0..shelf_count {
                    let sy = y + (s * shelf_h) as i64;
                    // Shelf board.
                    draw::fill_rect(frame, x, sy + shelf_h as i64 - 2, w, 2, palette::WOOD_DARK);
                    // Book spines.
                    let mut bx = x + 1;
                    while bx < x + w as i64 - 2 {
                        let bw = 2 + (next() % 3) as i64;
                        let hue = (next() % 360) as f32;
                        let spine = bb_imaging::Hsv::new(hue, 0.7, 0.75).to_rgb();
                        draw::fill_rect(
                            frame,
                            bx,
                            sy + 1,
                            bw as usize,
                            shelf_h.saturating_sub(3),
                            spine,
                        );
                        bx += bw + 1;
                    }
                }
            }
            ObjectClass::StickyNote => {
                draw::fill_rect(frame, x, y, w, h, palette::NOTE_YELLOW);
                if let Some(t) = &self.text {
                    // Two text lines if the word has a space.
                    let mut parts = t.splitn(2, ' ');
                    let first = parts.next().unwrap_or("");
                    let second = parts.next();
                    draw::text(frame, x + 1, y + 1, first, 1, palette::INK);
                    if let Some(s) = second {
                        draw::text(frame, x + 1, y + 1 + 8, s, 1, palette::INK);
                    }
                }
            }
            ObjectClass::Clock => {
                let r = (w.min(h) / 2) as i64;
                let (cx, cy) = (x + w as i64 / 2, y + h as i64 / 2);
                draw::fill_circle(frame, cx, cy, r, palette::CLOCK_FACE);
                draw::stroke_circle(frame, cx, cy, r, palette::INK);
                // Hands are drawn after the match (style-dependent time).
            }
            ObjectClass::Tv => {
                draw::fill_rect(frame, x, y, w, h, palette::SCREEN_BLACK);
                draw::stroke_rect(frame, x, y, w, h, Rgb::grey(70));
                // A glowing inset when "on".
                draw::fill_rect(
                    frame,
                    x + 2,
                    y + 2,
                    w.saturating_sub(4),
                    h.saturating_sub(4),
                    if next() % 2 == 0 {
                        palette::SCREEN_GLOW
                    } else {
                        palette::SCREEN_BLACK
                    },
                );
            }
            ObjectClass::Monitor => {
                let panel_h = h * 3 / 4;
                draw::fill_rect(frame, x, y, w, panel_h, palette::SCREEN_BLACK);
                draw::fill_rect(
                    frame,
                    x + 1,
                    y + 1,
                    w.saturating_sub(2),
                    panel_h.saturating_sub(2),
                    palette::SCREEN_GLOW,
                );
                // Stand.
                let stand_w = (w / 5).max(1);
                draw::fill_rect(
                    frame,
                    x + (w / 2 - stand_w / 2) as i64,
                    y + panel_h as i64,
                    stand_w,
                    h - panel_h,
                    Rgb::grey(60),
                );
            }
            ObjectClass::Shirt => {
                // Body.
                draw::fill_rect(
                    frame,
                    x + w as i64 / 5,
                    y + h as i64 / 5,
                    w * 3 / 5,
                    h * 4 / 5,
                    self.primary,
                );
                // Sleeves.
                draw::fill_rect(frame, x, y + h as i64 / 5, w / 5, h * 2 / 5, self.primary);
                draw::fill_rect(
                    frame,
                    x + w as i64 * 4 / 5,
                    y + h as i64 / 5,
                    w / 5,
                    h * 2 / 5,
                    self.primary,
                );
                // Collar.
                draw::fill_rect(frame, x + w as i64 * 2 / 5, y, w / 5, h / 5, self.secondary);
            }
            ObjectClass::Window => {
                draw::fill_rect(frame, x, y, w, h, palette::WOOD_DARK);
                let inset = 2usize;
                draw::fill_rect(
                    frame,
                    x + inset as i64,
                    y + inset as i64,
                    w.saturating_sub(2 * inset),
                    h.saturating_sub(2 * inset),
                    palette::DAYLIGHT,
                );
                // Cross mullions.
                draw::fill_rect(frame, x + w as i64 / 2 - 1, y, 2, h, palette::WOOD_DARK);
                draw::fill_rect(frame, x, y + h as i64 / 2 - 1, w, 2, palette::WOOD_DARK);
            }
            ObjectClass::Door => {
                draw::fill_rect(frame, x, y, w, h, self.primary.scale(0.8));
                draw::stroke_rect(frame, x, y, w, h, palette::WOOD_DARK);
                // Handle.
                draw::fill_circle(frame, x + w as i64 - 4, y + h as i64 / 2, 2, Rgb::grey(210));
            }
            ObjectClass::Toy => {
                // A simple figure: round head over a bright body.
                let head_r = (w / 3).max(1) as i64;
                draw::fill_circle(frame, x + w as i64 / 2, y + head_r, head_r, self.secondary);
                draw::fill_rect(
                    frame,
                    x + w as i64 / 6,
                    y + 2 * head_r,
                    w * 2 / 3,
                    h.saturating_sub(2 * head_r as usize),
                    self.primary,
                );
            }
            ObjectClass::Painting => {
                draw::fill_rect(frame, x, y, w, h, palette::WOOD_DARK);
                let inset = 2usize;
                let iw = w.saturating_sub(2 * inset);
                let ih = h.saturating_sub(2 * inset);
                if iw > 0 && ih > 0 {
                    let mut canvas = Frame::new(iw, ih);
                    draw::vertical_gradient(&mut canvas, self.primary, self.secondary);
                    // A "sun".
                    draw::fill_circle(
                        &mut canvas,
                        iw as i64 / 3,
                        ih as i64 / 3,
                        (ih / 5).max(1) as i64,
                        palette::NOTE_YELLOW,
                    );
                    frame.blit(&canvas, x + inset as i64, y + inset as i64);
                }
            }
        }
        // Clock hands are drawn after the match to keep the match arm simple.
        if self.class == ObjectClass::Clock {
            let r = (w.min(h) / 2) as i64;
            let (cx, cy) = (x + w as i64 / 2, y + h as i64 / 2);
            let minute_angle = (self.style_seed % 360) as f64;
            let hour_angle = ((self.style_seed / 360) % 360) as f64;
            let tip = |angle: f64, len: f64| {
                let rad = angle.to_radians();
                (cx + (rad.sin() * len) as i64, cy - (rad.cos() * len) as i64)
            };
            let (mx, my) = tip(minute_angle, r as f64 * 0.8);
            let (hx, hy) = tip(hour_angle, r as f64 * 0.5);
            draw::line(frame, cx, cy, mx, my, palette::INK);
            draw::line(frame, cx, cy, hx, hy, palette::INK);
        }
    }

    /// Renders a clean template image of the object alone on a neutral
    /// backdrop — the auxiliary image the specific-object-tracking adversary
    /// possesses (§VI).
    pub fn template(&self) -> Frame {
        let mut canvas = Frame::filled(self.w + 2, self.h + 2, Rgb::grey(128));
        let mut copy = self.clone();
        copy.x = 1;
        copy.y = 1;
        copy.render(&mut canvas);
        canvas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sample_fits_in_background() {
        let mut rng = StdRng::seed_from_u64(3);
        for class in ObjectClass::ALL {
            for _ in 0..20 {
                let o = SceneObject::sample(class, 160, 120, &mut rng);
                let (x0, y0, x1, y1) = o.bbox();
                assert!(x0 >= 0 && y0 >= 0, "{class} origin {x0},{y0}");
                assert!(x1 < 160 && y1 < 120, "{class} extent {x1},{y1}");
            }
        }
    }

    #[test]
    fn sample_is_deterministic() {
        let a = SceneObject::sample(ObjectClass::Poster, 100, 100, &mut StdRng::seed_from_u64(5));
        let b = SceneObject::sample(ObjectClass::Poster, 100, 100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn render_changes_pixels() {
        let mut rng = StdRng::seed_from_u64(11);
        for class in ObjectClass::ALL {
            let o = SceneObject::sample(class, 120, 90, &mut rng);
            let mut f = Frame::filled(120, 90, Rgb::grey(250));
            o.render(&mut f);
            let changed = f.count_where(|p| p != Rgb::grey(250));
            assert!(
                changed > 4,
                "{class} rendered almost nothing ({changed} px)"
            );
        }
    }

    #[test]
    fn sticky_note_has_text() {
        let mut rng = StdRng::seed_from_u64(2);
        let o = SceneObject::sample(ObjectClass::StickyNote, 200, 150, &mut rng);
        assert!(o.text.is_some());
        // Ink pixels appear when rendered large enough.
        let mut big = o.clone();
        big.w = 80;
        big.h = 30;
        let mut f = Frame::filled(200, 150, Rgb::WHITE);
        big.render(&mut f);
        assert!(f.count_where(|p| p == palette::INK) > 10);
    }

    #[test]
    fn template_is_self_contained() {
        let mut rng = StdRng::seed_from_u64(8);
        let o = SceneObject::sample(ObjectClass::Toy, 100, 100, &mut rng);
        let t = o.template();
        assert_eq!(t.dims(), (o.w + 2, o.h + 2));
        // Template must contain the object's primary or secondary color.
        let has_color = t
            .pixels()
            .iter()
            .any(|&p| p.linf(o.primary) < 30 || p.linf(o.secondary) < 30);
        assert!(has_color);
    }

    #[test]
    fn class_names_unique() {
        let mut names: Vec<&str> = ObjectClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ObjectClass::ALL.len());
    }
}
