//! Rasterisation primitives used by the synthetic world.
//!
//! The E1–E3 corpora are replaced by synthetic scenes (see DESIGN.md); rooms,
//! callers and props are drawn with the primitives here: filled/outlined
//! rectangles, circles, ellipses, lines, and bitmap-font text.

use crate::font;
use crate::frame::Frame;
use crate::pixel::Rgb;

/// Fills the axis-aligned rectangle with corner `(x, y)` and size `w × h`,
/// clipping at the frame borders. Negative origins are allowed.
pub fn fill_rect(frame: &mut Frame, x: i64, y: i64, w: usize, h: usize, color: Rgb) {
    for dy in 0..h as i64 {
        for dx in 0..w as i64 {
            frame.put_clipped(x + dx, y + dy, color);
        }
    }
}

/// Draws a 1-pixel rectangle outline, clipped.
pub fn stroke_rect(frame: &mut Frame, x: i64, y: i64, w: usize, h: usize, color: Rgb) {
    if w == 0 || h == 0 {
        return;
    }
    let (w, h) = (w as i64, h as i64);
    for dx in 0..w {
        frame.put_clipped(x + dx, y, color);
        frame.put_clipped(x + dx, y + h - 1, color);
    }
    for dy in 0..h {
        frame.put_clipped(x, y + dy, color);
        frame.put_clipped(x + w - 1, y + dy, color);
    }
}

/// Fills a circle centred at `(cx, cy)` with the given radius, clipped.
pub fn fill_circle(frame: &mut Frame, cx: i64, cy: i64, radius: i64, color: Rgb) {
    fill_ellipse(frame, cx, cy, radius, radius, color);
}

/// Fills an axis-aligned ellipse with semi-axes `rx`, `ry`, clipped.
pub fn fill_ellipse(frame: &mut Frame, cx: i64, cy: i64, rx: i64, ry: i64, color: Rgb) {
    if rx <= 0 || ry <= 0 {
        return;
    }
    for dy in -ry..=ry {
        for dx in -rx..=rx {
            let nx = dx as f64 / rx as f64;
            let ny = dy as f64 / ry as f64;
            if nx * nx + ny * ny <= 1.0 {
                frame.put_clipped(cx + dx, cy + dy, color);
            }
        }
    }
}

/// Draws a 1-pixel circle outline (midpoint algorithm), clipped.
pub fn stroke_circle(frame: &mut Frame, cx: i64, cy: i64, radius: i64, color: Rgb) {
    if radius <= 0 {
        return;
    }
    let mut x = radius;
    let mut y = 0i64;
    let mut err = 1 - radius;
    while x >= y {
        for &(px, py) in &[
            (cx + x, cy + y),
            (cx + y, cy + x),
            (cx - y, cy + x),
            (cx - x, cy + y),
            (cx - x, cy - y),
            (cx - y, cy - x),
            (cx + y, cy - x),
            (cx + x, cy - y),
        ] {
            frame.put_clipped(px, py, color);
        }
        y += 1;
        if err < 0 {
            err += 2 * y + 1;
        } else {
            x -= 1;
            err += 2 * (y - x) + 1;
        }
    }
}

/// Draws a line from `(x0, y0)` to `(x1, y1)` (Bresenham), clipped.
pub fn line(frame: &mut Frame, x0: i64, y0: i64, x1: i64, y1: i64, color: Rgb) {
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    let (mut x, mut y) = (x0, y0);
    loop {
        frame.put_clipped(x, y, color);
        if x == x1 && y == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Renders `text` with the crate's 5×7 bitmap font at integer `scale`, with
/// the top-left corner of the first glyph at `(x, y)`. Characters outside the
/// font's charset render as blanks.
pub fn text(frame: &mut Frame, x: i64, y: i64, text_str: &str, scale: usize, color: Rgb) {
    if scale == 0 {
        return;
    }
    let mut pen_x = x;
    for c in text_str.chars() {
        for row in 0..font::GLYPH_H {
            for col in 0..font::GLYPH_W {
                if font::glyph_pixel(c, col, row) {
                    fill_rect(
                        frame,
                        pen_x + (col * scale) as i64,
                        y + (row * scale) as i64,
                        scale,
                        scale,
                        color,
                    );
                }
            }
        }
        pen_x += (font::ADVANCE * scale) as i64;
    }
}

/// Fills the frame with a vertical two-color gradient (used for walls and
/// virtual background imagery).
pub fn vertical_gradient(frame: &mut Frame, top: Rgb, bottom: Rgb) {
    let h = frame.height();
    for y in 0..h {
        let t = if h == 1 {
            0.0
        } else {
            y as f32 / (h - 1) as f32
        };
        let color = top.lerp(bottom, t);
        for x in 0..frame.width() {
            frame.put(x, y, color);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_rect_paints_and_clips() {
        let mut f = Frame::new(4, 4);
        fill_rect(&mut f, 2, 2, 4, 4, Rgb::WHITE);
        assert_eq!(f.get(2, 2), Rgb::WHITE);
        assert_eq!(f.get(3, 3), Rgb::WHITE);
        assert_eq!(f.get(1, 1), Rgb::BLACK);
        // Negative origin clips too.
        fill_rect(&mut f, -1, -1, 2, 2, Rgb::grey(9));
        assert_eq!(f.get(0, 0), Rgb::grey(9));
    }

    #[test]
    fn stroke_rect_outline_only() {
        let mut f = Frame::new(6, 6);
        stroke_rect(&mut f, 1, 1, 4, 4, Rgb::WHITE);
        assert_eq!(f.get(1, 1), Rgb::WHITE);
        assert_eq!(f.get(4, 1), Rgb::WHITE);
        assert_eq!(f.get(2, 2), Rgb::BLACK);
    }

    #[test]
    fn fill_circle_contains_center_not_corner() {
        let mut f = Frame::new(11, 11);
        fill_circle(&mut f, 5, 5, 3, Rgb::WHITE);
        assert_eq!(f.get(5, 5), Rgb::WHITE);
        assert_eq!(f.get(5, 8), Rgb::WHITE);
        assert_eq!(f.get(0, 0), Rgb::BLACK);
        assert_eq!(f.get(8, 8), Rgb::BLACK); // corner of bounding box is outside
    }

    #[test]
    fn fill_ellipse_respects_axes() {
        let mut f = Frame::new(21, 21);
        fill_ellipse(&mut f, 10, 10, 8, 3, Rgb::WHITE);
        assert_eq!(f.get(18, 10), Rgb::WHITE);
        assert_eq!(f.get(10, 13), Rgb::WHITE);
        assert_eq!(f.get(10, 15), Rgb::BLACK);
    }

    #[test]
    fn stroke_circle_is_ring() {
        let mut f = Frame::new(11, 11);
        stroke_circle(&mut f, 5, 5, 4, Rgb::WHITE);
        assert_eq!(f.get(9, 5), Rgb::WHITE);
        assert_eq!(f.get(5, 1), Rgb::WHITE);
        assert_eq!(f.get(5, 5), Rgb::BLACK);
    }

    #[test]
    fn line_connects_endpoints() {
        let mut f = Frame::new(8, 8);
        line(&mut f, 0, 0, 7, 7, Rgb::WHITE);
        assert_eq!(f.get(0, 0), Rgb::WHITE);
        assert_eq!(f.get(7, 7), Rgb::WHITE);
        assert_eq!(f.get(3, 3), Rgb::WHITE);
        assert_eq!(f.get(0, 7), Rgb::BLACK);
    }

    #[test]
    fn text_renders_glyph_pixels() {
        let mut f = Frame::new(40, 10);
        text(&mut f, 0, 0, "I", 1, Rgb::WHITE);
        // 'I' center column inked in middle rows.
        assert_eq!(f.get(2, 3), Rgb::WHITE);
        assert_eq!(f.get(0, 3), Rgb::BLACK);
    }

    #[test]
    fn text_scale_zero_is_noop() {
        let mut f = Frame::new(10, 10);
        text(&mut f, 0, 0, "A", 0, Rgb::WHITE);
        assert!(f.pixels().iter().all(|&p| p == Rgb::BLACK));
    }

    #[test]
    fn gradient_endpoints() {
        let mut f = Frame::new(2, 5);
        vertical_gradient(&mut f, Rgb::BLACK, Rgb::WHITE);
        assert_eq!(f.get(0, 0), Rgb::BLACK);
        assert_eq!(f.get(0, 4), Rgb::WHITE);
        assert!(f.get(0, 2).luma() > 0 && f.get(0, 2).luma() < 255);
    }
}
