//! A 5×7 bitmap font.
//!
//! The synthetic world renders scene text (posters, sticky notes — the §VIII-D
//! text-inference targets) with this font, and the text-inference attack
//! (TextFuseNet substitute in `bb-attacks`) recognises glyphs by matching
//! against the very same bitmaps. Sharing the font between renderer and
//! recogniser mirrors the paper's setting, where TextFuseNet was trained on
//! the same kind of printed text that appears in the wild.

/// Glyph width in pixels.
pub const GLYPH_W: usize = 5;
/// Glyph height in pixels.
pub const GLYPH_H: usize = 7;
/// Horizontal advance between glyph origins (width + 1 spacing column).
pub const ADVANCE: usize = GLYPH_W + 1;

/// The character set the font covers.
pub const CHARSET: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";

/// Returns the 5×7 bitmap for `c` as 7 rows of 5 bits (MSB = leftmost), or
/// `None` for characters outside [`CHARSET`]. Lowercase letters map to their
/// uppercase glyphs.
pub fn glyph(c: char) -> Option<[u8; GLYPH_H]> {
    let c = c.to_ascii_uppercase();
    let rows: [u8; GLYPH_H] = match c {
        'A' => [
            0b01110, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001,
        ],
        'B' => [
            0b11110, 0b10001, 0b10001, 0b11110, 0b10001, 0b10001, 0b11110,
        ],
        'C' => [
            0b01110, 0b10001, 0b10000, 0b10000, 0b10000, 0b10001, 0b01110,
        ],
        'D' => [
            0b11110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b11110,
        ],
        'E' => [
            0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b11111,
        ],
        'F' => [
            0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b10000,
        ],
        'G' => [
            0b01110, 0b10001, 0b10000, 0b10111, 0b10001, 0b10001, 0b01111,
        ],
        'H' => [
            0b10001, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001,
        ],
        'I' => [
            0b01110, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
        ],
        'J' => [
            0b00111, 0b00010, 0b00010, 0b00010, 0b00010, 0b10010, 0b01100,
        ],
        'K' => [
            0b10001, 0b10010, 0b10100, 0b11000, 0b10100, 0b10010, 0b10001,
        ],
        'L' => [
            0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b11111,
        ],
        'M' => [
            0b10001, 0b11011, 0b10101, 0b10101, 0b10001, 0b10001, 0b10001,
        ],
        'N' => [
            0b10001, 0b11001, 0b10101, 0b10011, 0b10001, 0b10001, 0b10001,
        ],
        'O' => [
            0b01110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110,
        ],
        'P' => [
            0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000, 0b10000,
        ],
        'Q' => [
            0b01110, 0b10001, 0b10001, 0b10001, 0b10101, 0b10010, 0b01101,
        ],
        'R' => [
            0b11110, 0b10001, 0b10001, 0b11110, 0b10100, 0b10010, 0b10001,
        ],
        'S' => [
            0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110,
        ],
        'T' => [
            0b11111, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100,
        ],
        'U' => [
            0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110,
        ],
        'V' => [
            0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01010, 0b00100,
        ],
        'W' => [
            0b10001, 0b10001, 0b10001, 0b10101, 0b10101, 0b10101, 0b01010,
        ],
        'X' => [
            0b10001, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001, 0b10001,
        ],
        'Y' => [
            0b10001, 0b10001, 0b01010, 0b00100, 0b00100, 0b00100, 0b00100,
        ],
        'Z' => [
            0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b11111,
        ],
        '0' => [
            0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110,
        ],
        '1' => [
            0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
        ],
        '2' => [
            0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111,
        ],
        '3' => [
            0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110,
        ],
        '4' => [
            0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010,
        ],
        '5' => [
            0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110,
        ],
        '6' => [
            0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110,
        ],
        '7' => [
            0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000,
        ],
        '8' => [
            0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110,
        ],
        '9' => [
            0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100,
        ],
        ' ' => [0; 7],
        _ => return None,
    };
    Some(rows)
}

/// Returns whether the glyph pixel at `(col, row)` is inked.
///
/// Returns `false` for characters outside the charset or coordinates outside
/// the 5×7 cell.
pub fn glyph_pixel(c: char, col: usize, row: usize) -> bool {
    if col >= GLYPH_W || row >= GLYPH_H {
        return false;
    }
    match glyph(c) {
        Some(rows) => rows[row] & (1 << (GLYPH_W - 1 - col)) != 0,
        None => false,
    }
}

/// Pixel width of a rendered string at integer `scale`.
pub fn text_width(text: &str, scale: usize) -> usize {
    if text.is_empty() {
        0
    } else {
        (text.chars().count() * ADVANCE - 1) * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_charset_glyphs_exist() {
        for c in CHARSET.chars() {
            assert!(glyph(c).is_some(), "missing glyph for {c:?}");
        }
    }

    #[test]
    fn unknown_glyph_is_none() {
        assert!(glyph('@').is_none());
        assert!(glyph('?').is_none());
    }

    #[test]
    fn lowercase_maps_to_uppercase() {
        assert_eq!(glyph('a'), glyph('A'));
        assert_eq!(glyph('z'), glyph('Z'));
    }

    #[test]
    fn space_is_blank() {
        assert_eq!(glyph(' '), Some([0; 7]));
    }

    #[test]
    fn glyphs_are_distinct() {
        // Every non-space pair of glyphs must differ in at least one pixel;
        // otherwise the OCR substitute could not distinguish them.
        let chars: Vec<char> = CHARSET.chars().filter(|&c| c != ' ').collect();
        for (i, &a) in chars.iter().enumerate() {
            for &b in &chars[i + 1..] {
                assert_ne!(glyph(a), glyph(b), "glyphs {a:?} and {b:?} are identical");
            }
        }
    }

    #[test]
    fn glyph_pixel_reads_bitmap() {
        // 'L' has its full bottom row inked and top row only at the left.
        assert!(glyph_pixel('L', 0, 0));
        assert!(!glyph_pixel('L', 4, 0));
        assert!(glyph_pixel('L', 4, 6));
        assert!(!glyph_pixel('L', 9, 0));
        assert!(!glyph_pixel('L', 0, 9));
    }

    #[test]
    fn text_metrics() {
        assert_eq!(text_width("", 1), 0);
        assert_eq!(text_width("A", 1), 5);
        assert_eq!(text_width("AB", 1), 11);
        assert_eq!(text_width("AB", 2), 22);
    }
}
