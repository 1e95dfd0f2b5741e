//! The Text Inference attack (§VI, Fig 14b) — TextFuseNet substitute.
//!
//! TextFuseNet first detects bounding boxes around text, then recognises the
//! text inside them. The substitute does the same with classical machinery:
//!
//! 1. **Box detection** — ink-colored (dark) pixel clusters on a light
//!    backing inside the recovered region are grouped into candidate text
//!    lines.
//! 2. **Recognition** — each line is sliced into glyph cells on the shared
//!    5×7 bitmap-font grid and matched against the font by Hamming
//!    distance; cells with too little recovered evidence come back as `?`.
//!
//! The synthetic world renders scene text with the same font
//! ([`bb_imaging::font`]), mirroring the paper's setting where the OCR model
//! was trained on the same kind of printed text that appears in rooms.

use crate::AttackError;
use bb_imaging::components::{label, Connectivity};
use bb_imaging::font::{self, ADVANCE, GLYPH_H, GLYPH_W};
use bb_imaging::{Frame, Mask};
use bb_telemetry::Telemetry;

/// A recognised piece of text.
#[derive(Debug, Clone, PartialEq)]
pub struct TextFinding {
    /// The recognised string (`?` marks unreadable cells).
    pub text: String,
    /// Bounding box of the text line `(x0, y0, x1, y1)`.
    pub bbox: (usize, usize, usize, usize),
    /// Fraction of glyph cells read with confidence.
    pub legibility: f64,
}

/// The text-inference attack.
#[derive(Debug, Clone, PartialEq)]
pub struct TextReader {
    /// Luma at or below which a recovered pixel counts as ink.
    pub ink_luma: u8,
    /// Maximum saturation for ink (print ink is near-achromatic; dark but
    /// saturated pixels are leaked apparel/props, not text).
    pub ink_max_sat: f32,
    /// Minimum luma of the surrounding backing for a cluster to count as
    /// text-on-backing (sticky notes and posters are light).
    pub backing_luma: u8,
    /// Minimum ink pixels for a candidate line.
    pub min_ink: usize,
    /// Maximum per-glyph Hamming distance (out of 35 cells) to accept.
    pub max_glyph_distance: u32,
    /// Minimum fraction of a glyph cell's pixels that must be recovered to
    /// attempt recognition.
    pub min_cell_recovered: f64,
}

impl Default for TextReader {
    fn default() -> Self {
        TextReader {
            ink_luma: 90,
            ink_max_sat: 0.5,
            backing_luma: 120,
            min_ink: 6,
            max_glyph_distance: 8,
            min_cell_recovered: 0.55,
        }
    }
}

impl TextReader {
    /// Reads all text lines found in the reconstruction.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NothingRecovered`] when `recovered` is empty.
    ///
    /// Instrumentation goes through `telemetry`: wall time lands in the
    /// `attacks/text` stage, ink/glyph/finding volumes in `attacks/text/*`
    /// counters. Callers that don't trace pass [`Telemetry::disabled`].
    pub fn read(
        &self,
        background: &Frame,
        recovered: &Mask,
        telemetry: &Telemetry,
    ) -> Result<Vec<TextFinding>, AttackError> {
        let _span = telemetry.time("attacks/text");
        if recovered.is_empty() {
            return Err(AttackError::NothingRecovered);
        }
        let (w, h) = background.dims();

        // 1. Ink mask: recovered, dark, and *embedded in* light backing.
        //    Glyph strokes are thin, so most of their 7×7 neighbourhood is
        //    the light note body; dark wall pixels that merely touch a note
        //    edge have mostly dark neighbourhoods and are rejected.
        let ink = Mask::from_fn(w, h, |x, y| {
            if !recovered.get(x, y) {
                return false;
            }
            let p = background.get(x, y);
            if p.luma() > self.ink_luma || p.to_hsv().s > self.ink_max_sat {
                return false;
            }
            let (xi, yi) = (x as i64, y as i64);
            let mut light = 0usize;
            let mut dark = 0usize;
            let mut total = 0usize;
            for dy in -3i64..=3 {
                for dx in -3i64..=3 {
                    let (nx, ny) = (xi + dx, yi + dy);
                    if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                        total += 1;
                        let q = background.get(nx as usize, ny as usize);
                        if q.luma() >= self.backing_luma && recovered.get(nx as usize, ny as usize)
                        {
                            light += 1;
                        } else if q.luma() <= self.ink_luma {
                            dark += 1;
                        }
                    }
                }
            }
            // Thin strokes sit in mostly-light surroundings; solid dark
            // regions (walls, screens) touching a light object do not.
            total > 0 && light * 100 >= total * 40 && dark * 100 <= total * 38
        });

        // 2. Glyph-sized clusters → text lines. Ink components that are not
        //    glyph-shaped (book spines, shelf boards, clock hands) are
        //    rejected before grouping, so scene clutter cannot swallow the
        //    note's text into an oversized component.
        let labeling = label(&ink, Connectivity::Eight);
        let mut glyphs: Vec<(usize, usize, usize, usize)> = labeling
            .components()
            .iter()
            .filter(|c| c.height() <= GLYPH_H + 1 && c.width() <= GLYPH_W + 1 && c.area >= 2)
            .map(|c| c.bbox)
            .collect();
        glyphs.sort_by_key(|b| (b.1, b.0));
        telemetry.add("attacks/text/ink_pixels", ink.count_set() as u64);
        telemetry.add("attacks/text/glyph_anchors", glyphs.len() as u64);

        // Each glyph cluster is an exact grid anchor: read the whole line
        // through it, left and right, on the shared font grid. Pollution
        // may destroy sibling glyphs' clusters, but one surviving cluster
        // recovers its entire line.
        let mut findings: Vec<TextFinding> = Vec::new();
        for g in glyphs {
            let (gx, gy, _, _) = g;
            // Extend up to 10 cells in each direction (bounded strip).
            let cells_left = (gx / ADVANCE).min(10);
            let x_start = gx - cells_left * ADVANCE;
            let x_end = (gx + 10 * ADVANCE).min(w - 1);
            let Some(finding) = self.read_line(
                background,
                recovered,
                &ink,
                (x_start, gy, x_end, gy + GLYPH_H - 1),
            ) else {
                continue;
            };
            // Require ≥2 confidently-read non-space characters.
            let strong = finding
                .text
                .chars()
                .filter(|c| *c != '?' && *c != ' ')
                .count();
            if strong < 2 {
                continue;
            }
            // Deduplicate: keep the best reading per line band.
            if let Some(existing) = findings
                .iter_mut()
                .find(|f| f.bbox.1.abs_diff(finding.bbox.1) <= 2)
            {
                if finding.legibility > existing.legibility
                    || (finding.legibility == existing.legibility
                        && finding.text.len() > existing.text.len())
                {
                    *existing = finding;
                }
            } else {
                findings.push(finding);
            }
        }
        findings.sort_by(|a, b| {
            b.legibility
                .partial_cmp(&a.legibility)
                .expect("legibility is finite")
        });
        telemetry.add("attacks/text/findings", findings.len() as u64);
        for f in &findings {
            telemetry.event(
                "attacks/text/finding",
                None,
                &[
                    ("legibility", f.legibility),
                    ("chars", f.text.chars().count() as f64),
                ],
            );
        }
        Ok(findings)
    }

    /// Attempts to read one line region on the font grid, searching a small
    /// origin offset to lock onto the glyph grid.
    fn read_line(
        &self,
        background: &Frame,
        recovered: &Mask,
        ink: &Mask,
        bbox: (usize, usize, usize, usize),
    ) -> Option<TextFinding> {
        let (x0, y0, x1, y1) = bbox;
        let mut best: Option<(String, f64, u32)> = None;
        for oy in -2i64..=2 {
            for ox in -2i64..=2 {
                let sx = (x0 as i64 + ox).max(0) as usize;
                let sy = (y0 as i64 + oy).max(0) as usize;
                let Some((text, legibility, distance)) =
                    self.read_at(background, recovered, ink, sx, sy, x1)
                else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some((_, bl, bd)) => legibility > *bl || (legibility == *bl && distance < *bd),
                };
                if better {
                    best = Some((text, legibility, distance));
                }
            }
        }
        let (text, legibility, _) = best?;
        let trimmed = text.trim_matches(|c| c == '?' || c == ' ').to_string();
        if trimmed.is_empty() {
            return None;
        }
        Some(TextFinding {
            text,
            bbox: (x0, y0, x1, y1),
            legibility,
        })
    }

    fn read_at(
        &self,
        background: &Frame,
        recovered: &Mask,
        ink: &Mask,
        x0: usize,
        y0: usize,
        x1: usize,
    ) -> Option<(String, f64, u32)> {
        let (w, h) = background.dims();
        if y0 + GLYPH_H > h {
            return None;
        }
        let mut text = String::new();
        let mut legible = 0usize;
        let mut cells = 0usize;
        let mut total_distance = 0u32;
        let mut cx = x0;
        while cx + GLYPH_W <= w && cx <= x1 {
            cells += 1;
            // Gather the cell's ink pattern and recovery coverage. Inside a
            // detected line region, plain luma thresholding is the most
            // robust ink test (the neighbourhood-based global mask may drop
            // strokes next to polluted pixels).
            let mut pattern = [[false; GLYPH_W]; GLYPH_H];
            let mut covered = 0usize;
            for (row, prow) in pattern.iter_mut().enumerate() {
                for (col, cell) in prow.iter_mut().enumerate() {
                    let (px, py) = (cx + col, y0 + row);
                    if recovered.get(px, py) {
                        covered += 1;
                    }
                    let p = background.get(px, py);
                    *cell = p.luma() <= self.ink_luma && p.to_hsv().s <= self.ink_max_sat;
                }
            }
            let _ = ink;
            let coverage = covered as f64 / (GLYPH_W * GLYPH_H) as f64;
            if coverage < self.min_cell_recovered {
                text.push('?');
                cx += ADVANCE;
                continue;
            }
            // Best font glyph by Hamming distance over recovered cells,
            // with a uniqueness margin so noise does not produce arbitrary
            // confident letters.
            let mut best_char = '?';
            let mut best_dist = u32::MAX;
            let mut second_dist = u32::MAX;
            for c in font::CHARSET.chars() {
                let mut dist = 0u32;
                for (row, prow) in pattern.iter().enumerate() {
                    for (col, &cell) in prow.iter().enumerate() {
                        let (px, py) = (cx + col, y0 + row);
                        if !recovered.get(px, py) {
                            continue;
                        }
                        if cell != font::glyph_pixel(c, col, row) {
                            dist += 1;
                        }
                    }
                }
                if dist < best_dist {
                    second_dist = best_dist;
                    best_dist = dist;
                    best_char = c;
                } else if dist < second_dist {
                    second_dist = dist;
                }
            }
            let unique = second_dist.saturating_sub(best_dist) >= 2 || best_dist == 0;
            if best_dist <= self.max_glyph_distance && unique {
                text.push(best_char);
                legible += 1;
                total_distance += best_dist;
            } else {
                text.push('?');
            }
            cx += ADVANCE;
        }
        if cells == 0 {
            return None;
        }
        Some((text, legible as f64 / cells as f64, total_distance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    /// Renders a sticky-note-like patch with text, fully recovered.
    fn note_scene(text: &str) -> (Frame, Mask) {
        let mut f = Frame::filled(90, 40, Rgb::grey(40)); // dark room
        draw::fill_rect(&mut f, 8, 8, 70, 14, Rgb::new(247, 224, 98)); // note
        draw::text(&mut f, 10, 10, text, 1, Rgb::new(32, 30, 40));
        let recovered = Mask::from_fn(90, 40, |x, y| (6..80).contains(&x) && (6..24).contains(&y));
        (f, recovered)
    }

    #[test]
    fn reads_clean_text() {
        let (f, rec) = note_scene("VOTE");
        let reader = TextReader::default();
        let findings = reader.read(&f, &rec, &Telemetry::disabled()).unwrap();
        assert!(!findings.is_empty(), "no text found");
        assert!(
            findings[0].text.contains("VOTE"),
            "read {:?} instead of VOTE",
            findings[0].text
        );
        assert!(findings[0].legibility > 0.5);
    }

    #[test]
    fn reads_digits() {
        let (f, rec) = note_scene("PIN 4921");
        let reader = TextReader::default();
        let findings = reader.read(&f, &rec, &Telemetry::disabled()).unwrap();
        let all: String = findings
            .iter()
            .map(|t| t.text.clone())
            .collect::<Vec<_>>()
            .join("|");
        assert!(all.contains("4921"), "read {all:?}");
    }

    #[test]
    fn partial_recovery_degrades_to_question_marks() {
        let (f, full) = note_scene("VOTE");
        // Remove recovery over the last glyph entirely.
        let rec = Mask::from_fn(90, 40, |x, y| full.get(x, y) && x < 26);
        let reader = TextReader::default();
        let findings = reader.read(&f, &rec, &Telemetry::disabled()).unwrap();
        if let Some(first) = findings.first() {
            assert!(
                !first.text.contains("VOTE"),
                "full word should not be readable from a fragment: {:?}",
                first.text
            );
        }
    }

    #[test]
    fn no_text_in_plain_scene() {
        let f = Frame::filled(60, 40, Rgb::grey(200));
        let rec = Mask::full(60, 40);
        let reader = TextReader::default();
        assert!(reader
            .read(&f, &rec, &Telemetry::disabled())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_recovery_is_error() {
        let (f, _) = note_scene("VOTE");
        let reader = TextReader::default();
        assert!(matches!(
            reader.read(&f, &Mask::new(90, 40), &Telemetry::disabled()),
            Err(AttackError::NothingRecovered)
        ));
    }

    #[test]
    fn dark_text_needs_light_backing() {
        // Dark scribbles on a dark wall are not text boxes.
        let mut f = Frame::filled(60, 40, Rgb::grey(60));
        draw::text(&mut f, 10, 10, "HIDDEN", 1, Rgb::grey(10));
        let rec = Mask::full(60, 40);
        let reader = TextReader::default();
        assert!(reader
            .read(&f, &rec, &Telemetry::disabled())
            .unwrap()
            .is_empty());
    }
}
