//! Per-frame person segmentation, the way the paper uses DeepLabv3 (§V-D).
//!
//! Given the candidate foreground (everything the virtual-background and
//! blending-blur masks did *not* claim, per Fig 4's flow), select the
//! person-shaped component(s): [`skin_evidence`] (the per-pixel skin prior)
//! followed by [`select_caller`] (component scoring). The reconstruction
//! session runs the two in separate passes so the prior is evaluated once
//! per frame; [`PersonSegmenter::segment_candidates`] runs both.

use crate::bgmodel::median_model;
use bb_imaging::{components, morph, Frame, Mask};
use bb_video::VideoStream;

/// Radius of the morphological close that fills pinholes in the body.
const CLOSE_RADIUS: usize = 2;
/// Components smaller than this fraction of the frame are discarded.
const MIN_COMPONENT_FRAC: f64 = 0.004;
/// Minimum fraction of skin-colored pixels for a candidate component to
/// score as a person without other evidence.
const SKIN_EVIDENCE_FRAC: f64 = 0.02;

/// Skin-color prior: warm hue, moderate saturation, adequate brightness.
/// Covers the synthetic skin-tone gamut (and most human skin under neutral
/// light).
///
/// Decided in integer arithmetic on the hot path; the handful of colors
/// sitting exactly on a rational threshold boundary (where f32 rounding in
/// the HSV conversion picks the side) defer to `is_skin_hsv`. The two
/// agree on every one of the 2^24 RGB values, which `skin_prior_is_exact`
/// checks exhaustively. The thresholds map as: `v >= 0.25` ⇔ `max >= 64`;
/// `0.07 <= s <= 0.72` ⇔ `7·max <= 100·d` and `25·d <= 18·max` (d = max −
/// min); warm hue (`h <= 50` or `h >= 340`) requires `max == r` and then
/// `6(g−b) < 5d` (g ≥ b side) or `3(b−g) < d` (b > g side).
pub fn is_skin(p: bb_imaging::Rgb) -> bool {
    let (r, g, b) = (p.r as u32, p.g as u32, p.b as u32);
    let m = r.max(g).max(b);
    let d = m - r.min(g).min(b);
    if m < 64 || m != r {
        return false;
    }
    if 100 * d == 7 * m || 25 * d == 18 * m {
        return is_skin_hsv(p);
    }
    if 100 * d < 7 * m || 25 * d > 18 * m {
        return false;
    }
    if g >= b {
        if 6 * (g - b) == 5 * d {
            return is_skin_hsv(p);
        }
        6 * (g - b) < 5 * d
    } else {
        if 3 * (b - g) == d {
            return is_skin_hsv(p);
        }
        3 * (b - g) < d
    }
}

/// The skin prior as originally written, through the f32 HSV conversion.
/// [`is_skin`] must match this bit-for-bit; it is the semantic definition
/// and the tie-breaker for exact-boundary colors.
fn is_skin_hsv(p: bb_imaging::Rgb) -> bool {
    let hsv = p.to_hsv();
    (hsv.h <= 50.0 || hsv.h >= 340.0) && (0.07..=0.72).contains(&hsv.s) && hsv.v >= 0.25
}

/// The classical person segmenter: a fitted temporal background model,
/// kept as session state, and caller selection over candidate foreground.
///
/// # Example
///
/// ```
/// use bb_segment::PersonSegmenter;
/// use bb_imaging::{Frame, Mask, Rgb, draw};
/// use bb_video::VideoStream;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let video = VideoStream::generate(16, 30.0, |i| {
///     let mut f = Frame::filled(48, 32, Rgb::grey(200));
///     draw::fill_rect(&mut f, (i * 2) as i64, 10, 8, 22, Rgb::new(20, 40, 160));
///     f
/// })?;
/// let segmenter = PersonSegmenter::fit(&video);
/// // The candidates: what the VB and blending-blur masks left, here the
/// // caller's block plus one stray pixel.
/// let candidates = Mask::from_fn(48, 32, |x, y| {
///     (6..14).contains(&x) && y >= 10 || (x, y) == (40, 2)
/// });
/// let caller = segmenter.segment_candidates(video.frame(3), &candidates);
/// assert!(caller.get(10, 20));
/// assert!(!caller.get(40, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PersonSegmenter {
    model: Frame,
}

impl PersonSegmenter {
    /// Fits the background model over the stream.
    pub fn fit(video: &VideoStream) -> Self {
        PersonSegmenter::from_parts(median_model(video.frames()))
    }

    /// Reassembles a segmenter from its fitted background model — the
    /// inverse of [`PersonSegmenter::model`], used to restore checkpointed
    /// state.
    pub fn from_parts(model: Frame) -> Self {
        PersonSegmenter { model }
    }

    /// The fitted background model.
    pub fn model(&self) -> &Frame {
        &self.model
    }

    /// Pipeline segmentation: selects the person-shaped component(s) from a
    /// candidate foreground mask. Evaluates the skin prior with
    /// [`skin_evidence`] and selects with [`select_caller`]; the session
    /// calls those two directly so the prior runs once per frame.
    ///
    /// Mismatched dimensions yield an empty mask.
    pub fn segment_candidates(&self, frame: &Frame, candidates: &Mask) -> Mask {
        select_caller(frame, candidates, &skin_evidence(frame, candidates))
    }
}

/// The skin evidence of one frame: the candidate pixels that satisfy
/// [`is_skin`]. This is most of the per-pixel color work of caller
/// selection, so the session computes it once and shares it between
/// [`select_caller`] and the caller color model. Mismatched dimensions
/// yield an empty mask.
pub fn skin_evidence(frame: &Frame, candidates: &Mask) -> Mask {
    frame.mask_where(candidates, is_skin)
}

/// Selects the person-shaped component(s) of a candidate foreground mask,
/// given its [`skin_evidence`] `evidence`.
///
/// Candidates are scored by area, skin evidence and vertical anchoring
/// (a seated caller always reaches the lower third of the frame); the
/// best-scoring component is the caller, and every other component at
/// least 60 % its size with skin evidence joins it (two-component poses
/// like a detached waving hand). Like DeepLabv3, the result is deliberately
/// imperfect — leak patches fused to the caller survive — which is what the
/// §V-D color refinement repairs.
///
/// Mismatched dimensions yield an empty mask.
pub fn select_caller(frame: &Frame, candidates: &Mask, evidence: &Mask) -> Mask {
    let (w, h) = frame.dims();
    let mut out = Mask::new(w, h);
    select_caller_into(
        frame,
        candidates,
        evidence,
        &mut CallerScratch::default(),
        &mut out,
    );
    out
}

/// The reusable buffers of [`select_caller_into`]: the closing's shift
/// planes, the closed candidates, the skin over them, the component
/// labelling and the component scores. Any frame size; each buffer is
/// reshaped by the kernel that writes it.
#[derive(Debug, Clone)]
pub struct CallerScratch {
    planes: morph::ShiftPlanes,
    cleaned: Mask,
    ring: Mask,
    skin: Mask,
    labeling: components::Labeling,
    scored: Vec<(f64, u32)>,
}

impl Default for CallerScratch {
    fn default() -> Self {
        CallerScratch {
            planes: morph::ShiftPlanes::default(),
            cleaned: Mask::new(1, 1),
            ring: Mask::new(1, 1),
            skin: Mask::new(1, 1),
            labeling: components::Labeling::default(),
            scored: Vec::new(),
        }
    }
}

/// [`select_caller`] written into `out` (reshaped to the frame's
/// dimensions whatever it held before), on reusable `scratch`.
pub fn select_caller_into(
    frame: &Frame,
    candidates: &Mask,
    evidence: &Mask,
    scratch: &mut CallerScratch,
    out: &mut Mask,
) {
    let (w, h) = frame.dims();
    out.reset(w, h);
    if candidates.dims() != (w, h) || evidence.dims() != (w, h) {
        return;
    }
    let CallerScratch {
        planes,
        cleaned,
        ring,
        skin,
        labeling,
        scored,
    } = scratch;
    morph::close_into(candidates, CLOSE_RADIUS, planes, cleaned);
    components::label_into(cleaned, components::Connectivity::Eight, labeling);
    if labeling.components().is_empty() {
        return;
    }

    // Components are scored over `cleaned`, which adds a ring of pixels
    // outside the candidates (closing is extensive: candidates ⊆ cleaned).
    // The prior runs on that ring only, so each pixel of `cleaned` is
    // evaluated once; per-component counts then cost the component's runs.
    ring.clone_from(cleaned);
    ring.subtract_in_place(candidates).expect("same dims");
    frame.mask_where_into(ring, is_skin, skin);
    skin.union_in_place(evidence).expect("same dims");
    scored.clear();
    for comp in labeling.components() {
        let area_frac = comp.area as f64 / (w * h) as f64;
        if area_frac < MIN_COMPONENT_FRAC {
            continue;
        }
        let skin_frac = labeling.count_in(comp.label, skin) as f64 / comp.area as f64;
        // Anchoring: does the component reach the lower third?
        let reaches_bottom = comp.bbox.3 >= h * 2 / 3;
        let score = area_frac + skin_frac * 0.5 + if reaches_bottom { 0.3 } else { 0.0 };
        scored.push((score, comp.label));
    }
    if scored.is_empty() {
        return;
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    // Labels are dense and 1-based: label `l` is `components()[l - 1]`.
    let comp = |label: u32| &labeling.components()[label as usize - 1];
    let best_label = scored[0].1;
    let best_area = comp(best_label).area;

    labeling.paint(best_label, out);
    for &(_, label) in &scored[1..] {
        let area = comp(label).area;
        if area * 10 >= best_area * 6 {
            let skin_frac = labeling.count_in(label, skin) as f64 / area as f64;
            if skin_frac >= SKIN_EVIDENCE_FRAC {
                labeling.paint(label, out);
            }
        }
    }
    // Restrict to the original candidates (close() may have annexed a
    // ring of pixels the other masks already claimed).
    out.intersect_in_place(candidates).expect("same dims");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    /// A synthetic "composited call": static virtual background and a
    /// moving person block.
    fn call_like_stream() -> VideoStream {
        VideoStream::generate(24, 30.0, |i| {
            let mut f = Frame::filled(40, 30, Rgb::new(90, 160, 210)); // "VB"
            let px = 2 + i as i64;
            draw::fill_rect(&mut f, px, 8, 8, 20, Rgb::new(150, 40, 40));
            f
        })
        .unwrap()
    }

    #[test]
    fn wrong_resolution_yields_empty_mask() {
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let other = Frame::filled(10, 10, Rgb::WHITE);
        assert!(seg
            .segment_candidates(&other, &Mask::full(40, 30))
            .is_empty());
    }

    #[test]
    fn speckle_is_removed() {
        // Single-pixel candidates fall under the minimum component area.
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let speckle = Mask::from_fn(40, 30, |x, y| (x, y) == (5, 5) || (x, y) == (20, 9));
        assert!(seg.segment_candidates(v.frame(0), &speckle).is_empty());
    }

    #[test]
    fn candidates_select_person_not_leak() {
        // Candidate mask = big caller blob (reaching the bottom, with skin)
        // plus a small distant leak patch.
        let mut frame = Frame::filled(60, 60, Rgb::new(90, 160, 210));
        // Caller: apparel block + skin head reaching bottom.
        draw::fill_rect(&mut frame, 20, 25, 20, 35, Rgb::new(30, 60, 150));
        draw::fill_circle(&mut frame, 30, 18, 7, Rgb::new(235, 200, 170));
        // Leak patch: wall-colored fragment far away.
        draw::fill_rect(&mut frame, 2, 2, 5, 4, Rgb::new(220, 215, 200));
        let candidates = Mask::from_fn(60, 60, |x, y| {
            let caller = (20..40).contains(&x) && (25..60).contains(&y) || {
                let dx = x as i64 - 30;
                let dy = y as i64 - 18;
                dx * dx + dy * dy <= 49
            };
            let leak = (2..7).contains(&x) && (2..6).contains(&y);
            caller || leak
        });
        let v = VideoStream::generate(3, 30.0, |_| frame.clone()).unwrap();
        let seg = PersonSegmenter::fit(&v);
        let vcm = seg.segment_candidates(&frame, &candidates);
        assert!(vcm.get(30, 40), "caller torso missing");
        assert!(vcm.get(30, 18), "caller head missing");
        assert!(!vcm.get(3, 3), "leak patch wrongly kept as caller");
    }

    #[test]
    fn candidates_empty_in_empty_mask() {
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let empty = Mask::new(40, 30);
        assert!(seg.segment_candidates(v.frame(0), &empty).is_empty());
    }

    #[test]
    fn candidates_result_is_subset_of_candidates() {
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let candidates = Mask::from_fn(40, 30, |x, y| x > 5 && y > 4);
        let vcm = seg.segment_candidates(v.frame(10), &candidates);
        assert!(vcm.subtract(&candidates).unwrap().is_empty());
    }

    #[test]
    fn evidence_over_candidates_selects_as_evidence_over_the_closing() {
        // `select_caller` completes the candidates' evidence over the ring
        // the closing adds, so it must select exactly what it selects from
        // evidence over the whole closed mask. Holey, skin-rich candidates
        // put skin pixels in that ring.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (w, h) = (70, 24);
        for _ in 0..200 {
            let frame = Frame::from_fn(w, h, |_, _| match next(3) {
                0 => Rgb::new(222, 180, 144),
                1 => Rgb::new(30, 60, 150),
                _ => Rgb::new(next(256) as u8, next(256) as u8, next(256) as u8),
            });
            let (x0, y0) = (next(w as u64 / 2) as usize, next(h as u64 / 2) as usize);
            let (x1, y1) = (
                x0 + 1 + next(w as u64) as usize,
                y0 + 1 + next(h as u64) as usize,
            );
            let holes = 1 + next(4);
            let candidates = Mask::from_fn(w, h, |x, y| {
                (x0..x1).contains(&x) && (y0..y1).contains(&y) && next(8) >= holes
            });
            let closed = frame.mask_where(&morph::close(&candidates, CLOSE_RADIUS), is_skin);
            assert_eq!(
                select_caller(&frame, &candidates, &skin_evidence(&frame, &candidates)),
                select_caller(&frame, &candidates, &closed)
            );
        }
    }

    #[test]
    fn skin_prior_accepts_skin_tones() {
        for tone in [
            Rgb::new(243, 211, 185),
            Rgb::new(222, 180, 144),
            Rgb::new(193, 142, 102),
            Rgb::new(150, 103, 72),
            Rgb::new(104, 72, 52),
        ] {
            assert!(is_skin(tone), "skin tone {tone} rejected");
        }
        assert!(!is_skin(Rgb::new(90, 160, 210)), "sky counted as skin");
        assert!(!is_skin(Rgb::new(30, 60, 150)), "apparel counted as skin");
    }

    #[test]
    fn skin_prior_is_exact() {
        // The integer fast path must agree with the f32 HSV definition on
        // every one of the 2^24 colors, boundary cases included.
        for v in 0..1u32 << 24 {
            let p = Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8);
            assert_eq!(is_skin(p), is_skin_hsv(p), "disagree at {p}");
        }
    }
}
