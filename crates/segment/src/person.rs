//! Per-frame person segmentation.
//!
//! Two entry points mirror how DeepLabv3 is used in the paper (§V-D):
//!
//! * [`PersonSegmenter::segment`] — standalone segmentation of one frame:
//!   change detection against a temporal background model plus a skin-color
//!   prior. Works whenever the caller moves (the cases that matter for
//!   leakage, Fig 7/8).
//! * [`PersonSegmenter::segment_candidates`] — the pipeline variant: given
//!   the candidate foreground (everything the virtual-background and
//!   blending-blur masks did *not* claim, per Fig 4's flow), select the
//!   person-shaped component(s). Like DeepLabv3, the result is deliberately
//!   imperfect — leak patches fused to the caller survive — which is exactly
//!   what the §V-D color refinement repairs.

use crate::bgmodel::median_model;
use bb_imaging::{components, morph, Frame, Mask};
use bb_video::VideoStream;
use serde::{Deserialize, Serialize};

/// Tunables of the classical person segmenter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmenterParams {
    /// Per-channel L∞ threshold against the background model above which a
    /// pixel is "changed".
    pub diff_tau: u8,
    /// Radius of the morphological close that fills pinholes in the body.
    pub close_radius: usize,
    /// Radius of the morphological open that removes speckle.
    pub open_radius: usize,
    /// Components smaller than this fraction of the frame are discarded.
    pub min_component_frac: f64,
    /// Minimum fraction of skin-colored pixels for a candidate component to
    /// score as a person without other evidence.
    pub skin_evidence_frac: f64,
}

impl Default for SegmenterParams {
    fn default() -> Self {
        SegmenterParams {
            diff_tau: 26,
            close_radius: 2,
            open_radius: 1,
            min_component_frac: 0.004,
            skin_evidence_frac: 0.02,
        }
    }
}

/// Skin-color prior: warm hue, moderate saturation, adequate brightness.
/// Covers the synthetic skin-tone gamut (and most human skin under neutral
/// light).
///
/// Decided in integer arithmetic on the hot path; the handful of colors
/// sitting exactly on a rational threshold boundary (where f32 rounding in
/// the HSV conversion picks the side) defer to `is_skin_hsv`. The two
/// agree on every one of the 2^24 RGB values — `skin_prior_is_exact` spot
/// checks the strict regions, and the boundary cases are float by
/// construction. The thresholds map as: `v >= 0.25` ⇔ `max >= 64`;
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

/// The classical person segmenter.
///
/// # Example
///
/// ```
/// use bb_segment::PersonSegmenter;
/// use bb_imaging::{Frame, Rgb, draw};
/// use bb_video::VideoStream;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let video = VideoStream::generate(16, 30.0, |i| {
///     let mut f = Frame::filled(48, 32, Rgb::grey(200));
///     draw::fill_rect(&mut f, (i * 2) as i64, 10, 8, 16, Rgb::new(20, 40, 160));
///     f
/// })?;
/// let segmenter = PersonSegmenter::fit(&video);
/// let mask = segmenter.segment(video.frame(3));
/// assert!(mask.count_set() > 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PersonSegmenter {
    params: SegmenterParams,
    model: Frame,
}

impl PersonSegmenter {
    /// Fits the background model over the stream with default parameters.
    pub fn fit(video: &VideoStream) -> Self {
        Self::fit_with(video, SegmenterParams::default())
    }

    /// Fits with explicit parameters.
    pub fn fit_with(video: &VideoStream, params: SegmenterParams) -> Self {
        PersonSegmenter {
            params,
            model: median_model(video),
        }
    }

    /// The tunables this segmenter was fitted with.
    pub fn params(&self) -> &SegmenterParams {
        &self.params
    }

    /// Reassembles a segmenter from previously extracted parts (params +
    /// fitted background model) — the inverse of [`PersonSegmenter::params`]
    /// and [`PersonSegmenter::model`], used to restore checkpointed state.
    pub fn from_parts(params: SegmenterParams, model: Frame) -> Self {
        PersonSegmenter { params, model }
    }

    /// The fitted background model.
    pub fn model(&self) -> &Frame {
        &self.model
    }

    /// Standalone segmentation: change detection + cleanup + component
    /// filtering.
    ///
    /// Frames of a different resolution yield an empty mask (the segmenter
    /// is fitted to one geometry).
    pub fn segment(&self, frame: &Frame) -> Mask {
        let (w, h) = self.model.dims();
        if frame.dims() != (w, h) {
            return Mask::new(w, h);
        }
        // Change detection: a vectorisable compare loop fills 0/1 bytes per
        // row, which the mask packs 8-per-multiply into its words.
        let mut changed = Mask::new(w, h);
        let tau = self.params.diff_tau;
        let mut bits = vec![0u8; w];
        for y in 0..h {
            let (a, b) = (frame.row(y), self.model.row(y));
            for ((pa, pb), d) in a.iter().zip(b).zip(&mut bits) {
                *d = u8::from(pa.linf(*pb) > tau);
            }
            changed.set_row_from_bytes(y, &bits);
        }
        let closed = morph::close(&changed, self.params.close_radius);
        let opened = morph::open(&closed, self.params.open_radius);
        let min_area = ((w * h) as f64 * self.params.min_component_frac) as usize;
        components::remove_small_components(
            &opened,
            min_area.max(1),
            components::Connectivity::Eight,
        )
    }

    /// Pipeline segmentation: selects the person-shaped component(s) from a
    /// candidate foreground mask.
    ///
    /// Candidates are scored by area, skin evidence and vertical anchoring
    /// (a seated caller always reaches the lower third of the frame); the
    /// best-scoring component is the caller, and every other component at
    /// least 60 % its size with skin evidence joins it (two-component poses
    /// like a detached waving hand).
    ///
    /// Mismatched dimensions yield an empty mask.
    pub fn segment_candidates(&self, frame: &Frame, candidates: &Mask) -> Mask {
        let (w, h) = frame.dims();
        if candidates.dims() != (w, h) {
            return Mask::new(w, h);
        }
        let cleaned = morph::close(candidates, self.params.close_radius);
        let labeling = components::label(&cleaned, components::Connectivity::Eight);
        if labeling.components().is_empty() {
            return Mask::new(w, h);
        }

        // Skin evidence: evaluate the prior once per candidate pixel, then
        // count per component with a word AND + popcount. Components are
        // disjoint, so this also caps total predicate work at |cleaned|.
        let skin_mask = frame.mask_where(&cleaned, is_skin);
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for comp in labeling.components() {
            let area_frac = comp.area as f64 / (w * h) as f64;
            if area_frac < self.params.min_component_frac {
                continue;
            }
            let comp_mask = labeling.component_mask(comp.label, h);
            let skin = skin_mask.count_intersection(&comp_mask) as f64 / comp.area as f64;
            // Anchoring: does the component reach the lower third?
            let reaches_bottom = comp.bbox.3 >= h * 2 / 3;
            let score = area_frac + skin * 0.5 + if reaches_bottom { 0.3 } else { 0.0 };
            scored.push((score, comp.label));
        }
        if scored.is_empty() {
            return Mask::new(w, h);
        }
        // total_cmp: a NaN score (degenerate params) must not panic the
        // pipeline — NaN orders last, so finite scores still win.
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let best_label = scored[0].1;
        let best_area = labeling
            .components()
            .iter()
            .find(|c| c.label == best_label)
            .expect("label exists")
            .area;

        let mut out = labeling.component_mask(best_label, h);
        for &(_, label) in &scored[1..] {
            let comp = labeling
                .components()
                .iter()
                .find(|c| c.label == label)
                .expect("label exists");
            if comp.area * 10 >= best_area * 6 {
                let m = labeling.component_mask(label, h);
                let skin_frac = skin_mask.count_intersection(&m) as f64 / comp.area as f64;
                if skin_frac >= self.params.skin_evidence_frac {
                    out.union_in_place(&m).expect("same dims");
                }
            }
        }
        // Restrict to the original candidates (close() may have annexed a
        // ring of pixels the other masks already claimed).
        out.intersect(candidates).expect("same dims")
    }

    /// Segments every frame of a stream with [`PersonSegmenter::segment`].
    pub fn segment_video(&self, video: &VideoStream) -> Vec<Mask> {
        video.iter().map(|f| self.segment(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    /// A synthetic "composited call": static virtual background and a
    /// moving blue person block (moves fast enough for the median model to
    /// capture the background).
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
    fn segments_the_moving_person() {
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let m = seg.segment(v.frame(12));
        assert!(
            m.count_set() >= 120,
            "person undersegmented: {}",
            m.count_set()
        );
        assert!(m.get(17, 18)); // inside the block at i=12 (px=14..22)
        assert!(!m.get(1, 1));
    }

    #[test]
    fn static_background_yields_empty_mask() {
        let v = VideoStream::generate(10, 30.0, |_| Frame::filled(20, 20, Rgb::grey(128))).unwrap();
        let seg = PersonSegmenter::fit(&v);
        assert!(seg.segment(v.frame(3)).is_empty());
    }

    #[test]
    fn wrong_resolution_yields_empty_mask() {
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let other = Frame::filled(10, 10, Rgb::WHITE);
        assert!(seg.segment(&other).is_empty());
        assert!(seg
            .segment_candidates(&other, &Mask::full(40, 30))
            .is_empty());
    }

    #[test]
    fn speckle_is_removed() {
        let v = VideoStream::generate(10, 30.0, |_| Frame::filled(30, 30, Rgb::grey(100))).unwrap();
        let seg = PersonSegmenter::fit(&v);
        let mut noisy = v.frame(0).clone();
        noisy.put(5, 5, Rgb::WHITE);
        noisy.put(20, 9, Rgb::BLACK);
        assert!(seg.segment(&noisy).is_empty());
    }

    #[test]
    fn segment_video_covers_all_frames() {
        let v = call_like_stream();
        let seg = PersonSegmenter::fit(&v);
        let masks = seg.segment_video(&v);
        assert_eq!(masks.len(), v.len());
        assert!(masks.iter().all(|m| m.dims() == (40, 30)));
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
        // The integer fast path must agree with the f32 HSV definition.
        // Pseudorandom colors cover the strict regions; near-boundary colors
        // (hue ratios around 5/6 and -1/3, saturation around 0.07 and 0.72)
        // are seeded explicitly since random sampling rarely lands on them.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as u32
        };
        for _ in 0..200_000 {
            let v = next();
            let p = Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8);
            assert_eq!(is_skin(p), is_skin_hsv(p), "disagree at {p}");
        }
        for d in 0..=42u8 {
            for m in 64..=255u8 {
                // h == 50 boundary: 6(g-b) == 5d → d = 6k, g-b = 5k.
                let (k6, k5) = (d.saturating_mul(6), d.saturating_mul(5));
                if m >= k6 {
                    let p = Rgb::new(m, m - k6 + k5, m - k6);
                    assert_eq!(is_skin(p), is_skin_hsv(p), "h=50 boundary {p}");
                }
                // h == 340 boundary: 3(b-g) == d → d = 3k, b-g = k.
                let k3 = d.saturating_mul(3);
                if m >= k3 {
                    let p = Rgb::new(m, m - k3, m - k3 + d);
                    assert_eq!(is_skin(p), is_skin_hsv(p), "h=340 boundary {p}");
                }
            }
        }
    }

    #[test]
    fn degenerate_params_do_not_panic() {
        // NaN thresholds poison every comparison; scoring and sorting must
        // stay total (no partial_cmp panic) and the subset contract must
        // hold regardless.
        let v = call_like_stream();
        let seg = PersonSegmenter::fit_with(
            &v,
            SegmenterParams {
                min_component_frac: f64::NAN,
                skin_evidence_frac: f64::NAN,
                ..Default::default()
            },
        );
        let candidates = Mask::from_fn(40, 30, |x, y| x > 5 && y > 4);
        let vcm = seg.segment_candidates(v.frame(10), &candidates);
        assert!(vcm.subtract(&candidates).unwrap().is_empty());
    }

    #[test]
    fn tighter_threshold_segments_more() {
        let v = call_like_stream();
        let loose = PersonSegmenter::fit_with(
            &v,
            SegmenterParams {
                diff_tau: 80,
                ..Default::default()
            },
        );
        let tight = PersonSegmenter::fit_with(
            &v,
            SegmenterParams {
                diff_tau: 10,
                ..Default::default()
            },
        );
        let f = v.frame(12);
        assert!(tight.segment(f).count_set() >= loose.segment(f).count_set());
    }
}
