//! Video-caller masking (§V-D).
//!
//! The caller mask is produced by the person segmenter (the DeepLabv3
//! substitute in `bb-segment`) restricted to the pixels the VBM and BBM did
//! not claim, then repaired with the paper's statistical color refinement:
//! "for every pixel in VCM(u,w) = 1, if a color was observed … with a very
//! low frequency (presumably from the real background), we modify
//! VCM(u,w) = 0".

use crate::refine::refine_caller;
use bb_imaging::hist::ColorHistogram;
use bb_imaging::{Frame, Mask};
use bb_segment::person::{select_caller, skin_evidence};
use bb_segment::PersonSegmenter;

/// A cross-frame caller color model (§V-D's color analysis, applied across
/// frames): a histogram built from the candidate pixels of *quiet* frames —
/// frames whose candidate area is small, i.e. dominated by the caller with
/// little leakage. Colors rare in this model are presumed leaked background
/// even when they form a large fraction of one frame's candidate component
/// (e.g. the wall-colored trail behind a walking caller).
#[derive(Debug, Clone)]
pub struct CallerColorModel {
    hist: ColorHistogram,
}

/// How strongly one frame's candidates look like the caller, as the
/// [`CallerColorModel`] ranks frames: two popcounts over masks pass1
/// already built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkinScore {
    /// Skin-evidence pixels (all inside the candidates).
    pub skin: usize,
    /// Candidate pixels.
    pub area: usize,
}

impl SkinScore {
    /// Scores `candidates` by their [`skin_evidence`] `skin`.
    pub fn of(skin: &Mask, candidates: &Mask) -> SkinScore {
        SkinScore {
            skin: skin.count_set(),
            area: candidates.count_set(),
        }
    }
}

impl CallerColorModel {
    /// Builds the model from per-frame `(frame, candidates)` pairs,
    /// evaluating each frame's [`skin_evidence`] and then fitting as
    /// [`CallerColorModel::fit_scored`] does.
    ///
    /// Returns `None` when the input is empty or no candidate pixel exists.
    pub fn fit(frames_and_candidates: &[(&Frame, &Mask)], bits: u8) -> Option<CallerColorModel> {
        let scores: Vec<SkinScore> = frames_and_candidates
            .iter()
            .map(|&(frame, cand)| SkinScore::of(&skin_evidence(frame, cand), cand))
            .collect();
        Self::fit_scored(&scores, bits, |i| {
            let (frame, cand) = frames_and_candidates[i];
            (frame, cand.clone())
        })
    }

    /// Builds the model from per-frame [`SkinScore`]s; `pixels(i)` yields
    /// frame `i` and its candidate mask, and is called only for the frames
    /// the model keeps.
    ///
    /// Frame selection balances two risks: the quietest frames by area may
    /// have no caller at all (enter/exit absences), while the busiest are
    /// leak-heavy. The model therefore uses the quartile of frames with the
    /// most *skin evidence* inside the candidates (the caller is the only
    /// reliably skin-bearing candidate region), tie-broken toward smaller
    /// candidate area.
    ///
    /// Returns `None` when `scores` is empty or no candidate pixel exists.
    pub fn fit_scored<'a>(
        scores: &[SkinScore],
        bits: u8,
        mut pixels: impl FnMut(usize) -> (&'a Frame, Mask),
    ) -> Option<CallerColorModel> {
        if scores.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        // Most skin first; among equals, smallest candidate area first.
        order.sort_by(|&a, &b| {
            scores[b]
                .skin
                .cmp(&scores[a].skin)
                .then(scores[a].area.cmp(&scores[b].area))
        });
        let take = (scores.len() / 4).max(1);
        let mut hist = ColorHistogram::new(bits);
        for &i in order.iter().take(take) {
            let (frame, cand) = pixels(i);
            hist.add_masked(frame, &cand);
        }
        if hist.total() == 0 {
            return None;
        }
        Some(CallerColorModel { hist })
    }

    /// Relative frequency of `p`'s color bucket among modelled caller
    /// pixels.
    pub fn frequency(&self, p: bb_imaging::Rgb) -> f64 {
        self.hist.frequency(p)
    }

    /// The underlying color histogram (for checkpoint serialization).
    pub fn histogram(&self) -> &ColorHistogram {
        &self.hist
    }

    /// Rebuilds a model from a previously extracted histogram. Returns
    /// `None` for an empty histogram — the same contract as
    /// [`CallerColorModel::fit`], which never produces one.
    pub fn from_histogram(hist: ColorHistogram) -> Option<CallerColorModel> {
        if hist.total() == 0 {
            return None;
        }
        Some(CallerColorModel { hist })
    }
}

/// Parameters of the video-caller-masking stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcMaskParams {
    /// Minimum within-mask color frequency; rarer colors are flipped to
    /// background (§V-D).
    pub refine_min_freq: f64,
    /// Histogram quantisation (bits per channel) for the refinement.
    pub refine_bits: u8,
    /// Flipped pixels only leave the VCM in clusters of at least this many
    /// pixels. Genuine leaks are blob-shaped; isolated rare-color pixels are
    /// caller-boundary blend noise and stay with the caller. 1 disables the
    /// guard.
    pub min_flip_cluster: usize,
    /// Minimum frequency in the cross-frame [`CallerColorModel`] for a
    /// pixel to stay in the VCM (when a model is supplied).
    pub model_min_freq: f64,
}

impl Default for VcMaskParams {
    fn default() -> Self {
        VcMaskParams {
            refine_min_freq: 0.02,
            refine_bits: 4,
            min_flip_cluster: 4,
            model_min_freq: 0.03,
        }
    }
}

/// Result of the VCM stage for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct VcMaskResult {
    /// The refined video-caller mask.
    pub vcm: Mask,
    /// Pixels the refinement flipped out of the raw segmentation — these are
    /// presumed leaked background and stay in the residue.
    pub flipped: usize,
}

/// Produces the VCM for one frame: person selection among `candidates`
/// (pixels not claimed by VBM/BBM) followed by color refinement. With a
/// cross-frame caller color `model`, pixels whose color is rare *among
/// modelled caller pixels* are flipped in addition to the per-frame
/// refinement — this is what stops the wall-colored trail behind a walking
/// caller from being absorbed into the VCM (the failure mode a semantic
/// segmenter like DeepLabv3 avoids natively).
///
/// Equal to [`vc_mask_from_evidence`] with the frame's [`skin_evidence`].
pub fn vc_mask_with_model(
    segmenter: &PersonSegmenter,
    frame: &Frame,
    candidates: &Mask,
    params: &VcMaskParams,
    model: Option<&CallerColorModel>,
) -> VcMaskResult {
    refine_caller(
        frame,
        segmenter.segment_candidates(frame, candidates),
        params,
        model,
    )
}

/// [`vc_mask_with_model`] for a frame whose [`skin_evidence`] `skin` over
/// `candidates` is already computed: selects the caller without evaluating
/// the skin prior on the candidates again.
pub fn vc_mask_from_evidence(
    frame: &Frame,
    candidates: &Mask,
    skin: &Mask,
    params: &VcMaskParams,
    model: Option<&CallerColorModel>,
) -> VcMaskResult {
    refine_caller(frame, select_caller(frame, candidates, skin), params, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};
    use bb_video::VideoStream;

    fn fixture() -> (VideoStream, Frame, Mask) {
        // Caller blob + leak patch, both inside the candidate mask.
        let mut frame = Frame::filled(50, 50, Rgb::new(80, 150, 210));
        draw::fill_rect(&mut frame, 18, 20, 16, 30, Rgb::new(40, 70, 160)); // apparel
        draw::fill_circle(&mut frame, 26, 14, 6, Rgb::new(230, 195, 165)); // head
        draw::fill_rect(&mut frame, 36, 30, 3, 3, Rgb::new(20, 150, 40)); // fused leak
        let candidates = Mask::from_fn(50, 50, |x, y| {
            let body = (18..34).contains(&x) && (20..50).contains(&y);
            let head = {
                let dx = x as i64 - 26;
                let dy = y as i64 - 14;
                dx * dx + dy * dy <= 36
            };
            let leak = (34..39).contains(&x) && (30..33).contains(&y);
            body || head || leak
        });
        let video = VideoStream::generate(4, 30.0, |_| frame.clone()).unwrap();
        (video, frame, candidates)
    }

    #[test]
    fn vcm_keeps_caller_drops_rare_leak() {
        let (video, frame, candidates) = fixture();
        let seg = PersonSegmenter::fit(&video);
        let result = vc_mask_with_model(&seg, &frame, &candidates, &VcMaskParams::default(), None);
        assert!(result.vcm.get(26, 30), "torso missing from VCM");
        assert!(result.vcm.get(26, 14), "head missing from VCM");
        // The fused leak patch is color-rare and must be flipped out.
        assert!(!result.vcm.get(37, 31), "leak survived refinement");
        assert!(result.flipped > 0);
    }

    #[test]
    fn empty_candidates_empty_vcm() {
        let (video, frame, _) = fixture();
        let seg = PersonSegmenter::fit(&video);
        let result = vc_mask_with_model(
            &seg,
            &frame,
            &Mask::new(50, 50),
            &VcMaskParams::default(),
            None,
        );
        assert!(result.vcm.is_empty());
        assert_eq!(result.flipped, 0);
    }

    #[test]
    fn vcm_is_subset_of_candidates() {
        let (video, frame, candidates) = fixture();
        let seg = PersonSegmenter::fit(&video);
        let result = vc_mask_with_model(&seg, &frame, &candidates, &VcMaskParams::default(), None);
        assert!(result.vcm.subtract(&candidates).unwrap().is_empty());
    }

    #[test]
    fn zero_min_freq_disables_refinement() {
        let (video, frame, candidates) = fixture();
        let seg = PersonSegmenter::fit(&video);
        let params = VcMaskParams {
            refine_min_freq: 0.0,
            ..Default::default()
        };
        let result = vc_mask_with_model(&seg, &frame, &candidates, &params, None);
        assert_eq!(result.flipped, 0);
    }
}
