//! The §V-D statistical color refinement of the raw caller mask.
//!
//! "Although very accurate, DeepLabv3 is not perfect, and as a result, the
//! VCM it outputs may still contain parts of the leaked background. …
//! Specifically, for every pixel in VCM(u,w) = 1, if a color was observed in
//! f(u,w) with a very low frequency (presumably from the real background),
//! we modify VCM(u,w) = 0."
//!
//! The caller's body is large and color-coherent (skin + apparel); leaked
//! background fragments are small and colored like the room. Colors that are
//! rare *within the mask* are therefore flipped out of it, and so are colors
//! rare in the cross-frame [`CallerColorModel`]. The session's pass2 runs
//! [`refine_caller_into`] on its per-thread scratch, and both entry points
//! of [`crate::vcmask`] reach the same body through [`refine_caller`].

use crate::vcmask::{CallerColorModel, VcMaskParams, VcMaskResult};
use bb_imaging::components::{self, Labeling};
use bb_imaging::hist::{FrameHistogram, RareColors};
use bb_imaging::{Frame, Mask};

/// The §V-D color refinement of the raw caller segmentation `raw`, on
/// fresh buffers: [`refine_caller_into`] with the `model`'s rare table at
/// `params.model_min_freq`.
pub(crate) fn refine_caller(
    frame: &Frame,
    raw: Mask,
    params: &VcMaskParams,
    model: Option<&CallerColorModel>,
) -> VcMaskResult {
    let model_rare = model.map(|m| m.histogram().rare_colors(params.model_min_freq));
    let mut vcm = raw;
    let flipped = refine_caller_into(
        frame,
        &mut vcm,
        params,
        model_rare.as_ref(),
        &mut RefineScratch::default(),
    );
    VcMaskResult { vcm, flipped }
}

/// The reusable buffers of [`refine_caller_into`]: the per-frame
/// histogram, the rare and flipped pixels and the cluster guard's
/// labelling. Any frame size.
#[derive(Debug, Clone)]
pub(crate) struct RefineScratch {
    hist: FrameHistogram,
    rare: Mask,
    flips: Mask,
    labeling: Labeling,
}

impl Default for RefineScratch {
    fn default() -> Self {
        RefineScratch {
            hist: FrameHistogram::new(VcMaskParams::default().refine_bits),
            rare: Mask::new(1, 1),
            flips: Mask::new(1, 1),
            labeling: Labeling::default(),
        }
    }
}

/// Refines the raw caller mask `vcm` in place and returns how many pixels
/// it flipped out.
///
/// A pixel of `vcm` flips when its color is rare within `vcm` itself (the
/// paper's per-frame test: its bucket's count is below the histogram's
/// `rarity_threshold(params.refine_min_freq)`) or is in `model_rare`, the
/// cross-frame model's rare table. The histogram flags both rarities for
/// the buckets `vcm`'s pixels hit (at the finer of the two
/// quantisations), and one word-directed walk over `vcm` reads one flag
/// per pixel to find every flip: `raw ∖ (frame-rare ∪ model-rare)` is what
/// the per-frame test followed by the model test on its survivors leaves.
pub(crate) fn refine_caller_into(
    frame: &Frame,
    vcm: &mut Mask,
    params: &VcMaskParams,
    model_rare: Option<&RareColors>,
    scratch: &mut RefineScratch,
) -> usize {
    let RefineScratch {
        hist,
        rare,
        flips,
        labeling,
    } = scratch;
    if hist.bits() != params.refine_bits {
        *hist = FrameHistogram::new(params.refine_bits);
    }
    hist.fill(frame, vcm);
    hist.mark_rare(params.refine_min_freq, model_rare);
    frame.mask_where_into(vcm, |p| hist.is_rare(p), rare);
    // Cluster guard: only blob-shaped flip regions are treated as leaked
    // background; isolated rare-color pixels are blend noise on the caller
    // boundary and return to the VCM.
    components::remove_small_components_into(
        rare,
        params.min_flip_cluster,
        components::Connectivity::Eight,
        labeling,
        flips,
    );
    vcm.subtract_in_place(flips).expect("same dims");
    flips.count_set()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcmask::vc_mask_from_evidence;
    use bb_imaging::hist::ColorHistogram;
    use bb_imaging::{draw, Rgb};
    use bb_segment::person::skin_evidence;

    /// `vc_mask_from_evidence` without a model, on a frame whose
    /// candidates are exactly `mask`.
    fn refine_without_model(frame: &Frame, mask: &Mask, min_freq: f64) -> VcMaskResult {
        let params = VcMaskParams {
            refine_min_freq: min_freq,
            refine_bits: 4,
            min_flip_cluster: 1,
            ..Default::default()
        };
        let skin = skin_evidence(frame, mask);
        vc_mask_from_evidence(frame, mask, &skin, &params, None)
    }

    #[test]
    fn rare_colors_are_flipped() {
        // Mask covers a big red body plus a small green leak patch.
        let mut f = Frame::filled(30, 30, Rgb::grey(220));
        draw::fill_rect(&mut f, 5, 5, 16, 20, Rgb::new(180, 30, 30)); // body: 320 px
        draw::fill_rect(&mut f, 22, 10, 3, 3, Rgb::new(20, 160, 40)); // leak: 9 px
        let mask = Mask::from_fn(30, 30, |x, y| {
            ((5..21).contains(&x) && (5..25).contains(&y))
                || ((22..25).contains(&x) && (10..13).contains(&y))
        });
        let result = refine_without_model(&f, &mask, 0.05);
        assert_eq!(result.flipped, 9);
        assert!(!result.vcm.get(23, 11), "leak pixel survived");
        assert!(result.vcm.get(10, 10), "body pixel flipped");
    }

    #[test]
    fn uniform_mask_is_untouched() {
        let f = Frame::filled(20, 20, Rgb::new(50, 90, 130));
        let mask = Mask::from_fn(20, 20, |x, y| (3..10).contains(&x) && (3..17).contains(&y));
        let result = refine_without_model(&f, &mask, 0.05);
        assert_eq!(result.flipped, 0);
        assert_eq!(result.vcm, mask);
    }

    #[test]
    fn empty_mask_passthrough() {
        let result = refine_without_model(&Frame::new(10, 10), &Mask::new(10, 10), 0.1);
        assert_eq!(result.flipped, 0);
        assert!(result.vcm.is_empty());
    }

    #[test]
    fn mismatched_dims_yield_an_empty_vcm() {
        let result = refine_without_model(&Frame::new(10, 10), &Mask::full(5, 5), 0.1);
        assert_eq!(result.flipped, 0);
        assert_eq!(result.vcm, Mask::new(10, 10));
    }

    #[test]
    fn zero_threshold_flips_nothing() {
        let mut f = Frame::filled(10, 10, Rgb::grey(10));
        f.put(0, 0, Rgb::WHITE);
        let result = refine_without_model(&f, &Mask::full(10, 10), 0.0);
        assert_eq!(result.flipped, 0);
    }

    #[test]
    fn two_tone_body_survives_reasonable_threshold() {
        // Skin (30%) + apparel (70%): both common, neither flipped at 5%.
        let mut f = Frame::filled(20, 20, Rgb::grey(200));
        draw::fill_rect(&mut f, 0, 0, 20, 6, Rgb::new(230, 200, 170)); // skin
        draw::fill_rect(&mut f, 0, 6, 20, 14, Rgb::new(30, 60, 140)); // apparel
        let result = refine_without_model(&f, &Mask::full(20, 20), 0.05);
        assert_eq!(result.flipped, 0);
    }

    /// The refinement as two sequential walks: the per-frame rarity test
    /// over `raw`, then the model test over its survivors, then the guard.
    fn two_walk_reference(
        frame: &Frame,
        raw: &Mask,
        params: &VcMaskParams,
        model: Option<&CallerColorModel>,
    ) -> VcMaskResult {
        let (w, h) = raw.dims();
        let mut hist = ColorHistogram::new(params.refine_bits);
        hist.add_masked(frame, raw);
        let refined = Mask::from_fn(w, h, |x, y| {
            raw.get(x, y) && hist.frequency(frame.get(x, y)) >= params.refine_min_freq
        });
        let refined = match model {
            Some(m) => Mask::from_fn(w, h, |x, y| {
                refined.get(x, y) && m.frequency(frame.get(x, y)) >= params.model_min_freq
            }),
            None => refined,
        };
        let flipped_mask = raw.subtract(&refined).unwrap();
        let clusters = if params.min_flip_cluster <= 1 {
            flipped_mask
        } else {
            components::remove_small_components(
                &flipped_mask,
                params.min_flip_cluster,
                components::Connectivity::Eight,
            )
        };
        VcMaskResult {
            vcm: raw.subtract(&clusters).unwrap(),
            flipped: clusters.count_set(),
        }
    }

    #[test]
    fn one_walk_refinement_equals_the_two_walk_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let palette: Vec<Rgb> = (0..40)
            .map(|_| {
                let v = next();
                Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8)
            })
            .collect();
        // Skewed draws make a few colors common and most rare.
        let mut frame_of = |w: usize, h: usize| {
            Frame::from_fn(w, h, |_, _| {
                let v = next();
                palette[((v % 40) * (v >> 8) % 40 * (v >> 16) % 40) as usize]
            })
        };
        let (mut flips, mut returned) = (0, 0);
        for (w, h) in [(1, 9), (63, 5), (64, 4), (65, 5), (130, 6)] {
            let frame = frame_of(w, h);
            let model_frame = frame_of(w, h);
            let raws = [
                Mask::new(w, h),
                Mask::full(w, h),
                Mask::from_fn(w, h, |x, y| (x * 7 + y * 3) % 5 != 0),
                Mask::from_fn(w, h, |x, y| (x / 3 + y) % 4 == 0),
            ];
            let models: Vec<Option<CallerColorModel>> = [4u8, 3]
                .iter()
                .map(|&bits| {
                    let mut hist = ColorHistogram::new(bits);
                    hist.add_masked(&model_frame, &Mask::full(w, h));
                    CallerColorModel::from_histogram(hist)
                })
                .chain([None])
                .collect();
            for raw in &raws {
                for model in &models {
                    for (refine_min_freq, min_flip_cluster) in [(0.02, 4), (0.05, 1), (0.0, 2)] {
                        let params = VcMaskParams {
                            refine_min_freq,
                            min_flip_cluster,
                            ..Default::default()
                        };
                        let got = refine_caller(&frame, raw.clone(), &params, model.as_ref());
                        assert_eq!(
                            got,
                            two_walk_reference(&frame, raw, &params, model.as_ref()),
                            "{w}x{h} {params:?} model bits {:?}",
                            model.as_ref().map(|m| m.histogram().bits())
                        );
                        let unguarded = VcMaskParams {
                            min_flip_cluster: 1,
                            ..params
                        };
                        flips += got.flipped;
                        returned += refine_caller(&frame, raw.clone(), &unguarded, model.as_ref())
                            .flipped
                            - got.flipped;
                    }
                }
            }
        }
        // The fixture exercises both the flips and the guard's returns.
        assert!(
            flips > 0 && returned > 0,
            "flips {flips}, returned {returned}"
        );
    }
}
