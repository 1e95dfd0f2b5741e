//! Property-based tests for the reconstruction framework's invariants.

use bb_core::metrics;
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::recon::ReconstructionCanvas;
use bb_core::vbmask::{self, VirtualReference};
use bb_core::vcmask::{
    vc_mask_from_evidence, vc_mask_with_model, CallerColorModel, SkinScore, VcMaskParams,
};
use bb_core::{FrameOutcome, ReconstructionSession};
use bb_imaging::{morph, Frame, Mask, Rgb};
use bb_segment::person::{is_skin, skin_evidence};
use bb_segment::PersonSegmenter;
use bb_video::VideoStream;
use proptest::prelude::*;

fn arb_mask(w: usize, h: usize) -> impl Strategy<Value = Mask> {
    proptest::collection::vec(any::<bool>(), w * h).prop_map(move |bits| {
        let mut m = Mask::new(w, h);
        for (i, b) in bits.into_iter().enumerate() {
            m.set_index(i, b);
        }
        m
    })
}

fn arb_frame(w: usize, h: usize) -> impl Strategy<Value = Frame> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), w * h).prop_map(move |px| {
        Frame::from_pixels(
            w,
            h,
            px.into_iter().map(|(r, g, b)| Rgb::new(r, g, b)).collect(),
        )
        .expect("sized correctly")
    })
}

/// Frames that mix skin tones into random colors, so skin evidence is
/// neither empty nor everywhere.
fn arb_skinny_frame(w: usize, h: usize) -> impl Strategy<Value = Frame> {
    let palette = [
        Rgb::new(222, 180, 144),
        Rgb::new(150, 103, 72),
        Rgb::new(30, 60, 150),
    ];
    let px = (0usize..6, any::<u8>(), any::<u8>(), any::<u8>())
        .prop_map(move |(k, r, g, b)| palette.get(k).copied().unwrap_or(Rgb::new(r, g, b)));
    proptest::collection::vec(px, w * h)
        .prop_map(move |px| Frame::from_pixels(w, h, px).expect("sized correctly"))
}

/// Candidate masks: random bits, unions of rectangles clipped at the
/// border, or the full frame (a blur call's candidates).
fn arb_candidates(w: usize, h: usize) -> impl Strategy<Value = Mask> {
    let rects = proptest::collection::vec((0..w, 0..h, 1..=w, 1..=h), 1..4);
    (0u8..3, arb_mask(w, h), rects).prop_map(move |(kind, bits, rects)| match kind {
        0 => bits,
        1 => Mask::from_fn(w, h, |x, y| {
            rects
                .iter()
                .any(|&(x0, y0, rw, rh)| x >= x0 && x < x0 + rw && y >= y0 && y < y0 + rh)
        }),
        _ => Mask::full(w, h),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vbmr_and_rbrr_are_percentages(removed in arb_mask(10, 8), true_vb in arb_mask(10, 8)) {
        let v = metrics::vbmr_frame(&removed, &true_vb).unwrap();
        prop_assert!((0.0..=100.0).contains(&v));
        prop_assert!((0.0..=100.0).contains(&metrics::rbrr(&removed)));
    }

    #[test]
    fn vbmr_is_monotone_in_removed(removed in arb_mask(10, 8), extra in arb_mask(10, 8), true_vb in arb_mask(10, 8)) {
        let bigger = removed.union(&extra).unwrap();
        let v1 = metrics::vbmr_frame(&removed, &true_vb).unwrap();
        let v2 = metrics::vbmr_frame(&bigger, &true_vb).unwrap();
        prop_assert!(v2 >= v1 - 1e-12);
    }

    #[test]
    fn rbrr_from_leaks_bounds_individual_leaks(a in arb_mask(8, 8), b in arb_mask(8, 8)) {
        let joint = metrics::rbrr_from_leaks(&[a.clone(), b.clone()]).unwrap();
        prop_assert!(joint >= metrics::rbrr(&a) - 1e-12);
        prop_assert!(joint >= metrics::rbrr(&b) - 1e-12);
        prop_assert!(joint <= metrics::rbrr(&a) + metrics::rbrr(&b) + 1e-12);
    }

    #[test]
    fn canvas_recovery_is_monotone_and_bounded(leaks in proptest::collection::vec(arb_mask(6, 6), 1..6)) {
        let frame = Frame::filled(6, 6, Rgb::grey(99));
        let mut canvas = ReconstructionCanvas::new(6, 6);
        let mut prev = 0usize;
        let mut union = Mask::new(6, 6);
        for leak in &leaks {
            canvas.accumulate(&frame, leak).unwrap();
            prop_assert!(canvas.recovered_count() >= prev);
            prev = canvas.recovered_count();
            union.union_in_place(leak).unwrap();
        }
        // Exactly the union of leaks is recovered.
        prop_assert_eq!(canvas.recovered_mask(), union);
    }

    /// The canvas keeps its recovered count as it accumulates; the count
    /// equals a scan of the canvas after any accumulate sequence, and a
    /// session's canvas fill equals a scan after a checkpoint round trip.
    #[test]
    fn canvas_recovered_count_equals_a_scan(
        steps in proptest::collection::vec((arb_skinny_frame(7, 5), arb_mask(7, 5)), 1..9),
    ) {
        let mut canvas = ReconstructionCanvas::new(7, 5);
        for (frame, leak) in &steps {
            canvas.accumulate(frame, leak).unwrap();
            prop_assert_eq!(canvas.recovered_count(), canvas.recovered_mask().count_set());
        }

        let reconstructor = Reconstructor::new(
            VbSource::Exact(VirtualReference::Image {
                image: steps[0].0.clone(),
                valid: Mask::full(7, 5),
            }),
            ReconstructorConfig {
                tau: 8,
                phi: 1,
                parallelism: 1,
                warmup_frames: 2,
                ..Default::default()
            },
        );
        let mut session = reconstructor.session();
        for (frame, _) in &steps {
            session.push_frame(frame).unwrap();
        }
        let mut resumed = reconstructor.resume_session(&session.checkpoint()).unwrap();
        let scanned = |s: &ReconstructionSession| s.snapshot().unwrap().recovered.count_set();
        prop_assert_eq!(scanned(&resumed), scanned(&session));
        if resumed.is_locked() {
            let outcome = resumed.push_frame(&steps[0].0).unwrap();
            let FrameOutcome::Processed { canvas_fill, .. } = outcome else {
                panic!("a locked session processed {outcome:?}");
            };
            prop_assert_eq!(canvas_fill, scanned(&resumed) as f64 / 35.0);
        }
    }

    #[test]
    fn canvas_majority_prefers_repeated_color(n_good in 2u8..6, x in 0usize..4, y in 0usize..4) {
        let good = Frame::filled(4, 4, Rgb::new(20, 200, 20));
        let bad = Frame::filled(4, 4, Rgb::new(200, 20, 20));
        let mut leak = Mask::new(4, 4);
        leak.set(x, y, true);
        let mut canvas = ReconstructionCanvas::new(4, 4);
        canvas.accumulate(&bad, &leak).unwrap();
        for _ in 0..n_good {
            canvas.accumulate(&good, &leak).unwrap();
        }
        prop_assert_eq!(canvas.to_frame(Rgb::BLACK).get(x, y), Rgb::new(20, 200, 20));
    }

    #[test]
    fn vb_mask_is_subset_of_validity(f in arb_frame(8, 6), r in arb_frame(8, 6), valid in arb_mask(8, 6), tau in 0u8..40) {
        let m = vbmask::vb_mask(&f, &r, &valid, tau).unwrap();
        prop_assert!(m.subtract(&valid).unwrap().is_empty());
        // Monotone in tau.
        let m2 = vbmask::vb_mask(&f, &r, &valid, tau.saturating_add(20)).unwrap();
        prop_assert!(m.subtract(&m2).unwrap().is_empty());
    }

    #[test]
    fn derived_reference_only_claims_truly_stable_pixels(stable_value in any::<u8>(), wiggle in 1u8..100) {
        // A video whose left half is constant and right half oscillates.
        let video = VideoStream::generate(16, 30.0, |i| {
            Frame::from_fn(8, 4, |x, _| {
                if x < 4 {
                    Rgb::grey(stable_value)
                } else {
                    Rgb::grey(if i % 2 == 0 { 0 } else { wiggle.saturating_add(30) })
                }
            })
        })
        .unwrap();
        let r = vbmask::derive_unknown_image(video.frames(), 2).unwrap();
        let vbmask::VirtualReference::Image { image, valid } = r else { panic!() };
        for y in 0..4 {
            for x in 0..4 {
                prop_assert!(valid.get(x, y), "stable pixel not derived");
                prop_assert_eq!(image.get(x, y), Rgb::grey(stable_value));
            }
            for x in 4..8 {
                prop_assert!(!valid.get(x, y), "oscillating pixel wrongly derived");
            }
        }
    }

    #[test]
    fn recovery_precision_is_percentage(recon in arb_frame(6, 6), truth in arb_frame(6, 6), recovered in arb_mask(6, 6), tau in 0u8..60) {
        let p = metrics::recovery_precision(&recon, &recovered, &truth, tau).unwrap();
        prop_assert!((0.0..=100.0).contains(&p));
        // Perfect reconstruction has perfect precision.
        let perfect = metrics::recovery_precision(&truth, &recovered, &truth, tau).unwrap();
        prop_assert_eq!(perfect, 100.0);
    }

    #[test]
    fn closing_is_extensive(m in arb_candidates(70, 9), r in 1usize..=3) {
        // Candidates ⊆ close(candidates), at the border too: this is why
        // the skin prior over the candidates (pass1) and over the ring
        // close(candidates) \ candidates (pass2) covers every pixel of the
        // closed mask exactly once.
        prop_assert!(m.subtract(&morph::close(&m, r)).unwrap().is_empty());
    }

    #[test]
    fn vc_mask_delegation_equals_the_evidence_form(
        frame in arb_skinny_frame(70, 9),
        candidates in arb_candidates(70, 9),
        with_model in any::<bool>(),
    ) {
        let seg = PersonSegmenter::from_parts(frame.clone());
        let params = VcMaskParams::default();
        let model = if with_model {
            CallerColorModel::fit(&[(&frame, &candidates)], params.refine_bits)
        } else {
            None
        };
        let skin = skin_evidence(&frame, &candidates);
        prop_assert_eq!(
            vc_mask_with_model(&seg, &frame, &candidates, &params, model.as_ref()),
            vc_mask_from_evidence(&frame, &candidates, &skin, &params, model.as_ref())
        );
    }

    #[test]
    fn color_model_fit_equals_the_score_based_fit(
        pairs in proptest::collection::vec((arb_skinny_frame(70, 9), arb_candidates(70, 9)), 1..9),
    ) {
        // Scores as the session builds them: evidence over the complement
        // of `removed`, candidates rebuilt from `removed` for the kept
        // frames.
        let removeds: Vec<Mask> = pairs.iter().map(|(_, c)| c.complement()).collect();
        let scores: Vec<SkinScore> = pairs
            .iter()
            .zip(&removeds)
            .map(|((frame, _), removed)| {
                let candidates = removed.complement();
                SkinScore::of(&skin_evidence(frame, &candidates), &candidates)
            })
            .collect();
        // Each score is the per-pixel count of the skin prior inside the
        // candidates and the candidate area.
        for ((frame, candidates), score) in pairs.iter().zip(&scores) {
            let skin = candidates
                .iter_set()
                .filter(|&(x, y)| is_skin(frame.get(x, y)))
                .count();
            prop_assert_eq!(*score, SkinScore { skin, area: candidates.count_set() });
        }
        let refs: Vec<(&Frame, &Mask)> = pairs.iter().map(|(f, c)| (f, c)).collect();
        let by_pairs = CallerColorModel::fit(&refs, 4);
        let by_scores = CallerColorModel::fit_scored(&scores, 4, |i| {
            (&pairs[i].0, removeds[i].complement())
        });
        prop_assert_eq!(
            by_pairs.as_ref().map(|m| m.histogram().bucket_counts()),
            by_scores.as_ref().map(|m| m.histogram().bucket_counts())
        );
    }
}
