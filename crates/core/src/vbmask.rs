//! Virtual-background masking (§V-B).
//!
//! Four scenarios, as in the paper:
//!
//! 1. **Known virtual image** — [`identify_known_image`]: the
//!    highest-likelihood estimator `argmax Σ µ(img ⊕ fⁱ)` over the
//!    adversary's dataset `D_img` of default/popular backgrounds.
//! 2. **Known virtual video** — [`identify_known_video`]: the same estimator
//!    extended over all frames of all candidate videos, plus loop-phase
//!    tracking so each call frame is compared against the right video frame.
//! 3. **Unknown virtual image** — [`derive_unknown_image`]: "any pixel with
//!    a consistent value across a large number of frames … would be
//!    considered part of the virtual background image. Empirically … a pixel
//!    consistent across 10 or more frames has very high probability of
//!    belonging to the virtual background" ([`STABILITY_THRESHOLD`]).
//! 4. **Unknown virtual video** — [`derive_unknown_video`]: loop-period
//!    detection, then per-phase stability ("pixels stay the same across
//!    every periodic occurrence of a frame").
//!
//! Both unknown derivations share one per-pixel stability analysis; only
//! its frames and its run threshold differ. Cross-call fusion
//! ([`merge_references`], a per-pixel vote across calls) implements the §V-B
//! mitigation for stationary users: "searching for the unknown virtual image
//! in other call videos".

use crate::CoreError;
use bb_imaging::{Frame, Mask, Rgb};
use bb_video::loopdet;
use std::borrow::Borrow;

/// The paper's empirical stability threshold: a pixel consistent across this
/// many consecutive frames (at 30 fps) is treated as virtual background.
pub const STABILITY_THRESHOLD: usize = 10;

/// The reference the VB-masking stage compares frames against.
#[derive(Debug, Clone, PartialEq)]
pub enum VirtualReference {
    /// A single reference image. The optional validity mask marks pixels
    /// whose value is actually known (always fully valid for identified
    /// known images; partial for derived ones).
    Image {
        /// Reference pixels.
        image: Frame,
        /// Which pixels of `image` are known.
        valid: Mask,
    },
    /// A looping reference video: one (frame, validity) pair per phase,
    /// plus the phase offset of call frame 0.
    Video {
        /// Per-phase reference frames with validity masks.
        phases: Vec<(Frame, Mask)>,
        /// `phase_of_call_frame_0`; call frame `i` uses phase
        /// `(offset + i) % phases.len()`.
        offset: usize,
    },
}

impl VirtualReference {
    /// The reference frame and validity for call frame `i`.
    pub fn for_frame(&self, i: usize) -> (&Frame, &Mask) {
        match self {
            VirtualReference::Image { image, valid } => (image, valid),
            VirtualReference::Video { phases, offset } => {
                let (f, m) = &phases[(offset + i) % phases.len()];
                (f, m)
            }
        }
    }

    /// Fraction of reference pixels whose value is known, in `[0, 1]`.
    pub fn validity(&self) -> f64 {
        match self {
            VirtualReference::Image { valid, .. } => valid.coverage(),
            VirtualReference::Video { phases, .. } => {
                phases.iter().map(|(_, m)| m.coverage()).sum::<f64>() / phases.len() as f64
            }
        }
    }
}

/// Identifies the virtual image used in a call from a candidate dataset:
/// the §V-B highest-likelihood estimator, summed over (a sample of) call
/// frames. Returns `(index, total_score)`. The candidates may be owned or
/// borrowed frames (`Cow<Frame>`, say).
///
/// # Errors
///
/// * [`CoreError::EmptyCandidateSet`] when `candidates` is empty.
/// * Propagates dimension mismatches.
pub fn identify_known_image<C: Borrow<Frame>>(
    video: &[Frame],
    candidates: &[C],
    tau: u8,
) -> Result<(usize, u64), CoreError> {
    if candidates.is_empty() {
        return Err(CoreError::EmptyCandidateSet);
    }
    // Sample every `len / 16`-th frame (16 to 31 frames; every frame of a
    // shorter window) — the estimator's argmax is stable long before
    // summing every frame.
    let step = (video.len() / 16).max(1);
    let mut best = (0usize, 0u64);
    for (ci, cand) in candidates.iter().enumerate() {
        let mut score = 0u64;
        for frame in video.iter().step_by(step) {
            score += frame.match_score(cand.borrow(), tau)? as u64;
        }
        if ci == 0 || score > best.1 {
            best = (ci, score);
        }
    }
    Ok(best)
}

/// Identifies the virtual *video* used in a call from a candidate dataset,
/// returning `(video_index, phase_offset, score)` where `phase_offset` is
/// the candidate frame index that call frame 0 shows. Each candidate is a
/// slice of owned or borrowed frames; an empty candidate is skipped.
///
/// # Errors
///
/// * [`CoreError::EmptyCandidateSet`] when no candidate has a frame.
/// * Propagates dimension mismatches.
pub fn identify_known_video<C: Borrow<Frame>>(
    video: &[Frame],
    candidates: &[&[C]],
    tau: u8,
) -> Result<(usize, usize, u64), CoreError> {
    let mut best: Option<(usize, usize, u64)> = None;
    for (vi, cand) in candidates.iter().enumerate() {
        // For each possible phase offset, score a few call frames under the
        // assumption that call frame i shows candidate frame (offset+i)%len.
        let period = cand.len();
        for offset in 0..period {
            let mut score = 0u64;
            let samples = 8.min(video.len());
            for s in 0..samples {
                let i = s * video.len() / samples;
                let cf = cand[(offset + i) % period].borrow();
                score += video[i].match_score(cf, tau)? as u64;
            }
            if best.is_none_or(|(_, _, bs)| score > bs) {
                best = Some((vi, offset, score));
            }
        }
    }
    best.ok_or(CoreError::EmptyCandidateSet)
}

/// The per-pixel stability analysis behind both unknown-VB derivations
/// (§V-B): at each pixel, the longest run of consecutive `frames` within
/// `tau` of the run's first value (its anchor). A pixel whose longest run
/// reaches `min_run` frames is virtual background: the image holds that
/// run's anchor and the mask marks the pixel. Ties keep the earlier run.
///
/// `frames` is non-empty and of one size (the callers check).
fn stable_reference(frames: &[&Frame], tau: u8, min_run: usize) -> (Frame, Mask) {
    let (w, h) = frames[0].dims();
    let mut image = Frame::new(w, h);
    let mut valid = Mask::new(w, h);
    if frames.len() < min_run {
        return (image, valid);
    }
    for y in 0..h {
        for x in 0..w {
            let mut best_len = 0usize;
            let mut best_anchor = Rgb::BLACK;
            let mut anchor = frames[0].get(x, y);
            let mut run = 1usize;
            for frame in &frames[1..] {
                let p = frame.get(x, y);
                if p.matches(anchor, tau) {
                    run += 1;
                } else {
                    if run > best_len {
                        best_len = run;
                        best_anchor = anchor;
                    }
                    anchor = p;
                    run = 1;
                }
            }
            if run > best_len {
                best_len = run;
                best_anchor = anchor;
            }
            if best_len >= min_run {
                image.put(x, y, best_anchor);
                valid.set(x, y, true);
            }
        }
    }
    (image, valid)
}

/// Unknown-virtual-image derivation (§V-B): a pixel whose value stays
/// within `tau` of a running anchor for at least [`STABILITY_THRESHOLD`]
/// consecutive frames is considered virtual background; the derived image
/// stores the anchor value and the validity mask marks derived pixels.
///
/// # Errors
///
/// Returns [`CoreError::VideoTooShort`] when the video has fewer frames than
/// [`STABILITY_THRESHOLD`], and a dimension mismatch when its frames differ
/// in size.
pub fn derive_unknown_image(video: &[Frame], tau: u8) -> Result<VirtualReference, CoreError> {
    if video.len() < STABILITY_THRESHOLD {
        return Err(CoreError::VideoTooShort {
            needed: STABILITY_THRESHOLD,
            have: video.len(),
        });
    }
    for frame in video {
        video[0].check_same_dims(frame)?;
    }
    let frames: Vec<&Frame> = video.iter().collect();
    let (image, valid) = stable_reference(&frames, tau, STABILITY_THRESHOLD);
    Ok(VirtualReference::Image { image, valid })
}

/// Unknown-virtual-video derivation (§V-B): find the loop period, then run
/// the stability analysis inside each phase bucket ("pixels stay the same
/// across every occurrence of a frame").
///
/// A phase keeps a pixel stable across `max(STABILITY_THRESHOLD /
/// min_period, 2)` consecutive occurrences: the ≥10-frame rule spread over
/// the shortest period searched, and never a single occurrence.
///
/// # Errors
///
/// * [`CoreError::VideoTooShort`] when the window holds fewer than
///   `2 × max_period` frames: period detection needs two full loops.
/// * [`CoreError::NoPeriodFound`] when the stream shows no periodicity in
///   `[min_period, max_period]`.
/// * Propagated errors from detection, and a dimension mismatch when the
///   frames differ in size.
pub fn derive_unknown_video(
    video: &[Frame],
    min_period: usize,
    max_period: usize,
    tau: u8,
) -> Result<VirtualReference, CoreError> {
    let needed = max_period.saturating_mul(2);
    if video.len() < needed {
        return Err(CoreError::VideoTooShort {
            needed,
            have: video.len(),
        });
    }
    let period = loopdet::detect_period(video, min_period, max_period, 18.0)?
        .ok_or(CoreError::NoPeriodFound)?
        .frames;
    for frame in video {
        video[0].check_same_dims(frame)?;
    }
    // `detect_period` has refused `min_period == 0`.
    let min_run = (STABILITY_THRESHOLD / min_period).max(2);
    let phases = loopdet::phase_buckets(video.len(), period)
        .iter()
        .map(|bucket| {
            let frames: Vec<&Frame> = bucket.iter().map(|&i| &video[i]).collect();
            stable_reference(&frames, tau, min_run)
        })
        .collect();
    Ok(VirtualReference::Video { phases, offset: 0 })
}

/// Cross-call fusion by voting (§V-B's stationary-user mitigation:
/// "searching for the unknown virtual image in other call videos").
///
/// A stationary caller's body pixels are wrongly derived as "virtual
/// background" (they are stable!), so gap-filling cannot repair them — the
/// wrong value is *valid*. Across calls, though, only true VB pixels agree:
/// different callers/rooms put different colors behind each pixel. A pixel
/// is kept when two calls agree on its value within `tau` (the first such
/// value, in call order), and is invalid otherwise. A single reference
/// comes back unchanged.
///
/// # Errors
///
/// * [`CoreError::EmptyCandidateSet`] on empty input.
/// * [`CoreError::VideoReferenceFusion`] when any reference is a video.
/// * A dimension mismatch when a reference differs in size from the first.
pub fn merge_references(refs: &[VirtualReference], tau: u8) -> Result<VirtualReference, CoreError> {
    let images = refs
        .iter()
        .map(|r| match r {
            VirtualReference::Image { image, valid } => Ok((image, valid)),
            VirtualReference::Video { .. } => Err(CoreError::VideoReferenceFusion),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let &(first, _) = images.first().ok_or(CoreError::EmptyCandidateSet)?;
    for &(image, valid) in &images {
        first.check_same_dims(image)?;
        first.check_mask_dims(valid)?;
    }
    if let [only] = refs {
        return Ok(only.clone());
    }
    let (w, h) = first.dims();
    let mut image = Frame::new(w, h);
    let mut valid = Mask::new(w, h);
    let mut observations: Vec<Rgb> = Vec::with_capacity(refs.len());
    for y in 0..h {
        for x in 0..w {
            observations.clear();
            observations.extend(
                images
                    .iter()
                    .filter(|(_, v)| v.get(x, y))
                    .map(|(i, _)| i.get(x, y)),
            );
            // A value corroborated by a second call wins.
            'search: for (i, &a) in observations.iter().enumerate() {
                for &b in &observations[i + 1..] {
                    if a.matches(b, tau) {
                        image.put(x, y, a);
                        valid.set(x, y, true);
                        break 'search;
                    }
                }
            }
        }
    }
    Ok(VirtualReference::Image { image, valid })
}

/// Generates the per-frame virtual background mask (§V-B):
/// `VBM(u,w) = 1 iff µ(M ⊕ f(u,w)) = 1` — i.e. the frame pixel matches the
/// reference within `tau` *and* the reference knows that pixel. Only the
/// pixels `valid` marks are compared, so a reference that knows nothing (the
/// blur-residue mode's) costs one comparison per 64 pixels.
///
/// # Errors
///
/// Propagates dimension mismatches of `reference` or `valid` against
/// `frame`.
pub fn vb_mask(frame: &Frame, reference: &Frame, valid: &Mask, tau: u8) -> Result<Mask, CoreError> {
    Ok(frame.match_mask_within(reference, valid, tau)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::draw;
    use bb_video::VideoStream;

    fn vb_image() -> Frame {
        Frame::from_fn(24, 18, |x, y| Rgb::new((x * 9) as u8, (y * 11) as u8, 77))
    }

    /// A composited-call-like stream: VB everywhere except a moving block.
    fn call_stream(len: usize) -> VideoStream {
        let vb = vb_image();
        VideoStream::generate(len, 30.0, |i| {
            let mut f = vb.clone();
            draw::fill_rect(&mut f, (i % 12) as i64, 6, 5, 8, Rgb::new(200, 30, 30));
            f
        })
        .unwrap()
    }

    #[test]
    fn known_image_identified() {
        let video = call_stream(20);
        let candidates = vec![
            Frame::filled(24, 18, Rgb::grey(50)),
            vb_image(),
            Frame::filled(24, 18, Rgb::grey(200)),
        ];
        let (idx, score) = identify_known_image(video.frames(), &candidates, 2).unwrap();
        assert_eq!(idx, 1);
        assert!(score > 0);
    }

    #[test]
    fn empty_candidates_rejected() {
        let video = call_stream(5);
        assert!(matches!(
            identify_known_image::<Frame>(video.frames(), &[], 0),
            Err(CoreError::EmptyCandidateSet)
        ));
        assert!(matches!(
            identify_known_video::<Frame>(video.frames(), &[], 0),
            Err(CoreError::EmptyCandidateSet)
        ));
        // Candidates without a frame are skipped; if every one is empty,
        // nothing was offered.
        assert!(matches!(
            identify_known_video::<Frame>(video.frames(), &[&[], &[]], 0),
            Err(CoreError::EmptyCandidateSet)
        ));
        let (vi, _, _) = identify_known_video(video.frames(), &[&[], video.frames()], 0).unwrap();
        assert_eq!(vi, 1);
    }

    #[test]
    fn known_video_identified_with_offset() {
        // Virtual video with period 6; call starts at phase 2.
        let vb_video = VideoStream::generate(6, 30.0, |p| {
            Frame::filled(20, 16, Rgb::grey((p * 40) as u8))
        })
        .unwrap();
        let call = VideoStream::generate(18, 30.0, |i| {
            let mut f = vb_video.frame((2 + i) % 6).clone();
            draw::fill_rect(&mut f, 8, 6, 4, 6, Rgb::new(180, 40, 40));
            f
        })
        .unwrap();
        let decoy = VideoStream::generate(6, 30.0, |p| {
            Frame::filled(20, 16, Rgb::new((p * 40) as u8, 0, 128))
        })
        .unwrap();
        let (vi, offset, _) =
            identify_known_video(call.frames(), &[decoy.frames(), vb_video.frames()], 2).unwrap();
        assert_eq!(vi, 1);
        assert_eq!(offset, 2);
    }

    #[test]
    fn unknown_image_derivation_recovers_vb() {
        let video = call_stream(40);
        let r = derive_unknown_image(video.frames(), 2).unwrap();
        let VirtualReference::Image { image, valid } = &r else {
            panic!("expected image reference");
        };
        // Pixels far from the moving block are derived exactly.
        assert!(valid.get(20, 2));
        assert_eq!(image.get(20, 2), vb_image().get(20, 2));
        // Most of the frame is derived.
        assert!(r.validity() > 0.5, "validity {}", r.validity());
    }

    #[test]
    fn derivation_needs_enough_frames() {
        let video = call_stream(5);
        assert!(matches!(
            derive_unknown_image(video.frames(), 2),
            Err(CoreError::VideoTooShort { .. })
        ));
        // Period detection needs two full loops of the longest period.
        assert!(matches!(
            derive_unknown_video(video.frames(), 2, 10, 2),
            Err(CoreError::VideoTooShort {
                needed: 20,
                have: 5
            })
        ));
    }

    #[test]
    fn derivation_refuses_frames_of_mixed_size() {
        let mut frames = call_stream(40).into_frames();
        frames.push(Frame::new(12, 9));
        assert!(matches!(
            derive_unknown_image(&frames, 2),
            Err(CoreError::Imaging(_))
        ));
        // Period detection may meet the odd frame before derivation does.
        assert!(matches!(
            derive_unknown_video(&frames, 2, 10, 2),
            Err(CoreError::Imaging(_) | CoreError::Video(_))
        ));
    }

    #[test]
    fn unknown_video_derivation_finds_phases() {
        // Looping VB with period 4; a small moving occluder.
        let call = VideoStream::generate(48, 30.0, |i| {
            let phase = i % 4;
            let mut f = Frame::filled(20, 16, Rgb::grey((60 + phase * 30) as u8));
            draw::fill_rect(&mut f, phase as i64 * 4, 0, 2, 3, Rgb::new(10, 200, 10));
            draw::fill_rect(&mut f, (i % 10) as i64, 8, 4, 6, Rgb::new(180, 40, 40));
            f
        })
        .unwrap();
        let r = derive_unknown_video(call.frames(), 2, 10, 2).unwrap();
        let VirtualReference::Video { phases, .. } = &r else {
            panic!("expected video reference");
        };
        // The detector may settle on the fundamental period or a multiple of
        // it (both reconstruct correctly); phase content must match either
        // way.
        assert_eq!(
            phases.len() % 4,
            0,
            "period {} not a multiple of 4",
            phases.len()
        );
        for (p, (img, valid)) in phases.iter().enumerate() {
            assert!(valid.get(18, 2), "phase {p} missing pixel");
            assert_eq!(img.get(18, 2), Rgb::grey((60 + (p % 4) * 30) as u8));
        }
    }

    #[test]
    fn aperiodic_video_yields_no_period() {
        let call = VideoStream::generate(60, 30.0, |i| {
            Frame::from_fn(16, 12, |x, y| {
                Rgb::grey(((x * 3 + y * 7 + i * i * 13) % 255) as u8)
            })
        })
        .unwrap();
        assert!(matches!(
            derive_unknown_video(call.frames(), 2, 12, 1),
            Err(CoreError::NoPeriodFound)
        ));
    }

    #[test]
    fn vb_mask_matches_reference_only_where_valid() {
        let reference = vb_image();
        let mut valid = Mask::full(24, 18);
        valid.set(0, 0, false);
        let frame = reference.clone();
        let m = vb_mask(&frame, &reference, &valid, 0).unwrap();
        assert!(!m.get(0, 0), "invalid reference pixel must not mask");
        assert!(m.get(5, 5));
        assert_eq!(m.count_set(), 24 * 18 - 1);
    }

    #[test]
    fn vb_mask_of_an_empty_validity_is_empty() {
        let frame = vb_image();
        let m = vb_mask(&frame, &frame, &Mask::new(24, 18), 255).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn vb_mask_refuses_mismatched_reference_or_validity() {
        let frame = vb_image();
        for valid in [Mask::new(24, 18), Mask::full(24, 18)] {
            assert!(matches!(
                vb_mask(&frame, &Frame::new(12, 9), &valid, 0),
                Err(CoreError::Imaging(_))
            ));
        }
        for valid in [Mask::new(12, 9), Mask::full(25, 18)] {
            assert!(matches!(
                vb_mask(&frame, &frame, &valid, 0),
                Err(CoreError::Imaging(_))
            ));
        }
    }

    /// An image reference that knows `vb` where `known` holds.
    fn partial(vb: &Frame, known: impl Fn(usize, usize) -> bool) -> VirtualReference {
        let (w, h) = vb.dims();
        let valid = Mask::from_fn(w, h, known);
        let image = Frame::from_fn(w, h, |x, y| {
            if valid.get(x, y) {
                vb.get(x, y)
            } else {
                Rgb::BLACK
            }
        });
        VirtualReference::Image { image, valid }
    }

    #[test]
    fn merge_keeps_only_values_two_calls_agree_on() {
        let vb = vb_image();
        // A and B both know the top half; only A knows the bottom-left, only
        // B the bottom-right. C knows the left columns, but with another
        // value, which nobody corroborates.
        let a = partial(&vb, |x, y| y < 9 || x < 12);
        let b = partial(&vb, |x, y| y < 9 || x >= 12);
        let c = VirtualReference::Image {
            image: Frame::filled(24, 18, Rgb::new(250, 0, 250)),
            valid: Mask::from_fn(24, 18, |x, _| x < 4),
        };
        let merged = merge_references(&[a, b, c], 2).unwrap();
        assert_eq!(merged, partial(&vb, |_, y| y < 9));
    }

    #[test]
    fn merge_of_one_reference_is_that_reference() {
        let one = partial(&vb_image(), |x, _| x < 12);
        assert_eq!(
            merge_references(std::slice::from_ref(&one), 0).unwrap(),
            one
        );
    }

    #[test]
    fn merge_refuses_a_reference_of_another_size() {
        let vb = vb_image();
        let small = partial(&Frame::new(12, 9), |_, _| true);
        let refs = [partial(&vb, |_, _| true), partial(&vb, |_, _| true), small];
        assert!(matches!(
            merge_references(&refs, 2),
            Err(CoreError::Imaging(_))
        ));
    }

    #[test]
    fn merge_refuses_video_references() {
        let image = partial(&vb_image(), |_, _| true);
        let video = VirtualReference::Video {
            phases: vec![(vb_image(), Mask::full(24, 18))],
            offset: 0,
        };
        for refs in [vec![video.clone()], vec![image, video]] {
            assert!(matches!(
                merge_references(&refs, 2),
                Err(CoreError::VideoReferenceFusion)
            ));
        }
    }

    #[test]
    fn merge_empty_is_error() {
        assert!(matches!(
            merge_references(&[], 0),
            Err(CoreError::EmptyCandidateSet)
        ));
    }

    #[test]
    fn for_frame_respects_video_offset() {
        let phases = vec![
            (Frame::filled(4, 4, Rgb::grey(1)), Mask::full(4, 4)),
            (Frame::filled(4, 4, Rgb::grey(2)), Mask::full(4, 4)),
            (Frame::filled(4, 4, Rgb::grey(3)), Mask::full(4, 4)),
        ];
        let r = VirtualReference::Video { phases, offset: 2 };
        assert_eq!(r.for_frame(0).0.get(0, 0), Rgb::grey(3));
        assert_eq!(r.for_frame(1).0.get(0, 0), Rgb::grey(1));
        assert_eq!(r.for_frame(4).0.get(0, 0), Rgb::grey(1));
    }
}
