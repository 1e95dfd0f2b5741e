//! One small end-to-end fixture per pipeline decision.
//!
//! The golden hashes in `determinism.rs` pin two whole calls, but a call
//! can pass through a decision without ever depending on it. Each fixture
//! here is a hand-built call in which one named decision changes the
//! output, and it pins that output's digest: if the decision is changed,
//! the digest moves. Each fixture also asserts the decision's visible
//! effect, so a failure says which decision moved.

use bb_core::pipeline::{Reconstruction, Reconstructor, ReconstructorConfig, VbSource};
use bb_core::vbmask::{derive_unknown_image, merge_references, VirtualReference};
use bb_imaging::{draw, Frame, Mask, Rgb};
use bb_video::VideoStream;

const W: usize = 64;
const H: usize = 48;
const FRAMES: usize = 12;

/// The fixtures' shared settings: a small match tolerance and blend radius.
fn config() -> ReconstructorConfig {
    ReconstructorConfig {
        tau: 4,
        phi: 1,
        parallelism: 2,
        ..Default::default()
    }
}

/// Reconstructs `video` and returns its digest with the reference used.
fn run(source: VbSource, video: &VideoStream) -> (u64, VirtualReference) {
    let reconstructor = Reconstructor::new(source, config());
    let rec = reconstructor.reconstruct(video).expect("reconstruct");
    (digest(&reconstructor, video, &rec), rec.vb_reference)
}

fn assert_pinned(got: u64, pinned: u64, what: &str) {
    assert_eq!(
        got, pinned,
        "{what} fixture drifted: got {got:#018x}, pinned {pinned:#018x}"
    );
}

/// FNV-1a over the background, the recovered mask and every frame's leak
/// mask, as `reconstructor.frame_masks` rebuilds it from `video`.
fn digest(reconstructor: &Reconstructor, video: &VideoStream, rec: &Reconstruction) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in rec.background.pixels() {
        eat(p.r);
        eat(p.g);
        eat(p.b);
    }
    let mut eat_mask = |m: &Mask| {
        for (x, y) in (0..H).flat_map(|y| (0..W).map(move |x| (x, y))) {
            eat(u8::from(m.get(x, y)));
        }
    };
    eat_mask(&rec.recovered);
    for (i, frame) in video.iter().enumerate() {
        let masks = reconstructor.frame_masks(rec, i, frame).expect("masks");
        eat_mask(&masks.leak);
    }
    hash
}

/// Skin tone of the caller's head, and of the VB's seam stripe.
const SKIN: Rgb = Rgb::new(222, 180, 144);
/// The seam stripe's column: it runs through the second component.
const SEAM_X: usize = 46;
/// The second component: a detached, skin-free region (a raised sleeve)
/// split by a one-pixel slot where the VB shows through.
const SLEEVE: (usize, usize, usize, usize) = (40, 2, 14, 20);

/// A blue-dominant gradient (no skin anywhere) with one skin-colored
/// vertical seam.
fn seam_vb() -> Frame {
    Frame::from_fn(W, H, |x, y| {
        if x == SEAM_X {
            SKIN
        } else {
            Rgb::new((x * 3) as u8, (y * 4) as u8, 200)
        }
    })
}

/// A seated caller (skin head, blue body reaching the bottom) and a
/// detached sleeve whose only skin-colored neighbour is the VB seam inside
/// its slot; some frames leak a strip of real background beside the body.
fn ring_call(vb: &Frame) -> VideoStream {
    VideoStream::generate(FRAMES, 30.0, |i| {
        let mut f = vb.clone();
        let cx = 12 + (i % 2) as i64;
        draw::fill_rect(&mut f, cx, 20, 12, 28, Rgb::new(40, 70, 160));
        draw::fill_circle(&mut f, cx + 6, 14, 5, SKIN);
        if i % 3 != 0 {
            draw::fill_rect(&mut f, cx + 12, 26, 3, 6, Rgb::new(20, 140, 60));
        }
        let (sx, sy, sw, sh) = SLEEVE;
        draw::fill_rect(&mut f, sx as i64, sy as i64, sw, sh, Rgb::new(70, 40, 150));
        // The slot: the VB (its skin seam) shows through the sleeve.
        for y in sy + 3..sy + sh - 3 {
            f.put(SEAM_X, y, vb.get(SEAM_X, y));
        }
        f
    })
    .expect("call")
}

/// Pinned digest of [`ring_call`]'s reconstruction.
const CLOSING_RING_DIGEST: u64 = 0x6bc7_238e_4b32_cc05;

/// `select_caller` scores components over `close(candidates)`, and the
/// skin on the ring the closing adds counts as evidence. Here the sleeve's
/// only skin is the seam in its slot — removed by the VBM and BBM, so not
/// a candidate, but inside the closing. That skin is what lets the sleeve
/// join the caller mask as a second component; without it the sleeve is
/// leaked background.
#[test]
fn closing_ring_skin_lets_a_detached_component_join_the_caller() {
    let vb = seam_vb();
    let video = ring_call(&vb);
    let reconstructor = Reconstructor::new(
        VbSource::Exact(VirtualReference::Image {
            image: vb,
            valid: Mask::full(W, H),
        }),
        config(),
    );
    let rec = reconstructor.reconstruct(&video).expect("reconstruct");
    let (sx, sy, sw, sh) = SLEEVE;
    let sleeve = Mask::from_fn(W, H, |x, y| {
        (sx..sx + sw).contains(&x) && (sy..sy + sh).contains(&y)
    });
    for (i, frame) in video.iter().enumerate() {
        let leak = reconstructor
            .frame_masks(&rec, i, frame)
            .expect("masks")
            .leak;
        assert!(
            leak.intersect(&sleeve).expect("dims").is_empty(),
            "frame {i}: the sleeve leaked"
        );
    }
    let got = digest(&reconstructor, &video, &rec);
    assert_pinned(got, CLOSING_RING_DIGEST, "closing-ring");
}

/// A caller block, in a color no VB of these fixtures uses.
const CALLER: Rgb = Rgb::new(90, 160, 90);

/// Two gallery images that differ by far more than `tau` everywhere.
fn gallery() -> Vec<Frame> {
    vec![
        Frame::from_fn(W, H, |x, y| Rgb::new(200, (x * 3) as u8, (y * 2) as u8)),
        Frame::from_fn(W, H, |x, y| Rgb::new((y * 2) as u8, (x * 3) as u8, 200)),
    ]
}

/// 32 frames, so the estimator samples every second frame. Half the
/// sampled frames show image 1 beside a narrow caller, the other half image
/// 0 beside a wide one; every unsampled frame shows image 0 beside a narrow
/// caller.
fn sampled_call(gallery: &[Frame]) -> VideoStream {
    VideoStream::generate(32, 30.0, |i| {
        let mut f = gallery[usize::from(i % 4 == 2)].clone();
        let width = if i % 4 == 0 { 40 } else { 8 };
        draw::fill_rect(&mut f, (i % 3) as i64, 8, width, 40, CALLER);
        f
    })
    .expect("call")
}

/// Pinned digest of [`sampled_call`]'s reconstruction.
const KNOWN_IMAGE_DIGEST: u64 = 0xd8fc_0ede_d611_2dd5;

/// `identify_known_image` sums its match scores over an even sample of
/// about 16 frames, not over every frame. Here the sample (every second
/// frame) picks image 1; a sum over every frame, or a sample of every
/// fourth frame, picks image 0.
#[test]
fn known_image_identification_scores_its_frame_sample() {
    let gallery = gallery();
    let video = sampled_call(&gallery);
    let (got, reference) = run(VbSource::KnownImages(gallery.clone()), &video);
    assert_eq!(
        reference,
        VirtualReference::Image {
            image: gallery[1].clone(),
            valid: Mask::full(W, H),
        },
        "the sampled frames' image was not identified"
    );
    assert_pinned(got, KNOWN_IMAGE_DIGEST, "known-image");
}

/// Occluded columns: over 20 frames, the first band is covered for the
/// first 10, the second for the first 11.
const STABLE_BAND: std::ops::Range<usize> = 8..16;
const SHORT_BAND: std::ops::Range<usize> = 32..40;

/// A static VB with two flickering occluders (a new color every frame, so
/// no run forms under them): the VB is stable for the last 10 frames under
/// the first and for the last 9 under the second.
fn stability_call() -> VideoStream {
    let vb = Frame::from_fn(W, H, |x, y| Rgb::new((x * 3) as u8, (y * 4) as u8, 200));
    VideoStream::generate(20, 30.0, |i| {
        let mut f = vb.clone();
        let flicker = Rgb::new(30 + (i * 23 % 200) as u8, 30, 30);
        for (band, covered) in [(STABLE_BAND, 10), (SHORT_BAND, 11)] {
            if i < covered {
                draw::fill_rect(&mut f, band.start as i64, 0, band.len(), H, flicker);
            }
        }
        f
    })
    .expect("call")
}

/// Pinned digest of [`stability_call`]'s reconstruction.
const STABILITY_DIGEST: u64 = 0xd85d_cf5d_cf3e_db25;

/// `derive_unknown_image` keeps a pixel when its longest stable run
/// reaches `STABILITY_THRESHOLD`, the paper's 10 frames, and not when it
/// falls one short.
#[test]
fn unknown_image_derivation_keeps_runs_of_exactly_the_threshold() {
    let video = stability_call();
    let (got, reference) = run(VbSource::UnknownImage, &video);
    let VirtualReference::Image { valid, .. } = &reference else {
        panic!("expected an image reference");
    };
    for y in 0..H {
        assert!(
            valid.get(STABLE_BAND.start, y),
            "a threshold run was dropped"
        );
        assert!(!valid.get(SHORT_BAND.start, y), "a short run was kept");
    }
    assert_pinned(got, STABILITY_DIGEST, "stability");
}

/// The VB video's period, and the phase the call's first frame shows.
const PERIOD: usize = 6;
const PHASE: usize = 2;

/// A looping VB video whose phases differ by far more than `tau`.
fn vb_video(blue: u8) -> VideoStream {
    VideoStream::generate(PERIOD, 30.0, |p| {
        Frame::from_fn(W, H, |x, y| {
            Rgb::new((30 + p * 35) as u8, (x * 3 + y) as u8, blue)
        })
    })
    .expect("vb video")
}

/// A caller in front of the VB video, joined at phase [`PHASE`], with a
/// strip of real background leaking beside it in most frames. At 22 frames
/// the estimator's 8 sampled frames fall unevenly on the loop, so a phase
/// scored in the wrong direction would win at another offset.
fn phase_call(vb: &VideoStream) -> VideoStream {
    VideoStream::generate(22, 30.0, |i| {
        let mut f = vb.frame((PHASE + i) % PERIOD).clone();
        let cx = 12 + (i % 2) as i64;
        draw::fill_rect(&mut f, cx, 20, 12, 28, CALLER);
        if i % 3 != 0 {
            draw::fill_rect(&mut f, cx + 12, 26, 3, 6, Rgb::new(20, 140, 60));
        }
        f
    })
    .expect("call")
}

/// Pinned digest of [`phase_call`]'s reconstruction.
const PHASE_DIGEST: u64 = 0x74a2_e214_66e3_dd25;

/// `identify_known_video` finds which phase call frame 0 shows, and the
/// reference keeps that offset, so call frame `i` is compared with phase
/// `(offset + i) % period`.
#[test]
fn known_video_identification_keeps_the_phase_offset() {
    let vb = vb_video(120);
    let video = phase_call(&vb);
    let source = VbSource::KnownVideos(vec![vb_video(20), vb.clone()]);
    let (got, reference) = run(source, &video);
    let VirtualReference::Video { phases, offset } = &reference else {
        panic!("expected a video reference");
    };
    assert_eq!(*offset, PHASE, "wrong phase offset");
    assert_eq!(&phases[0].0, vb.frame(0), "wrong video identified");
    assert_pinned(got, PHASE_DIGEST, "phase-offset");
}

/// The derived video's loop period, and the shortest period searched: the
/// per-phase threshold is `max(10 / MIN_PERIOD, 2)` = 5 occurrences, where
/// the detected period would give 10 / 4 = 2.
const LOOP: usize = 4;
const MIN_PERIOD: usize = 2;

/// A looping VB video of period [`LOOP`] with two flickering occluders (a
/// new color every frame, so no run forms under them). Over 28 frames each
/// phase occurs 7 times; the VB is stable for the last 5 occurrences under
/// the first band and for the last 4 under the second.
fn phase_stability_call() -> VideoStream {
    VideoStream::generate(7 * LOOP, 30.0, |i| {
        let p = i % LOOP;
        let mut f = Frame::from_fn(W, H, |x, y| {
            Rgb::new((30 + p * 50) as u8, (x * 3 + y) as u8, 200)
        });
        let flicker = Rgb::new(30 + (i * 23 % 200) as u8, 30, 30);
        for (band, covered) in [(STABLE_BAND, 2), (SHORT_BAND, 3)] {
            if i < covered * LOOP {
                draw::fill_rect(&mut f, band.start as i64, 0, band.len(), H, flicker);
            }
        }
        f
    })
    .expect("call")
}

/// Pinned digest of [`phase_stability_call`]'s reconstruction.
const PHASE_STABILITY_DIGEST: u64 = 0x7f50_bef5_8c69_70c5;

/// `derive_unknown_video` keeps a phase's pixel when its longest stable run
/// across the phase's occurrences reaches `max(STABILITY_THRESHOLD /
/// min_period, 2)`, and not when it falls one short.
#[test]
fn unknown_video_derivation_keeps_runs_of_exactly_the_phase_threshold() {
    let video = phase_stability_call();
    let source = VbSource::UnknownVideo {
        min_period: MIN_PERIOD,
        max_period: 2 * LOOP,
    };
    let (got, reference) = run(source, &video);
    let VirtualReference::Video { phases, offset } = &reference else {
        panic!("expected a video reference");
    };
    assert_eq!((phases.len(), *offset), (LOOP, 0), "wrong loop");
    for (p, (_, valid)) in phases.iter().enumerate() {
        for y in 0..H {
            assert!(
                valid.get(STABLE_BAND.start, y),
                "phase {p}: a threshold run was dropped"
            );
            assert!(
                !valid.get(SHORT_BAND.start, y),
                "phase {p}: a short run was kept"
            );
        }
    }
    assert_pinned(got, PHASE_STABILITY_DIGEST, "phase-stability");
}

/// The three fused calls' stationary callers, `(x, y, w, h)`, all inside
/// [`FLICKER`]'s rows.
const STILL_CALLERS: [(usize, usize, usize, usize); 3] =
    [(6, 20, 12, 28), (26, 24, 12, 24), (46, 20, 12, 28)];
const STILL_COLORS: [Rgb; 3] = [
    Rgb::new(90, 160, 90),
    Rgb::new(160, 90, 160),
    Rgb::new(60, 60, 120),
];
/// Rows where the third call shows a new color every frame, so its
/// derivation knows nothing there.
const FLICKER: std::ops::Range<usize> = 16..48;

/// Three 12-frame calls in front of one VB image, each with a caller who
/// never moves; the third call also flickers over [`FLICKER`].
fn still_calls(vb: &Frame) -> Vec<VideoStream> {
    (0..3)
        .map(|c| {
            VideoStream::generate(FRAMES, 30.0, |i| {
                let mut f = vb.clone();
                if c == 2 {
                    let flicker = Rgb::new(30 + (i * 23 % 200) as u8, 30, 30);
                    draw::fill_rect(&mut f, 0, FLICKER.start as i64, W, FLICKER.len(), flicker);
                }
                let (x, y, w, h) = STILL_CALLERS[c];
                draw::fill_rect(&mut f, x as i64, y as i64, w, h, STILL_COLORS[c]);
                f
            })
            .expect("call")
        })
        .collect()
}

/// Pinned digest of the first still call's reconstruction against the
/// fused reference.
const FUSION_DIGEST: u64 = 0x7ba3_accb_7fad_5f2c;

/// `merge_references` keeps a pixel's value when two calls agree on it,
/// and drops a value only one call saw. Each call derives its own still
/// caller as background. Under the flicker, where the third call knows
/// nothing, the first two calls agree on the VB except where either one's
/// caller stands; the third call's caller is outvoted by the other two.
#[test]
fn voting_fusion_keeps_values_two_calls_agree_on() {
    let vb = Frame::from_fn(W, H, |x, y| Rgb::new((x * 3) as u8, (y * 4) as u8, 200));
    let calls = still_calls(&vb);
    let refs: Vec<VirtualReference> = calls
        .iter()
        .map(|c| derive_unknown_image(c.frames(), config().tau).expect("derive"))
        .collect();
    let fused = merge_references(&refs, config().tau).expect("fuse");
    let VirtualReference::Image { image, valid } = &fused else {
        panic!("expected an image reference");
    };
    let lone = |x: usize, y: usize| STILL_CALLERS[..2].iter().any(|&r| rect(r).get(x, y));
    for y in 0..H {
        for x in 0..W {
            if lone(x, y) {
                assert!(!valid.get(x, y), "({x}, {y}): one call's value was kept");
            } else {
                assert!(valid.get(x, y), "({x}, {y}): an agreed value was dropped");
                assert_eq!(image.get(x, y), vb.get(x, y), "({x}, {y}): not the VB");
            }
        }
    }
    let (got, _) = run(VbSource::Exact(fused), &calls[0]);
    assert_pinned(got, FUSION_DIGEST, "voting-fusion");
}

/// The refinement fixture's caller: apparel and a skin head, reaching the
/// bottom of the frame.
const APPAREL: Rgb = Rgb::new(40, 70, 160);
/// Common in the cross-frame model (a large patch in its frames), and in a
/// few pixels of one later frame.
const BADGE: Rgb = Rgb::new(200, 40, 40);
/// Absent from the model's frames, and a large patch of one later frame.
const TRAIL: Rgb = Rgb::new(20, 140, 60);
/// Two colors that appear in one frame only, in a cluster of
/// `min_flip_cluster - 1` and one of `min_flip_cluster` pixels.
const SPECK3: Rgb = Rgb::new(250, 250, 20);
const SPECK4: Rgb = Rgb::new(130, 20, 120);

/// Rectangles `(x, y, w, h)` of the refinement call's patches, all well
/// inside the caller's body.
const BIG_BADGE: (usize, usize, usize, usize) = (18, 24, 8, 6);
const SMALL_BADGE: (usize, usize, usize, usize) = (20, 36, 2, 3);
const TRAIL_PATCH: (usize, usize, usize, usize) = (24, 30, 6, 5);
/// Frames that show the small badge, the trail and the specks.
const BADGE_FRAME: usize = 5;
const TRAIL_FRAME: usize = 7;
const SPECK_FRAME: usize = 9;

/// The specks: diagonal runs, one cluster under eight-connectivity and
/// single pixels under four. `(x0, y0, len)`.
const SPECK3_AT: (usize, usize, usize) = (20, 26, 3);
const SPECK4_AT: (usize, usize, usize) = (27, 36, 4);

fn rect(r: (usize, usize, usize, usize)) -> Mask {
    let (x0, y0, w, h) = r;
    Mask::from_fn(W, H, |x, y| {
        (x0..x0 + w).contains(&x) && (y0..y0 + h).contains(&y)
    })
}

fn diagonal(d: (usize, usize, usize)) -> Mask {
    let (x0, y0, len) = d;
    Mask::from_fn(W, H, |x, y| {
        (x0..x0 + len).contains(&x) && y == y0 + (x - x0)
    })
}

/// A seated caller on a blue gradient. The first three frames raise a skin
/// hand, so they have the most skin evidence and make up the caller color
/// model (the top quartile of 12 frames), and they wear a large badge. Three
/// later frames each carry one refinement case.
fn refine_call(vb: &Frame) -> VideoStream {
    VideoStream::generate(FRAMES, 30.0, |i| {
        let mut f = vb.clone();
        draw::fill_rect(&mut f, 16, 20, 20, 28, APPAREL);
        draw::fill_circle(&mut f, 26, 13, 6, SKIN);
        let mut paint = |m: &Mask, c: Rgb| {
            for (x, y) in m.iter_set() {
                f.put(x, y, c);
            }
        };
        if i < 3 {
            paint(&rect((36, 26, 6, 8)), SKIN);
            paint(&rect(BIG_BADGE), BADGE);
        }
        match i {
            BADGE_FRAME => paint(&rect(SMALL_BADGE), BADGE),
            TRAIL_FRAME => paint(&rect(TRAIL_PATCH), TRAIL),
            SPECK_FRAME => {
                paint(&diagonal(SPECK3_AT), SPECK3);
                paint(&diagonal(SPECK4_AT), SPECK4);
            }
            _ => {}
        }
        f
    })
    .expect("call")
}

/// Pinned digest of [`refine_call`]'s reconstruction.
const REFINE_DIGEST: u64 = 0x3254_d6de_d160_b439;

/// The §V-D refinement flips a caller pixel out of the VCM when its color
/// is rare within its frame's caller mask *or* rare in the cross-frame
/// caller color model, and then returns every flipped cluster smaller than
/// `min_flip_cluster` pixels (eight-connected) to the caller. Here the
/// small badge is rare only within its frame, the trail only in the model,
/// and of the two specks only the one of `min_flip_cluster` pixels leaves.
#[test]
fn caller_refinement_flips_frame_rare_and_model_rare_clusters() {
    let vb = Frame::from_fn(W, H, |x, y| Rgb::new((x * 3) as u8, (y * 4) as u8, 200));
    let video = refine_call(&vb);
    let reconstructor = Reconstructor::new(
        VbSource::Exact(VirtualReference::Image {
            image: vb,
            valid: Mask::full(W, H),
        }),
        config(),
    );
    let rec = reconstructor.reconstruct(&video).expect("reconstruct");
    let leak = |i: usize| {
        reconstructor
            .frame_masks(&rec, i, video.frame(i))
            .expect("masks")
            .leak
    };
    let inside = |m: &Mask, i: usize| m.subtract(&leak(i)).expect("dims").is_empty();
    let outside = |m: &Mask, i: usize| m.intersect(&leak(i)).expect("dims").is_empty();
    for i in 0..3 {
        assert!(
            outside(&rect(BIG_BADGE), i),
            "frame {i}: the model's badge leaked"
        );
    }
    assert!(
        inside(&rect(SMALL_BADGE), BADGE_FRAME),
        "the frame-rare badge stayed with the caller"
    );
    assert!(
        inside(&rect(TRAIL_PATCH), TRAIL_FRAME),
        "the model-rare trail stayed with the caller"
    );
    assert!(
        inside(&diagonal(SPECK4_AT), SPECK_FRAME),
        "the speck of min_flip_cluster pixels stayed with the caller"
    );
    assert!(
        outside(&diagonal(SPECK3_AT), SPECK_FRAME),
        "the speck below min_flip_cluster left the caller"
    );
    let got = digest(&reconstructor, &video, &rec);
    assert_pinned(got, REFINE_DIGEST, "caller-refinement");
}

/// A screen on the wall beside the caller: a small leaked patch, apart
/// from the caller, that shows a new color in every frame.
const SCREEN: (usize, usize, usize, usize) = (46, 8, 8, 8);
/// The screen's colors, each far from the others beyond `VOTE_TAU`.
const SCREEN_COLORS: [Rgb; 4] = [
    Rgb::new(250, 30, 30),
    Rgb::new(30, 250, 30),
    Rgb::new(250, 250, 30),
    Rgb::new(30, 30, 60),
];

/// A seated caller on a blue gradient beside the screen, which cycles
/// through its four colors, one per frame.
fn screen_call(vb: &Frame) -> VideoStream {
    VideoStream::generate(FRAMES, 30.0, |i| {
        let mut f = vb.clone();
        draw::fill_rect(&mut f, 16, 20, 20, 28, APPAREL);
        draw::fill_circle(&mut f, 26, 13, 6, SKIN);
        let (x, y, w, h) = SCREEN;
        draw::fill_rect(&mut f, x as i64, y as i64, w, h, SCREEN_COLORS[i % 4]);
        f
    })
    .expect("call")
}

/// Pinned digest of [`screen_call`]'s reconstruction.
const CANVAS_VOTE_DIGEST: u64 = 0xa807_221b_71ce_4661;

/// The canvas's Boyer–Moore vote: the dissenting observation that drains
/// the candidate's votes to zero replaces it. Every screen observation
/// dissents from a candidate holding one vote, so the candidate is always
/// the latest color, and the screen ends in the last frame's color. A
/// replacement only below zero ends on the third color, and no
/// replacement keeps the first.
#[test]
fn canvas_vote_replaces_the_candidate_at_zero() {
    let vb = Frame::from_fn(W, H, |x, y| Rgb::new((x * 3) as u8, (y * 4) as u8, 200));
    let video = screen_call(&vb);
    let reconstructor = Reconstructor::new(
        VbSource::Exact(VirtualReference::Image {
            image: vb,
            valid: Mask::full(W, H),
        }),
        config(),
    );
    let rec = reconstructor.reconstruct(&video).expect("reconstruct");
    // The screen's interior: its rim is the blending-blur band.
    let (x, y, w, h) = SCREEN;
    for (px, py) in [
        (x + 1, y + 1),
        (x + w / 2, y + h / 2),
        (x + w - 2, y + h - 2),
    ] {
        assert!(
            rec.recovered.get(px, py),
            "screen pixel ({px}, {py}) not leaked"
        );
        assert_eq!(
            rec.background.get(px, py),
            SCREEN_COLORS[(FRAMES - 1) % 4],
            "screen pixel ({px}, {py}) did not end on the last frame's color"
        );
    }
    let got = digest(&reconstructor, &video, &rec);
    assert_pinned(got, CANVAS_VOTE_DIGEST, "canvas-vote");
}
