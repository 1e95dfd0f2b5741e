//! One small end-to-end fixture per pipeline decision.
//!
//! The golden hashes in `determinism.rs` pin two whole calls, but a call
//! can pass through a decision without ever depending on it. Each fixture
//! here is a hand-built call in which one named decision changes the
//! output, and it pins that output's digest: if the decision is changed,
//! the digest moves. Each fixture also asserts the decision's visible
//! effect, so a failure says which decision moved.

use bb_core::pipeline::{Reconstruction, Reconstructor, ReconstructorConfig, VbSource};
use bb_core::vbmask::VirtualReference;
use bb_imaging::{draw, Frame, Mask, Rgb};
use bb_video::VideoStream;

const W: usize = 64;
const H: usize = 48;
const FRAMES: usize = 12;

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
        ReconstructorConfig {
            tau: 4,
            phi: 1,
            parallelism: 2,
            ..Default::default()
        },
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
    assert_eq!(
        got, CLOSING_RING_DIGEST,
        "closing-ring fixture drifted: got {got:#018x}, pinned {CLOSING_RING_DIGEST:#018x}"
    );
}
