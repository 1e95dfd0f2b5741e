//! Property tests for the streaming reconstruction session.
//!
//! The contract under test: for any call and any way of feeding it to a
//! [`ReconstructionSession`] — one frame at a time, in ragged chunks, or cut
//! by a checkpoint/resume round trip at an arbitrary point — the finalized
//! output is **byte-identical** to the batch `reconstruct` call with the
//! same configuration, and so is every frame's masks, as
//! `Reconstructor::frame_masks` rebuilds them.

use bb_core::pipeline::{Reconstruction, Reconstructor, ReconstructorConfig, VbSource};
use bb_core::vcmask::VcMaskParams;
use bb_imaging::{draw, Frame, Rgb};
use bb_video::VideoStream;
use proptest::prelude::*;

/// A miniature composited call, parameterized so proptest explores distinct
/// virtual backgrounds, caller appearances, and motion patterns.
fn toy_call(
    frames: usize,
    caller: Rgb,
    skin: Rgb,
    sway_period: usize,
    leak_phase: usize,
) -> VideoStream {
    let vb = Frame::from_fn(48, 36, |x, y| Rgb::new((x * 5) as u8, (y * 6) as u8, 80));
    VideoStream::generate(frames, 30.0, |i| {
        let mut f = vb.clone();
        let cx = 20 + ((i / sway_period) % 4) as i64;
        draw::fill_rect(&mut f, cx, 14, 10, 22, caller);
        draw::fill_circle(&mut f, cx + 5, 10, 4, skin);
        if i % 3 != leak_phase {
            draw::fill_rect(&mut f, cx + 10, 18, 3, 6, Rgb::new(20, 140, 60));
        }
        f
    })
    .unwrap()
}

fn config(warmup_frames: usize) -> ReconstructorConfig {
    ReconstructorConfig {
        tau: 4,
        phi: 2,
        parallelism: 2,
        warmup_frames,
        vc: VcMaskParams {
            min_flip_cluster: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn assert_same(
    reconstructor: &Reconstructor,
    video: &VideoStream,
    a: &Reconstruction,
    b: &Reconstruction,
) {
    assert_eq!(a.background, b.background, "background differs");
    assert_eq!(a.recovered, b.recovered, "recovered mask differs");
    for (i, frame) in video.iter().enumerate() {
        let ma = reconstructor.frame_masks(a, i, frame).expect("masks");
        let mb = reconstructor.frame_masks(b, i, frame).expect("masks");
        assert_eq!(ma.leak, mb.leak, "leak masks differ at {i}");
        assert_eq!(ma.vbm, mb.vbm, "VBMs differ at {i}");
        assert_eq!(ma.removed, mb.removed, "removed masks differ at {i}");
    }
}

fn arb_caller() -> impl Strategy<Value = Rgb> {
    // Away from the VB gradient's palette so the caller stays segmentable.
    (0u8..=60, 60u8..=120, 140u8..=255).prop_map(|(r, g, b)| Rgb::new(r, g, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_feeding_schedule_matches_batch(
        frames in 14usize..28,
        warmup in 10usize..16,
        chunk in 1usize..7,
        caller in arb_caller(),
        sway_period in 2usize..5,
        leak_phase in 0usize..3,
    ) {
        let video = toy_call(frames, caller, Rgb::new(230, 195, 165), sway_period, leak_phase);
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config(warmup));
        let batch = reconstructor.reconstruct(&video).expect("batch");

        // One frame at a time.
        let mut one_by_one = reconstructor.session();
        for frame in video.iter() {
            one_by_one.push_frame(frame).expect("push");
        }
        assert_same(&reconstructor, &video, &batch, &one_by_one.finalize().expect("finalize"));

        // Ragged chunks that straddle the lock boundary.
        let mut chunked = reconstructor.session();
        for block in video.frames().chunks(chunk) {
            chunked.push_frames(block).expect("push chunk");
        }
        assert_same(&reconstructor, &video, &batch, &chunked.finalize().expect("finalize"));
    }

    #[test]
    fn checkpoint_resume_at_any_cut_matches_batch(
        frames in 14usize..28,
        warmup in 10usize..16,
        cut_frac in 0.0f64..1.0,
        caller in arb_caller(),
        sway_period in 2usize..5,
    ) {
        let video = toy_call(frames, caller, Rgb::new(230, 195, 165), sway_period, 0);
        let cut = ((frames as f64 * cut_frac) as usize).clamp(1, frames - 1);
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config(warmup));
        let batch = reconstructor.reconstruct(&video).expect("batch");

        let mut session = reconstructor.session();
        session.push_frames(&video.frames()[..cut]).expect("push head");
        let bytes = session.checkpoint();
        drop(session); // the original is gone, as after a process kill

        let mut resumed = reconstructor.resume_session(&bytes).expect("resume");
        prop_assert_eq!(resumed.frames_seen(), cut);
        resumed.push_frames(&video.frames()[cut..]).expect("push tail");
        assert_same(&reconstructor, &video, &batch, &resumed.finalize().expect("finalize"));
    }

}
