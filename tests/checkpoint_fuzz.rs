//! Adversarial input for the `BBSC` session checkpoint, mirroring the BBV v2
//! and BBWS sweeps (`v2_fuzz.rs`, `wire_fuzz.rs`): a truncation at *every*
//! byte boundary must come back as a typed error, and a bit flip at *every*
//! byte offset must either fail typed or resume into a session that can
//! take more frames and finalize — never a panic. Both checkpoint phases are
//! covered: a warmup-phase checkpoint (buffered raw frames) and a
//! locked-phase one (reference, segmenter, color model, canvas and
//! per-frame masks).

use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::CoreError;
use bb_imaging::{draw, Frame, Rgb};
use bb_video::VideoStream;
use std::panic::{catch_unwind, AssertUnwindSafe};

const W: usize = 12;
const H: usize = 9;
const FRAMES: usize = 13;
/// The fewest frames an unknown-image reference derivation accepts.
const WARMUP: usize = 10;

/// Every `FINALIZE_STRIDE`-th flipped checkpoint that resumes is also fed
/// the rest of the call and finalized; the rest stop after the resume. This
/// keeps the debug-build sweep within the other format sweeps' runtime.
const FINALIZE_STRIDE: usize = 16;

/// Offset of the collect-mode byte: magic (4) + version (4) + tau (1) +
/// phi, stability threshold, parallelism (3 × 8) + min observations (4).
const COLLECT_MODE_OFFSET: usize = 37;

/// A miniature composited call: a gradient VB with a swaying caller and a
/// small leak that comes and goes.
fn toy_call() -> VideoStream {
    let vb = Frame::from_fn(W, H, |x, y| Rgb::new((x * 19) as u8, (y * 25) as u8, 80));
    VideoStream::generate(FRAMES, 30.0, |i| {
        let mut f = vb.clone();
        let cx = 4 + (i % 3) as i64;
        draw::fill_rect(&mut f, cx, 4, 3, 5, Rgb::new(30, 90, 200));
        draw::fill_circle(&mut f, cx + 1, 2, 1, Rgb::new(230, 195, 165));
        if i % 3 != 0 {
            draw::fill_rect(&mut f, cx + 3, 5, 1, 2, Rgb::new(20, 140, 60));
        }
        f
    })
    .unwrap()
}

fn reconstructor() -> Reconstructor {
    Reconstructor::new(
        VbSource::UnknownImage,
        ReconstructorConfig {
            tau: 4,
            phi: 2,
            parallelism: 1,
            warmup_frames: WARMUP,
            ..Default::default()
        },
    )
}

/// The checkpoint taken after `pushed` frames, with the frames still to come.
fn checkpoint_after(pushed: usize) -> (Vec<u8>, Vec<Frame>) {
    let video = toy_call();
    let mut session = reconstructor().session();
    session.push_frames(&video.frames()[..pushed]).unwrap();
    assert_eq!(session.is_locked(), pushed >= WARMUP);
    (session.checkpoint(), video.frames()[pushed..].to_vec())
}

/// Checkpoints of both phases: before the lock and after it.
fn phases() -> [(&'static str, Vec<u8>, Vec<Frame>); 2] {
    let (warmup, warmup_rest) = checkpoint_after(3);
    let (locked, locked_rest) = checkpoint_after(WARMUP + 1);
    [
        ("warmup", warmup, warmup_rest),
        ("locked", locked, locked_rest),
    ]
}

#[test]
fn every_truncation_fails_typed_never_panics() {
    let reconstructor = reconstructor();
    for (phase, bytes, _) in phases() {
        for cut in 0..bytes.len() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                reconstructor.resume_session(&bytes[..cut]).map(|_| ())
            }));
            let result =
                outcome.unwrap_or_else(|_| panic!("{phase}: resume panicked at cut {cut}"));
            assert!(
                matches!(result, Err(CoreError::CheckpointCorrupt(_))),
                "{phase}: cut {cut} gave {result:?}"
            );
        }
        assert!(reconstructor.resume_session(&bytes).is_ok(), "{phase}");
    }
}

#[test]
fn every_bit_flip_is_typed_or_a_working_session() {
    let reconstructor = reconstructor();
    for (phase, bytes, rest) in phases() {
        let mut resumed = 0usize;
        for at in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[at] ^= bit;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let Ok(mut session) = reconstructor.resume_session(&corrupt) else {
                        return;
                    };
                    resumed += 1;
                    if resumed.is_multiple_of(FINALIZE_STRIDE) {
                        // Any result is acceptable here; only a panic fails.
                        let _ = session.push_frames(&rest).and_then(|_| session.finalize());
                    }
                }));
                outcome.unwrap_or_else(|_| panic!("{phase}: panicked at flip {at}/{bit:#x}"));
            }
        }
        assert!(resumed > 0, "{phase}: no flipped checkpoint resumed");
    }
}

#[test]
fn unknown_collect_mode_byte_is_corrupt() {
    let reconstructor = reconstructor();
    for (phase, mut bytes, _) in phases() {
        assert_eq!(bytes[COLLECT_MODE_OFFSET], 0, "{phase}: layout moved");
        bytes[COLLECT_MODE_OFFSET] = 1;
        match reconstructor.resume_session(&bytes) {
            Err(CoreError::CheckpointCorrupt(msg)) => {
                assert!(msg.contains("collect mode"), "{phase}: {msg}");
            }
            other => panic!(
                "{phase}: expected CheckpointCorrupt, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}
