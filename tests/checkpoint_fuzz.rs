//! Adversarial input for the `BBSC` v4 session checkpoint, mirroring the BBV v2
//! and BBWS sweeps (`v2_fuzz.rs`, `wire_fuzz.rs`): a truncation at *every*
//! byte boundary must come back as a typed error, and a bit flip at *every*
//! byte offset must either fail typed or resume into a session that can
//! take more frames and finalize — never a panic. Both checkpoint phases are
//! covered: a warmup-phase checkpoint (buffered raw frames) and a
//! locked-phase one (reference, segmenter, color model and canvas). The
//! locked checkpoint's bytes are also pinned by digest.

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

/// Offset of the byte after `warmup_frames` in the settings block: magic
/// (4), version (4), tau (1), phi (8), warmup_frames (8). Version 3 stored
/// its mask-retention byte here.
const V3_RETENTION_OFFSET: usize = 25;

#[test]
fn earlier_format_versions_are_refused_by_name() {
    // Bytes 4..8 hold the format version. Versions 1 to 3 stored settings
    // or sections this build no longer has; their checkpoints must not be
    // misread.
    let reconstructor = reconstructor();
    let refused = |bytes: &[u8], version: u32, what: &str| match reconstructor.resume_session(bytes)
    {
        Err(CoreError::CheckpointCorrupt(msg)) => assert!(
            msg.contains(&format!("unsupported checkpoint version {version}")),
            "{what}: {msg}"
        ),
        other => panic!(
            "{what}: expected CheckpointCorrupt, got {:?}",
            other.map(|_| ())
        ),
    };
    for (phase, bytes, _) in phases() {
        assert_eq!(bytes[4..8], 4u32.to_le_bytes(), "{phase}: layout moved");
        for version in [1u32, 2, 3] {
            let mut relabelled = bytes.clone();
            relabelled[4..8].copy_from_slice(&version.to_le_bytes());
            refused(&relabelled, version, phase);
        }
        // A genuine v3 checkpoint of a session that kept no masks: the v4
        // bytes plus v3's retention byte (1 = none), which v3 followed with
        // no mask section.
        let mut v3 = bytes.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        v3.insert(V3_RETENTION_OFFSET, 1);
        refused(&v3, 3, phase);
    }
}

#[test]
fn locked_checkpoints_do_not_grow_with_the_call() {
    // Nothing per frame is kept after the lock, so a locked checkpoint is
    // the same size at any frame count.
    let sizes: Vec<usize> = (WARMUP..=FRAMES)
        .map(|pushed| checkpoint_after(pushed).0.len())
        .collect();
    assert!(sizes.windows(2).all(|p| p[0] == p[1]), "{sizes:?}");
}

/// FNV-1a digest of a locked checkpoint: the toy call under sensor noise,
/// taken one frame after the lock. The checkpoint carries the fitted
/// segmenter model, and no golden hash reads that model, so this digest is
/// what pins the median kernel's output end to end (along with the
/// reference, color model and canvas). The noise makes each pixel's median
/// depend on exactly which of its sorted samples the kernel picks.
const LOCKED_CHECKPOINT_DIGEST: u64 = 0xdbdc_1ea0_8158_6380;

#[test]
fn locked_checkpoint_is_pinned() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut noise = move |v: u8| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.saturating_add((state >> 62) as u8)
    };
    let frames: Vec<Frame> = toy_call().frames()[..=WARMUP]
        .iter()
        .map(|f| {
            Frame::from_fn(W, H, |x, y| {
                let p = f.get(x, y);
                Rgb::new(noise(p.r), noise(p.g), noise(p.b))
            })
        })
        .collect();
    let mut session = reconstructor().session();
    session.push_frames(&frames).unwrap();
    assert!(session.is_locked());
    let digest = session
        .checkpoint()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        digest, LOCKED_CHECKPOINT_DIGEST,
        "locked checkpoint drifted: got {digest:#018x}, pinned {LOCKED_CHECKPOINT_DIGEST:#018x}"
    );
}
