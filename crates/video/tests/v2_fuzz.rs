//! Adversarial input for the BBV v2 decoder, mirroring the BBWS wire
//! sweep in `crates/serve/tests/wire_fuzz.rs`: truncations at *every* byte
//! boundary, a bit flip at *every* byte offset, and random garbage must
//! all come back as a typed [`VideoError`] — never a panic, never an
//! over-allocation — while round trips hold across partial-word widths,
//! single-frame streams and maximum-magnitude deltas.

use bb_imaging::{Frame, Rgb};
use bb_video::{v2, VideoError, VideoStream};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn toy_video(frames: usize, w: usize, h: usize) -> VideoStream {
    VideoStream::generate(frames, 30.0, |i| {
        Frame::from_fn(w, h, |x, y| {
            Rgb::new(
                (i * 13 + x) as u8,
                (y * 5) as u8,
                if x % 3 == 0 { 7 } else { 231 },
            )
        })
    })
    .unwrap()
}

#[test]
fn every_truncation_fails_typed_never_panics() {
    let bytes = v2::encode(&toy_video(5, 7, 4), 2).unwrap();
    for cut in 0..bytes.len() {
        let prefix = bytes[..cut].to_vec();
        let outcome = catch_unwind(AssertUnwindSafe(|| v2::decode(&prefix)));
        let result = outcome.unwrap_or_else(|_| panic!("decoder panicked at cut {cut}"));
        // No truncation of a non-empty container is valid: the length
        // table must cover the payload exactly.
        assert!(result.is_err(), "cut {cut} decoded successfully");
    }
    assert_eq!(v2::decode(&bytes).unwrap(), toy_video(5, 7, 4));
}

#[test]
fn every_byte_flip_is_typed_or_a_clean_decode() {
    let original = toy_video(4, 5, 3);
    let bytes = v2::encode(&original, 2).unwrap();
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = bytes.to_vec();
            corrupt[at] ^= bit;
            let outcome = catch_unwind(AssertUnwindSafe(|| v2::decode(&corrupt)));
            let result =
                outcome.unwrap_or_else(|_| panic!("decoder panicked at flip {at}/{bit:#x}"));
            match result {
                // Flips in pixel payload (or fps mantissa) can still decode
                // cleanly — they just decode to different content.
                Ok(_) => {}
                Err(VideoError::Decode(_)) | Err(VideoError::BadFrameRate(_)) => {}
                Err(other) => panic!("flip {at}/{bit:#x}: unexpected error class {other}"),
            }
        }
    }
}

#[test]
fn oversized_header_is_rejected_without_allocation() {
    // A header claiming maximal dimensions with no payload must fail on
    // the length table, not allocate count × frame_bytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(v2::MAGIC);
    bytes.extend_from_slice(&30.0f64.to_le_bytes());
    bytes.extend_from_slice(&(1u32 << 14).to_le_bytes());
    bytes.extend_from_slice(&(1u32 << 14).to_le_bytes());
    bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&16u32.to_le_bytes());
    assert!(matches!(v2::decode(&bytes), Err(VideoError::Decode(_))));
}

#[test]
fn random_garbage_never_panics() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for len in [0usize, 1, 4, 27, 28, 64, 513] {
        let mut garbage = vec![0u8; len];
        for b in &mut garbage {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8;
        }
        // Force the magic on half the cases so the header parser runs.
        if len >= 4 && len % 2 == 0 {
            garbage[..4].copy_from_slice(v2::MAGIC);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| v2::decode(&garbage)));
        assert!(outcome.expect("decoder panicked on garbage").is_err());
    }
}

#[test]
fn max_delta_frames_round_trip() {
    // Adjacent frames at opposite byte extremes: every delta byte is at
    // maximum magnitude and must wrap correctly.
    let v = VideoStream::generate(6, 30.0, |i| {
        let c = if i % 2 == 0 { 0u8 } else { 255 };
        Frame::filled(9, 5, Rgb::new(c, 255 - c, c))
    })
    .unwrap();
    let bytes = v2::encode(&v, 6).unwrap();
    assert_eq!(v2::decode(&bytes).unwrap(), v);
}

fn arb_stream() -> impl Strategy<Value = VideoStream> {
    // Widths straddling the 3-byte pixel / span boundaries; the
    // `flat` flag coarsens the palette so real runs appear.
    (1usize..5, 1usize..48, 1usize..14, any::<u64>(), 0u8..4).prop_map(
        |(frames, w, h, seed, flat)| {
            VideoStream::generate(frames, 30.0, |i| {
                Frame::from_fn(w, h, |x, y| {
                    let v = seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((i * 131 + x * 7 + y * 13) as u64);
                    let mask = if flat > 0 { 0xF0 } else { 0xFF };
                    Rgb::new(
                        (v & mask) as u8,
                        ((v >> 8) & mask) as u8,
                        ((v >> 16) & mask) as u8,
                    )
                })
            })
            .unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn v2_round_trip_random_streams(v in arb_stream(), stripe in 1usize..9) {
        let bytes = v2::encode(&v, stripe).unwrap();
        prop_assert_eq!(v2::decode(&bytes).unwrap(), v);
    }

    #[test]
    fn v1_encode_decode_symmetry(v in arb_stream()) {
        // Satellite: everything encode accepts, decode round-trips.
        let bytes = bb_video::io::encode(&v).unwrap();
        prop_assert_eq!(bb_video::io::decode(&bytes).unwrap(), v);
    }

    #[test]
    fn v2_truncations_always_error(v in arb_stream(), stripe in 1usize..9, cut in 0usize..96) {
        let bytes = v2::encode(&v, stripe).unwrap();
        let keep = bytes.len().saturating_sub(cut + 1);
        prop_assert!(v2::decode(&bytes[..keep]).is_err());
    }

    #[test]
    fn striped_decoder_matches_serial_skip(v in arb_stream(), stripe in 1usize..9, skip in 0usize..24) {
        // An MmapSource seek lands on the same frames a full decode sees.
        let dir = std::env::temp_dir().join(format!("bb_v2_fuzz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.bbv");
        v2::save(&v, &path, stripe).unwrap();
        let mut src = bb_video::mmap::MmapSource::open(&path).unwrap();
        let skipped = src.skip_frames(skip);
        prop_assert_eq!(skipped, skip.min(v.len()));
        let mut at = skipped;
        while let Some(frame) = src.next_frame().unwrap() {
            prop_assert_eq!(&frame, v.frame(at));
            at += 1;
        }
        prop_assert_eq!(at, v.len());
        std::fs::remove_file(&path).ok();
    }
}
