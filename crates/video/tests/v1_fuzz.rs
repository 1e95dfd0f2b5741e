//! Adversarial input for the BBV v1 container, the sweep `v2_fuzz.rs`
//! runs for v2: truncations at *every* byte boundary, bits 0 and 7 flipped
//! at *every* byte offset, and random garbage must all come back from
//! `io::decode` as a typed [`VideoError`] or a clean decode — never a
//! panic. The streaming reader, [`MmapSource`], must accept exactly the
//! containers `io::decode` accepts and yield the same frames.

use bb_imaging::{Frame, Rgb};
use bb_video::mmap::MmapSource;
use bb_video::{io, VideoError, VideoStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn toy_video(frames: usize, w: usize, h: usize) -> VideoStream {
    VideoStream::generate(frames, 30.0, |i| {
        Frame::from_fn(w, h, |x, y| {
            Rgb::new((i * 13 + x) as u8, (y * 5) as u8, (x * y) as u8 ^ 0xA5)
        })
    })
    .unwrap()
}

fn decode_without_panic(bytes: &[u8], what: &str) -> Result<VideoStream, VideoError> {
    catch_unwind(AssertUnwindSafe(|| io::decode(bytes)))
        .unwrap_or_else(|_| panic!("decoder panicked on {what}"))
}

/// Writes `bytes` to a per-process temp file and reads it back through
/// [`MmapSource`], frame by frame.
fn read_via_mmap(path: &PathBuf, bytes: &[u8]) -> Result<Vec<Frame>, VideoError> {
    std::fs::write(path, bytes).unwrap();
    let mut source = MmapSource::open(path)?;
    let mut frames = Vec::new();
    while let Some(frame) = source.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb_v1_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn every_truncation_fails_typed_never_panics() {
    let original = toy_video(5, 7, 4);
    let bytes = io::encode(&original).unwrap();
    for cut in 0..bytes.len() {
        let result = decode_without_panic(&bytes[..cut], &format!("cut {cut}"));
        // The header fixes the payload length, so every cut is short.
        assert!(
            matches!(result, Err(VideoError::Decode(_))),
            "cut {cut}: {result:?}"
        );
    }
    assert_eq!(io::decode(&bytes).unwrap(), original);
}

#[test]
fn every_bit_flip_is_typed_or_a_clean_decode() {
    let bytes = io::encode(&toy_video(4, 5, 3)).unwrap();
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= bit;
            match decode_without_panic(&corrupt, &format!("flip {at}/{bit:#x}")) {
                // Flips in pixel payload, the fps mantissa or a dimension
                // that shrinks it still decode, to different content.
                Ok(_) => {}
                Err(VideoError::Decode(_)) | Err(VideoError::BadFrameRate(_)) => {}
                Err(other) => panic!("flip {at}/{bit:#x}: unexpected error class {other}"),
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for len in [0usize, 1, 4, 23, 24, 25, 64, 513] {
        let mut garbage = vec![0u8; len];
        for b in &mut garbage {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8;
        }
        // Force the magic on half the cases so the header parser runs.
        if len >= 4 && len % 2 == 0 {
            garbage[..4].copy_from_slice(b"BBV1");
        }
        let result = decode_without_panic(&garbage, &format!("{len} garbage bytes"));
        assert!(result.is_err(), "{len} garbage bytes decoded");
    }
}

#[test]
fn mmap_source_accepts_exactly_the_truncations_decode_accepts() {
    let bytes = io::encode(&toy_video(3, 6, 5)).unwrap();
    let path = temp_path("cut.bbv");
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        let decoded = io::decode(prefix);
        let streamed = read_via_mmap(&path, prefix);
        match (&decoded, &streamed) {
            (Ok(video), Ok(frames)) => assert_eq!(video.frames(), &frames[..], "cut {cut}"),
            (Err(VideoError::Decode(_)), Err(VideoError::Decode(_))) => {}
            _ => panic!("cut {cut}: decode {decoded:?}, mmap {streamed:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mmap_source_agrees_with_decode_on_every_bit_flip() {
    let bytes = io::encode(&toy_video(3, 5, 3)).unwrap();
    let path = temp_path("flip.bbv");
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= bit;
            let decoded = io::decode(&corrupt);
            let streamed = read_via_mmap(&path, &corrupt);
            match (&decoded, &streamed) {
                (Ok(video), Ok(frames)) => {
                    assert_eq!(video.frames(), &frames[..], "flip {at}/{bit:#x}")
                }
                (Err(_), Err(_)) => {}
                _ => panic!("flip {at}/{bit:#x}: decode {decoded:?}, mmap {streamed:?}"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trailing_bytes_are_rejected_by_both_readers() {
    // The header fixes the payload length, so bytes after the last frame
    // are corruption, as they are in v2.
    let bytes = io::encode(&toy_video(3, 6, 5)).unwrap();
    let path = temp_path("trailing.bbv");
    for extra in [1usize, 7] {
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0xA5u8, extra));
        let decoded = io::decode(&padded);
        assert!(
            matches!(&decoded, Err(VideoError::Decode(msg)) if msg.contains("trailing")),
            "{extra} trailing bytes: decode gave {decoded:?}"
        );
        std::fs::write(&path, &padded).unwrap();
        let opened = MmapSource::open(&path);
        assert!(
            matches!(&opened, Err(VideoError::Decode(msg)) if msg.contains("trailing")),
            "{extra} trailing bytes: mmap gave {:?}",
            opened.map(|_| ())
        );
    }
    std::fs::remove_file(&path).ok();
}
