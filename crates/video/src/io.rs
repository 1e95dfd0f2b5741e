//! The `.bbv` raw video container.
//!
//! Experiment corpora are deterministic and regenerable, but caching them on
//! disk between runs saves synthesis time. The format is deliberately dumb:
//!
//! ```text
//! magic   "BBV1"            4 bytes
//! fps     f64 little-endian 8 bytes
//! width   u32 LE            4 bytes
//! height  u32 LE            4 bytes
//! count   u32 LE            4 bytes
//! frames  count × (width × height × 3 bytes RGB, row-major)
//! ```

use crate::{VideoError, VideoStream};
use bb_imaging::Frame;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"BBV1";
/// Upper bound on frame count / dimensions accepted by the decoder, to
/// reject corrupt headers before allocating.
pub(crate) const MAX_DIM: u32 = 1 << 14;
pub(crate) const MAX_FRAMES: u32 = 1 << 20;

/// Rejects streams the header cannot represent (dimensions or frame count
/// past the decoder's bounds), so every stream `encode` accepts decodes
/// back — shared with the v2 encoder.
pub(crate) fn validate_encodable(stream: &VideoStream) -> Result<(), VideoError> {
    let (w, h) = stream.dims();
    if w > MAX_DIM as usize || h > MAX_DIM as usize {
        return Err(VideoError::Decode(format!(
            "stream dimensions {w}x{h} exceed the container bound {MAX_DIM}"
        )));
    }
    if stream.len() > MAX_FRAMES as usize {
        return Err(VideoError::Decode(format!(
            "stream length {} exceeds the container bound {MAX_FRAMES}",
            stream.len()
        )));
    }
    Ok(())
}

/// Serializes a stream into an in-memory buffer.
///
/// # Errors
///
/// [`VideoError::Decode`] when the stream exceeds the container bounds
/// (`MAX_DIM` per dimension, `MAX_FRAMES` frames) — anything accepted here
/// round-trips through [`decode`]; nothing is silently truncated.
pub fn encode(stream: &VideoStream) -> Result<Vec<u8>, VideoError> {
    validate_encodable(stream)?;
    let (w, h) = stream.dims();
    let mut buf = Vec::with_capacity(HEADER_LEN + stream.len() * w * h * 3);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&stream.fps().to_le_bytes());
    for field in [w, h, stream.len()] {
        buf.extend_from_slice(&(field as u32).to_le_bytes());
    }
    for frame in stream {
        buf.extend_from_slice(frame.as_rgb24());
    }
    Ok(buf)
}

/// Length of the v1 header in bytes.
pub(crate) const HEADER_LEN: usize = 24;

/// Parses the v1 header at the start of `data` into `(fps, width, height,
/// count)`: the magic, then dimensions and frame count within `MAX_DIM` /
/// `MAX_FRAMES`. The frame rate is returned as stored; each caller decides
/// when to reject it. Shared by [`decode`] and [`crate::mmap::MmapSource`].
pub(crate) fn parse_header(data: &[u8]) -> Result<(f64, usize, usize, usize), VideoError> {
    if data.len() < HEADER_LEN {
        return Err(VideoError::Decode("header truncated".into()));
    }
    if &data[..4] != MAGIC {
        return Err(VideoError::Decode(format!("bad magic {:?}", &data[..4])));
    }
    let fps = f64::from_le_bytes(data[4..12].try_into().expect("an 8-byte slice"));
    let le_u32 =
        |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("a 4-byte slice"));
    let (w, h, count) = (le_u32(12), le_u32(16), le_u32(20));
    if w == 0 || h == 0 || w > MAX_DIM || h > MAX_DIM {
        return Err(VideoError::Decode(format!(
            "implausible dimensions {w}x{h}"
        )));
    }
    if count == 0 || count > MAX_FRAMES {
        return Err(VideoError::Decode(format!(
            "implausible frame count {count}"
        )));
    }
    Ok((fps, w as usize, h as usize, count as usize))
}

/// Checks that `data` holds exactly the header and the `count` frames of
/// `width × height` it declares: no truncation, no trailing bytes. Shared by
/// [`decode`] and [`crate::mmap::MmapSource`], after [`parse_header`].
pub(crate) fn check_len(
    data: &[u8],
    width: usize,
    height: usize,
    count: usize,
) -> Result<(), VideoError> {
    let need = HEADER_LEN + width * height * 3 * count;
    if data.len() < need {
        return Err(VideoError::Decode(format!(
            "payload truncated: header claims {need} bytes, container has {}",
            data.len()
        )));
    }
    if data.len() > need {
        return Err(VideoError::Decode(format!(
            "{} trailing bytes after final frame",
            data.len() - need
        )));
    }
    Ok(())
}

/// Deserializes a stream from a buffer produced by [`encode`].
///
/// # Errors
///
/// Returns [`VideoError::Decode`] on bad magic, implausible headers,
/// truncated frame data or bytes after the last frame.
pub fn decode(data: &[u8]) -> Result<VideoStream, VideoError> {
    let (fps, w, h, count) = parse_header(data)?;
    check_len(data, w, h, count)?;
    let frames = data[HEADER_LEN..]
        .chunks_exact(w * h * 3)
        .map(|raw| Frame::from_rgb24(w, h, raw))
        .collect::<Result<Vec<_>, _>>()?;
    VideoStream::from_frames(frames, fps)
}

/// Writes a stream to a `.bbv` file (v1 container). Use
/// [`crate::v2::save`] for the compressed v2 container.
///
/// # Errors
///
/// Propagates I/O failures and [`encode`] bound violations.
pub fn save(stream: &VideoStream, path: impl AsRef<Path>) -> Result<(), VideoError> {
    let bytes = encode(stream)?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn sample() -> VideoStream {
        VideoStream::generate(4, 24.0, |i| {
            Frame::from_fn(3, 2, |x, y| Rgb::new(i as u8, x as u8, y as u8))
        })
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let v = sample();
        let encoded = encode(&v).unwrap();
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn bad_magic_rejected() {
        let v = sample();
        let mut bytes = encode(&v).unwrap();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(VideoError::Decode(_))));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(decode(b"BBV1\x00").is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let v = sample();
        let bytes = encode(&v).unwrap();
        let cut = &bytes[..bytes.len() - 5];
        assert!(matches!(decode(cut), Err(VideoError::Decode(_))));
    }

    #[test]
    fn implausible_dimensions_rejected() {
        let header = |w: u32, h: u32, count: u32| {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&30.0f64.to_le_bytes());
            for field in [w, h, count] {
                buf.extend_from_slice(&field.to_le_bytes());
            }
            buf
        };
        assert!(decode(&header(0, 10, 1)).is_err()); // zero width
        assert!(decode(&header(10, 10, 0)).is_err()); // zero frames
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bb_video_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bbv");
        let v = sample();
        save(&v, &path).unwrap();
        let loaded = decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(loaded, v);
        std::fs::remove_file(&path).ok();
    }
}
