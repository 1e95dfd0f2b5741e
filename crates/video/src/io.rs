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
use bb_imaging::{Frame, Rgb};
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
pub fn encode(stream: &VideoStream) -> Result<Bytes, VideoError> {
    validate_encodable(stream)?;
    let (w, h) = stream.dims();
    let mut buf = BytesMut::with_capacity(24 + stream.len() * w * h * 3);
    buf.put_slice(MAGIC);
    buf.put_f64_le(stream.fps());
    buf.put_u32_le(w as u32);
    buf.put_u32_le(h as u32);
    buf.put_u32_le(stream.len() as u32);
    for frame in stream {
        for p in frame.pixels() {
            buf.put_u8(p.r);
            buf.put_u8(p.g);
            buf.put_u8(p.b);
        }
    }
    Ok(buf.freeze())
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

/// Deserializes a stream from a buffer produced by [`encode`].
///
/// # Errors
///
/// Returns [`VideoError::Decode`] on bad magic, implausible headers or
/// truncated frame data.
pub fn decode(mut data: impl Buf) -> Result<VideoStream, VideoError> {
    let mut header = [0u8; HEADER_LEN];
    let got = data.remaining().min(HEADER_LEN);
    data.copy_to_slice(&mut header[..got]);
    let (fps, w, h, count) = parse_header(&header[..got])?;
    let frame_bytes = w * h * 3;
    if data.remaining() < frame_bytes * count {
        return Err(VideoError::Decode(format!(
            "payload truncated: need {} bytes, have {}",
            frame_bytes * count,
            data.remaining()
        )));
    }
    let mut frames = Vec::with_capacity(count);
    let mut raw = vec![0u8; frame_bytes];
    for _ in 0..count {
        data.copy_to_slice(&mut raw);
        let pixels: Vec<Rgb> = raw
            .chunks_exact(3)
            .map(|c| Rgb::new(c[0], c[1], c[2]))
            .collect();
        frames.push(Frame::from_pixels(w, h, pixels)?);
    }
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
        let decoded = decode(encoded).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn bad_magic_rejected() {
        let v = sample();
        let mut bytes = encode(&v).unwrap().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(bytes)),
            Err(VideoError::Decode(_))
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(decode(Bytes::from_static(b"BBV1\x00")).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let v = sample();
        let bytes = encode(&v).unwrap().to_vec();
        let cut = Bytes::from(bytes[..bytes.len() - 5].to_vec());
        assert!(matches!(decode(cut), Err(VideoError::Decode(_))));
    }

    #[test]
    fn implausible_dimensions_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_f64_le(30.0);
        buf.put_u32_le(0); // zero width
        buf.put_u32_le(10);
        buf.put_u32_le(1);
        assert!(decode(buf.freeze()).is_err());

        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_f64_le(30.0);
        buf.put_u32_le(10);
        buf.put_u32_le(10);
        buf.put_u32_le(0); // zero frames
        assert!(decode(buf.freeze()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bb_video_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bbv");
        let v = sample();
        save(&v, &path).unwrap();
        let loaded = decode(Bytes::from(std::fs::read(&path).unwrap())).unwrap();
        assert_eq!(loaded, v);
        std::fs::remove_file(&path).ok();
    }
}
