//! The compressed `.bbv` v2 container: raw keyframes + span-patched delta
//! frames on a striped keyframe schedule.
//!
//! Composited call frames are noise-like *within* a frame (camera grain,
//! matting edges), so intra-frame compression buys nothing — PackBits-style
//! RLE measurably *grows* keyframes. The redundancy that matters is
//! *between* frames: the static background behind the moving caller. The
//! container therefore stores keyframes raw and every other frame as a
//! sparse patch against its predecessor, which makes decode pure memcpy
//! traffic with no per-byte arithmetic. The layout:
//!
//! ```text
//! magic   "BBV2"            4 bytes
//! fps     f64 little-endian 8 bytes
//! width   u32 LE            4 bytes
//! height  u32 LE            4 bytes
//! count   u32 LE            4 bytes
//! stripe  u32 LE            4 bytes   keyframe interval (≥ 1)
//! lens    count × u32 LE              per-record byte length (incl. kind)
//! records count × (kind u8, payload)
//! ```
//!
//! Frame `i` is a **keyframe** (kind 0) iff `i % stripe == 0`: its payload
//! is the frame's `width × height × 3` RGB24 bytes, verbatim. Every other
//! frame is a **delta** (kind 1): a list of spans `(skip u16 LE,
//! copy u16 LE, copy bytes)` walking the frame front to back — `skip`
//! bytes are unchanged since frame `i−1`, `copy` bytes are the new frame's
//! literal values. Unchanged gaps of at most `GAP_ABSORB` bytes are
//! copied through rather than split (a span header costs 4 bytes); longer
//! skips and copies chain across spans; bytes after the final span are an
//! implicit skip.
//!
//! Keyframes cut the delta chains into independent *stripes*, and the
//! up-front length table gives every record's byte offset by prefix sum —
//! so stripes decode in parallel ([`StripedDecoder`], driven by
//! `bb_core`'s worker pool) and `skip_frames`/resume is an index seek plus
//! at most `stripe − 1` record applications instead of a full
//! decode-and-discard.

use crate::{VideoError, VideoStream};
use bb_imaging::{Frame, Rgb};
use std::path::Path;

/// Magic bytes opening every v2 container.
pub const MAGIC: &[u8; 4] = b"BBV2";
/// Default keyframe interval: long enough to compress well, short enough
/// that a resume seek re-applies at most 15 delta records.
pub const DEFAULT_STRIPE: usize = 16;
/// Header size in bytes (before the length table).
pub const HEADER_LEN: usize = 28;

const KIND_KEY: u8 = 0;
const KIND_DELTA: u8 = 1;
/// Longest skip or copy a single span field can express.
const MAX_SPAN: usize = u16::MAX as usize;
/// Unchanged gaps up to this long are cheaper to copy through than to
/// split the span (a span header costs 4 bytes).
const GAP_ABSORB: usize = 4;

/// The largest record the encoder can produce for a `frame_bytes`-byte
/// frame. A keyframe is exactly `1 + frame_bytes`. A delta copies at most
/// every byte, and each span header beyond the first is justified either
/// by a gap of more than [`GAP_ABSORB`] skipped bytes or by a
/// [`MAX_SPAN`]-sized chain link, which bounds the header count.
fn max_record_len(frame_bytes: usize) -> usize {
    let spans = frame_bytes / (GAP_ABSORB + 1) + frame_bytes / MAX_SPAN + 2;
    1 + frame_bytes + 4 * spans
}

/// Appends one logical span — `skip` unchanged bytes, then `copy` literal
/// bytes — chaining across multiple `(u16, u16)` headers when either side
/// exceeds [`MAX_SPAN`].
fn emit_span(mut skip: usize, mut copy: &[u8], out: &mut Vec<u8>) {
    while skip > MAX_SPAN {
        out.extend_from_slice(&(MAX_SPAN as u16).to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        skip -= MAX_SPAN;
    }
    loop {
        let n = copy.len().min(MAX_SPAN);
        out.extend_from_slice(&(skip as u16).to_le_bytes());
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.extend_from_slice(&copy[..n]);
        copy = &copy[n..];
        skip = 0;
        if copy.is_empty() {
            break;
        }
    }
}

/// Appends the span encoding of `cur` against `prev` (equal lengths):
/// changed regions become copy spans of `cur`'s literal bytes, unchanged
/// regions become skips, and the trailing unchanged region is implicit.
/// Greedy and deterministic.
fn encode_spans(cur: &[u8], prev: &[u8], out: &mut Vec<u8>) {
    debug_assert_eq!(cur.len(), prev.len());
    let mut pos = 0; // frame bytes already covered by emitted spans
    let mut i = 0;
    while i < cur.len() {
        // Find the next changed byte; none left means an implicit skip.
        while i < cur.len() && cur[i] == prev[i] {
            i += 1;
        }
        if i == cur.len() {
            break;
        }
        // Extend the changed region, absorbing gaps of ≤ GAP_ABSORB
        // unchanged bytes; a longer gap (or the frame end) closes it.
        let start = i;
        let mut end = i + 1;
        i += 1;
        while i < cur.len() {
            if cur[i] != prev[i] {
                i += 1;
                end = i;
                continue;
            }
            let gap = i;
            while i < cur.len() && cur[i] == prev[i] && i - gap <= GAP_ABSORB {
                i += 1;
            }
            if i - gap > GAP_ABSORB || i == cur.len() {
                break;
            }
        }
        emit_span(start - pos, &cur[start..end], out);
        pos = end;
    }
}

/// Applies a delta record's spans onto `out`, which must hold the previous
/// frame's bytes: `skip` leaves bytes in place, `copy` overwrites from the
/// record. Bytes beyond the final span are an implicit skip.
fn apply_spans(mut data: &[u8], out: &mut [u8]) -> Result<(), VideoError> {
    let mut pos = 0usize;
    while !data.is_empty() {
        if data.len() < 4 {
            return Err(VideoError::Decode("span header truncated".into()));
        }
        let skip = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        let copy = u16::from_le_bytes(data[2..4].try_into().unwrap()) as usize;
        if skip == 0 && copy == 0 {
            return Err(VideoError::Decode("span makes no progress".into()));
        }
        if data.len() < 4 + copy {
            return Err(VideoError::Decode("span literal truncated".into()));
        }
        if pos + skip + copy > out.len() {
            return Err(VideoError::Decode("span overflows frame".into()));
        }
        pos += skip;
        out[pos..pos + copy].copy_from_slice(&data[4..4 + copy]);
        pos += copy;
        data = &data[4 + copy..];
    }
    Ok(())
}

/// Serializes a stream into a v2 container with the given keyframe
/// interval ([`DEFAULT_STRIPE`] is the right answer unless you are tuning).
///
/// # Errors
///
/// [`VideoError::Decode`] when the stream exceeds the container bounds
/// (shared with the v1 encoder) or `stripe` is zero or does not fit the
/// header's u32 field.
pub fn encode(stream: &VideoStream, stripe: usize) -> Result<Vec<u8>, VideoError> {
    crate::io::validate_encodable(stream)?;
    if stripe == 0 || u32::try_from(stripe).is_err() {
        return Err(VideoError::Decode(format!(
            "stripe length must be in 1..={}, got {stripe}",
            u32::MAX
        )));
    }
    let (w, h) = stream.dims();
    let count = stream.len();
    let mut lens: Vec<u32> = Vec::with_capacity(count);
    let mut records: Vec<u8> = Vec::new();
    let mut prev: &[u8] = &[];
    for (i, frame) in stream.frames().iter().enumerate() {
        let cur = crate::rgb24::bytes_of(frame.pixels());
        let start = records.len();
        if i % stripe == 0 {
            records.push(KIND_KEY);
            records.extend_from_slice(cur);
        } else {
            records.push(KIND_DELTA);
            encode_spans(cur, prev, &mut records);
        }
        lens.push((records.len() - start) as u32);
        prev = cur;
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + 4 * count + records.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&stream.fps().to_le_bytes());
    for field in [w, h, count, stripe] {
        buf.extend_from_slice(&(field as u32).to_le_bytes());
    }
    for len in &lens {
        buf.extend_from_slice(&len.to_le_bytes());
    }
    buf.extend_from_slice(&records);
    Ok(buf)
}

/// The parsed, owned index of a v2 container: header fields plus the
/// per-record byte offsets recovered from the length table. Owning no
/// borrow of the payload, it can live next to the mapping/buffer it
/// indexes (see [`crate::mmap::MmapSource`]).
#[derive(Debug, Clone)]
pub struct V2Index {
    fps: f64,
    width: usize,
    height: usize,
    count: usize,
    stripe: usize,
    /// Byte offsets of each record into the whole container, with a final
    /// sentinel equal to the container length — `offsets[i]..offsets[i+1]`
    /// is record `i`.
    offsets: Vec<usize>,
}

impl V2Index {
    /// Parses and fully validates a container's header and length table:
    /// magic, bounds, per-record length sanity (a record can never exceed
    /// the worst-case span expansion) and exact coverage of the payload —
    /// no trailing bytes, no truncation.
    ///
    /// # Errors
    ///
    /// [`VideoError::Decode`] on any structural problem;
    /// [`VideoError::BadFrameRate`] on a non-finite or non-positive fps.
    pub fn parse(data: &[u8]) -> Result<V2Index, VideoError> {
        if data.len() < HEADER_LEN {
            return Err(VideoError::Decode("header truncated".into()));
        }
        if &data[..4] != MAGIC {
            return Err(VideoError::Decode(format!("bad magic {:?}", &data[..4])));
        }
        let fps = f64::from_le_bytes(data[4..12].try_into().unwrap());
        let w = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let h = u32::from_le_bytes(data[16..20].try_into().unwrap());
        let count = u32::from_le_bytes(data[20..24].try_into().unwrap());
        let stripe = u32::from_le_bytes(data[24..28].try_into().unwrap());
        if w == 0 || h == 0 || w > crate::io::MAX_DIM || h > crate::io::MAX_DIM {
            return Err(VideoError::Decode(format!(
                "implausible dimensions {w}x{h}"
            )));
        }
        if count == 0 || count > crate::io::MAX_FRAMES {
            return Err(VideoError::Decode(format!(
                "implausible frame count {count}"
            )));
        }
        if stripe == 0 {
            return Err(VideoError::Decode("stripe length must be non-zero".into()));
        }
        if !fps.is_finite() || fps <= 0.0 {
            return Err(VideoError::BadFrameRate(fps));
        }
        let count = count as usize;
        let width = w as usize;
        let height = h as usize;
        let frame_bytes = width * height * 3;
        let table_end = HEADER_LEN + 4 * count;
        if data.len() < table_end {
            return Err(VideoError::Decode("record index truncated".into()));
        }
        let cap = max_record_len(frame_bytes);
        let mut offsets = Vec::with_capacity(count + 1);
        let mut pos = table_end;
        for i in 0..count {
            let at = HEADER_LEN + 4 * i;
            let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
            if len == 0 || len > cap {
                return Err(VideoError::Decode(format!(
                    "record {i} has implausible length {len}"
                )));
            }
            offsets.push(pos);
            pos += len;
        }
        offsets.push(pos);
        if pos > data.len() {
            return Err(VideoError::Decode(format!(
                "payload truncated: records need {pos} bytes, container has {}",
                data.len()
            )));
        }
        if pos < data.len() {
            return Err(VideoError::Decode(format!(
                "{} trailing bytes after final record",
                data.len() - pos
            )));
        }
        Ok(V2Index {
            fps,
            width,
            height,
            count,
            stripe: stripe as usize,
            offsets,
        })
    }

    /// Frame rate from the header.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// `(width, height)` from the header.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total frames in the container.
    pub fn frame_count(&self) -> usize {
        self.count
    }

    /// Bytes per decoded frame (`width × height × 3`).
    pub fn frame_bytes(&self) -> usize {
        self.width * self.height * 3
    }

    /// Number of independently decodable stripes.
    pub fn stripes(&self) -> usize {
        self.count.div_ceil(self.stripe)
    }

    /// The frame range covered by stripe `s`.
    pub fn stripe_range(&self, s: usize) -> std::ops::Range<usize> {
        let start = s * self.stripe;
        start..(start + self.stripe).min(self.count)
    }

    /// Index of the keyframe opening the stripe that contains `frame`.
    pub fn keyframe_before(&self, frame: usize) -> usize {
        frame - frame % self.stripe
    }

    /// Record `i`'s bytes within `data` (the same buffer `parse` saw).
    fn record<'a>(&self, data: &'a [u8], i: usize) -> &'a [u8] {
        &data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Applies record `i` onto `frame` (the decoded bytes of frame `i−1`,
    /// or anything for a keyframe), leaving frame `i`'s bytes in place.
    ///
    /// # Errors
    ///
    /// [`VideoError::Decode`] on an unknown record kind, a kind that
    /// contradicts the keyframe schedule, or a malformed payload.
    pub fn apply_record(&self, data: &[u8], i: usize, frame: &mut [u8]) -> Result<(), VideoError> {
        let record = self.record(data, i);
        let kind = record[0];
        let expect_key = i.is_multiple_of(self.stripe);
        match kind {
            KIND_KEY if expect_key => {
                let payload = &record[1..];
                if payload.len() != frame.len() {
                    return Err(VideoError::Decode(format!(
                        "keyframe record holds {} bytes, frame needs {}",
                        payload.len(),
                        frame.len()
                    )));
                }
                frame.copy_from_slice(payload);
                Ok(())
            }
            KIND_DELTA if !expect_key => apply_spans(&record[1..], frame),
            KIND_KEY | KIND_DELTA => Err(VideoError::Decode(format!(
                "record {i} kind {kind} contradicts the stripe-{} schedule",
                self.stripe
            ))),
            other => Err(VideoError::Decode(format!(
                "record {i} has unknown kind {other}"
            ))),
        }
    }
}

/// A validated v2 container plus its index: stripes decode independently
/// (and therefore in parallel — `bb_core::ingest` drives this over the
/// worker pool). The struct is `Sync`; `decode_stripe` takes `&self`.
#[derive(Debug)]
pub struct StripedDecoder<'a> {
    data: &'a [u8],
    index: V2Index,
}

impl<'a> StripedDecoder<'a> {
    /// Parses and validates the container (see [`V2Index::parse`]).
    ///
    /// # Errors
    ///
    /// Propagates [`V2Index::parse`] failures.
    pub fn new(data: &'a [u8]) -> Result<StripedDecoder<'a>, VideoError> {
        Ok(StripedDecoder {
            data,
            index: V2Index::parse(data)?,
        })
    }

    /// The parsed header/index.
    pub fn index(&self) -> &V2Index {
        &self.index
    }

    /// Number of independently decodable stripes.
    pub fn stripes(&self) -> usize {
        self.index.stripes()
    }

    /// Decodes one stripe into owned frames, in frame order.
    ///
    /// # Errors
    ///
    /// [`VideoError::Decode`] on malformed records;
    /// [`VideoError::Imaging`] never in practice (dims are validated).
    pub fn decode_stripe(&self, s: usize) -> Result<Vec<Frame>, VideoError> {
        let range = self.index.stripe_range(s);
        let (w, h) = self.index.dims();
        let mut frames: Vec<Frame> = Vec::with_capacity(range.len());
        for i in range {
            // Records decode straight into the new frame's pixel buffer:
            // a delta patches the previous frame's bytes in place, and the
            // stripe-opening keyframe overwrites every byte, so the seed
            // value never survives.
            let mut pixels = match frames.last() {
                Some(prev) => prev.pixels().to_vec(),
                None => vec![Rgb::BLACK; w * h],
            };
            self.index
                .apply_record(self.data, i, crate::rgb24::bytes_mut(&mut pixels))?;
            frames.push(Frame::from_pixels(w, h, pixels)?);
        }
        Ok(frames)
    }
}

/// Deserializes a v2 container serially (stripe by stripe). `bb_core`'s
/// ingest module offers the parallel equivalent.
///
/// # Errors
///
/// Propagates validation and record-decode failures.
pub fn decode(data: &[u8]) -> Result<VideoStream, VideoError> {
    let decoder = StripedDecoder::new(data)?;
    let mut frames = Vec::with_capacity(decoder.index().frame_count());
    for s in 0..decoder.stripes() {
        frames.extend(decoder.decode_stripe(s)?);
    }
    VideoStream::from_frames(frames, decoder.index().fps())
}

/// Writes a stream to a v2 `.bbv` file.
///
/// # Errors
///
/// Propagates I/O failures and [`encode`] bound violations.
pub fn save(stream: &VideoStream, path: impl AsRef<Path>, stripe: usize) -> Result<(), VideoError> {
    let bytes = encode(stream, stripe)?;
    std::fs::write(path, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(frames: usize, w: usize, h: usize) -> VideoStream {
        VideoStream::generate(frames, 24.0, |i| {
            Frame::from_fn(w, h, |x, y| {
                Rgb::new(
                    (i * 31 + x) as u8,
                    (x * 7 + y) as u8,
                    if x < w / 2 { 200 } else { (y + i) as u8 },
                )
            })
        })
        .unwrap()
    }

    fn span_round_trip(cur: &[u8], prev: &[u8]) {
        let mut enc = Vec::new();
        encode_spans(cur, prev, &mut enc);
        assert!(enc.len() < max_record_len(cur.len()), "cap violated");
        let mut out = prev.to_vec();
        apply_spans(&enc, &mut out).unwrap();
        assert_eq!(out, cur);
    }

    #[test]
    fn spans_handle_edges_gaps_and_chains() {
        span_round_trip(&[], &[]);
        span_round_trip(&[7], &[7]); // identical → empty record
        span_round_trip(&[7], &[9]);
        span_round_trip(&[1, 2, 3, 4], &[1, 2, 3, 9]); // change at the end
        span_round_trip(&[9, 2, 3, 4], &[1, 2, 3, 4]); // change at the start

        // A gap of GAP_ABSORB is copied through; one byte longer splits.
        let prev = vec![0u8; 32];
        for (gap, expect) in [
            (GAP_ABSORB, vec![5, 0, 6, 0, 1, 0, 0, 0, 0, 1]),
            (GAP_ABSORB + 1, vec![5, 0, 1, 0, 1, 5, 0, 1, 0, 1]),
        ] {
            let mut cur = prev.clone();
            cur[5] = 1;
            cur[5 + gap + 1] = 1;
            let mut enc = Vec::new();
            encode_spans(&cur, &prev, &mut enc);
            assert_eq!(enc, expect, "gap {gap}");
            let mut out = prev.clone();
            apply_spans(&enc, &mut out).unwrap();
            assert_eq!(out, cur);
        }
        // Skips and copies longer than a u16 chain across spans.
        let long = vec![0u8; MAX_SPAN + 300];
        let mut tail_change = long.clone();
        *tail_change.last_mut().unwrap() = 5;
        span_round_trip(&tail_change, &long);
        let flipped: Vec<u8> = long.iter().map(|b| b ^ 0xFF).collect();
        span_round_trip(&flipped, &long);
    }

    #[test]
    fn spans_patch_over_the_previous_frame() {
        let prev = [10u8, 250, 3, 3, 3, 3];
        let cur = [11u8, 4, 3, 3, 3, 3];
        let mut enc = Vec::new();
        encode_spans(&cur, &prev, &mut enc);
        // One span: skip 0, copy the two changed bytes; the tail is implicit.
        assert_eq!(enc, [0, 0, 2, 0, 11, 4]);
        let mut out = prev;
        apply_spans(&enc, &mut out).unwrap();
        assert_eq!(out, cur);
    }

    #[test]
    fn malformed_spans_are_typed_errors() {
        let mut out = [0u8; 8];
        // Truncated header, truncated literal, zero-progress span,
        // overflow past the frame end.
        assert!(apply_spans(&[1, 0, 1], &mut out).is_err());
        assert!(apply_spans(&[0, 0, 3, 0, 1, 2], &mut out).is_err());
        assert!(apply_spans(&[0, 0, 0, 0], &mut out).is_err());
        assert!(apply_spans(&[7, 0, 2, 0, 1, 2], &mut out).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        for (frames, w, h, stripe) in [(1, 3, 2, 16), (7, 5, 4, 3), (16, 9, 7, 16), (33, 4, 4, 8)] {
            let v = sample(frames, w, h);
            let bytes = encode(&v, stripe).unwrap();
            let decoded = decode(&bytes).unwrap();
            assert_eq!(decoded, v, "frames={frames} w={w} h={h} stripe={stripe}");
        }
        // The stripe is a u32 header field: the largest one it holds round
        // trips, and anything outside 1..=u32::MAX is refused, not truncated.
        let v = sample(3, 4, 3);
        assert_eq!(decode(&encode(&v, u32::MAX as usize).unwrap()).unwrap(), v);
        for stripe in [0, u32::MAX as usize + 1, usize::MAX] {
            assert!(
                matches!(encode(&v, stripe), Err(VideoError::Decode(_))),
                "stripe {stripe}"
            );
        }
    }

    #[test]
    fn v2_compresses_flat_synthetic_content() {
        // Shaped like the synthetic corpora: a flat background with a
        // small moving block, so deltas are mostly zero.
        let v = VideoStream::generate(24, 30.0, |i| {
            Frame::from_fn(32, 24, |x, y| {
                if x >= i && x < i + 4 && y < 6 {
                    Rgb::new(200, 10, 10)
                } else {
                    Rgb::new(40, 90, 140)
                }
            })
        })
        .unwrap();
        let v1 = crate::io::encode(&v).unwrap();
        let v2 = encode(&v, DEFAULT_STRIPE).unwrap();
        assert!(
            v2.len() < v1.len() / 2,
            "v2 ({}) should halve v1 ({}) on synthetic content",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn stripes_decode_independently_and_in_any_order() {
        let v = sample(20, 6, 5);
        let bytes = encode(&v, 6).unwrap();
        let decoder = StripedDecoder::new(&bytes).unwrap();
        assert_eq!(decoder.stripes(), 4);
        for s in (0..4).rev() {
            let frames = decoder.decode_stripe(s).unwrap();
            let range = decoder.index().stripe_range(s);
            assert_eq!(frames.len(), range.len());
            for (f, i) in frames.iter().zip(range) {
                assert_eq!(f, v.frame(i), "frame {i}");
            }
        }
    }

    #[test]
    fn schedule_violations_and_bad_kinds_rejected() {
        let v = sample(8, 3, 3);
        let bytes = encode(&v, 4).unwrap();
        let index = V2Index::parse(&bytes).unwrap();
        // Flip the keyframe's kind byte to delta: schedule violation.
        let mut flipped = bytes.clone();
        let key_at = index.offsets[0];
        flipped[key_at] = KIND_DELTA;
        assert!(matches!(decode(&flipped), Err(VideoError::Decode(_))));
        // Unknown kind.
        flipped[key_at] = 9;
        assert!(matches!(decode(&flipped), Err(VideoError::Decode(_))));
    }

    #[test]
    fn structural_corruption_rejected() {
        let v = sample(5, 4, 3);
        let bytes = encode(&v, 2).unwrap();
        assert!(decode(&bytes[..HEADER_LEN - 1]).is_err());
        assert!(decode(&bytes[..HEADER_LEN + 3]).is_err());
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        let mut zero_stripe = bytes.clone();
        zero_stripe[24..28].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode(&zero_stripe).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bb_video_v2_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bbv");
        let v = sample(9, 5, 4);
        save(&v, &path, DEFAULT_STRIPE).unwrap();
        let loaded = decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(loaded, v);
        std::fs::remove_file(&path).ok();
    }
}
