//! The BBWS v1 wire protocol: length-prefixed session events.
//!
//! A wire stream multiplexes any number of reconstruction sessions over one
//! byte pipe (a file, a socket buffer, an IPC channel). The framing is
//! deliberately minimal and mirrors the `.bbv` / BBSC house style:
//! little-endian integers, a magic + version header, and strict validation
//! — every malformed input fails with [`ServeError::Wire`], never a panic.
//!
//! ```text
//! stream  := "BBWS" version:u32 message*
//! message := len:u32 payload            (len = payload byte length)
//! payload := kind:u8 session:u64 body
//! body    := Open  (kind 0): width:u32 height:u32 fps:f64
//!          | Frame (kind 1): seq:u64 rgb:[u8]   (3 bytes/pixel, row-major)
//!          | Close (kind 2): (empty)
//! ```
//!
//! Frames carry an explicit per-session sequence number so a reordered or
//! replayed message is detected by the server ([`ServeError::Protocol`])
//! instead of silently corrupting the reconstruction. The decoder bounds
//! every length prefix by [`MAX_MESSAGE_LEN`] so a hostile 4 GiB prefix
//! cannot drive allocation.

use crate::ServeError;
use bb_imaging::Frame;
use bb_video::VideoStream;

/// Wire container magic ("Background buster Wire Stream").
pub const MAGIC: &[u8; 4] = b"BBWS";
/// Wire format version (bump on any layout change).
pub const VERSION: u32 = 1;
/// Upper bound on a single message payload: a 4K RGB frame plus headers
/// fits comfortably; anything larger is rejected before allocation.
pub const MAX_MESSAGE_LEN: u32 = 64 << 20;
/// Dimension sanity bound for `Open` messages (matches the `.bbv` decoder).
pub const MAX_DIM: u32 = 1 << 14;

/// One decoded wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Start of a session: fixes the track geometry.
    Open {
        /// Caller-chosen session id (unique per stream).
        session: u64,
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
        /// Nominal frame rate (informational).
        fps: f64,
    },
    /// One video frame for an open session.
    Frame {
        /// The session this frame belongs to.
        session: u64,
        /// Zero-based frame index within the session; the server rejects
        /// gaps and reorderings.
        seq: u64,
        /// Row-major RGB bytes (`3 × width × height`).
        rgb: Vec<u8>,
    },
    /// End of a session: the server finalizes the reconstruction.
    Close {
        /// The session to finalize.
        session: u64,
    },
}

/// Builds a BBWS byte stream incrementally.
#[derive(Debug, Default)]
pub struct WireEncoder {
    buf: Vec<u8>,
}

impl WireEncoder {
    /// Starts a stream: writes the magic + version header.
    pub fn new() -> WireEncoder {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        WireEncoder { buf }
    }

    fn message(&mut self, payload: &[u8]) {
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Appends an `Open` message.
    pub fn open(&mut self, session: u64, width: usize, height: usize, fps: f64) {
        let mut p = Vec::with_capacity(25);
        p.push(0u8);
        p.extend_from_slice(&session.to_le_bytes());
        p.extend_from_slice(&(width as u32).to_le_bytes());
        p.extend_from_slice(&(height as u32).to_le_bytes());
        p.extend_from_slice(&fps.to_le_bytes());
        self.message(&p);
    }

    /// Appends a `Frame` message.
    pub fn frame(&mut self, session: u64, seq: u64, frame: &Frame) {
        let rgb = frame.as_rgb24();
        let mut p = Vec::with_capacity(17 + rgb.len());
        p.push(1u8);
        p.extend_from_slice(&session.to_le_bytes());
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(rgb);
        self.message(&p);
    }

    /// Appends a `Close` message.
    pub fn close(&mut self, session: u64) {
        let mut p = Vec::with_capacity(9);
        p.push(2u8);
        p.extend_from_slice(&session.to_le_bytes());
        self.message(&p);
    }

    /// Consumes the encoder, returning the finished stream bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Encodes one whole call as a single-session wire stream
/// (open, every frame in order, close) — the shape `bbuster serve` and the
/// determinism tests feed through the server.
pub fn encode_call(session: u64, video: &VideoStream) -> Vec<u8> {
    let (w, h) = video.dims();
    let mut enc = WireEncoder::new();
    enc.open(session, w, h, video.fps());
    for (i, frame) in video.iter().enumerate() {
        enc.frame(session, i as u64, frame);
    }
    enc.close(session);
    enc.finish()
}

fn malformed(msg: impl Into<String>) -> ServeError {
    ServeError::Wire(msg.into())
}

/// Incremental decoder over a complete BBWS byte buffer.
///
/// The constructor validates the stream header; [`WireDecoder::next_message`]
/// yields messages until the buffer is exhausted. Any truncation, oversized
/// length prefix, unknown kind, or payload/length mismatch is a
/// [`ServeError::Wire`].
#[derive(Debug)]
pub struct WireDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireDecoder<'a> {
    /// Validates the header and positions the decoder at the first message.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] on a short buffer, wrong magic, or unsupported
    /// version.
    pub fn new(buf: &'a [u8]) -> Result<WireDecoder<'a>, ServeError> {
        if buf.len() < 8 {
            return Err(malformed(format!(
                "stream header needs 8 bytes, have {}",
                buf.len()
            )));
        }
        if &buf[..4] != MAGIC {
            return Err(malformed("bad magic (not a BBWS stream)"));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(malformed(format!(
                "unsupported wire version {version} (this build speaks {VERSION})"
            )));
        }
        Ok(WireDecoder { buf, pos: 8 })
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServeError> {
        if self.buf.len() - self.pos < n {
            return Err(malformed(format!(
                "truncated {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes the next message, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] on any framing violation, including trailing
    /// bytes that do not form a complete message.
    pub fn next_message(&mut self) -> Result<Option<Message>, ServeError> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.take(4, "length prefix")?.try_into().unwrap());
        if len > MAX_MESSAGE_LEN {
            return Err(malformed(format!(
                "length prefix {len} exceeds the {MAX_MESSAGE_LEN}-byte message bound"
            )));
        }
        let payload = self.take(len as usize, "message payload")?;
        if payload.is_empty() {
            return Err(malformed("empty message payload"));
        }
        let kind = payload[0];
        let body = &payload[1..];
        let session_of = |body: &[u8]| -> u64 { u64::from_le_bytes(body[..8].try_into().unwrap()) };
        match kind {
            0 => {
                if body.len() != 24 {
                    return Err(malformed(format!(
                        "Open payload must be 24 bytes after the kind, got {}",
                        body.len()
                    )));
                }
                let session = session_of(body);
                let width = u32::from_le_bytes(body[8..12].try_into().unwrap());
                let height = u32::from_le_bytes(body[12..16].try_into().unwrap());
                let fps = f64::from_le_bytes(body[16..24].try_into().unwrap());
                if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
                    return Err(malformed(format!(
                        "implausible session geometry {width}x{height}"
                    )));
                }
                if !fps.is_finite() || fps <= 0.0 {
                    return Err(malformed(format!("implausible fps {fps}")));
                }
                Ok(Some(Message::Open {
                    session,
                    width: width as usize,
                    height: height as usize,
                    fps,
                }))
            }
            1 => {
                if body.len() < 16 {
                    return Err(malformed(format!(
                        "Frame payload needs at least 16 bytes after the kind, got {}",
                        body.len()
                    )));
                }
                let session = session_of(body);
                let seq = u64::from_le_bytes(body[8..16].try_into().unwrap());
                let rgb = &body[16..];
                if rgb.is_empty() || rgb.len() % 3 != 0 {
                    return Err(malformed(format!(
                        "Frame pixel payload of {} bytes is not a whole number of RGB pixels",
                        rgb.len()
                    )));
                }
                Ok(Some(Message::Frame {
                    session,
                    seq,
                    rgb: rgb.to_vec(),
                }))
            }
            2 => {
                if body.len() != 8 {
                    return Err(malformed(format!(
                        "Close payload must be 8 bytes after the kind, got {}",
                        body.len()
                    )));
                }
                Ok(Some(Message::Close {
                    session: session_of(body),
                }))
            }
            other => Err(malformed(format!("unknown message kind {other}"))),
        }
    }
}

/// Rebuilds a [`Frame`] from a `Frame` message's pixel payload, validating
/// it against the session geometry fixed by `Open`.
///
/// # Errors
///
/// [`ServeError::Protocol`] when the payload does not hold exactly
/// `width × height` pixels.
pub fn frame_from_rgb(rgb: &[u8], width: usize, height: usize) -> Result<Frame, ServeError> {
    if rgb.len() != width * height * 3 {
        return Err(ServeError::Protocol(format!(
            "frame payload holds {} pixels but the session is {width}x{height}",
            rgb.len() / 3
        )));
    }
    Frame::from_rgb24(width, height, rgb)
        .map_err(|e| ServeError::Protocol(format!("bad frame payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn toy_video(frames: usize) -> VideoStream {
        VideoStream::generate(frames, 30.0, |i| {
            Frame::from_fn(6, 4, |x, y| Rgb::new(x as u8, y as u8, i as u8))
        })
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        let video = toy_video(3);
        let bytes = encode_call(9, &video);
        let mut dec = WireDecoder::new(&bytes).unwrap();
        assert_eq!(
            dec.next_message().unwrap(),
            Some(Message::Open {
                session: 9,
                width: 6,
                height: 4,
                fps: 30.0
            })
        );
        for i in 0..3u64 {
            match dec.next_message().unwrap() {
                Some(Message::Frame { session, seq, rgb }) => {
                    assert_eq!(session, 9);
                    assert_eq!(seq, i);
                    let frame = frame_from_rgb(&rgb, 6, 4).unwrap();
                    assert_eq!(&frame, video.frame(i as usize));
                }
                other => panic!("expected frame {i}, got {other:?}"),
            }
        }
        assert_eq!(
            dec.next_message().unwrap(),
            Some(Message::Close { session: 9 })
        );
        assert_eq!(dec.next_message().unwrap(), None);
    }

    #[test]
    fn interleaved_sessions_round_trip() {
        let video = toy_video(2);
        let mut enc = WireEncoder::new();
        enc.open(1, 6, 4, 30.0);
        enc.open(2, 6, 4, 30.0);
        enc.frame(1, 0, video.frame(0));
        enc.frame(2, 0, video.frame(1));
        enc.close(2);
        enc.close(1);
        let bytes = enc.finish();
        let mut dec = WireDecoder::new(&bytes).unwrap();
        let mut kinds = Vec::new();
        while let Some(m) = dec.next_message().unwrap() {
            kinds.push(match m {
                Message::Open { session, .. } => ('o', session),
                Message::Frame { session, .. } => ('f', session),
                Message::Close { session } => ('c', session),
            });
        }
        assert_eq!(
            kinds,
            [('o', 1), ('o', 2), ('f', 1), ('f', 2), ('c', 2), ('c', 1)]
        );
    }

    #[test]
    fn header_violations_are_typed_errors() {
        assert!(matches!(WireDecoder::new(b""), Err(ServeError::Wire(_))));
        assert!(matches!(
            WireDecoder::new(b"BBWS"),
            Err(ServeError::Wire(_))
        ));
        assert!(matches!(
            WireDecoder::new(b"NOPE\x01\x00\x00\x00"),
            Err(ServeError::Wire(_))
        ));
        // Future version.
        assert!(matches!(
            WireDecoder::new(b"BBWS\x02\x00\x00\x00"),
            Err(ServeError::Wire(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = WireEncoder::new().finish();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = WireDecoder::new(&bytes).unwrap();
        match dec.next_message() {
            Err(ServeError::Wire(msg)) => assert!(msg.contains("bound"), "message: {msg}"),
            other => panic!("expected a Wire error, got {other:?}"),
        }
    }
}
