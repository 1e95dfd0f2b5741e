//! PPM serialization.
//!
//! The reconstruction gallery (Fig 6 of the paper) and debugging dumps are
//! written as binary PPM (`P6`) images: self-contained, viewable with any
//! image tool, and free of codec dependencies.

use crate::error::ImagingError;
use crate::frame::{pixel_count, Frame};
use std::io::{BufRead, Read, Write};
use std::path::Path;

/// Writes a frame as binary PPM (`P6`, maxval 255).
///
/// # Errors
///
/// Propagates I/O failures as [`ImagingError::Io`].
pub fn write_ppm<W: Write>(frame: &Frame, mut out: W) -> Result<(), ImagingError> {
    write!(out, "P6\n{} {}\n255\n", frame.width(), frame.height())?;
    out.write_all(frame.as_rgb24())?;
    Ok(())
}

/// Writes a frame as a PPM file at `path`.
///
/// # Errors
///
/// Propagates I/O failures as [`ImagingError::Io`].
pub fn save_ppm(frame: &Frame, path: impl AsRef<Path>) -> Result<(), ImagingError> {
    let file = std::fs::File::create(path)?;
    write_ppm(frame, std::io::BufWriter::new(file))
}

/// Reads a binary PPM (`P6`) image.
///
/// # Errors
///
/// Returns [`ImagingError::Decode`] on malformed headers or truncated pixel
/// data, [`ImagingError::Io`] on read failures.
pub fn read_ppm<R: BufRead>(mut input: R) -> Result<Frame, ImagingError> {
    let mut header = Vec::new();
    // Read the three header tokens (magic, dims, maxval), skipping comments.
    let mut tokens: Vec<String> = Vec::new();
    let mut byte = [0u8; 1];
    let mut current = String::new();
    let mut in_comment = false;
    while tokens.len() < 4 {
        let n = input.read(&mut byte)?;
        if n == 0 {
            return Err(ImagingError::Decode("unexpected end of PPM header".into()));
        }
        header.push(byte[0]);
        let c = byte[0] as char;
        if in_comment {
            if c == '\n' {
                in_comment = false;
            }
            continue;
        }
        if c == '#' {
            in_comment = true;
            continue;
        }
        if c.is_ascii_whitespace() {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        } else {
            current.push(c);
        }
    }
    if tokens[0] != "P6" {
        return Err(ImagingError::Decode(format!(
            "expected P6 magic, got {:?}",
            tokens[0]
        )));
    }
    let width: usize = tokens[1]
        .parse()
        .map_err(|_| ImagingError::Decode(format!("bad width {:?}", tokens[1])))?;
    let height: usize = tokens[2]
        .parse()
        .map_err(|_| ImagingError::Decode(format!("bad height {:?}", tokens[2])))?;
    let maxval: usize = tokens[3]
        .parse()
        .map_err(|_| ImagingError::Decode(format!("bad maxval {:?}", tokens[3])))?;
    if maxval != 255 {
        return Err(ImagingError::Decode(format!(
            "only maxval 255 supported, got {maxval}"
        )));
    }
    // Read before allocating the frame, so memory grows with the bytes that
    // arrive rather than with the size the header claims.
    let len = 3 * pixel_count(width, height)?;
    let mut rgb = Vec::new();
    input.take(len as u64).read_to_end(&mut rgb)?;
    if rgb.len() != len {
        return Err(ImagingError::Decode("truncated PPM pixel data".into()));
    }
    Frame::from_rgb24(width, height, &rgb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Rgb;

    #[test]
    fn ppm_round_trip() {
        let f = Frame::from_fn(5, 3, |x, y| Rgb::new(x as u8 * 40, y as u8 * 80, 7));
        let mut buf = Vec::new();
        write_ppm(&f, &mut buf).unwrap();
        let g = read_ppm(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn ppm_with_comment_parses() {
        let f = Frame::filled(2, 2, Rgb::new(1, 2, 3));
        let mut buf = Vec::new();
        write_ppm(&f, &mut buf).unwrap();
        // Inject a comment line after the magic.
        let text = b"P6\n# a comment\n2 2\n255\n".to_vec();
        let mut with_comment = text;
        with_comment.extend_from_slice(&buf[buf.len() - 12..]);
        let g = read_ppm(std::io::Cursor::new(with_comment)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn bad_magic_rejected() {
        let data = b"P3\n2 2\n255\n".to_vec();
        assert!(matches!(
            read_ppm(std::io::Cursor::new(data)),
            Err(ImagingError::Decode(_))
        ));
    }

    #[test]
    fn truncated_data_rejected() {
        let data = b"P6\n2 2\n255\n\x00\x01".to_vec();
        assert!(matches!(
            read_ppm(std::io::Cursor::new(data)),
            Err(ImagingError::Decode(_))
        ));
    }

    #[test]
    fn empty_stream_rejected() {
        assert!(read_ppm(std::io::Cursor::new(Vec::new())).is_err());
    }

    #[test]
    fn zero_dims_rejected() {
        let data = b"P6\n0 2\n255\n".to_vec();
        assert!(matches!(
            read_ppm(std::io::Cursor::new(data)),
            Err(ImagingError::EmptyImage)
        ));
    }

    #[test]
    fn overflowing_dims_rejected() {
        // The pixel count wraps to 0 in unchecked arithmetic.
        let data = format!("P6\n{} 2\n255\n", usize::MAX / 2 + 1).into_bytes();
        assert!(matches!(
            read_ppm(std::io::Cursor::new(data)),
            Err(ImagingError::InvalidParameter(_))
        ));
    }

    #[test]
    fn huge_header_without_pixels_is_a_decode_error() {
        // A 29-byte header claiming 10^18 pixels and no pixel data: an error,
        // not an allocation abort.
        let data = b"P6 1000000000 1000000000 255\n";
        assert!(matches!(
            read_ppm(std::io::Cursor::new(&data[..])),
            Err(ImagingError::Decode(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bb_imaging_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ppm");
        let f = Frame::filled(3, 3, Rgb::new(9, 8, 7));
        save_ppm(&f, &path).unwrap();
        let g = read_ppm(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        assert_eq!(f, g);
        std::fs::remove_file(&path).ok();
    }
}
