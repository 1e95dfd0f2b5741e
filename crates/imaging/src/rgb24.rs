//! Byte-level reinterpretation between packed RGB24 buffers and
//! [`Rgb`] slices.
//!
//! Every byte format in the workspace (BBV v1/v2 frames, BBSC checkpoint
//! frames, BBWS wire frames, PPM) stores a frame as `width × height × 3`
//! bytes in row-major `r, g, b` order, and the box kernels work on the same
//! interleaved byte lanes. Because `Rgb` is `#[repr(C)]` with three `u8`
//! fields — size 3, align 1, no padding, field order `r, g, b` matching the
//! byte order — converting between the two is really a memcpy, or no copy
//! at all. This module is the one place that relies on that layout; the
//! compile-time asserts below fail the build if it ever changes. Everything
//! else reaches it through [`Frame::as_rgb24`](crate::Frame::as_rgb24),
//! [`Frame::as_rgb24_mut`](crate::Frame::as_rgb24_mut) and
//! [`Frame::from_rgb24`](crate::Frame::from_rgb24), or, for a lone pixel
//! in a byte record, through the `[u8; 3]` conversions below.

// The crate denies `unsafe`; this module alone opts back in.
#![allow(unsafe_code)]

use crate::pixel::Rgb;

// Layout proof: the casts below are sound only while `Rgb` is exactly
// three packed bytes.
const _: () = assert!(std::mem::size_of::<Rgb>() == 3);
const _: () = assert!(std::mem::align_of::<Rgb>() == 1);

impl From<Rgb> for [u8; 3] {
    /// The pixel's three RGB24 bytes, `r, g, b`.
    fn from(p: Rgb) -> Self {
        [p.r, p.g, p.b]
    }
}

impl From<[u8; 3]> for Rgb {
    /// The pixel held by three RGB24 bytes, `r, g, b`.
    fn from([r, g, b]: [u8; 3]) -> Self {
        Rgb::new(r, g, b)
    }
}

/// Materializes a pixel vector from packed RGB24 bytes (one allocation,
/// one memcpy).
///
/// # Panics
///
/// When `bytes.len()` is not a multiple of 3.
pub(crate) fn to_pixels(bytes: &[u8]) -> Vec<Rgb> {
    assert_eq!(
        bytes.len() % 3,
        0,
        "RGB24 byte length must be a multiple of 3"
    );
    let n = bytes.len() / 3;
    let mut out: Vec<Rgb> = Vec::with_capacity(n);
    // SAFETY: `Rgb` is three packed `u8`s (checked at compile time above),
    // so the `n` elements hold exactly `bytes.len()` bytes and any byte
    // pattern is a valid `Rgb`; the copy fully initializes the elements
    // `set_len` then exposes, and a fresh allocation cannot overlap `bytes`.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    out
}

/// Views a pixel slice as its packed RGB24 bytes — lets an encoder read
/// straight out of a frame's pixel buffer.
pub(crate) fn bytes_of(pixels: &[Rgb]) -> &[u8] {
    // SAFETY: `Rgb` is three packed `u8`s with align 1 (checked at compile
    // time above): the region is exactly `len * 3` initialized bytes.
    unsafe { std::slice::from_raw_parts(pixels.as_ptr().cast::<u8>(), pixels.len() * 3) }
}

/// Views a pixel slice as its packed RGB24 bytes, mutably — lets a decoder
/// or an in-place kernel write straight into a frame's pixel buffer.
pub(crate) fn bytes_mut(pixels: &mut [Rgb]) -> &mut [u8] {
    // SAFETY: `Rgb` is three packed `u8`s with align 1 (checked at compile
    // time above): the region is exactly `len * 3` initialized bytes, and
    // every byte pattern written through the view is a valid `Rgb`.
    unsafe { std::slice::from_raw_parts_mut(pixels.as_mut_ptr().cast::<u8>(), pixels.len() * 3) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_paths_match_the_per_channel_conversion() {
        let bytes: Vec<u8> = (0u8..=251).collect(); // 252 bytes = 84 pixels
        let expected: Vec<Rgb> = bytes
            .chunks_exact(3)
            .map(|c| Rgb::new(c[0], c[1], c[2]))
            .collect();
        assert_eq!(to_pixels(&bytes), expected);
    }

    #[test]
    fn bytes_views_round_trip_pixels() {
        let mut pixels = vec![Rgb::new(1, 2, 3), Rgb::new(4, 5, 6)];
        assert_eq!(bytes_of(&pixels), &[1, 2, 3, 4, 5, 6]);
        let view = bytes_mut(&mut pixels);
        assert_eq!(view, &[1, 2, 3, 4, 5, 6]);
        view[3] = 40;
        assert_eq!(pixels[1], Rgb::new(40, 5, 6));
    }

    #[test]
    fn lone_pixel_bytes_match_the_slice_cast() {
        let p = Rgb::new(7, 8, 9);
        let bytes: [u8; 3] = p.into();
        assert_eq!(&bytes, bytes_of(&[p]));
        assert_eq!(Rgb::from(bytes), p);
    }

    #[test]
    #[should_panic(expected = "multiple of 3")]
    fn to_pixels_rejects_ragged_input() {
        to_pixels(&[1, 2, 3, 4]);
    }
}
