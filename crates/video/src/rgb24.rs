//! Byte-level reinterpretation between packed RGB24 buffers and
//! [`Rgb`] slices.
//!
//! Every ingest path ends with the same conversion: a `width × height × 3`
//! byte buffer (from a mapping, a decode scratch buffer, or a wire chunk)
//! becoming `width × height` pixels. Doing it a channel at a time is the
//! single hottest loop in ingest; because `Rgb` is `#[repr(C)]` with three
//! `u8` fields — size 3, align 1, no padding, field order `r, g, b`
//! matching the container byte order — the conversion is really a memcpy.
//! This module is the one place that relies on that layout; the compile-time
//! asserts below fail the build if it ever changes.

use bb_imaging::Rgb;

// Layout proof: the casts below are sound only while `Rgb` is exactly
// three packed bytes.
const _: () = assert!(std::mem::size_of::<Rgb>() == 3);
const _: () = assert!(std::mem::align_of::<Rgb>() == 1);

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
/// write straight into a frame's pixel buffer.
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
    #[should_panic(expected = "multiple of 3")]
    fn to_pixels_rejects_ragged_input() {
        to_pixels(&[1, 2, 3, 4]);
    }
}
