//! Temporal background modelling.
//!
//! In a composited call the virtual background dominates each pixel's time
//! series; the caller and leak patches are transient. A per-channel temporal
//! median therefore reconstructs (approximately) the pure composited
//! background. It is the fitted state of [`crate::PersonSegmenter`].
//!
//! The median is a bitwise select, one row at a time over the frames'
//! packed RGB24 bytes, one byte lane per pixel channel: every lane's median
//! is built from its top bit down by counting the samples below each
//! candidate. Each step is a straight loop over a row's lanes with no
//! per-pixel branch, so the compiler vectorizes it.

use bb_imaging::Frame;

/// Frames sampled per pixel for the median: a longer window is sampled
/// every `len / MAX_SAMPLES`-th frame, which keeps at most
/// `2 · MAX_SAMPLES − 1` samples and bounds memory on long calls.
pub const MAX_SAMPLES: usize = 64;

/// Per-pixel, per-channel temporal (upper) median over every
/// `max(1, len / MAX_SAMPLES)`-th frame of the window (see [`MAX_SAMPLES`]).
///
/// Each row is read as the sampled frames' `3w` packed RGB24 lanes. The
/// upper median of a lane's `n` samples is `sorted[n / 2]`, the
/// largest `v` with `#{samples < v} ≤ n / 2`. It is found greedily from bit
/// 7 down to bit 0: a lane keeps a bit when fewer than `n / 2 + 1` of its
/// samples lie below its prefix with that bit set.
///
/// # Panics
///
/// When `video` is empty or its frames differ in size.
pub fn median_model(video: &[Frame]) -> Frame {
    let (w, h) = video[0].dims();
    let step = (video.len() / MAX_SAMPLES).max(1);
    let sampled: Vec<&Frame> = video.iter().step_by(step).collect();
    assert!(
        sampled.iter().all(|f| f.dims() == (w, h)),
        "median_model: frames differ in size"
    );
    // A lane's count is at most `n ≤ 127`, so it fits a byte.
    let half = (sampled.len() / 2) as u8;
    let lanes = 3 * w;
    let mut below = vec![0u8; lanes];
    let mut out = Frame::new(w, h);
    for (y, median) in out.as_rgb24_mut().chunks_exact_mut(lanes).enumerate() {
        let span = y * lanes..(y + 1) * lanes;
        for bit in (0..8).map(|k| 0x80u8 >> k) {
            below.fill(0);
            for frame in &sampled {
                let sample = &frame.as_rgb24()[span.clone()];
                for ((c, &s), &m) in below.iter_mut().zip(sample).zip(&*median) {
                    *c += u8::from(s < (m | bit));
                }
            }
            for (m, &c) in median.iter_mut().zip(&below) {
                *m |= bit & u8::from(c <= half).wrapping_neg();
            }
        }
    }
    out
}

/// Sort-based upper median; the reference that [`median_model`] is tested
/// against.
#[cfg(test)]
fn median_u8(values: &mut [u8]) -> u8 {
    let mid = values.len() / 2;
    let (_, m, _) = values.select_nth_unstable(mid);
    *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::draw;
    use bb_imaging::Rgb;
    use bb_video::VideoStream;

    #[test]
    fn median_of_static_stream_is_the_frame() {
        let v = VideoStream::generate(9, 30.0, |_| {
            Frame::from_fn(8, 8, |x, y| Rgb::new((x * 30) as u8, (y * 30) as u8, 9))
        })
        .unwrap();
        assert_eq!(median_model(v.frames()), v.frame(0).clone());
    }

    #[test]
    fn transient_occluder_is_removed() {
        // A block passes over the background for 3 of 15 frames.
        let v = VideoStream::generate(15, 30.0, |i| {
            let mut f = Frame::filled(12, 12, Rgb::grey(100));
            if (5..8).contains(&i) {
                draw::fill_rect(&mut f, 3, 3, 5, 5, Rgb::new(255, 0, 0));
            }
            f
        })
        .unwrap();
        let model = median_model(v.frames());
        assert_eq!(
            model.get(5, 5),
            Rgb::grey(100),
            "occluder leaked into model"
        );
    }

    #[test]
    fn persistent_majority_wins() {
        // A pixel red in 10/15 frames, green otherwise → median red.
        let v = VideoStream::generate(15, 30.0, |i| {
            Frame::filled(
                2,
                2,
                if i % 3 == 0 {
                    Rgb::new(0, 255, 0)
                } else {
                    Rgb::new(255, 0, 0)
                },
            )
        })
        .unwrap();
        let model = median_model(v.frames());
        assert_eq!(model.get(0, 0), Rgb::new(255, 0, 0));
    }

    #[test]
    fn long_stream_is_subsampled_but_stable() {
        let v = VideoStream::generate(500, 30.0, |_| Frame::filled(4, 4, Rgb::grey(42))).unwrap();
        assert_eq!(median_model(v.frames()), Frame::filled(4, 4, Rgb::grey(42)));
    }

    #[test]
    fn median_u8_even_and_odd() {
        assert_eq!(median_u8(&mut [3u8, 1, 2]), 2);
        assert_eq!(median_u8(&mut [4u8, 1, 3, 2]), 3); // upper median
        assert_eq!(median_u8(&mut [7u8]), 7);
    }

    /// The per-lane sort reference: `median_u8` over the same evenly-spaced
    /// samples `median_model` takes.
    fn reference_model(video: &[Frame]) -> Frame {
        let (w, h) = video[0].dims();
        let step = (video.len() / MAX_SAMPLES).max(1);
        Frame::from_fn(w, h, |x, y| {
            let mut channels = [0u8; 3];
            for (c, out) in channels.iter_mut().enumerate() {
                let mut samples: Vec<u8> = video
                    .iter()
                    .step_by(step)
                    .map(|f| {
                        let p = f.get(x, y);
                        [p.r, p.g, p.b][c]
                    })
                    .collect();
                *out = median_u8(&mut samples);
            }
            Rgb::new(channels[0], channels[1], channels[2])
        })
    }

    #[test]
    fn median_model_matches_sort_based_reference() {
        // 19 pixels (57 lanes, not a multiple of 16) per row. Each pixel
        // draws from one value class by `x % 4`: a constant (0 on row 0,
        // 255 on row 1), narrow noise straddling 127/128, narrow noise
        // straddling 255/0, or the full range.
        const W: usize = 19;
        const H: usize = 2;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        };
        let mut frame = |_| {
            Frame::from_fn(W, H, |x, y| {
                let mut value = || match x % 4 {
                    0 => [0, 255][y],
                    1 => 126 + next() % 4,
                    2 => 254u8.wrapping_add(next() % 4),
                    _ => next(),
                };
                Rgb::new(value(), value(), value())
            })
        };
        // Every window of up to `MAX_SAMPLES` frames, then windows that are
        // sampled whole (65 and 127 frames, past 64 samples) or subsampled
        // (128 and 200 frames).
        for n in (1..=MAX_SAMPLES).chain([65, 127, 128, 200]) {
            let video: Vec<Frame> = (0..n).map(&mut frame).collect();
            assert_eq!(median_model(&video), reference_model(&video), "n={n}");
        }
    }
}
