//! Temporal background modelling.
//!
//! In a composited call the virtual background dominates each pixel's time
//! series; the caller and leak patches are transient. A per-channel temporal
//! median therefore reconstructs (approximately) the pure composited
//! background, giving the person segmenter a reference to diff against.

use bb_imaging::{Frame, Rgb};

/// Maximum number of frames sampled per pixel for the median (evenly
/// spaced); bounds memory on long calls.
pub const MAX_SAMPLES: usize = 64;

/// Per-pixel, per-channel temporal median over (up to [`MAX_SAMPLES`]
/// evenly-spaced) frames of the window.
///
/// # Panics
///
/// When `video` is empty or its frames differ in size.
pub fn median_model(video: &[Frame]) -> Frame {
    let (w, h) = video[0].dims();
    let step = (video.len() / MAX_SAMPLES).max(1);
    let indices: Vec<usize> = (0..video.len()).step_by(step).collect();
    let n = indices.len();

    let mut out = Frame::new(w, h);
    let mut rs = vec![0u8; n];
    let mut gs = vec![0u8; n];
    let mut bs = vec![0u8; n];
    let mut hist = [0u16; 256];
    // Row-at-a-time: resolve the sampled frames' row slices once per row so
    // the per-pixel transpose is straight slice indexing, not a strided
    // `frame(i).get(x, y)` walk through every sampled frame per pixel.
    // Chunk width for the constant-span fast path below. 16 pixels keeps the
    // difference scan inside one or two cache lines per sampled row.
    const TILE: usize = 16;
    for y in 0..h {
        let rows: Vec<&[Rgb]> = indices.iter().map(|&i| video[i].row(y)).collect();
        let dst = out.row_mut(y);
        let mut x0 = 0usize;
        while x0 < w {
            let x1 = (x0 + TILE).min(w);
            // Virtual backgrounds are static over most of the frame. Scan
            // the chunk across all samples with a branchless XOR/OR
            // reduction first: when nothing ever differed from the first
            // sample, the chunk IS the median and the per-pixel transpose
            // is skipped entirely.
            let base = &rows[0][x0..x1];
            let mut acc = 0u8;
            for row in &rows[1..] {
                for (pa, pb) in row[x0..x1].iter().zip(base) {
                    acc |= (pa.r ^ pb.r) | (pa.g ^ pb.g) | (pa.b ^ pb.b);
                }
            }
            if acc == 0 {
                dst[x0..x1].copy_from_slice(base);
                x0 = x1;
                continue;
            }
            for (x, d) in dst[x0..x1].iter_mut().enumerate() {
                let x = x0 + x;
                let p0 = rows[0][x];
                let (mut lo, mut hi) = ([p0.r, p0.g, p0.b], [p0.r, p0.g, p0.b]);
                for (k, row) in rows.iter().enumerate() {
                    let p = row[x];
                    rs[k] = p.r;
                    gs[k] = p.g;
                    bs[k] = p.b;
                    lo = [lo[0].min(p.r), lo[1].min(p.g), lo[2].min(p.b)];
                    hi = [hi[0].max(p.r), hi[1].max(p.g), hi[2].max(p.b)];
                }
                // A pixel whose samples never vary needs no median either.
                *d = if lo == hi {
                    p0
                } else {
                    Rgb::new(
                        counting_median(&rs, lo[0], &mut hist),
                        counting_median(&gs, lo[1], &mut hist),
                        counting_median(&bs, lo[2], &mut hist),
                    )
                };
            }
            x0 = x1;
        }
    }
    out
}

/// Upper median of `values` via a counting scan starting at `lo` (the known
/// minimum). Equivalent to sorting and taking index `len / 2`, but touches
/// only the occupied histogram bins; the caller's scratch `hist` is returned
/// to all-zero before this returns.
fn counting_median(values: &[u8], lo: u8, hist: &mut [u16; 256]) -> u8 {
    for &v in values {
        hist[v as usize] += 1;
    }
    let mid = values.len() / 2;
    let mut cum = 0usize;
    let mut v = lo as usize;
    loop {
        cum += hist[v] as usize;
        if cum > mid {
            break;
        }
        v += 1;
    }
    for &val in values {
        hist[val as usize] = 0;
    }
    v as u8
}

/// Sort-based upper median; retained as the model reference that
/// [`counting_median`] is property-tested against.
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

    #[test]
    fn counting_median_matches_sort_based_reference() {
        let mut hist = [0u16; 256];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        };
        for n in 1..=64usize {
            let vals: Vec<u8> = (0..n).map(|_| next()).collect();
            let lo = *vals.iter().min().unwrap();
            let fast = counting_median(&vals, lo, &mut hist);
            let slow = median_u8(&mut vals.clone());
            assert_eq!(fast, slow, "n={n} vals={vals:?}");
            assert!(hist.iter().all(|&c| c == 0), "scratch not cleared at n={n}");
        }
    }
}
