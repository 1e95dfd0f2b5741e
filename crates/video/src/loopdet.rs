//! Loop-period detection for virtual-background videos.
//!
//! §V-B, *Using Unknown Virtual Video Frame*: "We utilize the fact that the
//! virtual video loops repeatedly, and use it to derive all the frames of the
//! virtual video using information from every periodic occurrence of each
//! frame." Before per-phase pixel statistics can run, the loop period must be
//! found; this module recovers it from the composited call video by
//! minimising the mean frame distance at candidate lags.
//!
//! The caller occludes part of every frame, so per-lag distances are noisy —
//! the detector scores each candidate period by the *average* distance over
//! all frame pairs separated by that lag and picks the smallest lag whose
//! score is close to the global minimum (favouring the fundamental period
//! over its multiples).

use crate::VideoError;
use bb_imaging::Frame;

/// Result of period detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Period {
    /// Detected loop length in frames.
    pub frames: usize,
    /// Mean per-pixel distance at that lag (lower = cleaner period).
    pub score: f64,
}

/// Detects the loop period of a run of frames, searching lags in
/// `[min_period, max_period]`.
///
/// Returns `None` when no lag scores below `noise_floor` (stream is not
/// periodic at any candidate lag). `noise_floor` is in mean-per-channel
/// intensity units; composited calls need a tolerant floor (≈ 8–15) because
/// the moving caller perturbs every frame pair.
///
/// # Errors
///
/// * [`VideoError::BadFrameRate`] when `min_period == 0` or
///   `min_period > max_period`.
/// * [`VideoError::EmptyStream`] when the stream is shorter than
///   `2 × max_period` (at least two full loops are needed to observe
///   periodicity).
pub fn detect_period(
    stream: &[Frame],
    min_period: usize,
    max_period: usize,
    noise_floor: f64,
) -> Result<Option<Period>, VideoError> {
    if min_period == 0 || min_period > max_period {
        return Err(VideoError::BadFrameRate(min_period as f64));
    }
    if stream.len() < 2 * max_period {
        return Err(VideoError::EmptyStream);
    }

    let mut best: Option<Period> = None;
    let mut scores = Vec::with_capacity(max_period - min_period + 1);
    for lag in min_period..=max_period {
        let mut total = 0.0f64;
        let mut pairs = 0usize;
        // Sample up to 64 pairs per lag to bound cost on long streams.
        let available = stream.len() - lag;
        let step = (available / 64).max(1);
        let mut i = 0usize;
        while i < available {
            total += stream[i].mean_abs_diff(&stream[i + lag])?;
            pairs += 1;
            i += step;
        }
        let score = total / pairs as f64;
        scores.push((lag, score));
        if best.is_none_or(|b| score < b.score) {
            best = Some(Period { frames: lag, score });
        }
    }

    let best = match best {
        Some(b) if b.score <= noise_floor => b,
        _ => return Ok(None),
    };

    // Prefer the smallest lag whose score is within 10% (or +0.5) of the
    // minimum: the fundamental period, not a multiple of it.
    let tolerance = (best.score * 1.10).max(best.score + 0.5);
    for &(lag, score) in &scores {
        if score <= tolerance {
            return Ok(Some(Period { frames: lag, score }));
        }
    }
    Ok(Some(best))
}

/// Groups the frame indices of a periodic stream by phase: bucket `p`
/// contains all indices `i` with `i % period == p`.
///
/// The unknown-virtual-video derivation runs per-pixel stability analysis
/// inside each bucket ("pixels stay the same across every occurrence of a
/// frame", §V-B).
pub fn phase_buckets(len: usize, period: usize) -> Vec<Vec<usize>> {
    assert!(period > 0, "period must be positive");
    let mut buckets = vec![Vec::new(); period];
    for i in 0..len {
        buckets[i % period].push(i);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VideoStream;
    use bb_imaging::Rgb;

    fn periodic_stream(period: usize, len: usize, noise: bool) -> VideoStream {
        VideoStream::generate(len, 30.0, |i| {
            let phase = i % period;
            let mut f = Frame::filled(16, 16, Rgb::grey((phase * 37 % 200) as u8));
            // A phase-dependent marker pattern.
            bb_imaging::draw::fill_rect(&mut f, phase as i64 * 2, 3, 2, 4, Rgb::new(200, 30, 60));
            if noise {
                // A small moving "caller" occluding part of the frame.
                bb_imaging::draw::fill_rect(
                    &mut f,
                    (i % 12) as i64,
                    10,
                    4,
                    6,
                    Rgb::new(10, 200, 10),
                );
            }
            f
        })
        .unwrap()
    }

    #[test]
    fn detects_clean_period() {
        let v = periodic_stream(7, 70, false);
        let p = detect_period(v.frames(), 2, 20, 5.0).unwrap().unwrap();
        assert_eq!(p.frames, 7);
        assert!(p.score < 1e-9);
    }

    #[test]
    fn detects_period_under_occlusion() {
        let v = periodic_stream(9, 120, true);
        let p = detect_period(v.frames(), 2, 30, 15.0).unwrap().unwrap();
        // The caller loop (12) and background loop (9) interact; the
        // fundamental joint period at lag 9 still scores lowest among
        // lags where the background aligns... allow 9 or its harmonic 18/27
        // only if the cheap score ties; primary expectation is 9 or 36 (lcm).
        assert!(p.frames == 9 || p.frames == 36, "got {}", p.frames);
    }

    #[test]
    fn prefers_fundamental_over_multiple() {
        let v = periodic_stream(5, 100, false);
        let p = detect_period(v.frames(), 2, 25, 5.0).unwrap().unwrap();
        assert_eq!(p.frames, 5, "must not return 10/15/20");
    }

    #[test]
    fn aperiodic_stream_returns_none() {
        let v = VideoStream::generate(80, 30.0, |i| {
            Frame::from_fn(8, 8, |x, y| {
                Rgb::grey(((x * 7 + y * 13 + i * i) % 251) as u8)
            })
        })
        .unwrap();
        let p = detect_period(v.frames(), 2, 20, 2.0).unwrap();
        assert!(p.is_none());
    }

    #[test]
    fn short_stream_is_error() {
        let v = periodic_stream(5, 20, false);
        assert!(matches!(
            detect_period(v.frames(), 2, 15, 5.0),
            Err(VideoError::EmptyStream)
        ));
    }

    #[test]
    fn bad_bounds_are_error() {
        let v = periodic_stream(5, 100, false);
        assert!(detect_period(v.frames(), 0, 10, 5.0).is_err());
        assert!(detect_period(v.frames(), 12, 10, 5.0).is_err());
    }

    #[test]
    fn phase_buckets_partition_indices() {
        let buckets = phase_buckets(10, 3);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], vec![0, 3, 6, 9]);
        assert_eq!(buckets[1], vec![1, 4, 7]);
        assert_eq!(buckets[2], vec![2, 5, 8]);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = phase_buckets(10, 0);
    }
}
