//! Frame differencing: the paper's displacement and action-speed metrics.
//!
//! §VIII-A defines:
//!
//! * **Action Speed** — "the number of frames from the start of the action
//!   event until the end of the event, divided by the frame rate".
//! * **Displacement** — "the percentage of unique pixel changes across all
//!   the frames from the start of the action event until the end of the
//!   action event".
//!
//! "Unique pixel changes" counts each pixel *location* at most once, no
//! matter how many frames it changed in — implemented by accumulating a
//! change mask over the event window.

use crate::{VideoError, VideoStream};
use bb_imaging::{Frame, Mask};

/// Per-pixel change mask between two frames: foreground where the pixels
/// differ by more than `tau` on any channel.
///
/// # Errors
///
/// Returns a dimension-mismatch error when the frames disagree on size.
pub fn change_mask(a: &Frame, b: &Frame, tau: u8) -> Result<Mask, VideoError> {
    Ok(a.match_mask(b, tau)?.complement())
}

/// An action event: a half-open frame range `[start, end)` within a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// First frame of the event.
    pub start: usize,
    /// One past the last frame of the event.
    pub end: usize,
}

impl Event {
    /// Creates an event covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "event range must be non-empty");
        Event { start, end }
    }

    /// Number of frames in the event.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the event is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Action speed in seconds (§VIII-A): event frames divided by frame rate.
///
/// # Errors
///
/// Returns [`VideoError::EmptyStream`] when the event exceeds the stream.
pub fn action_speed(stream: &VideoStream, event: Event) -> Result<f64, VideoError> {
    if event.end > stream.len() {
        return Err(VideoError::EmptyStream);
    }
    Ok(event.len() as f64 / stream.fps())
}

/// Displacement (§VIII-A): the percentage (0–100) of pixel locations that
/// changed at least once across the event's consecutive frame pairs.
///
/// `tau` is the per-channel change threshold (0 = any change counts); the
/// paper's videos contain compression noise, ours contain sensor noise from
/// the synthetic camera, so a small positive `tau` is typical.
///
/// # Errors
///
/// Returns [`VideoError::EmptyStream`] when the event exceeds the stream.
pub fn displacement(stream: &VideoStream, event: Event, tau: u8) -> Result<f64, VideoError> {
    if event.end > stream.len() {
        return Err(VideoError::EmptyStream);
    }
    let (w, h) = stream.dims();
    let mut changed = Mask::new(w, h);
    for i in event.start..event.end.saturating_sub(1) {
        let m = change_mask(stream.frame(i), stream.frame(i + 1), tau)?;
        changed.union_in_place(&m)?;
    }
    Ok(changed.coverage() * 100.0)
}

/// Displacement over the entire stream.
///
/// # Errors
///
/// Propagates [`displacement`] errors.
pub fn total_displacement(stream: &VideoStream, tau: u8) -> Result<f64, VideoError> {
    displacement(stream, Event::new(0, stream.len()), tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    fn moving_dot_stream(len: usize) -> VideoStream {
        VideoStream::generate(len, 30.0, |i| {
            let mut f = Frame::new(10, 10);
            f.put(i % 10, 5, Rgb::WHITE);
            f
        })
        .unwrap()
    }

    #[test]
    fn change_mask_flags_differences() {
        let a = Frame::filled(3, 3, Rgb::grey(10));
        let mut b = a.clone();
        b.put(1, 1, Rgb::grey(50));
        let m = change_mask(&a, &b, 0).unwrap();
        assert_eq!(m.count_set(), 1);
        assert!(m.get(1, 1));
        // With a large tolerance nothing changes.
        assert!(change_mask(&a, &b, 40).unwrap().is_empty());
    }

    #[test]
    fn action_speed_matches_paper_definition() {
        let v = moving_dot_stream(60);
        // 30-frame event at 30 fps = 1 second.
        let s = action_speed(&v, Event::new(10, 40)).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(action_speed(&v, Event::new(0, 61)).is_err());
    }

    #[test]
    fn displacement_counts_unique_locations() {
        // The dot visits 5 distinct positions over frames 0..5; each move
        // changes 2 pixels (old position clears, new position sets), touching
        // positions 0..=4 → 5 unique pixels out of 100 = 5%.
        let v = moving_dot_stream(5);
        let d = displacement(&v, Event::new(0, 5), 0).unwrap();
        assert!((d - 5.0).abs() < 1e-9, "displacement {d}");
    }

    #[test]
    fn displacement_of_static_stream_is_zero() {
        let v = VideoStream::generate(10, 30.0, |_| Frame::filled(4, 4, Rgb::grey(9))).unwrap();
        assert_eq!(total_displacement(&v, 0).unwrap(), 0.0);
    }

    #[test]
    fn displacement_single_frame_event_is_zero() {
        let v = moving_dot_stream(5);
        assert_eq!(displacement(&v, Event::new(2, 3), 0).unwrap(), 0.0);
    }

    #[test]
    fn slower_actions_displace_more() {
        // A slow sweep (dot advances every frame for 20 frames) covers more
        // unique pixels than a fast one (4 frames) — the §VIII-C observation
        // that slower action speeds produce greater displacements.
        let slow = moving_dot_stream(20);
        let fast = moving_dot_stream(4);
        let ds = total_displacement(&slow, 0).unwrap();
        let df = total_displacement(&fast, 0).unwrap();
        assert!(ds > df, "slow {ds} <= fast {df}");
    }

    #[test]
    #[should_panic(expected = "event range must be non-empty")]
    fn empty_event_panics() {
        let _ = Event::new(3, 3);
    }
}
