//! Property-based tests for the video substrate.

use bb_imaging::{Frame, Rgb};
use bb_video::{delta, io, loopdet, VideoStream};
use proptest::prelude::*;

fn arb_stream() -> impl Strategy<Value = VideoStream> {
    (2usize..12, 2usize..8, 2usize..8, any::<u64>()).prop_map(|(len, w, h, seed)| {
        VideoStream::generate(len, 30.0, |i| {
            Frame::from_fn(w, h, |x, y| {
                let v = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add((i * 31 + x * 7 + y * 13) as u64);
                Rgb::new(
                    (v % 251) as u8,
                    ((v >> 8) % 251) as u8,
                    ((v >> 16) % 251) as u8,
                )
            })
        })
        .expect("valid stream")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn container_round_trip(v in arb_stream()) {
        let encoded = io::encode(&v).unwrap();
        prop_assert_eq!(io::decode(&encoded).unwrap(), v);
    }

    #[test]
    fn truncated_container_always_errors(v in arb_stream(), cut in 1usize..24) {
        let bytes = io::encode(&v).unwrap();
        let keep = bytes.len().saturating_sub(cut);
        if keep < bytes.len() {
            prop_assert!(io::decode(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn displacement_is_a_percentage(v in arb_stream(), tau in 0u8..50) {
        let d = delta::total_displacement(&v, tau).unwrap();
        prop_assert!((0.0..=100.0).contains(&d));
        // Higher tolerance never increases displacement.
        let d2 = delta::total_displacement(&v, tau.saturating_add(30)).unwrap();
        prop_assert!(d2 <= d + 1e-9);
    }

    #[test]
    fn displacement_grows_with_event_length(v in arb_stream()) {
        if v.len() >= 4 {
            let short = delta::displacement(&v, delta::Event::new(0, v.len() / 2), 0).unwrap();
            let long = delta::displacement(&v, delta::Event::new(0, v.len()), 0).unwrap();
            prop_assert!(long >= short - 1e-9, "union must be monotone in frames");
        }
    }

    #[test]
    fn action_speed_matches_definition(v in arb_stream(), a in 0usize..6, b in 1usize..6) {
        let start = a.min(v.len() - 1);
        let end = (start + b).min(v.len());
        if end > start {
            let s = delta::action_speed(&v, delta::Event::new(start, end)).unwrap();
            prop_assert!((s - (end - start) as f64 / 30.0).abs() < 1e-12);
        }
    }

    #[test]
    fn slice_then_concat_round_trips(v in arb_stream()) {
        if v.len() >= 2 {
            let mid = v.len() / 2;
            let a = v.slice(0, mid).unwrap();
            let b = v.slice(mid, v.len()).unwrap();
            prop_assert_eq!(a.concat(&b).unwrap(), v);
        }
    }

    #[test]
    fn periodic_streams_are_detected(period in 2usize..6, reps in 4usize..8) {
        let v = VideoStream::generate(period * reps, 30.0, |i| {
            Frame::filled(8, 8, Rgb::grey(((i % period) * 37 % 255) as u8))
        })
        .unwrap();
        let found = loopdet::detect_period(v.frames(), 2, period * 2, 4.0).unwrap();
        prop_assert!(found.is_some());
        // Detected period divides into the true one (fundamental or the
        // same); it must reproduce the stream.
        let p = found.unwrap().frames;
        prop_assert_eq!(p % period, 0, "{} not a multiple of {}", p, period);
    }

    #[test]
    fn phase_buckets_partition(len in 1usize..40, period in 1usize..10) {
        let buckets = loopdet::phase_buckets(len, period);
        prop_assert_eq!(buckets.len(), period);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        prop_assert_eq!(total, len);
        for (phase, bucket) in buckets.iter().enumerate() {
            for &i in bucket {
                prop_assert_eq!(i % period, phase);
            }
        }
    }
}
