//! Parallel ingest drivers over the memory-mapped video layer.
//!
//! `bb_video` keeps its striped v2 decoder single-threaded (the crate has
//! no worker pool); this module supplies the parallel driver: one
//! [`crate::workers`] job per stripe, results spliced back in frame order.
//! [`load_video`] is the batch fast path the CLI and the benchmark use — it
//! memory-maps the file, sniffs the container version and picks the
//! fastest decode for each.

use crate::workers::{self, CollectMode};
use crate::CoreError;
use bb_telemetry::Telemetry;
use bb_video::v2::StripedDecoder;
use bb_video::VideoStream;
use std::path::Path;

/// Decodes a BBV v2 container with one worker job per stripe. Output is
/// byte-identical to [`bb_video::v2::decode`] at any worker count — the
/// stripes are independent by construction and are spliced in order.
///
/// # Errors
///
/// [`CoreError::Video`] on container validation or record-decode
/// failures; [`CoreError::WorkerPanic`] if a decode job panics.
pub fn decode_v2_parallel(
    data: &[u8],
    workers_requested: usize,
    telemetry: &Telemetry,
) -> Result<VideoStream, CoreError> {
    let decoder = StripedDecoder::new(data).map_err(CoreError::Video)?;
    let stripes = decoder.stripes();
    let workers = workers::effective_workers(workers_requested, stripes);
    let started = std::time::Instant::now();
    let per_stripe = workers::run_stage(
        stripes,
        workers,
        CollectMode::WorkerLocal,
        telemetry,
        "ingest/v2_decode",
        |s| decoder.decode_stripe(s).map_err(CoreError::Video),
    )?;
    let elapsed = started.elapsed();
    let (w, h) = decoder.index().dims();
    let pixels = (w * h * decoder.index().frame_count()) as u64;
    telemetry.add("ingest/pixels", pixels);
    if elapsed.as_secs_f64() > 0.0 {
        telemetry.set_gauge(
            "ingest/mpix_per_sec",
            pixels as f64 / 1e6 / elapsed.as_secs_f64(),
        );
    }
    let mut frames = Vec::with_capacity(decoder.index().frame_count());
    for chunk in per_stripe {
        frames.extend(chunk);
    }
    VideoStream::from_frames(frames, decoder.index().fps()).map_err(CoreError::Video)
}

/// Loads a `.bbv` file of either container version through the fast path:
/// the file is memory-mapped once, v1 payloads decode straight out of the
/// mapping and v2 payloads go through [`decode_v2_parallel`].
///
/// # Errors
///
/// [`CoreError::Video`] on open/decode failures.
pub fn load_video(
    path: impl AsRef<Path>,
    workers_requested: usize,
    telemetry: &Telemetry,
) -> Result<VideoStream, CoreError> {
    let map = bb_video::mmap::MmapFile::open(path).map_err(CoreError::Video)?;
    let data = map.as_bytes();
    if data.starts_with(bb_video::v2::MAGIC) {
        decode_v2_parallel(data, workers_requested, telemetry)
    } else {
        bb_video::io::decode(data).map_err(CoreError::Video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{Frame, Rgb};

    fn sample(frames: usize) -> VideoStream {
        VideoStream::generate(frames, 30.0, |i| {
            Frame::from_fn(16, 12, |x, y| {
                Rgb::new((i * 7 + x) as u8, (y * 3) as u8, (x * y) as u8)
            })
        })
        .unwrap()
    }

    #[test]
    fn parallel_decode_is_identical_at_any_worker_count() {
        let v = sample(37);
        let bytes = bb_video::v2::encode(&v, 5).unwrap();
        let telemetry = Telemetry::disabled();
        for workers in [1, 2, 8] {
            let decoded = decode_v2_parallel(&bytes, workers, &telemetry).unwrap();
            assert_eq!(decoded, v, "workers={workers}");
        }
    }

    #[test]
    fn load_video_handles_both_container_versions() {
        let dir = std::env::temp_dir().join("bb_core_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v = sample(9);
        let telemetry = Telemetry::disabled();
        let p1 = dir.join("v1.bbv");
        bb_video::io::save(&v, &p1).unwrap();
        assert_eq!(load_video(&p1, 4, &telemetry).unwrap(), v);
        let p2 = dir.join("v2.bbv");
        bb_video::v2::save(&v, &p2, bb_video::v2::DEFAULT_STRIPE).unwrap();
        assert_eq!(load_video(&p2, 4, &telemetry).unwrap(), v);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_containers_surface_video_errors() {
        let telemetry = Telemetry::disabled();
        assert!(matches!(
            decode_v2_parallel(b"BBV2garbage", 2, &telemetry),
            Err(CoreError::Video(_))
        ));
        assert!(matches!(
            load_video("/nonexistent/nope.bbv", 2, &telemetry),
            Err(CoreError::Video(_))
        ));
    }
}
