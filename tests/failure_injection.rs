//! Failure injection: malformed inputs must error, never panic.

use bb_callsim::{BackgroundId, CallSim, Mitigation, ProfilePreset, SoftwareProfile};
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::CoreError;
use bb_imaging::{Frame, Rgb};
use bb_synth::{GroundTruth, Lighting, Room, Scenario};
use bb_telemetry::Telemetry;
use bb_video::{VideoError, VideoStream};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn corrupted_video_container_is_rejected() {
    let good = VideoStream::generate(3, 30.0, |_| Frame::new(4, 4)).unwrap();
    let mut bytes = bb_video::io::encode(&good).unwrap();
    // Flip the magic, truncate, and scramble the header.
    bytes[0] ^= 0xFF;
    assert!(bb_video::io::decode(&bytes).is_err());
    let truncated = &bb_video::io::encode(&good).unwrap()[..10];
    assert!(bb_video::io::decode(truncated).is_err());
    assert!(bb_video::io::decode(&[]).is_err());
}

#[test]
fn zero_length_video_is_rejected_everywhere() {
    assert!(matches!(
        VideoStream::from_frames(vec![], 30.0),
        Err(VideoError::EmptyStream)
    ));
    let room = Room::sample(1, 32, 24, 2, &mut StdRng::seed_from_u64(1));
    let mut sc = Scenario::baseline(room);
    sc.frames = 0;
    assert!(sc.render().is_err());
}

#[test]
fn mismatched_ground_truth_is_rejected_by_session() {
    let room = Room::sample(2, 32, 24, 2, &mut StdRng::seed_from_u64(2));
    let mut gt = Scenario {
        width: 32,
        height: 24,
        frames: 6,
        ..Scenario::baseline(room)
    }
    .render()
    .unwrap();
    gt.fg_masks.pop(); // break the frame/mask pairing
    let result = CallSim::new(&gt)
        .vb(BackgroundId::Beach.realize(32, 24))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(1)
        .run();
    assert!(result.is_err(), "mask/frame mismatch must error");
}

#[test]
fn short_call_cannot_support_unknown_vb_derivation() {
    let video = VideoStream::generate(4, 30.0, |_| Frame::filled(16, 12, Rgb::grey(80))).unwrap();
    let r = Reconstructor::new(VbSource::UnknownImage, ReconstructorConfig::default())
        .reconstruct(&video);
    assert!(matches!(r, Err(CoreError::VideoTooShort { .. })));
}

#[test]
fn empty_candidate_sets_are_rejected() {
    let video = VideoStream::generate(12, 30.0, |_| Frame::filled(16, 12, Rgb::grey(80))).unwrap();
    let cfg = ReconstructorConfig::default();
    assert!(matches!(
        Reconstructor::new(VbSource::KnownImages(vec![]), cfg).reconstruct(&video),
        Err(CoreError::EmptyCandidateSet)
    ));
    assert!(matches!(
        Reconstructor::new(VbSource::KnownVideos(vec![]), cfg).reconstruct(&video),
        Err(CoreError::EmptyCandidateSet)
    ));
}

#[test]
fn aperiodic_call_yields_no_virtual_video_period() {
    let video = VideoStream::generate(80, 30.0, |i| {
        Frame::from_fn(16, 12, |x, y| {
            Rgb::grey(((x * 7 + y * 5 + i * i * 3) % 255) as u8)
        })
    })
    .unwrap();
    let r = Reconstructor::new(
        VbSource::UnknownVideo {
            min_period: 2,
            max_period: 12,
        },
        ReconstructorConfig {
            tau: 2,
            ..Default::default()
        },
    )
    .reconstruct(&video);
    assert!(matches!(r, Err(CoreError::NoPeriodFound)));
}

#[test]
fn degenerate_mitigation_parameters_error() {
    let room = Room::sample(3, 32, 24, 2, &mut StdRng::seed_from_u64(3));
    let gt: GroundTruth = Scenario {
        width: 32,
        height: 24,
        frames: 6,
        ..Scenario::baseline(room)
    }
    .render()
    .unwrap();
    let r = CallSim::new(&gt)
        .vb(BackgroundId::Beach.realize(32, 24))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .mitigation(Mitigation::FrameDrop { keep_every: 0 })
        .lighting(Lighting::On)
        .seed(1)
        .run();
    assert!(r.is_err(), "FrameDrop(0) must error");
}

#[test]
fn attacks_reject_empty_reconstructions() {
    let empty_frame = Frame::new(32, 24);
    let empty_mask = bb_imaging::Mask::new(32, 24);
    let dict = bb_attacks::LocationDictionary::new(vec![("a".into(), Frame::new(32, 24))]).unwrap();
    assert!(bb_attacks::LocationInference::default()
        .rank(&empty_frame, &empty_mask, &dict, &Telemetry::disabled())
        .is_err());
    assert!(bb_attacks::ObjectTracker::default()
        .search(
            &empty_frame,
            &empty_mask,
            &Frame::filled(8, 8, Rgb::WHITE),
            &Telemetry::disabled()
        )
        .is_err());
    assert!(bb_attacks::ObjectDetector::train(2, 1)
        .detect(&empty_frame, &empty_mask, &Telemetry::disabled())
        .is_err());
    assert!(bb_attacks::TextReader::default()
        .read(&empty_frame, &empty_mask, &Telemetry::disabled())
        .is_err());
}

#[test]
fn panicking_session_is_isolated_and_reaped_by_the_server() {
    use bb_serve::server::{ReconServer, ServeConfig};
    use bb_serve::ServeError;
    use std::sync::Arc;

    let video = VideoStream::generate(10, 30.0, |i| {
        Frame::from_fn(24, 18, |x, y| Rgb::new(x as u8, y as u8, (i * 9) as u8))
    })
    .unwrap();
    let prototype = Reconstructor::new(
        VbSource::UnknownImage,
        ReconstructorConfig {
            parallelism: 1,
            warmup_frames: 12,
            ..Default::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("bb_failinj_serve_{}", std::process::id()));
    let mut server = ReconServer::new(prototype, ServeConfig::new(&dir)).unwrap();
    for id in 0..4u64 {
        server.open_session(id, 24, 18).unwrap();
    }
    // Inject a panic into session 2's frame callback only.
    server.set_frame_observer(Arc::new(|id, _| {
        assert!(id != 2, "injected panic for session 2");
    }));
    let batch: Vec<(u64, Vec<Frame>)> = (0..4u64).map(|id| (id, video.frames().to_vec())).collect();
    let results = server.push_many(batch).unwrap();
    for (id, result) in &results {
        if *id == 2 {
            assert!(
                matches!(
                    result,
                    Err(ServeError::Session {
                        id: 2,
                        source: CoreError::WorkerPanic(_)
                    })
                ),
                "session 2 must fail with WorkerPanic, got {result:?}"
            );
        } else {
            assert!(result.is_ok(), "sibling session {id} stalled: {result:?}");
        }
    }
    // The panicking session is reaped — gone from the map, bytes released —
    // and siblings keep serving frames afterwards.
    assert_eq!(server.session_count(), 3);
    assert!(matches!(
        server.push_frame(2, video.frame(0)),
        Err(ServeError::UnknownSession(2))
    ));
    for id in [0u64, 1, 3] {
        server.push_frame(id, video.frame(0)).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ppm_decoder_survives_garbage() {
    for garbage in [
        &b""[..],
        &b"P6"[..],
        &b"P6\n-1 5\n255\n"[..],
        &b"P6\n2 2\n999\n"[..],
        &b"NOTPPM AT ALL"[..],
    ] {
        assert!(bb_imaging::io::read_ppm(std::io::Cursor::new(garbage.to_vec())).is_err());
    }
}
