//! Property tests for the service layer's admission/eviction invariants
//! (satellite of the service PR). Under *random* interleavings of
//! push/evict/idle across several sessions:
//!
//! 1. the aggregate accounted footprint never exceeds the budget at an API
//!    boundary;
//! 2. no session is ever lost — every opened session is exactly where the
//!    ledger says it is until we close it;
//! 3. a session that was evicted and resumed arbitrarily often produces the
//!    same output as a never-evicted twin fed the identical frames.

use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::vbmask::VirtualReference;
use bb_imaging::{draw, Frame, Mask, Rgb};
use bb_serve::server::{ReconServer, ServeConfig};
use bb_video::VideoStream;
use proptest::prelude::*;

const W: usize = 32;
const H: usize = 24;
const CALL_FRAMES: usize = 16;

fn toy_vb() -> Frame {
    Frame::from_fn(W, H, |x, y| Rgb::new((x * 7) as u8, (y * 9) as u8, 70))
}

fn toy_call() -> VideoStream {
    let vb = toy_vb();
    VideoStream::generate(CALL_FRAMES, 30.0, |i| {
        let mut f = vb.clone();
        let cx = 10 + ((i / 2) % 5) as i64;
        draw::fill_rect(&mut f, cx, 8, 8, 14, Rgb::new(40, 70, 160));
        draw::fill_circle(&mut f, cx + 4, 6, 3, Rgb::new(230, 195, 165));
        if i % 3 == 1 {
            draw::fill_rect(&mut f, cx - 3, 12, 2, 5, Rgb::new(120, 60, 30));
        }
        f
    })
    .unwrap()
}

fn prototype() -> Reconstructor {
    let reference = VirtualReference::Image {
        image: toy_vb(),
        valid: Mask::full(W, H),
    };
    let config = ReconstructorConfig {
        tau: 4,
        phi: 2,
        parallelism: 1,
        warmup_frames: 5,
        ..Default::default()
    };
    Reconstructor::new(VbSource::Exact(reference), config)
}

/// One scripted operation against a random session. Decoded from a plain
/// `(kind, count)` pair because the vendored proptest stand-in has no
/// `prop_oneof`: kind 0–1 pushes the next `count` frames (weighted toward
/// pushing), kind 2 force-evicts, kind 3 idles.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(usize),
    Evict,
    Idle,
}

fn decode_op(kind: usize, count: usize) -> Op {
    match kind {
        0 | 1 => Op::Push(count),
        2 => Op::Evict,
        _ => Op::Idle,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_interleavings_preserve_budget_and_lose_no_session(
        n_sessions in 2usize..=4,
        budget_kib in 8usize..=96,
        script in proptest::collection::vec((0usize..4, 0usize..4, 1usize..=3), 1..40),
    ) {
        let call = toy_call();
        let budget = budget_kib * 1024;
        let dir = std::env::temp_dir().join(format!(
            "bb_service_props_{}_{n_sessions}_{budget_kib}_{}",
            std::process::id(),
            script.len(),
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServeConfig {
            budget_bytes: budget,
            ..ServeConfig::new(&dir)
        };
        let mut server = ReconServer::new(prototype(), config).unwrap();
        for id in 0..n_sessions as u64 {
            server.open_session(id, W, H).unwrap();
        }
        // Shadow ledger: frames pushed per session.
        let mut pushed = vec![0usize; n_sessions];

        for (sid, kind, count) in script {
            let id = (sid % n_sessions) as u64;
            match decode_op(kind, count) {
                Op::Push(count) => {
                    let cursor = pushed[id as usize];
                    let end = (cursor + count).min(CALL_FRAMES);
                    if cursor == end {
                        continue; // call exhausted
                    }
                    let frames = call.frames()[cursor..end].to_vec();
                    let sent = frames.len();
                    let results = server.push_many(vec![(id, frames)]).unwrap();
                    prop_assert!(results[0].1.is_ok(), "push failed: {:?}", results[0].1);
                    pushed[id as usize] += sent;
                }
                Op::Evict => server.evict_session(id).unwrap(),
                Op::Idle => {}
            }
            // Invariant 1: budget holds at every API boundary.
            prop_assert!(
                server.live_bytes() <= budget,
                "budget breached: {} live > {budget}",
                server.live_bytes()
            );
            // Invariant 2: nothing lost, and the ledger agrees.
            prop_assert_eq!(server.session_count(), n_sessions);
            for id in 0..n_sessions as u64 {
                prop_assert_eq!(
                    server.frames_seen(id),
                    Some(pushed[id as usize] as u64),
                    "session {} frame ledger diverged", id
                );
            }
        }

        // Invariant 3: every session closes into exactly what a
        // never-evicted twin produces from the same frames.
        for id in 0..n_sessions as u64 {
            let frames = pushed[id as usize];
            let served = server.close_session(id);
            let twin = {
                let mut s = prototype().session();
                s.push_frames(&call.frames()[..frames]).unwrap();
                s.finalize()
            };
            match (served, twin) {
                (Ok(served), Ok(twin)) => {
                    prop_assert_eq!(
                        served.background, twin.background,
                        "session {} diverged from its never-evicted twin", id
                    );
                    prop_assert_eq!(served.recovered, twin.recovered);
                    let reconstructor = prototype();
                    for (i, frame) in call.frames()[..frames].iter().enumerate() {
                        prop_assert_eq!(
                            reconstructor.frame_masks(&served, i, frame).unwrap(),
                            reconstructor.frame_masks(&twin, i, frame).unwrap(),
                            "session {} frame {} masks diverged", id, i
                        );
                    }
                }
                // Zero-frame sessions fail finalize identically on both
                // sides (VideoTooShort) — the server must reap, not wedge.
                (Err(_), Err(_)) => prop_assert_eq!(frames, 0),
                (served, twin) => prop_assert!(
                    false,
                    "session {} outcome mismatch: served {:?}, twin {:?}",
                    id,
                    served.map(|r| r.rbrr()),
                    twin.map(|r| r.rbrr())
                ),
            }
        }
        // Everything closed: the server is empty and accounts zero bytes.
        prop_assert_eq!(server.session_count(), 0);
        prop_assert_eq!(server.live_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
