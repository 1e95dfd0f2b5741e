//! Determinism and telemetry guarantees of the end-to-end pipeline.
//!
//! * Reconstruction output is **byte-identical** across worker counts —
//!   parallelism is an implementation detail, never an observable one.
//! * A golden FNV-1a hash pins the full seeded end-to-end output, so any
//!   behavioral drift in synth → callsim → reconstruction shows up as a
//!   one-line failure here before it shows up as a mysterious experiment
//!   delta.
//! * Telemetry on a real run satisfies the nesting invariant (sequential
//!   child stage totals never exceed the parent's), counts what the run
//!   actually did, round-trips through JSON, and stays completely empty when
//!   disabled.

use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VbMode};
use bb_core::pipeline::{ReconMode, Reconstruction, Reconstructor, ReconstructorConfig, VbSource};
use bb_imaging::{Frame, Mask};
use bb_synth::{Action, Lighting, Room, Scenario};
use bb_telemetry::{RunReport, Telemetry};
use bb_video::VideoStream;
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 7;
const W: usize = 96;
const H: usize = 72;
const FRAMES: usize = 30;

/// The shared seeded scenario: one composited call, deterministic in `SEED`.
fn seeded_call() -> VideoStream {
    seeded_call_behind(BackgroundId::Beach.realize(W, H).into())
}

/// The seeded scenario composited behind an arbitrary VB.
fn seeded_call_behind(vb: VbMode) -> VideoStream {
    let room = Room::sample(SEED, W, H, 4, &mut StdRng::seed_from_u64(SEED));
    let gt = Scenario {
        action: Action::ArmWaving,
        width: W,
        height: H,
        frames: FRAMES,
        seed: SEED,
        ..Scenario::baseline(room)
    }
    .render()
    .expect("scenario renders");
    CallSim::new(&gt)
        .vb(vb)
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(SEED)
        .run()
        .expect("session composites")
        .video
}

fn reconstruct(video: &VideoStream, parallelism: usize, telemetry: &Telemetry) -> Reconstruction {
    let config = ReconstructorConfig {
        phi: 3,
        parallelism,
        ..Default::default()
    };
    Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        config,
    )
    .with_telemetry(telemetry.clone())
    .reconstruct(video)
    .expect("reconstruction succeeds")
}

fn assert_identical(a: &Reconstruction, b: &Reconstruction, what: &str) {
    assert_eq!(a.background, b.background, "{what}: background differs");
    assert_eq!(a.recovered, b.recovered, "{what}: recovered mask differs");
    assert_eq!(
        a.per_frame_leak, b.per_frame_leak,
        "{what}: leak masks differ"
    );
    assert_eq!(a.per_frame_vbm, b.per_frame_vbm, "{what}: VBMs differ");
    assert_eq!(
        a.per_frame_removed, b.per_frame_removed,
        "{what}: removed masks differ"
    );
}

#[test]
fn output_is_byte_identical_across_parallelism_and_collect_modes() {
    let video = seeded_call();
    let baseline = reconstruct(&video, 1, &Telemetry::disabled());
    for parallelism in [2usize, 8] {
        let other = reconstruct(&video, parallelism, &Telemetry::disabled());
        assert_identical(&baseline, &other, &format!("parallelism={parallelism}"));
    }
}

/// FNV-1a over the reconstruction's observable output.
fn fnv1a_of(recon: &Reconstruction) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let feed_frame = |eat: &mut dyn FnMut(u8), f: &Frame| {
        for p in f.pixels() {
            eat(p.r);
            eat(p.g);
            eat(p.b);
        }
    };
    let feed_mask = |eat: &mut dyn FnMut(u8), m: &Mask| {
        let (w, h) = m.dims();
        for y in 0..h {
            for x in 0..w {
                eat(u8::from(m.get(x, y)));
            }
        }
    };
    feed_frame(&mut eat, &recon.background);
    feed_mask(&mut eat, &recon.recovered);
    for leak in &recon.per_frame_leak {
        feed_mask(&mut eat, leak);
    }
    hash
}

/// Pinned output hash for the seeded scenario above. If an intentional
/// behavior change moves it, re-pin and record the change in CHANGES.md —
/// an *unintentional* move here is a regression.
///
/// Re-pinned from 0x4743_d504_77e5_052c for two intentional fixes: the
/// Boyer–Moore vote-replacement threshold (replace at zero, not below) and
/// round-to-nearest channel means in box/motion blur and downsampling.
///
/// The matting estimator's caller-color mean moving from truncation to
/// round-to-nearest was verified NOT to move this hash: the color-confusion
/// test compares band pixels (virtual-background colors) against the caller
/// mean, and at this scenario's tau no pixel sits within 1 LSB of the
/// threshold. The data-parallel kernel rewrite is likewise hash-neutral by
/// construction.
const GOLDEN_HASH: u64 = 0x0122_7bed_58af_d18d;

#[test]
fn golden_hash_regression() {
    let video = seeded_call();
    let recon = reconstruct(&video, 8, &Telemetry::disabled());
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "end-to-end output drifted: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );
}

#[test]
fn golden_hash_holds_for_streaming_push_and_finalize() {
    // The streaming session, fed one frame at a time, must land on the exact
    // batch bytes: `reconstruct` is a thin wrapper over the same session.
    let video = seeded_call();
    let config = ReconstructorConfig {
        phi: 3,
        parallelism: 8,
        ..Default::default()
    };
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        config,
    );
    let mut session = reconstructor.session();
    for frame in video.iter() {
        session.push_frame(frame).expect("push");
    }
    let recon = session.finalize().expect("finalize");
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "streaming output drifted from batch: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );
}

#[test]
fn wire_served_session_lands_on_the_golden_hash() {
    // The full service stack — BBWS encode, the ReconServer scheduler, and
    // a budget small enough that the session is checkpoint-evicted and
    // resumed on effectively every pushed frame — must land on the exact
    // batch bytes. Byte-identity through the wire is the service's core
    // contract.
    use bb_serve::server::{ReconServer, ServeConfig};

    let video = seeded_call();
    let config = ReconstructorConfig {
        phi: 3,
        parallelism: 8,
        ..Default::default()
    };
    let prototype = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        config,
    );
    let dir = std::env::temp_dir().join(format!("bb_determinism_wire_{}", std::process::id()));
    let serve_config = ServeConfig {
        // Far below one warmup buffer: every push round-trips through a
        // BBSC checkpoint on disk. Wire batching pinned to 1 so a push is
        // exactly one frame — maximum eviction pressure.
        budget_bytes: 16 * 1024,
        wire_batch_frames: 1,
        ..ServeConfig::new(&dir)
    };
    let mut server = ReconServer::new(prototype.clone(), serve_config).unwrap();
    let bytes = bb_serve::wire::encode_call(1, &video);
    let mut closed = server.serve_wire(&bytes).unwrap();
    assert_eq!(closed.len(), 1, "one session opened, one closed");
    let stats = server.stats();
    assert!(
        stats.evicted >= FRAMES as u64 - 1,
        "the 16 KiB budget must evict on every push (evicted {})",
        stats.evicted
    );
    assert_eq!(stats.evicted, stats.resumed, "every eviction was resumed");
    let (_, recon) = closed.pop().unwrap();
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "wire-served output drifted from batch: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );

    // The default batched wire ingest (several frames per scheduler round,
    // still under eviction pressure) must land on the same bytes.
    let batched_config = ServeConfig {
        budget_bytes: 16 * 1024,
        ..ServeConfig::new(&dir)
    };
    let mut server = ReconServer::new(prototype, batched_config).unwrap();
    let mut closed = server.serve_wire(&bytes).unwrap();
    assert!(
        server.stats().evicted > 0,
        "the 16 KiB budget must still evict between batched pushes"
    );
    let (_, recon) = closed.pop().unwrap();
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "batched wire ingest drifted from batch: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_hash_holds_through_v2_containers_and_mmap_ingest() {
    // The zero-copy ingest path — BBV v2 encode, mmap the container,
    // parallel striped decode, and streaming session ingest from the
    // mmap-backed source — must land on the exact batch bytes. Compression
    // and memory mapping are transport details, never observable ones.
    use bb_video::mmap::MmapSource;

    let video = seeded_call();
    let dir = std::env::temp_dir().join(format!("bb_determinism_v2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v2_path = dir.join("call.bbv");
    bb_video::v2::save(&video, &v2_path, bb_video::v2::DEFAULT_STRIPE).expect("v2 save");

    // Batch: the whole container through the parallel striped decoder.
    let decoded =
        bb_core::ingest::load_video(&v2_path, 8, &Telemetry::disabled()).expect("parallel decode");
    let recon = reconstruct(&decoded, 8, &Telemetry::disabled());
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "v2 parallel-decode output drifted: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );

    // Streaming: the session pulls borrowed views straight off the mapping.
    let config = ReconstructorConfig {
        phi: 3,
        parallelism: 8,
        ..Default::default()
    };
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        config,
    );
    let mut session = reconstructor.session();
    let mut source = MmapSource::open(&v2_path).expect("mmap v2");
    let frames = session.ingest(&mut source, 7).expect("ingest");
    assert_eq!(frames, FRAMES);
    let recon = session.finalize().expect("finalize");
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "mmap-ingest output drifted from batch: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_resume_is_byte_identical_to_the_uninterrupted_run() {
    // Serialize mid-call, resume in a fresh session (as a fresh process
    // would), and still land on the uninterrupted run's exact bytes — for a
    // warmup-phase cut and a post-lock cut.
    let video = seeded_call();
    let config = ReconstructorConfig {
        phi: 3,
        parallelism: 8,
        warmup_frames: 12,
        ..Default::default()
    };
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        config,
    );
    let uncut = {
        let mut session = reconstructor.session();
        session.push_frames(video.frames()).expect("push");
        session.finalize().expect("finalize")
    };
    for cut in [6usize, 20] {
        let mut session = reconstructor.session();
        session.push_frames(&video.frames()[..cut]).expect("push");
        let bytes = session.checkpoint();
        let mut resumed = reconstructor.resume_session(&bytes).expect("resume");
        assert_eq!(resumed.frames_seen(), cut);
        resumed
            .push_frames(&video.frames()[cut..])
            .expect("push rest");
        let recon = resumed.finalize().expect("finalize");
        assert_identical(&uncut, &recon, &format!("checkpoint cut at {cut}"));
    }
}

#[test]
fn golden_hash_is_unchanged_by_observability() {
    // Observation must never perturb the pipeline: the full sink + journal
    // + live metrics configuration produces the exact same bytes as
    // telemetry off.
    let video = seeded_call();
    let hub = bb_telemetry::MetricsHub::new();
    let telemetry = Telemetry::enabled()
        .with_journal(bb_telemetry::Journal::with_capacity(1 << 18))
        .with_metrics(hub.clone());
    let recon = reconstruct(&video, 8, &telemetry);
    let hash = fnv1a_of(&recon);
    assert_eq!(
        hash, GOLDEN_HASH,
        "telemetry+journal+metrics changed the output: got {hash:#018x}, pinned {GOLDEN_HASH:#018x}"
    );
    // And the journal really was live during that run.
    let journal = telemetry.journal().expect("journal attached");
    let frame_events = journal
        .events()
        .iter()
        .filter(|e| e.stage == "reconstruct/frame")
        .count();
    assert_eq!(frame_events, FRAMES);
    assert_eq!(journal.dropped(), 0);
    // The metrics hub mirrored the run: pipeline counters landed windowed.
    let snapshot = hub.snapshot();
    assert_eq!(
        snapshot.counters["frames/input"].total, FRAMES as u64,
        "metrics hub missed the pipeline counters"
    );
    assert!(
        snapshot.hists.contains_key("reconstruct"),
        "stage latency never reached the windowed histograms"
    );
}

#[test]
fn telemetry_on_a_real_run_is_consistent() {
    let video = seeded_call();
    let telemetry = Telemetry::enabled();
    let recon = reconstruct(&video, 4, &telemetry);
    let report = telemetry.report();

    // The pipeline's stages are present and the nesting invariant holds:
    // sequential child stages sum to at most the parent's span.
    let parent = report.stages["reconstruct"].total_ns;
    let children = report.children_total_ns("reconstruct");
    assert!(children > 0, "no child stages recorded");
    assert!(
        children <= parent,
        "child stages ({children} ns) exceed the reconstruct span ({parent} ns)"
    );
    for stage in [
        "reconstruct/segmenter_fit",
        "reconstruct/pass1",
        "reconstruct/color_model",
        "reconstruct/pass2",
        "reconstruct/accumulate",
    ] {
        assert!(report.stages.contains_key(stage), "missing stage {stage}");
    }

    // Counters describe what the run actually did.
    assert_eq!(report.counters["frames/input"], FRAMES as u64);
    assert_eq!(report.counters["frames/pass1"], FRAMES as u64);
    assert_eq!(report.counters["frames/pass2"], FRAMES as u64);
    assert_eq!(
        report.counters["pixels/recovered"],
        recon.recovered.count_set() as u64
    );
    // Worker-pool jobs are attributed per worker and sum to the frame count.
    let pass1_jobs: u64 = report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("workers/pass1/jobs/"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(pass1_jobs, FRAMES as u64);
    // Each busy lane is either a spawned worker (`w<k>`, multi-core hosts)
    // or the inline fallback (`serial`, when available parallelism clamps
    // the pool to one) — exactly one of the two shapes, never both.
    let spawned = report.stages.contains_key("workers/pass1/busy/w0");
    let serial = report.stages.contains_key("workers/pass1/busy/serial");
    assert!(spawned ^ serial, "spawned={spawned} serial={serial}");
    assert_eq!(
        report.counters.contains_key("workers/pass1/jobs/serial"),
        serial
    );

    // Every timed stage also has a latency histogram that agrees with the
    // exact stats on its extremes.
    for (name, stats) in &report.stages {
        let hist = report
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("no histogram for stage {name}"));
        assert_eq!(hist.count(), stats.calls, "count mismatch for {name}");
        assert_eq!(hist.max(), stats.max_ns, "max mismatch for {name}");
        assert_eq!(hist.min(), stats.min_ns, "min mismatch for {name}");
    }

    // The report survives serialization losslessly.
    let round_tripped = RunReport::from_json(&report.to_json()).expect("valid JSON");
    assert_eq!(round_tripped, report);
}

#[test]
fn disabled_telemetry_stays_empty_through_a_real_run() {
    let video = seeded_call();
    let telemetry = Telemetry::disabled();
    let _ = reconstruct(&video, 4, &telemetry);
    assert_eq!(telemetry.report(), RunReport::default());
}

/// The blur VB's box radius, composited and inverted alike.
const BLUR_RADIUS: usize = 2;

/// Pinned output hash of the blur-residue path: the seeded scenario behind
/// a `VbMode::Blur` compositor, reconstructed by Van Cittert deblurring
/// against the same radius. The warmup is short enough that both the lock
/// and the post-lock streamed block deblur frames. Pinned before the fused
/// deblur kernel landed; that rewrite is hash-neutral by construction.
const BLUR_GOLDEN_HASH: u64 = 0xcd1d_0e59_89ec_f3c7;

fn blur_reconstructor(parallelism: usize) -> Reconstructor {
    Reconstructor::new(
        VbSource::UnknownImage,
        ReconstructorConfig {
            phi: 3,
            parallelism,
            warmup_frames: 12,
            mode: ReconMode::BlurResidue {
                radius: BLUR_RADIUS,
            },
            ..Default::default()
        },
    )
}

fn assert_blur_golden(recon: &Reconstruction, what: &str) {
    let hash = fnv1a_of(recon);
    assert_eq!(
        hash, BLUR_GOLDEN_HASH,
        "{what}: blur-residue output drifted: got {hash:#018x}, pinned {BLUR_GOLDEN_HASH:#018x}"
    );
}

#[test]
fn blur_residue_golden_hash_holds_across_parallelism_streaming_and_resume() {
    let video = seeded_call_behind(VbMode::Blur {
        radius: BLUR_RADIUS,
    });
    for parallelism in [1usize, 8] {
        let reconstructor = blur_reconstructor(parallelism);
        let batch = reconstructor.reconstruct(&video).expect("reconstruct");
        assert!(
            batch.recovered.count_set() > 0,
            "blur residue recovered nothing"
        );
        assert_blur_golden(&batch, &format!("batch at parallelism {parallelism}"));

        let mut session = reconstructor.session();
        for frame in video.iter() {
            session.push_frame(frame).expect("push");
        }
        let streamed = session.finalize().expect("finalize");
        assert_blur_golden(
            &streamed,
            &format!("streaming at parallelism {parallelism}"),
        );
    }
    // Checkpoint during warmup (6 < 12) and after the lock (20 > 12).
    let reconstructor = blur_reconstructor(8);
    for cut in [6usize, 20] {
        let mut session = reconstructor.session();
        session.push_frames(&video.frames()[..cut]).expect("push");
        let bytes = session.checkpoint();
        let mut resumed = reconstructor.resume_session(&bytes).expect("resume");
        resumed
            .push_frames(&video.frames()[cut..])
            .expect("push rest");
        let recon = resumed.finalize().expect("finalize");
        assert_blur_golden(&recon, &format!("checkpoint cut at {cut}"));
    }
}
