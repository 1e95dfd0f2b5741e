//! Deterministic performance baseline for the reconstruction pipeline.
//!
//! Renders a seeded synthetic call, composites it, and reconstructs it,
//! emitting `BENCH_pipeline.json`:
//!
//! * wall time and throughput (frames/sec, Mpix/sec) under
//!   `modes.worker_local`,
//! * the telemetry per-stage breakdown (`reconstruct/pass1`, …),
//! * reconstruction quality (RBRR),
//! * the telemetry hot-path overhead (`telemetry_overhead`): the same
//!   reconstruction with observability fully off vs sink + journal on,
//!   against a 5% budget,
//! * container ingest (`ingest`): the streamed v1 `BbvReader` vs the
//!   zero-copy mmap paths and the striped parallel BBV v2 decode, with the
//!   v2 compression ratio and the 2x `speedup_vs_v1_reader` floor,
//! * the multi-session service (`serve`): a loadgen fleet driven through
//!   `bb-serve` with admission control and checkpoint eviction engaged
//!   (sessions/sec, aggregate Mpix/sec, eviction counts),
//! * the blur compositor (`blur`): the pinned scenario behind `VbMode::Blur`
//!   reconstructed via deblurred-evidence accumulation, with the recovered
//!   RBRR held to a pinned floor.
//!
//! The workload is fixed (seed, dimensions, frame count), so numbers are
//! comparable across commits on the same machine. Pass an output path to
//! override the default `BENCH_pipeline.json`; pass `--quick` for a smaller
//! workload (CI smoke, numbers not comparable with the default).

use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile};
use bb_core::pipeline::{MaskRetention, Reconstructor, ReconstructorConfig, VbSource};
use bb_synth::{Action, GroundTruth, Lighting, Room, Scenario};
use bb_telemetry::json::{self, Json};
use bb_telemetry::{Journal, MetricsHub, Telemetry};
use bb_video::VideoStream;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const PARALLELISM: usize = 8;

struct Workload {
    width: usize,
    height: usize,
    frames: usize,
}

fn render_call(w: &Workload) -> (GroundTruth, VideoStream) {
    let room = Room::sample(SEED, w.width, w.height, 5, &mut StdRng::seed_from_u64(SEED));
    let gt = Scenario {
        action: Action::ArmWaving,
        width: w.width,
        height: w.height,
        frames: w.frames,
        seed: SEED,
        ..Scenario::baseline(room)
    }
    .render()
    .expect("scenario renders");
    let call = CallSim::new(&gt)
        .vb(BackgroundId::Beach.realize(w.width, w.height))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(SEED)
        .run()
        .expect("session composites");
    (gt, call.video)
}

struct ReconResult {
    wall_secs: f64,
    frames_per_sec: f64,
    mpix_per_sec: f64,
    rbrr_percent: f64,
    report: bb_telemetry::RunReport,
}

fn run_reconstruction(video: &VideoStream) -> ReconResult {
    let (w, h) = video.dims();
    let config = ReconstructorConfig {
        phi: (h / 24).max(2),
        parallelism: PARALLELISM,
        ..Default::default()
    };
    let telemetry = Telemetry::enabled();
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(w, h)),
        config,
    )
    .with_telemetry(telemetry.clone());
    let started = Instant::now();
    let reconstruction = reconstructor.reconstruct(video).expect("reconstruction");
    let wall_secs = started.elapsed().as_secs_f64();
    let frames = video.len() as f64;
    ReconResult {
        wall_secs,
        frames_per_sec: frames / wall_secs,
        mpix_per_sec: frames * (w * h) as f64 / 1e6 / wall_secs,
        rbrr_percent: reconstruction.rbrr(),
        report: telemetry.report(),
    }
}

/// Serializes the reconstruction result. `workload_mpix` is the total pixel volume
/// of the call (frames × width × height, in megapixels); each stage gets a
/// `mpix_per_sec` = workload volume over the stage's total time — the
/// per-stage analogue of the end-to-end throughput, so a regression in any
/// single stage is visible in the same unit the 5x acceptance bar uses.
fn recon_json(r: &ReconResult, workload_mpix: f64) -> Json {
    let mut stages = BTreeMap::new();
    for (name, s) in &r.report.stages {
        let mut stage = BTreeMap::new();
        stage.insert("calls".into(), Json::Number(s.calls as f64));
        stage.insert("total_ms".into(), Json::Number(s.total_ns as f64 / 1e6));
        stage.insert("mean_ms".into(), Json::Number(s.mean_ns() as f64 / 1e6));
        if s.total_ns > 0 {
            stage.insert(
                "mpix_per_sec".into(),
                Json::Number(workload_mpix / (s.total_ns as f64 / 1e9)),
            );
        }
        stages.insert(name.clone(), Json::Object(stage));
    }
    let counters: BTreeMap<String, Json> = r
        .report
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::Number(*v as f64)))
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert("wall_secs".into(), Json::Number(r.wall_secs));
    obj.insert("frames_per_sec".into(), Json::Number(r.frames_per_sec));
    obj.insert("mpix_per_sec".into(), Json::Number(r.mpix_per_sec));
    obj.insert("rbrr_percent".into(), Json::Number(r.rbrr_percent));
    obj.insert("stages".into(), Json::Object(stages));
    obj.insert("counters".into(), Json::Object(counters));
    Json::Object(obj)
}

/// Measures the observability hot-path cost: the same reconstruction, once
/// with telemetry fully off and once with the sink *and* the event journal
/// attached (the most expensive configuration a CLI run can ask for). Best
/// of `reps` runs per side, interleaved so thermal drift hits both equally.
fn telemetry_overhead_bench(video: &VideoStream) -> Json {
    let (w, h) = video.dims();
    let config = ReconstructorConfig {
        phi: (h / 24).max(2),
        parallelism: PARALLELISM,
        ..Default::default()
    };
    let run = |telemetry: Telemetry| -> f64 {
        let reconstructor = Reconstructor::new(
            VbSource::KnownImages(background::catalog_images(w, h)),
            config,
        )
        .with_telemetry(telemetry);
        let started = Instant::now();
        black_box(reconstructor.reconstruct(video).expect("reconstruction"));
        started.elapsed().as_secs_f64()
    };
    let reps = 3;
    let mut disabled_secs = f64::INFINITY;
    let mut enabled_secs = f64::INFINITY;
    for _ in 0..reps {
        disabled_secs = disabled_secs.min(run(Telemetry::disabled()));
        enabled_secs = enabled_secs.min(run(Telemetry::enabled().with_journal(Journal::default())));
    }
    let overhead_pct = (enabled_secs - disabled_secs) / disabled_secs * 100.0;
    eprintln!(
        "  telemetry off {disabled_secs:.3}s, on+journal {enabled_secs:.3}s \
         ({overhead_pct:+.2}% overhead)"
    );
    if overhead_pct >= 5.0 {
        eprintln!("  WARNING: telemetry overhead {overhead_pct:.2}% exceeds the 5% budget");
    }
    let mut section = BTreeMap::new();
    section.insert("reps".into(), Json::Number(reps as f64));
    section.insert("disabled_secs".into(), Json::Number(disabled_secs));
    section.insert("enabled_secs".into(), Json::Number(enabled_secs));
    section.insert("overhead_pct".into(), Json::Number(overhead_pct));
    section.insert("budget_pct".into(), Json::Number(5.0));
    Json::Object(section)
}

/// Measures the live metrics plane's cost two ways. First a contended
/// microbench: [`PARALLELISM`] threads hammer one shared [`MetricsHub`]
/// with a counter add plus a histogram record per iteration — the exact
/// shape the serving hot paths mirror into the hub — reported as ns/op.
/// Then end-to-end: the same reconstruction as [`telemetry_overhead_bench`]
/// with the sink alone vs sink + hub attached, interleaved best-of-3,
/// against the same 5% overhead budget.
fn metrics_plane_bench(video: &VideoStream) -> Json {
    const OPS: usize = 50_000;
    let hub = MetricsHub::new();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..PARALLELISM {
            let hub = hub.clone();
            scope.spawn(move || {
                for i in 0..OPS {
                    hub.add("bench/ops", 1);
                    hub.record("bench/lat", (i * (worker + 1)) as u64);
                }
            });
        }
    });
    let hub_ns_per_op = started.elapsed().as_nanos() as f64 / (OPS * PARALLELISM * 2) as f64;
    let snapshot_started = Instant::now();
    let snapshot = hub.snapshot();
    let snapshot_us = snapshot_started.elapsed().as_nanos() as f64 / 1e3;
    assert_eq!(
        snapshot.counters["bench/ops"].total,
        (OPS * PARALLELISM) as u64,
        "contended hub updates must not lose counts"
    );

    let (w, h) = video.dims();
    let config = ReconstructorConfig {
        phi: (h / 24).max(2),
        parallelism: PARALLELISM,
        ..Default::default()
    };
    let run = |telemetry: Telemetry| -> f64 {
        let reconstructor = Reconstructor::new(
            VbSource::KnownImages(background::catalog_images(w, h)),
            config,
        )
        .with_telemetry(telemetry);
        let started = Instant::now();
        black_box(reconstructor.reconstruct(video).expect("reconstruction"));
        started.elapsed().as_secs_f64()
    };
    let reps = 3;
    let mut sink_secs = f64::INFINITY;
    let mut hub_secs = f64::INFINITY;
    for _ in 0..reps {
        sink_secs = sink_secs.min(run(Telemetry::enabled()));
        hub_secs = hub_secs.min(run(Telemetry::enabled().with_metrics(MetricsHub::new())));
    }
    let overhead_pct = (hub_secs - sink_secs) / sink_secs * 100.0;
    eprintln!(
        "  hub update {hub_ns_per_op:.0}ns/op contended x{PARALLELISM}, snapshot {snapshot_us:.0}µs; \
         sink {sink_secs:.3}s vs sink+hub {hub_secs:.3}s ({overhead_pct:+.2}% overhead)"
    );
    if overhead_pct >= 5.0 {
        eprintln!("  WARNING: metrics hub overhead {overhead_pct:.2}% exceeds the 5% budget");
    }
    let mut section = BTreeMap::new();
    section.insert("contended_threads".into(), Json::Number(PARALLELISM as f64));
    section.insert("ops_per_thread".into(), Json::Number((OPS * 2) as f64));
    section.insert("hub_ns_per_op".into(), Json::Number(hub_ns_per_op));
    section.insert("snapshot_us".into(), Json::Number(snapshot_us));
    section.insert("reps".into(), Json::Number(reps as f64));
    section.insert("sink_only_secs".into(), Json::Number(sink_secs));
    section.insert("sink_plus_hub_secs".into(), Json::Number(hub_secs));
    section.insert("overhead_pct".into(), Json::Number(overhead_pct));
    section.insert("budget_pct".into(), Json::Number(5.0));
    Json::Object(section)
}

/// Benchmarks the streaming session against the batch wrapper on the same
/// call: same warmup window (so the outputs are byte-comparable), frames
/// pushed in small chunks, per-frame masks not retained. Reports throughput
/// on both sides and the session's state footprint — flat after the lock,
/// versus the batch side's per-frame mask growth.
fn streaming_bench(video: &VideoStream) -> Json {
    const WARMUP: usize = 32;
    const CHUNK: usize = 16;
    let (w, h) = video.dims();
    let base = ReconstructorConfig {
        phi: (h / 24).max(2),
        parallelism: PARALLELISM,
        warmup_frames: WARMUP,
        ..Default::default()
    };
    let source = VbSource::KnownImages(background::catalog_images(w, h));
    let reps = 3;

    let batch_recon = Reconstructor::new(source.clone(), base);
    let mut batch_secs = f64::INFINITY;
    let mut batch_rbrr = 0.0;
    for _ in 0..reps {
        let started = Instant::now();
        let r = black_box(batch_recon.reconstruct(video).expect("batch reconstruct"));
        batch_secs = batch_secs.min(started.elapsed().as_secs_f64());
        batch_rbrr = r.rbrr();
    }

    let lean = ReconstructorConfig {
        mask_retention: MaskRetention::None,
        ..base
    };
    let stream_recon = Reconstructor::new(source, lean);
    let mut stream_secs = f64::INFINITY;
    let mut stream_rbrr = 0.0;
    let mut state_at_lock = 0usize;
    let mut peak_after_lock = 0usize;
    for _ in 0..reps {
        let started = Instant::now();
        let mut session = stream_recon.session();
        for chunk in video.frames().chunks(CHUNK) {
            session.push_frames(chunk).expect("push chunk");
            if session.is_locked() {
                let bytes = session.state_bytes();
                if state_at_lock == 0 {
                    state_at_lock = bytes;
                }
                peak_after_lock = peak_after_lock.max(bytes);
            }
        }
        let r = black_box(session.finalize().expect("finalize"));
        stream_secs = stream_secs.min(started.elapsed().as_secs_f64());
        stream_rbrr = r.rbrr();
    }
    assert_eq!(
        batch_rbrr, stream_rbrr,
        "streaming must not change the reconstruction"
    );
    assert_eq!(
        state_at_lock, peak_after_lock,
        "session state must stay flat after the lock with MaskRetention::None"
    );

    // What the batch side holds instead: three retained masks per frame.
    let mask_bytes = w.div_ceil(64) * 8 * h;
    let batch_retained_mask_bytes = 3 * mask_bytes * video.len();
    let throughput_ratio = batch_secs / stream_secs;
    eprintln!(
        "  batch {batch_secs:.3}s, streaming {stream_secs:.3}s \
         ({throughput_ratio:.2}x), state {state_at_lock}B flat vs \
         {batch_retained_mask_bytes}B of retained masks"
    );

    let mut section = BTreeMap::new();
    section.insert("warmup_frames".into(), Json::Number(WARMUP as f64));
    section.insert("chunk_frames".into(), Json::Number(CHUNK as f64));
    section.insert("reps".into(), Json::Number(reps as f64));
    section.insert("batch_secs".into(), Json::Number(batch_secs));
    section.insert("streaming_secs".into(), Json::Number(stream_secs));
    section.insert(
        "streaming_vs_batch_throughput".into(),
        Json::Number(throughput_ratio),
    );
    section.insert("rbrr_percent".into(), Json::Number(stream_rbrr));
    section.insert(
        "state_bytes_at_lock".into(),
        Json::Number(state_at_lock as f64),
    );
    section.insert(
        "state_bytes_peak_after_lock".into(),
        Json::Number(peak_after_lock as f64),
    );
    section.insert(
        "batch_retained_mask_bytes".into(),
        Json::Number(batch_retained_mask_bytes as f64),
    );
    Json::Object(section)
}

/// Benchmarks the ingest layer on the pinned workload: the historical
/// streamed `BbvReader` (the "before" side — buffered file reads, one
/// allocation per frame) against the zero-copy paths this container stack
/// provides — mmap-backed v1 views, serial BBV v2 span-delta decode, and the
/// striped parallel v2 decode. Also records the v2 compression ratio. The
/// headline `speedup_vs_v1_reader` (parallel v2 vs `BbvReader`) is held to
/// a 2x floor on the full workload; quick runs record but don't gate.
fn ingest_bench(video: &VideoStream, quick: bool) -> Json {
    use bb_video::mmap::MmapSource;
    use bb_video::source::{BbvReader, FrameSource};

    let dir = std::env::temp_dir().join(format!("bb_perf_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("ingest bench temp dir");
    let v1_path = dir.join("call.v1.bbv");
    let v2_path = dir.join("call.v2.bbv");
    bb_video::io::save(video, &v1_path).expect("save v1");
    bb_video::v2::save(video, &v2_path, bb_video::v2::DEFAULT_STRIPE).expect("save v2");
    let v1_bytes = std::fs::metadata(&v1_path).expect("v1 meta").len();
    let v2_bytes = std::fs::metadata(&v2_path).expect("v2 meta").len();

    let (w, h) = video.dims();
    let frames = video.len();
    let mpix = (frames * w * h) as f64 / 1e6;
    let reps = 5;
    // Best-of-reps wall time for one full drain of `source`.
    let time_drain = |mut run: Box<dyn FnMut() -> usize>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = Instant::now();
            let n = run();
            best = best.min(started.elapsed().as_secs_f64());
            assert_eq!(n, frames, "ingest path dropped frames");
        }
        best
    };

    let v1p = v1_path.clone();
    let v1_reader_secs = time_drain(Box::new(move || {
        let mut reader = BbvReader::open(&v1p).expect("open v1");
        let mut n = 0;
        while let Some(frame) = reader.next_frame().expect("read") {
            black_box(&frame);
            n += 1;
        }
        n
    }));

    // The zero-copy paths share one reusable frame buffer: steady-state
    // ingest allocates nothing per frame.
    let drain_mmap = |path: std::path::PathBuf| -> Box<dyn FnMut() -> usize> {
        Box::new(move || {
            let mut source = MmapSource::open(&path).expect("mmap");
            let mut frame = bb_imaging::Frame::filled(w, h, bb_imaging::Rgb::new(0, 0, 0));
            let mut n = 0;
            while source.next_frame_into(&mut frame).expect("read") {
                black_box(&frame);
                n += 1;
            }
            n
        })
    };
    let v1_mmap_secs = time_drain(drain_mmap(v1_path.clone()));
    let v2_serial_secs = time_drain(drain_mmap(v2_path.clone()));

    let v2p = v2_path.clone();
    let v2_parallel_secs = time_drain(Box::new(move || {
        let decoded = bb_core::ingest::load_video(&v2p, PARALLELISM, &Telemetry::disabled())
            .expect("parallel decode");
        black_box(&decoded);
        decoded.len()
    }));
    std::fs::remove_dir_all(&dir).ok();

    let compression = v1_bytes as f64 / v2_bytes as f64;
    let speedup = v1_reader_secs / v2_parallel_secs;
    eprintln!(
        "  v1 reader {:.1} Mpix/s, v1 mmap {:.1}, v2 serial {:.1}, v2 parallel {:.1} \
         ({speedup:.2}x vs reader); v2 container {compression:.2}x smaller",
        mpix / v1_reader_secs,
        mpix / v1_mmap_secs,
        mpix / v2_serial_secs,
        mpix / v2_parallel_secs
    );
    if !quick {
        assert!(
            speedup >= 2.0,
            "ingest acceptance: parallel v2 decode must be >= 2x the v1 \
             BbvReader on the pinned workload, got {speedup:.2}x"
        );
    }

    let mut section = BTreeMap::new();
    section.insert("reps".into(), Json::Number(reps as f64));
    section.insert("v1_container_bytes".into(), Json::Number(v1_bytes as f64));
    section.insert("v2_container_bytes".into(), Json::Number(v2_bytes as f64));
    section.insert("v2_compression_ratio".into(), Json::Number(compression));
    for (name, secs) in [
        ("v1_reader", v1_reader_secs),
        ("v1_mmap", v1_mmap_secs),
        ("v2_serial", v2_serial_secs),
        ("v2_parallel", v2_parallel_secs),
    ] {
        let mut path = BTreeMap::new();
        path.insert("secs".into(), Json::Number(secs));
        path.insert("mpix_per_sec".into(), Json::Number(mpix / secs));
        section.insert(name.into(), Json::Object(path));
    }
    section.insert("speedup_vs_v1_reader".into(), Json::Number(speedup));
    section.insert("floor_speedup".into(), Json::Number(2.0));
    Json::Object(section)
}

/// Benchmarks the multi-session service: a synthetic fleet replayed through
/// `bb-serve`'s scheduler with an admission cap below the fleet size and a
/// memory budget tight enough to force checkpoint eviction, so the numbers
/// cover the expensive paths (spill + resume), not just steady-state
/// streaming. Asserts the soak invariants (nothing failed, nothing leaked,
/// backpressure actually engaged) before reporting throughput.
fn serve_bench(quick: bool) -> Json {
    let config = if quick {
        bb_serve::loadgen::LoadgenConfig {
            sessions: 48,
            concurrency: 16,
            arrivals_per_round: 8,
            frames_per_call: 12,
            chunk: 4,
            width: 48,
            height: 36,
            budget_bytes: 96 * 1024,
            spill_dir: std::env::temp_dir().join("bb_perf_serve_quick"),
            ..Default::default()
        }
    } else {
        bb_serve::loadgen::LoadgenConfig {
            sessions: 1000,
            concurrency: 128,
            arrivals_per_round: 64,
            frames_per_call: 24,
            chunk: 8,
            width: 64,
            height: 48,
            budget_bytes: 2 << 20,
            spill_dir: std::env::temp_dir().join("bb_perf_serve"),
            ..Default::default()
        }
    };
    let report =
        bb_serve::loadgen::run(&config, Telemetry::disabled(), None).expect("loadgen runs");
    assert_eq!(
        report.completed, config.sessions as u64,
        "every synthetic session must complete"
    );
    assert_eq!(report.failed, 0, "no session may fail under load");
    assert_eq!(report.leaked, 0, "no session may leak from the server");
    assert!(report.denied > 0, "admission control must engage");
    assert!(report.evicted > 0, "the budget must force evictions");
    assert!(
        report.peak_live_bytes <= config.budget_bytes,
        "peak footprint {} exceeds the {}-byte budget",
        report.peak_live_bytes,
        config.budget_bytes
    );
    eprintln!(
        "  {} sessions ({} concurrent cap) in {:.2}s: {:.1} sessions/s, \
         {:.2} Mpix/s, {} evictions, {} denials",
        report.completed,
        config.concurrency,
        report.wall_secs,
        report.sessions_per_sec,
        report.aggregate_mpix_per_sec,
        report.evicted,
        report.denied
    );

    let mut section = BTreeMap::new();
    section.insert("sessions".into(), Json::Number(config.sessions as f64));
    section.insert(
        "concurrency".into(),
        Json::Number(config.concurrency as f64),
    );
    section.insert(
        "frames_per_call".into(),
        Json::Number(config.frames_per_call as f64),
    );
    section.insert(
        "budget_bytes".into(),
        Json::Number(config.budget_bytes as f64),
    );
    section.insert("completed".into(), Json::Number(report.completed as f64));
    section.insert("denied".into(), Json::Number(report.denied as f64));
    section.insert("evicted".into(), Json::Number(report.evicted as f64));
    section.insert("resumed".into(), Json::Number(report.resumed as f64));
    section.insert(
        "peak_live_bytes".into(),
        Json::Number(report.peak_live_bytes as f64),
    );
    section.insert("wall_secs".into(), Json::Number(report.wall_secs));
    section.insert(
        "sessions_per_sec".into(),
        Json::Number(report.sessions_per_sec),
    );
    section.insert(
        "aggregate_mpix_per_sec".into(),
        Json::Number(report.aggregate_mpix_per_sec),
    );
    section.insert("mean_rbrr_percent".into(), Json::Number(report.mean_rbrr));
    Json::Object(section)
}

/// Benchmarks the blur-VB attack surface on the pinned workload: the same
/// seeded scenario composited through `VbMode::Blur` (the default privacy
/// mode on real platforms) and reconstructed with deblurred-evidence
/// accumulation (`ReconMode::BlurResidue`) — the exact configuration the
/// sweep runner picks for `blur:R` cells. The recovered RBRR is held to a
/// pinned floor on the full workload; quick runs record but don't gate.
fn blur_recon_bench(gt: &GroundTruth, quick: bool) -> Json {
    use bb_callsim::VbMode;
    use bb_core::pipeline::ReconMode;

    const RADIUS: usize = 2;
    const RBRR_FLOOR: f64 = 10.0;
    let (w, h) = gt.background.dims();
    let call = CallSim::new(gt)
        .vb(VbMode::Blur { radius: RADIUS })
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(SEED)
        .run()
        .expect("blur call composites");
    let config = ReconstructorConfig {
        parallelism: PARALLELISM,
        mode: ReconMode::BlurResidue { radius: RADIUS },
        ..Default::default()
    };
    let started = Instant::now();
    let recon = Reconstructor::new(VbSource::UnknownImage, config)
        .reconstruct(&call.video)
        .expect("blur reconstruction");
    let wall_secs = started.elapsed().as_secs_f64();
    let frames = call.video.len() as f64;
    let rbrr = recon.rbrr();
    eprintln!(
        "  blur radius {RADIUS}: {wall_secs:.2}s wall, {:.1} frames/s, \
         RBRR {rbrr:.2}% (floor {RBRR_FLOOR}%)",
        frames / wall_secs
    );
    if !quick {
        assert!(
            rbrr >= RBRR_FLOOR,
            "blur acceptance: deblurred-evidence reconstruction must recover \
             >= {RBRR_FLOOR}% RBRR on the pinned workload, got {rbrr:.2}%"
        );
    }

    let mut section = BTreeMap::new();
    section.insert("blur_radius".into(), Json::Number(RADIUS as f64));
    section.insert("wall_secs".into(), Json::Number(wall_secs));
    section.insert("frames_per_sec".into(), Json::Number(frames / wall_secs));
    section.insert(
        "mpix_per_sec".into(),
        Json::Number(frames * (w * h) as f64 / 1e6 / wall_secs),
    );
    section.insert("rbrr_percent".into(), Json::Number(rbrr));
    section.insert("floor_rbrr_percent".into(), Json::Number(RBRR_FLOOR));
    Json::Object(section)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let workload = if quick {
        Workload {
            width: 96,
            height: 72,
            frames: 36,
        }
    } else {
        Workload {
            width: 160,
            height: 120,
            frames: 96,
        }
    };

    eprintln!(
        "rendering {}x{} x {} frames (seed {SEED})…",
        workload.width, workload.height, workload.frames
    );
    let (gt, video) = render_call(&workload);

    eprintln!("reconstructing…");
    let recon = run_reconstruction(&video);
    eprintln!(
        "  {:.2}s wall, {:.1} frames/s, RBRR {:.2}%",
        recon.wall_secs, recon.frames_per_sec, recon.rbrr_percent
    );

    let mut scenario = BTreeMap::new();
    scenario.insert("width".into(), Json::Number(workload.width as f64));
    scenario.insert("height".into(), Json::Number(workload.height as f64));
    scenario.insert("frames".into(), Json::Number(workload.frames as f64));
    scenario.insert("seed".into(), Json::Number(SEED as f64));
    scenario.insert("parallelism".into(), Json::Number(PARALLELISM as f64));
    scenario.insert("quick".into(), Json::Bool(quick));

    let workload_mpix = (workload.frames * workload.width * workload.height) as f64 / 1e6;
    // `bbuster report --diff` reads the stage totals at `modes.worker_local`.
    let mut modes = BTreeMap::new();
    modes.insert("worker_local".into(), recon_json(&recon, workload_mpix));

    eprintln!("benchmarking telemetry overhead (off vs sink+journal)…");
    let telemetry_overhead = telemetry_overhead_bench(&video);

    eprintln!("benchmarking the metrics plane (contended hub + end-to-end)…");
    let metrics_plane = metrics_plane_bench(&video);

    eprintln!("benchmarking streaming session vs batch…");
    let streaming = streaming_bench(&video);

    eprintln!("benchmarking container ingest (reader vs mmap vs v2)…");
    let ingest = ingest_bench(&video, quick);

    eprintln!("benchmarking the multi-session service (loadgen fleet)…");
    let serve = serve_bench(quick);

    eprintln!("benchmarking blur-VB reconstruction (deblurred evidence)…");
    let blur = blur_recon_bench(&gt, quick);

    let mut root = BTreeMap::new();
    root.insert(
        "schema".into(),
        Json::String("bb-bench/pipeline-baseline/v1".into()),
    );
    root.insert("scenario".into(), Json::Object(scenario));
    root.insert("modes".into(), Json::Object(modes));
    root.insert("telemetry_overhead".into(), telemetry_overhead);
    root.insert("metrics_plane".into(), metrics_plane);
    root.insert("streaming".into(), streaming);
    root.insert("ingest".into(), ingest);
    root.insert("serve".into(), serve);
    root.insert("blur".into(), blur);
    let text = json::to_pretty_string(&Json::Object(root));
    std::fs::write(&out, format!("{text}\n")).expect("write baseline");
    eprintln!("wrote {out}");
}
