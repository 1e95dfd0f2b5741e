//! The batch workloads, `vga_call` and `blur_call`: one recorded call,
//! reconstructed end to end again and again.
//!
//! The untraced call is exactly what a user runs: `load_video` (for the
//! file-backed call) then `Reconstructor::reconstruct`. The traced replay
//! drives the same stages through their public functions — reference
//! resolution, segmenter fit, `vb_mask`/`bb_mask`, the caller color model,
//! `vc_mask_with_model`, `deblur_box` and canvas accumulation — on
//! `run_stage` at the same worker count, following the session's
//! warmup/lock split, and must reproduce the untraced digest bit for bit.

use crate::check::{self, Output};
use crate::stats::{median, quantile, residual, spread, tail_quantile};
use crate::{host, repeat_setup, Outcome, RunConfig, Scale, Spans, Workload};
use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VbMode};
use bb_core::bbmask::bb_mask;
use bb_core::ingest::load_video;
use bb_core::pipeline::{ReconMode, Reconstruction, Reconstructor, ReconstructorConfig, VbSource};
use bb_core::recon::ReconstructionCanvas;
use bb_core::vbmask::{vb_mask, VirtualReference};
use bb_core::vcmask::{vc_mask_with_model, CallerColorModel};
use bb_core::workers::{effective_workers, run_stage};
use bb_core::{CoreError, DEBLUR_ITERATIONS};
use bb_imaging::{Frame, Mask, Rgb};
use bb_segment::PersonSegmenter;
use bb_synth::{Action, Lighting, Room, Scenario};
use bb_telemetry::Telemetry;
use bb_video::stream::STANDARD_FPS;
use bb_video::VideoStream;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The blur VB's box radius, composited and inverted alike.
pub const BLUR_RADIUS: usize = 2;

/// The least RBRR blur-residue reconstruction must recover, in percent
/// (the floor `perf_baseline` holds the same path to).
pub const BLUR_RBRR_FLOOR: f64 = 10.0;

/// Set-up repeats at least this often and this long; `setup_s` is the
/// median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 1.0;

/// Which batch call, at which size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// `true` for `blur_call`.
    pub blur: bool,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frames in the call.
    pub frames: usize,
}

impl Spec {
    /// The geometry of `workload` at `scale`.
    ///
    /// # Panics
    ///
    /// On `serve_fleet`, which is not a batch workload.
    pub fn new(workload: Workload, scale: Scale) -> Spec {
        let blur = match workload {
            Workload::VgaCall => false,
            Workload::BlurCall => true,
            Workload::ServeFleet => panic!("serve_fleet is not a batch workload"),
        };
        // vga_call runs past the 128-frame warmup so the post-lock block
        // runs too; blur_call stays inside it and locks at finalize.
        let (width, height, frames) = match (scale, blur) {
            (Scale::Full, false) => (640, 480, 160),
            (Scale::Full, true) => (640, 480, 64),
            (Scale::Tiny, false) => (64, 48, 136),
            (Scale::Tiny, true) => (64, 48, 16),
        };
        Spec {
            blur,
            width,
            height,
            frames,
        }
    }

    fn config(&self, parallelism: usize) -> ReconstructorConfig {
        if self.blur {
            ReconstructorConfig {
                parallelism,
                mode: ReconMode::BlurResidue {
                    radius: BLUR_RADIUS,
                },
                ..Default::default()
            }
        } else {
            // φ scales with the frame: 20 at the paper's 480-line calibration.
            ReconstructorConfig {
                phi: (self.height / 24).max(2),
                parallelism,
                ..Default::default()
            }
        }
    }

    fn reconstructor(&self, parallelism: usize) -> Reconstructor {
        let source = if self.blur {
            VbSource::UnknownImage
        } else {
            VbSource::KnownImages(background::catalog_images(self.width, self.height))
        };
        Reconstructor::new(source, self.config(parallelism))
    }
}

/// The call a batch workload reconstructs.
pub enum Input {
    /// A BBV v2 container on disk (`vga_call`).
    File {
        /// Container path.
        path: PathBuf,
        /// Container size.
        bytes: u64,
    },
    /// A composited call in memory (`blur_call`).
    Memory(VideoStream),
}

/// The room every batch call is filmed in. The room sets how much
/// background can leak at all (blur RBRR ranges 14–44% across sampled
/// rooms), so it stays fixed and the workload seed draws the call's sensor
/// noise and compositor error instead; otherwise the spread between seeds
/// would be scene content, not measurement.
pub const ROOM_SEED: u64 = check::DEFAULT_SEED;

/// Renders the scene with the seed's noise, composites it behind the
/// workload's VB, and for `vga_call` encodes it to a BBV v2 file at `path`.
///
/// # Errors
///
/// Render, composite or encode failures.
pub fn setup(spec: &Spec, seed: u64, path: &Path) -> Result<Input, String> {
    let (w, h) = (spec.width, spec.height);
    let room = Room::sample(ROOM_SEED, w, h, 5, &mut StdRng::seed_from_u64(ROOM_SEED));
    let gt = Scenario {
        action: Action::ArmWaving,
        width: w,
        height: h,
        frames: spec.frames,
        seed,
        ..Scenario::baseline(room)
    }
    .render()
    .map_err(|e| format!("scenario render: {e}"))?;
    let vb: VbMode = if spec.blur {
        VbMode::Blur {
            radius: BLUR_RADIUS,
        }
    } else {
        BackgroundId::Beach.realize(w, h).into()
    };
    let call = CallSim::new(&gt)
        .vb(vb)
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(seed)
        .run()
        .map_err(|e| format!("composite: {e}"))?;
    if spec.blur {
        return Ok(Input::Memory(call.video));
    }
    bb_video::v2::save(&call.video, path, bb_video::v2::DEFAULT_STRIPE)
        .map_err(|e| format!("encode {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok(Input::File {
        path: path.to_path_buf(),
        bytes,
    })
}

/// The untraced operation: file (or memory) to final background.
///
/// # Errors
///
/// Ingest or reconstruction failures.
pub fn call(input: &Input, reconstructor: &Reconstructor) -> Result<Reconstruction, CoreError> {
    match input {
        Input::File { path, .. } => {
            let config = reconstructor.config();
            let video = load_video(path, config.parallelism, &Telemetry::disabled())?;
            reconstructor.reconstruct(&video)
        }
        Input::Memory(video) => reconstructor.reconstruct(video),
    }
}

/// One traced replay: its output, wall time, per-layer self times, pixel
/// counts and the worker count each stage ran at.
#[derive(Debug, Default)]
pub struct Replay {
    /// The replay's output; must equal the untraced call's.
    pub output: Output,
    /// Traced wall time.
    pub wall: f64,
    /// Per-layer self times.
    pub spans: Spans,
    /// Pixel counts and worker counts by metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

/// The models fitted at the lock, and the canvas the blocks feed.
struct Locked<'a> {
    reference: VirtualReference,
    segmenter: PersonSegmenter,
    model: Option<CallerColorModel>,
    canvas: ReconstructionCanvas,
    retained: Vec<Mask>,
    config: &'a ReconstructorConfig,
}

/// Replays the call stage by stage with a span around each layer.
///
/// # Errors
///
/// Ingest or stage failures.
pub fn replay(input: &Input, reconstructor: &Reconstructor) -> Result<Replay, CoreError> {
    let config = reconstructor.config();
    let mut r = Replay::default();
    let started = Instant::now();
    let loaded;
    let video = match input {
        Input::File { path, .. } => {
            loaded = r.spans.time("ingest.busy_s", || {
                load_video(path, config.parallelism, &Telemetry::disabled())
            })?;
            &loaded
        }
        Input::Memory(video) => video,
    };
    let (w, h) = video.dims();
    // The session buffers copies of the warmup window and locks over them:
    // at the window's last frame, or at finalize for a shorter call.
    let lock_n = video.len().min(config.warmup_frames);
    let window = r.spans.time("lock.buffer_s", || {
        VideoStream::from_frames(video.frames()[..lock_n].to_vec(), STANDARD_FPS)
    })?;
    let reference = r.spans.time("lock.reference_s", || match config.mode {
        ReconMode::ColorResidue => reconstructor.resolve_reference(&window),
        ReconMode::BlurResidue { .. } => Ok(VirtualReference::Image {
            image: Frame::new(w, h),
            valid: Mask::new(w, h),
        }),
    })?;
    let segmenter = r
        .spans
        .time("lock.segmenter_fit_s", || PersonSegmenter::fit(&window));
    let mut locked = Locked {
        reference,
        segmenter,
        model: None,
        canvas: ReconstructionCanvas::new(w, h),
        retained: Vec::new(),
        config,
    };
    process_block(&mut r, &mut locked, window.frames(), 0, true)?;
    process_block(
        &mut r,
        &mut locked,
        &video.frames()[lock_n..],
        lock_n,
        false,
    )?;
    let (background, recovered) = r.spans.time("accumulate.busy_s", || {
        (
            locked.canvas.to_frame(Rgb::BLACK),
            locked.canvas.recovered_mask(),
        )
    });
    r.wall = started.elapsed().as_secs_f64();
    r.output = Output::of(&background, &recovered);
    r.counts
        .insert("accumulate.recovered_px", recovered.count_set() as f64);
    Ok(r)
}

/// One block of frames through pass1, the color model (at the lock only),
/// pass2, deblur (blur residue only) and accumulation — the session's
/// per-block stage order.
fn process_block(
    r: &mut Replay,
    locked: &mut Locked<'_>,
    frames: &[Frame],
    base: usize,
    fit_model: bool,
) -> Result<(), CoreError> {
    let n = frames.len();
    if n == 0 {
        return Ok(());
    }
    let config = locked.config;
    let off = Telemetry::disabled();
    let workers = effective_workers(config.parallelism, n);
    let reference = &locked.reference;
    let (vbms, removeds, candidates) = r.spans.time("pass1.busy_s", || {
        let pass1 = run_stage(n, workers, config.collect_mode, &off, "pass1", |i| {
            let (ref_frame, ref_valid) = reference.for_frame(base + i);
            let vbm = vb_mask(&frames[i], ref_frame, ref_valid, config.tau)?;
            let removed = vbm.union(&bb_mask(&vbm, config.phi))?;
            Ok((vbm, removed))
        })?;
        let (vbms, removeds): (Vec<Mask>, Vec<Mask>) = pass1.into_iter().unzip();
        let candidates: Vec<Mask> = removeds.iter().map(Mask::complement).collect();
        Ok::<_, CoreError>((vbms, removeds, candidates))
    })?;
    if fit_model {
        locked.model = r.spans.time("color_model.fit_s", || {
            let pairs: Vec<(&Frame, &Mask)> = frames.iter().zip(candidates.iter()).collect();
            CallerColorModel::fit(&pairs, config.vc.refine_bits)
        });
    }
    let segmenter = &locked.segmenter;
    let model = locked.model.as_ref();
    let leaks = r.spans.time("pass2.busy_s", || {
        run_stage(n, workers, config.collect_mode, &off, "pass2", |i| {
            let vc = vc_mask_with_model(segmenter, &frames[i], &candidates[i], &config.vc, model);
            Ok(candidates[i].subtract(&vc.vcm)?)
        })
    })?;
    let deblurred = match config.mode {
        ReconMode::ColorResidue => None,
        ReconMode::BlurResidue { radius } => Some(r.spans.time("deblur.busy_s", || {
            run_stage(n, workers, config.collect_mode, &off, "deblur", |i| {
                Ok(bb_imaging::filter::deblur_box(
                    &frames[i],
                    radius,
                    DEBLUR_ITERATIONS,
                ))
            })
        })?),
    };
    r.spans.time("accumulate.busy_s", || {
        for (i, leak) in leaks.iter().enumerate() {
            let evidence = deblurred.as_ref().map_or(&frames[i], |d| &d[i]);
            locked.canvas.accumulate(evidence, leak)?;
        }
        Ok::<_, CoreError>(())
    })?;
    let px = |masks: &[Mask]| masks.iter().map(Mask::count_set).sum::<usize>() as f64;
    *r.counts.entry("pass1.vbm_px").or_default() += px(&vbms);
    *r.counts.entry("pass1.removed_px").or_default() += px(&removeds);
    *r.counts.entry("pass2.leak_px").or_default() += px(&leaks);
    let mut stages = vec!["workers.effective.pass1", "workers.effective.pass2"];
    if deblurred.is_some() {
        stages.push("workers.effective.deblur");
    }
    for stage in stages {
        let most = r.counts.entry(stage).or_default();
        *most = most.max(workers as f64);
    }
    // The session keeps every per-frame mask (`MaskRetention::Full`, the
    // default) until its output is dropped; so does the replay.
    locked.retained.extend(vbms);
    locked.retained.extend(removeds);
    locked.retained.extend(leaks);
    Ok(())
}

/// Runs `vga_call` or `blur_call` as `config` says.
///
/// # Errors
///
/// Set-up failures, or a reference reconstruction that fails.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let spec = Spec::new(config.workload, config.scale);
    let nproc = host::nproc();
    let path = config.work_dir.join("call.bbv");
    let (input, setup_times) = repeat_setup(SETUP_MIN_REPS, SETUP_MIN_SECS, || {
        setup(&spec, config.seed, &path)
    })?;
    let reconstructor = spec.reconstructor(nproc);
    let pin = check::pinned(
        config.workload.name(),
        config.seed,
        config.scale == Scale::Full,
    );
    let pinned = pin.is_some();
    let expected = match pin {
        Some(pin) => pin,
        // Outside the timed region: the same input through one worker.
        None => {
            let recon = call(&input, &spec.reconstructor(1))
                .map_err(|e| format!("1-worker reference reconstruction: {e}"))?;
            Output::of(&recon.background, &recon.recovered)
        }
    };

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let check = |outcome: &mut Outcome, result: Result<Output, CoreError>, what: &str| {
        outcome.attempted += 1;
        match result {
            Ok(out) if spec.blur && out.rbrr < BLUR_RBRR_FLOOR => outcome.fail(format_args!(
                "{what} RBRR {} is below the {BLUR_RBRR_FLOOR}% blur floor",
                out.rbrr
            )),
            Ok(out) if out == expected => {}
            Ok(out) => outcome.fail(format_args!(
                "{what} output {:#018x} / RBRR {} differs from expected {:#018x} / {}",
                out.digest, out.rbrr, expected.digest, expected.rbrr
            )),
            Err(e) => outcome.fail(format_args!("{what}: {e}")),
        }
    };

    let mpix = (spec.width * spec.height * spec.frames) as f64 / 1e6;
    let mut untraced = Vec::new();
    let mut replays = Vec::new();
    let started = Instant::now();
    while untraced.is_empty() || started.elapsed().as_secs_f64() < config.seconds {
        let t = Instant::now();
        let result = call(&input, &reconstructor);
        untraced.push(t.elapsed().as_secs_f64());
        let result = result.map(|recon| Output::of(&recon.background, &recon.recovered));
        check(&mut outcome, result, "call");
        if config.trace {
            match replay(&input, &reconstructor) {
                Ok(rep) => {
                    if rep.output != expected {
                        eprintln!(
                            "bb-benchmark: the traced replay diverged from reconstruct(); \
                             its timings describe a different program"
                        );
                    }
                    check(&mut outcome, Ok(rep.output), "replay");
                    replays.push(rep);
                }
                Err(e) => check(&mut outcome, Err(e), "replay"),
            }
        }
    }

    let workers = |stages: usize| effective_workers(nproc, stages) as f64;
    let ingest_workers = match &input {
        Input::File { .. } => workers(spec.frames.div_ceil(bb_video::v2::DEFAULT_STRIPE)),
        Input::Memory(_) => 0.0,
    };
    outcome.stamp("width", spec.width);
    outcome.stamp("output_digest", format!("{:#018x}", expected.digest));
    outcome.stamp("pinned", if pinned { "yes" } else { "no" });
    outcome.stamp("height", spec.height);
    outcome.stamp("frames", spec.frames);
    outcome.stamp("parallelism", nproc);
    outcome.stamp("warmup_frames", reconstructor.config().warmup_frames);
    outcome.stamp("effective_workers_ingest", ingest_workers);
    let lock_n = spec.frames.min(reconstructor.config().warmup_frames);
    outcome.stamp("effective_workers_lock_block", workers(lock_n));
    outcome.stamp(
        "effective_workers_post_lock_block",
        if spec.frames > lock_n {
            workers(spec.frames - lock_n)
        } else {
            0.0
        },
    );
    outcome.stamp("scheduler_workers", 0usize);
    outcome.stamp("calls", untraced.len());
    outcome.stamp("setup_reps", setup_times.len());
    let tail = tail_quantile(untraced.len());
    outcome.stamp("call_tail_quantile", tail);
    outcome.stamp("call_iqr_share", spread(&untraced).unwrap_or(0.0));

    let m = &mut outcome.metrics;
    if !config.trace {
        m.insert("setup_s", median(&setup_times));
        m.insert("call_p50_s", median(&untraced));
        m.insert("call_p99_s", quantile(&untraced, tail));
        m.insert("mpix_per_s", mpix / median(&untraced));
        m.insert("rbrr_pct", expected.rbrr);
        return Ok(outcome);
    }

    for &(name, _) in crate::PER_LAYER {
        m.insert(name, 0.0);
    }
    let layer = |name: &str| -> Vec<f64> {
        replays
            .iter()
            .map(|r| r.spans.totals().get(name).copied().unwrap_or(0.0))
            .collect()
    };
    if let Some(first) = replays.first() {
        // Every replay runs the same stages, so the first names them all.
        for &name in first.spans.totals().keys() {
            m.insert(name, median(&layer(name)));
        }
        for (name, v) in &first.counts {
            m.insert(name, *v);
        }
        let leak = first.counts.get("pass2.leak_px").copied().unwrap_or(0.0);
        let recovered = first
            .counts
            .get("accumulate.recovered_px")
            .copied()
            .unwrap_or(0.0);
        if leak > 0.0 {
            m.insert("accumulate.recovered_per_leak", recovered / leak);
        }
    }
    if let Input::File { bytes, .. } = &input {
        m.insert("ingest.container_bytes", *bytes as f64);
        let busy = median(&layer("ingest.busy_s"));
        if busy > 0.0 {
            m.insert("ingest.mpix_per_s", mpix / busy);
        }
        m.insert("workers.effective.ingest", ingest_workers);
    }
    let residuals: Vec<f64> = replays
        .iter()
        .map(|r| {
            residual(
                r.wall,
                &r.spans.totals().values().copied().collect::<Vec<_>>(),
            )
        })
        .collect();
    m.insert("unattributed_s", median(&residuals));
    let traced_walls: Vec<f64> = replays.iter().map(|r| r.wall).collect();
    m.insert(
        "trace.overhead_pct",
        (median(&traced_walls) / median(&untraced) - 1.0) * 100.0,
    );
    Ok(outcome)
}
