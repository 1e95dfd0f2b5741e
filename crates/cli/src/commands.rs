//! Subcommand implementations.

use crate::args::Flags;
use bb_callsim::{background, CallSim, ProfilePreset, SoftwareProfile, VbMode};
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::session::ReconstructionSession;
use bb_sweep::VbSpec;
use bb_synth::{Action, Lighting, Room, Scenario};
use bb_telemetry::{chrome_trace, Journal, MetricsExporter, MetricsHub, SloRule, Telemetry};
use bb_video::mmap::{ContainerVersion, MmapSource};
use bb_video::VideoStream;
use rand::{rngs::StdRng, SeedableRng};

const HELP: &str = "\
bbuster — peek through virtual backgrounds (Background Buster, DSN 2022)

USAGE:
    bbuster <command> [flags]

COMMANDS:
    synth     render a synthetic call; writes <out>.raw.bbv (ground truth)
              and <out>.call.bbv (virtual background applied)
              flags: --out PREFIX  --action NAME  --frames N  --seed N
                     --width N --height N
                     --profile zoom_like|skype_like|meet_like|teams_like|perfect
                       (--software zoom|skype still accepted)
                     --vb beach|office|space|drifting_clouds|lava_lamp|blur:R
                     --lights-off
                     --format v1|v2 (container; v2 = span-delta compressed)
    encode    convert a .bbv container between format versions
              (input version is auto-detected)
              usage: bbuster encode IN.bbv OUT.bbv --format v1|v2
              flags: --format v1|v2 (default v2)  --stripe N (v2 keyframe
                     interval, default 16)
    attack    reconstruct the real background from a composited call
              flags: --out FILE.ppm  --phi N  --tau N  --unknown-vb
    reconstruct
              like attack, but with an explicit batch/streaming choice and
              checkpoint/resume support; prints a stable `rbrr :` line
              flags: --out FILE.ppm  --phi N  --tau N  --warmup N
                     --checkpoint FILE  --checkpoint-every N  --stop-after N
                     --streaming  --resume  --unknown-vb
              (switches go last: `--streaming call.bbv` would eat the path);
              streaming reads memory-map the container and copy one
              frame at a time out of it (v1 or v2, auto-detected)
    locate    rank the built-in 200-room dictionary against a call
              flags: --top N (default 5)  [same attack flags]
    inspect   print stream metadata for a .bbv file (either container
              version; the `container :` line names which one)
    serve     run a BBWS wire stream through the multi-session service;
              prints `session N : rbrr …` per completed call plus stable
              eviction/throughput lines
              flags: --budget-mb N (default 256)  --max-sessions N
                     --workers N  --spill-dir DIR  --out-dir DIR
                     --phi N --tau N --warmup N  --unknown-vb
              encode: bbuster serve call.bbv --encode OUT.bbws --session N
    loadgen   replay a synthetic fleet through the service (soak test);
              prints one stable `key : value` line per fact, so CI can
              gate on `leaked : 0`
              flags: --sessions N --concurrency N --arrivals N --frames N
                     --chunk N --width N --height N --budget-kb N
                     --workers N --seed N --spill-dir DIR
    sweep     run a scenario x profile x background x attack matrix and
              aggregate RBRR / attack accuracy into one report
              init:  bbuster sweep init --out spec.json [--tiny]
              run:   bbuster sweep run --spec spec.json --out report.json
                       --shard K/N (run slice K of N; emits a shard report)
                       --workers N (cell worker threads, default 1)
              merge: bbuster sweep merge S0.json S1.json... --out report.json
              shard reports merge to a report byte-identical to an unsharded
              run; gate the result with `bbuster report --slo` on the
              --metrics-out snapshot (sweep default rules apply)
    report    summarize a RunReport, or gate on a regression
              summary: bbuster report run.json
              diff:    bbuster report --diff NEW.json BASELINE.json
                         --fail-over-pct N (default 15)  --min-ms N (default 1)
              slo:     bbuster report --slo SNAPSHOT.json [--rules \"R1;R2\"]
                       (gates on a MetricsSnapshot's health block; --rules
                        re-evaluates with an explicit rule list)
              NEW and BASELINE are both RunReport JSON (--telemetry-out).
              Exit code 3 means a stage slowed down past the threshold (or
              the SLO health is failing).
    metrics   live metrics tooling
              watch:   bbuster metrics watch SNAPSHOT.json
                         --interval-ms N (default 1000)  --iterations N (0 =
                         until interrupted); renders a refreshing table from
                         the snapshots a serve/loadgen run exports
    help      this message

    synth/attack/locate/serve/loadgen/sweep-run also accept:
      --telemetry-out FILE.json   per-stage timings, counters, and latency
                                  histograms, written as a RunReport
      --journal-out FILE.jsonl    per-frame structured event journal
      --trace-out FILE.json       Chrome/Perfetto trace (load in ui.perfetto.dev;
                                  one lane per worker thread)
      --metrics-out FILE.json     live MetricsSnapshot (JSON + FILE.prom text
                                  exposition), rewritten atomically on an
                                  interval during serve/loadgen
      --metrics-interval-ms N     export interval (default 1000)
      --slo-rules \"R1;R2\"         override the default serve SLO rules
                                  (grammar: p99:serve/push<=250ms,
                                   ratio:A:B<=X, rate:C<=N/s, total:C<=N,
                                   gauge:G<=X)

EXAMPLES:
    bbuster synth --out demo --action enter-exit --frames 180
    bbuster encode demo.call.bbv demo.v2.bbv --format v2
    bbuster attack demo.call.bbv --out recovered.ppm --trace-out trace.json
    bbuster reconstruct demo.call.bbv --checkpoint ck.bbsc \\
        --checkpoint-every 32 --streaming
    bbuster reconstruct demo.call.bbv --checkpoint ck.bbsc --streaming --resume
    bbuster locate demo.call.bbv --top 5
    bbuster serve demo.call.bbv --encode demo.bbws
    bbuster serve demo.bbws --out-dir recovered/
    bbuster loadgen --sessions 1000 --concurrency 64 --budget-kb 4096 \\
        --metrics-out metrics.json
    bbuster sweep init --out sweep.json
    bbuster sweep run --spec sweep.json --out report.json --workers 4
    bbuster sweep run --spec sweep.json --out shard0.json --shard 0/2
    bbuster sweep merge shard0.json shard1.json --out report.json
    bbuster metrics watch metrics.json
    bbuster report run.json
    bbuster report --diff run.json baseline.json --fail-over-pct 25
    bbuster report --slo metrics.json
";

/// Dispatches a parsed command line and returns the process exit code.
///
/// # Errors
///
/// Returns a human-readable message on any failure (exit code 2).
pub fn dispatch(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv);
    match flags.positional().first().map(String::as_str) {
        Some("synth") => synth(&flags).map(|()| 0),
        Some("encode") => encode_cmd(&flags).map(|()| 0),
        Some("attack") => attack(&flags).map(|()| 0),
        Some("reconstruct") => reconstruct_cmd(&flags).map(|()| 0),
        Some("locate") => locate(&flags).map(|()| 0),
        Some("inspect") => inspect(&flags).map(|()| 0),
        Some("serve") => crate::serve_cmd::serve(&flags).map(|()| 0),
        Some("loadgen") => crate::serve_cmd::loadgen(&flags).map(|()| 0),
        Some("sweep") => crate::sweep_cmd::sweep(&flags),
        Some("report") => crate::report_cmd::report(&flags),
        Some("metrics") => crate::metrics_cmd::metrics(&flags),
        Some("help") | None => {
            print!("{HELP}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other:?}; try `bbuster help`")),
    }
}

/// Where a run's observability artifacts go (all optional).
#[derive(Debug, Default)]
pub(crate) struct ObservabilityOut {
    report: Option<String>,
    journal: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    metrics_interval_ms: u64,
}

impl ObservabilityOut {
    /// A periodic snapshot exporter for `--metrics-out`, when requested.
    pub(crate) fn metrics_exporter(&self) -> Option<MetricsExporter> {
        self.metrics.as_ref().map(|path| {
            MetricsExporter::new(
                path,
                std::time::Duration::from_millis(self.metrics_interval_ms),
            )
        })
    }
}

/// Builds the run's [`Telemetry`] handle from the output flags: the sink is
/// enabled by `--telemetry-out`, `--trace-out` (the trace needs stage
/// spans), or `--metrics-out`; a journal is attached whenever
/// `--journal-out` or `--trace-out` asks for per-event data; and
/// `--metrics-out` additionally attaches a live [`bb_telemetry::MetricsHub`]
/// carrying the default serve SLO rules (overridable with `--slo-rules`,
/// a `;`-separated rule list).
///
/// # Errors
///
/// Rejects valueless output flags instead of silently writing nothing, and
/// malformed `--slo-rules`.
pub(crate) fn telemetry_from(flags: &Flags) -> Result<(Telemetry, ObservabilityOut), String> {
    telemetry_with_default_rules(flags, bb_telemetry::metrics::default_serve_rules)
}

/// [`telemetry_from`] with an explicit default SLO rule set — `sweep run`
/// installs `default_sweep_rules` instead of the serve rules.
pub(crate) fn telemetry_with_default_rules(
    flags: &Flags,
    default_rules: fn() -> Vec<SloRule>,
) -> Result<(Telemetry, ObservabilityOut), String> {
    for key in ["telemetry-out", "journal-out", "trace-out", "metrics-out"] {
        if flags.has(key) && flags.get(key).is_none() {
            return Err(format!("--{key} requires a file path"));
        }
    }
    let out = ObservabilityOut {
        report: flags.get("telemetry-out").map(str::to_string),
        journal: flags.get("journal-out").map(str::to_string),
        trace: flags.get("trace-out").map(str::to_string),
        metrics: flags.get("metrics-out").map(str::to_string),
        metrics_interval_ms: flags.get_num("metrics-interval-ms", 1000u64)?,
    };
    let mut telemetry = if out.report.is_some() || out.trace.is_some() || out.metrics.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    if out.journal.is_some() || out.trace.is_some() {
        telemetry = telemetry.with_journal(Journal::default());
    }
    if out.metrics.is_some() {
        let hub = MetricsHub::new();
        let rules = match flags.get("slo-rules") {
            Some(text) => SloRule::parse_list(text).map_err(|e| format!("--slo-rules: {e}"))?,
            None => default_rules(),
        };
        hub.set_rules(rules);
        telemetry = telemetry.with_metrics(hub);
    }
    Ok((telemetry, out))
}

/// Writes whichever observability artifacts were requested.
pub(crate) fn flush_telemetry(telemetry: &Telemetry, out: ObservabilityOut) -> Result<(), String> {
    if let Some(path) = &out.report {
        std::fs::write(path, telemetry.report().to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} (telemetry report)");
    }
    let events = telemetry.journal().map(|j| j.events()).unwrap_or_default();
    if let Some(path) = &out.journal {
        let journal = telemetry
            .journal()
            .expect("journal attached by telemetry_from");
        std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {path} (event journal, {} events{})",
            events.len(),
            if journal.dropped() > 0 {
                format!(", {} dropped", journal.dropped())
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = &out.trace {
        let trace = chrome_trace(&telemetry.report(), &events);
        std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} (Chrome trace; open in ui.perfetto.dev)");
    }
    if let Some(path) = &out.metrics {
        // Final snapshot so the file always reflects the finished run, even
        // when the interval never elapsed mid-run.
        let mut exporter = out
            .metrics_exporter()
            .expect("metrics path implies an exporter");
        let snapshot = exporter.export_now(telemetry)?;
        println!(
            "wrote {path} (metrics snapshot seq {}, health {})",
            snapshot.seq,
            snapshot.health.state.as_str()
        );
    }
    Ok(())
}

/// Resolves a `--vb` value: a catalog identifier (`beach`,
/// `drifting_clouds`, …) or `blur:R` for the blur compositor.
fn vb_by_name(name: &str, w: usize, h: usize) -> Result<VbMode, String> {
    Ok(name.parse::<VbSpec>()?.mode(w, h))
}

/// Resolves a `--profile`/`--software` value into a [`SoftwareProfile`].
/// The pre-catalog shorthands `zoom`/`skype` stay accepted.
fn profile_by_name(name: &str) -> Result<SoftwareProfile, String> {
    let preset = match name {
        "zoom" => ProfilePreset::ZoomLike,
        "skype" => ProfilePreset::SkypeLike,
        other => other.parse::<ProfilePreset>()?,
    };
    Ok(SoftwareProfile::preset(preset))
}

/// Parses a `--format` flag into a container version (default `v1` for
/// `synth` compatibility; `encode` overrides the default to `v2`).
fn format_by_name(name: &str) -> Result<ContainerVersion, String> {
    match name {
        "v1" => Ok(ContainerVersion::V1),
        "v2" => Ok(ContainerVersion::V2),
        other => Err(format!("unknown container format {other:?} (v1|v2)")),
    }
}

/// Saves a stream in the requested container version.
fn save_stream(
    video: &bb_video::VideoStream,
    path: &str,
    format: ContainerVersion,
    stripe: usize,
) -> Result<(), String> {
    match format {
        ContainerVersion::V1 => bb_video::io::save(video, path),
        ContainerVersion::V2 => bb_video::v2::save(video, path, stripe),
    }
    .map_err(|e| format!("{path}: {e}"))
}

/// `bbuster encode`: converts a `.bbv` container between format versions.
/// The input version is auto-detected; re-encoding to the same version is a
/// valid (if pointless) normalization pass.
fn encode_cmd(flags: &Flags) -> Result<(), String> {
    let input = flags.positional().get(1).ok_or("missing input .bbv file")?;
    let output = flags
        .positional()
        .get(2)
        .ok_or("missing output .bbv file")?;
    let format = format_by_name(flags.get_or("format", "v2"))?;
    let stripe: usize = flags.get_num("stripe", bb_video::v2::DEFAULT_STRIPE)?;
    if stripe == 0 {
        return Err("--stripe must be at least 1".into());
    }
    let video = load_bbv(input)?;
    save_stream(&video, output, format, stripe)?;
    let in_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    let out_bytes = std::fs::metadata(output).map_err(|e| e.to_string())?.len();
    println!(
        "wrote {output} ({} frames, {:?}, {out_bytes} bytes, {:.2}x vs input)",
        video.len(),
        format,
        in_bytes as f64 / out_bytes.max(1) as f64
    );
    Ok(())
}

fn synth(flags: &Flags) -> Result<(), String> {
    let out = flags.get_or("out", "bbuster");
    let frames: usize = flags.get_num("frames", 150)?;
    let seed: u64 = flags.get_num("seed", 42)?;
    let width: usize = flags.get_num("width", 160)?;
    let height: usize = flags.get_num("height", 120)?;
    let action: Action = flags.get_or("action", "arm-waving").parse()?;
    let lighting = if flags.has("lights-off") {
        Lighting::Off
    } else {
        Lighting::On
    };
    let software = profile_by_name(
        flags
            .get("profile")
            .or_else(|| flags.get("software"))
            .unwrap_or("zoom_like"),
    )?;
    let vb = vb_by_name(flags.get_or("vb", "beach"), width, height)?;
    let format = format_by_name(flags.get_or("format", "v1"))?;

    let room = Room::sample(seed, width, height, 5, &mut StdRng::seed_from_u64(seed));
    let scenario = Scenario {
        action,
        lighting,
        width,
        height,
        frames,
        seed,
        ..Scenario::baseline(room)
    };
    let (telemetry, telemetry_out) = telemetry_from(flags)?;
    let gt = {
        let _span = telemetry.time("synth/render");
        scenario.render().map_err(|e| e.to_string())?
    };
    let call = CallSim::new(&gt)
        .vb(vb)
        .profile(software)
        .lighting(lighting)
        .seed(seed)
        .telemetry(&telemetry)
        .run()
        .map_err(|e| e.to_string())?;

    let raw_path = format!("{out}.raw.bbv");
    let call_path = format!("{out}.call.bbv");
    let stripe = bb_video::v2::DEFAULT_STRIPE;
    save_stream(&gt.video, &raw_path, format, stripe)?;
    save_stream(&call.video, &call_path, format, stripe)?;
    let bg_path = format!("{out}.background.ppm");
    bb_imaging::io::save_ppm(&gt.background, &bg_path).map_err(|e| e.to_string())?;
    println!("wrote {raw_path} ({} frames, ground truth)", gt.video.len());
    println!(
        "wrote {call_path} ({} frames, virtual background applied)",
        call.video.len()
    );
    println!("wrote {bg_path} (true background)");
    flush_telemetry(&telemetry, telemetry_out)
}

/// Loads a whole `.bbv` file of either container version through the batch
/// loader, [`bb_core::ingest::load_video`], decoding v2 stripes on the
/// default reconstruction worker count.
pub(crate) fn load_bbv(path: &str) -> Result<VideoStream, String> {
    let workers = ReconstructorConfig::default().parallelism;
    bb_core::ingest::load_video(path, workers, &Telemetry::disabled()).map_err(|e| match e {
        // Report file faults as `path: i/o error: …`, without the core
        // layer's `video error:` prefix.
        bb_core::CoreError::Video(e) => format!("{path}: {e}"),
        e => format!("{path}: {e}"),
    })
}

fn load_call(flags: &Flags) -> Result<VideoStream, String> {
    let path = flags.positional().get(1).ok_or("missing input .bbv file")?;
    load_bbv(path)
}

/// The reconstruction config and VB source every reconstructing command
/// (`reconstruct`, `attack`, `locate`, `serve`) builds from `--tau`,
/// `--phi`, `--warmup` and `--unknown-vb` for `w × h` frames. φ defaults to
/// `h / 24` (at least 2). The config is validated here, so a degenerate
/// value such as `--phi 0` fails the same way on every command.
pub(crate) fn reconstructor_from(
    flags: &Flags,
    w: usize,
    h: usize,
) -> Result<(VbSource, ReconstructorConfig), String> {
    let config = ReconstructorConfig {
        tau: flags.get_num("tau", 14u8)?,
        phi: flags.get_num("phi", (h / 24).max(2))?,
        warmup_frames: flags.get_num("warmup", bb_core::pipeline::DEFAULT_WARMUP_FRAMES)?,
        ..Default::default()
    };
    config.validate().map_err(|e| e.to_string())?;
    let source = if flags.has("unknown-vb") {
        VbSource::UnknownImage
    } else {
        VbSource::KnownImages(background::catalog_images(w, h))
    };
    Ok((source, config))
}

fn reconstruct(
    flags: &Flags,
    telemetry: &Telemetry,
) -> Result<bb_core::pipeline::Reconstruction, String> {
    let video = load_call(flags)?;
    let (w, h) = video.dims();
    let (source, config) = reconstructor_from(flags, w, h)?;
    Reconstructor::new(source, config)
        .with_telemetry(telemetry.clone())
        .reconstruct(&video)
        .map_err(|e| e.to_string())
}

/// Writes a session checkpoint atomically (tmp + rename) so an interrupt
/// mid-write never leaves a truncated checkpoint behind.
fn write_checkpoint(path: &str, session: &ReconstructionSession) -> Result<(), String> {
    let bytes = session.checkpoint();
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("{tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "checkpoint {path} ({} bytes at frame {})",
        bytes.len(),
        session.frames_seen()
    );
    Ok(())
}

/// `bbuster reconstruct`: the attack pipeline with an explicit streaming
/// mode. `--streaming` memory-maps the `.bbv` (v1 or v2, auto-detected)
/// through [`MmapSource`] — each frame is copied once out of the mapping —
/// and pushes them into a [`ReconstructionSession`]; `--checkpoint FILE`
/// with `--checkpoint-every N` persists resumable state as it goes,
/// `--stop-after N` interrupts deterministically (for drills and tests), and
/// `--resume` picks up from the checkpoint, skipping the frames it already
/// processed. Batch and streaming print identical `rbrr :` lines for the
/// same input.
fn reconstruct_cmd(flags: &Flags) -> Result<(), String> {
    let (telemetry, telemetry_out) = telemetry_from(flags)?;
    if !flags.has("streaming") {
        let result = reconstruct(flags, &telemetry)?;
        println!("rbrr : {:.4}%", result.rbrr());
        if let Some(out) = flags.get("out") {
            bb_imaging::io::save_ppm(&result.background, out).map_err(|e| e.to_string())?;
            println!("wrote {out}");
        }
        return flush_telemetry(&telemetry, telemetry_out);
    }

    let path = flags.positional().get(1).ok_or("missing input .bbv file")?;
    let mut reader = MmapSource::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (w, h) = reader.dims();
    let (source, config) = reconstructor_from(flags, w, h)?;
    let recon = Reconstructor::new(source, config).with_telemetry(telemetry.clone());

    let ck_path = flags.get("checkpoint").map(str::to_string);
    let ck_every: usize = flags.get_num("checkpoint-every", 0usize)?;
    let stop_after: usize = flags.get_num("stop-after", 0usize)?;

    let mut session = if flags.has("resume") {
        let p = ck_path
            .as_deref()
            .ok_or("--resume requires --checkpoint FILE")?;
        let bytes = std::fs::read(p).map_err(|e| format!("{p}: {e}"))?;
        let session = recon.resume_session(&bytes).map_err(|e| e.to_string())?;
        let skipped = reader.skip_frames(session.frames_seen());
        if skipped != session.frames_seen() {
            return Err(format!(
                "checkpoint is ahead of the stream: {} frames checkpointed, {skipped} available",
                session.frames_seen()
            ));
        }
        println!("resumed at frame {}", session.frames_seen());
        session
    } else {
        recon.session()
    };

    while let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
        session.push_frame(&frame).map_err(|e| e.to_string())?;
        if ck_every > 0 && session.frames_seen() % ck_every == 0 {
            if let Some(p) = &ck_path {
                write_checkpoint(p, &session)?;
            }
        }
        if stop_after > 0 && session.frames_seen() >= stop_after {
            let p = ck_path
                .as_deref()
                .ok_or("--stop-after requires --checkpoint FILE")?;
            write_checkpoint(p, &session)?;
            println!(
                "stopped after frame {} (resume with --resume)",
                session.frames_seen()
            );
            return flush_telemetry(&telemetry, telemetry_out);
        }
    }

    let frames = session.frames_seen();
    let result = session.finalize().map_err(|e| e.to_string())?;
    println!("frames : {frames}");
    println!("rbrr : {:.4}%", result.rbrr());
    if let Some(out) = flags.get("out") {
        bb_imaging::io::save_ppm(&result.background, out).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    flush_telemetry(&telemetry, telemetry_out)
}

fn attack(flags: &Flags) -> Result<(), String> {
    let (telemetry, telemetry_out) = telemetry_from(flags)?;
    let result = reconstruct(flags, &telemetry)?;
    let out = flags.get_or("out", "recovered.ppm");
    bb_imaging::io::save_ppm(&result.background, out).map_err(|e| e.to_string())?;
    println!("recovered {:.1}% of the frame", result.rbrr());
    println!("wrote {out}");
    flush_telemetry(&telemetry, telemetry_out)
}

fn locate(flags: &Flags) -> Result<(), String> {
    let (telemetry, telemetry_out) = telemetry_from(flags)?;
    let result = reconstruct(flags, &telemetry)?;
    let top: usize = flags.get_num("top", 5)?;
    let (w, h) = result.background.dims();
    let data = bb_datasets::DatasetConfig {
        width: w,
        height: h,
        ..bb_datasets::DatasetConfig::default()
    };
    eprintln!(
        "building the {}-room dictionary…",
        bb_datasets::DICTIONARY_SIZE
    );
    let dictionary = bb_attacks::LocationDictionary::new(bb_datasets::dictionary(&data))
        .map_err(|e| e.to_string())?;
    let attack = bb_attacks::LocationInference::default();
    let ranking = attack
        .rank(
            &result.background,
            &result.recovered,
            &dictionary,
            &telemetry,
        )
        .map_err(|e| e.to_string())?;
    println!("top {top} candidate rooms:");
    for (i, (label, score)) in ranking.ranked.iter().take(top).enumerate() {
        println!("  {}. {label} (similarity {score:.3})", i + 1);
    }
    flush_telemetry(&telemetry, telemetry_out)
}

fn inspect(flags: &Flags) -> Result<(), String> {
    let path = flags.positional().get(1).ok_or("missing input .bbv file")?;
    let container = MmapSource::open(path)
        .map(|s| match s.version() {
            ContainerVersion::V1 => "BBV1 (raw)",
            ContainerVersion::V2 => "BBV2 (span deltas)",
        })
        .map_err(|e| format!("{path}: {e}"))?;
    let video = load_call(flags)?;
    let (w, h) = video.dims();
    println!("container  : {container}");
    println!("resolution : {w}x{h}");
    println!("frames     : {}", video.len());
    println!("fps        : {}", video.fps());
    println!("duration   : {:.2}s", video.duration_secs());
    let d = bb_video::delta::total_displacement(&video, 12).map_err(|e| e.to_string())?;
    println!("displacement over stream: {d:.1}%");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<i32, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_always_succeeds() {
        assert!(run(&["help"]).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn action_lookup() {
        // `--action` parses before synth writes anything.
        let err = run(&["synth", "--action", "moonwalk"]).unwrap_err();
        assert!(
            err.contains("unknown action") && err.contains("arm-waving"),
            "{err}"
        );
    }

    #[test]
    fn vb_lookup() {
        assert!(vb_by_name("beach", 8, 6).is_ok());
        assert!(vb_by_name("drifting_clouds", 8, 6).is_ok());
        assert!(matches!(
            vb_by_name("blur:3", 8, 6),
            Ok(VbMode::Blur { radius: 3 })
        ));
        assert!(vb_by_name("blur:0", 8, 6).is_err());
        assert!(vb_by_name("blur:127", 8, 6).is_ok());
        assert!(vb_by_name("blur:128", 8, 6).is_err());
        assert!(vb_by_name("matrix", 8, 6).is_err());
    }

    #[test]
    fn profile_lookup() {
        for name in ["zoom", "skype", "zoom_like", "meet_like", "teams-like"] {
            assert!(profile_by_name(name).is_ok(), "{name} must resolve");
        }
        assert!(profile_by_name("webex").is_err());
    }

    #[test]
    fn synth_attack_inspect_round_trip() {
        let dir = std::env::temp_dir().join("bbuster_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("t").to_string_lossy().to_string();
        run(&[
            "synth", "--out", &prefix, "--frames", "24", "--width", "64", "--height", "48",
            "--action", "clapping",
        ])
        .expect("synth");
        let call = format!("{prefix}.call.bbv");
        let out = dir.join("rec.ppm").to_string_lossy().to_string();
        let report = dir.join("report.json").to_string_lossy().to_string();
        let journal = dir.join("journal.jsonl").to_string_lossy().to_string();
        let trace = dir.join("trace.json").to_string_lossy().to_string();
        run(&[
            "attack",
            &call,
            "--out",
            &out,
            "--phi",
            "2",
            "--telemetry-out",
            &report,
            "--journal-out",
            &journal,
            "--trace-out",
            &trace,
        ])
        .expect("attack");
        assert!(std::path::Path::new(&out).exists());
        // The telemetry report must be valid RunReport JSON with the
        // pipeline's stages (and their latency histograms) present.
        let json = std::fs::read_to_string(&report).expect("telemetry report written");
        let parsed = bb_telemetry::RunReport::from_json(&json).expect("valid report");
        assert!(parsed.stages.contains_key("reconstruct"));
        assert!(parsed.counters.contains_key("frames/input"));
        assert!(parsed.stage_quantile("reconstruct", 0.99).is_some());
        // The journal holds one parseable event per frame (plus spans) and
        // ends with the summary trailer.
        let jsonl = std::fs::read_to_string(&journal).expect("journal written");
        let frame_events = jsonl
            .lines()
            .filter_map(|l| bb_telemetry::JournalEvent::from_json_line(l).ok())
            .filter(|e| e.stage == "reconstruct/frame")
            .count();
        assert_eq!(frame_events, 24);
        assert!(jsonl.lines().last().unwrap().contains("journal_summary"));
        // The trace parses as JSON and has per-lane thread metadata.
        let trace_text = std::fs::read_to_string(&trace).expect("trace written");
        bb_telemetry::json::parse(&trace_text).expect("trace is valid JSON");
        assert!(trace_text.contains("thread_name"));
        // Summarizing the report succeeds; diffing it against itself is a
        // zero-regression pass. The call is small enough that an optimized
        // build finishes every stage under the default 1 ms floor.
        assert_eq!(run(&["report", &report]).unwrap(), 0);
        assert_eq!(
            run(&["report", "--diff", &report, &report, "--min-ms", "0"]).unwrap(),
            0
        );
        run(&["inspect", &call]).expect("inspect");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a report whose stage totals are `scale` × the baseline's, for
    /// pinning the diff exit codes.
    fn scaled_report(base: &bb_telemetry::RunReport, scale: f64) -> bb_telemetry::RunReport {
        let mut r = base.clone();
        for stats in r.stages.values_mut() {
            stats.total_ns = (stats.total_ns as f64 * scale) as u64;
            stats.min_ns = (stats.min_ns as f64 * scale) as u64;
            stats.max_ns = (stats.max_ns as f64 * scale) as u64;
        }
        r
    }

    #[test]
    fn report_diff_exit_codes_are_pinned() {
        let dir = std::env::temp_dir().join("bbuster_cli_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = Telemetry::enabled();
        t.record_duration("reconstruct", std::time::Duration::from_millis(100));
        t.record_duration("reconstruct/pass1", std::time::Duration::from_millis(40));
        let base_report = t.report();
        let write = |name: &str, r: &bb_telemetry::RunReport| {
            let p = dir.join(name).to_string_lossy().to_string();
            std::fs::write(&p, r.to_json()).unwrap();
            p
        };
        let baseline = write("base.json", &base_report);
        let improved = write("improved.json", &scaled_report(&base_report, 0.8));
        let slight = write("slight.json", &scaled_report(&base_report, 1.05));
        let regressed = write("regressed.json", &scaled_report(&base_report, 1.5));

        // Improvement and within-threshold runs exit 0.
        assert_eq!(run(&["report", "--diff", &improved, &baseline]).unwrap(), 0);
        assert_eq!(
            run(&[
                "report",
                "--diff",
                &slight,
                &baseline,
                "--fail-over-pct",
                "15"
            ])
            .unwrap(),
            0
        );
        // A regression past the threshold exits with the pinned code 3.
        assert_eq!(
            run(&[
                "report",
                "--diff",
                &regressed,
                &baseline,
                "--fail-over-pct",
                "15"
            ])
            .unwrap(),
            crate::report_cmd::EXIT_REGRESSION
        );
        // Tightening the threshold flips the borderline run to a failure.
        assert_eq!(
            run(&[
                "report",
                "--diff",
                &slight,
                &baseline,
                "--fail-over-pct",
                "2"
            ])
            .unwrap(),
            3
        );
        // A baseline stage of 0 ns has no ratio: with no floor it is
        // skipped, not reported as an infinite slowdown.
        let stage_report = |idle_ns: u64| {
            let t = Telemetry::enabled();
            t.record_duration("reconstruct", std::time::Duration::from_millis(100));
            t.record_duration("reconstruct/idle", std::time::Duration::from_nanos(idle_ns));
            t.report()
        };
        let zero_base = write("zero_base.json", &stage_report(0));
        let idle_new = write("idle_new.json", &stage_report(1_000));
        assert_eq!(
            run(&["report", "--diff", &idle_new, &zero_base, "--min-ms", "0"]).unwrap(),
            0
        );
        // Unreadable inputs are hard errors (exit 2 at the binary level).
        assert!(run(&["report", "--diff", "/nonexistent.json", &baseline]).is_err());
        assert!(run(&["report"]).is_err());
        // The baseline is required and must itself be a RunReport: the
        // old perf-baseline schema (no `version`) is rejected by name.
        assert!(run(&["report", "--diff", &slight]).is_err());
        let bench_schema = dir.join("bench.json").to_string_lossy().to_string();
        std::fs::write(
            &bench_schema,
            r#"{"modes": {"worker_local": {"stages": {}}}}"#,
        )
        .unwrap();
        let err = run(&["report", "--diff", &slight, &bench_schema]).unwrap_err();
        assert!(err.contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_slo_gate_exit_codes_are_pinned() {
        let dir = std::env::temp_dir().join("bbuster_cli_slo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hub = MetricsHub::new();
        hub.set_rules(SloRule::parse_list("total:sessions/opened<=100").unwrap());
        let telemetry = Telemetry::enabled().with_metrics(hub.clone());
        telemetry.add("sessions/opened", 6);
        let ok_path = dir.join("ok.json").to_string_lossy().to_string();
        std::fs::write(&ok_path, hub.snapshot().to_json()).unwrap();
        // Healthy embedded verdict passes.
        assert_eq!(run(&["report", "--slo", &ok_path]).unwrap(), 0);
        // Re-evaluating with a tighter ceiling injects a violation: the
        // pinned regression code, same as the latency diff gate.
        assert_eq!(
            run(&[
                "report",
                "--slo",
                &ok_path,
                "--rules",
                "total:sessions/opened<=1"
            ])
            .unwrap(),
            crate::report_cmd::EXIT_REGRESSION
        );
        // A snapshot whose baked-in health is failing gates without --rules.
        hub.set_rules(SloRule::parse_list("total:sessions/opened<=1").unwrap());
        let bad_path = dir.join("bad.json").to_string_lossy().to_string();
        std::fs::write(&bad_path, hub.snapshot().to_json()).unwrap();
        assert_eq!(
            run(&["report", "--slo", &bad_path]).unwrap(),
            crate::report_cmd::EXIT_REGRESSION
        );
        // Unreadable snapshots and bad rule grammar are hard errors.
        assert!(run(&["report", "--slo", "/nonexistent.json"]).is_err());
        assert!(run(&["report", "--slo", &ok_path, "--rules", "p42:x<=1"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_interrupt_and_resume_match_uninterrupted_run() {
        let dir = std::env::temp_dir().join("bbuster_cli_stream_test");
        std::fs::remove_dir_all(&dir).ok(); // stale state from an aborted run
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("s").to_string_lossy().to_string();
        run(&[
            "synth", "--out", &prefix, "--frames", "30", "--width", "64", "--height", "48",
            "--action", "clapping",
        ])
        .expect("synth");
        let call = format!("{prefix}.call.bbv");
        let ck = dir.join("state.bbsc").to_string_lossy().to_string();
        let straight = dir.join("straight.ppm").to_string_lossy().to_string();
        let resumed = dir.join("resumed.ppm").to_string_lossy().to_string();

        // Uninterrupted streaming run.
        run(&[
            "reconstruct",
            &call,
            "--phi",
            "2",
            "--warmup",
            "12",
            "--out",
            &straight,
            "--streaming",
        ])
        .expect("uninterrupted streaming run");

        // Interrupted run: checkpoint every 8 frames, stop at 20…
        run(&[
            "reconstruct",
            &call,
            "--phi",
            "2",
            "--warmup",
            "12",
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "8",
            "--stop-after",
            "20",
            "--streaming",
        ])
        .expect("interrupted streaming run");
        assert!(std::path::Path::new(&ck).exists(), "checkpoint written");
        assert!(
            !std::path::Path::new(&resumed).exists(),
            "interrupted run must not produce output"
        );

        // …then resume and finish.
        run(&[
            "reconstruct",
            &call,
            "--phi",
            "2",
            "--warmup",
            "12",
            "--checkpoint",
            &ck,
            "--out",
            &resumed,
            "--streaming",
            "--resume",
        ])
        .expect("resumed streaming run");

        // Batch run with the same warmup window (the lock point decides the
        // reference; only identical windows are byte-comparable).
        let batch = dir.join("batch.ppm").to_string_lossy().to_string();
        run(&[
            "reconstruct",
            &call,
            "--phi",
            "2",
            "--warmup",
            "12",
            "--out",
            &batch,
        ])
        .expect("batch run");

        let straight_bytes = std::fs::read(&straight).unwrap();
        let resumed_bytes = std::fs::read(&resumed).unwrap();
        let batch_bytes = std::fs::read(&batch).unwrap();
        assert_eq!(
            straight_bytes, resumed_bytes,
            "interrupt + resume diverged from the uninterrupted run"
        );
        assert_eq!(straight_bytes, batch_bytes, "streaming diverged from batch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_container_round_trips_through_encode_and_streaming_resume() {
        // The whole drill again, but on a BBV2 container produced by
        // `encode`: synth v1 → convert → interrupt → resume, and the
        // recovered backgrounds must match the v1 run byte for byte.
        let dir = std::env::temp_dir().join("bbuster_cli_v2_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("s").to_string_lossy().to_string();
        run(&[
            "synth", "--out", &prefix, "--frames", "30", "--width", "64", "--height", "48",
            "--action", "clapping",
        ])
        .expect("synth");
        let v1_call = format!("{prefix}.call.bbv");
        let v2_call = format!("{prefix}.call.v2.bbv");
        run(&["encode", &v1_call, &v2_call, "--format", "v2"]).expect("encode v2");
        assert!(
            std::fs::metadata(&v2_call).unwrap().len() < std::fs::metadata(&v1_call).unwrap().len(),
            "v2 container must be smaller than raw v1 on synthetic content"
        );
        // Converting back to v1 reproduces the original container exactly.
        let v1_back = format!("{prefix}.call.back.bbv");
        run(&["encode", &v2_call, &v1_back, "--format", "v1"]).expect("encode back");
        assert_eq!(
            std::fs::read(&v1_call).unwrap(),
            std::fs::read(&v1_back).unwrap(),
            "v1 → v2 → v1 must be lossless"
        );
        run(&["inspect", &v2_call]).expect("inspect v2");

        let ck = dir.join("state.bbsc").to_string_lossy().to_string();
        let args = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = ["reconstruct", &v2_call, "--phi", "2", "--warmup", "12"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        let v1_out = dir.join("v1.ppm").to_string_lossy().to_string();
        run(&[
            "reconstruct",
            &v1_call,
            "--phi",
            "2",
            "--warmup",
            "12",
            "--out",
            &v1_out,
            "--streaming",
        ])
        .expect("v1 streaming run");
        dispatch(&args(&[
            "--checkpoint",
            &ck,
            "--stop-after",
            "20",
            "--streaming",
        ]))
        .expect("interrupted v2 run");
        let resumed = dir.join("resumed.ppm").to_string_lossy().to_string();
        dispatch(&args(&[
            "--checkpoint",
            &ck,
            "--out",
            &resumed,
            "--streaming",
            "--resume",
        ]))
        .expect("resumed v2 run");
        assert_eq!(
            std::fs::read(&v1_out).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "v2 interrupt + resume diverged from the v1 streaming run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encode_rejects_bad_arguments() {
        assert!(run(&["encode"]).is_err());
        assert!(run(&["encode", "/nonexistent.bbv"]).is_err());
        assert!(run(&["encode", "/nonexistent.bbv", "/tmp/out.bbv"]).is_err());
        let dir = std::env::temp_dir().join("bbuster_cli_encode_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("e").to_string_lossy().to_string();
        run(&[
            "synth", "--out", &prefix, "--frames", "4", "--width", "16", "--height", "12",
        ])
        .expect("synth");
        let call = format!("{prefix}.call.bbv");
        let out = format!("{prefix}.out.bbv");
        assert!(run(&["encode", &call, &out, "--format", "v3"]).is_err());
        assert!(run(&["encode", &call, &out, "--stripe", "0"]).is_err());
        // A stripe past the v2 header's u32 field would be truncated on
        // write and leave a file no reader accepts.
        let err = run(&["encode", &call, &out, "--stripe", "4294967297"]).unwrap_err();
        assert!(err.contains("stripe"), "{err}");
        assert!(!std::path::Path::new(&out).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degenerate_config_flags_fail_on_every_reconstructing_command() {
        let dir = std::env::temp_dir().join("bbuster_cli_config_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("c").to_string_lossy().to_string();
        run(&[
            "synth", "--out", &prefix, "--frames", "12", "--width", "48", "--height", "36",
        ])
        .expect("synth");
        let call = format!("{prefix}.call.bbv");
        let stream = format!("{prefix}.bbws");
        run(&["serve", &call, "--encode", &stream]).expect("encode");
        let out = format!("{prefix}.ppm");
        let commands: [&[&str]; 5] = [
            &["reconstruct", &call],
            &["reconstruct", &call, "--streaming"],
            &["attack", &call, "--out", &out],
            &["locate", &call],
            &["serve", &stream],
        ];
        for bad in [["--phi", "0"], ["--warmup", "0"]] {
            for command in commands {
                let args = [command, &bad].concat();
                let err = run(&args).expect_err(&format!("{args:?} must fail"));
                assert!(err.starts_with("invalid configuration"), "{args:?}: {err}");
            }
        }
        assert!(!std::path::Path::new(&out).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_checkpoint_flag_errors() {
        assert!(run(&["reconstruct", "/nonexistent.bbv", "--streaming"]).is_err());
    }

    #[test]
    fn attack_missing_file_errors() {
        assert!(run(&["attack", "/nonexistent.bbv"]).is_err());
        assert!(run(&["attack"]).is_err());
    }
}
