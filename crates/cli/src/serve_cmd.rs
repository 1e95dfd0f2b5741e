//! `bbuster serve` and `bbuster loadgen`: the multi-session service layer
//! on the command line.
//!
//! `serve` feeds a BBWS wire stream (see [`bb_serve::wire`]) through a
//! [`ReconServer`], printing one stable `session N : rbrr …` line per
//! completed call; `--encode` converts a `.bbv` recording into that wire
//! format so the two commands compose into a full offline round trip.
//! `loadgen` replays a synthetic fleet at configurable concurrency and
//! prints the stable `key : value` lines the CI soak job gates on.

use crate::args::Flags;
use crate::commands::{flush_telemetry, reconstructor_from, telemetry_from};
use bb_core::pipeline::Reconstructor;
use bb_serve::loadgen::{self, LoadgenConfig};
use bb_serve::server::{ReconServer, ServeConfig};
use bb_serve::wire::{self, Message, WireDecoder};

const MIB: usize = 1 << 20;

/// Builds the server configuration shared by `serve` from its flags.
fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    let spill_dir = match flags.get("spill-dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("bbuster-spill-{}", std::process::id())),
    };
    Ok(ServeConfig {
        budget_bytes: flags.get_num("budget-mb", 256usize)? * MIB,
        max_sessions: flags.get_num("max-sessions", 4096usize)?,
        scheduler_workers: flags.get_num("workers", 0usize)?,
        ..ServeConfig::new(spill_dir)
    })
}

/// `bbuster serve`: run a BBWS wire stream through the reconstruction
/// service. With `--encode OUT.bbws` the input is a `.bbv` call instead and
/// is converted to a single-session wire stream.
///
/// # Errors
///
/// Human-readable message on I/O failures, malformed wire input, or a
/// session-level reconstruction failure.
pub fn serve(flags: &Flags) -> Result<(), String> {
    let (telemetry, telemetry_out) = telemetry_from(flags)?;
    let path = flags
        .positional()
        .get(1)
        .ok_or("missing input file (a .bbws stream, or a .bbv with --encode)")?;

    if let Some(out) = flags.get("encode") {
        let video = crate::commands::load_bbv(path)?;
        let session: u64 = flags.get_num("session", 0u64)?;
        let bytes = wire::encode_call(session, &video);
        std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
        println!(
            "wrote {out} ({} bytes, session {session}, {} frames)",
            bytes.len(),
            video.len()
        );
        return Ok(());
    }

    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    // The candidate set (and phi default) need the track geometry, which the
    // stream's first Open fixes. Mixed-geometry streams work with
    // --unknown-vb; with known candidates they are sized to the first call.
    let mut peek = WireDecoder::new(&bytes).map_err(|e| e.to_string())?;
    let (w, h) = match peek.next_message().map_err(|e| e.to_string())? {
        Some(Message::Open { width, height, .. }) => (width, height),
        _ => return Err("wire stream must start with an Open message".into()),
    };
    let (source, config) = reconstructor_from(flags, w, h)?;
    let prototype = Reconstructor::new(source, config);
    let mut server = ReconServer::new(prototype, serve_config(flags)?)
        .map_err(|e| e.to_string())?
        .with_telemetry(telemetry.clone());
    if let Some(exporter) = telemetry_out.metrics_exporter() {
        server = server.with_metrics_exporter(exporter);
    }

    let completed = server.serve_wire(&bytes).map_err(|e| e.to_string())?;
    server.export_metrics_now();
    for (id, recon) in &completed {
        println!("session {id} : rbrr {:.4}%", recon.rbrr());
        if let Some(dir) = flags.get("out-dir") {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            let out = format!("{dir}/session-{id}.ppm");
            bb_imaging::io::save_ppm(&recon.background, &out).map_err(|e| e.to_string())?;
            println!("wrote {out}");
        }
    }
    let stats = server.stats();
    println!("sessions : {}", stats.closed);
    println!("evicted : {}", stats.evicted);
    println!("resumed : {}", stats.resumed);
    println!("failed : {}", stats.failed);
    println!("frames : {}", stats.frames_served);
    println!("open_at_eof : {}", server.session_count());
    println!(
        "peak_live_mb : {:.2}",
        stats.peak_live_bytes as f64 / MIB as f64
    );
    flush_telemetry(&telemetry, telemetry_out)
}

/// `bbuster loadgen`: replay a synthetic fleet through the server and print
/// the soak report. Every line is `key : value`, one fact per line, so CI
/// can gate on `leaked : 0` and friends with a grep.
///
/// # Errors
///
/// Human-readable message on bad flags or server-level I/O failures.
pub fn loadgen(flags: &Flags) -> Result<(), String> {
    let (telemetry, telemetry_out) = telemetry_from(flags)?;
    let defaults = LoadgenConfig::default();
    let config = LoadgenConfig {
        sessions: flags.get_num("sessions", defaults.sessions)?,
        concurrency: flags.get_num("concurrency", defaults.concurrency)?,
        arrivals_per_round: flags.get_num("arrivals", defaults.arrivals_per_round)?,
        frames_per_call: flags.get_num("frames", defaults.frames_per_call)?,
        chunk: flags.get_num("chunk", defaults.chunk)?,
        width: flags.get_num("width", defaults.width)?,
        height: flags.get_num("height", defaults.height)?,
        budget_bytes: flags.get_num("budget-kb", defaults.budget_bytes / 1024)? * 1024,
        scheduler_workers: flags.get_num("workers", defaults.scheduler_workers)?,
        seed: flags.get_num("seed", defaults.seed)?,
        spill_dir: match flags.get("spill-dir") {
            Some(dir) => std::path::PathBuf::from(dir),
            None => std::env::temp_dir().join(format!("bbuster-loadgen-{}", std::process::id())),
        },
    };
    let started = std::time::Instant::now();
    let report = loadgen::run(&config, telemetry.clone(), telemetry_out.metrics_exporter())
        .map_err(|e| e.to_string())?;
    // Every fact line carries elapsed seconds since the soak started, so the
    // output can be correlated with the metrics snapshots' `t_ms` timeline.
    let line = |key: &str, value: String| {
        println!("{key} : {value} @ {:.3}s", started.elapsed().as_secs_f64());
    };
    line("sessions", config.sessions.to_string());
    line("completed", report.completed.to_string());
    line("failed", report.failed.to_string());
    line("denied", report.denied.to_string());
    line("evicted", report.evicted.to_string());
    line("resumed", report.resumed.to_string());
    line("leaked", report.leaked.to_string());
    line(
        "peak_live_mb",
        format!("{:.3}", report.peak_live_bytes as f64 / MIB as f64),
    );
    line("frames", report.frames.to_string());
    line("wall_secs", format!("{:.3}", report.wall_secs));
    line(
        "sessions_per_sec",
        format!("{:.1}", report.sessions_per_sec),
    );
    line(
        "aggregate_mpix_per_sec",
        format!("{:.3}", report.aggregate_mpix_per_sec),
    );
    line("mean_rbrr", format!("{:.4}%", report.mean_rbrr));
    flush_telemetry(&telemetry, telemetry_out)
}

#[cfg(test)]
mod tests {
    use crate::commands::dispatch;

    fn run(args: &[&str]) -> Result<i32, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn synth_encode_serve_round_trip() {
        let dir = std::env::temp_dir().join("bbuster_cli_serve_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("s").to_string_lossy().to_string();
        run(&[
            "synth", "--out", &prefix, "--frames", "24", "--width", "64", "--height", "48",
            "--action", "clapping",
        ])
        .expect("synth");
        let call = format!("{prefix}.call.bbv");
        let stream = dir.join("call.bbws").to_string_lossy().to_string();
        run(&["serve", &call, "--encode", &stream, "--session", "7"]).expect("encode");
        assert!(std::path::Path::new(&stream).exists());

        let out_dir = dir.join("out").to_string_lossy().to_string();
        let spill = dir.join("spill").to_string_lossy().to_string();
        run(&[
            "serve",
            &stream,
            "--phi",
            "2",
            "--out-dir",
            &out_dir,
            "--spill-dir",
            &spill,
        ])
        .expect("serve");
        assert!(
            std::path::Path::new(&format!("{out_dir}/session-7.ppm")).exists(),
            "served session must write its background"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_small_fleet_runs() {
        let dir = std::env::temp_dir().join("bbuster_cli_loadgen_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("spill").to_string_lossy().to_string();
        let report = dir.join("report.json").to_string_lossy().to_string();
        run(&[
            "loadgen",
            "--sessions",
            "6",
            "--concurrency",
            "3",
            "--arrivals",
            "2",
            "--frames",
            "10",
            "--chunk",
            "5",
            "--width",
            "48",
            "--height",
            "36",
            "--budget-kb",
            "64",
            "--spill-dir",
            &spill,
            "--telemetry-out",
            &report,
        ])
        .expect("loadgen");
        // The telemetry report carries the serve-layer counters.
        let json = std::fs::read_to_string(&report).unwrap();
        let parsed = bb_telemetry::RunReport::from_json(&json).unwrap();
        assert_eq!(parsed.counters.get("sessions/opened"), Some(&6));
        assert_eq!(parsed.counters.get("sessions/closed"), Some(&6));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_garbage_streams() {
        let dir = std::env::temp_dir().join("bbuster_cli_serve_garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.bbws").to_string_lossy().to_string();
        std::fs::write(&bad, b"NOT A WIRE STREAM").unwrap();
        assert!(run(&["serve", &bad]).is_err());
        assert!(run(&["serve"]).is_err());
        assert!(run(&["loadgen", "--sessions", "nope"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
