//! `bbuster metrics`: live metrics tooling over exported
//! [`MetricsSnapshot`] files.
//!
//! `watch` polls the JSON snapshot a `serve`/`loadgen` run rewrites on its
//! `--metrics-interval-ms` cadence and renders a refreshing terminal table:
//! session occupancy, push latency quantiles, throughput, RBRR,
//! evictions, journal drops, and the SLO health block. Reads tolerate the
//! file being momentarily absent or torn mid-rotation (the exporter writes
//! tmp+rename, so a well-formed file is the steady state).

use crate::args::Flags;
use crate::report_cmd::{fmt_bp, fmt_ns};
use bb_telemetry::{HealthState, MetricsSnapshot};

/// Entry point for `bbuster metrics …`.
///
/// # Errors
///
/// Returns a message on an unknown subcommand or missing arguments.
pub fn metrics(flags: &Flags) -> Result<i32, String> {
    match flags.positional().get(1).map(String::as_str) {
        Some("watch") => watch(flags),
        Some(other) => Err(format!("unknown metrics subcommand {other:?} (watch)")),
        None => Err("metrics: missing subcommand (watch PATH)".into()),
    }
}

/// `bbuster metrics watch PATH`: poll and render snapshots until
/// interrupted (or for `--iterations N` refreshes when given, which is how
/// tests and CI bound the loop).
fn watch(flags: &Flags) -> Result<i32, String> {
    let path = flags
        .positional()
        .get(2)
        .ok_or("metrics watch: missing the snapshot path")?;
    let interval_ms: u64 = flags.get_num("interval-ms", 1000u64)?;
    let iterations: u64 = flags.get_num("iterations", 0u64)?;
    let clear = !flags.has("no-clear") && iterations != 1;

    let mut shown = 0u64;
    let mut last_seq = None;
    let mut misses = 0u32;
    loop {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| MetricsSnapshot::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(snapshot) => {
                misses = 0;
                if clear {
                    // Clear screen + home, so the table refreshes in place.
                    print!("\x1b[2J\x1b[H");
                }
                render(path, &snapshot, last_seq);
                last_seq = Some(snapshot.seq);
                shown += 1;
                if iterations > 0 && shown >= iterations {
                    return Ok(0);
                }
            }
            Err(e) => {
                // Transient absence/rotation races are expected while the
                // producer is starting up; persistent failure is an error.
                misses += 1;
                if misses >= 10 {
                    return Err(format!("metrics watch: {path}: {e}"));
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn render(path: &str, snap: &MetricsSnapshot, last_seq: Option<u64>) {
    let stale = last_seq == Some(snap.seq);
    println!(
        "metrics watch — {path}  (seq {}{}, t +{:.1}s, window {:.0}s)",
        snap.seq,
        if stale { ", stale" } else { "" },
        snap.t_ms as f64 / 1000.0,
        snap.spec.window_secs(),
    );
    println!(
        "health : {}{}",
        snap.health.state.as_str(),
        match snap.health.state {
            HealthState::Ok => "",
            HealthState::Degraded => "  ⚠",
            HealthState::Failing => "  ✗",
        }
    );
    println!();
    println!("  {:<26} {:>14} {:>14}", "metric", "instant", "window");

    let gauge = |name: &str| snap.gauges.get(name).copied();
    row(
        "sessions active",
        gauge("serve/sessions_active").map(|v| format!("{v:.0}")),
        gauge("serve/sessions_live").map(|v| format!("{v:.0} live")),
    );
    row(
        "budget pressure",
        gauge("serve/budget_pressure").map(|v| format!("{:.1}%", v * 100.0)),
        gauge("serve/live_bytes").map(fmt_bytes),
    );
    let push = snap.hists.get("serve/push");
    row(
        "push p50",
        push.map(|h| fmt_ns(h.p50)),
        push.filter(|h| h.window.count > 0)
            .map(|h| fmt_ns(h.window.p50)),
    );
    row(
        "push p99",
        push.map(|h| fmt_ns(h.p99)),
        push.filter(|h| h.window.count > 0)
            .map(|h| fmt_ns(h.window.p99)),
    );
    row(
        "push rounds/s",
        push.map(|h| format!("{}", h.count)),
        push.map(|h| format!("{:.1}/s", h.window.rate_per_sec)),
    );
    let pixel_rate = snap
        .counters
        .get("serve/pixels")
        .or_else(|| snap.counters.get("session/pixels"));
    row(
        "served Mpix/s",
        gauge("ingest/mpix_per_sec").map(|v| format!("{v:.2} ingest")),
        pixel_rate.map(|c| format!("{:.2}", c.rate_per_sec / 1e6)),
    );
    let rbrr = snap.hists.get("serve/session/rbrr_bp");
    row(
        "RBRR p50 (close)",
        rbrr.map(|h| fmt_bp(h.p50)),
        rbrr.filter(|h| h.window.count > 0)
            .map(|h| fmt_bp(h.window.p50)),
    );
    let counter = |name: &str| snap.counters.get(name);
    row(
        "evictions",
        counter("sessions/evicted").map(|c| format!("{}", c.total)),
        counter("sessions/evicted").map(|c| format!("{:.1}/s", c.rate_per_sec)),
    );
    row(
        "sessions closed",
        counter("sessions/closed").map(|c| format!("{}", c.total)),
        counter("sessions/closed").map(|c| format!("{:.1}/s", c.rate_per_sec)),
    );
    row(
        "journal dropped",
        gauge("journal/dropped").map(|v| format!("{v:.0}")),
        None,
    );

    if !snap.health.rules.is_empty() {
        println!();
        println!("  {:<44} {:>9} {:>9}", "slo rule", "burn", "state");
        for rule in &snap.health.rules {
            println!(
                "  {:<44} {:>8.2}x {:>9}",
                rule.rule,
                rule.burn,
                rule.state.as_str()
            );
        }
    }
}

fn row(label: &str, instant: Option<String>, window: Option<String>) {
    println!(
        "  {:<26} {:>14} {:>14}",
        label,
        instant.unwrap_or_else(|| "-".into()),
        window.unwrap_or_else(|| "-".into())
    );
}

fn fmt_bytes(bytes: f64) -> String {
    if bytes >= 1024.0 * 1024.0 {
        format!("{:.1}MiB", bytes / (1024.0 * 1024.0))
    } else if bytes >= 1024.0 {
        format!("{:.1}KiB", bytes / 1024.0)
    } else {
        format!("{bytes:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use crate::commands::dispatch;
    use bb_telemetry::{MetricsHub, SloRule, Telemetry};

    fn run(args: &[&str]) -> Result<i32, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn watch_renders_an_exported_snapshot() {
        let dir = std::env::temp_dir().join("bbuster_metrics_watch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json").to_string_lossy().to_string();
        let hub = MetricsHub::new();
        hub.set_rules(SloRule::parse_list("total:sessions/opened<=100").unwrap());
        let telemetry = Telemetry::enabled().with_metrics(hub);
        telemetry.add("sessions/opened", 4);
        telemetry.set_gauge("serve/sessions_active", 2.0);
        let mut exporter = bb_telemetry::MetricsExporter::new(&path, std::time::Duration::ZERO);
        exporter.export_now(&telemetry).unwrap();
        assert_eq!(
            run(&["metrics", "watch", &path, "--iterations", "1"]).unwrap(),
            0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_rejects_bad_invocations() {
        assert!(run(&["metrics"]).is_err());
        assert!(run(&["metrics", "nope"]).is_err());
        assert!(run(&["metrics", "watch"]).is_err());
        // A persistently missing file errors out instead of spinning.
        assert!(run(&[
            "metrics",
            "watch",
            "/nonexistent/m.json",
            "--interval-ms",
            "1",
            "--iterations",
            "1"
        ])
        .is_err());
    }
}
