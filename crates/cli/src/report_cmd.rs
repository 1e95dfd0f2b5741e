//! The `report` subcommand: summarize a RunReport, or diff two runs and
//! gate on regressions.
//!
//! Summary mode prints the stage tree (with each stage's share of its
//! parent), histogram quantiles where present, and the counter table.
//!
//! Diff mode (`--diff NEW.json BASELINE.json`) compares the per-stage
//! totals of two RunReports and exits with code [`EXIT_REGRESSION`] when
//! any shared stage slowed down by more than `--fail-over-pct`.
//!
//! SLO mode (`--slo SNAPSHOT.json`) gates on a MetricsSnapshot's health
//! block.

use crate::args::Flags;
use bb_telemetry::{HealthState, MetricsSnapshot, RunReport, SloRule};

/// Exit code for "the new run regressed past the threshold".
pub const EXIT_REGRESSION: i32 = 3;

/// Entry point for `bbuster report …`.
///
/// # Errors
///
/// Returns a message on unreadable/unparseable inputs or missing arguments.
pub fn report(flags: &Flags) -> Result<i32, String> {
    if flags.get("slo").is_some() || flags.has("slo") {
        slo_gate(flags)
    } else if flags.get("diff").is_some() || flags.has("diff") {
        diff(flags)
    } else {
        summarize(flags)
    }
}

/// `bbuster report --slo SNAPSHOT.json [--rules "R1;R2"]`: gates on a
/// [`MetricsSnapshot`]'s health block. With `--rules` the snapshot is
/// re-evaluated against the given rule list instead of the embedded one.
/// `failing` exits [`EXIT_REGRESSION`]; `degraded` warns but passes.
fn slo_gate(flags: &Flags) -> Result<i32, String> {
    let path = flags
        .get("slo")
        .map(str::to_string)
        .or_else(|| flags.positional().get(1).cloned())
        .ok_or("report --slo requires a MetricsSnapshot path")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let snapshot = MetricsSnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let health = match flags.get("rules") {
        Some(rules_text) => {
            let rules = SloRule::parse_list(rules_text).map_err(|e| format!("--rules: {e}"))?;
            snapshot.evaluate_health(&rules)
        }
        None => snapshot.health.clone(),
    };
    println!(
        "slo gate — {path} (snapshot seq {}, t +{:.1}s)",
        snapshot.seq,
        snapshot.t_ms as f64 / 1000.0
    );
    if health.rules.is_empty() {
        println!("no SLO rules in the snapshot (pass --rules to evaluate some)");
    }
    for rule in &health.rules {
        println!(
            "  {:<44} value {:>12.2}  burn {:>7.2}x  {}",
            rule.rule,
            rule.value,
            rule.burn,
            rule.state.as_str()
        );
    }
    match health.state {
        HealthState::Failing => {
            println!("SLO VIOLATION: health is failing");
            Ok(EXIT_REGRESSION)
        }
        HealthState::Degraded => {
            println!("warning: health is degraded (within ceilings, burn ≥ 80%)");
            Ok(0)
        }
        HealthState::Ok => {
            println!("ok: health is ok");
            Ok(0)
        }
    }
}

fn load_report(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------- summary

fn summarize(flags: &Flags) -> Result<i32, String> {
    let path = flags
        .positional()
        .get(1)
        .ok_or("report: missing a report JSON file (or --diff NEW BASELINE)")?;
    let report = load_report(path)?;
    println!("run report — {path}");

    if !report.meta.is_empty() {
        println!("\nmeta:");
        for (k, v) in &report.meta {
            println!("  {k} = {v}");
        }
    }

    if !report.stages.is_empty() {
        println!("\nstages:");
        println!(
            "  {:<40} {:>12} {:>7} {:>7}  quantiles",
            "stage", "total", "share", "calls"
        );
        for (name, stats) in &report.stages {
            // Indent under the longest *present* ancestor stage; stages with
            // no recorded ancestor (e.g. `workers/pass1/busy`) print their
            // full path at the top level instead of a bare leaf.
            let mut depth = 0usize;
            let mut label = name.as_str();
            let mut prefix = name.as_str();
            while let Some((parent, _)) = prefix.rsplit_once('/') {
                if report.stages.contains_key(parent) {
                    depth += 1;
                    if label.len() == name.len() {
                        label = &name[parent.len() + 1..];
                    }
                }
                prefix = parent;
            }
            let indent = "  ".repeat(depth);
            let share = parent_share(&report, name, stats.total_ns);
            // Histograms under a `_bp` suffix store basis points, not
            // nanoseconds (e.g. per-session RBRR recorded at close) — render
            // them as percentages instead of fake time units.
            let fmt: fn(u64) -> String = if name.ends_with("_bp") {
                fmt_bp
            } else {
                fmt_ns
            };
            let quantiles = match (
                report.stage_quantile(name, 0.50),
                report.stage_quantile(name, 0.90),
                report.stage_quantile(name, 0.99),
            ) {
                (Some(p50), Some(p90), Some(p99)) => format!(
                    "p50={} p90={} p99={} max={}",
                    fmt(p50),
                    fmt(p90),
                    fmt(p99),
                    fmt(stats.max_ns)
                ),
                _ => String::new(),
            };
            println!(
                "  {:<40} {:>12} {:>7} {:>7}  {}",
                format!("{indent}{label}"),
                fmt_ns(stats.total_ns),
                share,
                stats.calls,
                quantiles
            );
        }
    }

    if !report.counters.is_empty() {
        println!("\ncounters:");
        for (k, v) in &report.counters {
            println!("  {k:<40} {v:>12}");
        }
    }

    if let Some(dropped) = report.counters.get("journal/dropped") {
        println!("\njournal dropped : {dropped}");
        if *dropped > 0 {
            println!(
                "warning: {dropped} journal events were dropped — raise the journal \
                 capacity or expect gaps in traces"
            );
        }
    }
    Ok(0)
}

/// This stage's share of its parent stage (or of itself for roots),
/// rendered as a percentage — blank when no ancestor stage exists.
fn parent_share(report: &RunReport, name: &str, total_ns: u64) -> String {
    let mut prefix = name;
    while let Some((parent, _)) = prefix.rsplit_once('/') {
        if let Some(p) = report.stages.get(parent) {
            if p.total_ns == 0 {
                return String::new();
            }
            return format!("{:.1}%", total_ns as f64 * 100.0 / p.total_ns as f64);
        }
        prefix = parent;
    }
    if name.contains('/') {
        String::new()
    } else {
        "100.0%".to_string()
    }
}

/// Basis points (1/100 of a percent) as a percentage.
pub(crate) fn fmt_bp(bp: u64) -> String {
    format!("{:.2}%", bp as f64 / 100.0)
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ------------------------------------------------------------------- diff

fn diff(flags: &Flags) -> Result<i32, String> {
    let new_path = flags
        .get("diff")
        .ok_or("report --diff requires the new report path")?;
    let base_path = flags
        .positional()
        .get(1)
        .ok_or("report --diff requires a baseline report path (--diff NEW BASELINE)")?;
    let fail_over_pct: f64 = flags.get_num("fail-over-pct", 15.0)?;
    let min_ms: f64 = flags.get_num("min-ms", 1.0)?;

    let new_report = load_report(new_path)?;
    let baseline = load_report(base_path)?;

    println!("diff: {new_path} vs {base_path} (fail over +{fail_over_pct}%, stages ≥ {min_ms}ms)");
    println!(
        "  {:<40} {:>12} {:>12} {:>9}",
        "stage", "baseline", "new", "delta"
    );
    let mut worst: Option<(String, f64)> = None;
    let mut compared = 0usize;
    for (name, base) in &baseline.stages {
        let Some(stats) = new_report.stages.get(name) else {
            continue;
        };
        let base_ns = base.total_ns;
        // A 0 ns baseline has no ratio to compare, whatever the floor.
        if base_ns == 0 || (base_ns as f64) < min_ms * 1e6 {
            continue;
        }
        compared += 1;
        let delta_pct = (stats.total_ns as f64 - base_ns as f64) * 100.0 / base_ns as f64;
        println!(
            "  {:<40} {:>12} {:>12} {:>+8.1}%",
            name,
            fmt_ns(base_ns),
            fmt_ns(stats.total_ns),
            delta_pct
        );
        if worst.as_ref().is_none_or(|(_, w)| delta_pct > *w) {
            worst = Some((name.clone(), delta_pct));
        }
    }
    if compared == 0 {
        return Err(format!(
            "report --diff: no comparable stages ≥ {min_ms}ms between {new_path} and {base_path}"
        ));
    }
    match worst {
        Some((name, pct)) if pct > fail_over_pct => {
            println!("REGRESSION: {name} slowed by {pct:.1}% (limit +{fail_over_pct}%)");
            Ok(EXIT_REGRESSION)
        }
        Some((name, pct)) => {
            println!("ok: worst stage {name} at {pct:+.1}% (limit +{fail_over_pct}%)");
            Ok(0)
        }
        None => Ok(0),
    }
}
