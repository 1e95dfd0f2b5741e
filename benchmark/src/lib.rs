//! End-to-end benchmark of the Background Buster reconstruction system.
//!
//! Three workloads, each generated from `--seed` inside this one process:
//!
//! * `vga_call` — one 640×480 call read from a BBV v2 file and
//!   reconstructed against the known-image catalog (`bbuster reconstruct`'s
//!   path), long enough that both the lock and the post-lock block run;
//! * `blur_call` — the same scene behind a blur VB, reconstructed from
//!   deblurred residue with no reference;
//! * `serve_fleet` — a closed-loop fleet of small sessions through
//!   `bb-serve` under admission and memory pressure.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run (`--trace 1`) times each layer from
//! outside the crates by wrapping spans around calls into their public
//! functions and reports [`PER_LAYER`]. Both check every output. See
//! `README.md` in this directory.

pub mod batch;
pub mod check;
pub mod fleet;
pub mod host;
pub mod stats;

use bb_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mpix_per_s", "Mpix/s"),
    ("call_p50_s", "s"),
    ("call_p99_s", "s"),
    ("rbrr_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.busy_s", "s"),
    ("ingest.mpix_per_s", "Mpix/s"),
    ("ingest.container_bytes", "bytes"),
    ("lock.buffer_s", "s"),
    ("lock.reference_s", "s"),
    ("lock.segmenter_fit_s", "s"),
    ("pass1.busy_s", "s"),
    ("pass1.vbm_px", "px"),
    ("pass1.removed_px", "px"),
    ("color_model.fit_s", "s"),
    ("pass2.busy_s", "s"),
    ("pass2.leak_px", "px"),
    ("deblur.busy_s", "s"),
    ("accumulate.busy_s", "s"),
    ("accumulate.recovered_px", "px"),
    ("accumulate.recovered_per_leak", "ratio"),
    ("workers.effective.ingest", "count"),
    ("workers.effective.pass1", "count"),
    ("workers.effective.pass2", "count"),
    ("workers.effective.deblur", "count"),
    ("workers.effective.scheduler", "count"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.evict_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("serve.round_p50_s", "s"),
    ("serve.drive_s", "s"),
    ("serve.spill_s", "s"),
    ("serve.close_s", "s"),
    ("serve.evictions", "count"),
    ("serve.resumes", "count"),
    ("serve.resumes_per_session", "ratio"),
    ("serve.denials", "count"),
    ("serve.peak_live_bytes", "bytes"),
    ("unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One VGA call through ingest and color-residue reconstruction.
    VgaCall,
    /// One VGA call behind a blur VB, through blur-residue reconstruction.
    BlurCall,
    /// A closed-loop fleet of sessions through `bb-serve`.
    ServeFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::VgaCall, Workload::BlurCall, Workload::ServeFleet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VgaCall => "vga_call",
            Workload::BlurCall => "blur_call",
            Workload::ServeFleet => "serve_fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark proper; `Tiny` is a seconds-long
/// smoke geometry that exercises the same code and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The geometry the benchmark's figures are defined on.
    Full,
    /// A tiny geometry for tests.
    Tiny,
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Input size.
    pub scale: Scale,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Scratch directory for containers and spill files; created, and
    /// removed again, by the run.
    pub work_dir: PathBuf,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output matched its expected digest and RBRR.
    pub correct: bool,
    /// Operations attempted (calls, or sessions for the fleet).
    pub attempted: u64,
    /// Operations that errored or failed the output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host and workload stamp: which path ran, on what.
    pub stamp: BTreeMap<String, Json>,
}

impl Outcome {
    /// Records a failed operation with its reason on stderr.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("bb-benchmark: FAILED: {why}");
        self.failed += 1;
        self.correct = false;
    }

    /// Adds a stamp entry.
    pub fn stamp(&mut self, key: &str, value: impl Into<StampValue>) {
        self.stamp.insert(key.to_string(), value.into().0);
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `list` with its unit.
    ///
    /// # Errors
    ///
    /// When a listed metric is missing or not finite: the run measured
    /// something other than what `BENCHMARK.json` promises.
    pub fn result_line(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for &(name, unit) in list {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Json::Number(value));
            m.insert("unit".to_string(), Json::String(unit.to_string()));
            metrics.insert(name.to_string(), Json::Object(m));
        }
        let mut root = BTreeMap::new();
        root.insert("correct".to_string(), Json::Bool(self.correct));
        root.insert("attempted".to_string(), Json::Number(self.attempted as f64));
        root.insert("failed".to_string(), Json::Number(self.failed as f64));
        root.insert("metrics".to_string(), Json::Object(metrics));
        Ok(json::to_compact_string(&Json::Object(root)))
    }

    /// The stamp as one JSON object.
    pub fn stamp_line(&self) -> String {
        json::to_compact_string(&Json::Object(self.stamp.clone()))
    }
}

/// A JSON value for [`Outcome::stamp`].
pub struct StampValue(Json);

impl From<f64> for StampValue {
    fn from(v: f64) -> Self {
        StampValue(Json::Number(v))
    }
}

impl From<usize> for StampValue {
    fn from(v: usize) -> Self {
        StampValue(Json::Number(v as f64))
    }
}

impl From<u64> for StampValue {
    fn from(v: u64) -> Self {
        StampValue(Json::Number(v as f64))
    }
}

impl From<&str> for StampValue {
    fn from(v: &str) -> Self {
        StampValue(Json::String(v.to_string()))
    }
}

impl From<String> for StampValue {
    fn from(v: String) -> Self {
        StampValue(Json::String(v))
    }
}

/// Named span totals: the traced run's per-layer self times. Spans never
/// nest, so a span's duration is its layer's self time.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f` inside a span charged to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.totals.entry(layer).or_default() += started.elapsed().as_secs_f64();
        out
    }

    /// Seconds charged to each layer.
    pub fn totals(&self) -> &BTreeMap<&'static str, f64> {
        &self.totals
    }
}

/// Repeats the workload's set-up until it has run at least `min_reps`
/// times and for at least `min_secs`, and returns the last result with
/// every repetition's duration: `setup_s` is their median.
///
/// # Errors
///
/// The first failing set-up.
pub fn repeat_setup<T>(
    min_reps: usize,
    min_secs: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_reps && started.elapsed().as_secs_f64() >= min_secs {
            return Ok((value, times));
        }
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Set-up failures, and failures that leave no operation to measure.
/// Output mismatches are not errors: they mark the outcome incorrect and
/// count as failed operations.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("{}: {e}", config.work_dir.display()))?;
    let result = match config.workload {
        Workload::VgaCall | Workload::BlurCall => batch::run(config),
        Workload::ServeFleet => fleet::run(config),
    };
    std::fs::remove_dir_all(&config.work_dir).ok();
    let mut outcome = result?;
    if outcome.attempted == 0 {
        return Err("no operation completed inside the measured window".into());
    }
    outcome.metrics.insert(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
    );
    outcome
        .metrics
        .insert("peak_rss_mib", host::peak_rss_mib()?);
    outcome.stamp("workload", config.workload.name());
    outcome.stamp("seed", config.seed);
    outcome.stamp("nproc", host::nproc());
    outcome.stamp("build_profile", host::build_profile());
    outcome.stamp("trace", if config.trace { "on" } else { "off" });
    outcome.stamp("attempted", outcome.attempted);
    Ok(outcome)
}
