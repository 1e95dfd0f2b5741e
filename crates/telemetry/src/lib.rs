//! # bb-telemetry
//!
//! Observability for the Background Buster pipeline, in two complementary
//! shapes:
//!
//! * **Aggregates** — stage timers, monotone counters, and per-stage
//!   latency [`Histogram`]s (log-bucketed, ~3% relative error), snapshotted
//!   into a serializable [`RunReport`].
//! * **Trajectory** — an optional bounded [`Journal`] of structured
//!   per-frame events (what happened, when, on which lane), serializable as
//!   JSON Lines and renderable — together with the report — into a
//!   Perfetto-compatible Chrome trace via [`chrome_trace`].
//!
//! Every handle is either **enabled** (backed by a shared sink) or
//! **disabled** (a `None`, the default). Disabled handles never allocate and
//! every operation returns after one branch, so instrumented hot paths pay
//! nothing in production runs. Handles clone cheaply and are thread-safe, so
//! a pipeline can hand the same telemetry to its worker pool.
//!
//! Stage names form a `/`-separated hierarchy, e.g. `reconstruct/pass1` is a
//! child of `reconstruct`. Segments are non-empty and names neither start
//! nor end with `/` — [`validate_stage_name`] is the contract, debug
//! assertions enforce it on the hot paths and [`RunReport::from_json`]
//! enforces it on untrusted input. When child stages run sequentially inside
//! their parent's span (which is how the pipeline is instrumented), the sum
//! of the children's totals never exceeds the parent's total — a property
//! the test net pins. Per-worker busy spans, which legitimately overlap in
//! wall time, are recorded under the separate `workers/` namespace.
//!
//! ```
//! use bb_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! {
//!     let _outer = telemetry.time("reconstruct");
//!     let _inner = telemetry.time("reconstruct/pass1");
//!     telemetry.add("frames", 60);
//! }
//! let report = telemetry.report();
//! assert_eq!(report.counters["frames"], 60);
//! assert_eq!(report.histograms["reconstruct"].count(), 1);
//! let json = report.to_json();
//! assert_eq!(bb_telemetry::RunReport::from_json(&json).unwrap(), report);
//! ```
//!
//! Attaching a journal records the same spans as timestamped events:
//!
//! ```
//! use bb_telemetry::{Journal, Telemetry};
//!
//! let telemetry = Telemetry::enabled().with_journal(Journal::with_capacity(1024));
//! {
//!     let _span = telemetry.time("reconstruct");
//!     telemetry.event("reconstruct/frame", Some(0), &[("canvas_fill", 0.1)]);
//! }
//! let journal = telemetry.journal().unwrap();
//! assert_eq!(journal.events().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use hist::Histogram;
pub use journal::{Journal, JournalEvent};
pub use metrics::{
    HealthReport, HealthState, MetricsExporter, MetricsHub, MetricsSnapshot, SloRule, WindowSpec,
};
pub use report::{RunReport, StageStats, FORMAT_VERSION};
pub use trace::chrome_trace;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Checks the stage-name contract: non-empty, `/`-separated, no empty
/// segments (so no leading, trailing, or doubled `/`).
///
/// The hierarchy math ([`RunReport::children_total_ns`]) and the trace
/// export's lane model both assume this shape; a malformed name would
/// silently corrupt them, so hot paths debug-assert it and
/// [`RunReport::from_json`] rejects it outright.
///
/// # Errors
///
/// Returns a human-readable description of the violation.
pub fn validate_stage_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("stage name is empty".to_string());
    }
    if name.starts_with('/') || name.ends_with('/') {
        return Err("stage name must not start or end with '/'".to_string());
    }
    if name.split('/').any(str::is_empty) {
        return Err("stage name has an empty '/' segment".to_string());
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Sink {
    /// One histogram per stage; [`RunReport::stages`] is derived from it.
    hists: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, u64>,
    meta: BTreeMap<String, String>,
}

/// A cheaply-clonable instrumentation handle; see the crate docs.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<Sink>>>,
    journal: Option<Journal>,
    metrics: Option<MetricsHub>,
}

impl Telemetry {
    /// A disabled handle: every operation is a no-op, [`Telemetry::report`]
    /// is empty. This is also the [`Default`].
    pub fn disabled() -> Telemetry {
        Telemetry {
            sink: None,
            journal: None,
            metrics: None,
        }
    }

    /// An enabled handle with a fresh, empty sink (no journal).
    pub fn enabled() -> Telemetry {
        Telemetry {
            sink: Some(Arc::new(Mutex::new(Sink::default()))),
            journal: None,
            metrics: None,
        }
    }

    /// Attaches an event journal: stage spans and [`Telemetry::event`]
    /// emissions are recorded there as timestamped events.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Telemetry {
        self.journal = Some(journal);
        self
    }

    /// Attaches a live [`MetricsHub`]: every [`Telemetry::add`] and every
    /// recorded span is mirrored into the hub's windowed instruments, and
    /// [`Telemetry::set_gauge`] becomes live. The run-scoped sink and the
    /// hub are independent — either can be present without the other.
    #[must_use]
    pub fn with_metrics(mut self, hub: MetricsHub) -> Telemetry {
        self.metrics = Some(hub);
        self
    }

    /// The attached metrics hub, if any.
    pub fn metrics(&self) -> Option<&MetricsHub> {
        self.metrics.as_ref()
    }

    /// Whether this handle records aggregates (timers/counters/meta).
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether this handle records journal events.
    pub fn has_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Starts a stage span; on guard drop the elapsed time is recorded
    /// under `name` in the sink (stats + histogram) and, when a journal is
    /// attached, as a timestamped span event. No-op (and allocation-free)
    /// when both are absent.
    #[must_use = "the span ends when the returned guard is dropped"]
    pub fn time(&self, name: &str) -> StageTimer<'_> {
        debug_assert!(
            validate_stage_name(name).is_ok(),
            "invalid stage name {name:?}"
        );
        let active = self.sink.is_some() || self.journal.is_some() || self.metrics.is_some();
        StageTimer {
            telemetry: self,
            name: active.then(|| (name.to_string(), Instant::now())),
        }
    }

    /// Records one completed span of `dur` under stage `name` directly
    /// (used by worker pools that time sections themselves). Aggregates
    /// only — see [`Telemetry::record_span`] to also journal the span's
    /// position in time.
    pub fn record_duration(&self, name: &str, dur: Duration) {
        debug_assert!(
            validate_stage_name(name).is_ok(),
            "invalid stage name {name:?}"
        );
        let ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        if let Some(hub) = &self.metrics {
            hub.record(name, ns);
        }
        let Some(sink) = &self.sink else { return };
        let mut sink = sink.lock().expect("telemetry sink poisoned");
        sink.hists.entry(name.to_string()).or_default().record(ns);
    }

    /// Records a completed span that started at `started`: aggregates like
    /// [`Telemetry::record_duration`], plus a journal span event at the
    /// span's true position on the timeline (when a journal is attached).
    pub fn record_span(&self, name: &str, started: Instant, dur: Duration) {
        self.record_duration(name, dur);
        if let Some(journal) = &self.journal {
            journal.emit_at(
                journal.since_epoch_ns(started),
                name,
                None,
                Some(dur.as_nanos().min(u64::MAX as u128) as u64),
                &[],
            );
        }
    }

    /// Emits a structured point event into the journal (frame index plus
    /// numeric fields). No-op without a journal — one branch, no
    /// allocation — so per-frame hot loops can call it unconditionally.
    pub fn event(&self, stage: &str, frame: Option<u64>, fields: &[(&str, f64)]) {
        if let Some(journal) = &self.journal {
            journal.emit(stage, frame, None, fields);
        }
    }

    /// Adds `n` to counter `name` (counters only ever grow).
    pub fn add(&self, name: &str, n: u64) {
        debug_assert!(
            validate_stage_name(name).is_ok(),
            "invalid counter name {name:?}"
        );
        if let Some(hub) = &self.metrics {
            hub.add(name, n);
        }
        let Some(sink) = &self.sink else { return };
        let mut sink = sink.lock().expect("telemetry sink poisoned");
        *sink.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets live gauge `name` on the attached [`MetricsHub`]; a no-op (one
    /// branch) when no hub is attached. Gauges are instant values and do
    /// not appear in the run-scoped [`RunReport`].
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(hub) = &self.metrics {
            hub.set_gauge(name, value);
        }
    }

    /// Sets metadata `key` to `value` (last write wins).
    pub fn set_meta(&self, key: &str, value: impl ToString) {
        let Some(sink) = &self.sink else { return };
        let mut sink = sink.lock().expect("telemetry sink poisoned");
        sink.meta.insert(key.to_string(), value.to_string());
    }

    /// A snapshot of everything recorded so far.
    pub fn report(&self) -> RunReport {
        let Some(sink) = &self.sink else {
            return RunReport::default();
        };
        let sink = sink.lock().expect("telemetry sink poisoned");
        let mut counters = sink.counters.clone();
        if let Some(journal) = &self.journal {
            // Surface drops even when zero — their absence would read as
            // "no journal attached" rather than "nothing dropped".
            counters.insert("journal/dropped".to_string(), journal.dropped());
        }
        RunReport {
            meta: sink.meta.clone(),
            stages: sink
                .hists
                .iter()
                .map(|(name, hist)| (name.clone(), StageStats::from(hist)))
                .collect(),
            counters,
            histograms: sink.hists.clone(),
        }
    }
}

/// Guard returned by [`Telemetry::time`]; records the span on drop.
#[derive(Debug)]
pub struct StageTimer<'a> {
    telemetry: &'a Telemetry,
    /// `None` when the parent handle records neither aggregates nor events.
    name: Option<(String, Instant)>,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some((name, start)) = self.name.take() {
            self.telemetry.record_span(&name, start, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        {
            let _g = t.time("stage");
            t.add("counter", 5);
            t.set_meta("k", "v");
            t.record_duration("direct", Duration::from_millis(1));
            t.event("stage/frame", Some(0), &[("x", 1.0)]);
        }
        assert!(!t.is_enabled());
        assert!(!t.has_journal());
        assert_eq!(t.report(), RunReport::default());
    }

    #[test]
    fn timers_and_counters_accumulate() {
        let t = Telemetry::enabled();
        for _ in 0..3 {
            let _g = t.time("s");
        }
        t.add("c", 2);
        t.add("c", 3);
        let r = t.report();
        assert_eq!(r.stages["s"].calls, 3);
        assert_eq!(r.histograms["s"].count(), 3);
        assert_eq!(r.counters["c"], 5);
    }

    #[test]
    fn histograms_match_stage_stats() {
        let t = Telemetry::enabled();
        for ms in [1u64, 2, 30] {
            t.record_duration("s", Duration::from_millis(ms));
        }
        let r = t.report();
        let (stats, hist) = (&r.stages["s"], &r.histograms["s"]);
        assert_eq!(stats.calls, hist.count());
        assert_eq!(stats.total_ns, hist.total());
        assert_eq!(stats.min_ns, hist.min());
        assert_eq!(stats.max_ns, hist.max());
        assert_eq!(hist.quantile(1.0), stats.max_ns);
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.add("shared", 1);
        assert_eq!(t.report().counters["shared"], 1);
    }

    #[test]
    fn journal_records_spans_and_events() {
        let t = Telemetry::enabled().with_journal(Journal::with_capacity(64));
        {
            let _g = t.time("outer");
            t.event("outer/frame", Some(7), &[("coverage", 0.5)]);
        }
        let events = t.journal().unwrap().events();
        assert_eq!(events.len(), 2);
        // The point event was emitted first (the span lands on guard drop)…
        assert_eq!(events[0].stage, "outer/frame");
        assert_eq!(events[0].frame, Some(7));
        assert_eq!(events[0].dur_ns, None);
        // …and the span carries its duration.
        assert_eq!(events[1].stage, "outer");
        assert!(events[1].dur_ns.is_some());
        // Aggregates recorded too.
        assert_eq!(t.report().stages["outer"].calls, 1);
    }

    #[test]
    fn journal_without_sink_still_records_spans() {
        let t = Telemetry::disabled().with_journal(Journal::with_capacity(64));
        {
            let _g = t.time("solo");
        }
        assert!(!t.is_enabled());
        assert_eq!(t.report(), RunReport::default());
        let events = t.journal().unwrap().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, "solo");
    }

    #[test]
    fn counters_are_monotone_across_snapshots() {
        let t = Telemetry::enabled();
        let mut last = 0u64;
        for round in 1..=20u64 {
            t.add("events", round % 3); // including zero-increments
            let now = t.report().counters["events"];
            assert!(now >= last, "counter decreased: {last} -> {now}");
            last = now;
        }
        assert_eq!(last, (1..=20u64).map(|r| r % 3).sum::<u64>());
    }

    #[test]
    fn sequential_child_spans_sum_to_at_most_parent() {
        let t = Telemetry::enabled();
        {
            let _parent = t.time("parent");
            for child in ["parent/a", "parent/b", "parent/c"] {
                let _c = t.time(child);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let r = t.report();
        let children = r.children_total_ns("parent");
        assert!(children > 0);
        assert!(
            children <= r.stages["parent"].total_ns,
            "children {} ns exceed parent {} ns",
            children,
            r.stages["parent"].total_ns
        );
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let t = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        t.add("hits", 1);
                        t.record_duration("work", Duration::from_nanos(10));
                    }
                });
            }
        });
        let r = t.report();
        assert_eq!(r.counters["hits"], 1000);
        assert_eq!(r.stages["work"].calls, 1000);
        assert_eq!(r.stages["work"].total_ns, 10_000);
        assert_eq!(r.histograms["work"].count(), 1000);
    }

    #[test]
    fn attached_hub_mirrors_counters_and_spans() {
        let t = Telemetry::enabled().with_metrics(MetricsHub::new());
        t.add("hits", 3);
        t.record_duration("work", Duration::from_micros(5));
        {
            let _g = t.time("span");
        }
        t.set_gauge("pressure", 0.5);
        let snap = t.metrics().unwrap().snapshot();
        assert_eq!(snap.counters["hits"].total, 3);
        assert_eq!(snap.hists["work"].count, 1);
        assert_eq!(snap.hists["span"].count, 1);
        assert_eq!(snap.gauges["pressure"], 0.5);
        // The run-scoped report sees the same data and no gauge leakage.
        let r = t.report();
        assert_eq!(r.counters["hits"], 3);
        assert!(!r.counters.contains_key("pressure"));
    }

    #[test]
    fn hub_only_handle_records_windowed_but_no_report() {
        let t = Telemetry::disabled().with_metrics(MetricsHub::new());
        {
            let _g = t.time("solo");
        }
        t.add("hits", 1);
        assert!(!t.is_enabled());
        assert_eq!(t.report(), RunReport::default());
        let snap = t.metrics().unwrap().snapshot();
        assert_eq!(snap.hists["solo"].count, 1);
        assert_eq!(snap.counters["hits"].total, 1);
    }

    #[test]
    fn journal_drops_surface_as_a_counter() {
        let t = Telemetry::enabled().with_journal(Journal::with_capacity(8));
        t.event("e", None, &[]);
        assert_eq!(t.report().counters["journal/dropped"], 0);
        for _ in 0..64 {
            t.event("e", None, &[]);
        }
        assert!(t.report().counters["journal/dropped"] > 0);
    }

    #[test]
    fn stage_name_validation_contract() {
        assert!(validate_stage_name("a").is_ok());
        assert!(validate_stage_name("a/b/c").is_ok());
        assert!(validate_stage_name("workers/pass1/busy/w0").is_ok());
        for bad in ["", "/", "/a", "a/", "a//b", "//"] {
            assert!(validate_stage_name(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid stage name")]
    fn hot_paths_reject_malformed_names_in_debug() {
        let t = Telemetry::enabled();
        let _g = t.time("bad//name");
    }
}
