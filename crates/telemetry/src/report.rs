//! The serializable output of an instrumented run.
//!
//! # Format versions
//!
//! The JSON document carries a `version` field ([`FORMAT_VERSION`], written
//! by [`RunReport::to_json`]). Version 2 holds `meta`, `stages`, `counters`
//! and `histograms`: per-stage log-bucketed latency [`Histogram`]s (the
//! tail-latency source of truth; `StageStats` keeps only call counts,
//! totals, and exact extrema).
//!
//! [`RunReport::from_json`] reads only [`FORMAT_VERSION`]; a document with
//! no `version` or any other version is rejected rather than mis-read.

use crate::hist::Histogram;
use crate::json::{self, Json, JsonError};
use crate::validate_stage_name;
use std::collections::BTreeMap;

/// The report format version written by [`RunReport::to_json`].
pub const FORMAT_VERSION: u64 = 2;

/// Aggregate statistics for one stage (all times in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Completed spans recorded under this stage.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Shortest span (0 when no spans were recorded).
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

impl From<&Histogram> for StageStats {
    /// The exact count/total/min/max a stage's span histogram tracks.
    fn from(hist: &Histogram) -> StageStats {
        StageStats {
            calls: hist.count(),
            total_ns: hist.total(),
            min_ns: hist.min(),
            max_ns: hist.max(),
        }
    }
}

/// Snapshot of one telemetry sink: metadata, stage timings, counters.
///
/// Serializes to a stable JSON shape (keys sorted) via
/// [`RunReport::to_json`], parses back via [`RunReport::from_json`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Free-form run metadata (scenario name, parallelism, dimensions…).
    pub meta: BTreeMap<String, String>,
    /// Per-stage timing statistics, keyed by `/`-separated stage name.
    pub stages: BTreeMap<String, StageStats>,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-stage latency histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl RunReport {
    /// Sum of `total_ns` over the direct and transitive children of
    /// `parent` (stages whose name starts with `parent` + `/`).
    ///
    /// Only **direct** children are summed — grandchildren are already
    /// contained in their parents' spans and would double-count.
    pub fn children_total_ns(&self, parent: &str) -> u64 {
        let prefix = format!("{parent}/");
        self.stages
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, s)| s.total_ns)
            .sum()
    }

    /// The estimated `q`-quantile span duration of `stage` in nanoseconds,
    /// from its latency histogram (see [`Histogram::quantile`] for the
    /// error bound). `None` when the stage has no histogram.
    pub fn stage_quantile(&self, stage: &str, q: f64) -> Option<u64> {
        let h = self.histograms.get(stage)?;
        (h.count() > 0).then(|| h.quantile(q))
    }

    /// Serializes to a stable (sorted-key) JSON document.
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("version".to_string(), Json::Number(FORMAT_VERSION as f64));
        root.insert(
            "histograms".to_string(),
            Json::Object(
                self.histograms
                    .iter()
                    .map(|(k, h)| {
                        let mut obj = BTreeMap::new();
                        obj.insert("total_ns".to_string(), Json::Number(h.total() as f64));
                        obj.insert("min_ns".to_string(), Json::Number(h.min() as f64));
                        obj.insert("max_ns".to_string(), Json::Number(h.max() as f64));
                        obj.insert(
                            "buckets".to_string(),
                            Json::Array(
                                h.nonzero_buckets()
                                    .map(|(i, c)| {
                                        Json::Array(vec![
                                            Json::Number(i as f64),
                                            Json::Number(c as f64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        );
                        (k.clone(), Json::Object(obj))
                    })
                    .collect(),
            ),
        );
        root.insert(
            "meta".to_string(),
            Json::Object(
                self.meta
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::String(v.clone())))
                    .collect(),
            ),
        );
        root.insert(
            "stages".to_string(),
            Json::Object(
                self.stages
                    .iter()
                    .map(|(k, s)| {
                        let mut obj = BTreeMap::new();
                        obj.insert("calls".to_string(), Json::Number(s.calls as f64));
                        obj.insert("total_ns".to_string(), Json::Number(s.total_ns as f64));
                        obj.insert("min_ns".to_string(), Json::Number(s.min_ns as f64));
                        obj.insert("max_ns".to_string(), Json::Number(s.max_ns as f64));
                        (k.clone(), Json::Object(obj))
                    })
                    .collect(),
            ),
        );
        root.insert(
            "counters".to_string(),
            Json::Object(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Number(*v as f64)))
                    .collect(),
            ),
        );
        json::to_pretty_string(&Json::Object(root))
    }

    /// Parses a document produced by [`RunReport::to_json`].
    ///
    /// The document must carry `"version": FORMAT_VERSION`; only that
    /// version parses. Reports written before the `version` field existed
    /// are not read.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON, a shape mismatch, a missing
    /// `version` field or one other than [`FORMAT_VERSION`], or a
    /// stage/counter key that violates the `/`-hierarchy naming invariant.
    pub fn from_json(text: &str) -> Result<RunReport, JsonError> {
        let value = json::parse(text)?;
        let root = value.as_object("root")?;
        let version = root
            .get("version")
            .ok_or_else(|| JsonError::shape("missing version field"))?
            .as_u64("version")?;
        if version != FORMAT_VERSION {
            return Err(JsonError::shape(format!(
                "unsupported report version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let valid_key = |k: &str| -> Result<(), JsonError> {
            validate_stage_name(k).map_err(|e| JsonError::shape(format!("stage name {k:?}: {e}")))
        };
        let mut report = RunReport::default();
        if let Some(meta) = root.get("meta") {
            for (k, v) in meta.as_object("meta")? {
                report.meta.insert(k.clone(), v.as_string(k)?.to_string());
            }
        }
        if let Some(stages) = root.get("stages") {
            for (k, v) in stages.as_object("stages")? {
                valid_key(k)?;
                let obj = v.as_object(k)?;
                let field = |name: &str| -> Result<u64, JsonError> {
                    obj.get(name)
                        .ok_or_else(|| JsonError::shape(format!("{k}: missing {name}")))?
                        .as_u64(name)
                };
                report.stages.insert(
                    k.clone(),
                    StageStats {
                        calls: field("calls")?,
                        total_ns: field("total_ns")?,
                        min_ns: field("min_ns")?,
                        max_ns: field("max_ns")?,
                    },
                );
            }
        }
        if let Some(counters) = root.get("counters") {
            for (k, v) in counters.as_object("counters")? {
                valid_key(k)?;
                report.counters.insert(k.clone(), v.as_u64(k)?);
            }
        }
        if let Some(hists) = root.get("histograms") {
            for (k, v) in hists.as_object("histograms")? {
                valid_key(k)?;
                let obj = v.as_object(k)?;
                let field = |name: &str| -> Result<u64, JsonError> {
                    obj.get(name)
                        .ok_or_else(|| JsonError::shape(format!("{k}: missing {name}")))?
                        .as_u64(name)
                };
                let mut buckets = Vec::new();
                if let Some(raw) = obj.get("buckets") {
                    let Json::Array(items) = raw else {
                        return Err(JsonError::shape(format!("{k}: buckets must be an array")));
                    };
                    for item in items {
                        let Json::Array(pair) = item else {
                            return Err(JsonError::shape(format!(
                                "{k}: bucket entries are [index, count] pairs"
                            )));
                        };
                        if pair.len() != 2 {
                            return Err(JsonError::shape(format!(
                                "{k}: bucket entries are [index, count] pairs"
                            )));
                        }
                        buckets.push((
                            pair[0].as_u64("bucket index")? as usize,
                            pair[1].as_u64("bucket count")?,
                        ));
                    }
                }
                let hist = Histogram::from_parts(
                    field("total_ns")?,
                    field("min_ns")?,
                    field("max_ns")?,
                    &buckets,
                )
                .map_err(|e| JsonError::shape(format!("{k}: {e}")))?;
                report.histograms.insert(k.clone(), hist);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::default();
        r.meta.insert("scenario".into(), "baseline".into());
        r.meta.insert("parallelism".into(), "8".into());
        r.stages.insert(
            "reconstruct".into(),
            StageStats {
                calls: 1,
                total_ns: 5_000_000,
                min_ns: 5_000_000,
                max_ns: 5_000_000,
            },
        );
        r.stages.insert(
            "reconstruct/pass1".into(),
            StageStats {
                calls: 1,
                total_ns: 2_000_000,
                min_ns: 2_000_000,
                max_ns: 2_000_000,
            },
        );
        r.stages.insert(
            "reconstruct/pass2".into(),
            StageStats {
                calls: 1,
                total_ns: 1_500_000,
                min_ns: 1_500_000,
                max_ns: 1_500_000,
            },
        );
        r.counters.insert("frames".into(), 60);
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn children_total_counts_direct_children_only() {
        let mut report = sample();
        report.stages.insert(
            "reconstruct/pass1/inner".into(),
            StageStats {
                calls: 1,
                total_ns: 1_000_000,
                min_ns: 1_000_000,
                max_ns: 1_000_000,
            },
        );
        assert_eq!(report.children_total_ns("reconstruct"), 3_500_000);
        assert_eq!(report.children_total_ns("reconstruct/pass1"), 1_000_000);
    }

    #[test]
    fn stats_record_tracks_extrema() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(4);
        h.record(30);
        let s = StageStats::from(&h);
        assert_eq!(s.calls, 3);
        assert_eq!(s.total_ns, 44);
        assert_eq!(s.min_ns, 4);
        assert_eq!(s.max_ns, 30);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(RunReport::from_json("{").is_err());
        assert!(RunReport::from_json("[]").is_err());
        assert!(
            RunReport::from_json(r#"{"version": 2, "stages": {"s": {"calls": "x"}}}"#).is_err()
        );
    }

    #[test]
    fn histograms_round_trip_losslessly() {
        let mut report = sample();
        let mut h = Histogram::new();
        for v in [100u64, 250, 250, 9_000, 1_000_000] {
            h.record(v);
        }
        report.histograms.insert("reconstruct/pass1".into(), h);
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert!(parsed.stage_quantile("reconstruct/pass1", 0.5).unwrap() >= 250);
        assert_eq!(
            parsed.stage_quantile("reconstruct/pass1", 1.0),
            Some(1_000_000)
        );
        assert_eq!(parsed.stage_quantile("reconstruct", 0.5), None);
    }

    #[test]
    fn newer_or_zero_versions_are_rejected() {
        assert!(RunReport::from_json(r#"{"version": 3}"#).is_err());
        assert!(RunReport::from_json(r#"{"version": 0}"#).is_err());
        assert!(RunReport::from_json(r#"{"version": 2}"#).is_ok());
        // Only FORMAT_VERSION parses: no writer ever emitted version 1.
        assert!(RunReport::from_json(r#"{"version": 1}"#).is_err());
        match RunReport::from_json(r#"{"stages": {}}"#) {
            Err(JsonError::Shape(msg)) => assert!(msg.contains("version"), "message: {msg}"),
            other => panic!("expected a shape error naming `version`, got {other:?}"),
        }
    }

    #[test]
    fn invalid_stage_names_are_rejected_on_parse() {
        for bad in ["", "/x", "x/", "a//b"] {
            let doc = format!(
                r#"{{"version": 2, "stages": {{"{bad}": {{"calls": 1, "total_ns": 1, "min_ns": 1, "max_ns": 1}}}}}}"#
            );
            assert!(RunReport::from_json(&doc).is_err(), "accepted {bad:?}");
            let doc = format!(r#"{{"version": 2, "counters": {{"{bad}": 1}}}}"#);
            assert!(
                RunReport::from_json(&doc).is_err(),
                "accepted counter {bad:?}"
            );
        }
    }
}
