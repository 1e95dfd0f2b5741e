//! Report format stability: the current format must round-trip
//! byte-stably, quantiles included.

use bb_telemetry::{Histogram, RunReport, StageStats};

fn sample_v2() -> RunReport {
    let mut report = RunReport::default();
    report.meta.insert("scenario".into(), "compat".into());
    let mut stats = StageStats::default();
    let mut hist = Histogram::new();
    for ns in [1_200_000u64, 1_250_000, 3_000_000, 40_000_000] {
        stats.calls += 1;
        stats.total_ns += ns;
        stats.min_ns = if stats.calls == 1 {
            ns
        } else {
            stats.min_ns.min(ns)
        };
        stats.max_ns = stats.max_ns.max(ns);
        hist.record(ns);
    }
    report.stages.insert("reconstruct/pass1".into(), stats);
    report.histograms.insert("reconstruct/pass1".into(), hist);
    report.counters.insert("frames/input".into(), 4);
    report
}

#[test]
fn v2_round_trip_is_byte_stable() {
    let report = sample_v2();
    let first = report.to_json();
    let reparsed = RunReport::from_json(&first).expect("v2 parses");
    assert_eq!(reparsed, report);
    let second = reparsed.to_json();
    assert_eq!(
        first, second,
        "serialize → parse → serialize must be identity"
    );
    // Keys are sorted: "counters" < "histograms" < "meta" < "stages" < "version".
    let c = first.find("\"counters\"").unwrap();
    let h = first.find("\"histograms\"").unwrap();
    let m = first.find("\"meta\"").unwrap();
    let s = first.find("\"stages\"").unwrap();
    let v = first.find("\"version\"").unwrap();
    assert!(c < h && h < m && m < s && s < v);
}

#[test]
fn quantiles_survive_serialization() {
    let report = sample_v2();
    let reparsed = RunReport::from_json(&report.to_json()).unwrap();
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            report.stage_quantile("reconstruct/pass1", q),
            reparsed.stage_quantile("reconstruct/pass1", q),
            "quantile {q} drifted through JSON"
        );
    }
    assert_eq!(
        reparsed.stage_quantile("reconstruct/pass1", 1.0),
        Some(40_000_000)
    );
}
