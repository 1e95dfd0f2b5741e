//! Property tests for the windowed metrics instruments, plus the
//! serialization pins for [`MetricsSnapshot`].
//!
//! Three contracts are pinned against naive exact references:
//!
//! * **Ring rotation** — for a stream of non-decreasing timestamps, a
//!   [`WindowedCounter`]'s window sum equals the sum of every event whose
//!   bucket lies inside the sliding window, no matter how many times the
//!   ring wrapped; and the window fully drains once time moves one whole
//!   window past the last event.
//! * **Cross-window merge** — a [`WindowedHistogram`]'s merged window
//!   equals (exactly, as a `Histogram`) the histogram of the in-window
//!   values, so windowed quantiles inherit the lifetime histogram's
//!   documented relative-error bound against the exact reference.
//! * **Stale safety** — arbitrary (unsorted) timestamps never corrupt the
//!   lifetime aggregates: stale records land in lifetime only, and the
//!   window never reports more than the lifetime has seen.
//!
//! Alongside the properties: a byte-stability fixture for the snapshot
//! JSON (the scrape surface other tools parse), a concurrent-writer
//! smoke test through shared [`MetricsHub`] clones, and robustness sweeps
//! of the SLO rule parser over arbitrary bytes and every truncation and
//! single-byte mutation of a canonical rule list.

use bb_telemetry::metrics::{WindowedCounter, WindowedHistogram};
use bb_telemetry::{Histogram, MetricsHub, MetricsSnapshot, SloRule, Telemetry, WindowSpec};
use proptest::prelude::*;

/// Small ring so a handful of events rotates it many times over.
const SPEC: WindowSpec = WindowSpec {
    bucket_ms: 50,
    buckets: 5,
};

/// One generated value: a selector picks the regime, `raw` supplies
/// entropy (same adversarial mix as the histogram property net).
fn materialize(selector: u8, raw: u64) -> u64 {
    match selector % 8 {
        0 => 0,
        1 => 1,
        2 => 31 + raw % 3, // the linear/log bucket boundary (31, 32, 33)
        3 => u64::MAX - raw % 2,
        4 => 1_000_000,        // a tight cluster: repeated exact value
        5 => raw % 1_000,      // small spread
        6 => raw % 10_000_000, // mid spread
        _ => raw,              // full-range noise
    }
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact `q`-quantile of `values` (the histogram's documented rank
/// convention: smallest value with at least `ceil(q * n)` at or below).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Turns per-event deltas into a non-decreasing timestamp series.
fn timestamps(deltas: &[u8]) -> Vec<u64> {
    let mut t = 0u64;
    deltas
        .iter()
        .map(|&d| {
            // Steps of 0..507 ms: same-bucket bursts, skipped buckets, and
            // multi-window jumps all occur against a 250 ms window.
            t += u64::from(d % 40) * 13;
            t
        })
        .collect()
}

fn bucket_of(t_ms: u64) -> u64 {
    t_ms / SPEC.bucket_ms
}

/// Naive window membership: is an event at bucket `b` inside the window
/// that ends in bucket `cur`?
fn in_window(b: u64, cur: u64) -> bool {
    b <= cur && cur - b < SPEC.buckets as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counter_window_matches_naive_model_under_rotation(
        raw in collection::vec((any::<u8>(), any::<u64>()), 1..60),
    ) {
        let times = timestamps(&raw.iter().map(|&(d, _)| d).collect::<Vec<_>>());
        let events: Vec<(u64, u64)> = times
            .iter()
            .zip(&raw)
            .map(|(&t, &(_, r))| (t, r % 1_000))
            .collect();

        let mut counter = WindowedCounter::new(SPEC);
        for &(t, n) in &events {
            counter.add_at(t, n);
        }

        let total: u64 = events.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(counter.total(), total, "lifetime total is exact");

        // The window sum must match the naive filter at the stream's end
        // and as time advances bucket by bucket until the window drains.
        let t_end = *times.last().unwrap();
        let b_end = bucket_of(t_end);
        for step in 0..=SPEC.buckets as u64 {
            let cur = b_end + step;
            let at = cur * SPEC.bucket_ms;
            let expect: u64 = events
                .iter()
                .filter(|&&(t, _)| in_window(bucket_of(t), cur))
                .map(|&(_, n)| n)
                .sum();
            prop_assert_eq!(
                counter.window_sum_at(at),
                expect,
                "window sum at +{} buckets",
                step
            );
        }
        // One whole window past the last event, nothing remains.
        let drained = (b_end + SPEC.buckets as u64) * SPEC.bucket_ms;
        prop_assert_eq!(counter.window_sum_at(drained), 0);
        prop_assert!((counter.rate_at(drained) - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn histogram_window_merge_equals_in_window_reference(
        raw in collection::vec((any::<u8>(), any::<u64>()), 1..60),
    ) {
        let times = timestamps(&raw.iter().map(|&(d, _)| d).collect::<Vec<_>>());
        let events: Vec<(u64, u64)> = times
            .iter()
            .zip(&raw)
            .map(|(&t, &(s, r))| (t, materialize(s, r)))
            .collect();

        let mut wh = WindowedHistogram::new(SPEC);
        for &(t, v) in &events {
            wh.record_at(t, v);
        }

        let all: Vec<u64> = events.iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(wh.lifetime(), &hist_of(&all), "lifetime sees everything");

        let t_end = *times.last().unwrap();
        let cur = bucket_of(t_end);
        let in_win: Vec<u64> = events
            .iter()
            .filter(|&&(t, _)| in_window(bucket_of(t), cur))
            .map(|&(_, v)| v)
            .collect();
        // Merging live slots reproduces the in-window histogram *exactly* —
        // window membership is bucket-granular, so no value is split.
        let merged = wh.window_at(t_end);
        prop_assert_eq!(&merged, &hist_of(&in_win), "cross-slot merge is exact");

        // Hence windowed quantiles carry the documented error bound against
        // the exact in-window reference.
        let mut sorted = in_win;
        sorted.sort_unstable();
        if !sorted.is_empty() {
            for q in [0.5, 0.9, 0.99, 1.0] {
                let exact = exact_quantile(&sorted, q);
                let est = merged.quantile(q);
                prop_assert!(est >= exact, "q={}: {} below exact {}", q, est, exact);
                let budget = exact as f64 * Histogram::RELATIVE_ERROR + 1.0;
                prop_assert!(
                    est as f64 <= exact as f64 + budget,
                    "q={}: {} exceeds exact {} by more than {}",
                    q, est, exact, budget
                );
            }
        }
    }

    #[test]
    fn unsorted_timestamps_never_corrupt_lifetime(
        raw in collection::vec((any::<u16>(), any::<u8>(), any::<u64>()), 1..60),
    ) {
        // Timestamps in arbitrary order: stale records (an older bucket
        // hashing to an already-advanced slot) must drop from the window
        // but always land in the lifetime aggregates.
        let events: Vec<(u64, u64)> = raw
            .iter()
            .map(|&(t, s, r)| (u64::from(t) % 3_000, materialize(s, r)))
            .collect();

        let mut wh = WindowedHistogram::new(SPEC);
        let mut counter = WindowedCounter::new(SPEC);
        for &(t, v) in &events {
            wh.record_at(t, v);
            counter.add_at(t, v % 1_000);
        }

        let all: Vec<u64> = events.iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(wh.lifetime(), &hist_of(&all));
        let total: u64 = events.iter().map(|&(_, v)| v % 1_000).sum();
        prop_assert_eq!(counter.total(), total);

        let t_max = events.iter().map(|&(t, _)| t).max().unwrap();
        prop_assert!(counter.window_sum_at(t_max) <= counter.total());
        prop_assert!(wh.window_at(t_max).count() <= wh.lifetime().count());
    }
}

// ------------------------------------------------------- snapshot fixture

/// A fully deterministic snapshot: the hour-wide bucket pins every record
/// into bucket 0 regardless of scheduling jitter, and `snapshot_at` fixes
/// the query time, so the JSON below must never change byte-for-byte.
fn golden_snapshot() -> MetricsSnapshot {
    let hub = MetricsHub::with_spec(WindowSpec {
        bucket_ms: 3_600_000,
        buckets: 2,
    });
    hub.set_rules(
        SloRule::parse_list("p99:serve/push<=2ms;total:frames/input<=100;gauge:journal/dropped<=0")
            .expect("fixture rules parse"),
    );
    hub.add("frames/input", 42);
    hub.add("sessions/opened", 3);
    hub.set_gauge("journal/dropped", 0.0);
    hub.set_gauge("serve/budget_pressure", 0.25);
    for ns in [1_000_000u64, 1_500_000, 2_000_000, 120_000_000] {
        hub.record("serve/push", ns);
    }
    hub.snapshot_at(5_000)
}

/// The committed serialization of [`golden_snapshot`]. This is the scrape
/// surface `metrics watch`, `report --slo`, and the CI soak parse — byte
/// drift here is a breaking change and must bump the schema version.
const GOLDEN: &str = r#"{
  "counters": {
    "frames/input": {
      "rate_per_sec": 0.011666666666666667,
      "total": 42,
      "window": 42
    },
    "sessions/opened": {
      "rate_per_sec": 0.0008333333333333334,
      "total": 3,
      "window": 3
    }
  },
  "gauges": {
    "journal/dropped": 0,
    "serve/budget_pressure": 0.25
  },
  "health": {
    "rules": [
      {
        "burn": 60,
        "ceiling": 2000000,
        "rule": "p99:serve/push<=2000000",
        "state": "failing",
        "value": 120000000
      },
      {
        "burn": 0.42,
        "ceiling": 100,
        "rule": "total:frames/input<=100",
        "state": "ok",
        "value": 42
      },
      {
        "burn": 0,
        "ceiling": 0,
        "rule": "gauge:journal/dropped<=0",
        "state": "ok",
        "value": 0
      }
    ],
    "state": "failing"
  },
  "histograms": {
    "serve/push": {
      "count": 4,
      "max": 120000000,
      "mean": 31125000,
      "p50": 1507327,
      "p90": 120000000,
      "p99": 120000000,
      "window": {
        "count": 4,
        "max": 120000000,
        "p50": 1507327,
        "p90": 120000000,
        "p99": 120000000,
        "rate_per_sec": 0.0011111111111111111
      }
    }
  },
  "schema": "bb-metrics/snapshot/v1",
  "seq": 1,
  "t_ms": 5000,
  "version": 1,
  "window": {
    "bucket_ms": 3600000,
    "buckets": 2
  }
}
"#;

#[test]
fn snapshot_serialization_is_byte_stable() {
    assert_eq!(
        golden_snapshot().to_json(),
        GOLDEN,
        "snapshot JSON drifted from the committed fixture"
    );
}

#[test]
fn golden_fixture_round_trips() {
    let snapshot = MetricsSnapshot::from_json(GOLDEN).expect("golden fixture parses");
    assert_eq!(snapshot.seq, 1);
    assert_eq!(snapshot.counters["frames/input"].total, 42);
    assert_eq!(snapshot.hists["serve/push"].window.count, 4);
    assert_eq!(snapshot.health.rules.len(), 3);
    assert_eq!(
        snapshot.to_json(),
        GOLDEN,
        "parse → serialize must be identity"
    );
}

// ----------------------------------------------- SLO rule robustness

/// A canonical rule list covering every rule kind of the grammar.
const CANONICAL_RULES: &str = "p50:serve/push<=1.5ms;p99:serve/push<=2ms;max:serve/push<=3s;\
     rate:sessions/evicted<=100/s;ratio:sessions/failed:sessions/opened<=0.01;\
     total:frames/input<=100;gauge:journal/dropped<=0";

/// Bytes from the rule grammar (kinds, separators, units, numbers) plus
/// bytes that are not valid UTF-8 on their own.
const RULE_BYTES: &[u8] = b"pratiotlgemx0159.-+e:;/<=smuns \t\x00\xc2\xb5\xff";

/// Runs both parsers over lossily-decoded bytes; the caller only cares
/// that they return.
fn parse_rules_lossy(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = SloRule::parse(&text);
    let _ = SloRule::parse_list(&text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_rule_parsers(bytes in collection::vec(any::<u8>(), 0..128)) {
        parse_rules_lossy(&bytes);
    }

    #[test]
    fn grammar_shaped_bytes_never_panic_the_rule_parsers(
        picks in collection::vec(0usize..RULE_BYTES.len(), 0..96),
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| RULE_BYTES[i]).collect();
        parse_rules_lossy(&bytes);
    }
}

#[test]
fn every_truncation_and_byte_mutation_of_a_rule_list_returns() {
    let rules = SloRule::parse_list(CANONICAL_RULES).expect("canonical rules parse");
    assert_eq!(rules.len(), 7);
    for rule in &rules {
        assert_eq!(&SloRule::parse(&rule.label()).expect("label parses"), rule);
    }
    let mut bytes = CANONICAL_RULES.as_bytes().to_vec();
    for cut in 0..=bytes.len() {
        parse_rules_lossy(&bytes[..cut]);
    }
    for at in 0..bytes.len() {
        let original = bytes[at];
        let replacements =
            RULE_BYTES
                .iter()
                .copied()
                .chain([original ^ 0x01, original ^ 0x20, original ^ 0x80]);
        for b in replacements {
            bytes[at] = b;
            parse_rules_lossy(&bytes);
        }
        bytes[at] = original;
    }
}

// --------------------------------------------------- concurrent writers

#[test]
fn concurrent_writers_land_every_update() {
    const THREADS: usize = 8;
    const OPS: u64 = 2_000;
    let hub = MetricsHub::new();
    let telemetry = Telemetry::enabled().with_metrics(hub.clone());
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let handle = telemetry.clone();
            scope.spawn(move || {
                for i in 0..OPS {
                    handle.add("smoke/ops", 1);
                    handle
                        .metrics()
                        .unwrap()
                        .record("smoke/lat", i * (worker as u64 + 1));
                }
            });
        }
    });
    let snapshot = hub.snapshot();
    let expected = THREADS as u64 * OPS;
    assert_eq!(snapshot.counters["smoke/ops"].total, expected);
    assert_eq!(snapshot.hists["smoke/lat"].count, expected);
    // All the writes landed inside the run's wall-clock window.
    assert_eq!(snapshot.counters["smoke/ops"].window, expected);
    assert!(snapshot.counters["smoke/ops"].rate_per_sec > 0.0);
    // A second snapshot advances the sequence number monotonically.
    assert!(hub.snapshot().seq > snapshot.seq);
}
