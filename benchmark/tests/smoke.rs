//! Tiny-geometry runs of every workload, untraced and traced, through the
//! same output checks as the benchmark proper; and agreement between the
//! metric lists in code and `BENCHMARK.json`.

use bb_benchmark::{run, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};
use bb_telemetry::json::{self, Json};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) {
    let config = RunConfig {
        workload,
        scale: Scale::Tiny,
        seed: 7,
        seconds: 0.05,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name())),
    };
    let outcome = run(&config).expect("tiny run completes");
    assert!(outcome.correct, "{} output check failed", workload.name());
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 1);
    assert!(
        !config.work_dir.exists(),
        "the run removes its scratch files"
    );
    let list = if trace { PER_LAYER } else { END_TO_END };
    let line = outcome
        .result_line(list)
        .expect("every listed metric measured");
    let parsed = json::parse(&line).expect("result line is JSON");
    let metrics = parsed.as_object("result").unwrap()["metrics"]
        .as_object("metrics")
        .unwrap();
    assert_eq!(metrics.len(), list.len());
    if trace {
        assert_eq!(outcome.metrics["failed_frac"], 0.0);
        assert!(outcome.metrics["pass2.busy_s"] > 0.0);
        assert!(outcome.metrics["lock.segmenter_fit_s"] > 0.0);
    } else {
        for &(name, _) in END_TO_END {
            assert!(outcome.metrics[name] > 0.0, "{name} must never read 0");
        }
    }
}

#[test]
fn vga_call_smoke() {
    smoke(Workload::VgaCall, false);
}

#[test]
fn vga_call_traced_replay_matches_and_tiles() {
    smoke(Workload::VgaCall, true);
}

#[test]
fn blur_call_smoke() {
    smoke(Workload::BlurCall, false);
}

#[test]
fn blur_call_traced_replay_matches_and_tiles() {
    smoke(Workload::BlurCall, true);
}

#[test]
fn serve_fleet_smoke() {
    smoke(Workload::ServeFleet, false);
}

#[test]
fn serve_fleet_traced_smoke() {
    smoke(Workload::ServeFleet, true);
}

#[test]
fn benchmark_json_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    let root = root.as_object("BENCHMARK.json").unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        match &root[key] {
            Json::Array(items) => items
                .iter()
                .map(|item| {
                    let item = item.as_object(key).unwrap();
                    let unit = item
                        .get("unit")
                        .map_or("", |u| u.as_string("unit").unwrap());
                    (
                        item["name"].as_string("name").unwrap().to_string(),
                        unit.to_string(),
                    )
                })
                .collect(),
            other => panic!("{key} is not an array: {other:?}"),
        }
    };
    let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), listed(END_TO_END));
    assert_eq!(names("per_layer"), listed(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
