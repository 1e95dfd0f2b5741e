//! The sharded cell runner: fan the matrix across the worker pool, stream
//! progress through the metrics hub, and assemble a [`SweepReport`].
//!
//! Two levels of fan-out compose here. Within a process, cells run on
//! `bb_core::workers` (index-ordered, worker-count-agnostic). Across
//! processes, a shard filter (`index % n == k`) partitions the matrix so
//! `bbuster sweep run --shard k/n` instances cover it exactly once and
//! [`SweepReport::merge`] reassembles the whole.
//!
//! A cell failure is a *result*, not an abort: the error lands in the
//! cell's report row and the `sweep/cells_failed` counter, and the rest of
//! the matrix keeps running.

use crate::report::{CellResult, SweepReport};
use crate::spec::{AttackSpec, CellSpec, SweepSpec, VbSpec};
use crate::SweepError;
use bb_attacks::location::{LocationDictionary, LocationInference};
use bb_callsim::{background, CallSim, SoftwareProfile};
use bb_core::pipeline::{ReconMode, Reconstructor, ReconstructorConfig, VbSource};
use bb_core::workers::{run_stage, CollectMode};
use bb_core::{metrics, CoreError};
use bb_synth::{Companion, Room, Scenario};
use bb_telemetry::{MetricsExporter, Telemetry};
use rand::{rngs::StdRng, SeedableRng};

/// Objects sampled into every sweep room (enough texture for the location
/// attack to discriminate rooms).
const ROOM_OBJECTS: usize = 3;

/// How the sweep executes: sharding, parallelism, observability.
pub struct RunOptions {
    /// `Some((k, n))`: run only cells with `index % n == k` and emit a
    /// shard report. `None`: run everything and emit a complete report.
    pub shard: Option<(usize, usize)>,
    /// Worker threads for the cell pool.
    pub workers: usize,
    /// Telemetry handle; attach a `MetricsHub` to stream progress.
    pub telemetry: Telemetry,
    /// Optional periodic snapshot writer, polled between cell chunks.
    pub exporter: Option<MetricsExporter>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            shard: None,
            workers: 1,
            telemetry: Telemetry::disabled(),
            exporter: None,
        }
    }
}

/// Runs the (shard of the) matrix and returns its report.
///
/// # Errors
///
/// [`SweepError::Spec`] on an invalid spec or shard selector;
/// [`SweepError::Core`] on worker-pool failures (cell pipeline errors are
/// captured per cell instead).
pub fn run_sweep(spec: &SweepSpec, mut opts: RunOptions) -> Result<SweepReport, SweepError> {
    spec.validate()?;
    if let Some((k, n)) = opts.shard {
        if n == 0 || k >= n {
            return Err(SweepError::Spec(format!(
                "bad shard {k}/{n} (index must be < count)"
            )));
        }
    }
    let all = spec.cells();
    let cells_total = all.len();
    let mine: Vec<CellSpec> = match opts.shard {
        Some((k, n)) => all.into_iter().filter(|c| c.index % n == k).collect(),
        None => all,
    };
    let telemetry = opts.telemetry.clone();
    if let Some(hub) = telemetry.metrics() {
        hub.set_gauge("sweep/cells_total", cells_total as f64);
    }
    // The location dictionary is shared by every attacked cell: the spec's
    // own scenario rooms, labelled by scenario name (§VIII-D's auxiliary
    // knowledge, scaled to the matrix).
    let dictionary = if mine.iter().any(|c| c.attack == AttackSpec::Location) {
        Some(build_dictionary(spec)?)
    } else {
        None
    };

    let workers = bb_core::workers::effective_workers(opts.workers, mine.len());
    let mut results: Vec<CellResult> = Vec::with_capacity(mine.len());
    // Chunked so the exporter can publish between batches — a long sweep
    // becomes observable mid-flight instead of only at the end.
    let chunk_size = (workers * 2).max(1);
    for chunk in mine.chunks(chunk_size) {
        let batch = run_stage(
            chunk.len(),
            workers,
            CollectMode::WorkerLocal,
            &telemetry,
            "sweep/cells",
            |i| Ok(run_cell(spec, &chunk[i], dictionary.as_ref(), &telemetry)),
        )
        .map_err(sweep_core_error)?;
        results.extend(batch);
        if let Some(exporter) = opts.exporter.as_mut() {
            // Best-effort: a failed snapshot write must not kill the sweep.
            let _ = exporter.maybe_export(&telemetry);
        }
    }

    Ok(SweepReport {
        spec_digest: spec.digest(),
        cells_total,
        shard: opts.shard.filter(|&(_, n)| n > 1),
        cells: results,
    })
}

fn sweep_core_error(e: CoreError) -> SweepError {
    SweepError::Core(e)
}

fn build_dictionary(spec: &SweepSpec) -> Result<LocationDictionary, SweepError> {
    let entries: Vec<(String, bb_imaging::Frame)> = spec
        .scenarios
        .iter()
        .map(|s| {
            let room = sample_room(s.room_seed, spec.width, spec.height);
            (s.name.clone(), room.render(spec.width, spec.height))
        })
        .collect();
    LocationDictionary::new(entries)
        .map_err(|e| SweepError::Spec(format!("location dictionary: {e}")))
}

fn sample_room(seed: u64, width: usize, height: usize) -> Room {
    Room::sample(
        seed,
        width,
        height,
        ROOM_OBJECTS,
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Alternating left/right companion placement, widening outwards.
fn companion_offset(i: usize) -> f32 {
    let side = if i.is_multiple_of(2) { -1.0 } else { 1.0 };
    side * (0.26 + 0.07 * (i / 2) as f32)
}

fn run_cell(
    spec: &SweepSpec,
    cell: &CellSpec,
    dictionary: Option<&LocationDictionary>,
    telemetry: &Telemetry,
) -> CellResult {
    let started = std::time::Instant::now();
    let outcome = execute_cell(spec, cell, dictionary, telemetry);
    if let Some(hub) = telemetry.metrics() {
        hub.record("sweep/cell", started.elapsed().as_nanos() as u64);
    }
    match outcome {
        Ok(mut result) => {
            telemetry.add("sweep/cells_done", 1);
            if let Some(hub) = telemetry.metrics() {
                hub.record("sweep/rbrr_centi", (result.rbrr * 100.0) as u64);
            }
            result.index = cell.index;
            result
        }
        Err(message) => {
            telemetry.add("sweep/cells_failed", 1);
            CellResult {
                index: cell.index,
                scenario: cell.scenario.name.clone(),
                profile: cell.profile.name().to_string(),
                background: cell.vb.name(),
                attack: cell.attack.name().to_string(),
                truth_rbrr: 0.0,
                rbrr: 0.0,
                precision: 0.0,
                attack_top1: None,
                error: Some(message),
            }
        }
    }
}

fn execute_cell(
    spec: &SweepSpec,
    cell: &CellSpec,
    dictionary: Option<&LocationDictionary>,
    telemetry: &Telemetry,
) -> Result<CellResult, String> {
    let (w, h) = (spec.width, spec.height);
    let room = sample_room(cell.scenario.room_seed, w, h);
    let scenario = Scenario {
        action: cell.scenario.action,
        speed: cell.scenario.speed,
        lighting: cell.scenario.lighting,
        companions: (0..cell.scenario.companions)
            .map(|i| Companion::participant(i + 1, companion_offset(i)))
            .collect(),
        width: w,
        height: h,
        fps: spec.fps,
        frames: spec.frames,
        seed: cell.seed,
        ..Scenario::baseline(room)
    };
    let gt = scenario.render().map_err(|e| format!("render: {e}"))?;

    let call = CallSim::new(&gt)
        .vb(cell.vb.mode(w, h))
        .profile(SoftwareProfile::preset(cell.profile))
        .lighting(cell.scenario.lighting)
        .seed(cell.seed)
        .telemetry(telemetry)
        .run()
        .map_err(|e| format!("composite: {e}"))?;

    // The adversary model follows the background axis: catalog media are
    // the known dictionaries of §V-B; blur has no reference medium, so the
    // reconstruction switches to deblurred-evidence accumulation.
    let mut config = ReconstructorConfig {
        parallelism: spec.cell_parallelism.max(1),
        ..ReconstructorConfig::default()
    };
    let source = match cell.vb {
        VbSpec::Catalog(id) if !id.is_video() => {
            VbSource::KnownImages(background::catalog_images(w, h))
        }
        VbSpec::Catalog(_) => VbSource::KnownVideos(background::catalog_videos(w, h)),
        VbSpec::Blur(radius) => {
            config.mode = ReconMode::BlurResidue { radius };
            VbSource::UnknownImage
        }
    };
    let reconstruction = Reconstructor::new(source, config)
        .with_telemetry(telemetry.clone())
        .reconstruct(&call.video)
        .map_err(|e| format!("reconstruct: {e}"))?;

    let truth_rbrr =
        metrics::rbrr_from_leaks(&call.truth.leaked).map_err(|e| format!("truth rbrr: {e}"))?;
    let rbrr = reconstruction.rbrr();
    let precision = metrics::recovery_precision(
        &reconstruction.background,
        &reconstruction.recovered,
        &gt.background,
        40,
    )
    .map_err(|e| format!("precision: {e}"))?;

    let attack_top1 = match cell.attack {
        AttackSpec::None => None,
        AttackSpec::Location => {
            let dictionary = dictionary.ok_or("location attack without a dictionary")?;
            let attack = LocationInference::default();
            match attack.rank(
                &reconstruction.background,
                &reconstruction.recovered,
                dictionary,
                telemetry,
            ) {
                Ok(ranking) => Some(
                    ranking
                        .ranked
                        .first()
                        .is_some_and(|(label, _)| *label == cell.scenario.name),
                ),
                // Nothing recovered: the attack ran and missed.
                Err(bb_attacks::AttackError::NothingRecovered) => Some(false),
                Err(e) => return Err(format!("location attack: {e}")),
            }
        }
    };

    Ok(CellResult {
        index: cell.index,
        scenario: cell.scenario.name.clone(),
        profile: cell.profile.name().to_string(),
        background: cell.vb.name(),
        attack: cell.attack.name().to_string(),
        truth_rbrr,
        rbrr,
        precision,
        attack_top1,
        error: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use bb_callsim::ProfilePreset;
    use bb_synth::{Action, Lighting, Speed};

    fn tiny() -> SweepSpec {
        SweepSpec::tiny()
    }

    #[test]
    fn one_shard_run_covers_the_matrix_and_is_deterministic() {
        let spec = tiny();
        let a = run_sweep(&spec, RunOptions::default()).unwrap();
        assert_eq!(a.cells.len(), spec.cell_count());
        assert!(a.shard.is_none());
        assert!(a.cells.iter().all(|c| c.error.is_none()), "{:?}", a.cells);
        let b = run_sweep(
            &spec,
            RunOptions {
                workers: 4,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            a.to_json_string(),
            b.to_json_string(),
            "worker count changed the report"
        );
    }

    #[test]
    fn sharded_runs_merge_to_the_unsharded_report_byte_for_byte() {
        let spec = tiny();
        let whole = run_sweep(&spec, RunOptions::default()).unwrap();
        let shard = |k: usize| {
            run_sweep(
                &spec,
                RunOptions {
                    shard: Some((k, 2)),
                    ..RunOptions::default()
                },
            )
            .unwrap()
        };
        let (s0, s1) = (shard(0), shard(1));
        assert_eq!(s0.cells.len() + s1.cells.len(), spec.cell_count());
        assert_eq!(s0.shard, Some((0, 2)));
        let merged = SweepReport::merge(&[s1, s0]).unwrap();
        assert_eq!(merged.to_json_string(), whole.to_json_string());
    }

    #[test]
    fn blur_cells_recover_background_above_the_floor() {
        // The acceptance floor: at least one blur scenario reconstructs
        // meaningful background through deblurred-evidence accumulation.
        let spec = tiny();
        let report = run_sweep(&spec, RunOptions::default()).unwrap();
        let best_blur = report
            .cells
            .iter()
            .filter(|c| c.background.starts_with("blur:"))
            .map(|c| c.rbrr)
            .fold(0.0, f64::max);
        assert!(
            best_blur > 10.0,
            "best blur-cell RBRR {best_blur:.2}% under the floor"
        );
    }

    #[test]
    fn location_attack_cells_report_top1() {
        let mut spec = tiny();
        spec.attacks = vec![AttackSpec::Location];
        spec.profiles = vec![ProfilePreset::ZoomLike];
        spec.backgrounds = vec![crate::spec::VbSpec::Catalog(
            bb_callsim::BackgroundId::Beach,
        )];
        let report = run_sweep(&spec, RunOptions::default()).unwrap();
        assert!(report.cells.iter().all(|c| c.attack_top1.is_some()));
        let agg = report.aggregates();
        let accuracy = agg.attack_accuracy.expect("attacked cells aggregate");
        assert!((0.0..=1.0).contains(&accuracy));
    }

    #[test]
    fn multi_person_scenarios_run() {
        let mut spec = tiny();
        spec.scenarios = vec![ScenarioSpec {
            name: "duo".to_string(),
            action: Action::Clapping,
            speed: Speed::Average,
            lighting: Lighting::On,
            room_seed: 5,
            companions: 2,
        }];
        spec.attacks = vec![AttackSpec::None];
        let report = run_sweep(&spec, RunOptions::default()).unwrap();
        assert!(report.cells.iter().all(|c| c.error.is_none()));
    }

    #[test]
    fn bad_shard_selector_is_rejected() {
        let spec = tiny();
        for shard in [(2, 2), (0, 0)] {
            let err = run_sweep(
                &spec,
                RunOptions {
                    shard: Some(shard),
                    ..RunOptions::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, SweepError::Spec(_)));
        }
    }

    #[test]
    fn metrics_stream_through_the_hub() {
        let hub = bb_telemetry::MetricsHub::new();
        let telemetry = Telemetry::enabled().with_metrics(hub);
        let spec = tiny();
        let report = run_sweep(
            &spec,
            RunOptions {
                telemetry: telemetry.clone(),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let snap = telemetry.metrics().unwrap().snapshot();
        assert_eq!(
            snap.counters["sweep/cells_done"].total,
            report.cells.len() as u64
        );
        assert_eq!(snap.gauges["sweep/cells_total"], spec.cell_count() as f64);
        assert!(snap.hists.contains_key("sweep/cell"));
    }
}
