//! The pipeline's worker pool: runs a fallible per-frame job over every
//! frame index and collects the results in frame order.
//!
//! Workers pull indices from an atomic dispenser and append `(index, value)`
//! pairs to a thread-local vector; results merge into the ordered output
//! after the join, so the hot loop takes **no lock**. Worker panics are
//! caught and surfaced as [`CoreError::WorkerPanic`] instead of aborting the
//! process, and per-worker job counts and busy time are recorded into a
//! [`Telemetry`] handle under `workers/<stage>/…`.
//!
//! The host's core count is read once per process ([`host_cores`]) and
//! cached: the standard library's query reads the affinity mask and the
//! cgroup quota files on every call, and the pool is sized on every
//! pushed block, which in a streaming session is every frame.

use crate::CoreError;
use bb_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// How [`run_stage`] collects per-frame results. There is one strategy,
/// the lock-free worker-local collector.
///
/// The type survives only because the external benchmark crate
/// (`benchmark/src/batch.rs`) passes `ReconstructorConfig::collect_mode` to
/// [`run_stage`]; once that benchmark stops doing so, this type, the config
/// field and `run_stage`'s `mode` parameter can be removed together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectMode {
    /// Lock-free worker-local collection, merged after the join.
    #[default]
    WorkerLocal,
}

/// Caps a requested worker count at the machine's available parallelism
/// (and at the job count). Results are index-ordered and bit-identical for
/// any worker count, so oversubscribing buys nothing and costs thread
/// spawns, scheduler churn and dispenser contention — on a single-core
/// host, a requested pool of 8 otherwise turns a serial workload into nine
/// threads taking turns.
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    requested.max(1).min(host_cores()).min(jobs.max(1))
}

/// The host's available parallelism (1 when it cannot be read), queried
/// once per process and cached: the query makes system calls and heap
/// allocations each time, and a later change of affinity or quota is not
/// followed.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        #[allow(clippy::disallowed_methods)] // the one cached query
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Runs `job(i)` for every `i in 0..n` on up to `workers` threads and
/// returns the results in index order.
///
/// The first job error cancels the remaining work (already-started jobs
/// finish) and is returned. A panicking job is caught at the thread join and
/// surfaced as [`CoreError::WorkerPanic`]; the process is not aborted.
///
/// `stage` names the telemetry namespace. The pool's aggregate busy time
/// lands in `workers/<stage>/busy`; each spawned worker additionally gets
/// its own span in `workers/<stage>/busy/w<k>` and job count in
/// `workers/<stage>/jobs/w<k>`. The inline fallback (one worker or one
/// frame) uses the lane name `serial` instead of `w0`, so a report can
/// tell "ran without a pool" apart from "worker 0 did everything".
///
/// # Errors
///
/// Returns the first job error, or [`CoreError::WorkerPanic`] when a worker
/// panicked.
pub fn run_stage<T, F>(
    n: usize,
    workers: usize,
    mode: CollectMode,
    telemetry: &Telemetry,
    stage: &str,
    job: F,
) -> Result<Vec<T>, CoreError>
where
    T: Send,
    F: Fn(usize) -> Result<T, CoreError> + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        let started = Instant::now();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(job(i)?);
        }
        if telemetry.is_enabled() || telemetry.has_journal() {
            let busy = started.elapsed();
            // The inline fallback is labelled `serial`, never `w0`: a report
            // must distinguish "no pool was spawned" from "worker 0 did it".
            telemetry.record_duration(&format!("workers/{stage}/busy"), busy);
            telemetry.record_span(&format!("workers/{stage}/busy/serial"), started, busy);
            telemetry.add(&format!("workers/{stage}/jobs/serial"), n as u64);
        }
        return Ok(out);
    }
    let CollectMode::WorkerLocal = mode;
    let job = &job;
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let per_worker: Vec<WorkerOutcome<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let stop = &stop;
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut local: Vec<(usize, T)> = Vec::with_capacity(n / workers + 1);
                    let mut error = None;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match job(i) {
                            Ok(v) => local.push((i, v)),
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    (local, error, started, started.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    collect_outcomes(n, per_worker, telemetry, stage)
}

/// What one worker thread produced: `(index, value)` pairs, the first error
/// it hit, and when/how long it was busy — or the panic payload.
type WorkerResult<T> = (
    Vec<(usize, T)>,
    Option<CoreError>,
    Instant,
    std::time::Duration,
);
type WorkerOutcome<T> = Result<WorkerResult<T>, String>;

fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, WorkerResult<T>>) -> WorkerOutcome<T> {
    handle.join().map_err(|payload| panic_text(&*payload))
}

/// The message of a caught panic's payload (`panic!` with a literal or a
/// formatted string), for reporting it as [`CoreError::WorkerPanic`].
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Merges per-worker outcomes into the ordered output, preferring panic
/// reports over job errors (a panic means the stage itself is broken).
fn collect_outcomes<T>(
    n: usize,
    per_worker: Vec<WorkerOutcome<T>>,
    telemetry: &Telemetry,
    stage: &str,
) -> Result<Vec<T>, CoreError> {
    let mut first_error = None;
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (worker, outcome) in per_worker.into_iter().enumerate() {
        match outcome {
            Err(panic_msg) => {
                telemetry.add("workers/panics", 1);
                return Err(CoreError::WorkerPanic(format!(
                    "worker {worker} panicked: {panic_msg}"
                )));
            }
            Ok((local, error, started, busy)) => {
                if telemetry.is_enabled() || telemetry.has_journal() {
                    telemetry.record_duration(&format!("workers/{stage}/busy"), busy);
                    // Per-worker span with the worker's real start instant —
                    // this is what gives each worker its own trace lane.
                    telemetry.record_span(
                        &format!("workers/{stage}/busy/w{worker}"),
                        started,
                        busy,
                    );
                    telemetry.add(
                        &format!("workers/{stage}/jobs/w{worker}"),
                        local.len() as u64,
                    );
                }
                if first_error.is_none() {
                    first_error = error;
                }
                for (i, v) in local {
                    slots[i] = Some(v);
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(v) => out.push(v),
            None => {
                return Err(CoreError::WorkerPanic(format!(
                    "frame {i} produced no result"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODE: CollectMode = CollectMode::WorkerLocal;

    #[test]
    fn results_are_index_ordered() {
        for workers in [1, 2, 8] {
            let out = run_stage(
                37,
                workers,
                MODE,
                &Telemetry::disabled(),
                "t",
                |i| Ok(i * 3),
            )
            .unwrap();
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = run_stage(0, 4, MODE, &Telemetry::disabled(), "t", Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn job_error_is_propagated() {
        for workers in [1, 4] {
            let r = run_stage(20, workers, MODE, &Telemetry::disabled(), "t", |i| {
                if i == 11 {
                    Err(CoreError::NoPeriodFound)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(r.unwrap_err(), CoreError::NoPeriodFound);
        }
    }

    #[test]
    fn worker_panic_becomes_core_error() {
        for workers in [2, 8] {
            let r = run_stage(16, workers, MODE, &Telemetry::disabled(), "t", |i| {
                if i == 7 {
                    panic!("injected failure in frame {i}");
                }
                Ok(i)
            });
            match r {
                Err(CoreError::WorkerPanic(msg)) => {
                    assert!(msg.contains("injected failure"), "message: {msg}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn sequential_path_panics_are_not_caught() {
        // workers == 1 runs inline: a panic propagates to the caller like
        // any other function call (no thread boundary to absorb it).
        let caught = std::panic::catch_unwind(|| {
            let _ = run_stage(4, 1, MODE, &Telemetry::disabled(), "t", |i| {
                if i == 2 {
                    panic!("inline");
                }
                Ok(i)
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn telemetry_records_worker_jobs() {
        let t = Telemetry::enabled();
        run_stage(24, 3, MODE, &t, "stage", Ok).unwrap();
        let report = t.report();
        let total: u64 = (0..3)
            .map(|w| {
                report
                    .counters
                    .get(&format!("workers/stage/jobs/w{w}"))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 24);
        assert_eq!(report.stages["workers/stage/busy"].calls, 3);
        // Each spawned worker also gets its own single-span lane.
        for w in 0..3 {
            assert_eq!(report.stages[&format!("workers/stage/busy/w{w}")].calls, 1);
        }
        assert!(!report.counters.contains_key("workers/stage/jobs/serial"));
    }

    #[test]
    fn serial_fallback_is_labelled_serial_not_w0() {
        let t = Telemetry::enabled();
        run_stage(6, 1, MODE, &t, "stage", Ok).unwrap();
        let report = t.report();
        assert_eq!(report.counters["workers/stage/jobs/serial"], 6);
        assert_eq!(report.stages["workers/stage/busy/serial"].calls, 1);
        assert!(!report.counters.contains_key("workers/stage/jobs/w0"));
        assert!(!report.stages.contains_key("workers/stage/busy/w0"));
    }

    #[test]
    fn journal_only_telemetry_still_records_worker_spans() {
        let t = Telemetry::disabled().with_journal(bb_telemetry::Journal::with_capacity(1024));
        run_stage(12, 3, MODE, &t, "stage", Ok).unwrap();
        let journal = t.journal().expect("journal attached");
        let lanes: std::collections::BTreeSet<String> = journal
            .events()
            .iter()
            .filter(|e| e.stage.starts_with("workers/stage/busy/"))
            .map(|e| e.stage.rsplit('/').next().unwrap().to_string())
            .collect();
        assert_eq!(
            lanes,
            ["w0", "w1", "w2"]
                .iter()
                .map(|s| s.to_string())
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
}
