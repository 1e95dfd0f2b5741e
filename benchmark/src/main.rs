//! `bb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`, each as `{"value", "unit"}`). The line before it is the
//! host stamp. Exits 1 when an output check failed, 2 on bad usage or a
//! run that could not measure anything.

use bb_benchmark::{run, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch root under the working directory; each run uses its own
/// subdirectory.
const WORK_ROOT: &str = ".bench_work";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = bb_benchmark::check::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (vga_call, blur_call, serve_fleet)")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        scale: Scale::Full,
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(WORK_ROOT).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let list = if config.trace { PER_LAYER } else { END_TO_END };
    let outcome = run(&config);
    // Only succeeds once no other run is using the scratch root.
    std::fs::remove_dir(WORK_ROOT).ok();
    let line = outcome.and_then(|outcome| {
        println!("{}", outcome.stamp_line());
        Ok((outcome.correct, outcome.result_line(list)?))
    });
    match line {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("bb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
