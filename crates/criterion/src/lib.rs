//! Offline stand-in for `criterion`.
//!
//! Supports the `criterion_group!`/`criterion_main!` + `bench_function`
//! shape used by the workspace's benches. Each bench runs a short warmup,
//! then `sample_size` timed iterations, and prints min/median/mean wall
//! times. No statistical machinery, plots, or baselines — for tracked
//! numbers use the repository's `benchmark/` package, which runs repeated,
//! layer-attributed workloads and emits machine-readable JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub use std::hint::black_box;

/// The benchmark driver handed to group target functions.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per bench.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        bencher.report(name);
        self
    }
}

/// Times the closure passed to [`Bencher::iter`].
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `f` repeatedly, recording one wall-time sample per run.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup: one untimed run (fills caches, faults pages).
        black_box(f());
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(f());
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        println!(
            "{name:<44} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({} samples)",
            min,
            median,
            mean,
            sorted.len()
        );
    }
}

/// Declares a bench group function (both criterion forms are accepted).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),* $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)*
        }
    };
}

/// Declares the bench `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $($group();)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_records() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0usize;
        c.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        // 1 warmup + 3 samples.
        assert_eq!(runs, 4);
    }
}
