//! # bb-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§VIII–IX), regenerating the corresponding rows/series from
//! the synthetic corpora. See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! Each experiment lives in [`experiments`] as `run(&ExpConfig) -> String`;
//! the `run_all` binary chains every experiment, or the ones named on its
//! command line, into one report.
//!
//! Environment:
//! * `BB_QUICK=1` — smaller frames/corpora subsets for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod harness;
pub mod report;

pub use config::ExpConfig;
pub use harness::{run_clip, ClipOutcome};
