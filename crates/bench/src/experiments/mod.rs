//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`vbmr`] | §VIII-B virtual background masking rates |
//! | [`initial_leakage`] | Fig 5 initial-frame leakage decay |
//! | [`gallery`] | Fig 6 reconstructed background examples |
//! | [`actions`] | Fig 7 RBRR per action per participant |
//! | [`speed`] | Fig 8 + §VIII-C action speed & displacement |
//! | [`accessories`] | Fig 9 accessory (in)sensitivity |
//! | [`lighting`] | Fig 10/11 lights on vs off |
//! | [`passive_active`] | Fig 12a passive / active / wild RBRR |
//! | [`phi`] | §VIII-C framework-parameter (φ) study |
//! | [`location`] | Fig 12b location-inference top-k |
//! | [`tracking`] | Fig 13 + §VIII-D specific object tracking |
//! | [`generic_text`] | Fig 14 generic object + text detection |
//! | [`software`] | §VIII-E Zoom-like vs Skype-like |
//! | [`mitigation`] | Fig 15 dynamic virtual background |
//! | [`heuristics`] | §IX-B other mitigation heuristics |
//! | [`crosscall`] | §V-B cross-call virtual-image fusion |
//! | [`virtual_video`] | §V-B virtual-video backgrounds end-to-end |

pub mod accessories;
pub mod actions;
pub mod crosscall;
pub mod gallery;
pub mod generic_text;
pub mod heuristics;
pub mod initial_leakage;
pub mod lighting;
pub mod location;
pub mod mitigation;
pub mod passive_active;
pub mod phi;
pub mod software;
pub mod speed;
pub mod tracking;
pub mod vbmr;
pub mod virtual_video;

use crate::ExpConfig;

/// An experiment's name (its module name) and its `run` function.
type Experiment = (&'static str, fn(&ExpConfig) -> String);

/// Every experiment in paper order, under the name `run_all` takes.
const EXPERIMENTS: [Experiment; 17] = [
    ("vbmr", vbmr::run),
    ("initial_leakage", initial_leakage::run),
    ("gallery", gallery::run),
    ("actions", actions::run),
    ("speed", speed::run),
    ("accessories", accessories::run),
    ("lighting", lighting::run),
    ("phi", phi::run),
    ("passive_active", passive_active::run),
    ("location", location::run),
    ("tracking", tracking::run),
    ("generic_text", generic_text::run),
    ("software", software::run),
    ("mitigation", mitigation::run),
    ("heuristics", heuristics::run),
    ("crosscall", crosscall::run),
    ("virtual_video", virtual_video::run),
];

/// The entries of `EXPERIMENTS` named in `names`, in paper order (each
/// once); no names selects every experiment. An unknown name is an error
/// listing the valid ones.
fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
    if let Some(unknown) = names
        .iter()
        .map(AsRef::as_ref)
        .find(|name| EXPERIMENTS.iter().all(|(known, _)| known != name))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment `{unknown}`; valid names: {}",
            valid.join(", ")
        ));
    }
    Ok(EXPERIMENTS
        .into_iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n.as_ref() == *name))
        .collect())
}

/// Runs the experiments named in `names` (all of them when empty) in paper
/// order and returns the combined report.
///
/// When both run, the E2/E3 reconstructions are computed once and shared
/// between Fig 12a (`passive_active`, recovery) and Fig 12b (`location`,
/// location inference).
///
/// # Errors
///
/// A message listing the valid names when a name is not an experiment
/// module.
pub fn run_all<S: AsRef<str>>(cfg: &ExpConfig, names: &[S]) -> Result<String, String> {
    let mut out = String::new();
    let mut grouped = None;
    for (name, run) in select(names)? {
        eprintln!("[bb-bench] running experiment: {name}");
        let started = std::time::Instant::now();
        let report = match (name, &grouped) {
            ("passive_active", _) => {
                let g = passive_active::grouped_outcomes(cfg);
                let report = passive_active::render_report(&g);
                grouped = Some(g);
                report
            }
            ("location", Some(g)) => location::run_with_outcomes(cfg, g),
            _ => run(cfg),
        };
        out.push_str(&report);
        eprintln!("[bb-bench] {name} finished in {:.1?}", started.elapsed());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_module_is_named_once() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name in {names:?}");
        // The table and the `pub mod` list above name the same modules.
        let source = include_str!("mod.rs");
        let mut modules: Vec<&str> = source
            .lines()
            .filter_map(|line| line.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        modules.sort_unstable();
        assert_eq!(sorted, modules);
    }

    #[test]
    fn selection_keeps_paper_order_and_rejects_unknown_names() {
        let picked: Vec<&str> = select(&["phi", "actions", "phi"])
            .unwrap()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(picked, ["actions", "phi"]);
        assert_eq!(select::<&str>(&[]).unwrap().len(), EXPERIMENTS.len());
        let err = select(&["actions", "fig99"]).unwrap_err();
        assert!(err.contains("`fig99`"), "{err}");
        for (name, _) in EXPERIMENTS {
            assert!(err.contains(name), "{err} must list {name}");
        }
    }
}
