//! Experiment configuration.

use bb_core::pipeline::ReconstructorConfig;
use bb_datasets::DatasetConfig;

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Corpus geometry and sizes.
    pub data: DatasetConfig,
    /// Reconstruction pipeline tunables.
    pub recon: ReconstructorConfig,
    /// Quick mode: subsample corpora for smoke runs.
    pub quick: bool,
    /// Directory for artifact dumps (reconstruction PPMs).
    pub out_dir: std::path::PathBuf,
}

impl ExpConfig {
    /// Builds the configuration from the environment (`BB_QUICK=1` for the
    /// reduced smoke configuration).
    pub fn from_env() -> Self {
        let quick = std::env::var("BB_QUICK").map(|v| v == "1").unwrap_or(false);
        Self::new(quick)
    }

    /// Builds the configuration explicitly.
    pub fn new(quick: bool) -> Self {
        let data = if quick {
            DatasetConfig {
                width: 96,
                height: 72,
                e1_frames: 60,
                e2_frames: 90,
                e3_frames: 80,
                ..DatasetConfig::default()
            }
        } else {
            DatasetConfig::default()
        };
        let recon = ReconstructorConfig {
            tau: 14,
            // φ scales with resolution: the paper's 20 at 480p ≈ 5 at 120p.
            phi: (data.height / 24).max(2),
            parallelism: bb_core::workers::host_cores(),
            ..ReconstructorConfig::default()
        };
        ExpConfig {
            data,
            recon,
            quick,
            out_dir: std::path::PathBuf::from("target/experiments"),
        }
    }

    /// Takes every `n`-th element in quick mode, everything otherwise.
    pub fn subsample<T>(&self, items: Vec<T>, keep_every_quick: usize) -> Vec<T> {
        if self.quick {
            items.into_iter().step_by(keep_every_quick.max(1)).collect()
        } else {
            items
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        let quick = ExpConfig::new(true);
        let full = ExpConfig::new(false);
        assert!(quick.data.width < full.data.width);
        assert!(quick.data.e1_frames < full.data.e1_frames);
    }

    #[test]
    fn phi_scales_with_height() {
        let full = ExpConfig::new(false);
        assert_eq!(full.recon.phi, full.data.height / 24);
    }

    #[test]
    fn subsample_respects_quick() {
        let quick = ExpConfig::new(true);
        let full = ExpConfig::new(false);
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(quick.subsample(items.clone(), 3).len(), 4);
        assert_eq!(full.subsample(items, 3).len(), 10);
    }
}
