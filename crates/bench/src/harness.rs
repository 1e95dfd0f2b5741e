//! The per-clip pipeline: render → composite → reconstruct → score.

use crate::ExpConfig;
use bb_callsim::{
    background, BackgroundId, CallSim, Mitigation, SoftwareProfile, VirtualBackground,
};
use bb_core::metrics;
use bb_core::pipeline::{Reconstruction, Reconstructor, VbSource};
use bb_datasets::ClipSpec;
use bb_imaging::Frame;
use bb_synth::GroundTruth;

/// Everything an experiment needs from one processed clip.
#[derive(Debug, Clone)]
pub struct ClipOutcome {
    /// Clip identifier.
    pub id: String,
    /// Ground-truth achievable RBRR (union of true leaks), percent.
    pub truth_rbrr: f64,
    /// The framework's recovered RBRR, percent.
    pub recon_rbrr: f64,
    /// Recovery precision vs the true background, percent.
    pub precision: f64,
    /// The reconstruction itself (for downstream attacks).
    pub reconstruction: Reconstruction,
    /// The clean true background (attack ground truth).
    pub true_background: Frame,
    /// The ground truth used (for experiments needing raw frames).
    pub ground_truth: GroundTruth,
}

/// The default virtual image used when an experiment does not vary it: the
/// first built-in gallery image.
pub fn default_vb(cfg: &ExpConfig) -> VirtualBackground {
    BackgroundId::Beach.realize(cfg.data.width, cfg.data.height)
}

/// The known-VB candidate set handed to the adversary (the built-in
/// gallery, §V-B's `D_img`).
pub fn gallery(cfg: &ExpConfig) -> Vec<Frame> {
    background::catalog_images(cfg.data.width, cfg.data.height)
}

/// Runs one clip end-to-end with the known-images adversary.
///
/// # Panics
///
/// Panics on pipeline errors — experiment inputs are generated and must be
/// well-formed; failures indicate bugs, not bad data.
pub fn run_clip(
    cfg: &ExpConfig,
    clip: &ClipSpec,
    vb: &VirtualBackground,
    profile: &SoftwareProfile,
    mitigation: Mitigation,
) -> ClipOutcome {
    let gt = clip.render(&cfg.data).expect("clip renders");
    // Production cameras (E3) give the matting stage cleaner input and
    // therefore a smaller error budget (§VIII-C).
    let profile = if clip.quality == bb_synth::camera::CameraQuality::production() {
        profile.scaled_errors(0.45)
    } else {
        profile.clone()
    };
    run_ground_truth(cfg, &clip.id, gt, vb, &profile, mitigation, clip.lighting)
}

/// Like [`run_clip`] but from an already-rendered ground truth.
pub fn run_ground_truth(
    cfg: &ExpConfig,
    id: &str,
    gt: GroundTruth,
    vb: &VirtualBackground,
    profile: &SoftwareProfile,
    mitigation: Mitigation,
    lighting: bb_synth::Lighting,
) -> ClipOutcome {
    let call = CallSim::new(&gt)
        .vb(vb.clone())
        .profile(profile.clone())
        .mitigation(mitigation)
        .lighting(lighting)
        .seed(cfg.data.seed)
        .run()
        .expect("session composites");
    let reconstructor = Reconstructor::new(VbSource::KnownImages(gallery(cfg)), cfg.recon);
    let reconstruction = reconstructor
        .reconstruct(&call.video)
        .expect("reconstruction succeeds");

    let truth_rbrr = metrics::rbrr_from_leaks(&call.truth.leaked).expect("leak masks consistent");
    let recon_rbrr = reconstruction.rbrr();
    let precision = metrics::recovery_precision(
        &reconstruction.background,
        &reconstruction.recovered,
        &gt.background,
        40,
    )
    .expect("precision computes");

    ClipOutcome {
        id: id.to_string(),
        truth_rbrr,
        recon_rbrr,
        precision,
        reconstruction,
        true_background: gt.background.clone(),
        ground_truth: gt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_callsim::ProfilePreset;

    #[test]
    fn clip_outcome_end_to_end() {
        let mut cfg = ExpConfig::new(true);
        cfg.data = bb_datasets::DatasetConfig::tiny();
        cfg.recon.phi = 2;
        let clips = bb_datasets::e1_catalog(&cfg.data);
        let outcome = run_clip(
            &cfg,
            &clips[3], // arm-waving base clip
            &default_vb(&cfg),
            &SoftwareProfile::preset(ProfilePreset::ZoomLike),
            Mitigation::None,
        );
        assert!(outcome.truth_rbrr > 0.0);
        assert!((0.0..=100.0).contains(&outcome.recon_rbrr));
        assert!((0.0..=100.0).contains(&outcome.precision));
        assert_eq!(outcome.ground_truth.video.len(), cfg.data.e1_frames);
    }
}
