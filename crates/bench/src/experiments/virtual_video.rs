//! §V-B end-to-end with virtual *videos*: known-video identification and
//! unknown-video loop derivation feeding the full reconstruction.
//!
//! The paper treats looping virtual videos as a first-class case: the
//! adversary either owns the video (`D_vid`, matched frame-by-frame with the
//! extended highest-likelihood estimator) or derives every frame of the loop
//! from its periodic recurrences. This experiment runs both adversaries over
//! the same composited calls and compares recovery against the static-image
//! case.

use crate::harness::default_vb;
use crate::report::{mean, pct, section, Table};
use crate::ExpConfig;
use bb_callsim::{background, CallSim, ProfilePreset, SoftwareProfile, VirtualBackground};
use bb_core::metrics;
use bb_core::pipeline::{Reconstructor, VbSource};

/// Runs the virtual-video reconstruction experiment.
pub fn run(cfg: &ExpConfig) -> String {
    let (w, h) = (cfg.data.width, cfg.data.height);
    let zoom = SoftwareProfile::preset(ProfilePreset::ZoomLike);
    let videos = background::catalog_videos(w, h);
    let clips: Vec<_> = bb_datasets::e1_catalog(&cfg.data)
        .into_iter()
        .filter(|c| {
            (c.id.contains("arm-waving") || c.id.contains("enter-exit"))
                && c.lighting == bb_synth::Lighting::On
                && c.caller.accessories.is_empty()
                && c.segments[0].1 == bb_synth::Speed::Average
                && !c.id.contains("apparel")
        })
        .take(if cfg.quick { 2 } else { 4 })
        .collect();

    let mut known_video = Vec::new();
    let mut unknown_video = Vec::new();
    // "clip: error" for each clip whose loop derivation failed.
    let mut derivation_failures = Vec::new();
    let mut known_image = Vec::new();
    let mut precision_known_video = Vec::new();

    for (ci, clip) in clips.iter().enumerate() {
        let gt = clip.render(&cfg.data).expect("clip renders");
        let vb = VirtualBackground::Video(videos[ci % videos.len()].clone());
        let call = CallSim::new(&gt)
            .vb(vb.clone())
            .profile(zoom.clone())
            .lighting(clip.lighting)
            .seed(cfg.data.seed)
            .run()
            .expect("session composites");

        // Known-video adversary: owns D_vid.
        let rec = Reconstructor::new(VbSource::KnownVideos(videos.clone()), cfg.recon)
            .reconstruct(&call.video)
            .expect("known-video reconstruction");
        known_video.push(rec.rbrr());
        precision_known_video.push(
            metrics::recovery_precision(&rec.background, &rec.recovered, &gt.background, 40)
                .expect("precision"),
        );

        // Unknown-video adversary: derives the loop from the call.
        let max_period = videos.iter().map(|v| v.len()).max().expect("videos") + 6;
        match Reconstructor::new(
            VbSource::UnknownVideo {
                min_period: 4,
                max_period,
            },
            cfg.recon,
        )
        .reconstruct(&call.video)
        {
            Ok(rec) => unknown_video.push(rec.rbrr()),
            Err(e) => derivation_failures.push(format!("{}: {e}", clip.id)),
        }

        // Baseline: the same clip behind a static image.
        let img_call = CallSim::new(&gt)
            .vb(default_vb(cfg))
            .profile(zoom.clone())
            .lighting(clip.lighting)
            .seed(cfg.data.seed)
            .run()
            .expect("session composites");
        let rec = Reconstructor::new(
            VbSource::KnownImages(background::catalog_images(w, h)),
            cfg.recon,
        )
        .reconstruct(&img_call.video)
        .expect("image reconstruction");
        known_image.push(rec.rbrr());
    }

    let mut table = Table::new(&["adversary", "mean RBRR"]);
    table.row(&[
        "known virtual video (D_vid)".into(),
        pct(mean(&known_video)),
    ]);
    table.row(&[
        "unknown virtual video (loop derivation)".into(),
        pct(mean(&unknown_video)),
    ]);
    table.row(&[
        "known virtual image (same clips)".into(),
        pct(mean(&known_image)),
    ]);

    let failed = match derivation_failures.first() {
        None => String::new(),
        Some(first) => format!(
            "; derivation failed on {} of {} clips, first {first}",
            derivation_failures.len(),
            clips.len()
        ),
    };
    let shape = format!(
        "shape: virtual videos leak like virtual images (known-video {} vs known-image {}) and \
         loop derivation stays usable ({} over {} clips{failed}); known-video precision {}: {}",
        pct(mean(&known_video)),
        pct(mean(&known_image)),
        pct(mean(&unknown_video)),
        unknown_video.len(),
        pct(mean(&precision_known_video)),
        derivation_failures.is_empty(),
    );

    section(
        "§V-B — virtual *video* backgrounds end-to-end",
        "looping virtual videos protect no better than images: frame-matched masking (known) and \
         per-phase loop derivation (unknown) both support reconstruction",
        &format!("{}\n{}", table.render(), shape),
    )
}
