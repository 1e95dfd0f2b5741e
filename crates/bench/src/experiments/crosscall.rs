//! §V-B's stationary-user mitigation: cross-call virtual-background fusion.
//!
//! Paper: a stationary caller never reveals the virtual-image pixels behind
//! them, so the derived reference has a hole. "This problem can be mitigated
//! by the adversary by searching for the unknown virtual image in other call
//! videos (used by the same user or other users), and then using them
//! during the virtual image derivation process."
//!
//! The experiment derives the unknown virtual image from one call, then from
//! three calls (different rooms/callers, same virtual image) fused with
//! [`bb_core::vbmask::merge_references`], and compares reference validity
//! and downstream recovery. The fusion is a per-pixel vote: a value two
//! calls agree on within `tau` is kept, a value only one call saw is
//! dropped, so the stationary caller's body, which one derivation wrongly
//! takes for virtual background, leaves the reference.

use crate::report::{pct, section, Table};
use crate::ExpConfig;
use bb_callsim::{BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VirtualBackground};
use bb_core::pipeline::{Reconstructor, VbSource};
use bb_core::vbmask::{derive_unknown_image, merge_references};
use bb_synth::{Action, CallerAppearance, Lighting, Room, Scenario};
use rand::{rngs::StdRng, SeedableRng};

/// Runs the cross-call fusion experiment.
pub fn run(cfg: &ExpConfig) -> String {
    let (w, h) = (cfg.data.width, cfg.data.height);
    let zoom = SoftwareProfile::preset(ProfilePreset::ZoomLike);
    let vb = BackgroundId::Office.realize(w, h);
    let VirtualBackground::Image(vb_img) = vb.clone() else {
        unreachable!("office is a static image")
    };

    // Three calls sharing one virtual image: different rooms and callers,
    // all fairly stationary (the hard case for derivation), each framed at a
    // different screen position — so each call hides a *different* part of
    // the virtual image, which is exactly what fusion exploits.
    let calls: Vec<_> = (0..3u64)
        .map(|i| {
            let room = Room::sample(500 + i, w, h, 5, &mut StdRng::seed_from_u64(500 + i));
            let gt = Scenario {
                action: if i == 0 {
                    Action::Still
                } else {
                    Action::Typing
                },
                caller: CallerAppearance::participant(i as usize),
                camera: bb_synth::CameraPose {
                    dx: (i as f32 - 1.0) * w as f32 * 0.18,
                    dy: 0.0,
                    rot_deg: 0.0,
                },
                width: w,
                height: h,
                frames: cfg.data.e1_frames,
                seed: 900 + i,
                ..Scenario::baseline(room)
            }
            .render()
            .expect("render");
            CallSim::new(&gt)
                .vb(vb.clone())
                .profile(zoom.clone())
                .lighting(Lighting::On)
                .seed(30 + i)
                .run()
                .expect("session")
        })
        .collect();

    // Single-call derivation vs cross-call fusion.
    let single = derive_unknown_image(calls[0].video.frames(), cfg.recon.tau).expect("derive");
    let refs: Vec<_> = calls
        .iter()
        .map(|c| derive_unknown_image(c.video.frames(), cfg.recon.tau).expect("derive"))
        .collect();
    let fused = merge_references(&refs, cfg.recon.tau).expect("merge");

    // Validity restricted to *correct* pixels (matching the true VB).
    let correct_validity = |r: &bb_core::vbmask::VirtualReference| -> f64 {
        let bb_core::vbmask::VirtualReference::Image { image, valid } = r else {
            unreachable!("image derivation")
        };
        let correct = valid
            .iter_set()
            .filter(|&(x, y)| image.get(x, y).matches(vb_img.get(x, y), 16))
            .count();
        correct as f64 / (w * h) as f64 * 100.0
    };

    // Downstream recovery on call 0 with each reference.
    let rbrr_with = |r: &bb_core::vbmask::VirtualReference| -> f64 {
        Reconstructor::new(VbSource::Exact(r.clone()), cfg.recon)
            .reconstruct(&calls[0].video)
            .expect("reconstruct")
            .rbrr()
    };

    let mut table = Table::new(&["reference", "correct VB coverage", "recon RBRR (call 0)"]);
    let single_cov = correct_validity(&single);
    let fused_cov = correct_validity(&fused);
    let single_rbrr = rbrr_with(&single);
    let fused_rbrr = rbrr_with(&fused);
    table.row(&["single call".into(), pct(single_cov), pct(single_rbrr)]);
    table.row(&[
        "3-call voting fusion".into(),
        pct(fused_cov),
        pct(fused_rbrr),
    ]);

    // The decisive effect: a single stationary call derives the caller's own
    // body as "virtual background" (it is stable!), which silently removes
    // genuine residue; cross-call voting strips those uncorroborated pixels
    // and recovery over the same call multiplies.
    let shape = format!(
        "shape: voting fusion unlocks recovery on the stationary call \
         (RBRR {} -> {}): {} | correct coverage comparable ({} vs {})",
        pct(single_rbrr),
        pct(fused_rbrr),
        fused_rbrr > single_rbrr,
        pct(single_cov),
        pct(fused_cov),
    );

    section(
        "§V-B — cross-call virtual-image fusion (stationary-user mitigation)",
        "a stationary caller hides part of the virtual image; fusing derivations from other calls \
         (same VB, different users/rooms) fills the hole",
        &format!("{}\n{}", table.render(), shape),
    )
}
