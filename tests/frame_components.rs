//! The §III four-component frame decomposition as a checked invariant:
//! every pixel of a composited frame belongs to exactly one of VB, BB, VC,
//! LB — and the pipeline's per-frame masks respect the partition.

use bb_callsim::{blend, BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VirtualBackground};
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_imaging::Mask;
use bb_synth::{Action, Lighting, Room, Scenario};
use rand::{rngs::StdRng, SeedableRng};

const W: usize = 80;
const H: usize = 60;

fn composited() -> bb_callsim::CompositedCall {
    let room = Room::sample(9, W, H, 4, &mut StdRng::seed_from_u64(9));
    let gt = Scenario {
        action: Action::ArmWaving,
        width: W,
        height: H,
        frames: 45,
        ..Scenario::baseline(room)
    }
    .render()
    .expect("render");
    CallSim::new(&gt)
        .vb(BackgroundId::Office.realize(W, H))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(5)
        .run()
        .expect("session")
}

#[test]
fn ground_truth_components_partition_each_frame() {
    let call = composited();
    for i in [0usize, 10, 30] {
        let est = &call.truth.est_masks[i];
        let true_fg = &call.truth.true_fg[i];
        let leaked = &call.truth.leaked[i];
        // Leaked = est ∖ true_fg, disjoint from the caller.
        assert!(leaked.intersect(true_fg).unwrap().is_empty());
        assert_eq!(
            est.subtract(true_fg).unwrap(),
            *leaked,
            "leak mask must equal est∖fg at frame {i}"
        );
        // The shown-content region (est) plus the VB region (complement)
        // tile the frame.
        let vb_region = est.complement();
        assert_eq!(est.union(&vb_region).unwrap().count_set(), W * H);
        assert!(est.intersect(&vb_region).unwrap().is_empty());
    }
}

#[test]
fn pipeline_masks_are_disjoint_and_tile_the_frame() {
    let call = composited();
    let VirtualBackground::Image(office) = BackgroundId::Office.realize(W, H) else {
        unreachable!("office is a static image")
    };
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(vec![office]),
        ReconstructorConfig {
            tau: 12,
            phi: 3,
            ..Default::default()
        },
    );
    let rec = reconstructor.reconstruct(&call.video).expect("reconstruct");

    for i in [0usize, 20, 44] {
        let masks = reconstructor
            .frame_masks(&rec, i, call.video.frame(i))
            .expect("masks");
        let (vbm, removed, leak) = (&masks.vbm, &masks.removed, &masks.leak);
        let bbm = removed.subtract(vbm).unwrap();
        // VBM and BBM are disjoint by construction.
        assert!(vbm.intersect(&bbm).unwrap().is_empty());
        // Residue lives strictly outside the removed region.
        assert!(leak.intersect(removed).unwrap().is_empty());
        // VBM ∪ BBM ∪ VCM ∪ LB = frame:
        // VCM is what remains of the candidates after subtracting the leak.
        let candidates = removed.complement();
        let vcm = candidates.subtract(leak).unwrap();
        let mut union = Mask::new(W, H);
        for part in [vbm, &bbm, &vcm, leak] {
            // Pairwise disjointness with everything accumulated so far.
            assert!(
                union.intersect(part).unwrap().is_empty(),
                "overlap at frame {i}"
            );
            union.union_in_place(part).unwrap();
        }
        assert_eq!(
            union.count_set(),
            W * H,
            "partition incomplete at frame {i}"
        );
    }
}

#[test]
fn blend_band_is_mixture_of_fg_and_vb() {
    // Direct §III check on the compositor: band pixels are convex mixtures.
    let fg = bb_imaging::Frame::filled(32, 32, bb_imaging::Rgb::new(200, 0, 0));
    let vb = bb_imaging::Frame::filled(32, 32, bb_imaging::Rgb::new(0, 0, 200));
    let mask = Mask::from_fn(32, 32, |x, _| x < 16);
    let out = blend::composite(&fg, &vb, &mask, blend::BlendMode::AlphaBand { sigma: 1.5 })
        .expect("composite");
    let band = blend::blend_band(&mask, blend::BlendMode::AlphaBand { sigma: 1.5 });
    let mut mixtures = 0usize;
    for (x, y) in band.iter_set() {
        let p = out.get(x, y);
        // A convex mixture of the two sources keeps g ≈ 0 and r + b ≈ 200.
        assert!(p.g < 30, "band pixel has foreign color {p}");
        let sum = p.r as i32 + p.b as i32;
        assert!((sum - 200).abs() < 60, "band pixel not a mixture: {p}");
        if p.r > 20 && p.b > 20 {
            mixtures += 1;
        }
    }
    assert!(mixtures > 10, "no genuine mixtures in the band");
}
