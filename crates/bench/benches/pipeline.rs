//! Criterion benches over the full reconstruction pipeline: how long the
//! attack takes per call, per §V stage.

use bb_callsim::{
    BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VbMode, VirtualBackground,
};
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_core::vbmask;
use bb_imaging::Mask;
use bb_synth::{Action, Lighting, Room, Scenario};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};

fn fixture() -> (bb_callsim::CompositedCall, bb_imaging::Frame) {
    let room = Room::sample(1, 96, 72, 5, &mut StdRng::seed_from_u64(1));
    let scenario = Scenario {
        action: Action::ArmWaving,
        width: 96,
        height: 72,
        frames: 60,
        ..Scenario::baseline(room)
    };
    let gt = scenario.render().expect("render");
    let VirtualBackground::Image(vb_img) = BackgroundId::Beach.realize(96, 72) else {
        unreachable!("beach is a static image")
    };
    let call = CallSim::new(&gt)
        .vb(VbMode::Image(vb_img.clone()))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(7)
        .run()
        .expect("composite");
    (call, vb_img)
}

fn bench_pipeline(c: &mut Criterion) {
    let (call, vb_img) = fixture();
    let config = ReconstructorConfig {
        tau: 14,
        phi: 3,
        parallelism: 1,
        ..Default::default()
    };

    c.bench_function("reconstruct_known_image_60f_96x72", |b| {
        let reconstructor = Reconstructor::new(VbSource::KnownImages(vec![vb_img.clone()]), config);
        b.iter(|| reconstructor.reconstruct(&call.video).expect("reconstruct"))
    });

    c.bench_function("reconstruct_unknown_image_60f_96x72", |b| {
        let reconstructor = Reconstructor::new(VbSource::UnknownImage, config);
        b.iter(|| reconstructor.reconstruct(&call.video).expect("reconstruct"))
    });

    c.bench_function("derive_unknown_image_60f", |b| {
        b.iter(|| vbmask::derive_unknown_image(&call.video, 14).expect("derive"))
    });

    c.bench_function("vb_mask_single_frame", |b| {
        let valid = Mask::full(96, 72);
        b.iter(|| vbmask::vb_mask(call.video.frame(30), &vb_img, &valid, 14).expect("mask"))
    });

    c.bench_function("composite_session_60f", |b| {
        let room = Room::sample(1, 96, 72, 5, &mut StdRng::seed_from_u64(1));
        let scenario = Scenario {
            action: Action::ArmWaving,
            width: 96,
            height: 72,
            frames: 60,
            ..Scenario::baseline(room)
        };
        let gt = scenario.render().expect("render");
        let vb = VbMode::Image(vb_img.clone());
        b.iter(|| {
            CallSim::new(&gt)
                .vb(vb.clone())
                .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
                .lighting(Lighting::On)
                .seed(7)
                .run()
                .expect("composite")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
