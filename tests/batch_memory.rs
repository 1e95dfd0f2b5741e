//! Batch `reconstruct` holds no per-frame copy of the call it reads.
//!
//! A counting global allocator tracks live heap bytes, and each call runs
//! at `parallelism: 1` (no worker threads):
//!
//! * A color-residue call, longer than its warmup window, locks over the
//!   window where it lies. Everything `reconstruct` allocates — the
//!   reference, the segmenter model, the per-frame masks, the canvas and
//!   the output — must stay below the bytes of the window's frames, which a
//!   copy of the window would reach on its own.
//! * A blur-residue call deblurs and accumulates its frames a few at a
//!   time. Its growth must stay below the bytes of half the call's frames,
//!   which holding every frame's deblurred copy would pass.

use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile, VbMode};
use bb_core::pipeline::{ReconMode, Reconstructor, ReconstructorConfig, VbSource};
use bb_imaging::Rgb;
use bb_synth::{Action, Lighting, Room, Scenario};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Live heap bytes, and the most ever live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

impl Counting {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            Counting::grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 7;
const W: usize = 96;
const H: usize = 72;
const FRAMES: usize = 48;
const WARMUP: usize = 32;

/// The seeded arm-waving call composited behind `vb`.
fn call(vb: VbMode) -> bb_video::VideoStream {
    let room = Room::sample(SEED, W, H, 4, &mut StdRng::seed_from_u64(SEED));
    let gt = Scenario {
        action: Action::ArmWaving,
        width: W,
        height: H,
        frames: FRAMES,
        seed: SEED,
        ..Scenario::baseline(room)
    }
    .render()
    .expect("scenario renders");
    CallSim::new(&gt)
        .vb(vb)
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(SEED)
        .run()
        .expect("call composites")
        .video
}

/// Peak live-heap growth while `reconstructor` reconstructs `video`.
fn peak_growth(reconstructor: &Reconstructor, video: &bb_video::VideoStream) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let rec = reconstructor.reconstruct(video).expect("reconstructs");
    let growth = PEAK.load(Relaxed) - before;
    assert!(rec.rbrr() > 0.0, "the call recovered nothing");
    growth
}

#[test]
fn batch_reconstruct_does_not_copy_the_warmup_window() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let video = call(BackgroundId::Beach.realize(W, H).into());
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        ReconstructorConfig {
            phi: 3,
            parallelism: 1,
            warmup_frames: WARMUP,
            ..Default::default()
        },
    );
    let growth = peak_growth(&reconstructor, &video);
    let window_bytes = WARMUP * W * H * std::mem::size_of::<Rgb>();
    assert!(
        growth < window_bytes,
        "reconstruct grew the live heap by {growth} bytes at its peak; \
         a copy of the {WARMUP}-frame window alone is {window_bytes}"
    );
}

#[test]
fn blur_residue_does_not_hold_every_deblurred_frame() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let video = call(VbMode::Blur { radius: 2 });
    // The call is shorter than the default warmup, so, as in a short blur
    // call, the lock runs at finalize over every frame in one block.
    let reconstructor = Reconstructor::new(
        VbSource::UnknownImage,
        ReconstructorConfig {
            parallelism: 1,
            mode: ReconMode::BlurResidue { radius: 2 },
            ..Default::default()
        },
    );
    assert!(FRAMES < reconstructor.config().warmup_frames);
    let growth = peak_growth(&reconstructor, &video);
    let half_call_bytes = FRAMES / 2 * W * H * std::mem::size_of::<Rgb>();
    assert!(
        growth < half_call_bytes,
        "reconstruct grew the live heap by {growth} bytes at its peak; \
         half the call's {FRAMES} frames is {half_call_bytes}"
    );
}
