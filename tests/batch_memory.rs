//! Batch `reconstruct` locks over the call's own frames: the warmup window
//! is read where it lies, never copied into the session.
//!
//! A counting global allocator tracks live heap bytes. One color-residue
//! call, longer than its warmup window, runs at `parallelism: 1` (no worker
//! threads). Everything `reconstruct` allocates — the reference, the
//! segmenter model, the per-frame masks, the canvas and the output — must
//! stay below the bytes of the window's frames, which a copy of the window
//! would reach on its own.

use bb_callsim::{background, BackgroundId, CallSim, ProfilePreset, SoftwareProfile};
use bb_core::pipeline::{Reconstructor, ReconstructorConfig, VbSource};
use bb_synth::{Action, Lighting, Room, Scenario};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes, and the most ever live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

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

#[test]
fn batch_reconstruct_does_not_copy_the_warmup_window() {
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
    let video = CallSim::new(&gt)
        .vb(BackgroundId::Beach.realize(W, H))
        .profile(SoftwareProfile::preset(ProfilePreset::ZoomLike))
        .lighting(Lighting::On)
        .seed(SEED)
        .run()
        .expect("call composites")
        .video;
    drop(gt);
    let reconstructor = Reconstructor::new(
        VbSource::KnownImages(background::catalog_images(W, H)),
        ReconstructorConfig {
            phi: 3,
            parallelism: 1,
            warmup_frames: WARMUP,
            ..Default::default()
        },
    );

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let rec = reconstructor.reconstruct(&video).expect("reconstructs");
    let growth = PEAK.load(Relaxed) - before;
    assert!(rec.rbrr() > 0.0, "the call recovered nothing");

    let window_bytes = WARMUP * W * H * std::mem::size_of::<bb_imaging::Rgb>();
    assert!(
        growth < window_bytes,
        "reconstruct grew the live heap by {growth} bytes at its peak; \
         a copy of the {WARMUP}-frame window alone is {window_bytes}"
    );
}
