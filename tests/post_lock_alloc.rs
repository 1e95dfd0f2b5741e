//! A locked session's per-frame path allocates only its per-frame outputs.
//!
//! A counting global allocator counts the allocation calls (and their
//! bytes) the test thread makes while one post-lock frame is pushed into a
//! `bb-serve` fleet session (64×48, `loadgen_prototype`'s settings,
//! `parallelism: 1`, so every stage runs inline on this thread).
//!
//! The kernels write into the thread's reused frame scratch, and the core
//! count is read once per process, so in steady state — once this thread's
//! scratch has served the call's frames — each push makes exactly the five
//! allocations of the per-frame outputs of `run_stage`:
//!
//! 1. pass1's result vector (one `(removed, skin)` pair);
//! 2. the frame's removed region `VBM ∪ BBM`;
//! 3. its skin-evidence mask;
//! 4. pass2's result vector (one leak mask);
//! 5. the frame's leak mask.

use bb_core::FrameOutcome;
use bb_imaging::Mask;
use bb_serve::loadgen::{loadgen_prototype, synthetic_call};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocation calls and bytes counted on threads that opted in.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(bytes, Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const W: usize = 64;
const H: usize = 48;
const FRAMES: usize = 30;
const SEED: u64 = 11;

/// The allocation calls and bytes of one push on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.load(Relaxed), BYTES.load(Relaxed))
}

#[test]
fn a_post_lock_push_allocates_only_its_per_frame_outputs() {
    let (vb, video) = synthetic_call(W, H, FRAMES, SEED);
    let reconstructor = loadgen_prototype(vb);
    assert_eq!(reconstructor.config().parallelism, 1);
    // A first session over the call brings this thread's frame scratch to
    // steady state for these frames.
    let mut warm = reconstructor.session();
    for frame in video.iter() {
        warm.push_frame(frame).expect("push");
    }
    drop(warm);

    let mask_bytes = W.div_ceil(64) * H * std::mem::size_of::<u64>();
    let outputs = 5;
    // Three masks' words, plus the two result vectors: a pair of masks and
    // one mask.
    let output_bytes = 3 * mask_bytes + 3 * std::mem::size_of::<Mask>();
    let mut session = reconstructor.session();
    let mut measured = 0;
    for (i, frame) in video.iter().enumerate() {
        if !session.is_locked() {
            session.push_frame(frame).expect("push");
            continue;
        }
        let (outcome, calls, bytes) = counted(|| session.push_frame(frame));
        assert!(
            matches!(outcome, Ok(FrameOutcome::Processed { .. })),
            "frame {i}: {outcome:?}"
        );
        assert_eq!(
            (calls, bytes),
            (outputs, output_bytes),
            "frame {i}: a post-lock push made {calls} allocations ({bytes} B); \
             its {outputs} per-frame outputs take {output_bytes} B"
        );
        measured += 1;
    }
    assert!(measured >= FRAMES / 2, "only {measured} post-lock frames");
}
