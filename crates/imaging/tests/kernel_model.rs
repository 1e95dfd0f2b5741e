//! Model-based tests for the rewritten per-pixel kernels.
//!
//! Every data-parallel kernel (sliding-window blurs, the interior/border
//! convolution, the word-parallel dilation, the byte-packed frame matcher)
//! is checked bit-for-bit against a naive scalar reference — the per-pixel
//! formulation the kernel replaced. Dimensions are drawn around the 64-bit
//! word boundaries (sub-word, exact multiples, partial last words) and radii
//! span `0..=7`, the regimes where window clamping and tail-bit handling can
//! go wrong. The box kernels are also checked at `MAX_BLUR_RADIUS`, the
//! widest window their `u16` lanes hold, and their division-free rounding
//! is checked exhaustively against [`round_div`].

use bb_imaging::filter::{
    box_blur, deblur_box, deblur_box_into, gaussian_blur, gaussian_kernel, round_div, Reciprocal,
    MAX_BLUR_RADIUS,
};
use bb_imaging::morph::dilate;
use bb_imaging::{Frame, Mask, Rgb};

/// Width/height pairs straddling the packed-word boundaries.
const DIMS: &[(usize, usize)] = &[
    (1, 1),
    (3, 5),
    (63, 4),
    (64, 3),
    (65, 3),
    (100, 2),
    (127, 2),
    (128, 2),
    (130, 3),
];

/// Deterministic xorshift generator so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn frame(&mut self, w: usize, h: usize) -> Frame {
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for p in f.row_mut(y) {
                let v = self.next();
                *p = Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8);
            }
        }
        f
    }

    fn mask(&mut self, w: usize, h: usize) -> Mask {
        let mut bits = Vec::with_capacity(w * h);
        for _ in 0..w * h {
            bits.push(self.next().is_multiple_of(3));
        }
        Mask::from_fn(w, h, |x, y| bits[y * w + x])
    }
}

/// Naive single-direction box pass: per-pixel sum over the edge-clamped
/// window, rounded — the O(radius)-per-pixel loop the sliding window
/// replaced.
fn naive_box_pass(frame: &Frame, radius: usize, horizontal: bool) -> Frame {
    let (w, h) = frame.dims();
    let n = (2 * radius + 1) as u32;
    Frame::from_fn(w, h, |x, y| {
        let (mut sr, mut sg, mut sb) = (0u32, 0u32, 0u32);
        for d in -(radius as i64)..=(radius as i64) {
            let (sx, sy) = if horizontal {
                ((x as i64 + d).clamp(0, w as i64 - 1) as usize, y)
            } else {
                (x, (y as i64 + d).clamp(0, h as i64 - 1) as usize)
            };
            let p = frame.get(sx, sy);
            sr += u32::from(p.r);
            sg += u32::from(p.g);
            sb += u32::from(p.b);
        }
        Rgb::new(round_div(sr, n), round_div(sg, n), round_div(sb, n))
    })
}

/// Box radii under test: every small window and the widest one the `u16`
/// lanes allow.
const BOX_RADII: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, MAX_BLUR_RADIUS];

/// Frame sizes for a box of radius `r`: the word-boundary sizes, heights
/// around 64, and widths and heights straddling the window span `2r` and
/// `2r+1`, where edge clamping stops covering the whole row or column.
fn box_dims(radius: usize) -> Vec<(usize, usize)> {
    let mut dims = DIMS.to_vec();
    dims.extend([(3, 63), (2, 64), (3, 65)]);
    for span in [2 * radius, 2 * radius + 1, 2 * radius + 2] {
        if span > 0 {
            dims.extend([(span, 3), (2, span)]);
        }
    }
    dims
}

#[test]
fn box_blur_matches_naive_taps() {
    let mut rng = Rng(0x1357_9bdf_2468_ace1);
    for radius in [0].into_iter().chain(BOX_RADII) {
        for (w, h) in box_dims(radius) {
            let frame = rng.frame(w, h);
            let expect = naive_box_pass(&naive_box_pass(&frame, radius, true), radius, false);
            assert_eq!(
                box_blur(&frame, radius),
                expect,
                "box_blur diverged at {w}x{h} radius {radius}"
            );
        }
    }
}

/// One naive Van Cittert step: reblur the whole estimate with the naive box
/// taps, then `x ← clamp(x + y − blur(x))` pixel by pixel.
fn naive_van_cittert_step(estimate: &Frame, observed: &Frame, radius: usize) -> Frame {
    let step =
        |x: u8, y: u8, b: u8| (i32::from(x) + i32::from(y) - i32::from(b)).clamp(0, 255) as u8;
    let reblurred = naive_box_pass(&naive_box_pass(estimate, radius, true), radius, false);
    let (w, h) = estimate.dims();
    Frame::from_fn(w, h, |x, y| {
        let (e, o, b) = (estimate.get(x, y), observed.get(x, y), reblurred.get(x, y));
        Rgb::new(
            step(e.r, o.r, b.r),
            step(e.g, o.g, b.g),
            step(e.b, o.b, b.b),
        )
    })
}

#[test]
fn deblur_box_matches_naive_van_cittert() {
    let mut rng = Rng(0x7531_fdb9_8642_eca0);
    for radius in BOX_RADII {
        for (w, h) in box_dims(radius) {
            // A blurred observation (the kernel's real input) and raw noise
            // (which drives the clamp at both ends).
            let noise = rng.frame(w, h);
            // A reused output buffer holds an earlier frame's pixels.
            let mut reused = rng.frame(w, h);
            for observed in [box_blur(&noise, radius), noise] {
                let mut expect = observed.clone();
                for iterations in 0..=4 {
                    assert_eq!(
                        deblur_box(&observed, radius, iterations),
                        expect,
                        "deblur_box diverged at {w}x{h} radius {radius} iterations {iterations}"
                    );
                    deblur_box_into(&observed, radius, iterations, &mut reused);
                    assert_eq!(reused, expect, "deblur_box_into diverged at {w}x{h}");
                    expect = naive_van_cittert_step(&expect, &observed, radius);
                }
            }
        }
    }
}

#[test]
fn reciprocal_equals_round_div_for_every_window_sum() {
    for n in 1..=2 * MAX_BLUR_RADIUS as u16 + 1 {
        let recip = Reciprocal::new(n);
        for sum in 0..=255 * n {
            assert_eq!(
                recip.round_div(sum),
                round_div(u32::from(sum), u32::from(n)),
                "reciprocal of {n} diverged at sum {sum}"
            );
        }
    }
}

/// Naive 1-D convolution: per-pixel, taps in ascending kernel order with an
/// edge-clamped index — the exact f32 addition sequence the restructured
/// interior/border kernel promises to preserve.
fn naive_convolve(frame: &Frame, kernel: &[f32], horizontal: bool) -> Frame {
    let (w, h) = frame.dims();
    let radius = kernel.len() as i64 / 2;
    Frame::from_fn(w, h, |x, y| {
        let (mut sr, mut sg, mut sb) = (0.0f32, 0.0f32, 0.0f32);
        for (ki, &kv) in kernel.iter().enumerate() {
            let d = ki as i64 - radius;
            let (sx, sy) = if horizontal {
                ((x as i64 + d).clamp(0, w as i64 - 1) as usize, y)
            } else {
                (x, (y as i64 + d).clamp(0, h as i64 - 1) as usize)
            };
            let p = frame.get(sx, sy);
            sr += kv * f32::from(p.r);
            sg += kv * f32::from(p.g);
            sb += kv * f32::from(p.b);
        }
        let q = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        Rgb::new(q(sr), q(sg), q(sb))
    })
}

#[test]
fn gaussian_blur_matches_naive_convolution_bit_for_bit() {
    let mut rng = Rng(0xdead_beef_0bad_f00d);
    for &(w, h) in DIMS {
        let frame = rng.frame(w, h);
        for sigma in [0.4f32, 0.8, 1.3, 2.0] {
            let kernel = gaussian_kernel(sigma).unwrap();
            let expect = naive_convolve(&naive_convolve(&frame, &kernel, true), &kernel, false);
            assert_eq!(
                gaussian_blur(&frame, sigma).unwrap(),
                expect,
                "gaussian_blur diverged at {w}x{h} sigma {sigma}"
            );
        }
    }
}

#[test]
fn dilate_matches_naive_disc_scan() {
    let mut rng = Rng(0x00c0_ffee_c001_d00d);
    for &(w, h) in DIMS {
        let mask = rng.mask(w, h);
        for radius in 0..=7usize {
            let r2 = (radius * radius) as i64;
            let expect = Mask::from_fn(w, h, |x, y| {
                for sy in y.saturating_sub(radius)..(y + radius + 1).min(h) {
                    for sx in x.saturating_sub(radius)..(x + radius + 1).min(w) {
                        let dx = sx as i64 - x as i64;
                        let dy = sy as i64 - y as i64;
                        if dx * dx + dy * dy <= r2 && mask.get(sx, sy) {
                            return true;
                        }
                    }
                }
                false
            });
            assert_eq!(
                dilate(&mask, radius),
                expect,
                "dilate diverged at {w}x{h} radius {radius}"
            );
        }
    }
}

#[test]
fn match_mask_and_score_match_per_pixel_loop() {
    let mut rng = Rng(0x5a5a_a5a5_1234_8765);
    for &(w, h) in DIMS {
        let a = rng.frame(w, h);
        // Mix of near-identical and fully random pixels so both branches of
        // the tolerance test occur.
        let mut b = rng.frame(w, h);
        for y in 0..h {
            let src = a.row(y);
            for (x, p) in b.row_mut(y).iter_mut().enumerate() {
                if (x + y) % 2 == 0 {
                    let q = src[x];
                    *p = Rgb::new(q.r.saturating_add(3), q.g, q.b.saturating_sub(2));
                }
            }
        }
        for tau in [0u8, 2, 5, 40] {
            let expect = Mask::from_fn(w, h, |x, y| a.get(x, y).matches(b.get(x, y), tau));
            let got = a.match_mask(&b, tau).unwrap();
            assert_eq!(got, expect, "match_mask diverged at {w}x{h} tau {tau}");
            assert_eq!(
                a.match_score(&b, tau).unwrap(),
                expect.count_set(),
                "match_score diverged at {w}x{h} tau {tau}"
            );
        }
    }
}
