//! Model-based tests for the rewritten per-pixel kernels.
//!
//! Every data-parallel kernel (sliding-window blurs, the interior/border
//! convolution, the word-parallel dilation, the byte-lane frame matcher,
//! the word-directed mask walk, the run-based component labelling and the
//! rare-color tables) is checked bit-for-bit against a naive scalar
//! reference — the per-pixel formulation the kernel replaced. Dimensions are drawn around the 64-bit
//! word boundaries (sub-word, exact multiples, partial last words) and radii
//! span `0..=7`, the regimes where window clamping and tail-bit handling can
//! go wrong. The box kernels are also checked at `MAX_BLUR_RADIUS`, the
//! widest window their `u16` lanes hold, and their division-free rounding
//! is checked exhaustively against [`round_div`].

use std::collections::VecDeque;

use bb_imaging::components::{
    label, label_into, remove_small_components, remove_small_components_into, Connectivity,
    Labeling,
};
use bb_imaging::filter::{
    box_blur, deblur_box, deblur_box_into, gaussian_blur, gaussian_kernel, round_div, Reciprocal,
    MAX_BLUR_RADIUS,
};
use bb_imaging::hist::{ColorHistogram, FrameHistogram, RareColors};
use bb_imaging::morph::{close_into, dilate, dilate_into, ShiftPlanes};
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

    /// A mask whose pixels are set with probability `quarters / 4`.
    fn mask_of_density(&mut self, w: usize, h: usize, quarters: u64) -> Mask {
        let mut bits = Vec::with_capacity(w * h);
        for _ in 0..w * h {
            bits.push(self.next() % 4 < quarters);
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

/// Naive disc dilation: a pixel is set when some set pixel lies within
/// Euclidean distance `radius` — the per-pixel scan the shift-OR planes
/// replaced.
fn naive_dilate(mask: &Mask, radius: usize) -> Mask {
    let (w, h) = mask.dims();
    let r2 = (radius * radius) as i64;
    Mask::from_fn(w, h, |x, y| {
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
    })
}

/// Per-pixel complement.
fn naive_not(mask: &Mask) -> Mask {
    let (w, h) = mask.dims();
    Mask::from_fn(w, h, |x, y| !mask.get(x, y))
}

#[test]
fn dilate_matches_naive_disc_scan() {
    let mut rng = Rng(0x00c0_ffee_c001_d00d);
    for &(w, h) in DIMS {
        let mask = rng.mask(w, h);
        for radius in 0..=7usize {
            assert_eq!(
                dilate(&mask, radius),
                naive_dilate(&mask, radius),
                "dilate diverged at {w}x{h} radius {radius}"
            );
        }
    }
}

/// Sizes for the byte-lane match kernel: [`DIMS`] plus the widths at its
/// seams. A word's 64 pixels span three words of channel flags, and pixels
/// 21 and 42 straddle their joins, so widths 21, 22, 42, 43 and 44 end a
/// row next to a seam; 128, 129 and 192 end at or just past whole words.
fn match_dims() -> Vec<(usize, usize)> {
    let mut dims = DIMS.to_vec();
    dims.extend([21, 22, 42, 43, 44, 128, 129, 192].map(|w| (w, 3)));
    dims
}

/// Tolerances for the match kernel: the narrowest, the widest, and a few
/// between.
const MATCH_TAUS: [u8; 7] = [0, 1, 2, 5, 40, 254, 255];

/// Frame pairs in which every pixel differs in exactly one channel, by
/// `tau` or by `tau + 1` in alternate columns: one pair per channel and
/// phase, so each pixel position mod 64 sees both distances on each
/// channel (a difference of 256 cannot occur, so at `tau = 255` every
/// pixel differs by 255).
fn one_channel_pairs(rng: &mut Rng, w: usize, h: usize, tau: u8) -> Vec<(Frame, Frame)> {
    let mut pairs = Vec::new();
    for channel in 0..3 {
        for phase in 0..2 {
            let mut a = rng.frame(w, h);
            let mut b = a.clone();
            for y in 0..h {
                for (x, (p, q)) in a.row_mut(y).iter_mut().zip(b.row_mut(y)).enumerate() {
                    let d = tau.saturating_add(((x + phase) % 2) as u8);
                    let (lo, hi) = match channel {
                        0 => (&mut p.r, &mut q.r),
                        1 => (&mut p.g, &mut q.g),
                        _ => (&mut p.b, &mut q.b),
                    };
                    *lo = (*lo).min(255 - d);
                    *hi = *lo + d;
                }
            }
            pairs.push((a, b));
        }
    }
    pairs
}

#[test]
fn match_mask_and_score_match_per_pixel_loop() {
    let mut rng = Rng(0x5a5a_a5a5_1234_8765);
    for (w, h) in match_dims() {
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
        for tau in MATCH_TAUS {
            let pairs = [(a.clone(), b.clone())]
                .into_iter()
                .chain(one_channel_pairs(&mut rng, w, h, tau));
            for (k, (a, b)) in pairs.enumerate() {
                let expect = Mask::from_fn(w, h, |x, y| a.get(x, y).matches(b.get(x, y), tau));
                let got = a.match_mask(&b, tau).unwrap();
                assert_eq!(
                    got, expect,
                    "match_mask diverged at {w}x{h} tau {tau} pair {k}"
                );
                assert_eq!(
                    a.match_score(&b, tau).unwrap(),
                    got.count_set(),
                    "match_score diverged at {w}x{h} tau {tau} pair {k}"
                );
            }
        }
    }
}

#[test]
fn match_mask_within_equals_match_mask_on_the_given_pixels() {
    let mut rng = Rng(0x0dd_ba11_cafe_f00d);
    for (w, h) in match_dims() {
        let a = rng.frame(w, h);
        let mut b = rng.frame(w, h);
        for y in 0..h {
            let src = a.row(y);
            for (x, p) in b.row_mut(y).iter_mut().enumerate() {
                if x % 3 != 0 {
                    *p = src[x];
                }
            }
        }
        let withins = [
            Mask::new(w, h),
            Mask::full(w, h),
            rng.mask_of_density(w, h, 1),
            rng.mask_of_density(w, h, 3),
        ];
        for tau in MATCH_TAUS {
            let pairs = [(a.clone(), b.clone())]
                .into_iter()
                .chain(one_channel_pairs(&mut rng, w, h, tau));
            for (k, (a, b)) in pairs.enumerate() {
                for (m, within) in withins.iter().enumerate() {
                    let expect = Mask::from_fn(w, h, |x, y| {
                        within.get(x, y) && a.get(x, y).matches(b.get(x, y), tau)
                    });
                    let got = a.match_mask_within(&b, within, tau).unwrap();
                    assert_eq!(
                        got, expect,
                        "match_mask_within diverged at {w}x{h} tau {tau} pair {k} within {m}"
                    );
                }
                assert_eq!(
                    a.match_score(&b, tau).unwrap(),
                    a.match_mask(&b, tau).unwrap().count_set(),
                    "match_score diverged at {w}x{h} tau {tau} pair {k}"
                );
            }
        }
        assert!(a.match_mask_within(&b, &Mask::new(w + 1, h), 0).is_err());
        assert!(a
            .match_mask_within(&Frame::new(w, h + 1), &withins[1], 0)
            .is_err());
    }
}

#[test]
fn mask_where_visits_exactly_the_set_pixels_in_row_major_order() {
    let mut rng = Rng(0x1357_9bdf_2468_ace0);
    for &(w, h) in DIMS {
        let frame = rng.frame(w, h);
        // Dense masks hold all-one words, which take the branch-free path.
        for mask in [
            Mask::full(w, h),
            rng.mask_of_density(w, h, 2),
            rng.mask_of_density(w, h, 4),
        ] {
            let mut visited = Vec::new();
            let got = frame.mask_where(&mask, |p| {
                visited.push(p);
                p.r < 128
            });
            let expect = Mask::from_fn(w, h, |x, y| mask.get(x, y) && frame.get(x, y).r < 128);
            assert_eq!(got, expect, "mask_where diverged at {w}x{h}");
            let order: Vec<Rgb> = mask.iter_set().map(|(x, y)| frame.get(x, y)).collect();
            assert_eq!(visited, order, "mask_where visit order at {w}x{h}");
        }
    }
}

#[test]
fn rare_colors_equal_the_frequency_test() {
    let mut rng = Rng(0xfeed_0123_4567_89ab);
    // A few dominant colors plus noise, so buckets span common to empty.
    let palette: Vec<Rgb> = (0..6).map(|_| rng.frame(1, 1).get(0, 0)).collect();
    let mut frame = rng.frame(130, 7);
    for y in 0..7 {
        for p in frame.row_mut(y) {
            let v = rng.next();
            if !v.is_multiple_of(8) {
                *p = palette[(v >> 8) as usize % palette.len()];
            }
        }
    }
    for bits in 1..=6u8 {
        let mut hist = ColorHistogram::new(bits);
        hist.add_masked(&frame, &Mask::full(130, 7));
        let probes: Vec<Rgb> = frame
            .pixels()
            .iter()
            .copied()
            .chain(rng.frame(40, 1).pixels().to_vec())
            .collect();
        for min_freq in [0.0, 0.001, 0.02, 0.05, 0.15, 0.5, 1.0] {
            let rare = hist.rare_colors(min_freq);
            for &p in &probes {
                assert_eq!(
                    rare.contains(p),
                    hist.frequency(p) < min_freq,
                    "bits {bits} min_freq {min_freq} color {p:?}"
                );
            }
        }
    }
}

/// A component as a per-pixel flood fill finds it: area, inclusive
/// bounding box and pixels.
type FloodComponent = (usize, (usize, usize, usize, usize), Mask);

/// Per-pixel BFS flood fill, seeded in row-major order: the labelling the
/// run-based kernel replaced, with components in discovery order.
fn flood_fill(mask: &Mask, connectivity: Connectivity) -> Vec<FloodComponent> {
    let (w, h) = mask.dims();
    let steps: &[(i64, i64)] = match connectivity {
        Connectivity::Four => &[(1, 0), (-1, 0), (0, 1), (0, -1)],
        Connectivity::Eight => &[
            (1, 0),
            (-1, 0),
            (0, 1),
            (0, -1),
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        ],
    };
    let mut seen = vec![false; w * h];
    let mut out = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if !mask.get(x, y) || seen[y * w + x] {
                continue;
            }
            seen[y * w + x] = true;
            let mut pixels = Mask::new(w, h);
            let (mut area, mut bbox) = (0, (x, y, x, y));
            let mut queue = VecDeque::from([(x, y)]);
            while let Some((cx, cy)) = queue.pop_front() {
                pixels.set(cx, cy, true);
                area += 1;
                bbox = (
                    bbox.0.min(cx),
                    bbox.1.min(cy),
                    bbox.2.max(cx),
                    bbox.3.max(cy),
                );
                for &(dx, dy) in steps {
                    let (nx, ny) = (cx as i64 + dx, cy as i64 + dy);
                    if mask.get_or_false(nx, ny) && !seen[ny as usize * w + nx as usize] {
                        seen[ny as usize * w + nx as usize] = true;
                        queue.push_back((nx as usize, ny as usize));
                    }
                }
            }
            out.push((area, bbox, pixels));
        }
    }
    out
}

#[test]
fn label_and_remove_small_components_equal_a_flood_fill() {
    let mut rng = Rng(0x2718_2818_2845_9045);
    for w in [1usize, 63, 64, 65, 130] {
        for h in [1usize, 4, 9] {
            let mut masks = vec![Mask::new(w, h), Mask::full(w, h)];
            for quarters in 1..=3 {
                masks.push(rng.mask_of_density(w, h, quarters));
            }
            let probe = rng.mask_of_density(w, h, 2);
            for mask in &masks {
                for connectivity in [Connectivity::Four, Connectivity::Eight] {
                    let what = format!("{w}x{h} {connectivity:?}");
                    let got = label(mask, connectivity);
                    let expect = flood_fill(mask, connectivity);
                    assert_eq!(got.components().len(), expect.len(), "count at {what}");
                    for (i, (c, (area, bbox, pixels))) in
                        got.components().iter().zip(&expect).enumerate()
                    {
                        assert_eq!(c.label as usize, i + 1, "label at {what}");
                        assert_eq!((c.area, c.bbox), (*area, *bbox), "component {i} at {what}");
                        assert_eq!(&got.component_mask(c.label), pixels, "mask {i} at {what}");
                        assert_eq!(
                            got.count_in(c.label, &probe),
                            pixels.intersect(&probe).unwrap().count_set(),
                            "count_in {i} at {what}"
                        );
                    }
                    let past = expect.len() as u32 + 1;
                    for missing in [0, past] {
                        assert!(
                            got.component_mask(missing).is_empty(),
                            "label {missing} at {what}"
                        );
                        assert_eq!(
                            got.count_in(missing, &probe),
                            0,
                            "label {missing} at {what}"
                        );
                    }
                    for min_area in [0usize, 1, 2, 3, 4, 7, 64, 200] {
                        let mut kept = Mask::new(w, h);
                        for (area, _, pixels) in &expect {
                            if *area >= min_area {
                                kept.union_in_place(pixels).unwrap();
                            }
                        }
                        assert_eq!(
                            remove_small_components(mask, min_area, connectivity),
                            kept,
                            "remove_small_components({min_area}) at {what}"
                        );
                    }
                }
            }
        }
    }
}

/// Every `*_into` kernel (and every in-place set operation) writes the
/// same mask as its naive reference when its output buffer last held
/// another mask of another size: one set of buffers serves every case in
/// turn, across widths around the word boundaries, as the session's
/// per-thread scratch does across frames.
#[test]
fn into_kernels_on_dirty_buffers_equal_their_naive_references() {
    let mut rng = Rng(0x5eed_f00d_0dd5_1234);
    let mut out = Mask::full(7, 3);
    let mut planes = ShiftPlanes::default();
    let mut labeling = Labeling::default();
    let mut hists = [FrameHistogram::new(4), FrameHistogram::new(2)];
    // Frozen model tables at coarser, equal and finer quantisations than
    // the frame histograms' bits.
    let model_frame = rng.frame(40, 20);
    let models: Vec<Option<RareColors>> = [3u8, 4, 5]
        .iter()
        .map(|&bits| {
            let mut model = ColorHistogram::new(bits);
            model.add_masked(&model_frame, &Mask::full(40, 20));
            Some(model.rare_colors(0.002))
        })
        .chain([None])
        .collect();
    for w in [1usize, 63, 64, 65, 130, 64, 1] {
        for h in [1usize, 5] {
            let what = format!("{w}x{h}");
            let (a, b) = (rng.frame(w, h), rng.frame(w, h));
            let masks = [
                Mask::new(w, h),
                Mask::full(w, h),
                rng.mask_of_density(w, h, 1),
                rng.mask_of_density(w, h, 3),
            ];
            for (k, mask) in masks.iter().enumerate() {
                let other = &masks[(k + 2) % masks.len()];
                let what = format!("{what} mask {k}");

                a.match_mask_within_into(&b, mask, 96, &mut out).unwrap();
                let expect = Mask::from_fn(w, h, |x, y| {
                    mask.get(x, y) && a.get(x, y).matches(b.get(x, y), 96)
                });
                assert_eq!(out, expect, "match_mask_within_into at {what}");

                a.mask_where_into(mask, |p| p.r < 128, &mut out);
                let expect = Mask::from_fn(w, h, |x, y| mask.get(x, y) && a.get(x, y).r < 128);
                assert_eq!(out, expect, "mask_where_into at {what}");

                for radius in [0usize, 1, 2, 5] {
                    dilate_into(mask, radius, &mut planes, &mut out);
                    assert_eq!(
                        out,
                        naive_dilate(mask, radius),
                        "dilate_into({radius}) at {what}"
                    );
                    close_into(mask, radius, &mut planes, &mut out);
                    let expect = naive_not(&naive_dilate(
                        &naive_not(&naive_dilate(mask, radius)),
                        radius,
                    ));
                    assert_eq!(out, expect, "close_into({radius}) at {what}");
                }

                for connectivity in [Connectivity::Four, Connectivity::Eight] {
                    let expect = flood_fill(mask, connectivity);
                    label_into(mask, connectivity, &mut labeling);
                    assert_eq!(
                        labeling.components().len(),
                        expect.len(),
                        "label_into at {what}"
                    );
                    for (c, (area, bbox, pixels)) in labeling.components().iter().zip(&expect) {
                        assert_eq!((c.area, c.bbox), (*area, *bbox), "label_into at {what}");
                        out.clone_from(other);
                        labeling.paint(c.label, &mut out);
                        assert_eq!(out, other.union(pixels).unwrap(), "paint at {what}");
                    }
                    for min_area in [1usize, 3, 40] {
                        remove_small_components_into(
                            mask,
                            min_area,
                            connectivity,
                            &mut labeling,
                            &mut out,
                        );
                        let mut kept = Mask::new(w, h);
                        for (area, _, pixels) in &expect {
                            if *area >= min_area {
                                kept.union_in_place(pixels).unwrap();
                            }
                        }
                        assert_eq!(out, kept, "remove_small_components_into at {what}");
                    }
                }

                let naive = |f: fn(bool, bool) -> bool| {
                    Mask::from_fn(w, h, |x, y| f(mask.get(x, y), other.get(x, y)))
                };
                out.clone_from(mask);
                out.union_in_place(other).unwrap();
                assert_eq!(out, naive(|p, q| p | q), "union_in_place at {what}");
                out.clone_from(mask);
                out.intersect_in_place(other).unwrap();
                assert_eq!(out, naive(|p, q| p & q), "intersect_in_place at {what}");
                out.clone_from(mask);
                out.subtract_in_place(other).unwrap();
                assert_eq!(out, naive(|p, q| p & !q), "subtract_in_place at {what}");
                out.clone_from(mask);
                out.complement_in_place();
                assert_eq!(out, naive(|p, _| !p), "complement_in_place at {what}");
                assert_eq!(
                    out.count_set(),
                    w * h - mask.count_set(),
                    "tail bits at {what}"
                );

                // At 4 bits these masks have fewer pixels than buckets, at
                // 2 bits mostly more: `fill` takes both of its paths.
                for hist in hists.iter_mut() {
                    hist.fill(&a, mask);
                    let mut reference = ColorHistogram::new(hist.bits());
                    reference.add_masked(&a, mask);
                    for min_freq in [0.0, 0.02, 0.3] {
                        for (m, model) in models.iter().enumerate() {
                            hist.mark_rare(min_freq, model.as_ref());
                            for (x, y) in mask.iter_set() {
                                let p = a.get(x, y);
                                assert_eq!(
                                    hist.is_rare(p),
                                    reference.frequency(p) < min_freq
                                        || model.as_ref().is_some_and(|m| m.contains(p)),
                                    "FrameHistogram({}) at {what} min_freq {min_freq} model {m}",
                                    hist.bits()
                                );
                            }
                        }
                    }
                }
            }
            // The buffers leave this size dirty: the next size starts on them.
            out.clone_from(&masks[3]);
        }
    }
}
