//! The imperfect foreground-matting stage.
//!
//! §V-D catalogues how real matting fails; every failure mode is a knob here:
//!
//! * **Inaccurate human boundaries** — "regions under the head, near the
//!   hair, between fingers… contain a leakage portion of the real
//!   background": random background blobs adjacent to the caller boundary are
//!   misclassified as foreground ([`MattingParams::leak_blob_count`]).
//! * **Initial leakage** — "when a video call starts, the accuracy… is often
//!   poor. The accuracy improves after a few frames": the estimated mask is
//!   dilated by a ramp that decays over
//!   [`MattingParams::initial_leak_frames`] (Fig 5).
//! * **Motion lag and blur** — the mask trails a moving caller
//!   ([`MattingParams::motion_lag_frames`]) and boundary errors grow with
//!   inter-frame displacement ([`MattingParams::motion_noise_gain`]),
//!   producing the Fig 8 speed effects.
//! * **Color confusion** — background pixels near the boundary whose color
//!   resembles the caller are absorbed into the foreground
//!   ([`MattingParams::color_confusion_tau`]), the reason the paper varies
//!   apparel similar/contrasting to the background (§VII-A).
//! * **Lighting sensitivity** — low light multiplies the error rates
//!   ([`MattingParams::low_light_gain`], Fig 10/11).

use bb_imaging::{morph, round_div_u64, Frame, Mask, Rgb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Error-model parameters for the matting stage.
#[derive(Debug, Clone, PartialEq)]
pub struct MattingParams {
    /// Leak blobs (background misclassified as foreground) per frame along
    /// the caller boundary.
    pub leak_blob_count: usize,
    /// Radius of each leak blob in pixels.
    pub leak_blob_radius: usize,
    /// Blobs where the caller is eaten by the background (foreground
    /// misclassified as background) per frame.
    pub eat_blob_count: usize,
    /// Radius of each eat blob.
    pub eat_blob_radius: usize,
    /// Number of initial frames with degraded accuracy (Fig 5).
    pub initial_leak_frames: usize,
    /// Extra dilation radius at frame 0, decaying linearly to 0 over the
    /// initial window.
    pub initial_leak_radius: usize,
    /// The estimated mask is computed from the pose this many frames ago.
    pub motion_lag_frames: usize,
    /// Additional leak blobs per percentage point of inter-frame mask
    /// displacement.
    pub motion_noise_gain: f64,
    /// L∞ color distance under which a near-boundary background pixel is
    /// considered caller-colored.
    pub color_confusion_tau: u8,
    /// Probability that a caller-colored near-boundary background pixel is
    /// absorbed into the foreground.
    pub color_confusion_prob: f64,
    /// Multiplier applied to blob counts when background lights are off.
    pub low_light_gain: f64,
}

impl Default for MattingParams {
    fn default() -> Self {
        MattingParams {
            leak_blob_count: 6,
            leak_blob_radius: 2,
            eat_blob_count: 2,
            eat_blob_radius: 1,
            initial_leak_frames: 8,
            initial_leak_radius: 5,
            motion_lag_frames: 1,
            motion_noise_gain: 1.2,
            color_confusion_tau: 26,
            color_confusion_prob: 0.5,
            low_light_gain: 1.6,
        }
    }
}

/// Inputs the matting stage sees for one frame.
#[derive(Debug)]
pub struct MattingInput<'a> {
    /// The captured (uncomposited) frame.
    pub frame: &'a Frame,
    /// Ground-truth foreground masks of the whole call (the matting stage
    /// with lag looks backwards in this slice).
    pub true_fg: &'a [Mask],
    /// Index of the current frame.
    pub index: usize,
    /// Whether background lights are off (scales error rates).
    pub low_light: bool,
}

/// Produces the software's (imperfect) foreground decision mask for one
/// frame.
///
/// Deterministic in `(params, input, seed)`.
///
/// # Panics
///
/// Panics when `input.index >= input.true_fg.len()`.
pub fn estimate_mask(params: &MattingParams, input: &MattingInput<'_>, seed: u64) -> Mask {
    assert!(
        input.index < input.true_fg.len(),
        "frame index out of range"
    );
    let i = input.index;
    let (w, h) = input.true_fg[i].dims();
    let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let gain = if input.low_light {
        params.low_light_gain
    } else {
        1.0
    };

    // 1. Motion lag: base the estimate on a stale pose.
    let src_index = i.saturating_sub(params.motion_lag_frames);
    let mut est = input.true_fg[src_index].clone();

    // 2. Initial ramp: strong over-segmentation in the first frames.
    if i < params.initial_leak_frames && params.initial_leak_radius > 0 {
        let progress = i as f64 / params.initial_leak_frames as f64;
        let radius = ((params.initial_leak_radius as f64) * (1.0 - progress)).round() as usize;
        if radius > 0 {
            est = morph::dilate(&est, radius);
        }
    }

    // Boundary of the current estimate drives blob placement. An empty
    // estimate (caller out of frame) has no boundary errors.
    let boundary: Vec<(usize, usize)> = morph::inner_boundary(&est).iter_set().collect();
    if boundary.is_empty() {
        return est;
    }

    // 3. Motion-dependent error budget.
    let displacement_pct = {
        let prev = &input.true_fg[i.saturating_sub(1)];
        let diff = input.true_fg[i]
            .subtract(prev)
            .expect("masks share dimensions")
            .count_set()
            + prev
                .subtract(&input.true_fg[i])
                .expect("masks share dimensions")
                .count_set();
        diff as f64 / (w * h) as f64 * 100.0
    };
    let static_budget = ((params.leak_blob_count as f64) * gain).round() as usize;
    let motion_budget = ((params.motion_noise_gain * displacement_pct) * gain).round() as usize;
    let eat_budget = ((params.eat_blob_count as f64) * gain).round() as usize;

    // 4a. Static leak blobs: the §V-D "regions under the head, near the
    //     hair, between fingers" errors recur at the *same* body locations
    //     every frame, so their positions are session-stable fractions of
    //     the boundary (seeded by the session, not the frame). For a still
    //     caller the leak union stays small; only movement spreads it.
    let mut session_rng = SmallRng::seed_from_u64(seed ^ 0x5747_1C5B_u64);
    for _ in 0..static_budget {
        let frac: f64 = session_rng.gen();
        let jitter_x: i64 = session_rng
            .gen_range(-(params.leak_blob_radius as i64)..=params.leak_blob_radius as i64);
        let jitter_y: i64 = session_rng
            .gen_range(-(params.leak_blob_radius as i64)..=params.leak_blob_radius as i64);
        let idx = ((frac * boundary.len() as f64) as usize).min(boundary.len() - 1);
        let (bx, by) = boundary[idx];
        stamp(
            &mut est,
            bx as i64 + jitter_x,
            by as i64 + jitter_y,
            params.leak_blob_radius as i64,
            true,
        );
    }

    // 4b. Motion leak blobs: scattered fresh each frame along the moving
    //     boundary (the Fig 8 mechanism).
    for _ in 0..motion_budget {
        let &(bx, by) = &boundary[rng.gen_range(0..boundary.len())];
        let r = params.leak_blob_radius as i64;
        let cx = bx as i64 + rng.gen_range(-r..=r);
        let cy = by as i64 + rng.gen_range(-r..=r);
        stamp(&mut est, cx, cy, r, true);
    }

    // 5. Eat blobs: caller pixels misclassified as background.
    for _ in 0..eat_budget {
        let &(bx, by) = &boundary[rng.gen_range(0..boundary.len())];
        let r = params.eat_blob_radius as i64;
        let cx = bx as i64 + rng.gen_range(-r..=r);
        let cy = by as i64 + rng.gen_range(-r..=r);
        stamp(&mut est, cx, cy, r, false);
    }

    // 6. Color confusion: near-boundary background pixels colored like the
    //    caller get absorbed.
    if params.color_confusion_prob > 0.0 && params.color_confusion_tau > 0 {
        let caller_color = mean_color(input.frame, &input.true_fg[i]);
        if let Some(caller_color) = caller_color {
            let band = morph::band(&est, 3);
            for (x, y) in band.iter_set() {
                if input.frame.get(x, y).linf(caller_color) <= params.color_confusion_tau
                    && rng.gen_bool(params.color_confusion_prob)
                {
                    est.set(x, y, true);
                }
            }
        }
    }

    est
}

fn stamp(mask: &mut Mask, cx: i64, cy: i64, r: i64, value: bool) {
    let (w, h) = mask.dims();
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy <= r * r {
                let (px, py) = (cx + dx, cy + dy);
                if px >= 0 && py >= 0 && (px as usize) < w && (py as usize) < h {
                    mask.set(px as usize, py as usize, value);
                }
            }
        }
    }
}

/// Mean color over the foreground of `mask`, `None` when empty.
fn mean_color(frame: &Frame, mask: &Mask) -> Option<Rgb> {
    let n = mask.count_set();
    if n == 0 {
        return None;
    }
    let (mut r, mut g, mut b) = (0u64, 0u64, 0u64);
    for (x, y) in mask.iter_set() {
        let p = frame.get(x, y);
        r += p.r as u64;
        g += p.g as u64;
        b += p.b as u64;
    }
    // Round to nearest, like every other channel mean in the workspace:
    // truncation biased the estimated caller color dark by up to 1 LSB per
    // channel, which shifted the color-confusion test at the matte boundary.
    let n = n as u64;
    Some(Rgb::new(
        round_div_u64(r, n),
        round_div_u64(g, n),
        round_div_u64(b, n),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::draw;

    fn circle_mask(w: usize, h: usize, cx: i64, cy: i64, r: i64) -> Mask {
        let mut m = Mask::new(w, h);
        stamp(&mut m, cx, cy, r, true);
        m
    }

    fn inputs(n: usize) -> (Vec<Frame>, Vec<Mask>) {
        let mut frames = Vec::new();
        let mut masks = Vec::new();
        for i in 0..n {
            let m = circle_mask(60, 60, 20 + i as i64, 30, 10);
            let mut f = Frame::filled(60, 60, Rgb::new(210, 200, 180));
            for (x, y) in m.iter_set() {
                f.put(x, y, Rgb::new(30, 60, 150));
            }
            let _ = draw::fill_rect; // silence unused import in some cfgs
            frames.push(f);
            masks.push(m);
        }
        (frames, masks)
    }

    #[test]
    fn estimate_is_deterministic() {
        let (frames, masks) = inputs(5);
        let input = MattingInput {
            frame: &frames[3],
            true_fg: &masks,
            index: 3,
            low_light: false,
        };
        let p = MattingParams::default();
        assert_eq!(estimate_mask(&p, &input, 7), estimate_mask(&p, &input, 7));
        assert_ne!(estimate_mask(&p, &input, 7), estimate_mask(&p, &input, 8));
    }

    #[test]
    fn mean_color_rounds_to_nearest() {
        // Channel sums that do not divide evenly by the 3 pixels: r sums to
        // 5 (5/3 rounds to 2), g to 4 (4/3 rounds to 1), b to 765 (exactly
        // 255). The truncating mean reported (1, 1, 255) — dark-biased on r.
        let mut f = Frame::new(3, 1);
        f.put(0, 0, Rgb::new(1, 2, 255));
        f.put(1, 0, Rgb::new(2, 1, 255));
        f.put(2, 0, Rgb::new(2, 1, 255));
        let mask = Mask::full(3, 1);
        assert_eq!(mean_color(&f, &mask), Some(Rgb::new(2, 1, 255)));
        assert_eq!(mean_color(&f, &Mask::new(3, 1)), None);
    }

    #[test]
    fn perfect_params_reproduce_truth() {
        let (frames, masks) = inputs(5);
        let p = MattingParams {
            leak_blob_count: 0,
            eat_blob_count: 0,
            initial_leak_frames: 0,
            initial_leak_radius: 0,
            motion_lag_frames: 0,
            motion_noise_gain: 0.0,
            color_confusion_prob: 0.0,
            ..MattingParams::default()
        };
        let input = MattingInput {
            frame: &frames[2],
            true_fg: &masks,
            index: 2,
            low_light: false,
        };
        assert_eq!(estimate_mask(&p, &input, 1), masks[2]);
    }

    #[test]
    fn initial_frames_over_segment() {
        let (frames, masks) = inputs(20);
        let p = MattingParams {
            motion_lag_frames: 0,
            ..MattingParams::default()
        };
        let early = estimate_mask(
            &p,
            &MattingInput {
                frame: &frames[0],
                true_fg: &masks,
                index: 0,
                low_light: false,
            },
            3,
        );
        let late = estimate_mask(
            &p,
            &MattingInput {
                frame: &frames[15],
                true_fg: &masks,
                index: 15,
                low_light: false,
            },
            3,
        );
        // Frame 0 estimate includes a big dilation ring; frame 15 does not.
        let extra_early = early.subtract(&masks[0]).unwrap().count_set();
        let extra_late = late.subtract(&masks[15]).unwrap().count_set();
        assert!(
            extra_early > extra_late + 50,
            "early {extra_early} vs late {extra_late}"
        );
    }

    #[test]
    fn lag_makes_mask_trail_motion() {
        let (frames, masks) = inputs(10);
        let p = MattingParams {
            leak_blob_count: 0,
            eat_blob_count: 0,
            initial_leak_frames: 0,
            initial_leak_radius: 0,
            motion_lag_frames: 2,
            motion_noise_gain: 0.0,
            color_confusion_prob: 0.0,
            ..MattingParams::default()
        };
        let est = estimate_mask(
            &p,
            &MattingInput {
                frame: &frames[5],
                true_fg: &masks,
                index: 5,
                low_light: false,
            },
            0,
        );
        assert_eq!(est, masks[3], "mask should be the pose from 2 frames ago");
    }

    #[test]
    fn low_light_increases_errors() {
        let (frames, masks) = inputs(30);
        let p = MattingParams {
            initial_leak_frames: 0,
            ..MattingParams::default()
        };
        let count_err = |low: bool, seed: u64| {
            let input = MattingInput {
                frame: &frames[20],
                true_fg: &masks,
                index: 20,
                low_light: low,
            };
            let est = estimate_mask(&p, &input, seed);
            est.subtract(&masks[20]).unwrap().count_set()
        };
        // Average over seeds to smooth blob placement randomness.
        let bright: usize = (0..10).map(|s| count_err(false, s)).sum();
        let dark: usize = (0..10).map(|s| count_err(true, s)).sum();
        assert!(dark > bright, "dark {dark} <= bright {bright}");
    }

    #[test]
    fn empty_truth_yields_empty_estimate() {
        let frames = vec![Frame::filled(40, 40, Rgb::WHITE); 3];
        let masks = vec![Mask::new(40, 40); 3];
        let p = MattingParams::default();
        let est = estimate_mask(
            &p,
            &MattingInput {
                frame: &frames[2],
                true_fg: &masks,
                index: 2,
                low_light: false,
            },
            9,
        );
        // Frame 2 is within the initial window, but dilating an empty mask is
        // still empty, and an empty boundary adds no blobs.
        assert!(est.is_empty());
    }

    #[test]
    fn color_confusion_absorbs_similar_background() {
        // A background stripe colored exactly like the caller runs alongside.
        let mut masks = Vec::new();
        let mut frames = Vec::new();
        for _ in 0..3 {
            let m = circle_mask(60, 60, 30, 30, 10);
            let mut f = Frame::filled(60, 60, Rgb::new(220, 220, 220));
            for (x, y) in m.iter_set() {
                f.put(x, y, Rgb::new(30, 60, 150));
            }
            // Caller-colored background stripe just right of the circle.
            draw::fill_rect(&mut f, 42, 20, 3, 20, Rgb::new(30, 60, 150));
            frames.push(f);
            masks.push(m);
        }
        let p = MattingParams {
            leak_blob_count: 0,
            eat_blob_count: 0,
            initial_leak_frames: 0,
            initial_leak_radius: 0,
            motion_lag_frames: 0,
            motion_noise_gain: 0.0,
            color_confusion_tau: 10,
            color_confusion_prob: 1.0,
            ..MattingParams::default()
        };
        let est = estimate_mask(
            &p,
            &MattingInput {
                frame: &frames[2],
                true_fg: &masks,
                index: 2,
                low_light: false,
            },
            5,
        );
        let absorbed = est.subtract(&masks[2]).unwrap().count_set();
        assert!(absorbed > 5, "no background absorbed: {absorbed}");
    }

    #[test]
    #[should_panic(expected = "frame index out of range")]
    fn out_of_range_index_panics() {
        let (frames, masks) = inputs(2);
        let p = MattingParams::default();
        let input = MattingInput {
            frame: &frames[0],
            true_fg: &masks,
            index: 5,
            low_light: false,
        };
        let _ = estimate_mask(&p, &input, 0);
    }
}

#[cfg(test)]
mod apparel_tests {
    use super::*;
    use bb_callsim_test_helpers::*;

    mod bb_callsim_test_helpers {
        use bb_imaging::{draw, Frame, Mask, Rgb};

        /// Renders a caller-vs-wall scene where apparel matches the wall.
        pub fn similar_apparel_inputs(
            n: usize,
            apparel: Rgb,
            wall: Rgb,
        ) -> (Vec<Frame>, Vec<Mask>) {
            let mut frames = Vec::new();
            let mut masks = Vec::new();
            for _ in 0..n {
                let mut m = Mask::new(60, 60);
                for y in 20..50 {
                    for x in 22..38 {
                        m.set(x, y, true);
                    }
                }
                let mut f = Frame::filled(60, 60, wall);
                draw::fill_rect(&mut f, 22, 20, 16, 30, apparel);
                frames.push(f);
                masks.push(m);
            }
            (frames, masks)
        }
    }

    #[test]
    fn wall_similar_apparel_confuses_matting_more() {
        let wall = bb_imaging::Rgb::new(220, 214, 200);
        let params = MattingParams {
            leak_blob_count: 0,
            eat_blob_count: 0,
            initial_leak_frames: 0,
            initial_leak_radius: 0,
            motion_lag_frames: 0,
            motion_noise_gain: 0.0,
            color_confusion_tau: 24,
            color_confusion_prob: 1.0,
            ..MattingParams::default()
        };
        // Similar apparel: wall pixels near the boundary read as caller.
        let (frames_sim, masks_sim) =
            similar_apparel_inputs(3, bb_imaging::Rgb::new(214, 208, 196), wall);
        let est_sim = estimate_mask(
            &params,
            &MattingInput {
                frame: &frames_sim[2],
                true_fg: &masks_sim,
                index: 2,
                low_light: false,
            },
            5,
        );
        // Contrasting apparel: no confusion.
        let (frames_con, masks_con) =
            similar_apparel_inputs(3, bb_imaging::Rgb::new(30, 60, 150), wall);
        let est_con = estimate_mask(
            &params,
            &MattingInput {
                frame: &frames_con[2],
                true_fg: &masks_con,
                index: 2,
                low_light: false,
            },
            5,
        );
        let over_sim = est_sim.subtract(&masks_sim[2]).unwrap().count_set();
        let over_con = est_con.subtract(&masks_con[2]).unwrap().count_set();
        assert!(
            over_sim > over_con + 10,
            "similar apparel over-segmentation {over_sim} not above contrasting {over_con}"
        );
    }
}
