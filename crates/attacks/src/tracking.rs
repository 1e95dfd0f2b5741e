//! The Specific Object Tracking attack (§VI, Fig 13).
//!
//! "The object template is incrementally rotated, shifted, and scaled while
//! moving across the pixel map of the reconstructed background … For
//! determining a match, both the color (hue) and the relative distance
//! between the pixels being compared are considered, together with the
//! percentage of the template that is matched."
//!
//! §VIII-D's false-positive guards are enforced: a candidate window must
//! cover at least [`ObjectTracker::min_window_frac`] of the frame's pixels
//! and at least [`ObjectTracker::min_recovered_frac`] of the window must
//! have been recovered.

use crate::AttackError;
use bb_imaging::{filter, geom, Frame, Hsv, Mask, Rgb};
use bb_telemetry::Telemetry;

/// The neutral backdrop color used by `SceneObject::template` renders;
/// template pixels of this color are not part of the object.
pub const TEMPLATE_BACKDROP: Rgb = Rgb::new(128, 128, 128);

/// A template match in the reconstructed background.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackMatch {
    /// Match score in `[0, 1]` (fraction of compared template pixels that
    /// hue-matched).
    pub score: f64,
    /// Top-left x of the matched window.
    pub x: usize,
    /// Top-left y of the matched window.
    pub y: usize,
    /// Template scale at the match.
    pub scale: f32,
    /// Template rotation (degrees) at the match.
    pub rotation: f32,
}

/// The specific-object-tracking attack.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectTracker {
    /// Maximum hue distance (degrees) for a template pixel to match.
    pub hue_tau: f32,
    /// Value distance for achromatic pixels.
    pub value_tau: f32,
    /// Scales swept.
    pub scales: Vec<f32>,
    /// Rotations swept (degrees).
    pub rotations: Vec<f32>,
    /// Position stride in pixels.
    pub stride: usize,
    /// Minimum window size as a fraction of the frame (§VIII-D guard).
    pub min_window_frac: f64,
    /// Minimum recovered fraction within the window (§VIII-D guard).
    pub min_recovered_frac: f64,
    /// Score at or above which the object is declared present.
    pub present_threshold: f64,
}

impl Default for ObjectTracker {
    fn default() -> Self {
        ObjectTracker {
            hue_tau: 16.0,
            value_tau: 0.2,
            scales: vec![0.8, 1.0, 1.25],
            rotations: vec![-8.0, 0.0, 8.0],
            stride: 2,
            min_window_frac: 0.01,
            min_recovered_frac: 0.5,
            present_threshold: 0.45,
        }
    }
}

impl ObjectTracker {
    /// Searches for the template in the reconstruction, returning the best
    /// match that satisfies the §VIII-D guards (if any candidate window
    /// qualifies).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NothingRecovered`] when `recovered` is empty.
    ///
    /// Instrumentation goes through `telemetry`: wall time lands in the
    /// `attacks/tracking` stage, sweep volumes (configurations swept,
    /// windows actually scored past the §VIII-D guards) in
    /// `attacks/tracking/*` counters. Callers that don't trace pass
    /// [`Telemetry::disabled`].
    pub fn search(
        &self,
        background: &Frame,
        recovered: &Mask,
        template: &Frame,
        telemetry: &Telemetry,
    ) -> Result<Option<TrackMatch>, AttackError> {
        let _span = telemetry.time("attacks/tracking");
        if recovered.is_empty() {
            return Err(AttackError::NothingRecovered);
        }
        let (fw, fh) = background.dims();
        let frame_pixels = (fw * fh) as f64;
        let recovered_integral = bb_imaging::integral::Integral::of_mask(recovered);
        let mut best: Option<TrackMatch> = None;
        let mut configs_swept = 0u64;
        let mut windows_scored = 0u64;

        for &scale in &self.scales {
            let (tw0, th0) = template.dims();
            let tw = ((tw0 as f32 * scale) as usize).max(2);
            let th = ((th0 as f32 * scale) as usize).max(2);
            if tw >= fw || th >= fh {
                continue;
            }
            let scaled = geom::resize(template, tw, th);
            for &rot in &self.rotations {
                let (rotated, valid) = if rot == 0.0 {
                    (scaled.clone(), Mask::full(tw, th))
                } else {
                    geom::warp(&scaled, &geom::Transform::rotation(rot))
                };
                // Object pixels: valid, non-backdrop.
                let object: Vec<(usize, usize, Hsv)> = rotated
                    .enumerate()
                    .filter(|&(x, y, p)| valid.get(x, y) && p.linf(TEMPLATE_BACKDROP) > 12)
                    .map(|(x, y, p)| (x, y, p.to_hsv()))
                    .collect();
                if object.len() < 8 {
                    continue;
                }
                // Enforce the window-size guard once per (scale, rot).
                if (tw * th) as f64 / frame_pixels < self.min_window_frac {
                    continue;
                }
                configs_swept += 1;

                let mut y = 0usize;
                while y + th <= fh {
                    let mut x = 0usize;
                    while x + tw <= fw {
                        // Recovered-fraction guard (integral image: O(1)).
                        let rec = recovered_integral.window_sum(x, y, tw, th) as f64;
                        if rec / (tw * th) as f64 >= self.min_recovered_frac {
                            windows_scored += 1;
                            let score = self.window_score(background, recovered, &object, x, y);
                            if score > best.as_ref().map_or(0.0, |b| b.score) {
                                best = Some(TrackMatch {
                                    score,
                                    x,
                                    y,
                                    scale,
                                    rotation: rot,
                                });
                            }
                        }
                        x += self.stride;
                    }
                    y += self.stride;
                }
            }
        }
        telemetry.add("attacks/tracking/configs_swept", configs_swept);
        telemetry.add("attacks/tracking/windows_scored", windows_scored);
        if let Some(m) = &best {
            telemetry.event(
                "attacks/tracking/match",
                None,
                &[
                    ("score", m.score),
                    ("x", m.x as f64),
                    ("y", m.y as f64),
                    ("scale", m.scale as f64),
                ],
            );
        }
        Ok(best)
    }

    fn window_score(
        &self,
        background: &Frame,
        recovered: &Mask,
        object: &[(usize, usize, Hsv)],
        ox: usize,
        oy: usize,
    ) -> f64 {
        // Per-color-group accounting: a window only matches when *every*
        // major color region of the template is present (a plain red wall
        // must not match a red-and-blue poster). Groups are 30° hue buckets
        // plus one achromatic bucket.
        const GROUPS: usize = 13;
        let group_of = |hsv: Hsv| -> usize {
            if hsv.s < crate::location::ACHROMATIC_SAT {
                12
            } else {
                ((hsv.h / 30.0) as usize).min(11)
            }
        };
        let mut group_total = [0usize; GROUPS];
        for &(_, _, t) in object {
            group_total[group_of(t)] += 1;
        }

        let mut matched = 0usize;
        let mut compared = 0usize;
        let mut group_matched = [0usize; GROUPS];
        let mut group_compared = [0usize; GROUPS];
        for &(tx, ty, t_hsv) in object {
            let (px, py) = (ox + tx, oy + ty);
            if !recovered.get(px, py) {
                continue;
            }
            compared += 1;
            let g = group_of(t_hsv);
            group_compared[g] += 1;
            let p = background.get(px, py).to_hsv();
            let ok = if p.s < crate::location::ACHROMATIC_SAT
                || t_hsv.s < crate::location::ACHROMATIC_SAT
            {
                (p.v - t_hsv.v).abs() <= self.value_tau
            } else {
                Hsv::hue_distance(p.h, t_hsv.h) <= self.hue_tau
            };
            if ok {
                matched += 1;
                group_matched[g] += 1;
            }
        }
        if compared < object.len() / 4 {
            // Too little overlap with recovered content to judge.
            return 0.0;
        }
        let overall = matched as f64 / compared as f64;
        // Split the template into its dominant color group and everything
        // else. Resampling smears secondary colors across hue groups, so the
        // robust question is: do the template's NON-dominant colors match
        // anywhere in this window?
        let dominant = (0..GROUPS)
            .max_by_key(|&g| group_total[g])
            .expect("GROUPS > 0");
        // Secondary = groups far from the dominant hue (resampling smears
        // region borders into near-dominant hues; those are not evidence of
        // a distinct second color).
        let is_secondary = |g: usize| -> bool {
            if g == dominant {
                return false;
            }
            if dominant == 12 || g == 12 {
                // Achromatic vs chromatic are always distinct families.
                return true;
            }
            let center = |k: usize| k as f32 * 30.0 + 15.0;
            Hsv::hue_distance(center(g), center(dominant)) > 45.0
        };
        let sec_total: usize = (0..GROUPS)
            .filter(|&g| is_secondary(g))
            .map(|g| group_total[g])
            .sum();
        let sec_compared: usize = (0..GROUPS)
            .filter(|&g| is_secondary(g))
            .map(|g| group_compared[g])
            .sum();
        let sec_matched: usize = (0..GROUPS)
            .filter(|&g| is_secondary(g))
            .map(|g| group_matched[g])
            .sum();
        if sec_total * 100 >= object.len() * 15 && sec_compared >= 4 {
            let sec_frac = sec_matched as f64 / sec_compared as f64;
            if sec_frac < 0.15 {
                // The template's secondary color region is simply absent:
                // this is not the object, no matter how well the dominant
                // color matches (a plain red wall must not match a
                // red-and-blue poster).
                return overall.min(0.25);
            }
            return 0.7 * overall + 0.3 * sec_frac;
        }
        // Single-color templates carry far less identifying evidence (any
        // same-hue surface matches); discount them so generic patches do
        // not clear the presence threshold on hue alone.
        overall * 0.8
    }

    /// Convenience: blurs the template slightly before matching — real
    /// reconstructions carry blending noise, and a softened template is less
    /// brittle.
    pub fn soften_template(template: &Frame) -> Frame {
        filter::box_blur(template, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::draw;

    /// A reconstruction containing a red-and-blue "poster" at (20, 8) with
    /// 70% of pixels recovered.
    fn scene_with_poster() -> (Frame, Mask, Frame) {
        let mut background = Frame::filled(64, 48, Rgb::BLACK);
        let mut template = Frame::filled(12, 16, TEMPLATE_BACKDROP);
        // Poster look: red body, blue stripe.
        draw::fill_rect(&mut template, 0, 0, 12, 16, Rgb::new(200, 40, 40));
        draw::fill_rect(&mut template, 0, 6, 12, 4, Rgb::new(40, 60, 200));
        // Paint the poster into the scene.
        background.blit(&template, 20, 8);
        // Recovered mask: ~2/3 of all poster pixels plus scattered noise.
        let recovered = Mask::from_fn(64, 48, |x, y| {
            let in_poster = (20..32).contains(&x) && (8..24).contains(&y);
            in_poster && (x + y) % 3 != 0
        });
        (background, recovered, template)
    }

    #[test]
    fn finds_planted_object() {
        let (bg, rec, template) = scene_with_poster();
        let tracker = ObjectTracker::default();
        let m = tracker
            .search(&bg, &rec, &template, &Telemetry::disabled())
            .unwrap()
            .expect("match");
        assert!(m.score > 0.8, "score {}", m.score);
        assert!(
            m.x.abs_diff(20) <= 2 && m.y.abs_diff(8) <= 2,
            "found at ({}, {})",
            m.x,
            m.y
        );
        assert!(m.score >= tracker.present_threshold);
    }

    #[test]
    fn absent_object_scores_low() {
        let (bg, rec, _) = scene_with_poster();
        let mut other = Frame::filled(12, 16, TEMPLATE_BACKDROP);
        draw::fill_rect(&mut other, 0, 0, 12, 16, Rgb::new(30, 200, 60)); // green toy
        let tracker = ObjectTracker::default();
        let best = tracker
            .search(&bg, &rec, &other, &Telemetry::disabled())
            .unwrap();
        assert!(best.is_none_or(|m| m.score < tracker.present_threshold));
    }

    #[test]
    fn recovered_guard_rejects_sparse_windows() {
        let (bg, _, template) = scene_with_poster();
        // Only 10% of the poster recovered — below the 50% guard.
        let sparse = Mask::from_fn(64, 48, |x, y| {
            (20..32).contains(&x) && (8..24).contains(&y) && (x * 7 + y) % 10 == 0
        });
        let tracker = ObjectTracker::default();
        let found = tracker
            .search(&bg, &sparse, &template, &Telemetry::disabled())
            .unwrap();
        assert!(found.is_none() || found.unwrap().score < 0.55);
    }

    #[test]
    fn window_size_guard_rejects_tiny_templates() {
        let (bg, rec, _) = scene_with_poster();
        let tiny = Frame::filled(3, 3, Rgb::new(200, 40, 40));
        let tracker = ObjectTracker {
            min_window_frac: 0.05,
            ..Default::default()
        };
        assert!(tracker
            .search(&bg, &rec, &tiny, &Telemetry::disabled())
            .unwrap()
            .is_none());
    }

    #[test]
    fn empty_recovery_is_error() {
        let (bg, _, template) = scene_with_poster();
        let tracker = ObjectTracker::default();
        assert!(matches!(
            tracker.search(&bg, &Mask::new(64, 48), &template, &Telemetry::disabled()),
            Err(AttackError::NothingRecovered)
        ));
    }

    #[test]
    fn scaled_object_found() {
        // Plant the poster at 125% size; the scale sweep should still hit.
        let mut bg = Frame::filled(64, 48, Rgb::BLACK);
        let mut template = Frame::filled(12, 16, TEMPLATE_BACKDROP);
        draw::fill_rect(&mut template, 0, 0, 12, 16, Rgb::new(200, 40, 40));
        draw::fill_rect(&mut template, 0, 6, 12, 4, Rgb::new(40, 60, 200));
        let big = geom::resize(&template, 15, 20);
        bg.blit(&big, 10, 10);
        let recovered = Mask::from_fn(64, 48, |x, y| {
            (10..25).contains(&x) && (10..30).contains(&y)
        });
        let tracker = ObjectTracker::default();
        let m = tracker
            .search(&bg, &recovered, &template, &Telemetry::disabled())
            .unwrap()
            .expect("match");
        assert!(m.score > 0.7, "score {}", m.score);
        assert!((m.scale - 1.25).abs() < 1e-6);
    }

    #[test]
    fn soften_template_keeps_dims() {
        let t = Frame::filled(8, 8, Rgb::new(1, 2, 3));
        assert_eq!(ObjectTracker::soften_template(&t).dims(), (8, 8));
    }
}

#[cfg(test)]
mod discriminative_tests {
    use super::*;
    use bb_imaging::draw;

    /// A two-color poster template and a window of only its dominant color:
    /// the min-major color-group term must punish the missing stripe.
    #[test]
    fn single_color_region_does_not_match_two_color_template() {
        let mut template = Frame::filled(12, 16, TEMPLATE_BACKDROP);
        draw::fill_rect(&mut template, 0, 0, 12, 16, Rgb::new(200, 40, 40));
        draw::fill_rect(&mut template, 0, 6, 12, 4, Rgb::new(40, 60, 200));
        // Scene: a plain red region (no blue stripe anywhere).
        let bg = Frame::filled(64, 48, Rgb::new(200, 40, 40));
        let recovered = Mask::full(64, 48);
        let tracker = ObjectTracker::default();
        let m = tracker
            .search(&bg, &recovered, &template, &Telemetry::disabled())
            .unwrap()
            .expect("a window qualifies");
        assert!(
            m.score < tracker.present_threshold,
            "plain red matched a red+blue template at {}",
            m.score
        );
    }

    #[test]
    fn rotated_object_found_by_rotation_sweep() {
        let mut template = Frame::filled(14, 18, TEMPLATE_BACKDROP);
        draw::fill_rect(&mut template, 0, 0, 14, 18, Rgb::new(40, 160, 70));
        draw::fill_rect(&mut template, 0, 7, 14, 4, Rgb::new(200, 180, 40));
        // Plant a slightly rotated copy.
        let (rotated, valid) =
            bb_imaging::geom::warp(&template, &bb_imaging::geom::Transform::rotation(7.0));
        let mut bg = Frame::filled(64, 48, Rgb::BLACK);
        for (x, y) in valid.iter_set() {
            if rotated.get(x, y).linf(TEMPLATE_BACKDROP) > 12 {
                bg.put(x + 24, y + 12, rotated.get(x, y));
            }
        }
        let recovered = Mask::from_fn(64, 48, |x, y| (20..44).contains(&x) && (8..34).contains(&y));
        let tracker = ObjectTracker::default();
        let m = tracker
            .search(&bg, &recovered, &template, &Telemetry::disabled())
            .unwrap()
            .expect("match");
        assert!(m.score > 0.5, "rotated object scored {}", m.score);
    }
}
