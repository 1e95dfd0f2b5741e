//! The Location Inference attack (§VI, Fig 12b).
//!
//! "Rank all background images in the dictionary by computing their
//! similarity to the partially reconstructed (real) background … This
//! similarity is calculated by comparing the hue changes and distances
//! between all pixels." Two challenges are addressed exactly as the paper
//! does:
//!
//! 1. Ambient-light changes → match **hue only**, ignoring saturation and
//!    value (achromatic pixels compare by value instead, since their hue is
//!    undefined).
//! 2. Camera re-adjustment → search over a small grid of **rotations and
//!    shifts** of the reconstruction, keeping the best-scoring alignment.

use crate::AttackError;
use bb_imaging::{geom, Frame, Hsv, Mask};
use bb_telemetry::Telemetry;

/// A labelled dictionary of candidate backgrounds (the adversary's auxiliary
/// knowledge: 200 unique backgrounds in §VIII-D).
#[derive(Debug, Clone)]
pub struct LocationDictionary {
    entries: Vec<DictEntry>,
}

#[derive(Debug, Clone)]
struct DictEntry {
    label: String,
    hue: Vec<f32>,
    achromatic: Vec<bool>,
    value: Vec<f32>,
    width: usize,
    height: usize,
}

/// Saturation below which a pixel is treated as achromatic (hue undefined).
pub const ACHROMATIC_SAT: f32 = 0.10;

impl LocationDictionary {
    /// Builds a dictionary from `(label, background)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::EmptyDataset`] when `entries` is empty.
    pub fn new(entries: Vec<(String, Frame)>) -> Result<Self, AttackError> {
        if entries.is_empty() {
            return Err(AttackError::EmptyDataset);
        }
        let entries = entries
            .into_iter()
            .map(|(label, frame)| {
                let (w, h) = frame.dims();
                let mut hue = Vec::with_capacity(w * h);
                let mut achromatic = Vec::with_capacity(w * h);
                let mut value = Vec::with_capacity(w * h);
                for p in frame.pixels() {
                    let hsv = p.to_hsv();
                    hue.push(hsv.h);
                    achromatic.push(hsv.s < ACHROMATIC_SAT);
                    value.push(hsv.v);
                }
                DictEntry {
                    label,
                    hue,
                    achromatic,
                    value,
                    width: w,
                    height: h,
                }
            })
            .collect();
        Ok(LocationDictionary { entries })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Labels in entry order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.label.as_str())
    }
}

/// Attack parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationInference {
    /// Maximum hue distance (degrees) for two chromatic pixels to match.
    pub hue_tau: f32,
    /// Maximum value distance for two achromatic pixels to match.
    pub value_tau: f32,
    /// Rotation search grid in degrees (e.g. `[-4, -2, 0, 2, 4]`).
    pub rotations: Vec<f32>,
    /// Shift search grid in pixels (applied on both axes).
    pub shifts: Vec<i64>,
}

impl Default for LocationInference {
    fn default() -> Self {
        LocationInference {
            hue_tau: 18.0,
            value_tau: 0.22,
            rotations: vec![-4.0, -2.0, 0.0, 2.0, 4.0],
            shifts: vec![-3, 0, 3],
        }
    }
}

/// A ranked dictionary: labels with scores, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// `(label, score)` pairs sorted descending by score.
    pub ranked: Vec<(String, f64)>,
}

impl Ranking {
    /// 1-based rank of a label, if present.
    pub fn rank_of(&self, label: &str) -> Option<usize> {
        self.ranked
            .iter()
            .position(|(l, _)| l == label)
            .map(|i| i + 1)
    }

    /// Whether the label is within the top `k`.
    pub fn in_top_k(&self, label: &str, k: usize) -> bool {
        self.rank_of(label).is_some_and(|r| r <= k)
    }
}

impl LocationInference {
    /// Ranks the dictionary against a reconstruction.
    ///
    /// `background` is the reconstructed image, `recovered` the mask of
    /// pixels that were actually recovered; only those participate.
    ///
    /// # Errors
    ///
    /// * [`AttackError::NothingRecovered`] when the mask is empty.
    ///
    /// Instrumentation goes through `telemetry`: wall time lands in the
    /// `attacks/location` stage, alignment/scoring volumes in
    /// `attacks/location/*` counters. Callers that don't trace pass
    /// [`Telemetry::disabled`].
    pub fn rank(
        &self,
        background: &Frame,
        recovered: &Mask,
        dictionary: &LocationDictionary,
        telemetry: &Telemetry,
    ) -> Result<Ranking, AttackError> {
        let _span = telemetry.time("attacks/location");
        if recovered.is_empty() {
            return Err(AttackError::NothingRecovered);
        }
        // Precompute the aligned reconstructions (one per transform); the
        // dictionary side stays fixed.
        let mut variants: Vec<(Frame, Mask)> = Vec::new();
        for &rot in &self.rotations {
            for &dx in &self.shifts {
                for &dy in &self.shifts {
                    if rot == 0.0 && dx == 0 && dy == 0 {
                        variants.push((background.clone(), recovered.clone()));
                        continue;
                    }
                    let t = geom::Transform {
                        rotate_deg: rot,
                        scale: 1.0,
                        dx: dx as f32,
                        dy: dy as f32,
                    };
                    let (warped, valid) = geom::warp(background, &t);
                    let moved = geom::warp_mask(recovered, &t);
                    let mask = moved.intersect(&valid).expect("warp preserves dims");
                    variants.push((warped, mask));
                }
            }
        }

        telemetry.add("attacks/location/variants", variants.len() as u64);
        telemetry.add(
            "attacks/location/entries_scored",
            dictionary.entries.len() as u64,
        );
        telemetry.add(
            "attacks/location/recovered_pixels",
            recovered.count_set() as u64,
        );

        let mut ranked: Vec<(String, f64)> = dictionary
            .entries
            .iter()
            .map(|entry| {
                let mut best = 0.0f64;
                for (frame, mask) in &variants {
                    let score = self.score_entry(frame, mask, entry);
                    if score > best {
                        best = score;
                    }
                }
                (entry.label.clone(), best)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
        if let Some((_, top)) = ranked.first() {
            let runner_up = ranked.get(1).map_or(0.0, |(_, s)| *s);
            telemetry.event(
                "attacks/location/ranking",
                None,
                &[
                    ("top_score", *top),
                    ("margin", *top - runner_up),
                    ("entries", ranked.len() as f64),
                ],
            );
        }
        Ok(Ranking { ranked })
    }

    fn score_entry(&self, frame: &Frame, mask: &Mask, entry: &DictEntry) -> f64 {
        if frame.dims() != (entry.width, entry.height) {
            return 0.0;
        }
        let mut matched = 0usize;
        let mut total = 0usize;
        for (x, y) in mask.iter_set() {
            let idx = y * entry.width + x;
            let p = frame.get(x, y).to_hsv();
            total += 1;
            let p_achromatic = p.s < ACHROMATIC_SAT;
            let ok = if p_achromatic || entry.achromatic[idx] {
                // Achromatic pixels carry no hue; compare brightness
                // loosely (lighting-sensitive, hence the wide tolerance).
                (p.v - entry.value[idx]).abs() <= self.value_tau
            } else {
                Hsv::hue_distance(p.h, entry.hue[idx]) <= self.hue_tau
            };
            if ok {
                matched += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            matched as f64 / total as f64
        }
    }

    /// The random-guessing baseline of Fig 12b: the probability that `k`
    /// uniform draws (without replacement) from a dictionary of size `n`
    /// include the true background.
    pub fn random_baseline(n: usize, k: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        (k.min(n) as f64) / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::{draw, Rgb};

    fn room_like(seed: u8) -> Frame {
        let mut f = Frame::filled(40, 30, Rgb::new(200 - seed, 190, 180 + seed / 2));
        draw::fill_rect(
            &mut f,
            4 + seed as i64 % 8,
            4,
            10,
            8,
            Rgb::new(seed.wrapping_mul(37), 120, 200),
        );
        draw::fill_rect(
            &mut f,
            22,
            15,
            12,
            10,
            Rgb::new(40, seed.wrapping_mul(53), 90),
        );
        f
    }

    fn dictionary(n: u8) -> LocationDictionary {
        LocationDictionary::new(
            (0..n)
                .map(|i| (format!("room-{i}"), room_like(i * 7 + 3)))
                .collect(),
        )
        .unwrap()
    }

    fn partial_mask() -> Mask {
        Mask::from_fn(40, 30, |x, y| (x + 2 * y) % 3 == 0)
    }

    #[test]
    fn empty_dictionary_rejected() {
        assert!(matches!(
            LocationDictionary::new(vec![]),
            Err(AttackError::EmptyDataset)
        ));
    }

    #[test]
    fn exact_background_ranks_first() {
        let dict = dictionary(12);
        let target = room_like(3); // = entry "room-0"
        let attack = LocationInference::default();
        let ranking = attack
            .rank(&target, &partial_mask(), &dict, &Telemetry::disabled())
            .unwrap();
        assert_eq!(ranking.ranked[0].0, "room-0");
        assert!(ranking.in_top_k("room-0", 1));
        assert_eq!(ranking.rank_of("room-0"), Some(1));
    }

    #[test]
    fn shifted_background_still_ranks_first() {
        let dict = dictionary(12);
        let target = room_like(3);
        let (shifted, valid) = geom::shift_frame(&target, 3, -2);
        let mask = partial_mask().intersect(&valid).unwrap();
        let attack = LocationInference::default();
        let ranking = attack
            .rank(&shifted, &mask, &dict, &Telemetry::disabled())
            .unwrap();
        assert_eq!(ranking.ranked[0].0, "room-0", "shift search failed");
    }

    #[test]
    fn brightness_change_tolerated_by_hue_matching() {
        let dict = dictionary(12);
        let mut darker = room_like(3);
        darker.map_in_place(|p| p.scale(0.75)); // lights dimmed
        let attack = LocationInference::default();
        let ranking = attack
            .rank(&darker, &partial_mask(), &dict, &Telemetry::disabled())
            .unwrap();
        assert!(
            ranking.in_top_k("room-0", 3),
            "dimmed room ranked {:?}",
            ranking.rank_of("room-0")
        );
    }

    #[test]
    fn empty_recovery_is_error() {
        let dict = dictionary(3);
        let attack = LocationInference::default();
        let err = attack
            .rank(
                &Frame::new(40, 30),
                &Mask::new(40, 30),
                &dict,
                &Telemetry::disabled(),
            )
            .unwrap_err();
        assert_eq!(err, AttackError::NothingRecovered);
    }

    #[test]
    fn ranking_contains_all_labels() {
        let dict = dictionary(8);
        let attack = LocationInference {
            rotations: vec![0.0],
            shifts: vec![0],
            ..Default::default()
        };
        let ranking = attack
            .rank(
                &room_like(3),
                &partial_mask(),
                &dict,
                &Telemetry::disabled(),
            )
            .unwrap();
        assert_eq!(ranking.ranked.len(), 8);
        assert_eq!(ranking.rank_of("nope"), None);
        assert!(!ranking.in_top_k("nope", 8));
    }

    #[test]
    fn random_baseline_math() {
        assert!((LocationInference::random_baseline(200, 1) - 0.005).abs() < 1e-12);
        assert!((LocationInference::random_baseline(200, 25) - 0.125).abs() < 1e-12);
        assert_eq!(LocationInference::random_baseline(10, 20), 1.0);
        assert_eq!(LocationInference::random_baseline(0, 5), 0.0);
    }

    #[test]
    fn scores_are_probabilities() {
        let dict = dictionary(6);
        let attack = LocationInference::default();
        let ranking = attack
            .rank(
                &room_like(10),
                &partial_mask(),
                &dict,
                &Telemetry::disabled(),
            )
            .unwrap();
        for (_, s) in &ranking.ranked {
            assert!((0.0..=1.0).contains(s));
        }
        // Sorted descending.
        for w in ranking.ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use bb_imaging::{draw, Frame, Mask, Rgb};

    fn textured_room(seed: u8) -> Frame {
        let mut f = Frame::filled(48, 36, Rgb::new(210, 205, 196));
        draw::fill_rect(
            &mut f,
            4 + (seed % 9) as i64,
            5,
            12,
            9,
            Rgb::new(seed.wrapping_mul(41), 130, 190),
        );
        draw::fill_rect(
            &mut f,
            26,
            18,
            14,
            11,
            Rgb::new(60, seed.wrapping_mul(29), 110),
        );
        draw::fill_circle(&mut f, 38, 8, 4, Rgb::new(230, 200, 60));
        f
    }

    #[test]
    fn combined_shift_rotation_and_dimming_still_ranks_top() {
        let entries: Vec<(String, Frame)> = (0..15u8)
            .map(|i| (format!("room-{i}"), textured_room(i * 5 + 1)))
            .collect();
        let dict = LocationDictionary::new(entries).unwrap();
        // The reconstruction: room-4's background dimmed 20%, shifted (2,-1)
        // and rotated 2°, with only ~45% of pixels recovered.
        let mut target = textured_room(4 * 5 + 1);
        target.map_in_place(|p| p.scale(0.8));
        let (warped, valid) = geom::warp(
            &target,
            &geom::Transform {
                rotate_deg: 2.0,
                scale: 1.0,
                dx: 2.0,
                dy: -1.0,
            },
        );
        let recovered = Mask::from_fn(48, 36, |x, y| (x * 3 + y * 7) % 9 < 4 && valid.get(x, y));
        let attack = LocationInference::default();
        let ranking = attack
            .rank(&warped, &recovered, &dict, &Telemetry::disabled())
            .unwrap();
        assert!(
            ranking.in_top_k("room-4", 2),
            "true room ranked {:?} under combined perturbation",
            ranking.rank_of("room-4")
        );
    }

    #[test]
    fn sparser_recovery_degrades_gracefully() {
        let entries: Vec<(String, Frame)> = (0..10u8)
            .map(|i| (format!("room-{i}"), textured_room(i * 7 + 2)))
            .collect();
        let dict = LocationDictionary::new(entries).unwrap();
        let target = textured_room(3 * 7 + 2);
        let attack = LocationInference {
            rotations: vec![0.0],
            shifts: vec![0],
            ..Default::default()
        };
        let rank_at = |density: usize| -> usize {
            let recovered = Mask::from_fn(48, 36, |x, y| (x + 3 * y) % 10 < density);
            attack
                .rank(&target, &recovered, &dict, &Telemetry::disabled())
                .unwrap()
                .rank_of("room-3")
                .unwrap()
        };
        // Dense recovery must rank at least as well as sparse.
        assert!(rank_at(8) <= rank_at(1).max(2));
        assert_eq!(rank_at(8), 1);
    }
}
