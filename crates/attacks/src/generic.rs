//! The Generic Object Inference attack (§VI, Fig 14a) — RetinaNet/YOLO
//! substitute.
//!
//! The paper uses pretrained detectors as an oracle for "is a recognisable
//! object present in the reconstruction". This substitute plays the same
//! role with classical machinery: a nearest-centroid classifier over hue
//! histograms and shape moments, trained at construction time on rendered
//! exemplars of the same household-object vocabulary that populates the
//! synthetic rooms (books/shelves, TVs, monitors, clocks, shirts, posters…).
//!
//! Detection proposals come from the recovered-pixel components of the
//! reconstruction: each sufficiently large component's bounding box is
//! classified, mirroring how the paper feeds reconstructed (partial)
//! backgrounds to RetinaNet/YOLO.

use crate::AttackError;
use bb_imaging::components::{label, Connectivity};
use bb_imaging::hist::{hue_histogram, hue_similarity, ShapeMoments, HUE_BINS};
use bb_imaging::{Frame, Mask, Rgb};
use bb_synth::{ObjectClass, SceneObject};
use bb_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A detection in the reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detected class.
    pub class: ObjectClass,
    /// Classifier confidence in `[0, 1]` (1 = perfect centroid match).
    pub confidence: f64,
    /// Inclusive bounding box `(x0, y0, x1, y1)`.
    pub bbox: (usize, usize, usize, usize),
}

/// Per-class feature centroid.
#[derive(Debug, Clone)]
struct ClassModel {
    class: ObjectClass,
    hue: [f64; HUE_BINS],
    moments: ShapeMoments,
}

/// The feature-based household-object detector.
#[derive(Debug, Clone)]
pub struct ObjectDetector {
    models: Vec<ClassModel>,
    /// Minimum component area (pixels) to propose.
    pub min_area: usize,
    /// Minimum confidence to report a detection.
    pub min_confidence: f64,
    /// Weight of hue similarity vs shape similarity in the confidence.
    pub hue_weight: f64,
}

impl ObjectDetector {
    /// Trains the detector on `exemplars_per_class` rendered instances of
    /// every class in the vocabulary (deterministic in `seed`).
    pub fn train(exemplars_per_class: usize, seed: u64) -> Self {
        let mut models = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for class in ObjectClass::ALL {
            let mut hue_acc = [0.0f64; HUE_BINS];
            let mut moment_acc: Vec<ShapeMoments> = Vec::new();
            for _ in 0..exemplars_per_class.max(1) {
                let obj = SceneObject::sample(class, 160, 120, &mut rng);
                let template = obj.template();
                let (tw, th) = template.dims();
                // Object mask = non-backdrop pixels.
                let mask =
                    Mask::from_fn(tw, th, |x, y| template.get(x, y).linf(Rgb::grey(128)) > 12);
                if mask.is_empty() {
                    continue;
                }
                let hh = hue_histogram(&template, &mask);
                for (a, b) in hue_acc.iter_mut().zip(&hh) {
                    *a += b;
                }
                if let Some(m) = ShapeMoments::of_mask(&mask) {
                    moment_acc.push(m);
                }
            }
            let n = exemplars_per_class.max(1) as f64;
            for a in &mut hue_acc {
                *a /= n;
            }
            let moments = average_moments(&moment_acc);
            models.push(ClassModel {
                class,
                hue: hue_acc,
                moments,
            });
        }
        ObjectDetector {
            models,
            min_area: 40,
            min_confidence: 0.55,
            hue_weight: 0.65,
        }
    }

    /// Classifies a single region of the reconstruction: the pixels of
    /// `mask` within `background`. Returns the best class and confidence.
    ///
    /// Returns `None` for empty masks.
    pub fn classify_region(&self, background: &Frame, mask: &Mask) -> Option<(ObjectClass, f64)> {
        if mask.is_empty() {
            return None;
        }
        let hh = hue_histogram(background, mask);
        let mm = ShapeMoments::of_mask(mask)?;
        let mut best: Option<(ObjectClass, f64)> = None;
        for model in &self.models {
            let hue_sim = hue_similarity(&hh, &model.hue);
            let shape_sim = 1.0 / (1.0 + model.moments.distance(&mm));
            let confidence = self.hue_weight * hue_sim + (1.0 - self.hue_weight) * shape_sim;
            if best.is_none_or(|(_, c)| confidence > c) {
                best = Some((model.class, confidence));
            }
        }
        best
    }

    /// Runs detection over a reconstruction.
    ///
    /// Proposals come from two sources, mirroring how region-proposal
    /// detectors handle amorphous inputs:
    ///
    /// 1. each sufficiently large recovered-pixel component (object-sized
    ///    leak patches), and
    /// 2. for components much larger than a single object (the leak union
    ///    of an active call spans the whole room), sliding windows at the
    ///    class-typical scale inside the component.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NothingRecovered`] when nothing was recovered.
    ///
    /// Instrumentation goes through `telemetry`: wall time lands in the
    /// `attacks/generic` stage, proposal/detection volumes in
    /// `attacks/generic/*` counters. Callers that don't trace pass
    /// [`Telemetry::disabled`].
    pub fn detect(
        &self,
        background: &Frame,
        recovered: &Mask,
        telemetry: &Telemetry,
    ) -> Result<Vec<Detection>, AttackError> {
        let _span = telemetry.time("attacks/generic");
        if recovered.is_empty() {
            return Err(AttackError::NothingRecovered);
        }
        let (w, h) = recovered.dims();
        // Close small gaps so fragmented leak regions form one proposal.
        let merged = bb_imaging::morph::close(recovered, 2);
        let labeling = label(&merged, Connectivity::Eight);
        let unit = (w.min(h) / 10).max(3);
        let mut detections: Vec<Detection> = Vec::new();
        let proposals = std::cell::Cell::new(0u64);

        let consider =
            |mask: &Mask, bbox: (usize, usize, usize, usize), detections: &mut Vec<Detection>| {
                if mask.count_set() < self.min_area / 2 {
                    return;
                }
                proposals.set(proposals.get() + 1);
                if let Some((class, confidence)) = self.classify_region(background, mask) {
                    if confidence >= self.min_confidence {
                        detections.push(Detection {
                            class,
                            confidence,
                            bbox,
                        });
                    }
                }
            };

        for comp in labeling.components() {
            if comp.area < self.min_area {
                continue;
            }
            let comp_mask = labeling
                .component_mask(comp.label)
                .intersect(recovered)
                .expect("same dims");
            consider(&comp_mask, comp.bbox, &mut detections);

            // Oversized component: slide object-scale windows inside it.
            let object_scale = unit * 4;
            if comp.width() > object_scale * 2 || comp.height() > object_scale * 2 {
                let step = object_scale / 2;
                let (x0, y0, x1, y1) = comp.bbox;
                let mut wy = y0;
                while wy <= y1 {
                    let mut wx = x0;
                    while wx <= x1 {
                        let ww = object_scale.min(w - wx);
                        let wh = object_scale.min(h - wy);
                        if ww >= unit && wh >= unit {
                            let window = Mask::from_fn(w, h, |px, py| {
                                (wx..wx + ww).contains(&px)
                                    && (wy..wy + wh).contains(&py)
                                    && comp_mask.get(px, py)
                            });
                            if window.count_set() * 2 >= ww * wh {
                                consider(
                                    &window,
                                    (wx, wy, wx + ww - 1, wy + wh - 1),
                                    &mut detections,
                                );
                            }
                        }
                        wx += step;
                    }
                    wy += step;
                }
            }
        }
        // Non-maximum suppression per class: keep the best-confidence
        // detection among heavily-overlapping boxes.
        detections.sort_by(|a, b| b.confidence.partial_cmp(&a.confidence).expect("finite"));
        let mut kept: Vec<Detection> = Vec::new();
        for d in detections {
            let overlaps = kept
                .iter()
                .any(|k| k.class == d.class && overlap_frac(k.bbox, d.bbox) > 0.4);
            if !overlaps {
                kept.push(d);
            }
        }
        telemetry.add("attacks/generic/proposals", proposals.get());
        telemetry.add("attacks/generic/detections", kept.len() as u64);
        for d in &kept {
            telemetry.event(
                "attacks/generic/detection",
                None,
                &[
                    ("confidence", d.confidence),
                    ("class", d.class as u8 as f64),
                    (
                        "area_px",
                        ((d.bbox.2 - d.bbox.0 + 1) * (d.bbox.3 - d.bbox.1 + 1)) as f64,
                    ),
                ],
            );
        }
        Ok(kept)
    }
}

/// Intersection-over-minimum-area overlap of two inclusive bboxes.
fn overlap_frac(a: (usize, usize, usize, usize), b: (usize, usize, usize, usize)) -> f64 {
    let ix0 = a.0.max(b.0);
    let iy0 = a.1.max(b.1);
    let ix1 = a.2.min(b.2);
    let iy1 = a.3.min(b.3);
    if ix0 > ix1 || iy0 > iy1 {
        return 0.0;
    }
    let inter = ((ix1 - ix0 + 1) * (iy1 - iy0 + 1)) as f64;
    let area = |r: (usize, usize, usize, usize)| ((r.2 - r.0 + 1) * (r.3 - r.1 + 1)) as f64;
    inter / area(a).min(area(b))
}

fn average_moments(ms: &[ShapeMoments]) -> ShapeMoments {
    if ms.is_empty() {
        return ShapeMoments {
            area: 1.0,
            aspect: 1.0,
            fill: 1.0,
            mu20: 0.0,
            mu02: 0.0,
            mu11: 0.0,
        };
    }
    let n = ms.len() as f64;
    ShapeMoments {
        area: ms.iter().map(|m| m.area).sum::<f64>() / n,
        aspect: (ms.iter().map(|m| m.aspect.ln()).sum::<f64>() / n).exp(),
        fill: ms.iter().map(|m| m.fill).sum::<f64>() / n,
        mu20: ms.iter().map(|m| m.mu20).sum::<f64>() / n,
        mu02: ms.iter().map(|m| m.mu02).sum::<f64>() / n,
        mu11: ms.iter().map(|m| m.mu11).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn detector() -> ObjectDetector {
        ObjectDetector::train(12, 99)
    }

    /// Renders an object instance fully recovered on a black canvas.
    fn recovered_object(class: ObjectClass, seed: u64) -> (Frame, Mask, SceneObject) {
        let mut rng = StdRng::seed_from_u64(seed);
        let obj = SceneObject::sample(class, 120, 90, &mut rng);
        let mut canvas = Frame::new(120, 90);
        obj.render(&mut canvas);
        let mask = Mask::from_fn(120, 90, |x, y| canvas.get(x, y) != Rgb::BLACK);
        (canvas, mask, obj)
    }

    #[test]
    fn training_is_deterministic() {
        let a = ObjectDetector::train(4, 5);
        let b = ObjectDetector::train(4, 5);
        assert_eq!(a.models.len(), b.models.len());
        for (ma, mb) in a.models.iter().zip(&b.models) {
            assert_eq!(ma.hue, mb.hue);
        }
    }

    #[test]
    fn classify_fully_visible_objects() {
        let det = detector();
        // Classes with strong signatures must classify correctly when fully
        // recovered.
        let mut correct = 0usize;
        let classes = [
            ObjectClass::Monitor,
            ObjectClass::StickyNote,
            ObjectClass::Window,
            ObjectClass::Bookshelf,
            ObjectClass::Tv,
        ];
        for (i, &class) in classes.iter().enumerate() {
            let (canvas, mask, _) = recovered_object(class, 1000 + i as u64);
            let (pred, _) = det.classify_region(&canvas, &mask).expect("classified");
            if pred == class {
                correct += 1;
            }
        }
        assert!(correct >= 3, "only {correct}/5 strong classes classified");
    }

    #[test]
    fn detect_reports_planted_object() {
        let det = detector();
        let (canvas, mask, obj) = recovered_object(ObjectClass::Monitor, 7);
        let detections = det.detect(&canvas, &mask, &Telemetry::disabled()).unwrap();
        assert!(!detections.is_empty(), "nothing detected");
        let best = &detections[0];
        // The detection's bbox overlaps the planted object's bbox.
        let (ox0, oy0, ox1, oy1) = obj.bbox();
        let overlap = !(best.bbox.2 < ox0 as usize
            || best.bbox.0 > ox1 as usize
            || best.bbox.3 < oy0 as usize
            || best.bbox.1 > oy1 as usize);
        assert!(
            overlap,
            "detection bbox {:?} misses object {:?}",
            best.bbox,
            obj.bbox()
        );
    }

    #[test]
    fn partial_recovery_still_classifies_or_abstains() {
        let det = detector();
        let (canvas, full_mask, _) = recovered_object(ObjectClass::Tv, 21);
        // Keep 60% of pixels.
        let mut rng = StdRng::seed_from_u64(3);
        let mut partial = Mask::new(120, 90);
        for (x, y) in full_mask.iter_set() {
            if rng.gen_bool(0.6) {
                partial.set(x, y, true);
            }
        }
        // Must not panic; any classification outcome is acceptable, but a
        // confident answer should be the right class more often than not.
        let result = det.classify_region(&canvas, &partial);
        assert!(result.is_some());
    }

    #[test]
    fn empty_recovery_is_error() {
        let det = detector();
        assert!(matches!(
            det.detect(
                &Frame::new(20, 20),
                &Mask::new(20, 20),
                &Telemetry::disabled()
            ),
            Err(AttackError::NothingRecovered)
        ));
    }

    #[test]
    fn small_components_not_proposed() {
        let det = detector();
        let mut frame = Frame::new(60, 60);
        frame.put(5, 5, Rgb::new(200, 0, 0));
        let mut mask = Mask::new(60, 60);
        mask.set(5, 5, true);
        let detections = det.detect(&frame, &mask, &Telemetry::disabled()).unwrap();
        assert!(detections.is_empty());
    }

    #[test]
    fn confidence_in_unit_range() {
        let det = detector();
        for class in ObjectClass::ALL {
            let (canvas, mask, _) = recovered_object(class, 55);
            if let Some((_, c)) = det.classify_region(&canvas, &mask) {
                assert!((0.0..=1.0).contains(&c), "{class}: {c}");
            }
        }
    }
}
