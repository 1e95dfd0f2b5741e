//! Connected-component labelling.
//!
//! Used by the text-inference attack to find candidate text boxes in a
//! reconstructed background (the bounding-box stage TextFuseNet performs with
//! Mask R-CNN in §VI), by the segmentation substitute to keep the largest
//! person-shaped region, and by the §V-D cluster guard.
//!
//! A [`Labeling`] holds each component's horizontal runs, not a per-pixel
//! label image: masks are painted from the runs, and per-component counts
//! read only the runs, so the work follows the mask's runs rather than the
//! frame's area.

use crate::mask::Mask;

/// A labelled connected component of a binary mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component label (1-based, in discovery order).
    pub label: u32,
    /// Number of pixels.
    pub area: usize,
    /// Inclusive bounding box `(x0, y0, x1, y1)`.
    pub bbox: (usize, usize, usize, usize),
}

impl Component {
    /// Bounding-box width.
    pub fn width(&self) -> usize {
        self.bbox.2 - self.bbox.0 + 1
    }

    /// Bounding-box height.
    pub fn height(&self) -> usize {
        self.bbox.3 - self.bbox.1 + 1
    }
}

/// Connectivity used for labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connectivity {
    /// 4-connected neighbourhood (edges only).
    Four,
    /// 8-connected neighbourhood (edges and corners).
    Eight,
}

/// Result of labelling: the component table and each component's
/// horizontal runs. Nothing is stored per pixel; a component's mask is
/// painted from its runs on demand.
///
/// [`label_into`] relabels an existing `Labeling` in place, reusing its
/// vectors (the run table and the union-find's working arrays), so a
/// labelling reused across frames allocates only when a frame has more
/// runs than any before it. `Labeling::default()` is the empty labelling
/// of no mask, a buffer for [`label_into`] to fill.
#[derive(Debug, Clone, Default)]
pub struct Labeling {
    width: usize,
    height: usize,
    /// Every run, grouped by component: label `l`'s runs are
    /// `runs[starts[l - 1]..starts[l]]`, in row-major order.
    runs: Vec<Run>,
    starts: Vec<usize>,
    components: Vec<Component>,
    /// Working arrays of [`label_into`], kept for reuse: the runs in
    /// row-major order, where each row's runs start, the union-find
    /// parents, and the labels by root and by run.
    scan: Vec<Run>,
    row_start: Vec<usize>,
    parent: Vec<u32>,
    label_of_root: Vec<u32>,
    label_of_run: Vec<u32>,
}

impl Labeling {
    /// The component table, ordered by label: the component with label `l`
    /// is `components()[l - 1]`.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The largest component by area, if any.
    pub fn largest(&self) -> Option<&Component> {
        self.components.iter().max_by_key(|c| c.area)
    }

    /// The runs of component `label` (none when the label does not exist).
    fn runs_of(&self, label: u32) -> &[Run] {
        match (label as usize).checked_sub(1) {
            Some(i) if i < self.components.len() => &self.runs[self.starts[i]..self.starts[i + 1]],
            _ => &[],
        }
    }

    /// Extracts the mask of a single component.
    ///
    /// Returns an all-background mask when the label does not exist. Only
    /// the component's runs are painted, a word at a time.
    pub fn component_mask(&self, label: u32) -> Mask {
        let mut out = Mask::new(self.width, self.height);
        self.paint(label, &mut out);
        out
    }

    /// Sets the pixels of component `label` in `out`, which must have the
    /// labelled mask's dimensions; other pixels of `out` are untouched.
    /// Nothing is painted when the label does not exist.
    ///
    /// # Panics
    ///
    /// Panics when `out`'s dimensions differ from the labelled mask's.
    pub fn paint(&self, label: u32, out: &mut Mask) {
        assert_eq!(out.dims(), (self.width, self.height), "paint target size");
        for r in self.runs_of(label) {
            out.fill_span(r.y as usize, r.x0 as usize, r.x1 as usize);
        }
    }

    /// Number of pixels of component `label` that are set in `mask`,
    /// counted over the component's runs only. Zero when the label does not
    /// exist or the dimensions differ.
    pub fn count_in(&self, label: u32, mask: &Mask) -> usize {
        if mask.dims() != (self.width, self.height) {
            return 0;
        }
        self.runs_of(label)
            .iter()
            .map(|r| mask.count_span(r.y as usize, r.x0 as usize, r.x1 as usize))
            .sum()
    }
}

/// A horizontal run of set pixels: row `y`, columns `x0..=x1`.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    y: u32,
    x0: u32,
    x1: u32,
}

/// First bit position `>= from` whose value equals `set`, or `w` when none.
/// Operates on one row's packed words; the zero tail reads as clear, which
/// is correct for both searches because results are clamped to `w`.
fn next_bit(words: &[u64], from: usize, w: usize, set: bool) -> usize {
    let mut wi = from / 64;
    let mut off = from % 64;
    while wi < words.len() {
        let word = if set { words[wi] } else { !words[wi] } & (!0u64 << off);
        if word != 0 {
            return (wi * 64 + word.trailing_zeros() as usize).min(w);
        }
        wi += 1;
        off = 0;
    }
    w
}

/// Path-halving find for the run union-find.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        parent[i as usize] = parent[parent[i as usize] as usize];
        i = parent[i as usize];
    }
    i
}

/// Labels the connected components of `mask`.
///
/// Run-based two-pass labelling: horizontal runs of set pixels are extracted
/// from the packed mask words (empty 64-pixel spans cost one comparison),
/// merged across adjacent rows with a union-find, then numbered by the
/// row-major position of each component's first pixel. That numbering is
/// exactly the discovery order of a per-pixel flood fill, so the labels,
/// areas, bounding boxes and component masks are the ones a flood fill
/// finds, at the cost of the runs rather than the pixels. Downstream
/// tie-breaking (stable sorts over component scores) therefore sees
/// identical input.
pub fn label(mask: &Mask, connectivity: Connectivity) -> Labeling {
    let mut out = Labeling::default();
    label_into(mask, connectivity, &mut out);
    out
}

/// [`label`] written into `out`, replacing whatever it labelled before and
/// reusing its vectors.
pub fn label_into(mask: &Mask, connectivity: Connectivity, out: &mut Labeling) {
    let (w, h) = mask.dims();
    let Labeling {
        width,
        height,
        runs: grouped,
        starts,
        components,
        scan: runs,
        row_start,
        parent,
        label_of_root,
        label_of_run,
    } = out;
    (*width, *height) = (w, h);

    // Pass 1: extract runs, row by row.
    runs.clear();
    row_start.clear();
    for y in 0..h {
        row_start.push(runs.len());
        let words = mask.row_words(y);
        let mut x = next_bit(words, 0, w, true);
        while x < w {
            let end = next_bit(words, x, w, false);
            runs.push(Run {
                y: y as u32,
                x0: x as u32,
                x1: (end - 1) as u32,
            });
            x = next_bit(words, end, w, true);
        }
    }
    row_start.push(runs.len());

    // Pass 2: union runs that touch across adjacent rows. Eight-connectivity
    // lets runs meet diagonally, i.e. with a horizontal reach of one.
    let reach = match connectivity {
        Connectivity::Four => 0u32,
        Connectivity::Eight => 1,
    };
    parent.clear();
    parent.extend(0..runs.len() as u32);
    for y in 1..h {
        let (mut a, mut b) = (row_start[y - 1], row_start[y]);
        let (a_end, b_end) = (row_start[y], row_start[y + 1]);
        while a < a_end && b < b_end {
            let (ra, rb) = (runs[a], runs[b]);
            if ra.x0 <= rb.x1 + reach && rb.x0 <= ra.x1 + reach {
                let (pa, pb) = (find(parent, a as u32), find(parent, b as u32));
                if pa != pb {
                    parent[pa.max(pb) as usize] = pa.min(pb);
                }
            }
            if ra.x1 < rb.x1 {
                a += 1;
            } else {
                b += 1;
            }
        }
    }

    // Number components in row-major first-run order and fold up area/bbox.
    label_of_root.clear();
    label_of_root.resize(runs.len(), 0);
    label_of_run.clear();
    components.clear();
    for (i, &r) in runs.iter().enumerate() {
        let root = find(parent, i as u32) as usize;
        if label_of_root[root] == 0 {
            label_of_root[root] = components.len() as u32 + 1;
            components.push(Component {
                label: label_of_root[root],
                area: 0,
                bbox: (r.x0 as usize, r.y as usize, r.x1 as usize, r.y as usize),
            });
        }
        let lbl = label_of_root[root];
        let c = &mut components[(lbl - 1) as usize];
        c.area += (r.x1 - r.x0 + 1) as usize;
        c.bbox.0 = c.bbox.0.min(r.x0 as usize);
        c.bbox.2 = c.bbox.2.max(r.x1 as usize);
        c.bbox.3 = r.y as usize;
        label_of_run.push(lbl);
    }

    // Group the runs by label (a stable counting sort keeps each
    // component's runs row-major). `label_of_root` is free again and holds
    // each label's next slot.
    starts.clear();
    starts.resize(components.len() + 1, 0);
    for &lbl in label_of_run.iter() {
        starts[lbl as usize] += 1;
    }
    for l in 1..starts.len() {
        starts[l] += starts[l - 1];
    }
    let next = label_of_root;
    next.clear();
    next.extend(starts[..components.len()].iter().map(|&s| s as u32));
    grouped.clear();
    grouped.resize(runs.len(), Run::default());
    for (run, &lbl) in runs.iter().zip(label_of_run.iter()) {
        let slot = &mut next[lbl as usize - 1];
        grouped[*slot as usize] = *run;
        *slot += 1;
    }
}

/// Removes components smaller than `min_area` pixels from a mask: the
/// output paints only the runs of the components it keeps.
pub fn remove_small_components(mask: &Mask, min_area: usize, connectivity: Connectivity) -> Mask {
    let (w, h) = mask.dims();
    let mut out = Mask::new(w, h);
    remove_small_components_into(
        mask,
        min_area,
        connectivity,
        &mut Labeling::default(),
        &mut out,
    );
    out
}

/// [`remove_small_components`] written into `out` (reshaped to `mask`'s
/// dimensions whatever it held before), labelling into the reused
/// `labeling`.
pub fn remove_small_components_into(
    mask: &Mask,
    min_area: usize,
    connectivity: Connectivity,
    labeling: &mut Labeling,
    out: &mut Mask,
) {
    label_into(mask, connectivity, labeling);
    out.reset(labeling.width, labeling.height);
    for c in &labeling.components {
        if c.area >= min_area {
            labeling.paint(c.label, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_has_no_components() {
        let l = label(&Mask::new(4, 4), Connectivity::Four);
        assert!(l.components().is_empty());
        assert!(l.largest().is_none());
    }

    #[test]
    fn single_blob() {
        let m = Mask::from_fn(6, 6, |x, y| (1..=3).contains(&x) && (2..=4).contains(&y));
        let l = label(&m, Connectivity::Four);
        assert_eq!(l.components().len(), 1);
        let c = &l.components()[0];
        assert_eq!(c.area, 9);
        assert_eq!(c.bbox, (1, 2, 3, 4));
        assert_eq!(c.width(), 3);
        assert_eq!(c.height(), 3);
    }

    #[test]
    fn diagonal_blobs_depend_on_connectivity() {
        let mut m = Mask::new(4, 4);
        m.set(0, 0, true);
        m.set(1, 1, true);
        assert_eq!(label(&m, Connectivity::Four).components().len(), 2);
        assert_eq!(label(&m, Connectivity::Eight).components().len(), 1);
    }

    #[test]
    fn two_separate_blobs() {
        let mut m = Mask::new(8, 8);
        m.set(0, 0, true);
        m.set(7, 7, true);
        let l = label(&m, Connectivity::Eight);
        assert_eq!(l.components().len(), 2);
        let c = l.components();
        assert_eq!((c[0].label, c[0].bbox), (1, (0, 0, 0, 0)));
        assert_eq!((c[1].label, c[1].bbox), (2, (7, 7, 7, 7)));
    }

    #[test]
    fn largest_picks_biggest() {
        let mut m = Mask::new(8, 8);
        m.set(0, 0, true);
        for x in 3..7 {
            m.set(x, 4, true);
        }
        let l = label(&m, Connectivity::Four);
        assert_eq!(l.largest().unwrap().area, 4);
    }

    #[test]
    fn component_mask_round_trip() {
        let mut m = Mask::new(5, 5);
        m.set(1, 1, true);
        m.set(4, 4, true);
        let l = label(&m, Connectivity::Four);
        let c1 = l.component_mask(1);
        assert!(c1.get(1, 1));
        assert!(!c1.get(4, 4));
        assert_eq!(c1.count_set(), 1);
    }

    #[test]
    fn remove_small_components_keeps_big() {
        let mut m = Mask::from_fn(10, 10, |x, y| (2..=6).contains(&x) && (2..=6).contains(&y));
        m.set(9, 9, true);
        m.set(0, 9, true);
        let cleaned = remove_small_components(&m, 5, Connectivity::Four);
        assert_eq!(cleaned.count_set(), 25);
        assert!(!cleaned.get(9, 9));
    }
}
