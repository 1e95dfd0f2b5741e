//! Rooms: the real backgrounds the attack reconstructs.
//!
//! A [`Room`] renders to a static background frame. The location-inference
//! dictionary of §VIII-D is a set of 200 such rooms; the object-detection
//! experiments look for the [`SceneObject`]s planted here.

use crate::objects::{ObjectClass, SceneObject};
use crate::palette;
use bb_imaging::{draw, Frame, Rgb};
use rand::Rng;

/// A room: wall style plus a list of placed objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Room {
    /// Identifier (stable across runs for a fixed generation seed).
    pub id: u64,
    /// Wall base color.
    pub wall: Rgb,
    /// Secondary wall color for the vertical gradient.
    pub wall_accent: Rgb,
    /// Floor color (bottom strip).
    pub floor: Rgb,
    /// Height of the floor strip as a fraction of frame height.
    pub floor_frac: f32,
    /// The objects in the room, in paint order.
    pub objects: Vec<SceneObject>,
}

impl Room {
    /// Samples a random room for a `w × h` background with `object_count`
    /// props drawn from the full class vocabulary.
    pub fn sample<R: Rng + ?Sized>(
        id: u64,
        w: usize,
        h: usize,
        object_count: usize,
        rng: &mut R,
    ) -> Self {
        let wall = *palette::pick(rng, &palette::WALLS);
        let wall_accent = wall.scale(rng.gen_range(0.82..0.95));
        let floor = palette::muted(rng).scale(0.6);
        let mut objects = Vec::with_capacity(object_count);
        for _ in 0..object_count {
            let class = *palette::pick(rng, &ObjectClass::ALL);
            objects.push(SceneObject::sample(class, w, h, rng));
        }
        Room {
            id,
            wall,
            wall_accent,
            floor,
            floor_frac: rng.gen_range(0.12..0.22),
            objects,
        }
    }

    /// Samples a room guaranteed to contain at least the given classes
    /// (used by experiments that need a specific prop, e.g. a sticky note
    /// for text inference).
    pub fn sample_with<R: Rng + ?Sized>(
        id: u64,
        w: usize,
        h: usize,
        required: &[ObjectClass],
        extra: usize,
        rng: &mut R,
    ) -> Self {
        let mut room = Room::sample(id, w, h, extra, rng);
        for &class in required {
            room.objects.push(SceneObject::sample(class, w, h, rng));
        }
        room
    }

    /// Renders the room into a background frame of the given size.
    pub fn render(&self, w: usize, h: usize) -> Frame {
        let mut frame = Frame::new(w, h);
        draw::vertical_gradient(&mut frame, self.wall, self.wall_accent);
        let floor_h = ((h as f32 * self.floor_frac) as usize).max(1);
        draw::fill_rect(&mut frame, 0, (h - floor_h) as i64, w, floor_h, self.floor);
        for obj in &self.objects {
            obj.render(&mut frame);
        }
        frame
    }

    /// Objects of a given class.
    pub fn objects_of(&self, class: ObjectClass) -> impl Iterator<Item = &SceneObject> {
        self.objects.iter().filter(move |o| o.class == class)
    }

    /// Whether the room contains an object of the class.
    pub fn contains(&self, class: ObjectClass) -> bool {
        self.objects_of(class).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sample_is_deterministic() {
        let a = Room::sample(1, 160, 120, 5, &mut StdRng::seed_from_u64(42));
        let b = Room::sample(1, 160, 120, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
        assert_eq!(a.render(160, 120), b.render(160, 120));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Room::sample(1, 160, 120, 5, &mut StdRng::seed_from_u64(1));
        let b = Room::sample(1, 160, 120, 5, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.render(160, 120), b.render(160, 120));
    }

    #[test]
    fn render_covers_floor_and_wall() {
        let room = Room::sample(7, 120, 90, 0, &mut StdRng::seed_from_u64(3));
        let f = room.render(120, 90);
        assert_eq!(f.get(0, 0), room.wall);
        assert_eq!(f.get(0, 89), room.floor);
    }

    #[test]
    fn sample_with_plants_required_classes() {
        let mut rng = StdRng::seed_from_u64(9);
        let room = Room::sample_with(
            1,
            160,
            120,
            &[ObjectClass::StickyNote, ObjectClass::Clock],
            2,
            &mut rng,
        );
        assert!(room.contains(ObjectClass::StickyNote));
        assert!(room.contains(ObjectClass::Clock));
        assert_eq!(room.objects.len(), 4);
    }

    #[test]
    fn objects_of_filters_by_class() {
        let mut rng = StdRng::seed_from_u64(4);
        let room = Room::sample_with(
            1,
            160,
            120,
            &[ObjectClass::Tv, ObjectClass::Tv],
            0,
            &mut rng,
        );
        assert_eq!(room.objects_of(ObjectClass::Tv).count(), 2);
        assert_eq!(room.objects_of(ObjectClass::Door).count(), 0);
    }

    #[test]
    fn object_count_respected() {
        let room = Room::sample(5, 200, 150, 8, &mut StdRng::seed_from_u64(5));
        assert_eq!(room.objects.len(), 8);
    }
}
