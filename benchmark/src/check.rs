//! Output checks: the FNV-1a digest of a reconstruction's background and
//! recovered mask, and the pins for the default seed.

use bb_imaging::{Frame, Mask};

/// The seed every workload uses unless told otherwise; its outputs are
/// pinned in [`pinned`].
pub const DEFAULT_SEED: u64 = 42;

/// FNV-1a over the background's RGB bytes, then one byte per mask pixel in
/// row-major order — the first two feeds of the golden hash in
/// `tests/determinism.rs`.
pub fn digest(background: &Frame, recovered: &Mask) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in background.pixels() {
        eat(p.r);
        eat(p.g);
        eat(p.b);
    }
    let (w, h) = recovered.dims();
    for y in 0..h {
        for x in 0..w {
            eat(u8::from(recovered.get(x, y)));
        }
    }
    hash
}

/// What a reconstruction produced, reduced to what the check compares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Output {
    /// [`digest`] of background and recovered mask.
    pub digest: u64,
    /// RBRR in percent.
    pub rbrr: f64,
}

impl Output {
    /// The output of a reconstruction.
    pub fn of(background: &Frame, recovered: &Mask) -> Output {
        Output {
            digest: digest(background, recovered),
            rbrr: bb_core::metrics::rbrr(recovered),
        }
    }
}

/// The pinned output of a workload at its full geometry and the default
/// seed, or `None` where the run must derive its reference itself.
pub fn pinned(workload: &str, seed: u64, full_geometry: bool) -> Option<Output> {
    if seed != DEFAULT_SEED || !full_geometry {
        return None;
    }
    let (digest, rbrr) = match workload {
        "vga_call" => (0x8913_4512_7917_43cb, 4.3642578125),
        "blur_call" => (0x2640_7f2a_6b4f_c708, 26.957682291666668),
        "serve_fleet" => (0x34e3_fec5_2c87_e4e7, 33.3984375),
        _ => return None,
    };
    Some(Output { digest, rbrr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_imaging::Rgb;

    #[test]
    fn digest_sees_every_background_byte_and_mask_bit() {
        let frame = Frame::new(3, 2);
        let mask = Mask::new(3, 2);
        let base = digest(&frame, &mask);
        assert_eq!(base, digest(&frame.clone(), &mask.clone()));
        let mut brighter = frame.clone();
        brighter.put(2, 1, Rgb::new(0, 0, 1));
        assert_ne!(digest(&brighter, &mask), base);
        let mut marked = mask.clone();
        marked.set(0, 1, true);
        assert_ne!(digest(&frame, &marked), base);
    }

    #[test]
    fn only_the_default_seed_at_full_geometry_is_pinned() {
        assert!(pinned("vga_call", DEFAULT_SEED, true).is_some());
        assert!(pinned("vga_call", DEFAULT_SEED + 1, true).is_none());
        assert!(pinned("vga_call", DEFAULT_SEED, false).is_none());
        assert!(pinned("no_such_workload", DEFAULT_SEED, true).is_none());
    }
}
