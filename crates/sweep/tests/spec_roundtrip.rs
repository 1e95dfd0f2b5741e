//! Property test: any well-formed [`SweepSpec`] survives the hand-rolled
//! JSON writer/parser exactly, and the canonical serialization — hence the
//! digest that guards shard merges — is a fixed point of parse ∘ serialize.
//!
//! Robustness: arbitrary bytes, and every truncation and single-byte
//! mutation of a canonical spec, parse to `Ok` or a typed `Err` — never a
//! panic.

use bb_callsim::{BackgroundId, ProfilePreset};
use bb_sweep::{AttackSpec, ScenarioSpec, SweepSpec, VbSpec};
use bb_synth::{Action, Lighting, Speed};
use proptest::prelude::*;

/// Seeds travel as JSON numbers (f64), so the format is exact only up to
/// 2^53 — the strategies stay inside that envelope on purpose.
const MAX_SEED: u64 = 1 << 53;

fn arb_action() -> impl Strategy<Value = Action> {
    sample::select(Action::ALL.to_vec())
}

fn arb_speed() -> impl Strategy<Value = Speed> {
    sample::select(Speed::ALL.to_vec())
}

fn arb_lighting() -> impl Strategy<Value = Lighting> {
    sample::select(vec![Lighting::On, Lighting::Off])
}

/// Either a catalog background (images and videos alike) or the blur
/// compositor at radius 1..=9.
fn arb_vb() -> impl Strategy<Value = VbSpec> {
    let n = BackgroundId::ALL.len();
    (0usize..n + 9).prop_map(move |i| {
        if i < n {
            VbSpec::Catalog(BackgroundId::ALL[i])
        } else {
            VbSpec::Blur(i - n + 1)
        }
    })
}

/// A non-empty subset of `all`, chosen by bitmask so no extra strategy
/// machinery is needed.
fn arb_subset<T: Clone + 'static>(all: Vec<T>) -> impl Strategy<Value = Vec<T>> {
    let n = all.len() as u32;
    (1u32..(1 << n)).prop_map(move |mask| {
        all.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, v)| v.clone())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_round_trips_through_json(
        width in 8usize..320,
        height in 8usize..240,
        frames in 1usize..96,
        fps_tenths in 1u32..1200,
        base_seed in 0u64..MAX_SEED,
        cell_parallelism in 1usize..8,
        bodies in collection::vec(
            (arb_action(), arb_speed(), arb_lighting(), 0u64..MAX_SEED, 0usize..3),
            1..4,
        ),
        profiles in arb_subset(ProfilePreset::ALL.to_vec()),
        backgrounds in collection::vec(arb_vb(), 1..5),
        attacks in arb_subset(vec![AttackSpec::None, AttackSpec::Location]),
    ) {
        let scenarios = bodies
            .into_iter()
            .enumerate()
            .map(|(i, (action, speed, lighting, room_seed, companions))| ScenarioSpec {
                name: format!("scen{i}"),
                action,
                speed,
                lighting,
                room_seed,
                companions,
            })
            .collect();
        let spec = SweepSpec {
            width,
            height,
            frames,
            fps: f64::from(fps_tenths) / 10.0,
            base_seed,
            cell_parallelism,
            scenarios,
            profiles,
            backgrounds,
            attacks,
        };
        spec.validate().expect("generated spec is well-formed");

        let text = spec.to_json_string();
        let parsed = SweepSpec::from_json_str(&text).expect("canonical form parses");
        prop_assert_eq!(&parsed, &spec);

        // The canonical form is a serialization fixed point, so two
        // processes that parse the same spec file always agree on the
        // digest — the property shard merging relies on.
        prop_assert_eq!(parsed.to_json_string(), text);
        prop_assert_eq!(parsed.digest(), spec.digest());
    }
}

/// Bytes that steer a mutation or a random string into the JSON grammar's
/// interesting corners: structure, quoting, escapes, number syntax, and
/// bytes that are not valid UTF-8 on their own.
const GRAMMAR_BYTES: &[u8] = b"{}[]\":,\\u0123456789-+.eEtrufalsn \t\n\x00\x7f\xc3\xff";

/// Parses lossily-decoded bytes; the caller only cares that this returns.
fn parse_lossy(bytes: &[u8]) -> bool {
    SweepSpec::from_json_str(&String::from_utf8_lossy(bytes)).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_lossy(&bytes);
    }

    #[test]
    fn grammar_shaped_bytes_never_panic(
        picks in collection::vec(0usize..GRAMMAR_BYTES.len(), 0..128),
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| GRAMMAR_BYTES[i]).collect();
        let _ = parse_lossy(&bytes);
    }
}

#[test]
fn every_truncation_of_a_canonical_spec_is_an_error() {
    let text = SweepSpec::example().to_json_string();
    let bytes = text.as_bytes();
    assert!(parse_lossy(bytes), "the canonical spec parses");
    for cut in 0..bytes.len() {
        // Only trailing whitespace could be cut from a document that still
        // parses; the canonical form may end in a newline.
        let parsed = parse_lossy(&bytes[..cut]);
        assert!(
            !parsed || bytes[cut..].iter().all(u8::is_ascii_whitespace),
            "truncation at {cut} of {} parsed",
            bytes.len()
        );
    }
}

#[test]
fn every_single_byte_mutation_of_a_canonical_spec_returns() {
    let text = SweepSpec::example().to_json_string();
    let mut bytes = text.into_bytes();
    for at in 0..bytes.len() {
        let original = bytes[at];
        let replacements = GRAMMAR_BYTES.iter().copied().chain([
            original ^ 0x01,
            original ^ 0x20,
            original ^ 0x80,
        ]);
        for b in replacements {
            bytes[at] = b;
            let _ = parse_lossy(&bytes);
        }
        bytes[at] = original;
    }
}
