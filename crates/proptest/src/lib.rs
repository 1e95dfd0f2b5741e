//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate reimplements
//! the slice of the proptest API the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`Strategy`] with `prop_map`, range/tuple/`any` strategies,
//! * [`collection::vec`], [`sample::select`], and simple
//!   `"[class]{m,n}"` string patterns,
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Cases are generated from a deterministic per-test seed (FNV-1a of the
//! test's module path and name mixed with the case index), so failures
//! reproduce exactly. There is **no shrinking**: a failing case reports the
//! case index and panics with the plain assertion message.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (subset of proptest's `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A deterministic per-case generator seed: FNV-1a over the test identity,
/// mixed with the case index.
#[doc(hidden)]
pub fn case_rng(test_id: &str, case: u64) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A value generator (subset of proptest's `Strategy`, without shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// The strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// A uniform draw over the whole domain of `T`.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any(PhantomData)
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// `"[class]{m,n}"` string patterns: a character class (literals and `a-z`
/// ranges) repeated between `m` and `n` times.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let (alphabet, lo, hi) =
            parse_pattern(self).unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
        let len = rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }
}

/// Parses `[class]{m,n}` (also `[class]{n}` and bare `[class]`, meaning one
/// repetition). Returns the expanded alphabet and repetition bounds.
fn parse_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class, reps) = rest.split_once(']')?;
    let mut alphabet = Vec::new();
    let chars: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (a, b) = (chars[i], chars[i + 2]);
            for c in a..=b {
                alphabet.push(c);
            }
            i += 3;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    if reps.is_empty() {
        return Some((alphabet, 1, 1));
    }
    let counts = reps.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match counts.split_once(',') {
        Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
        None => {
            let n = counts.trim().parse().ok()?;
            (n, n)
        }
    };
    Some((alphabet, lo, hi))
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `element`-generated values with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi_exclusive {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi_exclusive)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// The strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    /// A uniform choice among `options`.
    ///
    /// # Panics
    ///
    /// Generation panics when `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            assert!(!self.options.is_empty(), "select: no options");
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }
}

/// The usual imports for property tests.
pub mod prelude {
    pub use crate::collection;
    pub use crate::sample;
    pub use crate::{any, Any, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }` runs
/// `cases` times with fresh deterministically-seeded inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl [$cfg] $($rest)*);
    };
    (@impl [$cfg:expr]
        $( $(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for case in 0..cfg.cases as u64 {
                    let mut proptest_case_rng = $crate::case_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(
                        let $arg = $crate::Strategy::generate(
                            &($strat),
                            &mut proptest_case_rng,
                        );
                    )*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl [$crate::ProptestConfig::default()] $($rest)*);
    };
}

/// Asserts a condition inside [`proptest!`] (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside [`proptest!`] (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside [`proptest!`] (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_parser_expands_classes() {
        let (alpha, lo, hi) = super::parse_pattern("[A-C0 ]{2,5}").unwrap();
        assert_eq!(alpha, vec!['A', 'B', 'C', '0', ' ']);
        assert_eq!((lo, hi), (2, 5));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::case_rng("x", 3);
        let mut b = crate::case_rng("x", 3);
        let s = "[a-z]{1,8}";
        assert_eq!(
            Strategy::generate(&s, &mut a),
            Strategy::generate(&s, &mut b)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_collections_respect_bounds(
            n in 1usize..5,
            v in collection::vec(any::<u8>(), 2..6),
            s in "[A-Z]{1,4}",
            (x, y) in (0u8..4, 0u8..4),
        ) {
            prop_assert!((1..5).contains(&n));
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(x < 4 && y < 4);
        }
    }
}
