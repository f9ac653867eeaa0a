//! Vendored, dependency-free stand-in for the parts of `proptest` this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! carries its own property-testing harness. It supports the subset of
//! the real crate's API that the test suite exercises:
//!
//! * the [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//!   header) generating `cases` deterministic test cases per property;
//! * [`Strategy`] with [`Strategy::prop_map`], implemented for integer
//!   ranges, tuples (up to arity 4), [`Just`], [`collection::vec`] and
//!   [`sample::select`];
//! * [`any`] for primitives, and the `prop_assert*` macros.
//!
//! Differences from real proptest: failing cases are **not shrunk** and
//! regression files are not consulted — a failure panics with the
//! generated input in the message (every generated value derives from a
//! per-test deterministic seed, so failures reproduce exactly on rerun).

use std::ops::Range;

/// Deterministic case-generation RNG (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from the test's name: deterministic across runs,
    /// distinct between tests.
    pub fn deterministic(name: &str) -> TestRng {
        // FNV-1a over the name.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// Runner configuration: how many cases each property runs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// Types with a default "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The "any value of `T`" strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors of `element` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Length specifications accepted by [`vec()`]: a half-open range or an
    /// exact length (mirroring proptest's `SizeRange` conversions).
    pub trait IntoSizeRange {
        /// The half-open range of permitted lengths.
        fn into_size_range(self) -> Range<usize>;
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    /// `Vec` strategy: each generated vector has a length drawn from
    /// `size` and elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into_size_range(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy for [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Picks uniformly from a fixed set of options.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

/// Asserts a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declares property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn prop_holds(x in 0u32..100, ys in prop::collection::vec(any::<bool>(), 0..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                let strategies = ($($strat,)+);
                for __case in 0..cfg.cases {
                    let _ = __case;
                    let ($($arg,)+) =
                        $crate::Strategy::generate(&strategies, &mut rng);
                    $body
                }
            }
        )*
    };
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };

    /// Namespaced strategy modules (`prop::collection`, `prop::sample`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_and_select_compose(
            v in prop::collection::vec((0u8..4, any::<bool>()), 1..10),
            pick in prop::sample::select(vec![10u64, 20, 30]),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|(a, _)| *a < 4));
            prop_assert!(pick % 10 == 0);
        }

        #[test]
        fn prop_map_applies(d in (1u32..5).prop_map(|x| x * 2)) {
            prop_assert!(d % 2 == 0 && (2..10).contains(&d));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::{Strategy, TestRng};
        let strat = crate::collection::vec(0u64..1000, 1..50);
        let a: Vec<u64> = strat.generate(&mut TestRng::deterministic("x"));
        let b: Vec<u64> = strat.generate(&mut TestRng::deterministic("x"));
        assert_eq!(a, b);
    }
}
