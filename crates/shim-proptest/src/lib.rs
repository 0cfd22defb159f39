//! Offline drop-in replacement for the subset of `proptest` used by this
//! workspace.
//!
//! The build environment cannot reach crates.io, so the real `proptest`
//! cannot be vendored. This shim keeps the property tests' source unchanged:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`/`boxed`,
//! integer/float range strategies, [`any`](strategy::any), tuple strategies,
//! `prop::collection::vec`, [`prop_oneof!`] and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **Deterministic generation.** Inputs derive from a fixed per-test seed
//!   (FNV-1a over the test path) plus the case index, so every run explores
//!   the same inputs. That matches the repo-wide determinism goal — a
//!   failure reproduces exactly.
//! * **No shrinking.** A failing case reports the panic directly; since
//!   generation is deterministic, the case is already reproducible.

#![warn(missing_docs)]

/// Test-runner configuration and the deterministic RNG.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// A small deterministic RNG (splitmix64) seeded from the test path
    /// and case index.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the property named `path`.
        pub fn for_case(path: &str, case: u32) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in path.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ (u64::from(case) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// Next 64 uniform random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// Strategies: composable random-value generators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Type-erase this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            (**self).new_value(rng)
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128) - (self.start as i128);
                    assert!(span > 0, "empty range strategy");
                    let off = (rng.next_u64() as u128 % span as u128) as i128;
                    (self.start as i128 + off) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let span = (*self.end() as i128) - (*self.start() as i128) + 1;
                    assert!(span > 0, "empty range strategy");
                    let off = (rng.next_u64() as u128 % span as u128) as i128;
                    (*self.start() as i128 + off) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, sign-balanced, wide dynamic range.

            (rng.next_f64() * 2.0 - 1.0) * 1e9
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.new_value(rng))
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident . $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    trait DynStrategy<V> {
        fn dyn_value(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            self.0.dyn_value(rng)
        }
    }

    /// Uniform choice between alternative strategies ([`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        variants: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over the given (non-empty) variants.
        pub fn new(variants: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!variants.is_empty(), "prop_oneof! needs at least one arm");
            Union { variants }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let i = (rng.next_u64() % self.variants.len() as u64) as usize;
            self.variants[i].new_value(rng)
        }
    }
}

/// Collection strategies, re-exported under the conventional `prop::` path.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Half-open size bound for generated collections.
    #[derive(Copy, Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector with length drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The `prop::` namespace as re-exported by the real proptest prelude.
pub mod prop {
    pub use crate::collection;
}

/// The conventional glob-import surface.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, BoxedStrategy, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let cfg: $crate::test_runner::Config = $cfg;
                for case in 0..cfg.cases {
                    let mut prop_rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut prop_rng);)*
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run (<$crate::test_runner::Config as ::std::default::Default>::default()) $($rest)*);
    };
}

/// Uniform choice among strategy arms (all must yield the same type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Assert inside a property (maps to `assert!`; no shrinking here).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property (maps to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_same_seed_same_values() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = prop::collection::vec(0u64..100, 1..10);
        let a = strat.new_value(&mut TestRng::for_case("x", 3));
        let b = strat.new_value(&mut TestRng::for_case("x", 3));
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = (5u16..512).new_value(&mut rng);
            assert!((5..512).contains(&v));
            let f = (-2.0f64..3.0).new_value(&mut rng);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, config applies, oneof/map compose.
        fn macro_roundtrip(
            n in 1usize..8,
            xs in prop::collection::vec(any::<u8>(), 4),
            choice in prop_oneof![
                (0u32..10).prop_map(|v| v as u64),
                any::<bool>().prop_map(|b| b as u64 + 100),
            ],
        ) {
            prop_assert!((1..8).contains(&n));
            prop_assert_eq!(xs.len(), 4);
            prop_assert!(choice < 10 || (100..=101).contains(&choice));
            prop_assert_ne!(n, 0);
        }
    }
}
