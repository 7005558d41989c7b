//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, strategies for integer ranges,
//! tuples, `prop::collection::vec` and `prop::option::of`, `any::<T>()`,
//! [`ProptestConfig`], and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros. Test cases are generated from a seed derived
//! from the test name, so runs are deterministic. There is **no shrinking**:
//! a failing case panics with the plain assertion message.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator handed to strategies (deterministic per test).
pub type TestRng = StdRng;

/// Builds the deterministic generator for a named test.
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::seed_from_u64(hash)
}

/// Run-time configuration of a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 64 cases, or what the `PROPTEST_CASES` environment variable says, as
    /// in the real crate; [`ProptestConfig::with_cases`] ignores it.
    fn default() -> Self {
        let requested = std::env::var("PROPTEST_CASES").ok();
        ProptestConfig {
            cases: default_cases(requested.as_deref()),
        }
    }
}

/// The default case count given the value of `PROPTEST_CASES`, if set. A
/// value that is not a number is ignored.
fn default_cases(requested: Option<&str>) -> u32 {
    requested.and_then(|n| n.trim().parse().ok()).unwrap_or(64)
}

impl ProptestConfig {
    /// A configuration running `cases` generated cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a depth-bounded recursive strategy, mirroring
    /// `proptest::strategy::Strategy::prop_recursive`. `self` is the leaf
    /// case; `recurse` wraps the strategy for one level into the strategy
    /// for the next. Each of the `depth` levels mixes leaves back in with
    /// equal weight, so samples stay small. The size-tuning parameters of
    /// the real crate are accepted but ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = BoxedStrategy(std::rc::Rc::new(self));
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(current);
            current = BoxedStrategy(std::rc::Rc::new(Union::new(vec![
                Box::new(leaf.clone()),
                Box::new(deeper),
            ])));
        }
        current
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

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// A strategy that always yields a clone of one value, mirroring
/// `proptest::strategy::Just`.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// A cheaply clonable, type-erased strategy, mirroring
/// `proptest::strategy::BoxedStrategy`. [`Strategy::prop_recursive`] hands
/// one to its recursion closure so sub-strategies can be reused freely.
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(std::rc::Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

/// Uniform choice between alternative strategies for the same type — the
/// engine behind [`prop_oneof!`].
pub struct Union<T> {
    alternatives: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds a union over the given alternatives.
    pub fn new(alternatives: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!alternatives.is_empty(), "empty prop_oneof!");
        Union { alternatives }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let pick = rng.gen_range(0..self.alternatives.len());
        self.alternatives[pick].sample(rng)
    }
}

/// Picks one of the strategies uniformly per sample, mirroring
/// `proptest::prop_oneof!` (without case weights).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let alternatives: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($strategy)),+];
        $crate::Union::new(alternatives)
    }};
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Samples uniformly from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T`, mirroring `proptest::arbitrary::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Combinator namespaces, mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// The strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: std::ops::Range<usize>,
        }

        /// Generates `Vec`s of `element` values with a length in `size`.
        pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
            assert!(!size.is_empty(), "empty size range");
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.clone());
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// The strategy returned by [`of`].
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S> {
            inner: S,
        }

        /// Generates `None` a quarter of the time, `Some(inner)` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.gen_bool(0.25) {
                    None
                } else {
                    Some(self.inner.sample(rng))
                }
            }
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, Union,
    };
}

/// Asserts a condition inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes a
/// `#[test]` that runs `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                let ($($arg,)+) = ($($crate::Strategy::sample(&$strategy, &mut rng),)+);
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b) in (1u32..10, 0u8..=3), v in prop::collection::vec(any::<u16>(), 2..5)) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(b <= 3);
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn map_and_option(x in (0u32..100).prop_map(|v| v * 2), o in prop::option::of(5u64..6)) {
            prop_assert_eq!(x % 2, 0);
            if let Some(v) = o {
                prop_assert_eq!(v, 5);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn oneof_and_just(x in prop_oneof![Just(7u32), 100u32..200, (0u32..3).prop_map(|v| v + 10)]) {
            prop_assert!(x == 7 || (100..200).contains(&x) || (10..13).contains(&x));
        }

        #[test]
        fn recursive_is_depth_bounded(
            n in (0u32..10).prop_recursive(3, 8, 2, |inner| {
                (inner, 0u32..10).prop_map(|(a, b)| a.max(b) + 100)
            }),
        ) {
            // Each level adds exactly 100, and the depth bound is 3.
            prop_assert!(n < 410);
        }
    }

    #[test]
    fn default_case_count_honours_the_environment_and_with_cases_wins() {
        assert_eq!(crate::default_cases(None), 64);
        assert_eq!(crate::default_cases(Some("2048")), 2048);
        assert_eq!(crate::default_cases(Some(" 7\n")), 7);
        assert_eq!(crate::default_cases(Some("many")), 64);
        // What the process was started with, whatever that is (tests never
        // set the variable: they run on parallel threads).
        let requested = std::env::var("PROPTEST_CASES").ok();
        assert_eq!(
            ProptestConfig::default().cases,
            crate::default_cases(requested.as_deref())
        );
        assert_eq!(ProptestConfig::with_cases(5).cases, 5);
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = crate::test_rng("alpha");
        let mut b = crate::test_rng("alpha");
        let s = any::<u64>();
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }
}
