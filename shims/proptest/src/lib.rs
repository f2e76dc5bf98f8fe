//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate vendors the
//! subset of the proptest 1.x API the workspace's property tests use: the
//! `proptest!` macro, `Strategy` with `prop_map`, `Just`, ranges and tuples
//! as strategies, `collection::vec`, a mini character-class interpreter for
//! string patterns like `"[a-z0-9]{0,40}"`, and the `prop_assert*` /
//! `prop_assume!` / `prop_oneof!` macros.
//!
//! Inputs are drawn from a generator seeded deterministically from the test
//! function's name, so failures reproduce across runs. There is no
//! shrinking: a failing case reports the assertion as-is.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test-runner configuration (subset of `proptest::test_runner`).

    /// Controls how many random cases each property runs.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated inputs per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies (subset of `proptest::strategy`).

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::{Range, RangeInclusive};

    /// Deterministic source of randomness for strategies.
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Seeds the generator from a test name so runs are reproducible.
        pub fn deterministic(name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { inner: StdRng::seed_from_u64(seed) }
        }

        fn next_u64(&mut self) -> u64 {
            self.inner.gen_range(0u64..=u64::MAX)
        }

        fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }

    /// Generates values of an associated type from a [`TestRng`].
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Erases the strategy's concrete type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy { inner: Box::new(self) }
        }
    }

    /// Object-safe core used by [`BoxedStrategy`].
    trait DynStrategy {
        type Value;
        fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V> {
        inner: Box<dyn DynStrategy<Value = V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.inner.dyn_generate(rng)
        }
    }

    /// Strategy yielding a fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Uniform choice among same-valued strategies (backs `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.inner.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.inner.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.inner.gen_range(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.inner.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
    }

    /// String patterns of the form `"[class]{lo,hi}"` act as strategies.
    ///
    /// The class accepts literal characters and `a-z`-style ranges; anything
    /// that doesn't parse as that shape is generated verbatim. This covers
    /// the `"[a-z0-9/.:]{0,40}"`-style patterns used by the workspace tests
    /// without a regex engine.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_class_pattern(self) {
                Some((alphabet, lo, hi)) => {
                    let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                    (0..len).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize]).collect()
                }
                None => (*self).to_string(),
            }
        }
    }

    fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match counts.split_once(',') {
            Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
            None => {
                let n = counts.trim().parse().ok()?;
                (n, n)
            }
        };
        if hi < lo {
            return None;
        }
        let mut alphabet = Vec::new();
        let chars: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                let (a, b) = (chars[i], chars[i + 2]);
                if a > b {
                    return None;
                }
                alphabet.extend(a..=b);
                i += 3;
            } else {
                alphabet.push(chars[i]);
                i += 1;
            }
        }
        if alphabet.is_empty() {
            return None;
        }
        Some((alphabet, lo, hi))
    }

    /// Types with a default "anything goes" strategy (see [`super::arbitrary::any`]).
    pub trait Arbitrary: Sized {
        /// Draws a uniformly random value of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`super::arbitrary::any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any { _marker: std::marker::PhantomData }
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! The `any` entry point (subset of `proptest::arbitrary`).

    use super::strategy::{Any, Arbitrary};

    /// Strategy producing uniformly random values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }
}

pub mod collection {
    //! Collection strategies (subset of `proptest::collection`).

    use super::strategy::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`], convertible from ranges and fixed sizes.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length falls within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + (rng_below(rng, span)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    fn rng_below(rng: &mut TestRng, n: u64) -> u64 {
        // Reuse the uniform machinery via a usize range strategy.
        (0u64..n).generate(rng)
    }
}

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current generated case when the precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` runs its
/// body against `cases` freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($param:pat in $strategy:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let mut __rng = $crate::strategy::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $param = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::TestRng;

    #[derive(Clone, Debug, PartialEq)]
    enum Tag {
        A,
        B(u8),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_respect_bounds(v in crate::collection::vec(any::<u8>(), 3..10)) {
            prop_assert!((3..10).contains(&v.len()));
        }

        #[test]
        fn tuples_and_maps_compose(
            (a, b) in (0u32..10, 10u32..20),
            c in (0i64..5).prop_map(|x| x * 2),
            mut d in crate::collection::vec(any::<bool>(), 0..4)
        ) {
            prop_assert!(a < 10 && (10..20).contains(&b));
            prop_assert!(c % 2 == 0 && (0..10).contains(&c));
            d.push(true);
            prop_assert!(d.last() == Some(&true));
        }

        #[test]
        fn oneof_and_assume(tag in prop_oneof![Just(Tag::A), (1u8..5).prop_map(Tag::B)],
                            n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
            match tag {
                Tag::A => {}
                Tag::B(x) => prop_assert!((1..5).contains(&x)),
            }
        }

        #[test]
        fn string_patterns(s in "[a-z0-9/.:]{0,40}") {
            prop_assert!(s.len() <= 40);
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()
                || c.is_ascii_digit() || "/.:".contains(c)));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec(any::<u64>(), 1..20);
        let mut a = TestRng::deterministic("seed");
        let mut b = TestRng::deterministic("seed");
        for _ in 0..10 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }
}
