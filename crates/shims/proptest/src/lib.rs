//! Offline stand-in for the `proptest` crate (see `crates/shims/`).
//!
//! Covers the slice of the proptest 1.x API the workspace's tests use:
//! the `proptest!` / `prop_assert*` / `prop_oneof!` macros, `any::<T>()`,
//! integer-range and tuple strategies, `Just`, `prop_map`,
//! `prop::collection::vec`, `prop::sample::Index`, and
//! `ProptestConfig::with_cases`. Generation is deterministic — each test
//! derives its RNG seed from the test's module path and case number —
//! and there is **no shrinking**: a failing case reports its case number
//! and panics with the failed assertion.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// Deterministic RNG handed to strategies during generation.
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Builds the RNG for one case of one test, seeded from the
        /// test's identity so runs are reproducible.
        pub fn for_case(test_path: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_path.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(
                h ^ ((case as u64) << 32) ^ case as u64,
            ))
        }

        /// Next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform draw from a half-open or inclusive integer range.
        pub fn gen_range<T, R: rand::SampleRange<T>>(&mut self, range: R) -> T {
            self.0.gen_range(range)
        }
    }

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Clone)]
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

    impl<T: rand::SampleUniform> Strategy for Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: rand::SampleUniform> Strategy for RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+ );)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }

    /// Type-erased strategy: the building block of `prop_oneof!`.
    pub type ErasedStrategy<V> = Arc<dyn Fn(&mut TestRng) -> V>;

    /// Erases a concrete strategy so heterogeneous arms can share a
    /// weighted union.
    pub fn erase<S: Strategy + 'static>(s: S) -> ErasedStrategy<S::Value> {
        Arc::new(move |rng| s.generate(rng))
    }

    /// Weighted choice among erased strategies.
    #[derive(Clone)]
    pub struct Union<V> {
        arms: Vec<(u32, ErasedStrategy<V>)>,
    }

    impl<V> Union<V> {
        /// Builds a union; weights must not all be zero.
        pub fn new(arms: Vec<(u32, ErasedStrategy<V>)>) -> Self {
            assert!(
                arms.iter().any(|(w, _)| *w > 0),
                "prop_oneof!: all weights are zero"
            );
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.gen_range(0u64..total);
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("prop_oneof!: weight bookkeeping")
        }
    }
}

pub mod arbitrary {
    use super::strategy::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical strategy.
    pub trait Arbitrary {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! tuple_arbitrary {
        ($(($($s:ident),+);)*) => {$(
            impl<$($s: Arbitrary),+> Arbitrary for ($($s,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($s::arbitrary(rng),)+)
                }
            }
        )*};
    }

    tuple_arbitrary! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
    }

    /// The canonical strategy for an [`Arbitrary`] type.
    pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

    impl<T> Clone for AnyStrategy<T> {
        fn clone(&self) -> Self {
            AnyStrategy(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Returns the canonical strategy for `T`, like `proptest::any`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use std::ops::Range;

    /// Size bounds for generated collections.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "collection size range is empty");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy generating `Vec`s of values from `elem`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.gen_range(self.size.lo..self.size.hi);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec`: a vector whose length is drawn from
    /// `size` and whose elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

pub mod sample {
    use super::arbitrary::Arbitrary;
    use super::strategy::TestRng;

    /// A deferred index: drawn unconstrained, projected onto a concrete
    /// collection length later via [`Index::index`].
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Maps the raw draw onto `0..len`; `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

pub mod test_runner {
    pub use super::strategy::TestRng;

    /// Per-test configuration; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; 64 keeps the disk-heavy store
            // property tests quick while still exercising variety.
            ProptestConfig { cases: 64 }
        }
    }

    /// Failure of one test case; bodies may `?`-propagate it.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Result alias matching upstream's `TestCaseResult`.
    pub type TestCaseResult = Result<(), TestCaseError>;
}

/// Everything the tests import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares deterministic property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of `fn name(pat in strategy,
/// ...) { body }` items, each annotated `#[test]` by the caller.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($config:expr)) => {};
    (@cfg($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $config;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::strategy::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let mut __run = || -> ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    Ok(())
                };
                if let Err(e) = __run() {
                    panic!("proptest case {} failed: {}", __case, e);
                }
            }
        }
        $crate::__proptest_items! { @cfg($config) $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted (or unweighted) choice among strategies yielding one value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::erase($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Add(u8),
        Clear,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u8..10).prop_map(Op::Add),
                1 => Just(Op::Clear),
            ],
            0..20,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn ranges_respected(x in 3u64..9, y in -4i64..=4, mut z in 1usize..2) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            z += 1;
            prop_assert_eq!(z, 2);
        }

        #[test]
        fn ops_strategy_mixes(v in ops()) {
            for op in &v {
                if let Op::Add(n) = op {
                    prop_assert!(*n < 10);
                }
            }
        }

        #[test]
        fn index_in_bounds(idx in any::<prop::sample::Index>()) {
            prop_assert!(idx.index(7) < 7);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::strategy::TestRng::for_case("t", 0);
        let mut b = crate::strategy::TestRng::for_case("t", 0);
        let s = ops();
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
