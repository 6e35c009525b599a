//! Offline shim for [`proptest`](https://crates.io/crates/proptest): the API
//! subset this workspace's property tests use.
//!
//! Supported surface:
//!
//! * the [`proptest!`] macro — `#![proptest_config(...)]` header, `#[test]`
//!   functions with `pat in strategy` arguments;
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, implemented
//!   for integer and float ranges and for 2-/3-/4-tuples of strategies;
//! * [`strategy::Just`], [`strategy::any`], [`collection::vec`];
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`;
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from upstream, deliberately accepted for an offline shim:
//! no shrinking (a failing case reports its generated inputs and
//! deterministic case seed instead), and value generation is uniform rather
//! than upstream's bias-towards-edge-cases. Every run is fully deterministic:
//! case `i` of a test derives its RNG seed from a fixed constant and `i`
//! only, so failures reproduce without a persistence file.

#![forbid(unsafe_code)]

pub use rand;

/// Runner configuration (the `cases` knob only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream's default.
        ProptestConfig { cases: 256 }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::{Rng, SampleRange, Standard};

    /// A recipe for generating values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns
        /// for it (dependent generation).
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy { inner: Box::new(self) }
        }
    }

    /// See [`Strategy::prop_map`].
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

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut StdRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::boxed`].
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            self.inner.generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy producing uniform values of `T` over its whole domain
    /// (upstream's `any::<T>()`).
    pub fn any<T: Standard>() -> AnyStrategy<T> {
        AnyStrategy { _marker: core::marker::PhantomData }
    }

    /// See [`any`].
    pub struct AnyStrategy<T> {
        _marker: core::marker::PhantomData<T>,
    }

    impl<T: Standard> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen()
        }
    }

    macro_rules! impl_strategy_for_range {
        ($($range:ty => $t:ty),* $(,)?) => {$(
            impl Strategy for $range {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    self.clone().sample_single(rng)
                }
            }
        )*};
    }

    impl_strategy_for_range!(
        core::ops::Range<u8> => u8,
        core::ops::Range<u16> => u16,
        core::ops::Range<u32> => u32,
        core::ops::Range<u64> => u64,
        core::ops::Range<usize> => usize,
        core::ops::Range<i8> => i8,
        core::ops::Range<i16> => i16,
        core::ops::Range<i32> => i32,
        core::ops::Range<i64> => i64,
        core::ops::Range<isize> => isize,
        core::ops::Range<f32> => f32,
        core::ops::Range<f64> => f64,
        core::ops::RangeInclusive<u8> => u8,
        core::ops::RangeInclusive<u16> => u16,
        core::ops::RangeInclusive<u32> => u32,
        core::ops::RangeInclusive<u64> => u64,
        core::ops::RangeInclusive<usize> => usize,
    );

    macro_rules! impl_strategy_for_tuple {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_strategy_for_tuple!(A, B);
    impl_strategy_for_tuple!(A, B, C);
    impl_strategy_for_tuple!(A, B, C, D);
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Size specification for [`vec()`]: an exact length or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic per-case RNG derivation (used by the `proptest!` macro).

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fixed base so every run of the suite explores the same cases; failures
    /// reproduce by rerunning the same test binary.
    const BASE_SEED: u64 = 0x6b61_6461_6272_6121; // "kadabra!"

    /// RNG for case `case` of the test named `name`.
    pub fn case_rng(name: &str, case: u32) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(BASE_SEED ^ h ^ ((case as u64) << 32))
    }

    /// Debug-renders a generated input for the failure report.
    pub fn render_input<T: core::fmt::Debug>(value: &T) -> String {
        format!("{value:?}")
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude::*`.
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property test.
///
/// The shim maps this to a panic (upstream returns a `TestCaseError`); the
/// surrounding macro-generated harness attributes the panic to the failing
/// case and prints its inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Equality assertion inside a property test. See [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Inequality assertion inside a property test. See [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs through the body.
///
/// On failure the case index and every generated input are printed before the
/// panic propagates (no shrinking in the shim).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::case_rng(stringify!($name), case);
                let mut inputs: ::std::vec::Vec<::std::string::String> =
                    ::std::vec::Vec::new();
                $(
                    let value = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    inputs.push($crate::test_runner::render_input(&value));
                    let $pat = value;
                )*
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let ::std::result::Result::Err(payload) = outcome {
                    ::std::eprintln!(
                        "proptest shim: {} failed at case {}/{} with inputs:",
                        stringify!($name), case, config.cases,
                    );
                    for (i, input) in inputs.iter().enumerate() {
                        ::std::eprintln!("  arg[{i}] = {input}");
                    }
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair(max: usize) -> impl Strategy<Value = (usize, Vec<u32>)> {
        (1..max)
            .prop_flat_map(move |n| collection::vec(0..n as u32, 0..8).prop_map(move |v| (n, v)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn flat_map_dependency_holds((n, v) in arb_pair(20)) {
            prop_assert!((1..20).contains(&n));
            for &e in &v {
                prop_assert!((e as usize) < n, "element {} out of range {}", e, n);
            }
        }

        #[test]
        fn tuples_and_any(p in (0u32..4, any::<u64>()), j in Just(9u8)) {
            prop_assert!(p.0 < 4);
            prop_assert_eq!(j, 9);
            prop_assert_ne!(j, 10);
        }
    }

    #[test]
    fn determinism_across_runs() {
        use crate::strategy::Strategy;
        let s = (0u64..1000, 0u64..1000);
        let a: Vec<_> = {
            let mut rng = crate::test_runner::case_rng("d", 3);
            (0..10).map(|_| s.generate(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = crate::test_runner::case_rng("d", 3);
            (0..10).map(|_| s.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
