//! Strategies: composable value generators over a choice stream.

use super::source::DataSource;
use std::fmt;
use std::marker::PhantomData;

/// A generator of test values.
///
/// Strategies are *total* functions of the choice stream: any stream —
/// including ones edited by the shrinker — produces a valid value. The
/// convention that smaller choices mean "simpler" values is what makes
/// stream-level shrinking produce minimal counterexamples.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + fmt::Debug;

    /// Generates one value, drawing choices from `src`.
    fn generate(&self, src: &mut DataSource) -> Self::Value;
}

/// Combinator methods for every [`Strategy`].
pub trait StrategyExt: Strategy + Sized {
    /// Maps generated values through `f` (shrinking composes for free,
    /// since it happens on the underlying choice stream).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Clone + fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value (mirroring
    /// `proptest`'s `prop_flat_map`): `f` turns the first stage's value
    /// into the strategy used for the second stage. Both stages draw from
    /// the same choice stream, so shrinking still composes.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        BoxedStrategy::new(self)
    }
}

impl<S: Strategy> StrategyExt for S {}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _src: &mut DataSource) -> T {
        self.0.clone()
    }
}

/// The strategy returned by [`StrategyExt::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, src: &mut DataSource) -> U {
        (self.f)(self.inner.generate(src))
    }
}

/// The strategy returned by [`StrategyExt::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, src: &mut DataSource) -> S2::Value {
        let first = self.inner.generate(src);
        (self.f)(first).generate(src)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T: Clone + fmt::Debug> BoxedStrategy<T> {
    /// Boxes `strategy`.
    pub fn new<S: Strategy<Value = T> + 'static>(strategy: S) -> Self {
        BoxedStrategy(Box::new(strategy))
    }
}

impl<T: Clone + fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource) -> T {
        self.0.generate(src)
    }
}

/// A weighted choice between strategies (the engine behind
/// [`prop_oneof!`](crate::prop_oneof)). Choice zero — the shrink
/// target — selects the first arm, so list "simplest" arms first.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T: Clone + fmt::Debug> Union<T> {
    /// Creates a union from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|&(w, _)| w as u64).sum();
        assert!(total > 0, "union needs at least one positive-weight arm");
        Union { arms, total }
    }
}

impl<T: Clone + fmt::Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource) -> T {
        let mut pick = src.draw() % self.total;
        for (w, arm) in &self.arms {
            if pick < *w as u64 {
                return arm.generate(src);
            }
            pick -= *w as u64;
        }
        unreachable!("pick < total by construction")
    }
}

macro_rules! impl_strategy_for_int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, src: &mut DataSource) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (src.draw() % span) as i128) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, src: &mut DataSource) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full 64-bit domain (e.g. `0..=u64::MAX`).
                    return src.draw() as $t;
                }
                (lo as i128 + (src.draw() % span) as i128) as $t
            }
        }
    )*};
}

impl_strategy_for_int_ranges!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_strategy_for_tuples {
    ($($S:ident . $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, src: &mut DataSource) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    };
}

impl_strategy_for_tuples!(A.0);
impl_strategy_for_tuples!(A.0, B.1);
impl_strategy_for_tuples!(A.0, B.1, C.2);
impl_strategy_for_tuples!(A.0, B.1, C.2, D.3);
impl_strategy_for_tuples!(A.0, B.1, C.2, D.3, E.4);
impl_strategy_for_tuples!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Clone + fmt::Debug {
    /// Generates one arbitrary value from the choice stream.
    fn arbitrary_from(src: &mut DataSource) -> Self;
}

/// ZigZag decoding: maps `0, 1, 2, 3, …` to `0, -1, 1, -2, …`, so
/// shrinking a raw choice toward zero shrinks the magnitude.
#[inline]
fn zigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

impl Arbitrary for u64 {
    fn arbitrary_from(src: &mut DataSource) -> u64 {
        src.draw()
    }
}

impl Arbitrary for u32 {
    fn arbitrary_from(src: &mut DataSource) -> u32 {
        src.draw() as u32
    }
}

impl Arbitrary for u16 {
    fn arbitrary_from(src: &mut DataSource) -> u16 {
        src.draw() as u16
    }
}

impl Arbitrary for u8 {
    fn arbitrary_from(src: &mut DataSource) -> u8 {
        src.draw() as u8
    }
}

impl Arbitrary for usize {
    fn arbitrary_from(src: &mut DataSource) -> usize {
        src.draw() as usize
    }
}

impl Arbitrary for i64 {
    fn arbitrary_from(src: &mut DataSource) -> i64 {
        zigzag(src.draw())
    }
}

impl Arbitrary for i32 {
    fn arbitrary_from(src: &mut DataSource) -> i32 {
        zigzag(src.draw() & 0xFFFF_FFFF) as i32
    }
}

impl Arbitrary for bool {
    fn arbitrary_from(src: &mut DataSource) -> bool {
        src.draw() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary_from(src: &mut DataSource) -> f64 {
        // Mantissa in ±2^53 (every integer exact in f64) times a power
        // of two in 2^-32..=2^32: finite, sortable, shrinks to 0.0.
        let mantissa = zigzag(src.draw() & ((1 << 54) - 1));
        let exp = (src.draw() % 65) as i32 - 32;
        (mantissa as f64) * 2f64.powi(exp)
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, src: &mut DataSource) -> T {
        T::arbitrary_from(src)
    }
}

/// A whole-domain strategy for `T`, mirroring `proptest::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (`vec`, `btree_set`), mirroring
/// `proptest::collection`.
pub mod collection {
    use super::{DataSource, Strategy};
    use std::collections::BTreeSet;

    /// An inclusive size bound for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl SizeRange {
        fn sample(&self, src: &mut DataSource) -> usize {
            let span = (self.max - self.min + 1) as u64;
            self.min + (src.draw() % span) as usize
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, src: &mut DataSource) -> Self::Value {
            let len = self.size.sample(src);
            (0..len).map(|_| self.elem.generate(src)).collect()
        }
    }

    /// Vectors of `elem` values with a length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// The strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, src: &mut DataSource) -> Self::Value {
            let target = self.size.sample(src);
            let mut set = BTreeSet::new();
            // Duplicates don't grow the set; cap the attempts so small
            // element domains cannot loop forever.
            let mut attempts = 10 * target + 20;
            while set.len() < target && attempts > 0 {
                set.insert(self.elem.generate(src));
                attempts -= 1;
            }
            set
        }
    }

    /// Sets of `elem` values with (up to) `size` distinct elements.
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Sampling helpers, mirroring `proptest::sample`.
pub mod sample {
    use super::{Arbitrary, DataSource};

    /// An index into a collection whose length is only known at use
    /// time: generate an [`Index`], then call [`Index::index`] with the
    /// actual length.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a concrete (non-zero) length.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary_from(src: &mut DataSource) -> Self {
            Index(src.draw())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::source::DataSource;
    use super::*;
    use crate::rng::Rng;

    fn fresh() -> DataSource {
        DataSource::fresh(Rng::seed_from_u64(0xD0))
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut src = fresh();
        for _ in 0..500 {
            let v = (3i64..17).generate(&mut src);
            assert!((3..17).contains(&v));
            let w = (2u8..=6).generate(&mut src);
            assert!((2..=6).contains(&w));
        }
    }

    #[test]
    fn zero_stream_yields_minimal_values() {
        let mut src = DataSource::replay(vec![]);
        assert_eq!((5i64..90).generate(&mut src), 5);
        assert_eq!(any::<i64>().generate(&mut src), 0);
        assert_eq!(any::<f64>().generate(&mut src), 0.0);
        assert!(!any::<bool>().generate(&mut src));
        let v = collection::vec(0i64..10, 2..5).generate(&mut src);
        assert_eq!(v, vec![0, 0]);
    }

    #[test]
    fn flat_map_builds_dependent_strategies() {
        let mut src = fresh();
        // Length drawn first, then a vec of exactly that length.
        let s = (1usize..6).prop_flat_map(|n| collection::vec(0u64..10, n..n + 1));
        for _ in 0..200 {
            let v = s.generate(&mut src);
            assert!((1..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn map_and_just_compose() {
        let mut src = fresh();
        let s = (0u8..4).prop_map(|i| format!("p{i}"));
        let v = s.generate(&mut src);
        assert!(["p0", "p1", "p2", "p3"].contains(&v.as_str()));
        assert_eq!(Just(41i32).generate(&mut src), 41);
    }

    #[test]
    fn union_respects_weights_roughly() {
        let u = Union::new(vec![
            (3, BoxedStrategy::new(Just(0u8))),
            (1, BoxedStrategy::new(Just(1u8))),
        ]);
        let mut src = fresh();
        let ones = (0..4000).filter(|_| u.generate(&mut src) == 1).count();
        assert!((700..1300).contains(&ones), "got {ones}");
    }

    #[test]
    fn union_first_arm_is_the_shrink_target() {
        let u = Union::new(vec![
            (1, BoxedStrategy::new(Just(7u8))),
            (1, BoxedStrategy::new(Just(9u8))),
        ]);
        let mut src = DataSource::replay(vec![0]);
        assert_eq!(u.generate(&mut src), 7);
    }

    #[test]
    fn vec_lengths_span_the_size_range() {
        let mut src = fresh();
        let s = collection::vec(any::<u64>(), 1..5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[s.generate(&mut src).len()] = true;
        }
        assert!(!seen[0] && seen[1] && seen[2] && seen[3] && seen[4]);
    }

    #[test]
    fn btree_set_hits_target_sizes() {
        let mut src = fresh();
        let s = collection::btree_set(0u64..500, 10..11);
        let set = s.generate(&mut src);
        assert_eq!(set.len(), 10);
        assert!(set.iter().all(|&x| x < 500));
    }

    #[test]
    fn tuples_generate_componentwise() {
        let mut src = fresh();
        let ((a, b), idx) = ((0i64..5, 10i64..15), any::<sample::Index>()).generate(&mut src);
        assert!((0..5).contains(&a));
        assert!((10..15).contains(&b));
        assert!(idx.index(3) < 3);
    }

    #[test]
    fn arbitrary_i64_covers_both_signs() {
        let mut src = fresh();
        let vs: Vec<i64> = (0..100).map(|_| any::<i64>().generate(&mut src)).collect();
        assert!(vs.iter().any(|&v| v > 0));
        assert!(vs.iter().any(|&v| v < 0));
    }

    #[test]
    fn arbitrary_f64_is_finite_and_varied() {
        let mut src = fresh();
        let vs: Vec<f64> = (0..100).map(|_| any::<f64>().generate(&mut src)).collect();
        assert!(vs.iter().all(|v| v.is_finite()));
        assert!(vs.iter().any(|&v| v != vs[0]));
    }
}
