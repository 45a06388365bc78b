//! In-tree stand-in for `proptest`.
//!
//! The [`proptest!`] macro expands each property into a plain `#[test]`
//! that draws [`test_runner::CASES`] deterministic random inputs from the
//! declared strategies and runs the body on each. Failing cases panic
//! with the drawn values via plain `assert!` formatting; there is no
//! shrinking — the RNG is seeded from the test name, so failures
//! reproduce exactly.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use std::ops::Range;

/// Strategy evaluation: how to draw one value of `Self::Value`.
pub mod strategy {
    use super::*;

    /// A recipe for generating values of a type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// Full-domain strategy returned by [`any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    /// A strategy drawing uniformly from `T`'s full domain.
    pub fn any<T: rand::Standard>() -> Any<T> {
        Any { _marker: std::marker::PhantomData }
    }

    impl<T: rand::Standard> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rand::Rng::gen(rng)
        }
    }

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (self.0.generate(rng), self.1.generate(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Strategy for `Vec<T>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element`-drawn values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = rand::Rng::gen_range(rng, self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic per-test runner state.
pub mod test_runner {
    use super::*;
    use rand::SeedableRng;

    /// Cases drawn per property. The real crate defaults to 256; 64 keeps
    /// the whole suite fast while still sweeping each space broadly.
    pub const CASES: u32 = 64;

    /// A generator seeded from the test's name, so every run draws the
    /// same inputs and failures reproduce without a persistence file.
    pub fn rng_for(test_name: &str) -> StdRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(hash)
    }

    /// Unused compatibility alias (the real crate passes a `TestRunner`
    /// into strategies; the shim passes the RNG directly).
    pub type TestRng = StdRng;
}

// RngCore is re-exported so generated code can thread generic bounds if
// a future property needs its own sampling.
pub use rand::rngs::StdRng as ShimRng;
#[doc(hidden)]
pub use rand::RngCore as _ShimRngCore;

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over [`test_runner::CASES`]
/// deterministic draws.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng = $crate::test_runner::rng_for(stringify!($name));
                for __proptest_case in 0..$crate::test_runner::CASES {
                    let _ = __proptest_case;
                    $(
                        let $pat =
                            $crate::strategy::Strategy::generate(&($strat), &mut __proptest_rng);
                    )+
                    $body
                }
            }
        )*
    };
}

/// Property assertion; in this shim a plain `assert!` (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property equality assertion; a plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn draws_stay_in_range(x in 5u64..10, y in -1.0f64..1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn vec_strategy_respects_length(v in crate::collection::vec(0u32..100, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn tuple_strategy_draws_both(pair in (any::<u64>(), 0usize..4)) {
            let (_, small) = pair;
            prop_assert!(small < 4);
        }
    }

    #[test]
    fn runner_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = 0u64..1_000_000;
        let mut a = crate::test_runner::rng_for("t");
        let mut b = crate::test_runner::rng_for("t");
        let xs: Vec<u64> = (0..16).map(|_| strat.generate(&mut a)).collect();
        let ys: Vec<u64> = (0..16).map(|_| strat.generate(&mut b)).collect();
        assert_eq!(xs, ys);
    }
}
