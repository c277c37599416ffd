//! Offline shim for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate supplies the
//! slice of the proptest API the workspace's property tests consume:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`, ranges,
//!   tuples, [`Just`](strategy::Just) and simple regex-class string
//!   strategies;
//! * [`collection::vec`] and [`arbitrary`] (`any::<T>()`);
//! * the `proptest!`, `prop_assert!`, `prop_assert_eq!` and `prop_oneof!`
//!   macros.
//!
//! Differences from real proptest, deliberately accepted: no shrinking
//! (failures report the panicking case's assertion only), a fixed
//! deterministic seed per test function (reproducible across runs and
//! machines), and a fixed case count ([`test_runner::CASES`]).

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Run one property test: `CASES` deterministic cases of `body`, where the
/// body generates its own inputs from the provided RNG.
///
/// This is the engine behind the `proptest!` macro; kept public so the
/// macro expansion stays tiny.
pub fn run_property(test_name: &str, mut body: impl FnMut(&mut test_runner::TestRng)) {
    let mut rng = test_runner::TestRng::deterministic(test_name);
    for case in 0..test_runner::CASES {
        let mut case_rng = rng.split(case as u64);
        body(&mut case_rng);
    }
}

/// The `proptest! { ... }` macro: expands each contained function into a
/// `#[test]` that replays [`test_runner::CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_property(stringify!($name), |__proptest_rng| {
                $(
                    let $arg = $crate::strategy::Strategy::generate(
                        &($strat),
                        __proptest_rng,
                    );
                )*
                $body
            });
        }
        $crate::proptest! { $($rest)* }
    };
}

/// `prop_assert!`: assertion inside a property body. Without shrinking the
/// right behaviour is to fail the test immediately, so this is `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => {
        assert!($($tt)*)
    };
}

/// `prop_assert_eq!` — see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => {
        assert_eq!($($tt)*)
    };
}

/// `prop_assert_ne!` — see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => {
        assert_ne!($($tt)*)
    };
}

/// `prop_oneof![s1, s2, ...]`: uniform choice among strategies with a
/// common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strat) as Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(0u8..5, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&b| b < 5));
        }

        #[test]
        fn oneof_covers_all_arms(k in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1u8..=3).contains(&k));
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (0u32..10, 0u32..10),
            mapped in (1u16..5).prop_map(|v| v * 100),
        ) {
            prop_assert!(pair.0 < 10 && pair.1 < 10);
            prop_assert!((100..500).contains(&mapped));
            prop_assert_eq!(mapped % 100, 0);
        }

        #[test]
        fn regex_class_strategy(s in "[a-c]{2,5}") {
            prop_assert!(s.len() >= 2 && s.len() <= 5);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut first = Vec::new();
        crate::run_property("stability", |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        crate::run_property("stability", |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), crate::test_runner::CASES);
    }
}
