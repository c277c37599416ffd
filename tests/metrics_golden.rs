//! Tier-1 pin of the observability snapshot: the scenario behind
//! `repro --quick --metrics-out` must emit exactly the bytes committed in
//! `crates/bench/tests/golden/quick.metrics.json`. An obs refactor that
//! reorders, drops or adds a key, or a layer change that moves a count,
//! fails here. (`crates/bench/tests/metrics_determinism.rs` checks the same
//! file against the `repro` binary itself.)

use consumer_grid_bench::smoke;
use obs::Obs;

const GOLDEN: &str = include_str!("../crates/bench/tests/golden/quick.metrics.json");

#[test]
fn smoke_snapshot_matches_the_pinned_golden() {
    let observer = Obs::enabled();
    smoke::run(&observer);
    let snapshot = observer.snapshot_json().expect("observer is enabled");
    assert!(
        snapshot == GOLDEN,
        "the smoke snapshot no longer matches the pinned golden \
         (run `cargo test -p consumer-grid-bench --test metrics_determinism` \
         for the first differing byte). If the change is meant to alter it, \
         re-pin it in a commit of its own:\n  cargo run --release -p \
         consumer-grid-bench --bin repro -- --quick --metrics-out \
         crates/bench/tests/golden/quick.metrics.json"
    );
}
