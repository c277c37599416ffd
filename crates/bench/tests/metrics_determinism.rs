//! End-to-end determinism of the CI smoke artifact: `repro --quick` must
//! produce exactly the snapshot pinned in `golden/quick.metrics.json`, so
//! a change that reorders, drops, adds or re-values a metric fails here
//! instead of passing silently; and the snapshot must be valid JSON with
//! the counters CI diffs against.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/quick.metrics.json");

fn run_quick(out: &std::path::Path) -> String {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--metrics-out", out.to_str().expect("utf8 path")])
        .output()
        .expect("repro runs");
    assert!(
        status.status.success(),
        "repro --quick failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    std::fs::read_to_string(out).expect("metrics file written")
}

/// Up to 120 bytes of `s` from `from`, for a readable mismatch report.
fn context(s: &str, from: usize) -> String {
    let bytes = &s.as_bytes()[from.min(s.len())..];
    String::from_utf8_lossy(&bytes[..bytes.len().min(120)]).into_owned()
}

#[test]
fn quick_metrics_snapshot_matches_the_pinned_golden() {
    let dir = std::env::temp_dir().join("repro_metrics_determinism");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let a = run_quick(&dir.join("a.json"));
    if a != GOLDEN {
        let at = a
            .bytes()
            .zip(GOLDEN.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(GOLDEN.len()));
        let from = at.saturating_sub(60);
        panic!(
            "repro --quick snapshot differs from crates/bench/tests/golden/quick.metrics.json \
             at byte {at}:\n  golden: …{}\n  run:    …{}\n\
             If the change is meant to alter the snapshot, re-pin it in a commit of its own:\n  \
             cargo run --release -p consumer-grid-bench --bin repro -- --quick \
             --metrics-out crates/bench/tests/golden/quick.metrics.json",
            context(GOLDEN, from),
            context(&a, from),
        );
    }

    let doc = obs::json::parse(&a).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("triana-obs/1")
    );
    let counters = doc
        .get("counters")
        .and_then(|v| v.as_object())
        .expect("counters");
    for key in [
        "engine.runs",
        "farm.dispatches",
        "farm.completions",
        "p2p.messages_sent",
        "tvm.violations.budget",
        "net.transfers",
        "xml.parses",
    ] {
        let v = counters
            .get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter {key} missing"));
        assert!(v > 0, "counter {key} is zero");
    }
    let events = doc
        .get("events")
        .and_then(|v| v.as_array())
        .expect("events");
    assert!(!events.is_empty(), "events must be recorded");
    // Event timestamps are virtual (netsim) time, monotone per subsystem run.
    for ev in events {
        assert!(
            ev.get("t").and_then(|v| v.as_u64()).is_some(),
            "virtual timestamp"
        );
        assert!(ev.get("kind").and_then(|v| v.as_str()).is_some());
    }
}
