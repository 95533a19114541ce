//! Pins the committed bench baseline `BENCH_core.json`: regenerating the
//! record on this source tree must reproduce it byte for byte, its schema
//! must stay stable, and the comparator must pass the committed baseline
//! while flagging a perturbed one.
//!
//! If a performance-relevant change legitimately moves a metric, rerun
//! `FPGACCEL_BENCH_OUT=BENCH_core.json repro bench` from the repository
//! root and commit the refreshed baseline alongside the change.

use fpgaccel_bench::trajectory::collect;
use fpgaccel_obs::{compare, BenchRecord, SCHEMA_VERSION};
use fpgaccel_trace::json::Json;

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    std::fs::read_to_string(path).expect("committed BENCH_core.json exists at the repo root")
}

#[test]
fn regenerated_record_is_byte_identical_to_the_committed_baseline() {
    assert_eq!(
        collect().to_json(),
        committed(),
        "the bench matrix drifted from BENCH_core.json — if the change is \
         intentional, regenerate and commit the baseline"
    );
}

#[test]
fn committed_baseline_schema_is_pinned() {
    let j = Json::parse(&committed()).expect("baseline parses as JSON");
    assert_eq!(
        j.get("schema_version").and_then(|v| v.as_f64()),
        Some(SCHEMA_VERSION as f64)
    );
    assert_eq!(j.get("workload").and_then(|v| v.as_str()), Some("core-v4"));
    let metrics = j
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("baseline has a metrics array");
    assert!(!metrics.is_empty());
    for m in metrics {
        for key in ["id", "unit", "direction"] {
            assert!(
                m.get(key).and_then(|v| v.as_str()).is_some(),
                "metric missing string field {key}"
            );
        }
        for key in ["value", "tolerance"] {
            assert!(
                m.get(key).and_then(|v| v.as_f64()).is_some(),
                "metric missing numeric field {key}"
            );
        }
    }
}

#[test]
fn comparator_passes_the_committed_baseline_and_flags_a_perturbed_one() {
    let base = BenchRecord::parse(&committed()).expect("baseline record parses");
    let current = collect();
    let clean = compare(&base, &current);
    assert!(
        clean.pass(),
        "fresh record must pass against the committed baseline: {:?} regressions, {:?} missing",
        clean.regressions().len(),
        clean.missing
    );

    // Perturb the current record the way a real regression would look:
    // p99 degrades 50% and a pipeline speedup collapses.
    let mut perturbed = current.clone();
    for m in &mut perturbed.metrics {
        match m.id.as_str() {
            "serve.load1x.p99_ms" => m.value *= 1.5,
            "pipeline.LeNet-5.S10SX.speedup" => m.value *= 0.5,
            _ => {}
        }
    }
    let v = compare(&base, &perturbed);
    assert!(!v.pass());
    let ids: Vec<&str> = v.regressions().iter().map(|d| d.id.as_str()).collect();
    assert!(ids.contains(&"serve.load1x.p99_ms"));
    assert!(ids.contains(&"pipeline.LeNet-5.S10SX.speedup"));

    // Dropping a metric entirely is a coverage loss, not a silent pass.
    let mut shrunk = current.clone();
    shrunk.metrics.retain(|m| m.id != "serve.load2x.shed_rate");
    let v = compare(&base, &shrunk);
    assert!(!v.pass());
    assert_eq!(v.missing, ["serve.load2x.shed_rate"]);
}
