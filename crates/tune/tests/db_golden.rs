//! Byte-level pins for the tuning database's JSON rendering.
//!
//! The other database tests only check self-consistency (render, parse,
//! render again). These pin the bytes: the committed `tune_db.json` must
//! reproduce itself through a load and a render, and a database holding
//! two records in every section must render exactly to a committed
//! fixture.

use fpgaccel_tune::TuningDb;

/// The tuning database committed at the repository root.
const COMMITTED: &str = include_str!("../../../tune_db.json");

/// The canonical rendering of [`SOURCE`].
const FIXTURE: &str = include_str!("fixtures/db_golden.json");

/// Two records in each of the four sections, written compactly and out of
/// key order. One model name carries a `"`, a `\` and a tab, and the
/// numbers cover long fractions, tiny values and large counts.
const SOURCE: &str = r#"{"version": 1, "records": [
{"model": "resnet_18", "shape_sig": "n8-0badf00d", "platform": "Stratix10Sx", "precision": "Int8", "tile": [14, 32, 16], "seconds_per_image": 0.0000001, "conv1x1_seconds": 0.00000005, "dsps": 4096, "fmax_mhz": 300, "evaluations": 0},
{"model": "mobile\"net\\v1\tq", "shape_sig": "n13-61a2d0c2", "platform": "Arria10Gx", "precision": "F32", "tile": [7, 8, 8], "seconds_per_image": 0.04759738612094989, "conv1x1_seconds": 0.009764643114569116, "dsps": 504, "fmax_mhz": 196.2149194392754, "evaluations": 29}],
"pipeline": [
{"model": "mobilenet_v1", "shape_sig": "n13-61a2d0c2", "platform": "Stratix10Sx", "precision": "F32", "depth_policy": "fill*2", "max_stages": 32, "seconds_per_image": 0.03331351878774048, "dram_elems_saved": 6460928, "pipelined_stages": 12, "staged_nodes": 33, "evaluations": 8},
{"model": "lenet5", "shape_sig": "n0-00000000", "platform": "Stratix10Sx", "precision": "Fp16", "depth_policy": "full", "max_stages": 4, "seconds_per_image": 0.0003433065548533149, "dram_elems_saved": 11520, "pipelined_stages": 7, "staged_nodes": 0, "evaluations": 5}],
"mixed": [
{"model": "lenet5", "shape_sig": "n0-00000000", "platform": "Stratix10Sx", "precision": "F32", "assignment": [["conv1", "Int8"], ["conv2", "Fp16"], ["dense1", "F32"]], "dsps": 23, "baseline_dsps": 36, "ram_blocks": 420, "worst_error": 0.012500000000000001, "error_budget": 0.05, "evaluations": 6},
{"model": "lenet5", "shape_sig": "n0-00000000", "platform": "Arria10Gx", "precision": "F32", "assignment": [], "dsps": 36, "baseline_dsps": 36, "ram_blocks": 0, "worst_error": 0, "error_budget": 0.01, "evaluations": 1}],
"placements": [
{"spec": "fleet-def456", "replicas": [["LeNet-5", "A10", 3]], "total_rate_rps": 0.5, "evaluations": 0},
{"spec": "fleet-abc123", "replicas": [["MobileNetV1", "S10SX", 120], ["LeNet-5", "A10", 3]], "total_rate_rps": 4812.123456789, "evaluations": 9}]}"#;

#[test]
fn committed_tune_db_reproduces_its_own_bytes() {
    let db = TuningDb::from_json(COMMITTED).expect("the committed tune_db.json loads");
    assert_eq!(db.to_json(), COMMITTED);
}

#[test]
fn every_section_renders_the_committed_fixture_and_round_trips() {
    let db = TuningDb::from_json(SOURCE).expect("the source database loads");
    assert_eq!(db.to_json(), FIXTURE);
    let back = TuningDb::from_json(FIXTURE).expect("the fixture loads");
    assert_eq!(back.to_json(), FIXTURE);
}
