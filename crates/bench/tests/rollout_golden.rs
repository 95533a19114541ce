//! Guard for refactors of the rollout scenario: the `rollout` experiment
//! report (committed sabotage plan, clean retry, canary-verified LeNet
//! upgrade and the brownout section) must stay byte-identical to the
//! committed reference in `docs/rollout_golden.txt`. The report's own
//! determinism check compares two runs of one build, so it cannot catch
//! a change that moves both runs the same way.

#[test]
fn rollout_report_matches_the_golden_output_byte_for_byte() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/rollout_golden.txt");
    let golden = std::fs::read_to_string(golden_path).expect("golden output present");
    // `repro rollout` prints the report with one trailing println newline.
    let actual = format!("{}\n", fpgaccel_bench::rollout::rollout());
    assert_eq!(
        actual, golden,
        "the rollout report diverged from docs/rollout_golden.txt — a refactor of the \
         serving scenarios must leave the upgrade, rollback and brownout outcomes unchanged"
    );
}
