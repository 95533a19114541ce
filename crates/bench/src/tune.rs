//! The `tune` experiment: the auto-scheduler against the hand-tuned
//! Table 6.7 deployment.
//!
//! Cold-tunes the MobileNetV1 1x1-convolution tiling space on the
//! Arria 10 GX by evaluating every legal candidate once, compares the
//! winner with the thesis' hand-picked `7/8/8` configuration (evaluated by
//! the exact same methodology), persists the tuning database, and then
//! demonstrates the warm path: reloading the database and tuning again
//! without spending a single candidate evaluation.
//!
//! `FPGACCEL_TUNE_DB` sets the database path (default `tune_db.json`); the
//! report is byte-identical for a fixed path.

use crate::table::Table;
use fpgaccel_core::bitstreams::mobilenet_tile;
use fpgaccel_core::{tune_model, Flow, FlowEvaluator};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::{Registry, Tracer};
use fpgaccel_tune::{Candidate, Evaluate, TuningDb};

/// Tuning-database path (`FPGACCEL_TUNE_DB`, default `tune_db.json`).
pub fn db_path() -> std::path::PathBuf {
    std::env::var("FPGACCEL_TUNE_DB")
        .unwrap_or_else(|_| "tune_db.json".to_string())
        .into()
}

/// Runs the auto-tuning experiment report.
pub fn tune() -> String {
    let model = Model::MobileNetV1;
    let platform = FpgaPlatform::Arria10Gx;
    let ms = |s: f64| format!("{:.2} ms", s * 1e3);

    let mut t = Table::new(
        "Auto-tuner vs hand-tuned — MobileNetV1 1x1-conv tiling, Arria 10",
        &[
            "config",
            "W2/C2/C1",
            "1x1 DSPs",
            "fmax",
            "1x1 time/img",
            "net time/img",
            "evals",
        ],
    );

    // The hand-tuned Table 6.7 configuration, measured by the same
    // methodology the tuner's evaluator uses.
    let hand_tile = mobilenet_tile(platform);
    let eval = FlowEvaluator::new(&Flow::new(model, platform));
    let hand = eval
        .evaluate(&Candidate::new(hand_tile))
        .expect("hand-tuned tiling synthesizes");
    let hand_seconds = hand
        .seconds_per_image
        .expect("hand-tuned deployment fits the A10");
    t.row(&[
        "hand-tuned (Table 6.7)".into(),
        format!("{}/{}/{}", hand_tile.0, hand_tile.1, hand_tile.2),
        hand.dsps.to_string(),
        format!("{:.0} MHz", hand.fmax_mhz),
        ms(hand.conv1x1_seconds),
        ms(hand_seconds),
        "-".into(),
    ]);

    // Cold tune from an empty database.
    let mut db = TuningDb::new();
    let cold = tune_model(
        model,
        platform,
        &mut db,
        &Tracer::disabled(),
        &Registry::default(),
    )
    .expect("the A10 1x1 space has feasible candidates");
    t.row(&[
        "auto-tuned (cold search)".into(),
        format!(
            "{}/{}/{}",
            cold.candidate.tile.0, cold.candidate.tile.1, cold.candidate.tile.2
        ),
        cold.dsps.to_string(),
        format!("{:.0} MHz", cold.fmax_mhz),
        ms(cold.conv1x1_seconds),
        ms(cold.seconds_per_image),
        cold.evaluations.to_string(),
    ]);

    // Persist, reload, and tune again: the warm path must not search.
    let path = db_path();
    db.save(&path).expect("tuning database saves");
    let mut reloaded = TuningDb::load(&path).expect("tuning database reloads");
    let warm = tune_model(
        model,
        platform,
        &mut reloaded,
        &Tracer::disabled(),
        &Registry::default(),
    )
    .expect("warm lookup succeeds");
    assert!(warm.from_cache && warm.evaluations == 0);
    t.row(&[
        "auto-tuned (warm reload)".into(),
        format!(
            "{}/{}/{}",
            warm.candidate.tile.0, warm.candidate.tile.1, warm.candidate.tile.2
        ),
        warm.dsps.to_string(),
        format!("{:.0} MHz", warm.fmax_mhz),
        ms(warm.conv1x1_seconds),
        ms(warm.seconds_per_image),
        "0 (db hit)".into(),
    ]);

    let space_size = eval.space().proposals().map(|p| p.len()).unwrap_or(0);
    format!(
        "{}\nSearch evaluated {} of {} legal candidates; best net latency is \
         {:.1}% of hand-tuned.\nTuning database: {} record(s) at {} — warm reload answered \
         from the database with 0 evaluations.\n",
        t.render(),
        cold.evaluations,
        space_size,
        100.0 * cold.seconds_per_image / hand_seconds,
        reloaded.tilings.len(),
        path.display(),
    )
}
