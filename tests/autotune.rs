//! Acceptance tests for the `fpgaccel-tune` auto-tuner: on the Arria 10
//! GX the tuner must find a MobileNetV1 1x1-convolution configuration at
//! least as fast as the hand-tuned Table 6.7 deployment; on every board it
//! must evaluate each legal candidate exactly once and keep the first
//! fastest; and a warm tuning-database lookup must skip the evaluations
//! entirely.

use fpgaccel::core::bitstreams::mobilenet_tile;
use fpgaccel::core::{tune_model, Flow, FlowEvaluator, OptimizationConfig, TilingPreset};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{Registry, Tracer, PID_TUNE};
use fpgaccel::tune::{Candidate, Evaluate, Measured, TuningDb};

#[test]
fn tuner_matches_or_beats_the_hand_tuned_mobilenet_deployment() {
    let model = Model::MobileNetV1;
    let platform = FpgaPlatform::Arria10Gx;

    // Hand-tuned reference: the thesis' 7/8/8 deployment (Table 6.7),
    // simulated at batch 1.
    let flow = Flow::new(model, platform);
    let hand = flow
        .compile(&OptimizationConfig::folded(TilingPreset::MobileNet {
            one_by_one: mobilenet_tile(platform),
        }))
        .expect("hand-tuned MobileNet fits the A10");
    let hand_seconds = hand.simulate_batch(1).seconds;

    let tracer = Tracer::enabled();
    let registry = Registry::default();
    let mut db = TuningDb::new();
    let out = tune_model(model, platform, &mut db, &tracer, &registry).unwrap();

    assert!(!out.from_cache);
    assert_eq!(out.candidate.tile, (7, 8, 8), "the thesis' A10 tiling");
    assert!(
        out.seconds_per_image <= hand_seconds * (1.0 + 1e-9),
        "tuned {}s/img worse than hand-tuned {hand_seconds}s/img",
        out.seconds_per_image
    );
    // The tuning run is observable: spans on the tune track, counters in
    // the registry.
    assert!(tracer.events().iter().any(|e| e.pid == PID_TUNE));
    assert!(registry
        .value(
            "tune_evaluations_total",
            &[("model", "mobilenet_v1"), ("platform", "Arria10Gx")]
        )
        .is_some_and(|v| v as usize == out.evaluations));
}

#[test]
fn warm_database_lookup_skips_the_search_and_deploys() {
    let model = Model::MobileNetV1;
    let platform = FpgaPlatform::Arria10Gx;
    let dir = std::env::temp_dir().join("fpgaccel-autotune-accept");
    let path = dir.join("tune_db.json");
    let _ = std::fs::remove_dir_all(&dir);

    // Cold tune, persisted.
    let mut db = TuningDb::new();
    let cold = tune_model(
        model,
        platform,
        &mut db,
        &Tracer::disabled(),
        &Registry::default(),
    )
    .unwrap();
    db.save(&path).unwrap();

    // Warm run from the reloaded database: zero evaluations, same tile.
    let mut reloaded = TuningDb::load(&path).unwrap();
    let warm = tune_model(
        model,
        platform,
        &mut reloaded,
        &Tracer::disabled(),
        &Registry::default(),
    )
    .unwrap();
    assert!(warm.from_cache, "second run must hit the tuning database");
    assert_eq!(warm.evaluations, 0, "warm lookup must not search");
    assert!(warm.evaluated.is_empty());
    assert_eq!(warm.candidate.tile, cold.candidate.tile);
    assert_eq!(warm.seconds_per_image, cold.seconds_per_image);

    // The tuned config deploys end to end through the flow.
    let flow = Flow::new(model, platform);
    let cfg = flow
        .with_tuned_config(&reloaded)
        .expect("database holds this model/platform");
    assert_eq!(cfg.label, "Folded-Tuned");
    let d = flow.compile(&cfg).expect("tuned config compiles");
    let tuned_seconds = d.simulate_batch(1).seconds;
    assert!((tuned_seconds - warm.seconds_per_image).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tuned_candidate_agrees_with_direct_evaluation() {
    // On every board the cold tune evaluates each legal candidate exactly
    // once, in proposal order, and the record it persists is, bit for bit,
    // what a brute-force first minimum over the evaluator finds (no stale,
    // averaged or skipped numbers).
    let model = Model::MobileNetV1;
    for platform in FpgaPlatform::ALL {
        let mut db = TuningDb::new();
        let out = tune_model(
            model,
            platform,
            &mut db,
            &Tracer::disabled(),
            &Registry::default(),
        )
        .unwrap();
        let eval = FlowEvaluator::new(&Flow::new(model, platform));
        let proposals = eval.space().proposals().unwrap();
        let order: Vec<Candidate> = out.evaluated.iter().map(|(c, _)| *c).collect();
        assert_eq!(order, proposals, "{platform}: evaluation order");
        assert_eq!(out.evaluations, 84, "{platform}: legal candidates");

        let mut best: Option<(Candidate, Measured, f64)> = None;
        for c in &proposals {
            let Ok(m) = eval.evaluate(c) else { continue };
            let Some(s) = m.seconds_per_image else {
                continue;
            };
            if best.as_ref().is_none_or(|b| s < b.2) {
                best = Some((*c, m, s));
            }
        }
        let (cand, m, seconds) = best.expect("some MobileNet tiling fits every board");
        assert_eq!(out.candidate, cand, "{platform}: winner");
        assert_eq!(out.seconds_per_image.to_bits(), seconds.to_bits());
        assert_eq!(out.conv1x1_seconds.to_bits(), m.conv1x1_seconds.to_bits());
        assert_eq!(out.fmax_mhz.to_bits(), m.fmax_mhz.to_bits());
        assert_eq!(out.dsps, m.dsps);
        // `{:?}` prints each f64 in its shortest round-trip form, so equal
        // renderings are equal bits.
        let (_, winner) = &out.evaluated[proposals.iter().position(|c| *c == cand).unwrap()];
        assert_eq!(format!("{:?}", winner.as_ref().unwrap()), format!("{m:?}"));
        let rec = db.tilings.iter().next().expect("winner recorded").1;
        assert_eq!((rec.tile, rec.evaluations), (cand.tile, 84));
    }
}
