//! Auto-tuning end to end: evaluate every legal MobileNetV1
//! 1x1-convolution tiling on the Arria 10, persist the winner to a tuning
//! database on disk, reload it, answer the same query from the warm
//! database with zero evaluations, and finally deploy the tuned
//! configuration through the serving-layer deployment cache.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use fpgaccel::core::bitstreams::{mobilenet_tile, optimized_config};
use fpgaccel::core::{tune_model, Flow, FlowEvaluator, TilingPreset};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::serve::DeploymentCache;
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{Registry, Tracer};
use fpgaccel::tune::{Candidate, Evaluate, TuningDb};

fn main() {
    let model = Model::MobileNetV1;
    let platform = FpgaPlatform::Arria10Gx;
    let db_path = std::env::temp_dir().join("fpgaccel-autotune-example/tune_db.json");

    // The hand-tuned thesis deployment (Table 6.7: 7/8/8 on the A10) is the
    // bar the tuner has to clear.
    let hand_tile = mobilenet_tile(platform);
    let hand = FlowEvaluator::new(&Flow::new(model, platform))
        .evaluate(&Candidate::new(hand_tile))
        .expect("hand-tuned tiling synthesizes");
    println!(
        "hand-tuned  {:?}: {:.2} ms/img (1x1 {:.2} ms, {} DSPs, {:.0} MHz)",
        hand_tile,
        hand.seconds_per_image.unwrap() * 1e3,
        hand.conv1x1_seconds * 1e3,
        hand.dsps,
        hand.fmax_mhz
    );

    // Cold tune: every legal tiling evaluated once, in proposal order; the
    // first fastest one that fits wins.
    let mut db = TuningDb::new();
    let cold = tune_model(
        model,
        platform,
        &mut db,
        &Tracer::disabled(),
        &Registry::default(),
    )
    .expect("the A10 space has feasible candidates");
    println!(
        "cold tune   {:?}: {:.2} ms/img in {} evaluations",
        cold.candidate.tile,
        cold.seconds_per_image * 1e3,
        cold.evaluations
    );

    // Persist, reload, and ask again: the warm answer is a pure database
    // lookup — zero candidate evaluations.
    db.save(&db_path).expect("database saves");
    let mut warm_db = TuningDb::load(&db_path).expect("database loads");
    let warm = tune_model(
        model,
        platform,
        &mut warm_db,
        &Tracer::disabled(),
        &Registry::default(),
    )
    .unwrap();
    println!(
        "warm lookup {:?}: {:.2} ms/img in {} evaluations (from_cache={})",
        warm.candidate.tile,
        warm.seconds_per_image * 1e3,
        warm.evaluations,
        warm.from_cache
    );

    // Deploy through the serving layer: the deployment cache consults the
    // tuning database and compiles the tuned config, falling back to the
    // hand-tuned preset only for models the database has never seen.
    let fallback = optimized_config(model, platform);
    let mut cache = DeploymentCache::new();
    let d = cache
        .get_or_compile_tuned(model, platform, &warm_db, &fallback)
        .expect("tuned config compiles");
    println!(
        "deployed    \"{}\" ({:?}): batch-1 latency {:.2} ms",
        d.config.label,
        match d.config.tiling {
            TilingPreset::Custom1x1 { tile } => tile,
            _ => hand_tile,
        },
        d.simulate_batch(1).seconds * 1e3
    );

    // LeNet has no 1x1 convolutions, so it is not in the database: the same
    // call transparently falls back to the hand-tuned config.
    let lenet_fallback = optimized_config(Model::LeNet5, platform);
    let l = cache
        .get_or_compile_tuned(Model::LeNet5, platform, &warm_db, &lenet_fallback)
        .expect("fallback config compiles");
    println!(
        "fallback    \"{}\" for LeNet-5 (not in the database)",
        l.config.label
    );

    let _ = std::fs::remove_dir_all(db_path.parent().unwrap());
}
