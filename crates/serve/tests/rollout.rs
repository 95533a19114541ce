//! Live-rollout tests: drain-and-reprogram waves, canary verification,
//! automatic rollback, the drain invariant under random fault plans, and
//! precision brownout under overload.

use fpgaccel_aoc::{AocOptions, Precision};
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::{verify_deployment, OptimizationConfig, VerifyError};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{shadow_target, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSpec};
use fpgaccel_serve::{
    AdmissionPolicy, BatchPolicy, BrownoutPolicy, CanaryFailure, DevicePool, Request,
    RolloutOutcome, RolloutPolicy, RolloutSpec, RunResult, ServeConfig, Server,
};
use fpgaccel_tensor::data;
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::Tracer;

fn lenet_pool(devices: usize, injector: &FaultInjector) -> DevicePool {
    let mut pool = DevicePool::new();
    pool.set_fault_injector(injector);
    let cfg = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    for _ in 0..devices {
        let d = pool.add_device(FpgaPlatform::Stratix10Sx);
        pool.deploy(d, Model::LeNet5, &cfg).unwrap();
    }
    pool
}

fn cfg() -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_s: 1e-3,
        },
        admission: AdmissionPolicy {
            queue_capacity: 64,
            default_deadline_s: None,
        },
        fault: Default::default(),
        brownout: Default::default(),
    }
}

fn trace(n: usize, spacing_s: f64) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            id: i as u64,
            model: Model::LeNet5,
            arrival_s: i as f64 * spacing_s,
            deadline_s: None,
            input: None,
        })
        .collect()
}

/// A config with identical timing but a new label: a realistic "rebuild of
/// the same pipeline" upgrade that must promote cleanly.
fn relabeled_optimized() -> OptimizationConfig {
    let mut to = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    to.label = "Optimized-v2".into();
    to
}

fn fast_policy() -> RolloutPolicy {
    RolloutPolicy {
        reprogram_s: 2e-3,
        ..Default::default()
    }
}

fn accounted(r: &RunResult, offered: usize) {
    assert_eq!(
        r.completions.len() + r.sheds.len() + r.failures.len(),
        offered,
        "every admitted request must complete, shed, or fail with a reason"
    );
}

#[test]
fn clean_rollout_promotes_every_wave() {
    let tracer = Tracer::enabled();
    let pool = lenet_pool(2, &FaultInjector::disabled());
    let old_label = pool.devices()[0]
        .deployment(Model::LeNet5)
        .unwrap()
        .config
        .label
        .clone();
    let spec = RolloutSpec {
        at_s: 3e-3,
        model: Model::LeNet5,
        to: relabeled_optimized(),
        verify_input: Some(data::synthetic_digit(3, 7)),
        adopt: Vec::new(),
        policy: fast_policy(),
    };
    let r = Server::new(pool, cfg())
        .with_tracer(&tracer)
        .with_rollout(spec)
        .run_open_loop(trace(60, 2e-4));

    accounted(&r, 60);
    assert!(r.sheds.is_empty(), "a wave-of-one rollout must not shed");
    assert!(r.failures.is_empty());

    let rep = &r.rollouts[0];
    assert_eq!(rep.outcome, RolloutOutcome::Promoted);
    assert_eq!(rep.waves, 2, "two devices, wave size 1");
    assert_eq!(rep.devices_converted, 2);
    assert_eq!(rep.devices_lost, 0);
    assert_eq!(rep.canary_failure, None);
    assert_ne!(rep.to_label, old_label);
    for action in ["drain-start", "reprogram-ok", "canary-pass", "promoted"] {
        assert!(
            rep.events.iter().any(|e| e.action == action),
            "missing `{action}` in the rollout event log"
        );
    }
    // Event log is chronological.
    for w in rep.events.windows(2) {
        assert!(w[0].t_s <= w[1].t_s);
    }

    // The pool ends up serving the new configuration everywhere.
    for dev in &r.devices {
        assert_eq!(dev.health, "healthy");
        assert_eq!(
            dev.deployments,
            vec![(Model::LeNet5, "Optimized-v2".to_string())]
        );
    }

    // Gauge parks at "promoted"; no rollback was counted.
    assert_eq!(
        r.registry
            .value("serve_rollout_state", &[("model", "LeNet-5")]),
        Some(4.0)
    );
    assert_eq!(
        r.registry
            .value("serve_rollbacks_total", &[("model", "LeNet-5")]),
        None
    );

    // Rollout wave spans land on the rollout lane; the canary span on the
    // device lane.
    let events = tracer.events();
    assert!(events.iter().any(|e| e.cat == "rollout" && e.tid == 48));
    assert!(events.iter().any(|e| e.cat == "canary" && e.tid >= 64));
    assert!(events.iter().any(|e| e.cat == "reprogram"));
}

#[test]
fn latency_regression_rolls_back_to_the_old_deployment() {
    // Precondition: the `Base` bitstream really is slower than the
    // optimized one by more than the default 1.25x guardband.
    let probe = {
        let mut pool = DevicePool::new();
        let d = pool.add_device(FpgaPlatform::Stratix10Sx);
        pool.deploy(d, Model::LeNet5, &OptimizationConfig::base())
            .unwrap();
        let base = pool.devices()[d]
            .latency_model(Model::LeNet5)
            .unwrap()
            .seconds(1);
        let mut pool2 = DevicePool::new();
        let d2 = pool2.add_device(FpgaPlatform::Stratix10Sx);
        pool2
            .deploy(
                d2,
                Model::LeNet5,
                &optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx),
            )
            .unwrap();
        let opt = pool2.devices()[d2]
            .latency_model(Model::LeNet5)
            .unwrap()
            .seconds(1);
        base / opt
    };
    assert!(
        probe > 1.25,
        "Base/optimized per-image ratio {probe:.3} too small to test"
    );

    let pool = lenet_pool(2, &FaultInjector::disabled());
    let old_label = pool.devices()[0]
        .deployment(Model::LeNet5)
        .unwrap()
        .config
        .label
        .clone();
    let spec = RolloutSpec {
        at_s: 3e-3,
        model: Model::LeNet5,
        to: OptimizationConfig::base(),
        verify_input: None,
        adopt: Vec::new(),
        policy: fast_policy(),
    };
    let r = Server::new(pool, cfg())
        .with_rollout(spec)
        .run_open_loop(trace(60, 2e-4));

    accounted(&r, 60);
    assert!(r.failures.is_empty());
    let rep = &r.rollouts[0];
    assert_eq!(rep.outcome, RolloutOutcome::RolledBack);
    assert_eq!(rep.devices_converted, 1, "only the canary wave converted");
    match &rep.canary_failure {
        Some(CanaryFailure::LatencyRegression { ratio }) => {
            assert!(*ratio > 1.25, "reported ratio {ratio:.3}")
        }
        other => panic!("expected a latency regression, got {other:?}"),
    }
    assert!(rep.events.iter().any(|e| e.action == "canary-fail"));
    assert!(rep.events.iter().any(|e| e.action == "rollback-begin"));
    assert!(rep.events.iter().any(|e| e.action == "rolled-back"));

    // Every device serves the pre-rollout deployment again.
    for dev in &r.devices {
        assert_eq!(dev.health, "healthy");
        assert_eq!(dev.deployments, vec![(Model::LeNet5, old_label.clone())]);
    }
    assert_eq!(
        r.registry
            .value("serve_rollout_state", &[("model", "LeNet-5")]),
        Some(5.0)
    );
    assert_eq!(
        r.registry
            .value("serve_rollbacks_total", &[("model", "LeNet-5")]),
        Some(1.0)
    );
}

#[test]
fn shadow_corruption_fails_the_canary_without_touching_production() {
    // The corruption targets the canary's shadow stream only: production
    // batches on `s10sx-0` must not consume it.
    let plan = FaultPlan::new(
        0,
        vec![FaultEvent {
            at_s: 0.0,
            target: shadow_target("s10sx-0"),
            kind: FaultKind::TransferCorrupt,
        }],
    );
    let injector = FaultInjector::new(plan);
    let pool = lenet_pool(2, &injector);
    let old_label = pool.devices()[0]
        .deployment(Model::LeNet5)
        .unwrap()
        .config
        .label
        .clone();
    let spec = RolloutSpec {
        at_s: 3e-3,
        model: Model::LeNet5,
        to: relabeled_optimized(),
        verify_input: None,
        adopt: Vec::new(),
        policy: fast_policy(),
    };
    let r = Server::new(pool, cfg())
        .with_rollout(spec)
        .run_open_loop(trace(60, 2e-4));

    accounted(&r, 60);
    assert_eq!(r.completions.len(), 60, "production traffic is unaffected");
    assert!(r.failures.is_empty());
    let rep = &r.rollouts[0];
    assert_eq!(rep.outcome, RolloutOutcome::RolledBack);
    assert_eq!(rep.canary_failure, Some(CanaryFailure::ReadbackCorrupt));
    for dev in &r.devices {
        assert_eq!(dev.deployments, vec![(Model::LeNet5, old_label.clone())]);
    }
}

#[test]
fn canary_verification_reports_a_structured_mismatch() {
    // A negative tolerance fails every element comparison, so the canary's
    // host-reference verification must reject the (numerically identical)
    // new deployment with a structured error.
    let pool = lenet_pool(2, &FaultInjector::disabled());
    let spec = RolloutSpec {
        at_s: 3e-3,
        model: Model::LeNet5,
        to: relabeled_optimized(),
        verify_input: Some(data::synthetic_digit(1, 5)),
        adopt: Vec::new(),
        policy: RolloutPolicy {
            verify_rtol: -1.0,
            ..fast_policy()
        },
    };
    let r = Server::new(pool, cfg())
        .with_rollout(spec)
        .run_open_loop(trace(40, 2e-4));

    let rep = &r.rollouts[0];
    assert_eq!(rep.outcome, RolloutOutcome::RolledBack);
    match &rep.canary_failure {
        Some(CanaryFailure::OutputMismatch(e)) => {
            assert!(matches!(e, VerifyError::Mismatch { .. }), "got {e:?}");
            // The structured error renders the legacy diagnostic string.
            let msg = e.to_string();
            assert!(msg.contains("element"), "unexpected Display: {msg}");
        }
        other => panic!("expected an output mismatch, got {other:?}"),
    }
}

#[test]
fn rollout_without_serving_devices_fails_cleanly() {
    let mut pool = DevicePool::new();
    pool.add_device(FpgaPlatform::Stratix10Sx); // nothing deployed
    let spec = RolloutSpec {
        at_s: 1e-3,
        model: Model::LeNet5,
        to: relabeled_optimized(),
        verify_input: None,
        adopt: Vec::new(),
        policy: fast_policy(),
    };
    let r = Server::new(pool, cfg())
        .with_rollout(spec)
        .run_open_loop(vec![]);
    assert_eq!(r.rollouts[0].outcome, RolloutOutcome::Failed);
}

/// The drain invariant, extracted from the trace: on every device lane,
/// no production batch span may overlap a reprogram span, and no
/// production batch may be *dispatched* while the device sits between
/// drain-start and its release (promotion, rollback, or config error).
/// A batch dispatched the instant before the drain legitimately starts
/// executing after the drain timestamp — the drain's quiesce waits for it
/// — so the dispatch check reads the span's `dispatch_s` annotation.
fn assert_drain_invariant(tracer: &Tracer, r: &RunResult, devices: usize) {
    let events = tracer.events();
    for d in 0..devices {
        let lane = 64 + d as u32;
        let name = format!("s10sx-{d}");
        let batches: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.tid == lane && (e.cat == "batch" || e.cat == "fault") && e.dur_us > 0.0)
            .map(|e| (e.ts_us / 1e6, (e.ts_us + e.dur_us) / 1e6))
            .collect();
        let dispatches: Vec<f64> = events
            .iter()
            .filter(|e| e.tid == lane && e.cat == "batch")
            .filter_map(|e| {
                e.args
                    .iter()
                    .find(|(k, _)| k == "dispatch_s")
                    .and_then(|(_, v)| v.parse::<f64>().ok())
            })
            .collect();
        let reprograms: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.tid == lane && e.cat == "reprogram")
            .map(|e| (e.ts_us / 1e6, (e.ts_us + e.dur_us) / 1e6))
            .collect();
        for &(bs, be) in &batches {
            for &(rs, re) in &reprograms {
                assert!(
                    be <= rs + 1e-9 || bs >= re - 1e-9,
                    "device {name}: batch [{bs:.6}, {be:.6}] overlaps reprogram [{rs:.6}, {re:.6}]"
                );
            }
        }
        // Drain windows from the rollout event logs.
        for rep in &r.rollouts {
            let mut open: Option<f64> = None;
            for ev in rep.events.iter().filter(|e| e.device == name) {
                match ev.action.as_str() {
                    "drain-start" | "rollback-begin" => open = open.or(Some(ev.t_s)),
                    "promoted" | "rolled-back" | "config-error" => open = None,
                    _ => {}
                }
                if let Some(start) = open {
                    // While a window is open, later dispatches inside it
                    // are dispatch-during-drain violations.
                    for &ds in &dispatches {
                        assert!(
                            !(ds > start + 1e-9 && ds < ev.t_s - 1e-9),
                            "device {name}: batch dispatched at {ds:.6} inside drain window opened {start:.6}"
                        );
                    }
                }
            }
            if let Some(start) = open {
                // Never released (e.g. lost): nothing may dispatch after.
                for &ds in &dispatches {
                    assert!(
                        ds <= start + 1e-9,
                        "device {name}: batch dispatched at {ds:.6} after unreleased drain at {start:.6}"
                    );
                }
            }
        }
    }
}

fn rollout_under_plan(seed: u64, offered: usize) -> (Tracer, RunResult) {
    let plan = FaultPlan::generate(
        seed,
        &FaultSpec::budget(5, &["s10sx-0", "s10sx-1", "*"], 0.02),
    );
    let injector = FaultInjector::new(plan);
    let tracer = Tracer::enabled();
    let pool = lenet_pool(3, &injector);
    let spec = RolloutSpec {
        at_s: 2e-3 + seed as f64 * 7e-4,
        model: Model::LeNet5,
        to: relabeled_optimized(),
        verify_input: None,
        adopt: Vec::new(),
        policy: RolloutPolicy {
            wave_size: 1 + (seed as usize % 2),
            ..fast_policy()
        },
    };
    let r = Server::new(pool, cfg())
        .with_tracer(&tracer)
        .with_rollout(spec)
        .run_open_loop(trace(offered, 1.5e-4));
    (tracer, r)
}

#[test]
fn drain_invariant_holds_under_random_fault_plans() {
    for seed in 1..=6u64 {
        let (tracer, r) = rollout_under_plan(seed, 120);
        accounted(&r, 120);
        assert_drain_invariant(&tracer, &r, 3);
    }
}

#[test]
fn rollouts_are_deterministic_under_faults() {
    let (_, a) = rollout_under_plan(4, 120);
    let (_, b) = rollout_under_plan(4, 120);
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(
            (x.id, x.device, x.completion_s),
            (y.id, y.device, y.completion_s)
        );
    }
    assert_eq!(a.rollouts[0].outcome, b.rollouts[0].outcome);
    assert_eq!(a.rollouts[0].events.len(), b.rollouts[0].events.len());
    for (x, y) in a.rollouts[0].events.iter().zip(&b.rollouts[0].events) {
        assert_eq!((x.t_s, &x.device, &x.action), (y.t_s, &y.device, &y.action));
    }
}

// ---------------------------------------------------------------------------
// Precision brownout
// ---------------------------------------------------------------------------

fn int8_variant(model: Model, platform: FpgaPlatform) -> OptimizationConfig {
    let mut v = optimized_config(model, platform);
    v.aoc = AocOptions::with_precision(Precision::Int8);
    v.label = format!("{}-Int8", v.label);
    v
}

fn mobilenet_pool() -> DevicePool {
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Mx);
    let cfg = optimized_config(Model::MobileNetV1, FpgaPlatform::Stratix10Mx);
    pool.deploy(d, Model::MobileNetV1, &cfg).unwrap();
    pool.deploy_brownout_ladder(
        d,
        Model::MobileNetV1,
        &[int8_variant(Model::MobileNetV1, FpgaPlatform::Stratix10Mx)],
    )
    .unwrap();
    pool
}

fn overload_run(brownout: BrownoutPolicy) -> RunResult {
    let pool = mobilenet_pool();
    let dev = &pool.devices()[0];
    let f32_img = dev.latency_model(Model::MobileNetV1).unwrap().seconds(4) / 4.0;
    let int8_img = dev
        .brownout_latency_model(Model::MobileNetV1)
        .unwrap()
        .seconds(4)
        / 4.0;
    assert!(
        int8_img < 0.8 * f32_img,
        "Int8 per-image {int8_img:.4}s not meaningfully faster than f32 {f32_img:.4}s"
    );
    // Offer load between the two capacities: f32 falls behind, Int8 keeps up.
    let spacing = (f32_img + int8_img) / 2.0;
    let deadline = 8.0 * f32_img;
    let mut reqs: Vec<Request> = (0..120)
        .map(|i| Request {
            id: i as u64,
            model: Model::MobileNetV1,
            arrival_s: i as f64 * spacing,
            deadline_s: Some(deadline),
            input: None,
        })
        .collect();
    // A straggler long after the burst: a promoted-back server must serve
    // it on the primary (full-precision) deployment again.
    reqs.push(Request {
        id: 9999,
        model: Model::MobileNetV1,
        arrival_s: 120.0 * spacing + 300.0 * f32_img,
        deadline_s: None,
        input: None,
    });
    let scfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_s: spacing,
        },
        admission: AdmissionPolicy {
            queue_capacity: 64,
            default_deadline_s: None,
        },
        fault: Default::default(),
        brownout: BrownoutPolicy {
            window_s: 40.0 * spacing,
            promote_idle_s: 60.0 * f32_img,
            ..brownout
        },
    };
    Server::new(pool, scfg).run_open_loop(reqs)
}

#[test]
fn brownout_sheds_strictly_less_than_shedding_through_overload() {
    let off = overload_run(BrownoutPolicy::default());
    let on = overload_run(BrownoutPolicy {
        enabled: true,
        trigger_sheds: 3,
        ..Default::default()
    });
    assert!(
        !off.sheds.is_empty(),
        "the overload trace must shed without brownout (got {} sheds)",
        off.sheds.len()
    );
    assert!(
        on.sheds.len() < off.sheds.len(),
        "brownout must shed strictly less: {} vs {}",
        on.sheds.len(),
        off.sheds.len()
    );
    assert!(
        on.completions.iter().any(|c| c.brownout),
        "some requests must be served by the relaxed-precision variant"
    );
    let m = &[("model", "MobileNetV1")];
    assert_eq!(
        on.registry.value(
            "serve_brownout_switches_total",
            &[("model", "MobileNetV1"), ("direction", "enter")]
        ),
        Some(1.0)
    );
    assert!(
        on.registry
            .value("serve_requests_brownout_total", m)
            .unwrap_or(0.0)
            >= 1.0
    );
    // The straggler after the idle gap rides the promoted-back primary.
    let tail = on
        .completions
        .iter()
        .find(|c| c.id == 9999)
        .expect("straggler completes");
    assert!(
        !tail.brownout,
        "post-idle traffic must use the primary deployment again"
    );
    assert_eq!(
        on.registry.value(
            "serve_brownout_switches_total",
            &[("model", "MobileNetV1"), ("direction", "exit")]
        ),
        Some(1.0)
    );
    // Brownout events land in the recovery log.
    assert!(on.recovery.iter().any(|e| e.action == "brownout-enter"));
    assert!(on.recovery.iter().any(|e| e.action == "brownout-exit"));
    // Disabled brownout leaves zero trace in the registry.
    assert_eq!(
        off.registry.value(
            "serve_brownout_switches_total",
            &[("model", "MobileNetV1"), ("direction", "enter")]
        ),
        None
    );
}

fn precision_variant(model: Model, platform: FpgaPlatform, p: Precision) -> OptimizationConfig {
    let mut v = optimized_config(model, platform);
    v.aoc = AocOptions::with_precision(p);
    v.label = format!("{}-{p:?}", v.label);
    v
}

/// Overload heavy enough to shed at every rung walks the whole ladder
/// down (enter, then one descend per fresh shed window), and the idle
/// tail climbs back one rung per promotion window (ascend, ascend, exit).
#[test]
fn brownout_ladder_descends_and_ascends_one_rung_at_a_time() {
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Mx);
    let model = Model::MobileNetV1;
    let cfg = optimized_config(model, FpgaPlatform::Stratix10Mx);
    pool.deploy(d, model, &cfg).unwrap();
    let ladder: Vec<OptimizationConfig> = [Precision::Fp16, Precision::Int16, Precision::Int8]
        .iter()
        .map(|&p| precision_variant(model, FpgaPlatform::Stratix10Mx, p))
        .collect();
    pool.deploy_brownout_ladder(d, model, &ladder).unwrap();
    assert_eq!(pool.brownout_rungs(model), 3);

    let dev = &pool.devices()[0];
    let f32_img = dev.latency_model(model).unwrap().seconds(4) / 4.0;
    // Offer load past even the narrowest rung's capacity: sheds persist at
    // every rung, so the server descends until the ladder runs out.
    let spacing = 0.2 * f32_img;
    let deadline = 8.0 * f32_img;
    let promote_idle = 60.0 * f32_img;
    let mut reqs: Vec<Request> = (0..120)
        .map(|i| Request {
            id: i as u64,
            model,
            arrival_s: i as f64 * spacing,
            deadline_s: Some(deadline),
            input: None,
        })
        .collect();
    // Four stragglers, each its own promotion window after the last: the
    // first three each climb one rung (3 -> 2 -> 1 -> 0), the fourth rides
    // the restored primary.
    let burst_end = 120.0 * spacing;
    for k in 0..4u64 {
        reqs.push(Request {
            id: 9000 + k,
            model,
            arrival_s: burst_end + 300.0 * f32_img + k as f64 * 1.5 * promote_idle,
            deadline_s: None,
            input: None,
        });
    }
    let scfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_s: spacing,
        },
        admission: AdmissionPolicy {
            queue_capacity: 64,
            default_deadline_s: None,
        },
        fault: Default::default(),
        brownout: BrownoutPolicy {
            enabled: true,
            trigger_sheds: 3,
            window_s: 40.0 * spacing,
            promote_idle_s: promote_idle,
        },
    };
    let r = Server::new(pool, scfg).run_open_loop(reqs);

    let m = "MobileNetV1";
    let switches = |direction: &str| {
        r.registry
            .value(
                "serve_brownout_switches_total",
                &[("model", m), ("direction", direction)],
            )
            .unwrap_or(0.0)
    };
    assert_eq!(switches("enter"), 1.0, "one 0 -> 1 transition");
    assert_eq!(switches("descend"), 2.0, "rungs 2 and 3 reached once each");
    assert_eq!(switches("ascend"), 2.0, "rungs 2 and 1 on the way back");
    assert_eq!(switches("exit"), 1.0, "one 1 -> 0 transition");
    let actions: Vec<&str> = r
        .recovery
        .iter()
        .filter(|e| e.action.starts_with("brownout-"))
        .map(|e| e.action.as_str())
        .collect();
    assert_eq!(
        actions,
        [
            "brownout-enter",
            "brownout-descend",
            "brownout-descend",
            "brownout-ascend",
            "brownout-ascend",
            "brownout-exit",
        ],
        "transitions move one rung at a time in both directions"
    );
    let deepest = r.completions.iter().map(|c| c.brownout_rung).max().unwrap();
    assert_eq!(deepest, 3, "the narrowest rung served traffic");
    for c in &r.completions {
        assert_eq!(c.brownout, c.brownout_rung > 0);
    }
    // Stragglers observe the staged ascent: each one rung wider than the
    // last, the final two on the primary deployment.
    let straggler_rungs: Vec<usize> = (0..4u64)
        .map(|k| {
            r.completions
                .iter()
                .find(|c| c.id == 9000 + k)
                .expect("straggler completes")
                .brownout_rung
        })
        .collect();
    assert_eq!(straggler_rungs, [2, 1, 0, 0]);
}

#[test]
fn brownout_variant_passes_verification_at_relaxed_tolerance() {
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Sx);
    let cfg = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    pool.deploy(d, Model::LeNet5, &cfg).unwrap();
    pool.deploy_brownout_ladder(
        d,
        Model::LeNet5,
        &[int8_variant(Model::LeNet5, FpgaPlatform::Stratix10Sx)],
    )
    .unwrap();
    let dev = &pool.devices()[d];
    let b = dev
        .brownout_deployment(Model::LeNet5)
        .expect("variant staged");
    assert_ne!(
        b.config.label,
        dev.deployment(Model::LeNet5).unwrap().config.label
    );
    verify_deployment(b, &data::synthetic_digit(2, 0), 5e-2)
        .expect("brownout kernels verify at relaxed tolerance");
}

// ---------------------------------------------------------------------------
// Nightly soaks
// ---------------------------------------------------------------------------

#[test]
#[ignore = "seeded soak for the nightly lane"]
fn rollout_soak_survives_heavier_fault_plans() {
    for seed in 10..=25u64 {
        let plan = FaultPlan::generate(
            seed,
            &FaultSpec::budget(12, &["s10sx-0", "s10sx-1", "s10sx-2", "*"], 0.03),
        );
        let injector = FaultInjector::new(plan);
        let tracer = Tracer::enabled();
        let pool = lenet_pool(3, &injector);
        let spec = RolloutSpec {
            at_s: 1e-3 + (seed % 7) as f64 * 1e-3,
            model: Model::LeNet5,
            to: relabeled_optimized(),
            verify_input: None,
            adopt: Vec::new(),
            policy: RolloutPolicy {
                wave_size: 1 + (seed as usize % 3),
                ..fast_policy()
            },
        };
        let r = Server::new(pool, cfg())
            .with_tracer(&tracer)
            .with_rollout(spec)
            .run_open_loop(trace(200, 1.5e-4));
        accounted(&r, 200);
        assert_drain_invariant(&tracer, &r, 3);
    }
}

#[test]
#[ignore = "full MobileNet Int8 host-reference verification (minutes in release)"]
fn mobilenet_brownout_variant_verifies_at_relaxed_tolerance() {
    let pool = mobilenet_pool();
    let b = pool.devices()[0]
        .brownout_deployment(Model::MobileNetV1)
        .expect("variant staged");
    verify_deployment(b, &data::imagenet_input(11), 5e-2)
        .expect("MobileNet Int8 brownout kernels verify at relaxed tolerance");
}
