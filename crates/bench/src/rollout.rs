//! The `rollout` experiment: safe live upgrades of a serving pool.
//!
//! The three-device serve pool runs the co-served LeNet+MobileNet mix
//! while three rollouts execute against live traffic: a MobileNet upgrade
//! to the auto-tuned folded configuration that a committed fault plan
//! sabotages (one reprogram failure absorbed by retry, then a corrupted
//! canary shadow batch forcing an automatic rollback), a clean retry of
//! the same upgrade that promotes wave by wave, and a canary-verified
//! LeNet upgrade checked against the host reference. Every request
//! completes — drained devices hand their traffic to the rest of the pool
//! — and the whole scenario reproduces byte for byte.
//!
//! A second section browns MobileNet out under overload: with a
//! pre-deployed Int8 variant staged, the server trades precision for
//! availability and sheds strictly less than the same trace without
//! brownout.
//!
//! Environment knob: `FPGACCEL_ROLLOUT_REPORT` names a JSON file to write
//! the machine-readable summary to (for CI).

use crate::serving::{build_pool_injected, deadline_free_trace, tuned_config};
use crate::table::Table;
use fpgaccel_aoc::{AocOptions, Precision};
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{shadow_target, FaultEvent, FaultInjector, FaultKind, FaultPlan};
use fpgaccel_serve::{
    AdmissionPolicy, BatchPolicy, BrownoutPolicy, DevicePool, Request, RolloutOutcome,
    RolloutPolicy, RolloutSpec, RunResult, ServeConfig, Server,
};
use fpgaccel_tensor::{data, models::Model};
use fpgaccel_trace::json::Json;
use fpgaccel_trace::{FlightRecorder, Tracer};

/// Seed recorded on the committed plan (provenance only — the schedule is
/// hand-written).
const ROLLOUT_SEED: u64 = 0x5AFE;

/// When the sabotaged MobileNet upgrade starts.
const UPGRADE_1_S: f64 = 0.05;
/// When the clean retry starts.
const UPGRADE_2_S: f64 = 0.18;
/// When the canary-verified LeNet upgrade starts.
const UPGRADE_3_S: f64 = 0.30;

/// The committed sabotage: the first reprogram attempt of the upgrade
/// fails (absorbed by retry), and the canary's shadow read-back is
/// corrupted — targeted at `s10sx-0#shadow` so production batches cannot
/// consume the event — forcing an automatic rollback.
pub fn committed_plan() -> FaultPlan {
    FaultPlan::new(
        ROLLOUT_SEED,
        vec![
            FaultEvent {
                at_s: UPGRADE_1_S,
                target: "s10sx-0".into(),
                kind: FaultKind::ReprogramFail,
            },
            FaultEvent {
                at_s: UPGRADE_1_S,
                target: shadow_target("s10sx-0"),
                kind: FaultKind::TransferCorrupt,
            },
        ],
    )
}

/// The three scheduled rollouts of the committed scenario.
fn rollout_specs() -> Vec<RolloutSpec> {
    let mut lenet_v2 = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    lenet_v2.label = format!("{}-v2", lenet_v2.label);
    let mobilenet = |at_s| RolloutSpec {
        at_s,
        model: Model::MobileNetV1,
        to: tuned_config(),
        verify_input: None,
        adopt: Vec::new(),
        policy: RolloutPolicy::default(),
    };
    vec![
        mobilenet(UPGRADE_1_S),
        mobilenet(UPGRADE_2_S),
        RolloutSpec {
            at_s: UPGRADE_3_S,
            model: Model::LeNet5,
            to: lenet_v2,
            verify_input: Some(data::synthetic_digit(3, 7)),
            adopt: Vec::new(),
            policy: RolloutPolicy::default(),
        },
    ]
}

/// Offered load relative to full-pool capacity, with headroom for the
/// drained devices' traffic to land elsewhere.
const ROLLOUT_LOAD: f64 = 0.75;

/// Runs the committed scenario (sabotage plan and the three rollouts) with
/// `tracer` and `flight` attached. Returns the offered request count and
/// the run.
pub fn run_committed(tracer: &Tracer, flight: &FlightRecorder) -> (usize, RunResult) {
    let injector = FaultInjector::new(committed_plan());
    let pool = build_pool_injected(&Tracer::disabled(), &injector);
    // Deadline-free: a request delayed by a draining device still counts.
    let trace = deadline_free_trace(&pool, ROLLOUT_LOAD);
    let offered = trace.len();
    let mut server = Server::new(
        pool,
        ServeConfig {
            // Deep queue, no deadlines: during a wave the surviving
            // devices fall behind by design — requests queue up and drain
            // after promotion instead of shedding, so the acceptance bar
            // is 100% of offered load completed through the upgrade.
            admission: AdmissionPolicy {
                queue_capacity: 4096,
                default_deadline_s: None,
            },
            ..ServeConfig::default()
        },
    )
    .with_tracer(tracer)
    .with_flight_recorder(flight);
    for spec in rollout_specs() {
        server.schedule_rollout(spec);
    }
    (offered, server.run_open_loop(trace))
}

/// A stable single-line digest of a committed run, for the determinism
/// check.
fn digest(offered: usize, r: &RunResult) -> String {
    let rollouts: Vec<String> = r
        .rollouts
        .iter()
        .flat_map(|rep| {
            rep.events
                .iter()
                .map(|e| format!("{:.9}:{}:{}", e.t_s, e.device, e.action))
        })
        .collect();
    let devices: Vec<String> = r
        .devices
        .iter()
        .flat_map(|d| {
            d.deployments
                .iter()
                .map(|(m, l)| format!("{}:{}:{l}", d.device, m.name()))
        })
        .collect();
    format!(
        "offered={offered} completed={} shed={} failed={} rollouts=[{}] devices=[{}]",
        r.metrics.completed,
        r.metrics.shed(),
        r.failures.len(),
        rollouts.join(","),
        devices.join(",")
    )
}

// ---------------------------------------------------------------------------
// Brownout sub-experiment
// ---------------------------------------------------------------------------

/// MobileNet on the two Stratix 10 parts, with the Int8 relaxed-precision
/// variant pre-deployed as the brownout fallback.
fn brownout_pool() -> DevicePool {
    let mut pool = DevicePool::new();
    for p in [FpgaPlatform::Stratix10Sx, FpgaPlatform::Stratix10Mx] {
        let d = pool.add_device(p);
        let cfg = optimized_config(Model::MobileNetV1, p);
        pool.deploy(d, Model::MobileNetV1, &cfg).unwrap();
        let mut int8 = cfg.clone();
        int8.aoc = AocOptions::with_precision(Precision::Int8);
        int8.label = format!("{}-Int8", int8.label);
        pool.deploy_brownout_ladder(d, Model::MobileNetV1, &[int8])
            .unwrap();
    }
    pool
}

struct BrownoutOutcome {
    offered: usize,
    completed: u64,
    shed: usize,
    brownout_served: f64,
    switches_enter: f64,
    switches_exit: f64,
}

/// Runs the overload trace with brownout `enabled` or not. The offered
/// rate sits between the pool's full-precision and Int8 capacities, so
/// the primary deployment falls behind while the relaxed-precision
/// variant keeps up.
fn brownout_run(enabled: bool) -> BrownoutOutcome {
    let pool = brownout_pool();
    let (mut f32_rate, mut int8_rate, mut max_img) = (0.0f64, 0.0f64, 0.0f64);
    for d in pool.devices() {
        let f = d.latency_model(Model::MobileNetV1).unwrap().seconds(4) / 4.0;
        let i = d
            .brownout_latency_model(Model::MobileNetV1)
            .unwrap()
            .seconds(4)
            / 4.0;
        f32_rate += 1.0 / f;
        int8_rate += 1.0 / i;
        max_img = max_img.max(f);
    }
    let spacing = 2.0 / (f32_rate + int8_rate);
    let deadline = 8.0 * max_img;
    let offered = 161usize;
    let mut reqs: Vec<Request> = (0..offered - 1)
        .map(|i| Request {
            id: i as u64,
            model: Model::MobileNetV1,
            arrival_s: i as f64 * spacing,
            deadline_s: Some(deadline),
            input: None,
        })
        .collect();
    // One straggler after the burst: the idle gap exceeds
    // `promote_idle_s`, so the browned-out pool promotes back to full
    // precision and the straggler is served at f32.
    reqs.push(Request {
        id: offered as u64,
        model: Model::MobileNetV1,
        arrival_s: (offered - 2) as f64 * spacing + 300.0 * max_img,
        deadline_s: Some(deadline),
        input: None,
    });
    let r = Server::new(
        pool,
        ServeConfig {
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_s: spacing,
            },
            brownout: BrownoutPolicy {
                enabled,
                trigger_sheds: 4,
                window_s: 40.0 * spacing,
                promote_idle_s: 60.0 * max_img,
            },
            ..ServeConfig::default()
        },
    )
    .run_open_loop(reqs);
    let lbl = |dir: &str| {
        r.registry
            .value(
                "serve_brownout_switches_total",
                &[("model", "MobileNetV1"), ("direction", dir)],
            )
            .unwrap_or(0.0)
    };
    BrownoutOutcome {
        offered,
        completed: r.metrics.completed,
        shed: r.sheds.len(),
        brownout_served: r
            .registry
            .value("serve_requests_brownout_total", &[("model", "MobileNetV1")])
            .unwrap_or(0.0),
        switches_enter: lbl("enter"),
        switches_exit: lbl("exit"),
    }
}

/// The machine-readable summary written to `FPGACCEL_ROLLOUT_REPORT` for
/// the CI smoke job.
fn json_report(
    offered: usize,
    r: &RunResult,
    deterministic: bool,
    off: &BrownoutOutcome,
    on: &BrownoutOutcome,
) -> String {
    let rollouts = r.rollouts.iter().map(|rep| {
        Json::obj([
            ("model", rep.model.name().into()),
            ("to", rep.to_label.as_str().into()),
            ("outcome", rep.outcome.label().into()),
            ("waves", rep.waves.into()),
            ("converted", rep.devices_converted.into()),
            ("lost", rep.devices_lost.into()),
            (
                "canary_failure",
                rep.canary_failure
                    .as_ref()
                    .map_or(Json::Null, |f| f.label().into()),
            ),
        ])
    });
    let count = |outcome| {
        r.rollouts
            .iter()
            .filter(|rep| rep.outcome == outcome)
            .count()
    };
    Json::obj([
        ("seed", ROLLOUT_SEED.into()),
        ("offered", offered.into()),
        ("completed", r.metrics.completed.into()),
        ("shed", r.metrics.shed().into()),
        ("failed", r.failures.len().into()),
        (
            "completion_rate",
            (r.metrics.completed as f64 / offered as f64).into(),
        ),
        ("rollbacks", count(RolloutOutcome::RolledBack).into()),
        ("promoted", count(RolloutOutcome::Promoted).into()),
        ("deterministic", deterministic.into()),
        ("rollouts", Json::Arr(rollouts.collect())),
        (
            "brownout",
            Json::obj([
                ("sheds_disabled", off.shed.into()),
                ("sheds_enabled", on.shed.into()),
                ("brownout_served", on.brownout_served.into()),
                ("switches_enter", on.switches_enter.into()),
                ("switches_exit", on.switches_exit.into()),
            ]),
        ),
    ])
    .render()
}

/// The `rollout` experiment report.
pub fn rollout() -> String {
    // The committed scenario, traced, run twice for the determinism check.
    let tracer = Tracer::enabled();
    let (offered, r) = run_committed(&tracer, &FlightRecorder::disabled());
    let (_, second) = run_committed(&Tracer::disabled(), &FlightRecorder::disabled());
    let deterministic = digest(offered, &r) == digest(offered, &second);

    let plan = committed_plan();

    let mut outcomes = Table::new(
        "Rollouts — live upgrades against the committed sabotage (0.75x load)",
        &[
            "rollout",
            "model",
            "target",
            "outcome",
            "waves",
            "converted",
            "lost",
            "canary failure",
            "t0 ms",
            "t1 ms",
        ],
    );
    for (k, rep) in r.rollouts.iter().enumerate() {
        outcomes.row(&[
            format!("#{}", k + 1),
            rep.model.name().into(),
            rep.to_label.clone(),
            rep.outcome.label().into(),
            rep.waves.to_string(),
            rep.devices_converted.to_string(),
            rep.devices_lost.to_string(),
            rep.canary_failure
                .as_ref()
                .map(|f| f.label().to_string())
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", rep.started_s * 1e3),
            format!("{:.1}", rep.finished_s * 1e3),
        ]);
    }

    let mut log = Table::new(
        "Rollouts — event log (committed scenario)",
        &["rollout", "t ms", "device", "action", "detail"],
    );
    for (k, rep) in r.rollouts.iter().enumerate() {
        for e in &rep.events {
            log.row(&[
                format!("#{}", k + 1),
                format!("{:.3}", e.t_s * 1e3),
                e.device.clone(),
                e.action.clone(),
                e.detail.clone(),
            ]);
        }
    }

    let mut serving = Table::new(
        "Rollouts — end-of-run serving state",
        &["device", "health", "model", "configuration"],
    );
    for d in &r.devices {
        for (m, label) in &d.deployments {
            serving.row(&[
                d.device.clone(),
                d.health.into(),
                m.name().into(),
                label.clone(),
            ]);
        }
    }

    // Rollout machinery visible in the trace export.
    let spans = tracer.events();
    let span_count = |cat: &str| spans.iter().filter(|e| e.cat == cat).count();
    let span_line = format!(
        "Trace: {} rollout, {} canary, {} reprogram span(s)/marker(s).",
        span_count("rollout"),
        span_count("canary"),
        span_count("reprogram"),
    );

    // Brownout: the identical overload trace with and without the
    // pre-deployed Int8 variant allowed to serve.
    let off = brownout_run(false);
    let on = brownout_run(true);
    assert!(
        on.shed < off.shed,
        "brownout must shed strictly less than shedding through overload ({} vs {})",
        on.shed,
        off.shed
    );
    let mut brownout = Table::new(
        "Brownout — MobileNet overload, Int8 variant staged on both Stratix 10s",
        &[
            "run",
            "offered",
            "completed",
            "shed",
            "int8-served",
            "switches",
            "completion",
        ],
    );
    for (label, o) in [("shed-only", &off), ("brownout", &on)] {
        brownout.row(&[
            label.into(),
            o.offered.to_string(),
            o.completed.to_string(),
            o.shed.to_string(),
            format!("{:.0}", o.brownout_served),
            format!("{:.0} in / {:.0} out", o.switches_enter, o.switches_exit),
            format!("{:.1}%", 100.0 * o.completed as f64 / o.offered as f64),
        ]);
    }

    if let Ok(path) = std::env::var("FPGACCEL_ROLLOUT_REPORT") {
        std::fs::write(&path, json_report(offered, &r, deterministic, &off, &on))
            .expect("rollout report artifact writes");
    }

    format!(
        "Rollouts — safe live upgrades (seed {ROLLOUT_SEED:#x})\n{}\n{}\n{}\n{}\n{span_line}\n\
         Committed scenario: upgrade #1 absorbs a reprogram failure, then its corrupted canary \
         shadow batch forces an automatic rollback; the clean retry #2 and the canary-verified \
         LeNet upgrade #3 promote. {} of {} offered requests completed ({:.1}%) — drained \
         devices hand their traffic to the rest of the pool.\n\
         Determinism: two runs of the committed scenario are {} (same seed => same sabotage \
         => same rollback, byte for byte).\n{}\n\
         Brownout: under the same overload the browned-out server sheds {} request(s) against \
         {} without it, serving {:.0} request(s) on the relaxed-precision variant and promoting \
         back to full precision once load subsides.",
        plan.render(),
        outcomes.render(),
        log.render(),
        serving.render(),
        r.metrics.completed,
        offered,
        100.0 * r.metrics.completed as f64 / offered as f64,
        if deterministic {
            "identical"
        } else {
            "DIVERGENT"
        },
        brownout.render(),
        on.shed,
        off.shed,
        on.brownout_served,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_scenario_rolls_back_once_then_promotes_cleanly() {
        let (offered, r) = run_committed(&Tracer::disabled(), &FlightRecorder::disabled());
        assert_eq!(
            r.metrics.completed as usize + r.metrics.shed() as usize + r.failures.len(),
            offered
        );
        assert_eq!(
            r.metrics.completed as usize, offered,
            "the deadline-free scenario must complete 100% of the offered load"
        );
        let outcomes: Vec<RolloutOutcome> = r.rollouts.iter().map(|rep| rep.outcome).collect();
        assert_eq!(
            outcomes,
            [
                RolloutOutcome::RolledBack,
                RolloutOutcome::Promoted,
                RolloutOutcome::Promoted
            ]
        );
        // The sabotaged upgrade absorbed one reprogram failure first.
        assert!(r.rollouts[0]
            .events
            .iter()
            .any(|e| e.action == "reprogram-fail"));
        assert_eq!(
            r.rollouts[0].canary_failure,
            Some(fpgaccel_serve::CanaryFailure::ReadbackCorrupt)
        );
        assert_eq!(r.rollouts[0].devices_lost, 0);
        // The retry leaves both MobileNet devices on the tuned config.
        for d in &r.devices {
            for (m, label) in &d.deployments {
                if *m == Model::MobileNetV1 {
                    assert_eq!(label, "Folded-Tuned", "{}", d.device);
                }
                if *m == Model::LeNet5 {
                    assert!(label.ends_with("-v2"), "{}: {label}", d.device);
                }
            }
        }
        assert_eq!(
            r.registry
                .value("serve_rollbacks_total", &[("model", "MobileNetV1")]),
            Some(1.0)
        );
        // Gauges park at the final state per model.
        assert_eq!(
            r.registry
                .value("serve_rollout_state", &[("model", "MobileNetV1")]),
            Some(4.0)
        );
        assert_eq!(
            r.registry
                .value("serve_rollout_state", &[("model", "LeNet-5")]),
            Some(4.0)
        );
    }

    #[test]
    fn rollout_report_is_deterministic() {
        assert_eq!(rollout(), rollout());
    }
}
