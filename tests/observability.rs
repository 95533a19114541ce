//! End-to-end observability: a serving run that breaches its latency SLO
//! must page through the burn-rate monitor *and* leave a flight-recorder
//! postmortem from which the incident timeline can be reconstructed.

use fpgaccel::core::bitstreams::optimized_config;
use fpgaccel::device::FpgaPlatform;
use fpgaccel::serve::loadgen::open_loop_poisson;
use fpgaccel::serve::{
    AdmissionPolicy, BatchPolicy, DevicePool, RunResult, ServeConfig, Server, SloKind, SloPolicy,
};
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::FlightRecorder;

/// A run whose latency target is far below what the device can deliver:
/// every completion violates the target, so the latency SLO burns its
/// error budget orders of magnitude too fast and must page.
fn breaching_run(flight: &FlightRecorder) -> RunResult {
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Sx);
    pool.deploy(
        d,
        Model::LeNet5,
        &optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx),
    )
    .expect("LeNet deploys");
    let trace = open_loop_poisson(11, 1000.0, 200, &[Model::LeNet5]);
    Server::new(
        pool,
        ServeConfig {
            batch: BatchPolicy {
                max_batch: 8,
                max_wait_s: 2e-3,
            },
            admission: AdmissionPolicy {
                queue_capacity: 64,
                default_deadline_s: None,
            },
            fault: Default::default(),
            brownout: Default::default(),
        },
    )
    // LeNet completes in ~1 ms; a 1 µs target is unmeetable by design.
    .with_slo(SloPolicy::new(Model::LeNet5, 1e-6))
    .with_flight_recorder(flight)
    .run_open_loop(trace)
}

#[test]
fn slo_breach_pages_and_produces_a_postmortem_timeline() {
    let flight = FlightRecorder::enabled(64);
    let r = breaching_run(&flight);

    // The burn-rate monitor paged on the latency objective.
    let alert = r
        .slo_alerts
        .iter()
        .find(|a| a.slo == SloKind::Latency)
        .expect("unmeetable latency target must page");
    assert_eq!(alert.model, Model::LeNet5);
    assert!(
        alert.fast_burn >= alert.threshold && alert.slow_burn >= alert.threshold,
        "both windows must burn past the threshold: fast {} slow {} threshold {}",
        alert.fast_burn,
        alert.slow_burn,
        alert.threshold
    );

    // The alert landed in the recovery log and in the registry.
    assert!(
        r.recovery
            .iter()
            .any(|e| e.action == "slo-breach" && e.subject == Model::LeNet5.name()),
        "slo-breach must appear in the recovery log"
    );
    let alerts_metric = r
        .registry
        .value(
            "serve_slo_alerts_total",
            &[("model", Model::LeNet5.name()), ("slo", "latency")],
        )
        .unwrap_or(0.0);
    assert!(
        alerts_metric >= 1.0,
        "serve_slo_alerts_total not incremented"
    );
    assert!(
        r.registry
            .value(
                "serve_slo_burn_rate_ratio",
                &[
                    ("model", Model::LeNet5.name()),
                    ("slo", "latency"),
                    ("window", "fast")
                ],
            )
            .is_some(),
        "burn-rate gauge must be exported"
    );

    // The flight recorder froze a postmortem at the breach.
    let pm = r
        .postmortems
        .iter()
        .find(|p| p.trigger == "slo-breach")
        .expect("the breach must trigger a postmortem");
    assert_eq!(pm.subject, Model::LeNet5.name());
    assert!((pm.t_s - alert.t_s).abs() < 1e-12, "snapshot at alert time");

    // The timeline reconstructs the incident: completions precede the
    // trigger in chronological order, each tagged with its latency.
    assert!(!pm.events.is_empty(), "window must hold the lead-up events");
    assert!(
        pm.events.windows(2).all(|w| w[0].t_s <= w[1].t_s),
        "window is chronological"
    );
    assert!(
        pm.events.iter().all(|e| e.t_s <= pm.t_s + 1e-12),
        "every window event precedes the trigger"
    );
    assert!(
        pm.events
            .iter()
            .any(|e| e.kind() == "completion" && e.detail().contains("latency")),
        "window shows the completions whose latencies burned the budget"
    );

    // The postmortem is a self-contained JSON document.
    let j = fpgaccel::trace::json::Json::parse(&pm.to_json()).expect("postmortem JSON parses");
    assert_eq!(
        j.get("trigger")
            .and_then(|t| t.get("kind"))
            .and_then(|k| k.as_str()),
        Some("slo-breach")
    );
    assert!(
        j.get("events")
            .and_then(|e| e.as_array())
            .is_some_and(|a| !a.is_empty()),
        "serialized postmortem carries the event window"
    );
}

#[test]
fn breach_run_is_deterministic_down_to_the_postmortems() {
    let render = |r: &RunResult| {
        r.postmortems
            .iter()
            .map(|p| p.to_json())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = breaching_run(&FlightRecorder::enabled(64));
    let b = breaching_run(&FlightRecorder::enabled(64));
    assert_eq!(render(&a), render(&b));
    assert_eq!(a.slo_alerts.len(), b.slo_alerts.len());
}
