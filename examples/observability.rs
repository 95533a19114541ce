//! Observability: attach an SLO burn-rate monitor, a hot-path profiler
//! and an anomaly flight recorder to a serving run, trip the latency
//! objective, and read the resulting alert and postmortem.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! The run serves LeNet-5 on one Stratix 10 SX under a latency SLO whose
//! target sits *below* what the device can deliver, so the error budget
//! burns orders of magnitude too fast: the multi-window monitor pages,
//! the breach lands in the recovery log, and the flight recorder freezes
//! the lead-up window into a postmortem JSON document.

use fpgaccel::core::bitstreams::optimized_config;
use fpgaccel::device::FpgaPlatform;
use fpgaccel::serve::loadgen::open_loop_poisson;
use fpgaccel::serve::{AdmissionPolicy, BatchPolicy, DevicePool, ServeConfig, Server, SloPolicy};
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{FlightRecorder, HotPathProfiler, Registry};

fn main() {
    // One device, one model.
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Sx);
    pool.deploy(
        d,
        Model::LeNet5,
        &optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx),
    )
    .expect("LeNet deploys");

    // A latency objective the hardware cannot meet: LeNet completes in
    // about a millisecond, the target demands a microsecond. 99% of
    // requests must beat the target; every one misses.
    let slo = SloPolicy::new(Model::LeNet5, 1e-6);
    println!(
        "SLO: {} p{:.0} latency <= {:.0} us, alert when both burn windows exceed {}x budget",
        Model::LeNet5.name(),
        100.0 * slo.latency_objective,
        slo.latency_target_s * 1e6,
        slo.burn_threshold,
    );

    let registry = Registry::default();
    let flight = FlightRecorder::enabled(64);
    let profiler = HotPathProfiler::enabled();
    let result = Server::new(
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
    .with_registry(&registry)
    .with_slo(slo)
    .with_flight_recorder(&flight)
    .with_profiler(&profiler)
    .run_open_loop(open_loop_poisson(11, 1000.0, 200, &[Model::LeNet5]));

    println!(
        "\nRun: {} completed, {} shed, p99 {:.2} ms",
        result.metrics.completed,
        result.metrics.shed(),
        result.metrics.latency.quantile(0.99) * 1e3,
    );

    // 1. The burn-rate alert: both windows over threshold at fire time.
    for a in &result.slo_alerts {
        println!(
            "SLO ALERT t={:.1} ms: {} {} burning {:.0}x (fast) / {:.0}x (slow) of budget",
            a.t_s * 1e3,
            a.model.name(),
            a.slo.label(),
            a.fast_burn,
            a.slow_burn,
        );
    }

    // 2. The same breach through the metrics registry.
    let burn = |window: &str| {
        registry
            .value(
                "serve_slo_burn_rate_ratio",
                &[
                    ("model", Model::LeNet5.name()),
                    ("slo", "latency"),
                    ("window", window),
                ],
            )
            .unwrap_or(0.0)
    };
    println!(
        "Registry: serve_slo_burn_rate_ratio fast={:.0} slow={:.0}, serve_profile_events_total={:.0}",
        burn("fast"),
        burn("slow"),
        registry
            .value("serve_profile_events_total", &[])
            .unwrap_or(0.0),
    );

    // 3. The postmortem: the frozen lead-up window behind the breach.
    let pm = result
        .postmortems
        .iter()
        .find(|p| p.trigger == "slo-breach")
        .expect("the breach froze a postmortem");
    println!(
        "\nPostmortem: trigger {} on {} at {:.1} ms, {} events in window ({} aged out)",
        pm.trigger,
        pm.subject,
        pm.t_s * 1e3,
        pm.events.len(),
        pm.dropped,
    );
    for e in pm
        .events
        .iter()
        .rev()
        .take(5)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!(
            "  t={:7.3} ms [{}] {:<10} {:<12} {}",
            e.t_s * 1e3,
            e.lane,
            e.kind(),
            e.subject(),
            e.detail()
        );
    }
    println!(
        "\nFull postmortem JSON is self-contained ({} bytes) — write it next to the incident:",
        pm.to_json().len()
    );
    let json = pm.to_json();
    for line in json.lines().take(4) {
        println!("  {line}");
    }
    println!("  ...");
}
