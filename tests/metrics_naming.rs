//! Enforces the repository metric-naming convention end to end: every
//! family a full serving run, a pipeline plan, a tuning pass and the
//! hot-path profilers export into one registry must survive
//! `Registry::audit_names` with zero violations.
//!
//! The audit checks snake_case, a known subsystem prefix, `_total` on
//! counters and a base-unit suffix on histograms and gauges — so a new
//! metric with a nonconforming name fails this test the moment it is
//! first exported, not when a dashboard query breaks.

use fpgaccel::core::bitstreams::{mobilenet_tile, optimized_config};
use fpgaccel::core::{tune_pipeline, ExecutionPlan, Flow, OptimizationConfig, TilingPreset};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::fleet::{
    device_rate, DeviceClass, Fleet, FleetConfig, FleetSpec, ModelDemand, TenantLoad, TenantPolicy,
};
use fpgaccel::pipeline::record_plan_metrics;
use fpgaccel::serve::loadgen::{open_loop_poisson, with_deadline};
use fpgaccel::serve::{
    AdmissionPolicy, BatchPolicy, DeploymentCache, DevicePool, ServeConfig, Server, SloPolicy,
};
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{HotPathProfiler, Registry, Tracer};
use fpgaccel::tune::TuningDb;

#[test]
fn every_exported_metric_family_conforms_to_the_naming_convention() {
    let reg = Registry::default();

    // Serve: a short single-device run with the SLO monitor and hot-path
    // profiler attached, so serve_* families (histograms, health gauges,
    // SLO burn gauges, serve_profile_* counters) all register.
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Sx);
    pool.deploy(
        d,
        Model::LeNet5,
        &optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx),
    )
    .expect("LeNet deploys");
    let trace = with_deadline(open_loop_poisson(7, 1500.0, 300, &[Model::LeNet5]), 0.05);
    let profiler = HotPathProfiler::enabled();
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
    .with_registry(&reg)
    .with_slo(SloPolicy::new(Model::LeNet5, 0.01))
    .with_profiler(&profiler)
    .run_open_loop(trace);

    // Pipeline: plan metrics from a compiled dataflow deployment.
    let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let dep = flow
        .compile(&OptimizationConfig::dataflow(TilingPreset::Naive))
        .expect("dataflow compiles");
    let ExecutionPlan::Dataflow(plan) = &dep.plan else {
        panic!("dataflow config must produce a dataflow plan");
    };
    record_plan_metrics(&reg, Model::LeNet5.name(), &plan.summary);

    // Tune: one autotuning pass registers tune_* families.
    let base = OptimizationConfig::dataflow(TilingPreset::MobileNet {
        one_by_one: mobilenet_tile(FpgaPlatform::Stratix10Sx),
    });
    let mobilenet = Flow::new(Model::MobileNetV1, FpgaPlatform::Stratix10Sx);
    tune_pipeline(
        &mobilenet,
        base,
        &mut TuningDb::new(),
        &Tracer::disabled(),
        &reg,
    )
    .expect("tuning finds a candidate");

    // Sim: the runtime's hot-path profiler exports under the sim_ prefix.
    let sim_profiler = HotPathProfiler::enabled();
    let probe = sim_profiler.begin();
    sim_profiler.end(probe);
    sim_profiler.export(&reg, "sim");

    assert!(
        reg.family_count() >= 20,
        "expected a broad registry, got {} families",
        reg.family_count()
    );
    let violations = reg.audit_names(&["serve_", "pipeline_", "tune_", "sim_"]);
    assert!(
        violations.is_empty(),
        "metric naming violations:\n{}",
        violations.join("\n")
    );

    // Fleet: a two-shard LeNet fleet run exports the class-aggregated
    // fleet_* families into its own registry; they must pass the same
    // audit (the shard-scoped serve_* families were audited above).
    let rate = device_rate(
        &mut DeploymentCache::new(),
        Model::LeNet5,
        FpgaPlatform::Stratix10Sx,
    )
    .expect("LeNet compiles");
    let spec = FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 2,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: 1.2 * rate,
        }],
        headroom: 0.2,
        domains: 1,
    };
    let fleet = Fleet::build(
        &spec,
        FleetConfig {
            shards: 2,
            ..FleetConfig::default()
        },
        &mut TuningDb::new(),
    )
    .expect("the two-board fleet places");
    let capacity = fleet.capacity_rps();
    let r = fleet.run(
        &[TenantLoad {
            policy: TenantPolicy {
                name: "solo".into(),
                weight: 1.0,
                budget_rps: capacity,
                burst: 20.0,
            },
            offered: vec![(Model::LeNet5, 0.5 * capacity)],
        }],
        0.05,
    );
    assert!(
        r.registry.family_count() >= 14,
        "expected the fleet_* families, got {}",
        r.registry.family_count()
    );
    // The resilience families register (at zero) even in a fault-free
    // run, so a renamed family fails here — not on a dashboard.
    for family in [
        "fleet_domains_count",
        "fleet_hedges_total",
        "fleet_hedge_wins_total",
        "fleet_hedge_suppressed_total",
        "fleet_failover_replays_total",
        "fleet_forced_routes_total",
    ] {
        assert!(
            r.registry.value(family, &[]).is_some(),
            "{family} missing from the fleet registry"
        );
    }
    assert!(
        r.registry
            .value("fleet_breaker_transitions_total", &[("to", "open")])
            .is_some(),
        "fleet_breaker_transitions_total missing"
    );
    assert!(
        r.registry
            .value("fleet_heal_events_total", &[("outcome", "replaced")])
            .is_some(),
        "fleet_heal_events_total missing"
    );
    let violations = r.registry.audit_names(&["fleet_"]);
    assert!(
        violations.is_empty(),
        "fleet metric naming violations:\n{}",
        violations.join("\n")
    );
}
