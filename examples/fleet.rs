//! Fleet serving: place a heterogeneous inventory, shard it, and drive
//! three tenants — one surging 10× its budget — through consistent-hash
//! routing and a staggered fleet-wide rollout.
//!
//! ```text
//! cargo run --release --example fleet
//! ```
//!
//! The placement optimizer packs demand for LeNet-5 and MobileNetV1 onto
//! a mixed Arria 10 / Stratix 10 SX fleet (the plan is cached in the
//! tuning database, so a second build warm-reloads it with zero probes),
//! the devices are dealt into shards, and a deterministic seeded run
//! routes every admitted request while the QoS door sheds the surging
//! tenant's excess weighted-fair.

use fpgaccel::core::{OptimizationConfig, TilingPreset};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::fleet::{
    DeviceClass, Fleet, FleetConfig, FleetRollout, FleetSpec, ModelDemand, TenantLoad, TenantPolicy,
};
use fpgaccel::serve::RolloutPolicy;
use fpgaccel::tensor::models::Model;
use fpgaccel::tune::TuningDb;

fn main() {
    // Inventory and demand: the optimizer probes each (model, class)
    // pair, drops infeasible ones, and fills fastest-class-first.
    let spec = FleetSpec {
        classes: vec![
            DeviceClass {
                platform: FpgaPlatform::Arria10Gx,
                count: 8,
            },
            DeviceClass {
                platform: FpgaPlatform::Stratix10Sx,
                count: 8,
            },
        ],
        demands: vec![
            ModelDemand {
                model: Model::LeNet5,
                rate_rps: 20_000.0,
            },
            ModelDemand {
                model: Model::MobileNetV1,
                rate_rps: 120.0,
            },
        ],
        headroom: 0.2,
        domains: 1,
    };

    let cfg = FleetConfig {
        shards: 4,
        ..FleetConfig::default()
    };

    let mut db = TuningDb::new();
    let mut fleet = Fleet::build(&spec, cfg.clone(), &mut db).expect("the spec places");
    println!(
        "Placed {} of {} boards across {} shards ({} feasibility probes):",
        fleet.plan().devices_used(),
        16,
        fleet.shards(),
        fleet.plan().evaluations,
    );
    for a in &fleet.plan().assignments {
        println!(
            "  {:12} x{:2} on {:6} @ {:8.1} rps/board",
            a.model.name(),
            a.replicas,
            a.platform.label(),
            a.device_rate_rps,
        );
    }

    // A fleet-wide rollout: MobileNet upgrades to the auto-tuned folded
    // shape, shard by shard.
    let mut to = OptimizationConfig::folded(TilingPreset::Custom1x1 { tile: (7, 8, 8) });
    to.label = "Folded-Tuned".into();
    fleet.schedule_rollout(FleetRollout {
        model: Model::MobileNetV1,
        to,
        start_s: 0.05,
        stagger_s: 0.02,
        retry_at_s: 0.5,
        policy: RolloutPolicy::default(),
    });

    // Three tenants; "burst" offers 10x its budget on LeNet.
    let capacity = fleet.capacity_rps();
    let tenant = |name: &str, weight: f64, budget: f64, offered: Vec<(Model, f64)>| TenantLoad {
        policy: TenantPolicy {
            name: name.into(),
            weight,
            budget_rps: budget,
            burst: 30.0,
        },
        offered,
    };
    let tenants = vec![
        tenant(
            "anchor",
            2.0,
            0.45 * capacity,
            vec![(Model::LeNet5, 0.25 * capacity), (Model::MobileNetV1, 60.0)],
        ),
        tenant(
            "batch",
            1.0,
            0.2 * capacity,
            vec![(Model::LeNet5, 0.1 * capacity)],
        ),
        tenant(
            "burst",
            1.0,
            0.05 * capacity,
            vec![(Model::LeNet5, 0.5 * capacity)],
        ),
    ];

    let r = fleet.run(&tenants, 0.2);
    println!("\nTenants (offered / in-budget / over-budget / shed@fleet / completed):");
    for t in &r.tenants {
        println!(
            "  {:8} {:6} / {:6} / {:5} / {:5} / {:6}  (intra-budget completion {:.1}%)",
            t.name,
            t.offered,
            t.admitted_in_budget,
            t.admitted_over_budget,
            t.shed_fleet,
            t.completed,
            100.0 * t.in_budget_completion_rate(),
        );
    }
    println!(
        "\nRouter: {} routed, {} overflowed past their home shard; p99 latency {:.2} ms.",
        r.routed,
        r.overflowed,
        r.latency.quantile(0.99) * 1e3,
    );
    println!(
        "Rollout: {} shard promotion(s); every MobileNet board now serves the upgrade.",
        r.promotions(),
    );

    // A second start-up against the same tuning database warm-reloads
    // the placement without spending a single probe.
    let warm = Fleet::build(&spec, cfg, &mut db).expect("warm build");
    println!(
        "Warm restart: plan reloaded from the tuning database ({} probes, from_cache={}).",
        warm.plan().evaluations,
        warm.plan().from_cache,
    );
}
