//! The `fleet` experiment: sharded fleet serving at datacenter scale.
//!
//! A heterogeneous fleet (2:2:1 Arria 10 GX / Stratix 10 SX / Stratix 10
//! MX, 500 boards by default) is placed, sharded, and driven end to end:
//!
//! * **Placement** — demand for all four evaluation networks is packed
//!   onto the inventory by the placement optimizer (most-constrained
//!   model first, fastest class first; the ResNets fit no Arria 10).
//!   The plan is optimized cold exactly once and every fleet start-up —
//!   the experiment builds the fleet twice — warm-reloads it from the
//!   tuning database with zero feasibility probes.
//! * **Multi-tenant QoS** — three tenants share the fleet; one offers
//!   10× its budget. The surge is shed at the fleet door, weighted-fair,
//!   while the well-behaved tenants never shed anywhere and every
//!   intra-budget admit completes.
//! * **Routing** — each model's consistent-hash router spreads admitted
//!   traffic over its serving shards with bounded-load overflow.
//! * **Fleet rollout** — MobileNet is upgraded to the auto-tuned folded
//!   configuration shard by shard. One shard is sabotaged (a reprogram
//!   failure plus a corrupted canary shadow batch): its first attempt
//!   rolls back — freezing a flight-recorder postmortem — and its
//!   scheduled retry promotes, so every shard ends upgraded.
//!
//! The whole scenario is a pure function of its seeds: the cold and the
//! warm run must produce byte-identical digests.
//!
//! Environment knobs: `FPGACCEL_FLEET_DEVICES` scales the fleet (CI runs
//! 64), `FPGACCEL_FLEET_REPORT` names a JSON file for the machine-readable
//! summary.

use crate::table::Table;
use fpgaccel_core::{OptimizationConfig, TilingPreset};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{shadow_target, FaultEvent, FaultKind, FaultPlan};
use fpgaccel_fleet::{
    device_rate, plan_placement, DeviceClass, Fleet, FleetConfig, FleetRollout, FleetRunResult,
    FleetSpec, ModelDemand, PlacementPlan, TenantLoad, TenantPolicy,
};
use fpgaccel_serve::{DeploymentCache, RolloutPolicy};
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::json::Json;
use fpgaccel_tune::TuningDb;

/// Scenario seed (routers, tenant traces, routing keys).
const FLEET_SEED: u64 = 0xF1EE7;
/// Committed sabotage fault-plan seed (provenance only).
const SABOTAGE_SEED: u64 = 0x5AB0;

/// Arrivals the offered load is sized to produce per fleet device, so
/// wall clock stays flat as `FPGACCEL_FLEET_DEVICES` scales.
const ARRIVALS_PER_DEVICE: f64 = 60.0;

/// Demand as a fraction of each model's full-fleet capacity (what the
/// whole inventory could serve if dedicated to that one model).
const DEMAND_SHARE: [(Model, f64); 4] = [
    (Model::LeNet5, 0.30),
    (Model::MobileNetV1, 0.45),
    (Model::ResNet18, 0.18),
    (Model::ResNet34, 0.10),
];
/// Capacity slack the placement targets above demand (the `fleetchaos`
/// scenario's too).
const HEADROOM: f64 = 0.15;

/// Default fleet size; CI smokes the same scenario at 64.
const DEFAULT_DEVICES: usize = 500;

fn fleet_devices() -> usize {
    std::env::var("FPGACCEL_FLEET_DEVICES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 10)
        .unwrap_or(DEFAULT_DEVICES)
}

/// The 2:2:1 heterogeneous inventory striped over `domains` failure
/// domains, with each model's demand a `share` of what the whole inventory
/// could serve of it at the probed per-class rates (a model that compiles
/// on no board of a class, e.g. a ResNet on Arria 10, gets none of that
/// class), so the spec scales with the device count.
pub(crate) fn build_spec(devices: usize, shares: &[(Model, f64)], domains: usize) -> FleetSpec {
    let a10 = devices * 2 / 5;
    let sx = devices * 2 / 5;
    let mx = devices - a10 - sx;
    let classes = vec![
        DeviceClass {
            platform: FpgaPlatform::Arria10Gx,
            count: a10,
        },
        DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: sx,
        },
        DeviceClass {
            platform: FpgaPlatform::Stratix10Mx,
            count: mx,
        },
    ];
    let mut cache = DeploymentCache::new();
    let demands = shares
        .iter()
        .map(|&(model, share)| {
            let capacity: f64 = classes
                .iter()
                .filter_map(|c| {
                    let rate = device_rate(&mut cache, model, c.platform).ok()?;
                    Some(c.count as f64 * rate)
                })
                .sum();
            ModelDemand {
                model,
                rate_rps: share * capacity,
            }
        })
        .collect();
    FleetSpec {
        classes,
        demands,
        headroom: HEADROOM,
        domains,
    }
}

/// The rollout target: the auto-tuned folded MobileNet shape.
fn tuned_config() -> OptimizationConfig {
    let mut cfg = OptimizationConfig::folded(TilingPreset::Custom1x1 { tile: (7, 8, 8) });
    cfg.label = "Folded-Tuned".into();
    cfg
}

/// Rate the plan actually placed for one model, requests/second.
fn placed_rps(plan: &PlacementPlan, model: Model) -> f64 {
    plan.assignments
        .iter()
        .filter(|a| a.model == model)
        .map(|a| a.replicas as f64 * a.device_rate_rps)
        .sum()
}

/// The three tenants, sized off the placed per-model capacities:
///
/// * `anchor` (weight 2) offers 30% of every model's placed rate, well
///   inside its budget.
/// * `batch` (weight 1) offers 20% of the LeNet and MobileNet rates.
/// * `burst` (weight 1) buys 4% of fleet capacity and offers **10×** its
///   budget on LeNet — the surge the QoS door must absorb.
pub(crate) fn tenants_for(plan: &PlacementPlan) -> Vec<TenantLoad> {
    let capacity = plan.total_rate_rps;
    let anchor_offered: Vec<(Model, f64)> = Model::ALL
        .iter()
        .map(|&m| (m, 0.30 * placed_rps(plan, m)))
        .collect();
    let batch_offered: Vec<(Model, f64)> = [Model::LeNet5, Model::MobileNetV1]
        .iter()
        .map(|&m| (m, 0.20 * placed_rps(plan, m)))
        .collect();
    let budget = |offered: &[(Model, f64)]| 1.5 * offered.iter().map(|&(_, r)| r).sum::<f64>();
    let burst_budget = 0.04 * capacity;
    vec![
        TenantLoad {
            policy: TenantPolicy {
                name: "anchor".into(),
                weight: 2.0,
                budget_rps: budget(&anchor_offered),
                burst: 60.0,
            },
            offered: anchor_offered,
        },
        TenantLoad {
            policy: TenantPolicy {
                name: "batch".into(),
                weight: 1.0,
                budget_rps: budget(&batch_offered),
                burst: 60.0,
            },
            offered: batch_offered,
        },
        TenantLoad {
            policy: TenantPolicy {
                name: "burst".into(),
                weight: 1.0,
                budget_rps: burst_budget,
                burst: 60.0,
            },
            offered: vec![(Model::LeNet5, 10.0 * burst_budget)],
        },
    ]
}

/// The fixed scenario one `fleet_at` call runs twice.
struct Scenario {
    devices: usize,
    spec: FleetSpec,
    tenants: Vec<TenantLoad>,
    duration_s: f64,
    rollout_start_s: f64,
    shards: usize,
}

/// Deep-queue, no-deadline shard serving (the default): admitted traffic
/// completes even through rollout waves — the acceptance bar is the QoS
/// door, not queue overflow.
fn fleet_config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        seed: FLEET_SEED,
        ..FleetConfig::default()
    }
}

/// Builds the fleet (warm-reloading the placement), schedules the
/// staggered MobileNet rollout, sabotages the first serving shard, and
/// runs the tenant load. Returns the result and the serving-shard count.
fn run_fleet(sc: &Scenario, db: &mut TuningDb) -> (FleetRunResult, usize) {
    let mut fleet = Fleet::build(&sc.spec, fleet_config(sc.shards), db).unwrap();
    assert!(
        fleet.plan().from_cache && fleet.plan().evaluations == 0,
        "every fleet start-up must warm-reload the cached placement"
    );
    let serving = fleet.shards_serving(Model::MobileNetV1);
    assert!(!serving.is_empty(), "MobileNet must be served somewhere");
    let victim = serving[0];
    let start = sc.rollout_start_s;
    fleet.schedule_rollout(FleetRollout {
        model: Model::MobileNetV1,
        to: tuned_config(),
        start_s: start,
        stagger_s: 0.01,
        // Well after the sabotaged attempt's rollback settles; rollout
        // timers past the last arrival still run to completion.
        retry_at_s: start + 1.0,
        policy: RolloutPolicy::default(),
    });
    let device = fleet
        .device_serving(victim, Model::MobileNetV1)
        .expect("the victim shard serves MobileNet");
    fleet.sabotage_shard(
        victim,
        FaultPlan::new(
            SABOTAGE_SEED,
            vec![
                FaultEvent {
                    at_s: start,
                    target: device.clone(),
                    kind: FaultKind::ReprogramFail,
                },
                FaultEvent {
                    at_s: start,
                    target: shadow_target(&device),
                    kind: FaultKind::TransferCorrupt,
                },
            ],
        ),
    );
    (fleet.run(&sc.tenants, sc.duration_s), serving.len())
}

/// True when every device serving MobileNet ended on the upgrade target.
fn all_upgraded(r: &FleetRunResult) -> bool {
    r.shards.iter().all(|shard| {
        shard.devices.iter().all(|d| {
            d.deployments
                .iter()
                .all(|(m, label)| *m != Model::MobileNetV1 || label == "Folded-Tuned")
        })
    })
}

/// The machine-readable summary written to `FPGACCEL_FLEET_REPORT` for
/// the CI smoke job.
fn json_report(
    sc: &Scenario,
    cold: &PlacementPlan,
    r: &FleetRunResult,
    serving_shards: usize,
    deterministic: bool,
) -> String {
    let assignments = r.plan.assignments.iter().map(|a| {
        Json::obj([
            ("model", a.model.name().into()),
            ("class", a.platform.label().into()),
            ("replicas", a.replicas.into()),
            ("device_rps", a.device_rate_rps.into()),
        ])
    });
    let tenants = r.tenants.iter().map(|t| {
        Json::obj([
            ("name", t.name.as_str().into()),
            ("offered", t.offered.into()),
            ("admitted_in_budget", t.admitted_in_budget.into()),
            ("admitted_over_budget", t.admitted_over_budget.into()),
            ("shed_fleet", t.shed_fleet.into()),
            ("shed_shard", t.shed_shard.into()),
            ("completed", t.completed.into()),
            ("completion_rate", t.completion_rate().into()),
            (
                "in_budget_completion_rate",
                t.in_budget_completion_rate().into(),
            ),
        ])
    });
    Json::obj([
        ("seed", FLEET_SEED.into()),
        ("devices", sc.devices.into()),
        ("shards", sc.shards.into()),
        ("duration_s", sc.duration_s.into()),
        (
            "placement",
            Json::obj([
                ("evaluations_cold", cold.evaluations.into()),
                ("warm_reload", r.plan.from_cache.into()),
                ("devices_used", r.plan.devices_used().into()),
                ("capacity_rps", r.plan.total_rate_rps.into()),
                ("assignments", Json::Arr(assignments.collect())),
            ]),
        ),
        ("tenants", Json::Arr(tenants.collect())),
        (
            "rollout",
            Json::obj([
                ("serving_shards", serving_shards.into()),
                ("rollbacks", r.rollbacks().into()),
                ("promotions", r.promotions().into()),
                ("postmortems", r.postmortems().into()),
                ("upgraded", all_upgraded(r).into()),
            ]),
        ),
        (
            "router",
            Json::obj([
                ("routed", r.routed.into()),
                ("overflowed", r.overflowed.into()),
                ("p50_ms", (r.latency.quantile(0.50) * 1e3).into()),
                ("p99_ms", (r.latency.quantile(0.99) * 1e3).into()),
            ]),
        ),
        ("deterministic", deterministic.into()),
    ])
    .render()
}

/// Runs the full scenario at `devices` boards and renders the report.
fn fleet_at(devices: usize) -> String {
    let shards = (devices / 16).clamp(2, 20);
    let spec = build_spec(devices, &DEMAND_SHARE, 1);

    // Cold placement: optimized exactly once, cached under the spec's
    // digest. Both fleet builds below warm-reload it.
    let mut db = TuningDb::new();
    let cold = plan_placement(&spec, &mut db, &mut DeploymentCache::new()).unwrap();
    assert!(
        !cold.from_cache && cold.evaluations > 0,
        "first plan is cold"
    );

    let tenants = tenants_for(&cold);
    let offered_rps: f64 = tenants
        .iter()
        .flat_map(|t| t.offered.iter().map(|&(_, r)| r))
        .sum();
    let duration_s = ARRIVALS_PER_DEVICE * devices as f64 / offered_rps;
    let sc = Scenario {
        devices,
        spec,
        tenants,
        duration_s,
        rollout_start_s: 0.25 * duration_s,
        shards,
    };

    let (r, serving_shards) = run_fleet(&sc, &mut db);
    let (second, _) = run_fleet(&sc, &mut db);
    let deterministic = r.digest() == second.digest();

    // The acceptance bars, asserted hard: a broken fleet must fail the
    // experiment, not render a plausible table.
    assert!(deterministic, "cold and warm runs must match byte for byte");
    assert!(all_upgraded(&r), "every shard must end on the upgrade");
    assert_eq!(r.rollbacks(), 1, "exactly the sabotaged attempt rolls back");
    assert_eq!(
        r.promotions(),
        serving_shards,
        "every serving shard promotes"
    );
    assert!(r.postmortems() >= 1, "the rollback freezes a postmortem");
    for t in &r.tenants {
        assert_eq!(
            t.in_budget_completion_rate(),
            1.0,
            "{}: every intra-budget admit completes",
            t.name
        );
        if t.name == "burst" {
            assert!(t.shed_fleet > 0, "the 10x surge must shed at the door");
        } else {
            assert_eq!(t.shed_fleet, 0, "{} shed at the fleet door", t.name);
            assert_eq!(t.shed_shard, 0, "{} shed inside a shard", t.name);
            assert!(t.completion_rate() >= 0.99, "{} completion", t.name);
        }
    }

    let mut placement = Table::new(
        format!(
            "Fleet placement — {} boards, {} shards (cold: {} probes; reruns warm-reload)",
            sc.devices, sc.shards, cold.evaluations
        ),
        &["model", "class", "replicas", "device rps", "placed rps"],
    );
    for a in &r.plan.assignments {
        placement.row(&[
            a.model.name().into(),
            a.platform.label().into(),
            a.replicas.to_string(),
            format!("{:.1}", a.device_rate_rps),
            format!("{:.1}", a.replicas as f64 * a.device_rate_rps),
        ]);
    }

    let mut qos = Table::new(
        "Multi-tenant QoS — one tenant surging 10x its budget",
        &[
            "tenant",
            "offered",
            "in-budget",
            "over-budget",
            "shed@fleet",
            "shed@shard",
            "completed",
            "in-budget completion",
        ],
    );
    for t in &r.tenants {
        qos.row(&[
            t.name.clone(),
            t.offered.to_string(),
            t.admitted_in_budget.to_string(),
            t.admitted_over_budget.to_string(),
            t.shed_fleet.to_string(),
            t.shed_shard.to_string(),
            t.completed.to_string(),
            format!("{:.1}%", 100.0 * t.in_budget_completion_rate()),
        ]);
    }

    let mut classes = Table::new(
        "Device classes — fleet-scope aggregates (per-device series stay shard-scoped)",
        &["class", "boards", "busy s", "utilization"],
    );
    for c in &sc.spec.classes {
        let label = c.platform.label();
        let v = |name: &str| r.registry.value(name, &[("class", label)]).unwrap_or(0.0);
        classes.row(&[
            label.into(),
            format!("{:.0}", v("fleet_class_devices_count")),
            format!("{:.4}", v("fleet_class_busy_seconds")),
            format!("{:.1}%", 100.0 * v("fleet_class_utilization_ratio")),
        ]);
    }

    if let Ok(path) = std::env::var("FPGACCEL_FLEET_REPORT") {
        std::fs::write(
            &path,
            json_report(&sc, &cold, &r, serving_shards, deterministic),
        )
        .expect("fleet report artifact writes");
    }

    format!(
        "Fleet — sharded serving with placement, QoS, and a fleet-wide rollout \
         (seed {FLEET_SEED:#x}, {} boards)\n{}\n{}\n{}\n\
         Router: {} routed, {} overflowed past their home shard ({:.2}%); end-to-end \
         p50 {:.2} ms, p99 {:.2} ms.\n\
         Rollout: MobileNet -> Folded-Tuned across {} serving shard(s); the sabotaged \
         shard rolled back once ({} postmortem(s) frozen) and its retry promoted — \
         {} promotion(s), every shard upgraded.\n\
         Determinism: the cold and the warm-reloaded fleet runs are {} \
         (placement reloads from the tuning database with 0 probes).",
        sc.devices,
        placement.render(),
        qos.render(),
        classes.render(),
        r.routed,
        r.overflowed,
        100.0 * r.overflowed as f64 / r.routed.max(1) as f64,
        r.latency.quantile(0.50) * 1e3,
        r.latency.quantile(0.99) * 1e3,
        serving_shards,
        r.postmortems(),
        r.promotions(),
        if deterministic {
            "identical"
        } else {
            "DIVERGENT"
        },
    )
}

/// The `fleet` experiment report.
pub fn fleet() -> String {
    fleet_at(fleet_devices())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_report_is_deterministic_at_smoke_scale() {
        // The experiment self-asserts the QoS, rollout, and warm-reload
        // bars; here it must also reproduce byte for byte at CI scale.
        assert_eq!(fleet_at(48), fleet_at(48));
    }
}
