//! Integration tests for the fleet driver: QoS isolation under a tenant
//! surge, fleet-wide rollouts with a sabotaged shard, byte-identical
//! reruns, and the resilience stack (correlated domain outages, hedging,
//! failover replay, and self-healing re-placement) on its happy and
//! negative paths. Every scenario, plus a sweep of generated fault plans,
//! is pinned byte for byte by `fixtures/fleet_golden.txt`.

use fpgaccel_core::{OptimizationConfig, TilingPreset};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{shadow_target, FaultEvent, FaultKind, FaultPlan, FaultSpec};
use fpgaccel_fleet::{
    DeviceClass, Fleet, FleetConfig, FleetRollout, FleetRunResult, FleetSpec, HealthPolicy,
    ModelDemand, PlacementError, TenantLoad, TenantPolicy,
};
use fpgaccel_serve::{DeploymentCache, RolloutPolicy};
use fpgaccel_tensor::models::Model;
use fpgaccel_tune::TuningDb;

/// Calibrated steady-state rate of one device, requests/second, probed
/// the same way placement probes it.
fn device_rate(model: Model, platform: FpgaPlatform) -> f64 {
    fpgaccel_fleet::device_rate(&mut DeploymentCache::new(), model, platform).unwrap()
}

/// Two shards, serving deep queues with no default deadline (the default
/// `FleetConfig::serve`), so admitted traffic completes.
fn two_shards() -> FleetConfig {
    FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    }
}

fn lenet_spec() -> FleetSpec {
    let rate = device_rate(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 6,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: rate * 3.2,
        }],
        headroom: 0.25,
        domains: 1,
    }
}

fn surge_tenants(capacity: f64) -> Vec<TenantLoad> {
    let tenant = |name: &str, budget: f64, offered: f64| TenantLoad {
        policy: TenantPolicy {
            name: name.into(),
            weight: 1.0,
            budget_rps: budget,
            burst: 20.0,
        },
        offered: vec![(Model::LeNet5, offered)],
    };
    vec![
        tenant("alpha", 0.3 * capacity, 0.15 * capacity),
        tenant("bravo", 0.3 * capacity, 0.15 * capacity),
        // Charlie offers 10x its budget: the surge the QoS door absorbs.
        tenant("charlie", 0.2 * capacity, 2.0 * capacity),
    ]
}

/// Runs the surge tenants for 0.25 s, sized off the fleet's capacity.
fn run_surge(fleet: Fleet) -> FleetRunResult {
    let capacity = fleet.capacity_rps();
    fleet.run(&surge_tenants(capacity), 0.25)
}

#[test]
fn a_surging_tenant_is_shed_without_touching_its_neighbours() {
    let mut db = TuningDb::new();
    let fleet = Fleet::build(&lenet_spec(), two_shards(), &mut db).unwrap();
    assert!(!fleet.plan().from_cache);
    assert!(fleet.plan().evaluations > 0);
    let r = run_surge(fleet);

    let by_name = |n: &str| r.tenants.iter().find(|t| t.name == n).unwrap();
    let (alpha, bravo, charlie) = (by_name("alpha"), by_name("bravo"), by_name("charlie"));

    // The surge sheds at the fleet door — weighted-fair, not starvation.
    assert!(charlie.shed_fleet > 0, "a 10x surge must shed");
    assert!(
        charlie.admitted_in_budget + charlie.admitted_over_budget > 0,
        "the surging tenant keeps its budget + fair share"
    );
    // Isolation: the well-behaved tenants never shed, anywhere.
    for t in [alpha, bravo] {
        assert_eq!(t.shed_fleet, 0, "{} shed at the fleet door", t.name);
        assert_eq!(t.shed_shard, 0, "{} shed inside a shard", t.name);
        assert!(
            t.completion_rate() >= 0.99,
            "{}: completion {:.4}",
            t.name,
            t.completion_rate()
        );
    }
    // The hard QoS guarantee: every intra-budget admit completes.
    for t in &r.tenants {
        assert_eq!(
            t.in_budget_completion_rate(),
            1.0,
            "{}: intra-budget completion",
            t.name
        );
    }
    // Fleet metrics carry the tenant accounting.
    assert_eq!(
        r.registry.value(
            "fleet_shed_total",
            &[("tenant", "charlie"), ("scope", "fleet")]
        ),
        Some(charlie.shed_fleet as f64)
    );
    assert_eq!(r.registry.value("fleet_shards_count", &[]), Some(2.0));
    assert!(
        r.registry
            .value("fleet_class_devices_count", &[("class", "S10SX")])
            == Some(6.0)
    );
}

#[test]
fn reruns_are_byte_identical_and_warm_builds_reload_the_plan() {
    let spec = lenet_spec();
    let mut db = TuningDb::new();
    let cold = Fleet::build(&spec, two_shards(), &mut db).unwrap();
    let capacity = cold.capacity_rps();
    let first = run_surge(cold);

    // Same database: the plan reloads with zero feasibility probes.
    let warm = Fleet::build(&spec, two_shards(), &mut db).unwrap();
    assert!(warm.plan().from_cache);
    assert_eq!(warm.plan().evaluations, 0);
    assert_eq!(warm.capacity_rps(), capacity);
    let second = run_surge(warm);

    assert_eq!(first.digest(), second.digest());
}

/// A two-shard MobileNet fleet upgraded to the auto-tuned folded shape,
/// with the first serving shard sabotaged: its first reprogram fails
/// (absorbed by retry) and its canary shadow batch reads back corrupt,
/// forcing a rollback — then the scheduled retry promotes.
fn run_sabotaged_rollout() -> FleetRunResult {
    let rate = device_rate(Model::MobileNetV1, FpgaPlatform::Stratix10Sx);
    let spec = FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 4,
        }],
        demands: vec![ModelDemand {
            model: Model::MobileNetV1,
            rate_rps: rate * 2.5,
        }],
        headroom: 0.2,
        domains: 1,
    };
    let mut db = TuningDb::new();
    let mut fleet = Fleet::build(&spec, two_shards(), &mut db).unwrap();
    let capacity = fleet.capacity_rps();

    let mut to = OptimizationConfig::folded(TilingPreset::Custom1x1 { tile: (7, 8, 8) });
    to.label = "Folded-Tuned".into();
    fleet.schedule_rollout(FleetRollout {
        model: Model::MobileNetV1,
        to,
        start_s: 0.10,
        stagger_s: 0.05,
        retry_at_s: 0.45,
        policy: RolloutPolicy::default(),
    });

    let serving = fleet.shards_serving(Model::MobileNetV1);
    assert_eq!(serving.len(), 2, "both shards should serve MobileNet");
    let victim = serving[0];
    let device = fleet.device_serving(victim, Model::MobileNetV1).unwrap();
    fleet.sabotage_shard(
        victim,
        FaultPlan::new(
            0x5AB0,
            vec![
                FaultEvent {
                    at_s: 0.10,
                    target: device.clone(),
                    kind: FaultKind::ReprogramFail,
                },
                FaultEvent {
                    at_s: 0.10,
                    target: shadow_target(&device),
                    kind: FaultKind::TransferCorrupt,
                },
            ],
        ),
    );

    let tenant = TenantLoad {
        policy: TenantPolicy {
            name: "prod".into(),
            weight: 1.0,
            budget_rps: capacity,
            burst: 20.0,
        },
        offered: vec![(Model::MobileNetV1, 0.5 * capacity)],
    };
    fleet.run(&[tenant], 1.0)
}

#[test]
fn a_fleet_rollout_upgrades_every_shard_absorbing_one_sabotaged_rollback() {
    let r = run_sabotaged_rollout();

    // Exactly one rollback (the sabotaged first attempt); every serving
    // shard promoted (the victim through its retry).
    assert_eq!(r.rollbacks(), 1);
    assert_eq!(r.promotions(), 2);
    assert!(
        r.postmortems() >= 1,
        "the shard rollback must freeze a flight postmortem"
    );
    // Every device serving MobileNet ends on the upgraded deployment.
    for shard in &r.shards {
        for d in &shard.devices {
            for (model, label) in &d.deployments {
                if *model == Model::MobileNetV1 {
                    assert_eq!(label, "Folded-Tuned", "{}", d.device);
                }
            }
        }
    }
    // Nothing was lost to the sabotage: the tenant's traffic completed.
    let t = &r.tenants[0];
    assert_eq!(t.in_budget_completion_rate(), 1.0);
}

/// A LeNet spec striped over two failure domains (one per shard).
fn domained_spec(demand_x: f64, headroom: f64) -> FleetSpec {
    let rate = device_rate(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 6,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: rate * demand_x,
        }],
        headroom,
        domains: 2,
    }
}

/// Sabotages both shards and runs the surge scenario once; used twice to
/// prove multi-shard arming and re-arming leak no injector state.
fn run_doubly_sabotaged(spec: &FleetSpec, db: &mut TuningDb) -> FleetRunResult {
    let mut fleet = Fleet::build(spec, two_shards(), db).unwrap();
    for shard in 0..2 {
        let device = fleet.device_serving(shard, Model::LeNet5).unwrap();
        // Arm the same shard twice: the plans must merge, not replace.
        fleet.sabotage_shard(
            shard,
            FaultPlan::new(
                0x5AB0 + shard as u64,
                vec![FaultEvent {
                    at_s: 0.05,
                    target: device.clone(),
                    kind: FaultKind::TransferCorrupt,
                }],
            ),
        );
        fleet.sabotage_shard(
            shard,
            FaultPlan::new(
                0x5AB1 + shard as u64,
                vec![FaultEvent {
                    at_s: 0.10,
                    target: device,
                    kind: FaultKind::TransferStall {
                        factor: 3.0,
                        for_s: 0.02,
                    },
                }],
            ),
        );
    }
    run_surge(fleet)
}

#[test]
fn arming_multiple_shards_twice_keeps_reruns_byte_identical() {
    // Injector state is consumed one-shot during a run; re-arming a
    // rebuilt fleet must produce the same bytes — nothing may leak from
    // the first run's injectors into the second.
    let spec = domained_spec(3.2, 0.25);
    let mut db = TuningDb::new();
    let first = run_doubly_sabotaged(&spec, &mut db).digest();
    let second = run_doubly_sabotaged(&spec, &mut db).digest();
    assert_eq!(first, second);
}

/// Builds a two-shard fleet over `spec` and arms a `dom-0` outage at
/// 0.08 s.
fn dom0_outage(spec: &FleetSpec, cfg: FleetConfig, seed: u64) -> Fleet {
    let mut fleet = Fleet::build(spec, cfg, &mut TuningDb::new()).unwrap();
    fleet.arm(FaultPlan::new(
        seed,
        vec![FaultEvent {
            at_s: 0.08,
            target: "dom-0".into(),
            kind: FaultKind::DomainOutage,
        }],
    ));
    fleet
}

/// 6 boards, domain dom-0 (shard 0) goes dark mid-run. Demand is sized
/// so the 3 surviving boards can still fit the whole demand with
/// headroom — the heal must succeed.
fn healable_outage() -> Fleet {
    dom0_outage(&domained_spec(2.2, 0.25), two_shards(), 0xD0)
}

/// Demand sized so the cold placement uses every board: the surviving
/// inventory cannot fit the demand after losing shard 0. The breaker
/// re-probes aggressively, so every probe meets the dead shard.
fn unhealable_outage() -> Fleet {
    let cfg = FleetConfig {
        health: HealthPolicy { cooldown_s: 0.01 },
        ..two_shards()
    };
    dom0_outage(&domained_spec(4.5, 0.02), cfg, 0xD1)
}

#[test]
fn a_domain_outage_is_absorbed_and_hedges_never_double_count() {
    let fleet = healable_outage();
    assert_eq!(fleet.domains(), 2);
    assert_eq!(fleet.domain_of(0), "dom-0");
    assert!(!fleet.domain_members("dom-0").is_empty());
    let r = run_surge(fleet);

    // The outage triggered the whole chain: breaker, replay, heal.
    assert!(r.breaker_transitions_to("open") >= 1);
    assert!(r.hedges + r.replays > 0, "the dead shard's work re-issues");
    let heal = r.heals.first().expect("the outage triggers a heal");
    assert_eq!(heal.shard, 0);
    assert_eq!(heal.domain, "dom-0");
    assert!(heal.error.is_none());
    assert!(!heal.lost.is_empty());

    // The QoS ledger must balance request-for-request: duplicates
    // (hedges and replays) never inflate any tenant's completions past
    // its admissions, and every intra-budget admit still completes.
    for t in &r.tenants {
        assert!(
            t.completed <= t.admitted_in_budget + t.admitted_over_budget,
            "{}: {} completed > {} admitted — a duplicate double-counted",
            t.name,
            t.completed,
            t.admitted_in_budget + t.admitted_over_budget
        );
        assert_eq!(
            t.completed_in_budget, t.admitted_in_budget,
            "{}: every intra-budget admit completes exactly once",
            t.name
        );
    }
    // Metrics carry the duplicate-suppression accounting.
    assert_eq!(
        r.registry.value("fleet_hedges_total", &[]),
        Some(r.hedges as f64)
    );
    assert_eq!(
        r.registry.value("fleet_failover_replays_total", &[]),
        Some(r.replays as f64)
    );
    assert_eq!(
        r.registry
            .value("fleet_heal_events_total", &[("outcome", "replaced")]),
        Some(1.0)
    );
}

#[test]
fn an_unhealable_outage_reports_a_placement_error_and_keeps_the_breaker_open() {
    // The heal must return a structured error — no panic — and the
    // breaker must keep the shard ejected instead of flapping closed.
    let r = run_surge(unhealable_outage());

    let heal = r.heals.first().expect("the outage still triggers a heal");
    assert!(
        matches!(
            heal.error,
            Some(PlacementError::InsufficientCapacity { .. })
        ),
        "heal error: {:?}",
        heal.error
    );
    assert!(heal.adopted.is_empty());
    assert!(heal.restore_s.is_infinite());
    assert_eq!(
        r.registry
            .value("fleet_heal_events_total", &[("outcome", "failed")]),
        Some(1.0)
    );
    // The victim's breaker cycles open/half-open on failed probes but
    // never re-closes onto dead capacity.
    let victim_log = &r.breakers[0];
    assert!(victim_log.iter().any(|t| t.to == "open"));
    assert!(
        !victim_log.iter().any(|t| t.to == "closed"),
        "breaker must not flap closed onto a dead shard: {victim_log:?}"
    );
    // The surviving shard still honours the QoS guarantee.
    for t in &r.tenants {
        assert_eq!(
            t.in_budget_completion_rate(),
            1.0,
            "{}: intra-budget completion through an unhealable outage",
            t.name
        );
    }
}

/// A 12-board LeNet fleet over 4 shards, one failure domain each, driven
/// through a generated fault plan: a hang, stalls, a corruption and one
/// persistent slowdown on serving boards, plus a domain burst on odd
/// seeds. The fleet seed follows the fault seed.
fn run_generated_chaos(seed: u64) -> FleetRunResult {
    let rate = device_rate(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let spec = FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 12,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: rate * 3.0,
        }],
        headroom: 0.25,
        domains: 4,
    };
    let cfg = FleetConfig {
        shards: 4,
        seed,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::build(&spec, cfg, &mut TuningDb::new()).unwrap();
    let duration_s = 0.25;
    let targets = (0..4)
        .filter_map(|s| fleet.device_serving(s, Model::LeNet5))
        .collect();
    let domains = (0..4)
        .map(|s| {
            let d = fleet.domain_of(s);
            let members = fleet.domain_members(&d);
            (d, members)
        })
        .collect();
    fleet.arm(FaultPlan::generate(
        seed,
        &FaultSpec {
            targets,
            duration_s,
            hangs: 1,
            stalls: 2,
            corruptions: 1,
            reprogram_fails: 0,
            synth_flakes: 0,
            domains,
            domain_bursts: (seed % 2) as usize,
            slowdowns: 1,
        },
    ));
    let capacity = fleet.capacity_rps();
    fleet.run(&surge_tenants(capacity), duration_s)
}

/// Every pinned run as `== name ==`, its digest, then its Prometheus
/// exposition.
fn golden_runs() -> String {
    let mut runs = vec![
        (
            "surge".to_string(),
            run_surge(Fleet::build(&lenet_spec(), two_shards(), &mut TuningDb::new()).unwrap()),
        ),
        ("sabotaged-rollout".to_string(), run_sabotaged_rollout()),
        (
            "doubly-sabotaged".to_string(),
            run_doubly_sabotaged(&domained_spec(3.2, 0.25), &mut TuningDb::new()),
        ),
        ("healable-outage".to_string(), run_surge(healable_outage())),
        (
            "unhealable-outage".to_string(),
            run_surge(unhealable_outage()),
        ),
    ];
    for seed in 0..16u64 {
        runs.push((format!("chaos-seed-{seed}"), run_generated_chaos(seed)));
    }
    let mut out = String::new();
    for (name, r) in runs {
        out.push_str(&format!("== {name} ==\n{}\n", r.digest()));
        out.push_str(&r.registry.render_prometheus());
    }
    out
}

#[test]
fn fleet_runs_match_the_committed_golden() {
    // The fixture pins the driver's bytes: a refactor must leave every
    // digest and metric unchanged. Regenerate it only in a commit of its
    // own that explains the intended behaviour change.
    let golden = include_str!("fixtures/fleet_golden.txt");
    let actual = golden_runs();
    if let Some((i, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "fleet_golden.txt line {} differs:\n  golden: {want}\n  actual: {got}",
            i + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "fleet_golden.txt has a different number of lines"
    );
}
