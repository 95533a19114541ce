//! The `fleetchaos` experiment: fleet-scale resilience under a seeded
//! correlated domain outage.
//!
//! The same heterogeneous inventory as the `fleet` experiment (2:2:1
//! Arria 10 GX / Stratix 10 SX / Stratix 10 MX, 500 boards by default) is
//! placed at ~60% demand so every shard carries standby spares, racked
//! one failure domain per shard, and driven through a generated fault
//! plan ([`FaultPlan::generate`]) that lands, mid-run:
//!
//! * **one correlated domain burst** — a brownout of clustered transfer
//!   stalls on the victim rack's boards, then the whole domain goes dark
//!   ([`FaultKind::DomainOutage`]): every serving board ends `Lost`;
//! * **two persistent device slowdowns** ([`FaultKind::DeviceSlow`]) on
//!   other shards — degraded, not hung, so the watchdog never fires.
//!
//! The resilience stack must absorb all of it with **zero in-budget
//! loss**:
//!
//! * the victim shard's **circuit breaker** trips on capacity-attributed
//!   straggler predictions and ejects it from every model's ring
//!   (bounded-load overflow absorbs its keys);
//! * the **failover replay** re-issues everything the dead shard had in
//!   flight to the next ring shard, and **hedged requests** cover the
//!   detection window and the post-heal guard window;
//! * **self-healing re-placement** re-runs the placement optimizer over
//!   the surviving inventory (warm from the tuning database) and adopts
//!   the victim shard's spare boards through the rollout wave machinery,
//!   after which the breaker probes the shard half-open and closes;
//! * batch timeouts on the dying shard freeze **flight-recorder
//!   postmortems**.
//!
//! The whole scenario is a pure function of its seeds: the cold and the
//! warm run must produce byte-identical digests.
//!
//! Environment knobs: `FPGACCEL_FLEETCHAOS_DEVICES` scales the fleet (CI
//! runs 64), `FPGACCEL_FLEETCHAOS_REPORT` names a JSON file for the
//! machine-readable summary.

use crate::fleet::{build_spec, fleet_devices, tenants_for};
use crate::table::Table;
use fpgaccel_fault::{FaultKind, FaultPlan, FaultSpec};
use fpgaccel_fleet::{
    plan_placement, Fleet, FleetConfig, FleetRunResult, FleetSpec, HealthPolicy, TenantLoad,
};
use fpgaccel_serve::DeploymentCache;
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::json::Json;
use fpgaccel_tune::TuningDb;

/// Scenario seed (routers, tenant traces, routing keys).
const FLEET_SEED: u64 = 0xF1EE7C;
/// Seed of the generated chaos fault plan (chosen so the correlated
/// burst lands in the first third of the window — the run must also fit
/// the quarantine, the heal waves, and the breaker's re-close).
const FAULT_SEED: u64 = 0xBEEF2;

/// Arrivals the offered load is sized to produce per fleet device — 10×
/// the `fleet` experiment's, because the simulated span must be long
/// enough to fit the whole resilience arc (outage → quarantine → heal
/// waves → breaker re-close) between the first and the last arrival.
const ARRIVALS_PER_DEVICE: f64 = 600.0;

/// Demand as a fraction of each model's full-fleet capacity — ~60% of the
/// `fleet` experiment's load, so every shard carries the standby spares
/// the self-healing re-placement adopts.
const DEMAND_SHARE: [(Model, f64); 4] = [
    (Model::LeNet5, 0.18),
    (Model::MobileNetV1, 0.27),
    (Model::ResNet18, 0.11),
    (Model::ResNet34, 0.06),
];

/// The fixed scenario one `fleetchaos_at` call runs twice.
struct Scenario {
    devices: usize,
    spec: FleetSpec,
    tenants: Vec<TenantLoad>,
    duration_s: f64,
    shards: usize,
}

/// The scenario at `devices` boards, racked one failure domain per shard
/// and placed cold into the returned tuning database. The same three
/// tenants as the `fleet` experiment: two well-behaved ones plus one
/// surging 10× its budget — the QoS door must keep shedding the surge
/// while the outage plays out, and hedged duplicates must never
/// double-count against anyone's budget.
fn scenario(devices: usize) -> (Scenario, TuningDb) {
    let shards = (devices / 16).clamp(2, 20);
    let spec = build_spec(devices, &DEMAND_SHARE, shards);

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
        shards,
    };
    (sc, db)
}

/// Builds the fleet (warm-reloading the placement) with routers and
/// traffic seeded by `seed`, picks the victim shard, arms the chaos plan
/// generated from `fault_seed`, and runs the tenant load. Shards serve
/// deep queues with no deadline (the default): every in-budget admit must
/// complete *somewhere*, however late the outage makes it. Returns the
/// result, the victim shard, and the outage instant.
fn run_fleetchaos(
    sc: &Scenario,
    db: &mut TuningDb,
    seed: u64,
    fault_seed: u64,
) -> (FleetRunResult, usize, f64) {
    let cfg = FleetConfig {
        shards: sc.shards,
        seed,
        // Aggressive re-probing: the run is sub-second, so a breached
        // shard is probed back every 20 ms instead of the default 250.
        health: HealthPolicy { cooldown_s: 0.02 },
        // Long enough for the victim boards' quarantine (batch timeout +
        // exhausted reprogram budget) to declare them Lost before the
        // adoption waves start.
        heal_delay_s: 0.1,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::build(&sc.spec, cfg, db).unwrap();
    assert!(
        fleet.plan().from_cache && fleet.plan().evaluations == 0,
        "every fleet start-up must warm-reload the cached placement"
    );

    // The victim: a MobileNet-serving shard every one of whose models is
    // also served elsewhere, so hedges and replays always have a live
    // ring target.
    let serving_by_model: Vec<(Model, Vec<usize>)> = Model::ALL
        .iter()
        .map(|&m| (m, fleet.shards_serving(m)))
        .collect();
    let victim = *serving_by_model
        .iter()
        .find(|(m, _)| *m == Model::MobileNetV1)
        .map(|(_, s)| s)
        .expect("MobileNet is served")
        .iter()
        .find(|&&s| {
            serving_by_model
                .iter()
                .all(|(_, shards)| !shards.contains(&s) || shards.len() >= 2)
        })
        .expect("some MobileNet shard has failover targets for all its models");
    let domain = fleet.domain_of(victim);

    // The generated chaos plan: one correlated burst against the victim
    // rack, two persistent slowdowns spread over other shards' serving
    // boards.
    let slow_targets: Vec<String> = (0..fleet.shards())
        .filter(|&s| s != victim)
        .filter_map(|s| fleet.device_serving(s, Model::MobileNetV1))
        .collect();
    let plan = FaultPlan::generate(
        fault_seed,
        &FaultSpec {
            targets: slow_targets,
            duration_s: sc.duration_s,
            hangs: 0,
            stalls: 0,
            corruptions: 0,
            reprogram_fails: 0,
            synth_flakes: 0,
            domains: vec![(domain, fleet.domain_members(&fleet.domain_of(victim)))],
            domain_bursts: 1,
            slowdowns: 2,
        },
    );
    let outage_s = plan
        .events
        .iter()
        .find(|e| e.kind == FaultKind::DomainOutage)
        .map(|e| e.at_s)
        .expect("the burst schedules a domain outage");
    fleet.arm(plan);
    (fleet.run(&sc.tenants, sc.duration_s), victim, outage_s)
}

/// The machine-readable summary written to `FPGACCEL_FLEETCHAOS_REPORT`
/// for the CI smoke job.
fn json_report(
    sc: &Scenario,
    r: &FleetRunResult,
    victim: usize,
    outage_s: f64,
    deterministic: bool,
) -> String {
    let tenants = r.tenants.iter().map(|t| {
        Json::obj([
            ("name", t.name.as_str().into()),
            ("offered", t.offered.into()),
            ("admitted_in_budget", t.admitted_in_budget.into()),
            ("admitted_over_budget", t.admitted_over_budget.into()),
            ("shed_fleet", t.shed_fleet.into()),
            ("shed_shard", t.shed_shard.into()),
            ("completed", t.completed.into()),
            (
                "in_budget_completion_rate",
                t.in_budget_completion_rate().into(),
            ),
        ])
    });
    let heals = r.heals.iter().map(|h| {
        let restore_latency_s = if h.restore_s.is_finite() {
            h.restore_s - h.t_s
        } else {
            -1.0
        };
        Json::obj([
            ("t_s", h.t_s.into()),
            ("shard", h.shard.into()),
            ("domain", h.domain.as_str().into()),
            ("lost", h.lost.len().into()),
            ("adopted", h.adopted.len().into()),
            ("plan_evaluations", h.plan_evaluations.into()),
            ("restore_latency_s", restore_latency_s.into()),
            ("failed", h.error.is_some().into()),
        ])
    });
    let breaker = Json::obj([
        ("open", r.breaker_transitions_to("open").into()),
        ("half_open", r.breaker_transitions_to("half-open").into()),
        ("closed", r.breaker_transitions_to("closed").into()),
    ]);
    Json::obj([
        ("seed", FLEET_SEED.into()),
        ("fault_seed", FAULT_SEED.into()),
        ("devices", sc.devices.into()),
        ("shards", sc.shards.into()),
        ("domains", sc.shards.into()),
        ("duration_s", sc.duration_s.into()),
        (
            "outage",
            Json::obj([
                ("domain", format!("dom-{}", victim % sc.shards).into()),
                ("shard", victim.into()),
                ("at_s", outage_s.into()),
            ]),
        ),
        (
            "resilience",
            Json::obj([
                ("hedges", r.hedges.into()),
                ("hedge_wins", r.hedge_wins.into()),
                ("hedge_suppressed", r.hedge_suppressed.into()),
                ("replays", r.replays.into()),
                ("forced_routes", r.forced_routes.into()),
                ("breaker", breaker),
                ("heals", Json::Arr(heals.collect())),
                ("postmortems", r.postmortems().into()),
            ]),
        ),
        ("tenants", Json::Arr(tenants.collect())),
        ("deterministic", deterministic.into()),
    ])
    .render()
}

/// Runs the full scenario at `devices` boards and renders the report.
fn fleetchaos_at(devices: usize) -> String {
    let (sc, mut db) = scenario(devices);
    let (r, victim, outage_s) = run_fleetchaos(&sc, &mut db, FLEET_SEED, FAULT_SEED);
    let (second, _, _) = run_fleetchaos(&sc, &mut db, FLEET_SEED, FAULT_SEED);
    let deterministic = r.digest() == second.digest();

    // The acceptance bars, asserted hard: a fleet that loses in-budget
    // traffic to the outage must fail the experiment, not render a
    // plausible table.
    assert!(deterministic, "cold and warm runs must match byte for byte");
    for t in &r.tenants {
        assert_eq!(
            t.in_budget_completion_rate(),
            1.0,
            "{}: every intra-budget admit completes through the outage",
            t.name
        );
    }
    assert!(
        r.tenants
            .iter()
            .any(|t| t.name == "burst" && t.shed_fleet > 0),
        "the 10x surge still sheds at the QoS door during the outage"
    );
    assert!(r.hedges > 0, "straggler predictions must fire hedges");
    assert!(
        r.replays > 0,
        "the failover replay must re-issue in-flight work"
    );
    let heal = r.heals.first().expect("the outage triggers a heal");
    assert_eq!(heal.shard, victim, "the heal targets the victim shard");
    assert!(heal.error.is_none(), "surviving inventory fits the demand");
    assert!(
        !heal.adopted.is_empty(),
        "the heal adopts standby spares into serving"
    );
    assert!(
        r.breaker_transitions_to("open") >= 1
            && r.breaker_transitions_to("half-open") >= 1
            && r.breaker_transitions_to("closed") >= 1,
        "the breaker must walk open -> half-open -> closed"
    );
    assert!(
        r.postmortems() >= 1,
        "shard loss freezes flight-recorder postmortems"
    );

    let mut resilience = Table::new(
        format!(
            "Resilience — dom-{} dark at {:.3} s ({} boards lost, {} spares adopted)",
            victim % sc.shards,
            outage_s,
            heal.lost.len(),
            heal.adopted.len()
        ),
        &["mechanism", "count", "notes"],
    );
    resilience.row(&[
        "hedged requests".into(),
        r.hedges.to_string(),
        format!(
            "{} won, {} duplicates suppressed",
            r.hedge_wins, r.hedge_suppressed
        ),
    ]);
    resilience.row(&[
        "failover replays".into(),
        r.replays.to_string(),
        "in-flight work re-issued at breaker open".into(),
    ]);
    resilience.row(&[
        "breaker transitions".into(),
        format!(
            "{}/{}/{}",
            r.breaker_transitions_to("open"),
            r.breaker_transitions_to("half-open"),
            r.breaker_transitions_to("closed")
        ),
        "open / half-open / closed".into(),
    ]);
    resilience.row(&[
        "heals".into(),
        r.heals.len().to_string(),
        format!(
            "restore latency {:.3} s, {} placement probes",
            heal.restore_s - heal.t_s,
            heal.plan_evaluations
        ),
    ]);
    resilience.row(&[
        "postmortems".into(),
        r.postmortems().to_string(),
        "frozen on shard-loss batch timeouts".into(),
    ]);

    let mut qos = Table::new(
        "Multi-tenant QoS through the outage — hedges never touch budgets",
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

    if let Ok(path) = std::env::var("FPGACCEL_FLEETCHAOS_REPORT") {
        std::fs::write(&path, json_report(&sc, &r, victim, outage_s, deterministic))
            .expect("fleetchaos report artifact writes");
    }

    format!(
        "Fleetchaos — correlated domain outage, breakers, hedging, and self-healing \
         re-placement (seed {FLEET_SEED:#x}, fault seed {FAULT_SEED:#x}, {} boards, \
         {} shards = {} domains)\n{}\n{}\n\
         Outage: dom-{} (shard {victim}) dark at {:.3} s of {:.3} s; {} serving board(s) \
         lost, {} spare(s) adopted by the heal, breaker parked open until restore \
         (+{:.3} s) and probed back closed.\n\
         Completion: 100% of in-budget traffic for every tenant; {} hedge(s), {} \
         replay(s), {} suppressed duplicate(s) — none double-counted in any budget.\n\
         Determinism: the cold and the warm-reloaded runs are {}.",
        sc.devices,
        sc.shards,
        sc.shards,
        resilience.render(),
        qos.render(),
        victim % sc.shards,
        outage_s,
        sc.duration_s,
        heal.lost.len(),
        heal.adopted.len(),
        heal.restore_s - heal.t_s,
        r.hedges,
        r.replays,
        r.hedge_suppressed,
        if deterministic {
            "identical"
        } else {
            "DIVERGENT"
        },
    )
}

/// The `fleetchaos` experiment report.
pub fn fleetchaos() -> String {
    fleetchaos_at(fleet_devices("FPGACCEL_FLEETCHAOS_DEVICES"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleetchaos_absorbs_the_outage_at_smoke_scale() {
        // The experiment self-asserts the acceptance bars — 100%
        // in-budget completion, the breaker cycle, the heal, and the
        // cold/warm byte-identity — so rendering without a panic IS the
        // test.
        let report = fleetchaos_at(48);
        assert!(report.contains("100% of in-budget traffic"));
        assert!(report.contains("identical"));
    }

    #[test]
    #[ignore = "nightly soak: 32 fleetchaos runs at 500 boards"]
    fn fleetchaos_conserves_every_request_across_traffic_and_fault_seeds() {
        // Each seed moves both the tenant traffic and the generated fault
        // plan (which shards slow down, when the domain goes dark). Every
        // request must be accounted for, run after run. In-budget loss is
        // reported, not asserted: a shed is accounted for, and
        // benchmark/README.md records one at 1000 boards.
        let (sc, mut db) = scenario(500);
        let mut in_budget_lost = 0;
        for i in 0..32u64 {
            let (r, _, _) = run_fleetchaos(&sc, &mut db, FLEET_SEED + i, FAULT_SEED + i);
            for t in &r.tenants {
                let admitted = t.admitted_in_budget + t.admitted_over_budget;
                assert_eq!(t.offered, admitted + t.shed_fleet, "seed {i}: {}", t.name);
                assert_eq!(admitted, t.completed + t.shed_shard, "seed {i}: {}", t.name);
                in_budget_lost += t.admitted_in_budget - t.completed_in_budget;
            }
            if i == 0 {
                let (rerun, _, _) = run_fleetchaos(&sc, &mut db, FLEET_SEED, FAULT_SEED);
                assert_eq!(r.digest(), rerun.digest(), "the first seed reruns");
            }
        }
        println!("in-budget requests admitted but not completed over 32 seeds: {in_budget_lost}");
    }
}
