//! The fleet façade: placement → sharded pools → routed tenant traffic →
//! per-shard serving runs → aggregated outcomes.
//!
//! [`Fleet::build`] turns a [`FleetSpec`] into `shards` independent
//! [`DevicePool`]s. Every pool clones one warm template
//! [`DeploymentCache`], so a 500-device fleet pays for exactly one compile
//! and one calibration per distinct deployment — the pools share the
//! `Arc<Deployment>`s and the memoized batch simulations that hang off
//! them. Devices of each class are dealt round-robin across shards, so
//! every shard serves (a slice of) every model. Shards are racked
//! together: shard `s` lives in failure domain `dom-{s % domains}` of the
//! spec's topology, and a correlated [`FaultKind::DomainOutage`] takes
//! every serving board of the domain dark at once.
//!
//! [`Fleet::run`] is one deterministic pass through eight stages: fault
//! expansion, the capacity model, the tenant trace, rollout specs,
//! admit-and-route, shard runs, attribution and metric publishing. Routing
//! admits each arrival through multi-tenant QoS ([`QosController`]) and
//! sends it down its model's consistent-hash [`Router`] with bounded-load
//! overflow, against a fault-aware model of each shard's backlog: armed
//! domain outages and slowdowns degrade a shard's modeled rate, and three
//! resilience mechanisms key off that degradation — per-shard circuit
//! breakers ([`ShardHealth`]), request hedging (first completion wins,
//! duplicates suppressed in the accounting), and self-healing
//! re-placement with failover replay ([`HealEvent`]). None fires on pure
//! overload, which QoS owns. Fleet metrics aggregate by device class;
//! per-device series stay in the shard registries.

use crate::hash::{hash2, hash_str};
use crate::placement::{
    device_rate, plan_placement, DeviceClass, FleetSpec, PlacementError, PlacementPlan,
};
use crate::qos::{QosController, TenantPolicy, Verdict};
use crate::router::{BreakerState, BreakerTransition, HealthPolicy, Router, ShardHealth};
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::OptimizationConfig;
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use fpgaccel_serve::{
    AdmissionPolicy, DeploymentCache, DeviceHealth, DevicePool, LatencyHistogram, PooledDevice,
    Request, RolloutOutcome, RolloutPolicy, RolloutSpec, RunResult, ServeConfig, Server,
};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::rng::Rng64;
use fpgaccel_trace::{FlightRecorder, Registry, Tracer, PID_FLEET};
use fpgaccel_tune::TuningDb;
use std::collections::{HashMap, HashSet};

/// Hedged duplicates carry the original request id with this bit set, so
/// completion accounting can fold both copies back onto one request.
pub const HEDGE_BIT: u64 = 1 << 63;

/// Ring points per shard in each model's router.
const VNODES: usize = 64;
/// Bounded-load overflow threshold (multiple of the mean shard load).
const LOAD_BOUND: f64 = 1.25;
/// Hedging trigger: a request predicted to wait longer than `HEDGE_MULT ×`
/// the shard's calibrated nominal service interval is a straggler, and is
/// duplicated to the next ring shard.
const HEDGE_MULT: f64 = 4.0;

/// Fleet-level knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of shards the fleet's devices are dealt into.
    pub shards: usize,
    /// Seed for the routers, the routing keys, and the tenant traces.
    pub seed: u64,
    /// Serving configuration applied to every shard server. The default
    /// queues deep (`1 << 14` outstanding per model) with no default
    /// deadline, so what the fleet's QoS door admits completes.
    pub serve: ServeConfig,
    /// Circuit-breaker policy applied per shard.
    pub health: HealthPolicy,
    /// Delay between a breaker opening on an unrecoverable shard and the
    /// heal rollout starting — long enough for the dead boards to finish
    /// their quarantine attempts and be declared lost, so the adoption
    /// waves only touch the spares.
    pub heal_delay_s: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            seed: 0xF1EE7,
            serve: ServeConfig {
                admission: AdmissionPolicy {
                    queue_capacity: 1 << 14,
                    default_deadline_s: None,
                },
                ..ServeConfig::default()
            },
            health: HealthPolicy::default(),
            heal_delay_s: 0.15,
        }
    }
}

/// One tenant's offered load.
#[derive(Clone, Debug)]
pub struct TenantLoad {
    /// Admission contract.
    pub policy: TenantPolicy,
    /// Offered Poisson rate per model, requests/second.
    pub offered: Vec<(Model, f64)>,
}

/// A fleet-wide rollout: every shard serving `model` runs the existing
/// wave state machine, staggered shard by shard.
#[derive(Clone, Debug)]
pub struct FleetRollout {
    /// The model being upgraded.
    pub model: Model,
    /// The target configuration.
    pub to: OptimizationConfig,
    /// When shard 0 starts, simulated seconds.
    pub start_s: f64,
    /// Delay between successive shards' rollouts.
    pub stagger_s: f64,
    /// When sabotaged shards retry the upgrade (same stagger), after
    /// their first attempt rolled back.
    pub retry_at_s: f64,
    /// Per-shard rollout knobs.
    pub policy: RolloutPolicy,
}

/// One structured self-healing re-placement, triggered when a domain
/// outage made a shard's capacity unrecoverable in place.
#[derive(Clone, Debug)]
pub struct HealEvent {
    /// When the breaker opened and the heal was triggered, simulated
    /// seconds.
    pub t_s: f64,
    /// The shard whose capacity was lost.
    pub shard: usize,
    /// The failure domain that went dark.
    pub domain: String,
    /// Serving devices written off by the outage.
    pub lost: Vec<String>,
    /// Spare devices adopted into serving by the heal rollout.
    pub adopted: Vec<String>,
    /// Feasibility probes the surviving-inventory re-placement spent.
    pub plan_evaluations: usize,
    /// Estimated simulated second the adopted capacity is live — the
    /// breaker stays parked open until then. Infinite when nothing could
    /// be adopted.
    pub restore_s: f64,
    /// The re-placement's structured failure, when the surviving
    /// inventory cannot fit the demand. The breaker then stays open.
    pub error: Option<PlacementError>,
}

/// The shards serving one model: shard ids, per-shard aggregate service
/// rate, and the model's router over those shards.
struct ModelShards {
    model: Model,
    shards: Vec<usize>,
    rate_rps: Vec<f64>,
    router: Router,
}

/// A built fleet, ready to serve one trace.
pub struct Fleet {
    cfg: FleetConfig,
    plan: PlacementPlan,
    pools: Vec<DevicePool>,
    serving: Vec<ModelShards>,
    rollouts: Vec<FleetRollout>,
    /// Armed per-shard fault plans. Stored as plans — not injectors — so
    /// every [`Fleet::run`] builds fresh injectors: injector state is
    /// consumed one-shot during a run, and re-arming a rebuilt fleet (or
    /// arming a shard twice) must not leak consumed events across runs.
    fault_plans: Vec<Vec<FaultPlan>>,
    /// Armed fleet-level fault plans; domain-scoped events are expanded
    /// onto member shards at run time.
    fleet_plans: Vec<FaultPlan>,
    /// The self-healing re-planner; it holds the spec the fleet was built
    /// from.
    healer: HealPlanner,
    tracer: Tracer,
}

/// Per-tenant accounting of one fleet run.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Requests the tenant offered.
    pub offered: u64,
    /// Admitted within budget.
    pub admitted_in_budget: u64,
    /// Admitted from the tenant's surplus share.
    pub admitted_over_budget: u64,
    /// Shed at the fleet door (QoS).
    pub shed_fleet: u64,
    /// Shed inside a shard (queue capacity / deadline).
    pub shed_shard: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests that were admitted within budget.
    pub completed_in_budget: u64,
}

impl TenantOutcome {
    /// Completed / offered (1.0 for an idle tenant).
    pub fn completion_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Completed-in-budget / admitted-in-budget — the QoS guarantee
    /// metric (1.0 for an idle tenant).
    pub fn in_budget_completion_rate(&self) -> f64 {
        if self.admitted_in_budget == 0 {
            1.0
        } else {
            self.completed_in_budget as f64 / self.admitted_in_budget as f64
        }
    }
}

/// Everything one fleet run produced.
pub struct FleetRunResult {
    /// The placement the fleet was built from.
    pub plan: PlacementPlan,
    /// Per-tenant accounting, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Each shard's full serving result, in shard order.
    pub shards: Vec<RunResult>,
    /// Requests routed to a shard (admitted and served a route).
    pub routed: u64,
    /// Routed requests that overflowed past their home shard.
    pub overflowed: u64,
    /// Hedged duplicates fired at predicted stragglers.
    pub hedges: u64,
    /// Hedged duplicates that completed before their primary.
    pub hedge_wins: u64,
    /// Duplicate completions discarded by first-completion-wins.
    pub hedge_suppressed: u64,
    /// Primaries re-issued to another ring shard by the failover replay
    /// when an outage-attributed breaker opened (the dead shard's
    /// unacknowledged in-flight work).
    pub replays: u64,
    /// Requests routed while every serving shard's breaker was open.
    pub forced_routes: u64,
    /// Per-shard circuit-breaker transition logs, in shard order.
    pub breakers: Vec<Vec<BreakerTransition>>,
    /// Self-healing re-placements, in trigger order.
    pub heals: Vec<HealEvent>,
    /// Fleet-wide end-to-end latency (arrival → completion).
    pub latency: LatencyHistogram,
    /// Class-aggregated fleet metrics (`fleet_*` families).
    pub registry: Registry,
    /// Simulated span of the run, seconds.
    pub span_s: f64,
}

impl FleetRunResult {
    /// Shard rollouts that rolled back.
    pub fn rollbacks(&self) -> usize {
        self.shard_outcomes(RolloutOutcome::RolledBack)
    }

    /// Shard rollouts that promoted.
    pub fn promotions(&self) -> usize {
        self.shard_outcomes(RolloutOutcome::Promoted)
    }

    fn shard_outcomes(&self, o: RolloutOutcome) -> usize {
        self.shards
            .iter()
            .flat_map(|r| &r.rollouts)
            .filter(|rep| rep.outcome == o)
            .count()
    }

    /// Flight-recorder postmortems captured across all shards (shard
    /// rollbacks arm them).
    pub fn postmortems(&self) -> usize {
        self.shards.iter().map(|r| r.postmortems.len()).sum()
    }

    /// Breaker transitions fleet-wide that entered `to`
    /// (`"open"`/`"half-open"`/`"closed"`).
    pub fn breaker_transitions_to(&self, to: &str) -> usize {
        self.breakers
            .iter()
            .flat_map(|b| b.iter())
            .filter(|t| t.to == to)
            .count()
    }

    /// A stable single-line digest of the run, for determinism checks:
    /// two runs of the same fleet on the same trace must produce the same
    /// string, byte for byte.
    pub fn digest(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{}:{}/{}/{}/{}/{}/{}/{}",
                    t.name,
                    t.offered,
                    t.admitted_in_budget,
                    t.admitted_over_budget,
                    t.shed_fleet,
                    t.shed_shard,
                    t.completed,
                    t.completed_in_budget
                )
            })
            .collect();
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|r| {
                let rollouts: Vec<String> = r
                    .rollouts
                    .iter()
                    .map(|rep| format!("{}={}", rep.to_label, rep.outcome.label()))
                    .collect();
                format!(
                    "c{}s{}r[{}]",
                    r.metrics.completed,
                    r.metrics.shed(),
                    rollouts.join(",")
                )
            })
            .collect();
        let replicas: Vec<String> = self
            .plan
            .assignments
            .iter()
            .map(|a| format!("{}@{}x{}", a.model.name(), a.platform.label(), a.replicas))
            .collect();
        let breakers: Vec<String> = self
            .breakers
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(s, b)| {
                let ts: Vec<String> = b
                    .iter()
                    .map(|t| format!("{}@{:.0}us", t.to, t.t_s * 1e6))
                    .collect();
                format!("s{s}:{}", ts.join(">"))
            })
            .collect();
        let heals: Vec<String> = self
            .heals
            .iter()
            .map(|h| {
                format!(
                    "s{}@{:.0}us:l{}a{}{}",
                    h.shard,
                    h.t_s * 1e6,
                    h.lost.len(),
                    h.adopted.len(),
                    if h.error.is_some() { ":err" } else { "" }
                )
            })
            .collect();
        format!(
            "plan=[{}] tenants=[{}] shards=[{}] routed={} overflow={} p99us={} \
             hedges={}/{}/{} replays={} forced={} breakers=[{}] heals=[{}]",
            replicas.join(","),
            tenants.join(","),
            shards.join(","),
            self.routed,
            self.overflowed,
            (self.latency.quantile(0.99) * 1e6).round() as u64,
            self.hedges,
            self.hedge_wins,
            self.hedge_suppressed,
            self.replays,
            self.forced_routes,
            breakers.join(","),
            heals.join(",")
        )
    }
}

impl Fleet {
    /// Builds the fleet: places the spec (cold or from the tuning
    /// database), compiles one template cache, and deals devices into
    /// shard pools. Classes must use distinct platforms.
    pub fn build(
        spec: &FleetSpec,
        cfg: FleetConfig,
        db: &mut TuningDb,
    ) -> Result<Fleet, PlacementError> {
        Fleet::build_traced(spec, cfg, db, &Tracer::disabled())
    }

    /// [`Fleet::build`] recording placement/deal phases on `tracer`.
    pub fn build_traced(
        spec: &FleetSpec,
        cfg: FleetConfig,
        db: &mut TuningDb,
        tracer: &Tracer,
    ) -> Result<Fleet, PlacementError> {
        assert!(cfg.shards > 0, "a fleet needs at least one shard");
        let mut cache = DeploymentCache::new();
        let plan = {
            let _p = tracer.phase_on(PID_FLEET, "placement", "place fleet spec");
            plan_placement(spec, db, &mut cache)?
        };

        let _p = tracer.phase_on(PID_FLEET, "build", "deal devices into shard pools");
        let mut pools: Vec<DevicePool> = (0..cfg.shards)
            .map(|_| DevicePool::with_cache(cache.clone()))
            .collect();
        // Deal each class round-robin: assignment slots in plan order,
        // then the spare (idle) boards of the class.
        let mut mu: HashMap<(usize, Model), f64> = HashMap::new();
        for c in &spec.classes {
            let mut cursor = 0usize;
            for a in plan.assignments.iter().filter(|a| a.platform == c.platform) {
                for _ in 0..a.replicas {
                    let shard = cursor % cfg.shards;
                    cursor += 1;
                    let idx = pools[shard].add_device(c.platform);
                    pools[shard]
                        .deploy(idx, a.model, &optimized_config(a.model, c.platform))
                        .map_err(|e| PlacementError::NoFeasibleClass {
                            model: a.model,
                            reasons: vec![(c.platform, e)],
                        })?;
                    *mu.entry((shard, a.model)).or_default() += a.device_rate_rps;
                }
            }
            for spare in cursor..c.count {
                pools[spare % cfg.shards].add_device(c.platform);
            }
        }

        let mut serving = Vec::new();
        for &model in Model::ALL.iter() {
            let mut shards = Vec::new();
            let mut rate_rps = Vec::new();
            for s in 0..cfg.shards {
                if let Some(&r) = mu.get(&(s, model)) {
                    shards.push(s);
                    rate_rps.push(r);
                }
            }
            if !shards.is_empty() {
                let router = Router::new(hash_str(cfg.seed, model.name()), shards.len(), VNODES);
                serving.push(ModelShards {
                    model,
                    shards,
                    rate_rps,
                    router,
                });
            }
        }

        Ok(Fleet {
            fault_plans: vec![Vec::new(); cfg.shards],
            fleet_plans: Vec::new(),
            healer: HealPlanner {
                spec: spec.clone(),
                delay_s: cfg.heal_delay_s,
                db: db.clone(),
                cache,
                lost: Vec::new(),
            },
            cfg,
            plan,
            pools,
            serving,
            rollouts: Vec::new(),
            tracer: tracer.clone(),
        })
    }

    /// The placement the fleet was built from.
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// The spec the fleet was built from.
    pub fn spec(&self) -> &FleetSpec {
        &self.healer.spec
    }

    /// Aggregate steady-state serving capacity, requests/second — the
    /// QoS controller's capacity.
    pub fn capacity_rps(&self) -> f64 {
        self.plan.total_rate_rps
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Number of failure domains the shards are striped across (at least
    /// one).
    pub fn domains(&self) -> usize {
        self.healer.spec.domains.max(1)
    }

    /// The failure domain `shard` lives in: shards are racked together,
    /// striped `dom-{shard % domains}`.
    pub fn domain_of(&self, shard: usize) -> String {
        format!("dom-{}", shard % self.domains())
    }

    /// Device names of every board in `domain`, across its member shards.
    pub fn domain_members(&self, domain: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (s, pool) in self.pools.iter().enumerate() {
            if self.domain_of(s) == domain {
                out.extend(pool.devices().iter().map(|d| d.name.clone()));
            }
        }
        out
    }

    /// Total devices across all shard pools.
    pub fn devices(&self) -> usize {
        self.pools.iter().map(|p| p.devices().len()).sum()
    }

    /// The shards serving `model`, in shard order.
    pub fn shards_serving(&self, model: Model) -> Vec<usize> {
        self.serving
            .iter()
            .find(|m| m.model == model)
            .map(|m| m.shards.clone())
            .unwrap_or_default()
    }

    /// Name of the first device on `shard` serving `model` — the natural
    /// sabotage target for a fault plan.
    pub fn device_serving(&self, shard: usize, model: Model) -> Option<String> {
        self.pools[shard]
            .devices()
            .iter()
            .find(|d| d.deployment(model).is_some())
            .map(|d| d.name.clone())
    }

    /// Schedules a fleet-wide rollout, replayed shard by shard at `run`.
    pub fn schedule_rollout(&mut self, rollout: FleetRollout) {
        self.rollouts.push(rollout);
    }

    /// Arms `shard` with a committed fault plan (canary sabotage,
    /// reprogram failures). Arming the same shard again *adds* the plan;
    /// all armed plans merge into one fresh injector per run, so reruns
    /// of a rebuilt fleet stay byte-identical. Sabotaged shards
    /// automatically retry scheduled rollouts at
    /// [`FleetRollout::retry_at_s`].
    pub fn sabotage_shard(&mut self, shard: usize, plan: FaultPlan) {
        self.fault_plans[shard].push(plan);
    }

    /// Arms a fleet-level fault plan. Device-targeted events are routed
    /// to the shard owning the device; [`FaultKind::DomainOutage`] events
    /// (targeting a `dom-*` name) are expanded at run time onto every
    /// serving board of the domain's member shards — a hang plus an
    /// exhausted reprogram budget each, so the boards end `Lost` and the
    /// shard's capacity is unrecoverable in place.
    pub fn arm(&mut self, plan: FaultPlan) {
        self.fleet_plans.push(plan);
    }

    /// Runs the fleet for `duration_s` of offered tenant load, consuming
    /// the fleet. Deterministic: same fleet + same tenants + same
    /// duration → byte-identical [`FleetRunResult::digest`].
    ///
    /// Every model a tenant offers must be served by the placement
    /// (checked, panics otherwise — that is a spec bug, not a runtime
    /// condition).
    pub fn run(mut self, tenants: &[TenantLoad], duration_s: f64) -> FleetRunResult {
        let mut shards = self.expand_faults();
        let cap = self.capacity_model(&shards);
        let arrivals = self.tenant_trace(tenants, duration_s);
        let mut qos = QosController::new(
            tenants.iter().map(|t| t.policy.clone()).collect(),
            self.plan.total_rate_rps,
        );
        self.rollout_specs(&mut shards);
        let mut routed = self.admit_and_route(&arrivals, &mut qos, shards, cap);
        let shard_results = self.run_shards(&mut routed.shards);
        let domains = self.domains();
        // Attribution fills in the tenant ledger, the hedge wins and
        // suppressions, the latencies and the span.
        let mut r = FleetRunResult {
            plan: self.plan,
            tenants: Vec::new(),
            shards: shard_results,
            routed: routed.owner.len() as u64,
            overflowed: routed.overflowed,
            hedges: routed.hedges,
            hedge_wins: 0,
            hedge_suppressed: 0,
            replays: routed.replays,
            forced_routes: routed.forced_routes,
            breakers: routed
                .shards
                .iter()
                .map(|s| s.health.transitions().to_vec())
                .collect(),
            heals: routed.heals,
            latency: LatencyHistogram::new(),
            registry: Registry::new(),
            span_s: duration_s,
        };
        attribute(&mut r, tenants, &qos, &routed.owner);
        publish_metrics(&r, &self.healer.spec.classes, domains);
        r
    }

    /// Fault expansion: each shard's armed plans plus the fleet-level
    /// events routed to it, armed as one fresh injector per shard —
    /// injector state is consumed one-shot during a run. A domain outage
    /// becomes a hang plus an exhausted reprogram budget on every serving
    /// board of its member shards, so they end `Lost`; a `*` target
    /// reaches every shard; a device name reaches the highest-numbered
    /// shard with a board of that name (names repeat across shard pools).
    fn expand_faults(&mut self) -> Vec<ShardState> {
        let mut shards: Vec<ShardState> = self
            .fault_plans
            .iter()
            .map(|plans| ShardState {
                events: plans.iter().flat_map(|p| p.events.clone()).collect(),
                outage: None,
                until: 0.0,
                trace: Vec::new(),
                health: ShardHealth::new(self.cfg.health),
                hedge_until: f64::NEG_INFINITY,
                log: Vec::new(),
                rollouts: Vec::new(),
            })
            .collect();
        let owner = |name: &str| {
            let owns = |p: &DevicePool| p.devices().iter().any(|d| d.name == name);
            self.pools.iter().rposition(owns)
        };
        for e in self.fleet_plans.iter().flat_map(|p| &p.events) {
            if e.kind == FaultKind::DomainOutage {
                for (s, shard) in shards.iter_mut().enumerate() {
                    if self.domain_of(s) != e.target {
                        continue;
                    }
                    shard
                        .outage
                        .get_or_insert_with(|| (e.at_s, e.target.clone()));
                    for d in self.pools[s].devices().iter().filter(|d| is_serving(d)) {
                        let dark = |kind| FaultEvent {
                            at_s: e.at_s,
                            target: d.name.clone(),
                            kind,
                        };
                        shard.events.push(dark(FaultKind::DeviceHang));
                        for _ in 0..self.cfg.serve.fault.max_reprogram_attempts {
                            shard.events.push(dark(FaultKind::ReprogramFail));
                        }
                    }
                }
            } else if e.target == "*" {
                for shard in shards.iter_mut() {
                    shard.events.push(e.clone());
                }
            } else if let Some(s) = owner(&e.target) {
                shards[s].events.push(e.clone());
            }
        }
        for (pool, shard) in self.pools.iter_mut().zip(&shards) {
            if !shard.events.is_empty() {
                let plan = FaultPlan::new(0, shard.events.clone());
                pool.set_fault_injector(&FaultInjector::new(plan));
            }
        }
        shards
    }

    /// Capacity model: a shard's first domain outage takes its slots' whole
    /// rate away, and a `DeviceSlow { factor }` on a serving board changes
    /// it by `r × (1/factor − 1)`, `r` the board's placed rate. With
    /// neither armed, routing is byte-identical to the fault-free fleet.
    fn capacity_model(&self, shards: &[ShardState]) -> Capacity {
        let mut deltas: Vec<Vec<Vec<(f64, f64)>>> = self
            .serving
            .iter()
            .map(|ms| vec![Vec::new(); ms.shards.len()])
            .collect();
        for (msi, ms) in self.serving.iter().enumerate() {
            for (k, &s) in ms.shards.iter().enumerate() {
                if let Some((t0, _)) = &shards[s].outage {
                    deltas[msi][k].push((*t0, -ms.rate_rps[k]));
                }
            }
        }
        for (s, shard) in shards.iter().enumerate() {
            for e in &shard.events {
                let FaultKind::DeviceSlow { factor } = e.kind else {
                    continue;
                };
                let Some(dev) = self.pools[s].devices().iter().find(|d| d.name == e.target) else {
                    continue;
                };
                for (msi, ms) in self.serving.iter().enumerate() {
                    if dev.deployment(ms.model).is_none() {
                        continue;
                    }
                    let Some(k) = ms.shards.iter().position(|&x| x == s) else {
                        continue;
                    };
                    let Some(r) = self
                        .plan
                        .assignments
                        .iter()
                        .find(|a| a.model == ms.model && a.platform == dev.platform)
                        .map(|a| a.device_rate_rps)
                    else {
                        continue;
                    };
                    deltas[msi][k].push((e.at_s, r * (1.0 / factor - 1.0)));
                }
            }
        }
        Capacity { deltas }
    }

    /// Tenant trace: per-tenant Poisson streams, seeded per tenant ×
    /// model, merged into one arrival-ordered trace.
    fn tenant_trace(&self, tenants: &[TenantLoad], duration_s: f64) -> Vec<Arrival> {
        let _p = self
            .tracer
            .phase_on(PID_FLEET, "trace", "generate tenant traces");
        let mut merged: Vec<Arrival> = Vec::new();
        for (ti, tenant) in tenants.iter().enumerate() {
            for (mi, &(model, rate)) in tenant.offered.iter().enumerate() {
                if rate <= 0.0 {
                    continue;
                }
                assert!(
                    self.serving.iter().any(|m| m.model == model),
                    "tenant {} offers {} which the placement does not serve",
                    tenant.policy.name,
                    model.name()
                );
                let mut rng = Rng64::seed_from_u64(hash2(
                    hash_str(self.cfg.seed, &tenant.policy.name),
                    mi as u64,
                ));
                let mut at = 0.0f64;
                loop {
                    at += rng.exponential(rate);
                    if at > duration_s {
                        break;
                    }
                    merged.push(Arrival {
                        t: at,
                        tenant: ti,
                        model,
                    });
                }
            }
        }
        merged.sort_by(|a, b| {
            a.t.total_cmp(&b.t)
                .then(a.tenant.cmp(&b.tenant))
                .then(a.model.name().cmp(b.model.name()))
        });
        merged
    }

    /// Admit and route: every arrival through [`Routing::route`].
    fn admit_and_route(
        &mut self,
        arrivals: &[Arrival],
        qos: &mut QosController,
        shards: Vec<ShardState>,
        cap: Capacity,
    ) -> Routed {
        let _p = self
            .tracer
            .phase_on(PID_FLEET, "route", "admit + route trace");
        let mut routing = Routing {
            fleet: self,
            cap,
            hedged: HashSet::new(),
            out: Routed {
                shards,
                ..Routed::default()
            },
        };
        for (gid, a) in arrivals.iter().enumerate() {
            routing.route(gid as u64, a, qos);
        }
        routing.out
    }

    /// Rollout specs: each fleet rollout staggered over the shards serving
    /// its model; a sabotaged shard (one with an armed plan) also gets the
    /// retry attempt. Heal adoptions queue after them.
    fn rollout_specs(&self, shards: &mut [ShardState]) {
        for r in &self.rollouts {
            for ms in self.serving.iter().filter(|m| m.model == r.model) {
                for (k, &s) in ms.shards.iter().enumerate() {
                    let attempt = |at_s: f64| RolloutSpec {
                        at_s: at_s + k as f64 * r.stagger_s,
                        model: r.model,
                        to: r.to.clone(),
                        verify_input: None,
                        adopt: Vec::new(),
                        policy: r.policy,
                    };
                    shards[s].rollouts.push(attempt(r.start_s));
                    if !self.fault_plans[s].is_empty() {
                        shards[s].rollouts.push(attempt(r.retry_at_s));
                    }
                }
            }
        }
    }

    /// Shard runs: every shard's server, with a flight recorder armed and
    /// its rollouts scheduled, serves its routed sub-trace.
    fn run_shards(&mut self, shards: &mut [ShardState]) -> Vec<RunResult> {
        let pools = std::mem::take(&mut self.pools);
        pools
            .into_iter()
            .zip(shards)
            .enumerate()
            .map(|(s, (pool, shard))| {
                let _p = self
                    .tracer
                    .phase_on(PID_FLEET, "shard", &format!("run shard {s}"));
                let flight = FlightRecorder::enabled(256);
                let mut server = Server::new(pool, self.cfg.serve).with_flight_recorder(&flight);
                for spec in shard.rollouts.drain(..) {
                    server.schedule_rollout(spec);
                }
                server.run_open_loop(std::mem::take(&mut shard.trace))
            })
            .collect()
    }
}

/// True when `d` serves a model; spare boards serve none.
fn is_serving(d: &PooledDevice) -> bool {
    Model::ALL.iter().any(|&m| d.deployment(m).is_some())
}

/// One arrival of the merged tenant trace.
struct Arrival {
    t: f64,
    tenant: usize,
    model: Model,
}

/// One shard's state through a run: the faults armed on it, its modeled
/// backlog and routed sub-trace, its breaker, and the heal its domain
/// outage triggers.
struct ShardState {
    /// Every fault armed on the shard, fleet-level ones expanded in.
    events: Vec<FaultEvent>,
    /// The shard's first domain outage `(at, domain)`, until a breaker
    /// opening after it triggers the heal.
    outage: Option<(f64, String)>,
    /// Simulated second the shard's modeled backlog drains.
    until: f64,
    /// The routed sub-trace: primaries, hedges and replays.
    trace: Vec<Request>,
    health: ShardHealth,
    /// Requests landing before this instant are hedged: the guard window
    /// around a heal's restore.
    hedge_until: f64,
    /// Routed primaries `(gid, model index, slot, modeled finish)`: the
    /// failover replay's working set.
    log: Vec<(u64, usize, usize, f64)>,
    /// Rollouts to schedule: fleet rollouts, then heal adoptions.
    rollouts: Vec<RolloutSpec>,
}

/// The fault-aware capacity model: for slot `k` of model `msi`,
/// `deltas[msi][k]` holds the `(at, delta)` changes armed outages,
/// slowdowns and heal restores make to the slot's nominal rate.
struct Capacity {
    deltas: Vec<Vec<Vec<(f64, f64)>>>,
}

impl Capacity {
    /// The slot's modeled rate at `t`: `nominal` plus every delta due by
    /// then, in arming order, floored at zero.
    fn rate_at(&self, msi: usize, k: usize, nominal: f64, t: f64) -> f64 {
        let mut r = nominal;
        for &(te, d) in &self.deltas[msi][k] {
            if te <= t {
                r += d;
            }
        }
        r.max(0.0)
    }
}

/// What the admit-and-route stage hands to the shard runs and the
/// accounting.
#[derive(Default)]
struct Routed {
    shards: Vec<ShardState>,
    /// `gid → (tenant, admitted in budget, arrival)` of every primary.
    owner: HashMap<u64, (usize, bool, f64)>,
    heals: Vec<HealEvent>,
    overflowed: u64,
    hedges: u64,
    replays: u64,
    forced_routes: u64,
}

/// Which copy of a request [`Routing::enqueue`] queues.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    Primary,
    Hedge,
    Replay,
}

/// The admit-and-route stage's working state: the fleet (its routers,
/// pools and heal planner), the capacity model, and the per-shard state
/// it fills.
struct Routing<'f> {
    fleet: &'f mut Fleet,
    cap: Capacity,
    /// Requests that already have a duplicate (hedge or replay) queued.
    hedged: HashSet<u64>,
    out: Routed,
}

impl Routing<'_> {
    /// Admits one arrival and routes it: the QoS door, the breaker clocks,
    /// a bounded-load ring choice, the chosen shard's breaker, then the
    /// primary and — for a predicted straggler, or any request landing on
    /// a healing shard inside its guard window — a hedge to the next ring
    /// shard after the straggler cut, which never touches QoS budgets.
    fn route(&mut self, gid: u64, a: &Arrival, qos: &mut QosController) {
        let verdict = qos.admit(a.tenant, a.t);
        if verdict == Verdict::Shed {
            return;
        }
        // Breaker clocks advance with fleet time: cooled-down open
        // breakers readmit their shard half-open for probes.
        for (s, shard) in self.out.shards.iter_mut().enumerate() {
            if shard.health.tick(a.t) {
                set_shard_active(&mut self.fleet.serving, s, true);
            }
        }
        let msi = self
            .fleet
            .serving
            .iter()
            .position(|m| m.model == a.model)
            .expect("the trace carries only served models");
        let key = hash2(self.fleet.cfg.seed ^ 0x0F1C_E500, gid);
        let (slot, over, forced) = self.pick_slot(msi, key, a.t);
        let ms = &self.fleet.serving[msi];
        let (shard, nominal) = (ms.shards[slot], ms.rate_rps[slot]);
        let now_rate = self.cap.rate_at(msi, slot, nominal, a.t);
        let degraded = now_rate < nominal * (1.0 - 1e-9);
        let interval = if now_rate > 1e-12 {
            1.0 / now_rate
        } else {
            f64::INFINITY
        };
        let ell = (self.out.shards[shard].until - a.t).max(0.0) + interval;
        let straggler = HEDGE_MULT / nominal;
        // Capacity-attributed timeout signal: predicted latency breaches
        // the straggler cut *and* the shard is degraded. Pure overload
        // never trips the breaker — QoS owns it.
        let slow = degraded && ell > straggler;
        self.judge(shard, slow, now_rate >= 0.5 * nominal, a.t);

        self.out.overflowed += u64::from(over);
        self.out.forced_routes += u64::from(forced);
        self.enqueue(msi, slot, gid, Role::Primary, a.t);
        let in_budget = verdict == Verdict::Admit;
        self.out.owner.insert(gid, (a.tenant, in_budget, a.t));
        if slow || a.t < self.out.shards[shard].hedge_until {
            if let Some(hk) = self.fleet.serving[msi].router.next_distinct(key, slot) {
                self.enqueue(msi, hk, gid, Role::Hedge, a.t + straggler);
            }
        }
    }

    /// The bounded-load ring choice among model `msi`'s shards:
    /// `(slot, overflowed, forced)`. When every serving shard's breaker is
    /// open the request must still go somewhere — least backlog,
    /// deterministic tie-break — and counts as forced.
    fn pick_slot(&self, msi: usize, key: u64, t: f64) -> (usize, bool, bool) {
        let ms = &self.fleet.serving[msi];
        let until = |k: usize| self.out.shards[ms.shards[k]].until;
        let loads: Vec<f64> = (0..ms.shards.len())
            .map(|k| (until(k) - t).max(0.0))
            .collect();
        match ms.router.route_bounded(key, &loads, LOAD_BOUND) {
            Some((k, over)) => (k, over, false),
            None => {
                let k = (0..ms.shards.len())
                    .min_by(|&x, &y| until(x).total_cmp(&until(y)).then(x.cmp(&y)))
                    .expect("model has at least one shard");
                (k, true, true)
            }
        }
    }

    /// Feeds shard `s`'s breaker the route's signal. Half-open, the probe
    /// judges the shard's modeled capacity; closed, a slow route is a
    /// timeout and any other a success. An opening breaker ejects the
    /// shard from every ring, and one opening from closed runs
    /// [`Routing::on_breaker_open`].
    fn judge(&mut self, s: usize, slow: bool, probe_ok: bool, t: f64) {
        let health = &mut self.out.shards[s].health;
        match health.state() {
            BreakerState::HalfOpen if probe_ok => health.on_success(t),
            BreakerState::HalfOpen => {
                if health.on_timeout(t) {
                    set_shard_active(&mut self.fleet.serving, s, false);
                }
            }
            BreakerState::Closed if slow => {
                if health.on_timeout(t) {
                    set_shard_active(&mut self.fleet.serving, s, false);
                    self.on_breaker_open(s, t);
                }
            }
            BreakerState::Closed => health.on_success(t),
            BreakerState::Open { .. } => {}
        }
    }

    /// The breaker-open → heal → replay chain. When a domain outage made
    /// shard `s`'s capacity unrecoverable in place, re-place on the
    /// surviving inventory, park the breaker open and hedge the shard
    /// until the adopted boards are live, then replay the dead shard's
    /// in-flight work.
    fn on_breaker_open(&mut self, s: usize, t: f64) {
        let Some((t0, domain)) = self.out.shards[s].outage.take_if(|(t0, _)| t >= *t0) else {
            return;
        };
        let f = &mut *self.fleet;
        let (event, specs, restores) = f.healer.heal(t, s, domain, &f.pools[s], &f.serving);
        let shard = &mut self.out.shards[s];
        if event.error.is_none() && event.restore_s.is_finite() {
            shard.health.extend_open(event.restore_s);
            shard.hedge_until = event.restore_s + 0.5 * (event.restore_s - t);
        }
        for (msi, k, rate) in restores {
            self.cap.deltas[msi][k].push((event.restore_s, rate));
        }
        shard.rollouts.extend(specs);
        self.out.heals.push(event);
        self.replay(s, t0, t);
    }

    /// Failover replay: the dead shard never acknowledges what it had in
    /// flight, so every primary whose modeled finish reaches back into the
    /// outage (including its brownout lead) is re-issued at `t` to the
    /// next ring shard.
    fn replay(&mut self, s: usize, t0: f64, t: f64) {
        let mut replay_from = t0;
        for e in &self.out.shards[s].events {
            if let FaultKind::TransferStall { for_s, .. } = e.kind {
                if e.at_s <= t0 && e.at_s + for_s >= t0 {
                    replay_from = replay_from.min(e.at_s);
                }
            }
        }
        let serve = self.fleet.cfg.serve;
        for (g, msi, slot, fin) in std::mem::take(&mut self.out.shards[s].log) {
            // The guard must absorb everything the modeled finish cannot
            // see: a batch dispatched just before the outage is
            // watchdog-held for timeout_mult × its execution before it
            // sheds, and a queued request waits out the batch accumulation
            // window first.
            let guard = (2.0 * HEDGE_MULT
                + serve.fault.timeout_mult * serve.batch.max_batch as f64)
                / self.fleet.serving[msi].rate_rps[slot]
                + serve.batch.max_wait_s;
            if fin < replay_from - guard || self.hedged.contains(&g) {
                continue;
            }
            let key = hash2(self.fleet.cfg.seed ^ 0x0F1C_E500, g);
            if let Some(hk) = self.fleet.serving[msi].router.next_distinct(key, slot) {
                self.enqueue(msi, hk, g, Role::Replay, t);
            }
        }
    }

    /// The one enqueue path: charges slot `k` of model `msi` one modeled
    /// service interval from `at` and appends the request to the slot's
    /// shard trace. Hedges and replays carry [`HEDGE_BIT`] and mark the
    /// request duplicated; a primary joins the shard's replay log.
    fn enqueue(&mut self, msi: usize, k: usize, gid: u64, role: Role, at: f64) {
        let ms = &self.fleet.serving[msi];
        let nominal = ms.rate_rps[k];
        let rate = self.cap.rate_at(msi, k, nominal, at);
        let shard = &mut self.out.shards[ms.shards[k]];
        shard.until = shard.until.max(at)
            + if rate > 1e-12 {
                1.0 / rate
            } else {
                1.0 / nominal
            };
        let duplicate = role != Role::Primary;
        shard.trace.push(Request {
            id: if duplicate { gid | HEDGE_BIT } else { gid },
            model: ms.model,
            arrival_s: at,
            deadline_s: None,
            input: None,
        });
        match role {
            Role::Primary => shard.log.push((gid, msi, k, shard.until)),
            Role::Hedge => self.out.hedges += 1,
            Role::Replay => self.out.replays += 1,
        }
        if duplicate {
            self.hedged.insert(gid);
        }
    }
}

/// Flips `shard`'s ring membership in every model router that serves it.
fn set_shard_active(serving: &mut [ModelShards], shard: usize, active: bool) {
    for ms in serving.iter_mut() {
        if let Some(k) = ms.shards.iter().position(|&x| x == shard) {
            ms.router.set_active(k, active);
        }
    }
}

/// The self-healing re-planner's inputs: the fleet spec, the heal delay
/// ([`FleetConfig::heal_delay_s`]), warm copies of the build's tuning
/// database and template cache (so its feasibility probes hit memoized
/// compiles), and the boards written off so far this run.
struct HealPlanner {
    spec: FleetSpec,
    delay_s: f64,
    db: TuningDb,
    cache: DeploymentCache,
    /// Serving boards lost to outages so far, per platform.
    lost: Vec<(FpgaPlatform, usize)>,
}

impl HealPlanner {
    /// Heals shard `shard`, whose breaker opened at `t_open` after
    /// `domain` went dark: re-plans the demand over the surviving
    /// inventory, then adopts the victim pool's healthy spare boards into
    /// serving the lost models via heal [`RolloutSpec`]s. Returns the
    /// structured event, the rollouts to schedule on the shard, and the
    /// `(model index, slot, rate)` the adoption restores at
    /// [`HealEvent::restore_s`].
    fn heal(
        &mut self,
        t_open: f64,
        shard: usize,
        domain: String,
        victim: &DevicePool,
        serving: &[ModelShards],
    ) -> (HealEvent, Vec<RolloutSpec>, Vec<(usize, usize, f64)>) {
        let mut event = HealEvent {
            t_s: t_open,
            shard,
            domain,
            lost: Vec::new(),
            adopted: Vec::new(),
            plan_evaluations: 0,
            restore_s: f64::INFINITY,
            error: None,
        };
        for d in victim.devices().iter().filter(|d| is_serving(d)) {
            event.lost.push(d.name.clone());
            match self.lost.iter_mut().find(|(p, _)| *p == d.platform) {
                Some((_, n)) => *n += 1,
                None => self.lost.push((d.platform, 1)),
            }
        }
        // The surviving inventory: the spec minus every board written off
        // so far, fleet-wide.
        let mut survivor = self.spec.clone();
        for c in &mut survivor.classes {
            if let Some((_, n)) = self.lost.iter().find(|(p, _)| *p == c.platform) {
                c.count = c.count.saturating_sub(*n);
            }
        }
        match plan_placement(&survivor, &mut self.db, &mut self.cache) {
            Ok(p) => event.plan_evaluations = p.evaluations,
            Err(e) => {
                event.error = Some(e);
                return (event, Vec::new(), Vec::new());
            }
        }
        // Adopt the shard's healthy spare boards (standby capacity outside
        // the serving cage) to stand in for the lost ones, fastest feasible
        // spare first, until each lost model's rate is covered.
        let mut spares: Vec<(String, FpgaPlatform)> = victim
            .devices()
            .iter()
            .filter(|d| d.health() == DeviceHealth::Healthy && !is_serving(d))
            .map(|d| (d.name.clone(), d.platform))
            .collect();
        let mut specs = Vec::new();
        let mut caps = Vec::new();
        let mut at = t_open + self.delay_s;
        for (msi, ms) in serving.iter().enumerate() {
            let Some(k) = ms.shards.iter().position(|&x| x == shard) else {
                continue;
            };
            let target_rate = ms.rate_rps[k];
            let mut adopted: Vec<(String, FpgaPlatform)> = Vec::new();
            let mut got = 0.0f64;
            while got < target_rate {
                let mut best: Option<(usize, f64)> = None;
                for (i, (_, p)) in spares.iter().enumerate() {
                    let Ok(r) = device_rate(&mut self.cache, ms.model, *p) else {
                        continue;
                    };
                    if best.is_none_or(|(_, br)| r > br) {
                        best = Some((i, r));
                    }
                }
                let Some((i, r)) = best else {
                    break;
                };
                adopted.push(spares.remove(i));
                got += r;
            }
            if adopted.is_empty() {
                continue;
            }
            // One rollout per adopted platform: bitstream configs are
            // per-platform. Serialized on the shard's rollout machinery.
            let mut plats: Vec<FpgaPlatform> = Vec::new();
            for (_, p) in &adopted {
                if !plats.contains(p) {
                    plats.push(*p);
                }
            }
            for p in plats {
                let names: Vec<String> = adopted
                    .iter()
                    .filter(|(_, ap)| *ap == p)
                    .map(|(n, _)| n.clone())
                    .collect();
                // One wave reprograms the whole adoption in parallel — a
                // heal races the outage, so it must not serialize board by
                // board the way a cautious upgrade does.
                let pol = RolloutPolicy {
                    wave_size: names.len().max(1),
                    ..RolloutPolicy::default()
                };
                specs.push(RolloutSpec {
                    at_s: at,
                    model: ms.model,
                    to: optimized_config(ms.model, p),
                    verify_input: None,
                    adopt: names,
                    policy: pol,
                });
                at += pol.reprogram_s + 0.02;
            }
            caps.push((msi, k, got));
            event.adopted.extend(adopted.into_iter().map(|(n, _)| n));
        }
        // Conservative restore estimate: every adoption wave done plus a
        // guard margin — the breaker stays parked until the boards are live.
        if !event.adopted.is_empty() {
            event.restore_s = at + 0.05;
        }
        (event, specs, caps)
    }
}

/// Attribution: each tenant's door ledger from `qos`, then completions
/// and sheds credited back through `owner` (`gid → (tenant, in budget,
/// arrival)`). The earliest completion of a request wins — at equal times
/// the primary copy beats the hedge — and later copies are suppressed; a
/// shed counts only when no copy completed, and once per request even
/// when both copies shed. Each winner's latency, from the *original*
/// arrival even when the hedge won, feeds the run histogram and
/// `fleet_request_latency_seconds`.
fn attribute(
    r: &mut FleetRunResult,
    tenants: &[TenantLoad],
    qos: &QosController,
    owner: &HashMap<u64, (usize, bool, f64)>,
) {
    r.tenants = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (offered, admitted, over, shed) = qos.counters(i);
            TenantOutcome {
                name: t.policy.name.clone(),
                offered,
                admitted_in_budget: admitted,
                admitted_over_budget: over,
                shed_fleet: shed,
                shed_shard: 0,
                completed: 0,
                completed_in_budget: 0,
            }
        })
        .collect();
    let mut winner: HashMap<u64, (f64, u64)> = HashMap::new();
    let mut completions = 0u64;
    for c in r.shards.iter().flat_map(|s| &s.completions) {
        completions += 1;
        let base = c.id & !HEDGE_BIT;
        let e = winner.entry(base).or_insert((c.completion_s, c.id));
        if c.completion_s < e.0
            || (c.completion_s == e.0 && c.id & HEDGE_BIT == 0 && e.1 & HEDGE_BIT != 0)
        {
            *e = (c.completion_s, c.id);
        }
    }
    r.hedge_wins = winner
        .values()
        .filter(|(_, id)| id & HEDGE_BIT != 0)
        .count() as u64;
    r.hedge_suppressed = completions - winner.len() as u64;

    for c in r.shards.iter().flat_map(|s| &s.completions) {
        let base = c.id & !HEDGE_BIT;
        let &(_, wid) = winner.get(&base).expect("completion recorded above");
        if wid != c.id {
            continue; // suppressed duplicate
        }
        let &(tenant, in_budget, arrival_s) = owner.get(&base).expect("completion has an owner");
        r.tenants[tenant].completed += 1;
        if in_budget {
            r.tenants[tenant].completed_in_budget += 1;
        }
        let l = c.completion_s - arrival_s;
        r.latency.record(l);
        r.registry.histogram_observe(
            "fleet_request_latency_seconds",
            "End-to-end fleet request latency (arrival to completion).",
            &[],
            LATENCY_BOUNDS,
            l,
        );
        r.span_s = r.span_s.max(c.completion_s);
    }
    let mut shed_seen: HashSet<u64> = HashSet::new();
    for shed in r.shards.iter().flat_map(|s| &s.sheds) {
        let base = shed.id & !HEDGE_BIT;
        if winner.contains_key(&base) || !shed_seen.insert(base) {
            continue;
        }
        let &(tenant, _, _) = owner.get(&base).expect("shed has an owner");
        r.tenants[tenant].shed_shard += 1;
    }
}

/// Histogram bounds for `fleet_request_latency_seconds` (seconds).
const LATENCY_BOUNDS: &[f64] = &[
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
];

/// Histogram bounds for `fleet_heal_latency_seconds` (seconds).
const HEAL_BOUNDS: &[f64] = &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

/// Metric publishing: the fleet-scope `fleet_*` families into
/// `r.registry` — topology, routing and duplicate counters, breaker
/// transitions and per-shard health ratios, heal outcomes, the per-tenant
/// ledger, and the device-class aggregates.
fn publish_metrics(r: &FleetRunResult, classes: &[DeviceClass], domains: usize) {
    let registry = &r.registry;
    registry.gauge_set(
        "fleet_shards_count",
        "Shards the fleet's devices are dealt into.",
        &[],
        r.shards.len() as f64,
    );
    registry.gauge_set(
        "fleet_domains_count",
        "Correlated failure domains the shards are striped across.",
        &[],
        domains as f64,
    );
    for (name, help, v) in [
        (
            "fleet_routed_total",
            "Requests admitted and routed to a shard.",
            r.routed,
        ),
        (
            "fleet_router_overflow_total",
            "Routed requests that overflowed past their home shard (bounded load).",
            r.overflowed,
        ),
        (
            "fleet_hedges_total",
            "Hedged duplicates fired at predicted straggler shards.",
            r.hedges,
        ),
        (
            "fleet_hedge_wins_total",
            "Hedged duplicates that completed before their primary copy.",
            r.hedge_wins,
        ),
        (
            "fleet_hedge_suppressed_total",
            "Duplicate completions discarded by first-completion-wins accounting.",
            r.hedge_suppressed,
        ),
        (
            "fleet_failover_replays_total",
            "Primaries re-issued to another shard by the outage failover replay.",
            r.replays,
        ),
        (
            "fleet_forced_routes_total",
            "Requests routed while every serving shard's breaker was open.",
            r.forced_routes,
        ),
    ] {
        registry.counter_add(name, help, &[], v as f64);
    }
    // Register every transition label at zero so the families exist (and
    // dashboards resolve) even on a fault-free run.
    let transitions_help = "Circuit-breaker transitions, by target state.";
    for to in ["open", "half-open", "closed"] {
        registry.counter_add(
            "fleet_breaker_transitions_total",
            transitions_help,
            &[("to", to)],
            0.0,
        );
    }
    for (s, log) in r.breakers.iter().enumerate() {
        for tr in log {
            registry.counter_inc(
                "fleet_breaker_transitions_total",
                transitions_help,
                &[("to", tr.to)],
            );
        }
        registry.gauge_set(
            "fleet_shard_health_ratio",
            "Fraction of the run the shard's breaker was closed (healthy).",
            &[("shard", &s.to_string())],
            health_ratio(log, r.span_s),
        );
    }
    let heal_ok = r.heals.iter().filter(|h| h.error.is_none()).count();
    for (outcome, n) in [("replaced", heal_ok), ("failed", r.heals.len() - heal_ok)] {
        registry.counter_add(
            "fleet_heal_events_total",
            "Self-healing re-placements, by outcome.",
            &[("outcome", outcome)],
            n as f64,
        );
    }
    for h in &r.heals {
        if h.error.is_none() && h.restore_s.is_finite() {
            registry.histogram_observe(
                "fleet_heal_latency_seconds",
                "Outage detection to estimated capacity restore.",
                &[],
                HEAL_BOUNDS,
                h.restore_s - h.t_s,
            );
        }
    }
    for o in &r.tenants {
        let t = o.name.as_str();
        registry.counter_add(
            "fleet_admitted_total",
            "Requests admitted at the fleet door, by tenant and budget bucket.",
            &[("tenant", t), ("budget", "within")],
            o.admitted_in_budget as f64,
        );
        registry.counter_add(
            "fleet_admitted_total",
            "Requests admitted at the fleet door, by tenant and budget bucket.",
            &[("tenant", t), ("budget", "over")],
            o.admitted_over_budget as f64,
        );
        registry.counter_add(
            "fleet_shed_total",
            "Requests shed, by tenant and scope (fleet QoS door vs shard).",
            &[("tenant", t), ("scope", "fleet")],
            o.shed_fleet as f64,
        );
        registry.counter_add(
            "fleet_shed_total",
            "Requests shed, by tenant and scope (fleet QoS door vs shard).",
            &[("tenant", t), ("scope", "shard")],
            o.shed_shard as f64,
        );
        registry.counter_add(
            "fleet_completed_total",
            "Requests completed, by tenant.",
            &[("tenant", t)],
            o.completed as f64,
        );
    }
    // Class-scoped device aggregates: the fleet registry carries one
    // series per device *class*, not per device — per-device busy and
    // utilization stay in each shard's own registry.
    publish_class_metrics(registry, classes, &r.shards, r.span_s);
}

/// Fraction of a `span_s` run a breaker with transition log `log` spent
/// closed.
fn health_ratio(log: &[BreakerTransition], span_s: f64) -> f64 {
    let mut not_closed_s = 0.0f64;
    let mut left_closed: Option<f64> = None;
    for tr in log {
        if tr.from == "closed" {
            left_closed = Some(tr.t_s);
        } else if tr.to == "closed" {
            if let Some(o) = left_closed.take() {
                not_closed_s += tr.t_s - o;
            }
        }
    }
    if let Some(o) = left_closed {
        not_closed_s += span_s.max(o) - o;
    }
    if span_s > 0.0 {
        (1.0 - not_closed_s / span_s).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

fn publish_class_metrics(
    registry: &Registry,
    classes: &[DeviceClass],
    shard_results: &[RunResult],
    span_s: f64,
) {
    for c in classes {
        let class = c.platform.label();
        let prefix = format!("{}-", class.to_lowercase());
        let mut busy = 0.0f64;
        for r in shard_results {
            for d in &r.devices {
                if d.device.starts_with(&prefix) {
                    busy += r
                        .registry
                        .value("serve_device_busy_seconds", &[("device", &d.device)])
                        .unwrap_or(0.0);
                }
            }
        }
        registry.gauge_set(
            "fleet_class_devices_count",
            "Fleet inventory per device class.",
            &[("class", class)],
            c.count as f64,
        );
        registry.gauge_set(
            "fleet_class_busy_seconds",
            "Aggregate simulated batch-execution seconds per device class.",
            &[("class", class)],
            busy,
        );
        let util = if span_s > 0.0 && c.count > 0 {
            busy / (span_s * c.count as f64)
        } else {
            0.0
        };
        registry.gauge_set(
            "fleet_class_utilization_ratio",
            "Class busy-fraction of the run span (aggregated over devices).",
            &[("class", class)],
            util,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ModelDemand;

    fn ev(at_s: f64, target: &str, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at_s,
            target: target.into(),
            kind,
        }
    }

    /// Seven Stratix 10 SX boards over two shards, one failure domain
    /// each, placed for 2.2 boards of LeNet demand, with `events` armed
    /// fleet-wide. Shard 0 serves on `s10sx-0`/`s10sx-1` with spares
    /// `s10sx-2`/`s10sx-3`; shard 1 serves on `s10sx-0` with spares
    /// `s10sx-1`/`s10sx-2`.
    fn fleet(events: Vec<FaultEvent>) -> Fleet {
        let p = FpgaPlatform::Stratix10Sx;
        let rate = device_rate(&mut DeploymentCache::new(), Model::LeNet5, p).unwrap();
        let spec = FleetSpec {
            classes: vec![DeviceClass {
                platform: p,
                count: 7,
            }],
            demands: vec![ModelDemand {
                model: Model::LeNet5,
                rate_rps: 2.2 * rate,
            }],
            headroom: 0.25,
            domains: 2,
        };
        let cfg = FleetConfig {
            shards: 2,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::build(&spec, cfg, &mut TuningDb::new()).unwrap();
        let serving: Vec<Vec<bool>> = fleet
            .pools
            .iter()
            .map(|p| p.devices().iter().map(is_serving).collect())
            .collect();
        assert_eq!(
            serving,
            vec![vec![true, true, false, false], vec![true, false, false]]
        );
        fleet.arm(FaultPlan::new(0, events));
        fleet
    }

    fn routing(fleet: &mut Fleet) -> Routing<'_> {
        let shards = fleet.expand_faults();
        let cap = fleet.capacity_model(&shards);
        Routing {
            fleet,
            cap,
            hedged: HashSet::new(),
            out: Routed {
                shards,
                ..Routed::default()
            },
        }
    }

    #[test]
    fn a_domain_outage_darkens_only_serving_boards_and_targets_reach_their_shards() {
        let mut fleet = fleet(vec![
            ev(0.1, "dom-0", FaultKind::DomainOutage),
            ev(0.2, "*", FaultKind::TransferCorrupt),
            ev(0.3, "s10sx-3", FaultKind::DeviceHang),
        ]);
        let attempts = fleet.cfg.serve.fault.max_reprogram_attempts as usize;
        let shards = fleet.expand_faults();
        assert_eq!(shards[0].outage, Some((0.1, "dom-0".to_string())));
        assert_eq!(shards[1].outage, None);
        // Each serving board of dom-0 hangs and exhausts its reprogram
        // budget at the outage instant; the spares are left alone.
        let at_outage = |name: &str, kind: &FaultKind| {
            let hit = |e: &&FaultEvent| e.at_s == 0.1 && e.target == name && e.kind == *kind;
            shards[0].events.iter().filter(hit).count()
        };
        for name in ["s10sx-0", "s10sx-1"] {
            assert_eq!(at_outage(name, &FaultKind::DeviceHang), 1);
            assert_eq!(at_outage(name, &FaultKind::ReprogramFail), attempts);
        }
        assert!(shards[0]
            .events
            .iter()
            .all(|e| e.at_s != 0.1 || e.target == "s10sx-0" || e.target == "s10sx-1"));
        // `*` reaches every shard; a device name only the shard owning it.
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(shard.events.iter().filter(|e| e.target == "*").count(), 1);
            assert_eq!(shard.events.iter().any(|e| e.target == "s10sx-3"), s == 0);
        }
        assert_eq!(shards[0].events.len(), 2 * (1 + attempts) + 2);
        assert_eq!(shards[1].events.len(), 1);
    }

    #[test]
    fn the_capacity_model_slows_darkens_and_restores_a_shard() {
        // `s10sx-0` names a serving board on both shards; the event goes to
        // the highest-numbered one, shard 1, which dom-1 then takes dark.
        let mut fleet = fleet(vec![
            ev(0.05, "s10sx-0", FaultKind::DeviceSlow { factor: 2.0 }),
            ev(0.1, "dom-1", FaultKind::DomainOutage),
        ]);
        let r = fleet.plan.assignments[0].device_rate_rps;
        let mut routing = routing(&mut fleet);
        let nominal = routing.fleet.serving[0].rate_rps.clone();
        let rate = |routing: &Routing, k: usize, t: f64| routing.cap.rate_at(0, k, nominal[k], t);
        assert_eq!(rate(&routing, 0, 1.0), nominal[0], "shard 0 is untouched");
        assert_eq!(rate(&routing, 1, 0.04), nominal[1]);
        assert_eq!(
            rate(&routing, 1, 0.05),
            nominal[1] + r * (1.0 / 2.0 - 1.0),
            "a slowdown by f changes the rate by r(1/f - 1)"
        );
        // The outage takes away more than the slowed rate had left: the
        // model floors at zero.
        assert_eq!(rate(&routing, 1, 0.1), 0.0);

        // The breaker opens after the outage: the heal adopts a spare,
        // and the rate comes back exactly at the estimated restore.
        routing.on_breaker_open(1, 0.12);
        let heal = &routing.out.heals[0];
        assert!(heal.error.is_none() && heal.adopted.len() == 1);
        let restore_s = heal.restore_s;
        assert_eq!(rate(&routing, 1, restore_s - 1e-9), 0.0);
        assert!(rate(&routing, 1, restore_s) > 0.0);
        assert_eq!(routing.out.shards[1].outage, None, "one heal per outage");
    }

    #[test]
    fn hedges_and_replays_share_the_enqueue_path_and_carry_the_hedge_bit() {
        let mut fleet = fleet(Vec::new());
        let mut routing = routing(&mut fleet);
        let nominal = routing.fleet.serving[0].rate_rps[1];
        routing.enqueue(0, 0, 7, Role::Primary, 0.01);
        routing.enqueue(0, 1, 7, Role::Hedge, 0.02);
        routing.enqueue(0, 1, 8, Role::Replay, 0.03);
        let ids = |s: usize| -> Vec<u64> {
            let trace = &routing.out.shards[s].trace;
            trace.iter().map(|r| r.id).collect()
        };
        assert_eq!(ids(0), vec![7]);
        assert_eq!(ids(1), vec![7 | HEDGE_BIT, 8 | HEDGE_BIT]);
        assert_eq!((routing.out.hedges, routing.out.replays), (1, 1));
        assert!(routing.hedged.contains(&7) && routing.hedged.contains(&8));
        // Only the primary joins the replay log, and every copy charges
        // its shard one modeled service interval.
        assert_eq!(routing.out.shards[0].log.len(), 1);
        assert!(routing.out.shards[1].log.is_empty());
        assert_eq!(
            routing.out.shards[1].until,
            (0.02 + 1.0 / nominal).max(0.03) + 1.0 / nominal
        );
    }
}
