//! The placement optimizer: model demand → replicas per device class.
//!
//! A fleet spec names its device classes (an [`FpgaPlatform`] and how many
//! boards of it the fleet owns) and the steady-state demand per model,
//! requests/second. Placement answers "how many devices of which class
//! serve which model":
//!
//! 1. **Feasibility** — each (model, class) pair is probed by compiling
//!    the model's optimized configuration through the shared
//!    [`DeploymentCache`]: a [`FlowError`] (a Table 6.2 resource
//!    overflow, a global-memory overrun on the HBM part, an illegal plan)
//!    marks the pair infeasible, structurally, without panicking.
//! 2. **Throughput** — each feasible deployment's calibrated
//!    [`BatchLatencyModel`](fpgaccel_core::BatchLatencyModel) gives the
//!    per-device steady-state rate at the probe batch size.
//! 3. **Packing** — models are placed most-constrained-first (fewest
//!    feasible classes), each filling from its fastest feasible class
//!    down, targeting `demand × (1 + headroom)` and never exceeding the
//!    class inventory.
//!
//! The resulting [`PlacementPlan`] is a pure function of the spec, so it
//! is cached in the [`TuningDb`] under the spec's digest — a warm fleet
//! start-up reloads the plan without spending a single feasibility probe.

use crate::hash::{hash2, hash_str};
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::FlowError;
use fpgaccel_device::FpgaPlatform;
use fpgaccel_serve::DeploymentCache;
use fpgaccel_tensor::models::Model;
use fpgaccel_tune::{PlacementRecord, TuningDb};

/// Batch size the feasibility probe calibrates and rates throughput at.
pub const PROBE_BATCH: usize = 16;

/// One class of identical boards in the fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceClass {
    /// The FPGA platform of every board in the class.
    pub platform: FpgaPlatform,
    /// Boards of this class the fleet owns.
    pub count: usize,
}

/// Steady-state demand for one model, requests/second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelDemand {
    /// The model.
    pub model: Model,
    /// Offered steady-state rate to provision for.
    pub rate_rps: f64,
}

/// The fleet inventory and demand the optimizer places.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Device classes, in inventory order.
    pub classes: Vec<DeviceClass>,
    /// Per-model demand, in demand order.
    pub demands: Vec<ModelDemand>,
    /// Capacity slack above demand the plan targets (0.2 = 20%).
    pub headroom: f64,
    /// Correlated failure domains (racks / power domains) the fleet's
    /// shards are striped across. Shard `s` lives in domain
    /// `dom-{s % domains}`; a domain outage takes every board in the
    /// domain dark at once. `1` models a single-site fleet with no
    /// correlated-failure isolation.
    pub domains: usize,
}

impl FleetSpec {
    /// Stable digest of the spec — the placement cache key in the tuning
    /// database. Structural: any change to classes, demands, or headroom
    /// changes the digest.
    pub fn digest(&self) -> String {
        let mut h = hash2(0xF1EE_7000, self.classes.len() as u64);
        for c in &self.classes {
            h = hash_str(h, c.platform.label());
            h = hash2(h, c.count as u64);
        }
        h = hash2(h, self.demands.len() as u64);
        for d in &self.demands {
            h = hash_str(h, d.model.name());
            h = hash2(h, d.rate_rps.to_bits());
        }
        h = hash2(h, self.headroom.to_bits());
        h = hash2(h, self.domains.max(1) as u64);
        format!("fleet-{h:016x}")
    }
}

/// Why placement failed. Both variants are structured — a model that fits
/// nowhere is an error value carrying the per-class compile failures, not
/// a panic.
#[derive(Clone, Debug)]
pub enum PlacementError {
    /// The model compiles on none of the fleet's device classes.
    NoFeasibleClass {
        /// The unplaceable model.
        model: Model,
        /// The compile failure per probed class, in inventory order.
        reasons: Vec<(FpgaPlatform, FlowError)>,
    },
    /// Every feasible class is exhausted before the model's demand is
    /// covered.
    InsufficientCapacity {
        /// The under-provisioned model.
        model: Model,
        /// Demand the spec asked for, requests/second.
        demand_rps: f64,
        /// Rate the exhausted inventory actually covers.
        placed_rps: f64,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoFeasibleClass { model, reasons } => {
                write!(f, "{} fits no device class:", model.name())?;
                for (p, e) in reasons {
                    write!(f, " [{}: {e}]", p.label())?;
                }
                Ok(())
            }
            PlacementError::InsufficientCapacity {
                model,
                demand_rps,
                placed_rps,
            } => write!(
                f,
                "inventory exhausted placing {}: demand {demand_rps:.1} rps, \
                 placed {placed_rps:.1} rps",
                model.name()
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Replicas of one model on one device class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Assignment {
    /// The model served.
    pub model: Model,
    /// The class serving it.
    pub platform: FpgaPlatform,
    /// Devices of the class dedicated to the model.
    pub replicas: usize,
    /// Calibrated per-device steady-state rate, requests/second.
    pub device_rate_rps: f64,
}

/// A deterministic placement of the spec's demand onto its inventory.
#[derive(Clone, Debug)]
pub struct PlacementPlan {
    /// Digest of the spec this plan solves (the tuning-database key).
    pub spec_digest: String,
    /// Replica assignments, in placement order.
    pub assignments: Vec<Assignment>,
    /// Aggregate steady-state serving rate, requests/second.
    pub total_rate_rps: f64,
    /// Feasibility probes (compile + calibration) this planning spent —
    /// zero when the plan was reloaded from the database.
    pub evaluations: usize,
    /// True when the plan came out of the tuning database instead of a
    /// cold optimization.
    pub from_cache: bool,
}

impl PlacementPlan {
    /// The persistent-record form of the plan.
    pub fn record(&self) -> PlacementRecord {
        PlacementRecord {
            replicas: self
                .assignments
                .iter()
                .map(|a| (a.model.name().into(), a.platform.label().into(), a.replicas))
                .collect(),
            total_rate_rps: self.total_rate_rps,
            evaluations: self.evaluations,
        }
    }

    /// Devices the plan occupies.
    pub fn devices_used(&self) -> usize {
        self.assignments.iter().map(|a| a.replicas).sum()
    }
}

/// Calibrated steady-state rate of one `platform` board serving `model`,
/// requests/second: its optimized configuration compiled through `cache`
/// and rated at [`PROBE_BATCH`]. The compile error when the pair is
/// infeasible.
pub fn device_rate(
    cache: &mut DeploymentCache,
    model: Model,
    platform: FpgaPlatform,
) -> Result<f64, FlowError> {
    let dep = cache.get_or_compile(model, platform, &optimized_config(model, platform))?;
    let lm = cache.calibration(&dep, PROBE_BATCH);
    Ok(PROBE_BATCH as f64 / lm.seconds(PROBE_BATCH))
}

/// One probed (model, class) pair.
struct Probe {
    platform: FpgaPlatform,
    inventory_slot: usize,
    device_rate_rps: f64,
}

/// Plans `spec` against the tuning database: a cached plan for the spec's
/// digest is reloaded verbatim (zero probes); otherwise every (model,
/// class) pair is probed through `cache`, the demand is packed
/// most-constrained-model-first, and the winning plan is inserted into
/// `db` for the next start-up.
pub fn plan_placement(
    spec: &FleetSpec,
    db: &mut TuningDb,
    cache: &mut DeploymentCache,
) -> Result<PlacementPlan, PlacementError> {
    let digest = spec.digest();
    if let Some(plan) = reload(spec, &digest, db, cache) {
        return Ok(plan);
    }

    let mut evaluations = 0usize;
    let mut remaining: Vec<usize> = spec.classes.iter().map(|c| c.count).collect();

    // Probe every (model, class) pair once; infeasible pairs keep their
    // structured compile error for the NoFeasibleClass report.
    let mut feasible: Vec<Vec<Probe>> = Vec::with_capacity(spec.demands.len());
    for d in &spec.demands {
        let mut probes = Vec::new();
        let mut reasons = Vec::new();
        for (slot, c) in spec.classes.iter().enumerate() {
            evaluations += 1;
            match device_rate(cache, d.model, c.platform) {
                Ok(device_rate_rps) => probes.push(Probe {
                    platform: c.platform,
                    inventory_slot: slot,
                    device_rate_rps,
                }),
                Err(e) => reasons.push((c.platform, e)),
            }
        }
        if probes.is_empty() && d.rate_rps > 0.0 {
            return Err(PlacementError::NoFeasibleClass {
                model: d.model,
                reasons,
            });
        }
        probes.sort_by(|a, b| {
            b.device_rate_rps
                .total_cmp(&a.device_rate_rps)
                .then(a.inventory_slot.cmp(&b.inventory_slot))
        });
        feasible.push(probes);
    }

    // Most-constrained model first (fewest feasible classes; demand-order
    // tie-break), each filling from its fastest class down.
    let mut order: Vec<usize> = (0..spec.demands.len()).collect();
    order.sort_by_key(|&i| (feasible[i].len(), i));

    let mut assignments = Vec::new();
    for &i in &order {
        let d = &spec.demands[i];
        let target = d.rate_rps * (1.0 + spec.headroom.max(0.0));
        let mut placed = 0.0f64;
        for p in &feasible[i] {
            if placed >= target {
                break;
            }
            let free = remaining[p.inventory_slot];
            if free == 0 {
                continue;
            }
            let want = ((target - placed) / p.device_rate_rps).ceil() as usize;
            let take = want.min(free).max(1);
            remaining[p.inventory_slot] -= take;
            placed += take as f64 * p.device_rate_rps;
            assignments.push(Assignment {
                model: d.model,
                platform: p.platform,
                replicas: take,
                device_rate_rps: p.device_rate_rps,
            });
        }
        if placed < d.rate_rps {
            return Err(PlacementError::InsufficientCapacity {
                model: d.model,
                demand_rps: d.rate_rps,
                placed_rps: placed,
            });
        }
    }
    // Placement walked models constrained-first; report in demand order.
    assignments.sort_by_key(|a| {
        spec.demands
            .iter()
            .position(|d| d.model == a.model)
            .unwrap_or(usize::MAX)
    });

    let plan = PlacementPlan {
        spec_digest: digest.clone(),
        total_rate_rps: assignments
            .iter()
            .map(|a| a.replicas as f64 * a.device_rate_rps)
            .sum(),
        assignments,
        evaluations,
        from_cache: false,
    };
    db.placements.insert(digest, plan.record());
    Ok(plan)
}

/// Reconstructs a plan from a cached record, re-deriving per-device rates
/// from the (memoized) calibrations. Returns `None` when no record exists
/// or the record no longer parses against the current model/platform
/// tables — the caller then re-plans cold.
fn reload(
    spec: &FleetSpec,
    digest: &str,
    db: &TuningDb,
    cache: &mut DeploymentCache,
) -> Option<PlacementPlan> {
    let rec = db.placements.lookup(digest)?;
    let mut assignments = Vec::with_capacity(rec.replicas.len());
    for (model, platform, replicas) in &rec.replicas {
        let model = *Model::ALL.iter().find(|m| m.name() == model)?;
        let platform = FpgaPlatform::from_label(platform)?;
        assignments.push(Assignment {
            model,
            platform,
            replicas: *replicas,
            device_rate_rps: device_rate(cache, model, platform).ok()?,
        });
    }
    // A cached plan must still fit the spec's inventory (the digest
    // guarantees it, but a hand-edited database must not panic the build).
    for c in &spec.classes {
        let used: usize = assignments
            .iter()
            .filter(|a| a.platform == c.platform)
            .map(|a| a.replicas)
            .sum();
        if used > c.count {
            return None;
        }
    }
    Some(PlacementPlan {
        spec_digest: digest.to_string(),
        total_rate_rps: rec.total_rate_rps,
        assignments,
        evaluations: 0,
        from_cache: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            classes: vec![
                DeviceClass {
                    platform: FpgaPlatform::Stratix10Sx,
                    count: 6,
                },
                DeviceClass {
                    platform: FpgaPlatform::Arria10Gx,
                    count: 4,
                },
            ],
            demands: vec![
                ModelDemand {
                    model: Model::LeNet5,
                    rate_rps: 2000.0,
                },
                ModelDemand {
                    model: Model::MobileNetV1,
                    rate_rps: 40.0,
                },
            ],
            headroom: 0.2,
            domains: 1,
        }
    }

    #[test]
    fn digests_are_structural() {
        let a = spec();
        let mut b = spec();
        assert_eq!(a.digest(), b.digest());
        b.demands[0].rate_rps += 1.0;
        assert_ne!(a.digest(), b.digest());
        let mut c = spec();
        c.classes[1].count += 1;
        assert_ne!(a.digest(), c.digest());
        let mut d = spec();
        d.domains = 4;
        assert_ne!(a.digest(), d.digest(), "domain topology is structural");
    }

    #[test]
    fn cold_plan_meets_demand_and_caches() {
        let mut db = TuningDb::new();
        let mut cache = DeploymentCache::new();
        let plan = plan_placement(&spec(), &mut db, &mut cache).unwrap();
        assert!(!plan.from_cache);
        assert!(plan.evaluations > 0);
        for d in spec().demands {
            let placed: f64 = plan
                .assignments
                .iter()
                .filter(|a| a.model == d.model)
                .map(|a| a.replicas as f64 * a.device_rate_rps)
                .sum();
            assert!(placed >= d.rate_rps, "{}: {placed}", d.model.name());
        }
        assert!(plan.devices_used() <= 10);
        assert_eq!(db.placements.len(), 1);

        // Warm: reloaded from the record, zero probes.
        let warm = plan_placement(&spec(), &mut db, &mut DeploymentCache::new()).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.evaluations, 0);
        assert_eq!(
            warm.assignments.len(),
            plan.assignments.len(),
            "reloaded plan must mirror the cold one"
        );
        for (w, c) in warm.assignments.iter().zip(&plan.assignments) {
            assert_eq!(
                (w.model, w.platform, w.replicas),
                (c.model, c.platform, c.replicas)
            );
        }
    }

    #[test]
    fn model_too_large_for_every_class_is_a_structured_error() {
        // ResNet-34 exceeds the Arria 10's BRAM inventory (Table 6.2), so
        // an A10-only fleet must report NoFeasibleClass — with the compile
        // failure attached — rather than panicking.
        let spec = FleetSpec {
            classes: vec![DeviceClass {
                platform: FpgaPlatform::Arria10Gx,
                count: 8,
            }],
            demands: vec![ModelDemand {
                model: Model::ResNet34,
                rate_rps: 10.0,
            }],
            headroom: 0.0,
            domains: 1,
        };
        let err =
            plan_placement(&spec, &mut TuningDb::new(), &mut DeploymentCache::new()).unwrap_err();
        match err {
            PlacementError::NoFeasibleClass { model, reasons } => {
                assert_eq!(model, Model::ResNet34);
                assert_eq!(reasons.len(), 1);
                assert_eq!(reasons[0].0, FpgaPlatform::Arria10Gx);
            }
            other => panic!("expected NoFeasibleClass, got {other}"),
        }
    }

    #[test]
    fn exhausted_inventory_is_insufficient_capacity() {
        let spec = FleetSpec {
            classes: vec![DeviceClass {
                platform: FpgaPlatform::Stratix10Sx,
                count: 1,
            }],
            demands: vec![ModelDemand {
                model: Model::MobileNetV1,
                rate_rps: 1e6,
            }],
            headroom: 0.0,
            domains: 1,
        };
        let err =
            plan_placement(&spec, &mut TuningDb::new(), &mut DeploymentCache::new()).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::InsufficientCapacity {
                model: Model::MobileNetV1,
                ..
            }
        ));
    }
}
