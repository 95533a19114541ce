//! # fpgaccel-fleet
//!
//! Sharded fleet serving layered on top of `fpgaccel-serve`: hundreds of
//! FPGAs, several model variants, several tenants — still a pure function
//! of its inputs, still byte-for-byte reproducible.
//!
//! A single [`DevicePool`](fpgaccel_serve::DevicePool) plus
//! [`Server`](fpgaccel_serve::Server) serves a handful of devices well;
//! fleet scale needs the layer above, and this crate provides it without
//! forking the serving stack:
//!
//! * **[`placement`]** — the placement optimizer: bin-packs model demand
//!   onto device classes using the Table 6.2 resource feasibility of each
//!   (model, platform) pair and the calibrated
//!   [`BatchLatencyModel`](fpgaccel_core::BatchLatencyModel) throughput of
//!   each feasible deployment, producing a deterministic
//!   [`PlacementPlan`] cached in the tuning database alongside tilings.
//! * **[`router`]** — seeded consistent hashing with bounded-load
//!   overflow: a request's home shard is stable under shard churn (the
//!   classic ~`keys/n` remapping bound), and an overloaded home spills to
//!   the next active shard on the ring instead of queueing behind it.
//! * **[`qos`]** — multi-tenant admission: per-tenant token-bucket
//!   budgets that always admit intra-budget traffic, plus weighted-fair
//!   sharing of the surplus so a misbehaving tenant sheds its own excess
//!   instead of starving everyone else.
//! * **[`driver`]** — the [`Fleet`] façade: builds per-shard pools from a
//!   placement plan through one shared template
//!   [`DeploymentCache`](fpgaccel_serve::DeploymentCache) (one compile and
//!   one calibration per deployment, fleet-wide), routes a merged tenant
//!   trace through QoS and the router, runs every shard's
//!   [`Server`](fpgaccel_serve::Server), replays fleet-wide rollouts
//!   shard by shard through the existing wave state machine, and
//!   aggregates per-class `fleet_*` metrics.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod driver;
pub mod hash;
pub mod placement;
pub mod qos;
pub mod router;

pub use driver::{
    Fleet, FleetConfig, FleetRollout, FleetRunResult, HealEvent, TenantLoad, TenantOutcome,
    HEDGE_BIT,
};
pub use placement::{
    device_rate, plan_placement, Assignment, DeviceClass, FleetSpec, ModelDemand, PlacementError,
    PlacementPlan,
};
pub use qos::{QosController, TenantPolicy, Verdict};
pub use router::{BreakerState, BreakerTransition, HealthPolicy, Router, ShardHealth};
