//! # fpgaccel-serve
//!
//! A multi-device inference serving layer over the compiled FPGA
//! deployments, in deterministic simulated time.
//!
//! The thesis flow produces one deployment per (model, platform,
//! configuration); production inference needs the layer above: several
//! FPGAs serving several models at once, under bursty load. This crate
//! provides that layer:
//!
//! * **[`DeploymentCache`]** — compiled bitstreams keyed by
//!   (model, platform, optimization config); every deploy after the first
//!   is a lookup sharing an `Arc<Deployment>`.
//! * **[`DevicePool`]** — FPGAs each holding deployed models, dispatched by
//!   shortest expected completion using per-deployment
//!   [`BatchLatencyModel`](fpgaccel_core::BatchLatencyModel)s calibrated
//!   from the discrete-event simulation.
//! * **[`DynamicBatcher`]** — per-model request folding under a
//!   max-batch / max-wait [`BatchPolicy`], amortizing per-batch host costs
//!   exactly as `simulate_batch` amortizes pipeline fill.
//! * **[`AdmissionPolicy`]** — bounded queues with backpressure and
//!   deadline-based load shedding.
//! * **[`ServiceMetrics`]** — log-bucketed latency histograms
//!   (p50/p95/p99), throughput, queue depth, batch-size distribution and
//!   shed counters.
//! * **[`Server`]** — the event loop tying it together, driven open-loop
//!   from a seeded Poisson trace ([`loadgen`]) or closed-loop from a fixed
//!   client pool.
//!
//! Everything is seeded and simulated: a serving run is a pure function of
//! its inputs, so experiments reproduce byte for byte.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod admission;
pub mod batcher;
pub mod cache;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod rollout;
pub mod service;
pub mod slo;

pub use admission::{AdmissionPolicy, BrownoutPolicy};
pub use batcher::{BatchPolicy, DynamicBatcher};
pub use cache::DeploymentCache;
pub use metrics::{LatencyHistogram, ServiceMetrics};
pub use pool::{BatchOutcome, DeviceHealth, DevicePool, Dispatch, PooledDevice, Recovery};
pub use rollout::{
    CanaryFailure, RolloutEvent, RolloutOutcome, RolloutPolicy, RolloutReport, RolloutSpec,
};
pub use service::{
    Completion, DeviceSummary, Failure, FaultPolicy, RecoveryEvent, Request, RunResult,
    ServeConfig, Server, Shed, ShedReason,
};
pub use slo::{SloAlert, SloKind, SloPolicy};
