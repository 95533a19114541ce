//! # fpgaccel-trace
//!
//! End-to-end observability for the compilation flow, the discrete-event
//! runtime and the serving layer — the first-class version of the thesis'
//! diagnostic instrument, the OpenCL event profiler (§5.2 / Figure 6.2).
//!
//! Three pillars, all dependency-free and deterministic:
//!
//! * **[`Tracer`]** — lightweight span recording. Timestamps come from the
//!   caller (the simulated clock for runtime/serving spans, a monotonic
//!   phase counter for compile-time spans), never from `Instant::now`, so
//!   traces of simulated runs reproduce byte for byte. A disabled tracer
//!   is a `None` handle: recording is a branch, no allocation, no lock.
//! * **[`chrome`]** — export of a traced run as Chrome trace-event JSON,
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!   Every simulated OpenCL event appears with its four profiling
//!   timestamps (queued/submit/start/end) as nested slices on
//!   per-device/per-queue tracks.
//! * **[`metrics`]** — a unified registry of counters, gauges and
//!   histograms with label sets, rendered as Prometheus text exposition or
//!   JSON. The serving layer's `ServiceMetrics`, deployment-cache hit/miss
//!   counters, queue depths, shed counters and per-device utilization all
//!   publish here.
//!
//! The [`json`] module is the workspace's one JSON reader and writer:
//! every JSON export renders through [`json::Json::render`], and the same
//! type parses exports back to validate them and to recompute profile
//! breakdowns *from the export itself* (the golden test for the Figure 6.2
//! timeline).
//!
//! Three further instruments make the observability continuous:
//!
//! * **[`flight`]** — an anomaly flight recorder: a bounded ring of
//!   recent operational events that freezes into a JSON [`Postmortem`]
//!   when a timeout, quarantine, rollback or SLO breach fires.
//! * **[`profile`]** — a hot-path self-profiler measuring the *host*
//!   cost (wall time, allocations, span-recording overhead) of the
//!   simulation and dispatch loops, exported through the [`Registry`].
//! * **[`alloc`]** — a counting global allocator feeding the profiler's
//!   allocation columns when installed in a binary.

#![warn(missing_docs)]

pub mod alloc;
pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod tracer;

pub use chrome::chrome_trace_json;
pub use flight::{EventText, FlightData, FlightEvent, FlightRecorder, Postmortem};
pub use metrics::Registry;
pub use profile::HotPathProfiler;
pub use tracer::{PhaseGuard, TraceEvent, Tracer, PID_FLEET, PID_FLOW, PID_SERVE, PID_TUNE};
