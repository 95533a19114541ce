//! # fpgaccel-runtime
//!
//! An OpenCL-style host runtime over a deterministic discrete-event clock.
//!
//! The thesis' host program (§5.2) creates a context, command queues and
//! buffers, enqueues kernel tasks and buffer transfers, synchronizes through
//! events or channels, and optionally profiles with the OpenCL event
//! profiler. This crate reproduces those semantics over *simulated* time:
//!
//! * **In-order command queues** (§2.3.2): operations on one queue execute
//!   in submission order; multiple queues give concurrent execution (§4.8).
//! * **Events** with the four OpenCL profiling timestamps
//!   (queued/submitted/start/end) feeding the Figure 6.2-style breakdowns.
//! * **Channel coupling** (§4.6): a kernel consuming another kernel's
//!   channel may *overlap* its producer (pipelined execution) but cannot
//!   finish before it — expressed as a [`ChannelCoupling`], versus `after`
//!   dependencies for global-memory ordering. `Sim::enqueue_kernel` is the
//!   one kernel launch: queued tasks and autorun stages alike.
//! * **Autorun kernels** (§4.7): never enqueued; they cost no host time and
//!   no dispatch latency, and appear as zero-overhead pipeline stages.
//! * **Compute-unit exclusivity**: one invocation of a kernel at a time, so
//!   the steady-state throughput of a pipelined deployment automatically
//!   converges to its bottleneck stage.
//! * **Host costs**: per-enqueue submission cost, per-task dispatch latency
//!   (hidden when execution is concurrent and pipelined), and per-event
//!   profiler overhead (§5.2 notes profiling forces synchronous execution).
//!
//! Kernel *durations* come from the `fpgaccel-aoc` timing model; kernel
//! *data* is computed natively by the flow (validated against the IR
//! interpreter), so simulated time and real tensors stay consistent.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod profile;
pub mod sim;
pub mod stats;
pub mod timeline;

pub use profile::Breakdown;
pub use sim::{
    ChannelCoupling, CouplingSpec, EventId, EventKind, EventRetention, QueueId, Sim, SimEvent,
};
pub use stats::{quantile_sorted, LatencyQuantiles};
pub use timeline::{export_events, record_event};
