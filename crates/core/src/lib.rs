//! # fpgaccel-core
//!
//! The thesis' primary contribution: an end-to-end compilation flow from a
//! CNN model description to a (simulated) FPGA accelerator (Chapter 3).
//!
//! The flow imports a model graph, runs the Relay-style fusion and
//! padding-materialization passes, lowers every layer to OpenCL kernels
//! through the selected schedules (Chapter 5), synthesizes the kernel set
//! with the AOC model, and wires a host execution plan in one of three
//! modes — the two of §3.1 and a planner-driven dataflow:
//!
//! * **Pipelined execution** (`ExecMode::Pipelined`): one kernel per layer,
//!   activations stream through Intel channels, weight-free kernels run
//!   autorun, and one command queue per kernel gives concurrent execution —
//!   the LeNet deployment of §6.3.1.
//! * **Folded execution** (`ExecMode::Folded`): convolutions grouped by
//!   (operation, filter size, stride) into parameterized symbolic-shape
//!   kernels that are time-multiplexed across layers through global memory —
//!   the MobileNet/ResNet deployments of §6.3.2/§6.4.3.
//! * **Dataflow execution** (`ExecMode::Dataflow`): the `fpgaccel-pipeline`
//!   planner maps maximal fusable segments onto channel-connected stage
//!   chains with explicit FIFO depths, charges the AOC resource model for
//!   the whole pipeline at once, and degrades over-budget segments into
//!   folded staged execution with a structured per-resource reason.
//!
//! [`Deployment`] couples the simulated timeline (the `fpgaccel-runtime`
//! event simulation driven by the AOC timing model) with real tensor data
//! (the graph executor), and [`verify`] proves, end to end, that the exact
//! generated kernels — run through the IR interpreter — compute the same
//! numbers. Both walk the plan through [`ExecutionPlan::ops`]: one image's
//! kernel launches, whichever mode built the plan.

#![warn(missing_docs)]

pub mod autotune;
pub mod bitstreams;
pub mod dataflow;
pub mod deploy;
pub mod dse;
pub mod flow;
pub mod kernels;
pub mod options;
pub mod verify;

pub use autotune::{
    conv1x1_shapes, db_key, time_conv1x1, tune_model, tune_pipeline, tune_precision, FlowEvaluator,
    PipelineEvaluator, PipelineTuneOutcome, PrecisionEvaluator, PrecisionTuneOutcome,
};
pub use dataflow::{build_dataflow, DataflowPlan, DataflowStep};
pub use deploy::{
    BatchLatencyModel, BatchStats, Deployment, DeploymentQuant, ExecutionPlan, InferResult, Launch,
};
pub use flow::{Flow, FlowError};
pub use fpgaccel_runtime::CouplingSpec;
pub use kernels::Stage;
pub use options::{ExecMode, OptimizationConfig, QuantSpec, TilingPreset};
pub use verify::{verify_deployment, VerifyError};
