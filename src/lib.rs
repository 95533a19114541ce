//! # fpgaccel
//!
//! A production-oriented Rust reproduction of *Optimization of
//! Compiler-Generated OpenCL CNN Kernels and Runtime for FPGAs*
//! (Seung-Hun Chung, University of Toronto, 2021).
//!
//! The thesis deploys CNNs end-to-end by generating OpenCL HLS kernels from
//! TVM, optimizing them (loop unrolling, tiling, fusion, invariant motion,
//! cached writes, channels, autorun kernels, concurrent execution,
//! parameterized kernels, relaxed float ops) and synthesizing them with
//! Intel's offline compiler for three Intel FPGAs. This workspace rebuilds
//! every layer of that stack from scratch — see `DESIGN.md` for the system
//! inventory and the hardware-substitution rationale.
//!
//! This façade crate re-exports the workspace:
//!
//! * [`tensor`] — NCHW tensors, CNN operators, graph IR, the model zoo.
//! * [`tir`] — tensor-expression loop IR, schedule primitives, OpenCL codegen.
//! * [`aoc`] — the Intel-AOC-style HLS synthesis and timing simulator.
//! * [`device`] — FPGA platform models and reference CPU/GPU platforms.
//! * [`runtime`] — the OpenCL-style host runtime over a simulated clock.
//! * [`core`] — the end-to-end compilation flow (the paper's contribution).
//! * [`baseline`] — calibrated CPU/GPU framework performance models.
//! * [`serve`] — multi-device inference serving: device pool, dynamic
//!   batching, admission control, deployment cache.
//! * [`tune`] — the auto-tuner: legality-checked proposal generation,
//!   every proposal evaluated once, persistent tuning database.
//! * [`pipeline`] — the streaming dataflow planner: segment selection,
//!   channel-depth policies, whole-pipeline resource fitting with graceful
//!   degradation to staged execution.
//! * [`trace`] — span tracing, Perfetto timeline export, metrics registry.
//! * [`fault`] — seeded deterministic fault injection: fault plans in
//!   sim-time, the injector handle, retry/backoff policy.
//! * [`fleet`] — sharded fleet serving: placement optimization,
//!   consistent-hash routing, multi-tenant QoS, fleet-wide rollouts.
//! * [`obs`] — the trace-only record and comparator crate: the
//!   `BENCH_core.json` schema and the baseline comparator.
//!
//! ## Quickstart
//!
//! ```
//! use fpgaccel::core::{Flow, OptimizationConfig};
//! use fpgaccel::device::FpgaPlatform;
//! use fpgaccel::tensor::models::Model;
//!
//! // Compile LeNet-5 into an optimized pipelined accelerator for the
//! // Stratix 10 SX and classify a synthetic digit.
//! let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
//! let deployment = flow
//!     .compile(&OptimizationConfig::tvm_autorun())
//!     .expect("LeNet fits every evaluation FPGA");
//! let input = fpgaccel::tensor::data::synthetic_digit(3, 0);
//! let result = deployment.infer(&input);
//! assert_eq!(result.output.shape().dims(), &[10]);
//! assert!(result.simulated_seconds > 0.0);
//! ```

#![warn(missing_docs)]

pub use fpgaccel_aoc as aoc;
pub use fpgaccel_baseline as baseline;
pub use fpgaccel_core as core;
pub use fpgaccel_device as device;
pub use fpgaccel_fault as fault;
pub use fpgaccel_fleet as fleet;
pub use fpgaccel_obs as obs;
pub use fpgaccel_pipeline as pipeline;
pub use fpgaccel_runtime as runtime;
pub use fpgaccel_serve as serve;
pub use fpgaccel_tensor as tensor;
pub use fpgaccel_tir as tir;
pub use fpgaccel_trace as trace;
pub use fpgaccel_tune as tune;
