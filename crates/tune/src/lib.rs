//! # fpgaccel-tune
//!
//! The cost-model-guided auto-scheduler — the design-space exploration the
//! thesis defers in §4.11 ("We leave resource modeling and exploration for
//! a DSE to future work"), made affordable by the microsecond-scale AOC
//! synthesis model and built as a production subsystem:
//!
//! * [`candidate`] — schedule candidates (1x1-conv tiling triples ×
//!   numeric precision) and the **proposal generator**: a [`SearchSpace`]
//!   that enumerates only candidates whose factors divide every layer's
//!   loop extents, returning a structured [`LegalityError`] for anything
//!   else *before* synthesis is attempted.
//! * [`cost`] — the **analytical cost model**: DSP/RAM/fmax/routing
//!   predictors seeded from the AOC synthesis model's analytic priors and
//!   refined online from observed `BitstreamReport` numbers + simulated
//!   latency of evaluated points.
//! * [`search`] — the **search engine**: beam search ranked by the cost
//!   model plus an evolutionary refinement loop, evaluating candidates in
//!   parallel across `std::thread` workers through the [`Evaluate`] trait
//!   (implemented flow-side so each evaluation owns its own compile flow).
//! * [`db`] — the **persistent tuning database**: four sections of one
//!   generic [`Section`] type, keyed by (model, layer-shape signature,
//!   platform, precision) or by fleet-spec digest, written and parsed back
//!   with `fpgaccel_trace::json`, so flows and serving deployment caches
//!   reuse tuned configs without re-searching.
//! * [`pipeline`] — the **dataflow-pipeline search**: ranks the streaming
//!   planner's FIFO depth policy and segment stage cap the same way the
//!   tiling search ranks schedules, caching winners in the database's
//!   pipeline section.
//! * [`precision`] — the **mixed-precision search**: greedy per-layer
//!   demotion (fp32 → fp16 → int8) under an accuracy budget, priced by the
//!   cost model's per-precision DSP/RAM laws and cached in the database's
//!   mixed section.
//! * [`tuner`] — the [`Tuner`] façade gluing warm database lookup, the
//!   search engine, and `fpgaccel_trace` spans/metrics together.
//!
//! The crate is deliberately independent of `fpgaccel-core`: the evaluator
//! is a trait, so the core flow implements it (and `core::dse` becomes a
//! thin wrapper over [`enumerate`], the tuner's enumerative mode) without a
//! dependency cycle.

#![warn(missing_docs)]

pub mod candidate;
pub mod cost;
pub mod db;
pub mod pipeline;
pub mod precision;
pub mod search;
pub mod tuner;

pub use candidate::{
    divisors, shape_signature, Candidate, Conv1x1Shape, LegalityError, SearchSpace,
};
pub use cost::{CostModel, Observation};
pub use db::{
    DbKey, PipelineRecord, PlacementRecord, PrecisionRecord, Record, Section, TuneRecord, TuningDb,
};
pub use pipeline::{
    best_pipeline, pipeline_candidates, search_pipeline, EvaluatePipeline, PipelineMeasured,
};
pub use precision::{
    precision_record_of, search_precision, EvaluatePrecision, PrecisionCost, PrecisionOutcome,
    DEMOTION_LADDER,
};
pub use search::{enumerate, EvalError, Evaluate, Measured, SearchConfig};
pub use tuner::{TuneError, TuneOutcome, Tuner};
