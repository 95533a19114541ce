//! # fpgaccel-tune
//!
//! The auto-tuner — the design-space exploration the thesis defers in
//! §4.11 ("We leave resource modeling and exploration for a DSE to future
//! work"), made affordable by the microsecond-scale AOC synthesis model.
//! The space is small enough to evaluate whole: MobileNetV1 has 84 legal
//! 1x1 tilings on every board, so the tuner evaluates each once instead of
//! guessing which to skip.
//!
//! * [`candidate`] — schedule candidates (1x1-conv tiling triples at a
//!   numeric precision) and the **proposal generator**: a [`SearchSpace`]
//!   that enumerates only candidates whose factors divide every layer's
//!   loop extents, returning a structured [`LegalityError`] for anything
//!   else *before* synthesis is attempted.
//! * [`tuner`] — the [`Tuner`]: a warm database lookup, or every proposal
//!   evaluated once through the [`Evaluate`] trait and the first fastest
//!   feasible one kept, with `fpgaccel_trace` spans and metrics.
//! * [`db`] — the **persistent tuning database**: four sections of one
//!   generic [`Section`] type, keyed by (model, layer-shape signature,
//!   platform, precision) or by fleet-spec digest, written and parsed back
//!   with `fpgaccel_trace::json`, so flows and serving deployment caches
//!   reuse tuned configs without re-evaluating.
//! * [`pipeline`] — the **dataflow-pipeline grid**: ranks the streaming
//!   planner's FIFO depth policy and segment stage cap, caching winners in
//!   the database's pipeline section.
//! * [`precision`] — the **mixed-precision search**: greedy per-layer
//!   demotion (fp32 → fp16 → int8) under an accuracy budget, priced by the
//!   AOC model's per-precision DSP/RAM laws and cached in the database's
//!   mixed section.
//!
//! The crate is deliberately independent of `fpgaccel-core`: the evaluator
//! is a trait, so the core flow implements it (and `core::dse` maps the
//! same evaluator over a hand-picked tiling list) without a dependency
//! cycle.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod candidate;
pub mod db;
pub mod pipeline;
pub mod precision;
pub mod tuner;

pub use candidate::{
    divisors, shape_signature, Candidate, Conv1x1Shape, LegalityError, SearchSpace,
};
pub use db::{
    DbKey, PipelineRecord, PlacementRecord, PrecisionRecord, Record, Section, TuneRecord, TuningDb,
};
pub use pipeline::{best_pipeline, pipeline_candidates, EvaluatePipeline, PipelineMeasured};
pub use precision::{
    precision_record_of, search_precision, EvaluatePrecision, PrecisionCost, PrecisionOutcome,
    DEMOTION_LADDER,
};
pub use tuner::{EvalError, Evaluate, Measured, TuneError, TuneOutcome, Tuner};
