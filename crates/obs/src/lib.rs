//! Continuous performance observability: the bench trajectory record
//! and its baseline comparator.
//!
//! The crate answers one question — *did this change make the stack
//! slower?* — with two pieces that depend on `fpgaccel-trace` alone:
//!
//! - [`record`] defines the schema-versioned `BENCH_core.json` artifact,
//!   where every metric carries its own direction-of-better and relative
//!   tolerance band, making the committed baseline self-describing;
//! - [`compare`] diffs a fresh record against the committed baseline and
//!   produces a structured [`BenchVerdict`] (pass / regressed /
//!   improved per metric, coverage loss fails).
//!
//! The workload matrix that fills a record is
//! `fpgaccel_bench::trajectory::collect`, beside the experiments whose
//! builders it calls. The hot-path profiler, SLO burn-rate monitor and
//! anomaly flight recorder — the *runtime* half of the observability
//! story — live in `fpgaccel-trace` and `fpgaccel-serve`; see
//! `docs/OBSERVABILITY.md` for the full map.

pub mod compare;
pub mod record;

pub use compare::{compare, BenchVerdict, DeltaStatus, MetricDelta};
pub use record::{BenchMetric, BenchRecord, Direction, SCHEMA_VERSION};
