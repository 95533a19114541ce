//! Pipeline-deployment search: explores the dataflow planner's knobs —
//! the inter-stage FIFO [`DepthPolicy`] and the segment stage cap — the
//! same way the tuner explores 1x1 tilings: every candidate once. Both
//! knobs trade resources for throughput (deeper FIFOs decouple stages but
//! eat BRAM; longer segments drop DRAM round trips but must fit the chip
//! at once), so the winner is platform-specific and worth caching in the
//! tuning database alongside the tiling records.
//!
//! Evaluation stays behind a trait ([`EvaluatePipeline`]) exactly like
//! [`crate::Evaluate`]: the compile flow implements it (plan + simulate a
//! batch), this crate only ranks.

use crate::db::PipelineRecord;
use crate::tuner::{first_minimum, EvalError};
use fpgaccel_pipeline::{DepthPolicy, PipelineOpts};

/// What evaluating one planner configuration measured.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineMeasured {
    /// Simulated seconds per image for the full network under the plan.
    pub seconds_per_image: f64,
    /// Activation elements per image that stay on-chip vs staged execution.
    pub dram_elems_saved: u64,
    /// Layers running as channel-connected pipeline stages.
    pub pipelined_stages: usize,
    /// Layers demoted to the staged folded pool.
    pub staged_nodes: usize,
}

impl PipelineMeasured {
    /// The search objective (lower is better).
    pub fn objective(&self) -> f64 {
        self.seconds_per_image
    }
}

/// A pipeline-candidate evaluator.
pub trait EvaluatePipeline {
    /// Plans and simulates one planner configuration.
    ///
    /// # Errors
    /// [`EvalError`] when the plan cannot be built or simulated.
    fn evaluate_pipeline(&self, opts: &PipelineOpts) -> Result<PipelineMeasured, EvalError>;
}

/// The default candidate grid: every depth policy the runtime's stall model
/// distinguishes (starved, matched, double-buffered, fully decoupled)
/// crossed with a short and a long segment cap.
pub fn pipeline_candidates() -> Vec<PipelineOpts> {
    let depths = [
        DepthPolicy::FillMultiple(1),
        DepthPolicy::FillMultiple(2),
        DepthPolicy::FillMultiple(4),
        DepthPolicy::Full,
    ];
    let caps = [8usize, 32];
    let mut out = Vec::with_capacity(depths.len() * caps.len());
    for &depth in &depths {
        for &max_stages in &caps {
            out.push(PipelineOpts { depth, max_stages });
        }
    }
    out
}

/// Index of the best successful evaluation (lowest latency; earliest wins
/// ties, so a fixed candidate order gives reproducible winners).
pub fn best_pipeline(results: &[Result<PipelineMeasured, EvalError>]) -> Option<usize> {
    first_minimum(
        results
            .iter()
            .map(|r| r.as_ref().ok().map(PipelineMeasured::objective)),
    )
}

/// Canonical text form of a depth policy — what [`PipelineRecord`] stores,
/// chosen to round-trip through [`parse_policy`].
pub fn policy_id(policy: DepthPolicy) -> String {
    match policy {
        DepthPolicy::Full => "full".to_string(),
        DepthPolicy::Fraction { num, den } => format!("frac {num}/{den}"),
        DepthPolicy::Fixed(d) => format!("fixed {d}"),
        DepthPolicy::FillMultiple(f) => format!("fill*{f}"),
    }
}

/// Parses the canonical text form back into a policy.
pub fn parse_policy(s: &str) -> Option<DepthPolicy> {
    if s == "full" {
        return Some(DepthPolicy::Full);
    }
    if let Some(f) = s.strip_prefix("fill*") {
        return f.parse().ok().map(DepthPolicy::FillMultiple);
    }
    if let Some(d) = s.strip_prefix("fixed ") {
        return d.parse().ok().map(DepthPolicy::Fixed);
    }
    if let Some(fr) = s.strip_prefix("frac ") {
        let (num, den) = fr.split_once('/')?;
        return Some(DepthPolicy::Fraction {
            num: num.parse().ok()?,
            den: den.parse().ok()?,
        });
    }
    None
}

/// Builds the database record for a search winner.
pub fn record_of(opts: &PipelineOpts, m: &PipelineMeasured, evaluations: usize) -> PipelineRecord {
    PipelineRecord {
        depth_policy: policy_id(opts.depth),
        max_stages: opts.max_stages,
        seconds_per_image: m.seconds_per_image,
        dram_elems_saved: m.dram_elems_saved,
        pipelined_stages: m.pipelined_stages,
        staged_nodes: m.staged_nodes,
        evaluations,
    }
}

impl PipelineRecord {
    /// The planner configuration this record deploys, or `None` when the
    /// stored policy text is from an incompatible future version.
    pub fn opts(&self) -> Option<PipelineOpts> {
        Some(PipelineOpts {
            depth: parse_policy(&self.depth_policy)?,
            max_stages: self.max_stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ids_round_trip() {
        for p in [
            DepthPolicy::Full,
            DepthPolicy::Fraction { num: 1, den: 4 },
            DepthPolicy::Fixed(1024),
            DepthPolicy::FillMultiple(2),
        ] {
            assert_eq!(parse_policy(&policy_id(p)), Some(p), "{p:?}");
        }
        assert_eq!(parse_policy("warp 9"), None);
    }

    #[test]
    fn candidate_grid_covers_the_stall_model_regimes() {
        let cands = pipeline_candidates();
        assert_eq!(cands.len(), 8);
        assert!(cands
            .iter()
            .any(|c| c.depth == DepthPolicy::FillMultiple(2) && c.max_stages == 32));
        assert!(cands.iter().any(|c| c.depth == DepthPolicy::Full));
    }

    struct FakeEval;
    impl EvaluatePipeline for FakeEval {
        fn evaluate_pipeline(&self, o: &PipelineOpts) -> Result<PipelineMeasured, EvalError> {
            // Deeper FIFOs help until `Full`, which "runs out of RAM".
            match o.depth {
                DepthPolicy::Full => Err(EvalError("over budget".to_string())),
                DepthPolicy::FillMultiple(f) => Ok(PipelineMeasured {
                    seconds_per_image: 0.1 / f as f64 + o.max_stages as f64 * 1e-4,
                    dram_elems_saved: 1000,
                    pipelined_stages: o.max_stages.min(12),
                    staged_nodes: 3,
                }),
                _ => unreachable!("grid only emits fill multiples and full"),
            }
        }
    }

    #[test]
    fn best_pipeline_ranks_candidates_and_survives_failures() {
        let cands = pipeline_candidates();
        let results: Vec<_> = cands
            .iter()
            .map(|c| FakeEval.evaluate_pipeline(c))
            .collect();
        let best = best_pipeline(&results).unwrap();
        assert_eq!(cands[best].depth, DepthPolicy::FillMultiple(4));
        assert_eq!(cands[best].max_stages, 8);
        let rec = record_of(&cands[best], results[best].as_ref().unwrap(), cands.len());
        assert_eq!(rec.opts(), Some(cands[best]));
    }

    #[test]
    fn all_failures_give_no_best() {
        struct AlwaysFail;
        impl EvaluatePipeline for AlwaysFail {
            fn evaluate_pipeline(&self, _: &PipelineOpts) -> Result<PipelineMeasured, EvalError> {
                Err(EvalError("nope".to_string()))
            }
        }
        let results: Vec<_> = pipeline_candidates()
            .iter()
            .map(|c| AlwaysFail.evaluate_pipeline(c))
            .collect();
        assert_eq!(best_pipeline(&results), None);
    }
}
