//! Per-layer mixed-precision assignment search.
//!
//! Quantization is not all-or-nothing: a network's first and last layers
//! usually carry most of the accuracy while the bulk of the DSP budget sits
//! in the middle. This module searches the per-layer precision space
//! (fp32 → fp16 → int8) by greedy demotion: price each layer's lone int8
//! demotion with the AOC cost model's per-precision DSP/RAM laws, then walk
//! the layers in descending-savings order, keeping the narrowest rung whose
//! measured end-to-end error stays inside the caller's accuracy budget.
//!
//! Evaluation stays behind a trait ([`EvaluatePrecision`]) exactly like
//! [`crate::Evaluate`]: the compile flow prices assignments with
//! `synthesize_mixed` and measures accuracy with the tensor crate's
//! mixed-precision executor; this crate only orders and accepts demotions.
//! Winners are cached in the tuning database's `mixed` section, so a warm
//! lookup serves an assignment with zero evaluations.

use crate::db::PrecisionRecord;
use crate::tuner::EvalError;
use fpgaccel_aoc::Precision;
use std::collections::BTreeMap;

/// The demotion ladder, tried narrowest (largest savings) first. fp16 is
/// the accuracy-safe middle rung: it halves LSU width and cache footprint
/// but the hard FP DSP block still schedules one MAC per cycle, so only
/// int8 actually halves the DSP count.
pub const DEMOTION_LADDER: [Precision; 2] = [Precision::Int8, Precision::Fp16];

/// Modeled resource price of one per-layer assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrecisionCost {
    /// DSP blocks of the full-network bitstream under the assignment.
    pub dsps: u64,
    /// RAM blocks of the full-network bitstream under the assignment.
    pub ram_blocks: u64,
}

/// A mixed-precision evaluator: prices assignments with the resource model
/// and measures their end-to-end accuracy against the f32 reference.
pub trait EvaluatePrecision {
    /// Modeled resources of the bitstream under `assignment` (cheap: pure
    /// cost-model arithmetic, no numerics run).
    ///
    /// # Errors
    /// [`EvalError`] when the assignment cannot be synthesized.
    fn price(&self, assignment: &BTreeMap<String, Precision>) -> Result<PrecisionCost, EvalError>;

    /// Worst output error of the mixed-precision network vs the f32
    /// reference on the evaluator's probe inputs (the expensive call the
    /// database cache exists to avoid).
    ///
    /// # Errors
    /// [`EvalError`] when the mixed network cannot be executed.
    fn accuracy(&self, assignment: &BTreeMap<String, Precision>) -> Result<f64, EvalError>;
}

/// What [`search_precision`] found.
#[derive(Clone, Debug)]
pub struct PrecisionOutcome {
    /// Accepted per-layer assignment (every searched layer has an entry).
    pub assignment: BTreeMap<String, Precision>,
    /// Modeled resources of the accepted assignment.
    pub cost: PrecisionCost,
    /// Modeled resources of the all-f32 starting point.
    pub baseline: PrecisionCost,
    /// Measured worst output error of the accepted assignment.
    pub worst_error: f64,
    /// Accuracy evaluations spent (pricing calls are not counted: they are
    /// cost-model arithmetic, not numerics).
    pub evaluations: usize,
}

impl PrecisionOutcome {
    /// DSP blocks the accepted assignment saves over all-f32.
    pub fn dsps_saved(&self) -> u64 {
        self.baseline.dsps.saturating_sub(self.cost.dsps)
    }
}

/// Greedy-demotion search over `layers` under `error_budget`.
///
/// Starts from all-f32, prices each layer's lone int8 demotion to order the
/// pass (largest modeled DSP saving first, RAM then layer order breaking
/// ties), then walks the ladder per layer: keep int8 if the cumulative
/// assignment still measures inside the budget, else try fp16, else leave
/// the layer at f32. Deterministic for a deterministic evaluator.
///
/// # Errors
/// [`EvalError`] from the first failing price or accuracy call.
pub fn search_precision(
    layers: &[String],
    error_budget: f64,
    eval: &dyn EvaluatePrecision,
) -> Result<PrecisionOutcome, EvalError> {
    let all_f32: BTreeMap<String, Precision> =
        layers.iter().map(|l| (l.clone(), Precision::F32)).collect();
    let baseline = eval.price(&all_f32)?;

    // Order the greedy pass by each layer's lone-demotion savings.
    let mut order: Vec<(u64, u64, usize)> = Vec::with_capacity(layers.len());
    for (i, layer) in layers.iter().enumerate() {
        let mut trial = all_f32.clone();
        trial.insert(layer.clone(), Precision::Int8);
        let c = eval.price(&trial)?;
        order.push((
            baseline.dsps.saturating_sub(c.dsps),
            baseline.ram_blocks.saturating_sub(c.ram_blocks),
            i,
        ));
    }
    order.sort_by(|a, b| (b.0, b.1, a.2).cmp(&(a.0, a.1, b.2)));

    let mut current = all_f32;
    let mut worst_error = 0.0;
    let mut evaluations = 0;
    for &(_, _, i) in &order {
        for p in DEMOTION_LADDER {
            let mut trial = current.clone();
            trial.insert(layers[i].clone(), p);
            let e = eval.accuracy(&trial)?;
            evaluations += 1;
            if e <= error_budget {
                current = trial;
                worst_error = e;
                break;
            }
        }
    }
    let cost = eval.price(&current)?;
    Ok(PrecisionOutcome {
        assignment: current,
        cost,
        baseline,
        worst_error,
        evaluations,
    })
}

/// Builds the database record for a search outcome.
pub fn precision_record_of(
    layers: &[String],
    outcome: &PrecisionOutcome,
    error_budget: f64,
) -> PrecisionRecord {
    PrecisionRecord {
        assignment: layers
            .iter()
            .map(|l| (l.clone(), format!("{:?}", outcome.assignment[l])))
            .collect(),
        dsps: outcome.cost.dsps,
        baseline_dsps: outcome.baseline.dsps,
        ram_blocks: outcome.cost.ram_blocks,
        worst_error: outcome.worst_error,
        error_budget,
        evaluations: outcome.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model with three layers: `big` saves the most DSPs and tolerates
    /// int8; `fragile` saves a little but only tolerates fp16; `tiny` saves
    /// nothing and is left alone by the error it would add.
    struct FakeEval;

    fn err_of(layer: &str, p: Precision) -> f64 {
        match (layer, p) {
            ("big", Precision::Int8) => 0.010,
            ("big", Precision::Fp16) => 0.001,
            ("fragile", Precision::Int8) => 0.500,
            ("fragile", Precision::Fp16) => 0.015,
            ("tiny", Precision::Int8) => 0.900,
            ("tiny", Precision::Fp16) => 0.800,
            _ => 0.0,
        }
    }

    impl EvaluatePrecision for FakeEval {
        fn price(
            &self,
            assignment: &BTreeMap<String, Precision>,
        ) -> Result<PrecisionCost, EvalError> {
            let mut dsps = 0;
            let mut ram = 0;
            for (layer, p) in assignment {
                let (d, r) = match layer.as_str() {
                    "big" => (400, 200),
                    "fragile" => (100, 80),
                    _ => (4, 4),
                };
                let halves = matches!(p, Precision::Int8 | Precision::Int16);
                dsps += if halves { d / 2 } else { d };
                ram += match p {
                    Precision::F32 => r,
                    _ => r / 2,
                };
            }
            Ok(PrecisionCost {
                dsps,
                ram_blocks: ram,
            })
        }

        fn accuracy(&self, assignment: &BTreeMap<String, Precision>) -> Result<f64, EvalError> {
            // Errors add across demoted layers: a greedy search must judge
            // each demotion against the cumulative assignment, not alone.
            Ok(assignment.iter().map(|(l, &p)| err_of(l, p)).sum())
        }
    }

    fn layers() -> Vec<String> {
        vec!["big".into(), "fragile".into(), "tiny".into()]
    }

    #[test]
    fn greedy_demotion_lands_on_the_mixed_assignment() {
        let out = search_precision(&layers(), 0.05, &FakeEval).unwrap();
        assert_eq!(out.assignment["big"], Precision::Int8);
        assert_eq!(out.assignment["fragile"], Precision::Fp16);
        assert_eq!(out.assignment["tiny"], Precision::F32);
        assert!(out.worst_error <= 0.05);
        assert_eq!(out.baseline.dsps, 504);
        assert_eq!(out.cost.dsps, 304, "big halves, fragile and tiny do not");
        assert!(out.dsps_saved() == 200);
        assert!(out.cost.ram_blocks < out.baseline.ram_blocks);
        // big accepted at int8 (1), fragile rejected at int8 then accepted
        // at fp16 (2), tiny rejected at both rungs (2).
        assert_eq!(out.evaluations, 5);
    }

    #[test]
    fn zero_budget_keeps_everything_at_f32() {
        let out = search_precision(&layers(), 0.0, &FakeEval).unwrap();
        assert!(out.assignment.values().all(|&p| p == Precision::F32));
        assert_eq!(out.cost, out.baseline);
        assert_eq!(out.worst_error, 0.0);
        assert_eq!(out.dsps_saved(), 0);
    }

    #[test]
    fn loose_budget_demotes_everything_to_int8() {
        let out = search_precision(&layers(), 10.0, &FakeEval).unwrap();
        assert!(out.assignment.values().all(|&p| p == Precision::Int8));
        assert_eq!(out.evaluations, 3, "every first rung accepted");
    }

    #[test]
    fn records_round_trip_through_the_database_shape() {
        let l = layers();
        let out = search_precision(&l, 0.05, &FakeEval).unwrap();
        let rec = precision_record_of(&l, &out, 0.05);
        assert_eq!(rec.assignment.len(), 3);
        assert_eq!(rec.demoted(), 2);
        assert_eq!(rec.assignment_map().unwrap(), out.assignment);
        assert_eq!(rec.dsps, out.cost.dsps);
        assert_eq!(rec.baseline_dsps, out.baseline.dsps);
        assert_eq!(rec.error_budget, 0.05);
    }

    #[test]
    fn evaluator_errors_propagate() {
        struct Broken;
        impl EvaluatePrecision for Broken {
            fn price(&self, _: &BTreeMap<String, Precision>) -> Result<PrecisionCost, EvalError> {
                Err(EvalError("no device".to_string()))
            }
            fn accuracy(&self, _: &BTreeMap<String, Precision>) -> Result<f64, EvalError> {
                unreachable!("pricing fails first")
            }
        }
        assert!(search_precision(&layers(), 0.05, &Broken).is_err());
    }
}
