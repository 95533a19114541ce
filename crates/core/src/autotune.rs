//! Flow-side glue for the `fpgaccel-tune` auto-scheduler.
//!
//! `fpgaccel-tune` deliberately knows nothing about the compile flow — its
//! tuner evaluates candidates through the [`Evaluate`] trait. This
//! module supplies the flow-backed implementation ([`FlowEvaluator`]),
//! extracts the 1x1-convolution loop extents the proposal generator
//! validates against, derives tuning-database keys, and offers the one-call
//! [`tune_model`] entry point. [`Flow::with_tuned_config`] closes the loop:
//! a flow (or the serving layer's deployment cache) deploys the tuned
//! configuration straight from the database without evaluating anything.

use crate::flow::{Flow, FlowError};
use crate::options::{OptimizationConfig, QuantSpec, TilingPreset};
use fpgaccel_aoc::{synthesize, synthesize_mixed, AocOptions, BitstreamReport, Calib, Precision};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_pipeline::PipelineOpts;
use fpgaccel_runtime::{Sim, SimEvent};
use fpgaccel_tensor::graph::{Graph, Op};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::quant::{self, Calibration, QuantPrecision, QuantizedGraph};
use fpgaccel_tensor::Tensor;
use fpgaccel_tir::Kernel;
use fpgaccel_trace::PID_TUNE;
use fpgaccel_trace::{Registry, Tracer};
use fpgaccel_tune::pipeline::{record_of, EvaluatePipeline, PipelineMeasured};
use fpgaccel_tune::precision::{
    precision_record_of, search_precision, EvaluatePrecision, PrecisionCost,
};
use fpgaccel_tune::{
    best_pipeline, pipeline_candidates, shape_signature, Candidate, Conv1x1Shape, DbKey, EvalError,
    Evaluate, Measured, PipelineRecord, PrecisionRecord, SearchSpace, TuneError, TuneOutcome,
    Tuner, TuningDb,
};
use std::collections::BTreeMap;

/// Loop extents of every (non-depthwise) 1x1 convolution in a fused,
/// padding-materialized graph — what the tuner's legality checks and shape
/// signature are computed from.
pub fn conv1x1_shapes(graph: &Graph) -> Vec<Conv1x1Shape> {
    graph
        .nodes
        .iter()
        .filter_map(|n| match n.op {
            Op::Conv2d {
                out_channels,
                kernel: 1,
                depthwise: false,
                ..
            } => Some(Conv1x1Shape {
                layer: n.name.clone(),
                w2: n.out_shape.dim(2),
                h2: n.out_shape.dim(1),
                c2: out_channels,
                c1: graph.nodes[n.inputs[0]].out_shape.dim(0),
            }),
            _ => None,
        })
        .collect()
}

/// The tuning-database key for a graph on a platform at a precision:
/// *(model, layer-shape signature, platform, precision)*.
pub fn db_key(graph: &Graph, platform: FpgaPlatform, precision: Precision) -> DbKey {
    DbKey {
        model: graph.name.clone(),
        shape_sig: shape_signature(&conv1x1_shapes(graph)),
        platform: format!("{platform:?}"),
        precision,
    }
}

/// The flow-backed candidate evaluator: synthesizes the 1x1-only bitstream,
/// times every 1x1 layer through it, and reports full-network latency when
/// the complete kernel set also fits — exactly the Table 6.6 methodology.
/// Every candidate compiles from a clone of the one source graph, sharing
/// its weights.
pub struct FlowEvaluator {
    flow: Flow,
    graph: Graph,
}

impl FlowEvaluator {
    /// An evaluator for `flow`, building its source graph and importing it
    /// once up front.
    pub fn new(flow: &Flow) -> FlowEvaluator {
        let flow = flow.with_built_source();
        FlowEvaluator {
            graph: flow.import_graph(),
            flow,
        }
    }

    /// The imported (fused, padding-materialized) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The search space for this model/platform pair: the 1x1 layer
    /// extents.
    pub fn space(&self) -> SearchSpace {
        SearchSpace::new(conv1x1_shapes(&self.graph))
    }

    /// The tuning-database key this evaluator's results belong under.
    pub fn key(&self, precision: Precision) -> DbKey {
        db_key(&self.graph, self.flow.platform, precision)
    }
}

/// Times every 1x1 convolution of `graph` under `cfg`'s folded plan: the
/// bitstream holding only the plan's 1x1 kernels, and the device seconds of
/// each 1x1 invocation run once, one after another on one queue — the
/// quantity Table 6.6 and the auto-tuner compare.
///
/// # Errors
/// Returns the plan or synthesis error as text, or a note that the graph
/// has no 1x1 convolution.
pub fn time_conv1x1(
    graph: &Graph,
    cfg: &OptimizationConfig,
    platform: FpgaPlatform,
    calib: &Calib,
) -> Result<(BitstreamReport, f64), String> {
    let is_1x1 = |name: &str| name.starts_with("conv2d_1x1");
    let plan = crate::kernels::build_folded(graph, cfg).map_err(|e| e.to_string())?;
    if !plan.kernels.iter().any(|k| is_1x1(&k.name)) {
        return Err("model has no 1x1 convolutions".to_string());
    }
    let only_1x1 = plan.kernels.iter().filter(|k| is_1x1(&k.name));
    let device = platform.model();
    let bitstream = synthesize(only_1x1, &device, &cfg.aoc, calib).map_err(|e| e.to_string())?;
    let mut sim = Sim::new(device, cfg.aoc, calib.clone(), bitstream.fmax_mhz);
    let q = sim.create_queue();
    for inv in plan.invocations.iter().filter(|i| is_1x1(&i.kernel_name)) {
        let report = bitstream.kernel(&inv.kernel_name);
        sim.enqueue_kernel(Some(q), report, &inv.binding, &[], None);
    }
    let seconds = sim.events().iter().map(SimEvent::duration).sum();
    Ok((bitstream, seconds))
}

impl Evaluate for FlowEvaluator {
    fn evaluate(&self, c: &Candidate) -> Result<Measured, EvalError> {
        let flow = &self.flow;
        let mut cfg = OptimizationConfig::folded(TilingPreset::Custom1x1 { tile: c.tile });
        cfg.aoc = AocOptions::with_precision(c.precision);
        let (bitstream, conv1x1_seconds) =
            time_conv1x1(&self.graph, &cfg, flow.platform, &flow.calib).map_err(EvalError)?;
        let seconds_per_image = flow.compile(&cfg).ok().map(|d| d.simulate_batch(1).seconds);
        Ok(Measured {
            seconds_per_image,
            conv1x1_seconds,
            dsps: bitstream.total_resources.dsp,
            fmax_mhz: bitstream.fmax_mhz,
            utilization: bitstream.utilization,
        })
    }
}

/// Tunes a zoo model for a platform in one call: warm database lookup, or
/// every legal tiling evaluated once on a miss, winner recorded back into
/// `db`. Spans land on the tracer's tune track, `tune_*` metrics in
/// `registry`.
///
/// # Errors
/// [`TuneError`] when the model has no 1x1 convolutions or nothing fits.
pub fn tune_model(
    model: Model,
    platform: FpgaPlatform,
    db: &mut TuningDb,
    tracer: &Tracer,
    registry: &Registry,
) -> Result<TuneOutcome, TuneError> {
    let flow = Flow::new(model, platform).with_tracer(tracer);
    let eval = FlowEvaluator::new(&flow);
    let key = eval.key(Precision::F32);
    let tuner = Tuner::new(eval.space())
        .with_tracer(tracer.clone())
        .with_registry(registry.clone());
    tuner.tune(&key, db, &eval)
}

impl Flow {
    /// The tuned deployment configuration for this flow's model/platform
    /// from a tuning database, or `None` when nothing has been tuned yet.
    /// The warm path: no evaluation — just a keyed lookup.
    pub fn with_tuned_config(&self, db: &TuningDb) -> Option<OptimizationConfig> {
        let graph = self.import_graph();
        let key = db_key(&graph, self.platform, Precision::F32);
        let rec = db.tilings.lookup(&key)?;
        let mut cfg = OptimizationConfig::folded(TilingPreset::Custom1x1 { tile: rec.tile });
        cfg.label = "Folded-Tuned".into();
        cfg.aoc = AocOptions::with_precision(key.precision);
        Some(cfg)
    }

    /// `base` with the tuned dataflow planner knobs (FIFO depth policy and
    /// stage cap) from the database's pipeline section, or `None` when the
    /// pipeline has not been tuned for this model/platform yet.
    pub fn with_tuned_pipeline(
        &self,
        db: &TuningDb,
        base: OptimizationConfig,
    ) -> Option<OptimizationConfig> {
        let key = db_key(&self.import_graph(), self.platform, Precision::F32);
        let opts = db.pipeline.lookup(&key)?.opts()?;
        Some(base.with_pipeline(opts))
    }
}

/// Flow-backed dataflow-pipeline evaluator: compiles the model under a
/// candidate's planner options and simulates a short batch (pipelining
/// benefits only show across images, so single-image latency would
/// under-rank deep FIFOs).
pub struct PipelineEvaluator {
    flow: Flow,
    base: OptimizationConfig,
    key: DbKey,
    /// Images simulated per evaluation.
    pub batch: usize,
}

impl PipelineEvaluator {
    /// An evaluator planning `base` (a dataflow configuration) variants.
    /// It builds the flow's source graph once, and every candidate compiles
    /// from a clone that shares its weights.
    pub fn new(flow: &Flow, base: OptimizationConfig) -> PipelineEvaluator {
        let flow = flow.with_built_source();
        let key = db_key(&flow.import_graph(), flow.platform, Precision::F32);
        PipelineEvaluator {
            flow,
            base,
            key,
            batch: 8,
        }
    }

    /// The tuning-database key this evaluator's results belong under.
    pub fn key(&self) -> DbKey {
        self.key.clone()
    }
}

impl EvaluatePipeline for PipelineEvaluator {
    fn evaluate_pipeline(&self, opts: &PipelineOpts) -> Result<PipelineMeasured, EvalError> {
        let cfg = self.base.clone().with_pipeline(*opts);
        let d = self
            .flow
            .compile(&cfg)
            .map_err(|e| EvalError(e.to_string()))?;
        let crate::deploy::ExecutionPlan::Dataflow(plan) = &d.plan else {
            return Err(EvalError(
                "pipeline tuning requires a dataflow base configuration".to_string(),
            ));
        };
        let (saved, stages, staged) = (
            plan.summary.dram_elems_saved,
            plan.summary.pipelined_nodes,
            plan.summary.staged_nodes,
        );
        let stats = d.simulate_batch(self.batch);
        Ok(PipelineMeasured {
            seconds_per_image: stats.seconds / self.batch.max(1) as f64,
            dram_elems_saved: saved,
            pipelined_stages: stages,
            staged_nodes: staged,
        })
    }
}

/// The outcome of [`tune_pipeline`].
#[derive(Clone, Debug)]
pub struct PipelineTuneOutcome {
    /// The winning planner configuration.
    pub opts: PipelineOpts,
    /// Its database record (cached or freshly measured).
    pub record: PipelineRecord,
    /// True when the database already held the record and no search ran.
    pub from_cache: bool,
}

/// Tunes the dataflow planner for a model/platform pair in one call: warm
/// database lookup, grid search over [`pipeline_candidates`] on a miss,
/// winner recorded back into `db`. Spans land on the tuner track,
/// `pipeline_tune_*` metrics in `registry`.
///
/// # Errors
/// [`EvalError`] when no candidate plans and simulates successfully.
pub fn tune_pipeline(
    flow: &Flow,
    base: OptimizationConfig,
    db: &mut TuningDb,
    tracer: &Tracer,
    registry: &Registry,
) -> Result<PipelineTuneOutcome, EvalError> {
    let eval = PipelineEvaluator::new(flow, base);
    let key = eval.key();
    let labels = &[
        ("model", key.model.as_str()),
        ("platform", key.platform.as_str()),
    ][..];
    if let Some(rec) = db.pipeline.lookup(&key) {
        if let Some(opts) = rec.opts() {
            registry.counter_inc(
                "pipeline_tune_db_hits_total",
                "Pipeline tuning-database hits (search skipped)",
                labels,
            );
            let _g = tracer.phase_on(PID_TUNE, "tune", "pipeline-db-hit");
            return Ok(PipelineTuneOutcome {
                opts,
                record: rec.clone(),
                from_cache: true,
            });
        }
    }
    let cands = pipeline_candidates();
    let results = {
        let _g = tracer.phase_on(PID_TUNE, "tune", "pipeline-search");
        cands
            .iter()
            .map(|c| eval.evaluate_pipeline(c))
            .collect::<Vec<_>>()
    };
    registry.counter_add(
        "pipeline_tune_evaluations_total",
        "Pipeline candidate evaluations spent",
        labels,
        cands.len() as f64,
    );
    let best = best_pipeline(&results).ok_or_else(|| {
        EvalError(
            results
                .iter()
                .find_map(|r| r.as_ref().err().map(|e| e.0.clone()))
                .unwrap_or_else(|| "no pipeline candidates evaluated".to_string()),
        )
    })?;
    let m = results[best].as_ref().expect("best index is Ok");
    registry.gauge_set(
        "pipeline_tune_best_seconds_per_image",
        "Best simulated seconds/image found by the pipeline search",
        labels,
        m.seconds_per_image,
    );
    let record = record_of(&cands[best], m, cands.len());
    db.pipeline.insert(key, record.clone());
    Ok(PipelineTuneOutcome {
        opts: cands[best],
        record,
        from_cache: false,
    })
}

/// Flow-backed mixed-precision evaluator: prices per-layer assignments with
/// [`synthesize_mixed`] over the per-layer kernel set (the AOC model's
/// per-precision DSP/RAM laws) and measures accuracy by running the tensor
/// crate's mixed-precision executor against the f32 reference on a probe
/// covered by the calibration batch.
pub struct PrecisionEvaluator {
    flow: Flow,
    graph: Graph,
    calib_q: Calibration,
    kernels: Vec<Kernel>,
    probe: Tensor,
    reference: Tensor,
}

impl PrecisionEvaluator {
    /// Builds the evaluator: imports the graph, calibrates it on the spec's
    /// seeded batch, lowers the per-layer kernel set, and records the f32
    /// reference output on the first calibration sample.
    ///
    /// # Errors
    /// [`FlowError`] when calibration or kernel planning fails.
    pub fn new(flow: &Flow, spec: &QuantSpec) -> Result<PrecisionEvaluator, FlowError> {
        let graph = flow.import_graph();
        let batch = crate::flow::calibration_batch(&graph, spec);
        let calib_q = quant::calibrate(&graph, &batch, spec.percentile)?;
        // Per-layer kernels (kernel name == node name), exactly what a
        // quantized compile lowers: shared parameterized kernels cannot
        // carry per-layer precisions.
        let mut cfg = OptimizationConfig::folded_base();
        cfg.parameterized = false;
        let plan = crate::kernels::build_folded(&graph, &cfg).map_err(FlowError::Plan)?;
        let probe = batch[0].clone();
        let reference = graph.execute(&probe);
        Ok(PrecisionEvaluator {
            flow: flow.clone(),
            graph,
            calib_q,
            kernels: plan.kernels,
            probe,
            reference,
        })
    }

    /// The searchable layers: every lowered kernel's node, minus softmax
    /// (never requantized, so a softmax "demotion" would be a no-op the
    /// search could bank illusory savings against).
    pub fn layers(&self) -> Vec<String> {
        self.kernels
            .iter()
            .filter(|k| {
                self.graph
                    .nodes
                    .iter()
                    .find(|n| n.name == k.name)
                    .is_none_or(|n| !matches!(n.op, Op::Softmax))
            })
            .map(|k| k.name.clone())
            .collect()
    }

    /// The tuning-database key this evaluator's results belong under (the
    /// f32 baseline: the per-layer rungs live inside the record).
    pub fn key(&self) -> DbKey {
        db_key(&self.graph, self.flow.platform, Precision::F32)
    }
}

impl EvaluatePrecision for PrecisionEvaluator {
    fn price(&self, assignment: &BTreeMap<String, Precision>) -> Result<PrecisionCost, EvalError> {
        let device = self.flow.platform.model();
        let opts = AocOptions::default();
        let bitstream =
            synthesize_mixed(&self.kernels, &device, &opts, assignment, &self.flow.calib)
                .map_err(|e| EvalError(e.to_string()))?;
        Ok(PrecisionCost {
            dsps: bitstream.total_resources.dsp,
            ram_blocks: bitstream.total_resources.ram,
        })
    }

    fn accuracy(&self, assignment: &BTreeMap<String, Precision>) -> Result<f64, EvalError> {
        let by_name: BTreeMap<String, QuantPrecision> = assignment
            .iter()
            .filter_map(|(layer, p)| {
                let q = match p {
                    Precision::F32 => return None,
                    Precision::Fp16 => QuantPrecision::Fp16,
                    Precision::Int16 => QuantPrecision::Int16,
                    Precision::Int8 => QuantPrecision::Int8,
                };
                Some((layer.clone(), q))
            })
            .collect();
        let out = QuantizedGraph::mixed(&self.graph, &self.calib_q, &by_name)
            .execute(&self.probe)
            .map_err(|e| EvalError(e.to_string()))?;
        Ok(out
            .data()
            .iter()
            .zip(self.reference.data())
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max))
    }
}

/// The outcome of [`tune_precision`].
#[derive(Clone, Debug)]
pub struct PrecisionTuneOutcome {
    /// The accepted per-layer assignment.
    pub assignment: BTreeMap<String, Precision>,
    /// Its database record (cached or freshly searched).
    pub record: PrecisionRecord,
    /// True when the database already held the record and no search ran.
    pub from_cache: bool,
}

/// Finds a per-layer mixed-precision assignment for a model/platform pair
/// in one call: warm database lookup (zero evaluations), greedy-demotion
/// search under `error_budget` on a miss, winner recorded back into `db`.
/// `spec` supplies the calibration knobs (its `precision` rung is unused:
/// the search walks the fixed fp32 → int8 → fp16 demotion ladder).
///
/// # Errors
/// [`EvalError`] when calibration, pricing, or the mixed executor fails.
pub fn tune_precision(
    flow: &Flow,
    spec: &QuantSpec,
    error_budget: f64,
    db: &mut TuningDb,
    tracer: &Tracer,
    registry: &Registry,
) -> Result<PrecisionTuneOutcome, EvalError> {
    let key = db_key(&flow.import_graph(), flow.platform, Precision::F32);
    let labels = &[
        ("model", key.model.as_str()),
        ("platform", key.platform.as_str()),
    ][..];
    if let Some(rec) = db.mixed.lookup(&key) {
        if let Some(assignment) = rec.assignment_map() {
            registry.counter_inc(
                "precision_tune_db_hits_total",
                "Mixed-precision tuning-database hits (search skipped)",
                labels,
            );
            let _g = tracer.phase_on(PID_TUNE, "tune", "precision-db-hit");
            return Ok(PrecisionTuneOutcome {
                assignment,
                record: rec.clone(),
                from_cache: true,
            });
        }
    }
    let eval = PrecisionEvaluator::new(flow, spec).map_err(|e| EvalError(e.to_string()))?;
    let layers = eval.layers();
    let outcome = {
        let _g = tracer.phase_on(PID_TUNE, "tune", "precision-search");
        search_precision(&layers, error_budget, &eval)?
    };
    registry.counter_add(
        "precision_tune_evaluations_total",
        "Mixed-precision accuracy evaluations spent",
        labels,
        outcome.evaluations as f64,
    );
    registry.gauge_set(
        "precision_tune_best_dsps",
        "Modeled DSPs of the best mixed-precision assignment",
        labels,
        outcome.cost.dsps as f64,
    );
    let record = precision_record_of(&layers, &outcome, error_budget);
    db.mixed.insert(key, record.clone());
    Ok(PrecisionTuneOutcome {
        assignment: outcome.assignment,
        record,
        from_cache: false,
    })
}

impl Flow {
    /// The tuned per-layer precision assignment for this flow's
    /// model/platform from the database's mixed section, or `None` when the
    /// precisions have not been tuned yet. The warm path: no calibration,
    /// no search — just a keyed lookup.
    pub fn with_tuned_precisions(&self, db: &TuningDb) -> Option<BTreeMap<String, Precision>> {
        let key = db_key(&self.import_graph(), self.platform, Precision::F32);
        db.mixed.lookup(&key)?.assignment_map()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_tune::TuneRecord;

    #[test]
    fn mobilenet_shapes_give_the_table_6_6_axis_ladders() {
        let graph = Flow::new(Model::MobileNetV1, FpgaPlatform::Arria10Gx).import_graph();
        let shapes = conv1x1_shapes(&graph);
        assert!(!shapes.is_empty());
        let eval = FlowEvaluator::new(&Flow::new(Model::MobileNetV1, FpgaPlatform::Arria10Gx));
        let (w2s, c2s, c1s) = eval.space().axis_factors();
        // Every Table 6.6 hand-picked factor is on the legal ladders.
        assert!(w2s.contains(&7));
        for &(w2, c2, c1) in crate::bitstreams::TABLE_6_6_TILINGS {
            assert!(w2s.contains(&w2) && c2s.contains(&c2) && c1s.contains(&c1));
        }
    }

    #[test]
    fn evaluator_matches_the_dse_sweep_on_one_point() {
        let flow = Flow::new(Model::MobileNetV1, FpgaPlatform::Arria10Gx);
        let eval = FlowEvaluator::new(&flow);
        let m = eval.evaluate(&Candidate::new((7, 8, 8))).unwrap();
        let sweep =
            crate::dse::sweep_1x1(Model::MobileNetV1, FpgaPlatform::Arria10Gx, &[(7, 8, 8)]);
        assert_eq!(sweep[0].result, Ok(m));
    }

    #[test]
    fn tuned_config_deploys_from_the_database_and_compiles() {
        let flow = Flow::new(Model::MobileNetV1, FpgaPlatform::Arria10Gx);
        let mut db = TuningDb::new();
        assert!(flow.with_tuned_config(&db).is_none());
        let key = db_key(&flow.import_graph(), flow.platform, Precision::F32);
        db.tilings.insert(
            key,
            TuneRecord {
                tile: (7, 8, 8),
                seconds_per_image: 0.02,
                conv1x1_seconds: 0.01,
                dsps: 504,
                fmax_mhz: 190.0,
                evaluations: 84,
            },
        );
        let cfg = flow.with_tuned_config(&db).expect("record present");
        assert_eq!(cfg.label, "Folded-Tuned");
        flow.compile(&cfg)
            .expect("tuned config compiles on the A10");
    }

    #[test]
    fn pipeline_tuning_searches_caches_and_redeploys() {
        let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
        let base = OptimizationConfig::dataflow(TilingPreset::Naive);
        let mut db = TuningDb::new();
        assert!(flow.with_tuned_pipeline(&db, base.clone()).is_none());

        let registry = Registry::default();
        let cold =
            tune_pipeline(&flow, base.clone(), &mut db, &Tracer::disabled(), &registry).unwrap();
        assert!(!cold.from_cache);
        assert_eq!(db.pipeline.len(), 1);
        assert!(cold.record.seconds_per_image > 0.0);
        assert!(cold.record.dram_elems_saved > 0, "LeNet pipelines fully");
        let labels = &[("model", "lenet5"), ("platform", "Stratix10Sx")][..];
        assert_eq!(
            registry.value("pipeline_tune_evaluations_total", labels),
            Some(fpgaccel_tune::pipeline_candidates().len() as f64)
        );

        // Warm path: same key hits the cached record without searching.
        let warm =
            tune_pipeline(&flow, base.clone(), &mut db, &Tracer::disabled(), &registry).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.record, cold.record);

        // And the tuned knobs deploy straight from the database.
        let cfg = flow.with_tuned_pipeline(&db, base).expect("record present");
        assert_eq!(cfg.pipeline, cold.opts);
        flow.compile(&cfg).expect("tuned pipeline config compiles");
    }

    #[test]
    fn precision_tuning_demotes_caches_and_serves_warm() {
        let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
        let spec = QuantSpec::new(fpgaccel_tensor::quant::QuantPrecision::Int8);
        let mut db = TuningDb::new();
        assert!(flow.with_tuned_precisions(&db).is_none());

        let registry = Registry::default();
        let cold =
            tune_precision(&flow, &spec, 0.05, &mut db, &Tracer::disabled(), &registry).unwrap();
        assert!(!cold.from_cache);
        assert_eq!(db.mixed.len(), 1);
        assert!(
            cold.record.dsps < cold.record.baseline_dsps,
            "mixed assignment must save modeled DSPs ({} vs {})",
            cold.record.dsps,
            cold.record.baseline_dsps
        );
        assert!(cold.record.demoted() > 0);
        assert!(cold.record.worst_error <= 0.05);
        assert!(cold.record.evaluations > 0);
        let labels = &[("model", "lenet5"), ("platform", "Stratix10Sx")][..];
        let spent = registry
            .value("precision_tune_evaluations_total", labels)
            .unwrap();
        assert_eq!(spent, cold.record.evaluations as f64);

        // Warm path: the cached record serves with zero new evaluations.
        let warm =
            tune_precision(&flow, &spec, 0.05, &mut db, &Tracer::disabled(), &registry).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(
            registry.value("precision_tune_evaluations_total", labels),
            Some(spent),
            "a cache hit must not spend evaluations"
        );
        assert_eq!(
            registry.value("precision_tune_db_hits_total", labels),
            Some(1.0)
        );

        // And the assignment deploys straight from the database.
        let assignment = flow.with_tuned_precisions(&db).expect("record present");
        assert_eq!(assignment, cold.assignment);
    }

    #[test]
    fn zero_budget_precision_tuning_stays_all_f32() {
        let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
        let spec = QuantSpec::new(fpgaccel_tensor::quant::QuantPrecision::Int8);
        let mut db = TuningDb::new();
        let out = tune_precision(
            &flow,
            &spec,
            0.0,
            &mut db,
            &Tracer::disabled(),
            &Registry::default(),
        )
        .unwrap();
        assert_eq!(out.record.demoted(), 0);
        assert_eq!(out.record.dsps, out.record.baseline_dsps);
    }

    /// MobileNet mixed-precision tuning: host f32 + mixed executions over
    /// 224x224 inputs, so this runs in the nightly `--include-ignored` soak.
    #[test]
    #[ignore = "minutes of host-side MobileNet execution; nightly soak covers it"]
    fn mobilenet_precision_tuning_saves_dsps_within_budget() {
        let flow = Flow::new(Model::MobileNetV1, FpgaPlatform::Stratix10Sx);
        let spec = QuantSpec::new(fpgaccel_tensor::quant::QuantPrecision::Int8);
        let mut db = TuningDb::new();
        let registry = Registry::default();
        let cold =
            tune_precision(&flow, &spec, 0.05, &mut db, &Tracer::disabled(), &registry).unwrap();
        assert!(!cold.from_cache);
        assert!(
            cold.record.dsps < cold.record.baseline_dsps,
            "MobileNet mixed assignment must save modeled DSPs"
        );
        assert!(cold.record.worst_error <= 0.05);
        // Warm path serves the MobileNet assignment with zero evaluations.
        let spent = registry
            .value(
                "precision_tune_evaluations_total",
                &[("model", "mobilenet_v1"), ("platform", "Stratix10Sx")],
            )
            .unwrap();
        let warm =
            tune_precision(&flow, &spec, 0.05, &mut db, &Tracer::disabled(), &registry).unwrap();
        assert!(warm.from_cache);
        assert_eq!(
            registry.value(
                "precision_tune_evaluations_total",
                &[("model", "mobilenet_v1"), ("platform", "Stratix10Sx"),]
            ),
            Some(spent)
        );
    }

    #[test]
    fn lenet_has_nothing_to_tune() {
        let mut db = TuningDb::new();
        let err = tune_model(
            Model::LeNet5,
            FpgaPlatform::Arria10Gx,
            &mut db,
            &Tracer::disabled(),
            &Registry::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TuneError::EmptySpace(_)));
    }
}
