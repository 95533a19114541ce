//! Streaming dataflow execution (§4.6–§4.7 taken whole-network): the
//! `fpgaccel-pipeline` planner maps maximal fused segments of the graph
//! onto channel-connected stage kernels, charging the whole deployment
//! against the device inventory at once; layers that do not fit — or cannot
//! stream — degrade gracefully into staged invocations of the parameterized
//! folded kernel pool. This module supplies the planner's two missing
//! halves: the resource [`Estimator`] (lower a node, price it with the AOC
//! synthesis model) and the materializer that turns the abstract plan into
//! kernels, channel couplings and an executable step list.

#![warn(clippy::too_many_lines)]

use crate::kernels::{self, DenseRule, FoldedPlan, Invocation, PlanError, Pool, PoolMember, Stage};
use crate::options::OptimizationConfig;
use fpgaccel_aoc::{synthesize_kernel, Calib, KernelReport};
use fpgaccel_device::{DeviceModel, Resources};
use fpgaccel_pipeline::{ChainNode, Estimator, PipelinePlan, PlanItem};
use fpgaccel_runtime::CouplingSpec;
use fpgaccel_tensor::graph::{Graph, Node, NodeId, Op};
use fpgaccel_tir::compute::{self, ConvSchedule, IoMode};
use fpgaccel_tir::Kernel;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// One step of the hybrid execution order.
#[derive(Clone, Debug)]
pub enum DataflowStep {
    /// A channel-connected pipelined segment: all stages concurrently
    /// resident, overlapped per the coupling model. The segment head reads
    /// global memory and has no coupling.
    Segment(Vec<Stage>),
    /// A run of staged invocations through the folded kernel pool.
    Staged(Vec<Invocation>),
}

/// A materialized dataflow plan: the executable steps, every kernel the
/// bitstream must carry, and the planner's decision record.
#[derive(Clone, Debug)]
pub struct DataflowPlan {
    /// Execution steps in network order.
    pub steps: Vec<DataflowStep>,
    /// All kernels (stage kernels + the staged pool) for synthesis.
    pub kernels: Vec<Kernel>,
    /// The planner's placement summary: segments, depths, fallbacks with
    /// structured reasons, channel/DRAM accounting.
    pub summary: PipelinePlan,
    /// Elements of activations that still cross DRAM per image (staged
    /// outputs and segment-boundary outputs, network output included).
    pub boundary_elems: u64,
}

impl DataflowStep {
    /// The step's segment stages and staged invocations; one side is empty.
    pub(crate) fn parts(&self) -> (&[Stage], &[Invocation]) {
        match self {
            DataflowStep::Segment(stages) => (stages, &[]),
            DataflowStep::Staged(invs) => (&[], invs),
        }
    }

    /// The step's stages; none for a staged run.
    pub(crate) fn stages_mut(&mut self) -> &mut [Stage] {
        match self {
            DataflowStep::Segment(stages) => stages,
            DataflowStep::Staged(_) => &mut [],
        }
    }
}

impl DataflowPlan {
    /// Simulated events per image (stages + staged invocations).
    pub fn ops_per_image(&self) -> usize {
        let sizes = self.steps.iter().map(DataflowStep::parts);
        sizes.map(|(stages, invs)| stages.len() + invs.len()).sum()
    }
}

/// Consumer lookahead window: channel elements a stage must have buffered
/// beyond its consumption point to keep the producer from blocking. This
/// tracks how [`lower_stage`] actually consumes — activations stream in
/// `C`-major row-major order:
///
/// * Streaming depthwise/pool stages hold an `F`-row ring of *one* channel
///   and pop `S` rows between output rows: `F` rows (`F · W_1`) of cushion
///   absorbs the refill burst.
/// * Full-cache stages (dense convs, dense, softmax — §4.6 staging) pop
///   every element into local memory the moment it arrives, so one input
///   row of slack suffices; the FIFO never holds the feature map.
/// * Streaming pad buffers nothing and pops interleaved with emission.
fn fill_elems(graph: &Graph, node: &Node) -> usize {
    let in_shape = &graph.nodes[node.inputs[0]].out_shape;
    let row = in_shape.dim(in_shape.dims().len().saturating_sub(1));
    match &node.op {
        Op::Conv2d {
            kernel, depthwise, ..
        } => {
            if *depthwise {
                row * *kernel
            } else {
                row
            }
        }
        Op::MaxPool { window, .. } | Op::AvgPool { window, .. } => row * *window,
        // 1-D inputs (flatten output): a fixed small cushion.
        Op::Dense { .. } | Op::Softmax => row.min(in_shape.numel()),
        Op::Pad { .. } => row,
        Op::Flatten => 1,
        _ => row,
    }
}

/// PipeCNN-style `VEC_SIZE` for one dataflow edge: the widest `floatN`
/// channel word (N ≤ 8) that evenly divides the edge tensor's row, so every
/// streaming loop that walks rows unrolls by it cleanly. Both endpoints of
/// an edge see the same tensor and therefore agree on the word width. The
/// cap bounds the replicated datapath a consumer pays per channel word.
fn edge_width(graph: &Graph, producer: NodeId) -> usize {
    let shape = &graph.nodes[producer].out_shape;
    let row = shape.dim(shape.dims().len().saturating_sub(1));
    (2..=8usize)
        .rev()
        .find(|v| row.is_multiple_of(*v))
        .unwrap_or(1)
}

/// Lowers the graph into the planner's chain description. `linear` marks
/// nodes whose input edge can become a channel: exactly one input, no
/// residual side input, consuming the immediately preceding kernel node,
/// and that producer's output having no other consumer.
pub(crate) fn chain_of(graph: &Graph) -> Vec<ChainNode> {
    let nodes: Vec<&Node> = graph.kernel_nodes().collect();
    let mut uses: HashMap<NodeId, usize> = HashMap::new();
    for n in &nodes {
        for &i in &n.inputs {
            *uses.entry(i).or_default() += 1;
        }
        if let Some(a) = n.fused.add_from {
            *uses.entry(a).or_default() += 1;
        }
    }
    nodes
        .iter()
        .enumerate()
        .map(|(i, n)| ChainNode {
            id: n.id,
            name: n.name.clone(),
            out_numel: n.out_shape.numel(),
            fill_elems: fill_elems(graph, n),
            linear: i > 0
                && n.inputs.len() == 1
                && n.fused.add_from.is_none()
                && n.inputs[0] == nodes[i - 1].id
                && uses.get(&nodes[i - 1].id).copied().unwrap_or(0) == 1,
        })
        .collect()
}

/// Lowers one node as a dedicated pipeline stage. Stages with a channel
/// input stream depthwise convolution, pooling and padding; other
/// convolutions take [`stage_schedule`], and the remaining nodes lower as
/// in a pipelined plan but with dense layers unrolled by the tiling
/// preset.
pub(crate) fn lower_stage(
    graph: &Graph,
    node: &Node,
    io_in: IoMode,
    io_out: IoMode,
    config: &OptimizationConfig,
) -> Result<Kernel, PlanError> {
    #[cfg(test)]
    kernels::LOWERED.with(|n| n.set(n.get() + 1));
    let streams = matches!(io_in, IoMode::Channel { .. });
    match &node.op {
        Op::Conv2d { .. } => {
            let (c2, c1, _, w2, f, s, dw) = kernels::conv_geometry(graph, node);
            // §4.6 charges a full-fmap local cache for channel-input
            // kernels — the BRAM wall that kept big-fmap layers out of
            // pipelines. Depthwise convolution is a per-channel op and
            // activations stream c-major, so a ring buffer of the last F
            // input rows is all the reuse window the stage needs.
            if dw && s <= f && streams {
                let spec = kernels::conv_spec(graph, node, io_in, io_out, ConvSchedule::Base);
                return Ok(compute::conv2d_dw_stream(&spec));
            }
            let schedule = stage_schedule(config, dw, f, c2, c1, w2);
            Ok(compute::conv2d(&kernels::conv_spec(
                graph, node, io_in, io_out, schedule,
            )))
        }
        // Pool and pad are per-channel ops too: the streaming variants
        // replace the full-fmap cache with an F-row ring (pool) or nothing
        // at all (pad), and with channel output they are autorun-eligible.
        Op::Pad { pad } if streams => {
            let [c, h, w] = kernels::input_chw(graph, node);
            Ok(compute::pad_stream(
                &node.name, c, h, w, *pad, io_in, io_out,
            ))
        }
        op => match kernels::pool_params(op) {
            Some((kind, window, stride)) if streams && stride <= window => {
                let [c, h, w] = kernels::input_chw(graph, node);
                Ok(compute::pool_stream(
                    &node.name, kind, c, h, w, window, stride, io_in, io_out,
                ))
            }
            _ => kernels::lower_node(graph, node, io_in, io_out, config, DenseRule::Preset),
        },
    }
}

/// A stage convolution's schedule. Unlike the per-layer pipelined lowering
/// (which always uses the fused `F×F`-unrolled schedule), stages adopt the
/// folded tiling preset when the layer's dimensions divide it — the
/// pipeline then matches the folded pool's per-layer speed while dropping
/// the global-memory round trip. A dedicated stage does not need the
/// full-fat engine folded execution amortizes over many layers — it only
/// needs to keep up with the pipeline bottleneck. Lean schedules (a
/// narrowed 1x1 tile, plain F x F unrolling for depthwise) cut each stage's
/// ALUT/BRAM footprint severalfold, which is what lets more than a couple
/// of layers fit on the chip at once.
fn stage_schedule(
    config: &OptimizationConfig,
    dw: bool,
    f: usize,
    c2: usize,
    c1: usize,
    w2: usize,
) -> ConvSchedule {
    match config.tiling.schedule(dw, f) {
        _ if !config.optimized_schedules => ConvSchedule::Base,
        ConvSchedule::Tiled {
            w2vec,
            c2vec,
            c1vec,
        } if !dw => {
            let (c2vec, c1vec) = (c2vec.min(4), c1vec.min(4));
            if w2.is_multiple_of(w2vec) && c2.is_multiple_of(c2vec) && c1.is_multiple_of(c1vec) {
                ConvSchedule::Tiled {
                    w2vec,
                    c2vec,
                    c1vec,
                }
            } else {
                ConvSchedule::Fused { unroll_ff: true }
            }
        }
        _ => ConvSchedule::Fused { unroll_ff: true },
    }
}

/// Stage-cost memo key: (node id, channel-in depth, channel-out depth).
type StageKey = (usize, Option<usize>, Option<usize>);

/// A kernel as the estimator lowered it, with its synthesis report.
struct Priced {
    kernel: Kernel,
    report: KernelReport,
}

/// Synthesizes one kernel of a compile: the planner prices with it, and a
/// plan whose kernels it did not price synthesizes them with it.
pub(crate) fn price(
    kernel: &Kernel,
    device: &DeviceModel,
    config: &OptimizationConfig,
    calib: &Calib,
) -> KernelReport {
    #[cfg(test)]
    kernels::SYNTHESIZED.with(|n| n.set(n.get() + 1));
    synthesize_kernel(kernel, device, &config.aoc, calib)
}

/// Prices placements for the planner by lowering candidate kernels and
/// running them through the AOC synthesis model. Every kernel it prices is
/// lowered exactly as the plan builds it, so the plan reuses the kernels
/// and their reports: a plan that fits here is the bitstream.
struct FlowEstimator<'a> {
    graph: &'a Graph,
    config: &'a OptimizationConfig,
    device: &'a DeviceModel,
    calib: &'a Calib,
    /// Every stage lowered so far, marked autorun as built.
    stages: RefCell<HashMap<StageKey, Priced>>,
    /// Every staged-pool member lowered so far, each once, in order.
    pool: RefCell<Vec<(PoolMember, Priced)>>,
}

impl<'a> FlowEstimator<'a> {
    fn new(
        graph: &'a Graph,
        config: &'a OptimizationConfig,
        device: &'a DeviceModel,
        calib: &'a Calib,
    ) -> Self {
        FlowEstimator {
            graph,
            config,
            device,
            calib,
            stages: RefCell::new(HashMap::new()),
            pool: RefCell::new(Vec::new()),
        }
    }

    fn priced(&self, kernel: Kernel) -> Priced {
        let report = price(&kernel, self.device, self.config, self.calib);
        Priced { kernel, report }
    }

    /// Lowers and prices node `id` as a stage whose channels hold
    /// `chan_in` and `chan_out` elements. Each channel is named after its
    /// producer, so the kernel is the one the segment carries.
    fn stage(&self, (id, chan_in, chan_out): StageKey) -> Result<Priced, PlanError> {
        let (graph, node) = (self.graph, &self.graph.nodes[id]);
        let channel = |producer, depth| {
            IoMode::channel_wide(chan_name(producer), depth, edge_width(graph, producer))
        };
        let io_in = chan_in.map_or(IoMode::Global, |d| channel(node.inputs[0], d));
        let io_out = chan_out.map_or(IoMode::Global, |d| channel(id, d));
        let kernel = lower_stage(graph, node, io_in, io_out, self.config)?;
        Ok(self.priced(kernels::mark_autorun(kernel, self.config)))
    }

    /// The index of `member` in [`FlowEstimator::pool`], lowering and
    /// pricing it on first use.
    fn member(&self, member: &PoolMember) -> Result<usize, PlanError> {
        if let Some(at) = self.pool.borrow().iter().position(|(m, _)| m == member) {
            return Ok(at);
        }
        let priced = self.priced(member.lower(self.graph, self.config)?);
        let mut pool = self.pool.borrow_mut();
        pool.push((member.clone(), priced));
        Ok(pool.len() - 1)
    }

    /// The staged pool over `ids`, priced as the sum of its members.
    fn pool_cost(&self, ids: &[NodeId]) -> Result<Resources, PlanError> {
        let pool = Pool::new(self.graph, self.config, |id| ids.contains(&id));
        let prices = pool.lower_each(self.graph, self.config, |m| {
            let at = self.member(m)?;
            Ok(self.pool.borrow()[at].1.report.resources)
        })?;
        Ok(prices
            .into_iter()
            .fold(Resources::default(), Resources::add))
    }
}

impl Estimator for FlowEstimator<'_> {
    fn stage_cost(
        &self,
        id: usize,
        chan_in: Option<usize>,
        chan_out: Option<usize>,
    ) -> Result<Resources, String> {
        let key = (id, chan_in, chan_out);
        if let Some(p) = self.stages.borrow().get(&key) {
            return Ok(p.report.resources);
        }
        let priced = self.stage(key).map_err(|e| e.to_string())?;
        let res = priced.report.resources;
        self.stages.borrow_mut().insert(key, priced);
        Ok(res)
    }

    fn staged_cost(&self, ids: &[usize]) -> Result<Resources, String> {
        self.pool_cost(ids).map_err(|e| e.to_string())
    }
}

fn chan_name(producer: NodeId) -> String {
    format!("dfch_{producer}")
}

/// Plans and materializes a dataflow deployment: runs the segment planner
/// against the device's kernel budget, then lowers pipelined segments into
/// channel-connected stage kernels and demoted layers into one shared
/// folded kernel pool.
///
/// # Errors
/// Returns [`PlanError`] when a layer cannot be lowered (the planner's
/// graceful degradation handles resource exhaustion, not lowering failures).
pub fn build_dataflow(
    graph: &Graph,
    config: &OptimizationConfig,
    device: &DeviceModel,
    calib: &Calib,
) -> Result<DataflowPlan, PlanError> {
    plan_dataflow(graph, config, device, calib).map(|(plan, _)| plan)
}

/// [`build_dataflow`] with the synthesis report of every plan kernel, in
/// [`DataflowPlan::kernels`] order: each kernel as the planner lowered and
/// priced it, so no kernel is lowered or synthesized twice.
pub(crate) fn plan_dataflow(
    graph: &Graph,
    config: &OptimizationConfig,
    device: &DeviceModel,
    calib: &Calib,
) -> Result<(DataflowPlan, Vec<KernelReport>), PlanError> {
    build_with(&FlowEstimator::new(graph, config, device, calib))
}

/// [`plan_dataflow`] priced by `est`. The plan takes the kernels `est`
/// lowered to price its stages and its staged pool: the planner's last
/// phase prices exactly the final segments and staged set.
fn build_with(est: &FlowEstimator<'_>) -> Result<(DataflowPlan, Vec<KernelReport>), PlanError> {
    let (graph, config) = (est.graph, est.config);
    let chain = chain_of(graph);
    let budget = est.device.kernel_budget();
    let summary = fpgaccel_pipeline::plan(&chain, est, budget, config.pipeline)
        .map_err(|e| PlanError(e.0))?;
    let produced: HashMap<NodeId, usize> = chain.iter().map(|c| (c.id, c.out_numel)).collect();
    let fills: HashMap<NodeId, usize> = chain.iter().map(|c| (c.id, c.fill_elems)).collect();

    let (folded, mut reports) = staged_pool(est, &summary)?;
    let mut kernels = folded.kernels;
    let mut inv_by_node: HashMap<NodeId, Invocation> = folded
        .invocations
        .into_iter()
        .map(|inv| (inv.node_id, inv))
        .collect();
    let mut stages = est.stages.take();
    let mut steps: Vec<DataflowStep> = Vec::new();
    let mut boundary_elems = 0u64;
    for item in &summary.items {
        match item {
            PlanItem::Pipelined(seg) => {
                let len = seg.ids.len();
                let mut segment = Vec::with_capacity(len);
                for (k, &id) in seg.ids.iter().enumerate() {
                    let chan_in = (k > 0).then(|| seg.depths[k - 1]);
                    let key = (id, chan_in, (k + 1 < len).then(|| seg.depths[k]));
                    let Priced { kernel, report } = stages
                        .remove(&key)
                        .expect("the planner priced every stage of its final segments");
                    let coupling = chan_in.map(|depth| CouplingSpec {
                        depth,
                        produced: produced[&seg.ids[k - 1]],
                        fill: fills[&id],
                    });
                    kernels.push(kernel.clone());
                    reports.push(report);
                    segment.push(Stage {
                        node_id: id,
                        kernel,
                        coupling,
                    });
                }
                boundary_elems += produced[seg.ids.last().expect("non-empty segment")] as u64;
                steps.push(DataflowStep::Segment(segment));
            }
            PlanItem::Staged(ids) => {
                let invs: Vec<Invocation> = ids
                    .iter()
                    .map(|id| {
                        boundary_elems += produced[id] as u64;
                        inv_by_node
                            .remove(id)
                            .expect("every staged node has an invocation")
                    })
                    .collect();
                steps.push(DataflowStep::Staged(invs));
            }
        }
    }
    let plan = DataflowPlan {
        steps,
        kernels,
        summary,
        boundary_elems,
    };
    Ok((plan, reports))
}

/// One folded pool shared by every staged run of `summary` (grouped
/// kernels fold across all demoted layers, exactly as the planner priced
/// them), built from the members `est` lowered, with their reports.
fn staged_pool(
    est: &FlowEstimator<'_>,
    summary: &PipelinePlan,
) -> Result<(FoldedPlan, Vec<KernelReport>), PlanError> {
    let staged: HashSet<NodeId> = summary
        .items
        .iter()
        .filter_map(|item| match item {
            PlanItem::Staged(ids) => Some(ids.iter().copied()),
            PlanItem::Pipelined(_) => None,
        })
        .flatten()
        .collect();
    let mut pool = est.pool.take();
    let (graph, config) = (est.graph, est.config);
    kernels::build_folded_subset(
        graph,
        config,
        |id| staged.contains(&id),
        |m| {
            let at = pool
                .iter()
                .position(|(p, _)| p == m)
                .expect("the planner priced every member of its final staged pool");
            let Priced { kernel, report } = pool.swap_remove(at).1;
            Ok((kernel, report))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{OptimizationConfig, TilingPreset};
    use fpgaccel_pipeline::FallbackReason;
    use fpgaccel_tensor::models::Model;

    fn plan_for(model: Model, platform: fpgaccel_device::FpgaPlatform) -> DataflowPlan {
        let graph = model.build().fuse().materialize_padding();
        let config = OptimizationConfig::dataflow(match model {
            Model::MobileNetV1 => TilingPreset::MobileNet {
                one_by_one: (7, 16, 4),
            },
            _ => TilingPreset::Naive,
        });
        build_dataflow(&graph, &config, &platform.model(), &Calib::default()).unwrap()
    }

    #[test]
    fn lenet_chain_is_fully_linear_after_the_head() {
        let graph = Model::LeNet5.build().fuse().materialize_padding();
        let chain = chain_of(&graph);
        assert!(!chain[0].linear, "the head reads the network input");
        assert!(chain[1..].iter().all(|c| c.linear), "LeNet is a chain");
    }

    #[test]
    fn resnet_chain_breaks_at_residuals() {
        let graph = Model::ResNet18.build().fuse().materialize_padding();
        let chain = chain_of(&graph);
        let broken = chain.iter().filter(|c| !c.linear).count();
        assert!(broken > 4, "residual joins/forks must break the chain");
    }

    #[test]
    fn lenet_pipelines_whole_network_on_the_s10sx() {
        let plan = plan_for(Model::LeNet5, fpgaccel_device::FpgaPlatform::Stratix10Sx);
        assert_eq!(plan.summary.staged_nodes, 0, "LeNet fits as one pipeline");
        assert!(plan.summary.over_budget.is_none());
        assert!(plan.summary.dram_elems_saved > 0);
        // Boundary activations: only the network output leaves the chip.
        let graph = Model::LeNet5.build().fuse().materialize_padding();
        let out = graph.nodes[graph.output].out_shape.numel() as u64;
        assert_eq!(plan.boundary_elems, out);
    }

    #[test]
    fn mobilenet_degrades_gracefully_on_the_arria10() {
        let plan = plan_for(Model::MobileNetV1, fpgaccel_device::FpgaPlatform::Arria10Gx);
        assert!(plan.summary.staged_nodes > 0, "A10 cannot hold all stages");
        assert!(
            plan.summary.over_budget.is_none(),
            "degradation must converge to a fitting plan"
        );
        let over =
            plan.summary.fallbacks.iter().any(
                |f| matches!(f.reason, FallbackReason::OverBudget(o) if !o.limiting.is_empty()),
            );
        assert!(over, "expected a structured over-budget fallback");
    }

    /// Records every staged set the planner prices.
    struct Recording<'a> {
        est: &'a FlowEstimator<'a>,
        sets: RefCell<Vec<Vec<usize>>>,
    }

    impl Estimator for Recording<'_> {
        fn stage_cost(
            &self,
            id: usize,
            chan_in: Option<usize>,
            chan_out: Option<usize>,
        ) -> Result<Resources, String> {
            self.est.stage_cost(id, chan_in, chan_out)
        }

        fn staged_cost(&self, ids: &[usize]) -> Result<Resources, String> {
            self.sets.borrow_mut().push(ids.to_vec());
            self.est.staged_cost(ids)
        }
    }

    /// The staged pool over `ids` priced kernel by kernel, as built.
    fn built_cost(est: &FlowEstimator<'_>, ids: &[usize]) -> Result<Resources, PlanError> {
        let (graph, config) = (est.graph, est.config);
        let include = |id| ids.contains(&id);
        let lower = |m: &PoolMember| Ok((m.lower(graph, config)?, ()));
        let (plan, _) = kernels::build_folded_subset(graph, config, include, lower)?;
        Ok(plan.kernels.iter().fold(Resources::default(), |acc, k| {
            acc.add(synthesize_kernel(k, est.device, &config.aoc, est.calib).resources)
        }))
    }

    #[test]
    fn the_pool_is_priced_as_the_sum_of_its_built_kernels() {
        use fpgaccel_device::FpgaPlatform;
        let mobilenet = Model::MobileNetV1.build().fuse().materialize_padding();
        let resnet = Model::ResNet18.build().fuse().materialize_padding();
        let designs = FpgaPlatform::ALL
            .map(|p| {
                let tile = crate::bitstreams::mobilenet_tile(p);
                let tiling = TilingPreset::MobileNet { one_by_one: tile };
                (&mobilenet, p, OptimizationConfig::dataflow(tiling))
            })
            .into_iter()
            .chain([(
                &resnet,
                FpgaPlatform::Stratix10Sx,
                OptimizationConfig::dataflow(TilingPreset::ResNet),
            )]);
        for (graph, platform, config) in designs {
            let (device, calib) = (platform.model(), Calib::default());
            let est = FlowEstimator::new(graph, &config, &device, &calib);
            let rec = Recording {
                est: &est,
                sets: RefCell::new(Vec::new()),
            };
            fpgaccel_pipeline::plan(
                &chain_of(graph),
                &rec,
                device.kernel_budget(),
                config.pipeline,
            )
            .unwrap();
            let sets = rec.sets.into_inner();
            assert!(!sets.is_empty(), "{}/{platform}", graph.name);
            for ids in &sets {
                assert_eq!(est.pool_cost(ids), built_cost(&est, ids), "{ids:?}");
            }
        }
    }

    /// How many kernels planning `config` on `platform` prices: each
    /// distinct stage (node and channel depths) and each pool member.
    fn priced_kernels(
        graph: &Graph,
        config: &OptimizationConfig,
        platform: fpgaccel_device::FpgaPlatform,
    ) -> usize {
        let (device, calib) = (platform.model(), Calib::default());
        let est = FlowEstimator::new(graph, config, &device, &calib);
        fpgaccel_pipeline::plan(
            &chain_of(graph),
            &est,
            device.kernel_budget(),
            config.pipeline,
        )
        .unwrap();
        let (stages, pool) = (est.stages.take(), est.pool.take());
        stages.len() + pool.len()
    }

    /// Compiles `config` and counts the kernels the compile lowered and
    /// synthesized on this thread.
    fn counted_compile(
        flow: &crate::Flow,
        config: &OptimizationConfig,
    ) -> (usize, usize, crate::Deployment) {
        kernels::LOWERED.with(|n| n.set(0));
        kernels::SYNTHESIZED.with(|n| n.set(0));
        let d = flow.compile(config).unwrap();
        let lowered = kernels::LOWERED.with(|n| n.get());
        (lowered, kernels::SYNTHESIZED.with(|n| n.get()), d)
    }

    /// The bitstream synthesized afresh from a deployment's kernels.
    fn resynthesized(d: &crate::Deployment) -> String {
        let again = fpgaccel_aoc::synthesize(d.plan.kernels(), &d.device, &d.config.aoc, &d.calib);
        format!("{:?}", again.unwrap())
    }

    #[test]
    fn a_dataflow_compile_lowers_and_synthesizes_each_kernel_once() {
        use fpgaccel_device::FpgaPlatform;
        let (mobilenet, lenet) = (Model::MobileNetV1.build(), Model::LeNet5.build());
        let resnet = Model::ResNet18.build();
        // ResNet-18 stages its residual blocks: pool members whose
        // epilogue adds the skip, next to the non-linear chain's stages.
        let designs = FpgaPlatform::ALL
            .map(|p| {
                let tile = crate::bitstreams::mobilenet_tile(p);
                let tiling = TilingPreset::MobileNet { one_by_one: tile };
                (&mobilenet, p, OptimizationConfig::dataflow(tiling))
            })
            .into_iter()
            .chain([
                (
                    &lenet,
                    FpgaPlatform::Stratix10Sx,
                    OptimizationConfig::dataflow(TilingPreset::Naive),
                ),
                (
                    &resnet,
                    FpgaPlatform::Stratix10Sx,
                    OptimizationConfig::dataflow(TilingPreset::ResNet),
                ),
            ]);
        let carries_residual = |k: &Kernel| k.bufs.iter().any(|b| b.name == "res");
        let mut residual = false;
        for (source, platform, config) in designs {
            let flow = crate::Flow::for_graph(source.clone(), platform);
            let priced = priced_kernels(&flow.import_graph(), &config, platform);
            let (lowered, synthesized, d) = counted_compile(&flow, &config);
            // Planning lowers and prices each stage and pool member once;
            // materialization and the bitstream reuse them.
            let name = format!("{}/{platform}", source.name);
            assert_eq!(lowered, priced, "{name}: lowered");
            assert_eq!(synthesized, priced, "{name}: synthesized");
            assert!(d.plan.kernels().count() <= priced, "{name}");
            assert_eq!(format!("{:?}", d.bitstream), resynthesized(&d), "{name}");
            residual |= d.plan.kernels().any(carries_residual);
        }
        assert!(residual, "no design built a residual epilogue");
    }

    #[test]
    fn quantized_dataflow_compiles_synthesize_the_rewritten_kernels() {
        use crate::options::QuantSpec;
        use fpgaccel_device::FpgaPlatform;
        use fpgaccel_tensor::quant::QuantPrecision;
        let lenet = Model::LeNet5.build();
        for precision in [QuantPrecision::Int8, QuantPrecision::Fp16] {
            let spec = QuantSpec::new(precision);
            let config = OptimizationConfig::dataflow(TilingPreset::Naive).with_quant(spec);
            for platform in FpgaPlatform::ALL {
                let flow = crate::Flow::for_graph(lenet.clone(), platform);
                let priced = priced_kernels(&flow.import_graph(), &config, platform);
                let (lowered, synthesized, d) = counted_compile(&flow, &config);
                // Quantization rewrites the kernels after planning, so the
                // bitstream synthesizes every final kernel once more.
                let name = format!("{precision:?}/{platform}");
                assert_eq!(lowered, priced, "{name}: lowered");
                let fresh = d.plan.kernels().count();
                assert_eq!(synthesized, priced + fresh, "{name}: synthesized");
                assert_eq!(format!("{:?}", d.bitstream), resynthesized(&d), "{name}");
            }
        }
    }

    #[test]
    fn random_staged_sets_price_as_built_or_fail_alike() {
        use fpgaccel_device::FpgaPlatform;
        use fpgaccel_tensor::rng::Rng64;
        let mobilenet = Model::MobileNetV1.build().fuse().materialize_padding();
        let resnet = Model::ResNet18.build().fuse().materialize_padding();
        let lenet = Model::LeNet5.build().fuse().materialize_padding();
        let tiled =
            |one_by_one| OptimizationConfig::dataflow(TilingPreset::MobileNet { one_by_one });
        let per_layer = |mut c: OptimizationConfig| {
            c.parameterized = false;
            c
        };
        // A 48-wide output tile does not divide MobileNet's 64-channel
        // layers; LeNet's per-layer unroll of 40 divides neither 84 nor
        // the input of whichever dense layer a subset numbers second. A
        // ResNet group's epilogue carries the residual add only when the
        // set holds a block's second convolution.
        let mut lenet_ladder = per_layer(OptimizationConfig::dataflow(TilingPreset::Naive));
        lenet_ladder.dense_unroll = vec![40, 40, 4];
        let cases = [
            (&mobilenet, tiled((7, 16, 4))),
            (&mobilenet, tiled((7, 48, 4))),
            (&mobilenet, per_layer(tiled((7, 8, 8)))),
            (&resnet, OptimizationConfig::dataflow(TilingPreset::ResNet)),
            (&lenet, lenet_ladder),
        ];
        let mut rng = Rng64::seed_from_u64(0x9001);
        let mut failed = 0;
        for (i, (graph, config)) in cases.iter().enumerate() {
            let platform = FpgaPlatform::ALL[i % FpgaPlatform::ALL.len()];
            let (device, calib) = (platform.model(), Calib::default());
            let est = FlowEstimator::new(graph, config, &device, &calib);
            let nodes: Vec<NodeId> = graph.kernel_nodes().map(|n| n.id).collect();
            for _ in 0..24 {
                // A window of the network, thinned at random.
                let mut pick = || rng.below(nodes.len() as u64) as usize;
                let (a, b) = (pick(), pick());
                let keep = rng.below(4) + 1;
                let ids: Vec<NodeId> = (nodes[a.min(b)..=a.max(b)].iter().copied())
                    .filter(|_| rng.below(4) < keep)
                    .collect();
                let priced = est.pool_cost(&ids);
                failed += usize::from(priced.is_err());
                assert_eq!(priced, built_cost(&est, &ids), "{}: {ids:?}", graph.name);
            }
        }
        assert!(failed > 0, "no random set failed to plan");
    }

    #[test]
    fn staged_nodes_share_the_folded_pool() {
        let plan = plan_for(Model::MobileNetV1, fpgaccel_device::FpgaPlatform::Arria10Gx);
        let staged: Vec<&Invocation> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                DataflowStep::Staged(invs) => Some(invs.iter()),
                DataflowStep::Segment(_) => None,
            })
            .flatten()
            .collect();
        assert!(!staged.is_empty());
        // Grouped conv invocations reference shared parameterized kernels.
        let kernel_names: HashSet<&str> = plan.kernels.iter().map(|k| k.name.as_str()).collect();
        for inv in staged {
            assert!(kernel_names.contains(inv.kernel_name.as_str()));
        }
    }
}
