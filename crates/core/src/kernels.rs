//! Lowering graph nodes to OpenCL kernels: per-layer kernels for pipelined
//! execution, grouped parameterized kernels for folded execution (§3.1,
//! §4.9, §5.3).

use crate::options::OptimizationConfig;
use fpgaccel_runtime::CouplingSpec;
use fpgaccel_tensor::graph::{Graph, Node, NodeId, Op};
use fpgaccel_tensor::ops::Activation;
use fpgaccel_tir::compute::{
    self, ConvDims, ConvSchedule, ConvSpec, DenseSchedule, DenseSpec, EpilogueSpec, IoMode,
    PoolKind,
};
use fpgaccel_tir::{Binding, Dim, Kernel};

/// One channel-connected stage of a pipelined or dataflow deployment. Its
/// kernel carries the autorun flag (§4.7).
#[derive(Clone, Debug)]
pub struct Stage {
    /// Graph node implemented by this stage.
    pub node_id: NodeId,
    /// The stage kernel (channel I/O on in-pipeline edges).
    pub kernel: Kernel,
    /// Coupling to the previous stage (`None` when the stage reads its
    /// input from global memory).
    pub coupling: Option<CouplingSpec>,
}

/// One kernel invocation of a folded deployment.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Graph node computed by this invocation.
    pub node_id: NodeId,
    /// Kernel executed.
    pub kernel_name: String,
    /// Symbolic-dimension arguments (§5.3).
    pub binding: Binding,
}

/// The kernel set + schedule of a folded deployment.
#[derive(Clone, Debug)]
pub struct FoldedPlan {
    /// Unique kernels (parameterized conv groups, the parameterized pad,
    /// and fixed per-node kernels).
    pub kernels: Vec<Kernel>,
    /// Layer execution order.
    pub invocations: Vec<Invocation>,
}

/// Identity of a parameterized convolution group: the thesis groups
/// "convolutions with the same stride and filter size" (§4.9); activation
/// and depthwise-ness must also match because they are baked into the
/// datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Depthwise convolution.
    pub depthwise: bool,
    /// Filter size `F`.
    pub f: usize,
    /// Stride `S`.
    pub s: usize,
    /// Fused activation.
    pub activation: Activation,
}

impl GroupKey {
    /// The group of a convolution node; `None` for any other op.
    pub fn of(node: &Node) -> Option<GroupKey> {
        match node.op {
            Op::Conv2d {
                kernel,
                stride,
                depthwise,
                ..
            } => Some(GroupKey {
                depthwise,
                f: kernel,
                s: stride,
                activation: node.fused.activation,
            }),
            _ => None,
        }
    }

    /// Kernel name for this group (e.g. `conv2d_3x3_s1_relu`).
    pub fn kernel_name(&self) -> String {
        let op = if self.depthwise {
            "conv2d_dw"
        } else {
            "conv2d"
        };
        let act = match self.activation {
            Activation::None => "id",
            Activation::Relu => "relu",
            Activation::Relu6 => "relu6",
        };
        format!("{op}_{f}x{f}_s{s}_{act}", f = self.f, s = self.s)
    }
}

/// Problems constructing a plan (tile divisibility, unsupported layouts).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

pub(crate) fn conv_geometry(
    graph: &Graph,
    node: &Node,
) -> (usize, usize, usize, usize, usize, usize, bool) {
    let Op::Conv2d {
        out_channels,
        kernel,
        stride,
        pad,
        depthwise,
    } = node.op
    else {
        panic!("conv_geometry on non-conv node");
    };
    assert_eq!(
        pad, 0,
        "padding must be materialized before lowering (§3.1)"
    );
    let in_shape = &graph.nodes[node.inputs[0]].out_shape;
    (
        out_channels,
        in_shape.dim(0),
        node.out_shape.dim(1),
        node.out_shape.dim(2),
        kernel,
        stride,
        depthwise,
    )
}

/// The constant-shape spec of a conv node under `schedule`.
pub(crate) fn conv_spec(
    graph: &Graph,
    node: &Node,
    io_in: IoMode,
    io_out: IoMode,
    schedule: ConvSchedule,
) -> ConvSpec {
    let (c2, c1, h2, w2, f, s, depthwise) = conv_geometry(graph, node);
    let [_, h1, w1] = input_chw(graph, node);
    ConvSpec {
        name: node.name.clone(),
        dims: ConvDims::constant(c2, c1, h2, w2, f, s).with_input(Dim::Const(h1), Dim::Const(w1)),
        depthwise,
        epilogue: epilogue_of(node),
        io_in,
        io_out,
        schedule,
        explicit_strides: false,
    }
}

/// The `[C, H, W]` extents of a node's (first) input.
pub(crate) fn input_chw(graph: &Graph, node: &Node) -> [usize; 3] {
    let in_shape = &graph.nodes[node.inputs[0]].out_shape;
    [in_shape.dim(0), in_shape.dim(1), in_shape.dim(2)]
}

/// A pool node's flavour, window and stride; `None` for other ops.
///
/// # Panics
/// Panics if the pool still carries padding.
pub(crate) fn pool_params(op: &Op) -> Option<(PoolKind, usize, usize)> {
    let (kind, window, stride, pad) = match *op {
        Op::MaxPool {
            window,
            stride,
            pad,
        } => (PoolKind::Max, window, stride, pad),
        Op::AvgPool {
            window,
            stride,
            pad,
        } => (PoolKind::Avg, window, stride, pad),
        _ => return None,
    };
    assert_eq!(pad, 0, "pool padding must be materialized");
    Some((kind, window, stride))
}

pub(crate) fn epilogue_of(node: &Node) -> EpilogueSpec {
    EpilogueSpec {
        bias: node.bias.is_some(),
        bn: node.fused.bn.is_some(),
        residual: node.fused.add_from.is_some(),
        activation: node.fused.activation,
    }
}

/// Which unroll factor a dense layer's kernel gets under optimized
/// schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DenseRule {
    /// Entry `i` of [`OptimizationConfig::dense_unroll`] for the plan's
    /// `i`-th dense layer: the per-layer ladder of pipelined and per-layer
    /// folded plans. A factor that does not divide the layer's input is a
    /// plan error.
    PerLayer(usize),
    /// The tiling preset's factor wherever it divides the layer's input:
    /// the fixed kernels of a parameterized folded pool and dataflow
    /// stages.
    Preset,
}

/// The schedule of dense node `node` over `n` inputs under `rule`.
fn dense_schedule(
    node: &Node,
    n: usize,
    config: &OptimizationConfig,
    rule: DenseRule,
) -> Result<DenseSchedule, PlanError> {
    let factor = match rule {
        DenseRule::PerLayer(i) => config.dense_unroll.get(i).copied(),
        DenseRule::Preset => config
            .tiling
            .dense_unroll()
            .filter(|f| n.is_multiple_of(*f)),
    };
    match factor {
        Some(factor) if config.optimized_schedules => {
            if !n.is_multiple_of(factor) {
                return Err(PlanError(format!(
                    "dense unroll factor {factor} does not divide N = {n} for `{}`",
                    node.name
                )));
            }
            Ok(DenseSchedule::Unrolled { factor })
        }
        _ => Ok(DenseSchedule::Base),
    }
}

/// Builds per-layer kernels for a pipelined deployment. The graph must be a
/// linear chain (§3.1 pipelines activations layer to layer).
///
/// # Errors
/// Returns [`PlanError`] for non-chain graphs or indivisible dense unrolls.
pub fn build_pipelined(
    graph: &Graph,
    config: &OptimizationConfig,
) -> Result<Vec<Stage>, PlanError> {
    let nodes: Vec<&Node> = graph.kernel_nodes().collect();
    // Linear-chain check: every kernel consumes exactly the previous node.
    for (i, n) in nodes.iter().enumerate() {
        if n.inputs.len() != 1 || n.fused.add_from.is_some() {
            return Err(PlanError(format!(
                "pipelined execution requires a linear chain; node `{}` has \
                 residual/multi-input structure",
                n.name
            )));
        }
        let expected_input = if i == 0 { 0 } else { nodes[i - 1].id };
        if n.inputs[0] != expected_input {
            return Err(PlanError(format!(
                "pipelined execution requires a linear chain; node `{}` skips a layer",
                n.name
            )));
        }
    }

    let last = nodes.len() - 1;
    let mut dense_seen = 0usize;
    let mut stages = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        let in_numel = graph.nodes[node.inputs[0]].out_shape.numel();
        let out_numel = node.out_shape.numel();
        // Channel depths sized to the producer's output feature map so the
        // FIFO never stalls the producer (§4.11).
        let coupling = (config.channels && i > 0).then_some(CouplingSpec {
            depth: in_numel,
            produced: in_numel,
            fill: 0,
        });
        let io_in = coupling.map_or(IoMode::Global, |c| {
            IoMode::channel(format!("ch_{}", i - 1), c.depth)
        });
        let io_out = if config.channels && i < last {
            IoMode::channel(format!("ch_{i}"), out_numel)
        } else {
            IoMode::Global
        };

        let dense = DenseRule::PerLayer(dense_seen);
        dense_seen += usize::from(matches!(node.op, Op::Dense { .. }));
        let kernel = lower_node(graph, node, io_in, io_out, config, dense)?;
        stages.push(Stage {
            node_id: node.id,
            kernel: mark_autorun(kernel, config),
            coupling,
        });
    }
    Ok(stages)
}

/// Declares `kernel` autorun (§4.7) when the configuration asks for it and
/// the kernel touches no global memory.
pub(crate) fn mark_autorun(mut kernel: Kernel, config: &OptimizationConfig) -> Kernel {
    if config.autorun && kernel.autorun_eligible() {
        kernel.mark_autorun();
    }
    kernel
}

/// Lowers one node to its kernel with the per-layer schedules: the fused
/// `F x F`-unrolled convolution and the optimized softmax under
/// `optimized_schedules`, dense layers per `dense`.
pub(crate) fn lower_node(
    graph: &Graph,
    node: &Node,
    io_in: IoMode,
    io_out: IoMode,
    config: &OptimizationConfig,
    dense: DenseRule,
) -> Result<Kernel, PlanError> {
    let in_shape = &graph.nodes[node.inputs[0]].out_shape;
    if let Some((kind, window, stride)) = pool_params(&node.op) {
        let [c, h, w] = input_chw(graph, node);
        return Ok(compute::pool(
            &node.name, kind, c, h, w, window, stride, io_in, io_out,
        ));
    }
    Ok(match &node.op {
        Op::Conv2d { .. } => {
            let schedule = if config.optimized_schedules {
                ConvSchedule::Fused { unroll_ff: true }
            } else {
                ConvSchedule::Base
            };
            compute::conv2d(&conv_spec(graph, node, io_in, io_out, schedule))
        }
        Op::Dense { units } => {
            let n = in_shape.dim(0);
            compute::dense(&DenseSpec {
                name: node.name.clone(),
                m: Dim::Const(*units),
                n: Dim::Const(n),
                epilogue: epilogue_of(node),
                io_in,
                io_out,
                schedule: dense_schedule(node, n, config, dense)?,
            })
        }
        Op::Pad { pad } => {
            let [c, h, w] = input_chw(graph, node);
            compute::pad(&node.name, c, h, w, *pad, io_in, io_out)
        }
        Op::Flatten => compute::copy(&node.name, in_shape.numel(), io_in, io_out),
        Op::Softmax => {
            let optimized = config.optimized_schedules;
            compute::softmax(&node.name, in_shape.dim(0), io_in, io_out, optimized)
        }
        other => {
            return Err(PlanError(format!(
                "op {:?} should have been fused before lowering",
                other.kind_name()
            )))
        }
    })
}

/// Builds the folded plan: parameterized conv groups keyed by
/// (depthwise, F, S, activation), one parameterized pad kernel, and fixed
/// kernels for the remaining layers.
///
/// # Errors
/// Returns [`PlanError`] when a layer's dimensions are not divisible by the
/// group's tile factors (§4.11 requirement 2).
pub fn build_folded(graph: &Graph, config: &OptimizationConfig) -> Result<FoldedPlan, PlanError> {
    let lower = |m: &PoolMember| Ok((m.lower(graph, config)?, ()));
    build_folded_subset(graph, config, |_| true, lower).map(|(plan, _)| plan)
}

/// [`build_folded`] restricted to the kernel nodes `include` admits, with
/// each member of the pool lowered by `lower`, which may return a value
/// along with each kernel; those come back in the order of the plan's
/// kernels. The dataflow planner builds the staged pool of the layers it
/// demoted out of the pipeline this way, from the kernels it lowered and
/// priced.
pub(crate) fn build_folded_subset<T>(
    graph: &Graph,
    config: &OptimizationConfig,
    include: impl Fn(NodeId) -> bool,
    lower: impl FnMut(&PoolMember) -> Result<(Kernel, T), PlanError>,
) -> Result<(FoldedPlan, Vec<T>), PlanError> {
    let pool = Pool::new(graph, config, include);
    let (kernels, extra): (Vec<Kernel>, Vec<T>) =
        pool.lower_each(graph, config, lower)?.into_iter().unzip();
    let invocations = pool
        .uses
        .iter()
        .map(|&(id, m)| Invocation {
            node_id: id,
            kernel_name: kernels[m].name.clone(),
            binding: pool.members[m].binding(graph, &graph.nodes[id]),
        })
        .collect();
    let plan = FoldedPlan {
        kernels,
        invocations,
    };
    Ok((plan, extra))
}

/// One kernel of a folded pool, before lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PoolMember {
    /// A parameterized convolution group with the union of its layers'
    /// epilogues.
    Group(GroupKey, EpilogueSpec),
    /// The parameterized pad kernel `pad_any`.
    Pad,
    /// One node's own constant-shape kernel with global I/O.
    Fixed(NodeId, DenseRule),
}

#[cfg(test)]
thread_local! {
    /// Pool members and dataflow stages lowered on this thread, for the
    /// tests that count them.
    pub(crate) static LOWERED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Kernels a compile synthesized on this thread.
    pub(crate) static SYNTHESIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl PoolMember {
    /// Lowers the member to its kernel.
    pub(crate) fn lower(
        &self,
        graph: &Graph,
        config: &OptimizationConfig,
    ) -> Result<Kernel, PlanError> {
        #[cfg(test)]
        LOWERED.with(|n| n.set(n.get() + 1));
        match self {
            PoolMember::Group(key, epilogue) => Ok(compute::conv2d(&ConvSpec {
                name: key.kernel_name(),
                dims: ConvDims {
                    c2: Dim::sym("ff"),
                    c1: if key.depthwise {
                        Dim::sym("ff")
                    } else {
                        Dim::sym("rc")
                    },
                    h2: Dim::sym("hh"),
                    w2: Dim::sym("ww"),
                    h1: Dim::sym("ih"),
                    w1: Dim::sym("iw"),
                    f: key.f,
                    s: key.s,
                },
                depthwise: key.depthwise,
                epilogue: epilogue.clone(),
                io_in: IoMode::Global,
                io_out: IoMode::Global,
                schedule: if config.optimized_schedules {
                    config.tiling.schedule(key.depthwise, key.f)
                } else {
                    ConvSchedule::Base
                },
                // The flow applies the Listing 5.11 stride-1 coalescing
                // workaround unless the ablation switch keeps TVM's raw
                // symbolic strides (Listing 5.10).
                explicit_strides: config.explicit_strides,
            })),
            PoolMember::Pad => Ok(compute::pad_param("pad_any")),
            PoolMember::Fixed(id, dense) => lower_node(
                graph,
                &graph.nodes[*id],
                IoMode::Global,
                IoMode::Global,
                config,
                *dense,
            ),
        }
    }

    /// The symbolic-dimension arguments with which `node` invokes the
    /// member (§5.3); fixed kernels take none.
    fn binding(&self, graph: &Graph, node: &Node) -> Binding {
        let mut binding = Binding::empty();
        match (self, &node.op) {
            (PoolMember::Group(..), _) => {
                let (c2, c1, h2, w2, _, _, dw) = conv_geometry(graph, node);
                let [_, h1, w1] = input_chw(graph, node);
                binding.set("ff", c2);
                if !dw {
                    binding.set("rc", c1);
                }
                binding.set("hh", h2);
                binding.set("ww", w2);
                binding.set("ih", h1);
                binding.set("iw", w1);
            }
            (PoolMember::Pad, Op::Pad { pad }) => {
                let [c, h, w] = input_chw(graph, node);
                binding.set("pc", c);
                binding.set("ph", h);
                binding.set("pw", w);
                binding.set("pp", *pad);
            }
            _ => {}
        }
        binding
    }
}

/// A folded pool before lowering: its members in bitstream order (conv
/// groups in order of first use, `pad_any`, then the fixed kernels in
/// network order) and, per included kernel node in network order, the index
/// of the member it invokes.
pub(crate) struct Pool {
    members: Vec<PoolMember>,
    uses: Vec<(NodeId, usize)>,
}

impl Pool {
    /// The pool over the kernel nodes `include` admits. Parameterized
    /// plans group convolutions by [`GroupKey`], each group carrying the
    /// union of its layers' epilogues, and share one pad kernel; the other
    /// layers, and every layer of TVM's default one-kernel-per-layer
    /// mapping (§3.2), get a fixed kernel.
    pub(crate) fn new(
        graph: &Graph,
        config: &OptimizationConfig,
        include: impl Fn(NodeId) -> bool,
    ) -> Pool {
        let nodes = || graph.kernel_nodes().filter(|n| include(n.id));
        let (mut members, mut uses) = (Vec::new(), Vec::new());
        if !config.parameterized {
            let mut dense_seen = 0usize;
            for node in nodes() {
                let dense = DenseRule::PerLayer(dense_seen);
                dense_seen += usize::from(matches!(node.op, Op::Dense { .. }));
                uses.push((node.id, members.len()));
                members.push(PoolMember::Fixed(node.id, dense));
            }
            return Pool { members, uses };
        }
        let mut groups: Vec<(GroupKey, EpilogueSpec)> = Vec::new();
        let mut needs_pad = false;
        for node in nodes() {
            let Some(key) = GroupKey::of(node) else {
                needs_pad |= matches!(node.op, Op::Pad { .. });
                continue;
            };
            let e = epilogue_of(node);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, union)) => {
                    union.bias |= e.bias;
                    union.bn |= e.bn;
                    union.residual |= e.residual;
                }
                None => groups.push((key, e)),
            }
        }
        members.extend(
            groups
                .iter()
                .map(|(key, e)| PoolMember::Group(*key, e.clone())),
        );
        let pad = members.len();
        if needs_pad {
            members.push(PoolMember::Pad);
        }
        for node in nodes() {
            let at = match GroupKey::of(node) {
                Some(key) => groups.iter().position(|(k, _)| *k == key),
                None if matches!(node.op, Op::Pad { .. }) => Some(pad),
                None => None,
            };
            let at = at.unwrap_or_else(|| {
                members.push(PoolMember::Fixed(node.id, DenseRule::Preset));
                members.len() - 1
            });
            uses.push((node.id, at));
        }
        Pool { members, uses }
    }

    /// Lowers each member once with `lower` and returns the results in
    /// bitstream order. The walk follows the layers in network order and
    /// checks each grouped layer against its group's tiles, so the first
    /// layer that fails is the error reported.
    pub(crate) fn lower_each<T>(
        &self,
        graph: &Graph,
        config: &OptimizationConfig,
        mut lower: impl FnMut(&PoolMember) -> Result<T, PlanError>,
    ) -> Result<Vec<T>, PlanError> {
        let mut out: Vec<Option<T>> = self.members.iter().map(|_| None).collect();
        for &(id, m) in &self.uses {
            if let PoolMember::Group(..) = self.members[m] {
                check_tiles(graph, &graph.nodes[id], config)?;
            }
            if out[m].is_none() {
                out[m] = Some(lower(&self.members[m])?);
            }
        }
        Ok(out
            .into_iter()
            .map(|t| t.expect("every member has a layer"))
            .collect())
    }
}

/// Checks that a grouped convolution's dimensions divide its group's tile
/// factors (§4.11 requirement 2).
fn check_tiles(graph: &Graph, node: &Node, config: &OptimizationConfig) -> Result<(), PlanError> {
    let (c2, c1, _, w2, f, _, dw) = conv_geometry(graph, node);
    let ConvSchedule::Tiled {
        w2vec,
        c2vec,
        c1vec,
    } = config.tiling.schedule(dw, f)
    else {
        return Ok(());
    };
    if !config.optimized_schedules {
        return Ok(());
    }
    let check = |what: &str, v: usize, tile: usize| {
        if !v.is_multiple_of(tile) {
            Err(PlanError(format!(
                "layer `{}`: {what} = {v} not divisible by tile {tile}",
                node.name
            )))
        } else {
            Ok(())
        }
    };
    check("W2", w2, w2vec)?;
    check("C2", c2, c2vec)?;
    if !dw {
        check("C1", c1, c1vec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TilingPreset;
    use fpgaccel_tensor::models::Model;
    use fpgaccel_tir::Scope;

    fn lenet_graph() -> Graph {
        Model::LeNet5.build().fuse().materialize_padding()
    }

    #[test]
    fn lenet_pipelined_has_nine_stages() {
        let g = lenet_graph();
        let stages = build_pipelined(&g, &OptimizationConfig::tvm_autorun()).unwrap();
        // conv1, pool1, conv2, pool2, flatten, dense1-3, softmax.
        assert_eq!(stages.len(), 9);
        // Pool and flatten stages are autorun (Table 6.4).
        let autoruns: Vec<&str> = stages
            .iter()
            .filter(|s| s.kernel.autorun)
            .map(|s| s.kernel.name.as_str())
            .collect();
        assert_eq!(autoruns, vec!["pool1", "pool2", "flatten"]);
    }

    #[test]
    fn base_config_uses_global_io_everywhere() {
        let g = lenet_graph();
        let stages = build_pipelined(&g, &OptimizationConfig::base()).unwrap();
        for s in &stages {
            assert!(s.kernel.chan_in.is_empty() && s.kernel.chan_out.is_empty());
            assert!(!s.kernel.autorun);
        }
    }

    #[test]
    fn channel_config_wires_a_chain() {
        let g = lenet_graph();
        let stages = build_pipelined(&g, &OptimizationConfig::channels()).unwrap();
        // First reads global, last writes global, interior channelized.
        assert!(stages.first().unwrap().kernel.chan_in.is_empty());
        assert!(stages.last().unwrap().kernel.chan_out.is_empty());
        for w in stages.windows(2) {
            let out = &w[0].kernel.chan_out;
            let inp = &w[1].kernel.chan_in;
            assert_eq!(out.len(), 1);
            assert_eq!(inp.len(), 1);
            assert_eq!(out[0].name, inp[0].name);
        }
    }

    #[test]
    fn resnet_rejects_pipelined_mode() {
        let g = Model::ResNet18.build().fuse().materialize_padding();
        let err = build_pipelined(&g, &OptimizationConfig::tvm_autorun()).unwrap_err();
        assert!(err.0.contains("linear chain"), "{err}");
    }

    #[test]
    fn mobilenet_folded_groups_match_table_6_7() {
        let g = Model::MobileNetV1.build().fuse().materialize_padding();
        let plan = build_folded(
            &g,
            &OptimizationConfig::folded(TilingPreset::MobileNet {
                one_by_one: (7, 16, 4),
            }),
        )
        .unwrap();
        let names: Vec<&str> = plan.kernels.iter().map(|k| k.name.as_str()).collect();
        // The parameterized groups of Table 6.7.
        assert!(names.contains(&"conv2d_1x1_s1_relu6"));
        assert!(names.contains(&"conv2d_dw_3x3_s1_relu6"));
        assert!(names.contains(&"conv2d_dw_3x3_s2_relu6"));
        assert!(names.contains(&"conv2d_3x3_s2_relu6"));
        assert!(names.contains(&"pad_any"));
        assert!(names.contains(&"fc"));
        assert!(names.contains(&"softmax"));
        // 27 convolutions collapse into 4 parameterized kernels.
        let conv_kernels = names.iter().filter(|n| n.starts_with("conv2d")).count();
        assert_eq!(conv_kernels, 4);
        // Every conv layer is an invocation of one of them.
        let conv_invocations = plan
            .invocations
            .iter()
            .filter(|i| i.kernel_name.starts_with("conv2d"))
            .count();
        assert_eq!(conv_invocations, 27);
    }

    #[test]
    fn resnet_folded_groups_match_table_6_13() {
        let g = Model::ResNet18.build().fuse().materialize_padding();
        let plan = build_folded(&g, &OptimizationConfig::folded(TilingPreset::ResNet)).unwrap();
        let names: Vec<&str> = plan.kernels.iter().map(|k| k.name.as_str()).collect();
        assert!(names.contains(&"conv2d_7x7_s2_relu"));
        assert!(names.contains(&"conv2d_3x3_s1_relu"));
        assert!(names.contains(&"conv2d_3x3_s2_relu"));
        assert!(names.contains(&"conv2d_1x1_s2_id"));
        assert!(names.contains(&"pad_any"));
        assert!(names.contains(&"pool1"));
        assert!(names.contains(&"pool"));
    }

    #[test]
    fn folded_bindings_carry_layer_shapes() {
        let g = Model::ResNet18.build().fuse().materialize_padding();
        let plan = build_folded(&g, &OptimizationConfig::folded(TilingPreset::ResNet)).unwrap();
        let conv1 = plan
            .invocations
            .iter()
            .find(|i| g.nodes[i.node_id].name == "conv1")
            .unwrap();
        assert_eq!(conv1.binding.get("ff"), 64);
        assert_eq!(conv1.binding.get("rc"), 3);
        assert_eq!(conv1.binding.get("hh"), 112);
    }

    #[test]
    fn indivisible_tiles_are_rejected() {
        let g = Model::MobileNetV1.build().fuse().materialize_padding();
        // c2vec = 48 does not divide MobileNet's 64-channel layers.
        let err = build_folded(
            &g,
            &OptimizationConfig::folded(TilingPreset::MobileNet {
                one_by_one: (7, 48, 4),
            }),
        )
        .unwrap_err();
        assert!(err.0.contains("not divisible"), "{err}");
    }

    #[test]
    fn parameterized_folded_plans_unroll_every_dense_layer() {
        // Ten dense layers, more than any zoo model has: the preset's
        // factor of 32 divides each 64-element input.
        let mut g = Graph::new("dense10", fpgaccel_tensor::Shape::d1(64));
        for i in 0..10 {
            let from = g.output;
            g.push(format!("fc{i}"), Op::Dense { units: 64 }, vec![from]);
        }
        let tiling = TilingPreset::MobileNet {
            one_by_one: (7, 8, 8),
        };
        let plan = build_folded(&g, &OptimizationConfig::folded(tiling)).unwrap();
        assert_eq!(plan.kernels.len(), 10);
        for k in &plan.kernels {
            // Listing 5.6 caches the dot product in a private register;
            // the base schedule accumulates through global memory.
            let dot = k.buf("dot").expect("dense accumulator");
            assert_eq!(dot.scope, Scope::Private, "{} is not unrolled", k.name);
        }
    }

    #[test]
    fn residual_union_marks_group_kernels() {
        let g = Model::ResNet18.build().fuse().materialize_padding();
        let plan = build_folded(&g, &OptimizationConfig::folded(TilingPreset::ResNet)).unwrap();
        let k = plan
            .kernels
            .iter()
            .find(|k| k.name == "conv2d_3x3_s1_relu")
            .unwrap();
        // The group contains conv_b layers with fused residual adds, so the
        // shared kernel carries a `res` argument.
        assert!(k.bufs.iter().any(|b| b.name == "res"));
    }
}
