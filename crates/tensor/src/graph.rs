//! A Relay-like computation-graph IR (§2.5, §3.1).
//!
//! Models imported from the [`crate::models`] zoo are plain graphs of one
//! operator per node. Two passes mirror what TVM does before kernel
//! generation:
//!
//! * [`Graph::fuse`] — operator fusion: ReLU/ReLU6, folded batch norms, bias
//!   adds and residual additions are fused into the producing
//!   convolution/dense node, so "a distinct kernel \[is\] generated for each
//!   convolution, dense, padding, and softmax layer" (§3.1).
//! * [`Graph::materialize_padding`] — padded convolutions are split into an
//!   explicit zero-padding kernel followed by an unpadded convolution, the
//!   form TVM's codegen emits and whose cost the thesis measures
//!   (Tables 6.8/6.16).

use crate::ops::{self, Activation, ConvArgs};
use crate::shape::{conv_out_shape, Shape};
use crate::tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Index of a node within its graph.
pub type NodeId = usize;

/// Graph operators. One node = one Relay op before fusion; after fusion,
/// epilogues live in [`Node::fused`].
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// The graph input placeholder.
    Input,
    /// 2-D convolution (`depthwise = true` for depthwise separable filters).
    Conv2d {
        /// Output channels `K`.
        out_channels: usize,
        /// Filter size `F` (square).
        kernel: usize,
        /// Stride `S`.
        stride: usize,
        /// Zero padding `P`.
        pad: usize,
        /// Depthwise convolution flag.
        depthwise: bool,
    },
    /// Fully-connected layer with `units` outputs.
    Dense {
        /// Output length `M`.
        units: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Explicit zero padding (materialized from padded convolutions).
    Pad {
        /// Rings of zeros.
        pad: usize,
    },
    /// Flatten CHW to a vector.
    Flatten,
    /// ReLU activation node (fusable).
    Relu,
    /// ReLU6 activation node (fusable).
    Relu6,
    /// Folded batch normalization node (fusable).
    BatchNorm,
    /// Residual addition of two inputs (fusable into the second conv).
    Add,
    /// Softmax output layer (kept as its own kernel, §5.1.3).
    Softmax,
}

impl Op {
    /// Human-readable operator kind, used in kernel names and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv2d {
                depthwise: true, ..
            } => "conv2d_dw",
            Op::Conv2d { .. } => "conv2d",
            Op::Dense { .. } => "dense",
            Op::MaxPool { .. } => "maxpool",
            Op::AvgPool { .. } => "avgpool",
            Op::Pad { .. } => "pad",
            Op::Flatten => "flatten",
            Op::Relu => "relu",
            Op::Relu6 => "relu6",
            Op::BatchNorm => "batchnorm",
            Op::Add => "add",
            Op::Softmax => "softmax",
        }
    }
}

/// Epilogue fused onto a convolution/dense node by [`Graph::fuse`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FusedEpilogue {
    /// Fused activation function.
    pub activation: Activation,
    /// Fused folded batch norm `(scale, shift)` per output channel.
    pub bn: Option<(Vec<f32>, Vec<f32>)>,
    /// Fused residual addition: the other operand's node id.
    pub add_from: Option<NodeId>,
}

impl FusedEpilogue {
    /// True if nothing is fused.
    pub fn is_empty(&self) -> bool {
        self.activation == Activation::None && self.bn.is_none() && self.add_from.is_none()
    }

    /// The activation the producing operator applies: none when a fused
    /// residual add follows, since the activation must come after the add.
    pub(crate) fn before_add(&self) -> Activation {
        match self.add_from {
            Some(_) => Activation::None,
            None => self.activation,
        }
    }
}

/// A convolution's or dense layer's weights: their shape, and their
/// values once built.
///
/// Weights built with a graph ([`Graph::push_with_params`]) hold their
/// values from the start. The zoo's weights ([`crate::models`]) hold a
/// seeded He initialization instead and generate their values on first
/// read, on whichever thread reads first, exactly once. Reading the shape
/// never generates them, so shape inference, the passes, kernel generation
/// and synthesis hold no weight values. Every value reader goes through
/// `Deref<Target = Tensor>`. The values never change once generated:
/// a pass that needs different weights builds a new tensor.
pub struct Weights {
    shape: Shape,
    /// `(fan_in, seed)` of the [`Tensor::he_init`] that fills an empty cell.
    he_init: Option<(usize, u64)>,
    values: OnceLock<Tensor>,
}

impl Weights {
    /// Weights of `shape` whose values `Tensor::he_init(shape, fan_in,
    /// seed)` generates on first read.
    pub(crate) fn he_init(shape: Shape, fan_in: usize, seed: u64) -> Weights {
        Weights {
            shape,
            he_init: Some((fan_in, seed)),
            values: OnceLock::new(),
        }
    }

    /// The shape, read without generating the values.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Element count, read without generating the values.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Whether the values exist yet: built with the graph, or generated by
    /// a read.
    pub fn is_generated(&self) -> bool {
        self.values.get().is_some()
    }
}

impl From<Tensor> for Weights {
    fn from(values: Tensor) -> Weights {
        Weights {
            shape: values.shape().clone(),
            he_init: None,
            values: OnceLock::from(values),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Weight tensors generated on this thread, for the tests that count
    /// them.
    pub(crate) static GENERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Deref for Weights {
    type Target = Tensor;

    /// The values, generated here on the first read of ungenerated weights.
    fn deref(&self) -> &Tensor {
        self.values.get_or_init(|| {
            #[cfg(test)]
            GENERATED.with(|n| n.set(n.get() + 1));
            let (fan_in, seed) = self.he_init.expect("built weights hold their values");
            Tensor::he_init(self.shape.clone(), fan_in, seed)
        })
    }
}

impl fmt::Debug for Weights {
    /// The shape only: formatting never generates the values.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Weights({})", self.shape)
    }
}

/// One operator instance with its parameters.
#[derive(Clone, Debug)]
pub struct Node {
    /// Index in [`Graph::nodes`].
    pub id: NodeId,
    /// Layer name (e.g. `conv1`, `conv_8_dw`).
    pub name: String,
    /// Operator.
    pub op: Op,
    /// Producer node ids (one for most ops, two for `Add`).
    pub inputs: Vec<NodeId>,
    /// Convolution/dense weights, shared by every clone of the graph and
    /// every graph the passes derive from it. Compiling reads only their
    /// shape; executing or verifying the graph reads, and so generates,
    /// their values.
    pub weights: Option<Arc<Weights>>,
    /// Bias.
    pub bias: Option<Vec<f32>>,
    /// Standalone folded batch-norm parameters (before fusion).
    pub bn: Option<(Vec<f32>, Vec<f32>)>,
    /// Fused epilogue (populated by [`Graph::fuse`]).
    pub fused: FusedEpilogue,
    /// Output shape.
    pub out_shape: Shape,
}

impl Node {
    /// A convolution node's stride, padding and fused epilogue, borrowed
    /// from its fields, with the activation a fused residual add defers
    /// left out.
    ///
    /// # Panics
    /// Panics if the node is not a convolution.
    pub(crate) fn conv_args(&self) -> ConvArgs<'_> {
        let Op::Conv2d { stride, pad, .. } = self.op else {
            panic!("{}: conv_args of a {} node", self.name, self.op.kind_name())
        };
        ConvArgs {
            stride,
            pad,
            bias: self.bias.as_deref(),
            bn: self.fused.bn.as_ref().map(|(s, b)| (&s[..], &b[..])),
            activation: self.fused.before_add(),
        }
    }

    /// Number of trainable parameters carried by this node.
    pub fn param_count(&self) -> usize {
        self.weights.as_deref().map_or(0, Weights::numel)
            + self.bias.as_ref().map_or(0, Vec::len)
            + self.bn.as_ref().map_or(0, |(s, b)| s.len() + b.len())
            + self.fused.bn.as_ref().map_or(0, |(s, b)| s.len() + b.len())
    }
}

/// A feed-forward computation graph (the thesis deploys unidirectional CNNs,
/// §2.1.1). Nodes are stored in topological order.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Network name (`lenet5`, `mobilenet_v1`, ...).
    pub name: String,
    /// Topologically-ordered nodes; `nodes[0]` is the input.
    pub nodes: Vec<Node>,
    /// Output node id.
    pub output: NodeId,
}

impl Graph {
    /// Creates a graph with a single input node of the given shape.
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Self {
        Graph {
            name: name.into(),
            nodes: vec![Node {
                id: 0,
                name: "input".into(),
                op: Op::Input,
                inputs: vec![],
                weights: None,
                bias: None,
                bn: None,
                fused: FusedEpilogue::default(),
                out_shape: input_shape,
            }],
            output: 0,
        }
    }

    /// Input shape.
    pub fn input_shape(&self) -> &Shape {
        &self.nodes[0].out_shape
    }

    /// Appends a node, inferring its output shape; returns its id and marks
    /// it as the graph output.
    ///
    /// # Panics
    /// Panics if inputs are out of range or shapes are inconsistent.
    pub fn push(&mut self, name: impl Into<String>, op: Op, inputs: Vec<NodeId>) -> NodeId {
        self.push_with_params(name, op, inputs, None, None, None)
    }

    /// Appends a node with weights/bias/bn parameters.
    ///
    /// # Panics
    /// Panics if inputs are out of range or shapes are inconsistent,
    /// including a weight dimension or bias length that does not match the
    /// operator and its input, weights or a bias on anything but a
    /// convolution or dense layer, and a batch norm without `bn` (or `bn`
    /// anywhere else).
    pub fn push_with_params(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: Vec<NodeId>,
        weights: Option<Tensor>,
        bias: Option<Vec<f32>>,
        bn: Option<(Vec<f32>, Vec<f32>)>,
    ) -> NodeId {
        let weights = weights.map(|w| Arc::new(Weights::from(w)));
        self.push_shared(name, op, inputs, weights, bias, bn)
    }

    /// [`Graph::push_with_params`] over weights another graph may share,
    /// or whose values are not generated yet.
    pub(crate) fn push_shared(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: Vec<NodeId>,
        weights: Option<Arc<Weights>>,
        bias: Option<Vec<f32>>,
        bn: Option<(Vec<f32>, Vec<f32>)>,
    ) -> NodeId {
        let name = name.into();
        for &i in &inputs {
            assert!(i < self.nodes.len(), "input node {i} does not exist");
        }
        let out_shape = self.infer_shape(&op, &inputs);
        let input = &self.nodes[inputs[0]].out_shape;
        check_params(
            &name,
            &op,
            input,
            weights.as_deref(),
            bias.as_deref(),
            bn.as_ref(),
        );
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            name,
            op,
            inputs,
            weights,
            bias,
            bn,
            fused: FusedEpilogue::default(),
            out_shape,
        });
        self.output = id;
        id
    }

    fn infer_shape(&self, op: &Op, inputs: &[NodeId]) -> Shape {
        let in_shape = |i: usize| &self.nodes[inputs[i]].out_shape;
        match op {
            Op::Input => unreachable!("input nodes are created by Graph::new"),
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                pad,
                depthwise,
            } => {
                let s = in_shape(0);
                if *depthwise {
                    assert_eq!(
                        *out_channels,
                        s.dim(0),
                        "depthwise conv cannot change channel count"
                    );
                }
                conv_out_shape(s, *out_channels, *kernel, *stride, *pad)
            }
            Op::Dense { units } => {
                assert_eq!(in_shape(0).rank(), 1, "dense input must be flattened");
                Shape::d1(*units)
            }
            Op::MaxPool {
                window,
                stride,
                pad,
            }
            | Op::AvgPool {
                window,
                stride,
                pad,
            } => {
                let s = in_shape(0);
                conv_out_shape(s, s.dim(0), *window, *stride, *pad)
            }
            Op::Pad { pad } => {
                let s = in_shape(0);
                Shape::chw(s.dim(0), s.dim(1) + 2 * pad, s.dim(2) + 2 * pad)
            }
            Op::Flatten => Shape::d1(in_shape(0).numel()),
            Op::Relu | Op::Relu6 | Op::BatchNorm | Op::Softmax => in_shape(0).clone(),
            Op::Add => {
                assert_eq!(inputs.len(), 2, "add takes two inputs");
                assert_eq!(in_shape(0), in_shape(1), "add operand shape mismatch");
                in_shape(0).clone()
            }
        }
    }

    /// Per-node consumer counts.
    pub fn use_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                counts[i] += 1;
            }
        }
        counts[self.output] += 1; // the graph result is a use
        counts
    }

    /// [`Graph::use_counts`] plus the fused residual adds that read each
    /// node.
    fn reads(&self) -> Vec<usize> {
        let mut uses = self.use_counts();
        for n in &self.nodes {
            if let Some(src) = n.fused.add_from {
                uses[src] += 1;
            }
        }
        uses
    }

    /// The order the executors evaluate nodes in: ascending ids, except
    /// that a node waits for a later node its fused residual add reads.
    /// [`Graph::fuse`] can point `add_from` forward, at a projection
    /// convolution pushed after the block's second convolution.
    ///
    /// # Panics
    /// Panics if the input and residual edges form a cycle.
    pub(crate) fn eval_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let (mut order, mut placed, mut stack) = (Vec::with_capacity(n), vec![false; n], vec![]);
        for root in 0..n {
            stack.push(root);
            while let Some(&id) = stack.last() {
                if placed[id] {
                    stack.pop();
                    continue;
                }
                let node = &self.nodes[id];
                match node
                    .inputs
                    .iter()
                    .chain(&node.fused.add_from)
                    .find(|&&d| !placed[d])
                {
                    Some(&d) => {
                        assert!(stack.len() < n, "graph edges form a cycle");
                        stack.push(d);
                    }
                    None => {
                        placed[id] = true;
                        order.push(id);
                        stack.pop();
                    }
                }
            }
        }
        order
    }

    /// Executes the graph on `input`, returning the output tensor.
    ///
    /// Handles both fused and unfused graphs. Each activation is dropped
    /// after its last consumer, so at most the live frontier of the graph
    /// is held at once.
    ///
    /// # Panics
    /// Panics if `input` does not match the graph input shape.
    pub fn execute(&self, input: &Tensor) -> Tensor {
        self.run(input, true)[self.output]
            .take()
            .unwrap_or_else(|| input.clone())
    }

    /// Executes the graph and returns every node's activation (per-layer
    /// activation dump, one of the host-code debugging capabilities of §5.2).
    /// The same walk as [`Graph::execute`], with nothing dropped.
    pub fn execute_all(&self, input: &Tensor) -> HashMap<NodeId, Tensor> {
        let mut vals = self.run(input, false);
        vals[0] = Some(input.clone());
        vals.into_iter()
            .enumerate()
            .filter_map(|(id, t)| t.map(|t| (id, t)))
            .collect()
    }

    /// Evaluates every node in [`Graph::eval_order`]; `vals[id]` is node
    /// `id`'s activation. The input node is read from `input`, never
    /// copied. With `free_dead`, an activation is dropped once its last
    /// consumer (residual reads included) has run.
    fn run(&self, input: &Tensor, free_dead: bool) -> Vec<Option<Tensor>> {
        assert_eq!(
            input.shape(),
            self.input_shape(),
            "graph input shape mismatch"
        );
        let mut uses = free_dead.then(|| self.reads());
        let mut vals: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for id in self.eval_order().into_iter().skip(1) {
            let node = &self.nodes[id];
            let out = self.eval_node(node, input, &vals);
            vals[id] = Some(out);
            if let Some(uses) = uses.as_mut() {
                for &d in node.inputs.iter().chain(&node.fused.add_from) {
                    uses[d] -= 1;
                    if uses[d] == 0 {
                        vals[d] = None;
                    }
                }
                if uses[id] == 0 {
                    vals[id] = None; // nothing consumes it
                }
            }
        }
        vals
    }

    fn eval_node(&self, node: &Node, input: &Tensor, vals: &[Option<Tensor>]) -> Tensor {
        let val = |id: NodeId| match id {
            0 => input,
            _ => vals[id].as_ref().expect("operand evaluated and live"),
        };
        let arg = |i: usize| val(node.inputs[i]);
        let mut out = match &node.op {
            Op::Input => unreachable!(),
            Op::Conv2d { depthwise, .. } => {
                let w = node.weights.as_deref().expect("conv weights");
                if *depthwise {
                    ops::depthwise_conv2d(arg(0), w, node.conv_args())
                } else {
                    // Algorithm choice is transparent: im2col+GEMM for
                    // reduction-heavy layers, direct otherwise.
                    ops::conv2d_auto(arg(0), w, node.conv_args())
                }
            }
            Op::Dense { .. } => ops::dense(
                arg(0),
                node.weights.as_deref().expect("dense weights"),
                node.bias.as_deref(),
                node.fused.activation,
            ),
            Op::MaxPool {
                window,
                stride,
                pad,
            } => ops::maxpool2d(arg(0), *window, *stride, *pad),
            Op::AvgPool {
                window,
                stride,
                pad,
            } => ops::avgpool2d(arg(0), *window, *stride, *pad),
            Op::Pad { pad } => ops::pad2d(arg(0), *pad),
            Op::Flatten => arg(0).clone().flatten(),
            Op::Relu => ops::relu(arg(0)),
            Op::Relu6 => ops::relu6(arg(0)),
            Op::BatchNorm => {
                let (s, b) = node.bn.as_ref().expect("bn params");
                ops::batchnorm(arg(0), s, b)
            }
            Op::Add => ops::add(arg(0), arg(1)),
            Op::Softmax => ops::softmax(arg(0)),
        };
        if let Some(other) = node.fused.add_from {
            add_residual(&mut out, val(other), node.fused.activation);
        }
        out
    }

    /// The Relay-style operator-fusion pass (§3.1).
    ///
    /// Folds, in producer order, each fusable chain
    /// `conv/dense -> [BatchNorm] -> [Add] -> [ReLU/ReLU6]` into the
    /// producing node's [`FusedEpilogue`], removing the standalone nodes.
    /// Only single-consumer edges are fused.
    ///
    /// One forward pass that keeps the use counts up to date. A fusion
    /// changes only its producer and the consumers of the node it removes,
    /// all at or after the scan point, so no node already passed can
    /// become fusable.
    ///
    /// Consumes the graph and moves its parameters into the result; clone
    /// it first to keep the unfused graph (the clone shares the weights).
    pub fn fuse(self) -> Graph {
        let mut g = self;
        let mut uses = g.reads();
        let mut id = 1;
        while id < g.nodes.len() {
            match g.fuse_node(id, &uses) {
                Some(p) => {
                    // `id` was `p`'s one reader; `p` now has id's readers.
                    uses[p] = uses[id];
                    uses.remove(id);
                    g.remove_node(id, p);
                }
                None => id += 1,
            }
        }
        g
    }

    /// Folds node `id` into the epilogue of the producer it fuses into,
    /// if a fusion rule applies, and returns that producer.
    fn fuse_node(&mut self, id: NodeId, uses: &[usize]) -> Option<NodeId> {
        let (nodes, inputs) = (&self.nodes, &self.nodes[id].inputs);
        let sole =
            |p: NodeId| uses[p] == 1 && matches!(nodes[p].op, Op::Conv2d { .. } | Op::Dense { .. });
        match self.nodes[id].op {
            Op::Relu | Op::Relu6 => {
                let p = inputs[0];
                if !sole(p) || nodes[p].fused.activation != Activation::None {
                    return None;
                }
                self.nodes[p].fused.activation = if self.nodes[id].op == Op::Relu {
                    Activation::Relu
                } else {
                    Activation::Relu6
                };
                Some(p)
            }
            Op::BatchNorm => {
                let p = inputs[0];
                // BN fuses only if nothing else is fused yet (it must
                // precede the activation/add mathematically).
                if !sole(p) || !nodes[p].fused.is_empty() {
                    return None;
                }
                self.nodes[p].fused.bn = self.nodes[id].bn.take();
                Some(p)
            }
            Op::Add => {
                // Fuse the add into whichever operand is a conv/dense with
                // a single consumer and no activation fused past the add
                // point yet. The fused add still reads the other operand,
                // so that operand's use count stays.
                let (a, b) = (inputs[0], inputs[1]);
                let (p, other) = [(a, b), (b, a)].into_iter().find(|&(p, _)| {
                    let f = &nodes[p].fused;
                    sole(p) && f.activation == Activation::None && f.add_from.is_none()
                })?;
                self.nodes[p].fused.add_from = Some(other);
                Some(p)
            }
            _ => None,
        }
    }

    /// Removes node `id`, redirecting its consumers to `replacement` (the
    /// node its value was fused into) and renumbering all ids. Used by the
    /// fusion pass.
    fn remove_node(&mut self, id: NodeId, replacement: NodeId) {
        let remap = |n: NodeId| -> NodeId {
            let n = if n == id { replacement } else { n };
            if n > id {
                n - 1
            } else {
                n
            }
        };
        self.nodes.remove(id);
        for (new_id, node) in self.nodes.iter_mut().enumerate() {
            node.id = new_id;
            for i in node.inputs.iter_mut() {
                *i = remap(*i);
            }
            if let Some(a) = node.fused.add_from {
                node.fused.add_from = Some(remap(a));
            }
        }
        self.output = remap(self.output);
    }

    /// Splits every padded convolution into `Pad` + unpadded `Conv2d`,
    /// matching the kernels TVM's codegen emits (§3.1, Tables 6.8/6.16).
    ///
    /// Consumes the graph and moves its parameters into the result; clone
    /// it first to keep the unpadded graph (the clone shares the weights).
    pub fn materialize_padding(self) -> Graph {
        let mut g = Graph::new(self.name, self.nodes[0].out_shape.clone());
        // old id -> new id of the node producing the equivalent value
        let mut map: Vec<NodeId> = vec![0; self.nodes.len()];
        for node in self.nodes.into_iter().skip(1) {
            let new_inputs: Vec<NodeId> = node.inputs.iter().map(|&i| map[i]).collect();
            let old_id = node.id;
            let new_id = match node.op {
                Op::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    pad,
                    depthwise,
                } if pad > 0 => {
                    let pad_id = g.push(
                        format!("{}_pad", node.name),
                        Op::Pad { pad },
                        vec![new_inputs[0]],
                    );
                    let conv_id = g.push_shared(
                        node.name,
                        Op::Conv2d {
                            out_channels,
                            kernel,
                            stride,
                            pad: 0,
                            depthwise,
                        },
                        vec![pad_id],
                        node.weights,
                        node.bias,
                        node.bn,
                    );
                    g.nodes[conv_id].fused = node.fused;
                    conv_id
                }
                // Padded max pooling also splits into pad + pool. Zero
                // padding is equivalent to -inf padding here because pooled
                // inputs are post-ReLU (non-negative) in the networks under
                // study (ResNet's stem pool).
                Op::MaxPool {
                    window,
                    stride,
                    pad,
                } if pad > 0 => {
                    let pad_id = g.push(
                        format!("{}_pad", node.name),
                        Op::Pad { pad },
                        vec![new_inputs[0]],
                    );
                    g.push(
                        node.name,
                        Op::MaxPool {
                            window,
                            stride,
                            pad: 0,
                        },
                        vec![pad_id],
                    )
                }
                op => {
                    let id =
                        g.push_shared(node.name, op, new_inputs, node.weights, node.bias, node.bn);
                    g.nodes[id].fused = node.fused;
                    id
                }
            };
            map[old_id] = new_id;
        }
        // Residual sources are remapped only now: a fused add may read a
        // node placed after its own.
        for n in &mut g.nodes {
            if let Some(src) = n.fused.add_from.as_mut() {
                *src = map[*src];
            }
        }
        g.output = map[self.output];
        g
    }

    /// Total trainable parameters in the network.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(Node::param_count).sum()
    }

    /// Nodes that become kernels after fusion (everything except `Input`).
    pub fn kernel_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.op != Op::Input)
    }
}

/// Checks a node's parameters against its operator and input. Only a
/// convolution or dense layer takes weights and a bias: weights of
/// `[K, C, F, F]` (`[C, 1, F, F]` depthwise) or `[units, n]`, and one bias
/// value per output. Only a batch norm takes `bn`, and must: a scale and a
/// shift per input channel. A compile reads nothing but these shapes, so a
/// mismatch must fail here rather than at execution.
///
/// # Panics
/// Panics naming the node and the first parameter that does not fit.
fn check_params(
    node: &str,
    op: &Op,
    input: &Shape,
    w: Option<&Weights>,
    bias: Option<&[f32]>,
    bn: Option<&(Vec<f32>, Vec<f32>)>,
) {
    let kind = op.kind_name();
    let outputs = match *op {
        Op::Conv2d {
            out_channels: k,
            kernel: f,
            depthwise,
            ..
        } => {
            let (out, c) = if depthwise {
                (("C", k), ("channel multiplier", 1))
            } else {
                (("K", k), ("C", input.dim(0)))
            };
            check_dims(node, w, &[out, c, ("F", f), ("F", f)]);
            Some(out)
        }
        Op::Dense { units } => {
            let out = ("units", units);
            check_dims(node, w, &[out, ("n", input.dim(0))]);
            Some(out)
        }
        _ => None,
    };
    match (outputs, bias) {
        (Some((name, n)), Some(b)) => assert_eq!(
            b.len(),
            n,
            "{node}: bias length is {}, expected {n} ({name})",
            b.len()
        ),
        (Some(_), None) => {}
        (None, _) => assert!(
            w.is_none() && bias.is_none(),
            "{node}: a {kind} node takes no weights or bias"
        ),
    }
    match (op, bn) {
        (Op::BatchNorm, Some((scale, shift))) => {
            let c = input.dim(0);
            for (part, v) in [("scale", scale), ("shift", shift)] {
                assert_eq!(
                    v.len(),
                    c,
                    "{node}: bn {part} length is {}, expected {c} (C)",
                    v.len()
                );
            }
        }
        (Op::BatchNorm, None) => panic!("{node}: a batchnorm node needs bn parameters"),
        (_, Some(_)) => panic!("{node}: a {kind} node takes no bn parameters"),
        (_, None) => {}
    }
}

/// Panics unless `w` is absent or has exactly the dimensions `want`, each
/// given with its symbol.
fn check_dims(node: &str, w: Option<&Weights>, want: &[(&str, usize)]) {
    let Some(w) = w else { return };
    let shape = w.shape();
    assert_eq!(
        shape.rank(),
        want.len(),
        "{node}: weights {shape} have rank {}, expected {}",
        shape.rank(),
        want.len()
    );
    for (i, &(name, n)) in want.iter().enumerate() {
        assert_eq!(
            shape.dim(i),
            n,
            "{node}: weight dimension {i} ({name}) is {}, expected {n}",
            shape.dim(i)
        );
    }
}

/// The fused residual epilogue, in place: `out = activation(out + other)`,
/// the activation deferred past the add as the fusion pass requires.
///
/// # Panics
/// Panics if the shapes differ.
pub(crate) fn add_residual(out: &mut Tensor, other: &Tensor, activation: Activation) {
    assert_eq!(out.shape(), other.shape(), "residual add shape mismatch");
    for (o, &r) in out.data_mut().iter_mut().zip(other.data()) {
        *o = activation.apply(*o + r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_conv_graph() -> Graph {
        let mut g = Graph::new("tiny", Shape::chw(1, 6, 6));
        let w = Tensor::random(Shape::kcff(4, 1, 3), 1, 0.5);
        let c = g.push_with_params(
            "conv1",
            Op::Conv2d {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                pad: 0,
                depthwise: false,
            },
            vec![0],
            Some(w),
            None,
            None,
        );
        let r = g.push("relu1", Op::Relu, vec![c]);
        let f = g.push("flatten", Op::Flatten, vec![r]);
        let wd = Tensor::random(Shape::d2(3, 64), 2, 0.1);
        let d = g.push_with_params(
            "dense1",
            Op::Dense { units: 3 },
            vec![f],
            Some(wd),
            None,
            None,
        );
        g.push("softmax", Op::Softmax, vec![d]);
        g
    }

    #[test]
    fn shapes_infer_through_the_graph() {
        let g = tiny_conv_graph();
        assert_eq!(g.nodes[1].out_shape, Shape::chw(4, 4, 4));
        assert_eq!(g.nodes[3].out_shape, Shape::d1(64));
        assert_eq!(g.nodes[g.output].out_shape, Shape::d1(3));
    }

    #[test]
    fn execute_produces_probabilities() {
        let g = tiny_conv_graph();
        let x = Tensor::random(Shape::chw(1, 6, 6), 3, 1.0);
        let y = g.execute(&x);
        assert!((y.sum() - 1.0).abs() < 1e-5);
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fusion_removes_relu_and_preserves_semantics() {
        let g = tiny_conv_graph();
        let fused = g.clone().fuse();
        assert!(fused.nodes.iter().all(|n| n.op != Op::Relu));
        assert_eq!(fused.nodes.len(), g.nodes.len() - 1);
        assert_eq!(
            fused
                .nodes
                .iter()
                .find(|n| n.name == "conv1")
                .unwrap()
                .fused
                .activation,
            Activation::Relu
        );
        let x = Tensor::random(Shape::chw(1, 6, 6), 4, 1.0);
        assert!(crate::allclose(
            &g.execute(&x),
            &fused.execute(&x),
            1e-6,
            1e-6
        ));
    }

    #[test]
    fn residual_add_fuses_and_preserves_semantics() {
        // x -> conv_a --------\
        //   -> conv_b -> add --+--> relu
        let mut g = Graph::new("res", Shape::chw(2, 5, 5));
        let wa = Tensor::random(Shape::kcff(2, 2, 1), 5, 0.5);
        let wb = Tensor::random(Shape::kcff(2, 2, 1), 6, 0.5);
        let a = g.push_with_params(
            "conv_a",
            Op::Conv2d {
                out_channels: 2,
                kernel: 1,
                stride: 1,
                pad: 0,
                depthwise: false,
            },
            vec![0],
            Some(wa),
            None,
            None,
        );
        let b = g.push_with_params(
            "conv_b",
            Op::Conv2d {
                out_channels: 2,
                kernel: 1,
                stride: 1,
                pad: 0,
                depthwise: false,
            },
            vec![a],
            Some(wb),
            None,
            None,
        );
        let s = g.push("add", Op::Add, vec![b, a]);
        g.push("relu", Op::Relu, vec![s]);

        let fused = g.clone().fuse();
        assert!(fused
            .nodes
            .iter()
            .all(|n| n.op != Op::Add && n.op != Op::Relu));
        let convb = fused.nodes.iter().find(|n| n.name == "conv_b").unwrap();
        assert!(convb.fused.add_from.is_some());
        assert_eq!(convb.fused.activation, Activation::Relu);

        let x = Tensor::random(Shape::chw(2, 5, 5), 7, 1.0);
        assert!(crate::allclose(
            &g.execute(&x),
            &fused.execute(&x),
            1e-5,
            1e-6
        ));
    }

    #[test]
    fn batchnorm_fuses_before_activation() {
        let mut g = Graph::new("bn", Shape::chw(1, 4, 4));
        let w = Tensor::random(Shape::kcff(2, 1, 3), 8, 0.5);
        let c = g.push_with_params(
            "conv",
            Op::Conv2d {
                out_channels: 2,
                kernel: 3,
                stride: 1,
                pad: 0,
                depthwise: false,
            },
            vec![0],
            Some(w),
            None,
            None,
        );
        let bn = g.push_with_params(
            "bn",
            Op::BatchNorm,
            vec![c],
            None,
            None,
            Some((vec![1.5, 0.5], vec![0.1, -0.1])),
        );
        g.push("relu", Op::Relu, vec![bn]);
        let fused = g.clone().fuse();
        assert_eq!(fused.nodes.len(), 2); // input + conv
        let conv = &fused.nodes[1];
        assert!(conv.fused.bn.is_some());
        assert_eq!(conv.fused.activation, Activation::Relu);
        let x = Tensor::random(Shape::chw(1, 4, 4), 9, 1.0);
        assert!(crate::allclose(
            &g.execute(&x),
            &fused.execute(&x),
            1e-5,
            1e-6
        ));
    }

    /// A two-channel 1x1 convolution of node `x`.
    fn conv1x1(g: &mut Graph, name: &str, x: NodeId, seed: u64) -> NodeId {
        let op = Op::Conv2d {
            out_channels: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
            depthwise: false,
        };
        let w = Tensor::random(Shape::kcff(2, 2, 1), seed, 0.5);
        g.push_with_params(name, op, vec![x], Some(w), None, None)
    }

    /// Fuses `g` and checks that the fused graph computes what `g` does.
    fn fuse_checked(g: &Graph) -> Graph {
        let fused = g.clone().fuse();
        let x = Tensor::random(g.input_shape().clone(), 11, 1.0);
        assert!(crate::allclose(
            &g.execute(&x),
            &fused.execute(&x),
            1e-5,
            1e-6
        ));
        fused
    }

    /// A node's id, name, inputs, fused activation, whether it carries a
    /// fused batch norm, and its fused residual source.
    type NodeLayout<'a> = (
        NodeId,
        &'a str,
        Vec<NodeId>,
        Activation,
        bool,
        Option<NodeId>,
    );

    /// Every node's [`NodeLayout`], in order.
    fn layout(g: &Graph) -> Vec<NodeLayout<'_>> {
        g.nodes
            .iter()
            .map(|n| {
                let f = &n.fused;
                let (act, bn) = (f.activation, f.bn.is_some());
                (n.id, n.name.as_str(), n.inputs.clone(), act, bn, f.add_from)
            })
            .collect()
    }

    #[test]
    fn add_with_a_shared_first_operand_fuses_into_its_second() {
        // a = bn(conv(x)), b = conv(x), s = a + b, c = conv(a), y = s + c:
        // the batch norm folds into `conv_a`, which takes over its two
        // readers, so `s` folds into `b` and reads `a`; then `y`'s first
        // operand already carries an add, so `y` folds into `c`.
        let mut g = Graph::new("add_order", Shape::chw(2, 3, 3));
        let conv_a = conv1x1(&mut g, "conv_a", 0, 1);
        let bn = Some((vec![1.5, 0.5], vec![0.1, -0.1]));
        let a = g.push_with_params("bn", Op::BatchNorm, vec![conv_a], None, None, bn);
        let b = conv1x1(&mut g, "conv_b", 0, 2);
        let s = g.push("add_s", Op::Add, vec![a, b]);
        let c = conv1x1(&mut g, "conv_c", a, 3);
        g.push("add_y", Op::Add, vec![s, c]);
        let none = Activation::None;
        let fused = fuse_checked(&g);
        assert_eq!(
            layout(&fused),
            [
                (0, "input", vec![], none, false, None),
                (1, "conv_a", vec![0], none, true, None),
                (2, "conv_b", vec![0], none, false, Some(1)),
                (3, "conv_c", vec![1], none, false, Some(2)),
            ]
        );
        assert_eq!(fused.output, 3);
    }

    #[test]
    fn add_of_two_sole_convs_fuses_into_its_first_operand() {
        let mut g = Graph::new("add_first", Shape::chw(2, 3, 3));
        let a = conv1x1(&mut g, "conv_a", 0, 10);
        let b = conv1x1(&mut g, "conv_b", 0, 11);
        g.push("add", Op::Add, vec![a, b]);
        let none = Activation::None;
        let fused = fuse_checked(&g);
        assert_eq!(
            layout(&fused),
            [
                (0, "input", vec![], none, false, None),
                (1, "conv_a", vec![0], none, false, Some(2)),
                (2, "conv_b", vec![0], none, false, None),
            ]
        );
        assert_eq!(fused.output, 1);
    }

    #[test]
    fn batchnorm_after_a_fused_activation_stays_a_node() {
        let mut g = Graph::new("bn_after_act", Shape::chw(2, 3, 3));
        let c = conv1x1(&mut g, "conv", 0, 4);
        let r = g.push("relu", Op::Relu, vec![c]);
        let bn = Some((vec![1.5, 0.5], vec![0.1, -0.1]));
        g.push_with_params("bn", Op::BatchNorm, vec![r], None, None, bn);
        let fused = fuse_checked(&g);
        assert_eq!(
            layout(&fused),
            [
                (0, "input", vec![], Activation::None, false, None),
                (1, "conv", vec![0], Activation::Relu, false, None),
                (2, "bn", vec![1], Activation::None, false, None),
            ]
        );
        assert_eq!(fused.output, 2);
    }

    #[test]
    fn relu_on_a_conv_with_two_consumers_stays_a_node() {
        // c = conv(x), r = relu(c), d = conv(c), y = r + d: `r` cannot fold
        // into the shared `c`, and `y` folds into `d`, reading `r`.
        let mut g = Graph::new("shared_relu", Shape::chw(2, 3, 3));
        let c = conv1x1(&mut g, "conv", 0, 5);
        let r = g.push("relu", Op::Relu, vec![c]);
        let d = conv1x1(&mut g, "conv_d", c, 6);
        g.push("add", Op::Add, vec![r, d]);
        let none = Activation::None;
        let fused = fuse_checked(&g);
        assert_eq!(
            layout(&fused),
            [
                (0, "input", vec![], none, false, None),
                (1, "conv", vec![0], none, false, None),
                (2, "relu", vec![1], none, false, None),
                (3, "conv_d", vec![1], none, false, Some(2)),
            ]
        );
        assert_eq!(fused.output, 3);
    }

    #[test]
    fn nothing_folds_into_an_operand_a_fused_add_reads() {
        // c = conv(x), d = conv(x), s = d + c, r = relu(c), y = s + r: `s`
        // folds into `d` and still reads `c`, which therefore keeps two
        // readers and must not take `r`'s activation.
        let mut g = Graph::new("add_reader", Shape::chw(2, 3, 3));
        let c = conv1x1(&mut g, "conv", 0, 8);
        let d = conv1x1(&mut g, "conv_d", 0, 9);
        let s = g.push("add_s", Op::Add, vec![d, c]);
        let r = g.push("relu", Op::Relu, vec![c]);
        g.push("add_y", Op::Add, vec![s, r]);
        let none = Activation::None;
        let fused = fuse_checked(&g);
        assert_eq!(
            layout(&fused),
            [
                (0, "input", vec![], none, false, None),
                (1, "conv", vec![0], none, false, None),
                (2, "conv_d", vec![0], none, false, Some(1)),
                (3, "relu", vec![1], none, false, None),
                (4, "add_y", vec![2, 3], none, false, None),
            ]
        );
        assert_eq!(fused.output, 4);
    }

    #[test]
    fn relu_relu_chain_fuses_once() {
        let mut g = Graph::new("relu_chain", Shape::chw(2, 3, 3));
        let c = conv1x1(&mut g, "conv", 0, 7);
        let r1 = g.push("relu_1", Op::Relu, vec![c]);
        g.push("relu_2", Op::Relu, vec![r1]);
        let fused = fuse_checked(&g);
        assert_eq!(
            layout(&fused),
            [
                (0, "input", vec![], Activation::None, false, None),
                (1, "conv", vec![0], Activation::Relu, false, None),
                (2, "relu_2", vec![1], Activation::None, false, None),
            ]
        );
        assert_eq!(fused.output, 2);
    }

    #[test]
    fn materialize_padding_splits_conv() {
        let mut g = Graph::new("p", Shape::chw(1, 4, 4));
        let w = Tensor::random(Shape::kcff(2, 1, 3), 10, 0.5);
        g.push_with_params(
            "conv",
            Op::Conv2d {
                out_channels: 2,
                kernel: 3,
                stride: 1,
                pad: 1,
                depthwise: false,
            },
            vec![0],
            Some(w),
            None,
            None,
        );
        let m = g.clone().materialize_padding();
        assert_eq!(m.nodes.len(), 3);
        assert!(matches!(m.nodes[1].op, Op::Pad { pad: 1 }));
        assert!(matches!(m.nodes[2].op, Op::Conv2d { pad: 0, .. }));
        let x = Tensor::random(Shape::chw(1, 4, 4), 11, 1.0);
        assert!(crate::allclose(&g.execute(&x), &m.execute(&x), 1e-6, 1e-6));
    }

    /// Pushes `op` (through a flatten if it is dense) onto a 2x6x6 input
    /// with zero weights of shape `w` and `bias` zero bias values.
    fn push_params(op: Op, w: Shape, bias: Option<usize>) {
        push_any(op, Some(w), bias, None);
    }

    /// [`push_params`] with optional weights and batch-norm parameters of
    /// `bn` scale and shift lengths.
    fn push_any(op: Op, w: Option<Shape>, bias: Option<usize>, bn: Option<(usize, usize)>) {
        let mut g = Graph::new("params", Shape::chw(2, 6, 6));
        let from = match op {
            Op::Dense { .. } => g.push("flatten", Op::Flatten, vec![0]),
            _ => 0,
        };
        let (w, bias) = (w.map(Tensor::zeros), bias.map(|n| vec![0.0; n]));
        let bn = bn.map(|(s, b)| (vec![1.0; s], vec![0.0; b]));
        g.push_with_params("layer", op, vec![from], w, bias, bn);
    }

    fn conv3x3(out_channels: usize, depthwise: bool) -> Op {
        Op::Conv2d {
            out_channels,
            kernel: 3,
            stride: 1,
            pad: 0,
            depthwise,
        }
    }

    #[test]
    fn matching_parameters_push() {
        push_params(conv3x3(4, false), Shape::kcff(4, 2, 3), Some(4));
        push_params(conv3x3(2, true), Shape::new(&[2, 1, 3, 3]), None);
        push_params(Op::Dense { units: 10 }, Shape::d2(10, 72), Some(10));
        push_any(Op::BatchNorm, None, None, Some((2, 2)));
        push_any(Op::Relu, None, None, None);
    }

    #[test]
    #[should_panic(expected = "layer: a relu node takes no weights or bias")]
    fn only_conv_and_dense_take_weights() {
        push_any(Op::Relu, Some(Shape::d1(10)), None, None);
    }

    #[test]
    #[should_panic(expected = "layer: a relu node takes no weights or bias")]
    fn only_conv_and_dense_take_a_bias() {
        push_any(Op::Relu, None, Some(3), None);
    }

    #[test]
    #[should_panic(expected = "layer: a batchnorm node needs bn parameters")]
    fn batchnorm_needs_its_parameters() {
        push_any(Op::BatchNorm, None, None, None);
    }

    #[test]
    #[should_panic(expected = "layer: bn scale length is 3, expected 2 (C)")]
    fn bn_scale_must_have_a_value_per_channel() {
        push_any(Op::BatchNorm, None, None, Some((3, 2)));
    }

    #[test]
    #[should_panic(expected = "layer: bn shift length is 1, expected 2 (C)")]
    fn bn_shift_must_have_a_value_per_channel() {
        push_any(Op::BatchNorm, None, None, Some((2, 1)));
    }

    #[test]
    #[should_panic(expected = "layer: a conv2d node takes no bn parameters")]
    fn only_batchnorm_takes_bn() {
        push_any(
            conv3x3(4, false),
            Some(Shape::kcff(4, 2, 3)),
            None,
            Some((4, 4)),
        );
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 0 (K) is 3, expected 4")]
    fn conv_weights_must_have_k_filters() {
        push_params(conv3x3(4, false), Shape::kcff(3, 2, 3), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 1 (C) is 3, expected 2")]
    fn conv_weights_must_read_every_input_channel() {
        push_params(conv3x3(4, false), Shape::kcff(4, 3, 3), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 2 (F) is 2, expected 3")]
    fn conv_weights_must_have_f_rows() {
        push_params(conv3x3(4, false), Shape::new(&[4, 2, 2, 3]), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 3 (F) is 2, expected 3")]
    fn conv_filters_must_be_square() {
        push_params(conv3x3(4, false), Shape::new(&[4, 2, 3, 2]), None);
    }

    #[test]
    #[should_panic(expected = "layer: weights 4x18 have rank 2, expected 4")]
    fn conv_weights_must_have_rank_4() {
        push_params(conv3x3(4, false), Shape::d2(4, 18), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 0 (C) is 3, expected 2")]
    fn depthwise_weights_must_have_one_filter_per_channel() {
        push_params(conv3x3(2, true), Shape::new(&[3, 1, 3, 3]), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 1 (channel multiplier) is 2, expected 1")]
    fn depthwise_filters_must_read_one_channel() {
        push_params(conv3x3(2, true), Shape::new(&[2, 2, 3, 3]), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 0 (units) is 9, expected 10")]
    fn dense_weights_must_have_a_row_per_unit() {
        push_params(Op::Dense { units: 10 }, Shape::d2(9, 72), None);
    }

    #[test]
    #[should_panic(expected = "layer: weight dimension 1 (n) is 71, expected 72")]
    fn dense_weights_must_read_every_input() {
        push_params(Op::Dense { units: 10 }, Shape::d2(10, 71), None);
    }

    #[test]
    #[should_panic(expected = "layer: bias length is 3, expected 4 (K)")]
    fn conv_bias_must_have_a_value_per_filter() {
        push_params(conv3x3(4, false), Shape::kcff(4, 2, 3), Some(3));
    }

    #[test]
    #[should_panic(expected = "layer: bias length is 9, expected 10 (units)")]
    fn dense_bias_must_have_a_value_per_unit() {
        push_params(Op::Dense { units: 10 }, Shape::d2(10, 72), Some(9));
    }

    #[test]
    fn clones_and_passes_share_the_weights() {
        let g = projection_block();
        let compiled = g.clone().fuse().materialize_padding();
        for n in g.nodes.iter().filter(|n| n.weights.is_some()) {
            let c = compiled.nodes.iter().find(|c| c.name == n.name).unwrap();
            let (a, b) = (n.weights.as_ref().unwrap(), c.weights.as_ref().unwrap());
            assert!(Arc::ptr_eq(a, b), "{} copied its weights", n.name);
        }
    }

    /// A projection block: `x -> conv_a -> conv_b -> add -> relu`, with the
    /// 1x1 `proj` shortcut of `x` pushed after `conv_b`, as ResNet's blocks
    /// are. Fusion points `conv_b`'s residual add at the later `proj`.
    fn projection_block() -> Graph {
        let mut g = Graph::new("proj", Shape::chw(2, 6, 6));
        let conv = |out_channels, kernel, pad| Op::Conv2d {
            out_channels,
            kernel,
            stride: 1,
            pad,
            depthwise: false,
        };
        let wa = Tensor::random(Shape::kcff(3, 2, 3), 12, 0.5);
        let wb = Tensor::random(Shape::kcff(3, 3, 3), 13, 0.5);
        let wp = Tensor::random(Shape::kcff(3, 2, 1), 14, 0.5);
        let a = g.push_with_params("conv_a", conv(3, 3, 1), vec![0], Some(wa), None, None);
        let b = g.push_with_params("conv_b", conv(3, 3, 1), vec![a], Some(wb), None, None);
        let p = g.push_with_params("proj", conv(3, 1, 0), vec![0], Some(wp), None, None);
        let s = g.push("add", Op::Add, vec![b, p]);
        g.push("relu", Op::Relu, vec![s]);
        g
    }

    #[test]
    fn a_residual_read_of_a_later_node_is_ordered_and_remapped() {
        let g = projection_block();
        let fused = g.clone().fuse();
        let id = |g: &Graph, name: &str| g.nodes.iter().position(|n| n.name == name).unwrap();
        let (b, p) = (id(&fused, "conv_b"), id(&fused, "proj"));
        assert_eq!(fused.nodes[b].fused.add_from, Some(p));
        assert!(p > b);
        let order = fused.eval_order();
        let pos = |n: NodeId| order.iter().position(|&o| o == n).unwrap();
        assert!(pos(p) < pos(b));

        let compiled = fused.clone().materialize_padding();
        let (b, p) = (id(&compiled, "conv_b"), id(&compiled, "proj"));
        assert_eq!(compiled.nodes[b].fused.add_from, Some(p));

        let x = Tensor::random(Shape::chw(2, 6, 6), 15, 1.0);
        let expect = g.execute(&x);
        for got in [fused.execute(&x), compiled.execute(&x)] {
            assert!(crate::allclose(&got, &expect, 1e-5, 1e-6));
        }
    }

    #[test]
    fn execute_equals_the_dump_and_keeps_only_the_output_alive() {
        let graphs = [
            (
                crate::models::lenet5().fuse(),
                crate::data::synthetic_digit(4, 1),
            ),
            (
                crate::models::mobilenet_v1().fuse().materialize_padding(),
                crate::data::imagenet_input(2),
            ),
            (
                projection_block().fuse().materialize_padding(),
                Tensor::random(Shape::chw(2, 6, 6), 16, 1.0),
            ),
        ];
        for (g, x) in &graphs {
            assert_eq!(g.execute(x).data(), g.execute_all(x)[&g.output].data());
            let live: Vec<NodeId> = (g.run(x, true).iter().enumerate())
                .filter_map(|(id, v)| v.as_ref().map(|_| id))
                .collect();
            assert_eq!(live, [g.output], "{}", g.name);
        }
    }
}
