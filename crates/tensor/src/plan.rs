//! The per-call plan the graph executors walk.
//!
//! Before [`Graph::execute`] evaluates anything it plans the call: the
//! evaluation order, the node after which each value dies, the pads it
//! folds into their convolutions, the operands element-wise nodes write
//! into, and the buffer sizes the call will ask for, in order. All of it
//! lives in one scratch allocation. The quantized executor walks the same
//! order and last reads ([`Plan::new`]).
//!
//! The buffers of one call come from a [`Pool`]: a dead value's buffer, or
//! a convolution's im2col matrix once its GEMM has read it, is kept only
//! while a request still to come can take it, so nothing outlives the call.

use crate::graph::{Graph, Node, NodeId, Op};
use crate::ops::{self, Buffers, ConvArgs};

/// A value nothing reads after the call: the graph's output.
const NEVER: usize = usize::MAX;

/// One call's plan, in one allocation: per node, its place in the
/// evaluation order, its last reader and the node whose value it stands for
/// (itself, or a folded pad's input); then the buffer requests, one per
/// evaluated node plus one per im2col matrix.
pub(crate) struct Plan {
    s: Vec<usize>,
    n: usize,
    /// Whether element-wise nodes write into their operands and the pool
    /// recycles buffers.
    reuse: bool,
    requests: usize,
}

/// Offsets of the per-node regions after the order, and of the requests,
/// in units of `n`.
const LAST: usize = 1;
const SOURCE: usize = 2;
const REQUESTS: usize = 3;

impl Plan {
    /// The evaluation order and each value's last reader, with every node
    /// evaluated into a buffer of its own.
    pub(crate) fn new(g: &Graph) -> Plan {
        Plan::with_room(g, 0)
    }

    /// [`Plan::new`] with room for `requests` buffer requests.
    fn with_room(g: &Graph, requests: usize) -> Plan {
        let n = g.nodes.len();
        let mut s = vec![0; REQUESTS * n + requests];
        let (order, rest) = s.split_at_mut(n);
        let (placed, stack) = rest.split_at_mut(n);
        g.eval_order(order, placed, &mut stack[..n]);
        let mut plan = Plan {
            s,
            n,
            reuse: false,
            requests: 0,
        };
        for id in 0..n {
            plan.s[SOURCE * n + id] = id;
        }
        plan.mark_last_reads(g);
        plan
    }

    /// [`Plan::new`], then folds every pad that only unpadded convolutions
    /// read into their padding, hands each element-wise node or flatten an
    /// operand it reads last to write into, and lists the buffers the
    /// remaining nodes ask for.
    ///
    /// Folding is bit-identical: im2col writes the zeros the pad would
    /// have, and a direct or depthwise sum starts from +0.0 and so is
    /// unchanged by the zero taps it now skips.
    pub(crate) fn reusing(g: &Graph) -> Plan {
        let convs = g.nodes.iter().filter(|n| may_unfold(n)).count();
        let mut plan = Plan::with_room(g, g.nodes.len() + convs);
        plan.reuse = true;
        if plan.fold_pads(g) {
            plan.mark_last_reads(g);
        }
        plan.plan_buffers(g);
        plan
    }

    fn at(&self, region: usize, id: NodeId) -> usize {
        self.s[region * self.n + id]
    }

    /// The nodes in evaluation order, the input first.
    pub(crate) fn order(&self) -> &[NodeId] {
        &self.s[..self.n]
    }

    /// The node whose value a reader of `id` reads: `id`, or the input of
    /// the folded pad `id`.
    pub(crate) fn source(&self, id: NodeId) -> NodeId {
        self.at(SOURCE, id)
    }

    /// Whether `id` is a pad folded into its readers, and so never
    /// evaluated.
    pub(crate) fn folded(&self, id: NodeId) -> bool {
        self.source(id) != id
    }

    /// A convolution node's arguments, with the padding of a pad folded
    /// into it added to its own.
    pub(crate) fn conv_args<'g>(&self, g: &Graph, node: &'g Node) -> ConvArgs<'g> {
        let mut p = node.conv_args();
        let from = node.inputs[0];
        if let (Op::Pad { pad }, true) = (&g.nodes[from].op, self.folded(from)) {
            p.pad += pad;
        }
        p
    }

    /// The operand an element-wise node or a flatten writes its result
    /// into: one it reads exactly once and last. The graph input belongs
    /// to the caller.
    pub(crate) fn consumed(&self, node: &Node) -> Option<NodeId> {
        let in_place = matches!(
            node.op,
            Op::Relu | Op::Relu6 | Op::BatchNorm | Op::Softmax | Op::Flatten | Op::Add
        );
        if !self.reuse || !in_place {
            return None;
        }
        let once = |d| self.operands(node).filter(|&x| x == d).count() == 1;
        (node.inputs.iter().copied()).find(|&d| d != 0 && self.at(LAST, d) == node.id && once(d))
    }

    /// The sizes of the buffers the call asks for, in order.
    pub(crate) fn requests(&self) -> &[usize] {
        &self.s[REQUESTS * self.n..][..self.requests]
    }

    /// The values `node` reads, folded pads read through to their input,
    /// with a value read twice listed twice.
    fn operands<'g>(&'g self, node: &'g Node) -> impl Iterator<Item = NodeId> + 'g {
        (node.inputs.iter().chain(&node.fused.add_from)).map(|&d| self.source(d))
    }

    /// The values that die once `node` has run: the operands it read last,
    /// and its own value if nothing reads it. A value read twice is listed
    /// twice.
    pub(crate) fn dead_after<'g>(&'g self, node: &'g Node) -> impl Iterator<Item = NodeId> + 'g {
        let id = node.id;
        (self.operands(node).chain([id])).filter(move |&d| self.at(LAST, d) == id)
    }

    /// Sets each value's last reader: the last node in evaluation order
    /// that reads it, itself if none does, never for the output.
    fn mark_last_reads(&mut self, g: &Graph) {
        let n = self.n;
        for id in 0..n {
            self.s[LAST * n + id] = id;
        }
        for i in 1..n {
            let id = self.s[i];
            if self.folded(id) {
                continue;
            }
            let node = &g.nodes[id];
            for &d in node.inputs.iter().chain(&node.fused.add_from) {
                let src = self.source(d);
                self.s[LAST * n + src] = id;
            }
        }
        self.s[LAST * n + g.output] = NEVER;
    }

    /// Folds every pad that is not the output and whose readers are all
    /// unpadded convolutions reading it as input; returns whether any was.
    fn fold_pads(&mut self, g: &Graph) -> bool {
        let n = self.n;
        for node in &g.nodes {
            if matches!(node.op, Op::Pad { .. }) && node.id != g.output {
                self.s[SOURCE * n + node.id] = node.inputs[0];
            }
        }
        for node in &g.nodes {
            let conv = matches!(node.op, Op::Conv2d { pad: 0, .. });
            let residual = node.fused.add_from.iter();
            for &d in node.inputs.iter().filter(|_| !conv).chain(residual) {
                self.s[SOURCE * n + d] = d;
            }
        }
        (0..n).any(|id| self.folded(id))
    }

    /// Lists the buffers every evaluated node that writes into no operand
    /// asks for: its im2col matrix, if any, then its output.
    fn plan_buffers(&mut self, g: &Graph) {
        for i in 1..self.n {
            let node = &g.nodes[self.s[i]];
            if self.folded(node.id) || self.consumed(node).is_some() {
                continue;
            }
            if may_unfold(node) {
                let input = &g.nodes[self.source(node.inputs[0])].out_shape;
                let w = node.weights.as_deref().expect("conv weights");
                let scratch = ops::conv2d_auto_scratch(input, w.shape(), &self.conv_args(g, node));
                if scratch > 0 {
                    self.request(scratch);
                }
            }
            self.request(node.out_shape.numel());
        }
    }

    fn request(&mut self, len: usize) {
        self.s[REQUESTS * self.n + self.requests] = len;
        self.requests += 1;
    }
}

/// Whether `node` is a standard convolution, which may take an im2col
/// matrix before its output; a depthwise one never does.
fn may_unfold(node: &Node) -> bool {
    matches!(
        node.op,
        Op::Conv2d {
            depthwise: false,
            ..
        }
    )
}

/// The buffers of one [`Graph::execute`] call. A request for `n` elements
/// takes the smallest dead buffer that holds between `n` and `2n`, emptied
/// and then zeroed or filled, or else a fresh one. A buffer handed back is
/// kept only while a request still to come could take it.
pub(crate) struct Pool<'p> {
    /// The sizes of the requests still to come, in order.
    pub(crate) ahead: &'p [usize],
    /// Dead buffers kept for them.
    pub(crate) dead: Vec<Vec<f32>>,
}

impl<'p> Pool<'p> {
    /// An empty pool for the requests of `plan`.
    pub(crate) fn new(plan: &'p Plan) -> Pool<'p> {
        Pool {
            ahead: plan.requests(),
            dead: Vec::new(),
        }
    }
}

/// Whether a buffer of `capacity` elements serves a request for `n`.
fn fits(capacity: usize, n: usize) -> bool {
    n <= capacity && capacity <= 2 * n
}

/// Whether one of the requests `ahead` could take a buffer of `capacity`.
fn wanted(ahead: &[usize], capacity: usize) -> bool {
    ahead.iter().any(|&n| fits(capacity, n))
}

impl Buffers for Pool<'_> {
    fn reuse(&mut self, n: usize) -> Option<Vec<f32>> {
        debug_assert_eq!(self.ahead.first(), Some(&n), "requests follow the plan");
        self.ahead = self.ahead.get(1..).unwrap_or_default();
        let best = (0..self.dead.len())
            .filter(|&i| fits(self.dead[i].capacity(), n))
            .min_by_key(|&i| self.dead[i].capacity());
        let buf = best.map(|i| self.dead.swap_remove(i));
        let ahead = self.ahead;
        self.dead.retain(|b| wanted(ahead, b.capacity()));
        buf.map(|mut b| {
            b.clear();
            b
        })
    }

    fn recycle(&mut self, buf: Vec<f32>) {
        if wanted(self.ahead, buf.capacity()) {
            self.dead.push(buf);
        }
    }
}
