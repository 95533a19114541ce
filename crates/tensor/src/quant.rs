//! Calibration-based quantization and the quantized reference executor.
//!
//! FFCNN and DNNVM (see PAPERS.md) are both fixed-point accelerators: on the
//! thesis' boards the DSP/RAM headroom comes from narrow MACs. This module
//! makes fixed-point a first-class datapath on the host side:
//!
//! * [`calibrate`] — runs a seeded calibration batch through the f32
//!   [`Graph`] executor, collects per-tensor ranges (min/max plus a
//!   percentile clip over a deterministic fixed-bin histogram of `|x|`) and
//!   derives symmetric scale/zero-point parameters for every activation and
//!   weight tensor. All failure modes are structured [`QuantError`]s — a
//!   constant-zero tensor or a NaN activation is an error, never a silent
//!   scale of 0.
//! * [`QuantizedGraph`] — a quantized twin of [`Graph::execute_all`]:
//!   convolutions and dense layers quantize inputs and weights onto their
//!   calibrated grids, multiply-accumulate in integers (exact in `i64`;
//!   the compiled int8 kernels accumulate in `i32`, which the operand bounds
//!   guarantee cannot overflow for the networks under study), dequantize,
//!   apply the f32 epilogue (bias / folded BN / residual / activation) and
//!   requantize at the layer boundary. `fp16` models half-precision storage
//!   with f32 accumulation. Softmax always runs in f32.
//! * [`differential`] / [`diff_outputs`] — the differential harness: compare
//!   a quantized run element-wise against the f32 reference and report the
//!   worst element per layer with the documented per-precision tolerance.
//!
//! Tolerance policy (also in `docs/QUANTIZATION.md`): for a tensor with
//! calibrated range `r`, an element with reference value `v` must agree
//! within `atol(r) + rtol * |v|` where `(rtol, atol)` come from
//! [`QuantPrecision::tolerance`]. The absolute term scales with the
//! quantization step (`amax_clip / qmax`) plus the clip margin
//! (`amax - amax_clip`), so percentile clipping widens the bound by exactly
//! the magnitude it may saturate away *at the layer that clips*.
//!
//! Per-layer bounds are only meaningful when the probe input's activations
//! are covered by the calibration: an activation beyond the calibrated range
//! saturates (by design), and that saturation propagates to downstream
//! layers in a way no per-layer formula can bound. The differential harness
//! therefore includes its probe inputs in the calibration batch; the effect
//! of percentile clipping on *accuracy* is a deployment concern (top-1
//! agreement), not a per-layer verification concern.

use crate::graph::{add_residual, Graph, Node, NodeId, Op};
use crate::ops::{self, Activation, ConvArgs};
use crate::shape::{conv_out_shape, Shape};
use crate::tensor::Tensor;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Numeric precision of a quantized datapath, ordered from widest to
/// narrowest. `f32` is not listed: it is the reference everything else is
/// measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuantPrecision {
    /// IEEE 754 binary16 storage, f32 accumulation.
    Fp16,
    /// 16-bit symmetric fixed point (`qmax = 32767`).
    Int16,
    /// 8-bit symmetric fixed point (`qmax = 127`), the FFCNN/DNNVM operating
    /// point.
    Int8,
}

impl QuantPrecision {
    /// Every precision rung, widest first — the order the serving brownout
    /// ladder degrades through.
    pub const ALL: [QuantPrecision; 3] = [
        QuantPrecision::Fp16,
        QuantPrecision::Int16,
        QuantPrecision::Int8,
    ];

    /// Stable lower-case name used in reports and TuningDb keys.
    pub fn name(self) -> &'static str {
        match self {
            QuantPrecision::Fp16 => "fp16",
            QuantPrecision::Int16 => "int16",
            QuantPrecision::Int8 => "int8",
        }
    }

    /// Largest representable magnitude on the integer grid, or `None` for
    /// the half-precision (non-gridded) rung.
    pub fn qmax(self) -> Option<i32> {
        match self {
            QuantPrecision::Fp16 => None,
            QuantPrecision::Int16 => Some(32767),
            QuantPrecision::Int8 => Some(127),
        }
    }

    /// Parses the stable [`Self::name`] form back.
    pub fn parse(s: &str) -> Option<QuantPrecision> {
        QuantPrecision::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The documented `(rtol, atol)` tolerance for comparing a tensor with
    /// calibrated range `r` against the f32 reference: an element with
    /// reference value `v` passes if `|got - v| <= atol + rtol * |v|`.
    pub fn tolerance(self, r: &TensorRange) -> (f32, f32) {
        match self {
            // Half keeps ~11 mantissa bits; error accumulates across layers.
            QuantPrecision::Fp16 => (1e-2, 2e-3 * r.amax()),
            QuantPrecision::Int16 => (5e-3, 16.0 * r.scale(32767) + r.clip_margin()),
            QuantPrecision::Int8 => (5e-2, 16.0 * r.scale(127) + r.clip_margin()),
        }
    }
}

impl fmt::Display for QuantPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Calibrated range statistics for one tensor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TensorRange {
    /// Smallest observed value.
    pub min: f32,
    /// Largest observed value.
    pub max: f32,
    /// Percentile-clipped absolute maximum; the symmetric grid spans
    /// `[-amax_clip, amax_clip]`.
    pub amax_clip: f32,
}

impl TensorRange {
    /// Unclipped absolute maximum.
    pub fn amax(&self) -> f32 {
        self.min.abs().max(self.max.abs())
    }

    /// Magnitude the percentile clip may saturate away (`amax - amax_clip`).
    pub fn clip_margin(&self) -> f32 {
        (self.amax() - self.amax_clip).max(0.0)
    }

    /// Symmetric quantization step for a grid with `qmax` positive levels.
    pub fn scale(&self, qmax: i32) -> f32 {
        self.amax_clip / qmax as f32
    }

    /// Full symmetric scale/zero-point pair for a grid with `qmax` levels.
    pub fn params(&self, qmax: i32) -> QuantParams {
        QuantParams {
            scale: self.scale(qmax),
            zero_point: 0,
        }
    }
}

/// Symmetric affine quantization parameters: `real = scale * (q - zero_point)`.
/// The calibration here is always symmetric, so `zero_point` is 0; the field
/// exists so downstream consumers handle the general affine form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Grid step.
    pub scale: f32,
    /// Grid origin (always 0 for symmetric calibration).
    pub zero_point: i32,
}

/// Structured calibration/quantization failures. Mirrors the shape of
/// `VerifyError` in `fpgaccel-core`: every variant names the node and the
/// tensor role so a failure message is actionable without a debugger.
#[derive(Clone, Debug, PartialEq)]
pub enum QuantError {
    /// The calibration batch was empty — no ranges can be derived.
    EmptyCalibrationSet,
    /// A calibration input (or executor input) does not match the graph
    /// input shape.
    InputShape {
        /// Shape the graph expects.
        expected: Shape,
        /// Shape that was provided.
        got: Shape,
    },
    /// A tensor contained NaN or infinity during calibration.
    NonFinite {
        /// Node name.
        node: String,
        /// Tensor role (`"activation"` or `"weights"`).
        role: &'static str,
    },
    /// A tensor was identically zero — a symmetric grid over it would have
    /// scale 0 and silently zero the datapath.
    ZeroRange {
        /// Node name.
        node: String,
        /// Tensor role (`"activation"` or `"weights"`).
        role: &'static str,
    },
    /// The executor needed a range the calibration does not carry (the graph
    /// changed between calibration and execution).
    MissingRange {
        /// Node name.
        node: String,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::EmptyCalibrationSet => {
                write!(
                    f,
                    "calibration batch is empty; at least one sample is required"
                )
            }
            QuantError::InputShape { expected, got } => {
                write!(
                    f,
                    "calibration input shape {got:?} does not match graph input {expected:?}"
                )
            }
            QuantError::NonFinite { node, role } => {
                write!(f, "non-finite value in {role} tensor of node `{node}`")
            }
            QuantError::ZeroRange { node, role } => {
                write!(
                    f,
                    "{role} tensor of node `{node}` is identically zero; refusing a scale of 0"
                )
            }
            QuantError::MissingRange { node } => {
                write!(f, "no calibrated range for node `{node}`")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Default activation-clip percentile: keep 99.9% of observed magnitude mass.
pub const DEFAULT_CALIBRATION_PERCENTILE: f32 = 0.999;

/// Histogram bins used for the percentile clip. Fixed so calibration is
/// bit-deterministic across runs and platforms.
const HIST_BINS: usize = 2048;

/// Per-tensor calibrated ranges for one graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    /// Clip percentile the activations were calibrated with.
    pub percentile: f32,
    /// Output range of every node (including the input node 0).
    pub activations: BTreeMap<NodeId, TensorRange>,
    /// Weight range of every node that carries weights (abs-max, unclipped).
    pub weights: BTreeMap<NodeId, TensorRange>,
}

impl Calibration {
    /// Calibrated output range of `node`.
    pub fn activation(&self, node: &Node) -> Result<&TensorRange, QuantError> {
        self.activations
            .get(&node.id)
            .ok_or_else(|| QuantError::MissingRange {
                node: node.name.clone(),
            })
    }

    /// Calibrated weight range of `node`.
    pub fn weight(&self, node: &Node) -> Result<&TensorRange, QuantError> {
        self.weights
            .get(&node.id)
            .ok_or_else(|| QuantError::MissingRange {
                node: node.name.clone(),
            })
    }
}

/// Runs `batch` through the f32 executor of `graph` and derives symmetric
/// quantization ranges for every activation and weight tensor.
///
/// Activations get a percentile clip (`percentile` of the `|x|` mass is kept;
/// `>= 1.0` disables clipping); weights are always calibrated to their exact
/// absolute maximum. Deterministic: the histogram has a fixed bin count and
/// the batch order is the caller's.
pub fn calibrate(
    graph: &Graph,
    batch: &[Tensor],
    percentile: f32,
) -> Result<Calibration, QuantError> {
    if batch.is_empty() {
        return Err(QuantError::EmptyCalibrationSet);
    }
    for sample in batch {
        if sample.shape() != graph.input_shape() {
            return Err(QuantError::InputShape {
                expected: graph.input_shape().clone(),
                got: sample.shape().clone(),
            });
        }
    }
    // One f32 run per sample; keep every activation for the histogram pass.
    let runs: Vec<HashMap<NodeId, Tensor>> = batch.iter().map(|s| graph.execute_all(s)).collect();

    let mut activations = BTreeMap::new();
    for node in &graph.nodes {
        let tensors: Vec<&Tensor> = runs.iter().map(|r| &r[&node.id]).collect();
        let range = range_of(&tensors, percentile, &node.name, "activation")?;
        activations.insert(node.id, range);
    }

    let mut weights = BTreeMap::new();
    for node in &graph.nodes {
        if let Some(w) = node.weights.as_deref() {
            // Weights are known exactly; clipping them only wastes grid.
            let range = range_of(&[w], 1.0, &node.name, "weights")?;
            weights.insert(node.id, range);
        }
    }

    Ok(Calibration {
        percentile,
        activations,
        weights,
    })
}

/// Min/max plus percentile-clipped abs-max over the concatenation of
/// `tensors`, validating finiteness and non-zero range.
fn range_of(
    tensors: &[&Tensor],
    percentile: f32,
    node: &str,
    role: &'static str,
) -> Result<TensorRange, QuantError> {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for t in tensors {
        for &v in t.data() {
            if !v.is_finite() {
                return Err(QuantError::NonFinite {
                    node: node.into(),
                    role,
                });
            }
            min = min.min(v);
            max = max.max(v);
        }
    }
    let amax = min.abs().max(max.abs());
    if amax == 0.0 {
        return Err(QuantError::ZeroRange {
            node: node.into(),
            role,
        });
    }
    let amax_clip = if percentile >= 1.0 {
        amax
    } else {
        // Fixed-bin histogram of |x| over [0, amax]; the clip is the upper
        // edge of the first bin where the cumulative mass reaches the
        // percentile.
        let mut hist = [0u64; HIST_BINS];
        let mut total = 0u64;
        for t in tensors {
            for &v in t.data() {
                let b = ((v.abs() / amax) * HIST_BINS as f32) as usize;
                hist[b.min(HIST_BINS - 1)] += 1;
                total += 1;
            }
        }
        let want = (percentile as f64 * total as f64).ceil() as u64;
        let mut cum = 0u64;
        let mut edge = amax;
        for (i, &c) in hist.iter().enumerate() {
            cum += c;
            if cum >= want {
                edge = amax * (i + 1) as f32 / HIST_BINS as f32;
                break;
            }
        }
        edge
    };
    Ok(TensorRange {
        min,
        max,
        amax_clip,
    })
}

/// Rounds `x` onto the symmetric grid with step `scale` and `qmax` levels and
/// returns the dequantized value ("fake quantization").
#[inline]
pub fn fake_quant(x: f32, scale: f32, qmax: i32) -> f32 {
    quant_i(x, scale, qmax) as f32 * scale
}

/// Quantizes `x` to an integer grid point in `[-qmax, qmax]`.
#[inline]
fn quant_i(x: f32, scale: f32, qmax: i32) -> i32 {
    let q = (x / scale).round();
    (q.max(-(qmax as f32)).min(qmax as f32)) as i32
}

/// Converts an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Infinity or NaN (keep NaNs quiet).
        let nan = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow -> infinity
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow -> signed zero
        }
        // Subnormal half: make the implicit bit explicit and shift into the
        // 10-bit mantissa with round-to-nearest-even.
        let man = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let kept = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && kept & 1 == 1) {
            kept + 1
        } else {
            kept
        };
        return sign | rounded as u16;
    }
    let merged = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let rounded = if rem > 0x1000 || (rem == 0x1000 && merged & 1 == 1) {
        merged + 1 // a mantissa carry correctly bumps the exponent
    } else {
        merged
    };
    sign | rounded as u16
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else if exp == 0 {
        if man == 0 {
            sign
        } else {
            // Subnormal half: normalize into an f32 exponent.
            let mut man = man;
            let mut e = 113u32;
            while man & 0x0400 == 0 {
                man <<= 1;
                e -= 1;
            }
            sign | (e << 23) | ((man & 0x03ff) << 13)
        }
    } else {
        sign | ((exp + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Rounds `x` through half precision (binary16) and back.
#[inline]
pub fn f16_round(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Quantized twin of the f32 graph executor: same graph, same topology,
/// arithmetic on the calibrated grids of one [`QuantPrecision`] — or, in
/// mixed mode, a per-layer precision assignment where unlisted layers stay
/// in f32.
#[derive(Clone, Debug)]
pub struct QuantizedGraph<'a> {
    graph: &'a Graph,
    calib: &'a Calibration,
    precision: QuantPrecision,
    /// Per-node precision when running mixed: `None` in the map means the
    /// node stays in f32. Absent entirely for uniform execution.
    overrides: Option<BTreeMap<NodeId, Option<QuantPrecision>>>,
}

impl<'a> QuantizedGraph<'a> {
    /// Binds a graph to a calibration and a uniform precision.
    pub fn new(graph: &'a Graph, calib: &'a Calibration, precision: QuantPrecision) -> Self {
        QuantizedGraph {
            graph,
            calib,
            precision,
            overrides: None,
        }
    }

    /// Binds a graph to a calibration and a per-layer precision assignment
    /// (by node name). Layers absent from `by_name` run in plain f32 — the
    /// mixed executor quantizes exactly the layers the assignment demotes.
    pub fn mixed(
        graph: &'a Graph,
        calib: &'a Calibration,
        by_name: &BTreeMap<String, QuantPrecision>,
    ) -> Self {
        let overrides = graph
            .nodes
            .iter()
            .map(|n| (n.id, by_name.get(&n.name).copied()))
            .collect();
        QuantizedGraph {
            graph,
            calib,
            precision: QuantPrecision::Fp16,
            overrides: Some(overrides),
        }
    }

    /// The precision a node runs at: `None` is plain f32 (mixed mode only).
    fn node_precision(&self, id: NodeId) -> Option<QuantPrecision> {
        match &self.overrides {
            Some(m) => m.get(&id).copied().flatten(),
            None => Some(self.precision),
        }
    }

    /// Executes the graph on `input`, returning the output tensor.
    pub fn execute(&self, input: &Tensor) -> Result<Tensor, QuantError> {
        Ok(self
            .execute_all(input)?
            .remove(&self.graph.output)
            .expect("output node evaluated"))
    }

    /// Executes the graph and returns every node's (requantized) activation,
    /// keyed by node id — the quantized counterpart of
    /// [`Graph::execute_all`].
    pub fn execute_all(&self, input: &Tensor) -> Result<HashMap<NodeId, Tensor>, QuantError> {
        if input.shape() != self.graph.input_shape() {
            return Err(QuantError::InputShape {
                expected: self.graph.input_shape().clone(),
                got: input.shape().clone(),
            });
        }
        let mut vals: HashMap<NodeId, Tensor> = HashMap::new();
        vals.insert(0, self.requant(&self.graph.nodes[0], input.clone())?);
        for id in self.graph.eval_order().into_iter().skip(1) {
            let node = &self.graph.nodes[id];
            let out = self.eval_node(node, &vals)?;
            vals.insert(id, out);
        }
        Ok(vals)
    }

    /// Requantizes a node's output onto its calibrated activation grid
    /// (fixed point), through half precision (fp16), or not at all (a
    /// mixed-mode layer left in f32).
    fn requant(&self, node: &Node, mut t: Tensor) -> Result<Tensor, QuantError> {
        match self.node_precision(node.id).map(|p| p.qmax()) {
            None => {}
            Some(None) => {
                for v in t.data_mut() {
                    *v = f16_round(*v);
                }
            }
            Some(Some(qmax)) => {
                let scale = self.calib.activation(node)?.scale(qmax);
                for v in t.data_mut() {
                    *v = fake_quant(*v, scale, qmax);
                }
            }
        }
        Ok(t)
    }

    fn eval_node(&self, node: &Node, vals: &HashMap<NodeId, Tensor>) -> Result<Tensor, QuantError> {
        let arg = |i: usize| &vals[&node.inputs[i]];
        // Residual adds defer the fused activation past the add, exactly as
        // the f32 executor does.
        let act = node.fused.before_add();
        let mut out = match &node.op {
            Op::Input => unreachable!("input nodes are seeded, not evaluated"),
            Op::Conv2d { depthwise, .. } => {
                let p = node.conv_args();
                let w = node.weights.as_deref().expect("conv weights");
                match self.node_precision(node.id).map(|p| p.qmax()) {
                    Some(Some(qmax)) => self.qconv(node, arg(0), w, p, *depthwise, qmax)?,
                    weights_rounding => {
                        // Fp16 rounds the weights; an f32 mixed-mode layer
                        // convolves them untouched.
                        let rounded;
                        let w = match weights_rounding {
                            Some(None) => {
                                rounded = half_tensor(w);
                                &rounded
                            }
                            _ => w,
                        };
                        if *depthwise {
                            ops::depthwise_conv2d(arg(0), w, p)
                        } else {
                            ops::conv2d_auto(arg(0), w, p)
                        }
                    }
                }
            }
            Op::Dense { .. } => {
                let w = node.weights.as_deref().expect("dense weights");
                match self.node_precision(node.id).map(|p| p.qmax()) {
                    Some(Some(qmax)) => self.qdense(node, arg(0), w, act, qmax)?,
                    Some(None) => ops::dense(arg(0), &half_tensor(w), node.bias.as_deref(), act),
                    None => ops::dense(arg(0), w, node.bias.as_deref(), act),
                }
            }
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
            // Softmax stays in f32 on every rung: requantizing probabilities
            // would break their normalization for no resource gain.
            Op::Softmax => return Ok(ops::softmax(arg(0))),
        };
        if let Some(other) = node.fused.add_from {
            add_residual(&mut out, &vals[&other], node.fused.activation);
        }
        self.requant(node, out)
    }

    /// Integer-MAC convolution: inputs and weights quantized onto their
    /// grids, `i64` accumulation (exact), dequantize, f32 epilogue.
    fn qconv(
        &self,
        node: &Node,
        input: &Tensor,
        weights: &Tensor,
        p: ConvArgs<'_>,
        depthwise: bool,
        qmax: i32,
    ) -> Result<Tensor, QuantError> {
        let producer = &self.graph.nodes[node.inputs[0]];
        let s_in = self.calib.activation(producer)?.scale(qmax);
        let s_w = self.calib.weight(node)?.scale(qmax);
        let xq: Vec<i32> = input
            .data()
            .iter()
            .map(|&v| quant_i(v, s_in, qmax))
            .collect();
        let wq: Vec<i32> = weights
            .data()
            .iter()
            .map(|&v| quant_i(v, s_w, qmax))
            .collect();
        let dequant = s_in * s_w;

        let (c1, h1, w1) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
        );
        let f = weights.shape().dim(2);
        let k = weights.shape().dim(0);
        let out_shape = conv_out_shape(input.shape(), k, f, p.stride, p.pad);
        let (h2, w2) = (out_shape.dim(1), out_shape.dim(2));

        let mut out = vec![0.0f32; k * h2 * w2];
        crate::par::for_each_chunk_mut(&mut out, h2 * w2, |ax1, plane| {
            for yy in 0..h2 {
                for xx in 0..w2 {
                    let mut acc = 0i64;
                    if depthwise {
                        for ry in 0..f {
                            let iy = (p.stride * yy + ry) as isize - p.pad as isize;
                            if iy < 0 || iy >= h1 as isize {
                                continue;
                            }
                            for rx in 0..f {
                                let ix = (p.stride * xx + rx) as isize - p.pad as isize;
                                if ix < 0 || ix >= w1 as isize {
                                    continue;
                                }
                                acc += xq[ax1 * h1 * w1 + iy as usize * w1 + ix as usize] as i64
                                    * wq[ax1 * f * f + ry * f + rx] as i64;
                            }
                        }
                    } else {
                        for rc in 0..c1 {
                            for ry in 0..f {
                                let iy = (p.stride * yy + ry) as isize - p.pad as isize;
                                if iy < 0 || iy >= h1 as isize {
                                    continue;
                                }
                                for rx in 0..f {
                                    let ix = (p.stride * xx + rx) as isize - p.pad as isize;
                                    if ix < 0 || ix >= w1 as isize {
                                        continue;
                                    }
                                    acc += xq[rc * h1 * w1 + iy as usize * w1 + ix as usize] as i64
                                        * wq[ax1 * c1 * f * f + rc * f * f + ry * f + rx] as i64;
                                }
                            }
                        }
                    }
                    plane[yy * w2 + xx] = p.epilogue(ax1, acc as f32 * dequant);
                }
            }
        });
        Ok(Tensor::from_vec(out_shape, out))
    }

    /// Integer-MAC dense layer.
    fn qdense(
        &self,
        node: &Node,
        input: &Tensor,
        weights: &Tensor,
        act: Activation,
        qmax: i32,
    ) -> Result<Tensor, QuantError> {
        let producer = &self.graph.nodes[node.inputs[0]];
        let s_in = self.calib.activation(producer)?.scale(qmax);
        let s_w = self.calib.weight(node)?.scale(qmax);
        let xq: Vec<i32> = input
            .data()
            .iter()
            .map(|&v| quant_i(v, s_in, qmax))
            .collect();
        let wq: Vec<i32> = weights
            .data()
            .iter()
            .map(|&v| quant_i(v, s_w, qmax))
            .collect();
        let dequant = s_in * s_w;
        let m = weights.shape().dim(0);
        let n = weights.shape().dim(1);
        let mut out = vec![0.0f32; m];
        for (row, o) in out.iter_mut().enumerate() {
            let mut acc = 0i64;
            for col in 0..n {
                acc += xq[col] as i64 * wq[row * n + col] as i64;
            }
            let mut v = acc as f32 * dequant;
            if let Some(b) = &node.bias {
                v += b[row];
            }
            *o = act.apply(v);
        }
        Ok(Tensor::from_vec(Shape::d1(m), out))
    }
}

/// Maps a tensor through half precision.
fn half_tensor(t: &Tensor) -> Tensor {
    let mut t = t.clone();
    for v in t.data_mut() {
        *v = f16_round(*v);
    }
    t
}

/// Worst element-wise disagreement of one layer between a quantized run and
/// the f32 reference, with the tolerance that applied at that element. The
/// fields mirror `VerifyError::Mismatch` (node, role, element index) so
/// failure messages read the same across harnesses.
#[derive(Clone, Debug)]
pub struct LayerDiff {
    /// Node id.
    pub node_id: NodeId,
    /// Node (layer) name.
    pub node: String,
    /// Operator kind name.
    pub kind: &'static str,
    /// Buffer role the comparison ran over.
    pub role: &'static str,
    /// Flat element index of the worst element.
    pub index: usize,
    /// Quantized value at that element.
    pub got: f32,
    /// f32 reference value at that element (saturated onto the calibrated
    /// range on gridded rungs, matching the ideal quantizer's target).
    pub want: f32,
    /// `|got - want|` at that element.
    pub err: f32,
    /// Tolerance that applied at that element.
    pub tol: f32,
}

impl LayerDiff {
    /// True when the worst element is inside tolerance.
    pub fn within(&self) -> bool {
        self.err <= self.tol
    }
}

impl fmt::Display for LayerDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} `{}` ({}) {}[{}]: |{:.6} - {:.6}| = {:.3e} (tol {:.3e})",
            self.node_id,
            self.node,
            self.kind,
            self.role,
            self.index,
            self.got,
            self.want,
            self.err,
            self.tol
        )
    }
}

/// Per-layer differential report for one precision.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Precision the quantized run used.
    pub precision: QuantPrecision,
    /// Worst element per layer, in node-id order.
    pub layers: Vec<LayerDiff>,
}

impl DiffReport {
    /// True when every layer's worst element is inside tolerance.
    pub fn pass(&self) -> bool {
        self.layers.iter().all(LayerDiff::within)
    }

    /// The layer with the largest `err / tol` ratio.
    pub fn worst(&self) -> Option<&LayerDiff> {
        self.layers.iter().max_by(|a, b| {
            let ra = a.err as f64 / a.tol.max(f32::MIN_POSITIVE) as f64;
            let rb = b.err as f64 / b.tol.max(f32::MIN_POSITIVE) as f64;
            ra.partial_cmp(&rb).expect("finite ratios")
        })
    }

    /// Layers whose worst element violates tolerance.
    pub fn failures(&self) -> Vec<&LayerDiff> {
        self.layers.iter().filter(|l| !l.within()).collect()
    }
}

/// Compares per-node outputs of a quantized path against the f32 reference
/// and reports the worst element per layer. `got` may come from the host
/// quantized executor or from a compiled-kernel run — any map of node id to
/// output tensor works, which is what makes the harness reusable across
/// datapaths.
pub fn diff_outputs(
    graph: &Graph,
    calib: &Calibration,
    precision: QuantPrecision,
    got: &HashMap<NodeId, Tensor>,
    reference: &HashMap<NodeId, Tensor>,
) -> DiffReport {
    let mut layers = Vec::new();
    for node in graph.nodes.iter().filter(|n| n.op != Op::Input) {
        let (Some(g), Some(r)) = (got.get(&node.id), reference.get(&node.id)) else {
            continue;
        };
        let range = calib
            .activations
            .get(&node.id)
            .copied()
            .unwrap_or(TensorRange {
                min: -1.0,
                max: 1.0,
                amax_clip: 1.0,
            });
        let (rtol, atol) = precision.tolerance(&range);
        // An ideal symmetric quantizer saturates values outside the
        // calibrated range by design, and fresh inputs may exceed what the
        // calibration batch observed. Compare against the saturated
        // reference on gridded rungs (softmax is never requantized).
        let clamp = precision.qmax().is_some() && node.op != Op::Softmax;
        let mut worst: Option<LayerDiff> = None;
        for (i, (&gv, &raw)) in g.data().iter().zip(r.data()).enumerate() {
            let rv = if clamp {
                raw.max(-range.amax_clip).min(range.amax_clip)
            } else {
                raw
            };
            let err = (gv - rv).abs();
            let tol = atol + rtol * rv.abs();
            let ratio = err as f64 / tol.max(f32::MIN_POSITIVE) as f64;
            let beat = worst
                .as_ref()
                .is_none_or(|w| ratio > w.err as f64 / w.tol.max(f32::MIN_POSITIVE) as f64);
            if beat {
                worst = Some(LayerDiff {
                    node_id: node.id,
                    node: node.name.clone(),
                    kind: node.op.kind_name(),
                    role: "output",
                    index: i,
                    got: gv,
                    want: rv,
                    err,
                    tol,
                });
            }
        }
        if let Some(w) = worst {
            layers.push(w);
        }
    }
    DiffReport { precision, layers }
}

/// Runs `input` through both the f32 executor and the quantized executor of
/// `graph` and returns the per-layer differential report.
pub fn differential(
    graph: &Graph,
    calib: &Calibration,
    precision: QuantPrecision,
    input: &Tensor,
) -> Result<DiffReport, QuantError> {
    let reference = graph.execute_all(input);
    let got = QuantizedGraph::new(graph, calib, precision).execute_all(input)?;
    Ok(diff_outputs(graph, calib, precision, &got, &reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new("tiny", Shape::chw(1, 8, 8));
        let w = Tensor::random(Shape::kcff(4, 1, 3), 41, 0.5);
        let c = g.push_with_params(
            "conv1",
            Op::Conv2d {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                depthwise: false,
            },
            vec![0],
            Some(w),
            Some(vec![0.05, -0.05, 0.1, 0.0]),
            None,
        );
        let r = g.push("relu1", Op::Relu, vec![c]);
        let p = g.push(
            "pool1",
            Op::MaxPool {
                window: 2,
                stride: 2,
                pad: 0,
            },
            vec![r],
        );
        let f = g.push("flatten", Op::Flatten, vec![p]);
        let wd = Tensor::random(Shape::d2(5, 64), 42, 0.2);
        let d = g.push_with_params(
            "dense1",
            Op::Dense { units: 5 },
            vec![f],
            Some(wd),
            None,
            None,
        );
        g.push("softmax", Op::Softmax, vec![d]);
        g.fuse()
    }

    fn tiny_batch(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::random(Shape::chw(1, 8, 8), 100 + i as u64, 1.0))
            .collect()
    }

    #[test]
    fn calibration_covers_every_node_and_weight() {
        let g = tiny_graph();
        let c = calibrate(&g, &tiny_batch(4), DEFAULT_CALIBRATION_PERCENTILE).unwrap();
        assert_eq!(c.activations.len(), g.nodes.len());
        let with_weights = g.nodes.iter().filter(|n| n.weights.is_some()).count();
        assert_eq!(c.weights.len(), with_weights);
        for r in c.activations.values().chain(c.weights.values()) {
            assert!(r.amax_clip > 0.0);
            assert!(r.amax_clip <= r.amax() + 1e-6);
            assert!(r.scale(127) > 0.0);
            assert_eq!(r.params(127).zero_point, 0);
        }
    }

    #[test]
    fn percentile_clip_trims_an_outlier() {
        let g = tiny_graph();
        // One wildly out-of-range sample: the 99.9th percentile clip of the
        // input range must land well below the outlier magnitude.
        let mut batch = tiny_batch(3);
        let mut outlier = Tensor::full(Shape::chw(1, 8, 8), 0.1);
        outlier.set(&[0, 0, 0], 1000.0);
        batch.push(outlier);
        let c = calibrate(&g, &batch, 0.99).unwrap();
        let input = &c.activations[&0];
        assert!(input.amax() >= 1000.0);
        assert!(input.amax_clip < 100.0, "clip {} too high", input.amax_clip);
        assert!(input.clip_margin() > 900.0);
    }

    #[test]
    fn empty_batch_is_a_structured_error() {
        let g = tiny_graph();
        assert_eq!(
            calibrate(&g, &[], 1.0).unwrap_err(),
            QuantError::EmptyCalibrationSet
        );
    }

    #[test]
    fn zero_input_reports_zero_range_not_scale_zero() {
        let g = tiny_graph();
        let err = calibrate(&g, &[Tensor::zeros(Shape::chw(1, 8, 8))], 1.0).unwrap_err();
        assert!(
            matches!(
                err,
                QuantError::ZeroRange {
                    role: "activation",
                    ..
                }
            ),
            "got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("identically zero"), "{msg}");
    }

    #[test]
    fn nan_activation_is_a_structured_error() {
        let g = tiny_graph();
        let mut bad = Tensor::full(Shape::chw(1, 8, 8), 0.5);
        bad.set(&[0, 3, 3], f32::NAN);
        let err = calibrate(&g, &[bad], 1.0).unwrap_err();
        assert!(
            matches!(
                err,
                QuantError::NonFinite {
                    role: "activation",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn inf_activation_is_a_structured_error() {
        let g = tiny_graph();
        let mut bad = Tensor::full(Shape::chw(1, 8, 8), 0.5);
        bad.set(&[0, 1, 1], f32::INFINITY);
        assert!(matches!(
            calibrate(&g, &[bad], 1.0).unwrap_err(),
            QuantError::NonFinite { .. }
        ));
    }

    #[test]
    fn calibration_shape_mismatch_is_a_structured_error() {
        let g = tiny_graph();
        let err = calibrate(&g, &[Tensor::full(Shape::chw(1, 4, 4), 1.0)], 1.0).unwrap_err();
        assert!(matches!(err, QuantError::InputShape { .. }));
    }

    #[test]
    fn f16_round_trip_hits_known_values() {
        assert_eq!(f16_round(0.0), 0.0);
        assert_eq!(f16_round(1.0), 1.0);
        assert_eq!(f16_round(-2.5), -2.5);
        assert_eq!(f16_round(65504.0), 65504.0); // largest normal half
        assert_eq!(f16_round(100000.0), f32::INFINITY);
        assert_eq!(f16_round(6e-8), 5.9604645e-8); // one subnormal half step
        assert_eq!(f16_round(1e-8), 0.0); // below half the subnormal step
                                          // Round-to-nearest-even at a tie: 2049 is exactly between the
                                          // representable 2048 and 2050; the even mantissa (2048) wins.
        assert_eq!(f16_round(2049.0), 2048.0);
        assert_eq!(f16_round(2051.0), 2052.0);
        let x = 0.1f32;
        assert!((f16_round(x) - x).abs() <= x * 1e-3);
    }

    #[test]
    fn fake_quant_is_idempotent_and_clamps() {
        let scale = 0.5 / 127.0;
        let q = fake_quant(0.1234, scale, 127);
        assert_eq!(fake_quant(q, scale, 127), q);
        assert_eq!(fake_quant(10.0, scale, 127), 0.5);
        assert_eq!(fake_quant(-10.0, scale, 127), -0.5);
    }

    #[test]
    fn quantized_executor_tracks_f32_within_tolerance() {
        let g = tiny_graph();
        let x = Tensor::random(Shape::chw(1, 8, 8), 7, 1.0);
        let mut batch = tiny_batch(4);
        batch.push(x.clone()); // probe covered by calibration (see module doc)
        let calib = calibrate(&g, &batch, 1.0).unwrap();
        for p in QuantPrecision::ALL {
            let report = differential(&g, &calib, p, &x).unwrap();
            assert_eq!(report.layers.len(), g.nodes.len() - 1);
            assert!(report.pass(), "{p} drifted: {}", report.failures()[0]);
        }
    }

    #[test]
    fn narrower_precisions_are_no_more_accurate() {
        let g = tiny_graph();
        let calib = calibrate(&g, &tiny_batch(4), 1.0).unwrap();
        let x = Tensor::random(Shape::chw(1, 8, 8), 9, 1.0);
        let err_of = |p| {
            let r = differential(&g, &calib, p, &x).unwrap();
            r.layers.iter().map(|l| l.err).fold(0.0f32, f32::max)
        };
        let (e16, e8) = (err_of(QuantPrecision::Int16), err_of(QuantPrecision::Int8));
        assert!(e16 <= e8, "int16 err {e16} should not exceed int8 err {e8}");
    }

    #[test]
    fn mixed_executor_quantizes_only_the_assigned_layers() {
        let g = tiny_graph();
        let x = Tensor::random(Shape::chw(1, 8, 8), 7, 1.0);
        let mut batch = tiny_batch(4);
        batch.push(x.clone());
        let calib = calibrate(&g, &batch, 1.0).unwrap();

        // An empty assignment is the f32 executor, bit for bit.
        let none = QuantizedGraph::mixed(&g, &calib, &BTreeMap::new());
        assert_eq!(none.execute(&x).unwrap().data(), g.execute(&x).data());

        // Demoting one mid-network layer perturbs the output, mildly: the
        // softmax output is bounded, so the drift must stay well under the
        // int8 tolerance even though single-layer error is not strictly
        // smaller than the uniform run's (errors can cancel downstream).
        let mut one = BTreeMap::new();
        one.insert("conv1".to_string(), QuantPrecision::Int8);
        let mixed_out = QuantizedGraph::mixed(&g, &calib, &one).execute(&x).unwrap();
        let uniform_out = QuantizedGraph::new(&g, &calib, QuantPrecision::Int8)
            .execute(&x)
            .unwrap();
        let f32_out = g.execute(&x);
        let worst = |got: &Tensor| {
            got.data()
                .iter()
                .zip(f32_out.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        let wm = worst(&mixed_out);
        assert!(wm > 0.0, "one int8 layer must perturb the output");
        assert!(wm < 0.05, "one int8 layer drifted {wm} on a softmax output");

        // A fully-demoted assignment reproduces the uniform executor.
        let all: BTreeMap<String, QuantPrecision> = g
            .nodes
            .iter()
            .map(|n| (n.name.clone(), QuantPrecision::Int8))
            .collect();
        let full = QuantizedGraph::mixed(&g, &calib, &all).execute(&x).unwrap();
        assert_eq!(full.data(), uniform_out.data());
    }

    #[test]
    fn executor_shape_mismatch_is_a_structured_error() {
        let g = tiny_graph();
        let calib = calibrate(&g, &tiny_batch(2), 1.0).unwrap();
        let qg = QuantizedGraph::new(&g, &calib, QuantPrecision::Int8);
        assert!(matches!(
            qg.execute(&Tensor::full(Shape::chw(1, 4, 4), 1.0))
                .unwrap_err(),
            QuantError::InputShape { .. }
        ));
    }

    #[test]
    fn missing_range_is_a_structured_error() {
        let g = tiny_graph();
        let mut calib = calibrate(&g, &tiny_batch(2), 1.0).unwrap();
        calib.activations.remove(&1);
        let qg = QuantizedGraph::new(&g, &calib, QuantPrecision::Int8);
        let err = qg
            .execute(&Tensor::random(Shape::chw(1, 8, 8), 3, 1.0))
            .unwrap_err();
        assert!(
            matches!(err, QuantError::MissingRange { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn lenet_differential_passes_at_every_precision() {
        let g = models::lenet5().fuse();
        let x = crate::data::synthetic_digit(7, 99);
        let mut batch: Vec<Tensor> = (0..4)
            .map(|i| crate::data::synthetic_digit(i % 10, i as u64))
            .collect();
        batch.push(x.clone()); // probe covered by calibration (see module doc)
        let calib = calibrate(&g, &batch, 1.0).unwrap();
        for p in QuantPrecision::ALL {
            let report = differential(&g, &calib, p, &x).unwrap();
            assert!(
                report.pass(),
                "lenet5 {p} drifted: {}",
                report.failures()[0]
            );
        }
    }

    #[test]
    fn precision_names_round_trip() {
        for p in QuantPrecision::ALL {
            assert_eq!(QuantPrecision::parse(p.name()), Some(p));
        }
        assert_eq!(QuantPrecision::parse("f32"), None);
    }
}
