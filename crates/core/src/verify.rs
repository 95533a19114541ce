//! End-to-end functional verification: runs the *exact* generated kernels
//! through the IR interpreter — channels and all — and compares against the
//! reference graph execution (the "output verification" capability of the
//! custom host code, §5.2).
//!
//! This closes the loop between simulated time and real data: the kernels
//! the AOC model synthesized are the kernels whose arithmetic is checked.

#![warn(clippy::too_many_lines)]

use crate::deploy::Deployment;
use fpgaccel_tensor::graph::{Node, NodeId};
use fpgaccel_tensor::Tensor;
use fpgaccel_tir::interp::Interp;
use fpgaccel_tir::kernel::{BufRole, Kernel};
use fpgaccel_tir::Binding;
use std::collections::HashMap;
use std::fmt;

/// A structured verification failure: what diverged, where, and by how
/// much. `Display` renders the same messages the stringly-typed checker
/// used to produce, so logs and golden files don't churn; consumers that
/// need the payload (the serving canary, tests) match on the variant.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// A kernel's input buffer has no upstream output to bind.
    ProducerUnavailable {
        /// Name of the node whose producer output is missing.
        node: String,
    },
    /// The node needs weights but the graph carries none.
    MissingWeights {
        /// Name of the node missing weights.
        node: String,
    },
    /// A fused residual add references an activation that was never
    /// computed.
    ResidualMissing {
        /// Name of the node whose residual source is missing.
        node: String,
    },
    /// A bound buffer's data length disagrees with its declared extent.
    BufferLen {
        /// Name of the node being bound.
        node: String,
        /// Name of the mis-sized buffer.
        buf: String,
        /// Elements the kernel declares.
        expected: usize,
        /// Elements actually bound.
        got: usize,
    },
    /// No kernel wrote the graph's output buffer.
    NoOutput,
    /// The kernels produced an output of the wrong length.
    OutputLen {
        /// Elements the kernels produced.
        got: usize,
        /// Elements the reference graph expects.
        want: usize,
    },
    /// The first element-level divergence between kernels and reference.
    Mismatch {
        /// Graph node id of the first diverging node.
        node_id: NodeId,
        /// Name of that node.
        node: String,
        /// Global buffer the kernel output came out of.
        buf: String,
        /// Role of that buffer.
        role: BufRole,
        /// Flat element index of the divergence.
        index: usize,
        /// Value the kernels computed.
        got: f32,
        /// Value the reference execution computed.
        want: f32,
    },
    /// A channel retained elements after the pass — a deadlocked or
    /// mis-sized pipeline.
    ChannelResidue {
        /// Name of the non-empty channel.
        channel: String,
        /// Elements left in it.
        len: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ProducerUnavailable { node } => {
                write!(f, "`{node}`: producer output unavailable")
            }
            VerifyError::MissingWeights { node } => write!(f, "`{node}`: missing weights"),
            VerifyError::ResidualMissing { node } => {
                write!(f, "`{node}`: residual source missing")
            }
            VerifyError::BufferLen {
                node,
                buf,
                expected,
                got,
            } => write!(
                f,
                "`{node}`: buffer `{buf}` expects {expected} elements, got {got}"
            ),
            VerifyError::NoOutput => write!(f, "final kernel produced no global output"),
            VerifyError::OutputLen { got, want } => {
                write!(f, "output length mismatch: kernels {got} vs graph {want}")
            }
            VerifyError::Mismatch {
                node_id,
                node,
                buf,
                role,
                index,
                got,
                want,
            } => write!(
                f,
                "node {node_id} (`{node}`): buffer `{buf}` ({role:?}) element {index}: \
                 kernels {got} vs reference {want}"
            ),
            VerifyError::ChannelResidue { channel, len } => write!(
                f,
                "channel `{channel}` retained {len} elements after the pass"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a deployment against the reference graph on one input.
///
/// Interprets every kernel in plan order (interpretation cost grows with
/// network FLOPs — intended for LeNet-scale networks and unit-test graphs).
///
/// For a quantized deployment ([`Deployment::quant`]), the per-element
/// tolerance comes from the rung's documented policy
/// (`QuantPrecision::tolerance`) scaled by each layer's calibrated range,
/// and the f32 reference is clamped onto the calibrated grid span before
/// comparison (an ideal quantizer saturates out-of-range values by design;
/// softmax, which is never requantized, is exempt). The probe input must be
/// covered by the calibration batch — see `Flow::calibration_batch`.
///
/// # Errors
/// Returns a [`VerifyError`] pinning the first mismatching element, or the
/// missing binding/buffer.
pub fn verify_deployment(d: &Deployment, input: &Tensor, rtol: f32) -> Result<(), VerifyError> {
    let activations = d.graph.execute_all(input);
    let expected = &activations[&d.graph.output];

    let mut interp = Interp::new();
    // Per-node outputs observed from the kernels themselves, and the
    // global buffer each came out of (for mismatch reports).
    let mut outputs: HashMap<NodeId, Vec<f32>> = HashMap::new();
    let mut out_bufs: HashMap<NodeId, (&str, BufRole)> = HashMap::new();
    outputs.insert(0, input.data().to_vec());

    for op in d.plan.ops() {
        let node = &d.graph.nodes[op.node_id];
        let inputs = bind_inputs(node, op.kernel, op.binding, &outputs, &activations)?;
        let result = interp.run(op.kernel, op.binding, &inputs);
        if let Some(out_buf) = op
            .kernel
            .bufs
            .iter()
            .find(|b| b.role == BufRole::Output && b.scope == fpgaccel_tir::Scope::Global)
        {
            outputs.insert(op.node_id, result[out_buf.name.as_ref()].clone());
            out_bufs.insert(op.node_id, (&out_buf.name, out_buf.role));
        }
    }

    let got = outputs.get(&d.graph.output).ok_or(VerifyError::NoOutput)?;
    if got.len() != expected.numel() {
        return Err(VerifyError::OutputLen {
            got: got.len(),
            want: expected.numel(),
        });
    }
    // Compare every node's observed output against its reference
    // activation, in graph order, so a mismatch is pinned to the first
    // node that diverged — not just discovered at the network output.
    let mut checked: Vec<NodeId> = outputs.keys().copied().filter(|&n| n != 0).collect();
    checked.sort_unstable();
    for node_id in checked {
        let Some(reference) = activations.get(&node_id) else {
            continue;
        };
        let observed = &outputs[&node_id];
        if observed.len() != reference.numel() {
            // Partial/tiled intermediate buffers are only comparable at
            // the network output, which the length check above covers.
            continue;
        }
        let (buf, role) = &out_bufs[&node_id];
        compare_node(d, node_id, observed, reference, rtol).map_err(|(index, got, want)| {
            VerifyError::Mismatch {
                node_id,
                node: d.graph.nodes[node_id].name.clone(),
                buf: buf.to_string(),
                role: *role,
                index,
                got,
                want,
            }
        })?;
    }
    // Channels must drain completely — leftover elements mean a deadlocked
    // or mis-sized pipeline.
    for (name, fifo) in &interp.channels {
        if !fifo.is_empty() {
            return Err(VerifyError::ChannelResidue {
                channel: name.clone(),
                len: fifo.len(),
            });
        }
    }
    Ok(())
}

/// The data for each of `kernel`'s global input buffers when it computes
/// `node`: the producer's observed output, the node's parameters, and
/// identity stand-ins for epilogue parameters a group kernel carries but
/// the node lacks.
fn bind_inputs(
    node: &Node,
    kernel: &Kernel,
    binding: &Binding,
    outputs: &HashMap<NodeId, Vec<f32>>,
    activations: &HashMap<NodeId, Tensor>,
) -> Result<HashMap<String, Vec<f32>>, VerifyError> {
    let mut inputs: HashMap<String, Vec<f32>> = HashMap::new();
    for buf in kernel.global_bufs() {
        let expected_len = buf.resolved_len(binding);
        let data: Vec<f32> = match buf.role {
            BufRole::Input => outputs
                .get(&node.inputs[0])
                .ok_or_else(|| VerifyError::ProducerUnavailable {
                    node: node.name.clone(),
                })?
                .clone(),
            BufRole::Weights => node
                .weights
                .as_deref()
                .ok_or_else(|| VerifyError::MissingWeights {
                    node: node.name.clone(),
                })?
                .data()
                .to_vec(),
            // Group kernels carry the *union* epilogue; members without
            // a given parameter bind the identity.
            BufRole::Bias => node.bias.clone().unwrap_or_else(|| vec![0.0; expected_len]),
            BufRole::BnScale => node
                .fused
                .bn
                .as_ref()
                .map(|(s, _)| s.clone())
                .unwrap_or_else(|| vec![1.0; expected_len]),
            BufRole::BnShift => node
                .fused
                .bn
                .as_ref()
                .map(|(_, b)| b.clone())
                .unwrap_or_else(|| vec![0.0; expected_len]),
            BufRole::Residual => match node.fused.add_from {
                Some(src) => activations
                    .get(&src)
                    .map(|t| t.data().to_vec())
                    .ok_or_else(|| VerifyError::ResidualMissing {
                        node: node.name.clone(),
                    })?,
                None => vec![0.0; expected_len],
            },
            BufRole::Output | BufRole::Scratch => continue,
        };
        if data.len() != expected_len {
            return Err(VerifyError::BufferLen {
                node: node.name.clone(),
                buf: buf.name.to_string(),
                expected: expected_len,
                got: data.len(),
            });
        }
        inputs.insert(buf.name.to_string(), data);
    }
    Ok(inputs)
}

/// Compares one node's observed output with its reference activation and
/// returns the first element out of tolerance as `(index, got, want)`.
///
/// Quantized deployments compare under the rung's documented per-layer
/// tolerance, with the reference clamped onto the calibrated grid span
/// (softmax excepted — it stays f32).
fn compare_node(
    d: &Deployment,
    node_id: NodeId,
    observed: &[f32],
    reference: &Tensor,
    rtol: f32,
) -> Result<(), (usize, f32, f32)> {
    let node = &d.graph.nodes[node_id];
    let quant_tol = d.quant.as_ref().and_then(|q| {
        let range = q.calib.activation(node).ok()?;
        let (q_rtol, q_atol) = q.precision.tolerance(range);
        let clamp = (q.precision.qmax().is_some()
            && !matches!(node.op, fpgaccel_tensor::graph::Op::Softmax))
        .then_some(range.amax_clip);
        Some((q_rtol, q_atol, clamp))
    });
    for (i, (&g, &e)) in observed.iter().zip(reference.data()).enumerate() {
        let (e, tol) = match quant_tol {
            Some((q_rtol, q_atol, clamp)) => {
                let e = match clamp {
                    Some(c) => e.clamp(-c, c),
                    None => e,
                };
                (e, q_atol + q_rtol * e.abs())
            }
            None => (e, 1e-4 + rtol * e.abs().max(g.abs())),
        };
        if (g - e).abs() > tol {
            return Err((i, g, e));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use crate::options::OptimizationConfig;
    use fpgaccel_device::FpgaPlatform;
    use fpgaccel_tensor::data;
    use fpgaccel_tensor::models::Model;

    #[test]
    fn lenet_base_kernels_compute_the_reference_output() {
        let d = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx)
            .compile(&OptimizationConfig::base())
            .unwrap();
        verify_deployment(&d, &data::synthetic_digit(2, 0), 1e-3).unwrap();
    }

    #[test]
    fn lenet_channelized_autorun_kernels_compute_the_reference_output() {
        let d = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx)
            .compile(&OptimizationConfig::tvm_autorun().with_concurrent())
            .unwrap();
        verify_deployment(&d, &data::synthetic_digit(8, 1), 1e-3).unwrap();
    }

    #[test]
    fn mismatch_reports_node_buffer_and_element() {
        let d = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx)
            .compile(&OptimizationConfig::base())
            .unwrap();
        // A negative tolerance fails every non-trivial comparison, so the
        // report must pin the *first* diverging node — with its id, the
        // buffer it came out of, and the flat element index — rather than
        // only being discovered at the network output.
        let err = verify_deployment(&d, &data::synthetic_digit(2, 0), -1.0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("node "), "missing node id: {msg}");
        assert!(msg.contains("buffer `"), "missing buffer name: {msg}");
        assert!(msg.contains("(Output)"), "missing buffer role: {msg}");
        assert!(msg.contains("element "), "missing element index: {msg}");
        // The structured payload carries the same facts as the message.
        let VerifyError::Mismatch {
            node_id,
            node,
            buf,
            role,
            index,
            got,
            want,
        } = err
        else {
            panic!("expected Mismatch, got {err:?}");
        };
        assert_eq!(role, BufRole::Output);
        assert_eq!(
            msg,
            format!(
                "node {node_id} (`{node}`): buffer `{buf}` ({role:?}) element {index}: \
                 kernels {got} vs reference {want}"
            )
        );
    }

    #[test]
    fn quantized_lenet_kernels_stay_within_rung_tolerance() {
        use crate::options::QuantSpec;
        use fpgaccel_tensor::quant::QuantPrecision;
        // The compiled narrow-MAC kernels (run through the IR interpreter,
        // channels and all) agree with the f32 reference within each rung's
        // documented tolerance — pipelined and staged execution both.
        for precision in QuantPrecision::ALL {
            let spec = QuantSpec::new(precision);
            for cfg in [
                OptimizationConfig::tvm_autorun().with_quant(spec),
                OptimizationConfig::folded_base().with_quant(spec),
            ] {
                let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
                let d = flow.compile(&cfg).unwrap();
                assert_eq!(d.quant.as_ref().unwrap().precision, precision);
                // Probe with a calibration-batch member: per-layer bounds
                // require saturation-free coverage.
                let probe = &flow.calibration_batch(&spec)[0];
                verify_deployment(&d, probe, 1e-3)
                    .unwrap_or_else(|e| panic!("{precision}/{}: {e}", cfg.label));
            }
        }
    }

    #[test]
    fn quantized_host_executor_matches_deployment_grids() {
        use crate::options::QuantSpec;
        use fpgaccel_tensor::quant::{diff_outputs, QuantPrecision};
        let spec = QuantSpec::new(QuantPrecision::Int8);
        let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
        let d = flow
            .compile(&OptimizationConfig::folded_base().with_quant(spec))
            .unwrap();
        let probe = &flow.calibration_batch(&spec)[0];
        let qg = d.quantized().expect("quantized deployment");
        let got = qg.execute_all(probe).unwrap();
        let reference = d.graph.execute_all(probe);
        let q = d.quant.as_ref().unwrap();
        let report = diff_outputs(&d.graph, &q.calib, q.precision, &got, &reference);
        assert!(report.pass(), "{:?}", report.failures());
    }

    #[test]
    fn classification_agrees_with_reference_engine() {
        let d = Flow::new(Model::LeNet5, FpgaPlatform::Arria10Gx)
            .compile(&OptimizationConfig::tvm_autorun())
            .unwrap();
        let reference = Model::LeNet5.build().fuse();
        for i in 0..5 {
            let x = data::synthetic_digit(i, 42);
            assert_eq!(d.classify(&x), reference.execute(&x).argmax());
        }
    }
}
