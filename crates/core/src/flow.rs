//! The end-to-end compilation flow (Chapter 3, Figure 3.1).

#![warn(clippy::too_many_lines)]

use crate::dataflow::{plan_dataflow, price};
use crate::deploy::{Deployment, DeploymentQuant, ExecutionPlan};
use crate::kernels::{build_folded, build_pipelined, PlanError};
use crate::options::{ExecMode, OptimizationConfig, QuantSpec};
use fpgaccel_aoc::{assemble_bitstream, Calib, SynthesisError};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::graph::{Graph, NodeId, Op};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::quant::{self, Calibration, QuantError};
use fpgaccel_tensor::Tensor;
use fpgaccel_tir::{quantize_kernel, KernelQuant};
use fpgaccel_trace::Tracer;
use std::collections::HashMap;

/// Why a compilation fails.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// The AOC/Quartus stage failed (resources or routing).
    Synthesis(SynthesisError),
    /// The plan could not be constructed (tiling divisibility, graph shape).
    Plan(PlanError),
    /// Parameters + activations exceed device global memory (the S10MX
    /// exposes a single 256 MB HBM pseudo-channel, §6.2).
    GlobalMemory {
        /// Bytes the deployment needs resident.
        required: u64,
        /// Device capacity.
        available: u64,
    },
    /// Calibration/quantization failed (empty batch, zero-range tensor,
    /// non-finite activation).
    Quant(QuantError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            FlowError::Plan(e) => write!(f, "{e}"),
            FlowError::GlobalMemory {
                required,
                available,
            } => write!(
                f,
                "device global memory exhausted: deployment needs {required} bytes, \
                 device exposes {available}"
            ),
            FlowError::Quant(e) => write!(f, "quantization failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SynthesisError> for FlowError {
    fn from(e: SynthesisError) -> Self {
        FlowError::Synthesis(e)
    }
}

impl From<PlanError> for FlowError {
    fn from(e: PlanError) -> Self {
        FlowError::Plan(e)
    }
}

impl From<QuantError> for FlowError {
    fn from(e: QuantError) -> Self {
        FlowError::Quant(e)
    }
}

/// What a flow compiles: a zoo model or a user-supplied graph.
#[derive(Clone)]
enum FlowSource {
    Model(Model),
    Graph(Box<fpgaccel_tensor::graph::Graph>),
}

/// The compilation flow: network × target platform.
#[derive(Clone)]
pub struct Flow {
    source: FlowSource,
    /// Target FPGA.
    pub platform: FpgaPlatform,
    /// AOC-model calibration (default unless overridden for ablations).
    pub calib: Calib,
    /// Span recorder for compile phases; disabled (zero-cost) by default.
    pub tracer: Tracer,
}

impl Flow {
    /// A flow for a zoo model with default calibration.
    pub fn new(model: Model, platform: FpgaPlatform) -> Self {
        Flow {
            source: FlowSource::Model(model),
            platform,
            calib: Calib::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// A flow for an arbitrary user-built network graph — the "support for
    /// arbitrary operations" the template-free approach promises (§1.1).
    /// The graph may be unfused; the flow runs the Relay-style passes.
    pub fn for_graph(graph: fpgaccel_tensor::graph::Graph, platform: FpgaPlatform) -> Self {
        Flow {
            source: FlowSource::Graph(Box::new(graph)),
            platform,
            calib: Calib::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; subsequent [`Flow::compile`] calls record a span
    /// per flow phase (import, scheduling, memory check, synthesis).
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// This flow over a built source graph: a zoo model is built here,
    /// once, so every compile of the returned flow imports a clone that
    /// shares its weights instead of building the model again.
    pub(crate) fn with_built_source(&self) -> Flow {
        let source = match &self.source {
            FlowSource::Model(m) => FlowSource::Graph(Box::new(m.build())),
            FlowSource::Graph(g) => FlowSource::Graph(g.clone()),
        };
        Flow {
            source,
            platform: self.platform,
            calib: self.calib.clone(),
            tracer: self.tracer.clone(),
        }
    }

    /// Runs just the frontend: model import, Relay-style fusion and padding
    /// materialization — the graph every later stage (and the auto-tuner's
    /// shape extraction) consumes. A flow over a prebuilt graph imports a
    /// clone that shares the graph's weights.
    pub fn import_graph(&self) -> fpgaccel_tensor::graph::Graph {
        match &self.source {
            FlowSource::Model(m) => m.build(),
            FlowSource::Graph(g) => g.as_ref().clone(),
        }
        .fuse()
        .materialize_padding()
    }

    /// Compiles the model under a configuration: frontend import → fusion →
    /// padding materialization → kernel generation → AOC synthesis →
    /// deployable accelerator.
    ///
    /// # Errors
    /// Returns [`FlowError`] when the plan cannot be built or the design
    /// does not synthesize for the platform (the thesis' naive MobileNet and
    /// all ResNet deployments fail on the Arria 10, §6.4.2/§6.4.3).
    pub fn compile(&self, config: &OptimizationConfig) -> Result<Deployment, FlowError> {
        let _compile = self.tracer.is_enabled().then(|| {
            let label = format!("compile {}/{}", config.label, self.platform);
            self.tracer.phase("flow", &label)
        });
        // Frontend + Relay passes (§3.1).
        let graph = {
            let _p = self.tracer.phase("flow", "import");
            self.import_graph()
        };
        let device = self.platform.model();

        // A dataflow plan comes with the report of every kernel the planner
        // priced, in plan order.
        let (mut plan, mut reports) = {
            let _p = self.tracer.phase("flow", "schedule+codegen");
            match config.mode {
                ExecMode::Pipelined => (
                    ExecutionPlan::Pipelined(build_pipelined(&graph, config)?),
                    None,
                ),
                ExecMode::Folded => (ExecutionPlan::Folded(build_folded(&graph, config)?), None),
                ExecMode::Dataflow => {
                    let (plan, reports) = plan_dataflow(&graph, config, &device, &self.calib)?;
                    (ExecutionPlan::Dataflow(plan), Some(reports))
                }
            }
        };

        // Quantization: calibrate per-tensor ranges on the seeded batch and
        // rewrite every kernel with narrow-MAC loads and requantizing
        // boundaries (softmax stays f32).
        let quant_state = match &config.quant {
            Some(spec) => {
                let _p = self.tracer.phase("flow", "calibrate+quantize");
                let batch = calibration_batch(&graph, spec);
                let calib = quant::calibrate(&graph, &batch, spec.percentile)?;
                let qmap = kernel_quant_map(&graph, &plan, spec, &calib)?;
                for k in plan.kernels_mut() {
                    if let Some(q) = qmap.get(&k.name) {
                        *k = quantize_kernel(k, q);
                    }
                }
                // The planner priced the kernels before this rewrite.
                reports = None;
                Some(DeploymentQuant {
                    precision: spec.precision,
                    calib,
                })
            }
            None => None,
        };

        // Device-memory budget: weights stay resident, and so do the
        // activations the plan keeps in global memory.
        let elem = config.aoc.precision.bytes();
        let required = elem * (graph.param_count() as u64 + plan.global_activation_elems(&graph));
        {
            let _p = self.tracer.phase("flow", "memory check");
            if required > device.global_mem_bytes {
                return Err(FlowError::GlobalMemory {
                    required,
                    available: device.global_mem_bytes,
                });
            }
        }

        let bitstream = {
            let _p = self.tracer.phase("flow", "aoc synthesis");
            let reports = reports.unwrap_or_else(|| {
                let kernels = plan.kernels();
                kernels
                    .map(|k| price(k, &device, config, &self.calib))
                    .collect()
            });
            assemble_bitstream(reports, &device, &self.calib)?
        };
        let mut d = Deployment::new(
            graph,
            plan,
            bitstream,
            device,
            config.clone(),
            self.calib.clone(),
        );
        d.quant = quant_state;
        Ok(d)
    }

    /// The seeded synthetic calibration batch a quantized compile of this
    /// flow uses. Public so verification and benches can probe with inputs
    /// that are *covered* by the calibration — per-layer error bounds only
    /// hold for saturation-free inputs.
    pub fn calibration_batch(&self, spec: &QuantSpec) -> Vec<Tensor> {
        calibration_batch(&self.import_graph(), spec)
    }
}

/// The seeded calibration batch of `spec` for an imported graph.
pub(crate) fn calibration_batch(graph: &Graph, spec: &QuantSpec) -> Vec<Tensor> {
    fpgaccel_tensor::data::calibration_batch(
        graph.input_shape(),
        spec.calibration_samples.max(1),
        spec.calibration_seed,
    )
}

/// Per-kernel quantization specs derived from the calibration: every kernel
/// node's input/weight/residual/output grids. Softmax kernels are skipped
/// (probabilities stay f32).
///
/// Quantized compiles require per-layer kernels: a parameterized group
/// shared across layers would bake one scale set into every member, so a
/// shared kernel name is a plan error.
fn kernel_quant_map(
    graph: &Graph,
    plan: &ExecutionPlan,
    spec: &QuantSpec,
    calib: &Calibration,
) -> Result<HashMap<String, KernelQuant>, FlowError> {
    let mut owner: HashMap<&str, NodeId> = HashMap::new();
    let mut qmap = HashMap::new();
    for op in plan.ops() {
        let (node_id, kernel_name) = (op.node_id, op.kernel.name.as_str());
        if let Some(&prev) = owner.get(kernel_name) {
            if prev != node_id {
                return Err(FlowError::Plan(PlanError(format!(
                    "quantized compiles require per-layer kernels; `{kernel_name}` is shared \
                     by nodes {prev} and {node_id} (set parameterized = false)"
                ))));
            }
            continue;
        }
        owner.insert(kernel_name, node_id);
        let node = &graph.nodes[node_id];
        if matches!(node.op, Op::Softmax) {
            continue;
        }
        let q = match spec.precision.qmax() {
            None => KernelQuant::half(),
            Some(qmax) => KernelQuant {
                qmax: Some(qmax),
                input_scale: calib.activation(&graph.nodes[node.inputs[0]])?.scale(qmax),
                weight_scale: if node.weights.is_some() {
                    calib.weight(node)?.scale(qmax)
                } else {
                    0.0
                },
                residual_scale: match node.fused.add_from {
                    Some(src) => calib.activation(&graph.nodes[src])?.scale(qmax),
                    None => 0.0,
                },
                output_scale: calib.activation(node)?.scale(qmax),
            },
        };
        qmap.insert(kernel_name.to_string(), q);
    }
    Ok(qmap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TilingPreset;
    use fpgaccel_aoc::SynthesisError;

    #[test]
    fn lenet_compiles_on_every_platform() {
        for p in FpgaPlatform::ALL {
            let flow = Flow::new(Model::LeNet5, p);
            for cfg in [
                OptimizationConfig::base(),
                OptimizationConfig::tvm_autorun().with_concurrent(),
            ] {
                let d = flow
                    .compile(&cfg)
                    .unwrap_or_else(|e| panic!("LeNet/{p}/{} failed: {e}", cfg.label));
                assert!(d.bitstream.fmax_mhz > 100.0);
            }
        }
    }

    #[test]
    fn naive_mobilenet_does_not_fit_the_arria10() {
        // §6.3.2: "For the Arria 10, the network does not synthesize due to
        // insufficient board resources."
        let flow = Flow::new(Model::MobileNetV1, FpgaPlatform::Arria10Gx);
        let err = flow
            .compile(&OptimizationConfig::folded_base())
            .unwrap_err();
        match err {
            FlowError::Synthesis(SynthesisError::ResourceOverflow { .. }) => {}
            other => panic!("expected resource overflow, got {other:?}"),
        }
    }

    #[test]
    fn naive_mobilenet_fits_the_stratix_boards() {
        for p in [FpgaPlatform::Stratix10Sx, FpgaPlatform::Stratix10Mx] {
            let flow = Flow::new(Model::MobileNetV1, p);
            flow.compile(&OptimizationConfig::folded_base())
                .unwrap_or_else(|e| panic!("naive MobileNet on {p}: {e}"));
        }
    }

    #[test]
    fn optimized_mobilenet_fits_all_three_platforms() {
        // §6.3.2: parameterized kernels make the A10 deployment possible.
        for (p, tile) in [
            (FpgaPlatform::Stratix10Mx, (7, 32, 4)),
            (FpgaPlatform::Stratix10Sx, (7, 16, 4)),
            (FpgaPlatform::Arria10Gx, (7, 8, 8)),
        ] {
            let flow = Flow::new(Model::MobileNetV1, p);
            let cfg = OptimizationConfig::folded(TilingPreset::MobileNet { one_by_one: tile });
            flow.compile(&cfg)
                .unwrap_or_else(|e| panic!("optimized MobileNet on {p}: {e}"));
        }
    }

    #[test]
    fn resnet_does_not_fit_the_arria10_even_optimized() {
        // Table 6.14: ResNet never synthesizes for the A10 ("insufficient
        // BRAM", §6.4.3).
        let flow = Flow::new(Model::ResNet18, FpgaPlatform::Arria10Gx);
        for cfg in [
            OptimizationConfig::folded_base(),
            OptimizationConfig::folded(TilingPreset::ResNet),
        ] {
            assert!(
                flow.compile(&cfg).is_err(),
                "ResNet/{} should not fit the A10",
                cfg.label
            );
        }
    }

    #[test]
    fn resnet_fits_the_stratix_boards_optimized() {
        for p in [FpgaPlatform::Stratix10Sx, FpgaPlatform::Stratix10Mx] {
            for m in [Model::ResNet18, Model::ResNet34] {
                let flow = Flow::new(m, p);
                flow.compile(&OptimizationConfig::folded(TilingPreset::ResNet))
                    .unwrap_or_else(|e| panic!("{} on {p}: {e}", m.name()));
            }
        }
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use fpgaccel_tensor::graph::{Graph, Op};
    use fpgaccel_tensor::{Shape, Tensor};

    /// A network whose dense weights exceed the S10MX's single 256 MB HBM
    /// pseudo-channel is rejected before synthesis.
    #[test]
    fn oversized_weights_exhaust_s10mx_hbm_channel() {
        let mut g = Graph::new("fat", Shape::d1(8192));
        // 16384 x 8192 f32 weights = 512 MB > 256 MB.
        let w = Tensor::zeros(Shape::d2(16384, 8192));
        g.push_with_params(
            "fc",
            Op::Dense { units: 16384 },
            vec![0],
            Some(w),
            None,
            None,
        );
        let mut cfg = OptimizationConfig::folded_base();
        cfg.mode = ExecMode::Folded;
        let err = Flow::for_graph(g.clone(), FpgaPlatform::Stratix10Mx)
            .compile(&cfg)
            .unwrap_err();
        assert!(
            matches!(err, FlowError::GlobalMemory { .. }),
            "expected global-memory error, got {err:?}"
        );
        // The same network fits the S10SX's 32 GB DDR4 (whether it
        // synthesizes is a separate question — it should, it's one kernel).
        Flow::for_graph(g, FpgaPlatform::Stratix10Sx)
            .compile(&cfg)
            .expect("32 GB DDR4 holds 512 MB of weights");
    }

    /// All thesis deployments fit comfortably (ResNet-34's 87 MB of weights
    /// vs the 256 MB pseudo-channel is the tightest case).
    #[test]
    fn thesis_models_fit_device_memory() {
        use crate::bitstreams::optimized_config;
        for m in [Model::MobileNetV1, Model::ResNet34] {
            let cfg = optimized_config(m, FpgaPlatform::Stratix10Mx);
            Flow::new(m, FpgaPlatform::Stratix10Mx)
                .compile(&cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        }
    }
}
