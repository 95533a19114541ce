//! Deployments: a synthesized accelerator plus its host execution plan,
//! coupling real tensor computation with the simulated timeline.

#![warn(clippy::too_many_lines)]

use crate::dataflow::{DataflowPlan, DataflowStep};
use crate::kernels::{FoldedPlan, Invocation, Stage};
use crate::options::OptimizationConfig;
use fpgaccel_aoc::{report as aoc_report, BitstreamReport, Calib};
use fpgaccel_device::DeviceModel;
use fpgaccel_fault::FaultInjector;
use fpgaccel_runtime::{
    Breakdown, ChannelCoupling, CouplingSpec, EventRetention, LatencyQuantiles, Sim,
};
use fpgaccel_tensor::flops::node_flops;
use fpgaccel_tensor::graph::{Graph, NodeId};
use fpgaccel_tensor::Tensor;
use fpgaccel_tir::{Binding, Kernel};
use fpgaccel_trace::Tracer;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// The host execution plan.
#[derive(Clone, Debug)]
pub enum ExecutionPlan {
    /// Layer-pipelined stages (§6.3.1).
    Pipelined(Vec<Stage>),
    /// Time-multiplexed parameterized kernels (§6.3.2).
    Folded(FoldedPlan),
    /// Planner-driven streaming dataflow: channel-connected segments with
    /// staged fallback through the folded pool.
    Dataflow(DataflowPlan),
}

/// One kernel launch of an image's host schedule.
#[derive(Clone, Copy, Debug)]
pub struct Launch<'a> {
    /// Graph node the launch computes.
    pub node_id: NodeId,
    /// The kernel launched.
    pub kernel: &'a Kernel,
    /// Symbolic-dimension arguments (§5.3).
    pub binding: &'a Binding,
    /// Channel FIFO from the previous launch; `None` when the kernel reads
    /// its input from global memory.
    pub coupling: Option<CouplingSpec>,
    /// Command-queue lane: each channel-connected stage has its own, and a
    /// staged run of invocations shares one.
    pub lane: usize,
}

static NO_BINDING: LazyLock<Binding> = LazyLock::new(Binding::empty);

impl ExecutionPlan {
    /// One image's kernel launches, in host order. Lanes are numbered from
    /// 0 in that order: one per stage, one per staged run.
    pub fn ops(&self) -> impl Iterator<Item = Launch<'_>> {
        // Steps are channel-connected stages or a staged run of
        // invocations through the kernel pool.
        type Step<'a> = (&'a [Stage], &'a [Invocation]);
        let (first, steps, pool): (Option<Step<'_>>, &[DataflowStep], &[Kernel]) = match self {
            ExecutionPlan::Pipelined(stages) => (Some((stages, &[])), &[], &[]),
            ExecutionPlan::Folded(p) => (Some((&[], &p.invocations)), &[], &p.kernels),
            ExecutionPlan::Dataflow(p) => (None, &p.steps, &p.kernels),
        };
        let steps = first
            .into_iter()
            .chain(steps.iter().map(DataflowStep::parts));
        steps
            .scan(0, move |next_lane, (stages, staged)| {
                let lane = *next_lane;
                *next_lane += stages.len() + usize::from(!staged.is_empty());
                let stages = stages.iter().zip(lane..).map(|(s, lane)| Launch {
                    node_id: s.node_id,
                    kernel: &s.kernel,
                    binding: &NO_BINDING,
                    coupling: s.coupling,
                    lane,
                });
                let staged = staged.iter().map(move |inv| Launch {
                    node_id: inv.node_id,
                    kernel: pool
                        .iter()
                        .find(|k| k.name == inv.kernel_name)
                        .expect("invocation kernel is in the pool"),
                    binding: &inv.binding,
                    coupling: None,
                    lane,
                });
                Some(stages.chain(staged))
            })
            .flatten()
    }

    /// The kernel set the bitstream is synthesized from.
    pub fn kernels(&self) -> impl Iterator<Item = &Kernel> {
        let (stages, pool): (&[Stage], &[Kernel]) = match self {
            ExecutionPlan::Pipelined(stages) => (stages, &[]),
            ExecutionPlan::Folded(FoldedPlan { kernels, .. })
            | ExecutionPlan::Dataflow(DataflowPlan { kernels, .. }) => (&[], kernels),
        };
        stages.iter().map(|s| &s.kernel).chain(pool)
    }

    /// Every kernel the plan holds, for in-place rewrites: the synthesized
    /// set and a dataflow plan's stage copies.
    pub(crate) fn kernels_mut(&mut self) -> impl Iterator<Item = &mut Kernel> {
        let (stages, steps, pool): (&mut [Stage], &mut [DataflowStep], &mut [Kernel]) = match self {
            ExecutionPlan::Pipelined(stages) => (stages, &mut [], &mut []),
            ExecutionPlan::Folded(p) => (&mut [], &mut [], &mut p.kernels),
            ExecutionPlan::Dataflow(p) => (&mut [], &mut p.steps, &mut p.kernels),
        };
        let stages = stages
            .iter_mut()
            .chain(steps.iter_mut().flat_map(DataflowStep::stages_mut));
        stages.map(|s| &mut s.kernel).chain(pool)
    }

    /// Activation elements resident in device global memory: the network
    /// input and output of a pipeline; every layer's output when folded
    /// (feature maps ping-pong through global memory, §3.1); the input and
    /// every segment-boundary or staged activation of a dataflow plan.
    pub(crate) fn global_activation_elems(&self, graph: &Graph) -> u64 {
        let numel = |id: NodeId| graph.nodes[id].out_shape.numel() as u64;
        let input = graph.input_shape().numel() as u64;
        match self {
            ExecutionPlan::Pipelined(_) => input + numel(graph.output),
            ExecutionPlan::Folded(_) => graph.kernel_nodes().map(|n| numel(n.id)).sum(),
            ExecutionPlan::Dataflow(p) => input + p.boundary_elems,
        }
    }
}

/// One inference result.
#[derive(Clone, Debug)]
pub struct InferResult {
    /// The network output (computed with real arithmetic).
    pub output: Tensor,
    /// Simulated end-to-end latency on the FPGA, seconds (including host
    /// overheads and transfers).
    pub simulated_seconds: f64,
}

/// Statistics from a simulated batch run.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Images processed.
    pub images: usize,
    /// Simulated wall-clock seconds for the whole batch.
    pub seconds: f64,
    /// Frames per second (§6.1.2).
    pub fps: f64,
    /// Network GFLOP/s (§6.1.2: FPS x FLOPs-per-pass).
    pub gflops: f64,
    /// Event-class breakdown (Figure 6.2).
    pub breakdown: Breakdown,
    /// Device-busy seconds per kernel, keyed by the bitstream's shared
    /// kernel names.
    pub kernel_seconds: HashMap<Arc<str>, f64>,
    /// FLOPs attributed to each kernel across the batch, keyed like
    /// [`BatchStats::kernel_seconds`].
    pub kernel_flops: HashMap<Arc<str>, u64>,
    /// Per-image completion latencies, seconds: first input-write queued to
    /// output-read end, in image order.
    pub latencies: Vec<f64>,
    /// p50/p95/p99/max over [`BatchStats::latencies`].
    pub latency: LatencyQuantiles,
    /// The simulated event timeline (for event-level analysis and the
    /// Figure 6.2-style plots). The full trace when profiling is enabled;
    /// a bounded tail of the newest events otherwise (the running
    /// aggregates above still cover the whole batch).
    pub events: Vec<fpgaccel_runtime::SimEvent>,
}

impl BatchStats {
    /// Per-kernel GFLOP/s (Tables 6.8/6.16).
    pub fn kernel_gflops(&self, kernel: &str) -> f64 {
        let secs = self.kernel_seconds.get(kernel).copied().unwrap_or(0.0);
        let flops = self.kernel_flops.get(kernel).copied().unwrap_or(0) as f64;
        if secs > 0.0 {
            flops / secs / 1e9
        } else {
            0.0
        }
    }

    /// Share of total kernel-busy time spent in a kernel (Tables 6.8/6.16).
    pub fn kernel_time_share(&self, kernel: &str) -> f64 {
        let total: f64 = self.kernel_seconds.values().sum();
        if total > 0.0 {
            self.kernel_seconds.get(kernel).copied().unwrap_or(0.0) / total
        } else {
            0.0
        }
    }
}

/// Affine batch-latency model: `seconds(n) ≈ base_s + n · per_image_s`.
///
/// Calibrated from two simulated batch sizes, it lets a scheduler predict
/// the completion time of an arbitrary batch without running the
/// discrete-event simulation — the basis for shortest-expected-completion
/// dispatch in the serving layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchLatencyModel {
    /// Fixed per-batch cost, seconds (first-image fill + host setup).
    pub base_s: f64,
    /// Marginal steady-state cost per additional image, seconds.
    pub per_image_s: f64,
}

impl BatchLatencyModel {
    /// Calibrates the model from a single-image run and a `probe`-image run
    /// (`probe ≥ 2`; larger probes average out pipeline fill), both read
    /// through the deployment's memo ([`Deployment::batch_seconds`]).
    pub fn calibrate(d: &Deployment, probe: usize) -> BatchLatencyModel {
        let probe = probe.max(2);
        let one = d.batch_seconds(1);
        let many = d.batch_seconds(probe);
        let per_image_s = ((many - one) / (probe - 1) as f64).max(1e-12);
        BatchLatencyModel {
            base_s: (one - per_image_s).max(0.0),
            per_image_s,
        }
    }

    /// Predicted completion time for a batch of `n` images, seconds.
    pub fn seconds(&self, n: usize) -> f64 {
        self.base_s + n as f64 * self.per_image_s
    }
}

/// The quantization state a quantized compile carries into deployment: the
/// calibrated ranges every kernel's scales were derived from, and the rung.
/// Verification and the host's quantized executor both need it.
#[derive(Clone, Debug)]
pub struct DeploymentQuant {
    /// Datapath precision rung.
    pub precision: fpgaccel_tensor::quant::QuantPrecision,
    /// Calibrated per-tensor ranges (activations and weights).
    pub calib: fpgaccel_tensor::quant::Calibration,
}

/// A compiled, synthesized, deployable accelerator.
pub struct Deployment {
    /// The fused network graph (functional semantics + parameters).
    pub graph: Graph,
    /// Host execution plan.
    pub plan: ExecutionPlan,
    /// Synthesis result.
    pub bitstream: BitstreamReport,
    /// Target device model.
    pub device: DeviceModel,
    /// Configuration this was compiled with.
    pub config: OptimizationConfig,
    /// Timing calibration.
    pub calib: Calib,
    /// Quantization state when compiled with [`OptimizationConfig::quant`];
    /// `None` for f32 deployments.
    pub quant: Option<DeploymentQuant>,
    /// Clean batch seconds per batch size, filled by
    /// [`Deployment::batch_seconds`]. A pool dispatches a few dozen sizes,
    /// so a list is enough.
    batch_memo: Mutex<Vec<(usize, f64)>>,
}

/// Every field but the batch memo, which caches derived values.
impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("graph", &self.graph)
            .field("plan", &self.plan)
            .field("bitstream", &self.bitstream)
            .field("device", &self.device)
            .field("config", &self.config)
            .field("calib", &self.calib)
            .field("quant", &self.quant)
            .finish()
    }
}

impl Deployment {
    /// Assembles a deployment from its parts. Normally produced by
    /// [`crate::Flow::compile`]; public so downstream users (and the
    /// integration tests) can deploy hand-built plans.
    pub fn new(
        graph: Graph,
        plan: ExecutionPlan,
        bitstream: BitstreamReport,
        device: DeviceModel,
        config: OptimizationConfig,
        calib: Calib,
    ) -> Self {
        Deployment {
            graph,
            plan,
            bitstream,
            device,
            config,
            calib,
            quant: None,
            batch_memo: Mutex::new(Vec::new()),
        }
    }

    /// The host-side quantized executor for a quantized deployment — the
    /// same grids the compiled kernels carry, run with integer MACs on the
    /// host. `None` for f32 deployments.
    pub fn quantized(&self) -> Option<fpgaccel_tensor::quant::QuantizedGraph<'_>> {
        self.quant.as_ref().map(|q| {
            fpgaccel_tensor::quant::QuantizedGraph::new(&self.graph, &q.calib, q.precision)
        })
    }

    /// Network FLOPs per forward pass.
    pub fn flops(&self) -> u64 {
        fpgaccel_tensor::flops::graph_flops(&self.graph)
    }

    /// One-line Quartus-style fit summary.
    pub fn fit_summary(&self) -> String {
        aoc_report::fit_summary(&self.bitstream)
    }

    /// Full fit report.
    pub fn fit_report(&self) -> String {
        aoc_report::full_report(&self.bitstream)
    }

    /// One-time deployment cost: transferring all network parameters to
    /// device global memory.
    pub fn setup_seconds(&self) -> f64 {
        let bytes = 4 * self.graph.param_count() as u64;
        self.device
            .link
            .transfer_seconds(bytes, fpgaccel_device::TransferDir::Write)
    }

    /// Runs one inference: real output tensor + simulated single-image
    /// latency.
    pub fn infer(&self, input: &Tensor) -> InferResult {
        let output = self.graph.execute(input);
        let stats = self.simulate_batch(1);
        InferResult {
            output,
            simulated_seconds: stats.seconds,
        }
    }

    /// Classifies an input.
    pub fn classify(&self, input: &Tensor) -> usize {
        self.graph.execute(input).argmax()
    }

    /// Simulates a steady-state batch of `n` images through the host plan
    /// and collects throughput statistics.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn simulate_batch(&self, n: usize) -> BatchStats {
        self.simulate_batch_traced(n, &Tracer::disabled(), "")
    }

    /// Simulated seconds of a clean batch of `n` images: the `seconds` of
    /// [`Deployment::simulate_batch`], simulated on the first call for each
    /// `n` and memoized in the deployment. Every pool, shard and
    /// calibration sharing the deployment shares the memo, so each size is
    /// simulated once per deployment.
    ///
    /// A deployment must not be mutated after its first call here, or the
    /// memo goes stale; serving callers hold it in an `Arc`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn batch_seconds(&self, n: usize) -> f64 {
        // The memo only ever gains a finished entry, so a simulation that
        // panicked under the lock left it valid.
        let mut memo = self
            .batch_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, s)) = memo.iter().find(|&&(m, _)| m == n) {
            return s;
        }
        let s = self.simulate_batch(n).seconds;
        memo.push((n, s));
        s
    }

    /// Distinct batch sizes [`Deployment::batch_seconds`] has simulated.
    pub fn memoized_batches(&self) -> usize {
        self.batch_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// [`Deployment::simulate_batch`] with every simulated OpenCL event
    /// also recorded on `tracer` as nested queued/submit/run slices, under
    /// a device track group named `label` (see `fpgaccel_runtime::timeline`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn simulate_batch_traced(&self, n: usize, tracer: &Tracer, label: &str) -> BatchStats {
        self.simulate_batch_full(n, tracer, label, &FaultInjector::disabled(), "")
    }

    /// [`Deployment::simulate_batch`] under a fault injector: transfers see
    /// the plan's active stalls and kernels see pending device hangs, both
    /// addressed to `target` in the injector's time view. A hung batch comes
    /// back with `seconds >= fpgaccel_fault::HANG_WATCHDOG_S`, which is how
    /// callers distinguish "device hung" from "batch was slow".
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn simulate_batch_faulted(
        &self,
        n: usize,
        injector: &FaultInjector,
        target: &str,
    ) -> BatchStats {
        self.simulate_batch_full(n, &Tracer::disabled(), "", injector, target)
    }

    fn simulate_batch_full(
        &self,
        n: usize,
        tracer: &Tracer,
        label: &str,
        injector: &FaultInjector,
        fault_target: &str,
    ) -> BatchStats {
        assert!(n > 0, "batch must contain at least one image");
        let mut sim = Sim::new(
            self.device.clone(),
            self.config.aoc,
            self.calib.clone(),
            self.bitstream.fmax_mhz,
        );
        sim.profiling = self.config.profiling;
        sim.reserve_kernels(self.bitstream.kernels.len());
        if tracer.is_enabled() {
            let label = if label.is_empty() {
                format!("{} {} x{}", self.device.platform, self.config.label, n)
            } else {
                label.to_string()
            };
            sim.set_tracer(tracer, &label);
        }
        if injector.is_enabled() {
            sim.set_fault_injector(injector, fault_target);
        }
        // Profiling analyses need the full timeline; otherwise keep only a
        // window of the newest events (all dependencies stay within the
        // current image) so long serving runs use bounded memory.
        if !self.config.profiling {
            let per_image = 2 + self.plan.ops().count();
            sim.retention = EventRetention::Recent((2 * per_image).max(64));
        }
        let in_bytes = 4 * self.graph.input_shape().numel() as u64;
        let out_bytes = 4 * self.graph.nodes[self.graph.output].out_shape.numel() as u64;

        // A folded plan runs on one in-order queue. Otherwise the custom
        // host gives every lane a queue (§4.8) and read-backs their own, so
        // input writes of image i+1 overlap output reads of image i (§5.2
        // asynchronous enqueuing).
        let folded = matches!(self.plan, ExecutionPlan::Folded(_));
        let concurrent = self.config.concurrent && !folded;
        let q_io = sim.create_queue();
        let q_read = if concurrent { sim.create_queue() } else { q_io };
        if concurrent {
            for _ in 0..self.plan.ops().last().map_or(0, |op| op.lane + 1) {
                sim.create_queue();
            }
        }
        // Lane queues follow the read queue in creation order.
        let lane_queue = |lane| if concurrent { q_read + 1 + lane } else { q_io };
        // The event profiler forces synchronous execution (§5.2). Without
        // channels, cross-queue dependencies can only be enforced through
        // CL events the host waits on, so concurrency buys nothing for a
        // global-memory chain (§4.8: kernels "may also be synchronized in
        // software using CL events"; Figure 6.1 shows CE paying off only on
        // the channel-enabled bitstreams).
        let sync_each = self.config.profiling
            || (!folded && (!self.config.concurrent || !self.config.channels));

        // Kernel name -> FLOPs over the batch, accumulated while enqueueing.
        let mut kernel_flops = HashMap::with_capacity(self.bitstream.kernels.len());
        // Per-image completion latency: every event's timestamps are fixed
        // at enqueue time, so each image's latency is known as soon as its
        // read-back is enqueued.
        let mut latencies: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            let write_ev = sim.enqueue_write(q_io, "input", in_bytes, &[]);
            let mut prev = write_ev;
            for op in self.plan.ops() {
                let report = self.bitstream.kernel(&op.kernel.name);
                let flops = node_flops(&self.graph, &self.graph.nodes[op.node_id]);
                *kernel_flops.entry(Arc::clone(&report.name)).or_default() += flops;
                let coupling = op.coupling.map(|fifo| ChannelCoupling {
                    producer: prev,
                    fifo,
                });
                // A coupled launch reads its producer's channel; any other
                // launch reads the previous one's output in global memory.
                let after = coupling.is_none().then_some(prev);
                let queue = (!op.kernel.autorun).then(|| lane_queue(op.lane));
                prev = sim.enqueue_kernel(queue, report, op.binding, after.as_slice(), coupling);
                if sync_each {
                    sim.wait(prev);
                }
            }
            let read_ev = sim.enqueue_read(q_read, "output", out_bytes, &[prev]);
            latencies.push(sim.event(read_ev).end - sim.event(write_ev).queued);
            if sync_each || folded {
                sim.wait(read_ev);
            } else {
                // Even the asynchronous host must process each image's
                // completion (result retrieval/verification, §5.2) — one
                // task-overhead per image.
                sim.host_work(self.calib.task_overhead(self.device.platform));
            }
        }
        sim.finish();
        self.batch_stats(sim, kernel_flops, latencies)
    }

    /// The statistics of a finished batch simulation.
    fn batch_stats(
        &self,
        sim: Sim,
        kernel_flops: HashMap<Arc<str>, u64>,
        latencies: Vec<f64>,
    ) -> BatchStats {
        let n = latencies.len();
        let seconds = sim.last_event_end().max(sim.now());
        let fps = n as f64 / seconds;
        let gflops = fps * self.flops() as f64 / 1e9;
        let latency = LatencyQuantiles::of(&latencies);
        BatchStats {
            images: n,
            seconds,
            fps,
            gflops,
            breakdown: sim.breakdown(),
            events: sim.events().to_vec(),
            kernel_seconds: sim.into_kernel_seconds(),
            kernel_flops,
            latencies,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use crate::options::{OptimizationConfig, TilingPreset};
    use fpgaccel_device::FpgaPlatform;
    use fpgaccel_tensor::models::Model;
    use fpgaccel_tensor::{data, Shape};

    fn lenet(platform: FpgaPlatform, cfg: &OptimizationConfig) -> Deployment {
        Flow::new(Model::LeNet5, platform).compile(cfg).unwrap()
    }

    /// Serving and the fleet share deployments as `Arc<Deployment>`, so a
    /// deployment, kernels included, must stay shareable across threads.
    #[test]
    fn deployments_can_be_shared_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Deployment>();
    }

    #[test]
    fn infer_returns_probabilities_and_time() {
        let d = lenet(
            FpgaPlatform::Stratix10Sx,
            &OptimizationConfig::tvm_autorun(),
        );
        let r = d.infer(&data::synthetic_digit(4, 0));
        assert_eq!(r.output.shape(), &Shape::d1(10));
        assert!((r.output.sum() - 1.0).abs() < 1e-5);
        assert!(r.simulated_seconds > 0.0 && r.simulated_seconds < 0.1);
    }

    #[test]
    fn faulted_batch_detects_hangs_and_is_deterministic() {
        use fpgaccel_fault::{FaultEvent, FaultKind, FaultPlan, HANG_WATCHDOG_S};
        let d = lenet(
            FpgaPlatform::Stratix10Sx,
            &OptimizationConfig::tvm_autorun().with_concurrent(),
        );
        let clean = d.simulate_batch(8);
        // Disabled injector: byte-identical to the plain path.
        let disabled = d.simulate_batch_faulted(8, &FaultInjector::disabled(), "dev");
        assert_eq!(clean.seconds, disabled.seconds);
        assert_eq!(clean.latencies, disabled.latencies);
        // A hang mid-batch pushes the batch past the watchdog.
        let plan = FaultPlan::new(
            0,
            vec![FaultEvent {
                at_s: clean.seconds * 0.5,
                target: "dev".into(),
                kind: FaultKind::DeviceHang,
            }],
        );
        let hung = d.simulate_batch_faulted(8, &FaultInjector::new(plan.clone()), "dev");
        assert!(hung.seconds >= HANG_WATCHDOG_S);
        let hung2 = d.simulate_batch_faulted(8, &FaultInjector::new(plan), "dev");
        assert_eq!(hung.seconds, hung2.seconds, "same plan, same timeline");
    }

    #[test]
    fn optimizations_ladder_improves_lenet_fps() {
        // The Figure 6.1 property: each added optimization helps, and
        // concurrent execution helps most.
        let p = FpgaPlatform::Stratix10Sx;
        let fps = |cfg: &OptimizationConfig| lenet(p, cfg).simulate_batch(64).fps;
        let base = fps(&OptimizationConfig::base());
        let unroll = fps(&OptimizationConfig::unrolling());
        let autorun = fps(&OptimizationConfig::autorun());
        let ce = fps(&OptimizationConfig::tvm_autorun().with_concurrent());
        assert!(unroll > base, "unrolling {unroll} !> base {base}");
        assert!(autorun >= unroll, "autorun {autorun} !>= unroll {unroll}");
        assert!(ce > 1.5 * autorun, "CE {ce} !>> autorun {autorun}");
        // End-to-end ladder in the thesis ballpark (9-10x on the S10SX).
        let ladder = ce / base;
        assert!(
            (3.0..40.0).contains(&ladder),
            "ladder {ladder} out of plausible range"
        );
    }

    #[test]
    fn batch_throughput_beats_single_image_latency() {
        let d = lenet(
            FpgaPlatform::Stratix10Sx,
            &OptimizationConfig::tvm_autorun().with_concurrent(),
        );
        let one = d.simulate_batch(1).seconds;
        let many = d.simulate_batch(50);
        assert!(many.seconds / 50.0 < one, "pipelining should amortize");
        assert!(many.fps > 0.0);
    }

    #[test]
    fn folded_mobilenet_profiles_per_kernel() {
        let d = Flow::new(Model::MobileNetV1, FpgaPlatform::Stratix10Sx)
            .compile(&OptimizationConfig::folded(TilingPreset::MobileNet {
                one_by_one: (7, 16, 4),
            }))
            .unwrap();
        let stats = d.simulate_batch(2);
        assert!(stats.fps > 0.1, "fps {}", stats.fps);
        // 1x1 convolutions dominate FLOPs; pads have zero FLOPs but
        // nonzero time (Table 6.8).
        let one = stats.kernel_gflops("conv2d_1x1_s1_relu6");
        assert!(one > 1.0, "1x1 gflops {one}");
        assert_eq!(stats.kernel_gflops("pad_any"), 0.0);
        assert!(stats.kernel_time_share("pad_any") > 0.02);
        let share_sum: f64 = stats
            .kernel_seconds
            .keys()
            .map(|k| stats.kernel_time_share(k))
            .sum();
        assert!((share_sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn profiling_synchronizes_every_folded_launch() {
        // §5.2: the event profiler disables asynchronous enqueuing, so the
        // host submits each kernel only once the previous one has ended.
        let cfg = OptimizationConfig::folded_base().with_profiling();
        let stats = lenet(FpgaPlatform::Stratix10Sx, &cfg).simulate_batch(2);
        let kernels: Vec<_> = stats
            .events
            .iter()
            .filter(|e| e.kind == fpgaccel_runtime::EventKind::Kernel)
            .collect();
        assert!(kernels.len() > 1);
        for pair in kernels.windows(2) {
            assert!(
                pair[1].submit >= pair[0].end,
                "`{}` submitted at {} before `{}` ended at {}",
                pair[1].name,
                pair[1].submit,
                pair[0].name,
                pair[0].end
            );
        }
    }

    #[test]
    fn batch_latencies_have_sane_quantiles() {
        let d = lenet(
            FpgaPlatform::Stratix10Sx,
            &OptimizationConfig::tvm_autorun().with_concurrent(),
        );
        let stats = d.simulate_batch(64);
        assert_eq!(stats.latencies.len(), 64);
        assert!(stats.latencies.iter().all(|&l| l > 0.0));
        let q = stats.latency;
        assert!(q.p50 > 0.0);
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.max);
        // Every per-image latency fits within the whole batch span.
        assert!(q.max <= stats.seconds);
    }

    #[test]
    fn bounded_retention_leaves_aggregates_unchanged() {
        // Profiling keeps the full trace; the default drops old events. The
        // throughput statistics must be identical either way.
        let p = FpgaPlatform::Stratix10Sx;
        let cfg = OptimizationConfig::tvm_autorun();
        let full = lenet(p, &cfg.clone().with_profiling()).simulate_batch(40);
        let ring = lenet(p, &cfg).simulate_batch(40);
        // Profiling itself adds host overhead, so compare the ring run
        // against its own invariants instead of the profiled timings.
        assert!(full.events.len() >= ring.events.len());
        assert_eq!(ring.latencies.len(), 40);
        assert!(ring.fps >= full.fps);
    }

    #[test]
    fn latency_model_predicts_batch_seconds() {
        let d = lenet(
            FpgaPlatform::Stratix10Sx,
            &OptimizationConfig::tvm_autorun().with_concurrent(),
        );
        let m = BatchLatencyModel::calibrate(&d, 16);
        assert!(m.base_s >= 0.0 && m.per_image_s > 0.0);
        let actual = d.simulate_batch(48).seconds;
        let predicted = m.seconds(48);
        let err = (predicted - actual).abs() / actual;
        assert!(err < 0.15, "prediction off by {:.1}%", err * 100.0);
        // More images always predicted slower.
        assert!(m.seconds(10) < m.seconds(11));
    }

    #[test]
    fn memoized_batch_seconds_match_a_fresh_simulation_bit_for_bit() {
        use crate::bitstreams::optimized_config;
        for model in Model::ALL {
            for platform in FpgaPlatform::ALL {
                let Ok(d) = Flow::new(model, platform).compile(&optimized_config(model, platform))
                else {
                    continue;
                };
                for n in [1, 4, 16] {
                    let fresh = d.simulate_batch(n).seconds;
                    assert_eq!(d.batch_seconds(n).to_bits(), fresh.to_bits());
                    assert_eq!(d.batch_seconds(n).to_bits(), fresh.to_bits());
                }
                assert_eq!(d.memoized_batches(), 3, "{model:?} on {platform:?}");
                // The calibration the pool used before the memo: two
                // simulations of its own.
                let probe = 16;
                let one = d.simulate_batch(1).seconds;
                let many = d.simulate_batch(probe).seconds;
                let per_image_s = ((many - one) / (probe - 1) as f64).max(1e-12);
                let old = BatchLatencyModel {
                    base_s: (one - per_image_s).max(0.0),
                    per_image_s,
                };
                assert_eq!(BatchLatencyModel::calibrate(&d, probe), old);
                assert_eq!(d.memoized_batches(), 3, "calibration read the memo");
            }
        }
    }

    #[test]
    fn traced_compile_and_batch_record_spans() {
        let tracer = fpgaccel_trace::Tracer::enabled();
        let d = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx)
            .with_tracer(&tracer)
            .compile(&OptimizationConfig::tvm_autorun())
            .unwrap();
        let compile_spans = tracer.span_count();
        // compile, import, schedule+codegen, memory check, aoc synthesis.
        assert!(compile_spans >= 5, "got {compile_spans} flow phases");
        let stats = d.simulate_batch_traced(2, &tracer, "lenet-s10sx");
        let spans = tracer.events();
        // Three slices per simulated event, on top of the flow phases.
        assert_eq!(spans.len() - compile_spans, 3 * stats.events.len());
        // The run-slice busy time equals the live breakdown's busy time.
        let busy_us: f64 = spans
            .iter()
            .filter(|s| s.args.iter().any(|(k, v)| k == "phase" && v == "run"))
            .map(|s| s.dur_us)
            .sum();
        let live = stats.breakdown.kernel_s + stats.breakdown.write_s + stats.breakdown.read_s;
        assert!((busy_us / 1e6 - live).abs() < 1e-9);
    }

    #[test]
    fn untraced_batch_records_nothing() {
        let d = lenet(FpgaPlatform::Stratix10Sx, &OptimizationConfig::base());
        let tracer = fpgaccel_trace::Tracer::disabled();
        d.simulate_batch_traced(1, &tracer, "x");
        assert_eq!(tracer.span_count(), 0);
    }

    #[test]
    fn setup_transfers_all_parameters_once() {
        let d = lenet(FpgaPlatform::Stratix10Sx, &OptimizationConfig::base());
        let s = d.setup_seconds();
        assert!(s > 0.0 && s < 0.1);
    }
}
