//! Every kernel the kernel golden (`kernel_golden.rs`) and the synthesis
//! golden (`synth_golden.rs`) pin: the designs, each with the graph a
//! `Flow` compiles it from, and the generator matrix. See
//! `kernel_golden.rs` for what the designs and the matrix cover.

#![allow(dead_code)]

use fpgaccel::aoc::Calib;
use fpgaccel::core::bitstreams::{
    baseline_config, lenet_ladder, mobilenet_tile, optimized_config, TABLE_6_6_TILINGS,
};
use fpgaccel::core::deploy::{Deployment, ExecutionPlan};
use fpgaccel::core::kernels::{build_folded, build_pipelined};
use fpgaccel::core::{
    build_dataflow, ExecMode, Flow, FlowError, OptimizationConfig, QuantSpec, TilingPreset,
};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::tensor::graph::{Graph, Op};
use fpgaccel::tensor::models::Model;
use fpgaccel::tensor::ops::Activation;
use fpgaccel::tensor::quant::QuantPrecision;
use fpgaccel::tensor::Shape;
use fpgaccel::tir::compute::{
    self, ConvDims, ConvSchedule, ConvSpec, DenseSchedule, DenseSpec, EpilogueSpec, IoMode,
    PoolKind,
};
use fpgaccel::tir::{Dim, Kernel};

/// 64-bit FNV-1a.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The FNV-1a digest of a value's `{:?}` form.
pub fn digest(v: &impl std::fmt::Debug) -> String {
    format!("{:016x}", fnv64(&format!("{v:?}")))
}

/// One pinned design: a name, the platform and configuration it is built
/// for, the graph a `Flow` compiles it from, and the kernels its plan
/// carries or the reason the plan could not be built.
pub struct Design {
    pub name: String,
    pub platform: FpgaPlatform,
    pub config: OptimizationConfig,
    /// The unfused zoo graph, or the design's own graph.
    pub source: Graph,
    pub kernels: Result<Vec<Kernel>, String>,
}

impl Design {
    /// Compiles the design end to end through a `Flow` over its source.
    pub fn compile(&self) -> Result<Deployment, FlowError> {
        Flow::for_graph(self.source.clone(), self.platform).compile(&self.config)
    }
}

/// Builds a design's plan on `graph` as `Flow::compile` does, stopping
/// before synthesis.
fn planned(
    name: String,
    graph: &Graph,
    source: &Graph,
    platform: FpgaPlatform,
    config: &OptimizationConfig,
) -> Design {
    let kernels = match config.mode {
        ExecMode::Pipelined => build_pipelined(graph, config)
            .map(|stages| stages.into_iter().map(|s| s.kernel).collect()),
        ExecMode::Folded => build_folded(graph, config).map(|p| p.kernels),
        ExecMode::Dataflow => {
            build_dataflow(graph, config, &platform.model(), &Calib::default()).map(|p| p.kernels)
        }
    };
    Design {
        name,
        platform,
        config: config.clone(),
        source: source.clone(),
        kernels: kernels.map_err(|e| e.to_string()),
    }
}

/// Compiles a design end to end and pins the deployed kernels.
fn compiled(
    model: Model,
    source: &Graph,
    platform: FpgaPlatform,
    config: &OptimizationConfig,
) -> Design {
    let mut design = Design {
        name: label(model, platform, config),
        platform,
        config: config.clone(),
        source: source.clone(),
        kernels: Ok(Vec::new()),
    };
    design.kernels = design
        .compile()
        .map(|d| match d.plan {
            ExecutionPlan::Pipelined(stages) => stages.into_iter().map(|s| s.kernel).collect(),
            ExecutionPlan::Folded(plan) => plan.kernels,
            ExecutionPlan::Dataflow(plan) => plan.kernels,
        })
        .map_err(|e| e.to_string());
    design
}

fn label(model: Model, platform: FpgaPlatform, config: &OptimizationConfig) -> String {
    label_of(model.name(), platform, config)
}

fn label_of(network: &str, platform: FpgaPlatform, config: &OptimizationConfig) -> String {
    format!(
        "{network}/{}/{} {:?}",
        platform.label(),
        config.label,
        config.tiling
    )
}

/// A chain headed by a depthwise convolution, so its dataflow stage reads
/// global memory, then a 1x1 convolution, average pooling, flatten, and a
/// dense layer over 64 inputs.
fn dw_head() -> Graph {
    let conv = |out_channels, kernel, depthwise| Op::Conv2d {
        out_channels,
        kernel,
        stride: 1,
        pad: 0,
        depthwise,
    };
    let mut g = Graph::new("dw_head", Shape::chw(8, 12, 12));
    g.push("dw", conv(8, 3, true), vec![0]);
    g.push("pw", conv(16, 1, false), vec![1]);
    let pool = Op::AvgPool {
        window: 5,
        stride: 5,
        pad: 0,
    };
    g.push("pool", pool, vec![2]);
    g.push("flatten", Op::Flatten, vec![3]);
    g.push("fc", Op::Dense { units: 10 }, vec![4]);
    g.push("softmax", Op::Softmax, vec![5]);
    g
}

/// Every pinned design, in fixture order.
pub fn designs() -> Vec<Design> {
    // Each zoo model's source graph and its import; the two share weights.
    let zoo: Vec<(Model, Graph, Graph)> = Model::ALL
        .iter()
        .map(|&m| {
            let source = m.build();
            let graph = Flow::for_graph(source.clone(), FpgaPlatform::Stratix10Sx).import_graph();
            (m, source, graph)
        })
        .collect();
    let zoo = |m: Model| zoo.iter().find(|(z, ..)| *z == m).expect("zoo model");
    let plan = |m: Model, p: FpgaPlatform, c: &OptimizationConfig| {
        let (_, source, graph) = zoo(m);
        planned(label(m, p, c), graph, source, p, c)
    };

    // The benchmark's `sweep` design space, in its order.
    let mut v = Vec::new();
    for p in FpgaPlatform::ALL {
        for m in [Model::MobileNetV1, Model::ResNet18, Model::ResNet34] {
            v.push(plan(m, p, &baseline_config(m)));
            v.push(plan(m, p, &optimized_config(m, p)));
        }
        for rung in lenet_ladder() {
            v.push(plan(Model::LeNet5, p, &rung));
            v.push(plan(Model::LeNet5, p, &rung.clone().with_concurrent()));
        }
        let tile = TilingPreset::MobileNet {
            one_by_one: mobilenet_tile(p),
        };
        v.push(plan(
            Model::MobileNetV1,
            p,
            &OptimizationConfig::dataflow(tile),
        ));
    }
    for &one_by_one in TABLE_6_6_TILINGS {
        let cfg = OptimizationConfig::folded(TilingPreset::MobileNet { one_by_one });
        v.push(plan(Model::MobileNetV1, FpgaPlatform::Arria10Gx, &cfg));
    }
    assert_eq!(v.len(), 58, "the sweep workload's design count");

    let sx = FpgaPlatform::Stratix10Sx;
    let mut ablation = optimized_config(Model::MobileNetV1, sx);
    ablation.explicit_strides = true;
    ablation.label.push_str(" explicit-strides");
    v.push(plan(Model::MobileNetV1, sx, &ablation));

    let mut per_layer = optimized_config(Model::MobileNetV1, sx);
    per_layer.parameterized = false;
    per_layer.label.push_str(" per-layer");
    v.push(plan(Model::MobileNetV1, sx, &per_layer));

    let naive = OptimizationConfig::dataflow(TilingPreset::Naive);
    v.push(plan(Model::LeNet5, sx, &naive));
    let undivided = OptimizationConfig::dataflow(TilingPreset::MobileNet {
        one_by_one: mobilenet_tile(sx),
    });
    v.push(plan(Model::LeNet5, sx, &undivided));
    let mut unoptimized = OptimizationConfig::dataflow(TilingPreset::Naive);
    unoptimized.optimized_schedules = false;
    unoptimized.label.push_str(" unoptimized");
    v.push(plan(Model::LeNet5, sx, &unoptimized));

    let uniform = OptimizationConfig::folded(TilingPreset::Uniform {
        w2vec: 1,
        c2vec: 1,
        c1vec: 1,
    });
    v.push(plan(Model::LeNet5, sx, &uniform));
    let tile = TilingPreset::MobileNet {
        one_by_one: mobilenet_tile(sx),
    };
    let dataflow = OptimizationConfig::dataflow(tile);
    let dw_head = dw_head();
    let name = label_of("dw-head", sx, &dataflow);
    v.push(planned(name, &dw_head, &dw_head, sx, &dataflow));

    let mut indivisible = OptimizationConfig::unrolling();
    indivisible.dense_unroll = vec![7];
    indivisible.label.push_str(" dense-unroll-7");
    v.push(plan(Model::LeNet5, sx, &indivisible));
    let folded_base = OptimizationConfig::folded_base();
    let name = label_of("LeNet-5 unfused", sx, &folded_base);
    let unfused = &zoo(Model::LeNet5).1;
    v.push(planned(name, unfused, unfused, sx, &folded_base));

    // Calibration reads the weights, so the quantized designs compile
    // from a LeNet-5 graph of their own and leave the zoo's ungenerated.
    let lenet = Model::LeNet5.build();
    for precision in [QuantPrecision::Int8, QuantPrecision::Fp16] {
        let cfg = optimized_config(Model::LeNet5, sx).with_quant(QuantSpec::new(precision));
        v.push(compiled(Model::LeNet5, &lenet, sx, &cfg));
    }
    v
}

/// The matrix's I/O modes on one side of a kernel. Every row and every
/// flattened length in the matrix is even and none is a multiple of 7.
fn io_modes(chan: &str) -> [(&'static str, IoMode); 4] {
    [
        ("global", IoMode::Global),
        ("chan", IoMode::channel(chan, 16)),
        ("wide2", IoMode::channel_wide(chan, 16, 2)),
        ("wide7", IoMode::channel_wide(chan, 16, 7)),
    ]
}

/// Every (input, output) pair of I/O modes.
fn io_pairs() -> Vec<(String, IoMode, IoMode)> {
    let mut v = Vec::new();
    for (a, io_in) in io_modes("mx_in") {
        for (b, io_out) in io_modes("mx_out") {
            v.push((format!("in={a} out={b}"), io_in.clone(), io_out));
        }
    }
    v
}

/// The pairs whose input is a channel (the streaming generators' domain).
fn stream_pairs() -> Vec<(String, IoMode, IoMode)> {
    io_pairs()
        .into_iter()
        .filter(|(_, io_in, _)| *io_in != IoMode::Global)
        .collect()
}

fn epilogues() -> [(&'static str, EpilogueSpec); 2] {
    [
        ("plain", EpilogueSpec::default()),
        (
            "full",
            EpilogueSpec {
                bias: true,
                bn: true,
                residual: true,
                activation: Activation::Relu6,
            },
        ),
    ]
}

fn conv_schedules(dw: bool) -> [(&'static str, ConvSchedule); 4] {
    let c = if dw { 1 } else { 2 };
    [
        ("base", ConvSchedule::Base),
        ("fused", ConvSchedule::Fused { unroll_ff: false }),
        ("fused-ff", ConvSchedule::Fused { unroll_ff: true }),
        (
            "tiled",
            ConvSchedule::Tiled {
                w2vec: 2,
                c2vec: c,
                c1vec: c,
            },
        ),
    ]
}

/// Constant 3x3 geometry: 4 channels in and out, a 4x4 output, and at
/// stride 2 an input one row and column larger than the minimum.
fn conv_dims(s: usize) -> ConvDims {
    let d = ConvDims::constant(4, 4, 4, 4, 3, s);
    if s == 2 {
        d.with_input(Dim::Const(10), Dim::Const(10))
    } else {
        d
    }
}

fn symbolic_dims(dw: bool, s: usize) -> ConvDims {
    ConvDims {
        c2: Dim::sym("ff"),
        c1: Dim::sym(if dw { "ff" } else { "rc" }),
        h2: Dim::sym("hh"),
        w2: Dim::sym("ww"),
        h1: Dim::sym("ih"),
        w1: Dim::sym("iw"),
        f: 3,
        s,
    }
}

fn conv_matrix(out: &mut Vec<(String, Kernel)>) {
    for s in [1, 2] {
        for dw in [false, true] {
            for (e, epilogue) in epilogues() {
                for (sn, schedule) in conv_schedules(dw) {
                    for (io, io_in, io_out) in io_pairs() {
                        let spec = ConvSpec {
                            name: "mx_conv".into(),
                            dims: conv_dims(s),
                            depthwise: dw,
                            epilogue: epilogue.clone(),
                            io_in,
                            io_out,
                            schedule: schedule.clone(),
                            explicit_strides: false,
                        };
                        let label = format!("conv2d s{s} dw={dw} {e} {sn} {io}");
                        out.push((label, compute::conv2d(&spec)));
                    }
                }
                for (io, io_in, io_out) in stream_pairs().into_iter().filter(|_| dw) {
                    let spec = ConvSpec {
                        name: "mx_dw_stream".into(),
                        dims: conv_dims(s),
                        depthwise: true,
                        epilogue: epilogue.clone(),
                        io_in,
                        io_out,
                        schedule: ConvSchedule::Fused { unroll_ff: true },
                        explicit_strides: false,
                    };
                    let label = format!("conv2d_dw_stream s{s} {e} {io}");
                    out.push((label, compute::conv2d_dw_stream(&spec)));
                }
                for explicit in [false, true] {
                    for (sn, schedule) in conv_schedules(dw) {
                        let pairs = [
                            ("in=global out=global", IoMode::Global, IoMode::Global),
                            (
                                "in=wide2 out=wide7",
                                IoMode::channel_wide("mx_in", 16, 2),
                                IoMode::channel_wide("mx_out", 16, 7),
                            ),
                        ];
                        for (io, io_in, io_out) in pairs {
                            let spec = ConvSpec {
                                name: "mx_conv_sym".into(),
                                dims: symbolic_dims(dw, s),
                                depthwise: dw,
                                epilogue: epilogue.clone(),
                                io_in,
                                io_out,
                                schedule: schedule.clone(),
                                explicit_strides: explicit,
                            };
                            let label = format!(
                                "conv2d symbolic s{s} dw={dw} {e} {sn} explicit={explicit} {io}"
                            );
                            out.push((label, compute::conv2d(&spec)));
                        }
                    }
                }
            }
        }
    }
}

fn dense_matrix(out: &mut Vec<(String, Kernel)>) {
    let schedules = [
        ("base", DenseSchedule::Base),
        ("unrolled4", DenseSchedule::Unrolled { factor: 4 }),
    ];
    for (e, epilogue) in epilogues() {
        for (sn, schedule) in &schedules {
            for (io, io_in, io_out) in io_pairs() {
                let spec = DenseSpec {
                    name: "mx_dense".into(),
                    m: Dim::Const(6),
                    n: Dim::Const(8),
                    epilogue: epilogue.clone(),
                    io_in,
                    io_out,
                    schedule: schedule.clone(),
                };
                out.push((format!("dense {e} {sn} {io}"), compute::dense(&spec)));
            }
            let spec = DenseSpec {
                name: "mx_dense_sym".into(),
                m: Dim::sym("m"),
                n: Dim::sym("n"),
                epilogue: epilogue.clone(),
                io_in: IoMode::channel_wide("mx_in", 16, 2),
                io_out: IoMode::Global,
                schedule: schedule.clone(),
            };
            let label = format!("dense symbolic {e} {sn} in=wide2 out=global");
            out.push((label, compute::dense(&spec)));
        }
    }
}

fn pool_matrix(out: &mut Vec<(String, Kernel)>) {
    // (window, stride, input side): the last drains one input row.
    let shapes = [(2, 2, 8), (3, 1, 8), (3, 2, 10)];
    for kind in [PoolKind::Max, PoolKind::Avg] {
        for (window, stride, side) in shapes {
            let shape = format!("{kind:?} w{window} s{stride} {side}x{side}");
            for (io, io_in, io_out) in io_pairs() {
                let k = compute::pool(
                    "mx_pool", kind, 2, side, side, window, stride, io_in, io_out,
                );
                out.push((format!("pool {shape} {io}"), k));
            }
            for (io, io_in, io_out) in stream_pairs() {
                let k = compute::pool_stream(
                    "mx_pool_stream",
                    kind,
                    2,
                    side,
                    side,
                    window,
                    stride,
                    io_in,
                    io_out,
                );
                out.push((format!("pool_stream {shape} {io}"), k));
            }
        }
    }
}

fn pad_softmax_copy_matrix(out: &mut Vec<(String, Kernel)>) {
    for p in [1, 2] {
        for (io, io_in, io_out) in io_pairs() {
            let k = compute::pad("mx_pad", 2, 4, 4, p, io_in, io_out);
            out.push((format!("pad p{p} {io}"), k));
        }
        for (io, io_in, io_out) in stream_pairs() {
            let k = compute::pad_stream("mx_pad_stream", 2, 4, 4, p, io_in, io_out);
            out.push((format!("pad_stream p{p} {io}"), k));
        }
    }
    out.push(("pad_param".into(), compute::pad_param("mx_pad_param")));
    for optimized in [false, true] {
        for (io, io_in, io_out) in io_pairs() {
            let k = compute::softmax("mx_softmax", 8, io_in, io_out, optimized);
            out.push((format!("softmax optimized={optimized} {io}"), k));
        }
    }
    for (io, io_in, io_out) in io_pairs() {
        out.push((
            format!("copy {io}"),
            compute::copy("mx_copy", 8, io_in, io_out),
        ));
    }
}

/// Every generator-matrix kernel with its label, in fixture order.
pub fn matrix() -> Vec<(String, Kernel)> {
    let mut out = Vec::new();
    conv_matrix(&mut out);
    dense_matrix(&mut out);
    pool_matrix(&mut out);
    pad_softmax_copy_matrix(&mut out);
    out
}
