//! One function per thesis table/figure, each returning a printable report
//! with the thesis-reported values alongside (from [`crate::paper`]).

use crate::paper;
use crate::table::{f, opt, pct, Table};
use fpgaccel_baseline::{reference_fps, Framework};
use fpgaccel_core::bitstreams::{
    baseline_config, lenet_ladder, mobilenet_tile, optimized_config, TABLE_6_6_TILINGS,
};
use fpgaccel_core::dse::sweep_1x1;
use fpgaccel_core::{Deployment, Flow, FlowError, OptimizationConfig};
use fpgaccel_device::{FpgaPlatform, TransferDir};
use fpgaccel_tensor::flops::{format_flops, format_params, graph_flops};
use fpgaccel_tensor::models::Model;

const LENET_BATCH: usize = 500;
const BIG_BATCH: usize = 3;

fn compile(
    model: Model,
    platform: FpgaPlatform,
    cfg: &OptimizationConfig,
) -> Result<Deployment, FlowError> {
    Flow::new(model, platform).compile(cfg)
}

fn batch_for(model: Model) -> usize {
    if model == Model::LeNet5 {
        LENET_BATCH
    } else {
        BIG_BATCH
    }
}

/// Tables 6.1–6.3: platform inventories.
pub fn platforms() -> String {
    let mut t = Table::new(
        "Tables 6.1/6.2 — FPGA platforms",
        &[
            "platform",
            "ALUTs",
            "FFs",
            "RAMs",
            "DSPs",
            "ext BW GB/s",
            "Quartus",
            "base fmax",
        ],
    );
    for p in FpgaPlatform::ALL {
        let m = p.model();
        t.row(&[
            p.label().to_string(),
            m.total.alut.to_string(),
            m.total.ff.to_string(),
            m.total.ram.to_string(),
            m.total.dsp.to_string(),
            f(m.ext_mem_bw / 1e9),
            format!("{}.{}", m.quartus_version / 10, m.quartus_version % 10),
            f(m.base_fmax_mhz),
        ]);
    }
    let cpu = fpgaccel_device::hostref::CpuDescriptor::xeon_8280();
    let gpu = fpgaccel_device::hostref::GpuDescriptor::gtx_1060();
    format!(
        "{}\nTable 6.3 hosts: {} ({} threads); {}\n",
        t.render(),
        cpu.name,
        cpu.total_threads(),
        gpu.name
    )
}

/// Figure 6.1: LeNet FPS per bitstream x platform, serial vs concurrent.
pub fn fig6_1() -> String {
    let mut t = Table::new(
        "Figure 6.1 — LeNet FPS per optimization bitstream (batch steady state)",
        &["platform", "bitstream", "FPS", "FPS [CE]", "fit"],
    );
    for p in FpgaPlatform::ALL {
        for cfg in lenet_ladder() {
            let serial = compile(Model::LeNet5, p, &cfg).expect("LeNet fits");
            let ce = compile(Model::LeNet5, p, &cfg.clone().with_concurrent()).expect("fits");
            t.row(&[
                p.label().to_string(),
                cfg.label.clone(),
                f(serial.simulate_batch(LENET_BATCH).fps),
                f(ce.simulate_batch(LENET_BATCH).fps),
                serial.fit_summary(),
            ]);
        }
    }
    format!(
        "{}\nPaper endpoints: Base 564/524/402 FPS; best (TVM-Autorun+CE) 1706/4917/2653 FPS \
         for S10MX/S10SX/A10.\n",
        t.render()
    )
}

/// Figure 6.2: OpenCL event-profile breakdown, base vs autorun bitstreams.
pub fn fig6_2() -> String {
    let mut t = Table::new(
        "Figure 6.2 — event-profile breakdown (share of device-busy time)",
        &[
            "platform",
            "bitstream",
            "kernel",
            "write",
            "read",
            "host overhead of span",
        ],
    );
    for p in FpgaPlatform::ALL {
        for cfg in [OptimizationConfig::base(), OptimizationConfig::autorun()] {
            let d = compile(Model::LeNet5, p, &cfg).expect("LeNet fits");
            let stats = d.simulate_batch(50);
            let (k, w, r) = stats.breakdown.fractions();
            t.row(&[
                p.label().to_string(),
                cfg.label.clone(),
                pct(k * 100.0),
                pct(w * 100.0),
                pct(r * 100.0),
                pct(stats.breakdown.overhead_fraction() * 100.0),
            ]);
        }
    }
    format!(
        "{}\nPaper: the S10MX spends far more time on writes than the other platforms; for the \
         base bitstreams most of the span is host overhead (\"kernel times are short\").\n",
        t.render()
    )
}

/// Table 6.5: LeNet per-bitstream area/fmax vs paper.
pub fn tab6_5() -> String {
    let mut t = Table::new(
        "Table 6.5 — LeNet bitstream area (model | paper)",
        &[
            "platform",
            "bitstream",
            "logic",
            "RAM",
            "DSP",
            "fmax",
            "paper (logic/RAM/DSP/fmax)",
        ],
    );
    for p in FpgaPlatform::ALL {
        for cfg in lenet_ladder() {
            let d = compile(Model::LeNet5, p, &cfg).expect("fits");
            let (logic, ram, dsp) = d.bitstream.utilization;
            let paper = paper::lenet_area(&cfg.label, p)
                .map(|(l, r, ds, fm)| format!("{l:.0}%/{r:.0}%/{ds:.0}%/{fm:.0}MHz"))
                .unwrap_or_default();
            t.row(&[
                p.label().to_string(),
                cfg.label.clone(),
                pct(logic),
                pct(ram),
                pct(dsp),
                format!("{:.0} MHz", d.bitstream.fmax_mhz),
                paper,
            ]);
        }
    }
    t.render()
}

/// Table 6.6 + Figure 6.3: the 1x1-conv tiling sweep on the Arria 10.
pub fn fig6_3() -> String {
    let mut t = Table::new(
        "Table 6.6 / Figure 6.3 — 1x1-conv tiling sweep, Arria 10 (model | paper)",
        &[
            "cfg",
            "W2/C2/C1",
            "DSPs",
            "fmax",
            "logic",
            "RAM",
            "1x1 time/img",
            "speedup vs base",
            "paper DSP",
            "paper fmax",
        ],
    );
    let points = sweep_1x1(
        Model::MobileNetV1,
        FpgaPlatform::Arria10Gx,
        TABLE_6_6_TILINGS,
    );
    // Base-schedule 1x1 time for the speedup column.
    let base = sweep_base_1x1_seconds();
    for (i, pnt) in points.iter().enumerate() {
        let (w2, c2, c1) = pnt.tile;
        let paper_row = paper::TABLE_6_6[i];
        match &pnt.result {
            Ok(m) => {
                let (logic, ram, _) = m.utilization;
                t.row(&[
                    (i + 1).to_string(),
                    format!("{w2}/{c2}/{c1}"),
                    m.dsps.to_string(),
                    f(m.fmax_mhz),
                    pct(logic),
                    pct(ram),
                    format!("{:.2} ms", m.conv1x1_seconds * 1e3),
                    format!("{:.0}x", base / m.conv1x1_seconds),
                    paper_row.5.to_string(),
                    f(paper_row.6),
                ]);
            }
            Err(e) => {
                t.row(&[
                    (i + 1).to_string(),
                    format!("{w2}/{c2}/{c1}"),
                    format!("FAILED: {e}"),
                ]);
            }
        }
    }
    format!(
        "{}\nPaper: speedups over the base schedule range 64x (cfg 1) to 123x (cfg 7); the base \
         schedule takes 1326 ms for all 1x1 convolutions (Figure 6.3).\n",
        t.render()
    )
}

fn sweep_base_1x1_seconds() -> f64 {
    // The naive 1x1 schedule timed the same way as the sweep points.
    let graph = Model::MobileNetV1.build().fuse().materialize_padding();
    let mut cfg = OptimizationConfig::folded(fpgaccel_core::TilingPreset::Naive);
    cfg.optimized_schedules = false;
    let calib = fpgaccel_aoc::Calib::default();
    fpgaccel_core::time_conv1x1(&graph, &cfg, FpgaPlatform::Arria10Gx, &calib)
        .unwrap()
        .1
}

/// Table 6.7: the deployed MobileNet kernel set per platform.
pub fn tab6_7() -> String {
    let mut t = Table::new(
        "Table 6.7 — MobileNet parameterized kernels and unroll factors",
        &["kernel", "tiled dims", "factors (S10MX / S10SX / A10)"],
    );
    let tiles: Vec<String> = FpgaPlatform::ALL
        .iter()
        .map(|&p| {
            let (a, b, c) = mobilenet_tile(p);
            format!("{a}/{b}/{c}")
        })
        .collect();
    t.row(&["1x1 conv".into(), "W2, C2, C1".into(), tiles.join("  ")]);
    t.row_str(&["3x3 conv", "C1, F, F", "3x3x3 (all platforms)"]);
    t.row_str(&["3x3 DW conv s=1", "W2, F, F", "7x3x3"]);
    t.row_str(&["3x3 DW conv s=2", "W2, F, F", "7x3x3"]);
    t.row_str(&["dense", "C1", "32"]);
    t.render()
}

fn op_class_mobilenet(kernel: &str) -> Option<&'static str> {
    if kernel.starts_with("conv2d_1x1") {
        Some("1x1 conv")
    } else if kernel.starts_with("conv2d_dw") {
        Some("3x3 DW conv")
    } else if kernel.starts_with("conv2d_3x3") {
        Some("3x3 conv")
    } else if kernel == "fc" {
        Some("dense")
    } else if kernel.starts_with("pad") {
        Some("pad")
    } else {
        None
    }
}

fn op_class_resnet(kernel: &str) -> Option<&'static str> {
    match kernel {
        k if k.starts_with("conv2d_3x3_s1") => Some("3x3 s=1"),
        k if k.starts_with("conv2d_3x3_s2") => Some("3x3 s=2"),
        k if k.starts_with("conv2d_7x7") => Some("7x7"),
        k if k.starts_with("conv2d_1x1") => Some("1x1"),
        k if k.starts_with("pad") => Some("pad"),
        _ => None,
    }
}

fn per_op_table(
    title: &str,
    model: Model,
    platforms: &[FpgaPlatform],
    class_of: fn(&str) -> Option<&'static str>,
    classes: &[&str],
) -> String {
    let mut t = Table::new(
        title,
        &[
            "op",
            "% of FP ops",
            "GFLOPS per platform",
            "time share per platform",
        ],
    );
    let mut stats = Vec::new();
    for &p in platforms {
        let d = compile(model, p, &optimized_config(model, p)).expect("fits");
        stats.push((p, d.simulate_batch(BIG_BATCH)));
    }
    let total_flops: u64 = stats[0].1.kernel_flops.values().sum();
    for class in classes {
        let mut gflops_cells = Vec::new();
        let mut share_cells = Vec::new();
        let mut flop_share = 0.0;
        for (p, s) in &stats {
            let mut secs = 0.0;
            let mut fl = 0u64;
            for (k, v) in &s.kernel_seconds {
                if class_of(k) == Some(class) {
                    secs += v;
                    fl += s.kernel_flops.get(k).copied().unwrap_or(0);
                }
            }
            let total_secs: f64 = s.kernel_seconds.values().sum();
            gflops_cells.push(format!(
                "{}={}",
                p.label(),
                if secs > 0.0 {
                    f(fl as f64 / secs / 1e9)
                } else {
                    "-".into()
                }
            ));
            share_cells.push(format!("{}={}", p.label(), pct(100.0 * secs / total_secs)));
            flop_share = 100.0 * fl as f64 / total_flops as f64;
        }
        t.row(&[
            class.to_string(),
            pct(flop_share),
            gflops_cells.join(" "),
            share_cells.join(" "),
        ]);
    }
    t.render()
}

/// Table 6.8: MobileNet per-op GFLOPS and runtime shares.
pub fn tab6_8() -> String {
    let ours = per_op_table(
        "Table 6.8 — MobileNet per-op GFLOPS / time share (model)",
        Model::MobileNetV1,
        &FpgaPlatform::ALL,
        op_class_mobilenet,
        &["1x1 conv", "3x3 DW conv", "3x3 conv", "dense", "pad"],
    );
    let mut p = Table::new(
        "Table 6.8 — paper values",
        &[
            "op",
            "% FP ops",
            "S10MX GF",
            "S10SX GF",
            "A10 GF",
            "time shares (MX/SX/A10)",
        ],
    );
    for r in paper::TABLE_6_8 {
        p.row(&[
            r.0.to_string(),
            pct(r.1 * 100.0),
            f(r.2),
            f(r.3),
            f(r.4),
            format!(
                "{} / {} / {}",
                pct(r.5 * 100.0),
                pct(r.6 * 100.0),
                pct(r.7 * 100.0)
            ),
        ]);
    }
    format!("{ours}\n{}", p.render())
}

fn inference_table(model: Model) -> String {
    let g = model.build();
    let mut t = Table::new(
        format!(
            "{} inference: FPS/GFLOPS/area, base vs optimized ({} FP ops, {} params)",
            model.name(),
            format_flops(graph_flops(&g)),
            format_params(g.param_count()),
        ),
        &[
            "platform",
            "config",
            "FPS",
            "GFLOPS",
            "speedup",
            "fit",
            "paper FPS",
        ],
    );
    for p in FpgaPlatform::ALL {
        let mut base_fps = None;
        for (kind, cfg, paper_fps) in [
            ("base", baseline_config(model), paper::base_fps(model, p)),
            (
                "optimized",
                optimized_config(model, p),
                paper::optimized_fps(model, p),
            ),
        ] {
            match compile(model, p, &cfg) {
                Ok(d) => {
                    let s = d.simulate_batch(batch_for(model));
                    if kind == "base" {
                        base_fps = Some(s.fps);
                    }
                    let speedup = match (kind, base_fps) {
                        ("optimized", Some(b)) => format!("{:.0}x", s.fps / b),
                        _ => "-".into(),
                    };
                    t.row(&[
                        p.label().to_string(),
                        kind.to_string(),
                        f(s.fps),
                        f(s.gflops),
                        speedup,
                        d.fit_summary(),
                        opt(paper_fps),
                    ]);
                }
                Err(e) => {
                    let short = match e {
                        FlowError::Synthesis(ref se) => se.to_string(),
                        ref other => other.to_string(),
                    };
                    t.row(&[
                        p.label().to_string(),
                        kind.to_string(),
                        "n/a".into(),
                        "n/a".into(),
                        "-".into(),
                        short,
                        opt(paper_fps),
                    ]);
                }
            }
        }
    }
    t.render()
}

fn comparison_table(model: Model) -> String {
    let mut t = Table::new(
        format!(
            "{} vs reference platforms (FPGA speedup over each framework)",
            model.name()
        ),
        &[
            "platform",
            "FPGA FPS",
            "vs TF-CPU",
            "vs TVM-1T",
            "vs TVM-peak",
            "vs TF-cuDNN",
        ],
    );
    let tf = reference_fps(model, Framework::TfCpu);
    let tvm1 = reference_fps(model, Framework::TvmCpu { threads: 1 });
    let tvm_peak = (1..=56)
        .map(|th| reference_fps(model, Framework::TvmCpu { threads: th }))
        .fold(0.0f64, f64::max);
    let cudnn = reference_fps(model, Framework::TfCudnn);
    for p in FpgaPlatform::ALL {
        match compile(model, p, &optimized_config(model, p)) {
            Ok(d) => {
                let fps = d.simulate_batch(batch_for(model)).fps;
                t.row(&[
                    p.label().to_string(),
                    f(fps),
                    format!("{:.2}x", fps / tf),
                    format!("{:.2}x", fps / tvm1),
                    format!("{:.2}x", fps / tvm_peak),
                    format!("{:.2}x", fps / cudnn),
                ]);
            }
            Err(_) => {
                t.row(&[p.label().to_string(), "does not fit".into()]);
            }
        }
    }
    format!(
        "{}References: TF-CPU {tf} FPS, TVM-1T {tvm1} FPS, TVM-peak {tvm_peak:.1} FPS, \
         TF-cuDNN {cudnn} FPS (Tables 6.10/6.12/6.15).\n",
        t.render()
    )
}

fn thread_sweep_table(model: Model, figure: &str) -> String {
    let mut t = Table::new(
        format!("{figure} — TVM CPU thread sweep, {}", model.name()),
        &["threads", "TVM FPS"],
    );
    for th in [1u32, 2, 4, 8, 16, 32, 56] {
        t.row(&[
            th.to_string(),
            f(reference_fps(model, Framework::TvmCpu { threads: th })),
        ]);
    }
    t.render()
}

/// Table 6.9 + Table 6.10 + Figure 6.4: LeNet inference.
pub fn tab6_9() -> String {
    format!(
        "{}\n{}\n{}",
        inference_table(Model::LeNet5),
        comparison_table(Model::LeNet5),
        thread_sweep_table(Model::LeNet5, "Figure 6.4")
    )
}

/// Table 6.11 + Table 6.12 + Figure 6.5: MobileNet inference.
pub fn tab6_11() -> String {
    format!(
        "{}\n{}\n{}",
        inference_table(Model::MobileNetV1),
        comparison_table(Model::MobileNetV1),
        thread_sweep_table(Model::MobileNetV1, "Figure 6.5")
    )
}

/// Table 6.13: the ResNet parameterized kernel set.
pub fn tab6_13() -> String {
    let mut t = Table::new(
        "Table 6.13 — ResNet parameterized kernels and unroll factors",
        &["kernel", "tiled dims", "unroll factors"],
    );
    t.row_str(&["7x7 conv", "F, F", "7x7"]);
    t.row_str(&["3x3 conv s=1", "W2, C1, F, F", "7/8/3/3"]);
    t.row_str(&["3x3 conv s=2", "W2, C1, F, F", "7/8/3/3"]);
    t.row_str(&["1x1 conv", "C1", "8"]);
    t.row_str(&["3x3 pool", "F, F", "3x3"]);
    t.row_str(&["softmax", "-", "1 (not unrolled)"]);
    t.render()
}

/// Tables 6.14/6.15 + Figures 6.6/6.7: ResNet-18/34 inference.
pub fn tab6_14() -> String {
    let mut out = String::new();
    for m in [Model::ResNet18, Model::ResNet34] {
        out.push_str(&inference_table(m));
        out.push('\n');
        out.push_str(&comparison_table(m));
        out.push('\n');
        out.push_str(&thread_sweep_table(
            m,
            if m == Model::ResNet18 {
                "Figure 6.6"
            } else {
                "Figure 6.7"
            },
        ));
        out.push('\n');
    }
    out
}

/// Table 6.16: ResNet per-op GFLOPS and runtime shares.
pub fn tab6_16() -> String {
    let ours = per_op_table(
        "Table 6.16 — ResNet-34 per-op GFLOPS / time share (model, Stratix boards)",
        Model::ResNet34,
        &[FpgaPlatform::Stratix10Mx, FpgaPlatform::Stratix10Sx],
        op_class_resnet,
        &["3x3 s=1", "3x3 s=2", "7x7", "1x1", "pad"],
    );
    let mut p = Table::new(
        "Table 6.16 — paper values (ResNet-34, S10SX)",
        &["op", "% FP ops", "GFLOPS", "time share"],
    );
    for r in paper::TABLE_6_16_R34_S10SX {
        p.row(&[r.0.to_string(), pct(r.1 * 100.0), f(r.2), pct(r.3 * 100.0)]);
    }
    format!("{ours}\n{}", p.render())
}

fn resnet34_3x3s1_gflops() -> f64 {
    let d = compile(
        Model::ResNet34,
        FpgaPlatform::Stratix10Sx,
        &optimized_config(Model::ResNet34, FpgaPlatform::Stratix10Sx),
    )
    .expect("fits");
    let s = d.simulate_batch(BIG_BATCH);
    let mut secs = 0.0;
    let mut fl = 0u64;
    for (k, v) in &s.kernel_seconds {
        if k.starts_with("conv2d_3x3_s1") {
            secs += v;
            fl += s.kernel_flops[k];
        }
    }
    fl as f64 / secs / 1e9
}

/// Table 6.17: vs Caffeinated FPGAs (DiCecco et al.).
pub fn tab6_17() -> String {
    let ours = resnet34_3x3s1_gflops();
    let mut t = Table::new(
        "Table 6.17 — single-strided 3x3 convolution throughput",
        &["work", "workload", "platform", "precision", "GFLOPS"],
    );
    t.row(&[
        "DiCecco et al. [18]".into(),
        "geomean 3x3 convs, 4 nets (batched)".into(),
        "Virtex 7".into(),
        "32b float".into(),
        f(paper::relwork::DICECCO_3X3_GFLOPS),
    ]);
    t.row(&[
        "this repro".into(),
        "3x3 s=1 convs in ResNet-34".into(),
        "Stratix 10 SX".into(),
        "32b float".into(),
        f(ours),
    ]);
    format!(
        "{}Ratio: {:.2}x (thesis reported {:.2}x with its measured 70.4 GFLOPS).\n",
        t.render(),
        ours / paper::relwork::DICECCO_3X3_GFLOPS,
        paper::relwork::THESIS_VS_DICECCO
    )
}

/// Table 6.18: vs TensorFlow-to-Cloud-FPGAs (Hadjis et al.).
pub fn tab6_18() -> String {
    let lenet = compile(
        Model::LeNet5,
        FpgaPlatform::Stratix10Sx,
        &optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx),
    )
    .expect("fits");
    let lenet_ms = 1e3 / lenet.simulate_batch(LENET_BATCH).fps;
    let resnet = compile(
        Model::ResNet34,
        FpgaPlatform::Stratix10Sx,
        &optimized_config(Model::ResNet34, FpgaPlatform::Stratix10Sx),
    )
    .expect("fits");
    let r34 = resnet.simulate_batch(BIG_BATCH);
    let mut t = Table::new(
        "Table 6.18 — vs Hadjis et al. (Spatial HDL, VU9P)",
        &["metric", "Hadjis et al.", "this repro"],
    );
    t.row(&[
        "LeNet latency (ms)".into(),
        f(paper::relwork::HADJIS_LENET_MS),
        f(lenet_ms),
    ]);
    t.row(&[
        "ResNet GFLOPS (their -50 vs our -34)".into(),
        f(paper::relwork::HADJIS_RESNET50_GFLOPS),
        f(r34.gflops),
    ]);
    format!(
        "{}LeNet speedup: {:.2}x (thesis reported {:.2}x).\n",
        t.render(),
        paper::relwork::HADJIS_LENET_MS / lenet_ms,
        paper::relwork::THESIS_VS_HADJIS_LENET
    )
}

/// Table 6.19: vs DNNWeaver.
pub fn tab6_19() -> String {
    let lenet = compile(
        Model::LeNet5,
        FpgaPlatform::Arria10Gx,
        &optimized_config(Model::LeNet5, FpgaPlatform::Arria10Gx),
    )
    .expect("fits");
    let lenet_fps = lenet.simulate_batch(LENET_BATCH).fps;
    let vs_cpu = lenet_fps / reference_fps(Model::LeNet5, Framework::TfCpu);
    let mobilenet = compile(
        Model::MobileNetV1,
        FpgaPlatform::Arria10Gx,
        &optimized_config(Model::MobileNetV1, FpgaPlatform::Arria10Gx),
    )
    .expect("fits");
    let m_gflops = mobilenet.simulate_batch(BIG_BATCH).gflops;
    let mut t = Table::new(
        "Table 6.19 — vs DNNWeaver (hand-optimized RTL, Arria 10 GX)",
        &["metric", "DNNWeaver", "this repro"],
    );
    t.row(&[
        "LeNet speedup vs CPU".into(),
        format!(
            "{:.0}x (4-core Xeon E3)",
            paper::relwork::DNNWEAVER_LENET_VS_CPU
        ),
        format!("{vs_cpu:.2}x (Xeon 8280)"),
    ]);
    t.row(&[
        "GFLOPS (their AlexNet vs our MobileNet)".into(),
        f(paper::relwork::DNNWEAVER_ALEXNET_GFLOPS),
        f(m_gflops),
    ]);
    format!(
        "{}GFLOPS ratio: {:.2}x (thesis reported {:.2}x) — the hand-optimized 16-bit RTL \
         library remains far ahead, as the thesis concedes.\n",
        t.render(),
        m_gflops / paper::relwork::DNNWEAVER_ALEXNET_GFLOPS,
        paper::relwork::THESIS_VS_DNNWEAVER
    )
}

/// Appendix A: buffer transfer bandwidth vs size.
pub fn appendix_a() -> String {
    let mut t = Table::new(
        "Appendix A — host<->device effective bandwidth (MB/s) vs buffer size",
        &["platform", "dir", "4KB", "64KB", "1MB", "16MB", "256MB"],
    );
    for p in FpgaPlatform::ALL {
        let link = p.model().link;
        for (dir, name) in [(TransferDir::Write, "write"), (TransferDir::Read, "read")] {
            let cells: Vec<String> = [4u64 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20]
                .iter()
                .map(|&b| f(link.effective_bandwidth(b, dir) / 1e6))
                .collect();
            t.row(&[
                p.label().to_string(),
                name.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                cells[3].clone(),
                cells[4].clone(),
            ]);
        }
    }
    format!(
        "{}Paper: the S10MX engineering-sample BSP has drastically reduced host-to-device \
         write bandwidth (§6.3.1, Appendix A).\n",
        t.render()
    )
}

/// §8.1 what-if: quantized datapaths. Re-synthesizes the optimized
/// deployments at int16/int8 precision: DSP packing doubles, LSU caches
/// shrink, and networks that exceeded the Arria 10 at float32 start to fit.
pub fn quantization() -> String {
    use fpgaccel_aoc::Precision;
    let mut t = Table::new(
        "§8.1 what-if — reduced-precision datapaths (model extension)",
        &[
            "network",
            "platform",
            "precision",
            "outcome",
            "FPS",
            "DSP",
            "RAM",
        ],
    );
    for (model, platform) in [
        (Model::MobileNetV1, FpgaPlatform::Arria10Gx),
        (Model::ResNet18, FpgaPlatform::Arria10Gx),
        (Model::ResNet34, FpgaPlatform::Arria10Gx),
        (Model::ResNet34, FpgaPlatform::Stratix10Sx),
    ] {
        for precision in [Precision::F32, Precision::Int16, Precision::Int8] {
            let mut cfg = optimized_config(model, platform);
            cfg.aoc.precision = precision;
            match compile(model, platform, &cfg) {
                Ok(d) => {
                    let s = d.simulate_batch(2);
                    let (_, ram, dsp) = d.bitstream.utilization;
                    t.row(&[
                        model.name().to_string(),
                        platform.label().to_string(),
                        format!("{precision:?}"),
                        "fits".into(),
                        f(s.fps),
                        pct(dsp),
                        pct(ram),
                    ]);
                }
                Err(e) => {
                    let short = match e {
                        FlowError::Synthesis(se) => se.to_string(),
                        other => other.to_string(),
                    };
                    t.row(&[
                        model.name().to_string(),
                        platform.label().to_string(),
                        format!("{precision:?}"),
                        short,
                    ]);
                }
            }
        }
    }
    format!(
        "{}The thesis deploys float32 only and names quantization the main lever for\n\
         closing the gap to hand-optimized accelerators (§6.5, §8.1): int8 packs two\n\
         MACs per DSP and shrinks LSU caches, which is exactly what un-sticks the\n\
         Arria 10 deployments above.\n",
        t.render()
    )
}

/// Ablations of the flow's design choices (the DESIGN.md §7 benches):
/// the Listing 5.11 stride-coalescing workaround, `-fp-relaxed`/`-fpc`,
/// and autorun.
pub fn ablations() -> String {
    let mut t = Table::new(
        "Ablations — what each design choice is worth (S10SX)",
        &["ablation", "configuration", "FPS", "fmax", "note"],
    );

    // 1. Symbolic strides (Listing 5.10) vs the stride-1 workaround
    //    (Listing 5.11) on folded MobileNet.
    for (label, explicit) in [("workaround (5.11)", false), ("raw strides (5.10)", true)] {
        let mut cfg = optimized_config(Model::MobileNetV1, FpgaPlatform::Stratix10Sx);
        cfg.explicit_strides = explicit;
        match compile(Model::MobileNetV1, FpgaPlatform::Stratix10Sx, &cfg) {
            Ok(d) => {
                let s = d.simulate_batch(2);
                t.row(&[
                    "stride coalescing".into(),
                    label.into(),
                    f(s.fps),
                    f(d.bitstream.fmax_mhz),
                    "MobileNet folded".into(),
                ]);
            }
            Err(e) => {
                t.row(&[
                    "stride coalescing".into(),
                    label.into(),
                    "n/a".into(),
                    "-".into(),
                    e.to_string(),
                ]);
            }
        }
    }

    // 2. -fp-relaxed/-fpc off: the single-cycle accumulator disappears.
    for (label, aoc) in [
        ("-fp-relaxed -fpc", fpgaccel_aoc::AocOptions::default()),
        ("strict IEEE", fpgaccel_aoc::AocOptions::strict()),
    ] {
        let mut cfg = OptimizationConfig::tvm_autorun().with_concurrent();
        cfg.aoc = aoc;
        let d = compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &cfg).expect("fits");
        let s = d.simulate_batch(LENET_BATCH);
        t.row(&[
            "float flags (§4.10)".into(),
            label.into(),
            f(s.fps),
            f(d.bitstream.fmax_mhz),
            "LeNet pipelined".into(),
        ]);
    }

    // 3. Profiling: the §5.2 observation that profiling forces synchronous
    //    execution.
    for (label, profiled) in [("off", false), ("on", true)] {
        let mut cfg = OptimizationConfig::tvm_autorun().with_concurrent();
        if profiled {
            cfg = cfg.with_profiling();
        }
        let d = compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &cfg).expect("fits");
        let s = d.simulate_batch(LENET_BATCH);
        t.row(&[
            "event profiler (§5.2)".into(),
            label.into(),
            f(s.fps),
            f(d.bitstream.fmax_mhz),
            "forces synchronous execution".into(),
        ]);
    }
    t.render()
}

/// Extension: deploy AlexNet itself (the DNNWeaver workload of Table 6.19),
/// which the thesis could not — "a direct comparison is not possible since
/// we do not evaluate this network" (§6.6.2). Single-column variant.
pub fn alexnet() -> String {
    use fpgaccel_core::TilingPreset;
    use fpgaccel_tensor::models::alexnet;
    let mut t = Table::new(
        "Extension — AlexNet deployed through the flow (Table 6.19 workload)",
        &["platform", "outcome", "FPS", "GFLOPS", "fit"],
    );
    for platform in FpgaPlatform::ALL {
        let flow = Flow::for_graph(alexnet(), platform);
        let cfg = OptimizationConfig::folded(TilingPreset::AlexNet);
        match flow.compile(&cfg) {
            Ok(d) => {
                let s = d.simulate_batch(2);
                t.row(&[
                    platform.label().to_string(),
                    "fits".into(),
                    f(s.fps),
                    f(s.gflops),
                    d.fit_summary(),
                ]);
            }
            Err(e) => {
                t.row(&[platform.label().to_string(), e.to_string()]);
            }
        }
    }
    format!(
        "{}DNNWeaver's hand-optimized 16-bit RTL reaches {} GFLOPS on this workload \n\
         (grouped variant) on the Arria 10 — the compiler-generated flow stays an \n\
         order of magnitude behind, which is the honest conclusion of §6.6.2.\n",
        t.render(),
        paper::relwork::DNNWEAVER_ALEXNET_GFLOPS
    )
}

/// A genuinely measured host-CPU baseline: `n` passes of the fused graph
/// executor, timed on the wall clock.
pub fn host_engine() -> String {
    let mut t = Table::new(
        "Fused host graph executor — real measured FPS (this machine, tensor::par threads)",
        &["model", "FPS", "GFLOPS"],
    );
    for (m, n) in [
        (Model::LeNet5, 50),
        (Model::MobileNetV1, 2),
        (Model::ResNet18, 1),
    ] {
        let graph = m.build().fuse();
        let input = if m == Model::LeNet5 {
            fpgaccel_tensor::data::synthetic_digit(0, 0)
        } else {
            fpgaccel_tensor::data::imagenet_input(0)
        };
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            std::hint::black_box(graph.execute(&input));
        }
        let fps = n as f64 / t0.elapsed().as_secs_f64();
        let gflops = fps * fpgaccel_tensor::flops::graph_flops(&graph) as f64 / 1e9;
        t.row(&[m.name().to_string(), f(fps), f(gflops)]);
    }
    t.render()
}

/// An experiment generator: `(id, function producing the report)`.
pub type Experiment = (&'static str, fn() -> String);

/// All experiments in presentation order.
pub const ALL_EXPERIMENTS: &[Experiment] = &[
    ("platforms", platforms),
    ("fig6_1", fig6_1),
    ("fig6_2", fig6_2),
    ("tab6_5", tab6_5),
    ("fig6_3", fig6_3),
    ("tab6_7", tab6_7),
    ("tab6_8", tab6_8),
    ("tab6_9", tab6_9),
    ("tab6_11", tab6_11),
    ("tab6_13", tab6_13),
    ("tab6_14", tab6_14),
    ("tab6_16", tab6_16),
    ("tab6_17", tab6_17),
    ("tab6_18", tab6_18),
    ("tab6_19", tab6_19),
    ("appendix_a", appendix_a),
    ("quantization", quantization),
    ("quant", crate::quant::quant),
    ("alexnet", alexnet),
    ("ablations", ablations),
    ("host_engine", host_engine),
    ("serve", crate::serving::serve),
    ("tune", crate::tune::tune),
    ("chaos", crate::chaos::chaos),
    ("rollout", crate::rollout::rollout),
    ("pipeline", crate::pipeline::pipeline),
    ("bench", crate::trajectory::bench),
    ("fleet", crate::fleet::fleet),
    ("fleetchaos", crate::fleetchaos::fleetchaos),
];

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<String> {
    ALL_EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, func)| func())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in ALL_EXPERIMENTS {
            assert!(seen.insert(name), "duplicate experiment id {name}");
        }
        assert!(run("nonexistent").is_none());
    }

    #[test]
    fn cheap_experiments_render() {
        for id in ["platforms", "tab6_7", "tab6_13", "appendix_a"] {
            let s = run(id).unwrap();
            assert!(s.contains('|'), "{id} produced no table");
        }
    }
}
