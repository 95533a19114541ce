//! Pins the host schedule, byte for byte: every simulated timestamp the
//! runtime produces for a deployment. `kernel_golden.rs` pins what the
//! kernels are; this fixture pins when they run. For each design below it
//! holds three lines:
//!
//! * `batch`: `simulate_batch(4)`'s `seconds` as `{:?}`, then 64-bit
//!   FNV-1a digests of the per-image latencies, the event breakdown, the
//!   per-kernel busy seconds and FLOPs (sorted by kernel name) and every
//!   retained `SimEvent`, each as `{:?}`;
//! * `faulted`: the same for a 4-image batch under a fault plan that
//!   stalls transfers for the first quarter of the clean batch and then
//!   hangs the device halfway through it;
//! * `trace`: a digest of the Chrome trace JSON of a traced 2-image batch.
//!
//! A design that does not compile is pinned by its error instead.
//!
//! Designs:
//! * the 58 designs of the benchmark's `sweep` workload, in its order:
//!   every model and platform under its baseline and optimized
//!   configuration, the LeNet-5 ladder serial and concurrent, MobileNetV1
//!   dataflow on each platform and the Table 6.6 tilings on the Arria 10.
//!   The five designs that do not fit the Arria 10 are pinned by their
//!   error;
//! * per platform, the host-sync branches no sweep design reaches: LeNet-5
//!   dataflow under the naive preset; MobileNetV1 and LeNet-5 dataflow
//!   with `concurrent = false` and with the event profiler; profiled
//!   folded MobileNetV1; and profiled pipelined LeNet-5 `[CE]`;
//! * per platform, MobileNetV1 and LeNet-5 dataflow with FIFOs one fill
//!   window deep, whose consumers stall on refills;
//! * folded MobileNetV1 `[CE]` on the S10SX, whose host still runs one
//!   in-order queue.
//!
//! A refactor must pass `fixtures/schedule_golden.txt` unedited.
//! Regenerate it only in a commit of its own that explains the intended
//! change; the test has no regeneration switch, so write the new bytes
//! from a temporary copy of the test that writes them out.

use fpgaccel::core::bitstreams::{
    baseline_config, lenet_ladder, mobilenet_tile, optimized_config, TABLE_6_6_TILINGS,
};
use fpgaccel::core::{BatchStats, Deployment, Flow, OptimizationConfig, TilingPreset};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use fpgaccel::pipeline::{DepthPolicy, PipelineOpts};
use fpgaccel::tensor::graph::Graph;
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{chrome_trace_json, Tracer};
use std::fmt::Write;

/// 64-bit FNV-1a.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(s: &str) -> String {
    format!("{:016x}", fnv64(s))
}

/// One pinned design.
struct Design {
    model: Model,
    platform: FpgaPlatform,
    config: OptimizationConfig,
}

fn design(model: Model, platform: FpgaPlatform, config: OptimizationConfig) -> Design {
    Design {
        model,
        platform,
        config,
    }
}

/// Every pinned design, in fixture order.
fn designs() -> Vec<Design> {
    // The benchmark's `sweep` design space, in its order.
    let mut v = Vec::new();
    for p in FpgaPlatform::ALL {
        for m in [Model::MobileNetV1, Model::ResNet18, Model::ResNet34] {
            v.push(design(m, p, baseline_config(m)));
            v.push(design(m, p, optimized_config(m, p)));
        }
        for rung in lenet_ladder() {
            v.push(design(Model::LeNet5, p, rung.clone()));
            v.push(design(Model::LeNet5, p, rung.with_concurrent()));
        }
        let tile = TilingPreset::MobileNet {
            one_by_one: mobilenet_tile(p),
        };
        v.push(design(
            Model::MobileNetV1,
            p,
            OptimizationConfig::dataflow(tile),
        ));
    }
    for &one_by_one in TABLE_6_6_TILINGS {
        let cfg = OptimizationConfig::folded(TilingPreset::MobileNet { one_by_one });
        v.push(design(Model::MobileNetV1, FpgaPlatform::Arria10Gx, cfg));
    }
    assert_eq!(v.len(), 58, "the sweep workload's design count");

    for p in FpgaPlatform::ALL {
        let lenet = OptimizationConfig::dataflow(TilingPreset::Naive);
        let mobilenet = OptimizationConfig::dataflow(TilingPreset::MobileNet {
            one_by_one: mobilenet_tile(p),
        });
        v.push(design(Model::LeNet5, p, lenet.clone()));
        for (m, cfg) in [(Model::MobileNetV1, &mobilenet), (Model::LeNet5, &lenet)] {
            let mut serial = cfg.clone();
            serial.concurrent = false;
            serial.label.push_str(" serial");
            v.push(design(m, p, serial));
            v.push(design(m, p, cfg.clone().with_profiling()));
        }
        for m in [Model::MobileNetV1, Model::LeNet5] {
            v.push(design(m, p, optimized_config(m, p).with_profiling()));
        }
        let shallow = PipelineOpts {
            depth: DepthPolicy::FillMultiple(1),
            ..PipelineOpts::default()
        };
        for (m, cfg) in [(Model::MobileNetV1, mobilenet), (Model::LeNet5, lenet)] {
            v.push(design(m, p, cfg.with_pipeline(shallow)));
        }
    }
    let sx = FpgaPlatform::Stratix10Sx;
    let folded = optimized_config(Model::MobileNetV1, sx).with_concurrent();
    v.push(design(Model::MobileNetV1, sx, folded));
    v
}

/// One batch's pinned numbers.
fn stats_line(kind: &str, s: &BatchStats) -> String {
    let mut kernel_seconds: Vec<_> = s.kernel_seconds.iter().collect();
    kernel_seconds.sort_by(|a, b| a.0.cmp(b.0));
    let mut kernel_flops: Vec<_> = s.kernel_flops.iter().collect();
    kernel_flops.sort();
    let events: String = s.events.iter().map(|e| format!("{e:?}\n")).collect();
    format!(
        "{kind} seconds={:?} latencies={} breakdown={} kernel_seconds={} kernel_flops={} \
         events={}:{}",
        s.seconds,
        digest(&format!("{:?}", s.latencies)),
        digest(&format!("{:?}", s.breakdown)),
        digest(&format!("{kernel_seconds:?}")),
        digest(&format!("{kernel_flops:?}")),
        s.events.len(),
        digest(&events),
    )
}

/// A transfer stall over the first quarter of the clean batch, then a
/// device hang halfway through it.
fn fault_plan(clean_seconds: f64) -> FaultInjector {
    FaultInjector::new(FaultPlan::new(
        0,
        vec![
            FaultEvent {
                at_s: 0.0,
                target: "dev".into(),
                kind: FaultKind::TransferStall {
                    factor: 3.0,
                    for_s: 0.25 * clean_seconds,
                },
            },
            FaultEvent {
                at_s: 0.5 * clean_seconds,
                target: "dev".into(),
                kind: FaultKind::DeviceHang,
            },
        ],
    ))
}

fn schedule_lines(out: &mut String, d: &Deployment) {
    let clean = d.simulate_batch(4);
    writeln!(out, "{}", stats_line("batch", &clean)).unwrap();
    let faulted = d.simulate_batch_faulted(4, &fault_plan(clean.seconds), "dev");
    writeln!(out, "{}", stats_line("faulted", &faulted)).unwrap();
    let tracer = Tracer::enabled();
    d.simulate_batch_traced(2, &tracer, "golden");
    writeln!(out, "trace {}", digest(&chrome_trace_json(&tracer))).unwrap();
}

/// The fixture's text.
fn render() -> String {
    let graphs: Vec<(Model, Graph)> = Model::ALL.iter().map(|&m| (m, m.build())).collect();
    let graph = |m: Model| &graphs.iter().find(|(g, _)| *g == m).expect("zoo model").1;
    let mut out = String::new();
    for (i, d) in designs().iter().enumerate() {
        writeln!(
            out,
            "== design {i:02} {}/{}/{} {:?} ==",
            d.model.name(),
            d.platform.label(),
            d.config.label,
            d.config.tiling
        )
        .unwrap();
        match Flow::for_graph(graph(d.model).clone(), d.platform).compile(&d.config) {
            Ok(dep) => schedule_lines(&mut out, &dep),
            Err(e) => writeln!(out, "error {e}").unwrap(),
        }
    }
    out
}

#[test]
fn schedules_match_the_committed_golden() {
    let golden = include_str!("fixtures/schedule_golden.txt");
    let actual = render();
    if let Some((i, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "schedule_golden.txt line {} differs:\n  golden: {want}\n  actual: {got}",
            i + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "schedule_golden.txt has a different number of lines"
    );
}
