//! The standardized bench workload matrix behind `repro bench`.
//!
//! [`collect`] runs three fixed stages and flattens everything into one
//! [`BenchRecord`]:
//!
//! 1. **Compile** — every (model, platform) configuration is compiled
//!    through [`Flow`] with an enabled tracer; kernel count, synthesized
//!    fmax and compile-phase span count land in the record.
//! 2. **Pipeline** — the same configurations are compiled both staged
//!    (layer-by-layer through global memory) and as a streaming dataflow
//!    pipeline, and a fixed batch is simulated through each; per-image
//!    seconds and the pipelined/staged speedup land in the record.
//! 3. **Serve** — the three-device co-serving pool from the `serve`
//!    experiment is driven with seeded open-loop Poisson load at 1.0x and
//!    2.0x of pool capacity; p50/p99, shed rate and achieved throughput
//!    land in the record.
//!
//! Every number is simulated (deterministic clocks, seeded load), so two
//! [`collect`] calls on the same source tree produce byte-identical
//! records. Wall-clock profiler counters deliberately stay out — they are
//! exported through the metrics registry instead.

use crate::record::{BenchRecord, Direction};
use fpgaccel_core::bitstreams::{mobilenet_tile, optimized_config};
use fpgaccel_core::{tune_precision, Flow, OptimizationConfig, QuantSpec, TilingPreset};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{FaultEvent, FaultKind, FaultPlan};
use fpgaccel_fleet::{
    device_rate, DeviceClass, Fleet, FleetConfig, FleetSpec, ModelDemand, TenantLoad, TenantPolicy,
};
use fpgaccel_serve::loadgen::{open_loop_poisson, with_deadline};
use fpgaccel_serve::{
    AdmissionPolicy, BatchPolicy, DeploymentCache, DevicePool, Request, ServeConfig, Server,
};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::quant::{diff_outputs, QuantPrecision};
use fpgaccel_trace::Tracer;
use fpgaccel_tune::TuningDb;

/// Workload identifier stamped into the record; bump when the matrix
/// itself (configurations, load points, batch size) changes.
/// `core-v2` added the fleet stage (router latency, per-tenant sheds);
/// `core-v3` added the quant stage (per-rung error ratios and DSP
/// pressure, mixed-precision search results); `core-v4` added the
/// resilience stage (hedge rate, breaker opens, failover replays, heal
/// restore latency through a seeded domain outage).
pub const WORKLOAD: &str = "core-v4";

/// Same seed and trace shape as the `serve` experiment, so the bench
/// record tracks the serving stack the reports describe.
const SEED: u64 = 0x5E21;
const TRACE_S: f64 = 0.4;
const LENET_DEADLINE_S: f64 = 0.05;
const MOBILENET_DEADLINE_S: f64 = 4.0;
const SERVED: [Model; 2] = [Model::LeNet5, Model::MobileNetV1];

/// Images per simulated batch in the pipeline stage (smaller than the
/// `pipeline` experiment's 32: the bench runs this matrix twice for the
/// determinism probe).
const BATCH: usize = 16;

/// The evaluated (model, platform) configurations — the same four the
/// `pipeline` experiment reports on.
const CONFIGS: [(Model, FpgaPlatform); 4] = [
    (Model::LeNet5, FpgaPlatform::Stratix10Sx),
    (Model::MobileNetV1, FpgaPlatform::Stratix10Sx),
    (Model::MobileNetV1, FpgaPlatform::Stratix10Mx),
    (Model::MobileNetV1, FpgaPlatform::Arria10Gx),
];

/// The staged (layer-by-layer) baseline configuration.
fn staged_config(model: Model, platform: FpgaPlatform) -> OptimizationConfig {
    match model {
        Model::LeNet5 => OptimizationConfig::folded(TilingPreset::Naive),
        _ => optimized_config(model, platform),
    }
}

/// The streaming dataflow configuration (default planner knobs — the
/// bench tracks the un-tuned pipeline so it has no tuner dependency).
fn dataflow_config(model: Model, platform: FpgaPlatform) -> OptimizationConfig {
    match model {
        Model::LeNet5 => OptimizationConfig::dataflow(TilingPreset::Naive),
        _ => OptimizationConfig::dataflow(TilingPreset::MobileNet {
            one_by_one: mobilenet_tile(platform),
        }),
    }
}

/// The three-device pool from the `serve` experiment: LeNet everywhere,
/// MobileNet on the two Stratix 10 parts.
fn build_pool() -> DevicePool {
    let mut pool = DevicePool::new();
    for p in [
        FpgaPlatform::Stratix10Sx,
        FpgaPlatform::Stratix10Mx,
        FpgaPlatform::Arria10Gx,
    ] {
        let d = pool.add_device(p);
        pool.deploy(d, Model::LeNet5, &optimized_config(Model::LeNet5, p))
            .expect("LeNet deploys everywhere");
        if p != FpgaPlatform::Arria10Gx {
            pool.deploy(
                d,
                Model::MobileNetV1,
                &optimized_config(Model::MobileNetV1, p),
            )
            .expect("MobileNet deploys on Stratix 10");
        }
    }
    pool
}

/// Steady-state pool capacity for one model, requests/second, with each
/// device's time split evenly across the models it serves.
fn model_capacity_rps(pool: &DevicePool, model: Model) -> f64 {
    pool.devices()
        .iter()
        .filter_map(|d| {
            let lm = d.latency_model(model)?;
            let sharing = SERVED
                .iter()
                .filter(|&&m| d.latency_model(m).is_some())
                .count();
            Some(1.0 / (sharing as f64 * lm.per_image_s))
        })
        .sum()
}

/// One seeded Poisson stream per model at `mult` times that model's
/// capacity, merged with unique ids and per-model deadlines.
fn mixed_trace(pool: &DevicePool, mult: f64) -> Vec<Request> {
    let mut trace = Vec::new();
    for (slot, (&model, deadline)) in SERVED
        .iter()
        .zip([LENET_DEADLINE_S, MOBILENET_DEADLINE_S])
        .enumerate()
    {
        let rate = mult * model_capacity_rps(pool, model);
        let n = ((rate * TRACE_S).ceil() as usize).max(1);
        let mut stream = with_deadline(
            open_loop_poisson(SEED ^ slot as u64, rate, n, &[model]),
            deadline,
        );
        for r in &mut stream {
            r.id = r.id * SERVED.len() as u64 + slot as u64;
        }
        trace.extend(stream);
    }
    trace
}

/// Runs the full workload matrix and returns the bench record.
pub fn collect() -> BenchRecord {
    let mut rec = BenchRecord {
        workload: WORKLOAD.into(),
        ..BenchRecord::default()
    };

    // Stages 1+2 — compile and pipeline metrics per configuration.
    for &(model, platform) in &CONFIGS {
        let key = format!("{}.{}", model.name(), platform.label());

        let tracer = Tracer::enabled();
        let staged = Flow::new(model, platform)
            .with_tracer(&tracer)
            .compile(&staged_config(model, platform))
            .expect("staged configuration compiles");
        // Structural counts are Exact: a changed kernel count or compile
        // phase shape is a pipeline change, not noise.
        rec.push(
            &format!("compile.{key}.kernels"),
            staged.bitstream.kernels.len() as f64,
            "count",
            Direction::Exact,
            0.0,
        );
        rec.push(
            &format!("compile.{key}.fmax_mhz"),
            staged.bitstream.fmax_mhz,
            "mhz",
            Direction::Higher,
            0.02,
        );
        rec.push(
            &format!("compile.{key}.phase_events"),
            tracer.span_count() as f64,
            "count",
            Direction::Exact,
            0.0,
        );

        let pipelined = Flow::new(model, platform)
            .compile(&dataflow_config(model, platform))
            .expect("dataflow configuration compiles");
        let s = staged.simulate_batch(BATCH);
        let p = pipelined.simulate_batch(BATCH);
        rec.push(
            &format!("pipeline.{key}.staged_seconds_per_image"),
            s.seconds / BATCH as f64,
            "s",
            Direction::Lower,
            0.02,
        );
        rec.push(
            &format!("pipeline.{key}.pipelined_seconds_per_image"),
            p.seconds / BATCH as f64,
            "s",
            Direction::Lower,
            0.02,
        );
        rec.push(
            &format!("pipeline.{key}.speedup"),
            s.seconds / p.seconds,
            "ratio",
            Direction::Higher,
            0.02,
        );
    }

    // Stage 3 — the serving pool under seeded load at two operating
    // points: nominal capacity and 2x overload (the shedding regime).
    let pool = build_pool();
    for (tag, mult) in [("load1x", 1.0), ("load2x", 2.0)] {
        let trace = mixed_trace(&pool, mult);
        let r = Server::new(
            build_pool(),
            ServeConfig {
                batch: BatchPolicy {
                    max_batch: 8,
                    max_wait_s: 2e-3,
                },
                admission: AdmissionPolicy {
                    queue_capacity: 64,
                    default_deadline_s: None,
                },
                fault: Default::default(),
                brownout: Default::default(),
            },
        )
        .run_open_loop(trace);
        let key = format!("serve.{tag}");
        rec.push(
            &format!("{key}.p50_ms"),
            r.metrics.latency.quantile(0.50) * 1e3,
            "ms",
            Direction::Lower,
            0.05,
        );
        rec.push(
            &format!("{key}.p99_ms"),
            r.metrics.latency.quantile(0.99) * 1e3,
            "ms",
            Direction::Lower,
            0.05,
        );
        rec.push(
            &format!("{key}.shed_rate"),
            r.metrics.shed_rate(),
            "ratio",
            Direction::Lower,
            0.10,
        );
        rec.push(
            &format!("{key}.throughput_rps"),
            r.metrics.throughput_rps(),
            "rps",
            Direction::Higher,
            0.05,
        );
    }

    // Stage 4 — the sharded fleet under two-tenant QoS at 1.0x and 2.0x
    // of the bursty tenant's nominal point: router latency quantiles and
    // per-tenant shed rates track the fleet serving stack.
    fleet_stage(&mut rec);

    // Stage 5 — quantized inference: per-rung differential error headroom
    // and DSP pressure on LeNet, plus the mixed-precision search result.
    quant_stage(&mut rec);

    // Stage 6 — fleet resilience through a seeded domain outage: hedge
    // rate, breaker opens, failover replays and heal restore latency.
    resilience_stage(&mut rec);

    rec
}

/// Quantized LeNet on the S10SX at every precision rung: the worst
/// per-layer error as a fraction of its tolerance (the differential
/// harness' headroom — a regression here means the quantizer or the
/// tolerance model moved) and the modeled DSP pressure; then the greedy
/// mixed-precision search's DSP count and demotion tally.
fn quant_stage(rec: &mut BenchRecord) {
    let platform = FpgaPlatform::Stratix10Sx;
    for precision in QuantPrecision::ALL {
        let spec = QuantSpec::new(precision);
        let flow = Flow::new(Model::LeNet5, platform);
        let d = flow
            .compile(&OptimizationConfig::folded_base().with_quant(spec))
            .expect("quantized LeNet compiles on the S10SX");
        let probe = &flow.calibration_batch(&spec)[0];
        let got = d
            .quantized()
            .expect("deployment carries its quantization")
            .execute_all(probe)
            .expect("quantized host execution succeeds");
        let reference = d.graph.execute_all(probe);
        let q = d.quant.as_ref().expect("quantized deployment");
        let report = diff_outputs(&d.graph, &q.calib, q.precision, &got, &reference);
        let w = report.worst().expect("LeNet has layers");
        let key = format!("quant.lenet5.{}", precision.name());
        rec.push(
            &format!("{key}.worst_err_ratio"),
            f64::from(w.err / w.tol.max(f32::MIN_POSITIVE)),
            "ratio",
            Direction::Lower,
            0.25,
        );
        let (_, _, dsp) = d.bitstream.utilization;
        rec.push(
            &format!("{key}.dsp_pct"),
            dsp,
            "pct",
            Direction::Lower,
            0.02,
        );
    }
    let flow = Flow::new(Model::LeNet5, platform);
    let mut db = TuningDb::new();
    let mixed = tune_precision(
        &flow,
        &QuantSpec::new(QuantPrecision::Int8),
        0.05,
        &mut db,
        &Tracer::disabled(),
        &fpgaccel_trace::Registry::default(),
    )
    .expect("mixed-precision search succeeds on LeNet");
    rec.push(
        "quant.lenet5.mixed.dsps",
        mixed.record.dsps as f64,
        "count",
        Direction::Lower,
        0.0,
    );
    rec.push(
        "quant.lenet5.mixed.demoted",
        mixed.record.demoted() as f64,
        "count",
        Direction::Exact,
        0.0,
    );
}

/// One small two-shard LeNet fleet per load point; the `bursty` tenant
/// doubles its offered rate at 2x while `steady` stays fixed, so the
/// shed-rate series shows QoS isolation (steady sheds nothing at either
/// point).
fn fleet_stage(rec: &mut BenchRecord) {
    let rate = lenet_rate();
    let spec = FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 6,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: rate * 3.2,
        }],
        headroom: 0.25,
        domains: 1,
    };
    let mut db = TuningDb::new();
    for (tag, mult) in [("load1x", 1.0), ("load2x", 2.0)] {
        let fleet = Fleet::build(
            &spec,
            FleetConfig {
                shards: 2,
                ..FleetConfig::default()
            },
            &mut db,
        )
        .expect("the LeNet fleet places");
        let cap = fleet.capacity_rps();
        let tenant = |name: &str, budget: f64, offered: f64| TenantLoad {
            policy: TenantPolicy {
                name: name.into(),
                weight: 1.0,
                budget_rps: budget,
                burst: 20.0,
            },
            offered: vec![(Model::LeNet5, offered)],
        };
        let r = fleet.run(
            &[
                tenant("steady", 0.45 * cap, 0.30 * cap),
                tenant("bursty", 0.20 * cap, mult * 0.5 * cap),
            ],
            0.2,
        );
        let key = format!("fleet.{tag}");
        rec.push(
            &format!("{key}.router_p50_ms"),
            r.latency.quantile(0.50) * 1e3,
            "ms",
            Direction::Lower,
            0.05,
        );
        rec.push(
            &format!("{key}.router_p99_ms"),
            r.latency.quantile(0.99) * 1e3,
            "ms",
            Direction::Lower,
            0.05,
        );
        rec.push(
            &format!("{key}.overflow_ratio"),
            r.overflowed as f64 / r.routed.max(1) as f64,
            "ratio",
            Direction::Lower,
            0.25,
        );
        for t in &r.tenants {
            rec.push(
                &format!("{key}.shed_rate.{}", t.name),
                (t.shed_fleet + t.shed_shard) as f64 / t.offered.max(1) as f64,
                "ratio",
                Direction::Lower,
                0.10,
            );
        }
    }
}

/// Calibrated single-board LeNet rate on the Stratix 10 SX — the demand
/// unit for both fleet stages.
fn lenet_rate() -> f64 {
    let p = FpgaPlatform::Stratix10Sx;
    device_rate(&mut DeploymentCache::new(), Model::LeNet5, p)
        .expect("LeNet compiles on Stratix 10 SX")
}

/// The same two-shard LeNet fleet, striped over two failure domains and
/// driven through a seeded domain outage: the record tracks how much of
/// the routed traffic the resilience machinery duplicated (hedge rate),
/// the failover replays of the dead shard's in-flight work, the breaker
/// open count (exactly one — a flapping breaker is a regression) and the
/// detection-to-restore latency of the self-healing re-placement.
fn resilience_stage(rec: &mut BenchRecord) {
    let rate = lenet_rate();
    let spec = FleetSpec {
        classes: vec![DeviceClass {
            platform: FpgaPlatform::Stratix10Sx,
            count: 6,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: rate * 2.2,
        }],
        headroom: 0.25,
        domains: 2,
    };
    let mut db = TuningDb::new();
    let mut fleet = Fleet::build(
        &spec,
        FleetConfig {
            shards: 2,
            ..FleetConfig::default()
        },
        &mut db,
    )
    .expect("the domained LeNet fleet places");
    fleet.arm(FaultPlan::new(
        0x0B5_0DD,
        vec![FaultEvent {
            at_s: 0.08,
            target: "dom-0".into(),
            kind: FaultKind::DomainOutage,
        }],
    ));
    let cap = fleet.capacity_rps();
    let tenant = |name: &str, budget: f64, offered: f64| TenantLoad {
        policy: TenantPolicy {
            name: name.into(),
            weight: 1.0,
            budget_rps: budget,
            burst: 20.0,
        },
        offered: vec![(Model::LeNet5, offered)],
    };
    let r = fleet.run(
        &[
            tenant("steady", 0.45 * cap, 0.30 * cap),
            tenant("bursty", 0.20 * cap, 0.5 * cap),
        ],
        0.25,
    );
    rec.push(
        "resilience.outage.hedge_rate",
        r.hedges as f64 / r.routed.max(1) as f64,
        "ratio",
        Direction::Lower,
        0.25,
    );
    rec.push(
        "resilience.outage.replays",
        r.replays as f64,
        "count",
        Direction::Lower,
        0.25,
    );
    rec.push(
        "resilience.outage.breaker_opens",
        r.breaker_transitions_to("open") as f64,
        "count",
        Direction::Exact,
        0.0,
    );
    let heal = r.heals.first().expect("the outage triggers a heal");
    rec.push(
        "resilience.outage.heal_restore_s",
        heal.restore_s - heal.t_s,
        "s",
        Direction::Lower,
        0.10,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_covered_and_every_value_is_finite() {
        let rec = collect();
        // 4 configs x (3 compile + 3 pipeline) + 2 serve load points x 4
        // + 2 fleet load points x 5 + 3 quant rungs x 2 + 2 mixed
        // + 4 resilience.
        assert_eq!(rec.metrics.len(), 4 * 6 + 2 * 4 + 2 * 5 + 3 * 2 + 2 + 4);
        for m in &rec.metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.id);
        }
        for &(model, platform) in &CONFIGS {
            let sp = rec
                .get(&format!(
                    "pipeline.{}.{}.speedup",
                    model.name(),
                    platform.label()
                ))
                .expect("speedup recorded");
            assert!(sp.value > 1.0, "pipelined must beat staged: {}", sp.value);
        }
        // Poisson arrivals at exact capacity already queue and shed a
        // little; 2x overload must shed much more.
        let shed1 = rec.get("serve.load1x.shed_rate").unwrap().value;
        let shed2 = rec.get("serve.load2x.shed_rate").unwrap().value;
        assert!(shed1 < 0.2, "1.0x load shed {shed1}");
        assert!(shed2 > 0.2, "2.0x overload shed {shed2}");
        assert!(
            shed2 > 2.0 * shed1,
            "overload must shed more: {shed1} vs {shed2}"
        );
        // QoS isolation in the fleet stage: the steady tenant never
        // sheds, the bursty one sheds more when it doubles its load.
        for tag in ["load1x", "load2x"] {
            let steady = rec.get(&format!("fleet.{tag}.shed_rate.steady")).unwrap();
            assert_eq!(steady.value, 0.0, "steady tenant shed at {tag}");
        }
        let b1 = rec.get("fleet.load1x.shed_rate.bursty").unwrap().value;
        let b2 = rec.get("fleet.load2x.shed_rate.bursty").unwrap().value;
        assert!(b2 > b1, "doubled burst must shed more: {b1} vs {b2}");
        // Every quant rung keeps differential headroom and the mixed
        // search beats the all-f32 DSP count it started from.
        for rung in ["fp16", "int16", "int8"] {
            let r = rec
                .get(&format!("quant.lenet5.{rung}.worst_err_ratio"))
                .unwrap()
                .value;
            assert!((0.0..1.0).contains(&r), "{rung} err ratio {r}");
        }
        assert!(rec.get("quant.lenet5.mixed.dsps").unwrap().value > 0.0);
        // The resilience stage's outage must open the breaker exactly
        // once, duplicate some traffic, and heal in finite time.
        assert_eq!(
            rec.get("resilience.outage.breaker_opens").unwrap().value,
            1.0
        );
        assert!(rec.get("resilience.outage.hedge_rate").unwrap().value > 0.0);
        assert!(rec.get("resilience.outage.replays").unwrap().value >= 1.0);
        let restore = rec.get("resilience.outage.heal_restore_s").unwrap().value;
        assert!(
            restore > 0.0 && restore.is_finite(),
            "heal restore latency {restore}"
        );
    }

    #[test]
    fn collect_is_byte_identical_across_runs() {
        assert_eq!(collect().to_json(), collect().to_json());
    }
}
