//! The `bench` experiment: the continuous performance trajectory.
//!
//! [`collect`] runs the standardized workload matrix and flattens it into
//! one [`BenchRecord`]. Each stage calls the builders of the experiment it
//! tracks, so the record measures the scenarios the reports describe:
//!
//! 1. **Compile** — every `pipeline` configuration compiles staged through
//!    [`Flow`] with an enabled tracer: kernel count, fmax and compile-phase
//!    span count.
//! 2. **Pipeline** — the same configurations compile as an untuned
//!    streaming dataflow pipeline, and a fixed batch runs through both:
//!    seconds per image and the pipelined/staged speedup.
//! 3. **Serve** — the `serve` experiment's pool and co-served trace at
//!    1.0x and 2.0x of pool capacity: p50/p99, shed rate and throughput.
//! 4. **Fleet** — a six-board, two-shard LeNet fleet under two-tenant QoS:
//!    router latency, overflow and per-tenant shed rates.
//! 5. **Quant** — the `quant` experiment's per-rung differential on LeNet
//!    (worst error over tolerance, DSP pressure) and its mixed-precision
//!    search.
//! 6. **Resilience** — the same fleet through a seeded domain outage:
//!    hedge rate, replays, breaker opens and heal restore latency.
//!
//! Every number is simulated (deterministic clocks, seeded load), so two
//! [`collect`] calls on the same source tree produce byte-identical
//! records. Wall-clock profiler counters stay out; they are exported
//! through the metrics registry instead.
//!
//! [`bench`] collects the matrix twice (the second pass is the
//! determinism probe), renders every metric, and compares the fresh
//! record against the committed baseline with per-metric tolerance
//! bands. A regression beyond a metric's band fails the verdict, as does
//! a baseline metric that the current run no longer produces.
//!
//! Environment knobs: `FPGACCEL_BENCH_BASELINE` names the committed
//! baseline record (default `BENCH_core.json` in the working directory);
//! `FPGACCEL_BENCH_OUT` names a file to write the fresh record to;
//! `FPGACCEL_BENCH_VERDICT` names a file to write the machine-readable
//! comparison verdict to (for CI: `jq .pass`).

use crate::pipeline::{dataflow_base, staged_config, CONFIGS};
use crate::quant::{diff_rung, MIXED_BUDGET};
use crate::serving::{build_pool, mixed_trace};
use crate::table::Table;
use fpgaccel_core::{tune_precision, Flow, QuantSpec};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{FaultEvent, FaultKind, FaultPlan};
use fpgaccel_fleet::{
    device_rate, DeviceClass, Fleet, FleetConfig, FleetSpec, ModelDemand, TenantLoad, TenantPolicy,
};
use fpgaccel_obs::{compare, BenchRecord, BenchVerdict, DeltaStatus, Direction};
use fpgaccel_serve::{DeploymentCache, ServeConfig, Server};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::quant::QuantPrecision;
use fpgaccel_trace::{Registry, Tracer};
use fpgaccel_tune::TuningDb;

/// Workload identifier stamped into the record; bump when the matrix
/// itself (configurations, load points, batch size) changes.
/// `core-v2` added the fleet stage (router latency, per-tenant sheds);
/// `core-v3` added the quant stage (per-rung error ratios and DSP
/// pressure, mixed-precision search results); `core-v4` added the
/// resilience stage (hedge rate, breaker opens, failover replays, heal
/// restore latency through a seeded domain outage).
pub const WORKLOAD: &str = "core-v4";

/// Images per simulated batch in the pipeline stage (smaller than the
/// `pipeline` experiment's 32: the bench runs this matrix twice for the
/// determinism probe).
const BATCH: usize = 16;

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
            .compile(&dataflow_base(model, platform))
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
        let r = Server::new(build_pool(), ServeConfig::default()).run_open_loop(trace);
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
/// mixed-precision search's DSP count and demotion tally. The compiled
/// kernels are not re-verified here; `repro quant` does that.
fn quant_stage(rec: &mut BenchRecord) {
    for precision in QuantPrecision::ALL {
        let (d, _, report) = diff_rung(precision);
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
    let mixed = tune_precision(
        &Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx),
        &QuantSpec::new(QuantPrecision::Int8),
        MIXED_BUDGET,
        &mut TuningDb::new(),
        &Tracer::disabled(),
        &Registry::default(),
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

/// Six S10SX boards in two shards, placed for LeNet-5 demand of `load`
/// calibrated single-board rates and striped over `domains` failure
/// domains.
fn lenet_fleet(load: f64, domains: usize, db: &mut TuningDb) -> Fleet {
    let platform = FpgaPlatform::Stratix10Sx;
    let rate = device_rate(&mut DeploymentCache::new(), Model::LeNet5, platform)
        .expect("LeNet compiles on Stratix 10 SX");
    let spec = FleetSpec {
        classes: vec![DeviceClass { platform, count: 6 }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: rate * load,
        }],
        headroom: 0.25,
        domains,
    };
    let cfg = FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    };
    Fleet::build(&spec, cfg, db).expect("the LeNet fleet places")
}

/// The two LeNet tenants of a fleet with capacity `cap`: `steady` offers
/// 30% of it inside a 45% budget; `bursty` offers `surge` times 50% of it
/// against a 20% budget.
fn tenants(cap: f64, surge: f64) -> [TenantLoad; 2] {
    let tenant = |name: &str, budget: f64, offered: f64| TenantLoad {
        policy: TenantPolicy {
            name: name.into(),
            weight: 1.0,
            budget_rps: budget,
            burst: 20.0,
        },
        offered: vec![(Model::LeNet5, offered)],
    };
    [
        tenant("steady", 0.45 * cap, 0.30 * cap),
        tenant("bursty", 0.20 * cap, surge * 0.5 * cap),
    ]
}

/// One small two-shard LeNet fleet per load point; the `bursty` tenant
/// doubles its offered rate at 2x while `steady` stays fixed, so the
/// shed-rate series shows QoS isolation (steady sheds nothing at either
/// point).
fn fleet_stage(rec: &mut BenchRecord) {
    let mut db = TuningDb::new();
    for (tag, mult) in [("load1x", 1.0), ("load2x", 2.0)] {
        let fleet = lenet_fleet(3.2, 1, &mut db);
        let cap = fleet.capacity_rps();
        let r = fleet.run(&tenants(cap, mult), 0.2);
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

/// The two-shard LeNet fleet, striped over two failure domains and
/// driven through a seeded domain outage: the record tracks how much of
/// the routed traffic the resilience machinery duplicated (hedge rate),
/// the failover replays of the dead shard's in-flight work, the breaker
/// open count (exactly one — a flapping breaker is a regression) and the
/// detection-to-restore latency of the self-healing re-placement.
fn resilience_stage(rec: &mut BenchRecord) {
    let mut fleet = lenet_fleet(2.2, 2, &mut TuningDb::new());
    fleet.arm(FaultPlan::new(
        0x0B5_0DD,
        vec![FaultEvent {
            at_s: 0.08,
            target: "dom-0".into(),
            kind: FaultKind::DomainOutage,
        }],
    ));
    let cap = fleet.capacity_rps();
    let r = fleet.run(&tenants(cap, 1.0), 0.25);
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

/// Baseline path (`FPGACCEL_BENCH_BASELINE`, default `BENCH_core.json`).
fn baseline_path() -> String {
    std::env::var("FPGACCEL_BENCH_BASELINE").unwrap_or_else(|_| "BENCH_core.json".into())
}

/// Renders the comparison section of the report.
fn render_verdict(v: &BenchVerdict) -> String {
    let mut t = Table::new(
        "Bench — baseline comparison (per-metric tolerance bands)",
        &["metric", "baseline", "current", "change", "band", "status"],
    );
    for d in &v.deltas {
        t.row(&[
            d.id.clone(),
            format!("{:.6}", d.baseline),
            format!("{:.6}", d.current),
            format!("{:+.2}%", 100.0 * d.rel_change),
            format!("±{:.0}%", 100.0 * d.tolerance),
            d.status.label().to_string(),
        ]);
    }
    let mut lines = vec![t.render()];
    for id in &v.missing {
        lines.push(format!(
            "MISSING from current run: {id} (coverage loss fails)"
        ));
    }
    for id in &v.added {
        lines.push(format!("new metric (not in baseline): {id}"));
    }
    let within = v
        .deltas
        .iter()
        .filter(|d| d.status == DeltaStatus::Pass)
        .count();
    lines.push(format!(
        "Verdict: {} — {within}/{} within band, {} regressed, {} improved, {} missing.",
        if v.pass() { "PASS" } else { "REGRESSED" },
        v.deltas.len(),
        v.regressions().len(),
        v.improvements().len(),
        v.missing.len(),
    ));
    lines.join("\n")
}

/// The `bench` experiment report.
pub fn bench() -> String {
    let rec = collect();
    let rerun = collect();
    let deterministic = rec.to_json() == rerun.to_json();

    let mut matrix = Table::new(
        format!(
            "Bench trajectory — workload {} (schema v{})",
            rec.workload,
            fpgaccel_obs::SCHEMA_VERSION
        ),
        &["metric", "value", "unit", "direction", "band"],
    );
    for m in &rec.metrics {
        matrix.row(&[
            m.id.clone(),
            format!("{:.6}", m.value),
            m.unit.clone(),
            m.direction.label().to_string(),
            format!("±{:.0}%", 100.0 * m.tolerance),
        ]);
    }

    let path = baseline_path();
    let comparison = match std::fs::read_to_string(&path) {
        Ok(text) => match BenchRecord::parse(&text) {
            Ok(base) => {
                let v = compare(&base, &rec);
                if let Ok(out) = std::env::var("FPGACCEL_BENCH_VERDICT") {
                    std::fs::write(&out, v.to_json()).expect("bench verdict artifact writes");
                }
                render_verdict(&v)
            }
            Err(e) => format!("Baseline {path} is unreadable ({e}); comparison skipped."),
        },
        Err(_) => format!("Baseline {path} not found; comparison skipped."),
    };

    if let Ok(out) = std::env::var("FPGACCEL_BENCH_OUT") {
        std::fs::write(&out, rec.to_json()).expect("bench record artifact writes");
    }

    format!(
        "Continuous performance trajectory — standardized bench matrix\n{}\n{comparison}\n\
         Determinism: collecting the matrix twice is {}.\n\
         Metrics: {} across compile, pipeline, serve and fleet stages; artifact schema v{}.\n",
        matrix.render(),
        if deterministic {
            "byte-identical"
        } else {
            "DIVERGENT"
        },
        rec.metrics.len(),
        fpgaccel_obs::SCHEMA_VERSION,
    )
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

    #[test]
    fn bench_report_is_deterministic() {
        assert_eq!(bench(), bench());
    }
}
