//! The `serve` experiment: the multi-device serving subsystem under
//! increasing offered load.
//!
//! LeNet-5 and MobileNetV1 are co-served across the three evaluation FPGAs
//! (LeNet everywhere, MobileNet on the two Stratix 10 parts). Each model
//! gets its own seeded open-loop Poisson stream scaled to a multiple of
//! that model's pool capacity — MobileNet is ~200x more expensive per
//! image, so a uniform mix would only measure MobileNet drowning. The
//! report shows dynamic batching beating unbatched dispatch at the same
//! offered load, and admission control shedding past saturation while the
//! served tail stays deadline-bounded. Everything runs in simulated time,
//! so the tables are deterministic.

use crate::table::Table;
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::{OptimizationConfig, TilingPreset};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_serve::loadgen::{open_loop_poisson, with_deadline};
use fpgaccel_serve::{BatchPolicy, DevicePool, Request, RunResult, ServeConfig, Server};
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::Tracer;

const SEED: u64 = 0x5E21;
/// Simulated trace duration per run, seconds.
const TRACE_S: f64 = 0.4;
/// Per-model completion deadlines, seconds (about 15x a single-batch
/// execution on the slowest serving device).
const LENET_DEADLINE_S: f64 = 0.05;
const MOBILENET_DEADLINE_S: f64 = 4.0;

const SERVED: [Model; 2] = [Model::LeNet5, Model::MobileNetV1];

/// Builds the three-device pool serving both models.
pub fn build_pool() -> DevicePool {
    build_pool_traced(&Tracer::disabled())
}

/// [`build_pool`] recording deploy and compile spans on `tracer`.
pub fn build_pool_traced(tracer: &Tracer) -> DevicePool {
    build_pool_injected(tracer, &fpgaccel_fault::FaultInjector::disabled())
}

/// [`build_pool_traced`] with a fault injector installed *before* the
/// deploys, so synthesis flakes in the plan hit the deploy path.
pub(crate) fn build_pool_injected(
    tracer: &Tracer,
    injector: &fpgaccel_fault::FaultInjector,
) -> DevicePool {
    let mut pool = DevicePool::new();
    pool.set_tracer(tracer);
    pool.set_fault_injector(injector);
    for p in [
        FpgaPlatform::Stratix10Sx,
        FpgaPlatform::Stratix10Mx,
        FpgaPlatform::Arria10Gx,
    ] {
        let d = pool.add_device(p);
        pool.deploy(d, Model::LeNet5, &optimized_config(Model::LeNet5, p))
            .unwrap();
        if p != FpgaPlatform::Arria10Gx {
            pool.deploy(
                d,
                Model::MobileNetV1,
                &optimized_config(Model::MobileNetV1, p),
            )
            .unwrap();
        }
    }
    pool
}

/// Steady-state pool capacity for one model, requests/second. Each device
/// contributes its marginal per-image rate, its time split evenly across
/// the models it serves — so a total offered load of 1.0x keeps every
/// device exactly busy.
pub fn model_capacity_rps(pool: &DevicePool, model: Model) -> f64 {
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

/// One Poisson stream per model at `mult` times that model's capacity,
/// merged into a single trace with unique ids and per-model deadlines.
pub(crate) fn mixed_trace(pool: &DevicePool, mult: f64) -> Vec<Request> {
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

/// [`mixed_trace`] with the deadlines stripped, for scenarios that measure
/// completion through faults or upgrades: a late answer still counts as
/// served rather than vanishing into a deadline shed.
pub(crate) fn deadline_free_trace(pool: &DevicePool, mult: f64) -> Vec<Request> {
    let mut trace = mixed_trace(pool, mult);
    for r in &mut trace {
        r.deadline_s = None;
    }
    trace
}

/// The MobileNet upgrade target: the auto-tuned folded configuration (the
/// warm `Flow::with_tuned_config` shape: A10 Table 6.6 tile, F32).
pub(crate) fn tuned_config() -> OptimizationConfig {
    let mut cfg = OptimizationConfig::folded(TilingPreset::Custom1x1 { tile: (7, 8, 8) });
    cfg.label = "Folded-Tuned".into();
    cfg
}

fn serve_trace(trace: Vec<Request>, batch: BatchPolicy) -> RunResult {
    Server::new(
        build_pool(),
        ServeConfig {
            batch,
            ..ServeConfig::default()
        },
    )
    .run_open_loop(trace)
}

/// One fully traced serving run — the co-served mix at 1.0x offered
/// load, deploys included, plus a clean mid-run MobileNet rollout to the
/// auto-tuned folded configuration — recording spans on `tracer`. This is
/// the timeline behind `repro trace serve`: the rollout's drain, canary
/// and per-wave spans land on their own lane next to the device lanes.
pub fn traced_run(tracer: &Tracer) -> RunResult {
    let pool = build_pool_traced(tracer);
    let trace = mixed_trace(&pool, 1.0);
    Server::new(pool, ServeConfig::default())
        .with_tracer(tracer)
        .with_rollout(fpgaccel_serve::RolloutSpec {
            at_s: TRACE_S / 2.0,
            model: Model::MobileNetV1,
            to: tuned_config(),
            verify_input: None,
            adopt: Vec::new(),
            policy: fpgaccel_serve::RolloutPolicy::default(),
        })
        .run_open_loop(trace)
}

fn ms(s: f64) -> String {
    format!("{:.2}", s * 1e3)
}

/// The `serve` experiment report.
pub fn serve() -> String {
    let pool = build_pool();
    let cap_lenet = model_capacity_rps(&pool, Model::LeNet5);
    let cap_mobilenet = model_capacity_rps(&pool, Model::MobileNetV1);

    // Part 1 — dynamic batching vs batch=1 dispatch on a LeNet stream at
    // the pool's marginal capacity. Batching amortizes per-batch fill and
    // host cost; unbatched dispatch pays it per request and saturates
    // early, shedding the difference.
    let lenet_trace = |mult: f64| {
        let rate = mult * cap_lenet * 2.0; // LeNet alone: no device sharing
        let n = ((rate * TRACE_S).ceil() as usize).max(1);
        with_deadline(
            open_loop_poisson(SEED, rate, n, &[Model::LeNet5]),
            LENET_DEADLINE_S,
        )
    };
    let mut head = Table::new(
        "Serving — dynamic batching vs unbatched dispatch (LeNet at 1.0x capacity)",
        &[
            "policy",
            "completed",
            "shed",
            "achieved rps",
            "p50 ms",
            "p99 ms",
            "mean batch",
        ],
    );
    let mut achieved = [0.0f64; 2];
    for (i, (label, policy)) in [
        ("batch<=8/2ms", BatchPolicy::default()),
        ("batch=1", BatchPolicy::unbatched()),
    ]
    .into_iter()
    .enumerate()
    {
        let r = serve_trace(lenet_trace(1.0), policy);
        achieved[i] = r.metrics.throughput_rps();
        head.row(&[
            label.to_string(),
            r.metrics.completed.to_string(),
            r.metrics.shed().to_string(),
            format!("{:.0}", achieved[i]),
            ms(r.metrics.latency.quantile(0.50)),
            ms(r.metrics.latency.quantile(0.99)),
            format!("{:.2}", r.metrics.mean_batch_size()),
        ]);
    }

    // Part 2 — offered-load sweep over the co-served mix.
    let mut sweep = Table::new(
        "Serving — offered-load sweep (3 devices, LeNet+MobileNet co-served)",
        &[
            "load",
            "offered",
            "completed",
            "shed %",
            "achieved rps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean batch",
            "peak queue",
        ],
    );
    for mult in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let trace = mixed_trace(&pool, mult);
        let offered = trace.len();
        let r = serve_trace(trace, BatchPolicy::default());
        sweep.row(&[
            format!("{mult:.2}x"),
            offered.to_string(),
            r.metrics.completed.to_string(),
            format!("{:.1}", 100.0 * r.metrics.shed_rate()),
            format!("{:.0}", r.metrics.throughput_rps()),
            ms(r.metrics.latency.quantile(0.50)),
            ms(r.metrics.latency.quantile(0.95)),
            ms(r.metrics.latency.quantile(0.99)),
            format!("{:.2}", r.metrics.mean_batch_size()),
            r.metrics.peak_queue_depth.to_string(),
        ]);
    }

    format!(
        "{}\n{}\nPool: s10sx-0 (LeNet+MobileNet), s10mx-0 (LeNet+MobileNet), a10-0 (LeNet).\n\
         Capacity: LeNet {cap_lenet:.0} rps + MobileNet {cap_mobilenet:.1} rps with devices \
         split evenly between co-served models; deadlines {} ms / {} ms; {TRACE_S} s simulated \
         traces, seed {SEED:#x}.\n\
         Batching gain at saturation: {:.2}x goodput over batch=1 dispatch.\n\
         Past 1.0x the bounded queue and deadlines shed the excess instead of letting the \
         served tail grow without bound.\n",
        head.render(),
        sweep.render(),
        LENET_DEADLINE_S * 1e3,
        MOBILENET_DEADLINE_S * 1e3,
        achieved[0] / achieved[1].max(1e-9),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_beats_unbatched_dispatch() {
        let pool = build_pool();
        let cap = model_capacity_rps(&pool, Model::LeNet5) * 2.0;
        let n = ((cap * TRACE_S).ceil() as usize).max(1);
        let trace = || {
            with_deadline(
                open_loop_poisson(SEED, cap, n, &[Model::LeNet5]),
                LENET_DEADLINE_S,
            )
        };
        let b = serve_trace(trace(), BatchPolicy::default());
        let u = serve_trace(trace(), BatchPolicy::unbatched());
        assert!(
            b.metrics.throughput_rps() > 1.2 * u.metrics.throughput_rps(),
            "batched {} rps !>> unbatched {} rps",
            b.metrics.throughput_rps(),
            u.metrics.throughput_rps()
        );
        assert!(b.metrics.mean_batch_size() > 1.2);
        assert!(b.metrics.shed_rate() < u.metrics.shed_rate());
    }

    #[test]
    fn overload_sheds_while_p99_stays_bounded() {
        let pool = build_pool();
        let light = serve_trace(mixed_trace(&pool, 0.5), BatchPolicy::default());
        let heavy = serve_trace(mixed_trace(&pool, 2.0), BatchPolicy::default());
        assert!(
            light.metrics.shed_rate() < 0.02,
            "light load shed {:.1}%",
            100.0 * light.metrics.shed_rate()
        );
        assert!(
            heavy.metrics.shed_rate() > 0.2,
            "2x overload must shed, got {:.1}%",
            100.0 * heavy.metrics.shed_rate()
        );
        // Admission control keeps the served tail deadline-bounded even at
        // 2x overload (the histogram over-estimates by <10%).
        assert!(
            heavy.metrics.latency.quantile(0.99) <= MOBILENET_DEADLINE_S * 1.1,
            "p99 {} s exceeds the deadline bound",
            heavy.metrics.latency.quantile(0.99)
        );
    }

    #[test]
    fn serve_report_is_deterministic() {
        assert_eq!(serve(), serve());
    }
}
