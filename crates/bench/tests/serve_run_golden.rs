//! Pins the serving layer's fault, recovery and rollout paths byte for
//! byte. The report goldens (`docs/{serve,chaos,rollout}_golden.txt`) hold
//! only summary tables; this fixture holds, for every scenario below, a
//! digest of every request outcome, the recovery log, each rollout's
//! outcome and event log, the end-of-run device summaries, the SLO alerts,
//! the flight recorder's postmortems, the `serve_*` Prometheus exposition
//! (no profiler attached, so no wall-clock series) and the serve-pid trace
//! without the per-request `request` spans.
//!
//! The scenarios reach every batch outcome of the dispatch path: clean
//! completions on the primary and on brownout rungs, the rung fallback
//! when no device stages the model's rung, deadline shedding with a
//! re-score, corrupt read-backs, watchdog timeouts with quarantine,
//! reprogram and device loss, a timeout on a board whose repair already
//! covers it, a pool with no board left (fail) and a pool whose only board
//! is draining for a rollout (defer).
//!
//! A refactor must pass `fixtures/serve_run_golden.txt` unedited.
//! Regenerate it only in a commit of its own that explains the intended
//! behaviour change; the test has no regeneration switch, so write the new
//! bytes from a temporary copy of the test that writes them out.

use fpgaccel_aoc::{AocOptions, Precision};
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::OptimizationConfig;
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSpec, RetryPolicy};
use fpgaccel_serve::{
    AdmissionPolicy, BatchPolicy, BrownoutPolicy, DevicePool, FaultPolicy, Request, RolloutPolicy,
    RolloutSpec, RunResult, ServeConfig, Server, ShedReason, SloPolicy,
};
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::{FlightRecorder, Tracer, PID_SERVE};
use std::fmt::Write;

/// Flight-recorder ring size of every scenario.
const FLIGHT_RING: usize = 8;

/// One pinned run: its offered request count, the result, and the tracer
/// it recorded into.
struct Run {
    offered: usize,
    result: RunResult,
    tracer: Tracer,
}

/// Runs `server` open-loop over `requests` with a tracer and a flight
/// recorder attached.
fn run(server: Server, requests: Vec<Request>) -> Run {
    let tracer = Tracer::enabled();
    let offered = requests.len();
    let result = server
        .with_tracer(&tracer)
        .with_flight_recorder(&FlightRecorder::enabled(FLIGHT_RING))
        .run_open_loop(requests);
    Run {
        offered,
        result,
        tracer,
    }
}

fn chaos_committed() -> Run {
    let tracer = Tracer::enabled();
    let flight = FlightRecorder::enabled(FLIGHT_RING);
    let plan = fpgaccel_bench::chaos::committed_plan();
    let (offered, result) = fpgaccel_bench::chaos::run_with_flight(Some(plan), &tracer, &flight);
    Run {
        offered,
        result,
        tracer,
    }
}

fn rollout_committed() -> Run {
    let tracer = Tracer::enabled();
    let flight = FlightRecorder::enabled(FLIGHT_RING);
    let (offered, result) = fpgaccel_bench::rollout::run_committed(&tracer, &flight);
    Run {
        offered,
        result,
        tracer,
    }
}

fn precision_variant(model: Model, platform: FpgaPlatform, p: Precision) -> OptimizationConfig {
    let mut v = optimized_config(model, platform);
    v.aoc = AocOptions::with_precision(p);
    v.label = format!("{}-{p:?}", v.label);
    v
}

/// MobileNet's three-rung precision ladder on `platform`.
fn ladder(platform: FpgaPlatform) -> Vec<OptimizationConfig> {
    [Precision::Fp16, Precision::Int16, Precision::Int8]
        .iter()
        .map(|&p| precision_variant(Model::MobileNetV1, platform, p))
        .collect()
}

/// Per-image seconds of MobileNet's primary deployment on device `d`.
fn mobilenet_image_s(pool: &DevicePool, d: usize) -> f64 {
    pool.devices()[d]
        .latency_model(Model::MobileNetV1)
        .unwrap()
        .seconds(4)
        / 4.0
}

/// A MobileNet overload burst of `burst` requests every `spacing_s`, then
/// four stragglers one and a half promotion windows apart, so the server
/// descends the ladder under the burst and climbs back in the idle tail.
fn overload_with_stragglers(burst: usize, spacing_s: f64, image_s: f64) -> Vec<Request> {
    let model = Model::MobileNetV1;
    let mut reqs: Vec<Request> = (0..burst)
        .map(|i| Request {
            id: i as u64,
            model,
            arrival_s: i as f64 * spacing_s,
            deadline_s: Some(8.0 * image_s),
            input: None,
        })
        .collect();
    let burst_end = burst as f64 * spacing_s;
    for k in 0..4u64 {
        reqs.push(Request {
            id: 9000 + k,
            model,
            arrival_s: burst_end + 300.0 * image_s + k as f64 * 90.0 * image_s,
            deadline_s: None,
            input: None,
        });
    }
    reqs
}

/// The brownout policy of the ladder scenarios: a promotion window of 60
/// images, a shed window of 40 request spacings.
fn ladder_config(spacing_s: f64, image_s: f64) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_s: spacing_s,
        },
        admission: AdmissionPolicy {
            queue_capacity: 64,
            default_deadline_s: None,
        },
        brownout: BrownoutPolicy {
            enabled: true,
            trigger_sheds: 3,
            window_s: 40.0 * spacing_s,
            promote_idle_s: 60.0 * image_s,
        },
        ..ServeConfig::default()
    }
}

/// One S10MX board serving MobileNet with a three-rung ladder, overloaded
/// past even the narrowest rung: the server walks the whole ladder down
/// and back up one rung at a time.
fn brownout_ladder() -> Run {
    let model = Model::MobileNetV1;
    let mut pool = DevicePool::new();
    let d = pool.add_device(FpgaPlatform::Stratix10Mx);
    pool.deploy(
        d,
        model,
        &optimized_config(model, FpgaPlatform::Stratix10Mx),
    )
    .unwrap();
    pool.deploy_brownout_ladder(d, model, &ladder(FpgaPlatform::Stratix10Mx))
        .unwrap();
    let image_s = mobilenet_image_s(&pool, d);
    let spacing = 0.2 * image_s;
    let server = Server::new(pool, ladder_config(spacing, image_s))
        .with_slo(SloPolicy::new(model, 10.0 * image_s));
    run(server, overload_with_stragglers(120, spacing, image_s))
}

/// Two MobileNet boards, only the first staging the ladder. A rollout
/// drains that board while the model is browned out, so batches find no
/// device for their rung and fall back to the primary on the other board.
fn ladder_fallback() -> Run {
    let model = Model::MobileNetV1;
    let mut pool = DevicePool::new();
    for p in [FpgaPlatform::Stratix10Sx, FpgaPlatform::Stratix10Mx] {
        let d = pool.add_device(p);
        pool.deploy(d, model, &optimized_config(model, p)).unwrap();
    }
    pool.deploy_brownout_ladder(0, model, &ladder(FpgaPlatform::Stratix10Sx))
        .unwrap();
    let image_s = mobilenet_image_s(&pool, 0).max(mobilenet_image_s(&pool, 1));
    let spacing = 0.2 * image_s;
    let mut to = optimized_config(model, FpgaPlatform::Stratix10Sx);
    to.label = "Optimized-v2".into();
    let rollout = RolloutSpec {
        at_s: 60.0 * spacing,
        model,
        to,
        verify_input: None,
        adopt: Vec::new(),
        policy: RolloutPolicy {
            reprogram_s: 10.0 * image_s,
            ..RolloutPolicy::default()
        },
    };
    let server = Server::new(pool, ladder_config(spacing, image_s))
        .with_slo(SloPolicy::new(model, 10.0 * image_s))
        .with_rollout(rollout);
    run(server, overload_with_stragglers(160, spacing, image_s))
}

/// LeNet pool of `devices` S10SX boards under `injector`.
fn lenet_pool(devices: usize, injector: &FaultInjector) -> DevicePool {
    let mut pool = DevicePool::new();
    pool.set_fault_injector(injector);
    let cfg = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    for _ in 0..devices {
        let d = pool.add_device(FpgaPlatform::Stratix10Sx);
        pool.deploy(d, Model::LeNet5, &cfg).unwrap();
    }
    pool
}

/// `n` LeNet requests every `spacing_s`; even ids carry a 2 ms deadline,
/// so a batch can shed part of itself at dispatch and re-score.
fn lenet_trace(n: usize, spacing_s: f64) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            id: i as u64,
            model: Model::LeNet5,
            arrival_s: i as f64 * spacing_s,
            deadline_s: (i % 2 == 0).then_some(2e-3),
            input: None,
        })
        .collect()
}

/// A LeNet server with small batches, a shallow queue and `retries`
/// retries per faulted request, so faults, sheds, retries and spent
/// budgets all show within a few hundred requests; it watches a 2 ms
/// latency SLO.
fn lenet_server(pool: DevicePool, retries: u32) -> Server {
    let cfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_s: 1e-3,
        },
        admission: AdmissionPolicy {
            queue_capacity: 16,
            default_deadline_s: None,
        },
        fault: FaultPolicy {
            retry: RetryPolicy {
                max_attempts: retries,
                ..RetryPolicy::default()
            },
            ..FaultPolicy::default()
        },
        ..ServeConfig::default()
    };
    Server::new(pool, cfg).with_slo(SloPolicy::new(Model::LeNet5, 2e-3))
}

/// One board co-serving LeNet and MobileNet hangs on a batch and fails
/// every reprogram: the requests of the other model still queued when the
/// board is lost can never run, and later arrivals are unserved.
fn lost_only_board() -> Run {
    let mut events = vec![FaultEvent {
        at_s: 2e-3,
        target: "s10sx-0".into(),
        kind: FaultKind::DeviceHang,
    }];
    for _ in 0..3 {
        events.push(FaultEvent {
            at_s: 2e-3,
            target: "s10sx-0".into(),
            kind: FaultKind::ReprogramFail,
        });
    }
    let injector = FaultInjector::new(FaultPlan::new(0, events));
    let mut pool = lenet_pool(1, &injector);
    let mobilenet = optimized_config(Model::MobileNetV1, FpgaPlatform::Stratix10Sx);
    pool.deploy(0, Model::MobileNetV1, &mobilenet).unwrap();
    let mut requests = lenet_trace(80, 1e-4);
    for r in requests.iter_mut().filter(|r| r.id % 3 == 0) {
        r.model = Model::MobileNetV1;
        r.deadline_s = None;
    }
    run(lenet_server(pool, 3), requests)
}

/// One LeNet board hangs, and a transfer stall long enough to fire the
/// watchdog outlasts its reprogram: the first batch after the repair
/// starts the instant the repair ends and times out on the stall, which
/// the repair already covers, so the board is not quarantined again.
fn stall_outlasting_repair() -> Run {
    let target = "s10sx-0";
    let events = vec![
        FaultEvent {
            at_s: 2e-3,
            target: target.into(),
            kind: FaultKind::DeviceHang,
        },
        FaultEvent {
            at_s: 2e-3,
            target: target.into(),
            kind: FaultKind::TransferStall {
                factor: 1e9,
                for_s: 0.03,
            },
        },
    ];
    let injector = FaultInjector::new(FaultPlan::new(0, events));
    run(
        lenet_server(lenet_pool(1, &injector), 3),
        lenet_trace(120, 5e-4),
    )
}

/// A rollout of the only LeNet board: while it drains, reprograms and
/// runs its canary, every batch finds the pool draining and defers.
fn one_board_rollout() -> Run {
    let mut to = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    to.label = "Optimized-v2".into();
    let rollout = RolloutSpec {
        at_s: 3e-3,
        model: Model::LeNet5,
        to,
        verify_input: None,
        adopt: Vec::new(),
        policy: RolloutPolicy {
            reprogram_s: 2e-3,
            ..RolloutPolicy::default()
        },
    };
    let server = lenet_server(lenet_pool(1, &FaultInjector::disabled()), 3).with_rollout(rollout);
    run(server, lenet_trace(100, 1.5e-4))
}

/// A generated fault plan on a two-board LeNet pool: hangs, stalls,
/// corruptions, a slowdown, and up to three reprogram failures, so some
/// seeds lose a board. Requests get one retry.
fn generated(seed: u64) -> Run {
    let plan = FaultPlan::generate(
        seed,
        &FaultSpec {
            targets: vec!["s10sx-0".into(), "s10sx-1".into()],
            duration_s: 0.024,
            hangs: 1 + (seed % 2) as usize,
            stalls: 2,
            corruptions: 8,
            reprogram_fails: (seed % 4) as usize,
            synth_flakes: (seed % 2) as usize,
            domains: Vec::new(),
            domain_bursts: 0,
            slowdowns: 1,
        },
    );
    let injector = FaultInjector::new(plan);
    run(
        lenet_server(lenet_pool(2, &injector), 1),
        lenet_trace(160, 1.5e-4),
    )
}

/// 64-bit FNV-1a over every request outcome of a run.
fn outcome_hash(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for c in &r.completions {
        eat(c.id);
        eat(c.device as u64);
        eat(c.arrival_s.to_bits());
        eat(c.completion_s.to_bits());
        eat(c.batch_size as u64);
        eat(c.brownout_rung as u64);
    }
    for s in &r.sheds {
        eat(s.id);
        eat(s.time_s.to_bits());
        eat(match s.reason {
            ShedReason::QueueFull => 1,
            ShedReason::Deadline => 2,
            ShedReason::Unserved => 3,
        });
    }
    for f in &r.failures {
        eat(f.id);
        eat(f.time_s.to_bits());
        eat(u64::from(f.attempts));
    }
    h
}

/// Renders one run: digest, recovery log, rollouts, devices, SLO alerts,
/// postmortems, exposition and serve-pid trace.
fn render(name: &str, run: &Run) -> String {
    let r = &run.result;
    assert_eq!(
        r.completions.len() + r.sheds.len() + r.failures.len(),
        run.offered,
        "{name}: every offered request completes, sheds or fails"
    );
    let m = &r.metrics;
    let mut out = format!("== {name} ==\n");
    writeln!(
        out,
        "digest offered={} completed={} shed={}/{} failed={} retried={} batches={} \
         peak_queue={} span_s={} outcomes={:016x}",
        run.offered,
        m.completed,
        m.shed_queue_full,
        m.shed_deadline,
        m.failed,
        m.retried,
        m.batch_sizes.iter().sum::<u64>(),
        m.peak_queue_depth,
        m.span_s,
        outcome_hash(r),
    )
    .unwrap();
    for e in &r.recovery {
        writeln!(
            out,
            "recovery {} {} {}: {}",
            e.t_s, e.subject, e.action, e.detail
        )
        .unwrap();
    }
    for (k, rep) in r.rollouts.iter().enumerate() {
        writeln!(
            out,
            "rollout #{k} {} -> {}: {} waves={} converted={} lost={} canary={} {}..{}",
            rep.model.name(),
            rep.to_label,
            rep.outcome.label(),
            rep.waves,
            rep.devices_converted,
            rep.devices_lost,
            rep.canary_failure.as_ref().map_or("-", |f| f.label()),
            rep.started_s,
            rep.finished_s,
        )
        .unwrap();
        for e in &rep.events {
            writeln!(
                out,
                "rollout #{k} {} {} {}: {}",
                e.t_s, e.device, e.action, e.detail
            )
            .unwrap();
        }
    }
    for d in &r.devices {
        let deployments: Vec<String> = d
            .deployments
            .iter()
            .map(|(m, l)| format!("{}={l}", m.name()))
            .collect();
        writeln!(
            out,
            "device {} {} [{}]",
            d.device,
            d.health,
            deployments.join(",")
        )
        .unwrap();
    }
    for a in &r.slo_alerts {
        writeln!(
            out,
            "slo-alert {} {} {} fast={} slow={} threshold={}",
            a.t_s,
            a.model.name(),
            a.slo.label(),
            a.fast_burn,
            a.slow_burn,
            a.threshold
        )
        .unwrap();
    }
    for pm in &r.postmortems {
        writeln!(out, "postmortem {}", pm.to_json()).unwrap();
    }
    out.push_str(&r.registry.render_prometheus());
    for e in run.tracer.events() {
        if e.pid != PID_SERVE || e.cat == "request" {
            continue;
        }
        let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
        writeln!(
            out,
            "trace {} {} {} {} {} [{}]",
            e.cat,
            e.tid,
            e.ts_us,
            e.dur_us,
            e.name,
            args.join(",")
        )
        .unwrap();
    }
    out
}

/// Every pinned run, in fixture order.
fn golden_runs() -> String {
    let mut runs = vec![
        ("chaos-committed".to_string(), chaos_committed()),
        ("rollout-committed".to_string(), rollout_committed()),
        ("brownout-ladder".to_string(), brownout_ladder()),
        ("ladder-fallback".to_string(), ladder_fallback()),
        ("lost-only-board".to_string(), lost_only_board()),
        (
            "stall-outlasting-repair".to_string(),
            stall_outlasting_repair(),
        ),
        ("one-board-rollout".to_string(), one_board_rollout()),
    ];
    for seed in 0..16u64 {
        runs.push((format!("generated-seed-{seed}"), generated(seed)));
    }
    runs.iter().map(|(name, run)| render(name, run)).collect()
}

#[test]
fn serve_runs_match_the_committed_golden() {
    let golden = include_str!("fixtures/serve_run_golden.txt");
    let actual = golden_runs();
    if let Some((i, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "serve_run_golden.txt line {} differs:\n  golden: {want}\n  actual: {got}",
            i + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "serve_run_golden.txt has a different number of lines"
    );
}
