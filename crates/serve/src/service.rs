//! The serving event loop: admission → dynamic batching → dispatch over
//! the device pool, all in deterministic simulated time.

use crate::admission::{AdmissionPolicy, BrownoutPolicy};
use crate::batcher::{BatchPolicy, DynamicBatcher};
use crate::metrics::ServiceMetrics;
use crate::pool::{BatchOutcome, DeviceHealth, DevicePool, Dispatch, Recovery};
use crate::rollout::{RolloutReport, RolloutRun, RolloutSpec, ROLLOUT_LANE};
use crate::slo::{SloAlert, SloMonitor, SloPolicy};
use fpgaccel_fault::RetryPolicy;
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::rng::Rng64;
use fpgaccel_tensor::Tensor;
use fpgaccel_trace::{
    FlightData, FlightRecorder, HotPathProfiler, Postmortem, Registry, Tracer, PID_SERVE,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Latency-histogram bucket bounds for the metrics registry, seconds.
const LATENCY_BOUNDS_S: &[f64] = &[
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];
/// Batch-size histogram bounds for the metrics registry.
const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
/// Serve-pid track of the first per-device lane (`64 + device index`).
pub(crate) const DEVICE_LANE_BASE: u32 = 64;
/// How long a batch that found every serving device draining waits before
/// it retries dispatch, simulated seconds.
const DRAIN_DEFER_S: f64 = 1e-3;

/// One inference request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the outcome.
    pub id: u64,
    /// Which network to run.
    pub model: Model,
    /// Arrival time, simulated seconds.
    pub arrival_s: f64,
    /// Relative completion deadline, seconds (overrides the admission
    /// policy's default).
    pub deadline_s: Option<f64>,
    /// Input tensor. `None` runs the request timing-only (load-generator
    /// and fleet traffic); `Some` computes the real network output. Boxed,
    /// so a timing-only request carries one pointer rather than a tensor.
    pub input: Option<Box<Tensor>>,
}

/// A successfully served request.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Model served.
    pub model: Model,
    /// Pool index of the device that executed the batch.
    pub device: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Completion time, seconds.
    pub completion_s: f64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Whether the request was served by the model's brownout
    /// (relaxed-precision) variant rather than its primary deployment.
    pub brownout: bool,
    /// Brownout-ladder rung that served the request (0 = the primary
    /// deployment; `brownout` is exactly `brownout_rung > 0`).
    pub brownout_rung: usize,
    /// Network output, when the request carried an input; boxed like
    /// [`Request::input`].
    pub output: Option<Box<Tensor>>,
}

impl Completion {
    /// End-to-end latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// Why a request was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The model's queue was at capacity on arrival.
    QueueFull,
    /// The expected completion exceeded the deadline at dispatch time.
    Deadline,
    /// No device in the pool serves the model.
    Unserved,
}

/// A shed request.
#[derive(Clone, Copy, Debug)]
pub struct Shed {
    /// Request id.
    pub id: u64,
    /// Model requested.
    pub model: Model,
    /// Shed time, seconds.
    pub time_s: f64,
    /// Why.
    pub reason: ShedReason,
}

/// A request that failed after exhausting its retry budget, or because
/// every device serving its model was lost (only possible under fault
/// injection).
#[derive(Clone, Copy, Debug)]
pub struct Failure {
    /// Request id.
    pub id: u64,
    /// Model requested.
    pub model: Model,
    /// Failure time, seconds.
    pub time_s: f64,
    /// Execution attempts made.
    pub attempts: u32,
}

/// One entry of a run's recovery log: a fault observed or a recovery
/// action taken. The log is fully deterministic for a given fault plan.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// When, simulated seconds.
    pub t_s: f64,
    /// Who (a device name or `req <id>`).
    pub subject: String,
    /// What happened: `hang-detected`, `corrupt`, `reprogram-ok`,
    /// `reprogram-fail`, `returned`, `lost`, `redistributed`, `failed`.
    pub action: String,
    /// Free-form context.
    pub detail: String,
}

/// Fault-handling policy: watchdog, retry and reprogram knobs. The default
/// is inert in fault-free runs — none of these paths execute unless the
/// pool carries an enabled [`FaultInjector`].
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// The host watchdog declares a batch hung this many multiples of its
    /// clean execution time after it started (clamped to ≥ 1).
    pub timeout_mult: f64,
    /// Retry/backoff for requests whose batch timed out or corrupted.
    pub retry: RetryPolicy,
    /// Simulated seconds one device reprogram attempt takes (§5.2 measures
    /// reprogramming as a dominant real-host overhead).
    pub reprogram_s: f64,
    /// Reprogram attempts before a hung device is declared lost.
    pub max_reprogram_attempts: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            timeout_mult: 4.0,
            retry: RetryPolicy::default(),
            reprogram_s: 0.02,
            max_reprogram_attempts: 3,
        }
    }
}

/// End-of-run snapshot of one pooled device: what it ended up serving
/// after any rollouts, rollbacks and quarantines resolved.
#[derive(Clone, Debug)]
pub struct DeviceSummary {
    /// Device name, e.g. `s10sx-0`.
    pub device: String,
    /// Health label at end of run (`healthy`, `quarantined`, `draining`,
    /// `lost`).
    pub health: &'static str,
    /// `(model, serving configuration label)` pairs, sorted by model name.
    pub deployments: Vec<(Model, String)>,
}

/// Everything a serving run produced.
pub struct RunResult {
    /// Completed requests, in completion order.
    pub completions: Vec<Completion>,
    /// Shed requests, in shed order.
    pub sheds: Vec<Shed>,
    /// Aggregated metrics.
    pub metrics: ServiceMetrics,
    /// The unified metrics registry the run published into (counters,
    /// latency/batch histograms, shed counters, queue-depth peak, cache
    /// hit/miss, per-device busy-fraction utilization).
    pub registry: Registry,
    /// Requests that failed after exhausting retries (empty without
    /// fault injection).
    pub failures: Vec<Failure>,
    /// Chronological fault/recovery log (empty without fault injection
    /// and with brownout disabled).
    pub recovery: Vec<RecoveryEvent>,
    /// Reports of every scheduled rollout, in scheduling order.
    pub rollouts: Vec<RolloutReport>,
    /// End-of-run device snapshots: health and serving configuration per
    /// deployed model (after any rollouts/rollbacks resolved).
    pub devices: Vec<DeviceSummary>,
    /// SLO burn-rate alerts raised during the run, in fire order (empty
    /// without [`Server::with_slo`]).
    pub slo_alerts: Vec<SloAlert>,
    /// Flight-recorder postmortems frozen by anomaly triggers (empty
    /// without [`Server::with_flight_recorder`]).
    pub postmortems: Vec<Postmortem>,
}

/// Server configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {
    /// Dynamic-batching policy (applied per model).
    pub batch: BatchPolicy,
    /// Admission-control policy.
    pub admission: AdmissionPolicy,
    /// Fault-handling policy (inert unless the pool has a fault injector).
    pub fault: FaultPolicy,
    /// Precision-brownout policy (inert unless enabled *and* the pool
    /// stages a brownout variant for the model).
    pub brownout: BrownoutPolicy,
}

struct ModelState {
    model: Model,
    batcher: DynamicBatcher,
    /// Completion times of dispatched-but-unfinished requests; together
    /// with the queue this is the outstanding work admission bounds.
    inflight: Vec<f64>,
    /// Recent shed timestamps (pruned to the brownout window).
    shed_times: Vec<f64>,
    /// Most recent shed, seconds; `-inf` before the first.
    last_shed_s: f64,
    /// Brownout-ladder rung the model currently serves from (0 = primary;
    /// deeper rungs trade more precision for more throughput).
    rung: usize,
    /// When the model last changed rung, seconds; `-inf` before the first.
    /// Escalating another rung needs a fresh window of sheds after this,
    /// and each ascent needs its own idle promotion window.
    last_transition_s: f64,
}

/// A request awaiting its retry backoff.
struct PendingRetry {
    due_s: f64,
    /// Insertion order — the deterministic tie-break at equal due times.
    seq: u64,
    req: Request,
}

/// What the next armed timer does.
#[derive(Clone, Copy)]
enum Timer {
    /// Flush the batcher of `states[i]`.
    Flush(usize),
    /// Re-enqueue the earliest pending retry.
    Retry,
    /// Step the state machine of `rollouts[k]`.
    Rollout(usize),
}

/// A batch committed to a device: what its outcome handler publishes.
struct Batch {
    /// Index of the model's state; its request lane is `1 + state`.
    state: usize,
    model: Model,
    /// Ladder rung it runs at (0 = the primary deployment).
    rung: usize,
    /// The chosen device, start and expected completion.
    at: Dispatch,
    /// When it was dispatched, simulated seconds.
    dispatch_s: f64,
    /// When the host learns the outcome: completion, or the watchdog.
    end_s: f64,
    size: usize,
}

/// A multi-device inference server over simulated time.
pub struct Server {
    pool: DevicePool,
    cfg: ServeConfig,
    // Per-model state in a Vec (not a HashMap) so every iteration order is
    // deterministic.
    states: Vec<ModelState>,
    completions: Vec<Completion>,
    sheds: Vec<Shed>,
    /// (request id, resolution time) in recording order — the response
    /// stream closed-loop clients consume. Only a closed-loop run opens it,
    /// and it drains it every turn.
    resolutions: Option<Vec<(u64, f64)>>,
    metrics: ServiceMetrics,
    registry: Registry,
    tracer: Tracer,
    first_arrival_s: f64,
    last_event_s: f64,
    pending_retries: Vec<PendingRetry>,
    retry_seq: u64,
    /// Original arrival time per request id — retries re-enter with a later
    /// `arrival_s`, but latency and deadlines are measured from first sight.
    first_seen: HashMap<u64, f64>,
    /// Execution attempts per request id.
    attempts: HashMap<u64, u32>,
    /// The batch being dispatched, kept between flushes for its capacity.
    batch: Vec<Request>,
    failures: Vec<Failure>,
    recovery: Vec<RecoveryEvent>,
    rollouts: Vec<RolloutRun>,
    slos: Vec<SloMonitor>,
    flight: FlightRecorder,
    profiler: HotPathProfiler,
}

impl Server {
    /// A server over a configured pool.
    pub fn new(pool: DevicePool, cfg: ServeConfig) -> Server {
        Server {
            pool,
            cfg,
            states: Vec::new(),
            completions: Vec::new(),
            sheds: Vec::new(),
            resolutions: None,
            metrics: ServiceMetrics::new(),
            registry: Registry::new(),
            tracer: Tracer::disabled(),
            first_arrival_s: f64::INFINITY,
            last_event_s: 0.0,
            pending_retries: Vec::new(),
            retry_seq: 0,
            first_seen: HashMap::new(),
            attempts: HashMap::new(),
            batch: Vec::new(),
            failures: Vec::new(),
            recovery: Vec::new(),
            rollouts: Vec::new(),
            slos: Vec::new(),
            flight: FlightRecorder::disabled(),
            profiler: HotPathProfiler::disabled(),
        }
    }

    /// Schedules a live rollout; the run starts at its `at_s` off the
    /// server's timer wheel. Several rollouts (of different models) can be
    /// scheduled on one server.
    pub fn schedule_rollout(&mut self, spec: RolloutSpec) {
        if self.tracer.is_enabled() {
            self.tracer
                .set_thread_name(PID_SERVE, ROLLOUT_LANE, "rollout");
        }
        self.rollouts.push(RolloutRun::new(spec));
    }

    /// Builder form of [`Server::schedule_rollout`].
    pub fn with_rollout(mut self, spec: RolloutSpec) -> Server {
        self.schedule_rollout(spec);
        self
    }

    /// Attaches a tracer recording per-request and per-batch spans on the
    /// serving track group (simulated time).
    pub fn with_tracer(mut self, tracer: &Tracer) -> Server {
        self.tracer = tracer.clone();
        if self.tracer.is_enabled() {
            self.tracer.set_process_name(PID_SERVE, "serving");
            for (i, dev) in self.pool.devices().iter().enumerate() {
                self.tracer.set_thread_name(
                    PID_SERVE,
                    DEVICE_LANE_BASE + i as u32,
                    &format!("device {}", dev.name),
                );
            }
            if !self.rollouts.is_empty() {
                self.tracer
                    .set_thread_name(PID_SERVE, ROLLOUT_LANE, "rollout");
            }
        }
        self
    }

    /// Publishes metrics into an existing registry instead of a fresh one
    /// (lets several runs or subsystems share one exposition).
    pub fn with_registry(mut self, registry: &Registry) -> Server {
        self.registry = registry.clone();
        self
    }

    /// Monitors a per-model SLO with multi-window burn-rate alerting.
    /// Alerts land in [`RunResult::slo_alerts`], the recovery log, the
    /// metrics registry, and trigger flight-recorder postmortems. Several
    /// policies (for different models) can be attached to one server.
    pub fn with_slo(mut self, policy: SloPolicy) -> Server {
        self.slos.push(SloMonitor::new(policy));
        self
    }

    /// Attaches an anomaly flight recorder. The server streams
    /// completions, sheds, retries, recovery actions and rollout events
    /// into its ring, and freezes a [`Postmortem`] on batch timeouts,
    /// quarantines, device loss, rollbacks and SLO breaches. The caller
    /// keeps its own handle (clones share the ring); the run's snapshots
    /// move out of the recorder into [`RunResult::postmortems`].
    pub fn with_flight_recorder(mut self, flight: &FlightRecorder) -> Server {
        self.flight = flight.clone();
        self
    }

    /// Attaches a hot-path self-profiler measuring the *host* cost of the
    /// dispatch path (wall time per flush, allocations, span-recording
    /// overhead). Counters are exported into the registry under the
    /// `serve_profile_` prefix at end of run; being wall-clock, they are
    /// for dashboards and logs, never deterministic artifacts.
    pub fn with_profiler(mut self, profiler: &HotPathProfiler) -> Server {
        self.profiler = profiler.clone();
        self
    }

    /// The pool (for inspection after a run).
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    fn state_idx(&mut self, model: Model) -> usize {
        if let Some(i) = self.states.iter().position(|s| s.model == model) {
            return i;
        }
        self.states.push(ModelState {
            model,
            batcher: DynamicBatcher::new(self.cfg.batch),
            inflight: Vec::new(),
            shed_times: Vec::new(),
            last_shed_s: f64::NEG_INFINITY,
            rung: 0,
            last_transition_s: f64::NEG_INFINITY,
        });
        let i = self.states.len() - 1;
        self.tracer.set_thread_name(
            PID_SERVE,
            1 + i as u32,
            &format!("requests {}", model.name()),
        );
        i
    }

    /// Earliest armed timer: wait-timer expiries over all non-empty queues
    /// merged with retry-backoff due times. At equal times the retry fires
    /// first so the re-enqueued request can join the flushing batch.
    fn next_timer(&self) -> Option<(f64, Timer)> {
        let mut best: Option<(f64, Timer)> = None;
        for (i, s) in self.states.iter().enumerate() {
            if let Some(d) = s.batcher.flush_deadline() {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, Timer::Flush(i)));
                }
            }
        }
        if let Some(k) = self.earliest_retry() {
            let due_s = self.pending_retries[k].due_s;
            if best.is_none_or(|(bd, _)| due_s <= bd) {
                best = Some((due_s, Timer::Retry));
            }
        }
        // Rollout steps lose ties: at equal times batches flush (and
        // retries re-enqueue) before a drain takes their devices away.
        // Rollouts run strictly in scheduling order — only the first
        // unresolved one is eligible, so a rollout whose start time lands
        // while its predecessor is still converting waits for it instead
        // of draining the same devices from two state machines at once.
        // A successor whose start time already passed fires at its
        // predecessor's finish time, not back-dated.
        let mut floor = f64::NEG_INFINITY;
        for (k, r) in self.rollouts.iter().enumerate() {
            let n = r.next_s();
            if n.is_finite() {
                let n = n.max(floor);
                if best.is_none_or(|(bd, _)| n < bd) {
                    best = Some((n, Timer::Rollout(k)));
                }
                break;
            }
            floor = floor.max(r.last_t());
        }
        best
    }

    /// Index of the pending retry due first; insertion order breaks ties.
    fn earliest_retry(&self) -> Option<usize> {
        self.pending_retries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.due_s.total_cmp(&b.1.due_s).then(a.1.seq.cmp(&b.1.seq)))
            .map(|(k, _)| k)
    }

    fn fire_timer(&mut self, t: f64, timer: Timer) {
        match timer {
            Timer::Flush(i) => self.flush(i, t),
            Timer::Retry => {
                let k = self
                    .earliest_retry()
                    .expect("retry timer armed only while retries are pending");
                let p = self.pending_retries.swap_remove(k);
                self.handle_arrival(p.req);
            }
            Timer::Rollout(k) => {
                let timeout_mult = self.cfg.fault.timeout_mult;
                let rollout = &mut self.rollouts[k];
                rollout.step(
                    t,
                    &mut self.pool,
                    &self.tracer,
                    &mut self.registry,
                    timeout_mult,
                );
                self.last_event_s = self.last_event_s.max(rollout.last_t());
                if self.flight.is_enabled() {
                    for ev in rollout.unseen_events() {
                        self.flight.record(
                            ev.t_s,
                            "rollout",
                            FlightData::text(&ev.action, &ev.device, &ev.detail),
                        );
                        if ev.action == "rollback-begin" {
                            self.flight
                                .trigger(ev.t_s, "rollback", &ev.device, &ev.detail);
                        }
                    }
                }
            }
        }
    }

    /// Admits one request (the profiler measures the host cost of the
    /// admission half of the dispatch path).
    fn handle_arrival(&mut self, req: Request) {
        let probe = self.profiler.begin();
        self.arrival_inner(req);
        self.profiler.end(probe);
    }

    fn arrival_inner(&mut self, req: Request) {
        self.first_arrival_s = self.first_arrival_s.min(req.arrival_s);
        self.last_event_s = self.last_event_s.max(req.arrival_s);
        if !self.pool.serves(req.model) {
            self.shed(req.id, req.model, req.arrival_s, ShedReason::Unserved);
            return;
        }
        self.first_seen.entry(req.id).or_insert(req.arrival_s);
        let t = req.arrival_s;
        let model = req.model;
        let i = self.state_idx(model);
        let s = &mut self.states[i];
        // Outstanding work = still queued + dispatched but not yet
        // complete; bounding it (not just the queue) is what pushes back
        // on a producer outrunning the pool.
        s.inflight.retain(|&c| c > t);
        let depth = s.batcher.len() + s.inflight.len();
        if !self.cfg.admission.admit(depth) {
            self.shed(req.id, req.model, t, ShedReason::QueueFull);
            return;
        }
        let full = self.states[i].batcher.push(req);
        self.metrics.peak_queue_depth = self.metrics.peak_queue_depth.max(depth + 1);
        self.registry.gauge_max(
            "serve_queue_depth_peak_requests",
            "Peak outstanding requests per model (queued + inflight).",
            &[("model", model.name())],
            (depth + 1) as f64,
        );
        if full {
            // Direct call: this flush is part of the arrival operation
            // already under the open probe (no double-counting).
            self.flush_inner(i, t);
        }
    }

    /// Serve-pid request lane of a model (0 when the model has no state).
    fn lane(&self, model: Model) -> u32 {
        self.states
            .iter()
            .position(|s| s.model == model)
            .map_or(0, |i| 1 + i as u32)
    }

    /// Appends to the recovery log, mirroring the entry into the flight
    /// recorder's ring — every fault/recovery action is incident context.
    fn record_recovery_event(&mut self, ev: RecoveryEvent) {
        if self.flight.is_enabled() {
            self.flight.record(
                ev.t_s,
                "recovery",
                FlightData::text(&ev.action, &ev.subject, &ev.detail),
            );
        }
        self.recovery.push(ev);
    }

    /// Feeds one request outcome to every SLO monitoring `model`. A newly
    /// raised alert lands in the recovery log and freezes a flight
    /// postmortem.
    fn observe_slo(&mut self, model: Model, t: f64, latency_s: Option<f64>, available: bool) {
        let mut raised = Vec::new();
        for m in &mut self.slos {
            if m.policy.model == model {
                raised.extend(m.observe(t, latency_s, available, &self.registry));
            }
        }
        for a in raised {
            let detail = format!(
                "{} SLO burning {:.0}x/{:.0}x (fast/slow) of budget, threshold {:.0}x",
                a.slo.label(),
                a.fast_burn,
                a.slow_burn,
                a.threshold
            );
            self.record_recovery_event(RecoveryEvent {
                t_s: a.t_s,
                subject: model.name().to_string(),
                action: "slo-breach".into(),
                detail: detail.clone(),
            });
            self.flight
                .trigger(a.t_s, "slo-breach", model.name(), detail);
        }
    }

    fn shed(&mut self, id: u64, model: Model, time_s: f64, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull | ShedReason::Unserved => self.metrics.shed_queue_full += 1,
            ShedReason::Deadline => self.metrics.shed_deadline += 1,
        }
        let label = match reason {
            ShedReason::QueueFull => "queue-full",
            ShedReason::Deadline => "deadline",
            ShedReason::Unserved => "unserved",
        };
        self.registry.counter_inc(
            "serve_requests_shed_total",
            "Requests shed, by model and reason.",
            &[("model", model.name()), ("reason", label)],
        );
        if self.tracer.is_enabled() {
            self.tracer.instant(
                PID_SERVE,
                self.lane(model),
                "shed",
                &format!("shed req {id} ({label})"),
                time_s,
            );
        }
        self.sheds.push(Shed {
            id,
            model,
            time_s,
            reason,
        });
        self.resolved(id, time_s);
        self.forget(id);
        if self.flight.is_enabled() {
            self.flight.record(
                time_s,
                "serve",
                FlightData::Shed {
                    id,
                    model: model.name(),
                    reason: label,
                },
            );
        }
        self.observe_slo(model, time_s, None, false);
        self.note_shed_for_brownout(model, time_s);
    }

    /// Appends a resolution to the response stream, when a closed-loop run
    /// has opened one.
    fn resolved(&mut self, id: u64, t: f64) {
        if let Some(stream) = &mut self.resolutions {
            stream.push((id, t));
        }
    }

    /// Drops a resolved request's first-sight time and attempt count: only
    /// a request still queued, retried or deferred reads them again.
    fn forget(&mut self, id: u64) {
        self.first_seen.remove(&id);
        self.attempts.remove(&id);
    }

    /// Records a shed against the brownout trigger and descends the model
    /// one ladder rung when sustained overload trips the policy (and the
    /// pool stages a deeper relaxed-precision rung to absorb it). Each
    /// further descent needs a fresh window of sheds after the previous
    /// transition, so a single burst never skips rungs.
    fn note_shed_for_brownout(&mut self, model: Model, t: f64) {
        let bp = self.cfg.brownout;
        if !bp.enabled {
            return;
        }
        let Some(i) = self.states.iter().position(|s| s.model == model) else {
            return;
        };
        let s = &mut self.states[i];
        s.last_shed_s = t;
        s.shed_times.retain(|&x| x >= t - bp.window_s);
        s.shed_times.push(t);
        let since: Vec<f64> = s
            .shed_times
            .iter()
            .copied()
            .filter(|&x| x > s.last_transition_s)
            .collect();
        let deeper = s.rung + 1;
        if bp.tripped(&since, t) && deeper <= self.pool.brownout_rungs(model) {
            self.change_rung(i, t, deeper);
        }
    }

    /// Promotes a browned-out model one rung back toward its primary
    /// deployment once the load has subsided — each ascent needs its own
    /// idle promotion window, so recovery is as staged as the descent.
    /// Returns the ladder rung serving the batch being flushed at `t`
    /// (0 = primary).
    fn brownout_for_flush(&mut self, i: usize, t: f64) -> usize {
        let bp = self.cfg.brownout;
        let s = &self.states[i];
        if bp.enabled && s.rung > 0 && bp.promote(s.last_shed_s.max(s.last_transition_s), t) {
            self.change_rung(i, t, s.rung - 1);
        }
        self.states[i].rung
    }

    /// Moves `states[i]` to ladder rung `rung` at `t` and publishes the
    /// switch: its counter, a marker on the model's lane and a
    /// recovery-log entry.
    fn change_rung(&mut self, i: usize, t: f64, rung: usize) {
        let s = &mut self.states[i];
        let descending = rung > s.rung;
        s.rung = rung;
        s.last_transition_s = t;
        let model = s.model.name();
        let (direction, detail) = match (descending, rung) {
            (true, 1) => (
                "enter",
                "sustained sheds; serving the relaxed-precision variant".to_string(),
            ),
            (true, _) => (
                "descend",
                format!("sustained sheds; descending to ladder rung {rung}"),
            ),
            (false, 0) => (
                "exit",
                "load subsided; back on the primary deployment".to_string(),
            ),
            (false, _) => (
                "ascend",
                format!("load subsided; ascending to ladder rung {rung}"),
            ),
        };
        self.registry.counter_inc(
            "serve_brownout_switches_total",
            "Models switched between primary and brownout deployments.",
            &[("model", model), ("direction", direction)],
        );
        if self.tracer.is_enabled() {
            let label = match direction {
                "enter" | "exit" => format!("brownout {direction} {model}"),
                _ => format!("brownout {direction} {model} -> rung {rung}"),
            };
            self.tracer
                .instant(PID_SERVE, 1 + i as u32, "brownout", &label, t);
        }
        self.record_recovery_event(RecoveryEvent {
            t_s: t,
            subject: model.to_string(),
            action: format!("brownout-{direction}"),
            detail,
        });
    }

    /// Dispatches the batch forming in `states[i]` at simulated time `t`
    /// (the profiler measures the host cost of the flush half of the
    /// dispatch path).
    fn flush(&mut self, i: usize, t: f64) {
        let probe = self.profiler.begin();
        self.flush_inner(i, t);
        self.profiler.end(probe);
    }

    fn flush_inner(&mut self, i: usize, t: f64) {
        // The batch buffer is reused from flush to flush.
        let mut batch = std::mem::take(&mut self.batch);
        self.states[i].batcher.take_batch(&mut batch);
        self.dispatch_batch(i, t, &mut batch);
        batch.clear();
        self.batch = batch;
    }

    /// Dispatches `batch`, just taken from `states[i]`, at simulated time
    /// `t`, and hands its requests to the handler of the batch's outcome.
    fn dispatch_batch(&mut self, i: usize, t: f64, batch: &mut Vec<Request>) {
        let model = self.states[i].model;
        let rung = self.brownout_for_flush(i, t);
        debug_assert!(!batch.is_empty(), "flushes fire only on a non-empty queue");
        // Expected completion from the calibrated latency model drives both
        // device choice and deadline shedding.
        let Some((mut at, rung)) = self.lookup(model, batch.len(), t, rung) else {
            if self.pool.has_draining(model) {
                return self.defer(batch, t);
            }
            return self.fail_unservable(model, batch, t);
        };
        let before = batch.len();
        let adm = self.cfg.admission;
        batch.retain(|r| {
            let orig = self.first_seen.get(&r.id).copied().unwrap_or(r.arrival_s);
            let missed = adm.deadline_missed(orig, r.deadline_s, at.expected_completion_s);
            if missed {
                self.shed(r.id, model, t, ShedReason::Deadline);
            }
            !missed
        });
        if batch.is_empty() {
            return;
        }
        if batch.len() != before {
            // Shedding shrank the batch: re-score so the commitment matches
            // what actually executes.
            (at, _) = self
                .lookup(model, batch.len(), t, rung)
                .expect("the rung just dispatched still has a device");
        }
        let size = batch.len();
        let timeout = self.cfg.fault.timeout_mult;
        let outcome = self
            .pool
            .execute_batch(at.device, model, size, at.start_s, timeout, rung);
        let b = Batch {
            state: i,
            model,
            rung,
            at,
            dispatch_s: t,
            end_s: outcome.end_s(),
            size,
        };
        self.pool.commit(at.device, at.start_s, b.end_s);
        self.last_event_s = self.last_event_s.max(b.end_s);
        self.metrics.record_batch(size);
        match outcome {
            BatchOutcome::Done { .. } => self.complete(&b, batch),
            faulted => self.retry_faulted(&b, faulted, batch),
        }
    }

    /// The device for a batch of `n` of `model` at ladder rung `rung` or,
    /// when no dispatchable device stages that rung, at the next rung
    /// toward (and finally at) the primary deployment. Returns the
    /// dispatch and the rung it runs at.
    fn lookup(&self, model: Model, n: usize, t: f64, rung: usize) -> Option<(Dispatch, usize)> {
        (0..=rung.min(self.pool.brownout_rungs(model)))
            .rev()
            .find_map(|r| Some((self.pool.dispatch_variant(model, n, t, r)?, r)))
    }

    /// Clean completion: publishes the batch and resolves its requests.
    fn complete(&mut self, b: &Batch, batch: &mut Vec<Request>) {
        let (model, size, completion_s) = (b.model, b.size, b.end_s);
        let device_name = &self.pool.devices()[b.at.device].name;
        if self
            .pool
            .fault_injector()
            .compute_scale(device_name, b.at.start_s)
            > 1.0
        {
            self.registry.counter_inc(
                "serve_batches_degraded_total",
                "Batches served by a persistently slowed (degraded, not hung) device.",
                &[("model", model.name()), ("device", device_name)],
            );
        }
        self.registry.histogram_observe(
            "serve_batch_size",
            "Dispatched batch sizes.",
            &[("model", model.name())],
            BATCH_BOUNDS,
            size as f64,
        );
        if self.tracer.is_enabled() {
            let (profiler, tracer) = (&self.profiler, &self.tracer);
            profiler.measure_span_record(tracer, || {
                tracer.span_args(
                    PID_SERVE,
                    DEVICE_LANE_BASE + b.at.device as u32,
                    "batch",
                    &format!("{} x{size}", model.name()),
                    b.at.start_s,
                    completion_s,
                    &[
                        ("dispatch_s", format!("{}", b.dispatch_s)),
                        (
                            "expected_completion_s",
                            format!("{}", b.at.expected_completion_s),
                        ),
                    ],
                );
            });
        }
        self.states[b.state]
            .inflight
            .extend(std::iter::repeat_n(completion_s, size));
        let deployment = Arc::clone(
            self.pool.devices()[b.at.device]
                .serving_deployment(model, b.rung)
                .expect("dispatch chose a device serving the variant"),
        );
        for r in batch.drain(..) {
            let output = r.input.map(|x| Box::new(deployment.graph.execute(&x)));
            self.complete_request(b, r.id, r.arrival_s, output);
        }
    }

    /// Resolves one request of a completed batch: metrics, trace span,
    /// flight record, SLO observation and the completion itself.
    fn complete_request(
        &mut self,
        b: &Batch,
        id: u64,
        arrival_s: f64,
        output: Option<Box<Tensor>>,
    ) {
        let (model, size, completion_s) = (b.model, b.size, b.end_s);
        let arrival_s = self.first_seen.get(&id).copied().unwrap_or(arrival_s);
        self.forget(id);
        self.metrics.latency.record(completion_s - arrival_s);
        self.metrics.completed += 1;
        self.registry.counter_inc(
            "serve_requests_completed_total",
            "Requests completed, by model.",
            &[("model", model.name())],
        );
        if b.rung > 0 {
            self.registry.counter_inc(
                "serve_requests_brownout_total",
                "Requests served by a brownout (relaxed-precision) variant.",
                &[("model", model.name())],
            );
        }
        self.registry.histogram_observe(
            "serve_request_latency_seconds",
            "End-to-end request latency (arrival to completion).",
            &[("model", model.name())],
            LATENCY_BOUNDS_S,
            completion_s - arrival_s,
        );
        let device_name = &self.pool.devices()[b.at.device].name;
        if self.tracer.is_enabled() {
            let (profiler, tracer) = (&self.profiler, &self.tracer);
            profiler.measure_span_record(tracer, || {
                tracer.span_args(
                    PID_SERVE,
                    1 + b.state as u32,
                    "request",
                    &format!("req {id}"),
                    arrival_s,
                    completion_s,
                    &[
                        ("device", device_name.to_string()),
                        ("batch", size.to_string()),
                        ("dispatch_s", format!("{}", b.dispatch_s)),
                    ],
                );
            });
        }
        if self.flight.is_enabled() {
            self.flight.record(
                completion_s,
                "serve",
                FlightData::Completion {
                    id,
                    model: model.name(),
                    batch: size,
                    device: Arc::clone(device_name),
                    arrival_s,
                },
            );
        }
        self.observe_slo(model, completion_s, Some(completion_s - arrival_s), true);
        self.resolved(id, completion_s);
        self.completions.push(Completion {
            id,
            model,
            device: b.at.device,
            arrival_s,
            completion_s,
            batch_size: size,
            brownout: b.rung > 0,
            brownout_rung: b.rung,
            output,
        });
    }

    /// A corrupt read-back or a watchdog timeout: counts, traces and logs
    /// the fault, quarantines a hung device, and requeues the requests
    /// with backoff.
    fn retry_faulted(&mut self, b: &Batch, outcome: BatchOutcome, batch: &mut Vec<Request>) {
        let (model, size, end_s) = (b.model, b.size, b.end_s);
        let (kind, action, detail) = match outcome {
            BatchOutcome::TimedOut { hang_s, .. } => (
                "timeout",
                "hang-detected",
                format!(
                    "{} x{size} hung at {:.3} ms, watchdog fired",
                    model.name(),
                    hang_s * 1e3
                ),
            ),
            _ => (
                "corrupt",
                "corrupt",
                format!("{} x{size} read-back failed verification", model.name()),
            ),
        };
        self.registry.counter_inc(
            "serve_batches_faulted_total",
            "Dispatched batches lost to an injected fault, by kind.",
            &[("model", model.name()), ("kind", kind)],
        );
        if self.tracer.is_enabled() {
            self.tracer.span(
                PID_SERVE,
                DEVICE_LANE_BASE + b.at.device as u32,
                "fault",
                &format!("{} x{size} {kind}", model.name()),
                b.at.start_s,
                end_s,
            );
        }
        self.record_recovery_event(RecoveryEvent {
            t_s: end_s,
            subject: self.pool.devices()[b.at.device].name.to_string(),
            action: action.into(),
            detail,
        });
        if let BatchOutcome::TimedOut { hang_s, .. } = outcome {
            self.quarantine_hung(b, hang_s);
        }
        self.requeue_or_fail(model, batch, end_s);
    }

    /// Watchdog timeout: freezes a postmortem, quarantines and reprograms
    /// the hung device, and logs the batch's redistribution.
    fn quarantine_hung(&mut self, b: &Batch, hang_s: f64) {
        let (model, size, fail_s) = (b.model, b.size, b.end_s);
        let device_name = Arc::clone(&self.pool.devices()[b.at.device].name);
        self.flight.trigger(
            fail_s,
            "timeout",
            &device_name,
            format!("{} x{size} watchdog fired", model.name()),
        );
        let fault = self.cfg.fault;
        let rec = self.pool.quarantine(
            b.at.device,
            fail_s,
            hang_s,
            fault.reprogram_s,
            fault.max_reprogram_attempts,
        );
        if let Some(rec) = rec {
            self.record_recovery(&device_name, &rec);
        }
        if self.tracer.is_enabled() {
            self.tracer.instant(
                PID_SERVE,
                1 + b.state as u32,
                "redistribute",
                &format!("redistribute {size} requests off {device_name}"),
                fail_s,
            );
        }
        self.record_recovery_event(RecoveryEvent {
            t_s: fail_s,
            subject: device_name.to_string(),
            action: "redistributed".into(),
            detail: format!("{size} requests re-enqueued"),
        });
    }

    /// Publishes a quarantine's reprogram attempts, then its outcome: the
    /// device's return to service or its loss.
    fn record_recovery(&mut self, device_name: &str, rec: &Recovery) {
        for (k, &(a0, a1, ok)) in rec.attempts.iter().enumerate() {
            if self.tracer.is_enabled() {
                self.tracer.span(
                    PID_SERVE,
                    DEVICE_LANE_BASE + rec.device as u32,
                    "reprogram",
                    &format!(
                        "reprogram {} attempt {} ({})",
                        device_name,
                        k + 1,
                        if ok { "ok" } else { "fail" }
                    ),
                    a0,
                    a1,
                );
            }
            self.record_recovery_event(RecoveryEvent {
                t_s: a1,
                subject: device_name.to_string(),
                action: if ok { "reprogram-ok" } else { "reprogram-fail" }.into(),
                detail: format!("attempt {}", k + 1),
            });
            self.last_event_s = self.last_event_s.max(a1);
        }
        match rec.until_s {
            Some(until_s) => self.record_return(device_name, rec, until_s),
            None => self.record_loss(device_name, rec),
        }
    }

    /// A reprogrammed device returns to service at `until_s`.
    fn record_return(&mut self, device_name: &str, rec: &Recovery, until_s: f64) {
        if self.tracer.is_enabled() {
            self.tracer.span(
                PID_SERVE,
                DEVICE_LANE_BASE + rec.device as u32,
                "quarantine",
                &format!("quarantine {device_name}"),
                rec.fail_s,
                until_s,
            );
        }
        self.registry.counter_inc(
            "serve_device_quarantines_total",
            "Hung devices quarantined and reprogrammed back to service.",
            &[("device", device_name)],
        );
        self.record_recovery_event(RecoveryEvent {
            t_s: until_s,
            subject: device_name.to_string(),
            action: "returned".into(),
            detail: format!(
                "back in service after {:.3} ms quarantine",
                (until_s - rec.fail_s) * 1e3
            ),
        });
        self.flight.trigger(
            until_s,
            "quarantine",
            device_name,
            format!(
                "reprogrammed back to service after {} attempt(s)",
                rec.attempts.len()
            ),
        );
    }

    /// Every reprogram attempt failed: the device leaves the pool.
    fn record_loss(&mut self, device_name: &str, rec: &Recovery) {
        let lost_s = rec.attempts.last().map_or(rec.fail_s, |a| a.1);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                PID_SERVE,
                DEVICE_LANE_BASE + rec.device as u32,
                "fault",
                &format!("{device_name} lost"),
                lost_s,
            );
        }
        self.registry.counter_inc(
            "serve_devices_lost_total",
            "Devices lost after every reprogram attempt failed.",
            &[("device", device_name)],
        );
        self.record_recovery_event(RecoveryEvent {
            t_s: lost_s,
            subject: device_name.to_string(),
            action: "lost".into(),
            detail: format!(
                "{} reprogram attempts failed; device removed from pool",
                rec.attempts.len()
            ),
        });
        self.flight.trigger(
            lost_s,
            "device-lost",
            device_name,
            format!("{} reprogram attempts failed", rec.attempts.len()),
        );
    }

    /// Every device serving `model` was lost after these requests were
    /// admitted: nothing can ever execute them.
    fn fail_unservable(&mut self, model: Model, batch: &mut Vec<Request>, t: f64) {
        for r in batch.drain(..) {
            let attempts = self.attempts.get(&r.id).copied().unwrap_or(0);
            let cause = format!(
                "every device serving {} was lost ({attempts} attempts)",
                model.name()
            );
            self.fail(r.id, model, t, attempts, cause);
        }
    }

    /// Parks a batch that found every serving device draining for a
    /// rollout: re-enqueued shortly, without charging the retry budget.
    /// Rollouts finish in bounded sim-time, so deferral terminates.
    fn defer(&mut self, batch: &mut Vec<Request>, t: f64) {
        for r in batch.drain(..) {
            self.park(r, t + DRAIN_DEFER_S);
        }
    }

    /// Re-enqueues a faulted batch's requests with backoff, failing any
    /// whose retry budget is spent.
    fn requeue_or_fail(&mut self, model: Model, batch: &mut Vec<Request>, t: f64) {
        let retry = self.cfg.fault.retry;
        for r in batch.drain(..) {
            let n = {
                let e = self.attempts.entry(r.id).or_insert(0);
                *e += 1;
                *e
            };
            if n > retry.max_attempts {
                self.fail(
                    r.id,
                    model,
                    t,
                    n,
                    format!("retry budget spent ({n} attempts)"),
                );
                continue;
            }
            let due = t + retry.backoff_s(n);
            self.metrics.retried += 1;
            self.registry.counter_inc(
                "serve_requests_retried_total",
                "Requests re-enqueued after their batch faulted.",
                &[("model", model.name())],
            );
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    PID_SERVE,
                    self.lane(model),
                    "retry",
                    &format!("retry req {} (attempt {n})", r.id),
                    due,
                );
            }
            if self.flight.is_enabled() {
                self.flight.record(
                    due,
                    "serve",
                    FlightData::Retry {
                        id: r.id,
                        model: model.name(),
                        attempt: n,
                    },
                );
            }
            self.park(r, due);
        }
    }

    /// Holds `r` back until `due_s`, when it re-enters admission as a new
    /// arrival.
    fn park(&mut self, r: Request, due_s: f64) {
        self.retry_seq += 1;
        self.pending_retries.push(PendingRetry {
            due_s,
            seq: self.retry_seq,
            req: Request {
                arrival_s: due_s,
                ..r
            },
        });
    }

    /// Terminally fails a request after `attempts` executions; `cause` is
    /// the recovery log's detail.
    fn fail(&mut self, id: u64, model: Model, t: f64, attempts: u32, cause: String) {
        self.metrics.failed += 1;
        self.registry.counter_inc(
            "serve_requests_failed_total",
            "Requests failed after exhausting retries, by model.",
            &[("model", model.name())],
        );
        if self.tracer.is_enabled() {
            self.tracer.instant(
                PID_SERVE,
                self.lane(model),
                "fail",
                &format!("req {id} failed after {attempts} attempts"),
                t,
            );
        }
        self.record_recovery_event(RecoveryEvent {
            t_s: t,
            subject: format!("req {id}"),
            action: "failed".into(),
            detail: cause,
        });
        self.failures.push(Failure {
            id,
            model,
            time_s: t,
            attempts,
        });
        self.observe_slo(model, t, None, false);
        self.resolved(id, t);
        self.forget(id);
        self.last_event_s = self.last_event_s.max(t);
    }

    /// Fires every timer (queue flushes and retry re-enqueues) due at or
    /// before `t`.
    fn advance_until(&mut self, t: f64) {
        while let Some((deadline, timer)) = self.next_timer() {
            if deadline > t {
                break;
            }
            self.fire_timer(deadline, timer);
        }
    }

    fn finish(mut self) -> RunResult {
        self.advance_until(f64::INFINITY);
        self.metrics.span_s = if self.first_arrival_s.is_finite() {
            (self.last_event_s - self.first_arrival_s).max(0.0)
        } else {
            0.0
        };
        self.publish_run_totals();
        if self.pool.fault_injector().is_enabled() {
            self.publish_fault_totals();
        }
        let last = self.last_event_s;
        let devices = self
            .pool
            .devices()
            .iter()
            .map(|dev| DeviceSummary {
                device: dev.name.to_string(),
                health: dev.health_at(last).label(),
                deployments: dev.deployed_models(),
            })
            .collect();
        // Wall-clock profiler counters go to the registry only — never
        // into deterministic run artifacts.
        self.profiler.export(&self.registry, "serve");
        let mut slo_alerts: Vec<SloAlert> =
            self.slos.iter().flat_map(|m| m.alerts.clone()).collect();
        slo_alerts.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        RunResult {
            completions: self.completions,
            sheds: self.sheds,
            metrics: self.metrics,
            registry: self.registry,
            failures: self.failures,
            recovery: self.recovery,
            rollouts: self.rollouts.iter().map(RolloutRun::report).collect(),
            devices,
            slo_alerts,
            postmortems: self.flight.take_postmortems(),
        }
    }

    /// End-of-run gauges and counters: the run span, deployment-cache
    /// hits and misses, and per-device busy time and utilization.
    fn publish_run_totals(&self) {
        self.registry.gauge_set(
            "serve_span_seconds",
            "Simulated span of the run (first arrival to last completion).",
            &[],
            self.metrics.span_s,
        );
        let cache = self.pool.cache();
        self.registry.counter_add(
            "serve_deploy_cache_hits_total",
            "Deployment-cache hits.",
            &[],
            cache.hits() as f64,
        );
        self.registry.counter_add(
            "serve_deploy_cache_misses_total",
            "Deployment-cache misses (actual compiles).",
            &[],
            cache.misses() as f64,
        );
        for dev in self.pool.devices() {
            self.registry.gauge_set(
                "serve_device_busy_seconds",
                "Simulated seconds the device spent executing batches.",
                &[("device", &dev.name)],
                dev.busy_seconds(),
            );
            let util = if self.metrics.span_s > 0.0 {
                dev.busy_seconds() / self.metrics.span_s
            } else {
                0.0
            };
            self.registry.gauge_set(
                "serve_device_utilization_ratio",
                "Busy fraction of the run span, per device.",
                &[("device", &dev.name)],
                util,
            );
        }
    }

    /// End-of-run fault figures: device health, injected faults and
    /// absorbed synthesis flakes.
    fn publish_fault_totals(&self) {
        for dev in self.pool.devices() {
            self.registry.gauge_set(
                "serve_device_health_state",
                "Device health at end of run (1 healthy, 0.5 quarantined, 0 lost).",
                &[("device", &dev.name)],
                match dev.health_at(self.last_event_s) {
                    DeviceHealth::Healthy => 1.0,
                    DeviceHealth::Quarantined { .. } | DeviceHealth::Draining => 0.5,
                    DeviceHealth::Lost => 0.0,
                },
            );
        }
        self.registry.counter_add(
            "serve_faults_injected_total",
            "Fault injections observed by instrumented components.",
            &[],
            self.pool.fault_injector().injected() as f64,
        );
        self.registry.counter_add(
            "serve_synth_flakes_total",
            "Synthesis flakes absorbed by compile retries.",
            &[],
            self.pool.cache().synth_flakes() as f64,
        );
    }

    /// Serves a pre-generated (open-loop) request trace to exhaustion.
    /// Requests are processed in arrival order regardless of input order.
    pub fn run_open_loop(mut self, mut requests: Vec<Request>) -> RunResult {
        requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        for req in requests {
            self.advance_until(req.arrival_s);
            self.handle_arrival(req);
        }
        self.finish()
    }

    /// Serves `total` requests from `clients` closed-loop clients. Each
    /// client issues a request for `model`, waits for its completion (or
    /// shed), thinks an exponential time with mean `think_s`, and repeats.
    pub fn run_closed_loop(
        mut self,
        model: Model,
        clients: usize,
        think_s: f64,
        total: usize,
        seed: u64,
    ) -> RunResult {
        let mut rng = Rng64::seed_from_u64(seed);
        let think = think_s.max(1e-9);
        // Next issue time per client; INFINITY while blocked on a response.
        // Clients start staggered by one think time each.
        let mut next_issue: Vec<f64> = (0..clients.max(1))
            .map(|_| rng.exponential(1.0 / think))
            .collect();
        // request id -> client waiting on it
        let mut waiting: HashMap<u64, usize> = HashMap::new();
        let mut issued = 0usize;
        self.resolutions = Some(Vec::new());

        loop {
            // Deliver any responses recorded since the last turn: the
            // owning client starts thinking at the resolution time.
            if let Some(stream) = &mut self.resolutions {
                for (id, at) in stream.drain(..) {
                    if let Some(c) = waiting.remove(&id) {
                        next_issue[c] = at + rng.exponential(1.0 / think);
                    }
                }
            }
            let next_client = if issued < total {
                next_issue
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.is_finite())
                    .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                    .map(|(c, &t)| (t, c))
            } else {
                None
            };
            match (next_client, self.next_timer()) {
                // Issue next request when it precedes every queue timer.
                (Some((tc, c)), timer) if timer.is_none_or(|(tt, _)| tc <= tt) => {
                    let id = issued as u64;
                    issued += 1;
                    waiting.insert(id, c);
                    next_issue[c] = f64::INFINITY;
                    self.handle_arrival(Request {
                        id,
                        model,
                        arrival_s: tc,
                        deadline_s: None,
                        input: None,
                    });
                }
                (_, Some((tt, timer))) => self.fire_timer(tt, timer),
                // No client ready and no queued work: the run is complete
                // (the guard above always fires when no timer is armed).
                _ => break,
            }
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use fpgaccel_core::bitstreams::optimized_config;
    use fpgaccel_device::FpgaPlatform;
    use fpgaccel_fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};

    #[test]
    fn timing_only_requests_and_completions_carry_one_pointer_for_a_tensor() {
        // A boxed tensor slot is one pointer; an unboxed `Option<Tensor>`
        // would add 40 bytes to each.
        assert_eq!(std::mem::size_of::<Request>(), 48);
        assert_eq!(std::mem::size_of::<Completion>(), 64);
    }

    #[test]
    fn resolved_requests_leave_no_per_request_state_behind() {
        let fault = |at_s, target: &str, kind| FaultEvent {
            at_s,
            target: target.into(),
            kind,
        };
        // A hang, then a burst of corrupt read-backs on both boards: some
        // retried requests fault again and spend their one retry.
        let mut events = vec![fault(2e-3, "s10sx-0", FaultKind::DeviceHang)];
        for k in 0..16 {
            for target in ["s10sx-0", "s10sx-1"] {
                let at_s = 3e-3 + k as f64 * 2.5e-4;
                events.push(fault(at_s, target, FaultKind::TransferCorrupt));
            }
        }
        let plan = FaultPlan::new(0, events);
        let mut pool = DevicePool::new();
        pool.set_fault_injector(&FaultInjector::new(plan));
        let config = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
        for _ in 0..2 {
            let d = pool.add_device(FpgaPlatform::Stratix10Sx);
            pool.deploy(d, Model::LeNet5, &config).unwrap();
        }
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
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..FaultPolicy::default()
            },
            ..ServeConfig::default()
        };
        let mut server = Server::new(pool, cfg);
        let mut peak = 0;
        for id in 0..300 {
            let req = Request {
                id,
                model: Model::LeNet5,
                // Light load through the faults, then a burst that
                // overflows the queue.
                arrival_s: if id < 200 {
                    id as f64 * 2e-4
                } else {
                    0.05 + (id - 200) as f64 * 1e-5
                },
                // Even requests carry a deadline that queueing often misses.
                deadline_s: (id % 2 == 0).then_some(2e-3),
                input: None,
            };
            server.advance_until(req.arrival_s);
            server.handle_arrival(req);
            peak = peak.max(server.first_seen.len());
        }
        assert!(peak > 0, "admitted requests are tracked until resolved");
        server.advance_until(f64::INFINITY);
        assert!(server.metrics.retried > 0, "faulted batches retry");
        assert!(!server.failures.is_empty(), "some retries are spent");
        let shed = |reason| server.sheds.iter().any(|s| s.reason == reason);
        assert!(shed(ShedReason::QueueFull) && shed(ShedReason::Deadline));
        let resolved = server.completions.len() + server.sheds.len() + server.failures.len();
        assert_eq!(resolved, 300);
        assert!(server.first_seen.is_empty(), "{:?}", server.first_seen);
        assert!(server.attempts.is_empty(), "{:?}", server.attempts);
    }
}
