//! Safe live rollouts: drain-and-reprogram scheduling, canary
//! verification, and automatic rollback.
//!
//! A [`RolloutSpec`] asks the server to move every device serving a model
//! from its current deployment to a new [`OptimizationConfig`], live,
//! without dropping correctness or availability. The run walks devices in
//! waves:
//!
//! 1. **Drain** — wave devices are marked
//!    [`Draining`](crate::pool::DeviceHealth::Draining): no new batches
//!    are dispatched to them, while already-committed work runs to
//!    completion in sim-time.
//! 2. **Reprogram** — each drained device is reprogrammed to the new
//!    deployment through the same retry path hung devices use, so the
//!    fault plan's `ReprogramFail` events apply; a device whose every
//!    attempt fails is lost.
//! 3. **Canary** — the *first* wave serves a shadow batch whose outcome is
//!    checked four ways: execution (hang/read-back corruption under the
//!    fault plan, including corruption aimed at the device's
//!    [`shadow_target`]), a latency guardband against the pre-rollout
//!    calibration, and (optionally) full host-reference verification via
//!    the structured-error [`verify_deployment`](fpgaccel_core::verify).
//! 4. **Promote or roll back** — a passing canary promotes the wave and
//!    the remaining waves convert without further canaries; any canary
//!    failure drains the converted devices again and reprograms them back
//!    to the old deployment.
//!
//! Every transition is logged as a [`RolloutEvent`], traced as a span, and
//! exported through the `serve_rollout_*` metrics. Like everything else in
//! the serving stack the whole state machine runs in simulated time off
//! the server's timer wheel, so rollouts are byte-for-byte deterministic.

use crate::pool::{BatchOutcome, DevicePool};
use crate::service::DEVICE_LANE_BASE;
use fpgaccel_core::{OptimizationConfig, VerifyError};
use fpgaccel_fault::shadow_target;
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::Tensor;
use fpgaccel_trace::{Registry, Tracer, PID_SERVE};

/// Serve-pid track carrying rollout wave/canary spans.
pub(crate) const ROLLOUT_LANE: u32 = 48;

/// Knobs of one rollout.
#[derive(Clone, Copy, Debug)]
pub struct RolloutPolicy {
    /// Devices converted per wave.
    pub wave_size: usize,
    /// Images in the canary shadow batch.
    pub canary_shadow: usize,
    /// The canary fails if the new deployment's calibrated per-image
    /// latency exceeds `guardband ×` the old one.
    pub latency_guardband: f64,
    /// Relative tolerance for the canary's host-reference verification
    /// (when [`RolloutSpec::verify_input`] is set).
    pub verify_rtol: f32,
    /// Simulated seconds one reprogram attempt takes.
    pub reprogram_s: f64,
    /// Reprogram attempts before a device is declared lost.
    pub max_reprogram_attempts: u32,
}

impl Default for RolloutPolicy {
    fn default() -> Self {
        RolloutPolicy {
            wave_size: 1,
            canary_shadow: 4,
            latency_guardband: 1.25,
            verify_rtol: 1e-3,
            reprogram_s: 0.02,
            max_reprogram_attempts: 3,
        }
    }
}

/// One requested rollout: move `model` to deployment `to` starting at
/// `at_s`.
#[derive(Clone, Debug)]
pub struct RolloutSpec {
    /// When the first wave starts draining, simulated seconds.
    pub at_s: f64,
    /// The model being upgraded.
    pub model: Model,
    /// The target deployment configuration.
    pub to: OptimizationConfig,
    /// Input for the canary's host-reference verification; `None` skips
    /// the (interpretation-cost) check and relies on the execution and
    /// latency checks.
    pub verify_input: Option<Tensor>,
    /// Names of devices to *adopt* into serving the model even though
    /// they do not serve it yet — the self-healing migration path: a
    /// re-placement lands the model on spare boards, which drain
    /// (trivially, they carry no traffic for the model), reprogram and
    /// canary exactly like converting devices. Adopted devices have no
    /// prior deployment to restore, so a rollback keeps their new
    /// bitstream (capacity restoration is never reversed) and simply
    /// returns them to dispatch. Empty for an ordinary rollout.
    pub adopt: Vec<String>,
    /// Rollout knobs.
    pub policy: RolloutPolicy,
}

/// One entry of a rollout's structured event log.
#[derive(Clone, Debug)]
pub struct RolloutEvent {
    /// When, simulated seconds.
    pub t_s: f64,
    /// Device name (or the model name for rollout-level events).
    pub device: String,
    /// What happened: `drain-start`, `reprogram-ok`, `reprogram-fail`,
    /// `canary-pass`, `canary-fail`, `promoted`, `rollback-begin`,
    /// `rolled-back`, `adopt-released`, `lost`, `config-error`.
    pub action: String,
    /// Free-form context.
    pub detail: String,
}

/// Why a canary rejected the new deployment.
#[derive(Clone, Debug, PartialEq)]
pub enum CanaryFailure {
    /// The shadow batch's outputs diverged from the host reference.
    OutputMismatch(VerifyError),
    /// The shadow batch's read-back failed verification (§5.2).
    ReadbackCorrupt,
    /// The shadow batch hung the device.
    Hang,
    /// The new deployment is slower than the guardband allows.
    LatencyRegression {
        /// New per-image latency over old.
        ratio: f64,
    },
}

impl CanaryFailure {
    /// Short stable label (events / metrics).
    pub fn label(&self) -> &'static str {
        match self {
            CanaryFailure::OutputMismatch(_) => "output-mismatch",
            CanaryFailure::ReadbackCorrupt => "readback-corrupt",
            CanaryFailure::Hang => "hang",
            CanaryFailure::LatencyRegression { .. } => "latency-regression",
        }
    }
}

/// How a rollout ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every wave converted; the pool serves the new deployment.
    Promoted,
    /// The canary failed; every converted device serves the old
    /// deployment again.
    RolledBack,
    /// The rollout could not leave the pool in a serving state (e.g. no
    /// device served the model, or every converted device was lost).
    Failed,
}

impl RolloutOutcome {
    /// Short stable label (reports / metrics).
    pub fn label(&self) -> &'static str {
        match self {
            RolloutOutcome::Promoted => "promoted",
            RolloutOutcome::RolledBack => "rolled-back",
            RolloutOutcome::Failed => "failed",
        }
    }
}

/// Everything one rollout did.
#[derive(Clone, Debug)]
pub struct RolloutReport {
    /// The model that was upgraded.
    pub model: Model,
    /// Label of the target configuration.
    pub to_label: String,
    /// How it ended.
    pub outcome: RolloutOutcome,
    /// Waves walked (including a partially-converted first wave on
    /// rollback).
    pub waves: usize,
    /// Devices successfully reprogrammed to the new deployment (before any
    /// rollback).
    pub devices_converted: usize,
    /// Devices lost to exhausted reprogram attempts during the rollout.
    pub devices_lost: usize,
    /// The canary verdict that forced a rollback, if any.
    pub canary_failure: Option<CanaryFailure>,
    /// When the first wave started draining, simulated seconds.
    pub started_s: f64,
    /// When the rollout resolved, simulated seconds.
    pub finished_s: f64,
    /// Chronological structured event log.
    pub events: Vec<RolloutEvent>,
}

/// `serve_rollout_state` gauge values.
const STATE_IDLE: f64 = 0.0;
const STATE_DRAINING: f64 = 1.0;
const STATE_REPROGRAMMING: f64 = 2.0;
const STATE_CANARY: f64 = 3.0;
const STATE_PROMOTED: f64 = 4.0;
const STATE_ROLLED_BACK: f64 = 5.0;

enum Phase {
    Scheduled,
    Drain {
        wave: usize,
    },
    Reprogram {
        wave: usize,
    },
    Canary,
    /// Armed for the moment the wave's reprogram (and canary) work ends:
    /// only then do the devices re-enter dispatch. Promoting synchronously
    /// from the reprogram step would return them early at that step's
    /// wall-time.
    Promote {
        wave: usize,
    },
    RollbackDrain,
    RollbackReprogram,
    Done,
}

/// The in-flight state machine behind one [`RolloutSpec`], stepped by the
/// server's timer wheel.
pub(crate) struct RolloutRun {
    spec: RolloutSpec,
    phase: Phase,
    next_s: f64,
    waves: Vec<Vec<usize>>,
    /// Pre-rollout `(config, per-image seconds)` per device index.
    old: Vec<(usize, OptimizationConfig, f64)>,
    converted: Vec<usize>,
    devices_lost: usize,
    canary_failure: Option<CanaryFailure>,
    events: Vec<RolloutEvent>,
    started_s: f64,
    finished_s: f64,
    wave_started_s: f64,
    outcome: Option<RolloutOutcome>,
    /// Events already handed out by [`RolloutRun::unseen_events`].
    seen: usize,
}

impl RolloutRun {
    pub(crate) fn new(spec: RolloutSpec) -> RolloutRun {
        let at = spec.at_s;
        RolloutRun {
            spec,
            phase: Phase::Scheduled,
            next_s: at,
            waves: Vec::new(),
            old: Vec::new(),
            converted: Vec::new(),
            devices_lost: 0,
            canary_failure: None,
            events: Vec::new(),
            started_s: at,
            finished_s: at,
            wave_started_s: at,
            outcome: None,
            seen: 0,
        }
    }

    /// When the state machine next wants to run; non-finite once done.
    pub(crate) fn next_s(&self) -> f64 {
        if matches!(self.phase, Phase::Done) {
            f64::INFINITY
        } else {
            self.next_s
        }
    }

    /// Latest simulated second any rollout action touched.
    pub(crate) fn last_t(&self) -> f64 {
        self.finished_s
    }

    /// Events logged since the previous call: the server mirrors each
    /// step's new events into its flight recorder.
    pub(crate) fn unseen_events(&mut self) -> &[RolloutEvent] {
        let seen = std::mem::replace(&mut self.seen, self.events.len());
        &self.events[seen..]
    }

    fn event(&mut self, t_s: f64, device: &str, action: &str, detail: String) {
        self.finished_s = self.finished_s.max(t_s);
        self.events.push(RolloutEvent {
            t_s,
            device: device.to_string(),
            action: action.to_string(),
            detail,
        });
    }

    fn set_state(&self, registry: &mut Registry, v: f64) {
        registry.gauge_set(
            "serve_rollout_state",
            "Rollout state per model (0 idle, 1 draining, 2 reprogramming, \
             3 canary, 4 promoted, 5 rolled back).",
            &[("model", self.spec.model.name())],
            v,
        );
    }

    /// Starts draining `wave`: marks its devices out of dispatch and arms
    /// the timer for the moment their in-flight work completes.
    fn begin_wave_drain(&mut self, wave: usize, t: f64, pool: &mut DevicePool, tracer: &Tracer) {
        self.wave_started_s = t;
        let mut quiesce = t;
        for &d in &self.waves[wave].clone() {
            pool.begin_drain(d);
            let dev = &pool.devices()[d];
            quiesce = quiesce.max(dev.busy_until());
            let name = dev.name.clone();
            if tracer.is_enabled() {
                tracer.instant(
                    PID_SERVE,
                    DEVICE_LANE_BASE + d as u32,
                    "rollout",
                    &format!("drain {name}"),
                    t,
                );
            }
            self.event(
                t,
                &name,
                "drain-start",
                format!("wave {wave}: draining until {quiesce:.6}"),
            );
        }
        self.phase = Phase::Drain { wave };
        self.next_s = quiesce;
    }

    /// Reprograms every device of `wave` to `config`; returns the indices
    /// that hold the new bitstream and the time the last reprogram ended.
    fn reprogram_wave(
        &mut self,
        wave_devices: &[usize],
        config: &OptimizationConfig,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        action_ok: &str,
    ) -> (Vec<usize>, f64) {
        let pol = self.spec.policy;
        let model = self.spec.model;
        let mut done = Vec::new();
        let mut end = t;
        for &d in wave_devices {
            let name = pool.devices()[d].name.clone();
            match pool.reprogram_to(
                d,
                model,
                config,
                t,
                pol.reprogram_s,
                pol.max_reprogram_attempts,
            ) {
                Ok(rep) => {
                    for (k, &(a0, a1, ok)) in rep.attempts.iter().enumerate() {
                        if tracer.is_enabled() {
                            tracer.span(
                                PID_SERVE,
                                DEVICE_LANE_BASE + d as u32,
                                "reprogram",
                                &format!(
                                    "rollout reprogram {} attempt {} ({})",
                                    name,
                                    k + 1,
                                    if ok { "ok" } else { "fail" }
                                ),
                                a0,
                                a1,
                            );
                        }
                        self.event(
                            a1,
                            &name,
                            if ok { action_ok } else { "reprogram-fail" },
                            format!("attempt {} -> `{}`", k + 1, config.label),
                        );
                    }
                    end = end.max(rep.end_s);
                    if rep.ok {
                        done.push(d);
                    } else {
                        self.devices_lost += 1;
                        self.event(
                            rep.end_s,
                            &name,
                            "lost",
                            format!("{} reprogram attempts failed", rep.attempts.len()),
                        );
                    }
                }
                Err(e) => {
                    // The target config cannot compile for this platform:
                    // the device still holds its old deployment and goes
                    // straight back to dispatch.
                    pool.return_to_service(d);
                    self.event(t, &name, "config-error", format!("`{}`: {e}", config.label));
                }
            }
        }
        (done, end)
    }

    /// Runs the canary shadow batch on one converted device and returns
    /// the first failure, if any.
    fn canary_check(
        &mut self,
        device: usize,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        timeout_mult: f64,
    ) -> (Option<CanaryFailure>, f64) {
        let pol = self.spec.policy;
        let model = self.spec.model;
        let name = pool.devices()[device].name.clone();
        let n = pol.canary_shadow.max(1);
        let outcome = pool.execute_batch(device, model, n, t, timeout_mult, 0);
        let end = outcome.end_s();
        pool.commit(device, t, end);
        if tracer.is_enabled() {
            tracer.span(
                PID_SERVE,
                DEVICE_LANE_BASE + device as u32,
                "canary",
                &format!("canary {} x{n}", model.name()),
                t,
                end,
            );
        }
        let failure = match outcome {
            BatchOutcome::TimedOut { .. } => Some(CanaryFailure::Hang),
            BatchOutcome::Corrupted { .. } => Some(CanaryFailure::ReadbackCorrupt),
            BatchOutcome::Done { .. } => None,
        };
        // Shadow-stream corruption: plans target `<device>#shadow` to hit
        // the canary specifically without racing production batches for
        // the event.
        let failure = failure.or_else(|| {
            pool.fault_injector()
                .take_corruption(&shadow_target(&name), f64::NEG_INFINITY, end)
                .then_some(CanaryFailure::ReadbackCorrupt)
        });
        // Latency guardband against the pre-rollout calibration.
        let failure = failure.or_else(|| {
            let old = self
                .old
                .iter()
                .find(|&&(d, _, _)| d == device)
                .map(|&(_, _, s)| s)?;
            let new = pool.devices()[device].latency_model(model)?.seconds(1);
            let ratio = new / old;
            (ratio > pol.latency_guardband).then_some(CanaryFailure::LatencyRegression { ratio })
        });
        // Host-reference verification of the new kernels, structured error
        // as the mismatch payload.
        let failure = failure.or_else(|| {
            let x = self.spec.verify_input.as_ref()?;
            let d = pool.devices()[device].deployment(model)?.clone();
            fpgaccel_core::verify::verify_deployment(&d, x, pol.verify_rtol)
                .err()
                .map(CanaryFailure::OutputMismatch)
        });
        (failure, end)
    }

    /// Advances the state machine at simulated time `t` (the armed
    /// `next_s`). Each call performs one phase's work and re-arms the
    /// timer; a finished rollout reports `next_s() = ∞`.
    pub(crate) fn step(
        &mut self,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        registry: &mut Registry,
        timeout_mult: f64,
    ) {
        match self.phase {
            Phase::Scheduled => self.start(t, pool, tracer, registry),
            Phase::Drain { wave } => self.drained(Phase::Reprogram { wave }, t, registry),
            Phase::Reprogram { wave } => self.reprogram(wave, t, pool, tracer, registry),
            Phase::Canary => self.canary(t, pool, tracer, registry, timeout_mult),
            Phase::Promote { wave } => self.promote(wave, t, pool, tracer, registry),
            Phase::RollbackDrain => self.drained(Phase::RollbackReprogram, t, registry),
            Phase::RollbackReprogram => self.rollback_reprogram(t, pool, tracer, registry),
            Phase::Done => {}
        }
    }

    /// Captures the eligible devices' deployments, splits them into waves
    /// and starts draining the first; fails when no device serves the
    /// model.
    fn start(&mut self, t: f64, pool: &mut DevicePool, tracer: &Tracer, registry: &mut Registry) {
        self.started_s = t;
        self.finished_s = t;
        let model = self.spec.model;
        // Serving devices convert; `adopt`-named devices (the self-healing
        // migration path) join the waves even though they do not serve the
        // model yet.
        let eligible: Vec<usize> = pool
            .devices()
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.health() != crate::pool::DeviceHealth::Lost
                    && (d.latency_model(model).is_some()
                        || self.spec.adopt.iter().any(|a| a.as_str() == &*d.name))
            })
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            self.event(
                t,
                model.name(),
                "canary-fail",
                "no device serves the model".into(),
            );
            self.finish(RolloutOutcome::Failed, t, registry, STATE_IDLE);
            return;
        }
        for &d in &eligible {
            let dev = &pool.devices()[d];
            // Adopted devices have no prior deployment: nothing to capture,
            // no guardband baseline, nothing to roll back to.
            let (Some(dep), Some(lm)) = (dev.deployment(model), dev.latency_model(model)) else {
                continue;
            };
            self.old.push((d, dep.config.clone(), lm.seconds(1)));
        }
        self.waves = eligible
            .chunks(self.spec.policy.wave_size.max(1))
            .map(<[usize]>::to_vec)
            .collect();
        self.set_state(registry, STATE_DRAINING);
        self.begin_wave_drain(0, t, pool, tracer);
    }

    /// A drain (of a wave, or of the converted devices before a rollback)
    /// completed: reprogram next, at once.
    fn drained(&mut self, next: Phase, t: f64, registry: &mut Registry) {
        self.set_state(registry, STATE_REPROGRAMMING);
        self.phase = next;
        self.next_s = t;
    }

    /// Reprograms a drained wave to the target; the first wave goes on to
    /// its canary, later waves straight to promotion.
    fn reprogram(
        &mut self,
        wave: usize,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        registry: &mut Registry,
    ) {
        let devices = self.waves[wave].clone();
        let to = self.spec.to.clone();
        let (done, end) = self.reprogram_wave(&devices, &to, t, pool, tracer, "reprogram-ok");
        self.converted.extend(&done);
        if self.converted.is_empty() && wave == 0 {
            // The whole first wave was lost before any canary could run;
            // nothing converted, nothing to roll back.
            self.finish(RolloutOutcome::Failed, end, registry, STATE_IDLE);
            return;
        }
        if wave == 0 {
            self.set_state(registry, STATE_CANARY);
            self.phase = Phase::Canary;
        } else {
            self.phase = Phase::Promote { wave };
        }
        self.next_s = self.next_s.max(end);
    }

    /// Runs the canary on the first wave's converted devices: a clean
    /// pass arms the wave's promotion, the first failure starts the
    /// rollback.
    fn canary(
        &mut self,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        registry: &mut Registry,
        timeout_mult: f64,
    ) {
        let wave0 = self.waves[0].clone();
        let mut end = t;
        for &d in &wave0 {
            if !self.converted.contains(&d) {
                continue;
            }
            let (failure, e) = self.canary_check(d, end, pool, tracer, timeout_mult);
            end = end.max(e);
            if let Some(f) = failure {
                return self.begin_rollback(d, f, end, pool, tracer, registry);
            }
        }
        for &d in &wave0 {
            if self.converted.contains(&d) {
                let name = pool.devices()[d].name.clone();
                self.event(
                    end,
                    &name,
                    "canary-pass",
                    format!("x{} shadow batch clean", self.spec.policy.canary_shadow),
                );
            }
        }
        self.phase = Phase::Promote { wave: 0 };
        self.next_s = end;
    }

    /// Returns the wave's converted devices to dispatch and emits its
    /// span, then drains the next wave or, after the last, finishes.
    fn promote(
        &mut self,
        wave: usize,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        registry: &mut Registry,
    ) {
        for d in self.waves[wave].clone() {
            if !self.converted.contains(&d) {
                continue;
            }
            let name = pool.devices()[d].name.clone();
            pool.return_to_service(d);
            self.event(
                t,
                &name,
                "promoted",
                format!("wave {wave} serving `{}`", self.spec.to.label),
            );
        }
        if tracer.is_enabled() {
            tracer.span(
                PID_SERVE,
                ROLLOUT_LANE,
                "rollout",
                &format!("{} wave {wave}", self.spec.model.name()),
                self.wave_started_s,
                t,
            );
        }
        if wave + 1 < self.waves.len() {
            self.set_state(registry, STATE_DRAINING);
            self.begin_wave_drain(wave + 1, t, pool, tracer);
        } else {
            self.finish(RolloutOutcome::Promoted, t, registry, STATE_PROMOTED);
        }
        self.next_s = self.next_s.max(t);
    }

    /// The canary on device `d` failed with `f` at `end`: logs and counts
    /// the rollback, then drains every converted device (still out of
    /// dispatch) until its shadow work completes.
    fn begin_rollback(
        &mut self,
        d: usize,
        f: CanaryFailure,
        end: f64,
        pool: &DevicePool,
        tracer: &Tracer,
        registry: &mut Registry,
    ) {
        let model = self.spec.model;
        let name = pool.devices()[d].name.clone();
        let detail = match &f {
            CanaryFailure::OutputMismatch(e) => format!("{e}"),
            CanaryFailure::LatencyRegression { ratio } => {
                format!("per-image latency {ratio:.3}x the old deployment")
            }
            CanaryFailure::ReadbackCorrupt => "shadow read-back failed verification".into(),
            CanaryFailure::Hang => "shadow batch hung the device".into(),
        };
        if tracer.is_enabled() {
            tracer.instant(
                PID_SERVE,
                ROLLOUT_LANE,
                "canary",
                &format!("canary-fail {} ({})", name, f.label()),
                end,
            );
        }
        self.event(end, &name, "canary-fail", detail);
        self.canary_failure = Some(f);
        registry.counter_inc(
            "serve_rollbacks_total",
            "Rollouts rolled back by a failed canary.",
            &[("model", model.name())],
        );
        for c in self.converted.clone() {
            let cname = pool.devices()[c].name.clone();
            self.event(
                end,
                &cname,
                "rollback-begin",
                "draining for rollback".into(),
            );
        }
        self.set_state(registry, STATE_DRAINING);
        self.phase = Phase::RollbackDrain;
        self.next_s = self
            .converted
            .iter()
            .map(|&c| pool.devices()[c].busy_until())
            .fold(end, f64::max);
    }

    /// Reprograms every converted device back to its old deployment (an
    /// adopted device keeps its new one) and resolves the rollout.
    fn rollback_reprogram(
        &mut self,
        t: f64,
        pool: &mut DevicePool,
        tracer: &Tracer,
        registry: &mut Registry,
    ) {
        let model = self.spec.model;
        let mut end = t;
        let mut restored = 0usize;
        for d in self.converted.clone() {
            let Some(old_cfg) = self
                .old
                .iter()
                .find(|&&(i, _, _)| i == d)
                .map(|(_, c, _)| c.clone())
            else {
                // Adopted during a heal: no prior deployment to restore.
                // Keep the new bitstream (reversing an adoption would
                // shrink capacity) and return the device to dispatch.
                let name = pool.devices()[d].name.clone();
                pool.return_to_service(d);
                self.event(
                    end.max(t),
                    &name,
                    "adopt-released",
                    "no prior deployment; keeping the adopted bitstream".into(),
                );
                continue;
            };
            let (done, e) =
                self.reprogram_wave(&[d], &old_cfg, end.max(t), pool, tracer, "rolled-back");
            end = end.max(e);
            for &r in &done {
                pool.return_to_service(r);
                restored += 1;
            }
        }
        if tracer.is_enabled() {
            tracer.span(
                PID_SERVE,
                ROLLOUT_LANE,
                "rollout",
                &format!("{} rollback", model.name()),
                self.wave_started_s,
                end,
            );
        }
        let outcome = if restored > 0 || pool.serves(model) {
            RolloutOutcome::RolledBack
        } else {
            RolloutOutcome::Failed
        };
        self.finish(outcome, end, registry, STATE_ROLLED_BACK);
    }

    fn finish(&mut self, outcome: RolloutOutcome, t: f64, registry: &mut Registry, state: f64) {
        self.outcome = Some(outcome);
        self.finished_s = self.finished_s.max(t);
        self.phase = Phase::Done;
        self.set_state(registry, state);
    }

    /// The report of a resolved rollout (outcome `Failed` if the run never
    /// resolved — e.g. the server finished before `at_s`).
    pub(crate) fn report(&self) -> RolloutReport {
        RolloutReport {
            model: self.spec.model,
            to_label: self.spec.to.label.clone(),
            outcome: self.outcome.unwrap_or(RolloutOutcome::Failed),
            waves: self.waves.len(),
            devices_converted: self.converted.len(),
            devices_lost: self.devices_lost,
            canary_failure: self.canary_failure.clone(),
            started_s: self.started_s,
            finished_s: self.finished_s,
            events: self.events.clone(),
        }
    }
}
