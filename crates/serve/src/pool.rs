//! The device pool: several FPGAs, each holding one or more deployed
//! models, with shortest-expected-completion dispatch.

use crate::cache::DeploymentCache;
use fpgaccel_core::{BatchLatencyModel, Deployment, FlowError, OptimizationConfig};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_fault::{FaultInjector, HANG_WATCHDOG_S};
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::Tracer;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Batch size used to calibrate each deployment's [`BatchLatencyModel`].
const CALIBRATION_PROBE: usize = 16;

/// Synthesis retries against flaky compiles before giving up on the flake
/// (the compile itself then proceeds normally).
const SYNTH_RETRIES: u32 = 3;

/// Health of a pooled device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceHealth {
    /// Serving normally.
    Healthy,
    /// Hung, being reprogrammed; returns to service at `until_s`.
    Quarantined {
        /// When the reprogram completes, simulated seconds.
        until_s: f64,
    },
    /// Taken out of dispatch by a rollout: finishing in-flight batches,
    /// then reprogrammed to the new deployment. Returns to service when the
    /// rollout promotes (or rolls back) its wave.
    Draining,
    /// Every reprogram attempt failed; permanently out of the pool.
    Lost,
}

impl DeviceHealth {
    /// Short stable label (metrics / reports).
    pub fn label(&self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Quarantined { .. } => "quarantined",
            DeviceHealth::Draining => "draining",
            DeviceHealth::Lost => "lost",
        }
    }
}

/// How one dispatched batch actually ended under fault injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchOutcome {
    /// Completed normally.
    Done {
        /// Completion time, simulated seconds.
        completion_s: f64,
    },
    /// The device hung; the host watchdog declared the batch dead.
    TimedOut {
        /// When the watchdog fired, simulated seconds.
        fail_s: f64,
        /// When the device actually hung, simulated seconds.
        hang_s: f64,
    },
    /// The batch finished but its read-back failed host-side output
    /// verification (§5.2) — results are unusable.
    Corrupted {
        /// Completion (and detection) time, simulated seconds.
        completion_s: f64,
    },
}

impl BatchOutcome {
    /// When the host learns how the batch ended: its completion, or the
    /// watchdog's firing for a hung batch.
    pub(crate) fn end_s(&self) -> f64 {
        match *self {
            BatchOutcome::Done { completion_s } | BatchOutcome::Corrupted { completion_s } => {
                completion_s
            }
            BatchOutcome::TimedOut { fail_s, .. } => fail_s,
        }
    }
}

/// The record of one quarantine: the reprogram attempts made on a hung
/// device and whether it returned to service.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Pool index of the device.
    pub device: usize,
    /// When the watchdog declared the device hung.
    pub fail_s: f64,
    /// When the device actually hung (plan time).
    pub hang_s: f64,
    /// Reprogram attempts as `(start_s, end_s, succeeded)`.
    pub attempts: Vec<(f64, f64, bool)>,
    /// When the device returns to service; `None` means it was lost.
    pub until_s: Option<f64>,
}

/// One FPGA in the pool with its deployed models.
pub struct PooledDevice {
    /// Human-readable name, e.g. `s10sx-0`, built once by
    /// [`DevicePool::add_device`] and shared by every record naming the
    /// device.
    pub name: Arc<str>,
    /// The FPGA platform.
    pub platform: FpgaPlatform,
    deployments: HashMap<Model, Arc<Deployment>>,
    latency_models: HashMap<Model, BatchLatencyModel>,
    /// Pre-deployed relaxed-precision ladder (brownout mode): rung `r ≥ 1`
    /// lives at index `r - 1`, ordered widest precision first, and is
    /// served in place of the primary deployment when the server browns
    /// the model out under sustained overload (descending further down the
    /// ladder the longer the overload persists).
    brownout_deployments: HashMap<Model, Vec<Arc<Deployment>>>,
    brownout_lms: HashMap<Model, Vec<BatchLatencyModel>>,
    /// Simulated time until which the device executes already-dispatched
    /// batches.
    busy_until_s: f64,
    /// Accumulated batch-execution seconds (for utilization metrics).
    busy_s: f64,
    health: DeviceHealth,
    /// Hang events at or before this plan time are repaired (the device was
    /// reprogrammed since).
    cleared_s: f64,
}

impl PooledDevice {
    fn new(name: Arc<str>, platform: FpgaPlatform) -> PooledDevice {
        PooledDevice {
            name,
            platform,
            deployments: HashMap::new(),
            latency_models: HashMap::new(),
            brownout_deployments: HashMap::new(),
            brownout_lms: HashMap::new(),
            busy_until_s: 0.0,
            busy_s: 0.0,
            health: DeviceHealth::Healthy,
            cleared_s: f64::NEG_INFINITY,
        }
    }

    /// The deployment serving `model`, if deployed here.
    pub fn deployment(&self, model: Model) -> Option<&Arc<Deployment>> {
        self.deployments.get(&model)
    }

    /// Calibrated latency model for `model`, if deployed here.
    pub fn latency_model(&self, model: Model) -> Option<BatchLatencyModel> {
        self.latency_models.get(&model).copied()
    }

    /// The first rung of the staged brownout ladder of `model`, if any —
    /// the variant a freshly browned-out model serves.
    pub fn brownout_deployment(&self, model: Model) -> Option<&Arc<Deployment>> {
        self.brownout_deployments
            .get(&model)
            .and_then(|v| v.first())
    }

    /// Calibrated latency model of the first staged brownout rung, if any.
    pub fn brownout_latency_model(&self, model: Model) -> Option<BatchLatencyModel> {
        self.brownout_lms
            .get(&model)
            .and_then(|v| v.first())
            .copied()
    }

    /// Rungs of the brownout ladder staged here for `model` (0 when none).
    pub fn brownout_ladder_len(&self, model: Model) -> usize {
        self.brownout_lms.get(&model).map_or(0, Vec::len)
    }

    /// The deployment actually serving `model` at ladder rung `rung`
    /// (0 = the primary deployment, `r ≥ 1` = staged brownout rung `r`).
    pub fn serving_deployment(&self, model: Model, rung: usize) -> Option<&Arc<Deployment>> {
        if rung == 0 {
            self.deployments.get(&model)
        } else {
            self.brownout_deployments
                .get(&model)
                .and_then(|v| v.get(rung - 1))
        }
    }

    /// When the device becomes idle, simulated seconds.
    pub fn busy_until(&self) -> f64 {
        self.busy_until_s
    }

    /// Total simulated seconds spent executing batches. Divided by a run's
    /// span this is the device's busy-fraction utilization.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_s
    }

    /// `(model, serving configuration label)` for every primary deployment
    /// on this device, sorted by model name (deterministic order).
    pub fn deployed_models(&self) -> Vec<(Model, String)> {
        let mut out: Vec<(Model, String)> = self
            .deployments
            .iter()
            .map(|(&m, d)| (m, d.config.label.clone()))
            .collect();
        out.sort_by(|a, b| a.0.name().cmp(b.0.name()));
        out
    }

    /// Current health.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Health as observed at simulated time `t` (a quarantine whose
    /// reprogram finished by `t` reads as healthy again).
    pub fn health_at(&self, t: f64) -> DeviceHealth {
        match self.health {
            DeviceHealth::Quarantined { until_s } if until_s <= t => DeviceHealth::Healthy,
            h => h,
        }
    }
}

/// A choice made by the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dispatch {
    /// Index of the chosen device in the pool.
    pub device: usize,
    /// When the batch starts (device ready, but not before `now`).
    pub start_s: f64,
    /// Predicted completion from the calibrated latency model.
    pub expected_completion_s: f64,
}

/// Order-preserving map from a non-negative `f64` to a totally ordered
/// integer key (IEEE-754 bit tricks; negative values sort below positives,
/// `-0.0` below `+0.0` — stricter than `<` but the pool only ever compares
/// non-negative times, where the two orders agree).
fn f64_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Devices sharing one calibrated [`BatchLatencyModel`] for a given
/// (model, variant). Within a group the expected completion of a batch is
/// a strictly increasing function of `busy_until`, independent of the
/// batch size — so the group's best candidate is always either the
/// lowest-indexed idle device or the earliest-free pending one, and both
/// are O(log n) set lookups instead of a scan.
struct DispatchGroup {
    lm: BatchLatencyModel,
    /// Devices free at or before the key's watermark, by pool index.
    idle: BTreeSet<usize>,
    /// Devices still busy past the watermark, by (`f64_key(busy_until)`,
    /// pool index).
    pending: BTreeSet<(u64, usize)>,
}

/// Per-(model, variant) ready index: latency-model groups plus the
/// watermark time idle/pending classification is relative to.
struct KeyIndex {
    watermark_key: u64,
    groups: Vec<DispatchGroup>,
}

/// Lazily built ready-heap over the pool, replacing the O(devices) linear
/// dispatch scan. Structural changes (deploys, health transitions) clear
/// it wholesale; per-batch `commit`s update it incrementally through the
/// membership map.
#[derive(Default)]
struct DispatchIndex {
    keys: HashMap<(Model, usize), KeyIndex>,
    /// `device -> [(model, rung, group index)]` for every built key the
    /// device participates in (a device serving several models appears once
    /// per key).
    members: HashMap<usize, Vec<(Model, usize, usize)>>,
}

impl DispatchIndex {
    fn clear(&mut self) {
        self.keys.clear();
        self.members.clear();
    }
}

/// A pool of FPGAs sharing a deployment cache.
pub struct DevicePool {
    devices: Vec<PooledDevice>,
    cache: DeploymentCache,
    tracer: Tracer,
    fault: FaultInjector,
    index: RefCell<DispatchIndex>,
}

impl Default for DevicePool {
    fn default() -> Self {
        Self::new()
    }
}

impl DevicePool {
    /// An empty pool.
    pub fn new() -> DevicePool {
        DevicePool {
            devices: Vec::new(),
            cache: DeploymentCache::new(),
            tracer: Tracer::disabled(),
            fault: FaultInjector::disabled(),
            index: RefCell::new(DispatchIndex::default()),
        }
    }

    /// A pool whose deployment cache starts pre-warmed — a fleet shard
    /// sharing compiles, and each deployment's memoized batch seconds, with
    /// its sibling shards through a cloned template cache.
    pub fn with_cache(cache: DeploymentCache) -> DevicePool {
        DevicePool {
            cache,
            ..DevicePool::new()
        }
    }

    /// Drops the lazily built dispatch index after any structural change
    /// (deploy, health transition, new device); it rebuilds on the next
    /// dispatch. Per-batch `commit`s do not come through here — they update
    /// the index incrementally.
    fn invalidate_index(&mut self) {
        self.index.borrow_mut().clear();
    }

    /// Attaches a tracer; subsequent [`DevicePool::deploy`] calls record
    /// deploy phase spans (with cache hit/miss) and compile-flow phases.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Attaches a fault injector: batch executions, synthesis and device
    /// reprogramming from here on consult the injector's plan. The disabled
    /// injector (the default) leaves every path byte-identical to an
    /// uninstrumented pool.
    pub fn set_fault_injector(&mut self, injector: &FaultInjector) {
        self.fault = injector.clone();
    }

    /// The attached fault injector (disabled by default).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Adds a device to the pool; returns its index. Names are
    /// `<platform>-<n>` by position.
    pub fn add_device(&mut self, platform: FpgaPlatform) -> usize {
        let n = self
            .devices
            .iter()
            .filter(|d| d.platform == platform)
            .count();
        let name = format!("{}-{n}", platform.label().to_lowercase());
        self.devices.push(PooledDevice::new(name.into(), platform));
        self.invalidate_index();
        self.devices.len() - 1
    }

    /// Deploys `model` with `config` onto device `device`, compiling
    /// through the shared cache and calibrating the latency model.
    pub fn deploy(
        &mut self,
        device: usize,
        model: Model,
        config: &OptimizationConfig,
    ) -> Result<(), FlowError> {
        let platform = self.devices[device].platform;
        let d = if self.fault.is_enabled() {
            self.cache.get_or_compile_resilient(
                model,
                platform,
                config,
                &self.tracer,
                &self.fault,
                SYNTH_RETRIES,
            )?
        } else {
            self.cache
                .get_or_compile_traced(model, platform, config, &self.tracer)?
        };
        let lm = BatchLatencyModel::calibrate(&d, CALIBRATION_PROBE);
        let dev = &mut self.devices[device];
        dev.deployments.insert(model, d);
        dev.latency_models.insert(model, lm);
        self.invalidate_index();
        Ok(())
    }

    /// Stages a brownout precision ladder of `model` on device `device`:
    /// one configuration per rung, ordered widest precision first (rung 1
    /// first; a single relaxed-precision variant is a one-rung ladder). The server descends one rung per sustained
    /// overload trip and ascends one rung per idle promotion window.
    /// Replaces any previously staged ladder.
    pub fn deploy_brownout_ladder(
        &mut self,
        device: usize,
        model: Model,
        configs: &[OptimizationConfig],
    ) -> Result<(), FlowError> {
        let platform = self.devices[device].platform;
        let mut ds = Vec::with_capacity(configs.len());
        let mut lms = Vec::with_capacity(configs.len());
        for config in configs {
            let d = self
                .cache
                .get_or_compile_traced(model, platform, config, &self.tracer)?;
            let lm = BatchLatencyModel::calibrate(&d, CALIBRATION_PROBE);
            ds.push(d);
            lms.push(lm);
        }
        let dev = &mut self.devices[device];
        dev.brownout_deployments.insert(model, ds);
        dev.brownout_lms.insert(model, lms);
        self.invalidate_index();
        Ok(())
    }

    /// The devices in the pool.
    pub fn devices(&self) -> &[PooledDevice] {
        &self.devices
    }

    /// The shared deployment cache.
    pub fn cache(&self) -> &DeploymentCache {
        &self.cache
    }

    /// The shared deployment cache, to hand it designs compiled elsewhere
    /// ([`DeploymentCache::share_from`]).
    pub fn cache_mut(&mut self) -> &mut DeploymentCache {
        &mut self.cache
    }

    /// Picks the device with the shortest expected completion for a batch
    /// of `n` images of `model` dispatched at `now` — least-loaded wins,
    /// weighted by each device's calibrated per-image latency. Ties break
    /// to the lowest index for determinism. `None` if no device serves the
    /// model.
    pub fn dispatch(&self, model: Model, n: usize, now_s: f64) -> Option<Dispatch> {
        self.dispatch_variant(model, n, now_s, 0)
    }

    /// [`DevicePool::dispatch`] for any ladder rung: with `rung ≥ 1` only
    /// devices whose staged brownout ladder reaches that rung are
    /// considered, weighted by the rung's own calibrated latency.
    /// Draining devices (mid-rollout) never receive new batches.
    ///
    /// Dispatch consults a lazily built ready index: devices sharing a
    /// calibrated latency model are grouped, and within a group the best
    /// candidate is the lowest-indexed idle device (or, failing that, the
    /// earliest-free busy one) — identical to the historical linear scan,
    /// including its lowest-index tie-break, but O(groups · log devices)
    /// per request instead of O(devices).
    pub fn dispatch_variant(
        &self,
        model: Model,
        n: usize,
        now_s: f64,
        rung: usize,
    ) -> Option<Dispatch> {
        let mut index = self.index.borrow_mut();
        let key = (model, rung);
        let now_key = f64_key(now_s);
        // A dispatch before the key's watermark would mis-read `pending`
        // devices as busy; rebuild from scratch at the earlier time.
        if index
            .keys
            .get(&key)
            .is_some_and(|ki| now_key < ki.watermark_key)
        {
            let stale: Vec<usize> = index.members.keys().copied().collect();
            for dev in stale {
                if let Some(m) = index.members.get_mut(&dev) {
                    m.retain(|&(km, kr, _)| (km, kr) != key);
                }
            }
            index.keys.remove(&key);
        }
        if !index.keys.contains_key(&key) {
            let ki = self.build_key_index(model, rung, now_key, &mut index.members);
            index.keys.insert(key, ki);
        }
        let ki = index.keys.get_mut(&key).expect("key index just ensured");
        // Advance the watermark: devices whose committed work finishes at
        // or before `now` become idle.
        if now_key > ki.watermark_key {
            ki.watermark_key = now_key;
            for g in &mut ki.groups {
                while let Some(&(bk, i)) = g.pending.first() {
                    if bk > now_key {
                        break;
                    }
                    g.pending.pop_first();
                    g.idle.insert(i);
                    debug_assert!(self.devices[i].busy_until_s <= now_s || bk == now_key);
                }
            }
        }
        let mut best: Option<(f64, usize, f64)> = None; // (completion, device, start)
        for g in &ki.groups {
            let candidate = if let Some(&i) = g.idle.first() {
                // All idle devices complete at now + seconds(n); the set
                // gives the lowest index, matching the scan's tie-break.
                Some((now_s + g.lm.seconds(n), i, now_s))
            } else {
                g.pending.first().map(|&(_, i)| {
                    let start = now_s.max(self.devices[i].busy_until_s);
                    (start + g.lm.seconds(n), i, start)
                })
            };
            if let Some((c, i, s)) = candidate {
                let better = match best {
                    None => true,
                    Some((bc, bi, _)) => match c.total_cmp(&bc) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => i < bi,
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((c, i, s));
                }
            }
        }
        best.map(|(c, i, s)| Dispatch {
            device: i,
            start_s: s,
            expected_completion_s: c,
        })
    }

    /// Builds the ready index for one (model, rung) key, classifying
    /// every eligible device as idle or pending relative to `watermark_key`
    /// and registering group memberships for incremental `commit` updates.
    fn build_key_index(
        &self,
        model: Model,
        rung: usize,
        watermark_key: u64,
        members: &mut HashMap<usize, Vec<(Model, usize, usize)>>,
    ) -> KeyIndex {
        let mut groups: Vec<DispatchGroup> = Vec::new();
        let mut by_lm: HashMap<(u64, u64), usize> = HashMap::new();
        for (i, dev) in self.devices.iter().enumerate() {
            if dev.health == DeviceHealth::Lost || dev.health == DeviceHealth::Draining {
                continue;
            }
            let lm = if rung == 0 {
                dev.latency_models.get(&model).copied()
            } else {
                dev.brownout_lms
                    .get(&model)
                    .and_then(|v| v.get(rung - 1))
                    .copied()
            };
            let Some(lm) = lm else {
                continue;
            };
            let gkey = (lm.base_s.to_bits(), lm.per_image_s.to_bits());
            let gi = *by_lm.entry(gkey).or_insert_with(|| {
                groups.push(DispatchGroup {
                    lm,
                    idle: BTreeSet::new(),
                    pending: BTreeSet::new(),
                });
                groups.len() - 1
            });
            let bk = f64_key(dev.busy_until_s);
            if bk <= watermark_key {
                groups[gi].idle.insert(i);
            } else {
                groups[gi].pending.insert((bk, i));
            }
            members.entry(i).or_default().push((model, rung, gi));
        }
        KeyIndex {
            watermark_key,
            groups,
        }
    }

    /// Marks a device busy executing from `start_s` until `until_s`.
    pub(crate) fn commit(&mut self, device: usize, start_s: f64, until_s: f64) {
        let d = &mut self.devices[device];
        let old_b = d.busy_until_s;
        d.busy_until_s = d.busy_until_s.max(until_s);
        d.busy_s += (until_s - start_s).max(0.0);
        let new_b = d.busy_until_s;
        if new_b == old_b {
            return;
        }
        // Reclassify the device in every built key it participates in.
        let index = self.index.get_mut();
        let Some(memberships) = index.members.get(&device) else {
            return;
        };
        for &(m, b, gi) in memberships {
            let Some(ki) = index.keys.get_mut(&(m, b)) else {
                continue;
            };
            let g = &mut ki.groups[gi];
            let (old_key, new_key) = (f64_key(old_b), f64_key(new_b));
            if old_key <= ki.watermark_key {
                g.idle.remove(&device);
            } else {
                g.pending.remove(&(old_key, device));
            }
            if new_key <= ki.watermark_key {
                g.idle.insert(device);
            } else {
                g.pending.insert((new_key, device));
            }
        }
    }

    /// Whether any non-lost device serves `model`.
    pub fn serves(&self, model: Model) -> bool {
        self.devices
            .iter()
            .any(|d| d.health != DeviceHealth::Lost && d.latency_models.contains_key(&model))
    }

    /// Whether any device serving `model` is currently draining for a
    /// rollout. The server defers (rather than fails) batches that find no
    /// dispatchable device while this holds — the drain is transient.
    pub fn has_draining(&self, model: Model) -> bool {
        self.devices
            .iter()
            .any(|d| d.health == DeviceHealth::Draining && d.latency_models.contains_key(&model))
    }

    /// Deepest brownout ladder rung staged for `model` on any non-lost
    /// device (0 when no device stages a ladder). The server never
    /// descends past this.
    pub fn brownout_rungs(&self, model: Model) -> usize {
        self.devices
            .iter()
            .filter(|d| d.health != DeviceHealth::Lost)
            .map(|d| d.brownout_ladder_len(model))
            .max()
            .unwrap_or(0)
    }

    /// Marks a device draining: no new batches are dispatched to it, while
    /// already-committed work (its `busy_until`) runs to completion.
    pub(crate) fn begin_drain(&mut self, device: usize) {
        let d = &mut self.devices[device];
        if d.health != DeviceHealth::Lost {
            d.health = DeviceHealth::Draining;
        }
        self.invalidate_index();
    }

    /// Returns a drained/reprogrammed device to dispatch.
    pub(crate) fn return_to_service(&mut self, device: usize) {
        let d = &mut self.devices[device];
        if d.health == DeviceHealth::Draining {
            d.health = DeviceHealth::Healthy;
        }
        self.invalidate_index();
    }

    /// Executes a dispatched batch of `n` images of `model` on `device`
    /// starting at `start_s`, under the attached fault injector.
    ///
    /// Without faults in play this is the clean execution time, memoized
    /// in the deployment per batch size ([`Deployment::batch_seconds`]), so
    /// every device and pool sharing the deployment simulates each size
    /// once. When the plan has events
    /// covering the window, the batch is re-simulated under the injector's
    /// time view: a simulated duration past the hang watchdog becomes
    /// [`BatchOutcome::TimedOut`] (declared `timeout_mult` × the clean
    /// execution time after start, never earlier than the hang itself), and
    /// a consumed corruption event becomes [`BatchOutcome::Corrupted`].
    pub(crate) fn execute_batch(
        &mut self,
        device: usize,
        model: Model,
        n: usize,
        start_s: f64,
        timeout_mult: f64,
        rung: usize,
    ) -> BatchOutcome {
        let dev = &self.devices[device];
        let d = dev
            .serving_deployment(model, rung)
            .expect("dispatched variant is deployed");
        let base = d.batch_seconds(n);
        if !self.fault.is_enabled() {
            return BatchOutcome::Done {
                completion_s: start_s + base,
            };
        }
        let name = &*dev.name;
        let timeout = timeout_mult.max(1.0) * base;
        // A persistent slowdown stretches execution uniformly without
        // re-simulation: the device is degraded, not hung, so the batch
        // still completes (just `slow`× later) and the watchdog stays
        // quiet as long as the factor is under the timeout multiple.
        let slow = self.fault.compute_scale(name, start_s);
        let view = self.fault.view(start_s, dev.cleared_s);
        if !view.affects(name, 0.0, timeout) {
            return BatchOutcome::Done {
                completion_s: start_s + base * slow,
            };
        }
        let stats = d.simulate_batch_faulted(n, &view, name);
        if stats.seconds >= HANG_WATCHDOG_S {
            let hang_s = view
                .hang_before(name, stats.seconds)
                .map(|h| h + start_s)
                .unwrap_or(start_s);
            return BatchOutcome::TimedOut {
                fail_s: (start_s + timeout).max(hang_s),
                hang_s,
            };
        }
        let completion_s = start_s + stats.seconds * slow;
        if self.fault.take_corruption(name, start_s, completion_s) {
            return BatchOutcome::Corrupted { completion_s };
        }
        BatchOutcome::Done { completion_s }
    }

    /// Quarantines a hung device and reprograms it: up to `max_attempts`
    /// reprogram attempts of `reprogram_s` each, consuming the plan's
    /// pending reprogram-failure events. On success the device returns to
    /// service (hangs up to the reprogram completion are repaired); if every
    /// attempt fails the device is lost. Returns `None` when the hang was
    /// already repaired by an earlier quarantine (two batches observed the
    /// same hang) or the device is already lost.
    pub(crate) fn quarantine(
        &mut self,
        device: usize,
        fail_s: f64,
        hang_s: f64,
        reprogram_s: f64,
        max_attempts: u32,
    ) -> Option<Recovery> {
        // Health and busy-time transitions below restructure dispatch
        // eligibility; drop the ready index wholesale.
        self.invalidate_index();
        let d = &self.devices[device];
        if d.health == DeviceHealth::Lost || hang_s <= d.cleared_s {
            return None;
        }
        let rep = self.reprogram_attempts(device, fail_s, reprogram_s, max_attempts);
        if rep.ok {
            let d = &mut self.devices[device];
            d.health = DeviceHealth::Quarantined { until_s: rep.end_s };
            d.cleared_s = d.cleared_s.max(rep.end_s);
            d.busy_until_s = d.busy_until_s.max(rep.end_s);
        }
        Some(Recovery {
            device,
            fail_s,
            hang_s,
            attempts: rep.attempts,
            until_s: rep.ok.then_some(rep.end_s),
        })
    }

    /// Reprograms a drained device to a (possibly different) deployment of
    /// `model` — the rollout path. Up to `max_attempts` reprogram attempts
    /// of `reprogram_s` each starting at `at_s`, consuming the fault
    /// plan's pending `ReprogramFail` events exactly like
    /// [`DevicePool::quarantine`]. On success the new bitstream is
    /// compiled/fetched through the shared cache, the latency model is
    /// recalibrated, and pending hangs up to the reprogram completion are
    /// repaired; if every attempt fails the device is lost. The device's
    /// `Draining` state is left for the rollout driver to resolve.
    pub(crate) fn reprogram_to(
        &mut self,
        device: usize,
        model: Model,
        config: &OptimizationConfig,
        at_s: f64,
        reprogram_s: f64,
        max_attempts: u32,
    ) -> Result<Reprogram, FlowError> {
        let rep = self.reprogram_attempts(device, at_s, reprogram_s, max_attempts);
        if rep.ok {
            self.deploy(device, model, config)?;
            let d = &mut self.devices[device];
            d.cleared_s = d.cleared_s.max(rep.end_s);
            d.busy_until_s = d.busy_until_s.max(rep.end_s);
        }
        self.invalidate_index();
        Ok(rep)
    }

    /// The reprogram loop shared by quarantine and rollout: attempts of
    /// `reprogram_s` each from `at_s` until one succeeds or `max_attempts`
    /// (at least one) are spent, each consuming one pending `ReprogramFail`
    /// event of the device. Exhausting the attempts loses the device.
    fn reprogram_attempts(
        &mut self,
        device: usize,
        at_s: f64,
        reprogram_s: f64,
        max_attempts: u32,
    ) -> Reprogram {
        let name = &self.devices[device].name;
        let mut attempts = Vec::new();
        let mut t = at_s;
        for _ in 0..max_attempts.max(1) {
            let ok = !self.fault.take_reprogram_fail(name);
            attempts.push((t, t + reprogram_s, ok));
            t += reprogram_s;
            if ok {
                return Reprogram {
                    attempts,
                    end_s: t,
                    ok: true,
                };
            }
        }
        self.devices[device].health = DeviceHealth::Lost;
        Reprogram {
            attempts,
            end_s: t,
            ok: false,
        }
    }
}

/// The record of one rollout reprogram on one device.
#[derive(Clone, Debug)]
pub struct Reprogram {
    /// Reprogram attempts as `(start_s, end_s, succeeded)`.
    pub attempts: Vec<(f64, f64, bool)>,
    /// When the device holds the new bitstream (or, on failure, when the
    /// last attempt gave up), simulated seconds.
    pub end_s: f64,
    /// Whether any attempt succeeded.
    pub ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_core::bitstreams::optimized_config;

    fn pool_with_two_s10(model: Model) -> DevicePool {
        let mut pool = DevicePool::new();
        let cfg = optimized_config(model, FpgaPlatform::Stratix10Sx);
        let a = pool.add_device(FpgaPlatform::Stratix10Sx);
        let b = pool.add_device(FpgaPlatform::Stratix10Sx);
        pool.deploy(a, model, &cfg).unwrap();
        pool.deploy(b, model, &cfg).unwrap();
        pool
    }

    #[test]
    fn deploying_same_model_twice_reuses_the_cache() {
        let pool = pool_with_two_s10(Model::LeNet5);
        assert_eq!(pool.cache().misses(), 1);
        assert_eq!(pool.cache().hits(), 1);
        assert!(Arc::ptr_eq(
            pool.devices()[0].deployment(Model::LeNet5).unwrap(),
            pool.devices()[1].deployment(Model::LeNet5).unwrap()
        ));
    }

    #[test]
    fn dispatch_prefers_the_idle_device() {
        let mut pool = pool_with_two_s10(Model::LeNet5);
        let first = pool.dispatch(Model::LeNet5, 4, 0.0).unwrap();
        assert_eq!(first.device, 0, "tie breaks to lowest index");
        pool.commit(first.device, 0.0, 1.0);
        let second = pool.dispatch(Model::LeNet5, 4, 0.0).unwrap();
        assert_eq!(second.device, 1, "busy device loses");
        assert_eq!(second.start_s, 0.0);
    }

    #[test]
    fn commit_accumulates_busy_seconds() {
        let mut pool = pool_with_two_s10(Model::LeNet5);
        assert_eq!(pool.devices()[0].busy_seconds(), 0.0);
        pool.commit(0, 0.0, 1.5);
        pool.commit(0, 2.0, 2.25);
        assert!((pool.devices()[0].busy_seconds() - 1.75).abs() < 1e-12);
        assert_eq!(pool.devices()[1].busy_seconds(), 0.0);
    }

    #[test]
    fn dispatch_prefers_the_faster_platform_when_idle() {
        let mut pool = DevicePool::new();
        let slow = pool.add_device(FpgaPlatform::Arria10Gx);
        let fast = pool.add_device(FpgaPlatform::Stratix10Sx);
        let m = Model::LeNet5;
        pool.deploy(slow, m, &optimized_config(m, FpgaPlatform::Arria10Gx))
            .unwrap();
        pool.deploy(fast, m, &optimized_config(m, FpgaPlatform::Stratix10Sx))
            .unwrap();
        let d = pool.dispatch(m, 8, 0.0).unwrap();
        assert_eq!(d.device, fast);
    }

    #[test]
    fn dispatch_returns_none_for_undeployed_models() {
        let pool = pool_with_two_s10(Model::LeNet5);
        assert!(pool.dispatch(Model::MobileNetV1, 1, 0.0).is_none());
    }

    /// The historical O(devices) linear scan, kept as the test oracle for
    /// the ready-index dispatch.
    fn dispatch_linear(pool: &DevicePool, model: Model, n: usize, now_s: f64) -> Option<Dispatch> {
        let mut best: Option<Dispatch> = None;
        for (i, dev) in pool.devices().iter().enumerate() {
            if dev.health == DeviceHealth::Lost || dev.health == DeviceHealth::Draining {
                continue;
            }
            let Some(lm) = dev.latency_models.get(&model) else {
                continue;
            };
            let start_s = now_s.max(dev.busy_until_s);
            let expected_completion_s = start_s + lm.seconds(n);
            if best.is_none_or(|b| expected_completion_s < b.expected_completion_s) {
                best = Some(Dispatch {
                    device: i,
                    start_s,
                    expected_completion_s,
                });
            }
        }
        best
    }

    #[test]
    fn ready_index_matches_the_linear_scan_under_seeded_churn() {
        use fpgaccel_tensor::rng::Rng64;
        let mut pool = DevicePool::new();
        for p in [
            FpgaPlatform::Stratix10Sx,
            FpgaPlatform::Stratix10Sx,
            FpgaPlatform::Stratix10Mx,
            FpgaPlatform::Arria10Gx,
            FpgaPlatform::Arria10Gx,
            FpgaPlatform::Arria10Gx,
        ] {
            let d = pool.add_device(p);
            pool.deploy(d, Model::LeNet5, &optimized_config(Model::LeNet5, p))
                .unwrap();
        }
        let mut rng = Rng64::seed_from_u64(0xF1EE7);
        let mut t = 0.0;
        for step in 0..500 {
            t += rng.exponential(2000.0);
            let n = 1 + (rng.below(8) as usize);
            let expect = dispatch_linear(&pool, Model::LeNet5, n, t);
            let got = pool.dispatch(Model::LeNet5, n, t);
            assert_eq!(got, expect, "step {step} diverged from the linear scan");
            let d = got.unwrap();
            pool.commit(d.device, d.start_s, d.expected_completion_s);
            if step % 97 == 0 {
                // Structural churn: drain and return a device mid-stream.
                pool.begin_drain(d.device);
                assert_eq!(
                    pool.dispatch(Model::LeNet5, n, t),
                    dispatch_linear(&pool, Model::LeNet5, n, t),
                    "step {step} diverged while draining"
                );
                pool.return_to_service(d.device);
            }
        }
    }

    #[test]
    fn pools_sharing_a_cache_share_each_batch_simulation() {
        let run = |pool: &mut DevicePool, device, n| {
            let outcome = pool.execute_batch(device, Model::LeNet5, n, 0.0, 4.0, 0);
            match outcome {
                BatchOutcome::Done { completion_s } => completion_s,
                other => panic!("a fault-free batch ended {other:?}"),
            }
        };
        let mut first = pool_with_two_s10(Model::LeNet5);
        let first_seconds = [run(&mut first, 0, 8), run(&mut first, 1, 16)];
        assert!(first_seconds[1] > first_seconds[0]);
        let d = Arc::clone(first.devices()[0].deployment(Model::LeNet5).unwrap());
        // Calibration simulated sizes 1 and 16, the batches only 8 more.
        assert_eq!(d.memoized_batches(), 3);
        let mut second = DevicePool::with_cache(first.cache().clone());
        let board = second.add_device(FpgaPlatform::Stratix10Sx);
        let cfg = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
        second.deploy(board, Model::LeNet5, &cfg).unwrap();
        let second_seconds = [run(&mut second, board, 8), run(&mut second, board, 16)];
        assert_eq!(
            first_seconds.map(f64::to_bits),
            second_seconds.map(f64::to_bits)
        );
        assert!(Arc::ptr_eq(
            &d,
            second.devices()[board].deployment(Model::LeNet5).unwrap()
        ));
        assert_eq!(d.memoized_batches(), 3, "the second pool simulated again");
    }
}
