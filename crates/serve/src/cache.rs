//! The deployment cache: compiled bitstreams keyed by
//! (model, platform, optimization config).
//!
//! Synthesis is by far the most expensive step of bringing a model onto a
//! device, and a serving pool deploys the same model onto several devices
//! (and re-deploys it after reconfiguration). The cache makes every compile
//! after the first a lookup returning a shared [`Arc<Deployment>`]. It also
//! builds each model's graph once: every board and configuration compiles
//! from that one graph, so all of a model's deployments share its weights.
//! Compiling reads only their shapes; the values are generated once, on
//! the first execute or verification of any of those deployments.

use fpgaccel_core::{BatchLatencyModel, Deployment, Flow, FlowError, OptimizationConfig};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::graph::Graph;
use fpgaccel_tensor::models::Model;
use fpgaccel_trace::{PhaseGuard, Tracer, PID_SERVE};
use std::collections::HashMap;
use std::sync::Arc;

/// A cache of compiled deployments.
///
/// Cloning is cheap (shared `Arc`s) and carries the compiled entries and
/// model graphs along — a fleet builds one warm template cache and hands
/// each shard pool a clone, so hundreds of devices cost one compile per
/// deployment, and one simulation per batch size: each deployment memoizes
/// its own batch seconds ([`Deployment::batch_seconds`]).
#[derive(Clone, Default)]
pub struct DeploymentCache {
    entries: HashMap<String, Arc<Deployment>>,
    /// Each model's source graph, built on its first compile. It holds
    /// weight shapes until a deployment's graph is executed.
    graphs: HashMap<Model, Arc<Graph>>,
    hits: u64,
    misses: u64,
    flakes: u64,
}

impl DeploymentCache {
    /// An empty cache.
    pub fn new() -> DeploymentCache {
        DeploymentCache::default()
    }

    /// The cache key. `OptimizationConfig` carries only plain data, so its
    /// `Debug` rendering is a faithful structural key.
    fn key(model: Model, platform: FpgaPlatform, config: &OptimizationConfig) -> String {
        format!("{model:?}/{platform:?}/{config:?}")
    }

    /// A flow for `model` on `platform` over the model's cached graph.
    fn flow(&mut self, model: Model, platform: FpgaPlatform) -> Flow {
        let graph = self
            .graphs
            .entry(model)
            .or_insert_with(|| Arc::new(model.build()));
        Flow::for_graph(Graph::clone(graph), platform)
    }

    /// Returns the cached deployment for the triple, compiling (and
    /// caching) it on first use.
    pub fn get_or_compile(
        &mut self,
        model: Model,
        platform: FpgaPlatform,
        config: &OptimizationConfig,
    ) -> Result<Arc<Deployment>, FlowError> {
        self.get_or_compile_traced(model, platform, config, &Tracer::disabled())
    }

    /// [`DeploymentCache::get_or_compile`] recording a deploy phase span
    /// (labelled hit or miss) on `tracer`; a miss also records the compile
    /// flow's phases.
    pub fn get_or_compile_traced(
        &mut self,
        model: Model,
        platform: FpgaPlatform,
        config: &OptimizationConfig,
        tracer: &Tracer,
    ) -> Result<Arc<Deployment>, FlowError> {
        let key = Self::key(model, platform, config);
        if let Some(d) = self.entries.get(&key) {
            self.hits += 1;
            let _p = deploy_phase(tracer, || {
                format!("deploy {model:?}/{platform} (cache hit)")
            });
            return Ok(Arc::clone(d));
        }
        let _p = deploy_phase(tracer, || {
            format!("deploy {model:?}/{platform} (cache miss)")
        });
        let d = Arc::new(
            self.flow(model, platform)
                .with_tracer(tracer)
                .compile(config)?,
        );
        self.misses += 1;
        self.entries.insert(key, Arc::clone(&d));
        Ok(d)
    }

    /// [`DeploymentCache::get_or_compile_traced`] under a fault injector:
    /// pending synthesis-flake events addressed to this platform (or `*`)
    /// each cost one failed compile attempt, retried up to `max_retries`
    /// times with a retry span per attempt. Flakes beyond the retry budget
    /// are left pending (the compile proceeds; a later deploy may consume
    /// them), so this never fails because of a flake — only real
    /// [`FlowError`]s propagate.
    pub fn get_or_compile_resilient(
        &mut self,
        model: Model,
        platform: FpgaPlatform,
        config: &OptimizationConfig,
        tracer: &Tracer,
        injector: &fpgaccel_fault::FaultInjector,
        max_retries: u32,
    ) -> Result<Arc<Deployment>, FlowError> {
        if injector.is_enabled() {
            let target = format!("{platform:?}");
            let mut flakes = 0u32;
            while flakes < max_retries && injector.take_synth_flake(&target) {
                flakes += 1;
                self.flakes += 1;
                let _p = deploy_phase(tracer, || {
                    format!("synth-flake {model:?}/{platform} (retry {flakes})")
                });
            }
        }
        self.get_or_compile_traced(model, platform, config, tracer)
    }

    /// Like [`DeploymentCache::get_or_compile`], but deploys the *tuned*
    /// configuration from an auto-tuner database when one exists for this
    /// model/platform (falling back to `fallback` otherwise). The tuned
    /// lookup is a pure keyed read — no search, no candidate evaluation —
    /// so warm serving start-up pays only the (cached) compile.
    pub fn get_or_compile_tuned(
        &mut self,
        model: Model,
        platform: FpgaPlatform,
        db: &fpgaccel_tune::TuningDb,
        fallback: &OptimizationConfig,
    ) -> Result<Arc<Deployment>, FlowError> {
        let config = self
            .flow(model, platform)
            .with_tuned_config(db)
            .unwrap_or_else(|| fallback.clone());
        self.get_or_compile(model, platform, &config)
    }

    /// [`BatchLatencyModel::calibrate`], kept for callers that calibrate
    /// through the cache. Its two probes read the deployment's memo, so
    /// they are simulated once per deployment, not once per device or
    /// cache it lands on.
    pub fn calibration(&self, d: &Deployment, probe: usize) -> BatchLatencyModel {
        BatchLatencyModel::calibrate(d, probe)
    }

    /// Adds every deployment `other` holds that this cache lacks, counting
    /// neither a hit nor a miss: a later deploy of one of them is a hit
    /// that shares `other`'s deployment, and its memo, instead of a second
    /// compile.
    pub fn share_from(&mut self, other: &DeploymentCache) {
        for (key, d) in &other.entries {
            if !self.entries.contains_key(key) {
                self.entries.insert(key.clone(), Arc::clone(d));
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (actual compiles) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Synthesis flakes absorbed by retries so far.
    pub fn synth_flakes(&self) -> u64 {
        self.flakes
    }

    /// Number of distinct cached deployments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Opens a deploy span on `tracer`, formatting its label only when the
/// tracer records spans.
fn deploy_phase(tracer: &Tracer, label: impl FnOnce() -> String) -> Option<PhaseGuard> {
    tracer
        .is_enabled()
        .then(|| tracer.phase_on(PID_SERVE, "deploy", &label()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_triple_hits_and_shares() {
        let mut c = DeploymentCache::new();
        let cfg = OptimizationConfig::tvm_autorun();
        let a = c
            .get_or_compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &cfg)
            .unwrap();
        let b = c
            .get_or_compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &cfg)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
    }

    #[test]
    fn different_config_or_platform_misses() {
        let mut c = DeploymentCache::new();
        let cfg = OptimizationConfig::tvm_autorun();
        c.get_or_compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &cfg)
            .unwrap();
        c.get_or_compile(Model::LeNet5, FpgaPlatform::Arria10Gx, &cfg)
            .unwrap();
        c.get_or_compile(
            Model::LeNet5,
            FpgaPlatform::Stratix10Sx,
            &cfg.clone().with_concurrent(),
        )
        .unwrap();
        assert_eq!((c.hits(), c.misses(), c.len()), (0, 3, 3));
    }

    #[test]
    fn tuned_deploys_use_the_database_config() {
        use fpgaccel_aoc::Precision;
        use fpgaccel_core::{db_key, TilingPreset};
        use fpgaccel_tune::{TuneRecord, TuningDb};

        let model = Model::MobileNetV1;
        let platform = FpgaPlatform::Stratix10Sx;
        let fallback = fpgaccel_core::bitstreams::optimized_config(model, platform);
        let mut c = DeploymentCache::new();

        // Empty database: the fallback config deploys.
        let plain = c
            .get_or_compile_tuned(model, platform, &TuningDb::new(), &fallback)
            .unwrap();
        assert_eq!(plain.config.label, fallback.label);

        // A tuned record switches the deployment to the database tiling.
        let mut db = TuningDb::new();
        let graph = Flow::new(model, platform).import_graph();
        db.tilings.insert(
            db_key(&graph, platform, Precision::F32),
            TuneRecord {
                tile: (7, 8, 4),
                seconds_per_image: 0.004,
                conv1x1_seconds: 0.002,
                dsps: 1000,
                fmax_mhz: 300.0,
                evaluations: 42,
            },
        );
        let tuned = c
            .get_or_compile_tuned(model, platform, &db, &fallback)
            .unwrap();
        assert_eq!(tuned.config.label, "Folded-Tuned");
        assert_eq!(
            tuned.config.tiling,
            TilingPreset::Custom1x1 { tile: (7, 8, 4) }
        );
        // Distinct configs cache separately; repeating the tuned deploy hits.
        assert_eq!(c.misses(), 2);
        c.get_or_compile_tuned(model, platform, &db, &fallback)
            .unwrap();
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn pipeline_depth_policies_key_distinct_deployments() {
        use fpgaccel_core::TilingPreset;
        use fpgaccel_pipeline::{DepthPolicy, PipelineOpts};

        let mut c = DeploymentCache::new();
        let base = OptimizationConfig::dataflow(TilingPreset::Naive);
        // Same label, different planner knobs: the config's structural
        // (Debug) keying must keep the deployments apart — a serving pool
        // rolling out a retuned FIFO policy must not get the old bitstream.
        let mut shallow = base.clone();
        shallow.pipeline = PipelineOpts {
            depth: DepthPolicy::FillMultiple(1),
            max_stages: 32,
        };
        let mut deep = base.clone();
        deep.pipeline = PipelineOpts {
            depth: DepthPolicy::Full,
            max_stages: 32,
        };
        assert_eq!(shallow.label, deep.label);
        let a = c
            .get_or_compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &shallow)
            .unwrap();
        let b = c
            .get_or_compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &deep)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((c.hits(), c.misses(), c.len()), (0, 2, 2));
        // Re-requesting either policy hits its own entry.
        let a2 = c
            .get_or_compile(Model::LeNet5, FpgaPlatform::Stratix10Sx, &shallow)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn second_compile_is_at_least_10x_faster() {
        // The acceptance-criteria wall-clock check: a cache hit must beat
        // recompilation by an order of magnitude.
        let mut c = DeploymentCache::new();
        let cfg = fpgaccel_core::bitstreams::optimized_config(
            Model::MobileNetV1,
            FpgaPlatform::Stratix10Sx,
        );
        let t0 = std::time::Instant::now();
        c.get_or_compile(Model::MobileNetV1, FpgaPlatform::Stratix10Sx, &cfg)
            .unwrap();
        let cold = t0.elapsed();
        let t1 = std::time::Instant::now();
        c.get_or_compile(Model::MobileNetV1, FpgaPlatform::Stratix10Sx, &cfg)
            .unwrap();
        let warm = t1.elapsed();
        assert!(
            warm * 10 <= cold,
            "cache hit {warm:?} not 10x faster than compile {cold:?}"
        );
    }
}
