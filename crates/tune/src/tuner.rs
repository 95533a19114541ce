//! The [`Tuner`] façade: warm tuning-database lookup, the search engine,
//! and observability glued together.
//!
//! `tune` first consults the [`TuningDb`]; a hit returns immediately with
//! **zero** candidate evaluations (the warm path the serving layer relies
//! on). On a miss it runs the beam + evolutionary [`search`], records the
//! winner back into the database, and emits spans on the `PID_TUNE` track
//! plus `tune_*` counters/gauges so a tuning run shows up in the same
//! Perfetto timeline and metrics exposition as everything else.

use crate::candidate::{Candidate, SearchSpace};
use crate::db::{DbKey, TuneRecord, TuningDb};
use crate::search::{search, EvalError, Evaluate, Measured, SearchConfig};
use fpgaccel_trace::{Registry, Tracer, PID_TUNE};

/// Why tuning produced nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuneError {
    /// The proposal generator had no legal candidates (no 1x1 layers).
    EmptySpace(crate::candidate::LegalityError),
    /// Candidates were evaluated but none fit the platform end to end.
    NoFeasibleCandidate {
        /// Evaluations spent before giving up.
        evaluations: usize,
    },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::EmptySpace(e) => write!(f, "nothing to tune: {e}"),
            TuneError::NoFeasibleCandidate { evaluations } => {
                write!(f, "no feasible candidate after {evaluations} evaluations")
            }
        }
    }
}

impl std::error::Error for TuneError {}

/// What a tuning run produced.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winning candidate.
    pub candidate: Candidate,
    /// Its simulated full-network seconds per image.
    pub seconds_per_image: f64,
    /// Its device-busy 1x1-convolution seconds per image.
    pub conv1x1_seconds: f64,
    /// DSP blocks of its 1x1-only bitstream.
    pub dsps: u64,
    /// Its achieved clock.
    pub fmax_mhz: f64,
    /// Candidate evaluations this call spent (0 on a database hit).
    pub evaluations: usize,
    /// True when the result came from the tuning database, skipping the
    /// search entirely.
    pub from_cache: bool,
    /// Every candidate evaluated this call, in evaluation order.
    pub evaluated: Vec<(Candidate, Result<Measured, EvalError>)>,
}

/// The auto-tuner for one (model, platform) search space.
pub struct Tuner {
    space: SearchSpace,
    config: SearchConfig,
    tracer: Tracer,
    registry: Registry,
}

impl Tuner {
    /// A tuner over `space` with the given search budget/knobs, untraced.
    pub fn new(space: SearchSpace, config: SearchConfig) -> Tuner {
        Tuner {
            space,
            config,
            tracer: Tracer::disabled(),
            registry: Registry::default(),
        }
    }

    /// Records spans on `tracer`'s `PID_TUNE` track.
    pub fn with_tracer(mut self, tracer: Tracer) -> Tuner {
        self.tracer = tracer;
        self
    }

    /// Publishes `tune_*` metrics to `registry`.
    pub fn with_registry(mut self, registry: Registry) -> Tuner {
        self.registry = registry;
        self
    }

    /// The search space being tuned.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn counter(&self, name: &str, help: &str, key: &DbKey) {
        self.registry.counter_inc(
            name,
            help,
            &[("model", &key.model), ("platform", &key.platform)],
        );
    }

    /// Tunes: warm database lookup first, search on a miss, best record
    /// written back into `db`.
    ///
    /// # Errors
    /// [`TuneError::EmptySpace`] when the model has no 1x1 convolutions,
    /// [`TuneError::NoFeasibleCandidate`] when nothing evaluated fits the
    /// platform.
    pub fn tune(
        &self,
        key: &DbKey,
        db: &mut TuningDb,
        eval: &dyn Evaluate,
    ) -> Result<TuneOutcome, TuneError> {
        if self.tracer.is_enabled() {
            self.tracer.set_process_name(PID_TUNE, "auto-tuner");
        }

        // Warm path: a stored record whose tiling is still legal for the
        // space wins outright — zero evaluations, no search.
        if let Some(rec) = db.tilings.lookup(key) {
            let cand = rec.candidate(key.precision);
            if self.space.validate(&cand).is_ok() {
                self.counter(
                    "tune_db_hits_total",
                    "Tuning-database hits (search skipped)",
                    key,
                );
                let _g = self.tracer.phase_on(PID_TUNE, "tune", "db-hit");
                return Ok(TuneOutcome {
                    candidate: cand,
                    seconds_per_image: rec.seconds_per_image,
                    conv1x1_seconds: rec.conv1x1_seconds,
                    dsps: rec.dsps,
                    fmax_mhz: rec.fmax_mhz,
                    evaluations: 0,
                    from_cache: true,
                    evaluated: Vec::new(),
                });
            }
        }
        self.counter(
            "tune_db_misses_total",
            "Tuning-database misses (search ran)",
            key,
        );

        self.space.proposals().map_err(TuneError::EmptySpace)?;

        let result = {
            let _g = self.tracer.phase_on(PID_TUNE, "tune", "search");
            let mut last_spent = 0usize;
            search(&self.space, &self.config, eval, |label, spent, best| {
                let _r = self.tracer.phase_on(PID_TUNE, "tune", label);
                self.registry.counter_add(
                    "tune_evaluations_total",
                    "Candidate evaluations spent by the tuner",
                    &[("model", &key.model), ("platform", &key.platform)],
                    (spent - last_spent) as f64,
                );
                last_spent = spent;
                if best.is_finite() {
                    self.registry.gauge_set(
                        "tune_best_seconds_per_image",
                        "Best simulated seconds/image found so far",
                        &[("model", &key.model), ("platform", &key.platform)],
                        best,
                    );
                }
            })
        };

        let Some((candidate, m)) = result.best else {
            return Err(TuneError::NoFeasibleCandidate {
                evaluations: result.evaluations,
            });
        };
        let seconds = m
            .seconds_per_image
            .expect("best candidate is feasible by construction");
        db.tilings.insert(
            key.clone(),
            TuneRecord {
                tile: candidate.tile,
                seconds_per_image: seconds,
                conv1x1_seconds: m.conv1x1_seconds,
                dsps: m.dsps,
                fmax_mhz: m.fmax_mhz,
                evaluations: result.evaluations,
            },
        );
        Ok(TuneOutcome {
            candidate,
            seconds_per_image: seconds,
            conv1x1_seconds: m.conv1x1_seconds,
            dsps: m.dsps,
            fmax_mhz: m.fmax_mhz,
            evaluations: result.evaluations,
            from_cache: false,
            evaluated: result.evaluated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Conv1x1Shape;
    use fpgaccel_device::Resources;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting {
        calls: AtomicUsize,
        feasible: bool,
    }

    impl Evaluate for Counting {
        fn evaluate(&self, c: &Candidate) -> Result<Measured, EvalError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let lanes = c.lanes();
            Ok(Measured {
                seconds_per_image: self.feasible.then(|| 1.0 / lanes as f64),
                conv1x1_seconds: 0.5 / lanes as f64,
                dsps: lanes,
                ram_blocks: 100,
                fmax_mhz: 200.0,
                utilization: (10.0, 10.0, 10.0),
                routing_bits: 100,
            })
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::new(
            vec![Conv1x1Shape {
                layer: "l".into(),
                w2: 14,
                h2: 14,
                c2: 32,
                c1: 16,
            }],
            Resources {
                alut: 400_000,
                ff: 800_000,
                ram: 2_000,
                dsp: 100_000,
            },
            20_000,
        )
    }

    fn key() -> DbKey {
        DbKey {
            model: "m".into(),
            shape_sig: "n1-cafe".into(),
            platform: "Arria10Gx".into(),
            precision: fpgaccel_aoc::Precision::F32,
        }
    }

    #[test]
    fn cold_search_finds_best_and_records_it() {
        let eval = Counting {
            calls: AtomicUsize::new(0),
            feasible: true,
        };
        let tuner = Tuner::new(space(), SearchConfig::default());
        let mut db = TuningDb::new();
        let out = tuner.tune(&key(), &mut db, &eval).unwrap();
        assert!(!out.from_cache);
        assert!(out.evaluations > 0);
        // Best of this monotone objective is the max-lanes tiling.
        assert_eq!(out.candidate.tile, (14, 32, 16));
        assert_eq!(db.tilings.lookup(&key()).unwrap().tile, (14, 32, 16));
        assert_eq!(
            db.tilings.lookup(&key()).unwrap().evaluations,
            out.evaluations
        );
    }

    #[test]
    fn warm_db_hit_skips_the_search_entirely() {
        let eval = Counting {
            calls: AtomicUsize::new(0),
            feasible: true,
        };
        let mut db = TuningDb::new();
        db.tilings.insert(
            key(),
            TuneRecord {
                tile: (7, 8, 8),
                seconds_per_image: 0.001,
                conv1x1_seconds: 0.0005,
                dsps: 448,
                fmax_mhz: 190.0,
                evaluations: 84,
            },
        );
        let tuner = Tuner::new(space(), SearchConfig::default());
        let out = tuner.tune(&key(), &mut db, &eval).unwrap();
        assert!(out.from_cache);
        assert_eq!(out.evaluations, 0);
        assert_eq!(out.candidate.tile, (7, 8, 8));
        assert_eq!(
            eval.calls.load(Ordering::Relaxed),
            0,
            "warm hit must not evaluate any candidate"
        );
    }

    #[test]
    fn stale_record_with_illegal_tiling_falls_back_to_search() {
        let eval = Counting {
            calls: AtomicUsize::new(0),
            feasible: true,
        };
        let mut db = TuningDb::new();
        db.tilings.insert(
            key(),
            TuneRecord {
                tile: (5, 3, 3), // divides nothing in this space
                seconds_per_image: 0.001,
                conv1x1_seconds: 0.0005,
                dsps: 45,
                fmax_mhz: 190.0,
                evaluations: 10,
            },
        );
        let tuner = Tuner::new(space(), SearchConfig::default());
        let out = tuner.tune(&key(), &mut db, &eval).unwrap();
        assert!(!out.from_cache);
        assert!(eval.calls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn infeasible_everything_is_a_structured_error() {
        let eval = Counting {
            calls: AtomicUsize::new(0),
            feasible: false,
        };
        let tuner = Tuner::new(space(), SearchConfig::default());
        let mut db = TuningDb::new();
        let err = tuner.tune(&key(), &mut db, &eval).unwrap_err();
        assert!(matches!(err, TuneError::NoFeasibleCandidate { .. }));
        assert!(db.is_empty());
    }

    #[test]
    fn tuner_emits_spans_and_metrics() {
        let eval = Counting {
            calls: AtomicUsize::new(0),
            feasible: true,
        };
        let tracer = Tracer::enabled();
        let registry = Registry::default();
        let tuner = Tuner::new(space(), SearchConfig::default())
            .with_tracer(tracer.clone())
            .with_registry(registry.clone());
        let mut db = TuningDb::new();
        tuner.tune(&key(), &mut db, &eval).unwrap();
        assert!(tracer
            .events()
            .iter()
            .any(|e| e.pid == PID_TUNE && e.name == "search"));
        let labels = [("model", "m"), ("platform", "Arria10Gx")];
        let evals = registry.value("tune_evaluations_total", &labels).unwrap();
        assert!(evals > 0.0, "evaluation counter should accumulate");
        let text = registry.render_prometheus();
        assert!(text.contains("tune_db_misses_total"));
        assert!(text.contains("tune_evaluations_total"));
        assert!(text.contains("tune_best_seconds_per_image"));
    }
}
