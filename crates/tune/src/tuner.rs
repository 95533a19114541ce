//! The [`Tuner`]: warm tuning-database lookup, then every legal candidate
//! evaluated once.
//!
//! `tune` first consults the [`TuningDb`]; a hit returns immediately with
//! **zero** candidate evaluations (the warm path the serving layer relies
//! on). On a miss it evaluates every proposal of the [`SearchSpace`] in
//! proposal order, takes the first fastest feasible one, records it back
//! into the database, and emits a span on the `PID_TUNE` track plus
//! `tune_*` counters/gauges so a tuning run shows up in the same Perfetto
//! timeline and metrics exposition as everything else.
//!
//! Evaluation is abstracted behind [`Evaluate`] so the tuner stays
//! independent of the compile flow (`fpgaccel-core` implements the trait).

use crate::candidate::{Candidate, LegalityError, SearchSpace};
use crate::db::{DbKey, TuneRecord, TuningDb};
use fpgaccel_trace::{Registry, Tracer, PID_TUNE};

/// What evaluating one candidate measured (mirrors the Table 6.6 columns).
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Simulated seconds per image for the full network, when the complete
    /// kernel set also synthesizes on the platform.
    pub seconds_per_image: Option<f64>,
    /// Device-busy seconds of the 1x1-convolution kernel per image.
    pub conv1x1_seconds: f64,
    /// DSP blocks of the 1x1-only bitstream.
    pub dsps: u64,
    /// Achieved clock.
    pub fmax_mhz: f64,
    /// Utilization percentages (logic, RAM, DSP).
    pub utilization: (f64, f64, f64),
}

/// Why evaluating a candidate failed (plan construction or synthesis); the
/// payload keeps the exact flow error rendering so enumerative callers
/// reproduce their historical output byte for byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// A candidate evaluator.
pub trait Evaluate {
    /// Synthesizes/simulates one candidate.
    ///
    /// # Errors
    /// [`EvalError`] when the plan cannot be built or synthesis fails.
    fn evaluate(&self, c: &Candidate) -> Result<Measured, EvalError>;
}

/// Index of the first smallest of the `Some` values, so the earlier of two
/// tied candidates wins; `None` when every value is `None`.
pub(crate) fn first_minimum(values: impl IntoIterator<Item = Option<f64>>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in values.into_iter().enumerate() {
        if let Some(v) = v {
            if best.is_none_or(|(_, b)| v < b) {
                best = Some((i, v));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Why tuning produced nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuneError {
    /// The proposal generator had no legal candidates (no 1x1 layers).
    EmptySpace(LegalityError),
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
    /// evaluations entirely.
    pub from_cache: bool,
    /// Every candidate evaluated this call, in evaluation order.
    pub evaluated: Vec<(Candidate, Result<Measured, EvalError>)>,
}

/// The auto-tuner for one (model, platform) search space.
pub struct Tuner {
    space: SearchSpace,
    tracer: Tracer,
    registry: Registry,
}

impl Tuner {
    /// A tuner over `space`, untraced.
    pub fn new(space: SearchSpace) -> Tuner {
        Tuner {
            space,
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

    /// Tunes: warm database lookup first; on a miss every proposal is
    /// evaluated once, in proposal order, and the first minimum of
    /// `seconds_per_image` among feasible candidates is written back into
    /// `db`.
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
        let labels = [("model", key.model.as_str()), ("platform", &key.platform)];
        if let Some(hit) = self.cached(key, db) {
            self.registry.counter_inc(
                "tune_db_hits_total",
                "Tuning-database hits (search skipped)",
                &labels,
            );
            let _g = self.tracer.phase_on(PID_TUNE, "tune", "db-hit");
            return Ok(hit);
        }
        self.registry.counter_inc(
            "tune_db_misses_total",
            "Tuning-database misses (search ran)",
            &labels,
        );

        let proposals = self.space.proposals().map_err(TuneError::EmptySpace)?;
        let evaluated: Vec<(Candidate, Result<Measured, EvalError>)> = {
            let _g = self.tracer.phase_on(PID_TUNE, "tune", "search");
            proposals
                .into_iter()
                .map(|c| (c, eval.evaluate(&c)))
                .collect()
        };
        let evaluations = evaluated.len();
        self.registry.counter_add(
            "tune_evaluations_total",
            "Candidate evaluations spent by the tuner",
            &labels,
            evaluations as f64,
        );
        let feasible = evaluated
            .iter()
            .map(|(_, r)| r.as_ref().ok().and_then(|m| m.seconds_per_image));
        let best = first_minimum(feasible).ok_or(TuneError::NoFeasibleCandidate { evaluations })?;
        let (candidate, Ok(m)) = &evaluated[best] else {
            unreachable!("the first minimum is a successful evaluation")
        };
        let record = TuneRecord {
            tile: candidate.tile,
            seconds_per_image: m.seconds_per_image.expect("the first minimum is feasible"),
            conv1x1_seconds: m.conv1x1_seconds,
            dsps: m.dsps,
            fmax_mhz: m.fmax_mhz,
            evaluations,
        };
        let candidate = *candidate;
        self.registry.gauge_set(
            "tune_best_seconds_per_image",
            "Best simulated seconds/image found",
            &labels,
            record.seconds_per_image,
        );
        let out = TuneOutcome::of(candidate, &record, false, evaluated);
        db.tilings.insert(key.clone(), record);
        Ok(out)
    }

    /// The stored record for `key` as a zero-evaluation outcome, when its
    /// tiling is still legal for the space.
    fn cached(&self, key: &DbKey, db: &TuningDb) -> Option<TuneOutcome> {
        let rec = db.tilings.lookup(key)?;
        let candidate = rec.candidate(key.precision);
        self.space.validate(&candidate).ok()?;
        Some(TuneOutcome::of(candidate, rec, true, Vec::new()))
    }
}

impl TuneOutcome {
    fn of(
        candidate: Candidate,
        rec: &TuneRecord,
        from_cache: bool,
        evaluated: Vec<(Candidate, Result<Measured, EvalError>)>,
    ) -> TuneOutcome {
        TuneOutcome {
            candidate,
            seconds_per_image: rec.seconds_per_image,
            conv1x1_seconds: rec.conv1x1_seconds,
            dsps: rec.dsps,
            fmax_mhz: rec.fmax_mhz,
            evaluations: evaluated.len(),
            from_cache,
            evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Conv1x1Shape;
    use std::cell::Cell;

    /// MAC lanes per cycle the tiling unrolls: `W_2vec * C_2vec * C_1vec`.
    fn lanes(c: &Candidate) -> u64 {
        (c.tile.0 * c.tile.1 * c.tile.2) as u64
    }

    /// Latency falls with the tiling's lanes; `feasible: false` makes every
    /// full network miss the platform.
    struct Counting {
        calls: Cell<usize>,
        feasible: bool,
    }

    impl Counting {
        fn new(feasible: bool) -> Counting {
            Counting {
                calls: Cell::new(0),
                feasible,
            }
        }
    }

    impl Evaluate for Counting {
        fn evaluate(&self, c: &Candidate) -> Result<Measured, EvalError> {
            self.calls.set(self.calls.get() + 1);
            let lanes = lanes(c);
            Ok(Measured {
                seconds_per_image: self.feasible.then(|| 1.0 / lanes as f64),
                conv1x1_seconds: 0.5 / lanes as f64,
                dsps: lanes,
                fmax_mhz: 200.0,
                utilization: (10.0, 10.0, 10.0),
            })
        }
    }

    /// Full-network latency stops falling at 64 lanes, so every tiling of
    /// 64 to 1,024 lanes ties; past 1,024 lanes synthesis fails. The 1x1
    /// time keeps falling, so an argmin on it picks a different tiling.
    struct Plateau;

    impl Evaluate for Plateau {
        fn evaluate(&self, c: &Candidate) -> Result<Measured, EvalError> {
            let lanes = lanes(c);
            if lanes > 1_024 {
                return Err(EvalError(format!("{c}: does not fit")));
            }
            Ok(Measured {
                seconds_per_image: Some(1.0 / lanes.min(64) as f64),
                conv1x1_seconds: 1.0 / lanes as f64,
                dsps: lanes,
                fmax_mhz: 200.0,
                utilization: (10.0, 10.0, 10.0),
            })
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Conv1x1Shape {
            layer: "l".into(),
            w2: 14,
            h2: 14,
            c2: 32,
            c1: 16,
        }])
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
    fn cold_tune_evaluates_every_proposal_once_and_records_the_best() {
        let eval = Counting::new(true);
        let mut db = TuningDb::new();
        let out = Tuner::new(space()).tune(&key(), &mut db, &eval).unwrap();
        let proposals = space().proposals().unwrap();
        assert!(!out.from_cache);
        assert_eq!(out.evaluations, proposals.len());
        assert_eq!(eval.calls.get(), proposals.len());
        let order: Vec<Candidate> = out.evaluated.iter().map(|(c, _)| *c).collect();
        assert_eq!(order, proposals);
        // Best of this monotone objective is the max-lanes tiling.
        assert_eq!(out.candidate.tile, (14, 32, 16));
        let rec = db.tilings.lookup(&key()).unwrap();
        assert_eq!(rec.tile, (14, 32, 16));
        assert_eq!(rec.evaluations, proposals.len());
    }

    #[test]
    fn ties_go_to_the_earlier_proposal_and_failures_are_skipped() {
        let mut db = TuningDb::new();
        let out = Tuner::new(space()).tune(&key(), &mut db, &Plateau).unwrap();
        // (1, 4, 16) is the first proposal with 64 lanes; (1, 8, 8) and
        // dozens of later tilings tie with it.
        assert_eq!(out.candidate.tile, (1, 4, 16));
        assert_eq!(out.seconds_per_image, 1.0 / 64.0);
        assert_eq!(out.conv1x1_seconds, 1.0 / 64.0);
        assert_eq!(out.evaluations, space().proposals().unwrap().len());
        assert!(out.evaluated.iter().any(|(_, r)| r.is_err()));
    }

    #[test]
    fn warm_db_hit_skips_the_search_entirely() {
        let eval = Counting::new(true);
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
        let out = Tuner::new(space()).tune(&key(), &mut db, &eval).unwrap();
        assert!(out.from_cache);
        assert_eq!(out.evaluations, 0);
        assert_eq!(out.candidate.tile, (7, 8, 8));
        assert_eq!(
            eval.calls.get(),
            0,
            "warm hit must not evaluate any candidate"
        );
    }

    #[test]
    fn stale_record_with_illegal_tiling_falls_back_to_search() {
        let eval = Counting::new(true);
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
        let out = Tuner::new(space()).tune(&key(), &mut db, &eval).unwrap();
        assert!(!out.from_cache);
        assert_eq!(eval.calls.get(), space().proposals().unwrap().len());
    }

    #[test]
    fn infeasible_everything_is_a_structured_error() {
        let eval = Counting::new(false);
        let mut db = TuningDb::new();
        let err = Tuner::new(space())
            .tune(&key(), &mut db, &eval)
            .unwrap_err();
        let evaluations = space().proposals().unwrap().len();
        assert_eq!(err, TuneError::NoFeasibleCandidate { evaluations });
        assert!(db.is_empty());
    }

    #[test]
    fn first_minimum_keeps_the_earliest_of_equal_values() {
        assert_eq!(
            first_minimum([None, Some(2.0), Some(1.0), Some(1.0)]),
            Some(2)
        );
        assert_eq!(first_minimum([None, None]), None);
    }

    #[test]
    fn tuner_emits_spans_and_metrics() {
        let eval = Counting::new(true);
        let tracer = Tracer::enabled();
        let registry = Registry::default();
        let tuner = Tuner::new(space())
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
        assert_eq!(evals, space().proposals().unwrap().len() as f64);
        let text = registry.render_prometheus();
        assert!(text.contains("tune_db_misses_total"));
        assert!(text.contains("tune_best_seconds_per_image"));
    }
}
