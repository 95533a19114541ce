//! The schema-versioned bench trajectory record (`BENCH_core.json`).
//!
//! A record is a flat list of named scalar metrics produced by one run of
//! the standardized bench workload matrix
//! (`fpgaccel_bench::trajectory::collect`). Every
//! metric carries its own comparison semantics — the direction in which
//! "better" lies and a relative tolerance band — so the comparator
//! ([`crate::compare`]) needs no out-of-band configuration: the committed
//! baseline is self-describing.
//!
//! Everything that lands in a record is **deterministic** (simulated
//! clocks, tracer phase ticks, seeded load), so regenerating the record
//! on the same source tree reproduces it byte for byte; wall-clock
//! profiler numbers are deliberately excluded (they go to the metrics
//! registry instead — see `docs/OBSERVABILITY.md`).

use fpgaccel_trace::json::{Fields, Json};

/// Schema version stamped into (and required of) every record.
pub const SCHEMA_VERSION: u64 = 1;

/// Which direction of change in a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, speedup, fmax).
    Higher,
    /// Smaller is better (latency, sheds, phase ticks).
    Lower,
    /// Any deviation beyond the tolerance is a regression (structural
    /// counts such as kernels per deployment).
    Exact,
}

impl Direction {
    /// Serialized form.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
            Direction::Exact => "exact",
        }
    }

    /// Parses the serialized form.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            "exact" => Some(Direction::Exact),
            _ => None,
        }
    }
}

/// One named scalar with its comparison semantics.
#[derive(Clone, Debug)]
pub struct BenchMetric {
    /// Dotted identifier, e.g. `pipeline.LeNet-5.S10SX.speedup`.
    pub id: String,
    /// The measured value (always finite).
    pub value: f64,
    /// Unit label, e.g. `ms`, `mhz`, `ratio`, `count`.
    pub unit: String,
    /// Which way "better" lies.
    pub direction: Direction,
    /// Relative tolerance band: changes within `±tolerance` of the
    /// baseline are noise, not verdicts.
    pub tolerance: f64,
}

/// One run's worth of bench metrics.
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Workload identifier (bumped when the matrix itself changes).
    pub workload: String,
    /// The metrics, in collection order.
    pub metrics: Vec<BenchMetric>,
}

impl BenchRecord {
    /// Pushes one metric.
    pub fn push(&mut self, id: &str, value: f64, unit: &str, direction: Direction, tolerance: f64) {
        self.metrics.push(BenchMetric {
            id: id.to_string(),
            value,
            unit: unit.to_string(),
            direction,
            tolerance,
        });
    }

    /// Looks up a metric by id.
    pub fn get(&self, id: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.id == id)
    }

    /// Renders the schema-versioned JSON artifact. Byte-identical across
    /// reruns of the same source tree.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            Json::obj([
                ("id", m.id.as_str().into()),
                ("value", m.value.into()),
                ("unit", m.unit.as_str().into()),
                ("direction", m.direction.label().into()),
                ("tolerance", m.tolerance.into()),
            ])
        });
        Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("workload", self.workload.as_str().into()),
            ("metrics", Json::Arr(metrics.collect())),
        ])
        .render()
    }

    /// Parses a record, rejecting unknown schema versions (the comparator
    /// must never silently misread a future format) and any metric that
    /// would switch the comparator off: a non-finite value, a negative or
    /// non-finite tolerance, or an id already used by an earlier metric.
    /// Each metric error names the metric's index and field.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let j = Json::parse(text).map_err(|e| format!("record is not valid JSON: {e}"))?;
        let version = j
            .get("schema_version")
            .and_then(|v| v.as_f64())
            .ok_or("record has no schema_version")?;
        if version != SCHEMA_VERSION as f64 {
            return Err(format!(
                "unsupported schema_version {version} (supported: {SCHEMA_VERSION})"
            ));
        }
        let workload = j
            .get("workload")
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or("record has no workload")?;
        let entries = j
            .get("metrics")
            .and_then(|v| v.as_array())
            .ok_or("record has no metrics array")?;
        let mut metrics: Vec<BenchMetric> = Vec::with_capacity(entries.len());
        for (index, json) in entries.iter().enumerate() {
            let f = Fields::new("metrics", index, json);
            let id = f.text("id")?;
            if let Some(first) = metrics.iter().position(|m| m.id == id) {
                return Err(f.error("id", &format!("repeats metric {first}")));
            }
            let direction = Direction::parse(&f.text("direction")?)
                .ok_or_else(|| f.error("direction", "must be higher, lower or exact"))?;
            metrics.push(BenchMetric {
                id,
                value: f.finite("value")?,
                unit: f.text("unit")?,
                direction,
                tolerance: f.real("tolerance")?,
            });
        }
        Ok(BenchRecord { workload, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        let mut r = BenchRecord {
            workload: "core-v1".into(),
            ..BenchRecord::default()
        };
        r.push(
            "pipeline.LeNet-5.S10SX.speedup",
            2.5,
            "ratio",
            Direction::Higher,
            0.02,
        );
        r.push("serve.load1x.p99_ms", 12.25, "ms", Direction::Lower, 0.05);
        r.push(
            "compile.LeNet-5.S10SX.kernels",
            7.0,
            "count",
            Direction::Exact,
            0.0,
        );
        r
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample();
        let text = r.to_json();
        let back = BenchRecord::parse(&text).unwrap();
        assert_eq!(back.workload, "core-v1");
        assert_eq!(back.metrics.len(), 3);
        let m = back.get("serve.load1x.p99_ms").unwrap();
        assert_eq!(m.value, 12.25);
        assert_eq!(m.direction, Direction::Lower);
        assert_eq!(m.tolerance, 0.05);
        // Serialization is a fixed point: render → parse → render.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let text = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = BenchRecord::parse(&text).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
    }

    #[test]
    fn malformed_records_error_instead_of_panicking() {
        assert!(BenchRecord::parse("not json").is_err());
        assert!(BenchRecord::parse("{\"schema_version\": 1}").is_err());
    }

    /// Parses `sample()` with one JSON fragment replaced.
    fn parse_with(from: &str, to: &str) -> Result<BenchRecord, String> {
        let text = sample().to_json();
        assert!(text.contains(from), "{from} not in {text}");
        BenchRecord::parse(&text.replacen(from, to, 1))
    }

    #[test]
    fn an_infinite_tolerance_is_rejected() {
        // `1e999` parses to +inf, which would pass any regression.
        let err = parse_with("\"tolerance\": 0.05", "\"tolerance\": 1e999").unwrap_err();
        assert_eq!(
            err,
            "`metrics` record 1: `tolerance` must be a finite number >= 0"
        );
    }

    #[test]
    fn an_infinite_value_is_rejected() {
        // An infinite baseline makes every relative change NaN.
        let err = parse_with("\"value\": 12.25", "\"value\": 1e999").unwrap_err();
        assert_eq!(err, "`metrics` record 1: `value` must be a finite number");
    }

    #[test]
    fn a_negative_tolerance_is_rejected() {
        // A negative band reads an unchanged metric as improved or
        // regressed.
        let err = parse_with("\"tolerance\": 0.02", "\"tolerance\": -0.02").unwrap_err();
        assert_eq!(
            err,
            "`metrics` record 0: `tolerance` must be a finite number >= 0"
        );
    }

    #[test]
    fn a_duplicate_id_is_rejected() {
        // The comparator looks ids up by first match, so a second copy
        // would never be compared.
        let err = parse_with(
            "\"id\": \"compile.LeNet-5.S10SX.kernels\"",
            "\"id\": \"serve.load1x.p99_ms\"",
        )
        .unwrap_err();
        assert_eq!(err, "`metrics` record 2: `id` repeats metric 1");
    }
}
