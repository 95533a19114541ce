//! The baseline comparator: current bench record vs the committed one,
//! with per-metric tolerance bands and a structured verdict.
//!
//! Each metric is judged by *its own* direction and tolerance (carried in
//! the record, so the baseline is self-describing): a change beyond the
//! band in the worse direction is a regression, beyond it in the better
//! direction an improvement, within it noise. The verdict is machine-
//! readable JSON for CI and a compact table for humans; missing metrics
//! (present in the baseline, absent now) fail the run — silently dropping
//! coverage must not read as "still fast".

use crate::record::{BenchRecord, Direction};
use fpgaccel_trace::json::Json;

/// Verdict for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within the tolerance band.
    Pass,
    /// Beyond the band in the worse direction.
    Regressed,
    /// Beyond the band in the better direction.
    Improved,
}

impl DeltaStatus {
    /// Serialized form.
    pub fn label(self) -> &'static str {
        match self {
            DeltaStatus::Pass => "pass",
            DeltaStatus::Regressed => "regressed",
            DeltaStatus::Improved => "improved",
        }
    }
}

/// One metric's baseline-vs-current comparison.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Metric id.
    pub id: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `(current − baseline) / max(|baseline|, ε)`.
    pub rel_change: f64,
    /// The band the change was judged against.
    pub tolerance: f64,
    /// The verdict.
    pub status: DeltaStatus,
}

/// The full comparison outcome.
#[derive(Clone, Debug, Default)]
pub struct BenchVerdict {
    /// Per-metric deltas, in baseline order.
    pub deltas: Vec<MetricDelta>,
    /// Baseline metrics absent from the current record (coverage loss —
    /// fails the verdict).
    pub missing: Vec<String>,
    /// Current metrics absent from the baseline (new coverage —
    /// informational).
    pub added: Vec<String>,
}

impl BenchVerdict {
    /// Regressions, in baseline order.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.status == DeltaStatus::Regressed)
            .collect()
    }

    /// Improvements, in baseline order.
    pub fn improvements(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.status == DeltaStatus::Improved)
            .collect()
    }

    /// Overall verdict: no regressions and no coverage loss.
    pub fn pass(&self) -> bool {
        self.missing.is_empty() && self.regressions().is_empty()
    }

    /// Machine-readable verdict for CI (`jq '.pass'`).
    pub fn to_json(&self) -> String {
        let deltas = self.deltas.iter().map(|d| {
            Json::obj([
                ("id", d.id.as_str().into()),
                ("baseline", d.baseline.into()),
                ("current", d.current.into()),
                ("rel_change", d.rel_change.into()),
                ("tolerance", d.tolerance.into()),
                ("status", d.status.label().into()),
            ])
        });
        Json::obj([
            ("schema_version", 1u64.into()),
            ("pass", self.pass().into()),
            ("regressions", self.regressions().len().into()),
            ("improvements", self.improvements().len().into()),
            ("missing", self.missing.clone().into()),
            ("added", self.added.clone().into()),
            ("deltas", Json::Arr(deltas.collect())),
        ])
        .render()
    }
}

/// Compares `current` against `baseline`, metric by metric.
pub fn compare(baseline: &BenchRecord, current: &BenchRecord) -> BenchVerdict {
    let mut verdict = BenchVerdict::default();
    for b in &baseline.metrics {
        let Some(c) = current.get(&b.id) else {
            verdict.missing.push(b.id.clone());
            continue;
        };
        let rel = (c.value - b.value) / b.value.abs().max(1e-12);
        // The *baseline's* direction and tolerance judge the change, so a
        // perturbed current record cannot vote on its own verdict.
        let status = match b.direction {
            _ if rel.abs() <= b.tolerance => DeltaStatus::Pass,
            Direction::Exact => DeltaStatus::Regressed,
            Direction::Higher if rel < 0.0 => DeltaStatus::Regressed,
            Direction::Lower if rel > 0.0 => DeltaStatus::Regressed,
            _ => DeltaStatus::Improved,
        };
        verdict.deltas.push(MetricDelta {
            id: b.id.clone(),
            baseline: b.value,
            current: c.value,
            rel_change: rel,
            tolerance: b.tolerance,
            status,
        });
    }
    for c in &current.metrics {
        if baseline.get(&c.id).is_none() {
            verdict.added.push(c.id.clone());
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(entries: &[(&str, f64, Direction, f64)]) -> BenchRecord {
        let mut r = BenchRecord {
            workload: "core-v1".into(),
            ..BenchRecord::default()
        };
        for &(id, v, dir, tol) in entries {
            r.push(id, v, "x", dir, tol);
        }
        r
    }

    #[test]
    fn identical_records_pass_with_zero_deltas() {
        let base = record(&[
            ("a.speedup", 2.0, Direction::Higher, 0.02),
            ("b.p99", 10.0, Direction::Lower, 0.05),
        ]);
        let v = compare(&base, &base.clone());
        assert!(v.pass());
        assert!(v.deltas.iter().all(|d| d.rel_change == 0.0));
        assert!(v.missing.is_empty() && v.added.is_empty());
    }

    #[test]
    fn direction_decides_which_side_of_the_band_regresses() {
        let base = record(&[
            ("hi", 2.0, Direction::Higher, 0.05),
            ("lo", 10.0, Direction::Lower, 0.05),
            ("ex", 7.0, Direction::Exact, 0.0),
        ]);
        let cur = record(&[
            ("hi", 1.8, Direction::Higher, 0.05), // -10%: worse
            ("lo", 9.0, Direction::Lower, 0.05),  // -10%: better
            ("ex", 8.0, Direction::Exact, 0.0),   // any drift: worse
        ]);
        let v = compare(&base, &cur);
        assert!(!v.pass());
        let ids: Vec<_> = v.regressions().iter().map(|d| d.id.clone()).collect();
        assert_eq!(ids, ["hi", "ex"]);
        assert_eq!(v.improvements()[0].id, "lo");
    }

    #[test]
    fn changes_within_tolerance_are_noise() {
        let base = record(&[("hi", 100.0, Direction::Higher, 0.05)]);
        let cur = record(&[("hi", 96.0, Direction::Higher, 0.05)]);
        let v = compare(&base, &cur);
        assert!(v.pass());
        assert_eq!(v.deltas[0].status, DeltaStatus::Pass);
    }

    #[test]
    fn missing_metrics_fail_and_added_metrics_inform() {
        let base = record(&[("gone", 1.0, Direction::Higher, 0.0)]);
        let cur = record(&[("new", 1.0, Direction::Higher, 0.0)]);
        let v = compare(&base, &cur);
        assert!(!v.pass(), "coverage loss must fail");
        assert_eq!(v.missing, ["gone"]);
        assert_eq!(v.added, ["new"]);
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        use fpgaccel_trace::json::Json;
        let base = record(&[("hi", 2.0, Direction::Higher, 0.05)]);
        let cur = record(&[("hi", 1.0, Direction::Higher, 0.05)]);
        let v = compare(&base, &cur);
        let j = Json::parse(&v.to_json()).expect("valid JSON");
        assert_eq!(j.get("pass"), Some(&Json::Bool(false)));
        assert_eq!(j.get("regressions").unwrap().as_f64(), Some(1.0));
    }
}
