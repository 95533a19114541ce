//! A unified metrics registry: counters, gauges and histograms with label
//! sets, rendered as Prometheus text exposition or JSON.
//!
//! The registry is a cheap cloneable handle; every subsystem (serving
//! pool, batcher, deployment cache, device simulations) publishes into the
//! same instance. Families are kept sorted by name and their series by
//! label set, so both expositions are deterministic — a rendered registry
//! is a pure function of the metric updates that fed it. An update
//! allocates only when it creates a family or a series.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What a metric family measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
struct Hist {
    /// Ascending bucket upper bounds (an implicit `+Inf` bucket follows).
    bounds: Vec<f64>,
    /// Cumulative counts per bound, plus the `+Inf` bucket at the end.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

#[derive(Clone, Debug)]
enum Series {
    Value(f64),
    Histogram(Hist),
}

#[derive(Clone, Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Sorted by label set; a label set is its `(name, value)` pairs
    /// sorted by name, and it alone identifies the series.
    series: Vec<(Vec<(String, String)>, Series)>,
}

impl Family {
    /// Index of the series with the `sorted` label set, or where to insert
    /// it.
    fn find(&self, sorted: &[(&str, &str)]) -> Result<usize, usize> {
        self.series.binary_search_by(|(labels, _)| {
            let labels = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            labels.cmp(sorted.iter().copied())
        })
    }

    fn get(&self, labels: &[(&str, &str)]) -> Option<&Series> {
        let i = with_sorted(labels, |sorted| self.find(sorted)).ok()?;
        Some(&self.series[i].1)
    }
}

#[derive(Default)]
struct RegistryInner {
    families: BTreeMap<String, Family>,
}

/// A registry of metric families. Clones share the same storage.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

/// Most labels a lookup sorts on the stack; a larger set sorts on the heap.
const STACK_LABELS: usize = 8;

/// Calls `f` with `labels` sorted by name (then value), without allocating
/// for up to [`STACK_LABELS`] labels.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    let mut stack = [("", ""); STACK_LABELS];
    let mut heap = Vec::new();
    let sorted = match stack.get_mut(..labels.len()) {
        Some(sorted) => sorted,
        None => {
            heap.resize(labels.len(), ("", ""));
            &mut heap[..]
        }
    };
    sorted.copy_from_slice(labels);
    sorted.sort_unstable();
    f(sorted)
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", Json::from(v.as_str())))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}={}", Json::from(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn update(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        f: impl FnOnce(&mut Series),
        fresh: impl FnOnce() -> Series,
    ) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if !inner.families.contains_key(name) {
            let family = Family {
                help: help.to_string(),
                kind,
                series: Vec::new(),
            };
            inner.families.insert(name.to_string(), family);
        }
        let family = inner.families.get_mut(name).expect("family just ensured");
        assert!(
            family.kind == kind,
            "metric `{name}` re-registered as {kind:?}, was {:?}",
            family.kind
        );
        with_sorted(labels, |sorted| {
            let i = family.find(sorted).unwrap_or_else(|i| {
                let owned = sorted.iter().map(|(k, v)| (k.to_string(), v.to_string()));
                family.series.insert(i, (owned.collect(), fresh()));
                i
            });
            f(&mut family.series[i].1);
        });
    }

    /// The series `name{labels}`, if registered.
    fn read<R>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl FnOnce(&Series) -> Option<R>,
    ) -> Option<R> {
        let inner = self.inner.lock().expect("registry poisoned");
        f(inner.families.get(name)?.get(labels)?)
    }

    /// Adds `v` (≥ 0) to a counter. Non-finite increments are dropped —
    /// a counter must never become `NaN`/`Inf` (neither has a JSON
    /// encoding, so it would corrupt the exposition).
    pub fn counter_add(&self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.update(
            name,
            help,
            MetricKind::Counter,
            labels,
            |s| {
                if let Series::Value(total) = s {
                    if v.is_finite() {
                        *total += v.max(0.0);
                    }
                }
            },
            || Series::Value(0.0),
        );
    }

    /// Increments a counter by one.
    pub fn counter_inc(&self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.counter_add(name, help, labels, 1.0);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.update(
            name,
            help,
            MetricKind::Gauge,
            labels,
            |s| {
                if let Series::Value(val) = s {
                    *val = v;
                }
            },
            || Series::Value(0.0),
        );
    }

    /// Raises a gauge to `v` if `v` exceeds its current value (peak
    /// tracking).
    pub fn gauge_max(&self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.update(
            name,
            help,
            MetricKind::Gauge,
            labels,
            |s| {
                if let Series::Value(val) = s {
                    *val = val.max(v);
                }
            },
            || Series::Value(0.0),
        );
    }

    /// Records an observation into a histogram with the given ascending
    /// bucket upper bounds (the `+Inf` bucket is implicit). Non-finite
    /// observations are dropped: one stray `NaN` would otherwise poison
    /// the histogram's `sum` forever and leak into both expositions.
    pub fn histogram_observe(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        v: f64,
    ) {
        if !v.is_finite() {
            return;
        }
        self.update(
            name,
            help,
            MetricKind::Histogram,
            labels,
            |s| {
                if let Series::Histogram(h) = s {
                    for (i, &b) in h.bounds.iter().enumerate() {
                        if v <= b {
                            h.counts[i] += 1;
                        }
                    }
                    *h.counts.last_mut().expect("+Inf bucket") += 1;
                    h.sum += v;
                    h.count += 1;
                }
            },
            || {
                Series::Histogram(Hist {
                    bounds: bounds.to_vec(),
                    counts: vec![0; bounds.len() + 1],
                    sum: 0.0,
                    count: 0,
                })
            },
        );
    }

    /// Reads back a counter or gauge value (`None` for unknown series).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.read(name, labels, |s| match s {
            Series::Value(v) => Some(*v),
            Series::Histogram(_) => None,
        })
    }

    /// Reads back a histogram's `(sum, count)`.
    pub fn histogram_sum_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<(f64, u64)> {
        self.read(name, labels, |s| match s {
            Series::Histogram(h) => Some((h.sum, h.count)),
            Series::Value(_) => None,
        })
    }

    /// Nearest-rank quantile estimate from a histogram's cumulative
    /// buckets (the matching bucket's upper bound). Returns `None` for an
    /// unknown series — and, crucially, for a histogram with **zero
    /// samples**, where a quantile is undefined; callers render that as
    /// absent rather than letting a `NaN` placeholder propagate.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.read(name, labels, |s| {
            let Series::Histogram(h) = s else {
                return None;
            };
            if h.count == 0 {
                return None;
            }
            let rank = (q.clamp(0.0, 1.0) * h.count as f64).ceil().max(1.0) as u64;
            let i = h.counts.iter().position(|&c| c >= rank)?;
            // The +Inf bucket has no finite upper bound; report the mean of
            // the overflow mass instead of infinity.
            Some(h.bounds.get(i).copied().unwrap_or(h.sum / h.count as f64))
        })
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        self.inner.lock().expect("registry poisoned").families.len()
    }

    /// Audits every registered family name against the repository's
    /// naming convention and returns one violation string per offence
    /// (empty when fully conformant):
    ///
    /// * names are `snake_case` ASCII (`[a-z][a-z0-9_]*`);
    /// * every name starts with one of the `prefixes` (the owning
    ///   subsystem, e.g. `serve_`);
    /// * counters end in `_total`;
    /// * histograms end in a base-unit suffix (`_seconds`, `_bytes`,
    ///   `_size`);
    /// * gauges end in a unit suffix from a fixed allowlist (`_seconds`,
    ///   `_ratio`, `_state`, ...), so a reader can always tell what a
    ///   sample means without consulting HELP text.
    pub fn audit_names(&self, prefixes: &[&str]) -> Vec<String> {
        const HISTOGRAM_SUFFIXES: &[&str] = &["_seconds", "_bytes", "_size"];
        const GAUGE_SUFFIXES: &[&str] = &[
            "_seconds",
            "_bytes",
            "_ratio",
            "_state",
            "_count",
            "_elements",
            "_requests",
            "_per_second",
            "_seconds_per_image",
            "_mhz",
        ];
        let inner = self.inner.lock().expect("registry poisoned");
        let mut violations = Vec::new();
        for (name, family) in &inner.families {
            let mut chars = name.chars();
            let well_formed = chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if !well_formed {
                violations.push(format!("{name}: not snake_case ([a-z][a-z0-9_]*)"));
            }
            if !prefixes.iter().any(|p| name.starts_with(p)) {
                violations.push(format!(
                    "{name}: missing subsystem prefix (one of {})",
                    prefixes.join(", ")
                ));
            }
            match family.kind {
                MetricKind::Counter => {
                    if !name.ends_with("_total") {
                        violations.push(format!("{name}: counter must end in `_total`"));
                    }
                }
                MetricKind::Histogram => {
                    if !HISTOGRAM_SUFFIXES.iter().any(|s| name.ends_with(s)) {
                        violations.push(format!(
                            "{name}: histogram must end in a unit suffix ({})",
                            HISTOGRAM_SUFFIXES.join(", ")
                        ));
                    }
                }
                MetricKind::Gauge => {
                    if name.ends_with("_total") {
                        violations.push(format!("{name}: `_total` is reserved for counters"));
                    } else if !GAUGE_SUFFIXES.iter().any(|s| name.ends_with(s)) {
                        violations.push(format!(
                            "{name}: gauge must end in a unit suffix ({})",
                            GAUGE_SUFFIXES.join(", ")
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Prometheus text exposition (format version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, family) in &inner.families {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.label()));
            for (labels, series) in &family.series {
                match series {
                    Series::Value(v) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            Json::Num(*v)
                        ));
                    }
                    Series::Histogram(h) => {
                        for (i, &c) in h.counts.iter().enumerate() {
                            let le = h
                                .bounds
                                .get(i)
                                .map(|b| Json::Num(*b).to_string())
                                .unwrap_or_else(|| "+Inf".to_string());
                            out.push_str(&format!(
                                "{name}_bucket{} {c}\n",
                                render_labels(labels, Some(("le", le)))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(labels, None),
                            Json::Num(h.sum)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(labels, None),
                            h.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: `{family: {kind, help, series: [{labels, ...}]}}`.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let families = inner.families.iter().map(|(name, family)| {
            let series = family.series.iter().map(|(labels, series)| {
                let labels = labels.iter().map(|(k, v)| (k.clone(), v.as_str().into()));
                let labels = ("labels", Json::Obj(labels.collect()));
                match series {
                    Series::Value(v) => Json::obj([labels, ("value", (*v).into())]),
                    Series::Histogram(h) => Json::obj([
                        labels,
                        ("le", h.bounds.clone().into()),
                        ("bucket_counts", h.counts.clone().into()),
                        ("sum", h.sum.into()),
                        ("count", h.count.into()),
                    ]),
                }
            });
            let family = Json::obj([
                ("kind", family.kind.label().into()),
                ("help", family.help.as_str().into()),
                ("series", Json::Arr(series.collect())),
            ]);
            (name.clone(), family)
        });
        Json::Obj(families.collect()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.counter_inc("requests_total", "requests", &[("model", "lenet5")]);
        r.counter_add("requests_total", "requests", &[("model", "lenet5")], 2.0);
        r.counter_inc("requests_total", "requests", &[("model", "mobilenet")]);
        assert_eq!(r.value("requests_total", &[("model", "lenet5")]), Some(3.0));
        assert_eq!(
            r.value("requests_total", &[("model", "mobilenet")]),
            Some(1.0)
        );
        assert_eq!(r.value("requests_total", &[("model", "resnet")]), None);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.counter_inc("x_total", "x", &[("a", "1"), ("b", "2")]);
        r.counter_inc("x_total", "x", &[("b", "2"), ("a", "1")]);
        assert_eq!(r.value("x_total", &[("a", "1"), ("b", "2")]), Some(2.0));
        // More labels than the lookup sorts on the stack.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let mut many: Vec<(&str, &str)> = names.iter().map(|&k| (k, "v")).collect();
        r.counter_inc("y_total", "y", &many);
        many.reverse();
        r.counter_inc("y_total", "y", &many);
        assert_eq!(r.value("y_total", &many), Some(2.0));
    }

    #[test]
    fn label_sets_that_join_alike_stay_separate_series() {
        // Joined as `k=v` pairs with `,` both sets read `a=1,b=2`.
        let r = Registry::new();
        r.counter_inc("x_total", "x", &[("a", "1,b=2")]);
        r.counter_add("x_total", "x", &[("b", "2"), ("a", "1")], 2.0);
        assert_eq!(r.value("x_total", &[("a", "1,b=2")]), Some(1.0));
        assert_eq!(r.value("x_total", &[("a", "1"), ("b", "2")]), Some(2.0));
        let text = r.render_prometheus();
        let two = text.find("x_total{a=\"1\",b=\"2\"} 2\n").unwrap();
        let one = text.find("x_total{a=\"1,b=2\"} 1\n").unwrap();
        assert!(two < one, "series render in label-set order:\n{text}");
    }

    #[test]
    fn gauges_set_and_track_peaks() {
        let r = Registry::new();
        r.gauge_set("depth", "queue depth", &[], 4.0);
        r.gauge_set("depth", "queue depth", &[], 2.0);
        assert_eq!(r.value("depth", &[]), Some(2.0));
        r.gauge_max("peak", "peak depth", &[], 5.0);
        r.gauge_max("peak", "peak depth", &[], 3.0);
        assert_eq!(r.value("peak", &[]), Some(5.0));
    }

    #[test]
    fn histograms_fill_cumulative_buckets() {
        let r = Registry::new();
        let bounds = [1e-3, 1e-2, 1e-1];
        for v in [5e-4, 5e-3, 5e-2, 5.0] {
            r.histogram_observe("latency_seconds", "latency", &[], &bounds, v);
        }
        assert_eq!(r.histogram_sum_count("latency_seconds", &[]), {
            Some((5e-4 + 5e-3 + 5e-2 + 5.0, 4))
        });
        let text = r.render_prometheus();
        assert!(text.contains("latency_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.01\"} 2\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.1\"} 3\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("latency_seconds_count 4\n"));
    }

    #[test]
    fn prometheus_text_is_deterministic_and_typed() {
        let r = Registry::new();
        r.gauge_set("b_gauge", "second", &[("dev", "s10sx-0")], 0.5);
        r.counter_inc("a_total", "first", &[]);
        let text = r.render_prometheus();
        // Families render sorted by name regardless of insertion order.
        let a = text.find("a_total").unwrap();
        let b = text.find("b_gauge").unwrap();
        assert!(a < b);
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("# TYPE b_gauge gauge"));
        assert!(text.contains("b_gauge{dev=\"s10sx-0\"} 0.5"));
        assert_eq!(text, r.render_prometheus());
    }

    #[test]
    fn json_exposition_parses_and_round_trips_values() {
        let r = Registry::new();
        r.counter_add("served_total", "served", &[("model", "lenet5")], 7.0);
        r.histogram_observe("lat", "lat", &[], &[1.0], 0.5);
        let j = Json::parse(&r.render_json()).expect("valid JSON");
        let fam = j.get("served_total").unwrap();
        assert_eq!(fam.get("kind").unwrap().as_str(), Some("counter"));
        let series = fam.get("series").unwrap().as_array().unwrap();
        assert_eq!(series[0].get("value").unwrap().as_f64(), Some(7.0));
        let hist = j
            .get("lat")
            .unwrap()
            .get("series")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(hist[0].get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflicts_are_programming_errors() {
        let r = Registry::new();
        r.counter_inc("m", "m", &[]);
        r.gauge_set("m", "m", &[], 1.0);
    }

    #[test]
    fn non_finite_observations_never_reach_the_exposition() {
        let r = Registry::new();
        r.histogram_observe("lat_seconds", "lat", &[], &[1.0], f64::NAN);
        r.histogram_observe("lat_seconds", "lat", &[], &[1.0], f64::INFINITY);
        r.histogram_observe("lat_seconds", "lat", &[], &[1.0], 0.5);
        assert_eq!(r.histogram_sum_count("lat_seconds", &[]), Some((0.5, 1)));
        r.counter_add("c_total", "c", &[], f64::NAN);
        r.counter_add("c_total", "c", &[], 2.0);
        assert_eq!(r.value("c_total", &[]), Some(2.0));
        let text = r.render_prometheus();
        let json = r.render_json();
        assert!(!text.contains("NaN") && !text.contains("inf"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn zero_sample_quantiles_are_none_not_nan() {
        let r = Registry::new();
        assert_eq!(r.histogram_quantile("missing", &[], 0.5), None);
        // Registered but never observed (e.g. only NaN observations).
        r.histogram_observe("lat_seconds", "lat", &[], &[1e-3, 1e-2], f64::NAN);
        assert_eq!(r.histogram_quantile("lat_seconds", &[], 0.5), None);
        for v in [5e-4, 5e-4, 5e-3] {
            r.histogram_observe("lat_seconds", "lat", &[], &[1e-3, 1e-2], v);
        }
        assert_eq!(r.histogram_quantile("lat_seconds", &[], 0.5), Some(1e-3));
        assert_eq!(r.histogram_quantile("lat_seconds", &[], 1.0), Some(1e-2));
        // Mass in the +Inf bucket reports the finite mean, not infinity.
        r.histogram_observe("lat_seconds", "lat", &[], &[1e-3, 1e-2], 5.0);
        let q = r.histogram_quantile("lat_seconds", &[], 1.0).unwrap();
        assert!(q.is_finite());
    }

    #[test]
    fn prometheus_exposition_is_conformant() {
        let r = Registry::new();
        r.counter_inc("serve_requests_total", "Requests \"served\".", &[]);
        r.gauge_set(
            "serve_depth_count",
            "depth",
            &[("model", "le\"net\n5")],
            2.0,
        );
        r.histogram_observe("serve_lat_seconds", "lat", &[], &[1.0], 0.5);
        let text = r.render_prometheus();
        // Every family gets exactly one HELP and one TYPE line, in order,
        // immediately before its samples.
        for family in [
            "serve_requests_total",
            "serve_depth_count",
            "serve_lat_seconds",
        ] {
            let help = text.find(&format!("# HELP {family} ")).unwrap();
            let typ = text.find(&format!("# TYPE {family} ")).unwrap();
            assert!(help < typ, "{family}: HELP must precede TYPE");
            assert_eq!(text.matches(&format!("# HELP {family} ")).count(), 1);
            assert_eq!(text.matches(&format!("# TYPE {family} ")).count(), 1);
        }
        // Label values escape quotes and newlines per text format 0.0.4.
        assert!(text.contains("model=\"le\\\"net\\n5\""));
        // Histograms expose cumulative buckets with le labels, +Inf last,
        // then _sum and _count.
        let b1 = text.find("serve_lat_seconds_bucket{le=\"1\"} 1").unwrap();
        let binf = text
            .find("serve_lat_seconds_bucket{le=\"+Inf\"} 1")
            .unwrap();
        let sum = text.find("serve_lat_seconds_sum 0.5").unwrap();
        let count = text.find("serve_lat_seconds_count 1").unwrap();
        assert!(b1 < binf && binf < sum && sum < count);
        // Rendering is a pure function of the updates: byte-identical.
        assert_eq!(text, r.render_prometheus());
    }

    #[test]
    fn naming_audit_flags_nonconforming_names() {
        let r = Registry::new();
        r.counter_inc("serve_requests_completed_total", "ok", &[]);
        r.gauge_set("serve_device_utilization_ratio", "ok", &[], 0.5);
        r.histogram_observe("serve_request_latency_seconds", "ok", &[], &[1.0], 0.5);
        assert!(r.audit_names(&["serve_"]).is_empty());
        // One offence per rule.
        r.counter_inc("serve_requests_completed", "no _total", &[]);
        r.gauge_set("serve_queue_depth", "no unit", &[], 1.0);
        r.gauge_set("serve_bad_total", "gauge posing as counter", &[], 1.0);
        r.histogram_observe("serve_batch", "no unit", &[], &[1.0], 0.5);
        r.counter_inc("orphan_requests_total", "no subsystem", &[]);
        let violations = r.audit_names(&["serve_"]);
        assert_eq!(violations.len(), 5, "{violations:#?}");
        for needle in [
            "serve_requests_completed:",
            "serve_queue_depth:",
            "serve_bad_total:",
            "serve_batch:",
            "orphan_requests_total:",
        ] {
            assert!(violations.iter().any(|v| v.starts_with(needle)));
        }
    }
}
