//! Chrome trace-event JSON export.
//!
//! The output is the "JSON object format" of the Trace Event spec: a
//! top-level object with a `traceEvents` array of metadata (`ph:"M"`) and
//! complete (`ph:"X"`) events, timestamps in microseconds. Load it in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use crate::json::Json;
use crate::tracer::Tracer;

/// Serializes everything a [`Tracer`] recorded as Chrome trace-event JSON.
///
/// A disabled tracer yields a valid trace with an empty `traceEvents`
/// array.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    let meta = |kind: &str, pid: u32, tid: u32, name: &str| {
        Json::obj([
            ("ph", "M".into()),
            ("name", kind.into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("args", Json::obj([("name", name.into())])),
        ])
    };
    let mut events = Vec::new();
    tracer.with_inner(|i| {
        for (pid, name) in &i.process_names {
            events.push(meta("process_name", *pid, 0, name));
        }
        for (pid, tid, name) in &i.thread_names {
            events.push(meta("thread_name", *pid, *tid, name));
        }
        for e in &i.events {
            let args = (!e.args.is_empty()).then(|| {
                let args = e.args.iter().map(|(k, v)| (k.clone(), v.as_str().into()));
                ("args", Json::Obj(args.collect()))
            });
            let span = [
                ("ph", "X".into()),
                ("name", e.name.as_str().into()),
                ("cat", e.cat.as_str().into()),
                ("pid", e.pid.into()),
                ("tid", e.tid.into()),
                ("ts", e.ts_us.into()),
                ("dur", e.dur_us.into()),
            ];
            events.push(Json::obj(span.into_iter().chain(args)));
        }
    });
    Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn export_round_trips_through_the_json_parser() {
        let t = Tracer::enabled();
        let pid = t.alloc_pid("s10sx");
        t.set_thread_name(pid, 0, "queue 0");
        t.span_args(
            pid,
            0,
            "kernel",
            "conv \"a\"\n",
            1e-6,
            3e-6,
            &[("phase", "run".to_string())],
        );
        let j = Json::parse(&chrome_trace_json(&t)).expect("valid JSON");
        let events = j.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3); // process_name, thread_name, span
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").unwrap().as_str(), Some("conv \"a\"\n"));
        assert!((span.get("ts").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-9);
        assert!((span.get("dur").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(
            span.get("args").unwrap().get("phase").unwrap().as_str(),
            Some("run")
        );
    }

    #[test]
    fn disabled_tracer_exports_an_empty_trace() {
        let j = Json::parse(&chrome_trace_json(&Tracer::disabled())).unwrap();
        assert_eq!(
            j.get("traceEvents").unwrap().as_array().unwrap().len(),
            0,
            "no events expected"
        );
    }

    #[test]
    fn non_finite_numbers_never_reach_the_output() {
        let t = Tracer::enabled();
        t.span(0, 0, "kernel", "nan", f64::NAN, f64::INFINITY);
        let text = chrome_trace_json(&t);
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let j = Json::parse(&text).expect("valid JSON");
        let span = &j.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(0.0));
    }
}
