//! The anomaly flight recorder: a bounded ring of recent operational
//! events that snapshots into a postmortem when something goes wrong.
//!
//! Serving runs emit thousands of routine events (completions, sheds,
//! health transitions); keeping them all would unbounded-grow a
//! long-lived process, but throwing them away leaves an incident with no
//! context. The [`FlightRecorder`] keeps only the newest `capacity`
//! events — like an aircraft flight recorder's loop tape — and on a
//! *trigger* (batch timeout, device quarantine/loss, rollout rollback,
//! SLO burn-rate breach) freezes the ring into a [`Postmortem`]: the
//! trigger plus the chronological event window leading up to it,
//! serializable as a self-contained JSON file.
//!
//! Like [`Tracer`](crate::Tracer), the recorder is a cheap cloneable
//! handle and the disabled variant costs one branch per call. All
//! timestamps are caller-supplied simulated seconds, so postmortems of
//! simulated incidents reproduce byte for byte.

use crate::json::Json;
use std::collections::VecDeque;
use std::fmt::{Display, Write};
use std::sync::{Arc, Mutex};

/// Postmortems retained per recorder; later triggers only count drops.
/// An incident cascade (a lost device timing out many batches) should
/// keep the first few full snapshots, not OOM on hundreds.
const MAX_POSTMORTEMS: usize = 8;

/// One entry of the flight ring.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightEvent {
    /// When, simulated seconds.
    pub t_s: f64,
    /// Emitting lane (e.g. `serve`, `rollout`, `slo`).
    pub lane: String,
    /// Event kind (e.g. `completion`, `shed`, `hang-detected`, `lost`).
    pub kind: String,
    /// Who it happened to (a device name, model name, or `req <id>`).
    pub subject: String,
    /// Free-form context.
    pub detail: String,
}

/// A frozen incident snapshot: the trigger plus the event window that
/// led up to it, in recording order.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Trigger time, simulated seconds.
    pub t_s: f64,
    /// What fired the snapshot: `timeout`, `quarantine`, `device-lost`,
    /// `rollback` or `slo-breach`.
    pub trigger: String,
    /// The triggering subject (device, model, ...).
    pub subject: String,
    /// Free-form trigger context.
    pub detail: String,
    /// Events that aged out of the ring before the trigger (how much of
    /// the run's history the window does *not* cover).
    pub dropped: u64,
    /// The retained event window, oldest first.
    pub events: Vec<FlightEvent>,
}

impl Postmortem {
    /// Renders the postmortem as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        Json::from(self).render()
    }
}

impl From<&Postmortem> for Json {
    fn from(pm: &Postmortem) -> Json {
        let events = pm.events.iter().map(|e| {
            Json::obj([
                ("t_s", e.t_s.into()),
                ("lane", e.lane.as_str().into()),
                ("kind", e.kind.as_str().into()),
                ("subject", e.subject.as_str().into()),
                ("detail", e.detail.as_str().into()),
            ])
        });
        Json::obj([
            ("schema_version", 1u64.into()),
            (
                "trigger",
                Json::obj([
                    ("t_s", pm.t_s.into()),
                    ("kind", pm.trigger.as_str().into()),
                    ("subject", pm.subject.as_str().into()),
                    ("detail", pm.detail.as_str().into()),
                ]),
            ),
            ("dropped", pm.dropped.into()),
            ("events", Json::Arr(events.collect())),
        ])
    }
}

#[derive(Default)]
struct FlightInner {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
    postmortems: Vec<Postmortem>,
    /// Triggers past [`MAX_POSTMORTEMS`] (counted, not snapshotted).
    suppressed: u64,
}

/// A bounded ring of recent operational events with trigger-driven
/// postmortem snapshots. Clones share the same ring.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<FlightInner>>>,
}

impl FlightRecorder {
    /// A recording flight recorder retaining the newest `capacity` events.
    pub fn enabled(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(FlightInner {
                capacity: capacity.max(1),
                ..FlightInner::default()
            }))),
        }
    }

    /// A no-op recorder: every call is a single branch.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// Whether events are being retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut FlightInner) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().expect("flight recorder poisoned")))
    }

    /// Appends an event to the ring, evicting the oldest past capacity.
    /// Subject and detail are rendered straight into the event's buffers;
    /// once the ring is full, the evicted event's buffers are reused, so a
    /// full ring records without allocating.
    pub fn record(
        &self,
        t_s: f64,
        lane: &str,
        kind: &str,
        subject: impl Display,
        detail: impl Display,
    ) {
        fn set(buf: &mut String, text: impl Display) {
            buf.clear();
            write!(buf, "{text}").expect("writing to a String cannot fail");
        }
        self.with_inner(|i| {
            let mut ev = if i.ring.len() == i.capacity {
                i.dropped += 1;
                i.ring.pop_front().expect("a full ring has an oldest event")
            } else {
                FlightEvent::default()
            };
            ev.t_s = t_s;
            set(&mut ev.lane, lane);
            set(&mut ev.kind, kind);
            set(&mut ev.subject, subject);
            set(&mut ev.detail, detail);
            i.ring.push_back(ev);
        });
    }

    /// Freezes the current ring into a [`Postmortem`]. Returns whether a
    /// snapshot was taken (`false` when disabled or past the per-run
    /// postmortem cap — the trigger is still counted).
    pub fn trigger(&self, t_s: f64, kind: &str, subject: &str, detail: &str) -> bool {
        self.with_inner(|i| {
            if i.postmortems.len() >= MAX_POSTMORTEMS {
                i.suppressed += 1;
                return false;
            }
            i.postmortems.push(Postmortem {
                t_s,
                trigger: kind.to_string(),
                subject: subject.to_string(),
                detail: detail.to_string(),
                dropped: i.dropped,
                events: i.ring.iter().cloned().collect(),
            });
            true
        })
        .unwrap_or(false)
    }

    /// Snapshots taken so far, in trigger order.
    pub fn postmortems(&self) -> Vec<Postmortem> {
        self.with_inner(|i| i.postmortems.clone())
            .unwrap_or_default()
    }

    /// Triggers suppressed past the postmortem cap.
    pub fn suppressed(&self) -> u64 {
        self.with_inner(|i| i.suppressed).unwrap_or(0)
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.with_inner(|i| i.ring.len()).unwrap_or(0)
    }

    /// Whether the ring is empty (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_recorder_records_and_triggers_nothing() {
        let f = FlightRecorder::disabled();
        f.record(0.0, "serve", "completion", "req 1", "");
        assert!(!f.trigger(1.0, "timeout", "dev", ""));
        assert!(!f.is_enabled());
        assert!(f.is_empty());
        assert!(f.postmortems().is_empty());
    }

    #[test]
    fn ring_keeps_only_the_newest_events_and_counts_drops() {
        let f = FlightRecorder::enabled(3);
        for i in 0..5 {
            f.record(i as f64, "serve", "completion", format_args!("req {i}"), "");
        }
        assert_eq!(f.len(), 3);
        f.trigger(5.0, "timeout", "s10sx-0", "batch hung");
        let pm = &f.postmortems()[0];
        assert_eq!(pm.dropped, 2);
        assert_eq!(
            pm.events.iter().map(|e| e.t_s).collect::<Vec<_>>(),
            [2.0, 3.0, 4.0]
        );
        assert_eq!(pm.trigger, "timeout");
    }

    #[test]
    fn postmortems_are_capped_but_triggers_counted() {
        let f = FlightRecorder::enabled(4);
        f.record(0.0, "serve", "shed", "req 0", "");
        for k in 0..(MAX_POSTMORTEMS + 3) {
            f.trigger(k as f64, "timeout", "dev", "");
        }
        assert_eq!(f.postmortems().len(), MAX_POSTMORTEMS);
        assert_eq!(f.suppressed(), 3);
    }

    #[test]
    fn postmortem_json_parses_and_reconstructs_the_timeline() {
        let f = FlightRecorder::enabled(8);
        f.record(0.1, "serve", "completion", "req 1", "device \"s10sx-0\"");
        f.record(0.2, "serve", "hang-detected", "s10sx-0", "watchdog\nfired");
        f.trigger(0.25, "quarantine", "s10sx-0", "reprogramming");
        let j = Json::parse(&f.postmortems()[0].to_json()).expect("valid JSON");
        assert_eq!(j.get("schema_version").unwrap().as_f64(), Some(1.0));
        let trig = j.get("trigger").unwrap();
        assert_eq!(trig.get("kind").unwrap().as_str(), Some("quarantine"));
        let events = j.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Chronological order survives the round trip.
        assert!(events[0].get("t_s").unwrap().as_f64() < events[1].get("t_s").unwrap().as_f64());
        assert_eq!(
            events[1].get("kind").unwrap().as_str(),
            Some("hang-detected")
        );
    }

    #[test]
    fn clones_share_the_ring() {
        let f = FlightRecorder::enabled(4);
        let g = f.clone();
        g.record(1.0, "slo", "alert", "lenet5", "");
        assert_eq!(f.len(), 1);
    }
}
