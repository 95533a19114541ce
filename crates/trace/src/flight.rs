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
//! Like the OpenCL runtime, which keeps each kernel's completion event and
//! reads its timestamps after the run, the recorder stores raw fields and
//! renders text late. A per-request event (completion, shed, retry) is a
//! fixed-size [`FlightEvent`] holding its request id, model, batch size,
//! device, times, shed reason or attempt; the ring that holds them is
//! allocated once, by [`FlightRecorder::enabled`], so recording neither
//! formats nor allocates. Subject and detail text is rendered only when a
//! postmortem is read or serialized. Rare events (recovery actions,
//! rollout steps) keep their own text, shared by every snapshot holding
//! them, so a snapshot copies the ring with one allocation.
//!
//! Like [`Tracer`](crate::Tracer), the recorder is a cheap cloneable
//! handle and the disabled variant costs one branch per call. All
//! timestamps are caller-supplied simulated seconds, so postmortems of
//! simulated incidents reproduce byte for byte.

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Postmortems held per recorder; later triggers only count drops.
/// An incident cascade (a lost device timing out many batches) should
/// keep the first few full snapshots, not OOM on hundreds.
const MAX_POSTMORTEMS: usize = 8;

/// What one flight event records: the raw fields of a per-request event,
/// or the text of a rare one.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightData {
    /// A request served in a batch of `batch` on `device`, arrived at
    /// `arrival_s`; the event's time is its completion.
    Completion {
        /// Request id.
        id: u64,
        /// Model name.
        model: &'static str,
        /// Requests in the batch.
        batch: usize,
        /// Device that ran the batch.
        device: Arc<str>,
        /// Arrival time, simulated seconds.
        arrival_s: f64,
    },
    /// A request shed by admission or a lost pool.
    Shed {
        /// Request id.
        id: u64,
        /// Model name.
        model: &'static str,
        /// Why: `queue-full`, `deadline` or `unserved`.
        reason: &'static str,
    },
    /// A request re-enqueued after its batch faulted.
    Retry {
        /// Request id.
        id: u64,
        /// Model name.
        model: &'static str,
        /// The execution attempt it waits for.
        attempt: u32,
    },
    /// A rare event's own text: a recovery action or a rollout step.
    Text(Arc<EventText>),
}

/// The text of a rare flight event.
#[derive(Debug, PartialEq)]
pub struct EventText {
    /// Event kind (e.g. `hang-detected`, `lost`, `wave-start`).
    pub kind: String,
    /// Who it happened to (a device or model name).
    pub subject: String,
    /// Free-form context.
    pub detail: String,
}

impl FlightData {
    /// A rare event's text.
    pub fn text(kind: &str, subject: &str, detail: &str) -> FlightData {
        FlightData::Text(Arc::new(EventText {
            kind: kind.to_owned(),
            subject: subject.to_owned(),
            detail: detail.to_owned(),
        }))
    }
}

/// One entry of the flight ring.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// When, simulated seconds.
    pub t_s: f64,
    /// Emitting lane (e.g. `serve`, `rollout`, `recovery`).
    pub lane: &'static str,
    /// What happened.
    pub data: FlightData,
}

impl FlightEvent {
    /// Event kind: `completion`, `shed`, `retry`, or a rare event's own.
    pub fn kind(&self) -> &str {
        match &self.data {
            FlightData::Completion { .. } => "completion",
            FlightData::Shed { .. } => "shed",
            FlightData::Retry { .. } => "retry",
            FlightData::Text(t) => &t.kind,
        }
    }

    /// Who it happened to: `req <id>` for a per-request event.
    pub fn subject(&self) -> String {
        match &self.data {
            FlightData::Completion { id, .. }
            | FlightData::Shed { id, .. }
            | FlightData::Retry { id, .. } => format!("req {id}"),
            FlightData::Text(t) => t.subject.clone(),
        }
    }

    /// Free-form context, rendered from the raw fields.
    pub fn detail(&self) -> String {
        match &self.data {
            FlightData::Completion {
                model,
                batch,
                device,
                arrival_s,
                ..
            } => format!(
                "{model} x{batch} on {device}, latency {:.3} ms",
                (self.t_s - arrival_s) * 1e3
            ),
            FlightData::Shed { model, reason, .. } => format!("{model} ({reason})"),
            FlightData::Retry { model, attempt, .. } => format!("{model} attempt {attempt}"),
            FlightData::Text(t) => t.detail.clone(),
        }
    }
}

/// A frozen incident snapshot: the trigger plus the event window that
/// led up to it, in recording order.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Trigger time, simulated seconds.
    pub t_s: f64,
    /// What fired the snapshot: `timeout`, `quarantine`, `device-lost`,
    /// `rollback` or `slo-breach`.
    pub trigger: &'static str,
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
                ("lane", e.lane.into()),
                ("kind", e.kind().into()),
                ("subject", e.subject().into()),
                ("detail", e.detail().into()),
            ])
        });
        Json::obj([
            ("schema_version", 1u64.into()),
            (
                "trigger",
                Json::obj([
                    ("t_s", pm.t_s.into()),
                    ("kind", pm.trigger.into()),
                    ("subject", pm.subject.as_str().into()),
                    ("detail", pm.detail.as_str().into()),
                ]),
            ),
            ("dropped", pm.dropped.into()),
            ("events", Json::Arr(events.collect())),
        ])
    }
}

struct FlightInner {
    capacity: usize,
    /// Allocated at `capacity` once; never grows.
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
    /// A recording flight recorder retaining the newest `capacity` events;
    /// allocates its ring here, once.
    pub fn enabled(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(FlightInner {
                capacity,
                ring: VecDeque::with_capacity(capacity),
                dropped: 0,
                postmortems: Vec::new(),
                suppressed: 0,
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
    /// Stores the raw fields as given: it neither formats nor allocates.
    pub fn record(&self, t_s: f64, lane: &'static str, data: FlightData) {
        self.with_inner(|i| {
            if i.ring.len() == i.capacity {
                i.dropped += 1;
                i.ring.pop_front();
            }
            i.ring.push_back(FlightEvent { t_s, lane, data });
        });
    }

    /// Freezes the current ring into a [`Postmortem`]: the window is
    /// copied with one allocation, whatever the ring's capacity. Returns
    /// whether a snapshot was taken (`false` when disabled or past the
    /// postmortem cap — the trigger is still counted).
    pub fn trigger(
        &self,
        t_s: f64,
        kind: &'static str,
        subject: &str,
        detail: impl Into<String>,
    ) -> bool {
        self.with_inner(|i| {
            if i.postmortems.len() >= MAX_POSTMORTEMS {
                i.suppressed += 1;
                return false;
            }
            i.postmortems.push(Postmortem {
                t_s,
                trigger: kind,
                subject: subject.to_owned(),
                detail: detail.into(),
                dropped: i.dropped,
                events: i.ring.iter().cloned().collect(),
            });
            true
        })
        .unwrap_or(false)
    }

    /// Moves the snapshots held out of the recorder, in trigger order;
    /// later triggers may snapshot again, up to the cap.
    pub fn take_postmortems(&self) -> Vec<Postmortem> {
        self.with_inner(|i| std::mem::take(&mut i.postmortems))
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

    fn shed(id: u64) -> FlightData {
        FlightData::Shed {
            id,
            model: "lenet5",
            reason: "deadline",
        }
    }

    #[test]
    fn disabled_recorder_records_and_triggers_nothing() {
        let f = FlightRecorder::disabled();
        f.record(0.0, "serve", shed(1));
        assert!(!f.trigger(1.0, "timeout", "dev", ""));
        assert!(!f.is_enabled());
        assert!(f.is_empty());
        assert!(f.take_postmortems().is_empty());
    }

    #[test]
    fn ring_keeps_only_the_newest_events_and_counts_drops() {
        let f = FlightRecorder::enabled(3);
        for i in 0..5 {
            f.record(i as f64, "serve", shed(i));
        }
        assert_eq!(f.len(), 3);
        f.trigger(5.0, "timeout", "s10sx-0", "batch hung");
        let pm = &f.take_postmortems()[0];
        assert_eq!(pm.dropped, 2);
        assert_eq!(
            pm.events.iter().map(|e| e.t_s).collect::<Vec<_>>(),
            [2.0, 3.0, 4.0]
        );
        assert_eq!(pm.events[0].subject(), "req 2");
        assert_eq!(pm.trigger, "timeout");
    }

    #[test]
    fn postmortems_are_capped_but_triggers_counted() {
        let f = FlightRecorder::enabled(4);
        f.record(0.0, "serve", shed(0));
        for k in 0..(MAX_POSTMORTEMS + 3) {
            f.trigger(k as f64, "timeout", "dev", "");
        }
        assert_eq!(f.take_postmortems().len(), MAX_POSTMORTEMS);
        assert_eq!(f.suppressed(), 3);
    }

    #[test]
    fn taking_the_postmortems_moves_them_out() {
        let f = FlightRecorder::enabled(4);
        f.record(0.0, "serve", shed(0));
        f.trigger(1.0, "timeout", "dev", "");
        assert_eq!(f.take_postmortems()[0].events.len(), 1);
        assert!(f.take_postmortems().is_empty());
        assert_eq!(f.len(), 1, "the ring stays");
    }

    #[test]
    fn raw_fields_render_the_text_of_each_event_kind() {
        let f = FlightRecorder::enabled(8);
        f.record(
            0.0125,
            "serve",
            FlightData::Completion {
                id: 7,
                model: "lenet5",
                batch: 8,
                device: Arc::from("s10sx-1"),
                arrival_s: 0.01,
            },
        );
        f.record(0.02, "serve", shed(8));
        f.record(
            0.03,
            "serve",
            FlightData::Retry {
                id: 9,
                model: "mobilenet_v1",
                attempt: 2,
            },
        );
        f.record(
            0.04,
            "recovery",
            FlightData::text("lost", "s10sx-1", "3 reprogram attempts failed"),
        );
        f.trigger(0.05, "device-lost", "s10sx-1", String::from("gone"));
        let pm = &f.take_postmortems()[0];
        let text: Vec<(&str, &str, String, String)> = pm
            .events
            .iter()
            .map(|e| (e.lane, e.kind(), e.subject(), e.detail()))
            .collect();
        let want = [
            (
                "serve",
                "completion",
                "req 7",
                "lenet5 x8 on s10sx-1, latency 2.500 ms",
            ),
            ("serve", "shed", "req 8", "lenet5 (deadline)"),
            ("serve", "retry", "req 9", "mobilenet_v1 attempt 2"),
            ("recovery", "lost", "s10sx-1", "3 reprogram attempts failed"),
        ];
        assert_eq!(text.len(), want.len());
        for (got, want) in text.iter().zip(want) {
            assert_eq!((got.0, got.1, got.2.as_str(), got.3.as_str()), want);
        }
    }

    #[test]
    fn postmortem_json_parses_and_reconstructs_the_timeline() {
        let f = FlightRecorder::enabled(8);
        f.record(
            0.1,
            "serve",
            FlightData::text("redistributed", "s10sx-1", "from \"s10sx-0\""),
        );
        f.record(
            0.2,
            "serve",
            FlightData::text("hang-detected", "s10sx-0", "watchdog\nfired"),
        );
        f.trigger(0.25, "quarantine", "s10sx-0", "reprogramming");
        let j = Json::parse(&f.take_postmortems()[0].to_json()).expect("valid JSON");
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
        assert_eq!(
            events[1].get("detail").unwrap().as_str(),
            Some("watchdog\nfired")
        );
    }

    #[test]
    fn clones_share_the_ring() {
        let f = FlightRecorder::enabled(4);
        let g = f.clone();
        g.record(1.0, "slo", FlightData::text("alert", "lenet5", ""));
        assert_eq!(f.len(), 1);
    }
}
