//! The `chaos` experiment: the serving stack under a committed fault
//! schedule.
//!
//! The three-device serve pool runs the co-served LeNet+MobileNet mix
//! while a seeded [`FaultPlan`] hangs devices, fails reprograms, stalls
//! and corrupts transfers and flakes a synthesis. The committed schedule
//! loses one of the three devices mid-run; the report shows the fault
//! table, the recovery log (quarantine → reprogram → return, loss →
//! redistribution), end-of-run device health, the degradation relative to
//! a fault-free baseline, and a seeded random sweep. Everything is
//! simulated, so the whole report — fault schedule included — reproduces
//! byte for byte.
//!
//! Environment knobs: `FPGACCEL_CHAOS_BUDGET` sets the number of random
//! fault plans in the sweep (default 6); `FPGACCEL_CHAOS_REPORT` names a
//! JSON file to write the machine-readable recovery summary to (for CI);
//! `FPGACCEL_CHAOS_POSTMORTEM` names a JSON file to write the anomaly
//! flight recorder's postmortem snapshots of the committed run to.

use crate::serving::{build_pool_injected, deadline_free_trace};
use crate::table::Table;
use fpgaccel_fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSpec};
use fpgaccel_serve::{AdmissionPolicy, RunResult, ServeConfig, Server};
use fpgaccel_trace::json::Json;
use fpgaccel_trace::{FlightRecorder, Tracer};

/// Seed recorded on the committed plan (the schedule itself is
/// hand-written, not generated, so the seed is provenance only).
const CHAOS_SEED: u64 = 0xC4A05;
/// Seed for the random-plan sweep.
const SWEEP_SEED: u64 = 0x5EED;

/// Random plans in the sweep (`FPGACCEL_CHAOS_BUDGET`, default 6).
pub fn sweep_budget() -> usize {
    std::env::var("FPGACCEL_CHAOS_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// The committed chaos schedule: one recoverable hang, one device loss,
/// a transfer stall, a read-back corruption and a synthesis flake.
pub fn committed_plan() -> FaultPlan {
    let ev = |at_s: f64, target: &str, kind: FaultKind| FaultEvent {
        at_s,
        target: target.into(),
        kind,
    };
    let mut events = vec![
        ev(0.0, "*", FaultKind::SynthFlake),
        ev(0.06, "s10sx-0", FaultKind::DeviceHang),
        ev(0.10, "s10mx-0", FaultKind::DeviceHang),
        ev(
            0.15,
            "a10-0",
            FaultKind::TransferStall {
                factor: 4.0,
                for_s: 0.05,
            },
        ),
        ev(0.25, "s10sx-0", FaultKind::TransferCorrupt),
    ];
    // Three reprogram failures: every repair attempt on s10mx-0 fails and
    // the device is lost for the rest of the run.
    for _ in 0..3 {
        events.push(ev(0.10, "s10mx-0", FaultKind::ReprogramFail));
    }
    FaultPlan::new(CHAOS_SEED, events)
}

/// Offered load relative to full-pool capacity. Chaos runs with headroom:
/// losing one of three devices must leave the survivors able to absorb
/// well over the 60% graceful-degradation floor, so the experiment
/// measures fault handling rather than raw overload shedding.
const CHAOS_LOAD: f64 = 0.75;

fn run_with(plan: Option<FaultPlan>, tracer: &Tracer) -> (usize, RunResult) {
    run_with_flight(plan, tracer, &FlightRecorder::disabled())
}

/// Runs the chaos workload under `plan` (fault-free for `None`) with an
/// anomaly flight recorder attached: device hangs, quarantines and losses
/// trigger bounded postmortem snapshots that come back on
/// [`RunResult::postmortems`]. Returns the offered request count and the
/// run.
pub fn run_with_flight(
    plan: Option<FaultPlan>,
    tracer: &Tracer,
    flight: &FlightRecorder,
) -> (usize, RunResult) {
    let injector = match plan {
        Some(p) => FaultInjector::new(p),
        None => FaultInjector::disabled(),
    };
    let pool = build_pool_injected(&Tracer::disabled(), &injector);
    // Deadline-free: chaos measures pure completion under faults.
    let trace = deadline_free_trace(&pool, CHAOS_LOAD);
    let offered = trace.len();
    let result = Server::new(
        pool,
        ServeConfig {
            // Deep queue: redistribution bursts after a device loss queue
            // up instead of shedding; deadline-free requests drain late.
            admission: AdmissionPolicy {
                queue_capacity: 256,
                default_deadline_s: None,
            },
            ..ServeConfig::default()
        },
    )
    .with_tracer(tracer)
    .with_flight_recorder(flight)
    .run_open_loop(trace);
    (offered, result)
}

fn outcome_row(t: &mut Table, label: &str, offered: usize, r: &RunResult) {
    t.row(&[
        label.to_string(),
        offered.to_string(),
        r.metrics.completed.to_string(),
        r.metrics.shed().to_string(),
        r.failures.len().to_string(),
        r.metrics.retried.to_string(),
        format!(
            "{:.1}%",
            100.0 * r.metrics.completed as f64 / offered as f64
        ),
        format!("{:.2}", r.metrics.latency.quantile(0.99) * 1e3),
    ]);
}

/// A stable single-line digest of a run, used for the determinism check.
fn digest(offered: usize, r: &RunResult) -> String {
    let recovery: Vec<String> = r
        .recovery
        .iter()
        .map(|e| format!("{:.9}:{}:{}", e.t_s, e.subject, e.action))
        .collect();
    format!(
        "offered={offered} completed={} shed={} failed={} retried={} recovery=[{}]",
        r.metrics.completed,
        r.metrics.shed(),
        r.failures.len(),
        r.metrics.retried,
        recovery.join(",")
    )
}

/// The machine-readable recovery summary written to
/// `FPGACCEL_CHAOS_REPORT` for the CI smoke job.
fn json_report(
    offered: usize,
    r: &RunResult,
    baseline_completed: u64,
    deterministic: bool,
) -> String {
    let recovery = r.recovery.iter().map(|e| {
        Json::obj([
            ("t_s", e.t_s.into()),
            ("subject", e.subject.as_str().into()),
            ("action", e.action.as_str().into()),
            ("detail", e.detail.as_str().into()),
        ])
    });
    let lost = r.recovery.iter().filter(|e| e.action == "lost");
    Json::obj([
        ("seed", CHAOS_SEED.into()),
        ("offered", offered.into()),
        ("completed", r.metrics.completed.into()),
        ("shed", r.metrics.shed().into()),
        ("failed", r.failures.len().into()),
        ("retried", r.metrics.retried.into()),
        (
            "completion_rate",
            (r.metrics.completed as f64 / offered as f64).into(),
        ),
        ("baseline_completed", baseline_completed.into()),
        (
            "devices_lost",
            Json::Arr(lost.map(|e| e.subject.as_str().into()).collect()),
        ),
        ("deterministic", deterministic.into()),
        ("recovery", Json::Arr(recovery.collect())),
    ])
    .render()
}

/// The `chaos` experiment report.
pub fn chaos() -> String {
    let plan = committed_plan();

    // Fault-free baseline on the identical workload.
    let (offered, baseline) = run_with(None, &Tracer::disabled());

    // The committed scenario, traced and flight-recorded, run twice for
    // the determinism check.
    let tracer = Tracer::enabled();
    let flight = FlightRecorder::enabled(64);
    let (_, faulted) = run_with_flight(Some(plan.clone()), &tracer, &flight);
    let (_, second) = run_with(Some(plan.clone()), &Tracer::disabled());
    let deterministic = digest(offered, &faulted) == digest(offered, &second);

    let mut outcome = Table::new(
        "Chaos — committed fault schedule vs fault-free baseline (0.75x load)",
        &[
            "run",
            "offered",
            "completed",
            "shed",
            "failed",
            "retried",
            "completion",
            "p99 ms",
        ],
    );
    outcome_row(&mut outcome, "fault-free", offered, &baseline);
    outcome_row(&mut outcome, "faulted", offered, &faulted);

    let mut recovery = Table::new(
        "Chaos — recovery log (committed schedule)",
        &["t ms", "subject", "action", "detail"],
    );
    for e in &faulted.recovery {
        recovery.row(&[
            format!("{:.3}", e.t_s * 1e3),
            e.subject.clone(),
            e.action.clone(),
            e.detail.clone(),
        ]);
    }

    let mut health = Table::new(
        "Chaos — end-of-run device health",
        &["device", "health", "quarantines", "lost"],
    );
    for name in ["s10sx-0", "s10mx-0", "a10-0"] {
        let h = faulted
            .registry
            .value("serve_device_health_state", &[("device", name)]);
        let q = faulted
            .registry
            .value("serve_device_quarantines_total", &[("device", name)])
            .unwrap_or(0.0);
        let lost = faulted
            .registry
            .value("serve_devices_lost_total", &[("device", name)])
            .unwrap_or(0.0);
        health.row(&[
            name.to_string(),
            match h {
                Some(v) if v >= 1.0 => "healthy".into(),
                Some(v) if v > 0.0 => "quarantined".into(),
                Some(_) => "lost".into(),
                None => "?".into(),
            },
            format!("{q:.0}"),
            format!("{lost:.0}"),
        ]);
    }

    // Recovery machinery visible in the trace export.
    let spans = tracer.events();
    let span_count = |cat: &str| spans.iter().filter(|e| e.cat == cat).count();
    let span_line = format!(
        "Trace: {} fault, {} reprogram, {} quarantine, {} redistribute, {} retry span(s).",
        span_count("fault"),
        span_count("reprogram"),
        span_count("quarantine"),
        span_count("redistribute"),
        span_count("retry"),
    );

    // Seeded random sweep: generated plans of growing size, each run
    // checked for the accounting invariant (nothing vanishes).
    let mut sweep = Table::new(
        "Chaos — seeded random fault plans (accounting: nothing vanishes)",
        &[
            "seed",
            "faults",
            "offered",
            "completed",
            "shed",
            "failed",
            "completion",
            "lost devices",
        ],
    );
    for i in 0..sweep_budget() {
        let seed = SWEEP_SEED + i as u64;
        let spec = FaultSpec::budget(3 + i, &["s10sx-0", "s10mx-0", "a10-0"], 0.3);
        let p = FaultPlan::generate(seed, &spec);
        let faults = p.len();
        let (n, r) = run_with(Some(p), &Tracer::disabled());
        assert_eq!(
            r.metrics.completed as usize + r.metrics.shed() as usize + r.failures.len(),
            n,
            "chaos sweep seed {seed}: requests vanished"
        );
        let lost = r
            .recovery
            .iter()
            .filter(|e| e.action == "lost")
            .map(|e| e.subject.as_str())
            .collect::<Vec<_>>();
        sweep.row(&[
            format!("{seed:#x}"),
            faults.to_string(),
            n.to_string(),
            r.metrics.completed.to_string(),
            r.metrics.shed().to_string(),
            r.failures.len().to_string(),
            format!("{:.1}%", 100.0 * r.metrics.completed as f64 / n as f64),
            if lost.is_empty() {
                "-".into()
            } else {
                lost.join(" ")
            },
        ]);
    }

    if let Ok(path) = std::env::var("FPGACCEL_CHAOS_REPORT") {
        std::fs::write(
            &path,
            json_report(offered, &faulted, baseline.metrics.completed, deterministic),
        )
        .expect("chaos report artifact writes");
    }
    if let Ok(path) = std::env::var("FPGACCEL_CHAOS_POSTMORTEM") {
        let pms = faulted.postmortems.iter().map(Json::from).collect();
        std::fs::write(&path, Json::Arr(pms).render()).expect("chaos postmortem artifact writes");
    }

    format!(
        "Chaos — committed fault schedule (seed {CHAOS_SEED:#x})\n{}\n{}\n{}\n{}\n{span_line}\n\
         Committed scenario: s10mx-0 is lost mid-run (3/3 reprograms fail) yet the pool \
         completes {:.1}% of the offered load ({} synth flake(s) absorbed at deploy).\n\
         Determinism: two runs of the committed schedule are {} (same seed => same faults \
         => same recovery log, byte for byte).\n{}",
        plan.render(),
        outcome.render(),
        recovery.render(),
        health.render(),
        100.0 * faulted.metrics.completed as f64 / offered as f64,
        faulted
            .registry
            .value("serve_synth_flakes_total", &[])
            .unwrap_or(0.0),
        if deterministic {
            "identical"
        } else {
            "DIVERGENT"
        },
        sweep.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_schedule_loses_one_device_but_serves_most_of_the_load() {
        let (offered, r) = run_with(Some(committed_plan()), &Tracer::disabled());
        let lost: Vec<&str> = r
            .recovery
            .iter()
            .filter(|e| e.action == "lost")
            .map(|e| e.subject.as_str())
            .collect();
        assert_eq!(lost, ["s10mx-0"], "exactly one device is lost");
        assert!(
            r.metrics.completed as f64 >= 0.6 * offered as f64,
            "completed {}/{offered} — graceful degradation floor is 60%",
            r.metrics.completed
        );
        assert_eq!(
            r.metrics.completed as usize + r.metrics.shed() as usize + r.failures.len(),
            offered
        );
    }

    #[test]
    fn committed_schedule_recovery_is_traced() {
        let tracer = Tracer::enabled();
        let (_, r) = run_with(Some(committed_plan()), &tracer);
        let spans = tracer.events();
        for cat in ["quarantine", "reprogram", "redistribute", "fault"] {
            assert!(
                spans.iter().any(|e| e.cat == cat),
                "missing {cat} span in the chaos trace"
            );
        }
        // s10sx-0 recovers; the recovery log shows the full arc.
        let actions: Vec<&str> = r.recovery.iter().map(|e| e.action.as_str()).collect();
        for a in [
            "hang-detected",
            "reprogram-ok",
            "returned",
            "lost",
            "redistributed",
        ] {
            assert!(actions.contains(&a), "missing {a} in recovery log");
        }
    }

    #[test]
    fn chaos_report_is_deterministic() {
        assert_eq!(chaos(), chaos());
    }

    #[test]
    fn device_loss_produces_a_postmortem_reconstructing_the_incident() {
        let flight = FlightRecorder::enabled(64);
        let (_, r) = run_with_flight(Some(committed_plan()), &Tracer::disabled(), &flight);
        // The committed schedule loses s10mx-0: the recorder must hold a
        // device-lost snapshot whose window reconstructs the arc from
        // hang detection through the failed repair attempts to the loss.
        let pm = r
            .postmortems
            .iter()
            .find(|p| p.trigger == "device-lost" && p.subject == "s10mx-0")
            .expect("device loss triggers a postmortem");
        let kinds: Vec<&str> = pm.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"hang-detected"), "window shows the hang");
        assert!(
            kinds.contains(&"reprogram-fail"),
            "window shows the failed repairs"
        );
        assert!(
            pm.events.windows(2).all(|w| w[0].t_s <= w[1].t_s),
            "window is chronological"
        );
        assert!(
            pm.events.iter().all(|e| e.t_s <= pm.t_s),
            "window precedes the trigger"
        );
        // The snapshot renders as parseable, self-contained JSON.
        let j = Json::parse(&pm.to_json()).expect("postmortem JSON parses");
        assert_eq!(
            j.get("trigger")
                .and_then(|t| t.get("kind"))
                .and_then(|k| k.as_str()),
            Some("device-lost")
        );
        // Determinism: the same schedule reproduces the same snapshots.
        let flight2 = FlightRecorder::enabled(64);
        let (_, r2) = run_with_flight(Some(committed_plan()), &Tracer::disabled(), &flight2);
        let render = |res: &RunResult| {
            res.postmortems
                .iter()
                .map(|p| p.to_json())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&r), render(&r2));
    }

    /// Nightly-lane soak: a wide seeded sweep of generated fault plans.
    #[test]
    #[ignore = "seeded soak for the nightly lane"]
    fn soak_generated_plans_preserve_accounting() {
        for seed in 0..16u64 {
            let spec = FaultSpec::budget(
                4 + (seed % 7) as usize,
                &["s10sx-0", "s10mx-0", "a10-0"],
                0.3,
            );
            let (n, r) = run_with(Some(FaultPlan::generate(seed, &spec)), &Tracer::disabled());
            assert_eq!(
                r.metrics.completed as usize + r.metrics.shed() as usize + r.failures.len(),
                n,
                "seed {seed}: requests vanished"
            );
        }
    }
}
