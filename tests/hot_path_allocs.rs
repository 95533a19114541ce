//! Allocation guard for the per-request and per-event hot paths.
//!
//! Once their series, names and buffers exist, metric updates and batch
//! dispatch allocate nothing; a batch simulation allocates a fixed handful
//! of buffers, shares its kernel names with the bitstream, and runs once
//! per deployment and batch size; flight recording allocates nothing from
//! the first event on, and a postmortem snapshot a constant number of
//! times.
//! This binary installs its own counting global allocator and holds exactly
//! one test, so no concurrently running test moves the counter.

use fpgaccel::core::bitstreams::optimized_config;
use fpgaccel::core::Flow;
use fpgaccel::device::FpgaPlatform;
use fpgaccel::serve::loadgen::{open_loop_poisson, with_deadline};
use fpgaccel::serve::{DevicePool, ServeConfig, Server};
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{FlightData, FlightRecorder, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Heap allocations (and reallocations) since process start.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

fn metric_updates_on_existing_series_allocate_nothing() {
    const BOUNDS: &[f64] = &[1e-3, 1e-2, 1e-1];
    let r = Registry::new();
    let label_sets: [&[(&str, &str)]; 4] = [
        &[],
        &[("model", "lenet5")],
        &[("model", "lenet5"), ("reason", "deadline")],
        &[("reason", "deadline"), ("model", "lenet5")],
    ];
    let update = |k: usize| {
        let labels = label_sets[k % label_sets.len()];
        r.counter_inc("serve_hot_total", "Hot counter.", labels);
        r.gauge_max("serve_hot_requests", "Hot gauge.", labels, k as f64);
        r.histogram_observe("serve_hot_seconds", "Hot histogram.", labels, BOUNDS, 5e-3);
    };
    for k in 0..label_sets.len() {
        update(k);
    }
    let ((), allocs) = counted(|| (0..1000).for_each(update));
    assert_eq!(allocs, 0, "1000 updates of existing series allocated");
    // The two orders of the two-label set are one series.
    let two = [("model", "lenet5"), ("reason", "deadline")];
    assert_eq!(r.value("serve_hot_total", &two), Some(502.0));
}

fn flight_records_allocate_nothing_and_snapshots_a_constant_number() {
    let device: Arc<str> = Arc::from("s10sx-0");
    let record = |flight: &FlightRecorder, id: u64| {
        flight.record(
            id as f64 * 1e-4,
            "serve",
            FlightData::Completion {
                id,
                model: "lenet5",
                batch: 8,
                device: Arc::clone(&device),
                arrival_s: id as f64 * 1e-4 - 1.5e-3,
            },
        );
    };
    // From the first event on: the empty ring fills, then wraps.
    let flight = FlightRecorder::enabled(256);
    let ((), allocs) = counted(|| (0..1256).for_each(|id| record(&flight, id)));
    assert_eq!(allocs, 0, "1256 records from an empty ring on allocated");
    assert_eq!(flight.len(), 256);
    // A snapshot copies the window in one allocation, whatever its size:
    // a rare event's text, here every fourth event's, is shared, not copied.
    let snapshot = |capacity: usize| {
        let flight = FlightRecorder::enabled(capacity);
        for id in 0..capacity as u64 {
            if id % 4 == 0 {
                let text = FlightData::text("reprogram-fail", "s10sx-0", "attempt 1 of 3");
                flight.record(id as f64 * 1e-4, "recovery", text);
            } else {
                record(&flight, id);
            }
        }
        let detail = String::from("lenet5 x8 watchdog fired");
        let (taken, allocs) = counted(|| flight.trigger(1.0, "timeout", "s10sx-0", detail));
        assert!(taken);
        assert_eq!(flight.take_postmortems()[0].events.len(), capacity);
        allocs
    };
    let (small, large) = (snapshot(16), snapshot(4096));
    assert_eq!(
        small, large,
        "a trigger made {small} allocations on a 16-event ring, {large} on a 4096-event one"
    );
    // The subject, the window and the postmortem list.
    assert!(small <= 3, "a trigger made {small} allocations");
}

fn warm_open_loop_serving_allocates_under_one_per_fifty_requests() {
    let config = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let mut template = DevicePool::new();
    for _ in 0..3 {
        let d = template.add_device(FpgaPlatform::Stratix10Sx);
        template
            .deploy(d, Model::LeNet5, &config)
            .expect("LeNet-5 fits");
    }
    // Every run deploys from the template's warm cache, so it neither
    // compiles nor simulates: calibration and batches read the memo of the
    // deployment the template compiled.
    let replica = || {
        let mut pool = DevicePool::with_cache(template.cache().clone());
        for _ in 0..3 {
            let d = pool.add_device(FpgaPlatform::Stratix10Sx);
            pool.deploy(d, Model::LeNet5, &config)
                .expect("cached design");
        }
        pool
    };
    let capacity: f64 = template
        .devices()
        .iter()
        .filter_map(|d| d.latency_model(Model::LeNet5))
        .map(|lm| 1.0 / lm.per_image_s)
        .sum();
    // Past capacity, so requests queue, batch, complete and shed.
    let n = 10_000;
    let trace = || {
        with_deadline(
            open_loop_poisson(7, 1.2 * capacity, n, &[Model::LeNet5]),
            0.05,
        )
    };
    Server::new(replica(), ServeConfig::default()).run_open_loop(trace());
    let (server, requests) = (Server::new(replica(), ServeConfig::default()), trace());
    let (result, allocs) = counted(|| server.run_open_loop(requests));
    assert!(!result.completions.is_empty() && !result.sheds.is_empty());
    // About one batch per ten requests: one allocation per batch would
    // reach 0.1 per request and fail, and so would simulating each batch
    // size again for every pool (0.0234: 234 allocations).
    let per_request = allocs as f64 / n as f64;
    assert!(
        per_request < 0.02,
        "serving made {allocs} allocations for {n} requests ({per_request:.3} each)"
    );
}

fn warm_batch_simulations_allocate_a_fixed_handful() {
    for model in [Model::LeNet5, Model::MobileNetV1] {
        let config = optimized_config(model, FpgaPlatform::Stratix10Sx);
        let d = Flow::new(model, FpgaPlatform::Stratix10Sx)
            .compile(&config)
            .expect("the design fits");
        // The event buffer, the per-kernel maps, the latencies and the
        // returned copies, whatever the event count: a kernel event shares
        // its name with the bitstream instead of copying it (54 and 52
        // allocations when names were interned per simulation and copied
        // into the statistics).
        let warm = d.simulate_batch(16);
        let (stats, allocs) = counted(|| d.simulate_batch(16));
        assert_eq!(stats.seconds, warm.seconds);
        assert!(
            allocs <= 16,
            "{model:?}: simulate_batch(16) made {allocs} allocations"
        );
        // A memoized size is read, not simulated again.
        assert_eq!(d.batch_seconds(16).to_bits(), warm.seconds.to_bits());
        let (seconds, allocs) = counted(|| d.batch_seconds(16));
        assert_eq!(seconds.to_bits(), warm.seconds.to_bits());
        assert_eq!(
            allocs, 0,
            "{model:?}: a repeated batch_seconds(16) allocated"
        );
    }
}

#[test]
fn hot_paths_allocate_only_for_new_series_names_and_buffers() {
    metric_updates_on_existing_series_allocate_nothing();
    flight_records_allocate_nothing_and_snapshots_a_constant_number();
    warm_open_loop_serving_allocates_under_one_per_fifty_requests();
    warm_batch_simulations_allocate_a_fixed_handful();
}
