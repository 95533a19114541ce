//! End-to-end tests of the serving subsystem: batching policy boundaries,
//! overload shedding, dispatch balance, and functional equivalence with
//! direct deployment inference.

use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::Flow;
use fpgaccel_device::FpgaPlatform;
use fpgaccel_serve::loadgen::{open_loop_poisson, with_deadline};
use fpgaccel_serve::{
    AdmissionPolicy, BatchPolicy, DevicePool, Request, ServeConfig, Server, ShedReason,
};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::{allclose, data};

fn lenet_pool(devices: usize) -> DevicePool {
    let mut pool = DevicePool::new();
    let cfg = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    for _ in 0..devices {
        let d = pool.add_device(FpgaPlatform::Stratix10Sx);
        pool.deploy(d, Model::LeNet5, &cfg).unwrap();
    }
    pool
}

fn cfg(max_batch: usize, max_wait_s: f64, capacity: usize) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy {
            max_batch,
            max_wait_s,
        },
        admission: AdmissionPolicy {
            queue_capacity: capacity,
            default_deadline_s: None,
        },
        fault: Default::default(),
        brownout: Default::default(),
    }
}

fn req(id: u64, arrival_s: f64) -> Request {
    Request {
        id,
        model: Model::LeNet5,
        arrival_s,
        deadline_s: None,
        input: None,
    }
}

#[test]
fn max_batch_boundary_dispatches_exactly_at_fill() {
    // 4 requests, max_batch 4: one batch, dispatched at the 4th arrival,
    // not at the wait timer.
    let server = Server::new(lenet_pool(1), cfg(4, 10.0, 64));
    let result = server.run_open_loop((0..4).map(|i| req(i, i as f64 * 1e-4)).collect());
    assert_eq!(result.completions.len(), 4);
    assert_eq!(result.metrics.batch_sizes[4], 1);
    assert!(result.completions.iter().all(|c| c.batch_size == 4));
    // Dispatched at the fill arrival (3e-4), far before the 10 s timer.
    assert!(result.completions[0].completion_s < 1.0);
}

#[test]
fn max_wait_boundary_flushes_a_partial_batch() {
    // 2 requests, max_batch 8: the wait timer (5 ms after the oldest
    // arrival) must flush the partial batch.
    let server = Server::new(lenet_pool(1), cfg(8, 5e-3, 64));
    let result = server.run_open_loop(vec![req(0, 0.0), req(1, 1e-3)]);
    assert_eq!(result.completions.len(), 2);
    assert_eq!(result.metrics.batch_sizes[2], 1);
    let c0 = &result.completions[0];
    // Batch executed no earlier than the timer and well before anything
    // else could have triggered it.
    assert!(c0.completion_s >= 5e-3, "completion {}", c0.completion_s);
    assert!(c0.completion_s < 0.1);
}

#[test]
fn one_slow_trickle_still_completes_everything() {
    // Arrivals spaced far beyond max_wait: every request becomes its own
    // batch of 1.
    let server = Server::new(lenet_pool(1), cfg(8, 1e-3, 64));
    let result = server.run_open_loop((0..5).map(|i| req(i, i as f64 * 0.1)).collect());
    assert_eq!(result.completions.len(), 5);
    assert_eq!(result.metrics.batch_sizes[1], 5);
    assert!((result.metrics.mean_batch_size() - 1.0).abs() < 1e-12);
}

#[test]
fn overload_sheds_and_bounds_the_queue() {
    // A burst far beyond one device's capacity with a tiny queue: the
    // excess must shed as QueueFull, and completed + shed must account for
    // every request.
    let n = 400;
    let burst: Vec<Request> = (0..n).map(|i| req(i as u64, i as f64 * 1e-6)).collect();
    let server = Server::new(lenet_pool(1), cfg(8, 1e-3, 16));
    let result = server.run_open_loop(burst);
    assert_eq!(result.completions.len() + result.sheds.len(), n);
    assert!(
        result.metrics.shed_queue_full > 0,
        "queue must overflow under a {n}-request burst"
    );
    assert!(result
        .sheds
        .iter()
        .all(|s| s.reason == ShedReason::QueueFull));
    assert!(result.metrics.peak_queue_depth <= 16);
    assert!(result.metrics.shed_rate() > 0.0 && result.metrics.shed_rate() < 1.0);
}

#[test]
fn hopeless_deadlines_shed_at_dispatch() {
    // Deadlines shorter than a single batch execution: everything sheds
    // with ShedReason::Deadline, and no device time is wasted.
    let trace = with_deadline(
        (0..8).map(|i| req(i, i as f64 * 1e-5)).collect(),
        1e-7, // far below any achievable latency
    );
    let server = Server::new(lenet_pool(1), cfg(8, 1e-3, 64));
    let result = server.run_open_loop(trace);
    assert!(result.completions.is_empty());
    assert_eq!(result.sheds.len(), 8);
    assert!(result
        .sheds
        .iter()
        .all(|s| s.reason == ShedReason::Deadline));
    assert_eq!(result.metrics.shed_rate(), 1.0);
}

#[test]
fn generous_deadlines_all_met() {
    let trace = with_deadline((0..8).map(|i| req(i, i as f64 * 1e-4)).collect(), 10.0);
    let server = Server::new(lenet_pool(1), cfg(4, 1e-3, 64));
    let result = server.run_open_loop(trace);
    assert_eq!(result.completions.len(), 8);
    assert!(result.completions.iter().all(|c| c.latency_s() <= 10.0));
}

#[test]
fn unserved_model_is_rejected_up_front() {
    let server = Server::new(lenet_pool(1), cfg(4, 1e-3, 64));
    let result = server.run_open_loop(vec![Request {
        id: 0,
        model: Model::MobileNetV1,
        arrival_s: 0.0,
        deadline_s: None,
        input: None,
    }]);
    assert!(result.completions.is_empty());
    assert_eq!(result.sheds[0].reason, ShedReason::Unserved);
}

#[test]
fn two_devices_split_a_saturating_load() {
    // Enough load to keep one device busy: the pool must spread batches
    // across both devices.
    let trace = open_loop_poisson(5, 4000.0, 300, &[Model::LeNet5]);
    let server = Server::new(lenet_pool(2), cfg(8, 1e-3, 256));
    let result = server.run_open_loop(trace);
    assert_eq!(result.completions.len(), 300);
    let on_dev0 = result.completions.iter().filter(|c| c.device == 0).count();
    let on_dev1 = 300 - on_dev0;
    assert!(
        on_dev0 > 30 && on_dev1 > 30,
        "imbalanced dispatch: {on_dev0}/{on_dev1}"
    );
}

#[test]
fn serving_runs_are_deterministic() {
    let run = || {
        let trace = open_loop_poisson(42, 2500.0, 200, &[Model::LeNet5]);
        let server = Server::new(lenet_pool(2), cfg(8, 1e-3, 32));
        server.run_open_loop(trace)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.completions.len(), b.completions.len());
    assert_eq!(a.sheds.len(), b.sheds.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.device, y.device);
        assert_eq!(x.completion_s, y.completion_s);
    }
    assert_eq!(
        a.metrics.latency.quantile(0.99),
        b.metrics.latency.quantile(0.99)
    );
}

#[test]
fn closed_loop_serves_every_request() {
    let server = Server::new(lenet_pool(2), cfg(4, 1e-3, 64));
    let result = server.run_closed_loop(Model::LeNet5, 6, 2e-3, 60, 9);
    assert_eq!(result.completions.len() + result.sheds.len(), 60);
    assert!(
        result.sheds.is_empty(),
        "closed loop cannot overflow a 64-queue"
    );
    assert!(result.metrics.throughput_rps() > 0.0);
    // With 6 clients and batch 4, batching must actually form.
    assert!(result.metrics.mean_batch_size() > 1.0);
}

#[test]
fn traced_run_records_spans_and_registry_agrees_with_metrics() {
    let tracer = fpgaccel_trace::Tracer::enabled();
    let mut pool = DevicePool::new();
    pool.set_tracer(&tracer);
    let dcfg = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    for _ in 0..2 {
        let d = pool.add_device(FpgaPlatform::Stratix10Sx);
        pool.deploy(d, Model::LeNet5, &dcfg).unwrap();
    }
    // Second deploy hits the cache: one miss (with compile phases), one hit.
    let deploy_spans = tracer.span_count();
    assert!(deploy_spans >= 2, "deploy phases missing: {deploy_spans}");

    let trace = open_loop_poisson(11, 3000.0, 100, &[Model::LeNet5]);
    let server = Server::new(pool, cfg(8, 1e-3, 16)).with_tracer(&tracer);
    let result = server.run_open_loop(trace);

    let spans = tracer.events();
    let requests = spans.iter().filter(|s| s.cat == "request").count();
    let sheds = spans.iter().filter(|s| s.cat == "shed").count();
    let batches = spans.iter().filter(|s| s.cat == "batch").count();
    assert_eq!(requests, result.completions.len());
    assert_eq!(sheds, result.sheds.len());
    assert_eq!(
        batches as u64,
        result.metrics.batch_sizes.iter().sum::<u64>()
    );

    // The registry agrees with ServiceMetrics.
    let r = &result.registry;
    assert_eq!(
        r.value("serve_requests_completed_total", &[("model", "LeNet-5")]),
        Some(result.metrics.completed as f64)
    );
    let (lat_sum, lat_count) = r
        .histogram_sum_count("serve_request_latency_seconds", &[("model", "LeNet-5")])
        .unwrap();
    assert_eq!(lat_count, result.metrics.completed);
    assert!(lat_sum > 0.0);
    let shed_total: f64 = [("queue-full"), ("deadline"), ("unserved")]
        .iter()
        .filter_map(|reason| {
            r.value(
                "serve_requests_shed_total",
                &[("model", "LeNet-5"), ("reason", reason)],
            )
        })
        .sum();
    assert_eq!(shed_total, result.metrics.shed() as f64);
    assert_eq!(
        r.value("serve_queue_depth_peak_requests", &[("model", "LeNet-5")]),
        Some(result.metrics.peak_queue_depth as f64)
    );
    assert_eq!(r.value("serve_deploy_cache_hits_total", &[]), Some(1.0));
    assert_eq!(r.value("serve_deploy_cache_misses_total", &[]), Some(1.0));
    for dev in ["s10sx-0", "s10sx-1"] {
        let util = r
            .value("serve_device_utilization_ratio", &[("device", dev)])
            .unwrap();
        assert!(
            (0.0..=1.0).contains(&util) && util > 0.0,
            "{dev} utilization {util}"
        );
    }
    // Expositions render and the JSON one parses.
    assert!(r
        .render_prometheus()
        .contains("# TYPE serve_request_latency_seconds histogram"));
    fpgaccel_trace::json::Json::parse(&r.render_json()).expect("valid registry JSON");
}

#[test]
fn untraced_run_records_no_spans() {
    let tracer = fpgaccel_trace::Tracer::disabled();
    let server = Server::new(lenet_pool(1), cfg(4, 1e-3, 64)).with_tracer(&tracer);
    let result = server.run_open_loop((0..8).map(|i| req(i, i as f64 * 1e-4)).collect());
    assert_eq!(result.completions.len(), 8);
    assert_eq!(tracer.span_count(), 0);
}

/// The seeded property test: a shuffled mix of requests through the pool
/// produces exactly the outputs of direct `Deployment::infer` calls.
#[test]
fn pooled_outputs_match_direct_inference() {
    let cfg_s10 = optimized_config(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let cfg_a10 = optimized_config(Model::LeNet5, FpgaPlatform::Arria10Gx);
    let mut pool = DevicePool::new();
    let d0 = pool.add_device(FpgaPlatform::Stratix10Sx);
    let d1 = pool.add_device(FpgaPlatform::Arria10Gx);
    pool.deploy(d0, Model::LeNet5, &cfg_s10).unwrap();
    pool.deploy(d1, Model::LeNet5, &cfg_a10).unwrap();
    let direct = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx)
        .compile(&cfg_s10)
        .unwrap();

    let n = 24;
    let inputs: Vec<_> = (0..n)
        .map(|i| data::synthetic_digit(i % 10, i as u64))
        .collect();
    let requests: Vec<Request> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| Request {
            id: i as u64,
            model: Model::LeNet5,
            arrival_s: i as f64 * 2e-4,
            deadline_s: None,
            input: Some(Box::new(x.clone())),
        })
        .collect();
    let server = Server::new(pool, cfg(4, 1e-3, 64));
    let result = server.run_open_loop(requests);
    assert_eq!(result.completions.len(), n);

    for c in &result.completions {
        let expect = direct.infer(&inputs[c.id as usize]).output;
        let got = c.output.as_ref().expect("request carried an input");
        assert!(
            allclose(got, &expect, 1e-6, 1e-7),
            "request {} output diverged from direct inference",
            c.id
        );
    }
}
