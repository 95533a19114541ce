//! Host-memory regression guard for the f32 graph executor, the compile
//! path and a fleet run.
//!
//! `Graph::execute` drops every activation after its last consumer, so a
//! forward pass holds only the live frontier of the graph rather than every
//! layer's output, and a warm one allocates little beyond the buffers its
//! plan cannot recycle: pads fold into their convolutions, element-wise
//! nodes write into their operands, dead buffers serve later requests of
//! the same call, parallel calls run on parked workers, shapes are inline
//! and convolution parameters are borrowed. A zoo graph's weights are
//! generated on first read and shared: building, compiling and deploying
//! a model generate and copy none of them, and fusing and compiling it
//! allocate a bounded number of times. A fleet run keeps one 16-byte ledger entry per arrival and a
//! 16-byte record per routed copy and per completion, holds full requests
//! and completions for one shard at a time, and a timing-only request or
//! completion carries no tensor; its flight recorders store raw fields and
//! hand their postmortems over by move, and its shard pools share each
//! deployment's memoized batch seconds instead of simulating them again.
//! This binary installs its own counting, peak-tracking global allocator
//! and holds exactly one test, so no concurrently running test moves the
//! counters.

use fpgaccel::core::bitstreams::optimized_config;
use fpgaccel::core::Flow;
use fpgaccel::device::FpgaPlatform;
use fpgaccel::fault::{FaultEvent, FaultKind, FaultPlan};
use fpgaccel::fleet::{
    device_rate, DeviceClass, Fleet, FleetConfig, FleetSpec, ModelDemand, TenantLoad, TenantPolicy,
};
use fpgaccel::serve::DeploymentCache;
use fpgaccel::tensor::models::Model;
use fpgaccel::tensor::{data, par};
use fpgaccel::tune::TuningDb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, their high-water mark and the allocation count.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counters never touch the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns how far it raised the live heap above its starting
/// level at its peak (bytes), how many allocations it made, and what it
/// returned, which is dropped only after the counters are read.
fn measure<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let made = ALLOCS.load(Ordering::Relaxed) - allocs;
    let raised = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (raised, made, out)
}

/// Runs `f` and returns the live heap bytes that what it returned still
/// holds.
fn held<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    let out = f();
    (LIVE.load(Ordering::Relaxed).saturating_sub(base), out)
}

#[test]
fn executor_frees_activations_and_stays_within_its_allocation_budget() {
    // A built zoo graph holds its weights' shapes and seeds, not their
    // values: ResNet-34's 87 MB of weights are generated on first read.
    let (bytes, resnet) = held(|| Model::ResNet34.build());
    assert!(
        bytes <= 1_000_000,
        "a built ResNet-34 graph holds {bytes} bytes"
    );

    // Fusion is one forward pass that updates use counts in place: one
    // allocation, for the counts (1,882 when every fusion restarted the
    // scan and cloned each node's inputs).
    let (_, allocs, _) = measure(|| resnet.fuse());
    assert!(allocs <= 8, "fusing ResNet-34 made {allocs} allocations");

    // A parallel call hands its shares to the pool's parked workers, which
    // the first parallel call spawns: 4 allocations per call when every
    // call spawned its threads, 0 now.
    let mut buf = vec![0.0f32; 1 << 20];
    let fill = |i: usize, chunk: &mut [f32]| chunk.fill(i as f32);
    par::for_each_chunk_mut(&mut buf, 1 << 10, fill);
    let (_, allocs, _) = measure(|| par::for_each_chunk_mut(&mut buf, 1 << 10, fill));
    assert_eq!(allocs, 0, "a warm parallel call made {allocs} allocations");
    drop(buf);

    // Every activation of compiled MobileNetV1 together is 35.2 MB; the
    // largest set alive at once is 6.54 MB. The first execute also
    // generates the 16.9 MB of weights, which the graph then keeps.
    let mobilenet = Model::MobileNetV1.build().fuse().materialize_padding();
    let x = data::imagenet_input(3);
    let (raised, _, _) = measure(|| mobilenet.execute(&x));
    assert!(
        raised <= 25_000_000,
        "the first MobileNetV1 execute raised the live heap by {raised} bytes"
    );
    // A warm execute plans itself: its 14 pads fold into their
    // convolutions, element-wise nodes and the flatten write into their
    // operands, and outputs and im2col matrices take dead buffers of the
    // same call. It allocates its plan, its value slots and its dead-buffer
    // list, and 9 buffers: 12 allocations (53 when it evaluated every pad
    // into a buffer of its own; 267 when every parallel call spawned
    // threads, every shape was a heap vector and every convolution cloned
    // its bias and batch-norm vectors). Held dead buffers raise its peak
    // to 7.78 MB (6.54 MB when it evaluated every pad).
    let (raised, allocs, _) = measure(|| mobilenet.execute(&x));
    assert!(
        raised <= 8_000_000,
        "MobileNetV1 execute raised the live heap by {raised} bytes"
    );
    assert!(
        allocs <= 15,
        "a warm MobileNetV1 execute made {allocs} allocations"
    );
    // Once an execute returns, the live heap holds its output and nothing
    // else: no buffer outlives the call.
    let (bytes, y) = held(|| mobilenet.execute(&x));
    assert_eq!(bytes, 4 * y.numel(), "MobileNetV1 execute left live bytes");

    // A first execute: 16 allocations, 5 of them generating the five
    // weight tensors (24 with softmax and pooling scratch vectors, a copied
    // flatten and the bookkeeping in five vectors; 45 with heap shapes and
    // cloned parameters); a warm one 11 (19; 35).
    let lenet = Model::LeNet5.build().fuse().materialize_padding();
    let x = data::synthetic_digit(7, 3);
    let (_, allocs, _) = measure(|| lenet.execute(&x));
    assert!(
        allocs <= 30,
        "the first LeNet-5 execute made {allocs} allocations"
    );
    let (_, allocs, _) = measure(|| lenet.execute(&x));
    assert!(
        allocs <= 15,
        "a warm LeNet-5 execute made {allocs} allocations"
    );
    let (bytes, y) = held(|| lenet.execute(&x));
    assert_eq!(bytes, 4 * y.numel(), "LeNet-5 execute left live bytes");

    // Compiling from a prebuilt graph generates and copies no weights:
    // neither the flow's graph nor the deployment's.
    let source = Model::MobileNetV1.build();
    let s10sx = FpgaPlatform::Stratix10Sx;
    let config = optimized_config(Model::MobileNetV1, s10sx);
    let (raised, _, _) = measure(|| {
        let flow = Flow::for_graph(source.clone(), s10sx);
        flow.compile(&config).expect("MobileNetV1 fits the S10SX")
    });
    assert!(
        raised <= 2_000_000,
        "a MobileNetV1 compile raised the live heap by {raised} bytes"
    );

    // The same Folded-Optimized compile from a built flow. Index operands
    // are shared and literal IR names borrowed: 3,355 allocations when
    // every index subtree was deep-copied and every name was a `String`,
    // 1,293 now.
    let flow = Flow::for_graph(source.clone(), s10sx);
    let (_, allocs, _) = measure(|| flow.compile(&config).expect("MobileNetV1 fits the S10SX"));
    assert!(
        allocs <= 1_800,
        "a MobileNetV1 compile made {allocs} allocations"
    );

    // One cache builds the model once, so its deployments on all three
    // boards share one graph, and compiling them generates no weights.
    let (bytes, _) = held(|| {
        let mut cache = DeploymentCache::new();
        for p in FpgaPlatform::ALL {
            let config = optimized_config(Model::MobileNetV1, p);
            cache
                .get_or_compile(Model::MobileNetV1, p, &config)
                .unwrap_or_else(|e| panic!("MobileNetV1 on {p}: {e}"));
        }
        cache
    });
    assert!(
        bytes <= 2_000_000,
        "three MobileNetV1 deployments hold {bytes} bytes"
    );

    // A fleet run through a domain outage, its heal, replays and hedges:
    // 8 boards in 2 shards, one per failure domain, and one tenant offering
    // 1.2x capacity for 1 s (37,632 requests). 364 bytes per offered
    // request when a run kept per-request maps, an unboxed tensor slot in
    // every request and completion, and a replay log on every shard; 138
    // when every shard's 48-byte requests and 64-byte completions were
    // alive at once; 110 when flight records held formatted text; 107 now.
    // It makes at most 1,250 allocations (994 now; 1,518 when every shard
    // pool simulated each batch size again, each simulation copied every
    // kernel name, and each recorder attach built a device-name table;
    // 13,963 when every flight record formatted four strings and every
    // postmortem was copied event by event, twice).
    let rate = device_rate(&mut DeploymentCache::new(), Model::LeNet5, s10sx)
        .expect("LeNet-5 fits the S10SX");
    let spec = FleetSpec {
        classes: vec![DeviceClass {
            platform: s10sx,
            count: 8,
        }],
        demands: vec![ModelDemand {
            model: Model::LeNet5,
            rate_rps: 3.2 * rate,
        }],
        headroom: 0.25,
        domains: 2,
    };
    let cfg = FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::build(&spec, cfg, &mut TuningDb::new()).expect("the fleet places");
    fleet.arm(FaultPlan::new(
        0,
        vec![FaultEvent {
            at_s: 0.1,
            target: "dom-1".into(),
            kind: FaultKind::DomainOutage,
        }],
    ));
    let capacity = fleet.capacity_rps();
    let tenants = [TenantLoad {
        policy: TenantPolicy {
            name: "a".into(),
            weight: 1.0,
            budget_rps: capacity,
            burst: 20.0,
        },
        offered: vec![(Model::LeNet5, 1.2 * capacity)],
    }];
    let (raised, allocs, run) = measure(|| fleet.run(&tenants, 1.0));
    let offered = run.tenants[0].offered;
    assert_eq!(run.heals.len(), 1, "the outage heals once");
    assert!(run.replays > 0 && run.hedges > 0);
    assert!(
        raised <= 130 * offered as usize,
        "a fleet run raised the live heap by {raised} bytes, {} per offered request",
        raised / offered as usize
    );
    assert!(
        allocs <= 1_250,
        "a fleet run made {allocs} allocations for {offered} offered requests"
    );
}
