//! Host-memory regression guard for the f32 graph executor.
//!
//! `Graph::execute` drops every activation after its last consumer, so a
//! forward pass holds only the live frontier of the graph rather than every
//! layer's output. This binary installs its own counting, peak-tracking
//! global allocator and holds exactly one test, so no concurrently running
//! test moves the counters.

use fpgaccel::tensor::models::Model;
use fpgaccel::tensor::{data, Graph, Tensor};
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

/// Runs `g.execute(x)` and returns how far it raised the live heap above
/// its starting level (bytes) and how many allocations it made.
fn measure(g: &Graph, x: &Tensor) -> (usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let y = g.execute(x);
    let made = ALLOCS.load(Ordering::Relaxed) - allocs;
    let raised = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    drop(y);
    (raised, made)
}

#[test]
fn executor_frees_activations_and_stays_within_its_allocation_budget() {
    // Every activation of compiled MobileNetV1 together is 35.2 MB; the
    // largest set alive at once is 6.54 MB.
    let mobilenet = Model::MobileNetV1.build().fuse().materialize_padding();
    let (raised, _) = measure(&mobilenet, &data::imagenet_input(3));
    assert!(
        raised <= 8_000_000,
        "MobileNetV1 execute raised the live heap by {raised} bytes"
    );

    let lenet = Model::LeNet5.build().fuse().materialize_padding();
    let (_, allocs) = measure(&lenet, &data::synthetic_digit(7, 3));
    assert!(
        allocs <= 50,
        "one LeNet-5 execute made {allocs} allocations"
    );
}
