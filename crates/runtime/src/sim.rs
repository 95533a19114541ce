//! The discrete-event host/device simulation.

use fpgaccel_aoc::{kernel_cycles, AocOptions, Calib, KernelReport};
use fpgaccel_device::{DeviceModel, TransferDir};
use fpgaccel_fault::{FaultInjector, HANG_WATCHDOG_S};
use fpgaccel_tir::Binding;
use fpgaccel_trace::{HotPathProfiler, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Index of a command queue.
pub type QueueId = usize;
/// Index of an event.
pub type EventId = usize;

/// What an event represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// `clEnqueueTask` kernel execution.
    Kernel,
    /// `clEnqueueWriteBuffer` host-to-device transfer.
    Write,
    /// `clEnqueueReadBuffer` device-to-host transfer.
    Read,
    /// An autorun kernel's implicit pipeline stage (§4.7).
    Autorun,
}

/// One simulated OpenCL event with the four profiling timestamps (seconds).
#[derive(Clone, Debug)]
pub struct SimEvent {
    /// Operation label (kernel or buffer name), shared by every event of
    /// the same operation.
    pub name: Arc<str>,
    /// Kind.
    pub kind: EventKind,
    /// Command queue the event was enqueued on (`None` for autorun stages,
    /// which are never enqueued).
    pub queue: Option<QueueId>,
    /// `CL_PROFILING_COMMAND_QUEUED`.
    pub queued: f64,
    /// `CL_PROFILING_COMMAND_SUBMIT`.
    pub submit: f64,
    /// `CL_PROFILING_COMMAND_START`.
    pub start: f64,
    /// `CL_PROFILING_COMMAND_END`.
    pub end: f64,
}

impl SimEvent {
    /// Execution duration (start → end).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The channel FIFO between a producer stage and its consumer (§4.6). The
/// consumer may overlap its producer but cannot finish first, and the FIFO
/// itself shapes the overlap:
///
/// * **Fill latency** — the consumer's first output needs `fill` elements
///   of lookahead (a convolution needs its first `F` input rows, a dense
///   layer the whole vector), so it starts `fill / produced` of the
///   producer's runtime after the producer starts. With `fill: 0` it
///   starts as soon as data begins flowing.
/// * **Drain latency** — the consumer cannot finish before the producer's
///   last channel write has landed.
/// * **Refill stalls** — a FIFO shallower than *two* consumer fill windows
///   cannot double-buffer the producer's next burst against the window
///   being drained; the consumer idles between windows and its occupancy
///   stretches by `(2·fill − depth) / produced` of its runtime. The
///   planner trades FIFO BRAM against this stall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CouplingSpec {
    /// FIFO depth in elements (`__attribute__((depth(N)))`).
    pub depth: usize,
    /// Elements the producer writes to the channel per image.
    pub produced: usize,
    /// Elements the consumer must see before emitting its first output.
    pub fill: usize,
}

/// A launch's channel coupling to its producer stage's event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelCoupling {
    /// The producer stage's event.
    pub producer: EventId,
    /// The FIFO between them.
    pub fifo: CouplingSpec,
}

impl CouplingSpec {
    /// Fraction of the producer's runtime before the consumer can start.
    fn fill_frac(&self) -> f64 {
        let produced = self.produced.max(1);
        self.fill.min(produced) as f64 / produced as f64
    }

    /// Fraction of the consumer's runtime lost to FIFO refill stalls. A
    /// channel shallower than *two* consumer fill windows cannot
    /// double-buffer the producer's next burst against the window being
    /// drained, so the consumer repeatedly idles waiting for refills; its
    /// occupancy stretches by `(2·fill − depth) / produced` of its runtime.
    /// Zero once the FIFO holds two windows (or the whole feature map).
    fn stall_frac(&self) -> f64 {
        let produced = self.produced.max(1);
        let smooth = (2 * self.fill).min(produced);
        if self.depth >= smooth {
            return 0.0;
        }
        (smooth - self.depth) as f64 / produced as f64
    }
}

/// How many completed events the simulation keeps addressable.
///
/// Profiling-style analyses walk the full timeline, but a serving process
/// streaming millions of images must not grow an unbounded event log. With
/// [`EventRetention::Recent`] the simulation folds every event into running
/// aggregates (identical, bit for bit, to aggregating the full trace) and
/// keeps only a window of the newest events for dependency resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventRetention {
    /// Keep every event (the default; required by consumers that inspect
    /// the whole trace, e.g. the DSE sweeps and `evdbg`).
    Full,
    /// Keep only the most recent `n` events; older ones are dropped after
    /// being folded into the running aggregates. Dependencies may only
    /// reference retained events. The log is one buffer of `2n` events,
    /// allocated at the first event; once it is full, the oldest `n` are
    /// dropped at once.
    Recent(usize),
}

/// The simulation context: one device, its clock model, queues and events.
pub struct Sim {
    /// Device being driven.
    pub device: DeviceModel,
    /// AOC options the bitstream was built with.
    pub opts: AocOptions,
    /// Calibration set.
    pub calib: Calib,
    /// Bitstream clock (MHz) — from the synthesis report.
    pub fmax_mhz: f64,
    /// OpenCL event profiler enabled (§5.2: adds host overhead per event).
    pub profiling: bool,
    /// Event-log retention policy (see [`EventRetention`]).
    pub retention: EventRetention,
    tracer: Tracer,
    trace_pid: u32,
    profiler: HotPathProfiler,
    fault: FaultInjector,
    fault_target: String,
    host_clock: f64,
    queue_last_end: Vec<f64>,
    /// Every buffer name seen, allocated once per simulation. Kernel
    /// events share their report's name.
    names: HashSet<Arc<str>>,
    kernel_busy: HashMap<Arc<str>, f64>,
    events: Vec<SimEvent>,
    /// Events dropped from the front of `events` under `Recent` retention.
    /// The buffer may still hold older events than the window; `events()`
    /// and `event()` see only the window.
    dropped: usize,
    // Running aggregates over every event ever pushed, accumulated in push
    // order — the same order `Breakdown::of` iterates, so `breakdown()`
    // matches a full-trace aggregation exactly.
    agg_kernel_s: f64,
    agg_write_s: f64,
    agg_read_s: f64,
    agg_first: f64,
    agg_last: f64,
    kernel_seconds: HashMap<Arc<str>, f64>,
}

impl Sim {
    /// Creates a simulation for a synthesized bitstream clock.
    pub fn new(device: DeviceModel, opts: AocOptions, calib: Calib, fmax_mhz: f64) -> Self {
        Sim {
            device,
            opts,
            calib,
            fmax_mhz,
            profiling: false,
            retention: EventRetention::Full,
            tracer: Tracer::disabled(),
            trace_pid: 0,
            profiler: HotPathProfiler::disabled(),
            fault: FaultInjector::disabled(),
            fault_target: String::new(),
            host_clock: 0.0,
            queue_last_end: Vec::new(),
            names: HashSet::new(),
            kernel_busy: HashMap::new(),
            events: Vec::new(),
            dropped: 0,
            agg_kernel_s: 0.0,
            agg_write_s: 0.0,
            agg_read_s: 0.0,
            agg_first: f64::INFINITY,
            agg_last: 0.0,
            kernel_seconds: HashMap::new(),
        }
    }

    /// Attaches a span tracer: every event pushed from here on is recorded
    /// live as nested profiling slices on a device track group named
    /// `label` (see [`crate::timeline`]). Live recording works under any
    /// [`EventRetention`] — the trace stays complete even when the event
    /// ring drops old entries.
    pub fn set_tracer(&mut self, tracer: &Tracer, label: &str) {
        self.tracer = tracer.clone();
        if self.tracer.is_enabled() {
            self.trace_pid = self.tracer.alloc_pid(label);
            for q in 0..self.queue_last_end.len() {
                self.tracer.set_thread_name(
                    self.trace_pid,
                    crate::timeline::queue_track(q),
                    &format!("queue {q}"),
                );
            }
        }
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a hot-path profiler: every event recorded from here on is
    /// measured for wall-clock cost, allocations and span-recording
    /// overhead (see [`fpgaccel_trace::profile`]). The profiler measures
    /// *host* time — it never touches the simulated clock, so simulated
    /// results stay byte-identical with it attached.
    pub fn set_profiler(&mut self, profiler: &HotPathProfiler) {
        self.profiler = profiler.clone();
    }

    /// The attached profiler (disabled by default).
    pub fn profiler(&self) -> &HotPathProfiler {
        &self.profiler
    }

    /// Attaches a fault injector: from here on transfers consult the plan's
    /// active stalls and kernels consult pending device hangs, both under
    /// the injector's time view, with faults addressed to `target`. A hung
    /// kernel's event ends [`HANG_WATCHDOG_S`] past its start so callers can
    /// recognize the hang from the timeline. With the disabled injector the
    /// timeline is byte-identical to an uninstrumented run.
    pub fn set_fault_injector(&mut self, injector: &FaultInjector, target: &str) {
        self.fault = injector.clone();
        self.fault_target = target.to_string();
    }

    /// The attached fault injector (disabled by default).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Creates a command queue (§4.8: one per kernel enables concurrency).
    pub fn create_queue(&mut self) -> QueueId {
        self.queue_last_end.push(0.0);
        let q = self.queue_last_end.len() - 1;
        if self.tracer.is_enabled() {
            self.tracer.set_thread_name(
                self.trace_pid,
                crate::timeline::queue_track(q),
                &format!("queue {q}"),
            );
        }
        q
    }

    /// Current host time.
    pub fn now(&self) -> f64 {
        self.host_clock
    }

    /// All retained events (the full trace under [`EventRetention::Full`]).
    pub fn events(&self) -> &[SimEvent] {
        &self.events[self.hidden()..]
    }

    /// Buffered events older than the retention window.
    fn hidden(&self) -> usize {
        match self.retention {
            EventRetention::Full => 0,
            EventRetention::Recent(n) => self.events.len().saturating_sub(n.max(1)),
        }
    }

    /// An event by id.
    ///
    /// # Panics
    /// Panics if the event was dropped under [`EventRetention::Recent`].
    pub fn event(&self, id: EventId) -> &SimEvent {
        assert!(
            id >= self.dropped + self.hidden(),
            "event {id} was dropped (retention keeps the last {} events)",
            self.events().len()
        );
        &self.events[id - self.dropped]
    }

    /// Total number of events ever recorded, including dropped ones.
    pub fn events_recorded(&self) -> usize {
        self.dropped + self.events.len()
    }

    /// Latest `end` timestamp over the whole event history.
    pub fn last_event_end(&self) -> f64 {
        self.agg_last
    }

    /// Running time-breakdown over every event ever pushed. Identical to
    /// `Breakdown::of(self.events())` under full retention, and still exact
    /// when old events have been dropped.
    pub fn breakdown(&self) -> crate::profile::Breakdown {
        crate::profile::Breakdown {
            kernel_s: self.agg_kernel_s,
            write_s: self.agg_write_s,
            read_s: self.agg_read_s,
            span_s: if self.agg_last > self.agg_first {
                self.agg_last - self.agg_first
            } else {
                0.0
            },
        }
    }

    /// Running device-busy seconds per kernel over the whole history.
    pub fn kernel_seconds(&self) -> &HashMap<Arc<str>, f64> {
        &self.kernel_seconds
    }

    /// [`Sim::kernel_seconds`], moved out of a finished simulation.
    pub fn into_kernel_seconds(self) -> HashMap<Arc<str>, f64> {
        self.kernel_seconds
    }

    /// Sizes the per-kernel maps for `kernels` distinct kernels, so a
    /// simulation of a bitstream with that many never grows them.
    pub fn reserve_kernels(&mut self, kernels: usize) {
        self.kernel_busy.reserve(kernels);
        self.kernel_seconds.reserve(kernels);
    }

    /// The shared copy of `name`, allocated on its first event only.
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(n) = self.names.get(name) {
            return Arc::clone(n);
        }
        let n: Arc<str> = name.into();
        self.names.insert(Arc::clone(&n));
        n
    }

    fn host_enqueue_cost(&self) -> f64 {
        self.calib.async_enqueue_s
            + if self.profiling {
                self.calib.profiling_event_s
            } else {
                0.0
            }
    }

    /// The latest end among `after`: the earliest start their global-memory
    /// results allow.
    fn after_end(&self, after: &[EventId]) -> f64 {
        after.iter().fold(0.0, |t, &d| t.max(self.event(d).end))
    }

    fn push(&mut self, ev: SimEvent) -> EventId {
        // Every recorded event funnels through here, so this one probe
        // covers the simulation's entire per-event host cost.
        let probe = self.profiler.begin();
        self.profiler.measure_span_record(&self.tracer, || {
            crate::timeline::record_event(&self.tracer, self.trace_pid, &ev);
        });
        self.agg_first = self.agg_first.min(ev.queued);
        self.agg_last = self.agg_last.max(ev.end);
        match ev.kind {
            EventKind::Kernel | EventKind::Autorun => {
                self.agg_kernel_s += ev.duration();
                *self.kernel_seconds.entry(Arc::clone(&ev.name)).or_default() += ev.duration();
            }
            EventKind::Write => self.agg_write_s += ev.duration(),
            EventKind::Read => self.agg_read_s += ev.duration(),
        }
        if let EventRetention::Recent(n) = self.retention {
            // One buffer of two windows: a full buffer drops its older
            // window in one move instead of one event per push.
            let window = n.max(1);
            if self.events.capacity() < 2 * window {
                self.events.reserve_exact(2 * window - self.events.len());
            }
            if self.events.len() >= 2 * window {
                let excess = self.events.len() - window;
                self.events.drain(..excess);
                self.dropped += excess;
            }
        }
        self.events.push(ev);
        self.profiler.end(probe);
        self.dropped + self.events.len() - 1
    }

    /// Enqueues a host→device buffer write of `bytes` on `queue`.
    pub fn enqueue_write(
        &mut self,
        queue: QueueId,
        name: &str,
        bytes: u64,
        after: &[EventId],
    ) -> EventId {
        self.enqueue_transfer(queue, name, bytes, TransferDir::Write, after)
    }

    /// Enqueues a device→host buffer read of `bytes` on `queue`.
    pub fn enqueue_read(
        &mut self,
        queue: QueueId,
        name: &str,
        bytes: u64,
        after: &[EventId],
    ) -> EventId {
        self.enqueue_transfer(queue, name, bytes, TransferDir::Read, after)
    }

    fn enqueue_transfer(
        &mut self,
        queue: QueueId,
        name: &str,
        bytes: u64,
        dir: TransferDir,
        after: &[EventId],
    ) -> EventId {
        let queued = self.host_clock;
        self.host_clock += self.host_enqueue_cost();
        // Submission pipelines: the driver hands the command to the device
        // while the queue's predecessor is still running.
        let submit = self.host_clock;
        let start = submit
            .max(self.after_end(after))
            .max(self.queue_last_end[queue]);
        let mut dur = self.device.link.transfer_seconds(bytes, dir);
        if self.fault.is_enabled() {
            dur *= self.fault.transfer_scale(&self.fault_target, start);
        }
        let end = start + dur;
        self.queue_last_end[queue] = end;
        let name = self.intern(name);
        self.push(SimEvent {
            name,
            kind: match dir {
                TransferDir::Write => EventKind::Write,
                TransferDir::Read => EventKind::Read,
            },
            queue: Some(queue),
            queued,
            submit,
            start,
            end,
        })
    }

    /// Launches a kernel: a task (`clEnqueueTask`) enqueued on `queue`, or,
    /// with no queue, an autorun stage (§4.7) that costs the host nothing
    /// and has no dispatch latency.
    ///
    /// `after` are global-memory (event) dependencies; `coupling` is the
    /// channel FIFO from a producer this kernel may overlap (§4.6).
    pub fn enqueue_kernel(
        &mut self,
        queue: Option<QueueId>,
        report: &KernelReport,
        binding: &Binding,
        after: &[EventId],
        coupling: Option<ChannelCoupling>,
    ) -> EventId {
        let dur = self.kernel_duration(report, binding);
        let mut start = self.after_end(after);
        let (mut end_floor, mut stall) = (0.0, 0.0);
        if let Some(ChannelCoupling { producer, fifo }) = coupling {
            let p = self.event(producer);
            // Fill: the consumer's first window must have streamed in.
            start = start.max(p.start + (p.duration() * fifo.fill_frac()).max(1e-7));
            // Drain: the consumer cannot finish before the producer's last
            // channel write has landed.
            end_floor = p.end + 1e-7;
            // Refill stalls stretch the consumer's occupancy; with
            // compute-unit exclusivity this delays the *next* image's
            // instance of the consumer — the depth/throughput trade-off.
            stall = fifo.stall_frac() * dur;
        }
        let mut enqueued = None;
        if let Some(q) = queue {
            let queued = self.host_clock;
            self.host_clock += self.host_enqueue_cost();
            // Submission pipelines with the predecessor's execution; only
            // the in-order *start* waits for the queue. Dispatch latency is
            // the queue→device task-launch turnaround: back-to-back launches
            // hide it behind the predecessor's execution (§4.7/§4.8); a host
            // that synchronizes after every task pays it in full.
            let submit = self.host_clock;
            let dispatch_ready = submit + self.calib.task_overhead(self.device.platform);
            start = start.max(dispatch_ready).max(self.queue_last_end[q]);
            enqueued = Some((q, queued, submit));
        }
        let name = Arc::clone(&report.name);
        start = start.max(self.kernel_busy.get(&name).copied().unwrap_or(0.0));
        let mut end = (start + dur + stall).max(end_floor);
        if self.fault.is_enabled() {
            if let Some(hang_s) = self.fault.hang_before(&self.fault_target, end) {
                // The device stopped making progress: the command never
                // completes; the watchdog interval marks the event as hung.
                end = start.max(hang_s) + HANG_WATCHDOG_S;
            }
        }
        self.kernel_busy.insert(Arc::clone(&name), end);
        let (kind, queued, submit) = match enqueued {
            Some((q, queued, submit)) => {
                self.queue_last_end[q] = end;
                (EventKind::Kernel, queued, submit)
            }
            None => (EventKind::Autorun, start, start),
        };
        self.push(SimEvent {
            name,
            kind,
            queue,
            queued,
            submit,
            start,
            end,
        })
    }

    /// Kernel execution duration in seconds.
    pub fn kernel_duration(&self, report: &KernelReport, binding: &Binding) -> f64 {
        kernel_cycles(
            report,
            binding,
            &self.device,
            self.fmax_mhz,
            &self.opts,
            &self.calib,
        ) / (self.fmax_mhz * 1e6)
    }

    /// Blocks the host until everything enqueued so far completed
    /// (`clFinish` across all queues).
    pub fn finish(&mut self) {
        self.host_clock = self.host_clock.max(self.agg_last);
    }

    /// Drains the device before a reprogram: blocks the host until every
    /// enqueued operation completed ([`Sim::finish`]) and returns the
    /// quiesce time — the earliest simulated second at which the bitstream
    /// can be safely swapped without killing in-flight work.
    pub fn drain_barrier(&mut self) -> f64 {
        self.finish();
        self.host_clock
    }

    /// Blocks the host until an event completes (`clWaitForEvents`), adding
    /// the completion-processing cost.
    pub fn wait(&mut self, ev: EventId) {
        self.host_clock = self.host_clock.max(self.event(ev).end);
        if self.profiling {
            self.host_clock += self.calib.profiling_event_s;
        }
    }

    /// Advances the host clock by an explicit amount (host-side work such as
    /// output verification, §5.2).
    pub fn host_work(&mut self, seconds: f64) {
        self.host_clock += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_aoc::synthesize_kernel;
    use fpgaccel_device::FpgaPlatform;
    use fpgaccel_tir::compute::{conv2d, ConvDims, ConvSchedule, ConvSpec};

    /// A plain channel dependency on `producer`: no lookahead, no stall.
    fn piped(producer: EventId) -> ChannelCoupling {
        coupled(producer, 0, 0, 0)
    }

    fn coupled(producer: EventId, depth: usize, produced: usize, fill: usize) -> ChannelCoupling {
        let fifo = CouplingSpec {
            depth,
            produced,
            fill,
        };
        ChannelCoupling { producer, fifo }
    }

    fn setup() -> (Sim, KernelReport, KernelReport) {
        let device = FpgaPlatform::Stratix10Sx.model();
        let opts = AocOptions::default();
        let calib = Calib::default();
        let mut spec = ConvSpec::base("conv_a", ConvDims::constant(8, 4, 10, 10, 3, 1), false);
        spec.schedule = ConvSchedule::Fused { unroll_ff: true };
        let ra = synthesize_kernel(&conv2d(&spec), &device, &opts, &calib);
        spec.name = "conv_b".into();
        let rb = synthesize_kernel(&conv2d(&spec), &device, &opts, &calib);
        (Sim::new(device, opts, calib, 200.0), ra, rb)
    }

    #[test]
    fn in_order_queue_serializes() {
        let (mut sim, ra, rb) = setup();
        let q = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q), &ra, &Binding::empty(), &[], None);
        let e2 = sim.enqueue_kernel(Some(q), &rb, &Binding::empty(), &[], None);
        assert!(sim.event(e2).start >= sim.event(e1).end);
    }

    #[test]
    fn profiler_counts_every_event_without_perturbing_simulated_time() {
        let profiler = fpgaccel_trace::HotPathProfiler::enabled();
        let (mut sim, ra, rb) = setup();
        sim.set_profiler(&profiler);
        let q = sim.create_queue();
        sim.enqueue_write(q, "input", 1024, &[]);
        sim.enqueue_kernel(Some(q), &ra, &Binding::empty(), &[], None);
        sim.enqueue_kernel(Some(q), &rb, &Binding::empty(), &[], None);
        let profiled: Vec<SimEvent> = sim.events().to_vec();
        assert_eq!(profiler.events(), 3, "one probe per recorded event");
        assert!(profiler.busy_seconds() >= 0.0);
        // No tracer attached: span-record time must stay unmeasured.
        assert_eq!(profiler.span_seconds(), 0.0);
        // The simulated timeline is identical with the profiler detached.
        let (mut bare, ra2, rb2) = setup();
        let q = bare.create_queue();
        bare.enqueue_write(q, "input", 1024, &[]);
        bare.enqueue_kernel(Some(q), &ra2, &Binding::empty(), &[], None);
        bare.enqueue_kernel(Some(q), &rb2, &Binding::empty(), &[], None);
        for (a, b) in profiled.iter().zip(bare.events()) {
            assert_eq!(a.queued, b.queued);
            assert_eq!(a.end, b.end);
        }
    }

    #[test]
    fn separate_queues_overlap_independent_kernels() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let e2 = sim.enqueue_kernel(Some(q2), &rb, &Binding::empty(), &[], None);
        // Concurrent execution: the second starts before the first ends.
        assert!(sim.event(e2).start < sim.event(e1).end);
    }

    #[test]
    fn after_dependency_orders_across_queues() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let e2 = sim.enqueue_kernel(Some(q2), &rb, &Binding::empty(), &[e1], None);
        assert!(sim.event(e2).start >= sim.event(e1).end);
    }

    #[test]
    fn drain_barrier_returns_the_quiesce_time() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let e2 = sim.enqueue_kernel(Some(q2), &rb, &Binding::empty(), &[], None);
        let quiesce = sim.drain_barrier();
        let last = sim.event(e1).end.max(sim.event(e2).end);
        assert_eq!(quiesce, last, "barrier waits for the last in-flight op");
        // Idempotent: nothing new enqueued, nothing more to wait for.
        assert_eq!(sim.drain_barrier(), quiesce);
    }

    #[test]
    fn piped_dependency_overlaps_but_finishes_after() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let e2 = sim.enqueue_kernel(Some(q2), &rb, &Binding::empty(), &[], Some(piped(e1)));
        assert!(sim.event(e2).start < sim.event(e1).end, "overlap expected");
        assert!(sim.event(e2).end > sim.event(e1).end, "cannot finish first");
    }

    #[test]
    fn coupled_stage_starts_after_the_fill_window() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let p = (sim.event(e1).start, sim.event(e1).end);
        let dur_p = p.1 - p.0;
        // The consumer needs a quarter of the feature map before its first
        // output: it starts a quarter of the producer's runtime in.
        let e2 = sim.enqueue_kernel(
            Some(q2),
            &rb,
            &Binding::empty(),
            &[],
            Some(coupled(e1, 1000, 1000, 250)),
        );
        let c = sim.event(e2);
        assert!(c.start >= p.0 + 0.25 * dur_p - 1e-12, "fill gating");
        assert!(c.start < p.1, "still overlaps the producer");
        assert!(c.end > p.1, "cannot finish before the producer");
    }

    #[test]
    fn shallow_fifo_backpressures_the_next_image() {
        // Two images through a 2-stage coupled pipeline; the deep FIFO
        // decouples the producer, the shallow one stalls it, so the deep
        // pipeline finishes strictly earlier.
        let run = |depth: usize| {
            let (mut sim, ra, rb) = setup();
            let q1 = sim.create_queue();
            let q2 = sim.create_queue();
            let mut last = 0.0;
            for _ in 0..4 {
                let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
                let e2 = sim.enqueue_kernel(
                    Some(q2),
                    &rb,
                    &Binding::empty(),
                    &[],
                    Some(coupled(e1, depth, 4096, 64)),
                );
                last = sim.event(e2).end;
            }
            last
        };
        let deep = run(4096);
        let shallow = run(64);
        assert!(
            shallow > deep,
            "shallow FIFO must stall the pipeline: {shallow} <= {deep}"
        );
    }

    #[test]
    fn autorun_coupled_has_no_host_cost_and_respects_the_fill() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let before = sim.now();
        let e2 = sim.enqueue_kernel(
            None,
            &rb,
            &Binding::empty(),
            &[],
            Some(coupled(e1, 512, 1024, 512)),
        );
        assert_eq!(sim.now(), before, "autorun stages cost the host nothing");
        let (p, c) = (sim.event(e1).clone(), sim.event(e2).clone());
        assert!(c.start >= p.start + 0.5 * p.duration() - 1e-12);
        assert!(c.end > p.end);
        assert_eq!(c.kind, EventKind::Autorun);
    }

    #[test]
    fn full_depth_coupling_leaves_the_producer_unstalled() {
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        let p_end = sim.event(e1).end;
        sim.enqueue_kernel(
            Some(q2),
            &rb,
            &Binding::empty(),
            &[],
            Some(coupled(e1, 2048, 2048, 1)),
        );
        // Next instance of the producer starts right at its own end (plus
        // queue order), not at the consumer's pace.
        let e3 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
        assert!((sim.event(e3).start - p_end).abs() < 1e-9);
    }

    #[test]
    fn kernel_busy_serializes_reuse_across_images() {
        let (mut sim, ra, _) = setup();
        let q = sim.create_queue();
        let mut prev_end = 0.0;
        for _ in 0..4 {
            let e = sim.enqueue_kernel(Some(q), &ra, &Binding::empty(), &[], None);
            assert!(sim.event(e).start >= prev_end);
            prev_end = sim.event(e).end;
        }
    }

    #[test]
    fn autorun_has_no_host_cost() {
        let (mut sim, ra, _) = setup();
        let before = sim.now();
        sim.enqueue_kernel(None, &ra, &Binding::empty(), &[], None);
        assert_eq!(sim.now(), before);
    }

    #[test]
    fn steady_state_pipeline_converges_to_bottleneck() {
        // Stream 20 images through a 2-stage pipeline: throughput must be
        // bottleneck-stage-limited, not sum-of-stages-limited.
        let (mut sim, ra, rb) = setup();
        let q1 = sim.create_queue();
        let q2 = sim.create_queue();
        let dur_a = sim.kernel_duration(&ra, &Binding::empty());
        let n = 20;
        let mut last = None;
        for _ in 0..n {
            let e1 = sim.enqueue_kernel(Some(q1), &ra, &Binding::empty(), &[], None);
            let e2 = sim.enqueue_kernel(Some(q2), &rb, &Binding::empty(), &[], Some(piped(e1)));
            last = Some(e2);
        }
        sim.finish();
        let total = sim.event(last.unwrap()).end;
        let per_image = total / n as f64;
        // Two equal stages pipelined: per-image ~= one stage (+ overheads),
        // certainly below 1.7 stages.
        assert!(
            per_image < 1.7 * dur_a + 50e-6,
            "per_image {per_image} vs stage {dur_a}"
        );
    }

    #[test]
    fn transfers_use_link_model_and_record_events() {
        let (mut sim, _, _) = setup();
        let q = sim.create_queue();
        let w = sim.enqueue_write(q, "input", 1 << 20, &[]);
        let r = sim.enqueue_read(q, "output", 1 << 20, &[w]);
        assert!(sim.event(w).duration() > 0.0);
        assert!(sim.event(r).start >= sim.event(w).end);
        assert_eq!(sim.events().len(), 2);
    }

    #[test]
    fn profiling_adds_host_overhead() {
        let (mut sim, ra, _) = setup();
        let q = sim.create_queue();
        sim.profiling = true;
        let e = sim.enqueue_kernel(Some(q), &ra, &Binding::empty(), &[], None);
        let t0 = sim.now();
        sim.wait(e);
        assert!(sim.now() > t0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use fpgaccel_aoc::synthesize_kernel;
    use fpgaccel_device::FpgaPlatform;
    use fpgaccel_tir::compute::{conv2d, ConvDims, ConvSchedule, ConvSpec};

    fn report(platform: FpgaPlatform) -> KernelReport {
        let device = platform.model();
        let mut spec = ConvSpec::base("k", ConvDims::constant(4, 4, 6, 6, 3, 1), false);
        spec.schedule = ConvSchedule::Fused { unroll_ff: true };
        synthesize_kernel(
            &conv2d(&spec),
            &device,
            &AocOptions::default(),
            &Calib::default(),
        )
    }

    #[test]
    fn host_work_advances_the_clock_monotonically() {
        let mut sim = Sim::new(
            FpgaPlatform::Arria10Gx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let t0 = sim.now();
        sim.host_work(1e-3);
        assert!((sim.now() - t0 - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn finish_reaches_the_latest_event_end() {
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let q = sim.create_queue();
        let r = report(FpgaPlatform::Stratix10Sx);
        let e = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[], None);
        assert!(sim.now() < sim.event(e).end, "host runs ahead of device");
        sim.finish();
        assert!(sim.now() >= sim.event(e).end);
    }

    #[test]
    fn wait_is_idempotent_for_completed_events() {
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let q = sim.create_queue();
        let r = report(FpgaPlatform::Stratix10Sx);
        let e = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[], None);
        sim.wait(e);
        let t = sim.now();
        sim.wait(e);
        assert_eq!(sim.now(), t, "waiting again must not advance time");
    }

    #[test]
    fn event_timestamps_are_ordered() {
        let mut sim = Sim::new(
            FpgaPlatform::Arria10Gx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let q = sim.create_queue();
        let w = sim.enqueue_write(q, "in", 4096, &[]);
        let r = report(FpgaPlatform::Arria10Gx);
        let k = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[w], None);
        for &id in &[w, k] {
            let e = sim.event(id);
            assert!(e.queued <= e.submit);
            assert!(e.submit <= e.start);
            assert!(e.start <= e.end);
        }
    }

    #[test]
    fn recent_retention_matches_full_aggregates() {
        // Stream enough images that the ring drops events; the running
        // breakdown must equal a full-trace aggregation bit for bit.
        let run = |retention: EventRetention| {
            let mut sim = Sim::new(
                FpgaPlatform::Stratix10Sx.model(),
                AocOptions::default(),
                Calib::default(),
                200.0,
            );
            sim.retention = retention;
            let q = sim.create_queue();
            let r = report(FpgaPlatform::Stratix10Sx);
            for _ in 0..40 {
                let w = sim.enqueue_write(q, "in", 4096, &[]);
                let k = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[w], None);
                let rd = sim.enqueue_read(q, "out", 4096, &[k]);
                sim.wait(rd);
            }
            sim.finish();
            (sim.breakdown(), sim.now(), sim.events_recorded())
        };
        let (full_b, full_now, full_n) = run(EventRetention::Full);
        let (ring_b, ring_now, ring_n) = run(EventRetention::Recent(8));
        assert_eq!(full_b, ring_b);
        assert_eq!(full_now, ring_now);
        assert_eq!(full_n, ring_n);
        assert_eq!(full_n, 120);
    }

    #[test]
    fn seeded_random_workloads_keep_running_aggregates_exact() {
        // Property-style check over seeded random workloads: whatever mix
        // of transfers and kernels lands on however many queues, the
        // running aggregates under bounded retention must equal a
        // full-trace `Breakdown::of` bit for bit.
        fn xorshift(s: &mut u64) -> u64 {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        }
        for seed in [0x5EED_u64, 1, 42, 0xDEAD_BEEF] {
            let run = |retention: EventRetention| {
                let mut rng = seed;
                let mut sim = Sim::new(
                    FpgaPlatform::Stratix10Sx.model(),
                    AocOptions::default(),
                    Calib::default(),
                    200.0,
                );
                sim.retention = retention;
                let queues = [sim.create_queue(), sim.create_queue(), sim.create_queue()];
                let r = report(FpgaPlatform::Stratix10Sx);
                let mut last = None;
                for _ in 0..60 {
                    let q = queues[(xorshift(&mut rng) % 3) as usize];
                    let deps: Vec<EventId> = last.into_iter().collect();
                    let bytes = 1u64 << (8 + xorshift(&mut rng) % 8);
                    last = Some(match xorshift(&mut rng) % 3 {
                        0 => sim.enqueue_write(q, "in", bytes, &deps),
                        1 => sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &deps, None),
                        _ => sim.enqueue_read(q, "out", bytes, &deps),
                    });
                }
                sim.finish();
                sim
            };
            let full = run(EventRetention::Full);
            let ring = run(EventRetention::Recent(7));
            // Same seed, same schedule: running aggregates agree with the
            // full trace and with each other, exactly.
            assert_eq!(
                full.breakdown(),
                crate::profile::Breakdown::of(full.events())
            );
            assert_eq!(full.breakdown(), ring.breakdown(), "seed {seed:#x}");
            assert_eq!(full.now(), ring.now(), "seed {seed:#x}");
            assert_eq!(full.events_recorded(), ring.events_recorded());
            assert!(ring.events().len() <= 7);
        }
    }

    #[test]
    fn recent_retention_bounds_the_event_log() {
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        sim.retention = EventRetention::Recent(6);
        let q = sim.create_queue();
        for i in 0..50 {
            sim.enqueue_write(q, &format!("w{i}"), 1024, &[]);
        }
        assert_eq!(sim.events().len(), 6);
        assert_eq!(sim.events_recorded(), 50);
        // The retained window is the newest events, ids still stable.
        assert_eq!(&*sim.events()[0].name, "w44");
        assert_eq!(&*sim.event(49).name, "w49");
    }

    /// `events` writes `w0`, `w1`, ... under a 4-event window.
    fn windowed(events: usize, mut check: impl FnMut(&Sim, usize)) -> Sim {
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        sim.retention = EventRetention::Recent(4);
        let q = sim.create_queue();
        for i in 0..events {
            assert_eq!(sim.enqueue_write(q, &format!("w{i}"), 1024, &[]), i);
            check(&sim, i);
        }
        sim
    }

    #[test]
    fn recent_retention_shows_exactly_the_newest_window_after_every_event() {
        windowed(30, |sim, i| {
            let newest: Vec<String> = (i.saturating_sub(3)..=i).map(|k| format!("w{k}")).collect();
            let shown: Vec<&str> = sim.events().iter().map(|e| &*e.name).collect();
            assert_eq!(shown, newest, "after event {i}");
            for (id, name) in (i.saturating_sub(3)..).zip(&newest) {
                assert_eq!(&*sim.event(id).name, name);
            }
        });
    }

    #[test]
    #[should_panic(expected = "event 25 was dropped (retention keeps the last 4 events)")]
    fn a_buffered_event_older_than_the_window_is_not_addressable() {
        // The buffer compacted last before event 28, so it still holds
        // events 24 and 25, which the window no longer shows.
        let sim = windowed(30, |_, _| {});
        assert_eq!(&*sim.event(26).name, "w26");
        let _ = sim.event(25);
    }

    #[test]
    #[should_panic(expected = "was dropped")]
    fn dropped_events_are_not_addressable() {
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        sim.retention = EventRetention::Recent(2);
        let q = sim.create_queue();
        let first = sim.enqueue_write(q, "w", 1024, &[]);
        for _ in 0..4 {
            sim.enqueue_write(q, "w", 1024, &[]);
        }
        let _ = sim.event(first);
    }

    #[test]
    fn running_breakdown_equals_full_trace_aggregation() {
        let mut sim = Sim::new(
            FpgaPlatform::Arria10Gx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let q = sim.create_queue();
        let r = report(FpgaPlatform::Arria10Gx);
        for _ in 0..5 {
            let w = sim.enqueue_write(q, "in", 2048, &[]);
            let k = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[w], None);
            sim.enqueue_read(q, "out", 2048, &[k]);
        }
        let running = sim.breakdown();
        let full = crate::profile::Breakdown::of(sim.events());
        assert_eq!(running, full);
        let from_events: f64 = sim
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Kernel | EventKind::Autorun))
            .map(|e| e.duration())
            .sum();
        assert_eq!(sim.kernel_seconds()["k"], from_events);
    }

    #[test]
    fn disabled_fault_injector_leaves_the_timeline_byte_identical() {
        let run = |attach: bool| {
            let mut sim = Sim::new(
                FpgaPlatform::Stratix10Sx.model(),
                AocOptions::default(),
                Calib::default(),
                200.0,
            );
            if attach {
                sim.set_fault_injector(&FaultInjector::disabled(), "dev");
            }
            let q = sim.create_queue();
            let r = report(FpgaPlatform::Stratix10Sx);
            for _ in 0..6 {
                let w = sim.enqueue_write(q, "in", 4096, &[]);
                let k = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[w], None);
                sim.enqueue_read(q, "out", 4096, &[k]);
            }
            sim.finish();
            let stamps: Vec<(f64, f64, f64, f64)> = sim
                .events()
                .iter()
                .map(|e| (e.queued, e.submit, e.start, e.end))
                .collect();
            (stamps, sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn transfer_stalls_scale_only_covered_transfers() {
        use fpgaccel_fault::{FaultEvent, FaultKind, FaultPlan};
        let base = {
            let mut sim = Sim::new(
                FpgaPlatform::Stratix10Sx.model(),
                AocOptions::default(),
                Calib::default(),
                200.0,
            );
            let q = sim.create_queue();
            let e = sim.enqueue_write(q, "in", 1 << 20, &[]);
            sim.event(e).duration()
        };
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let inj = FaultInjector::new(FaultPlan::new(
            0,
            vec![FaultEvent {
                at_s: 0.0,
                target: "dev".into(),
                kind: FaultKind::TransferStall {
                    factor: 3.0,
                    for_s: 0.5,
                },
            }],
        ));
        sim.set_fault_injector(&inj, "dev");
        let q = sim.create_queue();
        let stalled = sim.enqueue_write(q, "in", 1 << 20, &[]);
        assert!((sim.event(stalled).duration() - 3.0 * base).abs() < 1e-12);
        // Past the stall window the link recovers.
        sim.host_work(1.0);
        let clean = sim.enqueue_write(q, "in", 1 << 20, &[]);
        assert!((sim.event(clean).duration() - base).abs() < 1e-12);
        assert!(inj.injected() > 0);
    }

    #[test]
    fn device_hangs_inflate_kernel_ends_past_the_watchdog() {
        use fpgaccel_fault::{FaultEvent, FaultKind, FaultPlan};
        let mut sim = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        let inj = FaultInjector::new(FaultPlan::new(
            0,
            vec![FaultEvent {
                at_s: 0.0,
                target: "dev".into(),
                kind: FaultKind::DeviceHang,
            }],
        ));
        sim.set_fault_injector(&inj, "dev");
        let q = sim.create_queue();
        let r = report(FpgaPlatform::Stratix10Sx);
        let e = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[], None);
        assert!(sim.event(e).duration() >= HANG_WATCHDOG_S);
        // A repaired view (hang floor past the event) masks the hang.
        let mut sim2 = Sim::new(
            FpgaPlatform::Stratix10Sx.model(),
            AocOptions::default(),
            Calib::default(),
            200.0,
        );
        sim2.set_fault_injector(&inj.view(0.0, 0.0), "dev");
        let q2 = sim2.create_queue();
        let e2 = sim2.enqueue_kernel(Some(q2), &r, &Binding::empty(), &[], None);
        assert!(sim2.event(e2).duration() < HANG_WATCHDOG_S);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use fpgaccel_fault::{FaultPlan, FaultSpec};
        let spec = FaultSpec::budget(8, &["dev"], 0.1);
        let run = || {
            let inj = FaultInjector::new(FaultPlan::generate(9, &spec));
            let mut sim = Sim::new(
                FpgaPlatform::Stratix10Sx.model(),
                AocOptions::default(),
                Calib::default(),
                200.0,
            );
            sim.set_fault_injector(&inj, "dev");
            let q = sim.create_queue();
            let r = report(FpgaPlatform::Stratix10Sx);
            for _ in 0..10 {
                let w = sim.enqueue_write(q, "in", 1 << 16, &[]);
                let k = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[w], None);
                sim.enqueue_read(q, "out", 1 << 16, &[k]);
            }
            sim.finish();
            let stamps: Vec<(f64, f64)> = sim.events().iter().map(|e| (e.start, e.end)).collect();
            (stamps, sim.now(), inj.injected())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faster_platform_host_dispatches_sooner() {
        // Dispatch latency is per platform (Calib::task_overhead): the A10
        // host is the slowest of the three.
        let start_of = |p: FpgaPlatform| {
            let mut sim = Sim::new(p.model(), AocOptions::default(), Calib::default(), 200.0);
            let q = sim.create_queue();
            let r = report(p);
            let e = sim.enqueue_kernel(Some(q), &r, &Binding::empty(), &[], None);
            sim.event(e).start
        };
        assert!(start_of(FpgaPlatform::Arria10Gx) > start_of(FpgaPlatform::Stratix10Sx));
    }
}
