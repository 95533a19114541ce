//! Calibrated constants of the AOC/Quartus model, with provenance.
//!
//! Everything tunable in the synthesis and timing models is collected here.
//! Values are fit against the thesis' own measurements — the cited table or
//! figure is noted on each constant — and nothing else in the workspace
//! embeds timing/area magic numbers. The acceptance criterion is *shape*
//! (orderings, speedup ladders, crossover points), not absolute cycle
//! counts; see EXPERIMENTS.md for the recorded paper-vs-measured deltas.

use fpgaccel_device::FpgaPlatform;

/// The calibration set.
#[derive(Clone, Debug)]
pub struct Calib {
    // ---- Initiation intervals (§5.1.1) -------------------------------
    /// Per-MAC cost of a reduction accumulating into a global-memory
    /// scratchpad (the naive TVM schedule). The thesis reports the
    /// load-add-store round trip defeats the single-cycle accumulator with
    /// II = 5 on the innermost loop; AOC overlaps independent outer
    /// iterations, so the *effective* amortized cost we model is lower.
    /// Because the accumulator lives in memory, unrolled MACs chain
    /// serially through it — this cost is charged per MAC in the leaf, so
    /// unrolling does not help naive kernels (§5.1.1).
    /// Fit: Base rows of Tables 6.9/6.11/6.14.
    pub ii_global_accum: f64,
    /// II of a local-BRAM accumulator.
    pub ii_local_accum: f64,
    /// II of a private-register accumulator with `-fp-relaxed` tree
    /// balancing (§4.10): the single-cycle accumulator.
    pub ii_private_relaxed: f64,
    /// II of a private accumulator *without* `-fp-relaxed` (strict IEEE
    /// ordering serializes the adder pipeline).
    pub ii_private_strict: f64,
    /// Extra pipeline fill/drain cycles charged once per pipelined loop.
    pub pipeline_depth: f64,
    /// Overhead cycles per iteration of a serial (non-pipelined) loop.
    pub serial_iter_overhead: f64,

    // ---- External-memory efficiency (§2.4.3) --------------------------
    /// DDR efficiency of narrow (< 4-element) scattered accesses: mostly
    /// wasted bursts. Meant to fit the depthwise-conv GFLOPS of Table 6.8,
    /// but only the S10MX cell matches: the model gives 1.96 / 10.96 /
    /// 5.07 (S10MX / S10SX / A10) against the paper's 1.81 / 1.72 / 1.65.
    pub mem_eff_narrow: f64,
    /// Efficiency of mid-width (4–15 element) accesses.
    pub mem_eff_mid: f64,
    /// Efficiency of wide (>= 16-element) coalesced bursts.
    pub mem_eff_wide: f64,
    /// Hit-rate credit for cached burst-coalesced LSUs (§2.4.3): external
    /// bytes divided by this factor (~75% hit rate).
    pub lsu_cache_reuse: f64,
    /// Stronger credit for cached *weight* streams: a layer-tile's weights
    /// fit entirely in the 512-kbit cache and are re-read for every output
    /// row, so nearly all weight reads hit (§5.1.2: "Reading weights ...
    /// influences the kernel's global memory utilization" only through the
    /// cold pass). Matches ResNet-34's 3x3 s=1 conv on the S10SX in Table
    /// 6.16 (70.89 GFLOPS against 70.36). Misses MobileNet's 3x3 conv in
    /// Table 6.8 by 2.6-2.8x: 1.50 / 3.23 / 2.32 (S10MX / S10SX / A10)
    /// against 4.23 / 8.48 / 6.54.
    pub weight_cache_reuse: f64,
    /// Additional per-iteration stall per replicated narrow LSU contending
    /// for the memory system (arbitration, §2.4.5).
    pub lsu_contention_per_replica: f64,

    // ---- fmax / congestion (Table 6.6, §6.5) ---------------------------
    /// fmax = base * (1 - w_ram*ram_frac^2 - w_logic*logic_frac^2
    ///                 - w_dsp*kernel_dsp_frac^2 - w_fanout*kernel_fanout^2),
    /// jittered deterministically by design hash. The DSP and fanout terms
    /// use the *densest kernel* (routing congestion is local, Figure 6.8);
    /// the RAM/logic terms use whole-chip utilization.
    /// Fit: the seven tiling configurations of Table 6.6 plus the deployed
    /// MobileNet bitstream fmax rows of Table 6.11.
    pub fmax_w_ram: f64,
    /// DSP-fraction weight of the fmax model.
    pub fmax_w_dsp: f64,
    /// Logic-fraction weight of the fmax model.
    pub fmax_w_logic: f64,
    /// LSU-fanout-fraction weight of the fmax model.
    pub fmax_w_fanout: f64,
    /// Placement/routing jitter amplitude (±, relative).
    pub fmax_jitter: f64,
    /// Lowest fmax Quartus will close timing at before the run is
    /// considered failed.
    pub fmax_floor_mhz: f64,

    // ---- Routing capacity (§6.5, Figure 6.8) --------------------------
    /// Routing-pressure capacity per kernel, in weighted bits. Pressure is
    /// `sum over global accesses of width_bits * replication`, with stores
    /// weighted 4x (wide store buses fan *out* across the chip from one
    /// producer — Figure 6.8's congestion hot spot) and loads replicated
    /// >= 8x discounted 2x (narrow replicas place more freely than one wide
    /// > bus). Fit so that exactly the documented outcomes occur: MobileNet
    /// > 1x1 tiling 7/16/8 fails on the S10SX while 7/16/4 routes; 7/32/8
    /// > fails on the S10MX while 7/32/4 routes; every Table 6.6 config
    /// > routes on the A10; the ResNet kernel set routes on both Stratix
    /// > boards (§6.3.2, §6.4.3, §6.5).
    pub routing_fanout_bits_a10: u64,
    /// S10SX routing capacity.
    pub routing_fanout_bits_s10sx: u64,
    /// S10MX routing capacity.
    pub routing_fanout_bits_s10mx: u64,

    // ---- Host runtime (§6.3.1, Figure 6.2) -----------------------------
    /// Host-side cost of one `clEnqueueTask` + completion processing on an
    /// in-order queue, seconds. Dominates base LeNet ("most of the overhead
    /// ... can be attributed to [the host]: kernel times are short").
    /// This is the S10SX value; see [`Calib::task_overhead`] for the
    /// per-platform values (the three boards live in different vLab hosts,
    /// Table 6.1).
    pub task_overhead_s: f64,
    /// A10-host multiplier on `task_overhead_s` (dual Xeon 8180 host with a
    /// slower BSP dispatch path; fit to the optimized LeNet FPS gap between
    /// the A10 and S10SX in Table 6.9).
    pub task_overhead_factor_a10: f64,
    /// S10MX-host multiplier (i9 host, experimental BSP).
    pub task_overhead_factor_s10mx: f64,
    /// Host-side enqueue cost when the work is dispatched asynchronously
    /// across per-kernel queues (concurrent execution, §4.8): only the
    /// submission itself serializes.
    pub async_enqueue_s: f64,
    /// Extra per-event cost when the OpenCL event profiler is enabled
    /// (§5.2 disables concurrency while profiling).
    pub profiling_event_s: f64,
}

impl Default for Calib {
    fn default() -> Self {
        Calib {
            ii_global_accum: 1.5,
            ii_local_accum: 2.0,
            ii_private_relaxed: 1.0,
            ii_private_strict: 4.0,
            pipeline_depth: 40.0,
            serial_iter_overhead: 4.0,

            mem_eff_narrow: 0.11,
            mem_eff_mid: 0.38,
            mem_eff_wide: 0.80,
            lsu_cache_reuse: 4.0,
            weight_cache_reuse: 16.0,
            lsu_contention_per_replica: 0.03,

            fmax_w_ram: 0.10,
            fmax_w_dsp: 0.35,
            fmax_w_logic: 0.10,
            fmax_w_fanout: 0.15,
            fmax_jitter: 0.05,
            fmax_floor_mhz: 60.0,

            routing_fanout_bits_a10: 19_500,
            routing_fanout_bits_s10sx: 17_800,
            routing_fanout_bits_s10mx: 34_500,

            task_overhead_s: 100e-6,
            task_overhead_factor_a10: 2.7,
            task_overhead_factor_s10mx: 1.5,
            async_enqueue_s: 7e-6,
            profiling_event_s: 18e-6,
        }
    }
}

impl Calib {
    /// Per-platform task dispatch/completion overhead.
    pub fn task_overhead(&self, p: FpgaPlatform) -> f64 {
        match p {
            FpgaPlatform::Arria10Gx => self.task_overhead_s * self.task_overhead_factor_a10,
            FpgaPlatform::Stratix10Sx => self.task_overhead_s,
            FpgaPlatform::Stratix10Mx => self.task_overhead_s * self.task_overhead_factor_s10mx,
        }
    }

    /// Routing fanout capacity for a platform.
    pub fn routing_fanout_bits(&self, p: FpgaPlatform) -> u64 {
        match p {
            FpgaPlatform::Arria10Gx => self.routing_fanout_bits_a10,
            FpgaPlatform::Stratix10Sx => self.routing_fanout_bits_s10sx,
            FpgaPlatform::Stratix10Mx => self.routing_fanout_bits_s10mx,
        }
    }

    /// DDR efficiency for an access of the given coalesced width.
    pub fn mem_efficiency(&self, width_elems: u64) -> f64 {
        if width_elems >= 16 {
            self.mem_eff_wide
        } else if width_elems >= 4 {
            self.mem_eff_mid
        } else {
            self.mem_eff_narrow
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_buckets_are_monotone() {
        let c = Calib::default();
        assert!(c.mem_efficiency(1) < c.mem_efficiency(4));
        assert!(c.mem_efficiency(4) < c.mem_efficiency(32));
    }

    #[test]
    fn iis_are_ordered() {
        let c = Calib::default();
        assert!(c.ii_private_relaxed < c.ii_local_accum);
        // Global accumulation is charged *per chained MAC* (the unrolled
        // reduction serializes through memory), so even a modest per-MAC II
        // dominates the private single-cycle accumulator.
        assert!(c.ii_global_accum > c.ii_private_relaxed);
        assert!(c.ii_private_relaxed < c.ii_private_strict);
    }

    #[test]
    fn s10sx_routes_less_fanout_than_mx() {
        // §6.3.2: 7/16/8 fails on S10SX while 7/32/4 routes on S10MX.
        let c = Calib::default();
        assert!(
            c.routing_fanout_bits(FpgaPlatform::Stratix10Sx)
                < c.routing_fanout_bits(FpgaPlatform::Stratix10Mx)
        );
    }
}
