//! # fpgaccel-aoc
//!
//! An analytic simulator of the Intel FPGA SDK for OpenCL offline compiler
//! ("AOC") plus Quartus place & route, as the thesis uses them (§2.4). The
//! real toolchain takes 5–12 hours per bitstream (§4.11); this model
//! implements the mechanisms the thesis' results hinge on and evaluates them
//! in microseconds:
//!
//! * **LSU inference** (§2.4.3): burst-coalesced / prefetching / streaming
//!   LSUs chosen from access patterns; coalescing widens LSUs along
//!   unit-stride unrolled loops, non-unit/symbolic strides replicate them.
//! * **Initiation-interval analysis** (§2.4.4, §5.1.1): a global-scratchpad
//!   accumulation defeats the single-cycle accumulator; private-register
//!   accumulators reach II = 1 under `-fp-relaxed`.
//! * **Resource estimation** (§4.1): unrolling replicates DSPs and logic;
//!   LSUs consume logic and BRAM; caches and local buffers consume BRAM.
//! * **fmax / congestion model** (§6.5): utilization degrades fmax; designs
//!   whose LSU fanout exceeds the platform's routing capacity fail to route,
//!   and designs exceeding chip resources fail to fit.
//! * **Cycle-level timing** (§2.4.4): pipelined loops launch an iteration
//!   every II cycles, throttled by external-memory bandwidth with
//!   width-dependent efficiency; serial loops multiply their body latency.
//! * **Quartus-version behaviour** (§6.3.1 footnote 4): versions < 19.1
//!   auto-unroll small-trip-count loops (the A10 and S10SX baselines get a
//!   free `F x F` unroll; the S10MX does not — reproducing the asymmetric
//!   gains of Figure 6.1).
//!
//! Every tunable constant lives in [`calib::Calib`] with provenance notes.

#![warn(missing_docs)]

pub mod calib;
pub mod report;
pub mod synth;
pub mod timing;
pub mod transform;

pub use calib::Calib;
pub use synth::{
    assemble_bitstream, synthesize, synthesize_kernel, synthesize_mixed, AocOptions,
    BitstreamReport, KernelReport, LsuKind, LsuReport, Precision, SynthesisError,
};
pub use timing::kernel_cycles;
