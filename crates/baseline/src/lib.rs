//! # fpgaccel-baseline
//!
//! The CPU/GPU side of the thesis evaluation (§6.2, Tables 6.3/6.10/6.12/6.15):
//! [`frameworks`] holds calibrated performance models of the closed-source
//! comparators (Keras/TensorFlow CPU, TVM LLVM-CPU with 1–56 threads,
//!   TensorFlow + cuDNN on the GTX 1060). The anchor FPS values are copied
//!   from the thesis tables; thread-scaling curves are fit to
//!   Figures 6.4–6.7. See DESIGN.md for the substitution rationale: a 2021
//!   Xeon-8280 + TF 2.1 stack is not reproducible here, and the comparison
//!   tables need the *published* numbers as the yardstick.
//!
//! The functional ground truth, and the measured host FPS of `repro
//! host_engine`, come from the fused graph executor itself
//! (`Model::build().fuse()` and `Graph::execute` in `fpgaccel-tensor`).

#![warn(missing_docs)]

pub mod frameworks;

pub use frameworks::{reference_fps, Framework};
