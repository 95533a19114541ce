//! # fpgaccel-tensor
//!
//! The tensor substrate for the fpgaccel reproduction of *Optimization of
//! Compiler-Generated OpenCL CNN Kernels and Runtime for FPGAs* (Chung, 2021).
//!
//! This crate provides everything the deep-learning side of the flow needs:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor in NCHW layout conventions
//!   (the thesis assumes batch size `N = 1` throughout, §2.1.2).
//! * [`ops`] — reference implementations of every CNN operator the thesis
//!   deploys: direct 2-D convolution, depthwise convolution, max/average
//!   pooling, dense (fully-connected) layers, ReLU/ReLU6, numerically-stable
//!   softmax, zero padding, residual addition and inference-time batch
//!   normalization.
//! * [`flops`] — FLOP/parameter accounting following the cost formulas of
//!   §2.1.2 (a multiply and an add are counted as two floating-point
//!   operations, matching §6.1.2).
//! * [`graph`] — a Relay-like computation-graph IR with the operator-fusion
//!   pass described in §3.1 (injective ops, bias, batch norm and residual adds
//!   fuse into the producing convolution/dense node) and the
//!   padding-materialization pass that gives each padded convolution the
//!   separate `pad` kernel TVM generates.
//! * [`models`] — builders for the three evaluation networks: LeNet-5
//!   (Table 2.1), MobileNetV1 (Table 2.2) and ResNet-18/34 (Table 2.3).
//! * [`data`] — deterministic synthetic inputs (MNIST-like digits and
//!   ImageNet-size random tensors, §6.1.1).
//!
//! All randomness is seeded; every function in this crate is deterministic.

#![warn(missing_docs)]

pub mod data;
pub mod flops;
pub mod graph;
pub mod models;
pub mod ops;
pub mod par;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use graph::{Graph, Node, NodeId, Op, Weights};
pub use shape::Shape;
pub use tensor::Tensor;

/// Comparison tolerance used across the workspace when validating simulated
/// FPGA outputs against the host graph executor. The thesis enables
/// `-fp-relaxed` tree balancing, which reassociates floating-point reductions
/// (§4.10), so bit-exact equality is not expected; a relative tolerance is.
pub const FP_RELAXED_RTOL: f32 = 1e-4;

/// Returns `true` if `a` and `b` are element-wise close within `rtol`
/// (relative) and `atol` (absolute) tolerances, `false` otherwise (including
/// on shape mismatch).
pub fn allclose(a: &Tensor, b: &Tensor, rtol: f32, atol: f32) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.data()
        .iter()
        .zip(b.data())
        .all(|(&x, &y)| (x - y).abs() <= atol + rtol * y.abs().max(x.abs()))
}

/// Maximum absolute element-wise difference between two tensors.
///
/// # Panics
/// Panics if the shapes differ.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in max_abs_diff");
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f32::max)
}
