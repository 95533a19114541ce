//! # fpgaccel-tir
//!
//! A tensor-expression loop IR standing in for the slice of TVM the thesis
//! uses (§2.5, Chapter 5): compute definitions lowered to loop nests,
//! schedule transformations (strip mining/tiling, unrolling, fusion, cached
//! reads/writes, loop-invariant code motion), symbolic shapes for
//! parameterized kernels (§5.3), an OpenCL-C code generator producing kernels
//! shaped like the thesis listings, and a reference interpreter used to prove
//! the fast native implementations compute exactly what the IR says.
//!
//! The IR is deliberately small: it can express every kernel in Chapters 4–5
//! (direct/depthwise/1x1 convolutions, dense, softmax, pooling, padding,
//! copies, channelized variants) and nothing more.
//!
//! Structure:
//!
//! * [`dim`] — constant/symbolic dimensions, runtime bindings and the
//!   [`Name`] of every loop variable, symbolic dimension and buffer.
//! * [`expr`] — integer index expressions, float value expressions, boolean
//!   guards, and the affine stride analysis that decides whether AOC can
//!   coalesce a memory access (§2.4.3, §5.3).
//! * [`stmt`] — loop statements with pipelining/unroll annotations.
//! * [`kernel`] — a complete OpenCL kernel: buffers, scalar args, channels,
//!   autorun attributes.
//! * [`compute`] — the kernel generators: base (TVM default) and optimized
//!   schedules for every operator, with global or channel I/O.
//! * [`schedule`] — reusable schedule primitives (`split`, `unroll`).
//! * [`quantize`] — the narrow-MAC pass: quantized loads, integer multiply
//!   semantics, requantization at layer boundaries.
//! * [`codegen`] — OpenCL C emission.
//! * [`interp`] — the reference interpreter.
//! * [`analysis`] — the structural facts the AOC simulator consumes.

#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
pub mod compute;
pub mod dim;
pub mod expr;
pub mod interp;
pub mod kernel;
pub mod quantize;
pub mod schedule;
pub mod stmt;

pub use dim::{Binding, Dim, Name};
pub use expr::{BExpr, Coeff, IExpr, QuantMode, VExpr};
pub use kernel::{BufRole, BufferDecl, ChannelDecl, Kernel, Scope};
pub use quantize::{quantize_kernel, KernelQuant};
pub use stmt::{LoopAttr, Stmt};
