//! Pins every kernel the generators and the node lowering build, byte for
//! byte. `codegen_golden.rs` checks the thesis listings' shapes by
//! substring; this fixture holds, for each design below, every kernel's
//! name and a 64-bit FNV-1a digest of its `{:?}` IR, then the emitted
//! OpenCL C of each distinct design kernel once, then one digest line per
//! kernel of a generator matrix.
//!
//! Designs:
//! * the 58 designs of the benchmark's `sweep` workload: every model and
//!   platform under its baseline and optimized configuration, the LeNet-5
//!   ladder serial and concurrent, MobileNetV1 dataflow on each platform
//!   and the Table 6.6 tilings on the Arria 10. They are built with the
//!   plan builders on `Flow::import_graph()`, so the five designs that do
//!   not fit the Arria 10 are pinned too;
//! * the explicit-strides ablation of `repro ablations`;
//! * folded MobileNetV1 with `parameterized: false`, the per-layer path
//!   quantized configurations take;
//! * LeNet-5 dataflow under the naive preset, under a MobileNet preset its
//!   layers do not divide, and without optimized schedules, which reach
//!   the stage lowering's fallback schedules;
//! * a parameterized LeNet-5 pool whose preset dense factor divides no
//!   layer, and a small dataflow chain headed by a depthwise convolution
//!   that streams average pooling into a dense layer the preset unrolls;
//! * two plans that fail to lower, pinned by their error: a per-layer
//!   dense factor that does not divide its layer, and an unfused graph;
//! * LeNet-5 compiled at int8 and fp16, for the `tir::quantize` rewrite.
//!
//! The matrix crosses every public `tir::compute` generator with four I/O
//! modes on each side (global memory, a scalar channel, a wide channel
//! whose width divides every row and one whose width divides none) and
//! with each schedule, depthwise and not, with no epilogue and with
//! bias + batch norm + residual + ReLU6, at strides 1 and 2, and with
//! symbolic dims.
//!
//! The designs and the matrix are enumerated in `kernel_set/mod.rs`, which
//! `synth_golden.rs` shares.
//!
//! A refactor must pass `fixtures/kernel_golden.txt` unedited. Regenerate
//! it only in a commit of its own that explains the intended change; the
//! test has no regeneration switch, so write the new bytes from a
//! temporary copy of the test that writes them out.

mod kernel_set;

use fpgaccel::tir::codegen::emit_kernel;
use kernel_set::{designs, digest, matrix};
use std::collections::HashSet;
use std::fmt::Write;

/// The fixture's text.
fn render() -> String {
    let designs = designs();
    let mut out = String::new();
    for (i, d) in designs.iter().enumerate() {
        writeln!(out, "== design {i:02} {} ==", d.name).unwrap();
        match &d.kernels {
            Ok(ks) => {
                for k in ks {
                    writeln!(out, "kernel {} {}", k.name, digest(k)).unwrap();
                }
            }
            Err(e) => writeln!(out, "error {e}").unwrap(),
        }
    }
    let mut seen = HashSet::new();
    for k in designs.iter().flat_map(|d| d.kernels.iter().flatten()) {
        let dg = digest(k);
        if seen.insert(dg.clone()) {
            writeln!(out, "== opencl {} {dg} ==", k.name).unwrap();
            out.push_str(&emit_kernel(k));
        }
    }
    writeln!(out, "== generator matrix ==").unwrap();
    for (label, k) in matrix() {
        writeln!(out, "{label} {}", digest(&k)).unwrap();
    }
    out
}

#[test]
fn kernels_match_the_committed_golden() {
    let golden = include_str!("fixtures/kernel_golden.txt");
    let actual = render();
    if let Some((i, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "kernel_golden.txt line {} differs:\n  golden: {want}\n  actual: {got}",
            i + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "kernel_golden.txt has a different number of lines"
    );
}
