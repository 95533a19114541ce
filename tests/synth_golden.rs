//! Pins what the AOC synthesis model makes of every kernel the kernel
//! golden enumerates (`kernel_set/mod.rs`: its designs and its generator
//! matrix), byte for byte. Each line holds 64-bit FNV-1a digests of a
//! `{:?}` form, one per board in `FpgaPlatform::ALL` order, so the
//! platform-dependent footnote-4 auto-unroll is pinned on every board:
//!
//! * per distinct design kernel (its IR digest and its design's AOC
//!   options), the `KernelReport` of `synthesize_kernel`;
//! * per design, the `BitstreamReport` that `Flow::compile` builds over
//!   the design's source graph on the design's own board, or the compile
//!   error;
//! * per generator-matrix kernel, the `KernelReport` under the default
//!   options;
//! * a kernel the analysis rejects, an unrolled loop over a symbolic
//!   extent, by its panic message.
//!
//! A second test compiles every unquantized design and simulates a batch
//! on it, and checks that neither generated a weight of the design's
//! source graph: a compile reads weight shapes only.
//!
//! A refactor of the synthesis model or the kernel analysis must pass
//! `fixtures/synth_golden.txt` unedited. Regenerate it only in a commit of
//! its own that explains the intended change; the test has no
//! regeneration switch, so write the new bytes from a temporary copy of
//! the test that writes them out.

mod kernel_set;

use fpgaccel::aoc::{synthesize_kernel, AocOptions, Calib};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::tir::{BufRole, BufferDecl, IExpr, Kernel, Stmt, VExpr};
use kernel_set::{designs, digest, matrix, Design};
use std::collections::HashSet;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The kernel's report digest on each board, space-separated.
fn reports(k: &Kernel, opts: &AocOptions) -> String {
    let calib = Calib::default();
    let digests: Vec<String> = FpgaPlatform::ALL
        .iter()
        .map(|p| digest(&synthesize_kernel(k, &p.model(), opts, &calib)))
        .collect();
    digests.join(" ")
}

/// A kernel that fully unrolls a loop of symbolic trip count, which AOC
/// refuses (§4.1).
fn rejected() -> Kernel {
    let store = Stmt::store("y", IExpr::var("i"), VExpr::Const(0.0));
    let mut k = Kernel::new("rejected", Stmt::unrolled("i", IExpr::var("n"), store));
    k.bufs = vec![BufferDecl::global("y", BufRole::Output, IExpr::var("n"))];
    k.int_params = vec!["n".into()];
    k
}

/// The panic message of synthesizing `k` on `platform`.
fn panic_message(k: &Kernel, platform: FpgaPlatform) -> String {
    let synth = || {
        let opts = AocOptions::default();
        synthesize_kernel(k, &platform.model(), &opts, &Calib::default())
    };
    let payload = catch_unwind(AssertUnwindSafe(synth)).expect_err("analysis must reject it");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The fixture's text.
fn render() -> String {
    let designs = designs();
    let boards: Vec<&str> = FpgaPlatform::ALL.iter().map(|p| p.label()).collect();
    let mut out = String::new();
    writeln!(
        out,
        "== design kernels: name ir precision {} ==",
        boards.join(" ")
    )
    .unwrap();
    let mut seen = HashSet::new();
    for d in &designs {
        let opts = d.config.aoc;
        for k in d.kernels.iter().flatten() {
            let ir = digest(k);
            if seen.insert(format!("{ir} {opts:?}")) {
                let line = reports(k, &opts);
                writeln!(out, "{} {ir} {:?} {line}", k.name, opts.precision).unwrap();
            }
        }
    }
    writeln!(out, "== design bitstreams ==").unwrap();
    for (i, d) in designs.iter().enumerate() {
        match d.compile() {
            Ok(dep) => writeln!(out, "{i:02} {} {}", d.name, digest(&dep.bitstream)),
            Err(e) => writeln!(out, "{i:02} {} error {e}", d.name),
        }
        .unwrap();
    }
    writeln!(out, "== generator matrix: {} ==", boards.join(" ")).unwrap();
    for (label, k) in matrix() {
        writeln!(out, "{label} {}", reports(&k, &AocOptions::default())).unwrap();
    }
    writeln!(out, "== rejected ==").unwrap();
    let k = rejected();
    for p in FpgaPlatform::ALL {
        writeln!(out, "{} {}", p.label(), panic_message(&k, p)).unwrap();
    }
    out
}

#[test]
fn synthesis_matches_the_committed_golden() {
    let golden = include_str!("fixtures/synth_golden.txt");
    let actual = render();
    if let Some((i, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "synth_golden.txt line {} differs:\n  golden: {want}\n  actual: {got}",
            i + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "synth_golden.txt has a different number of lines"
    );
}

/// The weights of a design's source graph: `(weighted nodes, generated)`.
fn weight_state(d: &Design) -> (usize, usize) {
    let weights = d.source.nodes.iter().filter_map(|n| n.weights.as_deref());
    weights.fold((0, 0), |(n, g), w| {
        (n + 1, g + usize::from(w.is_generated()))
    })
}

#[test]
fn compiling_and_simulating_a_design_generates_no_weight() {
    let designs = designs();
    // Calibration reads the values, so a quantized compile generates them.
    let unquantized: Vec<&Design> = designs
        .iter()
        .filter(|d| d.config.quant.is_none())
        .collect();
    assert!(unquantized.iter().map(|d| weight_state(d).0).sum::<usize>() > 0);
    let untouched = |d: &Design, by: &str| {
        assert_eq!(weight_state(d).1, 0, "{}: {by} generated weights", d.name);
    };
    for d in &unquantized {
        untouched(d, "planning");
    }
    for d in &unquantized {
        if let Ok(dep) = d.compile() {
            dep.simulate_batch(2);
        }
        untouched(d, "compiling or simulating");
    }
}
