//! Randomized property tests over the core invariants (seeded, deterministic
//! — a hermetic replacement for the original proptest suite):
//!
//! * every convolution/dense/softmax schedule — base, fused, tiled,
//!   parameterized — computes the same function (IR interpreter vs the
//!   native reference operators), for randomized shapes and data;
//! * schedule transformations (`split`, `unroll`) preserve semantics;
//! * graph fusion and padding materialization preserve network outputs;
//! * the AOC resource model is monotone in unroll factors.
//!
//! Each test draws its case parameters from a seeded [`Rng64`] stream, so a
//! failure reproduces exactly from the printed case number.

use fpgaccel::tensor::ops::{self, Activation, Conv2dParams};
use fpgaccel::tensor::rng::Rng64;
use fpgaccel::tensor::{allclose, Shape, Tensor};
use fpgaccel::tir::compute::{
    conv2d, dense, softmax, ConvDims, ConvSchedule, ConvSpec, DenseSchedule, DenseSpec,
    EpilogueSpec, IoMode,
};
use fpgaccel::tir::interp::Interp;
use fpgaccel::tir::{Binding, Dim};
use std::collections::HashMap;

const CASES: usize = 24;

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

fn pick(rng: &mut Rng64, choices: &[usize]) -> usize {
    choices[rng.below(choices.len() as u64) as usize]
}

/// Any tiled convolution schedule == the native reference, for random
/// geometry, stride, tile factors and epilogue.
#[test]
fn tiled_conv_matches_reference() {
    let mut rng = Rng64::seed_from_u64(0xC0_4401);
    for case in 0..CASES {
        let c2 = pick(&mut rng, &[2, 4, 6]);
        let c1 = pick(&mut rng, &[1, 2, 4]);
        let hw = 3 + rng.below(4) as usize;
        let s = 1 + rng.below(2) as usize;
        let f = pick(&mut rng, &[1, 3]);
        let seed = rng.next_u64() % 1000;
        let relu = rng.below(2) == 0;
        let bias = rng.below(2) == 0;
        // Pick random-but-valid tile factors.
        let w2vec = pick(&mut rng, &divisors(hw));
        let c2vec = pick(&mut rng, &divisors(c2));
        let c1vec = pick(&mut rng, &divisors(c1));

        let h1 = s * (hw - 1) + f;
        let input = Tensor::random(Shape::chw(c1, h1, h1), seed, 1.0);
        let w = Tensor::random(Shape::kcff(c2, c1, f), seed ^ 1, 0.5);
        let bias_v: Vec<f32> = (0..c2).map(|i| i as f32 * 0.1 - 0.2).collect();

        let p = Conv2dParams {
            stride: s,
            pad: 0,
            bias: bias.then(|| bias_v.clone()),
            bn: None,
            activation: if relu {
                Activation::Relu
            } else {
                Activation::None
            },
        };
        let expect = ops::conv2d(&input, &w, &p);

        let spec = ConvSpec {
            name: "prop_conv".into(),
            dims: ConvDims::constant(c2, c1, hw, hw, f, s),
            depthwise: false,
            epilogue: EpilogueSpec {
                bias,
                bn: false,
                residual: false,
                activation: p.activation,
            },
            io_in: IoMode::Global,
            io_out: IoMode::Global,
            schedule: ConvSchedule::Tiled {
                w2vec,
                c2vec,
                c1vec,
            },
            explicit_strides: false,
        };
        let kernel = conv2d(&spec);
        let mut inputs = HashMap::new();
        inputs.insert("in_fm".to_string(), input.data().to_vec());
        inputs.insert("w".to_string(), w.data().to_vec());
        if bias {
            inputs.insert("bias".to_string(), bias_v);
        }
        let out = Interp::new().run(&kernel, &Binding::empty(), &inputs);
        let got = Tensor::from_vec(expect.shape().clone(), out["out_fm"].clone());
        assert!(
            allclose(&got, &expect, 1e-4, 1e-5),
            "case {case}: tiled {w2vec}/{c2vec}/{c1vec} f={f} s={s} mismatch"
        );
    }
}

/// The parameterized (symbolic-shape) kernel matches the reference for
/// every binding it is invoked with — the §4.9 time-multiplexing invariant.
#[test]
fn parameterized_conv_matches_reference_across_bindings() {
    let mut rng = Rng64::seed_from_u64(0xC0_4402);
    for case in 0..CASES {
        let seed = rng.next_u64() % 500;
        let c2 = 2 * (1 + rng.below(4) as usize);
        let c1 = 2 * (1 + rng.below(4) as usize);
        let hw = 3 + rng.below(5) as usize;

        let dims = ConvDims {
            c2: Dim::sym("ff"),
            c1: Dim::sym("rc"),
            h2: Dim::sym("hh"),
            w2: Dim::sym("ww"),
            h1: Dim::sym("ih"),
            w1: Dim::sym("iw"),
            f: 3,
            s: 1,
        };
        let mut spec = ConvSpec::base("prop_param", dims, false);
        spec.schedule = ConvSchedule::Tiled {
            w2vec: 1,
            c2vec: 1,
            c1vec: 2,
        };
        let kernel = conv2d(&spec);

        let h1 = hw + 2;
        let input = Tensor::random(Shape::chw(c1, h1, h1), seed, 1.0);
        let w = Tensor::random(Shape::kcff(c2, c1, 3), seed ^ 2, 0.5);
        let expect = ops::conv2d(&input, &w, &Conv2dParams::plain(1, 0));

        let binding = Binding::of(&[
            ("ff", c2),
            ("rc", c1),
            ("hh", hw),
            ("ww", hw),
            ("ih", h1),
            ("iw", h1),
        ]);
        let mut inputs = HashMap::new();
        inputs.insert("in_fm".to_string(), input.data().to_vec());
        inputs.insert("w".to_string(), w.data().to_vec());
        let out = Interp::new().run(&kernel, &binding, &inputs);
        let got = Tensor::from_vec(expect.shape().clone(), out["out_fm"].clone());
        assert!(
            allclose(&got, &expect, 1e-4, 1e-5),
            "case {case}: binding c2={c2} c1={c1} hw={hw} mismatch"
        );
    }
}

/// Dense schedules match for any unroll factor dividing N.
#[test]
fn dense_unroll_matches_reference() {
    let mut rng = Rng64::seed_from_u64(0xC0_4403);
    for case in 0..CASES {
        let m = 1 + rng.below(11) as usize;
        let n = 4 * (1 + rng.below(7) as usize);
        let seed = rng.next_u64() % 1000;
        let factor = pick(&mut rng, &divisors(n));
        let x = Tensor::random(Shape::d1(n), seed, 1.0);
        let w = Tensor::random(Shape::d2(m, n), seed ^ 3, 0.5);
        let expect = ops::dense(&x, &w, None, Activation::None);
        let spec = DenseSpec {
            name: "prop_fc".into(),
            m: Dim::Const(m),
            n: Dim::Const(n),
            epilogue: EpilogueSpec::default(),
            io_in: IoMode::Global,
            io_out: IoMode::Global,
            schedule: DenseSchedule::Unrolled { factor },
        };
        let kernel = dense(&spec);
        let mut inputs = HashMap::new();
        inputs.insert("in_v".to_string(), x.data().to_vec());
        inputs.insert("w".to_string(), w.data().to_vec());
        let out = Interp::new().run(&kernel, &Binding::empty(), &inputs);
        let got = Tensor::from_vec(Shape::d1(m), out["out_v"].clone());
        assert!(
            allclose(&got, &expect, 1e-4, 1e-5),
            "case {case}: dense m={m} n={n} factor={factor} mismatch"
        );
    }
}

/// Optimized softmax (loop-invariant code motion) == base softmax ==
/// reference, and outputs always form a distribution.
#[test]
fn softmax_schedules_agree_and_normalize() {
    let mut rng = Rng64::seed_from_u64(0xC0_4404);
    for case in 0..CASES {
        let n = 2 + rng.below(38) as usize;
        let seed = rng.next_u64() % 1000;
        let x = Tensor::random(Shape::d1(n), seed, 5.0);
        let expect = ops::softmax(&x);
        for optimized in [false, true] {
            let k = softmax("prop_sm", n, IoMode::Global, IoMode::Global, optimized);
            let mut inputs = HashMap::new();
            inputs.insert("in_v".to_string(), x.data().to_vec());
            let out = Interp::new().run(&k, &Binding::empty(), &inputs);
            let got = Tensor::from_vec(Shape::d1(n), out["out_v"].clone());
            assert!(
                allclose(&got, &expect, 1e-4, 1e-6),
                "case {case}: softmax n={n} optimized={optimized} mismatch"
            );
            let total: f32 = got.data().iter().sum();
            assert!((total - 1.0).abs() < 1e-4, "case {case}: sum {total}");
        }
    }
}

/// `split` + `unroll` preserve loop-nest semantics for a reduction.
#[test]
fn split_unroll_preserve_semantics() {
    use fpgaccel::tir::kernel::{BufRole, BufferDecl, Kernel};
    use fpgaccel::tir::schedule::{split, unroll};
    use fpgaccel::tir::{IExpr, Stmt, VExpr};

    let mut rng = Rng64::seed_from_u64(0xC0_4405);
    for case in 0..CASES {
        let n = 4 * (1 + rng.below(8) as usize);
        let seed = rng.next_u64() % 1000;
        let factor = pick(&mut rng, &divisors(n));
        // y[0] += a[i] * b[i]
        let body = Stmt::for_(
            "i",
            IExpr::Const(n as i64),
            Stmt::store(
                "y",
                IExpr::Const(0),
                VExpr::load("y", IExpr::Const(0))
                    .add(VExpr::load("a", IExpr::var("i")).mul(VExpr::load("b", IExpr::var("i")))),
            ),
        );
        let transformed = unroll(&split(&body, "i", factor), "i_i");
        let mk = |b: Stmt| {
            let mut k = Kernel::new("dot", b);
            k.bufs = vec![
                BufferDecl::global("a", BufRole::Input, IExpr::Const(n as i64)),
                BufferDecl::global("b", BufRole::Weights, IExpr::Const(n as i64)),
                BufferDecl::global("y", BufRole::Output, IExpr::Const(1)),
            ];
            k
        };
        let a = Tensor::random(Shape::d1(n), seed, 1.0);
        let b = Tensor::random(Shape::d1(n), seed ^ 5, 1.0);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), a.data().to_vec());
        inputs.insert("b".to_string(), b.data().to_vec());
        let base_out = Interp::new().run(&mk(body), &Binding::empty(), &inputs);
        let opt_out = Interp::new().run(&mk(transformed), &Binding::empty(), &inputs);
        assert!(
            (base_out["y"][0] - opt_out["y"][0]).abs() < 1e-4,
            "case {case}: n={n} factor={factor}"
        );
    }
}

/// The full schedule chain the auto-tuner composes — `fuse_loops` →
/// `try_split` → `unroll` → `hoist_invariants` — preserves loop-nest
/// semantics at *every* intermediate step, for randomized extents, split
/// factors and data. The nest is the tuner's worst case: two adjacent
/// equal-extent loops inside an outer loop whose body starts with a
/// loop-invariant store.
#[test]
fn schedule_chain_preserves_semantics_at_each_step() {
    use fpgaccel::tir::kernel::{BufRole, BufferDecl, Kernel};
    use fpgaccel::tir::schedule::{hoist_invariants, try_split, unroll};
    use fpgaccel::tir::{IExpr, Stmt, VExpr};

    let mut rng = Rng64::seed_from_u64(0xC0_4408);
    for case in 0..CASES {
        let m = 1 + rng.below(6) as usize;
        let n = 4 * (1 + rng.below(6) as usize);
        let factor = pick(&mut rng, &divisors(n));
        let scale = 0.25 + (rng.below(8) as f32) * 0.25;
        let seed = rng.next_u64() % 1000;

        // for o in 0..m:
        //     tmp[0] = scale                      (invariant in o)
        //     for i in 0..n: out[o*n+i]  = a[o*n+i] * tmp[0]
        //     for j in 0..n: out[o*n+j] += b[j]   (element-wise: fusible)
        let row = |v: &'static str| {
            IExpr::var("o")
                .mul(IExpr::Const(n as i64))
                .add(IExpr::var(v))
        };
        let base = Stmt::for_(
            "o",
            IExpr::Const(m as i64),
            Stmt::block(vec![
                Stmt::store("tmp", IExpr::Const(0), VExpr::Const(scale)),
                Stmt::for_(
                    "i",
                    IExpr::Const(n as i64),
                    Stmt::store(
                        "out",
                        row("i"),
                        VExpr::load("a", row("i")).mul(VExpr::load("tmp", IExpr::Const(0))),
                    ),
                ),
                Stmt::for_(
                    "j",
                    IExpr::Const(n as i64),
                    Stmt::store(
                        "out",
                        row("j"),
                        VExpr::load("out", row("j")).add(VExpr::load("b", IExpr::var("j"))),
                    ),
                ),
            ]),
        );
        let fused = fpgaccel::tir::schedule::fuse_loops(&base, "i", "j");
        let split_ = try_split(&fused, "i", factor)
            .unwrap_or_else(|e| panic!("case {case}: split by divisor {factor} of {n}: {e}"));
        let unrolled = unroll(&split_, "i_i");
        let hoisted = hoist_invariants(&unrolled, "o");

        let mk = |b: &Stmt| {
            let mut k = Kernel::new("chain", b.clone());
            k.bufs = vec![
                BufferDecl::global("a", BufRole::Input, IExpr::Const((m * n) as i64)),
                BufferDecl::global("b", BufRole::Weights, IExpr::Const(n as i64)),
                BufferDecl::private("tmp", IExpr::Const(1)),
                BufferDecl::global("out", BufRole::Output, IExpr::Const((m * n) as i64)),
            ];
            k
        };
        let a = Tensor::random(Shape::d1(m * n), seed, 1.0);
        let b = Tensor::random(Shape::d1(n), seed ^ 11, 1.0);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), a.data().to_vec());
        inputs.insert("b".to_string(), b.data().to_vec());
        let expect: Vec<f32> = (0..m * n)
            .map(|idx| a.data()[idx] * scale + b.data()[idx % n])
            .collect();

        for (stage, stmt) in [
            ("base", &base),
            ("fused", &fused),
            ("split", &split_),
            ("unrolled", &unrolled),
            ("hoisted", &hoisted),
        ] {
            let out = Interp::new().run(&mk(stmt), &Binding::empty(), &inputs);
            let got = Tensor::from_vec(Shape::d1(m * n), out["out"].clone());
            let want = Tensor::from_vec(Shape::d1(m * n), expect.clone());
            assert!(
                allclose(&got, &want, 1e-5, 1e-6),
                "case {case}: stage {stage} m={m} n={n} factor={factor} mismatch"
            );
        }
    }
}

/// Fusion + padding materialization preserve network semantics on
/// randomized small conv networks.
#[test]
fn graph_passes_preserve_semantics() {
    use fpgaccel::tensor::graph::{Graph, Op};
    let mut rng = Rng64::seed_from_u64(0xC0_4406);
    for case in 0..CASES {
        let seed = rng.next_u64() % 300;
        let channels = 1 + rng.below(3) as usize;
        let pad = rng.below(2) as usize;
        let use_bn = rng.below(2) == 0;

        let mut g = Graph::new("prop", Shape::chw(channels, 8, 8));
        let k = 2 * channels;
        let w = Tensor::random(Shape::kcff(k, channels, 3), seed, 0.5);
        let c = g.push_with_params(
            "conv",
            Op::Conv2d {
                out_channels: k,
                kernel: 3,
                stride: 1,
                pad,
                depthwise: false,
            },
            vec![0],
            Some(w),
            None,
            None,
        );
        let mut last = c;
        if use_bn {
            let bn = g.push_with_params(
                "bn",
                Op::BatchNorm,
                vec![c],
                None,
                None,
                Some((
                    (0..k).map(|i| 1.0 + 0.01 * i as f32).collect(),
                    (0..k).map(|i| 0.01 * i as f32).collect(),
                )),
            );
            last = bn;
        }
        let r = g.push("relu", Op::Relu, vec![last]);
        let p = g.push(
            "pool",
            Op::MaxPool {
                window: 2,
                stride: 2,
                pad: 0,
            },
            vec![r],
        );
        g.push("flat", Op::Flatten, vec![p]);

        let x = Tensor::random(Shape::chw(channels, 8, 8), seed ^ 7, 1.0);
        let expect = g.execute(&x);
        let transformed = g.fuse().materialize_padding();
        let got = transformed.execute(&x);
        assert!(
            allclose(&got, &expect, 1e-4, 1e-5),
            "case {case}: channels={channels} pad={pad} bn={use_bn}"
        );
    }
}

/// The im2col + GEMM convolution computes the same function as the direct
/// convolution for arbitrary geometry, stride and padding.
#[test]
fn gemm_conv_matches_direct() {
    let mut rng = Rng64::seed_from_u64(0xC0_4407);
    let mut tested = 0;
    while tested < CASES {
        let c1 = 1 + rng.below(4) as usize;
        let k = 1 + rng.below(4) as usize;
        let h = 4 + rng.below(6) as usize;
        let f = 1 + rng.below(3) as usize;
        let s = 1 + rng.below(2) as usize;
        let pad = rng.below(2) as usize;
        let seed = rng.next_u64() % 1000;
        if h + 2 * pad < f {
            continue;
        }
        tested += 1;
        let input = Tensor::random(Shape::chw(c1, h, h), seed, 1.0);
        let w = Tensor::random(Shape::kcff(k, c1, f), seed ^ 9, 0.5);
        let p = Conv2dParams {
            stride: s,
            pad,
            bias: None,
            bn: None,
            activation: Activation::Relu,
        };
        let direct = ops::conv2d(&input, &w, &p);
        let gemm = ops::conv2d_im2col(&input, &w, &p);
        assert!(
            allclose(&gemm, &direct, 1e-4, 1e-5),
            "c1={c1} k={k} h={h} f={f} s={s} pad={pad}"
        );
    }
}

/// The per-pixel depthwise loop the row-tap kernel replaced: each output
/// element sums its in-bounds taps from 0.0 in `(ry, rx)` order, then runs
/// the epilogue.
fn depthwise_per_pixel(input: &Tensor, w: &Tensor, p: &Conv2dParams) -> Vec<f32> {
    let (c, h1, w1) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let f = w.shape().dim(2);
    let h2 = (h1 + 2 * p.pad - f) / p.stride + 1;
    let w2 = (w1 + 2 * p.pad - f) / p.stride + 1;
    let mut out = Vec::with_capacity(c * h2 * w2);
    for ch in 0..c {
        for yy in 0..h2 {
            for xx in 0..w2 {
                let mut acc = 0.0f32;
                for ry in 0..f {
                    for rx in 0..f {
                        let iy = (p.stride * yy + ry) as isize - p.pad as isize;
                        let ix = (p.stride * xx + rx) as isize - p.pad as isize;
                        if (0..h1 as isize).contains(&iy) && (0..w1 as isize).contains(&ix) {
                            acc += input.data()[(ch * h1 + iy as usize) * w1 + ix as usize]
                                * w.data()[(ch * f + ry) * f + rx];
                        }
                    }
                }
                out.push(p.epilogue(ch, acc));
            }
        }
    }
    out
}

/// The row-tap depthwise kernel is bit-identical to the per-pixel loop for
/// strides 1–3, pads 0–2 and windows 1–5, on planes from 1×1 up, ragged
/// widths, every epilogue, and planes large enough to run in parallel.
#[test]
fn depthwise_is_bit_identical_to_the_per_pixel_loop() {
    let mut rng = Rng64::seed_from_u64(0xC0_440D);
    let mut tested = 0;
    for s in 1..=3 {
        for pad in 0..=2 {
            for f in 1..=5 {
                for h in 1..=7 {
                    for w in [h, 1 + rng.below(19) as usize] {
                        if h + 2 * pad < f || w + 2 * pad < f {
                            continue;
                        }
                        let c = 1 + rng.below(3) as usize;
                        assert_depthwise_bits(&mut rng, c, h, w, f, s, pad);
                        tested += 1;
                    }
                }
            }
        }
    }
    // Above the parallel threshold, so the channels are split over threads.
    for (c, hw, f, s, pad) in [(3, 80, 3, 1, 1), (5, 83, 3, 2, 1), (2, 97, 5, 3, 2)] {
        assert_depthwise_bits(&mut rng, c, hw, hw + 3, f, s, pad);
        tested += 1;
    }
    assert_eq!(tested, 548, "every shape that fits its window runs");
}

fn assert_depthwise_bits(
    rng: &mut Rng64,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    s: usize,
    pad: usize,
) {
    let seed = rng.next_u64() % 1000;
    let input = Tensor::random(Shape::chw(c, h, w), seed, 1.0);
    let weights = Tensor::random(Shape::new(&[c, 1, f, f]), seed ^ 5, 0.5);
    let channel_values = |base: f32| (0..c).map(|i| base + 0.1 * i as f32).collect::<Vec<_>>();
    let p = Conv2dParams {
        stride: s,
        pad,
        bias: (rng.below(2) == 0).then(|| channel_values(-0.2)),
        bn: (rng.below(2) == 0).then(|| (channel_values(0.9), channel_values(-0.1))),
        activation: [Activation::None, Activation::Relu, Activation::Relu6][rng.below(3) as usize],
    };
    let got = ops::depthwise_conv2d(&input, &weights, &p);
    let want = depthwise_per_pixel(&input, &weights, &p);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(got.data()),
        bits(&want),
        "c={c} h={h} w={w} f={f} s={s} pad={pad}"
    );
}

/// The three execution paths — native host operators chained by hand, the
/// reference graph executor, and the compiled kernels run through the TIR
/// interpreter — compute the same function, element-wise, for randomized
/// small LeNet-like networks under every pipelined schedule tier.
///
/// This is the differential oracle behind `verify_deployment`: the native
/// chain is built *alongside* the graph (not derived from it), so a shared
/// bug in the graph executor and the kernel builder cannot cancel out.
#[test]
fn random_networks_agree_across_native_graph_and_kernel_paths() {
    use fpgaccel::core::verify::verify_deployment;
    use fpgaccel::core::{Flow, OptimizationConfig};
    use fpgaccel::device::FpgaPlatform;
    use fpgaccel::tensor::graph::{Graph, Op};

    let mut rng = Rng64::seed_from_u64(0xD1FF_0421);
    let schedules: [fn() -> OptimizationConfig; 4] = [
        OptimizationConfig::base,
        OptimizationConfig::unrolling,
        OptimizationConfig::autorun,
        OptimizationConfig::tvm_autorun,
    ];
    for case in 0..8 {
        let seed = rng.next_u64() % 1000;
        let c_in = 1 + rng.below(2) as usize;
        let hw = 8;
        let k1 = 2 * (1 + rng.below(2) as usize);
        let pad = rng.below(2) as usize;
        let units = 4 + 2 * rng.below(3) as usize;
        let use_bias = rng.below(2) == 0;

        let x = Tensor::random(Shape::chw(c_in, hw, hw), seed ^ 21, 1.0);
        let w1 = Tensor::random(Shape::kcff(k1, c_in, 3), seed, 0.5);
        let conv_hw = hw + 2 * pad - 3 + 1;
        let pool_hw = (conv_hw - 2) / 2 + 1;
        let n = k1 * pool_hw * pool_hw;

        // The canned pipelined tiers carry LeNet's dense unroll factors
        // (40/40/4); this network has one dense layer of width `n`, so
        // draw a random valid factor instead.
        let mut schedule = schedules[rng.below(4) as usize]();
        if !schedule.dense_unroll.is_empty() {
            schedule.dense_unroll = vec![pick(&mut rng, &divisors(n))];
        }
        let w2 = Tensor::random(Shape::d2(units, n), seed ^ 5, 0.5);
        let bias: Option<Vec<f32>> =
            use_bias.then(|| (0..units).map(|i| 0.05 * i as f32 - 0.1).collect());

        // Path 1 — native host operators, chained by hand.
        let native = {
            let t = ops::conv2d(&x, &w1, &Conv2dParams::plain(1, pad));
            let t = ops::relu(&t);
            let t = ops::maxpool2d(&t, 2, 2, 0);
            let t = ops::dense(&t.flatten(), &w2, bias.as_deref(), Activation::None);
            ops::softmax(&t)
        };

        // Path 2 — the reference graph executor on the same network.
        let mut g = Graph::new("diff", Shape::chw(c_in, hw, hw));
        let conv = g.push_with_params(
            "conv",
            Op::Conv2d {
                out_channels: k1,
                kernel: 3,
                stride: 1,
                pad,
                depthwise: false,
            },
            vec![0],
            Some(w1),
            None,
            None,
        );
        let relu = g.push("relu", Op::Relu, vec![conv]);
        let pool = g.push(
            "pool",
            Op::MaxPool {
                window: 2,
                stride: 2,
                pad: 0,
            },
            vec![relu],
        );
        let flat = g.push("flat", Op::Flatten, vec![pool]);
        let fc = g.push_with_params("fc", Op::Dense { units }, vec![flat], Some(w2), bias, None);
        g.push("softmax", Op::Softmax, vec![fc]);

        let from_graph = g.execute(&x);
        assert!(
            allclose(&from_graph, &native, 1e-4, 1e-5),
            "case {case}: graph executor vs native ops (c_in={c_in} k1={k1} pad={pad} \
             units={units} bias={use_bias})"
        );

        // Path 3 — the compiled kernels through the TIR interpreter.
        // `verify_deployment` compares them element-wise against the
        // transformed graph's per-node activations; comparing that graph's
        // output against the native chain closes the triangle.
        let label = schedule.label.clone();
        let d = Flow::for_graph(g, FpgaPlatform::Stratix10Sx)
            .compile(&schedule)
            .unwrap_or_else(|e| panic!("case {case}: `{label}` fails to compile: {e}"));
        assert!(
            allclose(&d.graph.execute(&x), &native, 1e-4, 1e-5),
            "case {case}: transformed graph vs native ops under `{label}`"
        );
        verify_deployment(&d, &x, 1e-3)
            .unwrap_or_else(|e| panic!("case {case}: kernel interp diverged under `{label}`: {e}"));
    }
}

/// AOC resource usage is monotone in the tiling factor (more unrolling
/// never uses fewer DSPs) and the fit check is consistent with it.
#[test]
fn synthesis_dsps_monotone_in_tiling() {
    use fpgaccel::device::FpgaPlatform;
    use fpgaccel_aoc::{synthesize_kernel, AocOptions, Calib};
    for c1vec_exp in 0u32..4 {
        let small = 1usize << c1vec_exp;
        let large = small * 2;
        let mk = |c1vec: usize| {
            let mut spec = ConvSpec::base("mono", ConvDims::constant(16, 16, 8, 8, 1, 1), false);
            spec.schedule = ConvSchedule::Tiled {
                w2vec: 2,
                c2vec: 2,
                c1vec,
            };
            conv2d(&spec)
        };
        let dev = FpgaPlatform::Stratix10Sx.model();
        let (opts, calib) = (AocOptions::default(), Calib::default());
        let rs = synthesize_kernel(&mk(small), &dev, &opts, &calib);
        let rl = synthesize_kernel(&mk(large), &dev, &opts, &calib);
        assert!(rl.resources.dsp >= rs.resources.dsp);
        assert!(rl.resources.dsp >= (2 * rs.resources.dsp).saturating_sub(64));
    }
}

/// Streaming dataflow execution == staged execution == host baseline,
/// element for element, over randomized fusable networks that exercise the
/// streaming kernel set (padding, depthwise convolution, pooling, dense,
/// softmax) end to end.
#[test]
fn dataflow_pipelines_match_staged_and_host_baselines() {
    use fpgaccel::core::verify::verify_deployment;
    use fpgaccel::core::{ExecutionPlan, Flow, OptimizationConfig, TilingPreset};
    use fpgaccel::device::FpgaPlatform;
    use fpgaccel::tensor::graph::{Graph, Op};

    let mut rng = Rng64::seed_from_u64(0xF1F0_0806);
    let mut pipelined_cases = 0usize;
    for case in 0..6 {
        let seed = rng.next_u64() % 1000;
        let c = pick(&mut rng, &[2, 4]);
        let hw = 8;
        let pad = rng.below(2) as usize;
        let units = 4 + 2 * rng.below(3) as usize;

        // conv (pad drawn) -> relu -> depthwise conv (pad 1) -> pool ->
        // flatten -> dense -> softmax: the depthwise/pad/pool trio lowers
        // to the streaming ring-buffer kernels when pipelined.
        let x = Tensor::random(Shape::chw(2, hw, hw), seed ^ 33, 1.0);
        let mut g = Graph::new("diff_pipe", Shape::chw(2, hw, hw));
        let w1 = Tensor::random(Shape::kcff(c, 2, 3), seed, 0.5);
        let conv = g.push_with_params(
            "conv",
            Op::Conv2d {
                out_channels: c,
                kernel: 3,
                stride: 1,
                pad,
                depthwise: false,
            },
            vec![0],
            Some(w1),
            None,
            None,
        );
        let relu = g.push("relu", Op::Relu, vec![conv]);
        let wd = Tensor::random(Shape::new(&[c, 1, 3, 3]), seed ^ 7, 0.5);
        let dw = g.push_with_params(
            "dw",
            Op::Conv2d {
                out_channels: c,
                kernel: 3,
                stride: 1,
                pad: 1,
                depthwise: true,
            },
            vec![relu],
            Some(wd),
            None,
            None,
        );
        let pool = g.push(
            "pool",
            Op::MaxPool {
                window: 2,
                stride: 2,
                pad: 0,
            },
            vec![dw],
        );
        let flat = g.push("flat", Op::Flatten, vec![pool]);
        let wfc_n = g.nodes[flat].out_shape.numel();
        let wfc = Tensor::random(Shape::d2(units, wfc_n), seed ^ 11, 0.5);
        let fc = g.push_with_params("fc", Op::Dense { units }, vec![flat], Some(wfc), None, None);
        g.push("softmax", Op::Softmax, vec![fc]);

        // Host baseline: the reference graph executor on the untransformed
        // network.
        let baseline = g.execute(&x);

        let staged = Flow::for_graph(g.clone(), FpgaPlatform::Stratix10Sx)
            .compile(&OptimizationConfig::base())
            .unwrap_or_else(|e| panic!("case {case}: staged compile failed: {e}"));
        let dataflow = Flow::for_graph(g, FpgaPlatform::Stratix10Sx)
            .compile(&OptimizationConfig::dataflow(TilingPreset::Naive))
            .unwrap_or_else(|e| panic!("case {case}: dataflow compile failed: {e}"));

        // Both deployments against the host baseline...
        let out_staged = staged.infer(&x).output;
        let out_pipe = dataflow.infer(&x).output;
        assert!(
            allclose(&out_staged, &baseline, 1e-4, 1e-5),
            "case {case}: staged output vs host baseline (c={c} pad={pad} units={units})"
        );
        // ...and element-identical to each other (same fused graph, same
        // real-arithmetic path).
        assert_eq!(
            out_staged.data(),
            out_pipe.data(),
            "case {case}: pipelined output != staged output"
        );

        // The generated kernels themselves — streaming channel kernels for
        // the pipelined segments, folded pool kernels for the staged plan —
        // reproduce every per-node activation.
        verify_deployment(&staged, &x, 1e-3)
            .unwrap_or_else(|e| panic!("case {case}: staged kernels diverged: {e}"));
        verify_deployment(&dataflow, &x, 1e-3)
            .unwrap_or_else(|e| panic!("case {case}: pipelined kernels diverged: {e}"));

        let ExecutionPlan::Dataflow(plan) = &dataflow.plan else {
            panic!("case {case}: dataflow config must produce a dataflow plan");
        };
        if plan.summary.pipelined_nodes >= 2 {
            pipelined_cases += 1;
        }
    }
    assert!(
        pipelined_cases >= 4,
        "only {pipelined_cases}/6 cases actually pipelined a segment — the differential \
         test is not exercising the streaming path"
    );
}
