//! Seeded property tests for the differential quantization harness:
//! randomized conv/depthwise/pool/pad networks, calibrated and executed on
//! every precision rung against the f32 reference. Every layer's worst
//! element must sit inside the rung's documented `(rtol, atol)` envelope;
//! a violation panics with the same `|got - want| = err (tol ...)` shape
//! as a `VerifyError::Mismatch`, plus the case number that reproduces it.
//!
//! The fast test draws a couple dozen networks per rung; the `--ignored`
//! variants are the nightly soak (a deeper case sweep, and the MobileNetV1
//! and ResNet-18 differentials at fp16/int8 — host-side 224x224 execution).

use fpgaccel::tensor::models::Model;
use fpgaccel::tensor::quant::{
    calibrate, differential, QuantError, QuantPrecision, QuantizedGraph,
};
use fpgaccel::tensor::rng::Rng64;
use fpgaccel::tensor::{Graph, Op, Shape, Tensor};

/// Calibration batch size (mirrors `QuantSpec`'s saturation-free default
/// of seeded samples; the probe is always a batch member).
const CALIB_SAMPLES: usize = 4;

/// Builds a random small network: 2–4 feature layers drawn from standard
/// convolution, depthwise convolution, max/avg pooling, explicit padding
/// and ReLU, closed by flatten → dense (→ softmax half the time). Fusion
/// and padding materialization run afterwards, so the calibrated graph
/// contains exactly the operator set a quantized deployment lowers.
fn random_network(rng: &mut Rng64, case: usize) -> Graph {
    let c0 = 1 + rng.below(3) as usize;
    let hw = 8 + 2 * rng.below(4) as usize;
    let mut g = Graph::new(format!("prop{case}"), Shape::chw(c0, hw, hw));
    let mut last = 0;
    let mut c = c0;
    let mut h = hw;
    let layers = 2 + rng.below(3) as usize;
    for i in 0..layers {
        match rng.below(4) {
            0 => {
                // Standard convolution: random filter, stride, padding.
                let k = [1usize, 3][rng.below(2) as usize];
                let pad = usize::from(k == 3 && rng.below(2) == 0);
                let stride = if (h + 2 * pad - k) >= 4 && rng.below(2) == 0 {
                    2
                } else {
                    1
                };
                let out_c = 2 + 2 * rng.below(2) as usize;
                let w = Tensor::random(Shape::kcff(out_c, c, k), rng.next_u64() % 1000, 0.5);
                let bias: Vec<f32> = (0..out_c).map(|j| j as f32 * 0.05 - 0.1).collect();
                last = g.push_with_params(
                    format!("conv{i}"),
                    Op::Conv2d {
                        out_channels: out_c,
                        kernel: k,
                        stride,
                        pad,
                        depthwise: false,
                    },
                    vec![last],
                    Some(w),
                    Some(bias),
                    None,
                );
                c = out_c;
                h = (h + 2 * pad - k) / stride + 1;
                if rng.below(2) == 0 {
                    last = g.push(format!("relu{i}"), Op::Relu, vec![last]);
                }
            }
            1 if h >= 3 => {
                // Depthwise convolution, 3x3 pad 1 (the MobileNet shape).
                let w = Tensor::random(Shape::new(&[c, 1, 3, 3]), rng.next_u64() % 1000, 0.5);
                last = g.push_with_params(
                    format!("conv{i}_dw"),
                    Op::Conv2d {
                        out_channels: c,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                        depthwise: true,
                    },
                    vec![last],
                    Some(w),
                    None,
                    None,
                );
            }
            2 if h >= 4 => {
                // 2x2/2 pooling, max or average.
                let op = if rng.below(2) == 0 {
                    Op::MaxPool {
                        window: 2,
                        stride: 2,
                        pad: 0,
                    }
                } else {
                    Op::AvgPool {
                        window: 2,
                        stride: 2,
                        pad: 0,
                    }
                };
                last = g.push(format!("pool{i}"), op, vec![last]);
                h = (h - 2) / 2 + 1;
            }
            _ => {
                // Explicit zero-padding ring.
                last = g.push(format!("pad{i}"), Op::Pad { pad: 1 }, vec![last]);
                h += 2;
            }
        }
    }
    last = g.push("flatten", Op::Flatten, vec![last]);
    let n = c * h * h;
    let units = 3 + rng.below(5) as usize;
    let w = Tensor::random(Shape::d2(units, n), rng.next_u64() % 1000, 0.3);
    let bias: Vec<f32> = (0..units).map(|j| j as f32 * 0.02 - 0.04).collect();
    last = g.push_with_params(
        "dense",
        Op::Dense { units },
        vec![last],
        Some(w),
        Some(bias),
        None,
    );
    if rng.below(2) == 0 {
        g.push("softmax", Op::Softmax, vec![last]);
    }
    g.fuse().materialize_padding()
}

/// Runs `cases` random networks through every precision rung and asserts
/// the differential report passes, panicking with the reproducing case
/// number and the `VerifyError::Mismatch`-shaped per-layer failures.
fn run_cases(seed: u64, cases: usize) {
    let mut rng = Rng64::seed_from_u64(seed);
    for case in 0..cases {
        let g = random_network(&mut rng, case);
        let input_shape = g.input_shape().clone();
        let batch: Vec<Tensor> = (0..CALIB_SAMPLES)
            .map(|i| Tensor::random(input_shape.clone(), rng.next_u64() % 10_000 + i as u64, 1.0))
            .collect();
        let calib = match calibrate(&g, &batch, 1.0) {
            Ok(c) => c,
            // A dead layer (e.g. a ReLU'd conv whose random pre-activations
            // are all negative) has no usable symmetric grid; the refusal
            // IS the documented negative path, so the case just skips.
            Err(QuantError::ZeroRange { .. }) => continue,
            Err(e) => panic!("case {case} (seed {seed:#x}): calibration failed: {e}"),
        };
        for precision in QuantPrecision::ALL {
            let report = differential(&g, &calib, precision, &batch[0]).unwrap_or_else(|e| {
                panic!("case {case} (seed {seed:#x}) {precision}: quantized run failed: {e}")
            });
            if !report.pass() {
                let lines: Vec<String> = report.failures().iter().map(|l| l.to_string()).collect();
                panic!(
                    "case {case} (seed {seed:#x}) {precision}: {} layer(s) out of tolerance:\n{}",
                    lines.len(),
                    lines.join("\n")
                );
            }
        }
    }
}

#[test]
fn random_networks_stay_within_every_rung_tolerance() {
    run_cases(0xD1FF_5EED, 24);
}

/// The failure rendering the harness panics with mirrors the
/// `VerifyError::Mismatch` shape (`|got - want| = err (tol ...)`), so a
/// red property test reads like a red deployment verification.
#[test]
fn layer_diff_failures_render_like_verify_mismatches() {
    let mut rng = Rng64::seed_from_u64(0xD1FF_0001);
    let g = random_network(&mut rng, 0);
    let batch: Vec<Tensor> = (0..CALIB_SAMPLES)
        .map(|i| Tensor::random(g.input_shape().clone(), 77 + i as u64, 1.0))
        .collect();
    let calib = calibrate(&g, &batch, 1.0).unwrap();
    let report = differential(&g, &calib, QuantPrecision::Int8, &batch[0]).unwrap();
    let rendered = report.layers[0].to_string();
    for piece in ["node ", "`", "| = ", "(tol "] {
        assert!(
            rendered.contains(piece),
            "missing {piece:?} in {rendered:?}"
        );
    }
}

/// `QuantizedGraph::execute` drops each activation after its last reader;
/// `execute_all` keeps them all. Their outputs agree bit for bit at every
/// precision and under a mixed assignment that leaves some layers in f32,
/// on random networks and on compiled LeNet-5, each on two inputs in a row.
#[test]
fn quantized_execute_matches_the_dump_bit_for_bit() {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rng = Rng64::seed_from_u64(0xD1FF_0002);
    let mut graphs: Vec<Graph> = (0..8).map(|case| random_network(&mut rng, case)).collect();
    graphs.push(Model::LeNet5.build().fuse().materialize_padding());
    for g in &graphs {
        let batch: Vec<Tensor> = (0..CALIB_SAMPLES)
            .map(|i| Tensor::random(g.input_shape().clone(), 41 + i as u64, 1.0))
            .collect();
        let calib = calibrate(g, &batch, 1.0).expect("every network calibrates");
        // Every other layer quantized, alternating between the rungs.
        let mixed = (g
            .nodes
            .iter()
            .skip(1)
            .step_by(2)
            .zip(QuantPrecision::ALL.iter().cycle()))
        .map(|(n, &p)| (n.name.clone(), p))
        .collect();
        let uniform = QuantPrecision::ALL.map(|p| (p.name(), QuantizedGraph::new(g, &calib, p)));
        let runs = uniform
            .into_iter()
            .chain([("mixed", QuantizedGraph::mixed(g, &calib, &mixed))]);
        for (rung, qg) in runs {
            for x in &batch[..2] {
                assert_eq!(
                    bits(&qg.execute(x).unwrap()),
                    bits(&qg.execute_all(x).unwrap()[&g.output]),
                    "{} at {rung}",
                    g.name
                );
            }
        }
    }
}

/// Nightly soak: a deeper sweep of the same seeded case stream.
#[test]
#[ignore = "deep property sweep; nightly --include-ignored soak covers it"]
fn random_network_soak_stays_within_every_rung_tolerance() {
    run_cases(0xD1FF_50AC, 200);
}

/// Nightly soak: the MobileNetV1 differential at fp16 and int8 — the
/// acceptance bound for real depthwise-separable networks. Minutes of
/// host-side 224x224 execution, so it rides the `--include-ignored` lane.
#[test]
#[ignore = "minutes of host-side MobileNet execution; nightly soak covers it"]
fn mobilenet_differential_passes_at_fp16_and_int8() {
    let g = Model::MobileNetV1.build().fuse().materialize_padding();
    let batch: Vec<Tensor> = (0..2)
        .map(|i| Tensor::random(g.input_shape().clone(), 0x5EED_CA11 + i as u64, 1.0))
        .collect();
    let calib = calibrate(&g, &batch, 1.0).unwrap();
    for precision in [QuantPrecision::Fp16, QuantPrecision::Int8] {
        let report = differential(&g, &calib, precision, &batch[0]).unwrap();
        assert!(
            report.pass(),
            "MobileNetV1 {precision}: {:?}",
            report
                .failures()
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
        );
    }
}

/// Nightly soak: the ResNet-18 differential at fp16 and int8 — residual
/// fork/join through every quantized layer, including the projection
/// blocks whose fused add reads a later node.
#[test]
#[ignore = "seconds of host-side ResNet execution; nightly soak covers it"]
fn resnet18_differential_passes_at_fp16_and_int8() {
    let g = Model::ResNet18.build().fuse().materialize_padding();
    let batch: Vec<Tensor> = (0..2)
        .map(|i| Tensor::random(g.input_shape().clone(), 0x5EED_2E18 + i as u64, 1.0))
        .collect();
    let calib = calibrate(&g, &batch, 1.0).unwrap();
    for precision in [QuantPrecision::Fp16, QuantPrecision::Int8] {
        let report = differential(&g, &calib, precision, &batch[0]).unwrap();
        assert!(
            report.pass(),
            "ResNet-18 {precision}: {:?}",
            report
                .failures()
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
        );
    }
}
