//! Wall-clock benches over the real Rust substrate: the reference operators,
//! the IR interpreter, and full-network inference. These measure genuine
//! computation on the host (not simulated FPGA time).

use fpgaccel_bench::timing::bench;
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::ops::{self, Activation, Conv2dParams};
use fpgaccel_tensor::{data, Shape, Tensor};
use fpgaccel_tir::compute::{conv2d, ConvDims, ConvSchedule, ConvSpec};
use fpgaccel_tir::interp::Interp;
use fpgaccel_tir::Binding;
use std::collections::HashMap;

fn bench_conv() {
    // LeNet conv2: 16x11x11 out over 6 channels of 3x3.
    let input = Tensor::random(Shape::chw(6, 13, 13), 1, 1.0);
    let w = Tensor::random(Shape::kcff(16, 6, 3), 2, 0.5);
    let p = Conv2dParams::plain(1, 0);
    bench("conv2d/lenet_conv2", 50, 5, || ops::conv2d(&input, &w, &p));
    // One MobileNet 1x1 stage: 128 <- 128 @ 28x28.
    let input = Tensor::random(Shape::chw(128, 28, 28), 3, 1.0);
    let w = Tensor::random(Shape::kcff(128, 128, 1), 4, 0.1);
    bench("conv2d/mobilenet_1x1_128", 5, 5, || {
        ops::conv2d(&input, &w, &p)
    });
    // Depthwise 3x3 @ 56x56 over 128 channels.
    let input = Tensor::random(Shape::chw(128, 58, 58), 5, 1.0);
    let w = Tensor::random(Shape::new(&[128, 1, 3, 3]), 6, 0.5);
    bench("conv2d/depthwise_3x3_128", 10, 5, || {
        ops::depthwise_conv2d(&input, &w, &p)
    });
}

fn bench_conv_algorithms() {
    // Direct vs im2col+GEMM on a MobileNet-sized 1x1 stage — the lowering
    // the CPU baselines use.
    let input = Tensor::random(Shape::chw(256, 14, 14), 20, 1.0);
    let w = Tensor::random(Shape::kcff(256, 256, 1), 21, 0.1);
    let p = Conv2dParams::plain(1, 0);
    bench("conv_algorithm/direct", 5, 5, || {
        ops::conv2d(&input, &w, &p)
    });
    bench("conv_algorithm/im2col_gemm", 5, 5, || {
        ops::conv2d_im2col(&input, &w, &p)
    });
}

fn bench_dense_softmax_pad() {
    let x = Tensor::random(Shape::d1(1024), 7, 1.0);
    let w = Tensor::random(Shape::d2(1000, 1024), 8, 0.05);
    bench("dense_1000x1024", 20, 5, || {
        ops::dense(&x, &w, None, Activation::None)
    });
    let logits = Tensor::random(Shape::d1(1000), 9, 4.0);
    bench("softmax_1000", 200, 5, || ops::softmax(&logits));
    let fm = Tensor::random(Shape::chw(64, 56, 56), 10, 1.0);
    bench("pad2d_64x56x56", 20, 5, || ops::pad2d(&fm, 1));
}

fn bench_interpreter_vs_native() {
    // The same small convolution through the IR interpreter and natively.
    let dims = ConvDims::constant(8, 8, 10, 10, 3, 1);
    let input = Tensor::random(Shape::chw(8, 12, 12), 11, 1.0);
    let w = Tensor::random(Shape::kcff(8, 8, 3), 12, 0.5);
    let mut spec = ConvSpec::base("bench_conv", dims, false);
    spec.schedule = ConvSchedule::Fused { unroll_ff: true };
    let kernel = conv2d(&spec);
    let mut inputs = HashMap::new();
    inputs.insert("in_fm".to_string(), input.data().to_vec());
    inputs.insert("w".to_string(), w.data().to_vec());
    bench("interp_vs_native/interpreter", 2, 3, || {
        Interp::new().run(&kernel, &Binding::empty(), &inputs)
    });
    let p = Conv2dParams::plain(1, 0);
    bench("interp_vs_native/native", 50, 5, || {
        ops::conv2d(&input, &w, &p)
    });
}

fn bench_networks() {
    let lenet = Model::LeNet5.build().fuse();
    let digit = data::synthetic_digit(3, 0);
    bench("forward_pass/lenet5", 20, 5, || lenet.execute(&digit));
    let mobilenet = Model::MobileNetV1.build().fuse();
    let img = data::imagenet_input(0);
    bench("forward_pass/mobilenet_v1_224", 1, 3, || {
        mobilenet.execute(&img)
    });
    let resnet18 = Model::ResNet18.build().fuse();
    bench("forward_pass/resnet18_224", 1, 3, || resnet18.execute(&img));
}

fn main() {
    bench_conv();
    bench_conv_algorithms();
    bench_dense_softmax_pad();
    bench_interpreter_vs_native();
    bench_networks();
}
