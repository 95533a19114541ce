//! Quickstart: compile LeNet-5 into an optimized pipelined accelerator for
//! the Stratix 10 SX, verify it against the host graph executor, and
//! classify a batch of synthetic digits.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fpgaccel::core::verify::verify_deployment;
use fpgaccel::core::{Flow, OptimizationConfig};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::tensor::data;
use fpgaccel::tensor::models::Model;

fn main() {
    // 1. Compile: model graph -> fusion -> kernels -> AOC synthesis.
    let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let config = OptimizationConfig::tvm_autorun().with_concurrent();
    let accel = flow.compile(&config).expect("LeNet fits every platform");
    println!("compiled `{}` for {}", config.label, accel.device.platform);
    println!("  {}", accel.fit_summary());
    println!(
        "  one-time parameter upload: {:.2} ms",
        accel.setup_seconds() * 1e3
    );

    // 2. Verify: the exact generated kernels, run through the IR
    //    interpreter (channels and all), must reproduce the reference
    //    output.
    let probe = data::synthetic_digit(7, 0);
    verify_deployment(&accel, &probe, 1e-3).expect("kernels match reference");
    println!("  kernel-level verification: OK");

    // 3. Classify a batch and report simulated FPGA throughput.
    let reference = Model::LeNet5.build().fuse();
    let inputs = data::digit_batch(10, 42);
    for (i, x) in inputs.iter().enumerate() {
        let class = accel.classify(x);
        assert_eq!(
            class,
            reference.execute(x).argmax(),
            "accelerator matches the host graph"
        );
        println!("  image {i}: class {class}");
    }
    let stats = accel.simulate_batch(1000);
    println!(
        "steady state: {:.0} FPS ({:.2} GFLOPS) over {} images",
        stats.fps, stats.gflops, stats.images
    );
}
