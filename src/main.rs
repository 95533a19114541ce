//! `fpgaccel` — the end-to-end deployment CLI.
//!
//! ```text
//! fpgaccel compile --model lenet5 --platform s10sx --config optimized
//! fpgaccel infer   --model lenet5 --platform a10 --images 100
//! fpgaccel codegen --model lenet5 --config base
//! fpgaccel report  --model mobilenet --platform s10sx
//! ```

use fpgaccel::core::bitstreams::{baseline_config, lenet_ladder, optimized_config};
use fpgaccel::core::{Flow, OptimizationConfig};
use fpgaccel::device::FpgaPlatform;
use fpgaccel::tensor::data;
use fpgaccel::tensor::models::Model;
use fpgaccel::tir::codegen::emit_program;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fpgaccel <compile|infer|codegen|report> [options]\n\
         \n\
         options:\n\
           --model     lenet5 | mobilenet | resnet18 | resnet34   (default lenet5)\n\
           --platform  s10mx | s10sx | a10                        (default s10sx)\n\
           --config    base | unrolling | channels | autorun | optimized\n\
                       (default optimized)\n\
           --images N  batch size for `infer`                     (default 100)\n\
         \n\
         commands:\n\
           compile   synthesize and print the Quartus-style fit report\n\
           infer     simulate a batch: FPS, GFLOPS, event breakdown\n\
           codegen   print the generated OpenCL C for the whole program\n\
           report    fit report + per-kernel profile + comparisons"
    );
    ExitCode::from(2)
}

fn parse_model(s: &str) -> Option<Model> {
    Some(match s {
        "lenet5" | "lenet" => Model::LeNet5,
        "mobilenet" | "mobilenetv1" => Model::MobileNetV1,
        "resnet18" => Model::ResNet18,
        "resnet34" => Model::ResNet34,
        _ => return None,
    })
}

fn parse_platform(s: &str) -> Option<FpgaPlatform> {
    Some(match s {
        "s10mx" => FpgaPlatform::Stratix10Mx,
        "s10sx" => FpgaPlatform::Stratix10Sx,
        "a10" => FpgaPlatform::Arria10Gx,
        _ => return None,
    })
}

fn parse_config(s: &str, model: Model, platform: FpgaPlatform) -> Option<OptimizationConfig> {
    Some(match s {
        "optimized" => optimized_config(model, platform),
        "base" => baseline_config(model),
        other => lenet_ladder()
            .into_iter()
            .find(|c| c.label.eq_ignore_ascii_case(other))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    let get = |flag: &str, default: &str| -> String {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].clone())
            .unwrap_or_else(|| default.to_string())
    };
    let Some(model) = parse_model(&get("--model", "lenet5")) else {
        eprintln!("unknown model");
        return usage();
    };
    let Some(platform) = parse_platform(&get("--platform", "s10sx")) else {
        eprintln!("unknown platform");
        return usage();
    };
    let Some(config) = parse_config(&get("--config", "optimized"), model, platform) else {
        eprintln!("unknown config");
        return usage();
    };
    let images: usize = get("--images", "100").parse().unwrap_or(100);

    let flow = Flow::new(model, platform);
    let deployment = match flow.compile(&config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "{} / {} / {}: compilation failed: {e}",
                model.name(),
                platform,
                config.label
            );
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "compile" => {
            println!("{}", deployment.fit_report());
        }
        "infer" => {
            let stats = deployment.simulate_batch(images.max(1));
            let (k, w, r) = stats.breakdown.fractions();
            println!(
                "{} on {} [{}]: {:.1} FPS, {:.2} GFLOPS over {} images",
                model.name(),
                platform,
                config.label,
                stats.fps,
                stats.gflops,
                stats.images
            );
            println!(
                "device busy time: {:.0}% kernels, {:.0}% writes, {:.0}% reads",
                k * 100.0,
                w * 100.0,
                r * 100.0
            );
            if model == Model::LeNet5 {
                let x = data::synthetic_digit(3, 0);
                let r = deployment.infer(&x);
                println!(
                    "single image: class {} in {:.0} us (simulated)",
                    r.output.argmax(),
                    r.simulated_seconds * 1e6
                );
            }
        }
        "codegen" => {
            let kernels: Vec<_> = deployment.plan.kernels().collect();
            println!("{}", emit_program(&kernels));
        }
        "report" => {
            println!("{}", deployment.fit_report());
            let stats = deployment.simulate_batch(images.max(1));
            println!(
                "throughput: {:.1} FPS ({:.2} GFLOPS)",
                stats.fps, stats.gflops
            );
            let total: f64 = stats.kernel_seconds.values().sum();
            let mut rows: Vec<_> = stats.kernel_seconds.iter().collect();
            rows.sort_by(|a, b| b.1.total_cmp(a.1));
            println!("per-kernel device time:");
            for (name, secs) in rows {
                println!(
                    "  {:<28} {:>5.1}%  {:>8.2} GFLOPS",
                    name,
                    100.0 * secs / total,
                    stats.kernel_gflops(name)
                );
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
