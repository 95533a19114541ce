//! The 1x1-convolution tiling design-space exploration: the Table 6.6 /
//! Figure 6.3 sweep, plus the automatic exploration the thesis leaves to
//! future work (§4.11: "We leave resource modeling and exploration for a
//! DSE to future work") — every legal tiling evaluated on each board,
//! affordable here because synthesis is simulated.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use fpgaccel::core::bitstreams::TABLE_6_6_TILINGS;
use fpgaccel::core::dse::sweep_1x1;
use fpgaccel::core::tune_model;
use fpgaccel::device::FpgaPlatform;
use fpgaccel::tensor::models::Model;
use fpgaccel::trace::{Registry, Tracer};
use fpgaccel::tune::TuningDb;

fn main() {
    println!("Table 6.6 sweep on the Arria 10 (1x1-conv kernel only):");
    for p in sweep_1x1(
        Model::MobileNetV1,
        FpgaPlatform::Arria10Gx,
        TABLE_6_6_TILINGS,
    ) {
        let (w2, c2, c1) = p.tile;
        match p.result {
            Ok(m) => println!(
                "  {w2}/{c2:>2}/{c1:>2}: {:>4} DSPs, fmax {:>3.0} MHz, 1x1 time {:>6.2} ms, \
                 full net {}",
                m.dsps,
                m.fmax_mhz,
                m.conv1x1_seconds * 1e3,
                m.seconds_per_image
                    .map(|s| format!("{:.1} ms", s * 1e3))
                    .unwrap_or_else(|| "does not fit".into()),
            ),
            Err(e) => println!("  {w2}/{c2:>2}/{c1:>2}: {e}"),
        }
    }

    // The automatic exploration: every legal tiling, not the seven the
    // thesis hand-picked, evaluated per platform in milliseconds.
    println!("\nEvery legal tiling, per platform:");
    for platform in FpgaPlatform::ALL {
        let mut db = TuningDb::new();
        let tracer = Tracer::disabled();
        match tune_model(
            Model::MobileNetV1,
            platform,
            &mut db,
            &tracer,
            &Registry::default(),
        ) {
            Ok(out) => {
                let (w2, c2, c1) = out.candidate.tile;
                println!(
                    "  {platform}: best full-network tiling = {w2}/{c2}/{c1} \
                     ({:.2} ms/img, {} candidates)",
                    out.seconds_per_image * 1e3,
                    out.evaluations
                )
            }
            Err(e) => println!("  {platform}: {e}"),
        }
    }
    println!(
        "\nThe thesis hand-picked 7/32/4, 7/16/4 and 7/8/8 for the S10MX, S10SX and\n\
         A10 (§6.3.2) under the same constraints the tuner enforces: divisibility,\n\
         fit, routing, and fmax degradation."
    );
}
