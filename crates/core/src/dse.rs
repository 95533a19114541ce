//! The Table 6.6 / Figure 6.3 sweep over hand-picked 1x1 tilings.
//!
//! §4.11: "A design space explorer would benefit ... We leave resource
//! modeling and exploration for a DSE to future work." With synthesis taking
//! microseconds in the AOC model instead of 5–12 hours, exploring the whole
//! space is cheap: [`crate::tune_model`] evaluates every legal tiling once.
//! This module evaluates a caller's list of tilings with the tuner's
//! [`FlowEvaluator`], in order, keeping each error string as the flow
//! rendered it. Used by the Table 6.6/Figure 6.3 sweep and
//! `examples/design_space.rs`.

use crate::autotune::FlowEvaluator;
use crate::flow::Flow;
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::models::Model;
use fpgaccel_tune::{Candidate, Evaluate, Measured};

/// Outcome of evaluating one 1x1-convolution tiling configuration.
#[derive(Clone, Debug)]
pub struct DsePoint {
    /// `(W_2vec, C_2vec, C_1vec)`.
    pub tile: (usize, usize, usize),
    /// Successful synthesis + simulation, or the failure reason.
    pub result: Result<Measured, String>,
}

/// Evaluates a list of 1x1 tiling candidates for a model/platform.
///
/// Matching the Table 6.6 methodology, each candidate is synthesized as a
/// bitstream containing *only* the parameterized 1x1-convolution kernel
/// ("We optimize a parameterized 1x1 convolution kernel ... on the
/// Arria 10", §6.3.2) and timed over all the network's 1x1 layers;
/// `seconds_per_image` additionally reports full-network latency when the
/// complete kernel set also fits.
pub fn sweep_1x1(
    model: Model,
    platform: FpgaPlatform,
    tiles: &[(usize, usize, usize)],
) -> Vec<DsePoint> {
    let eval = FlowEvaluator::new(&Flow::new(model, platform));
    tiles
        .iter()
        .map(|&tile| DsePoint {
            tile,
            result: eval.evaluate(&Candidate::new(tile)).map_err(|e| e.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_dsp_growth_with_tile_size() {
        let points = sweep_1x1(
            Model::MobileNetV1,
            FpgaPlatform::Arria10Gx,
            &[(7, 4, 8), (7, 8, 16)],
        );
        let m0 = points[0].result.as_ref().unwrap();
        let m1 = points[1].result.as_ref().unwrap();
        // Figure 6.3: DSPs grow with the tile, fmax drops.
        assert!(m1.dsps > 2 * m0.dsps);
        assert!(m1.fmax_mhz < m0.fmax_mhz);
    }
}
