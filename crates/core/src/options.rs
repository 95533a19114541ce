//! Optimization configurations — the knobs of Table 4.1 and the bitstream
//! ladder of Table 6.4.

use fpgaccel_aoc::{AocOptions, Precision};
use fpgaccel_pipeline::PipelineOpts;
use fpgaccel_tensor::quant::QuantPrecision;
use fpgaccel_tir::compute::ConvSchedule;

/// The execution modes: the two of §3.1 plus the planner-driven dataflow
/// hybrid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One kernel per layer, channel-connected, all kernels concurrently
    /// resident (small networks).
    Pipelined,
    /// Parameterized kernels time-multiplexed across layers through global
    /// memory (large networks).
    Folded,
    /// Planner-driven streaming dataflow: maximal fused segments become
    /// channel-connected pipelines under the device resource budget; layers
    /// that do not fit (or cannot stream) degrade gracefully to staged
    /// execution through the folded kernel pool.
    Dataflow,
}

/// Tiling/unroll factor tables for folded deployments (Tables 6.6/6.7/6.13).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TilingPreset {
    /// No tiling: every kernel keeps the default TVM schedule (the folded
    /// *base* bitstreams of Tables 6.11/6.14).
    Naive,
    /// MobileNetV1 (Table 6.7): 1x1 convs tiled `W2/C2/C1`, the 3x3 stem
    /// tiled `C1,F,F = 3x3x3`, depthwise convs tiled `W2,F,F = 7x3x3`,
    /// dense unrolled by 32.
    MobileNet {
        /// `(W_2vec, C_2vec, C_1vec)` for the 1x1 convolutions — per
        /// platform: S10MX 7/32/4, S10SX 7/16/4, A10 7/8/8.
        one_by_one: (usize, usize, usize),
    },
    /// ResNet-18/34 (Table 6.13): 7x7 stem unrolled `F,F`; 3x3 convs tiled
    /// `W2,C1,F,F = 7/8/3/3`; 1x1 projections unrolled `C1 = 8`; dense
    /// unrolled by 32.
    ResNet,
    /// A custom 1x1 tiling (used by the Table 6.6 sweep and the DSE).
    Custom1x1 {
        /// `(W_2vec, C_2vec, C_1vec)`.
        tile: (usize, usize, usize),
    },
    /// AlexNet (extension; not a thesis deployment): 11x11 and 5x5 stems
    /// unrolled `F,F` only (their input-channel counts do not divide
    /// evenly), 3x3 convs unrolled `C1 = 4`, dense unrolled by 32.
    AlexNet,
    /// One tiling applied to every convolution group (`c2vec` only for 1x1
    /// kernels, `c1vec` skipped for depthwise). Useful for custom networks
    /// whose dimensions the MobileNet/ResNet presets do not divide.
    Uniform {
        /// `W_2vec`.
        w2vec: usize,
        /// `C_2vec` (1x1 kernels only).
        c2vec: usize,
        /// `C_1vec` (non-depthwise kernels).
        c1vec: usize,
    },
}

impl TilingPreset {
    /// The convolution schedule for a folded group with filter `f` and
    /// depthwise flag `dw` (every preset tiles both strides alike).
    pub fn schedule(&self, dw: bool, f: usize) -> ConvSchedule {
        match self {
            TilingPreset::Naive => ConvSchedule::Base,
            TilingPreset::MobileNet { one_by_one } => {
                if dw {
                    // 3x3 DW conv tiled W2,F,F = 7x3x3 (Table 6.7).
                    ConvSchedule::Tiled {
                        w2vec: 7,
                        c2vec: 1,
                        c1vec: 1,
                    }
                } else if f == 1 {
                    ConvSchedule::Tiled {
                        w2vec: one_by_one.0,
                        c2vec: one_by_one.1,
                        c1vec: one_by_one.2,
                    }
                } else {
                    // The 3x3 stem: C1,F,F = 3x3x3 (Table 6.7).
                    ConvSchedule::Tiled {
                        w2vec: 1,
                        c2vec: 1,
                        c1vec: 3,
                    }
                }
            }
            TilingPreset::ResNet => {
                if f == 7 {
                    // 7x7 conv: unroll F,F only (Table 6.13).
                    ConvSchedule::Tiled {
                        w2vec: 1,
                        c2vec: 1,
                        c1vec: 1,
                    }
                } else if f == 3 {
                    // 3x3 convs (either stride): 7/8/3/3 (Table 6.13).
                    ConvSchedule::Tiled {
                        w2vec: 7,
                        c2vec: 1,
                        c1vec: 8,
                    }
                } else {
                    // 1x1 projections: unroll C1 = 8 (Table 6.13).
                    ConvSchedule::Tiled {
                        w2vec: 1,
                        c2vec: 1,
                        c1vec: 8,
                    }
                }
            }
            TilingPreset::AlexNet => {
                if f >= 5 {
                    ConvSchedule::Tiled {
                        w2vec: 1,
                        c2vec: 1,
                        c1vec: 1,
                    }
                } else {
                    ConvSchedule::Tiled {
                        w2vec: 1,
                        c2vec: 1,
                        c1vec: 4,
                    }
                }
            }
            TilingPreset::Custom1x1 { tile } => {
                if !dw && f == 1 {
                    ConvSchedule::Tiled {
                        w2vec: tile.0,
                        c2vec: tile.1,
                        c1vec: tile.2,
                    }
                } else {
                    TilingPreset::MobileNet { one_by_one: *tile }.schedule(dw, f)
                }
            }
            TilingPreset::Uniform {
                w2vec,
                c2vec,
                c1vec,
            } => ConvSchedule::Tiled {
                w2vec: *w2vec,
                c2vec: if !dw && f == 1 { *c2vec } else { 1 },
                c1vec: if dw { 1 } else { *c1vec },
            },
        }
    }

    /// Dense-layer unroll factor.
    pub fn dense_unroll(&self) -> Option<usize> {
        match self {
            TilingPreset::Naive => None,
            // Table 6.7 / §6.4.3: dense unrolled by 32.
            _ => Some(32),
        }
    }
}

/// Numeric quantization of the deployed datapath (the §8.1 future work made
/// real): the flow calibrates per-tensor ranges on a seeded batch, rewrites
/// every kernel with narrow-MAC loads and requantizing stores, and the cost
/// model prices the reduced precision.
///
/// The default percentile is 1.0 (full min/max coverage): per-layer
/// differential verification requires its probe inputs to fall inside the
/// calibrated ranges, and the compile-time batch is the only coverage the
/// flow can promise. Percentile clipping (e.g. 0.999) is an accuracy
/// deployment knob — outliers saturate by design — and pushes verification
/// from per-layer bounds to end-metric checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantSpec {
    /// Datapath precision rung.
    pub precision: QuantPrecision,
    /// Calibration clip percentile over `|x|` (1.0 = exact min/max).
    pub percentile: f32,
    /// Seed of the synthetic calibration batch.
    pub calibration_seed: u64,
    /// Calibration batch size.
    pub calibration_samples: usize,
}

impl QuantSpec {
    /// A spec at `precision` with saturation-free defaults (percentile 1.0,
    /// 8 seeded samples).
    pub fn new(precision: QuantPrecision) -> Self {
        QuantSpec {
            precision,
            percentile: 1.0,
            calibration_seed: 0x5EED_CA11,
            calibration_samples: 8,
        }
    }

    /// The synthesis-cost precision this rung is priced at.
    pub fn aoc_precision(&self) -> Precision {
        match self.precision {
            QuantPrecision::Fp16 => Precision::Fp16,
            QuantPrecision::Int16 => Precision::Int16,
            QuantPrecision::Int8 => Precision::Int8,
        }
    }
}

/// A complete optimization configuration — one "bitstream" of the
/// evaluation.
#[derive(Clone, Debug)]
pub struct OptimizationConfig {
    /// Display label (Table 6.4 names).
    pub label: String,
    /// Execution mode.
    pub mode: ExecMode,
    /// Optimized schedules: activation fusion into the producing loop,
    /// cached writes (private accumulators), `F x F` unrolling, and the
    /// softmax loop-invariant code motion (§4.3–§4.5, §5.1).
    pub optimized_schedules: bool,
    /// Per-dense-layer unroll factors in layer order (empty = no unroll).
    /// LeNet's ladder uses 40/40/4 (Table 6.4).
    pub dense_unroll: Vec<usize>,
    /// Move activations between kernels over Intel channels (§4.6).
    pub channels: bool,
    /// Declare weight-free channel kernels autorun (§4.7). Requires
    /// `channels`.
    pub autorun: bool,
    /// One command queue per kernel + asynchronous enqueues (§4.8).
    pub concurrent: bool,
    /// Folded mode only: group convolutions into parameterized
    /// symbolic-shape kernels (§4.9). When `false`, TVM's default
    /// one-kernel-per-layer mapping is kept — which "can easily exhaust
    /// resources" (§3.2) and is why the naive MobileNet/ResNet designs do
    /// not fit the Arria 10.
    pub parameterized: bool,
    /// Folded-mode tiling table.
    pub tiling: TilingPreset,
    /// Dataflow-mode planner knobs: inter-stage FIFO sizing and the stage
    /// cap. Part of the config identity (and therefore of deployment-cache
    /// keys): two depth policies are two different bitstreams.
    pub pipeline: PipelineOpts,
    /// Emit parameterized kernels with the raw symbolic strides TVM
    /// generates (Listing 5.10) instead of applying the stride-1 coalescing
    /// workaround (Listing 5.11). AOC then cannot prove accesses contiguous
    /// and infers replicated non-aligned LSUs — the §5.3 caveat, kept as an
    /// ablation switch.
    pub explicit_strides: bool,
    /// Float-operation flags (§4.10) — on for every thesis bitstream.
    pub aoc: AocOptions,
    /// Enable the OpenCL event profiler (§5.2). Profiling requires events
    /// to complete before their timestamps can be read, so it forces
    /// synchronous execution and adds per-event host overhead —
    /// "Asynchronous OpenCL task enqueuing and concurrent execution is
    /// disabled when the ... profiler is enabled".
    pub profiling: bool,
    /// Quantize the datapath: calibrate ranges, rewrite kernels with
    /// narrow-MAC loads and requantizing boundaries, price the reduced
    /// precision in synthesis. `None` keeps the f32 datapath (every thesis
    /// bitstream).
    pub quant: Option<QuantSpec>,
}

impl OptimizationConfig {
    /// Table 6.4 `Base`: the untouched TVM flow.
    pub fn base() -> Self {
        OptimizationConfig {
            label: "Base".into(),
            mode: ExecMode::Pipelined,
            optimized_schedules: false,
            dense_unroll: vec![],
            channels: false,
            autorun: false,
            concurrent: false,
            parameterized: false,
            tiling: TilingPreset::Naive,
            pipeline: PipelineOpts::default(),
            explicit_strides: false,
            aoc: AocOptions::default(),
            profiling: false,
            quant: None,
        }
    }

    /// Table 6.4 `Unrolling`: conv inner product unrolled (`F x F`),
    /// dense layers unrolled 40/40/4.
    pub fn unrolling() -> Self {
        OptimizationConfig {
            label: "Unrolling".into(),
            optimized_schedules: true,
            dense_unroll: vec![40, 40, 4],
            ..Self::base()
        }
    }

    /// Table 6.4 `Channels`: + output feature maps moved over buffered
    /// channels, activations fused with the channel write.
    pub fn channels() -> Self {
        OptimizationConfig {
            label: "Channels".into(),
            channels: true,
            ..Self::unrolling()
        }
    }

    /// Table 6.4 `Autorun`: + pooling/flatten kernels declared autorun.
    pub fn autorun() -> Self {
        OptimizationConfig {
            label: "Autorun".into(),
            autorun: true,
            ..Self::channels()
        }
    }

    /// Table 6.4 `TVM-Autorun`: the same optimizations with
    /// unrolling/fusion/write-caches applied by TVM schedule primitives
    /// rather than by hand (§6.3.1 validates the automation).
    pub fn tvm_autorun() -> Self {
        OptimizationConfig {
            label: "TVM-Autorun".into(),
            ..Self::autorun()
        }
    }

    /// Folded-mode naive deployment (the MobileNet/ResNet "Base" rows):
    /// one kernel per layer, default schedules.
    pub fn folded_base() -> Self {
        OptimizationConfig {
            label: "Folded-Base".into(),
            mode: ExecMode::Folded,
            ..Self::base()
        }
    }

    /// Folded-mode optimized deployment: parameterized kernels + a tiling
    /// preset.
    pub fn folded(tiling: TilingPreset) -> Self {
        OptimizationConfig {
            label: "Folded-Optimized".into(),
            optimized_schedules: true,
            parameterized: true,
            tiling,
            ..Self::folded_base()
        }
    }

    /// Streaming dataflow deployment: the planner maps maximal fused
    /// segments onto channel-connected pipelines (stages tiled per the
    /// preset), with graceful degradation to staged execution through the
    /// parameterized folded kernel pool when the device budget runs out.
    pub fn dataflow(tiling: TilingPreset) -> Self {
        OptimizationConfig {
            label: "Dataflow".into(),
            mode: ExecMode::Dataflow,
            channels: true,
            autorun: true,
            concurrent: true,
            ..Self::folded(tiling)
        }
    }

    /// Overrides the dataflow planner knobs (FIFO depth policy / stage
    /// cap). The label carries the policy so sibling configurations remain
    /// distinguishable in reports and cache keys.
    pub fn with_pipeline(mut self, opts: PipelineOpts) -> Self {
        self.pipeline = opts;
        self.label = format!("{} {:?}", self.label, opts.depth);
        self
    }

    /// Enables concurrent execution (the `[CE]` series of Figure 6.1).
    pub fn with_concurrent(mut self) -> Self {
        self.concurrent = true;
        self.label = format!("{} [CE]", self.label);
        self
    }

    /// Enables the OpenCL event profiler (§5.2) — disables asynchronous
    /// execution and adds per-event host overhead.
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self.label = format!("{} [profiled]", self.label);
        self
    }

    /// Quantizes the datapath at `spec`. Forces per-layer kernels
    /// (`parameterized = false`): calibrated scales are compile-time
    /// constants, so a parameterized group shared across layers would force
    /// one scale set onto every member. Also retargets the synthesis cost
    /// model to the rung's precision.
    pub fn with_quant(mut self, spec: QuantSpec) -> Self {
        self.aoc.precision = spec.aoc_precision();
        self.parameterized = false;
        self.label = format!("{} [{}]", self.label, spec.precision.name());
        self.quant = Some(spec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let base = OptimizationConfig::base();
        assert!(!base.optimized_schedules && !base.channels && !base.autorun);
        let unroll = OptimizationConfig::unrolling();
        assert!(unroll.optimized_schedules && !unroll.channels);
        assert_eq!(unroll.dense_unroll, vec![40, 40, 4]);
        let chan = OptimizationConfig::channels();
        assert!(chan.channels && !chan.autorun);
        let auto = OptimizationConfig::autorun();
        assert!(auto.channels && auto.autorun);
    }

    #[test]
    fn mobilenet_preset_matches_table_6_7() {
        let t = TilingPreset::MobileNet {
            one_by_one: (7, 16, 4),
        };
        assert_eq!(
            t.schedule(false, 1),
            ConvSchedule::Tiled {
                w2vec: 7,
                c2vec: 16,
                c1vec: 4
            }
        );
        assert_eq!(
            t.schedule(true, 3),
            ConvSchedule::Tiled {
                w2vec: 7,
                c2vec: 1,
                c1vec: 1
            }
        );
        assert_eq!(
            t.schedule(false, 3),
            ConvSchedule::Tiled {
                w2vec: 1,
                c2vec: 1,
                c1vec: 3
            }
        );
        assert_eq!(t.dense_unroll(), Some(32));
    }

    #[test]
    fn resnet_preset_matches_table_6_13() {
        let t = TilingPreset::ResNet;
        assert_eq!(
            t.schedule(false, 3),
            ConvSchedule::Tiled {
                w2vec: 7,
                c2vec: 1,
                c1vec: 8
            }
        );
        assert_eq!(
            t.schedule(false, 7),
            ConvSchedule::Tiled {
                w2vec: 1,
                c2vec: 1,
                c1vec: 1
            }
        );
        assert_eq!(
            t.schedule(false, 1),
            ConvSchedule::Tiled {
                w2vec: 1,
                c2vec: 1,
                c1vec: 8
            }
        );
    }

    #[test]
    fn naive_preset_keeps_base_schedules() {
        assert_eq!(TilingPreset::Naive.schedule(false, 1), ConvSchedule::Base);
        assert_eq!(TilingPreset::Naive.dense_unroll(), None);
    }

    #[test]
    fn ce_suffix_marks_label() {
        let c = OptimizationConfig::autorun().with_concurrent();
        assert!(c.concurrent);
        assert!(c.label.ends_with("[CE]"));
    }

    #[test]
    fn quant_rung_reprices_and_unshares_kernels() {
        let c = OptimizationConfig::folded(TilingPreset::Naive)
            .with_quant(QuantSpec::new(QuantPrecision::Int8));
        assert!(!c.parameterized, "scales are compile-time constants");
        assert_eq!(c.aoc.precision, Precision::Int8);
        assert!(c.label.ends_with("[int8]"), "{}", c.label);
        let spec = c.quant.unwrap();
        assert_eq!(spec.percentile, 1.0);
        assert_eq!(
            QuantSpec::new(QuantPrecision::Fp16).aoc_precision(),
            Precision::Fp16
        );
    }
}
