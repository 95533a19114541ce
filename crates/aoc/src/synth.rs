//! Synthesis: kernels → resources, LSUs, fmax, fit verdict.

use crate::calib::Calib;
use crate::transform::auto_unroll_attrs;
use fpgaccel_device::{DeviceModel, FpgaPlatform, Resources};
use fpgaccel_tir::analysis::{analyze, analyze_with, AccessFact, AccumKind, KernelFacts, NestNode};
use fpgaccel_tir::kernel::Scope;
use fpgaccel_tir::{Kernel, Name};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Arithmetic precision of the generated datapath. The thesis deploys
/// 32-bit float throughout but identifies quantization as the main avenue
/// for closing the gap to hand-optimized accelerators (§6.5, §8.1): int8
/// packs two operations per DSP in the 18x18 mode and quarters every LSU
/// width and cache footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Precision {
    /// 32-bit IEEE float (the thesis' deployments).
    #[default]
    F32,
    /// 16-bit IEEE half float: halves every LSU width and cache footprint
    /// but the DSP's hard FP block still schedules one MAC per cycle.
    Fp16,
    /// 16-bit fixed point (DNNWeaver's representation, Table 6.19).
    Int16,
    /// 8-bit integer (the §8.1 future-work target).
    Int8,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> u64 {
        match self {
            Precision::F32 => 4,
            Precision::Fp16 | Precision::Int16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Multiply-accumulates per DSP block (§6.5: "two low-precision integer
    /// operations computed per cycle as opposed to one per DSP for
    /// floating-point" — half floats still occupy the hard FP block whole).
    pub fn macs_per_dsp(self) -> u64 {
        match self {
            Precision::F32 | Precision::Fp16 => 1,
            Precision::Int16 | Precision::Int8 => 2,
        }
    }
}

/// AOC command-line options the thesis uses (§4.10: `-fp-relaxed -fpc` are
/// "applied for all bitstreams", Table 4.1), plus the datapath precision.
#[derive(Clone, Copy, Debug)]
pub struct AocOptions {
    /// `-fp-relaxed`: balanced-tree float reductions (enables the
    /// single-cycle accumulator).
    pub fp_relaxed: bool,
    /// `-fpc`: fused multiply-accumulate, removes intermediate rounding.
    pub fpc: bool,
    /// Datapath precision (F32 matches the thesis; lower precisions model
    /// the §8.1 quantization future work).
    pub precision: Precision,
}

impl Default for AocOptions {
    fn default() -> Self {
        AocOptions {
            fp_relaxed: true,
            fpc: true,
            precision: Precision::F32,
        }
    }
}

impl AocOptions {
    /// Strict IEEE mode (neither flag) — used by ablation benches.
    pub fn strict() -> Self {
        AocOptions {
            fp_relaxed: false,
            fpc: false,
            precision: Precision::F32,
        }
    }

    /// The given precision with the default flags.
    pub fn with_precision(precision: Precision) -> Self {
        AocOptions {
            precision,
            ..AocOptions::default()
        }
    }
}

/// LSU types AOC infers (§2.4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsuKind {
    /// Buffers requests for maximal bursts; the common case.
    BurstCoalesced,
    /// Burst-coalesced with a 256/512-kbit BRAM cache for repetitive access
    /// patterns — "consumes the most amount of resources on the FPGA"
    /// (§2.4.3). The dominant area term of naive bitstreams.
    BurstCoalescedCached,
    /// Burst-coalesced with alignment unknown at compile time (symbolic
    /// strides, §5.3) — extra logic, poor performance.
    BurstCoalescedNonAligned,
    /// Sequential read FIFO.
    Prefetching,
    /// Strictly in-order offset-from-base access.
    Streaming,
    /// Local-memory (BRAM) port.
    Pipelined,
}

/// One synthesized LSU group.
#[derive(Clone, Debug)]
pub struct LsuReport {
    /// Buffer served.
    pub buf: Name,
    /// Inferred kind.
    pub kind: LsuKind,
    /// Access width in bits.
    pub width_bits: u64,
    /// Number of replicated LSUs.
    pub replication: u64,
    /// Store vs load.
    pub is_store: bool,
    /// Estimated cost.
    pub resources: Resources,
}

/// Synthesis result for one kernel.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name, shared by every simulated event and per-kernel total
    /// of the kernel.
    pub name: Arc<str>,
    /// Structural facts of the kernel as synthesized (after platform
    /// auto-unroll).
    pub facts: KernelFacts,
    /// Inferred LSUs.
    pub lsus: Vec<LsuReport>,
    /// Kernel-system resource cost.
    pub resources: Resources,
    /// Scheduled initiation interval of the critical reduction loop.
    pub ii: f64,
    /// Autorun kernel.
    pub autorun: bool,
}

impl KernelReport {
    /// Routing-pressure metric of this kernel in weighted bits (§6.5): raw
    /// LSU fanout `width_bits x replication`, with stores weighted 4x
    /// (output buses fan out from one producer across the chip — the
    /// Figure 6.8 hot spot) and highly-replicated loads (>= 8 replicas)
    /// discounted 2x (narrow replicas place more freely than a single wide
    /// bus). See `Calib::routing_fanout_bits` for the fit provenance.
    pub fn routing_pressure_bits(&self) -> u64 {
        self.lsus
            .iter()
            .filter(|l| l.kind != LsuKind::Pipelined)
            .map(|l| {
                let raw = l.width_bits * l.replication;
                if l.is_store {
                    raw * 4
                } else if l.replication >= 8 {
                    raw / 2
                } else {
                    raw
                }
            })
            .sum()
    }
}

/// Synthesis result for a whole bitstream.
#[derive(Clone, Debug)]
pub struct BitstreamReport {
    /// Target platform.
    pub platform: FpgaPlatform,
    /// Per-kernel reports.
    pub kernels: Vec<KernelReport>,
    /// Kernel-system resources (sum over kernels).
    pub kernel_resources: Resources,
    /// Kernel system + static partition.
    pub total_resources: Resources,
    /// Achieved clock frequency.
    pub fmax_mhz: f64,
    /// Utilization percentages (logic, RAM, DSP) of total chip resources,
    /// as the Quartus fit reports of Tables 6.5/6.9/6.11/6.14 print them.
    pub utilization: (f64, f64, f64),
}

impl BitstreamReport {
    /// Report for one kernel by name.
    ///
    /// # Panics
    /// Panics if the kernel is absent.
    pub fn kernel(&self, name: &str) -> &KernelReport {
        self.kernels
            .iter()
            .find(|k| &*k.name == name)
            .unwrap_or_else(|| panic!("no kernel `{name}` in bitstream"))
    }
}

/// Why a design fails to build (§2.4.5: "designs that do not fit on the
/// device will not synthesize"; §6.5: routing failures at large tilings).
#[derive(Clone, Debug, PartialEq)]
pub enum SynthesisError {
    /// Chip resources exhausted.
    ResourceOverflow {
        /// Which resource (the first limiting one).
        resource: &'static str,
        /// Amount the design needs.
        required: u64,
        /// Amount the chip has.
        available: u64,
        /// Full structured report: every requested/available pair.
        over: fpgaccel_device::OverBudget,
    },
    /// Router gave up (LSU fanout beyond platform capacity, Figure 6.8).
    RoutingCongestion {
        /// Design fanout metric.
        fanout_bits: u64,
        /// Platform capacity.
        capacity_bits: u64,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::ResourceOverflow {
                resource,
                required,
                available,
                over,
            } => write!(
                f,
                "design does not fit: needs {required} {resource}, device has {available} \
                 ({over})"
            ),
            SynthesisError::RoutingCongestion {
                fanout_bits,
                capacity_bits,
            } => write!(
                f,
                "routing failed: LSU fanout {fanout_bits} bits exceeds \
                 routable capacity {capacity_bits} bits"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// M20K block: 20 kbit = 2560 bytes.
const M20K_BYTES: u64 = 2560;

/// The pipelined and serial loops of a timing skeleton: every loop the
/// kernel keeps after unrolling.
fn scheduled_loops(nest: &[NestNode]) -> u64 {
    let loops = nest.iter().map(|node| match node {
        NestNode::Loop { children, .. } => 1 + scheduled_loops(children),
        NestNode::Leaf { .. } => 0,
    });
    loops.sum()
}

/// Synthesizes one kernel for a device.
pub fn synthesize_kernel(
    kernel: &Kernel,
    device: &DeviceModel,
    opts: &AocOptions,
    calib: &Calib,
) -> KernelReport {
    // Quartus < 19.1 auto-unrolls small loops (footnote 4, §6.3.1): on
    // those boards the analysis reads the kernel with the auto-unrolled
    // attributes in place of its own.
    let facts = if device.auto_unrolls_small_loops() {
        analyze_with(kernel, &auto_unroll_attrs(kernel))
    } else {
        analyze(kernel)
    };

    let mut res = Resources::default();

    // --- Datapath: DSPs and support logic (§4.1). ---
    let dsp_fp = if opts.fpc {
        // Fused multiply-accumulate: one DSP covers a mul+add pair.
        facts.ops.fmul.max(facts.ops.fadd)
    } else {
        facts.ops.fmul + facts.ops.fadd
    };
    // Reduced precision packs multiple MACs per DSP (§6.5/§8.1).
    let dsp_fp = dsp_fp.div_ceil(opts.precision.macs_per_dsp());
    res.dsp += dsp_fp;
    // Operand distribution/collection network per replicated FP unit —
    // the fanout logic that ultimately congests routing (§6.5).
    res.alut += dsp_fp * 180;
    res.ff += dsp_fp * 260;
    // exp: piecewise-polynomial pipeline; div: long logic pipeline.
    res.dsp += facts.ops.fexp * 8;
    res.alut += facts.ops.fexp * 2_000 + facts.ops.fdiv * 3_000 + facts.ops.fcmp * 140;
    res.ff += facts.ops.fexp * 3_000 + facts.ops.fdiv * 4_200 + facts.ops.fcmp * 150;
    if !opts.fpc {
        // Intermediate rounding stages that -fpc removes (§4.10).
        res.alut += dsp_fp * 160;
        res.ff += dsp_fp * 220;
    }

    // --- Loop control (§2.4.5: loops incur area for control/bounds). ---
    let scheduled_loops = scheduled_loops(&facts.nest);
    res.alut += scheduled_loops * 350;
    res.ff += scheduled_loops * 520;
    // Kernel harness: per-kernel dispatch logic, global-memory interconnect
    // port, argument handling. Real AOC kernels start at tens of kALUTs —
    // the reason the one-to-one layer mapping exhausts resources (§3.2).
    res.alut += 3_600;
    res.ff += 5_600;
    res.ram += 18;

    // --- LSUs (§2.4.3). ---
    let mut lsus = Vec::with_capacity(facts.accesses.len());
    for a in &facts.accesses {
        let lsu = infer_lsu(a, opts.precision);
        res = res.add(lsu.resources);
        lsus.push(lsu);
    }

    // --- Local buffers (BRAM) with banking for concurrent ports. ---
    for (name, len) in &facts.local_buffers {
        let bytes = match len.eval_const() {
            Some(n) => (n.max(0) as u64) * 4,
            // Size not statically determinable: AOC instantiates a 256 kbit
            // cache (§2.4.3).
            None => 32 * 1024,
        };
        let blocks = bytes.div_ceil(M20K_BYTES).max(1);
        let max_ports = facts
            .accesses
            .iter()
            .filter(|a| a.scope == Scope::Local && a.buf == *name)
            .map(|a| a.replication * a.width_elems)
            .max()
            .unwrap_or(1);
        // Each M20K offers 2 ports; extra concurrent accesses force
        // replication (§2.4.5).
        let banks = max_ports.div_ceil(2).clamp(1, 16);
        res.ram += blocks * banks;
        res.alut += 60 * banks;
    }

    // --- Private buffers (registers). ---
    for (_, len) in &facts.private_buffers {
        let elems = len.eval_const().unwrap_or(1).max(1) as u64;
        res.ff += elems * 32;
        res.alut += elems * 10;
    }

    // --- Channels (§4.6): FIFOs in registers or BRAM. ---
    for c in kernel.chan_in.iter().chain(&kernel.chan_out) {
        let bytes = (c.depth as u64) * 4;
        if c.depth >= 512 {
            res.ram += bytes.div_ceil(M20K_BYTES);
        } else {
            res.ff += (c.depth.max(2) as u64) * 32;
        }
        res.alut += 120;
    }

    let ii = match facts.accum {
        AccumKind::None => 1.0,
        AccumKind::Private => {
            if opts.fp_relaxed {
                calib.ii_private_relaxed
            } else {
                calib.ii_private_strict
            }
        }
        AccumKind::Local => calib.ii_local_accum,
        AccumKind::Global => calib.ii_global_accum,
    };

    KernelReport {
        name: kernel.name.as_str().into(),
        autorun: kernel.autorun,
        facts,
        lsus,
        resources: res,
        ii,
    }
}

fn infer_lsu(a: &AccessFact, precision: Precision) -> LsuReport {
    let width_bits = a.width_elems * 8 * precision.bytes();
    let (kind, mut cost) = if a.scope == Scope::Local {
        (
            LsuKind::Pipelined,
            Resources {
                alut: 90,
                ff: 140,
                ram: 0,
                dsp: 0,
            },
        )
    } else if a.symbolic_stride || a.modulo_addressing {
        // Alignment unprovable: non-aligned burst-coalesced (§2.4.3).
        (
            LsuKind::BurstCoalescedNonAligned,
            Resources {
                alut: 4_000,
                ff: 6_000,
                ram: 12,
                dsp: 0,
            },
        )
    } else if a.cached {
        // Repetitive pattern: burst-coalesced LSU + 256/512-kbit cache.
        (
            LsuKind::BurstCoalescedCached,
            Resources {
                alut: 2_700,
                ff: 4_000,
                ram: 16,
                dsp: 0,
            },
        )
    } else if !a.is_store && a.width_elems == 1 && a.replication == 1 {
        (
            LsuKind::Prefetching,
            Resources {
                alut: 1_000,
                ff: 1_500,
                ram: 4,
                dsp: 0,
            },
        )
    } else if a.is_store && a.width_elems == 1 && a.replication == 1 {
        (
            LsuKind::Streaming,
            Resources {
                alut: 900,
                ff: 1_300,
                ram: 3,
                dsp: 0,
            },
        )
    } else {
        (
            LsuKind::BurstCoalesced,
            Resources {
                alut: 2_500,
                ff: 4_000,
                ram: 6,
                dsp: 0,
            },
        )
    };
    if a.scope == Scope::Global {
        // Width scaling: wider bursts need wider alignment buffers.
        let width_units = width_bits / 512;
        cost.alut += 420 * width_units;
        cost.ram += 2 * width_units;
        // Reduced precision shrinks LSU buffers and caches proportionally
        // ("the reduced amount of bits decreases LSU bit width and cache
        // sizes, which alleviates LSU area bloat", §6.5).
        cost.ram = (cost.ram * precision.bytes() / 4).max(1);
        // Replication: BRAM caches replicate in full, but control logic is
        // partially shared across replicas of the same access site.
        let n = a.replication.max(1);
        cost.ram *= n;
        let logic_scale = 10 + 6 * (n - 1); // x10 fixed-point: 1 + 0.6(n-1)
        cost.alut = cost.alut * logic_scale / 10;
        cost.ff = cost.ff * logic_scale / 10;
    }
    LsuReport {
        buf: a.buf.clone(),
        kind,
        width_bits,
        replication: a.replication,
        is_store: a.is_store,
        resources: cost,
    }
}

/// Synthesizes a full bitstream: all kernels plus the static partition,
/// with fit, routing and fmax analysis.
///
/// # Errors
/// Returns [`SynthesisError`] when the design exceeds chip resources or
/// routing capacity.
pub fn synthesize<'a>(
    kernels: impl IntoIterator<Item = &'a Kernel>,
    device: &DeviceModel,
    opts: &AocOptions,
    calib: &Calib,
) -> Result<BitstreamReport, SynthesisError> {
    let reports: Vec<KernelReport> = kernels
        .into_iter()
        .map(|k| synthesize_kernel(k, device, opts, calib))
        .collect();
    assemble_bitstream(reports, device, calib)
}

/// Synthesizes a bitstream with per-kernel precision overrides — the mixed
/// layout the §8.1 future work sketches, where accuracy-sensitive layers
/// keep a wide datapath while the rest quantize. Kernels named in
/// `precisions` synthesize at their assigned precision; everything else uses
/// `opts.precision`.
///
/// # Errors
/// Returns [`SynthesisError`] when the design exceeds chip resources or
/// routing capacity.
pub fn synthesize_mixed(
    kernels: &[Kernel],
    device: &DeviceModel,
    opts: &AocOptions,
    precisions: &std::collections::BTreeMap<String, Precision>,
    calib: &Calib,
) -> Result<BitstreamReport, SynthesisError> {
    let reports: Vec<KernelReport> = kernels
        .iter()
        .map(|k| {
            let mut o = *opts;
            if let Some(p) = precisions.get(&k.name) {
                o.precision = *p;
            }
            synthesize_kernel(k, device, &o, calib)
        })
        .collect();
    assemble_bitstream(reports, device, calib)
}

/// Assembles a bitstream from its kernels' reports, as [`synthesize`]
/// does after synthesizing each kernel: fit check, routing check, fmax
/// model. The fmax jitter hashes the reports in order, so `reports` must
/// come in the order of the kernels they were synthesized from.
///
/// # Errors
/// Returns [`SynthesisError`] when the design exceeds chip resources or
/// routing capacity.
pub fn assemble_bitstream(
    reports: Vec<KernelReport>,
    device: &DeviceModel,
    calib: &Calib,
) -> Result<BitstreamReport, SynthesisError> {
    let kernel_resources = reports
        .iter()
        .fold(Resources::default(), |acc, r| acc.add(r.resources));
    let total = kernel_resources.add(device.static_partition);

    if let Err(over) = total.check_fits(device.total) {
        let (required, available) = over.limit();
        return Err(SynthesisError::ResourceOverflow {
            resource: over.limiting,
            required,
            available,
            over,
        });
    }

    // Routing congestion is local to the worst kernel (Figure 6.8 shows the
    // 1x1-convolution kernel saturating routing), so the criterion is the
    // maximum per-kernel pressure, not the bitstream sum.
    let fanout_bits: u64 = reports
        .iter()
        .map(KernelReport::routing_pressure_bits)
        .max()
        .unwrap_or(0);
    let capacity = calib.routing_fanout_bits(device.platform);
    if fanout_bits > capacity {
        return Err(SynthesisError::RoutingCongestion {
            fanout_bits,
            capacity_bits: capacity,
        });
    }

    // fmax model (fit against Table 6.6, see calib.rs).
    let frac = |a: u64, b: u64| a as f64 / b as f64;
    let logic_frac = frac(total.alut, device.total.alut);
    let ram_frac = frac(total.ram, device.total.ram);
    // Congestion is dominated by the densest kernel (Figure 6.8), so the
    // DSP/fanout terms use per-kernel maxima; RAM/logic use chip totals.
    let kernel_dsp_frac = reports
        .iter()
        .map(|r| frac(r.resources.dsp, device.total.dsp))
        .fold(0.0, f64::max);
    let fanout_frac = fanout_bits as f64 / capacity as f64;
    let degradation = calib.fmax_w_ram * ram_frac * ram_frac
        + calib.fmax_w_dsp * kernel_dsp_frac * kernel_dsp_frac
        + calib.fmax_w_logic * logic_frac * logic_frac
        + calib.fmax_w_fanout * fanout_frac * fanout_frac;
    let jitter = {
        let mut h = DefaultHasher::new();
        for r in &reports {
            r.name.hash(&mut h);
            r.resources.dsp.hash(&mut h);
            r.resources.alut.hash(&mut h);
        }
        device.platform.label().hash(&mut h);
        let u = (h.finish() % 10_000) as f64 / 10_000.0;
        1.0 + calib.fmax_jitter * (2.0 * u - 1.0)
    };
    let fmax =
        (device.base_fmax_mhz * (1.0 - degradation).max(0.2) * jitter).max(calib.fmax_floor_mhz);

    let utilization = total.percentages(device.total);
    Ok(BitstreamReport {
        platform: device.platform,
        kernels: reports,
        kernel_resources,
        total_resources: total,
        fmax_mhz: fmax,
        utilization,
    })
}

/// Extension: constant evaluation of an index expression without bindings.
trait EvalConst {
    fn eval_const(&self) -> Option<i64>;
}

impl EvalConst for fpgaccel_tir::IExpr {
    fn eval_const(&self) -> Option<i64> {
        use fpgaccel_tir::IExpr::*;
        match self {
            Const(c) => Some(*c),
            Var(_) => None,
            Add(a, b) => Some(a.eval_const()? + b.eval_const()?),
            Sub(a, b) => Some(a.eval_const()? - b.eval_const()?),
            Mul(a, b) => Some(a.eval_const()? * b.eval_const()?),
            Div(a, b) => Some(a.eval_const()? / b.eval_const()?),
            Mod(a, b) => Some(a.eval_const()? % b.eval_const()?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_tir::compute::{
        conv2d, dense, ConvDims, ConvSchedule, ConvSpec, DenseSchedule, DenseSpec, EpilogueSpec,
        IoMode,
    };
    use fpgaccel_tir::Dim;

    fn dev(p: FpgaPlatform) -> DeviceModel {
        p.model()
    }

    fn tiled_1x1(name: &str, c2: usize, c1: usize, hw: usize, t: (usize, usize, usize)) -> Kernel {
        let mut spec = ConvSpec::base(name, ConvDims::constant(c2, c1, hw, hw, 1, 1), false);
        spec.schedule = ConvSchedule::Tiled {
            w2vec: t.0,
            c2vec: t.1,
            c1vec: t.2,
        };
        // Deployed group kernels carry the fused batch-norm epilogue.
        spec.epilogue = EpilogueSpec {
            bn: true,
            ..Default::default()
        };
        conv2d(&spec)
    }

    #[test]
    fn unrolling_replicates_dsps() {
        let calib = Calib::default();
        let opts = AocOptions::default();
        let d = dev(FpgaPlatform::Stratix10Mx); // no auto-unroll
        let small = synthesize_kernel(&tiled_1x1("a", 64, 64, 28, (1, 1, 1)), &d, &opts, &calib);
        let big = synthesize_kernel(&tiled_1x1("b", 64, 64, 28, (7, 4, 8)), &d, &opts, &calib);
        assert!(big.resources.dsp >= small.resources.dsp * 80);
        assert!(
            (big.resources.dsp as i64 - (7 * 4 * 8) as i64).unsigned_abs() <= 40,
            "expected ~224 DSPs (+ epilogue), got {}",
            big.resources.dsp
        );
    }

    #[test]
    fn base_conv_has_global_accum_ii() {
        let calib = Calib::default();
        let spec = ConvSpec::base("c", ConvDims::constant(16, 8, 10, 10, 3, 1), false);
        let r = synthesize_kernel(
            &conv2d(&spec),
            &dev(FpgaPlatform::Stratix10Mx),
            &AocOptions::default(),
            &calib,
        );
        assert_eq!(r.ii, calib.ii_global_accum);

        let mut fused = ConvSpec::base("f", ConvDims::constant(16, 8, 10, 10, 3, 1), false);
        fused.schedule = ConvSchedule::Fused { unroll_ff: true };
        let r2 = synthesize_kernel(
            &conv2d(&fused),
            &dev(FpgaPlatform::Stratix10Mx),
            &AocOptions::default(),
            &calib,
        );
        assert_eq!(r2.ii, 1.0, "-fp-relaxed single-cycle accumulator");
    }

    #[test]
    fn strict_float_mode_raises_ii_and_area() {
        let calib = Calib::default();
        let mut fused = ConvSpec::base("f", ConvDims::constant(16, 8, 10, 10, 3, 1), false);
        fused.schedule = ConvSchedule::Fused { unroll_ff: true };
        let k = conv2d(&fused);
        let d = dev(FpgaPlatform::Stratix10Sx);
        let relaxed = synthesize_kernel(&k, &d, &AocOptions::default(), &calib);
        let strict = synthesize_kernel(&k, &d, &AocOptions::strict(), &calib);
        assert!(strict.ii > relaxed.ii);
        assert!(strict.resources.dsp >= relaxed.resources.dsp);
        assert!(strict.resources.alut > relaxed.resources.alut);
    }

    #[test]
    fn quartus_auto_unroll_differs_across_platforms() {
        // Same base 3x3 conv: A10/S10SX auto-unroll F*F (9 DSPs with fpc),
        // S10MX does not (1 DSP).
        let calib = Calib::default();
        let spec = ConvSpec::base("c", ConvDims::constant(6, 1, 26, 26, 3, 1), false);
        let k = conv2d(&spec);
        let opts = AocOptions::default();
        let r_sx = synthesize_kernel(&k, &dev(FpgaPlatform::Stratix10Sx), &opts, &calib);
        let r_mx = synthesize_kernel(&k, &dev(FpgaPlatform::Stratix10Mx), &opts, &calib);
        assert_eq!(r_mx.facts.ops.fmul, 1);
        assert_eq!(r_sx.facts.ops.fmul, 9);
    }

    #[test]
    fn oversized_design_fails_resource_check() {
        // 64 copies of a heavy tiled kernel cannot fit the A10.
        let k = tiled_1x1("big", 64, 64, 28, (7, 4, 8));
        let kernels: Vec<Kernel> = (0..64)
            .map(|i| {
                let mut c = k.clone();
                c.name = format!("big{i}");
                c
            })
            .collect();
        let err = synthesize(
            &kernels,
            &dev(FpgaPlatform::Arria10Gx),
            &AocOptions::default(),
            &Calib::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::ResourceOverflow { .. }));
    }

    #[test]
    fn s10sx_7_16_8_fails_routing_but_7_16_4_routes() {
        // §6.3.2/§6.5: W2vec/C2vec/C1vec = 7/16/8 does not route on the
        // S10SX while 7/16/4 (the deployed configuration) does.
        let d = dev(FpgaPlatform::Stratix10Sx);
        let opts = AocOptions::default();
        let calib = Calib::default();
        let bad = tiled_1x1("c1x1", 512, 512, 28, (7, 16, 8));
        let err = synthesize(&[bad], &d, &opts, &calib).unwrap_err();
        assert!(
            matches!(err, SynthesisError::RoutingCongestion { .. }),
            "{err:?}"
        );
        let good = tiled_1x1("c1x1", 512, 512, 28, (7, 16, 4));
        assert!(synthesize(&[good], &d, &opts, &calib).is_ok());
    }

    #[test]
    fn fmax_decreases_with_tiling_size() {
        // Figure 6.3 / Table 6.6: bigger tiles -> lower fmax.
        let d = dev(FpgaPlatform::Arria10Gx);
        let opts = AocOptions::default();
        let calib = Calib::default();
        let f = |t: (usize, usize, usize)| {
            synthesize(&[tiled_1x1("c", 256, 256, 28, t)], &d, &opts, &calib)
                .unwrap()
                .fmax_mhz
        };
        let small = f((7, 4, 4));
        let large = f((7, 8, 16));
        assert!(
            large < small,
            "large tiling should degrade fmax: {large} !< {small}"
        );
        assert!(large > 90.0 && small < 280.0, "fmax in plausible range");
    }

    #[test]
    fn dense_unrolled_consumes_more_dsp_than_base() {
        let calib = Calib::default();
        let mk = |schedule| {
            dense(&DenseSpec {
                name: "fc".into(),
                m: Dim::Const(120),
                n: Dim::Const(400),
                epilogue: EpilogueSpec::default(),
                io_in: IoMode::Global,
                io_out: IoMode::Global,
                schedule,
            })
        };
        let d = dev(FpgaPlatform::Stratix10Mx);
        let opts = AocOptions::default();
        let base = synthesize_kernel(&mk(DenseSchedule::Base), &d, &opts, &calib);
        let unrolled = synthesize_kernel(
            &mk(DenseSchedule::Unrolled { factor: 40 }),
            &d,
            &opts,
            &calib,
        );
        assert!(unrolled.resources.dsp >= 35);
        assert!(base.resources.dsp <= 2);
    }

    #[test]
    fn int8_packs_dsps_and_shrinks_lsus() {
        // §6.5/§8.1: quantization doubles MACs/DSP and shrinks LSU caches.
        let k = tiled_1x1("q", 64, 64, 28, (7, 4, 8));
        let d = dev(FpgaPlatform::Stratix10Sx);
        let calib = Calib::default();
        let f32r = synthesize_kernel(&k, &d, &AocOptions::default(), &calib);
        let i8r = synthesize_kernel(&k, &d, &AocOptions::with_precision(Precision::Int8), &calib);
        assert!(i8r.resources.dsp <= f32r.resources.dsp / 2 + 2);
        assert!(i8r.resources.ram < f32r.resources.ram);
        assert!(i8r.routing_pressure_bits() < f32r.routing_pressure_bits());
    }

    #[test]
    fn fp16_shrinks_lsus_but_not_dsps() {
        // Half floats halve memory widths but the hard FP block still does
        // one MAC per cycle — unlike int8/int16 packing.
        let k = tiled_1x1("h", 64, 64, 28, (7, 4, 8));
        let d = dev(FpgaPlatform::Stratix10Sx);
        let calib = Calib::default();
        let f32r = synthesize_kernel(&k, &d, &AocOptions::default(), &calib);
        let h16r = synthesize_kernel(&k, &d, &AocOptions::with_precision(Precision::Fp16), &calib);
        assert_eq!(h16r.resources.dsp, f32r.resources.dsp);
        assert!(h16r.resources.ram < f32r.resources.ram);
        assert!(h16r.routing_pressure_bits() < f32r.routing_pressure_bits());
    }

    #[test]
    fn mixed_precision_bitstream_sits_between_uniform_extremes() {
        let d = dev(FpgaPlatform::Stratix10Sx);
        let calib = Calib::default();
        let opts = AocOptions::default();
        let kernels = vec![
            tiled_1x1("l0", 64, 64, 28, (7, 4, 4)),
            tiled_1x1("l1", 64, 64, 28, (7, 4, 4)),
            tiled_1x1("l2", 64, 64, 28, (7, 4, 4)),
        ];
        let all_f32 = synthesize(&kernels, &d, &opts, &calib).unwrap();
        let all_i8 = synthesize(
            &kernels,
            &d,
            &AocOptions::with_precision(Precision::Int8),
            &calib,
        )
        .unwrap();
        let mut assign = std::collections::BTreeMap::new();
        assign.insert("l1".to_string(), Precision::Int8);
        assign.insert("l2".to_string(), Precision::Int8);
        let mixed = synthesize_mixed(&kernels, &d, &opts, &assign, &calib).unwrap();
        assert!(mixed.kernel_resources.dsp < all_f32.kernel_resources.dsp);
        assert!(mixed.kernel_resources.dsp > all_i8.kernel_resources.dsp);
        // The unnamed kernel keeps the bitstream-wide default.
        assert_eq!(
            mixed.kernel("l0").resources.dsp,
            all_f32.kernel("l0").resources.dsp
        );
        assert_eq!(
            mixed.kernel("l1").resources.dsp,
            all_i8.kernel("l1").resources.dsp
        );
    }

    #[test]
    fn symbolic_stride_kernels_get_nonaligned_lsus() {
        let dims = ConvDims {
            c2: Dim::sym("ff"),
            c1: Dim::sym("rc"),
            h2: Dim::sym("hh"),
            w2: Dim::sym("ww"),
            h1: Dim::sym("ih"),
            w1: Dim::sym("iw"),
            f: 1,
            s: 1,
        };
        let mut spec = ConvSpec::base("p", dims, false);
        spec.schedule = ConvSchedule::Tiled {
            w2vec: 7,
            c2vec: 2,
            c1vec: 2,
        };
        spec.explicit_strides = true;
        let r = synthesize_kernel(
            &conv2d(&spec),
            &dev(FpgaPlatform::Stratix10Sx),
            &AocOptions::default(),
            &Calib::default(),
        );
        assert!(r
            .lsus
            .iter()
            .any(|l| l.kind == LsuKind::BurstCoalescedNonAligned));
    }
}
