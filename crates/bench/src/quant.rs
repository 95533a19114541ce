//! The `quant` experiment: first-class quantized inference.
//!
//! Exercises the calibration-based quantization flow end to end on
//! LeNet-5 (S10SX): the differential verification harness compares the
//! quantized host grids against the f32 reference per rung and per layer,
//! every rung's compiled narrow-MAC kernels re-verify through the IR
//! interpreter, the resource/precision ladder prices each rung's
//! deployment, and the greedy per-layer mixed-precision search finds an
//! assignment under a 5% error budget (cold, then warm from the tuning
//! database without spending an evaluation).
//!
//! Environment knobs: `FPGACCEL_QUANT_REPORT` writes a machine-readable
//! JSON report (the CI quant-smoke lane jq-validates it); the stdout
//! report itself is byte-identical run to run (`docs/quant_golden.txt`).

use crate::table::{f, pct, Table};
use fpgaccel_core::{
    tune_precision, verify_deployment, Deployment, Flow, OptimizationConfig, QuantSpec,
};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::quant::{diff_outputs, DiffReport, QuantPrecision};
use fpgaccel_tensor::Tensor;
use fpgaccel_trace::json::Json;
use fpgaccel_trace::{Registry, Tracer};
use fpgaccel_tune::TuningDb;

/// Error budget the mixed-precision search runs under (worst per-layer
/// element error vs f32, same bound the core acceptance tests use).
pub(crate) const MIXED_BUDGET: f64 = 0.05;

/// Images per simulated batch for the ladder throughput column.
const LADDER_BATCH: usize = 100;

/// One precision rung of the differential harness: the quantized LeNet
/// deployment, its host-grid differential report, and whether the compiled
/// kernels (run through the IR interpreter) also verified.
struct Rung {
    precision: QuantPrecision,
    report: DiffReport,
    kernels_verified: bool,
    deployment: Deployment,
}

fn run_rung(precision: QuantPrecision) -> Rung {
    let (deployment, probe, report) = diff_rung(precision);
    let kernels_verified = verify_deployment(&deployment, &probe, 1e-3).is_ok();
    Rung {
        precision,
        report,
        kernels_verified,
        deployment,
    }
}

/// Compiles quantized LeNet-5 on the S10SX at `precision` and diffs its
/// host grids against the f32 reference, layer by layer. Returns the
/// deployment, the probe image and the report; the compiled kernels are
/// not run.
pub(crate) fn diff_rung(precision: QuantPrecision) -> (Deployment, Tensor, DiffReport) {
    let spec = QuantSpec::new(precision);
    let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let deployment = flow
        .compile(&OptimizationConfig::folded_base().with_quant(spec))
        .expect("quantized LeNet-5 fits the S10SX");
    // Probe with a calibration-batch member: the per-layer bounds assume
    // saturation-free coverage of the calibrated ranges.
    let probe = flow.calibration_batch(&spec).swap_remove(0);
    let got = deployment
        .quantized()
        .expect("deployment carries its quantization")
        .execute_all(&probe)
        .expect("quantized host execution succeeds");
    let reference = deployment.graph.execute_all(&probe);
    let q = deployment.quant.as_ref().expect("quantized deployment");
    let report = diff_outputs(&deployment.graph, &q.calib, q.precision, &got, &reference);
    (deployment, probe, report)
}

/// Canonical rendering of a differential report, used for the determinism
/// digest: every layer's worst element, byte for byte.
fn report_digest(r: &DiffReport) -> String {
    r.layers
        .iter()
        .map(|l| format!("{} {} {:.6e} {:.6e};", l.node_id, l.node, l.err, l.tol))
        .collect()
}

/// Runs the quantized-inference experiment report.
pub fn quant() -> String {
    let spec = QuantSpec::new(QuantPrecision::Int8);
    let rungs: Vec<Rung> = QuantPrecision::ALL.into_iter().map(run_rung).collect();

    // Per-rung summary: worst layer of each differential report plus the
    // compiled-kernel verdict.
    let mut summary = Table::new(
        "Differential verification — LeNet-5 quantized vs f32 (S10SX, calibration probe)",
        &[
            "precision",
            "layers",
            "worst layer",
            "worst |err|",
            "tol",
            "err/tol",
            "kernels",
            "pass",
        ],
    );
    for r in &rungs {
        let w = r.report.worst().expect("LeNet has layers");
        summary.row(&[
            r.precision.name().into(),
            r.report.layers.len().to_string(),
            format!("{} ({})", w.node, w.kind),
            format!("{:.3e}", w.err),
            format!("{:.3e}", w.tol),
            format!("{:.3}", w.err / w.tol.max(f32::MIN_POSITIVE)),
            if r.kernels_verified {
                "verified".into()
            } else {
                "FAILED".into()
            },
            if r.report.pass() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // Per-layer worst-case error, one row per layer, one err/tol pair per
    // rung — the table the golden test pins.
    let mut layers = Table::new(
        "Per-layer worst-case error vs f32 — LeNet-5 (|err| / tolerance)",
        &["layer", "kind", "fp16", "int16", "int8"],
    );
    for (i, base) in rungs[0].report.layers.iter().enumerate() {
        let mut row = vec![base.node.clone(), base.kind.into()];
        for r in &rungs {
            let l = &r.report.layers[i];
            row.push(format!("{:.2e} / {:.2e}", l.err, l.tol));
        }
        layers.row(&row);
    }

    // Resource/precision ladder: the f32 primary plus every quantized rung,
    // priced by the AOC model — the same ladder a brownout pool stages.
    let f32_deployment = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx)
        .compile(&OptimizationConfig::folded_base())
        .expect("f32 LeNet-5 fits the S10SX");
    let f32_fps = f32_deployment.simulate_batch(LADDER_BATCH).fps;
    let mut ladder = Table::new(
        "Precision ladder — LeNet-5 folded deployments (S10SX)",
        &["rung", "precision", "DSP", "RAM", "FPS", "vs f32"],
    );
    let mut ladder_json = Vec::new();
    let mut ladder_row = |rung: usize, name: &str, d: &Deployment| {
        let (_, ram, dsp) = d.bitstream.utilization;
        let fps = d.simulate_batch(LADDER_BATCH).fps;
        ladder.row(&[
            rung.to_string(),
            name.into(),
            pct(dsp),
            pct(ram),
            f(fps),
            format!("{:.2}x", fps / f32_fps),
        ]);
        ladder_json.push(Json::obj([
            ("rung", rung.into()),
            ("precision", name.into()),
            ("dsp_pct", dsp.into()),
            ("ram_pct", ram.into()),
            ("fps", fps.into()),
        ]));
    };
    ladder_row(0, "f32", &f32_deployment);
    for (i, r) in rungs.iter().enumerate() {
        ladder_row(i + 1, r.precision.name(), &r.deployment);
    }

    // Mixed precision: greedy per-layer demotion under the error budget,
    // cold from an empty database, then warm from the record it wrote.
    let flow = Flow::new(Model::LeNet5, FpgaPlatform::Stratix10Sx);
    let mut db = TuningDb::new();
    let registry = Registry::default();
    let mut search = || {
        tune_precision(
            &flow,
            &spec,
            MIXED_BUDGET,
            &mut db,
            &Tracer::disabled(),
            &registry,
        )
    };
    let cold = search().expect("mixed-precision search succeeds on LeNet-5");
    let warm = search().expect("warm mixed-precision lookup succeeds");
    assert!(
        warm.from_cache && warm.assignment == cold.assignment,
        "the warm path must serve the cold search's record from the database"
    );
    let mut mixed = Table::new(
        "Mixed precision — greedy per-layer demotion, 5% error budget (LeNet-5, S10SX)",
        &[
            "path",
            "DSPs",
            "baseline DSPs",
            "demoted",
            "worst err",
            "evals",
        ],
    );
    mixed.row(&[
        "cold search".into(),
        cold.record.dsps.to_string(),
        cold.record.baseline_dsps.to_string(),
        format!("{}/{}", cold.record.demoted(), cold.record.assignment.len()),
        format!("{:.3e}", cold.record.worst_error),
        cold.record.evaluations.to_string(),
    ]);
    mixed.row(&[
        "warm (db hit)".into(),
        warm.record.dsps.to_string(),
        warm.record.baseline_dsps.to_string(),
        format!("{}/{}", warm.record.demoted(), warm.record.assignment.len()),
        format!("{:.3e}", warm.record.worst_error),
        "0".into(),
    ]);
    let demoted: Vec<String> = cold
        .record
        .assignment
        .iter()
        .filter(|(_, p)| p != "F32")
        .map(|(layer, p)| format!("{layer}->{p}"))
        .collect();

    // Determinism: the int8 rung rerun from scratch must reproduce every
    // per-layer worst element byte for byte (seeded calibration batch =>
    // same grids => same errors).
    let (_, _, rerun) = diff_rung(QuantPrecision::Int8);
    let int8 = rungs
        .iter()
        .find(|r| r.precision == QuantPrecision::Int8)
        .expect("int8 rung ran");
    let deterministic = report_digest(&rerun) == report_digest(&int8.report);

    if let Ok(path) = std::env::var("FPGACCEL_QUANT_REPORT") {
        let precisions = rungs.iter().map(|r| {
            let w = r.report.worst().expect("LeNet has layers");
            Json::obj([
                ("precision", r.precision.name().into()),
                ("layers", r.report.layers.len().into()),
                ("worst_layer", w.node.as_str().into()),
                ("worst_err", f64::from(w.err).into()),
                ("worst_tol", f64::from(w.tol).into()),
                ("within", r.report.pass().into()),
                ("kernels_verified", r.kernels_verified.into()),
            ])
        });
        let mixed = Json::obj([
            ("baseline_dsps", cold.record.baseline_dsps.into()),
            ("dsps", cold.record.dsps.into()),
            ("demoted", cold.record.demoted().into()),
            ("layers", cold.record.assignment.len().into()),
            ("worst_error", cold.record.worst_error.into()),
            ("error_budget", cold.record.error_budget.into()),
            ("evaluations", cold.record.evaluations.into()),
            ("warm_from_cache", warm.from_cache.into()),
        ]);
        let report = Json::obj([
            ("seed", spec.calibration_seed.into()),
            ("deterministic", deterministic.into()),
            ("precisions", Json::Arr(precisions.collect())),
            ("ladder", Json::Arr(ladder_json)),
            ("mixed", mixed),
        ]);
        std::fs::write(&path, report.render()).expect("quant report artifact writes");
    }

    format!(
        "Quantized inference — calibration, differential verification, mixed precision \
         (seed {:#x})\n{}\n{}\n{}\n{}\nDemoted layers: {}.\n\
         Every rung's host grids stay inside the documented (rtol, atol) envelope and the \
         compiled narrow-MAC kernels re-verify through the IR interpreter; int8 packs two \
         MACs per DSP, which is what moves the ladder's DSP column. The greedy search \
         demotes every layer whose differential stays under the budget ({} of {} on \
         LeNet-5), saving {} modeled DSP block(s) against the all-f32 baseline at a worst \
         per-layer error of {:.3e}.\n\
         Determinism: two runs of the int8 differential are {} (seeded calibration => \
         same grids => same errors, byte for byte).",
        spec.calibration_seed,
        summary.render(),
        layers.render(),
        ladder.render(),
        mixed.render(),
        demoted.join(", "),
        cold.record.demoted(),
        cold.record.assignment.len(),
        cold.record.baseline_dsps - cold.record.dsps,
        cold.record.worst_error,
        if deterministic {
            "identical"
        } else {
            "DIVERGENT"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_passes_and_the_report_is_deterministic() {
        let a = quant();
        assert!(!a.contains("FAILED") && !a.contains("| NO"), "{a}");
        assert!(a.contains("identical"), "{a}");
        assert_eq!(a, quant(), "quant report must be byte-identical run to run");
    }
}
