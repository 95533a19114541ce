//! The narrow-MAC quantization pass: rewrites a kernel so its datapath
//! loads inputs, weights and residuals on calibrated grids, computes on the
//! narrow values, and requantizes the result at the layer boundary (output
//! store or channel write).
//!
//! What FFCNN/DNNVM do with char arithmetic in hardware is modeled here with
//! [`VExpr::Quant`] wrappers: the interpreter evaluates them as fake
//! quantization (round onto the grid, saturate, stay in f32 — the exact
//! functional model of int8 multiplies with i32 accumulation, up to the f32
//! rounding the thesis' `-fp-relaxed` mode already tolerates), and the code
//! generator emits the corresponding OpenCL conversions.
//!
//! Bias and folded batch-norm parameters stay in f32: they are tiny (one
//! value per output channel), live in the epilogue outside the MAC loops,
//! and keeping them wide is what FFCNN-style accelerators do. Softmax
//! kernels are never quantized (probabilities stay f32); the caller simply
//! does not pass them through this pass.

use crate::expr::{QuantMode, VExpr};
use crate::kernel::{BufRole, Kernel};
use crate::stmt::Stmt;
use std::collections::HashMap;

/// Per-kernel quantization spec: the precision plus the calibrated grid
/// steps of every tensor the kernel touches. Scales are ignored in half
/// mode (`qmax == None`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelQuant {
    /// `Some(qmax)` for fixed point, `None` for half precision.
    pub qmax: Option<i32>,
    /// Grid step of the input feature map (and of channel reads, whose
    /// producer shares the grid in a pipelined chain).
    pub input_scale: f32,
    /// Grid step of the weights.
    pub weight_scale: f32,
    /// Grid step of the residual operand (unused when the kernel has none).
    pub residual_scale: f32,
    /// Grid step of the output feature map (and of channel writes).
    pub output_scale: f32,
}

impl KernelQuant {
    /// Half-precision spec (no grids).
    pub fn half() -> Self {
        KernelQuant {
            qmax: None,
            input_scale: 0.0,
            weight_scale: 0.0,
            residual_scale: 0.0,
            output_scale: 0.0,
        }
    }

    fn mode(&self, scale: f32) -> QuantMode {
        match self.qmax {
            Some(qmax) => QuantMode::Fixed { scale, qmax },
            None => QuantMode::Half,
        }
    }
}

/// Rewrites `kernel` with quantized loads and requantizing stores according
/// to `q`. The kernel's name, buffers, channels and loop structure are
/// unchanged — only value expressions gain [`VExpr::Quant`] wrappers:
///
/// * loads from `Input`/`Weights`/`Residual` buffers quantize onto their
///   grids (bias and batch-norm loads stay f32);
/// * channel reads quantize onto the input grid;
/// * stores to the `Output` buffer and channel writes requantize the full
///   (post-epilogue) value onto the output grid.
pub fn quantize_kernel(kernel: &Kernel, q: &KernelQuant) -> Kernel {
    let roles: HashMap<&str, BufRole> = kernel
        .bufs
        .iter()
        .map(|b| (b.name.as_ref(), b.role))
        .collect();
    let mut out = kernel.clone();
    out.body = rewrite_stmt(&kernel.body, &roles, q);
    out
}

fn rewrite_stmt(s: &Stmt, roles: &HashMap<&str, BufRole>, q: &KernelQuant) -> Stmt {
    match s {
        Stmt::For {
            var,
            extent,
            attr,
            body,
        } => Stmt::For {
            var: var.clone(),
            extent: extent.clone(),
            attr: *attr,
            body: Box::new(rewrite_stmt(body, roles, q)),
        },
        Stmt::Block(stmts) => {
            Stmt::Block(stmts.iter().map(|st| rewrite_stmt(st, roles, q)).collect())
        }
        Stmt::Store { buf, idx, val } => {
            let val = rewrite_v(val, roles, q);
            let val = if roles.get(buf.as_ref()) == Some(&BufRole::Output) {
                val.quant(q.mode(q.output_scale))
            } else {
                val
            };
            Stmt::Store {
                buf: buf.clone(),
                idx: idx.clone(),
                val,
            }
        }
        Stmt::If { cond, body } => Stmt::If {
            cond: cond.clone(),
            body: Box::new(rewrite_stmt(body, roles, q)),
        },
        Stmt::WriteChannel { chan, val } => Stmt::WriteChannel {
            chan: chan.clone(),
            val: rewrite_v(val, roles, q).quant(q.mode(q.output_scale)),
        },
    }
}

fn rewrite_v(e: &VExpr, roles: &HashMap<&str, BufRole>, q: &KernelQuant) -> VExpr {
    match e {
        VExpr::Load { buf, .. } => {
            let scale = match roles.get(buf.as_ref()) {
                Some(BufRole::Input) => Some(q.input_scale),
                Some(BufRole::Weights) => Some(q.weight_scale),
                Some(BufRole::Residual) => Some(q.residual_scale),
                _ => None, // bias/bn/scratch stay f32
            };
            match scale {
                Some(s) => e.clone().quant(q.mode(s)),
                None => e.clone(),
            }
        }
        VExpr::ReadChannel(_) => e.clone().quant(q.mode(q.input_scale)),
        VExpr::Bin(op, a, b) => VExpr::Bin(
            *op,
            Box::new(rewrite_v(a, roles, q)),
            Box::new(rewrite_v(b, roles, q)),
        ),
        VExpr::Exp(a) => VExpr::Exp(Box::new(rewrite_v(a, roles, q))),
        VExpr::Select(c, a, b) => VExpr::Select(
            c.clone(),
            Box::new(rewrite_v(a, roles, q)),
            Box::new(rewrite_v(b, roles, q)),
        ),
        VExpr::Quant(a, m) => VExpr::Quant(Box::new(rewrite_v(a, roles, q)), *m),
        VExpr::Const(_) | VExpr::FromInt(_) => e.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Binding;
    use crate::expr::IExpr;
    use crate::interp::Interp;
    use crate::kernel::BufferDecl;
    use std::collections::HashMap as Map;

    /// y[i] = x[i] * w[i] with roles Input/Weights/Output.
    fn mac_kernel(n: i64) -> Kernel {
        let body = Stmt::for_(
            "i",
            IExpr::Const(n),
            Stmt::store(
                "y",
                IExpr::var("i"),
                VExpr::load("x", IExpr::var("i")).mul(VExpr::load("w", IExpr::var("i"))),
            ),
        );
        let mut k = Kernel::new("mac", body);
        k.bufs = vec![
            BufferDecl::global("x", BufRole::Input, IExpr::Const(n)),
            BufferDecl::global("w", BufRole::Weights, IExpr::Const(n)),
            BufferDecl::global("y", BufRole::Output, IExpr::Const(n)),
        ];
        k
    }

    fn fixed_spec() -> KernelQuant {
        KernelQuant {
            qmax: Some(127),
            input_scale: 1.0 / 127.0,
            weight_scale: 1.0 / 127.0,
            residual_scale: 1.0 / 127.0,
            output_scale: 1.0 / 127.0,
        }
    }

    #[test]
    fn pass_wraps_loads_and_stores_but_not_structure() {
        let k = mac_kernel(4);
        let qk = quantize_kernel(&k, &fixed_spec());
        assert_eq!(qk.name, k.name);
        assert_eq!(qk.bufs, k.bufs);
        let mut quants = 0;
        qk.body.visit_values(&mut |v| {
            if matches!(v, VExpr::Quant(..)) {
                quants += 1;
            }
        });
        // Two wrapped loads + one wrapped store value.
        assert_eq!(quants, 3);
    }

    #[test]
    fn quantized_interp_snaps_to_the_grid() {
        let k = mac_kernel(3);
        let qk = quantize_kernel(&k, &fixed_spec());
        let mut inputs = Map::new();
        inputs.insert("x".to_string(), vec![0.5, -0.25, 2.0]); // 2.0 saturates at 1.0
        inputs.insert("w".to_string(), vec![1.0, 1.0, 1.0]);
        let out = Interp::new().run(&qk, &Binding::empty(), &inputs);
        let s = 1.0 / 127.0f32;
        let expect = |x: f32| {
            let g = fpgaccel_tensor::quant::fake_quant(x, s, 127);
            fpgaccel_tensor::quant::fake_quant(
                g * fpgaccel_tensor::quant::fake_quant(1.0, s, 127),
                s,
                127,
            )
        };
        for (got, x) in out["y"].iter().zip([0.5f32, -0.25, 2.0]) {
            assert!(
                (got - expect(x)).abs() < 1e-6,
                "got {got}, want {}",
                expect(x)
            );
        }
        // Saturation: 2.0 on a [-1, 1] grid clamps to 1.0.
        assert!((out["y"][2] - expect(2.0)).abs() < 1e-6);
        assert!(out["y"][2] <= 1.0 + 1e-6);
    }

    #[test]
    fn half_mode_rounds_through_binary16() {
        let k = mac_kernel(1);
        let qk = quantize_kernel(&k, &KernelQuant::half());
        let mut inputs = Map::new();
        inputs.insert("x".to_string(), vec![0.1f32]);
        inputs.insert("w".to_string(), vec![1.0f32]);
        let out = Interp::new().run(&qk, &Binding::empty(), &inputs);
        let h = fpgaccel_tensor::quant::f16_round(0.1);
        assert!((out["y"][0] - h).abs() < 1e-7);
        assert_ne!(out["y"][0], 0.1f32); // 0.1 is not exactly representable in half
    }

    #[test]
    fn bias_loads_stay_f32() {
        let body = Stmt::store(
            "y",
            IExpr::Const(0),
            VExpr::load("x", IExpr::Const(0)).add(VExpr::load("bias", IExpr::Const(0))),
        );
        let mut k = Kernel::new("b", body);
        k.bufs = vec![
            BufferDecl::global("x", BufRole::Input, IExpr::Const(1)),
            BufferDecl::global("bias", BufRole::Bias, IExpr::Const(1)),
            BufferDecl::global("y", BufRole::Output, IExpr::Const(1)),
        ];
        let qk = quantize_kernel(&k, &fixed_spec());
        let mut bias_wrapped = false;
        qk.body.visit_values(&mut |v| {
            if let VExpr::Quant(inner, _) = v {
                if matches!(&**inner, VExpr::Load { buf, .. } if buf == "bias") {
                    bias_wrapped = true;
                }
            }
        });
        assert!(!bias_wrapped, "bias must stay f32");
    }

    #[test]
    fn channel_io_is_quantized() {
        let body = Stmt::WriteChannel {
            chan: "c".into(),
            val: VExpr::ReadChannel("in".into()),
        };
        let k = Kernel::new("relay", body);
        let qk = quantize_kernel(&k, &fixed_spec());
        let Stmt::WriteChannel { val, .. } = &qk.body else {
            panic!("structure preserved");
        };
        assert!(matches!(val, VExpr::Quant(..)));
        let VExpr::Quant(inner, _) = val else {
            unreachable!()
        };
        assert!(matches!(&**inner, VExpr::Quant(..)), "read also wrapped");
    }

    #[test]
    fn codegen_emits_narrow_mac_conversions() {
        let k = mac_kernel(2);
        let qk = quantize_kernel(&k, &fixed_spec());
        let src = crate::codegen::emit_kernel(&qk);
        assert!(src.contains("convert_int_rte"), "{src}");
        assert!(src.contains("clamp("), "{src}");
        assert!(src.contains("-127, 127"), "{src}");

        let hk = quantize_kernel(&k, &KernelQuant::half());
        let src = crate::codegen::emit_program(&[&hk]);
        assert!(src.contains("cl_khr_fp16"), "{src}");
        assert!(src.contains("(half)"), "{src}");
    }
}
