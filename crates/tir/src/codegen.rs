//! OpenCL C code generation, mirroring what TVM's OpenCL codegen plus the
//! thesis' hand modifications emit (Chapters 4–5 listings).
//!
//! The emitted source is not compiled anywhere in this workspace (Intel AOC
//! is simulated by `fpgaccel-aoc` directly from the IR), but it is golden —
//! covered by snapshot-style tests — because it is the artifact a user of the
//! real flow would inspect, and it demonstrates each optimization exactly as
//! the thesis listings do. See `examples/codegen_tour.rs`.

use crate::expr::{BExpr, IExpr, QuantMode, VBinOp, VExpr};
use crate::kernel::{ChannelDecl, Kernel, Scope};
use crate::stmt::{LoopAttr, Stmt};
use std::fmt::Write as _;

/// Emits a complete `.cl` translation unit for a set of kernels sharing
/// program-scope channel declarations.
pub fn emit_program(kernels: &[&Kernel]) -> String {
    let mut out = String::new();
    // Half-precision quantization needs the fp16 extension enabled at
    // program scope.
    let uses_half = kernels.iter().any(|k| {
        let mut found = false;
        k.body.visit_values(&mut |v| {
            if matches!(v, VExpr::Quant(_, QuantMode::Half)) {
                found = true;
            }
        });
        found
    });
    if uses_half {
        out.push_str("#pragma OPENCL EXTENSION cl_khr_fp16 : enable\n\n");
    }
    let mut chans: Vec<&ChannelDecl> = Vec::new();
    for k in kernels {
        for c in k.chan_in.iter().chain(&k.chan_out) {
            if !chans.iter().any(|x| x.name == c.name) {
                chans.push(c);
            }
        }
    }
    if !chans.is_empty() {
        out.push_str("#pragma OPENCL EXTENSION cl_intel_channels : enable\n\n");
        for c in &chans {
            let ty = if c.width > 1 {
                format!("float{}", c.width)
            } else {
                "float".to_string()
            };
            // The depth attribute counts channel words, not elements.
            let words = c.depth.div_ceil(c.width.max(1));
            if words > 0 {
                let _ = writeln!(
                    out,
                    "channel {ty} {} __attribute__((depth({words})));",
                    c.name
                );
            } else {
                let _ = writeln!(out, "channel {ty} {};", c.name);
            }
        }
        out.push('\n');
    }
    for (i, k) in kernels.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&emit_kernel(k));
    }
    out
}

/// Emits one kernel definition.
pub fn emit_kernel(k: &Kernel) -> String {
    let mut out = String::new();
    if k.autorun {
        // §4.7: the two attributes required for autorun kernels.
        out.push_str("__attribute__((max_global_work_dim(0)))\n");
        out.push_str("__attribute__((autorun))\n");
    }
    let mut args: Vec<String> = k
        .global_bufs()
        .map(|b| format!("global float* restrict {}", b.name))
        .collect();
    args.extend(k.int_params.iter().map(|p| format!("int {p}")));
    let _ = writeln!(out, "kernel void {}({}) {{", k.name, args.join(", "));
    for b in &k.bufs {
        match b.scope {
            Scope::Global => {}
            Scope::Local => {
                let _ = writeln!(out, "  local float {}[{}];", b.name, iexpr(&b.len));
            }
            Scope::Private => {
                let _ = writeln!(out, "  float {}[{}];", b.name, iexpr(&b.len));
            }
        }
    }
    emit_stmt(&k.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn emit_stmt(s: &Stmt, depth: usize, out: &mut String) {
    match s {
        Stmt::For {
            var,
            extent,
            attr,
            body,
        } => {
            match attr {
                LoopAttr::Unrolled => {
                    indent(depth, out);
                    out.push_str("#pragma unroll\n");
                }
                LoopAttr::Serial => {
                    indent(depth, out);
                    out.push_str("#pragma unroll 1\n");
                }
                LoopAttr::Pipelined => {}
            }
            indent(depth, out);
            let _ = writeln!(
                out,
                "for (int {var} = 0; {var} < {}; ++{var}) {{",
                iexpr(extent)
            );
            emit_stmt(body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::Block(stmts) => {
            for st in stmts {
                emit_stmt(st, depth, out);
            }
        }
        Stmt::Store { buf, idx, val } => {
            indent(depth, out);
            let _ = writeln!(out, "{buf}[{}] = {};", iexpr(idx), vexpr(val));
        }
        Stmt::If { cond, body } => {
            indent(depth, out);
            let _ = writeln!(out, "if ({}) {{", bexpr(cond));
            emit_stmt(body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::WriteChannel { chan, val } => {
            indent(depth, out);
            let _ = writeln!(out, "write_channel_intel({chan}, {});", vexpr(val));
        }
    }
}

fn iexpr(e: &IExpr) -> String {
    match e {
        IExpr::Const(c) => c.to_string(),
        IExpr::Var(v) => v.to_string(),
        IExpr::Add(a, b) => format!("({} + {})", iexpr(a), iexpr(b)),
        IExpr::Sub(a, b) => format!("({} - {})", iexpr(a), iexpr(b)),
        IExpr::Mul(a, b) => format!("({} * {})", iexpr(a), iexpr(b)),
        IExpr::Div(a, b) => format!("({} / {})", iexpr(a), iexpr(b)),
        IExpr::Mod(a, b) => format!("({} % {})", iexpr(a), iexpr(b)),
    }
}

fn vexpr(e: &VExpr) -> String {
    match e {
        VExpr::Const(c) => format!("{}f", fmt_f32(*c)),
        VExpr::Load { buf, idx } => format!("{buf}[{}]", iexpr(idx)),
        VExpr::Bin(op, a, b) => {
            let (x, y) = (vexpr(a), vexpr(b));
            match op {
                VBinOp::Add => format!("({x} + {y})"),
                VBinOp::Sub => format!("({x} - {y})"),
                VBinOp::Mul => format!("({x} * {y})"),
                VBinOp::Div => format!("({x} / {y})"),
                VBinOp::Max => format!("max({x}, {y})"),
                VBinOp::Min => format!("min({x}, {y})"),
            }
        }
        VExpr::Exp(a) => format!("exp({})", vexpr(a)),
        VExpr::Select(c, a, b) => {
            format!("({} ? {} : {})", bexpr(c), vexpr(a), vexpr(b))
        }
        VExpr::ReadChannel(chan) => format!("read_channel_intel({chan})"),
        VExpr::FromInt(i) => format!("(float)({})", iexpr(i)),
        VExpr::Quant(a, mode) => match mode {
            // Narrow-MAC form: quantize onto the integer grid (int8 kernels
            // multiply char operands and accumulate in int; the dequantize
            // multiply happens once at the layer boundary).
            QuantMode::Fixed { scale, qmax } => format!(
                "({}f * convert_float(clamp(convert_int_rte(({}) / {}f), -{qmax}, {qmax})))",
                fmt_f32(*scale),
                vexpr(a),
                fmt_f32(*scale)
            ),
            QuantMode::Half => format!("((float)((half)({})))", vexpr(a)),
        },
    }
}

/// Formats an `f32` the way [`vexpr`] formats float literals (without the
/// `f` suffix, which callers append).
fn fmt_f32(c: f32) -> String {
    if c == c.trunc() && c.abs() < 1e7 {
        format!("{c:.1}")
    } else if c.abs() >= 1e-3 && c.abs() < 1e7 {
        format!("{c}")
    } else {
        format!("{c:e}")
    }
}

fn bexpr(e: &BExpr) -> String {
    match e {
        BExpr::Lt(a, b) => format!("({} < {})", iexpr(a), iexpr(b)),
        BExpr::Ge(a, b) => format!("({} >= {})", iexpr(a), iexpr(b)),
        BExpr::Eq(a, b) => format!("({} == {})", iexpr(a), iexpr(b)),
        BExpr::And(a, b) => format!("({} && {})", bexpr(a), bexpr(b)),
        BExpr::Or(a, b) => format!("({} || {})", bexpr(a), bexpr(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BufRole, BufferDecl};

    #[test]
    fn emits_listing_4_1_shape() {
        let body = Stmt::for_(
            "i",
            IExpr::Const(64),
            Stmt::store(
                "c",
                IExpr::var("i"),
                VExpr::load("a", IExpr::var("i")).add(VExpr::load("b", IExpr::var("i"))),
            ),
        );
        let mut k = Kernel::new("vec_add", body);
        k.bufs = vec![
            BufferDecl::global("a", BufRole::Input, IExpr::Const(64)),
            BufferDecl::global("b", BufRole::Weights, IExpr::Const(64)),
            BufferDecl::global("c", BufRole::Output, IExpr::Const(64)),
        ];
        let src = emit_kernel(&k);
        assert!(src.contains(
            "kernel void vec_add(global float* restrict a, global float* restrict b, \
             global float* restrict c)"
        ));
        assert!(src.contains("for (int i = 0; i < 64; ++i)"));
        assert!(src.contains("c[i] = (a[i] + b[i]);"));
    }

    #[test]
    fn unroll_pragma_and_private_arrays() {
        let body = Stmt::unrolled(
            "j",
            IExpr::Const(4),
            Stmt::store("tmp", IExpr::var("j"), VExpr::Const(0.0)),
        );
        let mut k = Kernel::new("t", body);
        k.bufs = vec![BufferDecl::private("tmp", IExpr::Const(4))];
        let src = emit_kernel(&k);
        assert!(src.contains("#pragma unroll\n"));
        assert!(src.contains("float tmp[4];"));
    }

    #[test]
    fn autorun_attributes_match_listing_4_14() {
        let mut k = Kernel::new(
            "B",
            Stmt::WriteChannel {
                chan: "c1".into(),
                val: VExpr::ReadChannel("c0".into()).mul(VExpr::Const(0.35)),
            },
        );
        k.mark_autorun();
        k.chan_in.push(ChannelDecl::scalar("c0", 0));
        k.chan_out.push(ChannelDecl::scalar("c1", 8));
        let src = emit_program(&[&k]);
        assert!(src.contains("__attribute__((max_global_work_dim(0)))"));
        assert!(src.contains("__attribute__((autorun))"));
        assert!(src.contains("channel float c0;"));
        assert!(src.contains("channel float c1 __attribute__((depth(8)));"));
        assert!(src.contains("write_channel_intel(c1, (read_channel_intel(c0) * 0.35f));"));
    }

    #[test]
    fn int_params_become_arguments() {
        let mut k = Kernel::new(
            "param",
            Stmt::for_(
                "i",
                IExpr::var("n"),
                Stmt::store("y", IExpr::var("i"), VExpr::Const(0.0)),
            ),
        );
        k.bufs = vec![BufferDecl::global("y", BufRole::Output, IExpr::var("n"))];
        k.int_params = vec!["n".into()];
        let src = emit_kernel(&k);
        assert!(src.contains("kernel void param(global float* restrict y, int n)"));
        assert!(src.contains("i < n"));
    }
}
