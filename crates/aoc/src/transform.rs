//! Compiler-side kernel transformations AOC applies on its own.
//!
//! §6.3.1 footnote 4: "Quartus versions (< 19.1) for A10 and S10SX
//! automatically unroll loops with a small trip count. This includes a
//! `F x F` unroll factor for these platforms." This module implements that
//! auto-unroll so the *same* generated kernel synthesizes differently per
//! platform — which is why explicit unrolling gains 3.44x on the S10MX but
//! only 1.14–1.41x on the A10/S10SX (Figure 6.1).

use fpgaccel_tir::expr::IExpr;
use fpgaccel_tir::stmt::{LoopAttr, Stmt};
use fpgaccel_tir::Kernel;

/// Largest trip count the old Quartus scheduler unrolls automatically.
pub const AUTO_UNROLL_MAX_TRIPS: i64 = 4;

/// Largest replicated-work multiplicity the scheduler will create by
/// auto-unrolling (it replicates small bodies, not whole tiles).
pub const AUTO_UNROLL_MAX_WORK: i64 = 16;

/// Marks every constant-extent loop with trip count <= `max_trips` whose
/// body contains no pipelined/serial loop — and whose resulting replication
/// stays small — as unrolled, bottom-up (so an `ry { rx }` pair both unroll,
/// giving the `F x F` factor of footnote 4, while a tiled reduction whose
/// body is already a 16-wide unrolled block is left scheduled).
pub fn auto_unroll_small_loops(kernel: &Kernel, max_trips: i64) -> Kernel {
    Kernel {
        name: kernel.name.clone(),
        bufs: kernel.bufs.clone(),
        int_params: kernel.int_params.clone(),
        chan_in: kernel.chan_in.clone(),
        chan_out: kernel.chan_out.clone(),
        body: rewrite(&kernel.body, max_trips),
        autorun: kernel.autorun,
    }
}

fn rewrite(stmt: &Stmt, max_trips: i64) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            extent,
            attr,
            body,
        } => {
            let new_body = rewrite(body, max_trips);
            let small = matches!(extent, IExpr::Const(c) if *c <= max_trips && *c > 1);
            let trips = match extent {
                IExpr::Const(c) => *c,
                _ => 0,
            };
            let attr = if *attr == LoopAttr::Pipelined
                && small
                && !contains_scheduled_loop(&new_body)
                && trips * unrolled_work(&new_body) <= AUTO_UNROLL_MAX_WORK
            {
                LoopAttr::Unrolled
            } else {
                *attr
            };
            Stmt::For {
                var: var.clone(),
                extent: extent.clone(),
                attr,
                body: Box::new(new_body),
            }
        }
        Stmt::Block(v) => Stmt::Block(v.iter().map(|s| rewrite(s, max_trips)).collect()),
        Stmt::If { cond, body } => Stmt::If {
            cond: cond.clone(),
            body: Box::new(rewrite(body, max_trips)),
        },
        other => other.clone(),
    }
}

/// True if the statement contains any non-unrolled loop.
fn contains_scheduled_loop(stmt: &Stmt) -> bool {
    let mut found = false;
    stmt.visit(&mut |s| {
        if let Stmt::For { attr, .. } = s {
            if *attr != LoopAttr::Unrolled {
                found = true;
            }
        }
    });
    found
}

/// Replicated work in a statement: stores/channel writes multiplied by the
/// extents of enclosing unrolled loops.
fn unrolled_work(stmt: &Stmt) -> i64 {
    match stmt {
        Stmt::For {
            extent,
            attr: LoopAttr::Unrolled,
            body,
            ..
        } => {
            let n = match extent {
                IExpr::Const(c) => *c,
                _ => 1,
            };
            n * unrolled_work(body)
        }
        Stmt::For { body, .. } | Stmt::If { body, .. } => unrolled_work(body),
        Stmt::Block(v) => v.iter().map(unrolled_work).sum(),
        Stmt::Store { .. } | Stmt::WriteChannel { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_tir::analysis::analyze;
    use fpgaccel_tir::compute::{conv2d, ConvDims, ConvSpec};

    #[test]
    fn base_conv_gets_ff_auto_unroll() {
        // A 3x3 base conv: rx and ry (trip 3) auto-unroll; rc/yy/xx do not.
        let spec = ConvSpec::base("c", ConvDims::constant(4, 8, 6, 6, 3, 1), false);
        let k = conv2d(&spec);
        let before = analyze(&k);
        assert_eq!(before.ops.fmul, 1, "no replication before auto-unroll");

        let k2 = auto_unroll_small_loops(&k, AUTO_UNROLL_MAX_TRIPS);
        let after = analyze(&k2);
        assert_eq!(after.ops.fmul, 9, "F*F = 9 replication after auto-unroll");
    }

    #[test]
    fn one_by_one_conv_is_unchanged() {
        // 1x1 convs have trip-1 reduction loops: nothing to auto-unroll.
        let spec = ConvSpec::base("c11", ConvDims::constant(8, 16, 6, 6, 1, 1), false);
        let k = conv2d(&spec);
        let k2 = auto_unroll_small_loops(&k, AUTO_UNROLL_MAX_TRIPS);
        assert_eq!(analyze(&k2).ops.fmul, analyze(&k).ops.fmul);
    }

    #[test]
    fn large_loops_never_auto_unroll() {
        let spec = ConvSpec::base("c", ConvDims::constant(4, 8, 6, 6, 3, 1), false);
        let k = auto_unroll_small_loops(&conv2d(&spec), AUTO_UNROLL_MAX_TRIPS);
        // rc (extent 8) must remain pipelined.
        let mut rc_attr = None;
        k.body.visit(&mut |s| {
            if let Stmt::For { var, attr, .. } = s {
                if var == "rc" {
                    rc_attr = Some(*attr);
                }
            }
        });
        assert_eq!(rc_attr, Some(LoopAttr::Pipelined));
    }
}
