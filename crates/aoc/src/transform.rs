//! Compiler-side kernel transformations AOC applies on its own.
//!
//! §6.3.1 footnote 4: "Quartus versions (< 19.1) for A10 and S10SX
//! automatically unroll loops with a small trip count. This includes a
//! `F x F` unroll factor for these platforms." This module computes that
//! auto-unroll as a view of the kernel's loop attributes:
//! [`auto_unroll_attrs`] gives every loop's effective attribute, and
//! [`analyze_with`] reads the kernel through them, so the *same* generated
//! kernel synthesizes differently per platform without being copied —
//! which is why explicit unrolling gains 3.44x on the S10MX but only
//! 1.14–1.41x on the A10/S10SX (Figure 6.1).
//!
//! [`analyze_with`]: fpgaccel_tir::analysis::analyze_with

use fpgaccel_tir::expr::IExpr;
use fpgaccel_tir::stmt::{LoopAttr, Stmt};
use fpgaccel_tir::Kernel;

/// Largest trip count the old Quartus scheduler unrolls automatically.
pub const AUTO_UNROLL_MAX_TRIPS: i64 = 4;

/// Largest replicated-work multiplicity the scheduler will create by
/// auto-unrolling (it replicates small bodies, not whole tiles).
pub const AUTO_UNROLL_MAX_WORK: i64 = 16;

/// The attribute every loop of `kernel` has after auto-unroll, one per
/// [`Stmt::For`] in preorder. A pipelined loop of constant trip count in
/// `2..=`[`AUTO_UNROLL_MAX_TRIPS`] unrolls when its body, as auto-unrolled,
/// holds no scheduled (pipelined or serial) loop and the replication stays
/// small. The rule runs bottom-up, so an `ry { rx }` pair both unroll,
/// giving the `F x F` factor of footnote 4, while a tiled reduction whose
/// body is already a 16-wide unrolled block stays scheduled.
pub fn auto_unroll_attrs(kernel: &Kernel) -> Vec<LoopAttr> {
    let mut loops = 0;
    kernel
        .body
        .visit(&mut |s| loops += usize::from(matches!(s, Stmt::For { .. })));
    let mut attrs = Vec::with_capacity(loops);
    mark(&kernel.body, &mut attrs);
    attrs
}

/// Appends the effective attributes of the loops in `stmt` to `attrs` in
/// preorder. Returns whether `stmt` keeps a scheduled loop, and its
/// replicated work: stores and channel writes multiplied by the extents of
/// the unrolled loops around them.
fn mark(stmt: &Stmt, attrs: &mut Vec<LoopAttr>) -> (bool, i64) {
    match stmt {
        Stmt::For {
            extent, attr, body, ..
        } => {
            let at = attrs.len();
            attrs.push(*attr);
            let (scheduled, work) = mark(body, attrs);
            let trips = match extent {
                IExpr::Const(c) => Some(*c),
                _ => None,
            };
            let small =
                |c: i64| c > 1 && c <= AUTO_UNROLL_MAX_TRIPS && c * work <= AUTO_UNROLL_MAX_WORK;
            if *attr == LoopAttr::Pipelined && !scheduled && trips.is_some_and(small) {
                attrs[at] = LoopAttr::Unrolled;
            }
            match attrs[at] {
                LoopAttr::Unrolled => (scheduled, trips.unwrap_or(1) * work),
                _ => (true, work),
            }
        }
        Stmt::Block(v) => v.iter().fold((false, 0), |(scheduled, work), s| {
            let (s, w) = mark(s, attrs);
            (scheduled || s, work + w)
        }),
        Stmt::If { body, .. } => mark(body, attrs),
        Stmt::Store { .. } | Stmt::WriteChannel { .. } => (false, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_tir::analysis::{analyze, analyze_with};
    use fpgaccel_tir::compute::{conv2d, ConvDims, ConvSpec};

    /// The loops of `k` in preorder: each variable and its own attribute.
    fn loops(k: &Kernel) -> Vec<(&str, LoopAttr)> {
        let mut loops = Vec::new();
        k.body.visit(&mut |s| {
            if let Stmt::For { var, attr, .. } = s {
                loops.push((var.as_ref(), *attr));
            }
        });
        loops
    }

    /// The effective attribute of the loop over `var`.
    fn attr_of(k: &Kernel, attrs: &[LoopAttr], var: &str) -> LoopAttr {
        let loops = loops(k);
        assert_eq!(loops.len(), attrs.len(), "one attribute per loop");
        let at = loops
            .iter()
            .position(|(v, _)| *v == var)
            .expect("loop exists");
        attrs[at]
    }

    #[test]
    fn base_conv_gets_ff_auto_unroll() {
        // A 3x3 base conv: rx and ry (trip 3) auto-unroll; rc/yy/xx do not.
        let spec = ConvSpec::base("c", ConvDims::constant(4, 8, 6, 6, 3, 1), false);
        let k = conv2d(&spec);
        assert_eq!(analyze(&k).ops.fmul, 1, "no replication before auto-unroll");

        let attrs = auto_unroll_attrs(&k);
        let after = analyze_with(&k, &attrs);
        assert_eq!(after.ops.fmul, 9, "F*F = 9 replication after auto-unroll");
        assert_eq!(attr_of(&k, &attrs, "ry"), LoopAttr::Unrolled);
        assert_eq!(attr_of(&k, &attrs, "rx"), LoopAttr::Unrolled);
    }

    #[test]
    fn one_by_one_conv_is_unchanged() {
        // 1x1 convs have trip-1 reduction loops: nothing to auto-unroll.
        let spec = ConvSpec::base("c11", ConvDims::constant(8, 16, 6, 6, 1, 1), false);
        let k = conv2d(&spec);
        let attrs = auto_unroll_attrs(&k);
        let own: Vec<LoopAttr> = loops(&k).into_iter().map(|(_, attr)| attr).collect();
        assert_eq!(attrs, own, "the kernel's own attributes");
    }

    #[test]
    fn large_loops_never_auto_unroll() {
        let spec = ConvSpec::base("c", ConvDims::constant(4, 8, 6, 6, 3, 1), false);
        let k = conv2d(&spec);
        let attrs = auto_unroll_attrs(&k);
        // rc (extent 8) must remain pipelined.
        assert_eq!(attr_of(&k, &attrs, "rc"), LoopAttr::Pipelined);
    }
}
