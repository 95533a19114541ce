//! Reusable schedule primitives (§2.5.1, Chapter 4).
//!
//! The thesis applies TVM schedule primitives to transform naive loop nests:
//! `split` (strip mining / tiling, §4.2), `unroll` (§4.1), loop fusion
//! (§4.3) and loop-invariant code motion (§4.4) are implemented here as
//! generic IR rewrites. Cached writes (§4.5) change the memory scope of an
//! operator's accumulator and are applied at kernel-generation time in
//! [`crate::compute`], exactly as the thesis implements them per-operator
//! (Chapter 5).

use crate::expr::IExpr;
use crate::stmt::{LoopAttr, Stmt};

/// Why a schedule primitive cannot be applied to a statement — the
/// structured form of the legality checks, so callers (the auto-tuner's
/// proposal generator, the folded planner) can reject a candidate *before*
/// synthesis instead of panicking mid-rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// `var` names no loop in the statement.
    NoSuchLoop {
        /// The missing loop variable.
        var: String,
    },
    /// A constant trip count is not evenly divisible by the split factor
    /// (requirement 2 of §4.11 — the flow generates no epilogue loops).
    NotDivisible {
        /// The loop variable.
        var: String,
        /// Its constant extent.
        extent: i64,
        /// The requested split factor.
        factor: usize,
    },
    /// No adjacent `first`/`second` loop pair exists to fuse.
    NoAdjacentPair {
        /// First loop variable.
        first: String,
        /// Second loop variable.
        second: String,
    },
    /// An adjacent pair exists but the trip counts differ.
    ExtentMismatch {
        /// First loop variable.
        first: String,
        /// Second loop variable.
        second: String,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoSuchLoop { var } => write!(f, "no loop named `{var}`"),
            ScheduleError::NotDivisible {
                var,
                extent,
                factor,
            } => write!(
                f,
                "extent {extent} of `{var}` not divisible by {factor} \
                 (the flow avoids epilogue loops, §4.11)"
            ),
            ScheduleError::NoAdjacentPair { first, second } => {
                write!(f, "no adjacent `{first}`/`{second}` pair found")
            }
            ScheduleError::ExtentMismatch { first, second } => write!(
                f,
                "extents of `{first}` and `{second}` differ \
                 (peel iterations first, §4.3)"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Strip-mines the loop named `var` by `factor`: replaces
/// `for var in 0..E` with `for var_o in 0..E/factor { for var_i in 0..factor }`
/// and substitutes `var := var_o * factor + var_i` in the body (§4.2,
/// Listing 4.4).
///
/// Requirement 2 of §4.11: the trip count must be evenly divisible by the
/// factor (the thesis avoids prologue/epilogue generation); constant extents
/// are checked, symbolic extents are divided symbolically and the host is
/// responsible for binding divisible values.
///
/// Returns the transformed statement; loops other than `var` are untouched.
///
/// # Panics
/// Panics if a constant extent is not divisible by `factor`, or if `var`
/// does not name a loop in `stmt`. Use [`try_split`] for the fallible form.
pub fn split(stmt: &Stmt, var: &str, factor: usize) -> Stmt {
    try_split(stmt, var, factor).unwrap_or_else(|e| panic!("split: {e}"))
}

/// [`split`] returning a structured [`ScheduleError`] instead of panicking
/// on an indivisible constant extent or a missing loop. The tuner's
/// proposal generator uses this to validate candidate factors against loop
/// extents before synthesis.
///
/// # Errors
/// [`ScheduleError::NotDivisible`] or [`ScheduleError::NoSuchLoop`].
pub fn try_split(stmt: &Stmt, var: &str, factor: usize) -> Result<Stmt, ScheduleError> {
    let mut found = false;
    let mut err = None;
    let out = split_inner(stmt, var, factor, &mut found, &mut err);
    if let Some(e) = err {
        return Err(e);
    }
    if !found {
        return Err(ScheduleError::NoSuchLoop { var: var.into() });
    }
    Ok(out)
}

fn split_inner(
    stmt: &Stmt,
    var: &str,
    factor: usize,
    found: &mut bool,
    err: &mut Option<ScheduleError>,
) -> Stmt {
    match stmt {
        Stmt::For {
            var: v,
            extent,
            attr,
            body,
        } if v == var => {
            *found = true;
            if let IExpr::Const(e) = extent {
                if !(*e as usize).is_multiple_of(factor) {
                    *err = Some(ScheduleError::NotDivisible {
                        var: var.into(),
                        extent: *e,
                        factor,
                    });
                    return stmt.clone();
                }
            }
            let (vo, vi) = (format!("{var}_o"), format!("{var}_i"));
            let outer_extent = extent.clone().div(IExpr::Const(factor as i64));
            let rebuilt = IExpr::var(vo.clone())
                .mul(IExpr::Const(factor as i64))
                .add(IExpr::var(vi.clone()));
            let new_body = subst_stmt(body, var, &rebuilt);
            Stmt::For {
                var: vo.into(),
                extent: outer_extent,
                attr: *attr,
                body: Box::new(Stmt::For {
                    var: vi.into(),
                    extent: IExpr::Const(factor as i64),
                    attr: LoopAttr::Pipelined,
                    body: Box::new(new_body),
                }),
            }
        }
        Stmt::For {
            var: v,
            extent,
            attr,
            body,
        } => Stmt::For {
            var: v.clone(),
            extent: extent.clone(),
            attr: *attr,
            body: Box::new(split_inner(body, var, factor, found, err)),
        },
        Stmt::Block(stmts) => Stmt::Block(
            stmts
                .iter()
                .map(|s| split_inner(s, var, factor, found, err))
                .collect(),
        ),
        Stmt::If { cond, body } => Stmt::If {
            cond: cond.clone(),
            body: Box::new(split_inner(body, var, factor, found, err)),
        },
        other => other.clone(),
    }
}

/// Marks the loop named `var` as unrolled (`#pragma unroll`, §4.1).
///
/// # Panics
/// Panics if `var` does not name a loop. Use [`try_unroll`] for the
/// fallible form.
pub fn unroll(stmt: &Stmt, var: &str) -> Stmt {
    set_attr(stmt, var, LoopAttr::Unrolled)
}

/// [`unroll`] returning [`ScheduleError::NoSuchLoop`] instead of panicking.
///
/// # Errors
/// [`ScheduleError::NoSuchLoop`].
pub fn try_unroll(stmt: &Stmt, var: &str) -> Result<Stmt, ScheduleError> {
    try_set_attr(stmt, var, LoopAttr::Unrolled)
}

/// Marks the loop named `var` as explicitly serial (`#pragma unroll 1`).
///
/// # Panics
/// Panics if `var` does not name a loop. Use [`try_serialize`] for the
/// fallible form.
pub fn serialize(stmt: &Stmt, var: &str) -> Stmt {
    set_attr(stmt, var, LoopAttr::Serial)
}

/// [`serialize`] returning [`ScheduleError::NoSuchLoop`] instead of
/// panicking.
///
/// # Errors
/// [`ScheduleError::NoSuchLoop`].
pub fn try_serialize(stmt: &Stmt, var: &str) -> Result<Stmt, ScheduleError> {
    try_set_attr(stmt, var, LoopAttr::Serial)
}

fn set_attr(stmt: &Stmt, var: &str, new_attr: LoopAttr) -> Stmt {
    try_set_attr(stmt, var, new_attr).unwrap_or_else(|e| panic!("{e}"))
}

fn try_set_attr(stmt: &Stmt, var: &str, new_attr: LoopAttr) -> Result<Stmt, ScheduleError> {
    let mut found = false;
    let out = set_attr_inner(stmt, var, new_attr, &mut found);
    if !found {
        return Err(ScheduleError::NoSuchLoop { var: var.into() });
    }
    Ok(out)
}

fn set_attr_inner(stmt: &Stmt, var: &str, new_attr: LoopAttr, found: &mut bool) -> Stmt {
    match stmt {
        Stmt::For {
            var: v,
            extent,
            attr,
            body,
        } => {
            let attr = if v == var {
                *found = true;
                new_attr
            } else {
                *attr
            };
            Stmt::For {
                var: v.clone(),
                extent: extent.clone(),
                attr,
                body: Box::new(set_attr_inner(body, var, new_attr, found)),
            }
        }
        Stmt::Block(stmts) => Stmt::Block(
            stmts
                .iter()
                .map(|s| set_attr_inner(s, var, new_attr, found))
                .collect(),
        ),
        Stmt::If { cond, body } => Stmt::If {
            cond: cond.clone(),
            body: Box::new(set_attr_inner(body, var, new_attr, found)),
        },
        other => other.clone(),
    }
}

/// Fuses two *adjacent* loops with identical extents into one (§4.3,
/// Listings 4.6→4.7): within the first block that contains
/// `for v1 {...}` directly followed by `for v2 {...}` with equal extents,
/// replaces them by a single loop over `v1` whose body is the concatenation,
/// with `v2 := v1` substituted in the second body.
///
/// Legality (no backward dependences from the second loop into the first) is
/// the caller's responsibility, exactly as with TVM's `compute_at`-style
/// fusion; the operator schedules in [`crate::compute`] only fuse
/// element-wise epilogues, which are always legal.
///
/// # Panics
/// Panics if no such adjacent pair exists or the extents differ. Use
/// [`try_fuse_loops`] for the fallible form.
pub fn fuse_loops(stmt: &Stmt, v1: &str, v2: &str) -> Stmt {
    try_fuse_loops(stmt, v1, v2).unwrap_or_else(|e| panic!("fuse_loops: {e}"))
}

/// [`fuse_loops`] returning a structured [`ScheduleError`] instead of
/// panicking when the pair is absent or the extents differ.
///
/// # Errors
/// [`ScheduleError::NoAdjacentPair`] or [`ScheduleError::ExtentMismatch`].
pub fn try_fuse_loops(stmt: &Stmt, v1: &str, v2: &str) -> Result<Stmt, ScheduleError> {
    let mut found = false;
    let mut err = None;
    let out = fuse_inner(stmt, v1, v2, &mut found, &mut err);
    if let Some(e) = err {
        return Err(e);
    }
    if !found {
        return Err(ScheduleError::NoAdjacentPair {
            first: v1.into(),
            second: v2.into(),
        });
    }
    Ok(out)
}

fn fuse_inner(
    stmt: &Stmt,
    v1: &str,
    v2: &str,
    found: &mut bool,
    err: &mut Option<ScheduleError>,
) -> Stmt {
    match stmt {
        Stmt::Block(stmts) => {
            let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
            let mut i = 0;
            while i < stmts.len() {
                if !*found && err.is_none() && i + 1 < stmts.len() {
                    if let (
                        Stmt::For {
                            var: a,
                            extent: e1,
                            attr,
                            body: b1,
                        },
                        Stmt::For {
                            var: b,
                            extent: e2,
                            body: b2,
                            ..
                        },
                    ) = (&stmts[i], &stmts[i + 1])
                    {
                        if a == v1 && b == v2 {
                            if e1 != e2 {
                                *err = Some(ScheduleError::ExtentMismatch {
                                    first: v1.into(),
                                    second: v2.into(),
                                });
                                out.push(stmts[i].clone());
                                i += 1;
                                continue;
                            }
                            *found = true;
                            let second = subst_stmt(b2, v2, &IExpr::Var(a.clone()));
                            out.push(Stmt::For {
                                var: a.clone(),
                                extent: e1.clone(),
                                attr: *attr,
                                body: Box::new(Stmt::block(vec![b1.as_ref().clone(), second])),
                            });
                            i += 2;
                            continue;
                        }
                    }
                }
                out.push(fuse_inner(&stmts[i], v1, v2, found, err));
                i += 1;
            }
            Stmt::Block(out)
        }
        Stmt::For {
            var,
            extent,
            attr,
            body,
        } => Stmt::For {
            var: var.clone(),
            extent: extent.clone(),
            attr: *attr,
            body: Box::new(fuse_inner(body, v1, v2, found, err)),
        },
        Stmt::If { cond, body } => Stmt::If {
            cond: cond.clone(),
            body: Box::new(fuse_inner(body, v1, v2, found, err)),
        },
        other => other.clone(),
    }
}

/// Loop-invariant code motion (§4.4, Listings 4.8→4.9): hoists the leading
/// statements of the loop named `var` that do not reference `var` out in
/// front of the loop. Only statements *before* the first `var`-dependent
/// statement are hoisted (they execute once instead of every iteration),
/// which is exactly the softmax max/denominator pattern of §5.1.3.
///
/// # Panics
/// Panics if `var` names no loop. Use [`try_hoist_invariants`] for the
/// fallible form.
pub fn hoist_invariants(stmt: &Stmt, var: &str) -> Stmt {
    try_hoist_invariants(stmt, var).unwrap_or_else(|e| panic!("hoist_invariants: {e}"))
}

/// [`hoist_invariants`] returning [`ScheduleError::NoSuchLoop`] instead of
/// panicking.
///
/// # Errors
/// [`ScheduleError::NoSuchLoop`].
pub fn try_hoist_invariants(stmt: &Stmt, var: &str) -> Result<Stmt, ScheduleError> {
    let mut found = false;
    let out = hoist_inner(stmt, var, &mut found);
    if !found {
        return Err(ScheduleError::NoSuchLoop { var: var.into() });
    }
    Ok(out)
}

fn hoist_inner(stmt: &Stmt, var: &str, found: &mut bool) -> Stmt {
    match stmt {
        Stmt::For {
            var: v,
            extent,
            attr,
            body,
        } if v == var => {
            *found = true;
            let stmts: Vec<Stmt> = match body.as_ref() {
                Stmt::Block(v) => v.clone(),
                other => vec![other.clone()],
            };
            let split_at = stmts
                .iter()
                .position(|s| stmt_uses_var(s, var))
                .unwrap_or(stmts.len());
            let (hoisted, kept) = stmts.split_at(split_at);
            let mut out = hoisted.to_vec();
            if !kept.is_empty() {
                out.push(Stmt::For {
                    var: v.clone(),
                    extent: extent.clone(),
                    attr: *attr,
                    body: Box::new(Stmt::block(kept.to_vec())),
                });
            }
            Stmt::block(out)
        }
        Stmt::For {
            var: v,
            extent,
            attr,
            body,
        } => Stmt::For {
            var: v.clone(),
            extent: extent.clone(),
            attr: *attr,
            body: Box::new(hoist_inner(body, var, found)),
        },
        Stmt::Block(stmts) => {
            Stmt::block(stmts.iter().map(|s| hoist_inner(s, var, found)).collect())
        }
        Stmt::If { cond, body } => Stmt::If {
            cond: cond.clone(),
            body: Box::new(hoist_inner(body, var, found)),
        },
        other => other.clone(),
    }
}

/// True if the statement references the loop variable anywhere (indices,
/// values, guards, extents). Channel operations are treated as
/// variable-dependent — they are ordered side effects that must not move.
fn stmt_uses_var(stmt: &Stmt, var: &str) -> bool {
    fn vexpr_uses(v: &crate::expr::VExpr, var: &str) -> bool {
        use crate::expr::VExpr;
        let mut used = false;
        v.visit(&mut |e| match e {
            VExpr::Load { idx, .. } => used |= idx.uses(var),
            VExpr::FromInt(i) => used |= i.uses(var),
            VExpr::Select(c, _, _) => used |= bexpr_uses(c, var),
            VExpr::ReadChannel(_) => used = true,
            _ => {}
        });
        used
    }
    fn bexpr_uses(b: &crate::expr::BExpr, var: &str) -> bool {
        use crate::expr::BExpr;
        match b {
            BExpr::Lt(x, y) | BExpr::Ge(x, y) | BExpr::Eq(x, y) => x.uses(var) || y.uses(var),
            BExpr::And(x, y) | BExpr::Or(x, y) => bexpr_uses(x, var) || bexpr_uses(y, var),
        }
    }
    match stmt {
        Stmt::For { extent, body, .. } => extent.uses(var) || stmt_uses_var(body, var),
        Stmt::Block(v) => v.iter().any(|s| stmt_uses_var(s, var)),
        Stmt::Store { idx, val, .. } => idx.uses(var) || vexpr_uses(val, var),
        Stmt::If { cond, body } => bexpr_uses(cond, var) || stmt_uses_var(body, var),
        Stmt::WriteChannel { .. } => true,
    }
}

/// Collects every loop in the statement as `(var, constant extent)` pairs;
/// symbolic extents yield `None`. The auto-tuner's proposal generator
/// enumerates legal split factors from these extents instead of discovering
/// illegality as a panic mid-rewrite.
pub fn loop_extents(stmt: &Stmt) -> Vec<(String, Option<i64>)> {
    let mut out = Vec::new();
    stmt.visit(&mut |s| {
        if let Stmt::For { var, extent, .. } = s {
            out.push((
                var.to_string(),
                match extent {
                    IExpr::Const(e) => Some(*e),
                    _ => None,
                },
            ));
        }
    });
    out
}

/// Substitutes a loop variable by an index expression throughout a statement.
pub fn subst_stmt(stmt: &Stmt, var: &str, replacement: &IExpr) -> Stmt {
    use crate::expr::{BExpr, VExpr};
    fn subst_v(v: &VExpr, var: &str, r: &IExpr) -> VExpr {
        match v {
            VExpr::Const(c) => VExpr::Const(*c),
            VExpr::Load { buf, idx } => VExpr::Load {
                buf: buf.clone(),
                idx: idx.subst(var, r),
            },
            VExpr::Bin(op, a, b) => VExpr::Bin(
                *op,
                Box::new(subst_v(a, var, r)),
                Box::new(subst_v(b, var, r)),
            ),
            VExpr::Exp(a) => VExpr::Exp(Box::new(subst_v(a, var, r))),
            VExpr::Select(c, a, b) => VExpr::Select(
                Box::new(subst_b(c, var, r)),
                Box::new(subst_v(a, var, r)),
                Box::new(subst_v(b, var, r)),
            ),
            VExpr::ReadChannel(c) => VExpr::ReadChannel(c.clone()),
            VExpr::FromInt(i) => VExpr::FromInt(i.subst(var, r)),
            VExpr::Quant(a, m) => VExpr::Quant(Box::new(subst_v(a, var, r)), *m),
        }
    }
    fn subst_b(b: &BExpr, var: &str, r: &IExpr) -> BExpr {
        match b {
            BExpr::Lt(x, y) => BExpr::Lt(x.subst(var, r), y.subst(var, r)),
            BExpr::Ge(x, y) => BExpr::Ge(x.subst(var, r), y.subst(var, r)),
            BExpr::Eq(x, y) => BExpr::Eq(x.subst(var, r), y.subst(var, r)),
            BExpr::And(x, y) => {
                BExpr::And(Box::new(subst_b(x, var, r)), Box::new(subst_b(y, var, r)))
            }
            BExpr::Or(x, y) => {
                BExpr::Or(Box::new(subst_b(x, var, r)), Box::new(subst_b(y, var, r)))
            }
        }
    }
    match stmt {
        Stmt::For {
            var: v,
            extent,
            attr,
            body,
        } => {
            // Shadowing: an inner loop with the same name ends substitution.
            if v == var {
                stmt.clone()
            } else {
                Stmt::For {
                    var: v.clone(),
                    extent: extent.subst(var, replacement),
                    attr: *attr,
                    body: Box::new(subst_stmt(body, var, replacement)),
                }
            }
        }
        Stmt::Block(stmts) => Stmt::Block(
            stmts
                .iter()
                .map(|s| subst_stmt(s, var, replacement))
                .collect(),
        ),
        Stmt::Store { buf, idx, val } => Stmt::Store {
            buf: buf.clone(),
            idx: idx.subst(var, replacement),
            val: subst_v(val, var, replacement),
        },
        Stmt::If { cond, body } => Stmt::If {
            cond: subst_b(cond, var, replacement),
            body: Box::new(subst_stmt(body, var, replacement)),
        },
        Stmt::WriteChannel { chan, val } => Stmt::WriteChannel {
            chan: chan.clone(),
            val: subst_v(val, var, replacement),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VExpr;

    fn vecadd_loop(n: i64) -> Stmt {
        // for i in 0..n: c[i] = a[i] + b[i]
        Stmt::for_(
            "i",
            IExpr::Const(n),
            Stmt::store(
                "c",
                IExpr::var("i"),
                VExpr::load("a", IExpr::var("i")).add(VExpr::load("b", IExpr::var("i"))),
            ),
        )
    }

    #[test]
    fn split_creates_outer_inner_pair() {
        let s = split(&vecadd_loop(64), "i", 4);
        match &s {
            Stmt::For {
                var, extent, body, ..
            } => {
                assert_eq!(var, "i_o");
                assert_eq!(extent, &IExpr::Const(16));
                match body.as_ref() {
                    Stmt::For { var, extent, .. } => {
                        assert_eq!(var, "i_i");
                        assert_eq!(extent, &IExpr::Const(4));
                    }
                    other => panic!("expected inner loop, got {other:?}"),
                }
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn split_rejects_indivisible_factor() {
        split(&vecadd_loop(10), "i", 4);
    }

    #[test]
    fn try_split_returns_structured_errors() {
        assert_eq!(
            try_split(&vecadd_loop(10), "i", 4),
            Err(ScheduleError::NotDivisible {
                var: "i".into(),
                extent: 10,
                factor: 4
            })
        );
        assert_eq!(
            try_split(&vecadd_loop(8), "j", 2),
            Err(ScheduleError::NoSuchLoop { var: "j".into() })
        );
        assert!(try_split(&vecadd_loop(8), "i", 2).is_ok());
    }

    #[test]
    fn try_fuse_and_try_unroll_return_structured_errors() {
        let block = Stmt::block(vec![
            Stmt::for_(
                "i",
                IExpr::Const(8),
                Stmt::store("a", IExpr::var("i"), VExpr::Const(1.0)),
            ),
            Stmt::for_(
                "j",
                IExpr::Const(4),
                Stmt::store("b", IExpr::var("j"), VExpr::Const(2.0)),
            ),
        ]);
        assert_eq!(
            try_fuse_loops(&block, "i", "j"),
            Err(ScheduleError::ExtentMismatch {
                first: "i".into(),
                second: "j".into()
            })
        );
        assert_eq!(
            try_fuse_loops(&block, "i", "k"),
            Err(ScheduleError::NoAdjacentPair {
                first: "i".into(),
                second: "k".into()
            })
        );
        assert_eq!(
            try_unroll(&vecadd_loop(8), "nope"),
            Err(ScheduleError::NoSuchLoop { var: "nope".into() })
        );
        assert_eq!(
            try_hoist_invariants(&vecadd_loop(8), "nope"),
            Err(ScheduleError::NoSuchLoop { var: "nope".into() })
        );
    }

    #[test]
    fn loop_extents_lists_constant_trip_counts() {
        let s = split(&vecadd_loop(64), "i", 4);
        let ext = loop_extents(&s);
        assert_eq!(
            ext,
            vec![("i_o".to_string(), Some(16)), ("i_i".to_string(), Some(4))]
        );
    }

    #[test]
    #[should_panic(expected = "no loop named")]
    fn split_requires_existing_loop() {
        split(&vecadd_loop(8), "j", 2);
    }

    #[test]
    fn unroll_marks_attribute() {
        let s = unroll(&vecadd_loop(8), "i");
        match s {
            Stmt::For { attr, .. } => assert_eq!(attr, LoopAttr::Unrolled),
            _ => unreachable!(),
        }
    }

    #[test]
    fn split_then_unroll_matches_listing_4_5_shape() {
        // Listing 4.4/4.5: strip-mine k by 4 then fully unroll k_i.
        let s = unroll(&split(&vecadd_loop(64), "i", 4), "i_i");
        let mut attrs = Vec::new();
        s.visit(&mut |st| {
            if let Stmt::For { var, attr, .. } = st {
                attrs.push((var.to_string(), *attr));
            }
        });
        assert_eq!(
            attrs,
            vec![
                ("i_o".to_string(), LoopAttr::Pipelined),
                ("i_i".to_string(), LoopAttr::Unrolled)
            ]
        );
    }

    #[test]
    fn fuse_loops_merges_adjacent_equal_loops() {
        use crate::dim::Binding;
        // for i {a[i]=1}; for j {b[j]=a[j]*2}  ==>  for i {a[i]=1; b[i]=a[i]*2}
        let block = Stmt::block(vec![
            Stmt::for_(
                "i",
                IExpr::Const(8),
                Stmt::store("a", IExpr::var("i"), VExpr::Const(1.0)),
            ),
            Stmt::for_(
                "j",
                IExpr::Const(8),
                Stmt::store(
                    "b",
                    IExpr::var("j"),
                    VExpr::load("a", IExpr::var("j")).mul(VExpr::Const(2.0)),
                ),
            ),
        ]);
        let fused = fuse_loops(&block, "i", "j");
        // Exactly one loop remains.
        let mut loops = 0;
        fused.visit(&mut |s| {
            if matches!(s, Stmt::For { .. }) {
                loops += 1;
            }
        });
        assert_eq!(loops, 1);
        // And the second store now indexes with `i`.
        let mut b_idx = None;
        fused.visit(&mut |s| {
            if let Stmt::Store { buf, idx, .. } = s {
                if buf == "b" {
                    b_idx = Some(idx.clone());
                }
            }
        });
        assert_eq!(b_idx.unwrap().eval(&Binding::of(&[("i", 5)])), 5);
    }

    #[test]
    #[should_panic(expected = "extents")]
    fn fuse_loops_rejects_unequal_extents() {
        let block = Stmt::block(vec![
            Stmt::for_(
                "i",
                IExpr::Const(8),
                Stmt::store("a", IExpr::var("i"), VExpr::Const(1.0)),
            ),
            Stmt::for_(
                "j",
                IExpr::Const(4),
                Stmt::store("b", IExpr::var("j"), VExpr::Const(2.0)),
            ),
        ]);
        fuse_loops(&block, "i", "j");
    }

    #[test]
    fn hoist_invariants_moves_leading_invariant_statements() {
        // The Listing 4.8 pattern: the max-reduction loop does not depend on
        // the outer iterator and hoists out (Listing 4.9).
        let inner_max = Stmt::for_(
            "j",
            IExpr::Const(16),
            Stmt::store(
                "a_max",
                IExpr::Const(0),
                VExpr::load("a_max", IExpr::Const(0)).max(VExpr::load("a", IExpr::var("j"))),
            ),
        );
        let body = Stmt::block(vec![
            Stmt::store("a_max", IExpr::Const(0), VExpr::Const(-9.9e9)),
            inner_max,
            Stmt::store(
                "b",
                IExpr::var("i"),
                VExpr::load("a", IExpr::var("i")).div(VExpr::load("a_max", IExpr::Const(0))),
            ),
        ]);
        let loop_ = Stmt::for_("i", IExpr::Const(16), body);
        let hoisted = hoist_invariants(&loop_, "i");
        // Expect: [init, max-loop, for i { divide }].
        match &hoisted {
            Stmt::Block(v) => {
                assert_eq!(v.len(), 3);
                assert!(matches!(&v[0], Stmt::Store { buf, .. } if buf == "a_max"));
                assert!(matches!(&v[1], Stmt::For { var, .. } if var == "j"));
                match &v[2] {
                    Stmt::For { var, body, .. } => {
                        assert_eq!(var, "i");
                        assert_eq!(body.count_stores(), 1);
                    }
                    other => panic!("expected remaining loop, got {other:?}"),
                }
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn hoist_preserves_semantics_via_interp() {
        use crate::interp::Interp;
        use crate::kernel::{BufRole, BufferDecl, Kernel};
        use std::collections::HashMap;

        let build = |body: Stmt| {
            let mut k = Kernel::new("norm", body);
            k.bufs = vec![
                BufferDecl::global("a", BufRole::Input, IExpr::Const(16)),
                BufferDecl::global("b", BufRole::Output, IExpr::Const(16)),
                BufferDecl::private("a_max", IExpr::Const(1)),
            ];
            k
        };
        let inner_max = Stmt::for_(
            "j",
            IExpr::Const(16),
            Stmt::store(
                "a_max",
                IExpr::Const(0),
                VExpr::load("a_max", IExpr::Const(0)).max(VExpr::load("a", IExpr::var("j"))),
            ),
        );
        let base = Stmt::for_(
            "i",
            IExpr::Const(16),
            Stmt::block(vec![
                Stmt::store("a_max", IExpr::Const(0), VExpr::Const(-9.9e9)),
                inner_max,
                Stmt::store(
                    "b",
                    IExpr::var("i"),
                    VExpr::load("a", IExpr::var("i")).div(VExpr::load("a_max", IExpr::Const(0))),
                ),
            ]),
        );
        let optimized = hoist_invariants(&base, "i");
        let a: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), a);
        let out1 = Interp::new().run(&build(base), &crate::dim::Binding::empty(), &inputs);
        let out2 = Interp::new().run(&build(optimized), &crate::dim::Binding::empty(), &inputs);
        assert_eq!(out1["b"], out2["b"]);
    }

    #[test]
    fn split_preserves_index_arithmetic() {
        use crate::dim::Binding;
        // After split, the store index must evaluate to i_o*4 + i_i.
        let s = split(&vecadd_loop(8), "i", 4);
        let mut idx = None;
        s.visit(&mut |st| {
            if let Stmt::Store { idx: i, .. } = st {
                idx = Some(i.clone());
            }
        });
        let idx = idx.unwrap();
        let env = Binding::of(&[("i_o", 1), ("i_i", 3)]);
        assert_eq!(idx.eval(&env), 7);
    }
}
