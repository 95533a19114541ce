//! Loop-nest statements with the pipelining/unrolling annotations AOC reacts
//! to (§2.4.4, §4.1).

use crate::dim::Name;
use crate::expr::{BExpr, IExpr, VExpr};

/// How a loop is realized in hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LoopAttr {
    /// A pipelined loop: iterations launch every II cycles (§2.4.4,
    /// Figure 2.5). This is AOC's default for single-work-item kernels.
    #[default]
    Pipelined,
    /// `#pragma unroll` — the body is fully replicated in hardware (§4.1).
    Unrolled,
    /// `#pragma unroll 1` — explicitly serial (one iteration completes before
    /// the next launches).
    Serial,
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// A counted loop `for (var = 0; var < extent; ++var)`.
    For {
        /// Loop variable name.
        var: Name,
        /// Trip count (may be symbolic).
        extent: IExpr,
        /// Hardware realization.
        attr: LoopAttr,
        /// Body.
        body: Box<Stmt>,
    },
    /// Statement sequence.
    Block(Vec<Stmt>),
    /// `buf[idx] = val`.
    Store {
        /// Destination buffer name.
        buf: Name,
        /// Flattened element index.
        idx: IExpr,
        /// Value.
        val: VExpr,
    },
    /// Guarded statement (`if (cond) body`).
    If {
        /// Guard.
        cond: BExpr,
        /// Guarded body.
        body: Box<Stmt>,
    },
    /// Blocking write of a value to an Intel OpenCL channel (§4.6).
    WriteChannel {
        /// Channel name.
        chan: String,
        /// Value written.
        val: VExpr,
    },
}

impl Stmt {
    /// Builds a pipelined loop.
    pub fn for_(var: impl Into<Name>, extent: IExpr, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.into(),
            extent,
            attr: LoopAttr::Pipelined,
            body: Box::new(body),
        }
    }

    /// Builds a fully-unrolled loop.
    pub fn unrolled(var: impl Into<Name>, extent: IExpr, body: Stmt) -> Stmt {
        Stmt::For {
            var: var.into(),
            extent,
            attr: LoopAttr::Unrolled,
            body: Box::new(body),
        }
    }

    /// Builds a store.
    pub fn store(buf: impl Into<Name>, idx: IExpr, val: VExpr) -> Stmt {
        Stmt::Store {
            buf: buf.into(),
            idx,
            val,
        }
    }

    /// Builds a block, flattening nested blocks.
    pub fn block(stmts: Vec<Stmt>) -> Stmt {
        let mut flat = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Block(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Stmt::Block(flat)
    }

    /// Visits every statement in the tree (preorder).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } | Stmt::If { body, .. } => body.visit(f),
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.visit(f);
                }
            }
            Stmt::Store { .. } | Stmt::WriteChannel { .. } => {}
        }
    }

    /// Visits every value expression in the tree.
    pub fn visit_values<'a>(&'a self, f: &mut impl FnMut(&'a VExpr)) {
        self.visit(&mut |s| match s {
            Stmt::Store { val, .. } | Stmt::WriteChannel { val, .. } => val.visit(f),
            _ => {}
        });
    }

    /// Total number of [`Stmt::Store`]s (syntactic, not dynamic).
    pub fn count_stores(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::Store { .. }) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IExpr;

    #[test]
    fn block_flattens() {
        let b = Stmt::block(vec![
            Stmt::Block(vec![Stmt::store("a", IExpr::Const(0), VExpr::Const(1.0))]),
            Stmt::store("b", IExpr::Const(0), VExpr::Const(2.0)),
        ]);
        match b {
            Stmt::Block(v) => assert_eq!(v.len(), 2),
            _ => panic!("expected block"),
        }
    }

    #[test]
    fn visit_reaches_nested_statements() {
        let s = Stmt::for_(
            "i",
            IExpr::Const(4),
            Stmt::unrolled(
                "j",
                IExpr::Const(2),
                Stmt::store("y", IExpr::var("i"), VExpr::Const(0.0)),
            ),
        );
        let mut loops = 0;
        s.visit(&mut |st| {
            if matches!(st, Stmt::For { .. }) {
                loops += 1;
            }
        });
        assert_eq!(loops, 2);
        assert_eq!(s.count_stores(), 1);
    }
}
