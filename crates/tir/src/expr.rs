//! Index, value and guard expressions, plus the affine stride analysis that
//! determines memory-access coalescing (§2.4.3 Coalesced Accesses, §5.3).

use crate::dim::{Binding, Dim, Name};
use std::fmt;
use std::sync::Arc;

/// Integer (index) expressions. Loop variables and symbolic dimensions are
/// both [`IExpr::Var`]s; bindings distinguish them at evaluation time.
///
/// Operands are shared: cloning an expression copies two reference counts,
/// not a tree, so the generators reuse one index in several loads and
/// guards.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IExpr {
    /// Integer literal.
    Const(i64),
    /// Loop variable or symbolic dimension.
    Var(Name),
    /// Sum.
    Add(Arc<IExpr>, Arc<IExpr>),
    /// Difference.
    Sub(Arc<IExpr>, Arc<IExpr>),
    /// Product.
    Mul(Arc<IExpr>, Arc<IExpr>),
    /// Truncating division (used by the generated padding kernels, which the
    /// thesis notes map to expensive hardware, §6.3.2).
    Div(Arc<IExpr>, Arc<IExpr>),
    /// Remainder (modulo addressing in padding kernels).
    Mod(Arc<IExpr>, Arc<IExpr>),
}

#[allow(clippy::should_implement_trait)] // builder-style DSL, mirrors TVM's te ops
impl IExpr {
    /// Variable reference.
    pub fn var(name: impl Into<Name>) -> IExpr {
        IExpr::Var(name.into())
    }

    /// Lifts a [`Dim`] into an expression.
    pub fn dim(d: &Dim) -> IExpr {
        match d {
            Dim::Const(n) => IExpr::Const(*n as i64),
            Dim::Sym(s) => IExpr::Var(s.clone()),
        }
    }

    /// Constant-folds addition.
    pub fn add(self, rhs: IExpr) -> IExpr {
        match (&self, &rhs) {
            (IExpr::Const(0), _) => rhs,
            (_, IExpr::Const(0)) => self,
            (IExpr::Const(a), IExpr::Const(b)) => IExpr::Const(a + b),
            _ => IExpr::Add(Arc::new(self), Arc::new(rhs)),
        }
    }

    /// Constant-folds subtraction.
    pub fn sub(self, rhs: IExpr) -> IExpr {
        match (&self, &rhs) {
            (_, IExpr::Const(0)) => self,
            (IExpr::Const(a), IExpr::Const(b)) => IExpr::Const(a - b),
            _ => IExpr::Sub(Arc::new(self), Arc::new(rhs)),
        }
    }

    /// Constant-folds multiplication.
    pub fn mul(self, rhs: IExpr) -> IExpr {
        match (&self, &rhs) {
            (IExpr::Const(0), _) | (_, IExpr::Const(0)) => IExpr::Const(0),
            (IExpr::Const(1), _) => rhs,
            (_, IExpr::Const(1)) => self,
            (IExpr::Const(a), IExpr::Const(b)) => IExpr::Const(a * b),
            _ => IExpr::Mul(Arc::new(self), Arc::new(rhs)),
        }
    }

    /// Truncating division (constant-folded).
    pub fn div(self, rhs: IExpr) -> IExpr {
        match (&self, &rhs) {
            (_, IExpr::Const(1)) => self,
            (IExpr::Const(a), IExpr::Const(b)) if *b != 0 => IExpr::Const(a / b),
            _ => IExpr::Div(Arc::new(self), Arc::new(rhs)),
        }
    }

    /// Remainder (constant-folded).
    pub fn rem(self, rhs: IExpr) -> IExpr {
        match (&self, &rhs) {
            (IExpr::Const(a), IExpr::Const(b)) if *b != 0 => IExpr::Const(a % b),
            _ => IExpr::Mod(Arc::new(self), Arc::new(rhs)),
        }
    }

    /// Evaluates under a binding of loop variables and symbolic dims.
    ///
    /// # Panics
    /// Panics on unbound variables or division by zero.
    pub fn eval(&self, env: &Binding) -> i64 {
        match self {
            IExpr::Const(c) => *c,
            IExpr::Var(v) => env.get(v) as i64,
            IExpr::Add(a, b) => a.eval(env) + b.eval(env),
            IExpr::Sub(a, b) => a.eval(env) - b.eval(env),
            IExpr::Mul(a, b) => a.eval(env) * b.eval(env),
            IExpr::Div(a, b) => a.eval(env) / b.eval(env),
            IExpr::Mod(a, b) => a.eval(env) % b.eval(env),
        }
    }

    /// Substitutes `var := replacement`.
    pub fn subst(&self, var: &str, replacement: &IExpr) -> IExpr {
        match self {
            IExpr::Const(_) => self.clone(),
            IExpr::Var(v) if v == var => replacement.clone(),
            IExpr::Var(_) => self.clone(),
            IExpr::Add(a, b) => a.subst(var, replacement).add(b.subst(var, replacement)),
            IExpr::Sub(a, b) => a.subst(var, replacement).sub(b.subst(var, replacement)),
            IExpr::Mul(a, b) => a.subst(var, replacement).mul(b.subst(var, replacement)),
            IExpr::Div(a, b) => a.subst(var, replacement).div(b.subst(var, replacement)),
            IExpr::Mod(a, b) => a.subst(var, replacement).rem(b.subst(var, replacement)),
        }
    }

    /// The linear coefficient of `var` in this expression — the memory-access
    /// *stride* AOC sees when the variable belongs to an unrolled loop
    /// (§2.4.3). [`Coeff::Const`]`(1)` means consecutive accesses the compiler
    /// widens into one coalesced LSU; anything else forces LSU replication.
    /// Symbolic strides (the §5.3 caveat) are reported as [`Coeff::Symbolic`]
    /// even when they would always be 1 at runtime, because AOC cannot prove
    /// it at compile time.
    pub fn coeff_of(&self, var: &str) -> Coeff {
        match self {
            IExpr::Const(_) => Coeff::Const(0),
            IExpr::Var(v) => {
                if v == var {
                    Coeff::Const(1)
                } else {
                    Coeff::Const(0)
                }
            }
            IExpr::Add(a, b) => a.coeff_of(var).add(b.coeff_of(var)),
            IExpr::Sub(a, b) => a.coeff_of(var).add(b.coeff_of(var).neg()),
            IExpr::Mul(a, b) => {
                let (ca, cb) = (a.coeff_of(var), b.coeff_of(var));
                match (ca, cb) {
                    (Coeff::Const(0), Coeff::Const(0)) => Coeff::Const(0),
                    (c, Coeff::Const(0)) => c.scale(b),
                    (Coeff::Const(0), c) => c.scale(a),
                    // var appears on both sides: quadratic.
                    _ => Coeff::NonLinear,
                }
            }
            IExpr::Div(a, _) | IExpr::Mod(a, _) => {
                if a.coeff_of(var) == Coeff::Const(0) {
                    Coeff::Const(0)
                } else {
                    Coeff::NonLinear
                }
            }
        }
    }

    /// True if the expression mentions `var`.
    pub fn uses(&self, var: &str) -> bool {
        match self {
            IExpr::Const(_) => false,
            IExpr::Var(v) => v == var,
            IExpr::Add(a, b)
            | IExpr::Sub(a, b)
            | IExpr::Mul(a, b)
            | IExpr::Div(a, b)
            | IExpr::Mod(a, b) => a.uses(var) || b.uses(var),
        }
    }
}

/// The stride of a memory access along one unrolled loop variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coeff {
    /// A compile-time-known stride.
    Const(i64),
    /// The stride involves a symbolic dimension — AOC must assume
    /// non-contiguous (§5.3).
    Symbolic,
    /// The index is not affine in the variable (e.g. modulo addressing).
    NonLinear,
}

impl Coeff {
    fn add(self, other: Coeff) -> Coeff {
        match (self, other) {
            (Coeff::Const(a), Coeff::Const(b)) => Coeff::Const(a + b),
            (Coeff::NonLinear, _) | (_, Coeff::NonLinear) => Coeff::NonLinear,
            _ => Coeff::Symbolic,
        }
    }

    fn neg(self) -> Coeff {
        match self {
            Coeff::Const(c) => Coeff::Const(-c),
            other => other,
        }
    }

    fn scale(self, factor: &IExpr) -> Coeff {
        match (self, factor) {
            (Coeff::Const(c), IExpr::Const(f)) => Coeff::Const(c * f),
            (Coeff::Const(0), _) => Coeff::Const(0),
            (Coeff::NonLinear, _) => Coeff::NonLinear,
            // Constant coefficient scaled by a symbolic factor, or symbolic
            // coefficient scaled by anything: stride unknown at compile time.
            _ => Coeff::Symbolic,
        }
    }
}

/// Float (value) binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (expensive on FPGA; used by softmax/avgpool).
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// How a [`VExpr::Quant`] node narrows its operand. The narrow-MAC pass
/// (`crate::quantize`) wraps loads and stores in these; the interpreter
/// models them as fake quantization (round onto the grid, stay in f32) and
/// the code generator emits the corresponding OpenCL conversions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuantMode {
    /// Symmetric fixed point: round to `scale`-sized steps, saturate at
    /// `±qmax` steps (int8 kernels use `qmax = 127` with i32 accumulation).
    Fixed {
        /// Grid step (`amax_clip / qmax` from calibration).
        scale: f32,
        /// Saturation bound in steps.
        qmax: i32,
    },
    /// IEEE 754 binary16 round trip (half storage, f32 accumulation).
    Half,
}

/// Float value expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum VExpr {
    /// Float literal.
    Const(f32),
    /// Load from a buffer at a flattened index. The `buf` name refers to a
    /// [`crate::kernel::BufferDecl`].
    Load {
        /// Buffer name.
        buf: Name,
        /// Flattened element index.
        idx: IExpr,
    },
    /// Binary arithmetic.
    Bin(VBinOp, Box<VExpr>, Box<VExpr>),
    /// `exp(x)` (softmax).
    Exp(Box<VExpr>),
    /// Guarded select `cond ? a : b` (padding kernels).
    Select(Box<BExpr>, Box<VExpr>, Box<VExpr>),
    /// Blocking read from an Intel OpenCL channel (§4.6).
    ReadChannel(String),
    /// An integer expression converted to float (e.g. average-pool divisor
    /// with symbolic window).
    FromInt(IExpr),
    /// Quantization of the operand onto a narrow grid (see [`QuantMode`]).
    Quant(Box<VExpr>, QuantMode),
}

#[allow(clippy::should_implement_trait)] // builder-style DSL, mirrors TVM's te ops
impl VExpr {
    /// Load helper.
    pub fn load(buf: impl Into<Name>, idx: IExpr) -> VExpr {
        VExpr::Load {
            buf: buf.into(),
            idx,
        }
    }

    /// `self + rhs`.
    pub fn add(self, rhs: VExpr) -> VExpr {
        VExpr::Bin(VBinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: VExpr) -> VExpr {
        VExpr::Bin(VBinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: VExpr) -> VExpr {
        VExpr::Bin(VBinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: VExpr) -> VExpr {
        VExpr::Bin(VBinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: VExpr) -> VExpr {
        VExpr::Bin(VBinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// `min(self, rhs)`.
    pub fn min(self, rhs: VExpr) -> VExpr {
        VExpr::Bin(VBinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// Wraps `self` in a quantization node.
    pub fn quant(self, mode: QuantMode) -> VExpr {
        VExpr::Quant(Box::new(self), mode)
    }

    /// Walks the expression tree, calling `f` on every node.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a VExpr)) {
        f(self);
        match self {
            VExpr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            VExpr::Exp(a) => a.visit(f),
            VExpr::Select(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            VExpr::Quant(a, _) => a.visit(f),
            VExpr::Const(_) | VExpr::Load { .. } | VExpr::ReadChannel(_) | VExpr::FromInt(_) => {}
        }
    }
}

/// Boolean guard expressions over integers.
#[derive(Clone, Debug, PartialEq)]
pub enum BExpr {
    /// `a < b`.
    Lt(IExpr, IExpr),
    /// `a >= b`.
    Ge(IExpr, IExpr),
    /// `a == b`.
    Eq(IExpr, IExpr),
    /// Conjunction.
    And(Box<BExpr>, Box<BExpr>),
    /// Disjunction.
    Or(Box<BExpr>, Box<BExpr>),
}

impl BExpr {
    /// Conjunction helper.
    pub fn and(self, rhs: BExpr) -> BExpr {
        BExpr::And(Box::new(self), Box::new(rhs))
    }

    /// Evaluates under a binding.
    pub fn eval(&self, env: &Binding) -> bool {
        match self {
            BExpr::Lt(a, b) => a.eval(env) < b.eval(env),
            BExpr::Ge(a, b) => a.eval(env) >= b.eval(env),
            BExpr::Eq(a, b) => a.eval(env) == b.eval(env),
            BExpr::And(a, b) => a.eval(env) && b.eval(env),
            BExpr::Or(a, b) => a.eval(env) || b.eval(env),
        }
    }
}

impl fmt::Display for IExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IExpr::Const(c) => write!(f, "{c}"),
            IExpr::Var(v) => write!(f, "{v}"),
            IExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            IExpr::Div(a, b) => write!(f, "({a} / {b})"),
            IExpr::Mod(a, b) => write!(f, "({a} % {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&'static str, usize)]) -> Binding {
        Binding::of(pairs)
    }

    #[test]
    fn eval_arithmetic() {
        // 3*x + y % 4
        let e = IExpr::Const(3)
            .mul(IExpr::var("x"))
            .add(IExpr::var("y").rem(IExpr::Const(4)));
        assert_eq!(e.eval(&env(&[("x", 5), ("y", 10)])), 17);
    }

    #[test]
    fn const_folding() {
        assert_eq!(IExpr::Const(2).mul(IExpr::Const(3)), IExpr::Const(6));
        assert_eq!(IExpr::var("x").mul(IExpr::Const(1)), IExpr::var("x"));
        assert_eq!(IExpr::var("x").add(IExpr::Const(0)), IExpr::var("x"));
        assert_eq!(IExpr::Const(0).mul(IExpr::var("x")), IExpr::Const(0));
    }

    #[test]
    fn subst_replaces_variable() {
        let e = IExpr::var("i").mul(IExpr::Const(4)).add(IExpr::var("j"));
        let s = e.subst(
            "i",
            &IExpr::var("io").mul(IExpr::Const(2)).add(IExpr::var("ii")),
        );
        assert_eq!(s.eval(&env(&[("io", 1), ("ii", 1), ("j", 5)])), 17);
    }

    #[test]
    fn coeff_unit_stride_is_coalescible() {
        // I[yy*W + xx]: coeff of xx is 1 -> coalesced.
        let e = IExpr::var("yy").mul(IExpr::Const(28)).add(IExpr::var("xx"));
        assert_eq!(e.coeff_of("xx"), Coeff::Const(1));
        assert_eq!(e.coeff_of("yy"), Coeff::Const(28));
        assert_eq!(e.coeff_of("zz"), Coeff::Const(0));
    }

    #[test]
    fn coeff_symbolic_stride_is_not_coalescible() {
        // The §5.3 caveat: in[rc*stride + rx] with symbolic `stride` cannot
        // be proven contiguous even if stride == 1 at runtime.
        let e = IExpr::var("rx").mul(IExpr::var("stride"));
        assert_eq!(e.coeff_of("rx"), Coeff::Symbolic);
        // The workaround (Listing 5.11): set stride to the constant 1.
        let fixed = e.subst("stride", &IExpr::Const(1));
        assert_eq!(fixed.coeff_of("rx"), Coeff::Const(1));
    }

    #[test]
    fn coeff_modulo_is_nonlinear() {
        let e = IExpr::var("i").rem(IExpr::Const(30));
        assert_eq!(e.coeff_of("i"), Coeff::NonLinear);
    }

    #[test]
    fn thesis_listing_5_3_input_access_strides() {
        // I[(rco+rci)*H*W + (S*yy+ry)*W + S*(xxo+xxi)+rx] with S=1, W=28, H=28.
        let (h, w) = (28i64, 28i64);
        let idx = IExpr::var("rco")
            .add(IExpr::var("rci"))
            .mul(IExpr::Const(h * w))
            .add(IExpr::var("yy").add(IExpr::var("ry")).mul(IExpr::Const(w)))
            .add(
                IExpr::var("xxo")
                    .add(IExpr::var("xxi"))
                    .add(IExpr::var("rx")),
            );
        // rci: replicate (stride H*W); ry: replicate (stride W);
        // xxi and rx: coalesce (stride 1). Matches §5.1.1's C1vec*F LSUs of
        // W2vec*F-wide reads.
        assert_eq!(idx.coeff_of("rci"), Coeff::Const(h * w));
        assert_eq!(idx.coeff_of("ry"), Coeff::Const(w));
        assert_eq!(idx.coeff_of("xxi"), Coeff::Const(1));
        assert_eq!(idx.coeff_of("rx"), Coeff::Const(1));
    }

    #[test]
    fn bexpr_eval() {
        let b = BExpr::Lt(IExpr::var("i"), IExpr::Const(4))
            .and(BExpr::Ge(IExpr::var("i"), IExpr::Const(0)));
        assert!(b.eval(&env(&[("i", 2)])));
        assert!(!b.eval(&env(&[("i", 9)])));
    }

    #[test]
    fn vexpr_visit_counts_nodes() {
        let v = VExpr::load("a", IExpr::var("i"))
            .mul(VExpr::load("b", IExpr::var("i")))
            .add(VExpr::Const(1.0));
        let mut count = 0;
        v.visit(&mut |_| count += 1);
        assert_eq!(count, 5);
    }
}
