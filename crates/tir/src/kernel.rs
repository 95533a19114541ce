//! Complete OpenCL kernels: buffers, scalar arguments, channels and the
//! Intel-specific kernel attributes (§2.4, §4.6–4.7).

use crate::dim::{Binding, Dim, Name};
use crate::expr::IExpr;
use crate::stmt::Stmt;

/// OpenCL memory regions (§2.3.3) as AOC maps them to hardware (§2.4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scope {
    /// External memory (DDR4/HBM2); accessed through generated LSUs.
    Global,
    /// On-chip block RAM shared within the kernel.
    Local,
    /// Registers private to the (single) work item.
    Private,
}

/// What a buffer argument carries — used by the host runtime to bind tensors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufRole {
    /// Input feature map.
    Input,
    /// Weights.
    Weights,
    /// Bias vector.
    Bias,
    /// Folded batch-norm scale.
    BnScale,
    /// Folded batch-norm shift.
    BnShift,
    /// Residual-add operand streamed from another layer's output.
    Residual,
    /// Output feature map.
    Output,
    /// Kernel-internal scratch storage.
    Scratch,
}

/// A buffer visible to a kernel. `Global` buffers become kernel arguments;
/// `Local`/`Private` buffers are kernel-internal allocations.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferDecl {
    /// Name referenced by loads/stores.
    pub name: Name,
    /// Memory region.
    pub scope: Scope,
    /// What the host binds to it.
    pub role: BufRole,
    /// Flattened element count (may be symbolic for parameterized kernels,
    /// cf. the `allocate(compute, float32, [ff*(xx-2)*(xx-2)])` of
    /// Listing 5.10).
    pub len: IExpr,
}

impl BufferDecl {
    /// Global kernel-argument buffer.
    pub fn global(name: impl Into<Name>, role: BufRole, len: IExpr) -> Self {
        BufferDecl {
            name: name.into(),
            scope: Scope::Global,
            role,
            len,
        }
    }

    /// Local (BRAM) buffer.
    pub fn local(name: impl Into<Name>, len: IExpr) -> Self {
        BufferDecl {
            name: name.into(),
            scope: Scope::Local,
            role: BufRole::Scratch,
            len,
        }
    }

    /// Private (register) buffer.
    pub fn private(name: impl Into<Name>, len: IExpr) -> Self {
        BufferDecl {
            name: name.into(),
            scope: Scope::Private,
            role: BufRole::Scratch,
            len,
        }
    }

    /// Resolved element count.
    pub fn resolved_len(&self, b: &Binding) -> usize {
        self.len.eval(b).max(0) as usize
    }
}

/// An Intel OpenCL channel declaration (program scope, §4.6).
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelDecl {
    /// Channel name.
    pub name: String,
    /// FIFO depth in elements (`__attribute__((depth(N)))`); 0 = unbuffered.
    pub depth: usize,
    /// Elements per channel word (PipeCNN-style `floatN` vectorized
    /// channels): `width` reads or writes coalesce into one channel
    /// transaction per cycle. 1 = plain scalar `float` channel.
    pub width: usize,
}

impl ChannelDecl {
    /// A scalar `float` channel.
    pub fn scalar(name: impl Into<String>, depth: usize) -> Self {
        ChannelDecl {
            name: name.into(),
            depth,
            width: 1,
        }
    }
}

/// A single-work-item OpenCL kernel (§2.4.4).
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel (function) name.
    pub name: String,
    /// All buffers, in declaration order; `Global` ones are arguments.
    pub bufs: Vec<BufferDecl>,
    /// Symbolic-dimension integer arguments, in order (§5.3).
    pub int_params: Vec<Name>,
    /// Channels this kernel reads from.
    pub chan_in: Vec<ChannelDecl>,
    /// Channels this kernel writes to.
    pub chan_out: Vec<ChannelDecl>,
    /// Kernel body.
    pub body: Stmt,
    /// Autorun kernel (§4.7): no global-memory arguments, launched by the
    /// hardware rather than the host.
    pub autorun: bool,
}

impl Kernel {
    /// Creates an empty (non-autorun) kernel shell.
    pub fn new(name: impl Into<String>, body: Stmt) -> Self {
        Kernel {
            name: name.into(),
            bufs: Vec::new(),
            int_params: Vec::new(),
            chan_in: Vec::new(),
            chan_out: Vec::new(),
            body,
            autorun: false,
        }
    }

    /// Buffer lookup by name.
    pub fn buf(&self, name: &str) -> Option<&BufferDecl> {
        self.bufs.iter().find(|b| b.name == name)
    }

    /// Global (argument) buffers in declaration order.
    pub fn global_bufs(&self) -> impl Iterator<Item = &BufferDecl> {
        self.bufs.iter().filter(|b| b.scope == Scope::Global)
    }

    /// The single output buffer.
    ///
    /// # Panics
    /// Panics if there is not exactly one `Output` buffer (channel-output
    /// kernels have none; call only on global-output kernels).
    pub fn output_buf(&self) -> &BufferDecl {
        let mut outs = self.bufs.iter().filter(|b| b.role == BufRole::Output);
        let first = outs.next().expect("kernel has an output buffer");
        assert!(outs.next().is_none(), "kernel has multiple output buffers");
        first
    }

    /// Whether this kernel is eligible for autorun (§4.7): it must not touch
    /// global memory — all I/O flows through channels.
    pub fn autorun_eligible(&self) -> bool {
        self.global_bufs().next().is_none()
    }

    /// Marks the kernel autorun.
    ///
    /// # Panics
    /// Panics if the kernel still has global-memory arguments.
    pub fn mark_autorun(&mut self) {
        assert!(
            self.autorun_eligible(),
            "kernel `{}` has global buffers and cannot be autorun",
            self.name
        );
        self.autorun = true;
    }

    /// Converts a [`Dim`] list + binding into a flattened length expression.
    pub fn len_of(dims: &[Dim]) -> IExpr {
        dims.iter()
            .fold(IExpr::Const(1), |acc, d| acc.mul(IExpr::dim(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VExpr;

    fn trivial_body() -> Stmt {
        Stmt::store("y", IExpr::Const(0), VExpr::Const(0.0))
    }

    #[test]
    fn autorun_requires_no_global_buffers() {
        let mut k = Kernel::new("pool", trivial_body());
        assert!(k.autorun_eligible());
        k.mark_autorun();
        assert!(k.autorun);

        let mut k2 = Kernel::new("conv", trivial_body());
        k2.bufs
            .push(BufferDecl::global("w", BufRole::Weights, IExpr::Const(64)));
        assert!(!k2.autorun_eligible());
    }

    #[test]
    #[should_panic(expected = "cannot be autorun")]
    fn mark_autorun_panics_with_globals() {
        let mut k = Kernel::new("conv", trivial_body());
        k.bufs
            .push(BufferDecl::global("w", BufRole::Weights, IExpr::Const(4)));
        k.mark_autorun();
    }

    #[test]
    fn symbolic_buffer_length_resolves() {
        let b = BufferDecl::global(
            "compute",
            BufRole::Scratch,
            IExpr::var("ff").mul(IExpr::var("xx")).mul(IExpr::var("xx")),
        );
        let bind = Binding::of(&[("ff", 64), ("xx", 56)]);
        assert_eq!(b.resolved_len(&bind), 64 * 56 * 56);
    }

    #[test]
    fn len_of_folds_constants() {
        let l = Kernel::len_of(&[Dim::Const(3), Dim::Const(4)]);
        assert_eq!(l, IExpr::Const(12));
    }
}
