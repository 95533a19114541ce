//! Structural analysis of kernels — the facts the AOC synthesis simulator
//! consumes (§2.4.2–2.4.4).
//!
//! The analysis walks a kernel's loop nest and derives, without executing it:
//!
//! * the *hardware multiplicity* of every operation (how many times unrolled
//!   loops replicate it — the DSP/logic replication of §4.1);
//! * every global-memory access site with its coalesced width and LSU
//!   replication, from the affine stride analysis of
//!   [`crate::expr::IExpr::coeff_of`] (§2.4.3);
//! * the accumulation pattern, which determines the initiation interval AOC
//!   can schedule (§5.1.1: global scratchpad accumulation forces II = 5,
//!   a private register accumulator reaches II = 1);
//! * a recursive [`NestNode`] timing skeleton with symbolic trip counts the
//!   timing model resolves per layer binding.

use crate::dim::Name;
use crate::expr::{Coeff, IExpr, VBinOp, VExpr};
use crate::kernel::{BufRole, Kernel, Scope};
use crate::stmt::{LoopAttr, Stmt};

/// One memory access site (one LSU group for global buffers, one port group
/// for local BRAM buffers).
#[derive(Clone, Debug, PartialEq)]
pub struct AccessFact {
    /// Buffer name.
    pub buf: Name,
    /// Memory region of the buffer.
    pub scope: Scope,
    /// What the buffer carries.
    pub role: BufRole,
    /// Store (write LSU) vs load (read LSU).
    pub is_store: bool,
    /// Elements fetched per request after coalescing along unit-stride
    /// unrolled loops (LSU width = 32 * width_elems bits).
    pub width_elems: u64,
    /// Number of replicated LSUs (non-unit-stride unrolled loops).
    pub replication: u64,
    /// At least one stride involves a symbolic dimension, so AOC must assume
    /// non-aligned, non-coalescible access (§5.3).
    pub symbolic_stride: bool,
    /// The index uses `%`/`/` (modulo addressing, expensive: §6.3.2).
    pub modulo_addressing: bool,
    /// The access pattern "seems repetitive" to AOC — the index is invariant
    /// in at least one enclosing sequential loop — so a cached
    /// burst-coalesced LSU with a 256/512-kbit BRAM cache is inferred
    /// (§2.4.3). These caches dominate bitstream area for naive kernels.
    pub cached: bool,
}

/// Where a reduction accumulates, which bounds the initiation interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccumKind {
    /// No loop-carried accumulation.
    None,
    /// Accumulates into a private register (cached writes, §4.5) — II = 1
    /// with `-fp-relaxed`.
    Private,
    /// Accumulates into local BRAM.
    Local,
    /// Accumulates into a global-memory scratchpad (the naive TVM schedule,
    /// Listing 5.1) — load/add/store round trip, II ≈ 5.
    Global,
}

/// Floating-point operation census, in hardware instances (i.e. already
/// multiplied by unroll replication).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Multiplies (DSP candidates).
    pub fmul: u64,
    /// Adds/subtracts.
    pub fadd: u64,
    /// Divides (deep logic/DSP pipelines).
    pub fdiv: u64,
    /// `exp` calls (softmax).
    pub fexp: u64,
    /// Compares (max/min — relu, pooling).
    pub fcmp: u64,
}

impl OpCounts {
    fn add_scaled(&mut self, other: OpCounts, k: u64) {
        self.fmul += other.fmul * k;
        self.fadd += other.fadd * k;
        self.fdiv += other.fdiv * k;
        self.fexp += other.fexp * k;
        self.fcmp += other.fcmp * k;
    }
}

/// One global-memory access summarized per innermost-loop iteration, feeding
/// the bandwidth-throttling part of the timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafAccess {
    /// Bytes moved per iteration (width * replication * 4, already
    /// accounting for unroll).
    pub bytes: u64,
    /// Coalesced width in elements (DDR efficiency depends on this).
    pub width_elems: u64,
    /// Write vs read.
    pub is_store: bool,
    /// What the buffer carries.
    pub role: BufRole,
    /// Served by a cached burst-coalesced LSU (§2.4.3) — repeated reads hit
    /// the BRAM cache instead of external memory.
    pub cached: bool,
}

/// Recursive timing skeleton of a kernel body.
#[derive(Clone, Debug)]
pub enum NestNode {
    /// A pipelined or serial loop.
    Loop {
        /// Loop variable.
        var: Name,
        /// Trip count (symbolic dims allowed).
        extent: IExpr,
        /// Serial (`#pragma unroll 1`) vs pipelined.
        serial: bool,
        /// Children (inner loops / leaf work), in order.
        children: Vec<NestNode>,
    },
    /// Straight-line work at the innermost level of some loop: one pipelined
    /// "iteration body". `unroll` is the total replication of enclosing
    /// unrolled loops; `accum` the accumulation pattern carried by the
    /// enclosing pipelined loop; `global_sites` the number of distinct
    /// global LSU groups touched per iteration.
    Leaf {
        /// Replication factor from enclosing unrolled loops.
        unroll: u64,
        /// Accumulation pattern feeding the II decision.
        accum: AccumKind,
        /// Distinct global buffers loaded per iteration.
        global_load_bufs: u64,
        /// Distinct global buffers stored per iteration.
        global_store_bufs: u64,
        /// Per-iteration global accesses (after unroll).
        mem: Vec<LeafAccess>,
        /// Channel reads/writes per iteration (after unroll).
        channel_ops: u64,
        /// Float ops per iteration (after unroll).
        ops: OpCounts,
    },
}

/// Everything AOC needs to know about one kernel.
#[derive(Clone, Debug)]
pub struct KernelFacts {
    /// Kernel name.
    pub name: String,
    /// Hardware op census (already unroll-replicated) — sizing DSP/logic.
    pub ops: OpCounts,
    /// Global access sites.
    pub accesses: Vec<AccessFact>,
    /// Local (BRAM) buffers: `(name, resolved-or-symbolic length)`.
    pub local_buffers: Vec<(Name, IExpr)>,
    /// Private (register) buffers.
    pub private_buffers: Vec<(Name, IExpr)>,
    /// Strongest accumulation pattern in the kernel.
    pub accum: AccumKind,
    /// Uses Intel channels.
    pub uses_channels: bool,
    /// Timing skeleton.
    pub nest: Vec<NestNode>,
    /// Maximum loop depth (control overhead proxy, §2.4.5).
    pub loop_depth: u32,
}

/// Analyzes a kernel with the loop attributes it carries.
///
/// # Panics
/// Panics if an unrolled loop has a symbolic extent (AOC refuses to fully
/// unroll non-constant bounds, §4.1).
pub fn analyze(kernel: &Kernel) -> KernelFacts {
    Cx::new(kernel, None).run()
}

/// Analyzes a kernel as if its loops carried `attrs`, one per
/// [`Stmt::For`] in preorder: how the synthesis model applies the loop
/// decisions the compiler takes on its own (the auto-unroll of §6.3.1
/// footnote 4) without copying the kernel.
///
/// # Panics
/// As [`analyze`], and if `attrs` does not hold one attribute per loop.
pub fn analyze_with(kernel: &Kernel, attrs: &[LoopAttr]) -> KernelFacts {
    Cx::new(kernel, Some(attrs)).run()
}

/// A loop around the statement being walked, borrowed from the kernel.
struct EnclosingLoop<'a> {
    var: &'a str,
    extent: &'a IExpr,
    attr: LoopAttr,
}

struct Cx<'a> {
    kernel: &'a Kernel,
    /// The attributes to read the loops with, in preorder; `None` reads
    /// the kernel's own.
    attrs: Option<&'a [LoopAttr]>,
    /// Loops walked so far: the preorder index of the next one.
    seen: usize,
    loops: Vec<EnclosingLoop<'a>>,
    /// The timing skeleton under construction. The nodes past `frame`
    /// belong to the innermost scheduled loop being walked.
    nest: Vec<NestNode>,
    frame: usize,
    /// The global accesses of the leaf being built.
    mem: Vec<LeafAccess>,
    /// Reads per channel of the leaf being built.
    chan_reads: Vec<(&'a str, u64)>,
    facts: KernelFacts,
}

/// The work of one store or channel write, before it joins a leaf.
struct Work {
    unroll: u64,
    accum: AccumKind,
    global_load_bufs: u64,
    global_store_bufs: u64,
    channel_ops: u64,
    ops: OpCounts,
}

impl<'a> Cx<'a> {
    fn new(kernel: &'a Kernel, attrs: Option<&'a [LoopAttr]>) -> Self {
        let buffers = |scope| {
            let bufs = kernel.bufs.iter().filter(move |b| b.scope == scope);
            bufs.map(|b| (b.name.clone(), b.len.clone())).collect()
        };
        Cx {
            kernel,
            attrs,
            seen: 0,
            loops: Vec::new(),
            nest: Vec::new(),
            frame: 0,
            mem: Vec::new(),
            chan_reads: Vec::new(),
            facts: KernelFacts {
                name: kernel.name.clone(),
                ops: OpCounts::default(),
                accesses: Vec::new(),
                local_buffers: buffers(Scope::Local),
                private_buffers: buffers(Scope::Private),
                accum: AccumKind::None,
                uses_channels: !kernel.chan_in.is_empty() || !kernel.chan_out.is_empty(),
                nest: Vec::new(),
                loop_depth: 0,
            },
        }
    }

    fn run(mut self) -> KernelFacts {
        let body = &self.kernel.body;
        self.walk(body);
        if let Some(attrs) = self.attrs {
            assert_eq!(
                self.seen,
                attrs.len(),
                "`{}` needs one loop attribute per loop",
                self.kernel.name
            );
        }
        self.nest.shrink_to_fit();
        self.facts.nest = self.nest;
        self.facts
    }

    fn unroll_factor(&self) -> u64 {
        self.loops
            .iter()
            .filter(|l| l.attr == LoopAttr::Unrolled)
            .map(|l| trips(l.extent))
            .product()
    }

    /// The attribute the next loop in preorder is read with.
    fn loop_attr(&mut self, own: LoopAttr) -> LoopAttr {
        let attr = self.attrs.map_or(own, |attrs| attrs[self.seen]);
        self.seen += 1;
        attr
    }

    fn walk(&mut self, stmt: &'a Stmt) {
        match stmt {
            Stmt::For {
                var,
                extent,
                attr,
                body,
            } => {
                let attr = self.loop_attr(*attr);
                if attr == LoopAttr::Unrolled {
                    assert!(
                        matches!(extent, IExpr::Const(_)),
                        "unrolled loop `{var}` in `{}` has non-constant extent {extent} \
                         (AOC cannot fully unroll symbolic bounds, §4.1)",
                        self.kernel.name
                    );
                }
                self.facts.loop_depth = self.facts.loop_depth.max(self.loops.len() as u32 + 1);
                self.loops.push(EnclosingLoop { var, extent, attr });
                if attr == LoopAttr::Unrolled {
                    // Unrolled loops vanish from the timing skeleton — their
                    // work is replicated into the leaves.
                    self.walk(body);
                    self.loops.pop();
                    return;
                }
                let outer = std::mem::replace(&mut self.frame, self.nest.len());
                self.walk(body);
                self.loops.pop();
                let children = self.nest.drain(self.frame..).collect();
                self.frame = outer;
                self.nest.push(NestNode::Loop {
                    var: var.clone(),
                    extent: extent.clone(),
                    serial: attr == LoopAttr::Serial,
                    children,
                });
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.walk(s);
                }
            }
            Stmt::If { body, .. } => self.walk(body),
            Stmt::Store { buf, idx, val } => {
                let work = self.leaf_for(Some((buf, idx)), val);
                self.push_leaf(work);
            }
            Stmt::WriteChannel { chan, val } => {
                let mut work = self.leaf_for(None, val);
                // Unrolled writes to a vectorized channel coalesce into
                // `width`-element words, one transaction per cycle.
                work.channel_ops += work.unroll.div_ceil(self.chan_width(chan));
                self.push_leaf(work);
            }
        }
    }

    /// Appends a leaf of `work` and the accesses in [`Cx::mem`] to the
    /// loop being walked, merged into its last node when that is a leaf
    /// too: adjacent straight-line work is not sequenced.
    fn push_leaf(&mut self, work: Work) {
        if let Some(NestNode::Leaf {
            unroll,
            accum,
            global_load_bufs,
            global_store_bufs,
            mem,
            channel_ops,
            ops,
        }) = self.nest[self.frame..].last_mut()
        {
            *unroll = (*unroll).max(work.unroll);
            *accum = strongest(*accum, work.accum);
            *global_load_bufs += work.global_load_bufs;
            *global_store_bufs += work.global_store_bufs;
            mem.append(&mut self.mem);
            *channel_ops += work.channel_ops;
            ops.add_scaled(work.ops, 1);
            return;
        }
        self.nest.push(NestNode::Leaf {
            unroll: work.unroll,
            accum: work.accum,
            global_load_bufs: work.global_load_bufs,
            global_store_bufs: work.global_store_bufs,
            mem: self.mem.drain(..).collect(),
            channel_ops: work.channel_ops,
            ops: work.ops,
        });
    }

    /// The work of storing `val` (to `store`, if given), with its accesses
    /// recorded in the kernel facts and in [`Cx::mem`].
    fn leaf_for(&mut self, store: Option<(&'a Name, &'a IExpr)>, val: &'a VExpr) -> Work {
        let unroll = self.unroll_factor();
        let mut ops = OpCounts::default();
        let mut global_load_bufs = 0u64;
        // Accumulation: the stored value reloads the same buffer element.
        let mut is_accum = false;
        val.visit(&mut |e| match e {
            VExpr::Bin(op, _, _) => match op {
                VBinOp::Mul => ops.fmul += 1,
                VBinOp::Add | VBinOp::Sub => ops.fadd += 1,
                VBinOp::Div => ops.fdiv += 1,
                VBinOp::Max | VBinOp::Min => ops.fcmp += 1,
            },
            VExpr::Exp(_) => ops.fexp += 1,
            VExpr::Load { buf, idx } => {
                is_accum |= store.is_some_and(|(b, i)| b == buf && i == idx);
                global_load_bufs += self.access(buf, idx, false);
            }
            VExpr::ReadChannel(c) => match self.chan_reads.iter_mut().find(|(n, _)| n == c) {
                Some((_, reads)) => *reads += 1,
                None => self.chan_reads.push((c, 1)),
            },
            _ => {}
        });
        self.facts.ops.add_scaled(ops, unroll);

        let mut global_store_bufs = 0u64;
        let mut accum = AccumKind::None;
        if let Some((buf, idx)) = store {
            if is_accum {
                accum = match self.buf_scope(buf) {
                    Some(Scope::Private) => AccumKind::Private,
                    Some(Scope::Local) => AccumKind::Local,
                    Some(Scope::Global) | None => AccumKind::Global,
                };
                self.facts.accum = strongest(self.facts.accum, accum);
            }
            global_store_bufs += self.access(buf, idx, true);
        }

        let mut scaled = OpCounts::default();
        scaled.add_scaled(ops, unroll);
        // Per-channel reads coalesce into `width`-element vector pops.
        let channel_ops = self
            .chan_reads
            .iter()
            .map(|&(c, n)| (n * unroll).div_ceil(self.chan_width(c)))
            .sum();
        self.chan_reads.clear();
        Work {
            unroll,
            accum,
            global_load_bufs,
            global_store_bufs,
            channel_ops,
            ops: scaled,
        }
    }

    /// Records the access `buf[idx]`: its LSU (global) or port group
    /// (local) site in the kernel facts, and a global access's traffic in
    /// [`Cx::mem`]. Returns 1 for a global buffer, else 0.
    fn access(&mut self, buf: &Name, idx: &IExpr, is_store: bool) -> u64 {
        let scope = match self.buf_scope(buf) {
            Some(scope @ (Scope::Global | Scope::Local)) => scope,
            _ => return 0,
        };
        let access = self.access_fact(buf, idx, is_store, scope);
        if scope == Scope::Global {
            self.mem.push(LeafAccess {
                bytes: 4 * access.width_elems * access.replication,
                width_elems: access.width_elems,
                is_store,
                role: access.role,
                cached: access.cached,
            });
        }
        // Deduplicate structurally identical sites (the same buffer touched
        // in several syntactic places collapses into one LSU when the access
        // pattern matches). Only a kept site copies its buffer name.
        let seen = self.facts.accesses.iter().any(|a| {
            a.buf == *buf
                && AccessFact {
                    buf: Name::Borrowed(""),
                    ..*a
                } == access
        });
        if !seen {
            self.facts.accesses.push(AccessFact {
                buf: buf.clone(),
                ..access
            });
        }
        u64::from(scope == Scope::Global)
    }

    fn chan_width(&self, name: &str) -> u64 {
        self.kernel
            .chan_in
            .iter()
            .chain(&self.kernel.chan_out)
            .find(|c| c.name == name)
            .map(|c| c.width.max(1) as u64)
            .unwrap_or(1)
    }

    fn buf_scope(&self, name: &str) -> Option<Scope> {
        self.kernel.buf(name).map(|b| b.scope)
    }

    fn buf_role(&self, name: &str) -> BufRole {
        self.kernel
            .buf(name)
            .map(|b| b.role)
            .unwrap_or(BufRole::Scratch)
    }

    /// The access site of `buf[idx]`, its buffer name left empty.
    fn access_fact(&self, buf: &str, idx: &IExpr, is_store: bool, scope: Scope) -> AccessFact {
        let mut width = 1u64;
        let mut replication = 1u64;
        let mut symbolic = false;
        let mut modulo = has_mod(idx);
        for l in &self.loops {
            if l.attr != LoopAttr::Unrolled {
                continue;
            }
            let extent = trips(l.extent);
            match idx.coeff_of(l.var) {
                Coeff::Const(0) => {} // invariant: broadcast, no extra LSU
                Coeff::Const(1) => width *= extent,
                Coeff::Const(_) => replication *= extent,
                Coeff::Symbolic => {
                    replication *= extent;
                    symbolic = true;
                }
                Coeff::NonLinear => {
                    replication *= extent;
                    modulo = true;
                }
            }
        }
        // A symbolic base offset (e.g. `yy * stride_sym`) also prevents AOC
        // from proving alignment even without unrolling.
        if idx_has_symbolic_term(idx, &self.loops, self.kernel) {
            symbolic = true;
        }
        // Repetitive-pattern detection (§2.4.3): the same addresses recur
        // across iterations of some enclosing sequential loop.
        let cached = !is_store
            && scope == Scope::Global
            && self.loops.iter().any(|l| {
                l.attr != LoopAttr::Unrolled
                    && *l.extent != IExpr::Const(1)
                    && idx.coeff_of(l.var) == Coeff::Const(0)
            });
        AccessFact {
            buf: Name::Borrowed(""),
            scope,
            role: self.buf_role(buf),
            is_store,
            width_elems: width,
            replication,
            symbolic_stride: symbolic,
            modulo_addressing: modulo,
            cached,
        }
    }
}

/// The trip count of an unrolled loop, whose extent is constant (checked
/// in [`Cx::walk`]).
fn trips(extent: &IExpr) -> u64 {
    match extent {
        IExpr::Const(c) => (*c).max(0) as u64,
        _ => unreachable!("unrolled extents are constant (checked in walk)"),
    }
}

fn has_mod(e: &IExpr) -> bool {
    match e {
        IExpr::Mod(_, _) | IExpr::Div(_, _) => true,
        IExpr::Add(a, b) | IExpr::Sub(a, b) | IExpr::Mul(a, b) => has_mod(a) || has_mod(b),
        IExpr::Const(_) | IExpr::Var(_) => false,
    }
}

/// True if the index mixes loop variables with symbolic dimensions in a way
/// that prevents compile-time alignment proofs: any `Var` that is neither a
/// loop variable nor an int literal is a symbolic dim.
fn idx_has_symbolic_term(idx: &IExpr, loops: &[EnclosingLoop<'_>], kernel: &Kernel) -> bool {
    let mut sym = false;
    collect_vars(idx, &mut |v| {
        let is_loop_var = loops.iter().any(|l| l.var == v);
        let is_param = kernel.int_params.iter().any(|p| p == v);
        if !is_loop_var && is_param {
            sym = true;
        }
    });
    sym
}

fn collect_vars(e: &IExpr, f: &mut impl FnMut(&str)) {
    match e {
        IExpr::Var(v) => f(v),
        IExpr::Add(a, b)
        | IExpr::Sub(a, b)
        | IExpr::Mul(a, b)
        | IExpr::Div(a, b)
        | IExpr::Mod(a, b) => {
            collect_vars(a, f);
            collect_vars(b, f);
        }
        IExpr::Const(_) => {}
    }
}

fn strongest(a: AccumKind, b: AccumKind) -> AccumKind {
    use AccumKind::*;
    match (a, b) {
        (Global, _) | (_, Global) => Global,
        (Local, _) | (_, Local) => Local,
        (Private, _) | (_, Private) => Private,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BufferDecl;

    /// Listing 4.1-style vector add; 3 narrow LSUs.
    #[test]
    fn vecadd_base_has_three_unit_lsus() {
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
        let f = analyze(&k);
        assert_eq!(f.accesses.len(), 3);
        assert!(f
            .accesses
            .iter()
            .all(|a| a.width_elems == 1 && a.replication == 1));
        assert_eq!(f.ops.fadd, 1);
        assert_eq!(f.accum, AccumKind::None);
    }

    /// §4.1: unrolling by 4 widens coalesced LSUs to 128 bits (4 elements).
    #[test]
    fn unrolled_vecadd_widens_lsus() {
        let body = Stmt::for_(
            "i_o",
            IExpr::Const(16),
            Stmt::unrolled(
                "i_i",
                IExpr::Const(4),
                Stmt::store(
                    "c",
                    IExpr::var("i_o")
                        .mul(IExpr::Const(4))
                        .add(IExpr::var("i_i")),
                    VExpr::load(
                        "a",
                        IExpr::var("i_o")
                            .mul(IExpr::Const(4))
                            .add(IExpr::var("i_i")),
                    )
                    .add(VExpr::load(
                        "b",
                        IExpr::var("i_o")
                            .mul(IExpr::Const(4))
                            .add(IExpr::var("i_i")),
                    )),
                ),
            ),
        );
        let mut k = Kernel::new("vec_add_u4", body);
        k.bufs = vec![
            BufferDecl::global("a", BufRole::Input, IExpr::Const(64)),
            BufferDecl::global("b", BufRole::Weights, IExpr::Const(64)),
            BufferDecl::global("c", BufRole::Output, IExpr::Const(64)),
        ];
        let f = analyze(&k);
        assert_eq!(f.accesses.len(), 3);
        for a in &f.accesses {
            assert_eq!(a.width_elems, 4, "{} should coalesce", a.buf);
            assert_eq!(a.replication, 1);
        }
        // 4 adders replicated (§4.1: four DSPs for Listing 4.2).
        assert_eq!(f.ops.fadd, 4);
    }

    /// Non-unit stride under unroll replicates LSUs instead of widening.
    #[test]
    fn strided_access_replicates_lsus() {
        let body = Stmt::for_(
            "i",
            IExpr::Const(16),
            Stmt::unrolled(
                "j",
                IExpr::Const(4),
                Stmt::store(
                    "y",
                    IExpr::var("i").mul(IExpr::Const(4)).add(IExpr::var("j")),
                    VExpr::load(
                        "x",
                        IExpr::var("j").mul(IExpr::Const(100)).add(IExpr::var("i")),
                    ),
                ),
            ),
        );
        let mut k = Kernel::new("strided", body);
        k.bufs = vec![
            BufferDecl::global("x", BufRole::Input, IExpr::Const(400)),
            BufferDecl::global("y", BufRole::Output, IExpr::Const(64)),
        ];
        let f = analyze(&k);
        let x = f.accesses.iter().find(|a| a.buf == "x").unwrap();
        assert_eq!(x.replication, 4);
        assert_eq!(x.width_elems, 1);
    }

    /// §5.3: symbolic strides defeat coalescing even when runtime value is 1.
    #[test]
    fn symbolic_stride_flags_access() {
        let body = Stmt::for_(
            "i",
            IExpr::var("n"),
            Stmt::store(
                "y",
                IExpr::var("i"),
                VExpr::load("x", IExpr::var("i").mul(IExpr::var("stride"))),
            ),
        );
        let mut k = Kernel::new("sym", body);
        k.bufs = vec![
            BufferDecl::global("x", BufRole::Input, IExpr::var("n")),
            BufferDecl::global("y", BufRole::Output, IExpr::var("n")),
        ];
        k.int_params = vec!["n".into(), "stride".into()];
        let f = analyze(&k);
        let x = f.accesses.iter().find(|a| a.buf == "x").unwrap();
        assert!(x.symbolic_stride);
    }

    /// Global-scratchpad accumulation (Listing 5.1) is detected; private
    /// register accumulation (Listing 5.2) is distinguished.
    #[test]
    fn accumulation_scopes() {
        let accum_body = |buf: &'static str| {
            Stmt::for_(
                "rc",
                IExpr::Const(8),
                Stmt::store(
                    buf,
                    IExpr::Const(0),
                    VExpr::load(buf, IExpr::Const(0)).add(
                        VExpr::load("a", IExpr::var("rc")).mul(VExpr::load("w", IExpr::var("rc"))),
                    ),
                ),
            )
        };
        let mut kg = Kernel::new("g", accum_body("scratch"));
        kg.bufs = vec![
            BufferDecl::global("a", BufRole::Input, IExpr::Const(8)),
            BufferDecl::global("w", BufRole::Weights, IExpr::Const(8)),
            BufferDecl::global("scratch", BufRole::Scratch, IExpr::Const(1)),
        ];
        assert_eq!(analyze(&kg).accum, AccumKind::Global);

        let mut kp = Kernel::new("p", accum_body("tmp"));
        kp.bufs = vec![
            BufferDecl::global("a", BufRole::Input, IExpr::Const(8)),
            BufferDecl::global("w", BufRole::Weights, IExpr::Const(8)),
            BufferDecl::private("tmp", IExpr::Const(1)),
        ];
        assert_eq!(analyze(&kp).accum, AccumKind::Private);
    }

    #[test]
    fn modulo_addressing_is_flagged() {
        let body = Stmt::for_(
            "i",
            IExpr::Const(100),
            Stmt::store(
                "y",
                IExpr::var("i"),
                VExpr::load("x", IExpr::var("i").rem(IExpr::Const(30))),
            ),
        );
        let mut k = Kernel::new("padlike", body);
        k.bufs = vec![
            BufferDecl::global("x", BufRole::Input, IExpr::Const(30)),
            BufferDecl::global("y", BufRole::Output, IExpr::Const(100)),
        ];
        let f = analyze(&k);
        assert!(
            f.accesses
                .iter()
                .find(|a| a.buf == "x")
                .unwrap()
                .modulo_addressing
        );
    }

    #[test]
    #[should_panic(expected = "cannot fully unroll")]
    fn unrolling_symbolic_extent_panics() {
        let body = Stmt::unrolled(
            "i",
            IExpr::var("n"),
            Stmt::store("y", IExpr::var("i"), VExpr::Const(0.0)),
        );
        let mut k = Kernel::new("bad", body);
        k.bufs = vec![BufferDecl::global("y", BufRole::Output, IExpr::var("n"))];
        k.int_params = vec!["n".into()];
        analyze(&k);
    }

    #[test]
    fn nest_structure_reflects_loops() {
        let body = Stmt::for_(
            "i",
            IExpr::Const(4),
            Stmt::for_(
                "j",
                IExpr::Const(8),
                Stmt::store("y", IExpr::var("i"), VExpr::Const(0.0)),
            ),
        );
        let mut k = Kernel::new("nested", body);
        k.bufs = vec![BufferDecl::global("y", BufRole::Output, IExpr::Const(4))];
        let f = analyze(&k);
        assert_eq!(f.loop_depth, 2);
        match &f.nest[0] {
            NestNode::Loop { var, children, .. } => {
                assert_eq!(var, "i");
                assert!(matches!(&children[0], NestNode::Loop { var, .. } if var == "j"));
            }
            _ => panic!("expected loop"),
        }
    }
}
