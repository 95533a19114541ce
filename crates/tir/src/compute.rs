//! Kernel generators: each operator's *compute function* lowered through a
//! selectable *schedule*, exactly mirroring the default and optimized
//! schedules of Chapter 5.
//!
//! | Generator | Base schedule | Optimized schedule |
//! |---|---|---|
//! | convolution ([`conv2d`]) | Listing 5.1 (global scratchpad, separate writeback) | Listing 5.2 (fused + cached writes + `F*F` unroll), Listings 5.3/5.4 (tiled in `xx`/`rc`/`ax1`) |
//! | depthwise conv ([`conv2d`]) | same pattern | tiled `W2 x F x F` (Table 6.7) |
//! | dense ([`dense`]) | Listing 5.5 | Listing 5.6 (strip-mined + unrolled + cached dot) |
//! | softmax ([`softmax`]) | Listing 5.7 (invariants recomputed) | Listing 5.8 (loop-invariant code motion) |
//! | pooling ([`pool`]) | direct window sweep | channelized/autorun variant |
//! | padding ([`pad`], [`pad_param`]) | TVM's modulo-addressed guarded copy (§6.3.2) | — |
//! | streaming depthwise conv ([`conv2d_dw_stream`]) | — | dataflow stage over an `F`-row ring buffer |
//! | streaming pooling ([`pool_stream`]) | — | dataflow stage over the same row ring |
//! | streaming padding ([`pad_stream`]) | — | dataflow stage with no buffering |
//!
//! Every generator supports three I/O modes (§4.6): global buffers, channel
//! input (with the local re-use cache the thesis describes: "if a kernel
//! needs to re-use data that it is consuming from a channel, it needs to
//! store channel reads into local memory"), and channel output. The
//! streaming generators read a channel without the cache.
//!
//! Parameterized kernels (§4.9/§5.3) use symbolic [`Dim`]s that become
//! integer kernel arguments; `explicit_strides` reproduces the Listing 5.10
//! codegen whose symbolic strides defeat coalescing, and its Listing 5.11
//! workaround.

#![warn(clippy::too_many_lines)]

use crate::dim::{Dim, Name};
use crate::expr::{BExpr, IExpr, VExpr};
use crate::kernel::{BufRole, BufferDecl, ChannelDecl, Kernel};
use crate::stmt::Stmt;
use fpgaccel_tensor::ops::Activation;

/// Where a kernel's activations come from / go to (§4.6).
#[derive(Clone, Debug, PartialEq)]
pub enum IoMode {
    /// Global-memory buffer.
    Global,
    /// Intel OpenCL channel with the given name and FIFO depth.
    Channel {
        /// Channel name.
        name: String,
        /// FIFO depth in elements.
        depth: usize,
        /// Elements per channel word (vectorized `floatN` channels); the
        /// kernel's pop/emit loops unroll by this factor when it divides
        /// their trip counts.
        width: usize,
    },
}

impl IoMode {
    /// Scalar channel helper.
    pub fn channel(name: impl Into<String>, depth: usize) -> IoMode {
        IoMode::Channel {
            name: name.into(),
            depth,
            width: 1,
        }
    }

    /// Vectorized channel helper (`width` elements per channel word).
    pub fn channel_wide(name: impl Into<String>, depth: usize, width: usize) -> IoMode {
        IoMode::Channel {
            name: name.into(),
            depth,
            width: width.max(1),
        }
    }

    /// Elements per channel word (1 for global I/O and scalar channels).
    pub fn width(&self) -> usize {
        match self {
            IoMode::Global => 1,
            IoMode::Channel { width, .. } => (*width).max(1),
        }
    }

    fn decl(&self) -> Option<ChannelDecl> {
        match self {
            IoMode::Global => None,
            IoMode::Channel { name, depth, width } => Some(ChannelDecl {
                name: name.clone(),
                depth: *depth,
                width: (*width).max(1),
            }),
        }
    }

    /// Declares `len` input elements on `k`: the global buffer `buf`, or a
    /// channel whose elements the kernel body first stages into the local
    /// `in_cache` (§4.6: channel data must be staged into local memory for
    /// re-use). Returns the buffer the kernel's loads read.
    fn source(&self, k: &mut Kernel, buf: &'static str, len: &IExpr) -> &'static str {
        match self {
            IoMode::Global => {
                k.bufs
                    .push(BufferDecl::global(buf, BufRole::Input, len.clone()));
                buf
            }
            IoMode::Channel { name, width, .. } => {
                k.bufs.push(BufferDecl::local("in_cache", len.clone()));
                k.chan_in.extend(self.decl());
                k.body = stage_in("in_cache", len, name, *width);
                "in_cache"
            }
        }
    }

    /// Declares the output on `k`: the global buffer `buf` of `len`
    /// elements, or the output channel.
    fn sink(&self, k: &mut Kernel, buf: &'static str, len: IExpr) {
        match self.decl() {
            None => k.bufs.push(BufferDecl::global(buf, BufRole::Output, len)),
            Some(decl) => k.chan_out.push(decl),
        }
    }

    /// Emits `val` as output element `idx`: a store into `buf`, or a
    /// channel write.
    fn emit(&self, buf: &'static str, idx: IExpr, val: VExpr) -> Stmt {
        match self {
            IoMode::Global => Stmt::store(buf, idx, val),
            IoMode::Channel { name, .. } => Stmt::WriteChannel {
                chan: name.clone(),
                val,
            },
        }
    }
}

/// The fused epilogue a kernel applies to each output element (§3.1, §5.1.1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpilogueSpec {
    /// Add a per-output-channel bias.
    pub bias: bool,
    /// Apply a folded batch norm (scale/shift per output channel).
    pub bn: bool,
    /// Add a residual operand read from global memory at the output index.
    pub residual: bool,
    /// Final activation.
    pub activation: Activation,
}

impl EpilogueSpec {
    /// Bias + activation.
    pub fn bias_act(activation: Activation) -> Self {
        EpilogueSpec {
            bias: true,
            activation,
            ..Default::default()
        }
    }

    /// Applies the epilogue to an accumulated value. `ch` indexes the output
    /// channel, `out_idx` the flattened output element (for residuals).
    fn apply(&self, acc: VExpr, ch: &IExpr, out_idx: &IExpr) -> VExpr {
        let mut v = acc;
        if self.bias {
            v = v.add(VExpr::load("bias", ch.clone()));
        }
        if self.bn {
            v = v
                .mul(VExpr::load("bn_scale", ch.clone()))
                .add(VExpr::load("bn_shift", ch.clone()));
        }
        if self.residual {
            v = v.add(VExpr::load("res", out_idx.clone()));
        }
        match self.activation {
            Activation::None => v,
            Activation::Relu => v.max(VExpr::Const(0.0)),
            Activation::Relu6 => v.max(VExpr::Const(0.0)).min(VExpr::Const(6.0)),
        }
    }

    fn push_bufs(&self, bufs: &mut Vec<BufferDecl>, c2: &IExpr, out_len: &IExpr) {
        if self.bias {
            bufs.push(BufferDecl::global("bias", BufRole::Bias, c2.clone()));
        }
        if self.bn {
            bufs.push(BufferDecl::global("bn_scale", BufRole::BnScale, c2.clone()));
            bufs.push(BufferDecl::global("bn_shift", BufRole::BnShift, c2.clone()));
        }
        if self.residual {
            bufs.push(BufferDecl::global(
                "res",
                BufRole::Residual,
                out_len.clone(),
            ));
        }
    }
}

/// Convolution geometry. The input is assumed pre-padded (padding is a
/// separate kernel, §3.1). Input spatial dims are carried explicitly —
/// for strided convolutions the buffer can be larger than `s*(h2-1)+f`
/// (floor division in the output-size formula), and the row stride must
/// match the real layout.
#[derive(Clone, Debug)]
pub struct ConvDims {
    /// Output channels `K` (`C_2`).
    pub c2: Dim,
    /// Input channels `C_1`.
    pub c1: Dim,
    /// Output height `H_2`.
    pub h2: Dim,
    /// Output width `W_2`.
    pub w2: Dim,
    /// Input height `H_1` (post-padding).
    pub h1: Dim,
    /// Input width `W_1` (post-padding).
    pub w1: Dim,
    /// Filter size `F`.
    pub f: usize,
    /// Stride `S`.
    pub s: usize,
}

impl ConvDims {
    /// Fully-constant dims with the minimal input size `s*(h2-1) + f`.
    pub fn constant(c2: usize, c1: usize, h2: usize, w2: usize, f: usize, s: usize) -> Self {
        ConvDims {
            c2: Dim::Const(c2),
            c1: Dim::Const(c1),
            h2: Dim::Const(h2),
            w2: Dim::Const(w2),
            h1: Dim::Const(s * (h2 - 1) + f),
            w1: Dim::Const(s * (w2 - 1) + f),
            f,
            s,
        }
    }

    /// Overrides the input spatial dims (the actual buffer layout).
    pub fn with_input(mut self, h1: Dim, w1: Dim) -> Self {
        self.h1 = h1;
        self.w1 = w1;
        self
    }

    fn h1(&self) -> IExpr {
        IExpr::dim(&self.h1)
    }

    fn w1(&self) -> IExpr {
        IExpr::dim(&self.w1)
    }

    fn in_len(&self) -> IExpr {
        IExpr::dim(&self.c1).mul(self.h1()).mul(self.w1())
    }

    fn out_len(&self) -> IExpr {
        IExpr::dim(&self.c2)
            .mul(IExpr::dim(&self.h2))
            .mul(IExpr::dim(&self.w2))
    }

    fn weight_len(&self, depthwise: bool) -> IExpr {
        let ff = IExpr::Const((self.f * self.f) as i64);
        if depthwise {
            IExpr::dim(&self.c2).mul(ff)
        } else {
            IExpr::dim(&self.c2).mul(IExpr::dim(&self.c1)).mul(ff)
        }
    }
}

/// The distinct symbolic dims among `dims`, in order: a parameterized
/// kernel's integer arguments (§5.3).
fn symbols<'a>(dims: impl IntoIterator<Item = &'a Dim>) -> Vec<Name> {
    let mut out: Vec<Name> = Vec::new();
    for d in dims {
        if let Dim::Sym(s) = d {
            if !out.contains(s) {
                out.push(s.clone());
            }
        }
    }
    out
}

/// Schedule choice for convolution kernels.
#[derive(Clone, Debug, PartialEq)]
pub enum ConvSchedule {
    /// Listing 5.1: the default TVM schedule — global scratchpad
    /// accumulation, separate activation/writeback loop, no unrolling.
    Base,
    /// Listing 5.2: fused epilogue, private-register accumulator (cached
    /// writes), `ry`/`rx` fully unrolled when `unroll_ff`.
    Fused {
        /// Unroll the `F x F` reduction.
        unroll_ff: bool,
    },
    /// Listings 5.3/5.4: additionally tiled + unrolled along output columns
    /// (`w2vec`), input channels (`c1vec`) and — for 1x1 convolutions —
    /// output channels (`c2vec`). Tile factors must divide the (runtime)
    /// extents (§4.11 requirement 2).
    Tiled {
        /// `W_2vec`.
        w2vec: usize,
        /// `C_2vec` (1 for non-1x1 kernels).
        c2vec: usize,
        /// `C_1vec`.
        c1vec: usize,
    },
}

/// Full convolution kernel specification.
#[derive(Clone, Debug)]
pub struct ConvSpec {
    /// Kernel name.
    pub name: String,
    /// Geometry.
    pub dims: ConvDims,
    /// Depthwise convolution.
    pub depthwise: bool,
    /// Fused epilogue.
    pub epilogue: EpilogueSpec,
    /// Input source.
    pub io_in: IoMode,
    /// Output sink.
    pub io_out: IoMode,
    /// Schedule.
    pub schedule: ConvSchedule,
    /// Reproduce the Listing 5.10 symbolic-stride codegen (defeats
    /// coalescing); `false` applies the Listing 5.11 stride-1 workaround.
    pub explicit_strides: bool,
}

impl ConvSpec {
    /// A constant-shape convolution with global I/O and base schedule.
    pub fn base(name: impl Into<String>, dims: ConvDims, depthwise: bool) -> Self {
        ConvSpec {
            name: name.into(),
            dims,
            depthwise,
            epilogue: EpilogueSpec::default(),
            io_in: IoMode::Global,
            io_out: IoMode::Global,
            schedule: ConvSchedule::Base,
            explicit_strides: false,
        }
    }
}

/// Generates a convolution kernel per the spec.
///
/// # Panics
/// Panics if constant tile factors do not divide constant extents, or a
/// tiled depthwise kernel requests `c1vec`/`c2vec` > 1.
pub fn conv2d(spec: &ConvSpec) -> Kernel {
    match &spec.schedule {
        ConvSchedule::Base => conv2d_base(spec),
        ConvSchedule::Fused { unroll_ff } => conv2d_fused(spec, *unroll_ff),
        ConvSchedule::Tiled {
            w2vec,
            c2vec,
            c1vec,
        } => conv2d_tiled(spec, *w2vec, *c2vec, *c1vec),
    }
}

/// §4.6 channel-input staging loop: pops the whole input into a local
/// cache. On a vectorized channel whose width divides the (constant)
/// length, the loop splits into `len/width` wide pops — one channel word
/// per cycle — matching the `floatN` channel the kernel declares.
fn stage_in(cache: &'static str, len: &IExpr, chan: &str, width: usize) -> Stmt {
    if let IExpr::Const(n) = len {
        if width > 1 && (*n as usize).is_multiple_of(width) {
            let w = IExpr::Const(width as i64);
            return Stmt::for_(
                "i0",
                IExpr::Const(n / width as i64),
                Stmt::unrolled(
                    "i0u",
                    w.clone(),
                    Stmt::store(
                        cache,
                        IExpr::var("i0").mul(w).add(IExpr::var("i0u")),
                        VExpr::ReadChannel(chan.to_string()),
                    ),
                ),
            );
        }
    }
    Stmt::for_(
        "i0",
        len.clone(),
        Stmt::store(
            cache,
            IExpr::var("i0"),
            VExpr::ReadChannel(chan.to_string()),
        ),
    )
}

/// A loop over `extent` elements, split into `extent/v` blocks of `v`
/// unrolled iterations when `v` divides it (vectorized channel access);
/// plain pipelined loop otherwise. `body` receives the element index.
fn vec_loop(prefix: &str, extent: usize, v: usize, body: impl Fn(IExpr) -> Stmt) -> Stmt {
    let outer = format!("{prefix}o");
    if v > 1 && extent.is_multiple_of(v) {
        let inner = format!("{prefix}u");
        let vc = IExpr::Const(v as i64);
        let idx = IExpr::var(outer.clone())
            .mul(vc.clone())
            .add(IExpr::var(inner.clone()));
        Stmt::for_(
            outer,
            IExpr::Const((extent / v) as i64),
            Stmt::unrolled(inner, vc, body(idx)),
        )
    } else {
        let idx = IExpr::var(outer.clone());
        Stmt::for_(outer, IExpr::Const(extent as i64), body(idx))
    }
}

/// Appends `main` to the kernel body, after any channel staging loop.
fn attach_body(k: &mut Kernel, main: Stmt) {
    let pre = std::mem::replace(&mut k.body, Stmt::Block(vec![]));
    k.body = match pre {
        Stmt::Block(mut v) => {
            v.push(main);
            Stmt::block(v)
        }
        other => Stmt::block(vec![other, main]),
    };
}

/// `buf[idx] += term`: one accumulation step into a scratch or private
/// accumulator.
fn mac(buf: &'static str, idx: IExpr, term: VExpr) -> Stmt {
    Stmt::store(buf, idx.clone(), VExpr::load(buf, idx).add(term))
}

/// Shared buffer/channel scaffolding for convolution kernels. Returns the
/// kernel shell plus the name of the buffer input loads should target.
fn conv_shell(spec: &ConvSpec) -> (Kernel, &'static str) {
    let d = &spec.dims;
    let mut k = Kernel::new(spec.name.clone(), Stmt::Block(vec![]));
    let in_buf = spec.io_in.source(&mut k, "in_fm", &d.in_len());
    k.bufs.push(BufferDecl::global(
        "w",
        BufRole::Weights,
        d.weight_len(spec.depthwise),
    ));
    spec.epilogue
        .push_bufs(&mut k.bufs, &IExpr::dim(&d.c2), &d.out_len());
    spec.io_out.sink(&mut k, "out_fm", d.out_len());
    k.int_params = symbols([&d.c2, &d.c1, &d.h2, &d.w2, &d.h1, &d.w1]);
    if spec.explicit_strides {
        k.int_params.push("stride_x".into());
    }
    (k, in_buf)
}

/// Flattened input index `rc*H1*W1 + iy*W1 + ix`, honoring the
/// `explicit_strides` mode for the innermost term.
fn conv_in_idx(spec: &ConvSpec, rc: IExpr, iy: IExpr, ix: IExpr) -> IExpr {
    let d = &spec.dims;
    let ix = if spec.explicit_strides {
        // Listing 5.10: the innermost subscript is scaled by a symbolic
        // stride argument (always 1 at runtime, but AOC cannot know).
        ix.mul(IExpr::var("stride_x"))
    } else {
        ix
    };
    rc.mul(d.h1()).mul(d.w1()).add(iy.mul(d.w1())).add(ix)
}

fn out_idx(d: &ConvDims, ax1: IExpr, yy: IExpr, xx: IExpr) -> IExpr {
    ax1.mul(IExpr::dim(&d.h2))
        .mul(IExpr::dim(&d.w2))
        .add(yy.mul(IExpr::dim(&d.w2)))
        .add(xx)
}

fn weight_idx(spec: &ConvSpec, ax1: IExpr, rc: IExpr, ry: IExpr, rx: IExpr) -> IExpr {
    let d = &spec.dims;
    let ff = IExpr::Const((d.f * d.f) as i64);
    let fy = ry.mul(IExpr::Const(d.f as i64)).add(rx);
    if spec.depthwise {
        ax1.mul(ff).add(fy)
    } else {
        ax1.mul(IExpr::dim(&d.c1))
            .mul(ff.clone())
            .add(rc.mul(ff))
            .add(fy)
    }
}

/// The product of one reduction step, `in[..] * w[..]`, at output channel
/// `ax1`, input channel `rc`, output pixel `(yy, xx)` and filter tap
/// `(ry, rx)`. Depthwise kernels read input channel `ax1` and have no `rc`
/// weight term.
fn conv_product(
    spec: &ConvSpec,
    in_buf: &'static str,
    ax1: &IExpr,
    rc: &IExpr,
    yy: &IExpr,
    xx: &IExpr,
) -> VExpr {
    let s = IExpr::Const(spec.dims.s as i64);
    let (ry, rx) = (IExpr::var("ry"), IExpr::var("rx"));
    let iy = yy.clone().mul(s.clone()).add(ry.clone());
    let ix = xx.clone().mul(s).add(rx.clone());
    let in_ch = if spec.depthwise { ax1 } else { rc };
    VExpr::load(in_buf, conv_in_idx(spec, in_ch.clone(), iy, ix)).mul(VExpr::load(
        "w",
        weight_idx(spec, ax1.clone(), rc.clone(), ry, rx),
    ))
}

/// Emits the epilogue of `acc` as output element `(ax1, yy, xx)`.
fn conv_emit(spec: &ConvSpec, acc: VExpr, ax1: IExpr, yy: IExpr, xx: IExpr) -> Stmt {
    let o = out_idx(&spec.dims, ax1.clone(), yy, xx);
    let val = spec.epilogue.apply(acc, &ax1, &o);
    spec.io_out.emit("out_fm", o, val)
}

/// Listing 5.1: the naive TVM HLS schedule.
fn conv2d_base(spec: &ConvSpec) -> Kernel {
    let d = &spec.dims;
    let (mut k, in_buf) = conv_shell(spec);
    // Global scratchpad holding one output channel's accumulations.
    k.bufs.push(BufferDecl::global(
        "scratchpad",
        BufRole::Scratch,
        IExpr::dim(&d.h2).mul(IExpr::dim(&d.w2)),
    ));
    let plane =
        |y: &'static str, x: &'static str| IExpr::var(y).mul(IExpr::dim(&d.w2)).add(IExpr::var(x));
    let sp_idx = plane("yy", "xx");
    let (ax1, yy, xx) = (IExpr::var("ax1"), IExpr::var("yy"), IExpr::var("xx"));
    let product = conv_product(spec, in_buf, &ax1, &IExpr::var("rc"), &yy, &xx);
    let rc_extent = if spec.depthwise {
        IExpr::Const(1)
    } else {
        IExpr::dim(&d.c1)
    };
    let f = IExpr::Const(d.f as i64);
    let reduction = Stmt::for_(
        "yy",
        IExpr::dim(&d.h2),
        Stmt::for_(
            "xx",
            IExpr::dim(&d.w2),
            Stmt::block(vec![
                Stmt::store("scratchpad", sp_idx.clone(), VExpr::Const(0.0)),
                Stmt::for_(
                    "rc",
                    rc_extent,
                    Stmt::for_(
                        "ry",
                        f.clone(),
                        Stmt::for_("rx", f, mac("scratchpad", sp_idx, product)),
                    ),
                ),
            ]),
        ),
    );
    // Separate writeback loop — the data dependency that defeats pipelining
    // (§5.1.1).
    let acc = VExpr::load("scratchpad", plane("ax2", "ax3"));
    let writeback = Stmt::for_(
        "ax2",
        IExpr::dim(&d.h2),
        Stmt::for_(
            "ax3",
            IExpr::dim(&d.w2),
            conv_emit(spec, acc, ax1, IExpr::var("ax2"), IExpr::var("ax3")),
        ),
    );
    let main = Stmt::for_(
        "ax1",
        IExpr::dim(&d.c2),
        Stmt::block(vec![reduction, writeback]),
    );
    attach_body(&mut k, main);
    k
}

/// Listing 5.2: fused epilogue + private accumulator + `F x F` unroll.
fn conv2d_fused(spec: &ConvSpec, unroll_ff: bool) -> Kernel {
    let d = &spec.dims;
    let (mut k, in_buf) = conv_shell(spec);
    k.bufs.push(BufferDecl::private("tmp", IExpr::Const(1)));
    let (ax1, yy, xx) = (IExpr::var("ax1"), IExpr::var("yy"), IExpr::var("xx"));
    let product = conv_product(spec, in_buf, &ax1, &IExpr::var("rc"), &yy, &xx);
    let ff_loop: fn(&'static str, IExpr, Stmt) -> Stmt = if unroll_ff {
        Stmt::unrolled
    } else {
        Stmt::for_
    };
    let f = IExpr::Const(d.f as i64);
    let mut reduction = ff_loop(
        "ry",
        f.clone(),
        ff_loop("rx", f, mac("tmp", IExpr::Const(0), product)),
    );
    if !spec.depthwise {
        reduction = Stmt::for_("rc", IExpr::dim(&d.c1), reduction);
    }
    let acc = VExpr::load("tmp", IExpr::Const(0));
    let body = Stmt::for_(
        "ax1",
        IExpr::dim(&d.c2),
        Stmt::for_(
            "yy",
            IExpr::dim(&d.h2),
            Stmt::for_(
                "xx",
                IExpr::dim(&d.w2),
                Stmt::block(vec![
                    Stmt::store("tmp", IExpr::Const(0), VExpr::Const(0.0)),
                    reduction,
                    conv_emit(spec, acc, ax1, yy, xx),
                ]),
            ),
        ),
    );
    attach_body(&mut k, body);
    k
}

/// Listings 5.3/5.4: tiled + unrolled in `xx` (`w2vec`), `rc` (`c1vec`) and
/// `ax1` (`c2vec`, 1x1 kernels), with list-initialized private accumulators.
fn conv2d_tiled(spec: &ConvSpec, w2vec: usize, c2vec: usize, c1vec: usize) -> Kernel {
    let d = &spec.dims;
    if spec.depthwise {
        assert_eq!(c1vec, 1, "depthwise kernels tile only W2/F/F (Table 6.7)");
        assert_eq!(c2vec, 1, "depthwise kernels tile only W2/F/F (Table 6.7)");
    }
    check_divides(&d.w2, w2vec, "w2vec");
    check_divides(&d.c2, c2vec, "c2vec");
    if !spec.depthwise {
        check_divides(&d.c1, c1vec, "c1vec");
    }

    let (mut k, in_buf) = conv_shell(spec);
    k.bufs.push(BufferDecl::private(
        "tmp",
        IExpr::Const((c2vec * w2vec) as i64),
    ));
    let tile = |o: &'static str, i: &'static str, v: usize| {
        IExpr::var(o).mul(IExpr::Const(v as i64)).add(IExpr::var(i))
    };
    let (ax1, xx, rc) = (
        tile("ax1o", "ax1i", c2vec),
        tile("xxo", "xxi", w2vec),
        tile("rco", "rci", c1vec),
    );
    let tmp_idx = tile("ax1i", "xxi", w2vec);
    let yy = IExpr::var("yy");
    let product = conv_product(spec, in_buf, &ax1, &rc, &yy, &xx);

    // Innermost unrolled group: ax1i, xxi, rci, ry, rx (all fully unrolled,
    // §5.1.1 "We always fully unroll the inner loops").
    let f = IExpr::Const(d.f as i64);
    let tile_loops = |body: Stmt| {
        Stmt::unrolled(
            "ax1i",
            IExpr::Const(c2vec as i64),
            Stmt::unrolled("xxi", IExpr::Const(w2vec as i64), body),
        )
    };
    let taps = Stmt::unrolled(
        "ry",
        f.clone(),
        Stmt::unrolled("rx", f, mac("tmp", tmp_idx.clone(), product)),
    );
    let reduction = if spec.depthwise {
        tile_loops(taps)
    } else {
        let rci = Stmt::unrolled("rci", IExpr::Const(c1vec as i64), taps);
        Stmt::for_(
            "rco",
            IExpr::dim(&d.c1).div(IExpr::Const(c1vec as i64)),
            tile_loops(rci),
        )
    };

    // Zero-initialization of the accumulator tile (the "list initialization"
    // of Listing 5.3) and the unrolled writeback.
    let init = tile_loops(Stmt::store("tmp", tmp_idx.clone(), VExpr::Const(0.0)));
    let writeback = tile_loops(conv_emit(spec, VExpr::load("tmp", tmp_idx), ax1, yy, xx));
    let body = Stmt::for_(
        "ax1o",
        IExpr::dim(&d.c2).div(IExpr::Const(c2vec as i64)),
        Stmt::for_(
            "yy",
            IExpr::dim(&d.h2),
            Stmt::for_(
                "xxo",
                IExpr::dim(&d.w2).div(IExpr::Const(w2vec as i64)),
                Stmt::block(vec![init, reduction, writeback]),
            ),
        ),
    );
    attach_body(&mut k, body);
    k
}

fn check_divides(dim: &Dim, factor: usize, what: &str) {
    if let Some(n) = dim.as_const() {
        assert!(
            n % factor == 0,
            "{what} = {factor} does not divide extent {n} (§4.11 requirement 2)"
        );
    }
}

/// Dense-layer schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum DenseSchedule {
    /// Listing 5.5: scalar reduction through a global `dot` scratchpad.
    Base,
    /// Listing 5.6: reduction strip-mined by `factor` and unrolled, dot
    /// product cached in a private register, input vector cached in BRAM.
    Unrolled {
        /// Strip-mine/unroll factor (must divide the input length).
        factor: usize,
    },
}

/// Dense (fully-connected) layer specification.
#[derive(Clone, Debug)]
pub struct DenseSpec {
    /// Kernel name.
    pub name: String,
    /// Output length `M`.
    pub m: Dim,
    /// Input length `N`.
    pub n: Dim,
    /// Fused epilogue (residuals unsupported for dense).
    pub epilogue: EpilogueSpec,
    /// Input source.
    pub io_in: IoMode,
    /// Output sink.
    pub io_out: IoMode,
    /// Schedule.
    pub schedule: DenseSchedule,
}

/// Generates a dense kernel.
///
/// # Panics
/// Panics if the unroll factor does not divide a constant `N`.
pub fn dense(spec: &DenseSpec) -> Kernel {
    let n_len = IExpr::dim(&spec.n);
    let m_len = IExpr::dim(&spec.m);
    let mut k = Kernel::new(spec.name.clone(), Stmt::Block(vec![]));
    let in_buf = spec.io_in.source(&mut k, "in_v", &n_len);
    k.bufs.push(BufferDecl::global(
        "w",
        BufRole::Weights,
        m_len.clone().mul(n_len.clone()),
    ));
    spec.epilogue.push_bufs(&mut k.bufs, &m_len, &m_len);
    spec.io_out.sink(&mut k, "out_v", m_len.clone());
    k.int_params = symbols([&spec.m, &spec.n]);

    let j = IExpr::var("j");
    let dot = |kk: IExpr| {
        let w_idx = j.clone().mul(n_len.clone()).add(kk.clone());
        mac(
            "dot",
            IExpr::Const(0),
            VExpr::load(in_buf, kk).mul(VExpr::load("w", w_idx)),
        )
    };
    let reduction = match &spec.schedule {
        DenseSchedule::Base => {
            k.bufs
                .push(BufferDecl::global("dot", BufRole::Scratch, IExpr::Const(1)));
            Stmt::for_("kk", n_len.clone(), dot(IExpr::var("kk")))
        }
        DenseSchedule::Unrolled { factor } => {
            check_divides(&spec.n, *factor, "dense unroll factor");
            k.bufs.push(BufferDecl::private("dot", IExpr::Const(1)));
            let f = IExpr::Const(*factor as i64);
            let kk = IExpr::var("ko").mul(f.clone()).add(IExpr::var("ki"));
            Stmt::for_(
                "ko",
                n_len.clone().div(f.clone()),
                Stmt::unrolled("ki", f, dot(kk)),
            )
        }
    };
    let acc = VExpr::load("dot", IExpr::Const(0));
    let body = Stmt::for_(
        "j",
        m_len,
        Stmt::block(vec![
            Stmt::store("dot", IExpr::Const(0), VExpr::Const(0.0)),
            reduction,
            spec.io_out
                .emit("out_v", j.clone(), spec.epilogue.apply(acc, &j, &j)),
        ]),
    );
    attach_body(&mut k, body);
    k
}

/// Generates a softmax kernel (§5.1.3).
///
/// `optimized = false` reproduces Listing 5.7: the maximum and the exp-sum
/// are recomputed inside the output loop despite being loop-invariant.
/// `optimized = true` applies loop-invariant code motion (Listing 5.8).
pub fn softmax(name: &str, n: usize, io_in: IoMode, io_out: IoMode, optimized: bool) -> Kernel {
    let n_e = IExpr::Const(n as i64);
    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    let in_buf = io_in.source(&mut k, "in_v", &n_e);
    io_out.sink(&mut k, "out_v", n_e.clone());
    k.bufs.push(BufferDecl::local("t_exp", n_e.clone()));
    k.bufs.push(BufferDecl::private("t_max", IExpr::Const(1)));
    k.bufs.push(BufferDecl::private("t_sum", IExpr::Const(1)));

    let zero = IExpr::Const(0);
    let compute_max = Stmt::block(vec![
        Stmt::store("t_max", zero.clone(), VExpr::Const(-3.402823e38)),
        Stmt::for_(
            "kk",
            n_e.clone(),
            Stmt::store(
                "t_max",
                zero.clone(),
                VExpr::load("t_max", zero.clone()).max(VExpr::load(in_buf, IExpr::var("kk"))),
            ),
        ),
    ]);
    let compute_exp = Stmt::for_(
        "i1",
        n_e.clone(),
        Stmt::store(
            "t_exp",
            IExpr::var("i1"),
            VExpr::Exp(Box::new(
                VExpr::load(in_buf, IExpr::var("i1")).sub(VExpr::load("t_max", zero.clone())),
            )),
        ),
    );
    let compute_sum = Stmt::block(vec![
        Stmt::store("t_sum", zero.clone(), VExpr::Const(0.0)),
        Stmt::for_(
            "k1",
            n_e.clone(),
            mac(
                "t_sum",
                zero.clone(),
                VExpr::load("t_exp", IExpr::var("k1")),
            ),
        ),
    ]);
    let norm = |iv: &'static str| {
        let val = VExpr::load("t_exp", IExpr::var(iv)).div(VExpr::load("t_sum", zero.clone()));
        io_out.emit("out_v", IExpr::var(iv), val)
    };
    let body = if optimized {
        // Listing 5.8: invariants hoisted, each phase runs once; only the
        // normalization loops over the outputs.
        Stmt::block(vec![
            compute_max,
            compute_exp,
            compute_sum,
            Stmt::for_("i2", n_e, norm("i2")),
        ])
    } else {
        // Listing 5.7: the whole pipeline recomputed for every output.
        Stmt::for_(
            "i1o",
            n_e,
            Stmt::block(vec![compute_max, compute_exp, compute_sum, norm("i1o")]),
        )
    };
    attach_body(&mut k, body);
    k
}

/// Pooling flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

impl PoolKind {
    /// One output of a `window x window` pooling sweep over the unrolled
    /// loops `loops`: initialize the private `acc`, fold in the input
    /// element `tap` at every window offset, then `emit` the result.
    fn sweep(
        self,
        loops: [&'static str; 2],
        window: usize,
        tap: VExpr,
        emit: impl FnOnce(VExpr) -> Stmt,
    ) -> Stmt {
        let acc = VExpr::load("acc", IExpr::Const(0));
        let (init, update, result) = match self {
            PoolKind::Max => (VExpr::Const(f32::MIN), acc.clone().max(tap), acc),
            PoolKind::Avg => {
                let area = VExpr::Const((window * window) as f32);
                (VExpr::Const(0.0), acc.clone().add(tap), acc.div(area))
            }
        };
        window_sweep(loops, window, init, update, emit(result))
    }
}

/// One output of a window reduction into the private `acc`: `acc = init`,
/// then `acc = update` over the unrolled `window x window` loops `loops`,
/// then `emit`.
fn window_sweep(
    loops: [&'static str; 2],
    window: usize,
    init: VExpr,
    update: VExpr,
    emit: Stmt,
) -> Stmt {
    let f = IExpr::Const(window as i64);
    Stmt::block(vec![
        Stmt::store("acc", IExpr::Const(0), init),
        Stmt::unrolled(
            loops[0],
            f.clone(),
            Stmt::unrolled(loops[1], f, Stmt::store("acc", IExpr::Const(0), update)),
        ),
        emit,
    ])
}

#[allow(clippy::too_many_arguments)] // mirrors the operator's full hyper-parameter list
/// Generates a pooling kernel over `[c, h1, w1]` with an `window x window`
/// sweep. Channel-I/O pooling kernels have no global buffers and are the
/// thesis' canonical autorun kernels (§4.7, Table 4.1).
pub fn pool(
    name: &str,
    kind: PoolKind,
    c: usize,
    h1: usize,
    w1: usize,
    window: usize,
    stride: usize,
    io_in: IoMode,
    io_out: IoMode,
) -> Kernel {
    let h2 = (h1 - window) / stride + 1;
    let w2 = (w1 - window) / stride + 1;
    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    let in_buf = io_in.source(&mut k, "in_fm", &IExpr::Const((c * h1 * w1) as i64));
    io_out.sink(&mut k, "out_fm", IExpr::Const((c * h2 * w2) as i64));
    k.bufs.push(BufferDecl::private("acc", IExpr::Const(1)));

    let s = IExpr::Const(stride as i64);
    let in_idx = IExpr::var("ch")
        .mul(IExpr::Const((h1 * w1) as i64))
        .add(
            IExpr::var("yy")
                .mul(s.clone())
                .add(IExpr::var("ry"))
                .mul(IExpr::Const(w1 as i64)),
        )
        .add(IExpr::var("xx").mul(s).add(IExpr::var("rx")));
    let o = IExpr::var("ch")
        .mul(IExpr::Const((h2 * w2) as i64))
        .add(IExpr::var("yy").mul(IExpr::Const(w2 as i64)))
        .add(IExpr::var("xx"));
    let sweep = kind.sweep(["ry", "rx"], window, VExpr::load(in_buf, in_idx), |v| {
        io_out.emit("out_fm", o, v)
    });
    let body = Stmt::for_(
        "ch",
        IExpr::Const(c as i64),
        Stmt::for_(
            "yy",
            IExpr::Const(h2 as i64),
            Stmt::for_("xx", IExpr::Const(w2 as i64), sweep),
        ),
    );
    attach_body(&mut k, body);
    k
}

/// TVM's padding select for flat output element `i` of `[C, H+2P, W+2P]`
/// padded from `[C, H, W]`: the input element `src(idx)` inside the
/// border, zero outside. The position comes from `/` and `%` index
/// reconstruction and a guarded select — "the generated padding kernel
/// uses modulo addressing and a conditional ... which does not generate
/// efficient hardware" (§6.3.2). `IExpr` folds constant `h`, `w`, `p`.
fn pad_select(i: IExpr, h: IExpr, w: IExpr, p: IExpr, src: impl FnOnce(IExpr) -> VExpr) -> VExpr {
    let two_p = IExpr::Const(2).mul(p.clone());
    let w2 = w.clone().add(two_p.clone());
    let plane = h.clone().add(two_p).mul(w2.clone());
    let ch = i.clone().div(plane.clone());
    let rem = i.rem(plane);
    let y = rem.clone().div(w2.clone());
    let x = rem.rem(w2);
    let in_bounds = BExpr::Ge(y.clone(), p.clone())
        .and(BExpr::Lt(y.clone(), h.clone().add(p.clone())))
        .and(BExpr::Ge(x.clone(), p.clone()))
        .and(BExpr::Lt(x.clone(), w.clone().add(p.clone())));
    let src_idx = ch
        .mul(h.mul(w.clone()))
        .add(y.sub(p.clone()).mul(w))
        .add(x.sub(p));
    VExpr::Select(
        Box::new(in_bounds),
        Box::new(src(src_idx)),
        Box::new(VExpr::Const(0.0)),
    )
}

/// Generates TVM's zero-padding kernel: a flat output loop over
/// [`pad_select`]'s guarded copy (§6.3.2).
pub fn pad(
    name: &str,
    c: usize,
    h: usize,
    w: usize,
    p: usize,
    io_in: IoMode,
    io_out: IoMode,
) -> Kernel {
    let out_len = IExpr::Const((c * (h + 2 * p) * (w + 2 * p)) as i64);
    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    let in_buf = io_in.source(&mut k, "in_fm", &IExpr::Const((c * h * w) as i64));
    io_out.sink(&mut k, "out_fm", out_len.clone());
    let [h, w, p] = [h, w, p].map(|v| IExpr::Const(v as i64));
    let val = pad_select(IExpr::var("i"), h, w, p, |idx| VExpr::load(in_buf, idx));
    let body = Stmt::for_("i", out_len, io_out.emit("out_fm", IExpr::var("i"), val));
    attach_body(&mut k, body);
    k
}

/// Generates the *parameterized* zero-padding kernel used in folded mode
/// (§4.9): channels `pc`, input `ph x pw`, padding `pp` are symbolic integer
/// arguments so one kernel serves every padded layer of the network. The
/// symbolic `/`/`%` index reconstruction makes every access non-aligned and
/// modulo-addressed — the worst-case hardware the thesis measures at
/// 8–22% of folded runtime (Tables 6.8/6.16).
pub fn pad_param(name: &str) -> Kernel {
    let [pc, ph, pw, pp] = ["pc", "ph", "pw", "pp"].map(IExpr::var);
    let padded = |d: &IExpr| d.clone().add(IExpr::Const(2).mul(pp.clone()));
    let in_len = pc.clone().mul(ph.clone()).mul(pw.clone());
    let out_len = pc.mul(padded(&ph)).mul(padded(&pw));

    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    k.bufs
        .push(BufferDecl::global("in_fm", BufRole::Input, in_len));
    k.bufs.push(BufferDecl::global(
        "out_fm",
        BufRole::Output,
        out_len.clone(),
    ));
    k.int_params = vec!["pc".into(), "ph".into(), "pw".into(), "pp".into()];
    let val = pad_select(IExpr::var("i"), ph, pw, pp, |idx| VExpr::load("in_fm", idx));
    k.body = Stmt::for_("i", out_len, Stmt::store("out_fm", IExpr::var("i"), val));
    k
}

/// Generates a flatten/copy kernel (LeNet's `flatten` stage): in channel
/// mode it is a pure passthrough, autorun-eligible.
pub fn copy(name: &str, n: usize, io_in: IoMode, io_out: IoMode) -> Kernel {
    let len = IExpr::Const(n as i64);
    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    let val: VExpr = match &io_in {
        IoMode::Global => {
            k.bufs
                .push(BufferDecl::global("in_v", BufRole::Input, len.clone()));
            VExpr::load("in_v", IExpr::var("i"))
        }
        IoMode::Channel { name: cn, .. } => {
            k.chan_in.push(io_in.decl().unwrap());
            VExpr::ReadChannel(cn.clone())
        }
    };
    io_out.sink(&mut k, "out_v", len.clone());
    k.body = Stmt::for_("i", len, io_out.emit("out_v", IExpr::var("i"), val));
    k
}

fn const_dim(d: &Dim, what: &str) -> usize {
    match d {
        Dim::Const(v) => *v,
        Dim::Sym(s) => panic!("streaming kernels need constant dims, {what} is symbolic `{s}`"),
    }
}

/// Declares a streaming kernel's input channel, which it reads without
/// staging, and returns the channel's name.
///
/// # Panics
/// Panics if `io_in` is not a channel.
fn stream_in(k: &mut Kernel, io_in: &IoMode, what: &str) -> String {
    match io_in {
        IoMode::Channel { name, .. } => {
            k.chan_in.extend(io_in.decl());
            name.clone()
        }
        IoMode::Global => panic!("{what} requires channel input"),
    }
}

/// The row ring of a streaming window kernel: the last `f` rows of the
/// current input channel (`f x w1` elements of local memory), refilled
/// `s` rows per output row. Activations stream `C`-major row-major, and a
/// per-channel window op never needs more reuse than that — which is what
/// lets large-fmap stages fit in BRAM and pipeline.
struct RowRing {
    chan: String,
    /// Channel-word width of the input.
    v_in: usize,
    /// Channels, input rows and columns, output rows and columns.
    c: usize,
    h1: usize,
    w1: usize,
    h2: usize,
    w2: usize,
    /// Window size and stride.
    f: usize,
    s: usize,
}

impl RowRing {
    /// Declares the input channel and the local `ring` on `k` for a
    /// `[c, h1, w1] -> [c, h2, w2]` window op of size `f`, stride `s`, with
    /// `dims = [c, h1, w1, h2, w2]`.
    ///
    /// # Panics
    /// Panics if `io_in` is not a channel or `s > f` (the ring would
    /// overwrite live rows).
    fn new(
        k: &mut Kernel,
        io_in: &IoMode,
        what: &str,
        dims: [usize; 5],
        f: usize,
        s: usize,
    ) -> RowRing {
        assert!(
            s <= f,
            "{what}: stride {s} > window {f}: ring rows would be overwritten live"
        );
        let chan = stream_in(k, io_in, what);
        let [c, h1, w1, h2, w2] = dims;
        k.bufs
            .push(BufferDecl::local("ring", IExpr::Const((f * w1) as i64)));
        RowRing {
            chan,
            v_in: io_in.width(),
            c,
            h1,
            w1,
            h2,
            w2,
            f,
            s,
        }
    }

    /// The per-channel loop nest. Each channel pops exactly `h1 x w1`
    /// elements: `f - s` prologue rows, `s` fresh rows per output row, and
    /// a drain of any rows below the last window (strided ops whose input
    /// is larger than `s*(h2-1)+f`). `window(ox, tap)` builds output
    /// column `ox` of row `oy`, where `tap` is the ring element under
    /// window offset `(kh, kw)`; output columns unroll by `v_out`.
    fn loops(&self, v_out: usize, window: impl Fn(IExpr, VExpr) -> Stmt) -> Stmt {
        let (f, s) = (self.f, self.s);
        let (fc, sc) = (IExpr::Const(f as i64), IExpr::Const(s as i64));
        let w1c = IExpr::Const(self.w1 as i64);
        // Pops `rows` input rows into ring row `row` (which may use `var`).
        let pop = |var: &'static str, rows: usize, cols: &str, row: IExpr| {
            let read = |x: IExpr| {
                let slot = row.clone().mul(w1c.clone()).add(x);
                Stmt::store("ring", slot, VExpr::ReadChannel(self.chan.clone()))
            };
            Stmt::for_(
                var,
                IExpr::Const(rows as i64),
                vec_loop(cols, self.w1, self.v_in, read),
            )
        };
        // Prologue: the first F-S input rows land at ring rows 0..F-S directly.
        let prologue = pop("pr", f - s, "px", IExpr::var("pr"));
        // Per output row: pop S fresh rows into ring slot (F-S + oy*S + sr) mod F.
        let fresh_row = IExpr::var("oy")
            .mul(sc.clone())
            .add(IExpr::Const((f - s) as i64))
            .add(IExpr::var("sr"))
            .rem(fc.clone());
        let fill = pop("sr", s, "sx", fresh_row);
        // The F x F window over ring rows (oy*S + kh) mod F, columns ox*S + kw.
        let compute = vec_loop("ox", self.w2, v_out, |ox| {
            let ring_idx = IExpr::var("oy")
                .mul(sc.clone())
                .add(IExpr::var("kh"))
                .rem(fc.clone())
                .mul(w1c.clone())
                .add(ox.clone().mul(sc.clone()).add(IExpr::var("kw")));
            window(ox, VExpr::load("ring", ring_idx))
        });
        let rows = Stmt::for_(
            "oy",
            IExpr::Const(self.h2 as i64),
            Stmt::block(vec![fill, compute]),
        );
        // Drain rows the last window never covers, so the next channel's data
        // starts aligned (channel pops must total exactly H1*W1 per channel).
        let drain = pop(
            "dr",
            self.h1 - ((f - s) + self.h2 * s),
            "dx",
            IExpr::Const(0),
        );
        Stmt::for_(
            "ch",
            IExpr::Const(self.c as i64),
            Stmt::block(vec![prologue, rows, drain]),
        )
    }
}

/// Streaming depthwise convolution (the dataflow-pipeline variant of §4.6):
/// instead of staging the whole input feature map into local memory, the
/// kernel keeps a [`RowRing`] of the last `F` input rows (`F x W_1`
/// elements). Depthwise convolution touches each input channel
/// independently, so `F` rows are all the reuse window a stage ever needs.
///
/// # Panics
/// Panics if the spec is not depthwise, the input is not a channel, any
/// dim is symbolic, or `S > F` (the ring would overwrite live rows).
pub fn conv2d_dw_stream(spec: &ConvSpec) -> Kernel {
    assert!(spec.depthwise, "conv2d_dw_stream requires a depthwise spec");
    let d = &spec.dims;
    let c = const_dim(&d.c2, "c2");
    assert_eq!(c, const_dim(&d.c1, "c1"), "depthwise c2 == c1");
    let (h2, w2) = (const_dim(&d.h2, "h2"), const_dim(&d.w2, "w2"));
    let (h1, w1) = (const_dim(&d.h1, "h1"), const_dim(&d.w1, "w1"));

    let mut k = Kernel::new(spec.name.clone(), Stmt::Block(vec![]));
    let ring = RowRing::new(
        &mut k,
        &spec.io_in,
        "conv2d_dw_stream",
        [c, h1, w1, h2, w2],
        d.f,
        d.s,
    );
    k.bufs.push(BufferDecl::global(
        "w",
        BufRole::Weights,
        d.weight_len(true),
    ));
    spec.epilogue
        .push_bufs(&mut k.bufs, &IExpr::dim(&d.c2), &d.out_len());
    spec.io_out.sink(&mut k, "out_fm", d.out_len());
    k.bufs.push(BufferDecl::private("acc", IExpr::Const(1)));

    let fc = IExpr::Const(d.f as i64);
    k.body = ring.loops(spec.io_out.width(), |ox, tap| {
        let w_idx = IExpr::var("ch")
            .mul(IExpr::Const((d.f * d.f) as i64))
            .add(IExpr::var("kh").mul(fc.clone()).add(IExpr::var("kw")));
        let acc = VExpr::load("acc", IExpr::Const(0));
        let emit = conv_emit(spec, acc.clone(), IExpr::var("ch"), IExpr::var("oy"), ox);
        let update = acc.add(tap.mul(VExpr::load("w", w_idx)));
        window_sweep(["kh", "kw"], d.f, VExpr::Const(0.0), update, emit)
    });
    k
}

/// Streaming pooling: the [`RowRing`] analogue of [`conv2d_dw_stream`] for
/// max/avg pooling. Channel-in is required; with channel-out the kernel has
/// no global buffers and is autorun-eligible.
///
/// # Panics
/// Panics if the input is not a channel or `stride > window`.
#[allow(clippy::too_many_arguments)]
pub fn pool_stream(
    name: &str,
    kind: PoolKind,
    c: usize,
    h1: usize,
    w1: usize,
    window: usize,
    stride: usize,
    io_in: IoMode,
    io_out: IoMode,
) -> Kernel {
    let h2 = (h1 - window) / stride + 1;
    let w2 = (w1 - window) / stride + 1;
    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    let ring = RowRing::new(
        &mut k,
        &io_in,
        "pool_stream",
        [c, h1, w1, h2, w2],
        window,
        stride,
    );
    io_out.sink(&mut k, "out_fm", IExpr::Const((c * h2 * w2) as i64));
    k.bufs.push(BufferDecl::private("acc", IExpr::Const(1)));
    k.body = ring.loops(io_out.width(), |ox, tap| {
        let o_idx = IExpr::var("ch")
            .mul(IExpr::Const((h2 * w2) as i64))
            .add(IExpr::var("oy").mul(IExpr::Const(w2 as i64)))
            .add(ox);
        kind.sweep(["kh", "kw"], window, tap, |v| {
            io_out.emit("out_fm", o_idx, v)
        })
    });
    k
}

/// Streaming zero-padding: needs no buffering at all. The output scan order
/// (c-major, row-major) visits in-bounds positions in exactly the input
/// stream order, so a guarded select pops the channel precisely when the
/// position is interior — `C*H*W` pops for `C*(H+2P)*(W+2P)` emits. With
/// channel-out the kernel has no global buffers and is autorun-eligible.
///
/// # Panics
/// Panics if the input is not a channel.
pub fn pad_stream(
    name: &str,
    c: usize,
    h: usize,
    w: usize,
    p: usize,
    io_in: IoMode,
    io_out: IoMode,
) -> Kernel {
    let out_len = c * (h + 2 * p) * (w + 2 * p);
    let mut k = Kernel::new(name, Stmt::Block(vec![]));
    let chan = stream_in(&mut k, &io_in, "pad_stream");
    io_out.sink(&mut k, "out_fm", IExpr::Const(out_len as i64));

    let v = io_out.width().max(io_in.width());
    let [h, w, p] = [h, w, p].map(|v| IExpr::Const(v as i64));
    k.body = vec_loop("i", out_len, v, |i| {
        // Select is lazy: the channel pop only happens on interior positions.
        let val = pad_select(i.clone(), h.clone(), w.clone(), p.clone(), |_| {
            VExpr::ReadChannel(chan.clone())
        });
        io_out.emit("out_fm", i, val)
    });
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, AccumKind};
    use crate::dim::Binding;
    use crate::interp::Interp;
    use fpgaccel_tensor::ops::{self, Conv2dParams};
    use fpgaccel_tensor::{Shape, Tensor};
    use std::collections::{HashMap, VecDeque};

    fn run_conv(spec: &ConvSpec, input: &Tensor, weights: &Tensor) -> Vec<f32> {
        let k = conv2d(spec);
        let mut inputs = HashMap::new();
        inputs.insert("in_fm".to_string(), input.data().to_vec());
        inputs.insert("w".to_string(), weights.data().to_vec());
        let out = Interp::new().run(&k, &Binding::empty(), &inputs);
        out["out_fm"].clone()
    }

    #[test]
    fn base_and_fused_conv_match_reference() {
        let dims = ConvDims::constant(4, 3, 5, 5, 3, 1);
        let input = Tensor::random(Shape::chw(3, 7, 7), 1, 1.0);
        let weights = Tensor::random(Shape::kcff(4, 3, 3), 2, 0.5);
        let expect = ops::conv2d(&input, &weights, &Conv2dParams::plain(1, 0));

        for schedule in [
            ConvSchedule::Base,
            ConvSchedule::Fused { unroll_ff: true },
            ConvSchedule::Tiled {
                w2vec: 5,
                c2vec: 2,
                c1vec: 3,
            },
        ] {
            let mut spec = ConvSpec::base("conv_t", dims.clone(), false);
            spec.schedule = schedule.clone();
            let got = run_conv(&spec, &input, &weights);
            for (g, e) in got.iter().zip(expect.data()) {
                assert!((g - e).abs() < 1e-4, "{schedule:?} mismatch: {g} vs {e}");
            }
        }
    }

    #[test]
    fn strided_conv_matches_reference() {
        let dims = ConvDims::constant(2, 3, 3, 3, 3, 2);
        let input = Tensor::random(Shape::chw(3, 7, 7), 3, 1.0);
        let weights = Tensor::random(Shape::kcff(2, 3, 3), 4, 0.5);
        let expect = ops::conv2d(&input, &weights, &Conv2dParams::plain(2, 0));
        let mut spec = ConvSpec::base("conv_s2", dims, false);
        spec.schedule = ConvSchedule::Fused { unroll_ff: true };
        let got = run_conv(&spec, &input, &weights);
        for (g, e) in got.iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn depthwise_conv_matches_reference() {
        let dims = ConvDims::constant(3, 3, 4, 4, 3, 1);
        let input = Tensor::random(Shape::chw(3, 6, 6), 5, 1.0);
        let weights = Tensor::random(Shape::new(&[3, 1, 3, 3]), 6, 0.5);
        let expect = ops::depthwise_conv2d(&input, &weights, &Conv2dParams::plain(1, 0));
        for schedule in [
            ConvSchedule::Base,
            ConvSchedule::Tiled {
                w2vec: 4,
                c2vec: 1,
                c1vec: 1,
            },
        ] {
            let mut spec = ConvSpec::base("dw", dims.clone(), true);
            spec.schedule = schedule;
            let got = run_conv(&spec, &input, &weights);
            for (g, e) in got.iter().zip(expect.data()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn epilogue_bias_bn_relu_applies() {
        let dims = ConvDims::constant(2, 1, 2, 2, 1, 1);
        let mut spec = ConvSpec::base("epi", dims, false);
        spec.schedule = ConvSchedule::Fused { unroll_ff: true };
        spec.epilogue = EpilogueSpec {
            bias: true,
            bn: true,
            residual: false,
            activation: Activation::Relu,
        };
        let k = conv2d(&spec);
        let mut inputs = HashMap::new();
        inputs.insert("in_fm".to_string(), vec![1.0; 4]);
        inputs.insert("w".to_string(), vec![2.0, -2.0]);
        inputs.insert("bias".to_string(), vec![0.5, 0.0]);
        inputs.insert("bn_scale".to_string(), vec![2.0, 1.0]);
        inputs.insert("bn_shift".to_string(), vec![0.0, -1.0]);
        let out = Interp::new().run(&k, &Binding::empty(), &inputs);
        // ch0: relu((1*2 + 0.5)*2 + 0) = 5; ch1: relu(-2*1 - 1) = 0.
        assert_eq!(out["out_fm"], vec![5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn base_schedule_has_global_accumulation_fused_has_private() {
        let dims = ConvDims::constant(4, 3, 5, 5, 3, 1);
        let base = conv2d(&ConvSpec::base("b", dims.clone(), false));
        assert_eq!(analyze(&base).accum, AccumKind::Global);
        let mut spec = ConvSpec::base("f", dims, false);
        spec.schedule = ConvSchedule::Fused { unroll_ff: true };
        assert_eq!(analyze(&conv2d(&spec)).accum, AccumKind::Private);
    }

    #[test]
    fn parameterized_conv_executes_multiple_layer_shapes() {
        // One symbolic kernel reused for two different layer shapes (§4.9).
        let dims = ConvDims {
            c2: Dim::sym("ff"),
            c1: Dim::sym("rc"),
            h2: Dim::sym("hh"),
            w2: Dim::sym("ww"),
            h1: Dim::sym("ih"),
            w1: Dim::sym("iw"),
            f: 1,
            s: 1,
        };
        let mut spec = ConvSpec::base("conv1x1_param", dims, false);
        spec.schedule = ConvSchedule::Tiled {
            w2vec: 2,
            c2vec: 2,
            c1vec: 2,
        };
        let k = conv2d(&spec);
        assert!(k.int_params.contains(&"ff".into()));

        for (ff, rc, hw) in [(4usize, 2usize, 4usize), (2, 4, 6)] {
            let input = Tensor::random(Shape::chw(rc, hw, hw), 7, 1.0);
            let weights = Tensor::random(Shape::kcff(ff, rc, 1), 8, 0.5);
            let expect = ops::conv2d(&input, &weights, &Conv2dParams::plain(1, 0));
            let binding = Binding::of(&[
                ("ff", ff),
                ("rc", rc),
                ("hh", hw),
                ("ww", hw),
                ("ih", hw),
                ("iw", hw),
            ]);
            let mut inputs = HashMap::new();
            inputs.insert("in_fm".to_string(), input.data().to_vec());
            inputs.insert("w".to_string(), weights.data().to_vec());
            let out = Interp::new().run(&k, &binding, &inputs);
            for (g, e) in out["out_fm"].iter().zip(expect.data()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn dense_schedules_match_reference() {
        let (m, n) = (6usize, 8usize);
        let x = Tensor::random(Shape::d1(n), 11, 1.0);
        let w = Tensor::random(Shape::d2(m, n), 12, 0.5);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1).collect();
        let expect = ops::dense(&x, &w, Some(&bias), Activation::Relu);

        for schedule in [DenseSchedule::Base, DenseSchedule::Unrolled { factor: 4 }] {
            let spec = DenseSpec {
                name: "fc".into(),
                m: Dim::Const(m),
                n: Dim::Const(n),
                epilogue: EpilogueSpec::bias_act(Activation::Relu),
                io_in: IoMode::Global,
                io_out: IoMode::Global,
                schedule,
            };
            let k = dense(&spec);
            let mut inputs = HashMap::new();
            inputs.insert("in_v".to_string(), x.data().to_vec());
            inputs.insert("w".to_string(), w.data().to_vec());
            inputs.insert("bias".to_string(), bias.clone());
            let out = Interp::new().run(&k, &Binding::empty(), &inputs);
            for (g, e) in out["out_v"].iter().zip(expect.data()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn softmax_schedules_match_reference() {
        let n = 10;
        let x = Tensor::random(Shape::d1(n), 13, 3.0);
        let expect = ops::softmax(&x);
        for optimized in [false, true] {
            let k = softmax("sm", n, IoMode::Global, IoMode::Global, optimized);
            let mut inputs = HashMap::new();
            inputs.insert("in_v".to_string(), x.data().to_vec());
            let out = Interp::new().run(&k, &Binding::empty(), &inputs);
            for (g, e) in out["out_v"].iter().zip(expect.data()) {
                assert!((g - e).abs() < 1e-5, "optimized={optimized}");
            }
        }
    }

    #[test]
    fn pool_kernels_match_reference() {
        let input = Tensor::random(Shape::chw(2, 6, 6), 14, 1.0);
        let kmax = pool(
            "mp",
            PoolKind::Max,
            2,
            6,
            6,
            2,
            2,
            IoMode::Global,
            IoMode::Global,
        );
        let mut inputs = HashMap::new();
        inputs.insert("in_fm".to_string(), input.data().to_vec());
        let out = Interp::new().run(&kmax, &Binding::empty(), &inputs);
        let expect = ops::maxpool2d(&input, 2, 2, 0);
        assert_eq!(out["out_fm"], expect.data());

        let kavg = pool(
            "ap",
            PoolKind::Avg,
            2,
            6,
            6,
            3,
            3,
            IoMode::Global,
            IoMode::Global,
        );
        let out = Interp::new().run(&kavg, &Binding::empty(), &inputs);
        let expect = ops::avgpool2d(&input, 3, 3, 0);
        for (g, e) in out["out_fm"].iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    #[test]
    fn pad_param_matches_reference_for_multiple_shapes() {
        let k = pad_param("pad_any");
        for (c, h, w, p) in [(2usize, 4usize, 5usize, 1usize), (3, 6, 6, 3)] {
            let input = Tensor::random(Shape::chw(c, h, w), 42, 1.0);
            let binding = Binding::of(&[("pc", c), ("ph", h), ("pw", w), ("pp", p)]);
            let mut inputs = HashMap::new();
            inputs.insert("in_fm".to_string(), input.data().to_vec());
            let out = Interp::new().run(&k, &binding, &inputs);
            let expect = ops::pad2d(&input, p);
            assert_eq!(out["out_fm"], expect.data());
        }
        let facts = analyze(&k);
        let in_access = facts.accesses.iter().find(|a| a.buf == "in_fm").unwrap();
        assert!(in_access.modulo_addressing);
        assert!(in_access.symbolic_stride);
    }

    #[test]
    fn pad_kernel_matches_reference_and_uses_modulo() {
        let input = Tensor::random(Shape::chw(2, 4, 5), 15, 1.0);
        let k = pad("pd", 2, 4, 5, 1, IoMode::Global, IoMode::Global);
        let mut inputs = HashMap::new();
        inputs.insert("in_fm".to_string(), input.data().to_vec());
        let out = Interp::new().run(&k, &Binding::empty(), &inputs);
        let expect = ops::pad2d(&input, 1);
        assert_eq!(out["out_fm"], expect.data());
        let facts = analyze(&k);
        assert!(facts.accesses.iter().any(|a| a.modulo_addressing),);
    }

    #[test]
    fn channel_pipeline_of_pool_is_autorun_eligible() {
        let mut k = pool(
            "mp_c",
            PoolKind::Max,
            2,
            4,
            4,
            2,
            2,
            IoMode::channel("c_in", 64),
            IoMode::channel("c_out", 64),
        );
        assert!(k.autorun_eligible());
        k.mark_autorun();

        // Functional check through channels.
        let input = Tensor::random(Shape::chw(2, 4, 4), 16, 1.0);
        let mut interp = Interp::new();
        interp
            .channels
            .entry("c_in".to_string())
            .or_default()
            .extend(input.data().iter().copied());
        interp.run(&k, &Binding::empty(), &HashMap::new());
        let got: Vec<f32> = interp.channels["c_out"].iter().copied().collect();
        let expect = ops::maxpool2d(&input, 2, 2, 0);
        assert_eq!(got, expect.data());
    }

    #[test]
    fn copy_channel_to_global_drains() {
        let k = copy("flat", 5, IoMode::channel("cc", 8), IoMode::Global);
        let mut interp = Interp::new();
        interp
            .channels
            .entry("cc".to_string())
            .or_default()
            .extend([1.0, 2.0, 3.0, 4.0, 5.0]);
        let out = interp.run(&k, &Binding::empty(), &HashMap::new());
        assert_eq!(out["out_v"], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn tiled_conv_rejects_indivisible_factors() {
        let dims = ConvDims::constant(4, 3, 5, 5, 3, 1);
        let mut spec = ConvSpec::base("bad", dims, false);
        spec.schedule = ConvSchedule::Tiled {
            w2vec: 2,
            c2vec: 1,
            c1vec: 1,
        };
        conv2d(&spec);
    }

    #[test]
    fn explicit_strides_mark_symbolic_access() {
        let dims = ConvDims {
            c2: Dim::sym("ff"),
            c1: Dim::sym("rc"),
            h2: Dim::sym("hh"),
            w2: Dim::sym("ww"),
            h1: Dim::sym("ih"),
            w1: Dim::sym("iw"),
            f: 3,
            s: 1,
        };
        let mut spec = ConvSpec::base("sym_strides", dims, false);
        spec.schedule = ConvSchedule::Tiled {
            w2vec: 7,
            c2vec: 1,
            c1vec: 4,
        };
        spec.explicit_strides = true;
        let k = conv2d(&spec);
        let facts = analyze(&k);
        let in_access = facts
            .accesses
            .iter()
            .find(|a| a.buf == "in_fm" && !a.is_store)
            .unwrap();
        assert!(in_access.symbolic_stride);

        // With the Listing 5.11 workaround, rx still coalesces: width > 1.
        spec.explicit_strides = false;
        let k2 = conv2d(&spec);
        let facts2 = analyze(&k2);
        let in2 = facts2
            .accesses
            .iter()
            .find(|a| a.buf == "in_fm" && !a.is_store)
            .unwrap();
        assert!(in2.width_elems >= 3, "rx+xxi should coalesce");
    }

    #[test]
    fn streaming_dw_conv_matches_reference() {
        // Stride 1 (minimal input) and stride 2 with a non-minimal 8x8
        // input, which exercises the trailing-row drain.
        for (c, h2, f, s, h1) in [(3usize, 4usize, 3usize, 1usize, 6usize), (3, 3, 3, 2, 8)] {
            let input = Tensor::random(Shape::chw(c, h1, h1), 21, 1.0);
            let weights = Tensor::random(Shape::new(&[c, 1, f, f]), 22, 0.5);
            let expect = ops::depthwise_conv2d(&input, &weights, &Conv2dParams::plain(s, 0));
            let dims =
                ConvDims::constant(c, c, h2, h2, f, s).with_input(Dim::Const(h1), Dim::Const(h1));
            let mut spec = ConvSpec::base("dw_s", dims, true);
            spec.io_in = IoMode::channel("c_in", 64);
            let k = conv2d_dw_stream(&spec);
            let mut interp = Interp::new();
            interp
                .channels
                .insert("c_in".into(), input.data().iter().copied().collect());
            let mut inputs = HashMap::new();
            inputs.insert("w".to_string(), weights.data().to_vec());
            let out = interp.run(&k, &Binding::empty(), &inputs);
            assert!(
                interp.channels.values().all(VecDeque::is_empty),
                "stream must pop exactly H1*W1 per channel (s={s})"
            );
            for (g, e) in out["out_fm"].iter().zip(expect.data()) {
                assert!((g - e).abs() < 1e-4, "s={s}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn vectorized_channels_preserve_streaming_numerics() {
        // Same dw case as above but with floatN channels on both sides:
        // v_in divides W1=6, v_out divides W2=4. Numerics must be
        // identical to the scalar stream; only cycle accounting changes.
        let (c, h2, f, s, h1) = (3usize, 4usize, 3usize, 1usize, 6usize);
        let input = Tensor::random(Shape::chw(c, h1, h1), 21, 1.0);
        let weights = Tensor::random(Shape::new(&[c, 1, f, f]), 22, 0.5);
        let expect = ops::depthwise_conv2d(&input, &weights, &Conv2dParams::plain(s, 0));
        let dims =
            ConvDims::constant(c, c, h2, h2, f, s).with_input(Dim::Const(h1), Dim::Const(h1));
        let mut spec = ConvSpec::base("dw_v", dims, true);
        spec.io_in = IoMode::channel_wide("c_in", 64, 3);
        spec.io_out = IoMode::channel_wide("c_out", 64, 2);
        let k = conv2d_dw_stream(&spec);
        assert!(k.chan_in[0].width == 3 && k.chan_out[0].width == 2);
        let mut interp = Interp::new();
        interp
            .channels
            .insert("c_in".into(), input.data().iter().copied().collect());
        let mut inputs = HashMap::new();
        inputs.insert("w".to_string(), weights.data().to_vec());
        interp.run(&k, &Binding::empty(), &inputs);
        assert!(interp.channels["c_in"].is_empty());
        let got: Vec<f32> = interp.channels["c_out"].iter().copied().collect();
        for (g, e) in got.iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }

        // Vectorized pad: width must divide the padded row (W+2P).
        let input = Tensor::random(Shape::chw(2, 4, 4), 24, 1.0);
        let expect = ops::pad2d(&input, 1);
        let k = pad_stream(
            "pad_v",
            2,
            4,
            4,
            1,
            IoMode::channel("c_in", 16),
            IoMode::channel_wide("c_out", 16, 6),
        );
        let mut interp = Interp::new();
        interp
            .channels
            .insert("c_in".into(), input.data().iter().copied().collect());
        interp.run(&k, &Binding::empty(), &HashMap::new());
        assert!(interp.channels["c_in"].is_empty());
        let got: Vec<f32> = interp.channels["c_out"].iter().copied().collect();
        assert_eq!(got, expect.data());
    }

    #[test]
    fn streaming_pool_matches_reference_and_is_autorun_eligible() {
        let input = Tensor::random(Shape::chw(2, 6, 6), 23, 1.0);
        for (window, stride) in [(2usize, 2usize), (3, 3), (3, 2)] {
            let expect = ops::maxpool2d(&input, window, stride, 0);
            let k = pool_stream(
                "mp_s",
                PoolKind::Max,
                2,
                6,
                6,
                window,
                stride,
                IoMode::channel("c_in", 64),
                IoMode::channel("c_out", 64),
            );
            assert!(k.autorun_eligible(), "channel-to-channel pool_stream");
            let mut interp = Interp::new();
            interp
                .channels
                .insert("c_in".into(), input.data().iter().copied().collect());
            interp.run(&k, &Binding::empty(), &HashMap::new());
            assert!(interp.channels["c_in"].is_empty(), "input fully drained");
            let got: Vec<f32> = interp.channels["c_out"].iter().copied().collect();
            assert_eq!(got, expect.data(), "window {window} stride {stride}");
        }
        // Avg variant.
        let k = pool_stream(
            "ap_s",
            PoolKind::Avg,
            2,
            6,
            6,
            3,
            3,
            IoMode::channel("c_in", 64),
            IoMode::Global,
        );
        let mut interp = Interp::new();
        interp
            .channels
            .insert("c_in".into(), input.data().iter().copied().collect());
        let out = interp.run(&k, &Binding::empty(), &HashMap::new());
        let expect = ops::avgpool2d(&input, 3, 3, 0);
        for (g, e) in out["out_fm"].iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    #[test]
    fn streaming_pad_matches_reference_with_no_buffering() {
        let input = Tensor::random(Shape::chw(2, 4, 5), 24, 1.0);
        let k = pad_stream(
            "pd_s",
            2,
            4,
            5,
            1,
            IoMode::channel("c_in", 64),
            IoMode::channel("c_out", 64),
        );
        assert!(k.bufs.is_empty(), "pad_stream needs no buffers at all");
        assert!(k.autorun_eligible());
        let mut interp = Interp::new();
        interp
            .channels
            .insert("c_in".into(), input.data().iter().copied().collect());
        interp.run(&k, &Binding::empty(), &HashMap::new());
        assert!(interp.channels["c_in"].is_empty(), "exactly C*H*W pops");
        let got: Vec<f32> = interp.channels["c_out"].iter().copied().collect();
        assert_eq!(got, ops::pad2d(&input, 1).data());
    }
}
