//! Reference interpreter for kernels.
//!
//! The host runtime executes kernels through fast native closures; this
//! interpreter is the ground truth proving those closures compute exactly
//! what the generated IR says (see the cross-validation tests in
//! `crates/core` and the property tests in `tests/`). It is also the
//! functional model for channelized multi-kernel programs: channels are
//! unbounded FIFOs shared across [`Interp::run`] calls, with producers run
//! before consumers (sequential dataflow order).

use crate::dim::{Binding, Name};
#[cfg(test)]
use crate::expr::IExpr;
use crate::expr::{BExpr, VBinOp, VExpr};
use crate::kernel::{BufRole, Kernel, Scope};
use crate::stmt::Stmt;
use std::collections::{HashMap, VecDeque};

/// Interpreter state: channel contents persisting across kernel runs.
#[derive(Default, Debug)]
pub struct Interp {
    /// FIFO contents per channel. Depth attributes are a performance
    /// property (§4.6) and are ignored functionally.
    pub channels: HashMap<String, VecDeque<f32>>,
}

impl Interp {
    /// Fresh interpreter with empty channels.
    pub fn new() -> Self {
        Interp::default()
    }

    /// Runs one kernel.
    ///
    /// `inputs` supplies the contents of every global non-output buffer by
    /// name; output and scratch buffers are zero-initialized. Returns the
    /// final contents of every global buffer.
    ///
    /// # Panics
    /// Panics on missing inputs, wrong input lengths, out-of-bounds accesses
    /// or reads from empty channels (which would deadlock real hardware).
    pub fn run(
        &mut self,
        kernel: &Kernel,
        binding: &Binding,
        inputs: &HashMap<String, Vec<f32>>,
    ) -> HashMap<String, Vec<f32>> {
        let mut store: HashMap<Name, Vec<f32>> = HashMap::new();
        for buf in &kernel.bufs {
            let len = buf.resolved_len(binding);
            let init = if buf.scope == Scope::Global
                && buf.role != BufRole::Output
                && buf.role != BufRole::Scratch
            {
                let data = inputs
                    .get(buf.name.as_ref())
                    .unwrap_or_else(|| panic!("missing input buffer `{}`", buf.name));
                assert_eq!(
                    data.len(),
                    len,
                    "input `{}` has {} elements, kernel expects {len}",
                    buf.name,
                    data.len()
                );
                data.clone()
            } else {
                vec![0.0; len]
            };
            store.insert(buf.name.clone(), init);
        }

        let mut env = binding.clone();
        self.exec(&kernel.body, &mut env, &mut store);

        kernel
            .bufs
            .iter()
            .filter(|b| b.scope == Scope::Global)
            .map(|b| (b.name.to_string(), store.remove(&b.name).unwrap()))
            .collect()
    }

    fn exec(&mut self, stmt: &Stmt, env: &mut Binding, store: &mut HashMap<Name, Vec<f32>>) {
        match stmt {
            Stmt::For {
                var, extent, body, ..
            } => {
                let n = extent.eval(env);
                assert!(n >= 0, "negative loop extent {n} for `{var}`");
                let shadow = env.try_get(var);
                for i in 0..n as usize {
                    env.set(var.clone(), i);
                    self.exec(body, env, store);
                }
                // Restore any shadowed binding (loop vars never leak).
                if let Some(old) = shadow {
                    env.set(var.clone(), old);
                }
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec(s, env, store);
                }
            }
            Stmt::Store { buf, idx, val } => {
                let v = self.eval_v(val, env, store);
                let i = idx.eval(env);
                let data = store
                    .get_mut(buf)
                    .unwrap_or_else(|| panic!("store to undeclared buffer `{buf}`"));
                assert!(
                    (0..data.len() as i64).contains(&i),
                    "store index {i} out of bounds for `{buf}` (len {})",
                    data.len()
                );
                data[i as usize] = v;
            }
            Stmt::If { cond, body } => {
                if cond.eval(env) {
                    self.exec(body, env, store);
                }
            }
            Stmt::WriteChannel { chan, val } => {
                let v = self.eval_v(val, env, store);
                self.channels.entry(chan.clone()).or_default().push_back(v);
            }
        }
    }

    fn eval_v(&mut self, v: &VExpr, env: &Binding, store: &HashMap<Name, Vec<f32>>) -> f32 {
        match v {
            VExpr::Const(c) => *c,
            VExpr::Load { buf, idx } => {
                let i = idx.eval(env);
                let data = store
                    .get(buf)
                    .unwrap_or_else(|| panic!("load from undeclared buffer `{buf}`"));
                assert!(
                    (0..data.len() as i64).contains(&i),
                    "load index {i} out of bounds for `{buf}` (len {})",
                    data.len()
                );
                data[i as usize]
            }
            VExpr::Bin(op, a, b) => {
                let (x, y) = (self.eval_v(a, env, store), self.eval_v(b, env, store));
                match op {
                    VBinOp::Add => x + y,
                    VBinOp::Sub => x - y,
                    VBinOp::Mul => x * y,
                    VBinOp::Div => x / y,
                    VBinOp::Max => x.max(y),
                    VBinOp::Min => x.min(y),
                }
            }
            VExpr::Exp(a) => self.eval_v(a, env, store).exp(),
            VExpr::Select(cond, a, b) => {
                if self.eval_bexpr(cond, env) {
                    self.eval_v(a, env, store)
                } else {
                    self.eval_v(b, env, store)
                }
            }
            VExpr::ReadChannel(chan) => self
                .channels
                .get_mut(chan)
                .and_then(VecDeque::pop_front)
                .unwrap_or_else(|| panic!("read from empty channel `{chan}` (hardware deadlock)")),
            VExpr::FromInt(i) => i.eval(env) as f32,
            VExpr::Quant(a, mode) => {
                let x = self.eval_v(a, env, store);
                match mode {
                    // Fake quantization: round onto the grid, saturate,
                    // dequantize — the functional model of the integer
                    // datapath the code generator emits.
                    crate::expr::QuantMode::Fixed { scale, qmax } => {
                        fpgaccel_tensor::quant::fake_quant(x, *scale, *qmax)
                    }
                    crate::expr::QuantMode::Half => fpgaccel_tensor::quant::f16_round(x),
                }
            }
        }
    }

    fn eval_bexpr(&self, b: &BExpr, env: &Binding) -> bool {
        b.eval(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BufferDecl;

    /// Builds the Listing 4.1 vector-add kernel.
    fn vecadd_kernel(n: usize) -> Kernel {
        let body = Stmt::for_(
            "i",
            IExpr::Const(n as i64),
            Stmt::store(
                "c",
                IExpr::var("i"),
                VExpr::load("a", IExpr::var("i")).add(VExpr::load("b", IExpr::var("i"))),
            ),
        );
        let mut k = Kernel::new("vecadd", body);
        k.bufs = vec![
            BufferDecl::global("a", BufRole::Input, IExpr::Const(n as i64)),
            BufferDecl::global("b", BufRole::Weights, IExpr::Const(n as i64)),
            BufferDecl::global("c", BufRole::Output, IExpr::Const(n as i64)),
        ];
        k
    }

    #[test]
    fn vecadd_executes() {
        let k = vecadd_kernel(4);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), vec![1.0, 2.0, 3.0, 4.0]);
        inputs.insert("b".to_string(), vec![10.0, 20.0, 30.0, 40.0]);
        let out = Interp::new().run(&k, &Binding::empty(), &inputs);
        assert_eq!(out["c"], vec![11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn channels_connect_kernels_like_listing_4_13() {
        // A: write_channel(c0, a[i] + 1); B: c1 <- read(c0) * 0.35;
        // C: d[i] = read(c1) / -1.1
        let n = 8i64;
        let mut a = Kernel::new(
            "A",
            Stmt::for_(
                "i",
                IExpr::Const(n),
                Stmt::WriteChannel {
                    chan: "c0".into(),
                    val: VExpr::load("a", IExpr::var("i")).add(VExpr::Const(1.0)),
                },
            ),
        );
        a.bufs = vec![BufferDecl::global("a", BufRole::Input, IExpr::Const(n))];

        let b = Kernel::new(
            "B",
            Stmt::for_(
                "i",
                IExpr::Const(n),
                Stmt::WriteChannel {
                    chan: "c1".into(),
                    val: VExpr::ReadChannel("c0".into()).mul(VExpr::Const(0.35)),
                },
            ),
        );
        assert!(b.autorun_eligible());

        let mut c = Kernel::new(
            "C",
            Stmt::for_(
                "i",
                IExpr::Const(n),
                Stmt::store(
                    "d",
                    IExpr::var("i"),
                    VExpr::ReadChannel("c1".into()).div(VExpr::Const(-1.1)),
                ),
            ),
        );
        c.bufs = vec![BufferDecl::global("d", BufRole::Output, IExpr::Const(n))];

        let mut interp = Interp::new();
        let ain: Vec<f32> = (0..n).map(|v| v as f32).collect();
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), ain.clone());
        interp.run(&a, &Binding::empty(), &inputs);
        interp.run(&b, &Binding::empty(), &HashMap::new());
        let out = interp.run(&c, &Binding::empty(), &HashMap::new());
        for (i, &v) in out["d"].iter().enumerate() {
            let expect = (ain[i] + 1.0) * 0.35 / -1.1;
            assert!((v - expect).abs() < 1e-6);
        }
        // All channels drained.
        assert!(interp.channels.values().all(VecDeque::is_empty));
    }

    #[test]
    #[should_panic(expected = "empty channel")]
    fn reading_empty_channel_panics() {
        let k = Kernel::new(
            "bad",
            Stmt::WriteChannel {
                chan: "out".into(),
                val: VExpr::ReadChannel("nope".into()),
            },
        );
        Interp::new().run(&k, &Binding::empty(), &HashMap::new());
    }

    #[test]
    fn symbolic_extents_resolve_through_binding() {
        let body = Stmt::for_(
            "i",
            IExpr::var("n"),
            Stmt::store("y", IExpr::var("i"), VExpr::FromInt(IExpr::var("i"))),
        );
        let mut k = Kernel::new("iota", body);
        k.bufs = vec![BufferDecl::global("y", BufRole::Output, IExpr::var("n"))];
        k.int_params = vec!["n".into()];
        let out = Interp::new().run(&k, &Binding::of(&[("n", 5)]), &HashMap::new());
        assert_eq!(out["y"], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
