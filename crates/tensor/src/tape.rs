//! Reverse-mode automatic differentiation.
//!
//! Eager tape design: each operation computes its value immediately and
//! records enough information to run the chain rule backwards. A fresh
//! [`Tape`] is built per training step (per mini-batch forward pass), which
//! keeps lifetimes trivial and makes memory use proportional to one step.
//!
//! Gradients flow to every node marked as requiring gradients — model
//! parameters, but also plain inputs when requested, which is how the LBEBM
//! backbone obtains `∂E/∂z` for its Langevin sampler.

use crate::param::{ParamId, ParamStore};
use crate::pool;
use crate::tensor::Tensor;
use adaptraj_obs::health;
use adaptraj_obs::profile::{self, OpTimer};
use std::sync::OnceLock;

/// Cached handles into the global metrics registry so the hot backward
/// path pays one atomic add + one histogram lock, not a registry lookup.
struct TapeMetrics {
    backward_calls: adaptraj_obs::CounterHandle,
    tape_nodes: adaptraj_obs::CounterHandle,
    backward_ms: adaptraj_obs::HistogramHandle,
    /// Nodes-per-backward distribution (graph size per step), alongside
    /// the `tape_nodes` counter sum.
    tape_len: adaptraj_obs::HistogramHandle,
    /// Per-backward cost normalized by graph size — the bench harness's
    /// "backward ns/node" regression metric.
    backward_ns_per_node: adaptraj_obs::HistogramHandle,
}

impl TapeMetrics {
    fn observe_backward(&self, nodes: usize, elapsed: std::time::Duration) {
        self.backward_calls.incr();
        self.tape_nodes.add(nodes as u64);
        self.backward_ms.record(elapsed.as_secs_f64() * 1e3);
        self.tape_len.record(nodes as f64);
        if nodes > 0 {
            self.backward_ns_per_node
                .record(elapsed.as_nanos() as f64 / nodes as f64);
        }
    }
}

fn tape_metrics() -> &'static TapeMetrics {
    static METRICS: OnceLock<TapeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = adaptraj_obs::global();
        TapeMetrics {
            backward_calls: reg.counter("tensor.backward_calls"),
            tape_nodes: reg.counter("tensor.tape_nodes_total"),
            backward_ms: reg.histogram("tensor.backward_ms"),
            tape_len: reg.histogram("tensor.tape_len"),
            backward_ns_per_node: reg.histogram("tensor.backward_ns_per_node"),
        }
    })
}

thread_local! {
    /// The calling thread's reusable tape (see [`with_pooled`]).
    static POOLED_TAPE: std::cell::RefCell<Tape> = std::cell::RefCell::new(Tape::new());
}

/// Runs `f` with the calling thread's reusable tape. The tape is reset on
/// entry (defensive: a previous job may have panicked mid-window) and on
/// exit, so each use retires its buffers into the thread's buffer pool and
/// drops the tape's `Arc` references to parameter leaves — letting a
/// following optimizer step mutate `ParamStore` values in place instead of
/// copy-on-writing them. Persistent worker threads therefore replay every
/// window onto warm, already-sized memory.
///
/// Re-entrant calls (a private tape inside a pooled-tape job, e.g. an
/// inner Langevin tape) fall back to a temporary tape that still retires
/// its buffers on exit. Values must be copied out of the tape before `f`
/// returns, as with any tape whose lifetime ends.
pub fn with_pooled<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
    POOLED_TAPE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut tape) => {
            tape.reset();
            let out = f(&mut tape);
            tape.reset();
            out
        }
        Err(_) => {
            let mut tape = Tape::new();
            let out = f(&mut tape);
            tape.reset();
            out
        }
    })
}

/// Layer nonlinearity, applied inside the fused affine node
/// ([`Tape::fused_affine`]). Each one's derivative is recoverable from its
/// *output*, so the fused node stores no pre-activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No nonlinearity (a plain affine map).
    Identity,
    Relu,
    Tanh,
}

impl Activation {
    /// Scalar forward — bit-identical to the standalone activation ops.
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative mask reconstructed from the activation *output* `y`.
    /// For ReLU this is exact because `y > 0 ⇔ x > 0`; for tanh it is the
    /// usual output-form derivative.
    #[inline]
    fn dmask_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    pub fn index(self) -> usize {
        self.0
    }
}

/// Recorded operation. Parents are stored as `Var`s created earlier on the
/// same tape, so reverse iteration is a valid topological order.
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    MatMul(Var, Var),
    AddRowBroadcast(Var, Var),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    SoftmaxRows(Var),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Vec<usize>),
    MeanRows(Var),
    MeanAll(Var),
    SumAll(Var),
    HadamardConst(Var, Tensor),
    /// Row-major reinterpretation under a new shape (element-count
    /// conserving); the backward pass reshapes the gradient back.
    Reshape(Var),
    /// `[g*k, m] -> [g, m]`, summing each consecutive group of `k` rows —
    /// the reduction that collapses per-slot batched scene rows back to
    /// one row per window.
    SumRowGroups(Var, usize),
    SoftmaxCrossEntropy(Var, Vec<usize>),
    GradReverse(Var, f32),
    /// `act(x·W + b)` as one node: matmul, broadcast bias, and activation
    /// fused, with no pre-activation or mask tensor materialized.
    FusedAffine(Var, Var, Var, Activation),
    /// One full LSTM recurrence step. The node's value is `[h' | c']`
    /// (`[n, 2·hidden]`); post-activation gate values `[i|f|g|o]` and
    /// `tanh(c')` are cached for the backward pass.
    LstmCell {
        x: Var,
        h: Var,
        c: Var,
        w: Var,
        b: Var,
        /// Post-activation gates `[i|f|g|o]`, `[n, 4·hidden]`.
        gates: Tensor,
        /// `tanh(c')`, `[n, hidden]`.
        c_act: Tensor,
    },
    /// Stand-in for ops whose operand bookkeeping (`Vec<Var>` /
    /// `Vec<usize>`) is only needed by the backward pass: when no operand
    /// requires gradients the op is recorded as this sentinel instead,
    /// skipping the clone. The stored label is the original op's
    /// [`Op::kind`] so profiles stay attributed correctly.
    NoGrad(&'static str),
}

impl Op {
    /// Stable profiler label for this op kind (see `adaptraj_obs::profile`).
    fn kind(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::MatMul(..) => "matmul",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::Relu(..) => "relu",
            Op::Tanh(..) => "tanh",
            Op::Sigmoid(..) => "sigmoid",
            Op::Exp(..) => "exp",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::ConcatCols(..) => "concat_cols",
            Op::ConcatRows(..) => "concat_rows",
            Op::SliceCols(..) => "slice_cols",
            Op::GatherRows(..) => "gather_rows",
            Op::MeanRows(..) => "mean_rows",
            Op::MeanAll(..) => "mean_all",
            Op::SumAll(..) => "sum_all",
            Op::HadamardConst(..) => "hadamard_const",
            Op::Reshape(..) => "reshape",
            Op::SumRowGroups(..) => "sum_row_groups",
            Op::SoftmaxCrossEntropy(..) => "softmax_cross_entropy",
            Op::GradReverse(..) => "grad_reverse",
            Op::FusedAffine(..) => "fused_affine",
            Op::LstmCell { .. } => "lstm_cell",
            Op::NoGrad(kind) => kind,
        }
    }
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    needs_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by node.
#[derive(Debug)]
pub struct Grads {
    by_node: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. `var`, if it participates in the graph
    /// and requires gradients.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.by_node.get(var.0).and_then(|g| g.as_ref())
    }

    /// Like [`Grads::get`] but panics with a useful message when absent.
    pub fn expect(&self, var: Var) -> &Tensor {
        self.get(var)
            .unwrap_or_else(|| panic!("no gradient recorded for node {}", var.0))
    }

    /// Retires every gradient buffer into the calling thread's buffer
    /// pool. Call once the gradients have been absorbed downstream (e.g.
    /// into a `GradBuffer`) so the next backward pass reuses them.
    pub fn recycle(self) {
        for g in self.by_node.into_iter().flatten() {
            g.recycle();
        }
    }
}

/// The autodiff tape. See the module docs for the design.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// `(parameter, node)` pairs for parameters used in this forward pass.
    param_uses: Vec<(ParamId, Var)>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape for reuse across window jobs. Every node's value
    /// buffer (and op-owned tensors such as `hadamard_const` masks) is
    /// retired into the calling thread's buffer pool, so the next forward
    /// pass on this thread allocates from warm, cache-resident memory
    /// instead of the heap; the node and param-use vectors keep their
    /// capacity. Also flushes the thread's pool tallies into the global
    /// metrics registry (`tensor.pool_reuse` & friends) — once per window
    /// instead of once per allocation.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            match node.op {
                Op::HadamardConst(_, mask) => mask.recycle(),
                Op::LstmCell { gates, c_act, .. } => {
                    gates.recycle();
                    c_act.recycle();
                }
                _ => {}
            }
            node.value.recycle();
        }
        self.param_uses.clear();
        pool::flush_thread_metrics();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// The stable profiler label of the op that produced `var` (see
    /// `Op::kind`); `"leaf"` for constants, inputs, and parameters.
    pub fn op_kind(&self, var: Var) -> &'static str {
        self.nodes[var.0].op.kind()
    }

    /// Whether gradients flow into `var` (constants opt out).
    pub fn needs_grad(&self, var: Var) -> bool {
        self.nodes[var.0].needs_grad
    }

    /// The parents of `var` — the operands of the op that produced it, in
    /// operand order; empty for leaves. Every parent was recorded before
    /// its child, so node order is a topological order; `adaptraj-check`
    /// asserts this structural invariant through this accessor.
    pub fn parents(&self, var: Var) -> Vec<Var> {
        match &self.nodes[var.0].op {
            Op::Leaf | Op::NoGrad(_) => Vec::new(),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::AddRowBroadcast(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::SoftmaxRows(a)
            | Op::SliceCols(a, _, _)
            | Op::GatherRows(a, _)
            | Op::MeanRows(a)
            | Op::MeanAll(a)
            | Op::SumAll(a)
            | Op::HadamardConst(a, _)
            | Op::Reshape(a)
            | Op::SumRowGroups(a, _)
            | Op::SoftmaxCrossEntropy(a, _)
            | Op::GradReverse(a, _) => vec![*a],
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => parts.clone(),
            Op::FusedAffine(x, w, b, _) => vec![*x, *w, *b],
            Op::LstmCell { x, h, c, w, b, .. } => vec![*x, *h, *c, *w, *b],
        }
    }

    /// Records a computed node. Every forward op funnels through here with
    /// the [`OpTimer`] it started before computing, making this the single
    /// forward-side profiler choke point: elapsed wall-clock and the bytes
    /// the op freshly allocated attribute to the op's kind and the current
    /// profiling phase. Bytes come from draining the thread's pending
    /// fresh-allocation tally (see `crate::pool`), so pool reuse and
    /// `Arc`-shared parameter leaves count as zero — only genuine heap
    /// allocations show up in profile byte lines. With profiling disabled
    /// the timer is inert and `record_op` returns immediately.
    ///
    /// The health tripwire probes every value here too ([`health::check_tensor`]),
    /// one relaxed atomic load when disabled. An armed tripwire supersedes the
    /// `all_finite` debug assert: non-finite values are then recorded as
    /// incidents instead of aborting debug builds.
    fn push(&mut self, timer: OpTimer, mut value: Tensor, op: Op, needs_grad: bool) -> Var {
        if health::should_inject() {
            // Fault-injection hook (ADAPTRAJ_HEALTH_INJECT_NAN=<op-index>):
            // poison this op's output so the tripwire→run record→doctor path can
            // be exercised end to end on an otherwise healthy model.
            if let Some(x) = value.data_mut().first_mut() {
                *x = f32::NAN;
            }
        }
        health::check_tensor(op.kind(), value.data());
        debug_assert!(
            health::health_enabled() || value.all_finite(),
            "non-finite value from {op:?}"
        );
        profile::record_op(
            op.kind(),
            profile::Dir::Forward,
            timer,
            pool::drain_pending_fresh_bytes(),
        );
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    fn any_needs(&self, vs: &[Var]) -> bool {
        vs.iter().any(|&v| self.needs(v))
    }

    /// A constant leaf: gradients do not flow into it.
    pub fn constant(&mut self, value: Tensor) -> Var {
        let t = profile::op_timer();
        self.push(t, value, Op::Leaf, false)
    }

    /// An input leaf that accumulates gradients (e.g. a Langevin latent).
    pub fn input(&mut self, value: Tensor) -> Var {
        let t = profile::op_timer();
        self.push(t, value, Op::Leaf, true)
    }

    /// Brings a stored parameter onto the tape; its gradient can later be
    /// routed back to the store via [`Tape::param_grads`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let t = profile::op_timer();
        let var = self.push(t, store.value(id).clone(), Op::Leaf, true);
        self.param_uses.push((id, var));
        var
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).add(self.value(b));
        let ng = self.any_needs(&[a, b]);
        self.push(t, v, Op::Add(a, b), ng)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).sub(self.value(b));
        let ng = self.any_needs(&[a, b]);
        self.push(t, v, Op::Sub(a, b), ng)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).mul(self.value(b));
        let ng = self.any_needs(&[a, b]);
        self.push(t, v, Op::Mul(a, b), ng)
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).scale(alpha);
        let ng = self.needs(a);
        self.push(t, v, Op::Scale(a, alpha), ng)
    }

    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).map(|x| x + c);
        let ng = self.needs(a);
        self.push(t, v, Op::AddScalar(a), ng)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).matmul(self.value(b));
        let ng = self.any_needs(&[a, b]);
        self.push(t, v, Op::MatMul(a, b), ng)
    }

    /// `[n,m] + [1,m]` broadcast (bias addition). No model records it:
    /// with [`Tape::relu`] and [`Tape::sigmoid`] it is the unfused
    /// reference the fused-node tests compare against bit for bit.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).add_row_broadcast(self.value(bias));
        let ng = self.any_needs(&[a, bias]);
        self.push(t, v, Op::AddRowBroadcast(a, bias), ng)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(t, v, Op::Relu(a), ng)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).map(f32::tanh);
        let ng = self.needs(a);
        self.push(t, v, Op::Tanh(a), ng)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.needs(a);
        self.push(t, v, Op::Sigmoid(a), ng)
    }

    pub fn exp(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).map(f32::exp);
        let ng = self.needs(a);
        self.push(t, v, Op::Exp(a), ng)
    }

    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).softmax_rows();
        let ng = self.needs(a);
        self.push(t, v, Op::SoftmaxRows(a), ng)
    }

    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let t = profile::op_timer();
        let vals: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_cols(&vals);
        let ng = self.any_needs(parts);
        let op = if ng {
            Op::ConcatCols(parts.to_vec())
        } else {
            Op::NoGrad("concat_cols")
        };
        self.push(t, v, op, ng)
    }

    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let t = profile::op_timer();
        let vals: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_rows(&vals);
        let ng = self.any_needs(parts);
        let op = if ng {
            Op::ConcatRows(parts.to_vec())
        } else {
            Op::NoGrad("concat_rows")
        };
        self.push(t, v, op, ng)
    }

    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).slice_cols(start, end);
        let ng = self.needs(a);
        self.push(t, v, Op::SliceCols(a, start, end), ng)
    }

    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).gather_rows(indices);
        let ng = self.needs(a);
        let op = if ng {
            Op::GatherRows(a, indices.to_vec())
        } else {
            Op::NoGrad("gather_rows")
        };
        self.push(t, v, op, ng)
    }

    pub fn mean_rows(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).mean_rows();
        let ng = self.needs(a);
        self.push(t, v, Op::MeanRows(a), ng)
    }

    /// Mean over all elements, as a `1 x 1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = Tensor::scalar(self.value(a).mean());
        let ng = self.needs(a);
        self.push(t, v, Op::MeanAll(a), ng)
    }

    /// Sum over all elements, as a `1 x 1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let t = profile::op_timer();
        let v = Tensor::scalar(self.value(a).sum());
        let ng = self.needs(a);
        self.push(t, v, Op::SumAll(a), ng)
    }

    /// Gradient-reversal layer (Ganin & Lempitsky): identity in the
    /// forward pass, `-lambda ·` in the backward pass. The building block
    /// of domain-adversarial training — a classifier downstream of this op
    /// learns to predict the domain while everything upstream learns to
    /// prevent it.
    pub fn grad_reverse(&mut self, a: Var, lambda: f32) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).clone();
        let ng = self.needs(a);
        self.push(t, v, Op::GradReverse(a, lambda), ng)
    }

    /// Elementwise product with a constant mask (dropout, padding masks).
    pub fn hadamard_const(&mut self, a: Var, mask: Tensor) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).mul(&mask);
        let ng = self.needs(a);
        self.push(t, v, Op::HadamardConst(a, mask), ng)
    }

    /// Row-major reinterpretation under a new shape; must conserve the
    /// element count. Backward reshapes the gradient back.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).reshape(rows, cols);
        let ng = self.needs(a);
        self.push(t, v, Op::Reshape(a), ng)
    }

    /// Sums each consecutive group of `k` rows: `[g*k, m] -> [g, m]`.
    /// Backward repeats each output row's gradient over its `k` inputs.
    pub fn sum_row_groups(&mut self, a: Var, k: usize) -> Var {
        let t = profile::op_timer();
        let v = self.value(a).sum_row_groups(k);
        let ng = self.needs(a);
        self.push(t, v, Op::SumRowGroups(a, k), ng)
    }

    /// Fused softmax + cross-entropy over class-index targets, averaged over
    /// rows. Numerically stable; returns a `1 x 1` loss.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let t = profile::op_timer();
        let lv = self.value(logits);
        assert_eq!(lv.rows(), targets.len(), "one target class per logits row");
        let probs = lv.softmax_rows();
        let n = targets.len().max(1) as f32;
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.cols(), "target class {t} out of range");
            loss -= probs.at(r, t).max(1e-12).ln();
        }
        let ng = self.needs(logits);
        self.push(
            t,
            Tensor::scalar(loss / n),
            Op::SoftmaxCrossEntropy(logits, targets.to_vec()),
            ng,
        )
    }

    // ---- composite helpers -------------------------------------------------

    /// Mean squared error against a constant target: `mean((a - t)^2)`.
    pub fn mse_to(&mut self, a: Var, target: &Tensor) -> Var {
        let t = self.constant(target.clone());
        let d = self.sub(a, t);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    /// Sum of squared errors against a constant target (the paper's
    /// `L_base`, Eq. 8, uses summed squared L2).
    pub fn sse_to(&mut self, a: Var, target: &Tensor) -> Var {
        let t = self.constant(target.clone());
        let d = self.sub(a, t);
        let sq = self.mul(d, d);
        self.sum_all(sq)
    }

    /// `act(x·W + b)` as a single node: the matmul output is biased and
    /// activated in place, so the pre-activation tensor, the bias-broadcast
    /// copy, and the activation output never exist as separate buffers.
    /// Values and gradients are bit-identical to the unfused
    /// matmul → add_row_broadcast → activation composition.
    pub fn fused_affine(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let t = profile::op_timer();
        let mut v = self.value(x).matmul(self.value(w));
        let bv = self.value(b);
        debug_assert_eq!(bv.rows(), 1, "bias must be a row vector");
        debug_assert_eq!(bv.cols(), v.cols(), "bias width mismatch");
        let cols = v.cols();
        let bias = bv.data();
        for row in v.data_mut().chunks_exact_mut(cols.max(1)) {
            for (o, &bj) in row.iter_mut().zip(bias) {
                *o = act.apply(*o + bj);
            }
        }
        let ng = self.any_needs(&[x, w, b]);
        self.push(t, v, Op::FusedAffine(x, w, b, act), ng)
    }

    /// One LSTM recurrence step as a single node. Gate layout in the fused
    /// projection `W: [in+hidden, 4·hidden]` is `[i | f | g | o]`; the
    /// returned value is `[h' | c']` (`[n, 2·hidden]`), to be split with
    /// [`Tape::slice_cols`]. Values and gradients are bit-identical to the
    /// unfused concat → affine → slice/activate → blend composition, but
    /// the step records one node instead of fifteen.
    pub fn lstm_cell(&mut self, x: Var, h: Var, c: Var, w: Var, b: Var) -> Var {
        let t = profile::op_timer();
        let (xv, hv, cv) = (self.value(x), self.value(h), self.value(c));
        let (wv, bv) = (self.value(w), self.value(b));
        let n = xv.rows();
        let hid = hv.cols();
        assert_eq!(hv.rows(), n, "h batch mismatch");
        assert_eq!(cv.shape(), (n, hid), "c shape mismatch");
        assert_eq!(wv.rows(), xv.cols() + hid, "W height mismatch");
        assert_eq!(wv.cols(), 4 * hid, "W must pack 4 gates");
        assert_eq!(bv.shape(), (1, 4 * hid), "bias shape mismatch");

        let xh = Tensor::concat_cols(&[xv, hv]);
        let mut gates = xh.matmul(wv);
        xh.recycle();
        // Cell candidate gate is tanh; i/f/o are sigmoid. Per-element math
        // and element order match the obvious single branchy loop exactly —
        // the segments exist so the hot loops carry no per-element branch
        // or bounds arithmetic (the transcendental calls themselves are the
        // scalar libm ones the goldens pin).
        let bias = bv.data();
        for row in gates.data_mut().chunks_exact_mut(4 * hid) {
            for (o, &bj) in row[..2 * hid].iter_mut().zip(&bias[..2 * hid]) {
                *o = 1.0 / (1.0 + (-(*o + bj)).exp());
            }
            for (o, &bj) in row[2 * hid..3 * hid]
                .iter_mut()
                .zip(&bias[2 * hid..3 * hid])
            {
                *o = (*o + bj).tanh();
            }
            for (o, &bj) in row[3 * hid..].iter_mut().zip(&bias[3 * hid..]) {
                *o = 1.0 / (1.0 + (-(*o + bj)).exp());
            }
        }

        let mut c_act = Tensor::zeros(n, hid);
        let mut value = Tensor::zeros(n, 2 * hid);
        for r in 0..n {
            let (gi, rest) = gates.row_slice(r).split_at(hid);
            let (gf, rest) = rest.split_at(hid);
            let (gg, go) = rest.split_at(hid);
            let cprev = cv.row_slice(r);
            let carow = c_act.row_slice_mut(r);
            let (vh, vc) = value.row_slice_mut(r).split_at_mut(hid);
            for j in 0..hid {
                let cn = gf[j] * cprev[j] + gi[j] * gg[j];
                carow[j] = cn.tanh();
                vh[j] = go[j] * carow[j];
                vc[j] = cn;
            }
        }

        let ng = self.any_needs(&[x, h, c, w, b]);
        self.push(
            t,
            value,
            Op::LstmCell {
                x,
                h,
                c,
                w,
                b,
                gates,
                c_act,
            },
            ng,
        )
    }

    // ---- backward ----------------------------------------------------------

    /// Runs the chain rule from a scalar root. Panics if the root is not
    /// `1 x 1`.
    pub fn backward(&self, root: Var) -> Grads {
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward root must be scalar"
        );
        let start = std::time::Instant::now();
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(Tensor::scalar(1.0));

        for idx in (0..=root.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(g) = grads[idx].take() else { continue };
            // Backward-side profiler choke point, mirroring `push`: the
            // whole chain-rule step for this node, and the bytes it freshly
            // allocated, attribute to its op kind. Inert (one atomic load)
            // when profiling is disabled.
            let t = profile::op_timer();
            self.accumulate_parents(idx, &g, &mut grads);
            profile::record_op(
                self.nodes[idx].op.kind(),
                profile::Dir::Backward,
                t,
                pool::drain_pending_fresh_bytes(),
            );
            grads[idx] = Some(g);
        }
        tape_metrics().observe_backward(self.nodes.len(), start.elapsed());
        Grads { by_node: grads }
    }

    fn add_grad(&self, grads: &mut [Option<Tensor>], v: Var, delta: Tensor) {
        if !self.nodes[v.0].needs_grad {
            // A delta computed for a no-grad parent still owns a pooled
            // buffer — retire it rather than dropping it on the floor.
            delta.recycle();
            return;
        }
        match &mut grads[v.0] {
            Some(g) => {
                g.axpy(1.0, &delta);
                delta.recycle();
            }
            slot @ None => *slot = Some(delta),
        }
    }

    fn accumulate_parents(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        match &self.nodes[idx].op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.add_grad(grads, *a, g.clone());
                self.add_grad(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                self.add_grad(grads, *a, g.clone());
                self.add_grad(grads, *b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                self.add_grad(grads, *a, g.mul(self.value(*b)));
                self.add_grad(grads, *b, g.mul(self.value(*a)));
            }
            Op::Scale(a, alpha) => self.add_grad(grads, *a, g.scale(*alpha)),
            Op::AddScalar(a) => self.add_grad(grads, *a, g.clone()),
            Op::MatMul(a, b) => {
                // dA = g·Bᵀ, dB = Aᵀ·g via the transpose-free kernels:
                // same per-element accumulation order and zero-skip as the
                // old transpose-then-matmul composition, so gradients are
                // bit-identical with no transpose temporaries.
                let da = g.matmul_nt(self.value(*b));
                let db = self.value(*a).matmul_tn(g);
                self.add_grad(grads, *a, da);
                self.add_grad(grads, *b, db);
            }
            Op::AddRowBroadcast(a, bias) => {
                self.add_grad(grads, *a, g.clone());
                self.add_grad(grads, *bias, g.sum_rows());
            }
            Op::Relu(a) => {
                let mask = self.value(*a).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                let dx = g.mul(&mask);
                mask.recycle();
                self.add_grad(grads, *a, dx);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[idx].value;
                let dy = y.map(|t| 1.0 - t * t);
                let dx = g.mul(&dy);
                dy.recycle();
                self.add_grad(grads, *a, dx);
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[idx].value;
                let dy = y.map(|s| s * (1.0 - s));
                let dx = g.mul(&dy);
                dy.recycle();
                self.add_grad(grads, *a, dx);
            }
            Op::Exp(a) => {
                let y = &self.nodes[idx].value;
                self.add_grad(grads, *a, g.mul(y));
            }
            Op::SoftmaxRows(a) => {
                // dx = y ⊙ (g − rowdot(g, y))
                let y = &self.nodes[idx].value;
                let mut dx = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row_slice(r);
                    let gr = g.row_slice(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                    for c in 0..y.cols() {
                        dx.set(r, c, yr[c] * (gr[c] - dot));
                    }
                }
                self.add_grad(grads, *a, dx);
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for &p in parts {
                    let w = self.value(p).cols();
                    self.add_grad(grads, p, g.slice_cols(start, start + w));
                    start += w;
                }
            }
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for &p in parts {
                    let h = self.value(p).rows();
                    let rows: Vec<usize> = (start..start + h).collect();
                    self.add_grad(grads, p, g.gather_rows(&rows));
                    start += h;
                }
            }
            Op::SliceCols(a, start, end) => {
                let av = self.value(*a);
                let mut dx = Tensor::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    dx.row_slice_mut(r)[*start..*end].copy_from_slice(g.row_slice(r));
                }
                self.add_grad(grads, *a, dx);
            }
            Op::GatherRows(a, indices) => {
                let av = self.value(*a);
                let mut dx = Tensor::zeros(av.rows(), av.cols());
                for (out_r, &src_r) in indices.iter().enumerate() {
                    let gr = g.row_slice(out_r);
                    for (d, &gv) in dx.row_slice_mut(src_r).iter_mut().zip(gr) {
                        *d += gv;
                    }
                }
                self.add_grad(grads, *a, dx);
            }
            Op::MeanRows(a) => {
                let n = self.value(*a).rows();
                let scaled = g.scale(1.0 / n as f32);
                let dx = scaled.broadcast_rows(n);
                scaled.recycle();
                self.add_grad(grads, *a, dx);
            }
            Op::MeanAll(a) => {
                let av = self.value(*a);
                let val = g.item() / av.len() as f32;
                self.add_grad(grads, *a, Tensor::full(av.rows(), av.cols(), val));
            }
            Op::SumAll(a) => {
                let av = self.value(*a);
                self.add_grad(grads, *a, Tensor::full(av.rows(), av.cols(), g.item()));
            }
            Op::HadamardConst(a, mask) => self.add_grad(grads, *a, g.mul(mask)),
            Op::Reshape(a) => {
                let (r, c) = self.value(*a).shape();
                self.add_grad(grads, *a, g.reshape(r, c));
            }
            Op::SumRowGroups(a, k) => {
                self.add_grad(grads, *a, g.repeat_rows_each(*k));
            }
            Op::GradReverse(a, lambda) => {
                self.add_grad(grads, *a, g.scale(-lambda));
            }
            Op::SoftmaxCrossEntropy(logits, targets) => {
                let lv = self.value(*logits);
                let mut dx = lv.softmax_rows();
                let scale = g.item() / targets.len().max(1) as f32;
                for (r, &t) in targets.iter().enumerate() {
                    let v = dx.at(r, t);
                    dx.set(r, t, v - 1.0);
                }
                let out = dx.scale(scale);
                dx.recycle();
                self.add_grad(grads, *logits, out);
            }
            Op::FusedAffine(x, w, b, act) => {
                // d_pre = g ⊙ act'(y), with the derivative reconstructed
                // from the node's own output; then the three affine
                // gradients exactly as the unfused composition produced
                // them: dx = d_pre·Wᵀ, dW = xᵀ·d_pre, db = Σ_rows d_pre.
                let y = &self.nodes[idx].value;
                let dpre = match act {
                    Activation::Identity => g.clone(),
                    a => g.zip_map(y, |gv, yv| gv * a.dmask_from_output(yv)),
                };
                self.add_grad(grads, *x, dpre.matmul_nt(self.value(*w)));
                self.add_grad(grads, *w, self.value(*x).matmul_tn(&dpre));
                self.add_grad(grads, *b, dpre.sum_rows());
                dpre.recycle();
            }
            Op::LstmCell {
                x,
                h,
                c,
                w,
                b,
                gates,
                c_act,
            } => {
                // Incoming g is [dh' | dc'] ([n, 2·hidden]). Walk the cell
                // equations backwards in the exact order (and with the
                // exact expressions) of the unfused graph, producing the
                // post-gate-activation gradient d_pre [n, 4·hidden], then
                // route it through the affine and the input concat.
                let n = c_act.rows();
                let hid = c_act.cols();
                let cv = self.value(*c);
                let mut dpre = Tensor::zeros(n, 4 * hid);
                let mut dc_prev = Tensor::zeros(n, hid);
                for r in 0..n {
                    let (gi, rest) = gates.row_slice(r).split_at(hid);
                    let (gf, rest) = rest.split_at(hid);
                    let (gg, go) = rest.split_at(hid);
                    let carow = c_act.row_slice(r);
                    let cprev = cv.row_slice(r);
                    let (grh, grc) = g.row_slice(r).split_at(hid);
                    let (dpi, rest) = dpre.row_slice_mut(r).split_at_mut(hid);
                    let (dpf, rest) = rest.split_at_mut(hid);
                    let (dpg, dpo) = rest.split_at_mut(hid);
                    let dcp = dc_prev.row_slice_mut(r);
                    for j in 0..hid {
                        let (i_, f_, g_, o_) = (gi[j], gf[j], gg[j], go[j]);
                        let ca = carow[j];
                        let (dh, dc_in) = (grh[j], grc[j]);
                        let do_ = dh * ca;
                        let dca = dh * o_;
                        // dc' = downstream dc + tanh backward, in the same
                        // accumulation order as the unfused graph.
                        let dc = dc_in + dca * (1.0 - ca * ca);
                        dcp[j] = dc * f_;
                        let df = dc * cprev[j];
                        let di = dc * g_;
                        let dg = dc * i_;
                        dpi[j] = di * (i_ * (1.0 - i_));
                        dpf[j] = df * (f_ * (1.0 - f_));
                        dpg[j] = dg * (1.0 - g_ * g_);
                        dpo[j] = do_ * (o_ * (1.0 - o_));
                    }
                }
                self.add_grad(grads, *b, dpre.sum_rows());
                let (xv, hv) = (self.value(*x), self.value(*h));
                let in_dim = xv.cols();
                let dxh = dpre.matmul_nt(self.value(*w));
                let xh = Tensor::concat_cols(&[xv, hv]);
                self.add_grad(grads, *w, xh.matmul_tn(&dpre));
                xh.recycle();
                dpre.recycle();
                self.add_grad(grads, *x, dxh.slice_cols(0, in_dim));
                self.add_grad(grads, *h, dxh.slice_cols(in_dim, in_dim + hid));
                dxh.recycle();
                self.add_grad(grads, *c, dc_prev);
            }
            // Recorded only for nodes with `needs_grad == false`, which the
            // backward loop never visits.
            Op::NoGrad(_) => unreachable!("NoGrad nodes never need gradients"),
        }
    }

    /// Gradients of this pass's parameters, summed over repeated uses,
    /// as `(id, grad)` pairs. Parameters that did not influence the loss are
    /// omitted.
    pub fn param_grads(&self, grads: &Grads) -> Vec<(ParamId, Tensor)> {
        let mut out: Vec<(ParamId, Tensor)> = Vec::with_capacity(self.param_uses.len());
        for &(id, var) in &self.param_uses {
            if let Some(g) = grads.get(var) {
                if let Some((_, acc)) = out.iter_mut().find(|(i, _)| *i == id) {
                    acc.axpy(1.0, g);
                } else {
                    out.push((id, g.clone()));
                }
            }
        }
        out
    }

    /// Like [`Tape::param_grads`] but consumes `grads`, *moving* each
    /// gradient buffer into the result instead of cloning it and retiring
    /// every unclaimed buffer into the thread's pool. Repeated parameter
    /// uses are summed in the same order as `param_grads`, so the values
    /// are bit-identical — this is the allocation-free variant the
    /// training hot path uses.
    pub fn take_param_grads(&self, grads: Grads) -> Vec<(ParamId, Tensor)> {
        let mut by_node = grads.by_node;
        let mut out: Vec<(ParamId, Tensor)> = Vec::with_capacity(self.param_uses.len());
        for &(id, var) in &self.param_uses {
            if let Some(g) = by_node.get_mut(var.0).and_then(Option::take) {
                if let Some((_, acc)) = out.iter_mut().find(|(i, _)| *i == id) {
                    acc.axpy(1.0, &g);
                    g.recycle();
                } else {
                    out.push((id, g));
                }
            }
        }
        for g in by_node.into_iter().flatten() {
            g.recycle();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::GroupId;
    use crate::rng::Rng;

    /// Central finite-difference check of `d loss / d input` for a scalar
    /// loss built by `f` from a single input tensor.
    fn check_grad(input: Tensor, f: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.input(input.clone());
        let loss = f(&mut tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.expect(x).clone();

        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;

            let mut tp = Tape::new();
            let xp = tp.input(plus);
            let lp = f(&mut tp, xp);
            let mut tm = Tape::new();
            let xm = tm.input(minus);
            let lm = f(&mut tm, xm);

            let numeric = (tp.value(lp).item() - tm.value(lm).item()) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn rand_t(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::randn(rows, cols, 0.0, 1.0, &mut rng)
    }

    #[test]
    fn grad_of_simple_product() {
        // loss = sum(x * x) -> d/dx = 2x
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[1.0, -2.0, 3.0]));
        let sq = tape.mul(x, x);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        assert_eq!(grads.expect(x).data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn grad_matmul_chain_fd() {
        let w = rand_t(3, 2, 1);
        check_grad(
            rand_t(2, 3, 2),
            move |t, x| {
                let wv = t.constant(w.clone());
                let y = t.matmul(x, wv);
                let sq = t.mul(y, y);
                t.mean_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_activations_fd() {
        check_grad(
            rand_t(2, 4, 3),
            |t, x| {
                let a = t.tanh(x);
                let b = t.sigmoid(a);
                let c = t.relu(b);
                t.sum_all(c)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_exp_fd() {
        check_grad(
            rand_t(2, 3, 17),
            |t, x| {
                let e = t.exp(x);
                t.mean_all(e)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_softmax_fd() {
        let target = rand_t(2, 4, 5);
        check_grad(
            rand_t(2, 4, 4),
            move |t, x| {
                let s = t.softmax_rows(x);
                t.mse_to(s, &target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_concat_slice_fd() {
        check_grad(
            rand_t(2, 4, 6),
            |t, x| {
                let left = t.slice_cols(x, 0, 2);
                let right = t.slice_cols(x, 2, 4);
                let swapped = t.concat_cols(&[right, left]);
                let prod = t.mul(swapped, swapped);
                t.sum_all(prod)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_concat_rows_gather_fd() {
        check_grad(
            rand_t(3, 2, 7),
            |t, x| {
                let top = t.gather_rows(x, &[0, 1]);
                let again = t.gather_rows(x, &[2, 0]);
                let stacked = t.concat_rows(&[top, again]);
                let sq = t.mul(stacked, stacked);
                t.mean_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_bias_broadcast_fd() {
        let x = rand_t(3, 2, 9);
        check_grad(
            rand_t(1, 2, 10),
            move |t, b| {
                let xv = t.constant(x.clone());
                let y = t.add_row_broadcast(xv, b);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_cross_entropy_fd() {
        check_grad(
            rand_t(3, 4, 11),
            |t, x| t.softmax_cross_entropy(x, &[1, 3, 0]),
            2e-2,
        );
    }

    #[test]
    fn fused_affine_matches_unfused_composition_bitwise() {
        // Every activation: value and all three gradients must be
        // bit-for-bit what the matmul → add_row_broadcast → activation
        // composition produces — the contract that keeps goldens stable.
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let x = rand_t(4, 3, 60);
            let w = rand_t(3, 5, 61);
            let b = rand_t(1, 5, 62);

            let mut t1 = Tape::new();
            let (xv, wv, bv) = (
                t1.input(x.clone()),
                t1.input(w.clone()),
                t1.input(b.clone()),
            );
            let y1 = t1.fused_affine(xv, wv, bv, act);
            let s1 = t1.mul(y1, y1);
            let l1 = t1.sum_all(s1);
            let g1 = t1.backward(l1);

            let mut t2 = Tape::new();
            let (xu, wu, bu) = (t2.input(x), t2.input(w), t2.input(b));
            let mm = t2.matmul(xu, wu);
            let pre = t2.add_row_broadcast(mm, bu);
            let y2 = match act {
                Activation::Identity => pre,
                Activation::Relu => t2.relu(pre),
                Activation::Tanh => t2.tanh(pre),
            };
            let s2 = t2.mul(y2, y2);
            let l2 = t2.sum_all(s2);
            let g2 = t2.backward(l2);

            assert_eq!(t1.value(y1), t2.value(y2), "{act:?} value drifted");
            for (fused, unfused, name) in [(xv, xu, "dx"), (wv, wu, "dw"), (bv, bu, "db")] {
                assert_eq!(
                    g1.expect(fused),
                    g2.expect(unfused),
                    "{act:?} {name} drifted"
                );
            }
        }
    }

    #[test]
    fn lstm_cell_matches_unfused_step_bitwise() {
        // One fused node vs the fifteen-node composition: h', c', and all
        // five input gradients must be bit-identical.
        let (n, in_dim, hid) = (3, 2, 4);
        let x = rand_t(n, in_dim, 63);
        let h0 = rand_t(n, hid, 64);
        let c0 = rand_t(n, hid, 65);
        let w = rand_t(in_dim + hid, 4 * hid, 66);
        let b = rand_t(1, 4 * hid, 67);

        let mut t1 = Tape::new();
        let xv = t1.input(x.clone());
        let hv = t1.input(h0.clone());
        let cv = t1.input(c0.clone());
        let wv = t1.input(w.clone());
        let bv = t1.input(b.clone());
        let hc = t1.lstm_cell(xv, hv, cv, wv, bv);
        let h1 = t1.slice_cols(hc, 0, hid);
        let c1 = t1.slice_cols(hc, hid, 2 * hid);
        let sq_h = t1.mul(h1, h1);
        let sq_c = t1.mul(c1, c1);
        let lh = t1.sum_all(sq_h);
        let lc = t1.sum_all(sq_c);
        let l1 = t1.add(lh, lc);
        let g1 = t1.backward(l1);

        let mut t2 = Tape::new();
        let xu = t2.input(x);
        let hu = t2.input(h0);
        let cu = t2.input(c0);
        let wu = t2.input(w);
        let bu = t2.input(b);
        let xh = t2.concat_cols(&[xu, hu]);
        let mm = t2.matmul(xh, wu);
        let gates = t2.add_row_broadcast(mm, bu);
        let i_gate = t2.slice_cols(gates, 0, hid);
        let f_gate = t2.slice_cols(gates, hid, 2 * hid);
        let g_gate = t2.slice_cols(gates, 2 * hid, 3 * hid);
        let o_gate = t2.slice_cols(gates, 3 * hid, 4 * hid);
        let i = t2.sigmoid(i_gate);
        let f = t2.sigmoid(f_gate);
        let g = t2.tanh(g_gate);
        let o = t2.sigmoid(o_gate);
        let fc = t2.mul(f, cu);
        let ig = t2.mul(i, g);
        let c2 = t2.add(fc, ig);
        let c_act = t2.tanh(c2);
        let h2 = t2.mul(o, c_act);
        let sq_h = t2.mul(h2, h2);
        let sq_c = t2.mul(c2, c2);
        let lh = t2.sum_all(sq_h);
        let lc = t2.sum_all(sq_c);
        let l2 = t2.add(lh, lc);
        let g2 = t2.backward(l2);

        assert_eq!(t1.value(h1), t2.value(h2), "h' drifted");
        assert_eq!(t1.value(c1), t2.value(c2), "c' drifted");
        for (fused, unfused, name) in [
            (xv, xu, "dx"),
            (hv, hu, "dh"),
            (cv, cu, "dc"),
            (wv, wu, "dw"),
            (bv, bu, "db"),
        ] {
            assert_eq!(g1.expect(fused), g2.expect(unfused), "{name} drifted");
        }
    }

    #[test]
    fn no_grad_concat_and_gather_store_sentinel_ops() {
        let mut tape = Tape::new();
        let c1 = tape.constant(Tensor::row(&[1.0, 2.0]));
        let c2 = tape.constant(Tensor::row(&[3.0]));
        let cat = tape.concat_cols(&[c1, c2]);
        let stack = tape.concat_rows(&[c1, c1]);
        let gath = tape.gather_rows(stack, &[1, 0]);
        // Values are unaffected; the ops just drop their operand lists.
        assert_eq!(tape.value(cat).data(), &[1.0, 2.0, 3.0]);
        assert_eq!(tape.value(gath).data(), &[1.0, 2.0, 1.0, 2.0]);
        // Profiler labels keep the original kind; parents are dropped.
        assert_eq!(tape.op_kind(cat), "concat_cols");
        assert_eq!(tape.op_kind(stack), "concat_rows");
        assert_eq!(tape.op_kind(gath), "gather_rows");
        assert!(!tape.needs_grad(cat));
        assert!(tape.parents(cat).is_empty());
        assert!(tape.parents(gath).is_empty());

        // With a grad-requiring operand the real op (and its parents) are
        // recorded as before.
        let x = tape.input(Tensor::row(&[4.0]));
        let live = tape.concat_cols(&[c1, x]);
        assert_eq!(tape.parents(live), vec![c1, x]);
        let s = tape.sum_all(live);
        let grads = tape.backward(s);
        assert_eq!(grads.expect(x).data(), &[1.0]);
    }

    #[test]
    fn reset_clears_nodes_and_recycles_buffers() {
        let pool_before = crate::pool::thread_stats();
        let mut tape = Tape::new();
        let x = tape.input(rand_t(16, 16, 30));
        let m = tape.matmul(x, x);
        let masked = tape.hadamard_const(m, Tensor::ones(16, 16));
        let loss = tape.mean_all(masked);
        let first = tape.value(loss).item();
        tape.backward(loss).recycle();

        tape.reset();
        assert!(tape.is_empty());
        assert!(
            crate::pool::thread_free_buffers() > 0,
            "reset retired no buffers into the pool"
        );

        // Same computation on the reused tape: identical result, with the
        // kernels now drawing from the pool.
        let x = tape.input(rand_t(16, 16, 30));
        let m = tape.matmul(x, x);
        let masked = tape.hadamard_const(m, Tensor::ones(16, 16));
        let loss = tape.mean_all(masked);
        assert_eq!(tape.value(loss).item().to_bits(), first.to_bits());
        let pool_after = crate::pool::thread_stats();
        assert!(
            pool_after.reuse_hits > pool_before.reuse_hits,
            "second pass did not reuse pooled buffers"
        );
    }

    #[test]
    fn grad_reshape_fd() {
        let c = rand_t(3, 2, 40);
        check_grad(
            rand_t(2, 3, 41),
            move |t, x| {
                let r = t.reshape(x, 3, 2);
                let cv = t.constant(c.clone());
                let y = t.mul(r, cv);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_sum_row_groups_fd() {
        let c = rand_t(2, 3, 42);
        check_grad(
            rand_t(6, 3, 43),
            move |t, x| {
                let s = t.sum_row_groups(x, 3);
                let cv = t.constant(c.clone());
                let y = t.mul(s, cv);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn sum_row_groups_matches_per_group_sum_rows_bitwise() {
        // The batched reduction must produce exactly what per-window
        // `sum_rows` over each group produces — the accumulation order
        // that keeps batched and per-window losses comparable.
        let x = rand_t(6, 4, 44);
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let grouped = tape.sum_row_groups(xv, 2);
        for g in 0..3 {
            let summed = x.gather_rows(&[2 * g, 2 * g + 1]).sum_rows();
            assert_eq!(
                tape.value(grouped).row_slice(g),
                summed.data(),
                "group {g} drifted"
            );
        }
    }

    #[test]
    fn grad_hadamard_const_masks_flow() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[1.0, 2.0, 3.0]));
        let masked = tape.hadamard_const(x, Tensor::row(&[1.0, 0.0, 2.0]));
        let loss = tape.sum_all(masked);
        let grads = tape.backward(loss);
        assert_eq!(grads.expect(x).data(), &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::row(&[1.0, 2.0]));
        let x = tape.input(Tensor::row(&[3.0, 4.0]));
        let y = tape.mul(c, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert!(grads.get(c).is_none());
        assert_eq!(grads.expect(x).data(), &[1.0, 2.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = sum(x + x) -> d/dx = 2
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[5.0]));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.expect(x).data(), &[2.0]);
    }

    #[test]
    fn cross_entropy_matches_uniform_logits() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(2, 4));
        let loss = tape.softmax_cross_entropy(x, &[0, 2]);
        assert!((tape.value(loss).item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_reverse_forward_is_identity() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[1.5, -2.5]));
        let r = tape.grad_reverse(x, 0.7);
        assert_eq!(tape.value(r).data(), &[1.5, -2.5]);
        let s = tape.sum_all(r);
        let grads = tape.backward(s);
        assert_eq!(grads.expect(x).data(), &[-0.7, -0.7]);
    }

    #[test]
    fn unused_branches_get_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[1.0]));
        let y = tape.input(Tensor::row(&[2.0]));
        let _dead = tape.mul(x, y); // never reaches the loss
        let live = tape.scale(x, 2.0);
        let loss = tape.sum_all(live);
        let grads = tape.backward(loss);
        assert_eq!(grads.expect(x).data(), &[2.0]);
        assert!(grads.get(y).is_none(), "dead branch leaked gradient");
    }

    #[test]
    fn second_backward_pass_is_independent() {
        // Two backward calls on the same tape must not accumulate into
        // each other.
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[3.0]));
        let sq = tape.mul(x, x);
        let loss = tape.sum_all(sq);
        let g1 = tape.backward(loss);
        let g2 = tape.backward(loss);
        assert_eq!(g1.expect(x).data(), g2.expect(x).data());
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn backward_rejects_non_scalar_root() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[1.0, 2.0]));
        tape.backward(x);
    }

    #[test]
    fn backward_records_tape_metrics() {
        // Snapshot/delta keeps the assertions order-independent: the
        // global registry accumulates across every test in this binary.
        let before = adaptraj_obs::global().snapshot();
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(&[1.0, 2.0]));
        let sq = tape.mul(x, x);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        let delta = adaptraj_obs::global().snapshot().since(&before);
        assert!(delta.counter("tensor.backward_calls") >= 1);
        // x, x*x, sum -> three nodes on this tape's backward pass.
        assert!(delta.counter("tensor.tape_nodes_total") >= 3);
        assert!(delta.hist_count("tensor.backward_ms") >= 1);
        // Graph size lands in the distribution, not just the counter sum.
        assert!(delta.hist_count("tensor.tape_len") >= 1);
        assert!(delta.hist_count("tensor.backward_ns_per_node") >= 1);
        assert!(
            adaptraj_obs::global()
                .histogram("tensor.tape_len")
                .snapshot()
                .max
                >= 3.0
        );
    }

    /// Serializes the tests that switch the process-global profiler.
    static PROFILER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Profiled bytes of op `kind` in direction `dir`, across phases.
    fn bytes(snapshot: &profile::ProfileSnapshot, kind: &str, dir: profile::Dir) -> u64 {
        snapshot
            .entries
            .iter()
            .filter(|e| e.kind == kind && e.dir == dir)
            .map(|e| e.bytes)
            .sum()
    }

    #[test]
    fn profiler_attributes_tape_ops_by_kind_and_phase() {
        let _profiler = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        profile::set_enabled(true);
        let snapshot = {
            let _phase = adaptraj_obs::span("tape_test");
            let mut tape = Tape::new();
            let x = tape.input(Tensor::row(&[1.0, 2.0, 3.0]));
            let w = tape.constant(Tensor::col(&[1.0, 0.5, 2.0]));
            let y = tape.matmul(x, w);
            let sq = tape.mul(y, y);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            profile::snapshot().under("tape_test")
        };
        profile::set_enabled(false);

        let ops = snapshot.by_op();
        let get = |kind: &str| ops.iter().find(|r| r.kind == kind).cloned();
        let mm = get("matmul").expect("matmul profiled");
        assert_eq!(mm.fwd_calls, 1);
        assert_eq!(mm.bwd_calls, 1);
        // matmul result is 1x1 -> 4 bytes allocated forward.
        assert_eq!(bytes(&snapshot, "matmul", profile::Dir::Forward), 4);
        let leaf = get("leaf").expect("leaves profiled");
        assert_eq!(leaf.fwd_calls, 2);
        // Leaves have no parents: the backward visit for `x` still counts.
        assert!(get("mul").unwrap().bwd_calls >= 1);

        let phases = snapshot.by_phase();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].phase, "tape_test");
        assert!(phases[0].fwd_ns > 0 && phases[0].bwd_ns > 0);
    }

    /// `Tape::param` borrows the store's `Arc`-shared buffer: the bound
    /// value has the store's data pointer and the bind allocates nothing.
    #[test]
    fn param_bind_shares_the_store_buffer_and_allocates_nothing() {
        let _profiler = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(16, 16, 0.5), GroupId::DEFAULT);
        // Building the store allocated on this thread; the tape charges
        // pending fresh bytes to the next node it records, so clear them.
        pool::drain_pending_fresh_bytes();
        profile::set_enabled(true);
        let (shares_buffer, snapshot) = {
            let _phase = adaptraj_obs::span("tape_param_bind");
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let shares_buffer = tape.value(w).data().as_ptr() == store.value(id).data().as_ptr();
            (shares_buffer, profile::snapshot().under("tape_param_bind"))
        };
        profile::set_enabled(false);
        assert!(
            shares_buffer,
            "the bound parameter copied the store's buffer"
        );
        let leaf = snapshot
            .by_op()
            .into_iter()
            .find(|r| r.kind == "leaf")
            .expect("the bind was profiled");
        assert_eq!((leaf.fwd_calls, leaf.bytes), (1, 0));
    }

    /// Gradient buffers that backward allocates are charged to the
    /// backward op that made them, not left pending for the first node the
    /// next forward pass records.
    #[test]
    fn backward_allocations_are_charged_to_backward() {
        let _profiler = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(4, 4, 0.5), GroupId::DEFAULT);
        profile::set_enabled(true);
        let snapshot = {
            let _phase = adaptraj_obs::span("tape_backward_bytes");
            let mut tape = Tape::new();
            let x = tape.input(Tensor::row(&[1.0, 2.0, 3.0]));
            let w = tape.input(Tensor::col(&[1.0, 0.5, 2.0]));
            let y = tape.matmul(x, w);
            let loss = tape.sum_all(y);
            tape.backward(loss);
            {
                // The next forward pass starts with an `Arc`-shared bind,
                // which allocates nothing of its own.
                let _next = adaptraj_obs::span("next_forward");
                Tape::new().param(&store, id);
            }
            profile::snapshot().under("tape_backward_bytes")
        };
        profile::set_enabled(false);
        // dx = g·wᵀ and dw = xᵀ·g are fresh 1x3 and 3x1 buffers.
        assert!(
            bytes(&snapshot, "matmul", profile::Dir::Backward) >= 24,
            "{snapshot:?}"
        );
        let next = snapshot.under("tape_backward_bytes/next_forward");
        let leaf = next.by_op().into_iter().find(|r| r.kind == "leaf");
        assert_eq!(leaf.map(|r| (r.fwd_calls, r.bytes)), Some((1, 0)));
    }
}
