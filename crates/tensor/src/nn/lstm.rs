//! Long short-term memory recurrence.
//!
//! The individual-mobility encoder and the rollout decoder of the backbone
//! (Sec. II-C of the paper) are LSTMs. The cell follows the standard
//! formulation with a fused gate projection: one `[in+hidden, 4·hidden]`
//! matmul per step, sliced into input/forget/cell/output gates.

use super::init::xavier_std;
use crate::param::{GroupId, ParamId, ParamStore};
use crate::rng::Rng;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Hidden and cell state handles for a batch of sequences.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    pub h: Var,
    pub c: Var,
}

/// A single LSTM cell (one recurrence step).
#[derive(Debug, Clone)]
pub struct LstmCell {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl LstmCell {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
        group: GroupId,
    ) -> Self {
        let std = xavier_std(in_dim + hidden, hidden);
        let w = Tensor::randn(in_dim + hidden, 4 * hidden, 0.0, std, rng);
        Self::from_weights(store, name, w, in_dim, group)
    }

    /// A cell over an already drawn `W: [in+hidden, 4·hidden]` (rows
    /// `[W_x; W_h]`), with the same bias initialization as [`LstmCell::new`].
    pub fn from_weights(
        store: &mut ParamStore,
        name: &str,
        w: Tensor,
        in_dim: usize,
        group: GroupId,
    ) -> Self {
        let hidden = w.cols() / 4;
        assert_eq!(w.shape(), (in_dim + hidden, 4 * hidden), "W shape mismatch");
        let w = store.register(format!("{name}.w"), w, group);
        // Forget-gate bias initialized to 1.0 (standard trick: remember by
        // default early in training); other gates at 0.
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for i in hidden..2 * hidden {
            bias.set(0, i, 1.0);
        }
        let b = store.register(format!("{name}.b"), bias, group);
        Self {
            w,
            b,
            in_dim,
            hidden,
        }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// A zeroed state for a batch of `n` sequences.
    pub fn zero_state(&self, tape: &mut Tape, n: usize) -> LstmState {
        LstmState {
            h: tape.constant(Tensor::zeros(n, self.hidden)),
            c: tape.constant(Tensor::zeros(n, self.hidden)),
        }
    }

    /// One step: consumes `x: [n, in]` and the previous state, produces the
    /// next state. Gate layout in the fused projection: `[i | f | g | o]`.
    /// The whole recurrence is one [`Tape::lstm_cell`] node (plus the two
    /// state slices), not the fifteen-node elementwise composition. `pre`
    /// is the gates' starting pre-activation (see [`Tape::lstm_cell`]):
    /// a step-invariant input's projection, computed once by the caller.
    pub fn step(
        &self,
        store: &ParamStore,
        tape: &mut Tape,
        x: Var,
        state: LstmState,
        pre: Option<Var>,
    ) -> LstmState {
        debug_assert_eq!(tape.value(x).cols(), self.in_dim, "LSTM input width");
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let hc = tape.lstm_cell(x, state.h, state.c, w, b, pre);
        let h = self.hidden;
        LstmState {
            h: tape.slice_cols(hc, 0, h),
            c: tape.slice_cols(hc, h, 2 * h),
        }
    }
}

/// An unrolled LSTM over a sequence of per-step inputs.
#[derive(Debug, Clone)]
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
        group: GroupId,
    ) -> Self {
        Self {
            cell: LstmCell::new(store, rng, name, in_dim, hidden, group),
        }
    }

    pub fn cell(&self) -> &LstmCell {
        &self.cell
    }

    pub fn hidden(&self) -> usize {
        self.cell.hidden
    }

    /// Runs the cell over `steps` (each `[n, in]`) and returns the final
    /// state. Panics on an empty sequence.
    pub fn forward(&self, store: &ParamStore, tape: &mut Tape, steps: &[Var]) -> LstmState {
        assert!(!steps.is_empty(), "LSTM over an empty sequence");
        let n = tape.value(steps[0]).rows();
        let mut state = self.cell.zero_state(tape, n);
        for &x in steps {
            state = self.cell.step(store, tape, x, state, None);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::param::GradBuffer;

    #[test]
    fn step_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let cell = LstmCell::new(&mut store, &mut rng, "c", 3, 6, GroupId::DEFAULT);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(4, 3));
        let s0 = cell.zero_state(&mut tape, 4);
        let s1 = cell.step(&store, &mut tape, x, s0, None);
        assert_eq!(tape.value(s1.h).shape(), (4, 6));
        assert_eq!(tape.value(s1.c).shape(), (4, 6));
    }

    #[test]
    fn zero_input_zero_state_gives_bounded_output() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let lstm = Lstm::new(&mut store, &mut rng, "l", 2, 4, GroupId::DEFAULT);
        let mut tape = Tape::new();
        let steps: Vec<Var> = (0..5)
            .map(|_| tape.constant(Tensor::randn(3, 2, 0.0, 10.0, &mut rng)))
            .collect();
        let last = lstm.forward(&store, &mut tape, &steps);
        // h = o * tanh(c) is bounded in (-1, 1).
        assert!(tape.value(last.h).max_abs() < 1.0);
    }

    #[test]
    fn gradients_flow_through_time_fd() {
        // Finite-difference check through a 3-step unroll w.r.t. the first
        // input, exercising the full gate backward path.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let cell = LstmCell::new(&mut store, &mut rng, "c", 2, 3, GroupId::DEFAULT);
        let x0 = Tensor::randn(1, 2, 0.0, 1.0, &mut rng);
        let x_rest: Vec<Tensor> = (0..2)
            .map(|_| Tensor::randn(1, 2, 0.0, 1.0, &mut rng))
            .collect();

        let run = |x0v: Tensor| -> (f32, Option<Tensor>) {
            let mut tape = Tape::new();
            let x = tape.input(x0v);
            let mut state = cell.zero_state(&mut tape, 1);
            state = cell.step(&store, &mut tape, x, state, None);
            for xr in &x_rest {
                let xv = tape.constant(xr.clone());
                state = cell.step(&store, &mut tape, xv, state, None);
            }
            let sq = tape.mul(state.h, state.h);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            (tape.value(loss).item(), grads.get(x).cloned())
        };

        let (_, g) = run(x0.clone());
        let g = g.expect("input grad");
        let eps = 1e-2;
        for i in 0..x0.len() {
            let mut p = x0.clone();
            p.data_mut()[i] += eps;
            let mut m = x0.clone();
            m.data_mut()[i] -= eps;
            let numeric = (run(p).0 - run(m).0) / (2.0 * eps);
            let a = g.data()[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "BPTT grad mismatch at {i}: {a} vs {numeric}"
            );
        }
    }

    #[test]
    fn learns_to_memorize_first_token() {
        // Task: output at the end equals the first input's first feature.
        // Requires carrying information through the cell state.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(7);
        let lstm = Lstm::new(&mut store, &mut rng, "mem", 1, 8, GroupId::DEFAULT);
        let head = super::super::Linear::new(&mut store, &mut rng, "head", 8, 1, GroupId::DEFAULT);
        let mut opt = Adam::new(0.02);
        let mut last = f32::MAX;
        for it in 0..600 {
            let mut data_rng = Rng::seed_from(it % 16);
            let first: Vec<f32> = (0..4).map(|_| data_rng.uniform(-1.0, 1.0)).collect();
            let mut tape = Tape::new();
            let mut steps = Vec::new();
            steps.push(tape.constant(Tensor::col(&first)));
            for _ in 0..3 {
                steps.push(tape.constant(Tensor::zeros(4, 1)));
            }
            let state = lstm.forward(&store, &mut tape, &steps);
            let pred = head.forward(&store, &mut tape, state.h);
            let target = Tensor::col(&first);
            let loss = tape.mse_to(pred, &target);
            let grads = tape.backward(loss);
            let mut buf = GradBuffer::new();
            buf.absorb(&tape, &grads);
            opt.step(&mut store, &buf);
            last = tape.value(loss).item();
        }
        assert!(last < 0.02, "memorization loss {last}");
    }
}
