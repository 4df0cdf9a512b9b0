//! Fully-connected layer.

use super::init::xavier_std;
use crate::param::{GroupId, ParamId, ParamStore};
use crate::rng::Rng;
use crate::tape::{Activation, Tape, Var};
use crate::tensor::Tensor;

/// `y = x·W + b` with `W: [in, out]`, `b: [1, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers weights in `store` under `group` with Xavier init.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        group: GroupId,
    ) -> Self {
        let std = xavier_std(in_dim, out_dim);
        let w = store.register(
            format!("{name}.w"),
            Tensor::randn(in_dim, out_dim, 0.0, std, rng),
            group,
        );
        let b = store.register(format!("{name}.b"), Tensor::zeros(1, out_dim), group);
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles `(w, b)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    /// Applies the affine map to `x: [n, in] -> [n, out]`.
    pub fn forward(&self, store: &ParamStore, tape: &mut Tape, x: Var) -> Var {
        self.forward_act(store, tape, x, Activation::Identity)
    }

    /// Applies `act(x·W + b)` as one fused tape node.
    pub fn forward_act(&self, store: &ParamStore, tape: &mut Tape, x: Var, act: Activation) -> Var {
        debug_assert_eq!(
            tape.value(x).cols(),
            self.in_dim,
            "Linear input width mismatch"
        );
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.fused_affine(x, w, b, act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::param::GradBuffer;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 5, GroupId::DEFAULT);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 3));
        let y = lin.forward(&store, &mut tape, x);
        // Zero input ⇒ output equals bias (zero-initialized).
        assert_eq!(tape.value(y).shape(), (2, 5));
        assert_eq!(tape.value(y).sum(), 0.0);
    }

    #[test]
    fn learns_identity_map() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let lin = Linear::new(&mut store, &mut rng, "l", 2, 2, GroupId::DEFAULT);
        let mut opt = Adam::new(0.05);
        let data = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.5]);
        let mut last = f32::MAX;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let x = tape.constant(data.clone());
            let y = lin.forward(&store, &mut tape, x);
            let loss = tape.mse_to(y, &data);
            let grads = tape.backward(loss);
            let mut buf = GradBuffer::new();
            buf.absorb(&tape, &grads);
            opt.step(&mut store, &buf);
            last = tape.value(loss).item();
        }
        assert!(last < 1e-3, "loss {last}");
    }
}
