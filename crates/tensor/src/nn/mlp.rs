//! Multi-layer perceptron.

use super::linear::Linear;
use crate::param::{GroupId, ParamStore};
use crate::rng::Rng;
use crate::tape::{Activation, Tape, Var};

/// A stack of [`Linear`] layers with a shared hidden activation. The final
/// layer is linear unless `activate_output` is set.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    activate_output: bool,
}

impl Mlp {
    /// Builds an MLP along `dims` (e.g. `[in, hidden, out]` gives two
    /// layers). Panics if fewer than two dims are given.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dims: &[usize],
        activation: Activation,
        group: GroupId,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.{i}"), w[0], w[1], group))
            .collect();
        Self {
            layers,
            activation,
            activate_output: false,
        }
    }

    /// Applies the hidden activation after the final layer too.
    pub fn with_output_activation(mut self) -> Self {
        self.activate_output = true;
        self
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// The layers, input side first.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass `[n, in] -> [n, out]`: one fused affine+activation
    /// node per layer, the last one linear unless `activate_output`.
    pub fn forward(&self, store: &ParamStore, tape: &mut Tape, x: Var) -> Var {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last || self.activate_output {
                self.activation
            } else {
                Activation::Identity
            };
            h = layer.forward_act(store, tape, h, act);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::param::GradBuffer;
    use crate::tensor::Tensor;

    #[test]
    fn shapes_through_stack() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "m",
            &[4, 8, 8, 2],
            Activation::Relu,
            GroupId::DEFAULT,
        );
        assert_eq!((mlp.in_dim(), mlp.out_dim()), (4, 2));
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(5, 4));
        let y = mlp.forward(&store, &mut tape, x);
        assert_eq!(tape.value(y).shape(), (5, 2));
    }

    #[test]
    fn learns_xor() {
        // Classic nonlinear sanity check: a linear model cannot fit XOR.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "xor",
            &[2, 16, 1],
            Activation::Tanh,
            GroupId::DEFAULT,
        );
        let x = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::MAX;
        for _ in 0..800 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let pred = mlp.forward(&store, &mut tape, xv);
            let loss = tape.mse_to(pred, &y);
            let grads = tape.backward(loss);
            let mut buf = GradBuffer::new();
            buf.absorb(&tape, &grads);
            opt.step(&mut store, &buf);
            last = tape.value(loss).item();
        }
        assert!(last < 0.01, "XOR loss {last}");
    }

    #[test]
    fn output_activation_bounds_range() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            "m",
            &[3, 4],
            Activation::Tanh,
            GroupId::DEFAULT,
        )
        .with_output_activation();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::randn(10, 3, 0.0, 5.0, &mut rng));
        let y = mlp.forward(&store, &mut tape, x);
        assert!(tape
            .value(y)
            .data()
            .iter()
            .all(|&v| (-1.0..=1.0).contains(&v)));
    }
}
