//! # adaptraj-tensor
//!
//! Dense `f32` tensors, reverse-mode automatic differentiation, neural
//! network layers, and optimizers — the deep-learning substrate for the
//! AdapTraj (ICDE 2024) reproduction.
//!
//! The paper's experiments assume a PyTorch-class stack; since no mature
//! Rust equivalent is available offline, this crate provides the minimal
//! complete substrate the paper's models need:
//!
//! * [`tensor::Tensor`] — row-major rank-2 tensors with the kernels used by
//!   every model (matmul, broadcasts, reductions, softmax, gathers).
//! * [`tape::Tape`] — an eager autodiff tape with input gradients (needed by
//!   LBEBM's Langevin sampler), a gradient-reversal node, fused
//!   softmax cross-entropy for the domain classifier, and fused
//!   affine+[`Activation`] and LSTM-step nodes. The paper's losses
//!   (`L_recon`, `L_diff`, …) are compositions of these ops in
//!   `adaptraj-core`.
//! * [`nn`] — `Linear`, `Mlp`, and `Lstm` layers over a shared
//!   [`param::ParamStore`].
//! * [`optim`] — Adam with per-group learning-rate multipliers and
//!   freezing, which the three-step AdapTraj schedule (Alg. 1) requires.
//! * [`rng::Rng`] — deterministic seeded randomness for replayable
//!   experiments.
//!
//! ## Quick example
//!
//! ```
//! use adaptraj_tensor::{
//!     nn::Mlp,
//!     optim::Adam,
//!     param::{GradBuffer, GroupId, ParamStore},
//!     rng::Rng,
//!     tape::Tape,
//!     tensor::Tensor,
//!     Activation,
//! };
//!
//! let mut store = ParamStore::new();
//! let mut rng = Rng::seed_from(0);
//! let mlp = Mlp::new(&mut store, &mut rng, "f", &[2, 8, 1], Activation::Tanh, GroupId::DEFAULT);
//! let mut opt = Adam::new(0.01);
//!
//! let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Tensor::from_vec(4, 1, vec![0., 1., 1., 0.]);
//! for _ in 0..10 {
//!     let mut tape = Tape::new();
//!     let xv = tape.constant(x.clone());
//!     let pred = mlp.forward(&store, &mut tape, xv);
//!     let loss = tape.mse_to(pred, &y);
//!     let grads = tape.backward(loss);
//!     let mut buf = GradBuffer::new();
//!     buf.absorb(&tape, &grads);
//!     opt.step(&mut store, &buf);
//! }
//! ```

pub mod kernels;
pub mod nn;
pub mod optim;
pub mod param;
pub mod pool;
pub mod rng;
pub mod serialize;
pub mod tape;
pub mod tensor;

pub use kernels::Kernel;
pub use param::{GradBuffer, GroupId, ParamId, ParamStore};
pub use pool::{BufferPool, PoolStats};
pub use rng::Rng;
pub use tape::{with_pooled, Activation, Grads, Tape, Var};
pub use tensor::Tensor;
