//! # adaptraj-models
//!
//! Backbone trajectory predictors and baseline learning methods for the
//! AdapTraj (ICDE 2024) reproduction.
//!
//! * [`backbone`] — the shared seq2seq skeleton of Fig. 1 (location
//!   embedding → LSTM individual-mobility encoder → neighbor-interaction
//!   layer → autoregressive rollout decoder).
//! * [`pecnet`] / [`lbebm`] — the two state-of-the-art backbones the paper
//!   plugs AdapTraj into: an endpoint-conditioned CVAE and a latent-belief
//!   energy-based model with short-run Langevin sampling.
//! * [`vanilla`] / [`counter`] / [`causal_motion`] — the compared learning
//!   methods: plain training, counterfactual analysis, and the
//!   invariance-loss approach.
//! * [`traits::Backbone`] — the encode/generate split that makes AdapTraj
//!   (in `adaptraj-core`) plug-and-play: it taps `h_ei` and `P_i` and
//!   feeds its fused features back as `extra` conditioning. Forward passes
//!   run over a whole `WindowBatch` at once — one tape pass with batched
//!   `GEMM`/`FusedAffine`/`LstmCell` nodes, ragged neighbor counts handled
//!   by masking — and thread a [`traits::ForwardCtx`] (store + tape +
//!   mode: one rng per window in training, pre-drawn rows in sampling) so
//!   they cross worker-thread boundaries cleanly.
//! * [`trainer::Trainer`] — the shared mini-batch loop behind the
//!   `adaptraj-exec` worker pool: batches split into domain-homogeneous
//!   jobs, `--workers N` data-parallelism with bit-identical results for
//!   every worker count.

pub mod backbone;
pub mod causal_motion;
pub mod config;
pub mod counter;
pub mod diagnostics;
pub mod lbebm;
pub mod pecnet;
pub mod predictor;
pub mod trainer;
pub mod traits;
pub mod vanilla;

pub use backbone::{EncodedScene, InteractionKind, RolloutDecoder, SceneEncoder, BACKBONE_GROUP};
pub use causal_motion::CausalMotion;
pub use config::{BackboneConfig, TrainerConfig};
pub use counter::Counter;
pub use lbebm::Lbebm;
pub use pecnet::PecNet;
pub use predictor::{Predictor, TrainReport};
pub use trainer::Trainer;
pub use traits::{randn_per_window, Backbone, ForwardCtx, GenMode, Generation};
pub use vanilla::Vanilla;
