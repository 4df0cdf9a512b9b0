//! # adaptraj
//!
//! Facade crate for the AdapTraj (ICDE 2024) reproduction. Re-exports every
//! workspace crate under one roof so examples and downstream users can write
//! `use adaptraj::core::AdapTraj;` etc. See the individual crates for the
//! full documentation:
//!
//! * [`tensor`] — autodiff + NN substrate
//! * [`sim`] — social-force crowd simulator
//! * [`data`] — domains, dataset synthesis, preprocessing
//! * [`models`] — backbones (PECNet, LBEBM) and baselines (Counter, CausalMotion)
//! * [`core`] — the AdapTraj framework itself
//! * [`eval`] — metrics and experiment orchestration
//! * [`exec`] — the data-parallel worker-pool executor behind `--workers N`
//! * [`check`] — gradient verification, property harness, golden regression
//! * [`serve`] — HTTP/JSON inference service with micro-batched execution

pub mod cli;
pub mod doctor;
pub mod run_dir;

pub use adaptraj_check as check;
pub use adaptraj_core as core;
pub use adaptraj_data as data;
pub use adaptraj_eval as eval;
pub use adaptraj_exec as exec;
pub use adaptraj_models as models;
pub use adaptraj_obs as obs;
pub use adaptraj_serve as serve;
pub use adaptraj_sim as sim;
pub use adaptraj_tensor as tensor;
