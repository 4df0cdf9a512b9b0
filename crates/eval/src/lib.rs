//! # adaptraj-eval
//!
//! Metrics and experiment orchestration for the AdapTraj reproduction.
//!
//! * [`metrics`] — ADE/FDE (Sec. IV-A.3) and best-of-k variants for
//!   stochastic predictors.
//! * [`runner`] — builds, trains, and evaluates one experiment cell
//!   (backbone × learning method × source set × target domain), including
//!   the per-trajectory inference timing used by Table VIII.
//! * [`tables`] — aligned text tables matching the paper's layout,
//!   rendered by the `adaptraj-bench` `tables` binary.

pub mod metrics;
pub mod runner;
pub mod social;
pub mod stats;
pub mod tables;
pub mod viz;

pub use metrics::{ade, best_of_k, fde, EvalAccumulator, EvalResult};
pub use runner::{
    build_predictor, evaluate, leave_one_out, pooled_train, run_cell, run_cell_avg, target_test,
    train_cell, BackboneKind, CellResult, CellSpec, MethodKind, RunnerConfig,
};
pub use social::{collides, misses, SocialAccumulator, SocialReport};
pub use stats::{paired_bootstrap, PairedBootstrap};
pub use tables::TextTable;
pub use viz::{render_window, VizOptions};
