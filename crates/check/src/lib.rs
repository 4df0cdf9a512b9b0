//! # adaptraj-check
//!
//! Correctness verification for the AdapTraj reproduction, in three
//! layers that trade breadth for depth:
//!
//! * [`gradcheck`] — central-finite-difference verification of
//!   [`adaptraj_tensor::Tape::backward`]. Per-op fixtures
//!   (`tests/op_grads.rs`) cover every one of the 34 `Op` kinds plus the
//!   LSTM/MLP layers at tight tolerance; end-to-end checks
//!   (`tests/model_grads.rs`) differentiate each backbone's full training
//!   loss and AdapTraj's three-step objective on fixed-seed windows.
//! * [`prop`] — an offline, zero-dependency property-test harness
//!   (deterministic seeds, size-ramped generation, shrink-by-size) that
//!   runs the algebraic and structural tape invariants
//!   (`tests/tape_props.rs`) and the workspace's cross-crate properties.
//! * [`golden`] — fixed-seed micro-runs of every backbone pinned
//!   bit-for-bit in committed `results/GOLDEN_*.json` files, gated by
//!   `adaptraj check`, which re-runs them.
//!
//! Together these are the gate every later performance PR must clear: a
//! kernel rewrite that changes any gradient fails `op_grads`, one that
//! changes any training trajectory fails the golden gate.

pub mod golden;
pub mod gradcheck;
pub mod prop;

pub use golden::{
    compare, load_baselines, parse_doc, run_all_goldens, run_golden, write_doc, GoldenComparison,
    GoldenDoc, GoldenError, GOLDEN_NAMES, GOLDEN_SCHEMA,
};
pub use gradcheck::{
    grad_check, grad_check_input, grad_check_state, GradCheckConfig, GradReport, OP_KINDS,
};
pub use prop::{assert_close, check, Gen, MAX_SIZE};
