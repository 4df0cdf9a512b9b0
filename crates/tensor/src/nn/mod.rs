//! Neural-network layers built on the autodiff tape.
//!
//! Layers are thin: they own [`ParamId`](crate::param::ParamId)s registered
//! in a shared [`ParamStore`](crate::param::ParamStore) and implement
//! `forward(&self, &ParamStore, &mut Tape, Var) -> Var`. Keeping parameters
//! out of the layer structs lets one store back several cooperating modules
//! (backbone + extractors + aggregator) with unified optimization and
//! per-group scheduling.

mod init;
mod linear;
mod lstm;
mod mlp;

pub use crate::tape::Activation;
pub use init::{kaiming_std, xavier_std};
pub use linear::Linear;
pub use lstm::{Lstm, LstmCell, LstmState};
pub use mlp::Mlp;
