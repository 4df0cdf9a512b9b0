//! # adaptraj-data
//!
//! Domains, dataset synthesis, preprocessing, splits, and statistics for
//! the AdapTraj (ICDE 2024) reproduction.
//!
//! The paper evaluates on four pedestrian datasets (ETH&UCY, L-CAS, SYI,
//! SDD) whose raw recordings are unavailable offline. This crate
//! substitutes calibrated synthetic equivalents: each [`domain::DomainId`]
//! carries a scene distribution (density, speed, flow axis, indoor
//! corridors, stationary crowds) tuned so the synthesized data reproduces
//! the relative structure of the paper's Table I statistics — which is
//! exactly the distribution shift the method is designed to bridge.
//!
//! Pipeline: [`dataset::synthesize_domain`] samples scenes from the
//! domain's config, simulates them with `adaptraj-sim`, resamples to the
//! 0.4 s grid, cuts 8-obs/12-pred windows ([`preprocess`]), and splits
//! 6:2:2 chronologically. [`stats::table_one`] recomputes Table I.
//!
//! ```
//! use adaptraj_data::dataset::{synthesize_domain, SynthesisConfig};
//! use adaptraj_data::domain::DomainId;
//!
//! let ds = synthesize_domain(DomainId::EthUcy, &SynthesisConfig::smoke());
//! assert!(ds.train.len() > 0);
//! assert_eq!(ds.train[0].obs.len(), adaptraj_data::trajectory::T_OBS);
//! ```

pub mod batch;
pub mod dataset;
pub mod domain;
pub mod io;
pub mod preprocess;
pub mod stats;
pub mod trajectory;

pub use batch::{keyed_jobs, WindowBatch, MAX_WINDOWS_PER_JOB};
pub use dataset::{synthesize_all, synthesize_domain, DomainDataset, SynthesisConfig};
pub use domain::DomainId;
pub use trajectory::{Point, TrajWindow, FRAME_DT, T_OBS, T_PRED, T_TOTAL};
