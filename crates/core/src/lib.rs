//! # adaptraj-core
//!
//! The AdapTraj framework (Qian et al., ICDE 2024): multi-source domain
//! generalization for multi-agent trajectory prediction, as a
//! plug-and-play wrapper over any [`adaptraj_models::Backbone`].
//!
//! AdapTraj's causal formulation models **four** feature types — the
//! domain-invariant and domain-specific features of both the focal agent
//! and its neighbors — via three modules:
//!
//! * [`extractors::InvariantExtractor`] — shared-weight V_ind/V_nei/V_fuse
//!   (Eqs. 9–11), regularized by a reconstruction loss (scale-invariant
//!   MSE, Eqs. 12–14) and a domain similarity loss (Eqs. 15–16).
//! * [`extractors::SpecificExtractor`] — per-source-domain experts
//!   {M_ind^k}/{M_nei^k}/M_fuse (Eqs. 17–19) kept disjoint from the
//!   invariant features by a soft orthogonality constraint (Eq. 20).
//! * [`extractors::Aggregator`] — A_ind/A_nei (Eqs. 21–22), trained
//!   teacher–student by randomly masking the domain label with ratio σ so
//!   the aggregated expert knowledge substitutes for the (unavailable)
//!   domain-specific expert at inference on unseen domains.
//!
//! Training follows Alg. 1's three steps, implemented in
//! [`model::AdapTraj`]'s `fit`, using per-group learning-rate multipliers
//! (`f_low`/`f_high`) and freezing.
//!
//! ```no_run
//! use adaptraj_core::{AdapTraj, AdapTrajConfig};
//! use adaptraj_data::domain::DomainId;
//! use adaptraj_models::{BackboneConfig, PecNet, Predictor, TrainerConfig};
//!
//! let sources = [DomainId::EthUcy, DomainId::LCas, DomainId::Syi];
//! let budget = TrainerConfig::default(); // e_total = budget.epochs
//! let mut model = AdapTraj::new(budget, AdapTrajConfig::default(), &sources, |s, r, extra| {
//!     PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
//! });
//! // model.fit(&training_windows); model.predict(&window, &mut rng);
//! ```

pub mod config;
pub mod extractors;
pub mod heads;
pub mod losses;
pub mod model;

pub use config::{
    Ablation, AdapTrajConfig, AGGREGATOR_GROUP, AUX_GROUP, INVARIANT_GROUP, SPECIFIC_GROUP,
};
pub use extractors::{Aggregator, Features, InvariantExtractor, SpecificExtractor};
pub use heads::{DomainClassifier, ReconDecoder};
pub use model::{AdapTraj, FeatureDiagnostics};
