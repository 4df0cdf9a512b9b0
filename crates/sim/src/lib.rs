//! # adaptraj-sim
//!
//! A social-force multi-agent crowd simulator (Helbing & Molnár, 1995),
//! built as the data substrate for the AdapTraj (ICDE 2024) reproduction.
//!
//! The paper evaluates on four recorded pedestrian datasets (ETH&UCY,
//! L-CAS, SYI, SDD) that are unavailable offline. What matters for the
//! paper's *problem* — multi-source domain generalization — is that domains
//! exhibit (a) distinct motion statistics (Table I) and (b) the shared
//! interaction motifs that make "domain-invariant" features learnable:
//! collision avoidance, leader–follower dynamics, group formations, and
//! stationary crowds. This simulator produces both: the force model yields
//! the motifs, and [`scenario::ScenarioConfig`] exposes the knobs
//! (`speed`, `flow axis`, `density`, `corridors`) that `adaptraj-data`
//! calibrates per domain to match Table I.
//!
//! ```
//! use adaptraj_sim::{
//!     forces::ForceParams,
//!     scenario::{build_world, ScenarioConfig},
//! };
//!
//! let cfg = ScenarioConfig::default();
//! let mut world = build_world(&cfg, &ForceParams::default(), 0.1, 42);
//! let recording = world.run_record(100);
//! assert_eq!(recording.num_frames(), 101);
//! ```

pub mod agent;
pub mod forces;
pub mod recording;
pub mod scenario;
pub mod vec2;
pub mod world;

pub use agent::{Agent, AgentId, Role};
pub use forces::{ForceParams, Wall};
pub use recording::Recording;
pub use scenario::{build_world, FlowAxis, ScenarioConfig};
pub use vec2::Vec2;
pub use world::World;
