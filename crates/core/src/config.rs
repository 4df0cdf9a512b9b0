//! AdapTraj hyperparameters (Sec. III-E and Alg. 1).

use adaptraj_models::TrainerConfig;
use adaptraj_tensor::GroupId;
use std::ops::Range;

/// Parameter group of the domain-invariant extractor (V_ind, V_nei,
/// V_fuse).
pub const INVARIANT_GROUP: GroupId = GroupId(1);
/// Parameter group of the domain-specific extractors ({M_ind^k},
/// {M_nei^k}, M_fuse).
pub const SPECIFIC_GROUP: GroupId = GroupId(2);
/// Parameter group of the domain-specific aggregator (A_ind, A_nei).
pub const AGGREGATOR_GROUP: GroupId = GroupId(3);
/// Parameter group of the auxiliary heads (D_recon, D_class).
pub const AUX_GROUP: GroupId = GroupId(4);

/// Ablation switches (Sec. IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// `false` = the "w/o invariant" variant.
    pub use_invariant: bool,
    /// `false` = the "w/o specific" variant.
    pub use_specific: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Self {
            use_invariant: true,
            use_specific: true,
        }
    }
}

/// All AdapTraj hyperparameters. Loss weights α, β, γ default to the
/// paper's values (Sec. IV-A.4); the schedule fractions follow the shapes
/// reported in the sensitivity analysis (Fig. 4).
#[derive(Debug, Clone)]
pub struct AdapTrajConfig {
    /// Width of each extracted feature (H_i^i, H_ℰ^i, H_i^s, H_ℰ^s).
    pub feat_dim: usize,
    /// Width of each fused feature (H^i, H^s). The backbone's
    /// `extra_dim` must equal `2 * fused_dim`.
    pub fused_dim: usize,
    /// Weight of `L_recon` (paper: 0.01).
    pub alpha: f32,
    /// Weight of `L_diff` (paper: 0.075).
    pub beta: f32,
    /// Weight of `L_similar` (paper: 0.25).
    pub gamma: f32,
    /// Domain weight δ on `L_ours` in step 1 (Eq. 23).
    pub delta: f32,
    /// Reduced domain weight δ' in steps 2–3 (Eq. 25).
    pub delta_prime: f32,
    /// Epoch at which aggregator training begins (end of step 1).
    pub e_start: usize,
    /// Epoch at which joint fine-tuning begins (end of step 2).
    pub e_end: usize,
    /// Aggregator ratio σ: probability of masking the domain label in
    /// steps 2–3 (teacher–student).
    pub sigma: f32,
    /// Learning-rate fraction for non-aggregator modules in steps 2–3.
    pub f_low: f32,
    /// Learning-rate fraction for the aggregator in step 2.
    pub f_high: f32,
    /// Weight of the teacher–student distillation term pulling the
    /// aggregator's output toward the true domain's expert output on
    /// masked samples (the Sec. III-D teacher–student process).
    pub distill_weight: f32,
    /// Ablation switches.
    pub ablation: Ablation,
    /// Base optimization settings (`epochs` here is `e_total`).
    pub trainer: TrainerConfig,
}

impl Default for AdapTrajConfig {
    fn default() -> Self {
        let trainer = TrainerConfig::default();
        let e_total = trainer.epochs;
        Self {
            feat_dim: 16,
            fused_dim: 16,
            alpha: 0.01,
            beta: 0.075,
            gamma: 0.25,
            delta: 0.5,
            delta_prime: 0.05,
            e_start: e_total * 2 / 5,
            e_end: e_total * 7 / 10,
            sigma: 0.7,
            f_low: 0.5,
            f_high: 2.0,
            distill_weight: 1.0,
            ablation: Ablation::default(),
            trainer,
        }
    }
}

impl AdapTrajConfig {
    /// Quick settings for unit tests.
    pub fn smoke() -> Self {
        let trainer = TrainerConfig::smoke();
        let e_total = trainer.epochs.max(3);
        Self {
            trainer: TrainerConfig {
                epochs: e_total,
                ..trainer
            },
            e_start: e_total / 3,
            e_end: e_total * 2 / 3,
            ..Default::default()
        }
    }

    /// Total epochs `e_total`.
    pub fn e_total(&self) -> usize {
        self.trainer.epochs
    }

    /// The `extra_dim` the wrapped backbone must be constructed with.
    pub fn extra_dim(&self) -> usize {
        2 * self.fused_dim
    }

    /// The epochs of training step `step` (1, 2, or 3 per Alg. 1):
    /// `[0, e_start)`, `[e_start, e_end)` and `[e_end, e_total)`.
    pub fn step_epochs(&self, step: usize) -> Range<usize> {
        match step {
            1 => 0..self.e_start,
            2 => self.e_start..self.e_end,
            3 => self.e_end..self.e_total(),
            _ => unreachable!("steps are 1..=3"),
        }
    }

    /// Validates schedule consistency.
    pub fn validate(&self) {
        assert!(
            self.e_start <= self.e_end && self.e_end <= self.e_total(),
            "schedule must satisfy e_start <= e_end <= e_total ({} <= {} <= {})",
            self.e_start,
            self.e_end,
            self.e_total()
        );
        assert!((0.0..=1.0).contains(&self.sigma), "sigma in [0,1]");
        assert!(self.feat_dim > 0 && self.fused_dim > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_loss_weights() {
        let c = AdapTrajConfig::default();
        assert_eq!(c.alpha, 0.01);
        assert_eq!(c.beta, 0.075);
        assert_eq!(c.gamma, 0.25);
        c.validate();
    }

    #[test]
    fn step_boundaries() {
        let c = AdapTrajConfig {
            e_start: 2,
            e_end: 4,
            trainer: TrainerConfig {
                epochs: 6,
                ..TrainerConfig::smoke()
            },
            ..Default::default()
        };
        assert_eq!(c.step_epochs(1), 0..2);
        assert_eq!(c.step_epochs(2), 2..4);
        assert_eq!(c.step_epochs(3), 4..6);
    }

    #[test]
    #[should_panic(expected = "schedule must satisfy")]
    fn validate_rejects_inverted_schedule() {
        let c = AdapTrajConfig {
            e_start: 10,
            e_end: 2,
            ..AdapTrajConfig::smoke()
        };
        c.validate();
    }

    #[test]
    fn extra_dim_is_two_fused() {
        assert_eq!(AdapTrajConfig::default().extra_dim(), 32);
    }

    #[test]
    fn groups_are_distinct() {
        use adaptraj_models::BACKBONE_GROUP;
        let all = [
            BACKBONE_GROUP,
            INVARIANT_GROUP,
            SPECIFIC_GROUP,
            AGGREGATOR_GROUP,
            AUX_GROUP,
        ];
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }
}
