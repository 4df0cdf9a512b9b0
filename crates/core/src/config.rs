//! AdapTraj hyperparameters (Sec. III-E and Alg. 1).

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
/// reported in the sensitivity analysis (Fig. 4). The training budget,
/// whose `epochs` is `e_total`, is the `TrainerConfig` handed to
/// [`AdapTraj::new`](crate::AdapTraj::new).
#[derive(Debug, Clone, PartialEq)]
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
    /// Fraction of `e_total` at which aggregator training begins (end of
    /// step 1, `e_start`).
    pub e_start_frac: f32,
    /// Fraction of `e_total` at which joint fine-tuning begins (end of
    /// step 2, `e_end`).
    pub e_end_frac: f32,
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
}

impl Default for AdapTrajConfig {
    fn default() -> Self {
        Self {
            feat_dim: 16,
            fused_dim: 16,
            alpha: 0.01,
            beta: 0.075,
            gamma: 0.25,
            delta: 0.5,
            delta_prime: 0.05,
            e_start_frac: 0.6,
            e_end_frac: 0.8,
            sigma: 0.7,
            f_low: 0.5,
            f_high: 2.0,
            distill_weight: 1.0,
            ablation: Ablation::default(),
        }
    }
}

impl AdapTrajConfig {
    /// Quick settings for unit tests: one epoch per step at the 3 epochs
    /// of `TrainerConfig::smoke()`.
    pub fn smoke() -> Self {
        Self {
            e_start_frac: 0.34,
            e_end_frac: 0.67,
            ..Default::default()
        }
    }

    /// The `extra_dim` the wrapped backbone must be constructed with.
    pub fn extra_dim(&self) -> usize {
        2 * self.fused_dim
    }

    /// The epochs of training step `step` (1, 2, or 3 per Alg. 1) out of
    /// `e_total`: `[0, e_start)`, `[e_start, e_end)` and `[e_end, e_total)`,
    /// with `e_start` and `e_end` the schedule fractions of `e_total`
    /// rounded to the nearest epoch. The one fraction-to-epoch conversion.
    pub fn step_epochs(&self, step: usize, e_total: usize) -> Range<usize> {
        let epoch = |frac: f32| ((e_total as f32) * frac).round() as usize;
        let e_end = epoch(self.e_end_frac).clamp(epoch(self.e_start_frac), e_total);
        let e_start = epoch(self.e_start_frac).min(e_end);
        match step {
            1 => 0..e_start,
            2 => e_start..e_end,
            3 => e_end..e_total,
            _ => unreachable!("steps are 1..=3"),
        }
    }

    /// Validates schedule consistency.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.e_start_frac)
                && (0.0..=1.0).contains(&self.e_end_frac)
                && self.e_start_frac <= self.e_end_frac,
            "schedule must satisfy 0 <= e_start_frac <= e_end_frac <= 1 ({} <= {})",
            self.e_start_frac,
            self.e_end_frac
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

    /// The `(e_total, e_start_frac, e_end_frac)` schedules in use: the
    /// smoke config and the golden micro-runs (also at 6 epochs in the
    /// model tests), perfbench (two step-1 epochs, then one each), the
    /// default and `tables --scale smoke` budgets, and the plug-and-play
    /// example.
    #[test]
    fn schedules_in_use_round_to_these_epochs() {
        for (e_total, e_start_frac, e_end_frac, steps) in [
            (3, 0.34, 0.67, [0..1, 1..2, 2..3]),
            (6, 0.34, 0.67, [0..2, 2..4, 4..6]),
            (4, 0.6, 0.8, [0..2, 2..3, 3..4]),
            (12, 0.6, 0.8, [0..7, 7..10, 10..12]),
            (36, 0.6, 0.8, [0..22, 22..29, 29..36]),
            (8, 0.75, 0.875, [0..6, 6..7, 7..8]),
        ] {
            let c = AdapTrajConfig {
                e_start_frac,
                e_end_frac,
                ..Default::default()
            };
            c.validate();
            let got = [1, 2, 3].map(|step| c.step_epochs(step, e_total));
            assert_eq!(
                got, steps,
                "{e_total} epochs at {e_start_frac}/{e_end_frac}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "schedule must satisfy")]
    fn validate_rejects_inverted_schedule() {
        let c = AdapTrajConfig {
            e_start_frac: 0.9,
            e_end_frac: 0.2,
            ..AdapTrajConfig::smoke()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "(1.5 <= 1.5)")]
    fn validate_rejects_a_fraction_past_the_budget() {
        let c = AdapTrajConfig {
            e_start_frac: 1.5,
            e_end_frac: 1.5,
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
