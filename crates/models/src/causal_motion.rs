//! The CausalMotion baseline (Liu et al., CVPR 2022): invariance loss.
//!
//! CausalMotion suppresses spurious (style/domain-specific) correlations
//! with an invariance penalty across training environments, in the spirit
//! of IRM / V-REx: the per-environment risks should be equal, so the
//! variance of risks is penalized. The method is designed for a *single*
//! source domain, so — following the AdapTraj paper's experimental
//! protocol — all source data is pooled and environments are formed as
//! random batch halves. Without true domain structure the penalty mostly
//! injects gradient noise and suppresses useful (but domain-looking)
//! signal, which is why CausalMotion degrades markedly in the multi-source
//! setting (Tab. III/IV) — the behaviour this implementation reproduces.
//!
//! Training runs on the shared [`Trainer`] loop; the only difference from
//! the vanilla method is [`Trainer::risk_variance`], which assembles the
//! V-REx update from the two halves' gradients.

use crate::config::TrainerConfig;
use crate::predictor::{cap_per_domain, Predictor, TrainReport};
use crate::trainer::Trainer;
use crate::traits::{sample_backbone, Backbone, ForwardCtx};
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_data::WindowBatch;
use adaptraj_obs::LossComponents;
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::{ParamStore, Rng};

/// Weight of the risk-variance (V-REx style) invariance penalty.
const INVARIANCE_WEIGHT: f32 = 2.0;

/// A backbone trained with the invariance-loss learning method.
pub struct CausalMotion<B: Backbone> {
    backbone: B,
    store: ParamStore,
    cfg: TrainerConfig,
}

impl<B: Backbone> CausalMotion<B> {
    pub fn new(cfg: TrainerConfig, build: impl FnOnce(&mut ParamStore, &mut Rng) -> B) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(cfg.seed);
        let backbone = build(&mut store, &mut rng);
        Self {
            backbone,
            store,
            cfg,
        }
    }
}

impl<B: Backbone> Predictor for CausalMotion<B> {
    fn name(&self) -> String {
        format!("{}-CausalMotion", self.backbone.name())
    }

    fn fit(&mut self, train: &[TrajWindow]) -> TrainReport {
        let windows = cap_per_domain(train, &self.cfg);
        let mut rng = Rng::seed_from(self.cfg.seed ^ 0xCA5);
        let mut opt = Adam::new(self.cfg.lr);
        let backbone = &self.backbone;
        Trainer::new(&self.cfg)
            .risk_variance(INVARIANCE_WEIGHT)
            .fit(
                &mut self.store,
                &mut opt,
                &windows,
                &mut rng,
                |_| (),
                |store, tape, wb, (), rngs| {
                    let mut ctx = ForwardCtx::train(store, tape, rngs);
                    let loss = backbone.train_forward(&mut ctx, wb, None).1;
                    (loss, LossComponents::default())
                },
            )
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Inference is architecturally identical to vanilla (the paper notes
    /// near-identical inference time for CausalMotion).
    fn sample(&self, batch: &WindowBatch<'_>, rngs: &mut [Rng], k: usize) -> Vec<Vec<Vec<Point>>> {
        sample_backbone(&self.backbone, &self.store, batch, rngs, k, |_, _| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackboneConfig;
    use crate::pecnet::PecNet;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::{T_PRED, T_TOTAL};

    fn windows(n: usize) -> Vec<TrajWindow> {
        (0..n)
            .map(|i| {
                let v = 0.2 + (i % 5) as f32 * 0.05;
                let focal: Vec<Point> = (0..T_TOTAL).map(|t| [v * t as f32, 0.0]).collect();
                TrajWindow::from_world(&focal, &[], DomainId::Sdd)
            })
            .collect()
    }

    #[test]
    fn fit_and_predict() {
        let cfg = TrainerConfig {
            epochs: 4,
            ..TrainerConfig::smoke()
        };
        let mut model = CausalMotion::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
        assert_eq!(model.name(), "PECNet-CausalMotion");
        let train = windows(16);
        let report = model.fit(&train);
        assert_eq!(report.epoch_losses.len(), 4);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        let mut rng = Rng::seed_from(0);
        let pred = model.predict(&train[0], &mut rng);
        assert_eq!(pred.len(), T_PRED);
    }

    #[test]
    fn training_still_descends_despite_penalty() {
        let cfg = TrainerConfig {
            epochs: 10,
            ..TrainerConfig::smoke()
        };
        let mut model = CausalMotion::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
        let train = windows(24);
        let report = model.fit(&train);
        assert!(
            report.final_loss().unwrap() < report.epoch_losses[0],
            "{:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn patience_stops_a_run_that_cannot_improve() {
        // With lr 0 no step moves a parameter; only the per-epoch latent
        // draws move the loss, and at this seed epochs 1–3 all score above
        // epoch 0, so three stale epochs end the run.
        let cfg = TrainerConfig {
            epochs: 10,
            lr: 0.0,
            patience: 3,
            ..TrainerConfig::smoke()
        };
        let mut model = CausalMotion::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
        let report = model.fit(&windows(16));
        assert_eq!(report.epochs.len(), 4, "{:?}", report.epoch_losses);
        assert!(report.epochs[3].early_stop);
    }
}
