//! The `vanilla` learning method: plain backbone training on pooled data.

use crate::config::TrainerConfig;
use crate::predictor::{cap_per_domain, Predictor, TrainReport};
use crate::trainer::Trainer;
use crate::traits::{sample_backbone, Backbone, ForwardCtx};
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_data::WindowBatch;
use adaptraj_obs::LossComponents;
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::{ParamStore, Rng};

/// A backbone trained with nothing but `L_base` + its own auxiliary loss —
/// the paper's "vanilla" rows.
pub struct Vanilla<B: Backbone> {
    backbone: B,
    store: ParamStore,
    cfg: TrainerConfig,
}

impl<B: Backbone> Vanilla<B> {
    /// Builds the wrapper; `build` constructs the backbone into a fresh
    /// parameter store seeded from `cfg.seed`.
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

    pub fn backbone(&self) -> &B {
        &self.backbone
    }

    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter access (checkpoint loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl<B: Backbone> Predictor for Vanilla<B> {
    fn name(&self) -> String {
        format!("{}-vanilla", self.backbone.name())
    }

    fn fit(&mut self, train: &[TrajWindow]) -> TrainReport {
        let windows = cap_per_domain(train, &self.cfg);
        let mut rng = Rng::seed_from(self.cfg.seed ^ 0xF17);
        let mut opt = Adam::new(self.cfg.lr);
        let backbone = &self.backbone;
        Trainer::new(&self.cfg).fit(
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

    fn windows(n: usize, v: f32) -> Vec<TrajWindow> {
        (0..n)
            .map(|i| {
                let vi = v + i as f32 * 0.01;
                let focal: Vec<Point> = (0..T_TOTAL).map(|t| [vi * t as f32, 0.0]).collect();
                TrajWindow::from_world(&focal, &[], DomainId::EthUcy)
            })
            .collect()
    }

    #[test]
    fn fit_and_predict_end_to_end() {
        let cfg = TrainerConfig {
            epochs: 8,
            ..TrainerConfig::smoke()
        };
        let mut model = Vanilla::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
        assert_eq!(model.name(), "PECNet-vanilla");
        let train = windows(24, 0.3);
        let report = model.fit(&train);
        assert_eq!(report.epoch_losses.len(), 8);
        assert!(
            report.final_loss().unwrap() < report.epoch_losses[0],
            "training should reduce loss: {:?}",
            report.epoch_losses
        );
        let mut rng = Rng::seed_from(9);
        let pred = model.predict(&train[0], &mut rng);
        assert_eq!(pred.len(), T_PRED);
        // A trained model should roughly continue forward motion.
        assert!(pred.last().unwrap()[0] > 0.0, "prediction goes backwards");
    }

    #[test]
    fn predict_k_returns_k_samples() {
        let cfg = TrainerConfig::smoke();
        let model = Vanilla::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
        let train = windows(1, 0.3);
        let mut rng = Rng::seed_from(3);
        let samples = model.predict_k(&train[0], 5, &mut rng);
        assert_eq!(samples.len(), 5);
        assert_ne!(samples[0], samples[1], "samples must differ");
    }
}
