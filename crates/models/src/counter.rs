//! The Counter baseline (Chen et al., ICCV 2021): counterfactual analysis.
//!
//! Counter removes the model's dependence on *external factors* — the
//! influence of neighboring agents — by counterfactual intervention: it
//! contrasts the factual prediction `Y(X, E)` with a counterfactual
//! prediction `Y(X, ∅)` in which the neighbor clues are replaced by a
//! reference (here: an empty neighborhood), and subtracts the
//! neighbor-caused effect from the output. As the AdapTraj paper observes
//! (Sec. I and Tab. IV), this also discards the *legitimate* interaction
//! information, which is why Counter underperforms vanilla backbones in
//! multi-agent settings — an effect this implementation reproduces. The
//! extra counterfactual pass is also why its inference is slightly slower
//! (Tab. VIII).

use crate::backbone::EncodedScene;
use crate::config::TrainerConfig;
use crate::predictor::{cap_per_domain, Predictor, TrainReport};
use crate::trainer::Trainer;
use crate::traits::{sample_passes, Backbone, ForwardCtx};
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_data::WindowBatch;
use adaptraj_obs::{span, LossComponents};
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::{ParamStore, Rng, Tape};

/// Strength of the counterfactual subtraction (1.0 = fully remove the
/// neighbor-caused component, as described in the paper).
const CF_STRENGTH: f32 = 1.0;

/// A backbone trained and evaluated with counterfactual analysis.
pub struct Counter<B: Backbone> {
    backbone: B,
    store: ParamStore,
    cfg: TrainerConfig,
}

/// The counterfactual intervention: same focal history, reference
/// (empty) neighborhood.
fn counterfactual_of(w: &TrajWindow) -> TrajWindow {
    let mut cf = w.clone();
    cf.neighbors.clear();
    cf
}

impl<B: Backbone> Counter<B> {
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

    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter access (checkpoint loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl<B: Backbone> Predictor for Counter<B> {
    fn name(&self) -> String {
        format!("{}-Counter", self.backbone.name())
    }

    fn fit(&mut self, train: &[TrajWindow]) -> TrainReport {
        let windows = cap_per_domain(train, &self.cfg);
        let mut rng = Rng::seed_from(self.cfg.seed ^ 0xC0F);
        let mut opt = Adam::new(self.cfg.lr);
        let backbone = &self.backbone;
        // Both branches share parameters; the counterfactual branch trains
        // the model to predict well from individual clues alone.
        Trainer::new(&self.cfg).fit(
            &mut self.store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |store, tape, wb, (), rngs| {
                let mut ctx = ForwardCtx::train(store, tape, rngs);
                let (_, l_fact) = backbone.train_forward(&mut ctx, wb, None);
                // Same batch with every neighborhood replaced by the
                // reference; each window's rng stream simply continues
                // into its counterfactual pass.
                let cf: Vec<TrajWindow> =
                    wb.windows().iter().map(|w| counterfactual_of(w)).collect();
                let cf_batch = WindowBatch::new(cf.iter().collect(), wb.ids().to_vec());
                let (_, l_cf) = backbone.train_forward(&mut ctx, &cf_batch, None);
                let sum = ctx.tape.add(l_fact, l_cf);
                (ctx.tape.scale(sum, 0.5), LossComponents::default())
            },
        )
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Both scenes — factual and counterfactual — are encoded once; each
    /// sample then runs both generate passes on one shared latent draw.
    fn sample(&self, batch: &WindowBatch<'_>, rngs: &mut [Rng], k: usize) -> Vec<Vec<Vec<Point>>> {
        assert_eq!(batch.len(), rngs.len(), "one rng per batched window");
        let cf: Vec<TrajWindow> = batch
            .windows()
            .iter()
            .map(|w| counterfactual_of(w))
            .collect();
        let cf_batch = WindowBatch::new(cf.iter().collect(), batch.ids().to_vec());
        let store = &self.store;
        let backbone = &self.backbone;
        sample_passes(
            batch.len(),
            k,
            |tape| {
                let _p = span("encode");
                (
                    backbone.encode(store, tape, batch),
                    backbone.encode(store, tape, &cf_batch),
                )
            },
            |tape, (enc, enc_cf)| {
                // The factual and counterfactual passes share each
                // window's latent draw, so the subtraction isolates the
                // neighbor effect rather than sampling noise.
                let seeds: Vec<u64> = rngs
                    .iter_mut()
                    .map(|rng| ((rng.unit().to_bits() as u64) << 32) | rng.unit().to_bits() as u64)
                    .collect();
                let generate = |tape: &mut Tape, b: &WindowBatch<'_>, enc: &EncodedScene| {
                    let mut r: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();
                    let mut ctx = ForwardCtx::sample(store, tape, &mut r);
                    backbone.generate(&mut ctx, b, enc, None).pred
                };
                let y_fact = generate(tape, batch, enc);
                let y_cf = generate(tape, &cf_batch, enc_cf);
                // Y_final = Y(X,E) − β·(Y(X,E) − Y(X,∅)): subtract the
                // neighbor-caused component.
                let effect = tape.sub(y_fact, y_cf);
                let scaled = tape.scale(effect, CF_STRENGTH);
                tape.sub(y_fact, scaled)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackboneConfig;
    use crate::lbebm::Lbebm;
    use crate::pecnet::PecNet;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::{T_OBS, T_PRED, T_TOTAL};

    fn window_with_neighbor() -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [0.3 * t as f32, 0.0]).collect();
        let nb: Vec<Vec<Point>> = vec![(0..T_OBS).map(|t| [0.3 * t as f32, 0.8]).collect()];
        TrajWindow::from_world(&focal, &nb, DomainId::EthUcy)
    }

    #[test]
    fn counterfactual_strips_neighbors() {
        let w = window_with_neighbor();
        let cf = counterfactual_of(&w);
        assert_eq!(cf.neighbors.len(), 0);
        assert_eq!(cf.obs, w.obs);
        assert_eq!(cf.fut, w.fut);
    }

    #[test]
    fn fit_and_predict_pecnet() {
        let cfg = TrainerConfig {
            epochs: 3,
            ..TrainerConfig::smoke()
        };
        let mut model = Counter::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
        assert_eq!(model.name(), "PECNet-Counter");
        let train: Vec<TrajWindow> = (0..8).map(|_| window_with_neighbor()).collect();
        let report = model.fit(&train);
        assert_eq!(report.epoch_losses.len(), 3);
        let mut rng = Rng::seed_from(1);
        let pred = model.predict(&train[0], &mut rng);
        assert_eq!(pred.len(), T_PRED);
        assert!(pred.iter().all(|p| p[0].is_finite() && p[1].is_finite()));
    }

    #[test]
    fn counter_output_equals_counterfactual_branch() {
        // With β = 1, Y − (Y − Y_cf) = Y_cf: the output must be invariant
        // to the neighborhood (the defining property of the method).
        let cfg = TrainerConfig::smoke();
        let model = Counter::new(cfg, |s, r| Lbebm::new(s, r, BackboneConfig::default()));
        let w = window_with_neighbor();
        let mut w_other = w.clone();
        w_other.neighbors[0] = (0..T_OBS).map(|t| [0.3 * t as f32, -2.0]).collect();
        let mut r1 = Rng::seed_from(7);
        let mut r2 = Rng::seed_from(7);
        let p1 = model.predict(&w, &mut r1);
        let p2 = model.predict(&w_other, &mut r2);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a[0] - b[0]).abs() < 1e-4 && (a[1] - b[1]).abs() < 1e-4);
        }
    }
}
