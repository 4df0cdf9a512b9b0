//! Social-LSTM-style backbone (Alahi et al., CVPR 2016), the classic
//! pooling-based predictor the paper's backbone skeleton (Fig. 1)
//! directly describes: LSTM mobility encoder, social pooling interaction,
//! and a plain Gaussian latent for diversity (Eq. 5's `z`).
//!
//! Included as a third plug-in backbone to demonstrate (and test) that
//! AdapTraj's plug-and-play contract extends beyond the two backbones
//! evaluated in the paper.

use crate::backbone::{EncodedScene, InteractionKind, RolloutDecoder, SceneEncoder};
use crate::config::BackboneConfig;
use crate::traits::{randn_per_window, Backbone, ForwardCtx, Generation};
use adaptraj_data::WindowBatch;
use adaptraj_tensor::{ParamStore, Rng, Tape, Var};

/// The Social-LSTM-style backbone.
#[derive(Debug, Clone)]
pub struct SocialLstm {
    cfg: BackboneConfig,
    scene: SceneEncoder,
    rollout: RolloutDecoder,
}

impl SocialLstm {
    pub fn new(store: &mut ParamStore, rng: &mut Rng, cfg: BackboneConfig) -> Self {
        let scene = SceneEncoder::new(store, rng, "slstm", &cfg, InteractionKind::MeanPool);
        // Context: [h | P | z | extra].
        let ctx_dim = cfg.base_ctx_dim() + cfg.z_dim;
        let rollout = RolloutDecoder::new(store, rng, "slstm.roll", &cfg, ctx_dim);
        Self {
            cfg,
            scene,
            rollout,
        }
    }
}

impl Backbone for SocialLstm {
    fn name(&self) -> &'static str {
        "SocialLSTM"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    fn encode(&self, store: &ParamStore, tape: &mut Tape, batch: &WindowBatch<'_>) -> EncodedScene {
        self.scene.encode(store, tape, batch)
    }

    fn generate(
        &self,
        ctx: &mut ForwardCtx<'_>,
        _batch: &WindowBatch<'_>,
        enc: &EncodedScene,
        extra: Option<Var>,
    ) -> Generation {
        assert_eq!(
            extra.is_some(),
            self.cfg.extra_dim > 0,
            "extra conditioning must match the configured extra_dim"
        );
        // A plain Gaussian latent in both modes: Social-LSTM has no
        // learned latent space; diversity comes from input noise (Eq. 5).
        // Row b is drawn from window b's rng stream.
        let z_rows = randn_per_window(ctx.rngs, self.cfg.z_dim, 0.0, 1.0);
        let tape = &mut *ctx.tape;
        let z = tape.constant(z_rows);
        let mut parts = vec![enc.h_focal, enc.p_i, z];
        if let Some(e) = extra {
            parts.push(e);
        }
        let cond = tape.concat_cols(&parts);
        let pred = self.rollout.rollout(ctx.store, tape, cond);
        Generation {
            pred,
            aux_loss: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Predictor;
    use crate::vanilla::Vanilla;
    use crate::TrainerConfig;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::{Point, TrajWindow, T_PRED, T_TOTAL};
    use adaptraj_tensor::optim::Adam;
    use adaptraj_tensor::{GradBuffer, Tensor};

    fn toy_window(v: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [v * t as f32, 0.0]).collect();
        TrajWindow::from_world(&focal, &[], DomainId::EthUcy)
    }

    #[test]
    fn shapes_and_training_descend() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let model = SocialLstm::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.4);
        let mut opt = Adam::new(3e-3);
        let (mut first, mut last) = (0.0, 0.0);
        for it in 0..100 {
            let batch = WindowBatch::single(&w, 0);
            let mut tape = Tape::new();
            let mut ctx = ForwardCtx::train(&store, &mut tape, std::slice::from_mut(&mut rng));
            let (pred, loss) = model.train_forward(&mut ctx, &batch, None);
            assert_eq!(tape.value(pred).shape(), (T_PRED, 2));
            let grads = tape.backward(loss);
            let mut buf = GradBuffer::new();
            buf.absorb(&tape, &grads);
            buf.clip_global_norm(5.0);
            opt.step(&mut store, &buf);
            let v = tape.value(loss).item();
            if it == 0 {
                first = v;
            }
            last = v;
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn batched_training_pass_works() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        let model = SocialLstm::new(&mut store, &mut rng, BackboneConfig::default());
        let ws: Vec<TrajWindow> = (0..4).map(|i| toy_window(0.1 + 0.1 * i as f32)).collect();
        let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1, 2, 3]);
        let mut rngs: Vec<Rng> = (0..4).map(|i| Rng::seed_from(i as u64)).collect();
        let mut tape = Tape::new();
        let mut ctx = ForwardCtx::train(&store, &mut tape, &mut rngs);
        let (pred, loss) = model.train_forward(&mut ctx, &batch, None);
        assert_eq!(tape.value(pred).shape(), (T_PRED * 4, 2));
        assert!(tape.value(loss).item().is_finite());
    }

    #[test]
    fn works_under_vanilla_wrapper() {
        let mut model = Vanilla::new(TrainerConfig::smoke(), |s, r| {
            SocialLstm::new(s, r, BackboneConfig::default())
        });
        assert_eq!(model.name(), "SocialLSTM-vanilla");
        let train: Vec<TrajWindow> = (0..8).map(|i| toy_window(0.2 + i as f32 * 0.02)).collect();
        let report = model.fit(&train);
        assert!(report.final_loss().unwrap().is_finite());
        let mut rng = Rng::seed_from(1);
        assert_eq!(model.predict(&train[0], &mut rng).len(), T_PRED);
    }

    #[test]
    fn sampling_is_stochastic() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let model = SocialLstm::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.3);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let mut ctx = ForwardCtx::sample(&store, &mut tape, std::slice::from_mut(&mut rng));
        let a = model.generate(&mut ctx, &batch, &enc, None).pred;
        let b = model.generate(&mut ctx, &batch, &enc, None).pred;
        assert_ne!(tape.value(a).data(), tape.value(b).data());
    }

    #[test]
    fn plugs_into_adaptraj_extra_contract() {
        // The backbone honors the extra-conditioning contract AdapTraj
        // relies on.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let cfg = BackboneConfig::default().with_extra(6);
        let model = SocialLstm::new(&mut store, &mut rng, cfg);
        let w = toy_window(0.4);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let e1 = tape.constant(Tensor::zeros(1, 6));
        let e2 = tape.constant(Tensor::full(1, 6, 2.0));
        let mut ctx = ForwardCtx::sample(&store, &mut tape, std::slice::from_mut(&mut rng));
        let g1 = model.generate(&mut ctx, &batch, &enc, Some(e1));
        let g2 = model.generate(&mut ctx, &batch, &enc, Some(e2));
        assert_ne!(tape.value(g1.pred).data(), tape.value(g2.pred).data());
    }
}
