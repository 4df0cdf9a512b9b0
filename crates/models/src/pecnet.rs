//! PECNet backbone (Mangalam et al., ECCV 2020), reduced-width.
//!
//! "It is not the journey but the destination": PECNet first infers the
//! trajectory *endpoint* with a conditional VAE, then predicts the full
//! future conditioned on that endpoint, with a non-local social layer
//! providing neighbor context. This implementation keeps that structure —
//! endpoint CVAE (train: posterior over ground-truth endpoints + KL;
//! inference: truncated prior sampling), attention interaction, and an
//! endpoint-conditioned rollout — at CPU-friendly widths, batched over
//! all windows of a job (`[B, ·]` rows; latent row `b` is drawn from
//! window `b`'s rng stream).

use crate::backbone::{
    batch_endpoint_tensor, EncodedScene, InteractionKind, RolloutDecoder, SceneEncoder,
    BACKBONE_GROUP,
};
use crate::config::BackboneConfig;
use crate::traits::{randn_per_window, Backbone, ForwardCtx, GenMode, Generation};
use adaptraj_data::WindowBatch;
use adaptraj_tensor::nn::{Activation, Mlp};
use adaptraj_tensor::{ParamStore, Rng, Tape, Var};

/// Weight of the endpoint reconstruction loss.
const ENDPOINT_WEIGHT: f32 = 1.0;
/// Weight of the CVAE KL term.
const KL_WEIGHT: f32 = 0.05;
/// Truncation of prior samples at inference (PECNet's "truncation trick").
const TRUNCATION: f32 = 1.5;

/// The PECNet backbone.
#[derive(Debug, Clone)]
pub struct PecNet {
    cfg: BackboneConfig,
    scene: SceneEncoder,
    /// Encodes the ground-truth endpoint for the CVAE posterior.
    endpoint_enc: Mlp,
    /// Produces `[mu | logvar]` from `[h_focal | endpoint_feat]`.
    latent: Mlp,
    /// Decodes `[h_focal | z] -> endpoint (2)`.
    endpoint_dec: Mlp,
    rollout: RolloutDecoder,
}

impl PecNet {
    pub fn new(store: &mut ParamStore, rng: &mut Rng, cfg: BackboneConfig) -> Self {
        let ep_feat = cfg.embed_dim;
        let scene = SceneEncoder::new(store, rng, "pecnet", &cfg, InteractionKind::Attention);
        let endpoint_enc = Mlp::new(
            store,
            rng,
            "pecnet.epenc",
            &[2, ep_feat],
            Activation::Relu,
            BACKBONE_GROUP,
        )
        .with_output_activation();
        let latent = Mlp::new(
            store,
            rng,
            "pecnet.latent",
            &[cfg.hidden_dim + ep_feat, 2 * cfg.z_dim],
            Activation::Relu,
            BACKBONE_GROUP,
        );
        let endpoint_dec = Mlp::new(
            store,
            rng,
            "pecnet.epdec",
            &[cfg.hidden_dim + cfg.z_dim, cfg.embed_dim, 2],
            Activation::Relu,
            BACKBONE_GROUP,
        );
        // Context: [h | P | endpoint (2) | extra].
        let ctx_dim = cfg.base_ctx_dim() + 2;
        let rollout = RolloutDecoder::new(store, rng, "pecnet.roll", &cfg, ctx_dim);
        Self {
            cfg,
            scene,
            endpoint_enc,
            latent,
            endpoint_dec,
            rollout,
        }
    }

    /// Infers the endpoints `[B, 2]`. In train mode returns the CVAE
    /// auxiliary loss (endpoint MSE + KL, both batch means) alongside; in
    /// sample mode draws truncated prior latents, one per window.
    fn infer_endpoint(
        &self,
        ctx: &mut ForwardCtx<'_>,
        batch: &WindowBatch<'_>,
        enc: &EncodedScene,
    ) -> (Var, Option<Var>) {
        let zd = self.cfg.z_dim;
        let b = batch.len();
        let store = ctx.store;
        match ctx.mode {
            GenMode::Train => {
                let tape = &mut *ctx.tape;
                let gt_ep = batch_endpoint_tensor(batch);
                let gt_var = tape.constant(gt_ep.clone());
                let ep_feat = self.endpoint_enc.forward(store, tape, gt_var);
                let joint = tape.concat_cols(&[enc.h_focal, ep_feat]);
                let stats = self.latent.forward(store, tape, joint); // [B, 2z]
                let mu = tape.slice_cols(stats, 0, zd);
                let logvar_raw = tape.slice_cols(stats, zd, 2 * zd);
                // Bound logvar to keep exp() well-behaved on a small tape.
                let logvar_t = tape.tanh(logvar_raw);
                let logvar = tape.scale(logvar_t, 3.0);
                // Reparameterized sample, row b from window b's rng.
                let half_logvar = tape.scale(logvar, 0.5);
                let std = tape.exp(half_logvar);
                let eps = tape.constant(randn_per_window(ctx.rngs, zd, 0.0, 1.0));
                let noise = tape.mul(std, eps);
                let z = tape.add(mu, noise);
                // Endpoint reconstruction (mse_to's mean over B·2 elements
                // is the batch mean of the per-window endpoint MSE).
                let dec_in = tape.concat_cols(&[enc.h_focal, z]);
                let ep_hat = self.endpoint_dec.forward(store, tape, dec_in);
                let ep_mse = tape.mse_to(ep_hat, &gt_ep);
                // KL(q || N(0, I)) = -0.5 Σ (1 + logσ² − μ² − σ²), summed
                // per window then averaged over the batch.
                let mu2 = tape.mul(mu, mu);
                let var = tape.exp(logvar);
                let one_plus = tape.add_scalar(logvar, 1.0);
                let inner = tape.sub(one_plus, mu2);
                let inner = tape.sub(inner, var);
                let kl_sum = tape.sum_all(inner);
                let kl = tape.scale(kl_sum, -0.5 / b as f32);
                let weighted_mse = tape.scale(ep_mse, ENDPOINT_WEIGHT);
                let weighted_kl = tape.scale(kl, KL_WEIGHT);
                let aux = tape.add(weighted_mse, weighted_kl);
                (ep_hat, Some(aux))
            }
            GenMode::Sample => {
                let mut z = randn_per_window(ctx.rngs, zd, 0.0, 1.0);
                for v in z.data_mut() {
                    *v = v.clamp(-TRUNCATION, TRUNCATION);
                }
                let tape = &mut *ctx.tape;
                let zv = tape.constant(z);
                let dec_in = tape.concat_cols(&[enc.h_focal, zv]);
                let ep_hat = self.endpoint_dec.forward(store, tape, dec_in);
                (ep_hat, None)
            }
        }
    }
}

impl Backbone for PecNet {
    fn name(&self) -> &'static str {
        "PECNet"
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
        batch: &WindowBatch<'_>,
        enc: &EncodedScene,
        extra: Option<Var>,
    ) -> Generation {
        assert_eq!(
            extra.is_some(),
            self.cfg.extra_dim > 0,
            "extra conditioning must match the configured extra_dim"
        );
        let (endpoint, aux_loss) = self.infer_endpoint(ctx, batch, enc);
        let mut parts = vec![enc.h_focal, enc.p_i, endpoint];
        if let Some(e) = extra {
            parts.push(e);
        }
        let cond = ctx.tape.concat_cols(&parts);
        let pred = self.rollout.rollout(ctx.store, ctx.tape, cond);
        Generation { pred, aux_loss }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_PRED, T_TOTAL};
    use adaptraj_tensor::optim::Adam;
    use adaptraj_tensor::param::GradBuffer;
    use adaptraj_tensor::Tensor;

    fn toy_window(vx: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [vx * t as f32, 0.0]).collect();
        let nb: Vec<Vec<Point>> = vec![(0..T_OBS).map(|t| [vx * t as f32, 1.5]).collect()];
        TrajWindow::from_world(&focal, &nb, DomainId::EthUcy)
    }

    #[test]
    fn shapes_and_finiteness() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let model = PecNet::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.4);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let mut ctx = ForwardCtx::train(&store, &mut tape, std::slice::from_mut(&mut rng));
        let (pred, loss) = model.train_forward(&mut ctx, &batch, None);
        assert_eq!(tape.value(pred).shape(), (T_PRED, 2));
        assert!(tape.value(loss).item().is_finite());

        let mut tape2 = Tape::new();
        let enc = model.encode(&store, &mut tape2, &batch);
        let mut ctx2 = ForwardCtx::sample(&store, &mut tape2, std::slice::from_mut(&mut rng));
        let sample = model.generate(&mut ctx2, &batch, &enc, None).pred;
        assert_eq!(tape2.value(sample).shape(), (T_PRED, 2));
    }

    #[test]
    fn batched_pass_covers_ragged_windows() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(9);
        let model = PecNet::new(&mut store, &mut rng, BackboneConfig::default());
        let solo: Vec<Point> = (0..T_TOTAL).map(|t| [0.2 * t as f32, 0.5]).collect();
        let ws = [
            toy_window(0.4),
            TrajWindow::from_world(&solo, &[], DomainId::Sdd),
            toy_window(0.1),
        ];
        let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1, 2]);
        let mut rngs: Vec<Rng> = (0..3).map(|i| Rng::seed_from(i as u64)).collect();
        let mut tape = Tape::new();
        let mut ctx = ForwardCtx::train(&store, &mut tape, &mut rngs);
        let (pred, loss) = model.train_forward(&mut ctx, &batch, None);
        assert_eq!(tape.value(pred).shape(), (T_PRED * 3, 2));
        assert!(tape.value(loss).item().is_finite());
        let grads = tape.backward(loss);
        assert!(tape.param_grads(&grads).iter().all(|(_, g)| g.all_finite()));
    }

    #[test]
    fn training_reduces_loss_on_fixed_window() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let model = PecNet::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.4);
        let mut opt = Adam::new(3e-3);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..120 {
            let batch = WindowBatch::single(&w, 0);
            let mut tape = Tape::new();
            let mut ctx = ForwardCtx::train(&store, &mut tape, std::slice::from_mut(&mut rng));
            let (_, loss) = model.train_forward(&mut ctx, &batch, None);
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
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn sampling_is_stochastic() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let model = PecNet::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.3);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let mut ctx = ForwardCtx::sample(&store, &mut tape, std::slice::from_mut(&mut rng));
        let s1 = model.generate(&mut ctx, &batch, &enc, None).pred;
        let s2 = model.generate(&mut ctx, &batch, &enc, None).pred;
        assert_ne!(
            tape.value(s1).data(),
            tape.value(s2).data(),
            "different latent draws must produce different futures"
        );
    }

    #[test]
    fn extra_conditioning_is_enforced_and_used() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let cfg = BackboneConfig::default().with_extra(6);
        let model = PecNet::new(&mut store, &mut rng, cfg);
        let w = toy_window(0.4);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let e1 = tape.constant(Tensor::zeros(1, 6));
        let e2 = tape.constant(Tensor::full(1, 6, 2.0));
        let mut ctx = ForwardCtx::sample(&store, &mut tape, std::slice::from_mut(&mut rng));
        let g1 = model.generate(&mut ctx, &batch, &enc, Some(e1));
        let g2 = model.generate(&mut ctx, &batch, &enc, Some(e2));
        assert_ne!(
            tape.value(g1.pred).data(),
            tape.value(g2.pred).data(),
            "extra features must influence the rollout"
        );
    }

    #[test]
    #[should_panic(expected = "extra conditioning must match")]
    fn missing_extra_panics() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let cfg = BackboneConfig::default().with_extra(6);
        let model = PecNet::new(&mut store, &mut rng, cfg);
        let w = toy_window(0.4);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let mut ctx = ForwardCtx::sample(&store, &mut tape, std::slice::from_mut(&mut rng));
        model.generate(&mut ctx, &batch, &enc, None);
    }
}
