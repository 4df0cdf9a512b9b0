//! LBEBM backbone (Pang et al., CVPR 2021), reduced-width.
//!
//! Trajectory prediction with a *latent belief energy-based model*: a
//! low-dimensional plan latent `z` whose prior is an EBM over the social
//! context, sampled by short-run Langevin MCMC. Training uses an amortized
//! posterior (reparameterized) for reconstruction plus a contrastive
//! energy loss that pushes posterior latents to low energy and short-run
//! prior samples to high energy. Inference draws `z` by running Langevin
//! dynamics on the learned energy landscape — which is why LBEBM's
//! inference is measurably slower than PECNet's in Table VIII, an effect
//! this implementation reproduces (each Langevin step is an extra
//! energy-network forward/backward).
//!
//! Batched: the posterior, the Langevin chains, and the energy head all
//! run over `[B, ·]` rows at once. Per-row energies are independent, so
//! one `sum_all` backward on the inner tape yields every chain's
//! `∂E/∂z` in a single pass.

use crate::backbone::{
    batch_fut_flat_tensor, EncodedScene, InteractionKind, RolloutDecoder, SceneEncoder,
    BACKBONE_GROUP,
};
use crate::config::BackboneConfig;
use crate::traits::{randn_per_window, Backbone, ForwardCtx, GenMode, Generation};
use adaptraj_data::trajectory::T_PRED;
use adaptraj_data::WindowBatch;
use adaptraj_tensor::nn::{Activation, Mlp};
use adaptraj_tensor::{ParamStore, Rng, Tape, Tensor, Var};

/// Langevin steps for short-run MCMC sampling of the plan latent.
const LANGEVIN_STEPS: usize = 4;
/// Langevin step size.
const LANGEVIN_STEP_SIZE: f32 = 0.2;
/// Weight of the contrastive energy loss.
const ENERGY_WEIGHT: f32 = 0.1;
/// Weight of the Gaussian regularization on posterior latents. Strong
/// enough to keep the posterior near the region short-run Langevin
/// sampling reaches at inference — with a looser posterior the decoder
/// over-relies on future-informed latents it will never see again.
const KL_WEIGHT: f32 = 0.15;

/// The LBEBM backbone.
#[derive(Debug, Clone)]
pub struct Lbebm {
    cfg: BackboneConfig,
    scene: SceneEncoder,
    /// Amortized posterior: `[h_focal | future_flat] -> [mu | logvar]`.
    posterior: Mlp,
    /// Energy head: `[z | h_focal | P_i] -> scalar energy per row`.
    energy: Mlp,
    rollout: RolloutDecoder,
}

impl Lbebm {
    pub fn new(store: &mut ParamStore, rng: &mut Rng, cfg: BackboneConfig) -> Self {
        let scene = SceneEncoder::new(store, rng, "lbebm", &cfg, InteractionKind::MeanPool);
        let posterior = Mlp::new(
            store,
            rng,
            "lbebm.post",
            &[cfg.hidden_dim + T_PRED * 2, cfg.hidden_dim, 2 * cfg.z_dim],
            Activation::Relu,
            BACKBONE_GROUP,
        );
        let energy = Mlp::new(
            store,
            rng,
            "lbebm.energy",
            &[
                cfg.z_dim + cfg.hidden_dim + cfg.inter_dim,
                cfg.hidden_dim,
                1,
            ],
            Activation::Relu,
            BACKBONE_GROUP,
        );
        // Context: [h | P | extra | z].
        let rollout = RolloutDecoder::new(store, rng, "lbebm.roll", &cfg, cfg.z_dim);
        Self {
            cfg,
            scene,
            posterior,
            energy,
            rollout,
        }
    }

    /// Energy of a batch of latents `[B, z]` given frozen context values,
    /// on a private tape; returns the gradient w.r.t. `z` (for Langevin,
    /// `[B, z]` — rows are independent) and the total energy value.
    fn energy_grad(&self, store: &ParamStore, z: &Tensor, h: &Tensor, p: &Tensor) -> (Tensor, f32) {
        let mut tape = Tape::new();
        let zv = tape.input(z.clone());
        let hv = tape.constant(h.clone());
        let pv = tape.constant(p.clone());
        let joint = tape.concat_cols(&[zv, hv, pv]);
        let e = self.energy.forward(store, &mut tape, joint);
        let e = tape.sum_all(e);
        let grads = tape.backward(e);
        (grads.expect(zv).clone(), tape.value(e).item())
    }

    /// Short-run Langevin MCMC on pre-drawn [`Backbone::sample_draws`]
    /// rows, one chain per row: start from the init block, then
    /// `z ← z − s/2 · ∂E/∂z + √s · ε` per step with step `i`'s `√s · ε`
    /// from noise block `i`, all chains stepped jointly.
    fn langevin(&self, store: &ParamStore, h: &Tensor, p: &Tensor, draws: &Tensor) -> Tensor {
        let zd = self.cfg.z_dim;
        let block = |i: usize| draws.slice_cols(i * zd, (i + 1) * zd);
        let s = LANGEVIN_STEP_SIZE;
        let mut z = block(0);
        for i in 0..LANGEVIN_STEPS {
            let (grad, _) = self.energy_grad(store, &z, h, p);
            z.axpy(-s / 2.0, &grad);
            z.axpy(1.0, &block(i + 1));
            // Keep the chains in a sane region early in training.
            for v in z.data_mut() {
                *v = v.clamp(-4.0, 4.0);
            }
        }
        z
    }
}

impl Backbone for Lbebm {
    fn name(&self) -> &'static str {
        "LBEBM"
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
        let zd = self.cfg.z_dim;
        let store = ctx.store;
        let (z, aux_loss) = match &mut ctx.mode {
            GenMode::Train(rngs) => {
                // Posterior samples, one per window row.
                let tape = &mut *ctx.tape;
                let fut = tape.constant(batch_fut_flat_tensor(batch));
                let joint = tape.concat_cols(&[enc.h_focal, fut]);
                let stats = self.posterior.forward(store, tape, joint);
                let mu = tape.slice_cols(stats, 0, zd);
                let logvar_raw = tape.slice_cols(stats, zd, 2 * zd);
                let logvar_t = tape.tanh(logvar_raw);
                let logvar = tape.scale(logvar_t, 3.0);
                let half = tape.scale(logvar, 0.5);
                let std = tape.exp(half);
                let eps = tape.constant(randn_per_window(rngs, zd, 0.0, 1.0));
                let noise = tape.mul(std, eps);
                let z_pos = tape.add(mu, noise);

                // Contrastive energy: posterior latents low, short-run
                // prior samples high. The negative samples are detached
                // (constants) — only the energy head learns from them.
                // Everything is kept per-row (`[B, 1]`) until the final
                // mean so per-window squares regularize correctly.
                let h_val = tape.value(enc.h_focal).clone();
                let p_val = tape.value(enc.p_i).clone();
                let draws: Vec<Tensor> = rngs.iter_mut().map(|r| self.sample_draws(r)).collect();
                let draws = Tensor::concat_rows(&draws.iter().collect::<Vec<_>>());
                let z_neg = self.langevin(store, &h_val, &p_val, &draws);
                let joint_pos = tape.concat_cols(&[z_pos, enc.h_focal, enc.p_i]);
                let e_pos = self.energy.forward(store, tape, joint_pos); // [B, 1]
                let z_neg_var = tape.constant(z_neg);
                let joint_neg = tape.concat_cols(&[z_neg_var, enc.h_focal, enc.p_i]);
                let e_neg = self.energy.forward(store, tape, joint_neg); // [B, 1]
                let contrast = tape.sub(e_pos, e_neg);
                // Bound energies so the contrastive objective cannot run
                // away (standard magnitude regularization).
                let ep2 = tape.mul(e_pos, e_pos);
                let en2 = tape.mul(e_neg, e_neg);
                let reg = tape.add(ep2, en2);
                let reg = tape.scale(reg, 0.01);
                let energy_term = tape.add(contrast, reg);
                let energy_rows = tape.scale(energy_term, ENERGY_WEIGHT); // [B, 1]

                // Weak Gaussian prior regularization on the posterior,
                // summed over z per window.
                let mu2 = tape.mul(mu, mu);
                let var = tape.exp(logvar);
                let one_plus = tape.add_scalar(logvar, 1.0);
                let inner = tape.sub(one_plus, mu2);
                let inner = tape.sub(inner, var); // [B, z]
                let ones_z = tape.constant(Tensor::ones(zd, 1));
                let kl_rows_raw = tape.matmul(inner, ones_z); // [B, 1]
                let kl_rows = tape.scale(kl_rows_raw, -0.5 * KL_WEIGHT);

                let aux_rows = tape.add(energy_rows, kl_rows); // [B, 1]
                let aux = tape.mean_rows(aux_rows); // batch mean, [1, 1]
                (z_pos, Some(aux))
            }
            GenMode::Sample(draws) => {
                let (h_val, p_val) = {
                    let tape = &*ctx.tape;
                    (tape.value(enc.h_focal).clone(), tape.value(enc.p_i).clone())
                };
                let z = self.langevin(store, &h_val, &p_val, draws);
                (ctx.tape.constant(z), None)
            }
        };

        let tape = &mut *ctx.tape;
        let mut parts = vec![enc.h_focal, enc.p_i];
        parts.extend(extra);
        parts.push(z);
        let cond = tape.concat_cols(&parts);
        let pred = self.rollout.rollout(store, tape, cond);
        Generation { pred, aux_loss }
    }

    /// The Langevin chain's initialization row, then one noise row per
    /// step, side by side.
    fn sample_draws(&self, rng: &mut Rng) -> Tensor {
        let zd = self.cfg.z_dim;
        let mut parts = vec![Tensor::randn(1, zd, 0.0, 1.0, rng)];
        for _ in 0..LANGEVIN_STEPS {
            parts.push(Tensor::randn(1, zd, 0.0, LANGEVIN_STEP_SIZE.sqrt(), rng));
        }
        Tensor::concat_cols(&parts.iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_TOTAL};
    use adaptraj_tensor::optim::Adam;
    use adaptraj_tensor::param::GradBuffer;

    fn toy_window(vx: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [vx * t as f32, 0.0]).collect();
        let nb: Vec<Vec<Point>> = vec![(0..T_OBS).map(|t| [vx * t as f32, -1.5]).collect()];
        TrajWindow::from_world(&focal, &nb, DomainId::Sdd)
    }

    #[test]
    fn shapes_and_finiteness() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let model = Lbebm::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.4);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let mut ctx = ForwardCtx::train(&store, &mut tape, std::slice::from_mut(&mut rng));
        let (pred, loss) = model.train_forward(&mut ctx, &batch, None);
        assert_eq!(tape.value(pred).shape(), (T_PRED, 2));
        assert!(tape.value(loss).item().is_finite());
        let mut t2 = Tape::new();
        let enc = model.encode(&store, &mut t2, &batch);
        let draws = model.sample_draws(&mut rng);
        let mut c2 = ForwardCtx::sample(&store, &mut t2, &draws);
        let s = model.generate(&mut c2, &batch, &enc, None).pred;
        assert_eq!(t2.value(s).shape(), (T_PRED, 2));
    }

    #[test]
    fn batched_pass_covers_ragged_windows() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(8);
        let model = Lbebm::new(&mut store, &mut rng, BackboneConfig::default());
        let solo: Vec<Point> = (0..T_TOTAL).map(|t| [0.1 * t as f32, -0.2]).collect();
        let ws = [
            toy_window(0.4),
            TrajWindow::from_world(&solo, &[], DomainId::Sdd),
        ];
        let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1]);
        let mut rngs: Vec<Rng> = (0..2).map(|i| Rng::seed_from(100 + i as u64)).collect();
        let mut tape = Tape::new();
        let mut ctx = ForwardCtx::train(&store, &mut tape, &mut rngs);
        let (pred, loss) = model.train_forward(&mut ctx, &batch, None);
        assert_eq!(tape.value(pred).shape(), (T_PRED * 2, 2));
        assert!(tape.value(loss).item().is_finite());
        let grads = tape.backward(loss);
        assert!(tape.param_grads(&grads).iter().all(|(_, g)| g.all_finite()));
    }

    #[test]
    fn training_reduces_loss_on_fixed_window() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let model = Lbebm::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.4);
        let mut opt = Adam::new(3e-3);
        let (mut first, mut last) = (0.0, 0.0);
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
        assert!(last < first * 0.6, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn langevin_descends_energy_in_expectation() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let model = Lbebm::new(&mut store, &mut rng, BackboneConfig::default());
        let h = Tensor::randn(1, model.cfg.hidden_dim, 0.0, 1.0, &mut rng);
        let p = Tensor::randn(1, model.cfg.inter_dim, 0.0, 1.0, &mut rng);
        // Average over chains: Langevin should not *increase* energy much
        // relative to the init (it adds noise, so per-chain it can).
        let mut e0_sum = 0.0;
        let mut e1_sum = 0.0;
        for _ in 0..16 {
            let z0 = Tensor::randn(1, model.cfg.z_dim, 0.0, 1.0, &mut rng);
            let (_, e0) = model.energy_grad(&store, &z0, &h, &p);
            let draws = model.sample_draws(&mut rng);
            let z1 = model.langevin(&store, &h, &p, &draws);
            let (_, e1) = model.energy_grad(&store, &z1, &h, &p);
            e0_sum += e0;
            e1_sum += e1;
        }
        assert!(
            e1_sum <= e0_sum + 1.0,
            "Langevin chains drifting uphill: {e0_sum} -> {e1_sum}"
        );
    }

    #[test]
    fn sampling_is_stochastic() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let model = Lbebm::new(&mut store, &mut rng, BackboneConfig::default());
        let w = toy_window(0.2);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let d1 = model.sample_draws(&mut rng);
        let d2 = model.sample_draws(&mut rng);
        let s1 = model
            .generate(
                &mut ForwardCtx::sample(&store, &mut tape, &d1),
                &batch,
                &enc,
                None,
            )
            .pred;
        let s2 = model
            .generate(
                &mut ForwardCtx::sample(&store, &mut tape, &d2),
                &batch,
                &enc,
                None,
            )
            .pred;
        assert_ne!(tape.value(s1).data(), tape.value(s2).data());
    }

    #[test]
    fn extra_conditioning_is_used() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let cfg = BackboneConfig::default().with_extra(5);
        let model = Lbebm::new(&mut store, &mut rng, cfg);
        let w = toy_window(0.4);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let enc = model.encode(&store, &mut tape, &batch);
        let e1 = tape.constant(Tensor::zeros(1, 5));
        let e2 = tape.constant(Tensor::full(1, 5, 3.0));
        let draws = model.sample_draws(&mut rng);
        let mut ctx = ForwardCtx::sample(&store, &mut tape, &draws);
        let g1 = model.generate(&mut ctx, &batch, &enc, Some(e1));
        let g2 = model.generate(&mut ctx, &batch, &enc, Some(e2));
        assert_ne!(tape.value(g1.pred).data(), tape.value(g2.pred).data());
    }
}
