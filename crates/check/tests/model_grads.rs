//! End-to-end gradient verification: each backbone's full training loss,
//! CausalMotion's V-REx gradient assembly, and AdapTraj's three-step
//! objective, all checked against central finite differences on tiny
//! fixed-seed windows.
//!
//! Two intentional forward/backward asymmetries shape these tests (see
//! `adaptraj_check::gradcheck` module docs):
//!
//! * **Langevin detach** (LBEBM): the negative sample is computed from the
//!   energy-net and scene-encoder parameters but enters the tape as a
//!   constant, so FD disagrees for those parameters *by design*. The
//!   LBEBM check filters to the posterior/rollout parameters the detached
//!   path cannot reach.
//! * **Gradient reversal + teacher detach** (AdapTraj): the per-step
//!   checks zero `gamma` (GRL) and `distill_weight` (teacher detach) so
//!   every parameter is FD-clean; the full-config check filters to the
//!   downstream heads and aggregator; and a dedicated test pins the GRL
//!   semantics (analytic = −λ·numeric upstream of the reversal) on the
//!   real `similarity_loss`.

use adaptraj_check::gradcheck::{grad_check, grad_check_state, GradCheckConfig};
use adaptraj_core::config::{AGGREGATOR_GROUP, AUX_GROUP, INVARIANT_GROUP, SPECIFIC_GROUP};
use adaptraj_core::losses::similarity_loss;
use adaptraj_core::{AdapTraj, AdapTrajConfig, DomainClassifier, Features};
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_TOTAL};
use adaptraj_data::WindowBatch;
use adaptraj_models::{
    Backbone, BackboneConfig, ForwardCtx, Lbebm, PecNet, Predictor, TrainerConfig, BACKBONE_GROUP,
};
use adaptraj_tensor::nn::{Activation, Mlp};
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::{GroupId, ParamId, ParamStore, Rng, Tape, Tensor};

/// Whole-model checks subsample each parameter tensor and run at a looser
/// tolerance than the per-op fixtures: the loss is a long `f32` chain, so
/// rounding noise in the difference quotient grows with depth. `eps` is
/// smaller than the per-op fixtures' because the models are full of relu
/// units whose kink the perturbation must not cross (see [`jitter`]).
fn model_cfg() -> GradCheckConfig {
    GradCheckConfig {
        eps: 2e-3,
        tol: 2e-2,
        max_per_param: 4,
    }
}

/// Freshly constructed models have all-zero biases, which parks relu
/// preactivations exactly on the kink where central differences measure
/// the subgradient average instead of the one-sided derivative the tape
/// returns. A small deterministic jitter moves every unit off the kink.
fn jitter(store: &mut ParamStore, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let ids: Vec<ParamId> = store.ids().collect();
    for id in ids {
        for v in store.value_mut(id).data_mut() {
            *v += rng.uniform(-0.08, 0.08);
        }
    }
}

/// Smallest architecture the constructors accept — keeps the FD loop
/// (2 forward passes per checked element) cheap.
fn tiny() -> BackboneConfig {
    BackboneConfig {
        embed_dim: 4,
        hidden_dim: 6,
        inter_dim: 6,
        dec_hidden: 6,
        z_dim: 3,
        ..BackboneConfig::default()
    }
}

/// A deterministic window with one neighbor, so the interaction pooling
/// path carries real gradient.
fn toy_window(v: f32, domain: DomainId) -> TrajWindow {
    let focal: Vec<Point> = (0..T_TOTAL)
        .map(|t| [v * t as f32, 0.1 * (t as f32).sin()])
        .collect();
    let nb: Vec<Point> = (0..T_OBS)
        .map(|t| [1.0 + 0.8 * v * t as f32, 0.5 - 0.05 * t as f32])
        .collect();
    TrajWindow::from_world(&focal, &[nb], domain)
}

/// One deterministic training forward+backward for a plain backbone:
/// re-seeds the per-window rng inside the closure so every FD evaluation
/// sees the identical noise draw.
fn backbone_eval<'a, B: adaptraj_models::Backbone>(
    model: &'a B,
    w: &TrajWindow,
    seed: u64,
) -> impl Fn(&ParamStore) -> (f64, Vec<(ParamId, Tensor)>) + 'a {
    let w = w.clone();
    move |s| {
        let mut tape = Tape::new();
        let mut wrng = Rng::seed_from(seed);
        let batch = WindowBatch::single(&w, 0);
        let mut ctx = ForwardCtx::train(s, &mut tape, std::slice::from_mut(&mut wrng));
        let (_, loss) = model.train_forward(&mut ctx, &batch, None);
        let v = tape.value(loss).item() as f64;
        let g = tape.backward(loss);
        (v, tape.param_grads(&g))
    }
}

#[test]
fn pecnet_training_loss_gradients_match_fd() {
    // PECNet's train path is detach-clean: the endpoint target is data and
    // the CVAE eps is an rng constant independent of the parameters, so
    // every parameter must pass.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(11);
    let model = PecNet::new(&mut store, &mut rng, tiny());
    jitter(&mut store, 91);
    let w = toy_window(0.3, DomainId::EthUcy);
    grad_check(&mut store, backbone_eval(&model, &w, 501), &model_cfg())
        .assert_ok("pecnet training loss");
}

#[test]
fn lbebm_training_loss_gradients_match_fd_on_detach_clean_params() {
    // The Langevin negative is detached but *computed from* the energy-net
    // and scene-encoder parameters, so FD sees a dependency the tape
    // (correctly) ignores for `lbebm.energy.*` and the scene encoder.
    // The posterior and rollout decoder never feed the Langevin chain —
    // they must pass an ordinary FD check.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(13);
    let model = Lbebm::new(&mut store, &mut rng, tiny());
    jitter(&mut store, 93);
    let w = toy_window(0.35, DomainId::EthUcy);
    let report = grad_check_state(
        &mut store,
        |s| s,
        backbone_eval(&model, &w, 503),
        |name| name.starts_with("lbebm.post") || name.starts_with("lbebm.roll"),
        &model_cfg(),
    );
    assert!(
        report.checked() > 0,
        "filter matched no parameters — prefixes renamed?"
    );
    report.assert_ok("lbebm training loss (posterior + rollout)");
}

#[test]
fn causal_motion_vrex_gradient_assembly_matches_fd() {
    // CausalMotion never builds the V-REx objective on one tape: the
    // trainer assembles  dL/dθ = (g₁+g₂)/2 + 2λ(r₁−r₂)(g₁−g₂)  from
    // per-environment risks/gradients (`Trainer::risk_variance` in
    // crates/models/src/trainer.rs).
    // Verify that assembled gradient against FD of the explicit scalar
    //   L = (r₁+r₂)/2 + λ(r₁−r₂)²
    // with λ = INVARIANCE_WEIGHT = 2.0.
    let lambda = 2.0f64;
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(14);
    let model = PecNet::new(&mut store, &mut rng, tiny());
    jitter(&mut store, 94);
    // Similar speeds keep the risk gap small: the assembly's 2λ(r₁−r₂)
    // factor multiplies every per-environment gradient (and any relu-kink
    // FD error with it), so a large gap would drown the comparison.
    let w1 = toy_window(0.3, DomainId::EthUcy);
    let w2 = toy_window(0.34, DomainId::EthUcy);

    let risk = |s: &ParamStore, w: &TrajWindow, seed: u64| {
        let mut tape = Tape::new();
        let mut wrng = Rng::seed_from(seed);
        let batch = WindowBatch::single(w, 0);
        let mut ctx = ForwardCtx::train(s, &mut tape, std::slice::from_mut(&mut wrng));
        let (_, loss) = model.train_forward(&mut ctx, &batch, None);
        let v = tape.value(loss).item() as f64;
        let g = tape.backward(loss);
        (v, tape.param_grads(&g))
    };

    let report = grad_check(
        &mut store,
        |s| {
            let (r1, g1) = risk(s, &w1, 601);
            let (r2, g2) = risk(s, &w2, 602);
            let gap = r1 - r2;
            let loss = 0.5 * (r1 + r2) + lambda * gap * gap;
            let coeff = (2.0 * lambda * gap) as f32;
            let assembled: Vec<(ParamId, Tensor)> = g1
                .iter()
                .map(|(id, t1)| {
                    let t2 = g2
                        .iter()
                        .find(|(id2, _)| id2 == id)
                        .map(|(_, t)| t.clone())
                        .unwrap_or_else(|| Tensor::zeros(t1.rows(), t1.cols()));
                    let combined = t1.zip_map(&t2, |a, b| 0.5 * (a + b) + coeff * (a - b));
                    (*id, combined)
                })
                .collect();
            (loss, assembled)
        },
        &model_cfg(),
    );
    report.assert_ok("causal-motion v-rex assembly");
}

fn tiny_adaptraj_cfg() -> AdapTrajConfig {
    let mut cfg = AdapTrajConfig::smoke();
    cfg.feat_dim = 4;
    cfg.fused_dim = 4;
    cfg
}

fn tiny_adaptraj(cfg: AdapTrajConfig) -> AdapTraj<PecNet> {
    let trainer = TrainerConfig {
        seed: 21,
        ..TrainerConfig::smoke()
    };
    AdapTraj::new(
        trainer,
        cfg,
        &[DomainId::EthUcy, DomainId::LCas],
        |s, r, extra| PecNet::new(s, r, tiny().with_extra(extra)),
    )
}

#[test]
fn adaptraj_step_losses_match_fd_with_asymmetries_disabled() {
    // γ = 0 removes the gradient-reversed similarity term and
    // distill_weight = 0 the teacher-detach term: the remaining objective
    // is FD-clean over *every* parameter. Check the exact (masked, δ)
    // loss surfaces the three-step schedule optimizes: step 1 uses the
    // expert path at δ, steps 2–3 the masked path at δ′ (model.rs::fit).
    let mut cfg = tiny_adaptraj_cfg();
    cfg.gamma = 0.0;
    cfg.distill_weight = 0.0;
    let delta = cfg.delta;
    let delta_prime = cfg.delta_prime;
    let mut model = tiny_adaptraj(cfg);
    jitter(model.store_mut(), 95);
    let w = toy_window(0.3, DomainId::LCas);

    for (label, masked, d) in [
        ("adaptraj step1 (expert path)", false, delta),
        ("adaptraj steps2-3 (masked path)", true, delta_prime),
    ] {
        let report = grad_check_state(
            &mut model,
            |m| m.store_mut(),
            |m| {
                let mut tape = Tape::new();
                let mut wrng = Rng::seed_from(701);
                let batch = WindowBatch::single(&w, 0);
                let mut ctx =
                    ForwardCtx::train(m.store(), &mut tape, std::slice::from_mut(&mut wrng));
                let loss = m.batch_training_loss(&mut ctx, &batch, masked, d);
                let v = tape.value(loss).item() as f64;
                let g = tape.backward(loss);
                (v, tape.param_grads(&g))
            },
            |_| true,
            &model_cfg(),
        );
        report.assert_ok(label);
    }
}

#[test]
fn adaptraj_full_objective_matches_fd_on_clean_params() {
    // Full config (γ > 0, distillation on), masked path: parameters that
    // feed the invariant features are GRL-contaminated and the specific
    // experts feed the detached teacher, but the aggregator (student side
    // of the distillation, attached), the reconstruction decoder, and the
    // domain classifier have no path through either asymmetry.
    let cfg = tiny_adaptraj_cfg();
    let delta_prime = cfg.delta_prime;
    assert!(cfg.gamma > 0.0 && cfg.distill_weight > 0.0);
    let mut model = tiny_adaptraj(cfg);
    jitter(model.store_mut(), 96);
    let w = toy_window(0.3, DomainId::EthUcy);
    let report = grad_check_state(
        &mut model,
        |m| m.store_mut(),
        |m| {
            let mut tape = Tape::new();
            let mut wrng = Rng::seed_from(702);
            let batch = WindowBatch::single(&w, 0);
            let mut ctx = ForwardCtx::train(m.store(), &mut tape, std::slice::from_mut(&mut wrng));
            let loss = m.batch_training_loss(&mut ctx, &batch, true, delta_prime);
            let v = tape.value(loss).item() as f64;
            let g = tape.backward(loss);
            (v, tape.param_grads(&g))
        },
        |name| name.starts_with("agg.") || name.starts_with("aux."),
        &model_cfg(),
    );
    assert!(report.checked() > 0);
    report.assert_ok("adaptraj full objective (aggregator + heads)");
}

#[test]
fn grl_reverses_gradients_upstream_of_the_similarity_loss() {
    // The real `similarity_loss` on synthetic features: parameters that
    // reach the classifier only through the reversed invariant features
    // must satisfy analytic = −λ·numeric (λ = GRL_LAMBDA = 1), while the
    // specific-path and classifier parameters get the ordinary gradient.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(15);
    let feat_dim = 4;
    let enc = Mlp::new(
        &mut store,
        &mut rng,
        "enc",
        &[3, 5, feat_dim],
        Activation::Tanh,
        GroupId::DEFAULT,
    );
    let spec = Mlp::new(
        &mut store,
        &mut rng,
        "spec",
        &[3, 5, feat_dim],
        Activation::Tanh,
        GroupId::DEFAULT,
    );
    let clf = DomainClassifier::new(&mut store, &mut rng, feat_dim, 3);
    jitter(&mut store, 97);
    let x_ind = Tensor::randn(1, 3, 0.0, 1.0, &mut rng);
    let x_nei = Tensor::randn(1, 3, 0.0, 1.0, &mut rng);

    let eval = |s: &ParamStore| {
        let mut tape = Tape::new();
        let xi = tape.constant(x_ind.clone());
        let xn = tape.constant(x_nei.clone());
        let feats = Features {
            inv_ind: enc.forward(s, &mut tape, xi),
            inv_nei: enc.forward(s, &mut tape, xn),
            spec_ind: spec.forward(s, &mut tape, xi),
            spec_nei: spec.forward(s, &mut tape, xn),
        };
        let loss = similarity_loss(s, &mut tape, &clf, &feats, 1);
        let v = tape.value(loss).item() as f64;
        let g = tape.backward(loss);
        (v, tape.param_grads(&g))
    };

    // Downstream / non-reversed parameters: plain FD agreement.
    grad_check_state(
        &mut store,
        |s| s,
        eval,
        |name| name.starts_with("spec.") || name.starts_with("aux.class"),
        &model_cfg(),
    )
    .assert_ok("similarity loss (specific + classifier params)");

    // Upstream of the reversal: the sign flips.
    let reversed = grad_check_state(
        &mut store,
        |s| s,
        eval,
        |name| name.starts_with("enc."),
        &model_cfg(),
    );
    assert!(reversed.checked() > 0);
    for rec in &reversed.records {
        let expected = -rec.numeric; // λ = 1
        assert!(
            (rec.analytic - expected).abs() <= 2e-2 * (1.0 + expected.abs()),
            "{}[{}]: analytic {:+.6e}, want −numeric {:+.6e}",
            rec.param,
            rec.index,
            rec.analytic,
            expected
        );
    }
}

#[test]
fn three_step_schedule_freezes_and_scales_the_documented_groups() {
    let cfg = tiny_adaptraj_cfg();
    let lr = TrainerConfig::smoke().lr;
    let mut opt = Adam::new(lr);

    AdapTraj::<PecNet>::configure_schedule(&mut opt, &cfg, 1);
    assert!(
        opt.schedule.is_frozen(AGGREGATOR_GROUP),
        "step 1 freezes M/A"
    );
    for g in [BACKBONE_GROUP, INVARIANT_GROUP, SPECIFIC_GROUP, AUX_GROUP] {
        assert_eq!(opt.schedule.effective_lr(g), Some(lr), "step 1 full lr");
    }

    AdapTraj::<PecNet>::configure_schedule(&mut opt, &cfg, 2);
    assert!(
        opt.schedule.is_frozen(SPECIFIC_GROUP),
        "step 2 freezes the specific experts"
    );
    assert!(
        !opt.schedule.is_frozen(AGGREGATOR_GROUP),
        "step 2 must undo step 1's freeze"
    );
    assert_eq!(
        opt.schedule.effective_lr(AGGREGATOR_GROUP),
        Some(lr * cfg.f_high)
    );
    for g in [BACKBONE_GROUP, INVARIANT_GROUP, AUX_GROUP] {
        assert_eq!(opt.schedule.effective_lr(g), Some(lr * cfg.f_low));
    }

    AdapTraj::<PecNet>::configure_schedule(&mut opt, &cfg, 3);
    for g in [
        BACKBONE_GROUP,
        INVARIANT_GROUP,
        SPECIFIC_GROUP,
        AGGREGATOR_GROUP,
        AUX_GROUP,
    ] {
        assert!(!opt.schedule.is_frozen(g), "step 3 unfreezes everything");
        assert_eq!(opt.schedule.effective_lr(g), Some(lr * cfg.f_low));
    }
}
