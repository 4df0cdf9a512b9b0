//! The AdapTraj plug-and-play wrapper and the three-step training
//! procedure (Alg. 1).

use crate::config::{AdapTrajConfig, AGGREGATOR_GROUP, SPECIFIC_GROUP};
use crate::extractors::{Aggregator, Features, InvariantExtractor, SpecificExtractor};
use crate::heads::{DomainClassifier, ReconDecoder};
use crate::losses::ours_loss_parts;
use adaptraj_data::batch::WindowBatch;
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_models::backbone::{base_loss, EncodedScene};
use adaptraj_models::config::TrainerConfig;
use adaptraj_models::predictor::{cap_per_domain, Predictor, TrainReport};
use adaptraj_models::traits::{sample_backbone, Backbone, ForwardCtx, GenMode};
use adaptraj_models::Trainer;
use adaptraj_obs::{health, obs_info, span, LossComponents};
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::{ParamStore, Rng, Tape, Tensor, Var};

/// A backbone wrapped with the AdapTraj framework: domain-invariant
/// extractor, per-domain specific extractors, and the domain-specific
/// aggregator, trained with the three-step schedule.
pub struct AdapTraj<B: Backbone> {
    store: ParamStore,
    sources: Vec<DomainId>,
    net: Framework<B>,
}

/// The framework's modules and config, held apart from the parameter
/// store: every forward method reads parameters from the store it is
/// handed, so the training closure can borrow the modules while
/// [`Trainer`] holds the store mutably.
struct Framework<B: Backbone> {
    backbone: B,
    cfg: AdapTrajConfig,
    invariant: InvariantExtractor,
    specific: SpecificExtractor,
    aggregator: Aggregator,
    recon: ReconDecoder,
    classifier: DomainClassifier,
}

impl<B: Backbone> AdapTraj<B> {
    /// Builds the framework around a backbone. `build` receives the
    /// parameter store, RNG, and the `extra_dim` the backbone must be
    /// constructed with (`2 × fused_dim`, for `[H^i | H^s]`).
    ///
    /// `sources` fixes the expert set: one domain-specific extractor pair
    /// per source domain.
    pub fn new(
        cfg: AdapTrajConfig,
        sources: &[DomainId],
        build: impl FnOnce(&mut ParamStore, &mut Rng, usize) -> B,
    ) -> Self {
        cfg.validate();
        assert!(!sources.is_empty(), "need at least one source domain");
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(cfg.trainer.seed);
        let backbone = build(&mut store, &mut rng, cfg.extra_dim());
        assert_eq!(
            backbone.config().extra_dim,
            cfg.extra_dim(),
            "backbone must be constructed with extra_dim = 2 * fused_dim"
        );
        let (h, p) = (backbone.config().hidden_dim, backbone.config().inter_dim);
        let invariant =
            InvariantExtractor::new(&mut store, &mut rng, h, p, cfg.feat_dim, cfg.fused_dim);
        let specific = SpecificExtractor::new(
            &mut store,
            &mut rng,
            sources,
            h,
            p,
            cfg.feat_dim,
            cfg.fused_dim,
        );
        let aggregator = Aggregator::new(&mut store, &mut rng, cfg.feat_dim);
        let recon = ReconDecoder::new(&mut store, &mut rng, cfg.feat_dim);
        let classifier = DomainClassifier::new(&mut store, &mut rng, cfg.feat_dim, sources.len());
        Self {
            store,
            sources: sources.to_vec(),
            net: Framework {
                backbone,
                cfg,
                invariant,
                specific,
                aggregator,
                recon,
                classifier,
            },
        }
    }

    pub fn config(&self) -> &AdapTrajConfig {
        &self.net.cfg
    }

    pub fn sources(&self) -> &[DomainId] {
        &self.sources
    }

    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter access (checkpoint loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    pub fn backbone(&self) -> &B {
        &self.net.backbone
    }

    /// Derives the four features for an encoded scene. `expert = Some(k)`
    /// routes the specific path through source-domain expert `k`
    /// (Eqs. 17–18); `expert = None` is the masked path through the
    /// aggregator over the summed expert outputs (Eqs. 21–22) — the only
    /// path available for unseen domains at inference.
    pub fn features(&self, tape: &mut Tape, enc: &EncodedScene, expert: Option<usize>) -> Features {
        self.net.features(&self.store, tape, enc, expert)
    }

    /// Assembles the `extra` conditioning `[H^i | H^s]` (fused invariant +
    /// fused specific), honoring the ablation switches by zeroing the
    /// removed family (the backbone width stays fixed). Shapes follow the
    /// batch: `[B, 2·fused_dim]` for `[B, feat_dim]` features.
    pub fn extra_features(&self, tape: &mut Tape, feats: &Features) -> Var {
        self.net.extra_features(&self.store, tape, feats)
    }

    /// The full batch-mean training loss `L_total = L_base + δ·L_ours`
    /// (+ distillation when `masked`) as a single tape node, exposed for
    /// the gradient-verification suite in `adaptraj-check`: `backward` on
    /// the returned node must match central finite differences over the
    /// store (modulo the intentional gradient-reversal and teacher-detach
    /// asymmetries documented there). The batch must be domain-homogeneous
    /// (as `Trainer` forms its jobs); every parameter is read from
    /// `ctx.store`, which must be this model's own store, and `ctx.rngs`
    /// must hold one rng per batched window.
    pub fn batch_training_loss(
        &self,
        ctx: &mut ForwardCtx<'_>,
        batch: &WindowBatch<'_>,
        masked: bool,
        delta: f32,
    ) -> Var {
        self.net.batch_loss(ctx, batch, masked, delta).0
    }

    /// Applies the per-step optimizer schedule of Alg. 1. Public so the
    /// verification suite can assert the freeze/multiplier state of each
    /// step directly rather than only observing its end-to-end effect.
    pub fn configure_schedule(opt: &mut Adam, cfg: &AdapTrajConfig, step: usize) {
        let sched = &mut opt.schedule;
        sched.unfreeze_all();
        sched.clear_multipliers();
        match step {
            // Step 1: backbone + extractors at full lr; aggregator untouched.
            1 => sched.freeze(AGGREGATOR_GROUP),
            // Step 2: aggregator at lr×f_high, others at lr×f_low, specific
            // extractor frozen (Lines 13–14 + the freezing requirement of
            // Sec. III-D).
            2 => {
                sched.freeze(SPECIFIC_GROUP);
                sched.set_group_multiplier(AGGREGATOR_GROUP, cfg.f_high);
                for g in [
                    adaptraj_models::BACKBONE_GROUP,
                    crate::config::INVARIANT_GROUP,
                    crate::config::AUX_GROUP,
                ] {
                    sched.set_group_multiplier(g, cfg.f_low);
                }
            }
            // Step 3: everything at lr×f_low (Line 25).
            3 => {
                for g in [
                    adaptraj_models::BACKBONE_GROUP,
                    crate::config::INVARIANT_GROUP,
                    SPECIFIC_GROUP,
                    AGGREGATOR_GROUP,
                    crate::config::AUX_GROUP,
                ] {
                    sched.set_group_multiplier(g, cfg.f_low);
                }
            }
            _ => unreachable!("steps are 1..=3"),
        }
    }
}

impl<B: Backbone> Framework<B> {
    fn features(
        &self,
        store: &ParamStore,
        tape: &mut Tape,
        enc: &EncodedScene,
        expert: Option<usize>,
    ) -> Features {
        let inv_ind = self.invariant.individual(store, tape, enc.h_focal);
        let inv_nei = self.invariant.neighbor(store, tape, enc.p_i);
        let (spec_ind, spec_nei) = match expert {
            Some(k) => (
                self.specific.individual(store, tape, k, enc.h_focal),
                self.specific.neighbor(store, tape, k, enc.p_i),
            ),
            None => {
                let sum_ind = self.specific.individual_sum(store, tape, enc.h_focal);
                let sum_nei = self.specific.neighbor_sum(store, tape, enc.p_i);
                (
                    self.aggregator.individual(store, tape, sum_ind),
                    self.aggregator.neighbor(store, tape, sum_nei),
                )
            }
        };
        Features {
            inv_ind,
            inv_nei,
            spec_ind,
            spec_nei,
        }
    }

    fn extra_features(&self, store: &ParamStore, tape: &mut Tape, feats: &Features) -> Var {
        let b = tape.value(feats.inv_ind).rows();
        let h_inv = if self.cfg.ablation.use_invariant {
            self.invariant
                .fuse(store, tape, feats.inv_ind, feats.inv_nei)
        } else {
            tape.constant(Tensor::zeros(b, self.cfg.fused_dim))
        };
        let h_spec = if self.cfg.ablation.use_specific {
            self.specific
                .fuse(store, tape, feats.spec_ind, feats.spec_nei)
        } else {
            tape.constant(Tensor::zeros(b, self.cfg.fused_dim))
        };
        tape.concat_cols(&[h_inv, h_spec])
    }

    /// One training forward pass for a **domain-homogeneous** batch of
    /// windows: the batch-mean `L_total = L_base + δ·L_ours` (Eqs. 23/25)
    /// in a single tape pass, plus the raw (unweighted) loss-term values
    /// for telemetry (`NaN` marks a term this pass did not compute, e.g.
    /// `distill` on unmasked jobs). `masked` selects the teacher–student
    /// path: the specific features come from the aggregator, and an
    /// explicit distillation term pulls the student's (aggregator's)
    /// output toward the *teacher's* — the true domain's expert, detached
    /// (Sec. III-D, Fig. 2 labels `M` as the teacher of `A`). Without this
    /// term the aggregator only receives indirect task-loss signal and
    /// needs far more epochs to stop degrading the decoder's conditioning.
    fn batch_loss(
        &self,
        ctx: &mut ForwardCtx<'_>,
        batch: &WindowBatch<'_>,
        masked: bool,
        delta: f32,
    ) -> (Var, LossComponents) {
        ctx.mode = GenMode::Train;
        let store = ctx.store;
        let domain = batch.windows()[0].domain;
        debug_assert!(
            batch.windows().iter().all(|w| w.domain == domain),
            "batch_loss requires a domain-homogeneous batch"
        );
        let domain_idx = self
            .specific
            .expert_of(domain)
            .expect("training window from a non-source domain");
        let enc = {
            let _p = span("encode");
            self.backbone.encode(store, ctx.tape, batch)
        };
        let expert = if masked { None } else { Some(domain_idx) };
        let (feats, distill, extra) = {
            let _p = span("features");
            let tape = &mut *ctx.tape;
            let feats = self.features(store, tape, &enc, expert);
            let distill = if masked && self.cfg.ablation.use_specific {
                // Teacher targets: the true domain's expert outputs, detached.
                let t_ind = self
                    .specific
                    .individual(store, tape, domain_idx, enc.h_focal);
                let t_nei = self.specific.neighbor(store, tape, domain_idx, enc.p_i);
                let t_ind_val = tape.value(t_ind).clone();
                let t_nei_val = tape.value(t_nei).clone();
                let d_ind = tape.mse_to(feats.spec_ind, &t_ind_val);
                let d_nei = tape.mse_to(feats.spec_nei, &t_nei_val);
                Some(tape.add(d_ind, d_nei))
            } else {
                None
            };
            let extra = self.extra_features(store, tape, &feats);
            (feats, distill, extra)
        };
        let (mut loss, backbone_val) = {
            let _p = span("generate");
            let gen = self.backbone.generate(ctx, batch, &enc, Some(extra));
            let tape = &mut *ctx.tape;
            let mut loss = base_loss(tape, gen.pred, batch);
            if let Some(aux) = gen.aux_loss {
                loss = tape.add(loss, aux);
            }
            let backbone_val = tape.value(loss).item();
            (loss, backbone_val)
        };
        let tape = &mut *ctx.tape;
        let parts = {
            let _p = span("aux_loss");
            ours_loss_parts(
                store,
                tape,
                &self.cfg,
                &self.recon,
                &self.classifier,
                &feats,
                batch,
                domain_idx,
            )
        };
        let weighted = tape.scale(parts.total, delta);
        loss = tape.add(loss, weighted);
        if let Some(d) = distill {
            let weighted = tape.scale(d, self.cfg.distill_weight);
            loss = tape.add(loss, weighted);
        }
        let item =
            |tape: &Tape, v: Option<Var>| v.map_or(f64::NAN, |v| tape.value(v).item() as f64);
        let components = LossComponents {
            backbone: backbone_val as f64,
            recon: item(tape, Some(parts.recon)),
            diff: item(tape, parts.diff),
            similar: item(tape, Some(parts.similar)),
            distill: item(tape, distill),
        };
        (loss, components)
    }
}

/// Diagnostic view of the four features for one window (inference path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureDiagnostics {
    /// Cosine similarity between H_i^i and H_i^s — the quantity `L_diff`
    /// drives toward zero (disentanglement).
    pub individual_cosine: f32,
    /// Cosine similarity between H_ℰ^i and H_ℰ^s.
    pub neighbor_cosine: f32,
    /// L2 norms of the fused invariant and specific variables `[H^i, H^s]`.
    pub fused_inv_norm: f32,
    pub fused_spec_norm: f32,
}

fn cosine(a: &Tensor, b: &Tensor) -> f32 {
    let dot: f32 = a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum();
    let na = a.frob_sq().sqrt();
    let nb = b.frob_sq().sqrt();
    if na < 1e-9 || nb < 1e-9 {
        0.0
    } else {
        dot / (na * nb)
    }
}

impl<B: Backbone> AdapTraj<B> {
    /// Computes feature diagnostics for a window along the masked
    /// (inference) path. Useful for verifying the disentanglement
    /// invariant on trained models.
    pub fn diagnostics(&self, w: &TrajWindow) -> FeatureDiagnostics {
        let mut tape = Tape::new();
        let batch = WindowBatch::single(w, 0);
        let enc = self.net.backbone.encode(&self.store, &mut tape, &batch);
        let feats = self.features(&mut tape, &enc, None);
        let h_inv = self
            .net
            .invariant
            .fuse(&self.store, &mut tape, feats.inv_ind, feats.inv_nei);
        let h_spec = self
            .net
            .specific
            .fuse(&self.store, &mut tape, feats.spec_ind, feats.spec_nei);
        FeatureDiagnostics {
            individual_cosine: cosine(tape.value(feats.inv_ind), tape.value(feats.spec_ind)),
            neighbor_cosine: cosine(tape.value(feats.inv_nei), tape.value(feats.spec_nei)),
            fused_inv_norm: tape.value(h_inv).frob_sq().sqrt(),
            fused_spec_norm: tape.value(h_spec).frob_sq().sqrt(),
        }
    }
}

impl<B: Backbone> Predictor for AdapTraj<B> {
    fn name(&self) -> String {
        format!("{}-AdapTraj", self.net.backbone.name())
    }

    /// Alg. 1: step 1 trains backbone + extractors with δ; step 2 trains
    /// the aggregator (high lr) with domain-label masking at ratio σ;
    /// step 3 fine-tunes everything at low lr, still with masking. Each
    /// non-empty step is one [`Trainer`] run sharing the optimizer and
    /// the shuffle/mask rng; a health halt skips the remaining steps.
    fn fit(&mut self, train: &[TrajWindow]) -> TrainReport {
        let net = &self.net;
        let cfg = &net.cfg;
        for w in train {
            assert!(
                net.specific.expert_of(w.domain).is_some(),
                "window from {:?} but sources are {:?}",
                w.domain,
                self.sources
            );
        }
        let windows = cap_per_domain(train, &cfg.trainer);
        let mut rng = Rng::seed_from(cfg.trainer.seed ^ 0xADA9);
        let mut opt = Adam::new(cfg.trainer.lr);
        let mut report = TrainReport::default();
        obs_info!(
            "core.fit",
            "AdapTraj training: {} windows, {} epochs (steps at e_start={}, e_end={})",
            windows.len(),
            cfg.e_total(),
            cfg.e_start,
            cfg.e_end
        );
        for step in 1..=3 {
            let epochs = cfg.step_epochs(step);
            if epochs.is_empty() {
                continue;
            }
            Self::configure_schedule(&mut opt, cfg, step);
            let delta = if step == 1 {
                cfg.delta
            } else {
                cfg.delta_prime
            };
            let masking = step >= 2;
            // The schedule always runs to `e_total`: no early stopping.
            let step_cfg = TrainerConfig {
                epochs: epochs.len(),
                patience: 0,
                ..cfg.trainer.clone()
            };
            let phase = ["step1", "step2", "step3"][step - 1];
            let ran = Trainer::new(&step_cfg)
                .phase(phase)
                .epoch_offset(epochs.start)
                .fit(
                    &mut self.store,
                    &mut opt,
                    &windows,
                    &mut rng,
                    // Domain-label masking: jobs are homogeneous in
                    // (domain, masked), one expert and one teacher/student
                    // path per job.
                    |rng| masking && rng.chance(cfg.sigma),
                    |store, tape, wb, masked, rngs| {
                        let mut ctx = ForwardCtx::train(store, tape, rngs);
                        net.batch_loss(&mut ctx, wb, masked, delta)
                    },
                );
            report.epoch_losses.extend(ran.epoch_losses);
            report.epochs.extend(ran.epochs);
            report.phases.extend(ran.phases.into_iter().map(|mut p| {
                p.phase.insert_str(0, "train.");
                p
            }));
            if health::halt_requested() {
                break;
            }
        }
        report
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Inference (Sec. III-E.2): the target domain is unknown, so the
    /// specific features always come from the aggregator over all
    /// experts. That path is per-window rows end to end, so a coalesced
    /// batch needs no domain homogeneity.
    fn sample(&self, batch: &WindowBatch<'_>, rngs: &mut [Rng], k: usize) -> Vec<Vec<Vec<Point>>> {
        sample_backbone(
            &self.net.backbone,
            &self.store,
            batch,
            rngs,
            k,
            |tape, enc| {
                let _p = span("features");
                let feats = self.features(tape, enc, None);
                Some(self.extra_features(tape, &feats))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::trajectory::{T_OBS, T_PRED, T_TOTAL};
    use adaptraj_models::config::{BackboneConfig, TrainerConfig};
    use adaptraj_models::pecnet::PecNet;

    const SOURCES: [DomainId; 2] = [DomainId::EthUcy, DomainId::LCas];

    fn window(domain: DomainId, v: f32, vy: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL)
            .map(|t| [v * t as f32, vy * t as f32])
            .collect();
        let nb: Vec<Vec<Point>> = vec![(0..T_OBS).map(|t| [v * t as f32, 1.0]).collect()];
        TrajWindow::from_world(&focal, &nb, domain)
    }

    fn make_model(cfg: AdapTrajConfig) -> AdapTraj<PecNet> {
        AdapTraj::new(cfg, &SOURCES, |s, r, extra| {
            PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
        })
    }

    fn train_set() -> Vec<TrajWindow> {
        let mut out = Vec::new();
        for i in 0..10 {
            out.push(window(DomainId::EthUcy, 0.3 + i as f32 * 0.01, 0.0));
            out.push(window(DomainId::LCas, 0.1, 0.05 + i as f32 * 0.005));
        }
        out
    }

    #[test]
    fn construction_and_naming() {
        let model = make_model(AdapTrajConfig::smoke());
        assert_eq!(model.name(), "PECNet-AdapTraj");
        assert_eq!(model.sources(), &SOURCES);
    }

    #[test]
    #[should_panic(expected = "but sources are")]
    fn training_on_unknown_domain_panics() {
        let mut model = make_model(AdapTrajConfig::smoke());
        let bad = vec![window(DomainId::Sdd, 0.3, 0.0)];
        model.fit(&bad);
    }

    #[test]
    fn fit_runs_all_three_steps_and_descends() {
        let cfg = AdapTrajConfig {
            e_start: 2,
            e_end: 4,
            trainer: TrainerConfig {
                epochs: 6,
                batch_size: 8,
                ..TrainerConfig::smoke()
            },
            ..AdapTrajConfig::smoke()
        };
        let mut model = make_model(cfg);
        let report = model.fit(&train_set());
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(
            report.final_loss().unwrap() < report.epoch_losses[0],
            "{:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn fit_telemetry_labels_steps_and_decomposes_losses() {
        for (e_start, e_end, epochs, steps) in [
            (
                2,
                4,
                6,
                &["step1", "step1", "step2", "step2", "step3", "step3"][..],
            ),
            // Empty step 1: only the steps that ran are labelled and timed.
            (0, 2, 4, &["step2", "step2", "step3", "step3"][..]),
        ] {
            let cfg = AdapTrajConfig {
                e_start,
                e_end,
                trainer: TrainerConfig {
                    epochs,
                    batch_size: 8,
                    ..TrainerConfig::smoke()
                },
                ..AdapTrajConfig::smoke()
            };
            let mut model = make_model(cfg);
            let report = model.fit(&train_set());
            let phases: Vec<&str> = report.epochs.iter().map(|e| e.phase.as_str()).collect();
            assert_eq!(phases, steps);
            // Epoch numbers stay global across the schedule's steps.
            let numbers: Vec<usize> = report.epochs.iter().map(|e| e.epoch).collect();
            assert_eq!(numbers, (0..epochs).collect::<Vec<_>>());
            for e in &report.epochs {
                assert!(e.loss.is_finite());
                assert!(e.grad_norm.is_finite());
                assert_eq!(e.non_finite_batches, 0);
                // Every epoch computes the decomposed ours-loss terms.
                for v in [
                    e.components.backbone,
                    e.components.recon,
                    e.components.diff,
                    e.components.similar,
                ] {
                    assert!(
                        v.is_finite(),
                        "epoch {} components: {:?}",
                        e.epoch,
                        e.components
                    );
                }
                // Distillation only runs on masked (step >= 2) passes.
                assert_eq!(
                    e.components.distill.is_finite(),
                    e.phase != "step1",
                    "epoch {} components: {:?}",
                    e.epoch,
                    e.components
                );
                // Per-group norms cover the five framework groups.
                let labels: Vec<&str> = e.group_norms.iter().map(|g| g.label.as_str()).collect();
                assert_eq!(
                    labels,
                    ["backbone", "invariant", "specific", "aggregator", "aux"]
                );
                assert!(e.group_norms.iter().all(|g| g.param_norm > 0.0));
            }
            // Per-step wall-clock covers exactly the steps that ran.
            let timed: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
            let mut want: Vec<String> = steps.iter().map(|s| format!("train.{s}")).collect();
            want.dedup();
            assert_eq!(timed, want);
            assert!(report.phases.iter().all(|p| p.duration_s > 0.0));
        }
    }

    #[test]
    fn specific_extractor_frozen_during_step_two() {
        // Train a model up to the end of step 1, snapshot the specific
        // extractor params, run step 2 epochs, verify bit-identity.
        let cfg = AdapTrajConfig {
            e_start: 1,
            e_end: 3,
            trainer: TrainerConfig {
                epochs: 3,
                batch_size: 8,
                ..TrainerConfig::smoke()
            },
            ..AdapTrajConfig::smoke()
        };
        // Manual staged training to snapshot between steps.
        let mut model = make_model(cfg.clone());
        let data = train_set();

        // Step 1 only.
        let mut step1_cfg = cfg.clone();
        step1_cfg.e_start = 1;
        step1_cfg.e_end = 1;
        step1_cfg.trainer.epochs = 1;
        model.net.cfg = step1_cfg;
        model.fit(&data);
        let spec_ids = model.store.ids_in_group(SPECIFIC_GROUP);
        let before: Vec<_> = spec_ids
            .iter()
            .map(|&id| model.store.value(id).clone())
            .collect();

        // Step 2 only (e_start=0 so every epoch is step 2).
        let mut step2_cfg = cfg.clone();
        step2_cfg.e_start = 0;
        step2_cfg.e_end = 2;
        step2_cfg.trainer.epochs = 2;
        model.net.cfg = step2_cfg;
        model.fit(&data);
        for (id, b) in spec_ids.iter().zip(&before) {
            assert_eq!(
                model.store.value(*id),
                b,
                "specific extractor moved during step 2"
            );
        }
    }

    #[test]
    fn predict_on_unseen_domain_uses_aggregator() {
        let mut model = make_model(AdapTrajConfig::smoke());
        model.fit(&train_set());
        // SDD was never a source; prediction must still work (masked path).
        let unseen = window(DomainId::Sdd, 0.5, 0.2);
        let mut rng = Rng::seed_from(3);
        let pred = model.predict(&unseen, &mut rng);
        assert_eq!(pred.len(), T_PRED);
        assert!(pred.iter().all(|p| p[0].is_finite() && p[1].is_finite()));
    }

    #[test]
    fn masked_features_do_not_depend_on_domain_label() {
        // The aggregated path must produce identical features for two
        // windows that differ only in their (claimed) domain tag.
        let model = make_model(AdapTrajConfig::smoke());
        let mut w1 = window(DomainId::EthUcy, 0.3, 0.1);
        w1.domain = DomainId::EthUcy;
        let mut w2 = w1.clone();
        w2.domain = DomainId::LCas;
        let mut t1 = Tape::new();
        let b1 = WindowBatch::single(&w1, 0);
        let e1 = model.backbone().encode(&model.store, &mut t1, &b1);
        let f1 = model.features(&mut t1, &e1, None);
        let mut t2 = Tape::new();
        let b2 = WindowBatch::single(&w2, 0);
        let e2 = model.backbone().encode(&model.store, &mut t2, &b2);
        let f2 = model.features(&mut t2, &e2, None);
        assert_eq!(
            t1.value(f1.spec_ind).data(),
            t2.value(f2.spec_ind).data(),
            "masked path consulted the domain label"
        );
    }

    #[test]
    fn diagnostics_report_finite_bounded_cosines() {
        let mut model = make_model(AdapTrajConfig::smoke());
        model.fit(&train_set());
        let d = model.diagnostics(&window(DomainId::Sdd, 0.4, 0.1));
        assert!((-1.0..=1.0).contains(&d.individual_cosine), "{d:?}");
        assert!((-1.0..=1.0).contains(&d.neighbor_cosine), "{d:?}");
        assert!(d.fused_inv_norm.is_finite() && d.fused_spec_norm.is_finite());
    }

    #[test]
    fn orthogonality_weight_controls_feature_alignment() {
        // A/B on β only: training with a strong orthogonality constraint
        // must leave the invariant/specific features less aligned than
        // training with the constraint disabled. (The isolated descent
        // property of L_diff is covered in `losses`; this checks the
        // constraint still bites inside the full multi-loss objective.)
        let data = train_set();
        let trained_mean_cos = |beta: f32| -> f32 {
            let mut cfg = AdapTrajConfig::smoke();
            cfg.beta = beta;
            cfg.delta = 2.0;
            cfg.delta_prime = 1.0;
            let mut model = make_model(cfg);
            model.fit(&data);
            data.iter()
                .map(|w| model.diagnostics(w).individual_cosine.abs())
                .sum::<f32>()
                / data.len() as f32
        };
        let with_constraint = trained_mean_cos(4.0);
        let without = trained_mean_cos(0.0);
        assert!(
            with_constraint < without,
            "beta should reduce alignment: beta=4 -> {with_constraint}, beta=0 -> {without}"
        );
    }

    #[test]
    fn ablations_zero_the_right_half_of_extra() {
        let fused = AdapTrajConfig::smoke().fused_dim;
        for (use_inv, use_spec) in [(false, true), (true, false)] {
            let mut cfg = AdapTrajConfig::smoke();
            cfg.ablation.use_invariant = use_inv;
            cfg.ablation.use_specific = use_spec;
            let model = make_model(cfg);
            let w = window(DomainId::EthUcy, 0.3, 0.0);
            let mut tape = Tape::new();
            let batch = WindowBatch::single(&w, 0);
            let enc = model.backbone().encode(&model.store, &mut tape, &batch);
            let feats = model.features(&mut tape, &enc, Some(0));
            let extra = model.extra_features(&mut tape, &feats);
            let v = tape.value(extra);
            let first_half: f32 = v.data()[..fused].iter().map(|x| x.abs()).sum();
            let second_half: f32 = v.data()[fused..].iter().map(|x| x.abs()).sum();
            if use_inv {
                assert!(second_half == 0.0 && first_half >= 0.0);
            } else {
                assert!(first_half == 0.0);
            }
        }
    }
}
