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

use crate::config::TrainerConfig;
use crate::predictor::{cap_per_domain, Predictor, TrainReport};
use crate::traits::{sample_backbone, Backbone, ForwardCtx};
use adaptraj_data::batch::{keyed_jobs, shuffled_batches, WindowBatch, MAX_WINDOWS_PER_JOB};
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_exec::{window_seed, WorkerPool};
use adaptraj_obs::{health, obs_warn, profile, EpochRecord, PhaseTiming};
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::{GradBuffer, ParamId, ParamStore, Rng, Tensor};

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

    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter access (checkpoint loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
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
        let mut report = TrainReport::default();
        if windows.is_empty() {
            return report;
        }

        let pool = WorkerPool::new(self.cfg.workers);
        let seed = self.cfg.seed;
        let windows_trained = adaptraj_obs::global().counter("exec.windows_trained");
        let fit_start = std::time::Instant::now();
        for epoch in 0..self.cfg.epochs {
            let epoch_start = std::time::Instant::now();
            let _profile_phase = profile::phase("train");
            let profile_path = profile::current_path().unwrap_or_default();
            let mut rec = EpochRecord::new(epoch, "train");
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            let mut halted = false;
            for batch in shuffled_batches(windows.len(), self.cfg.batch_size, &mut rng) {
                // Two pseudo-environments: the batch halves. Per-half
                // gradient buffers let us assemble the exact gradient of
                //   L = (r1 + r2)/2 + λ (r1 − r2)²
                // without a cross-environment tape:
                //   dL/dθ = (g1 + g2)/2 + 2λ (r1 − r2)(g1 − g2)
                // where r_k are mean half risks and g_k their gradients.
                // Each half is split into domain-homogeneous batched jobs
                // (the split depends only on the half's domain keys, so
                // job formation is worker-count independent).
                let mid = batch.len().div_ceil(2);
                let store = &self.store;
                let backbone = &self.backbone;
                let halves = [&batch[..mid], &batch[mid..]];
                let mut jobs: Vec<(usize, WindowBatch<'_>)> = Vec::new();
                for (half, span) in halves.iter().enumerate() {
                    let keys: Vec<_> = span.iter().map(|&i| windows[i].domain).collect();
                    for pos in keyed_jobs(&keys, MAX_WINDOWS_PER_JOB) {
                        let ws = pos.iter().map(|&p| windows[span[p]]).collect();
                        let ids = pos.iter().map(|&p| span[p] as u64).collect();
                        jobs.push((half, WindowBatch::new(ws, ids)));
                    }
                }
                let results = pool
                    .map(&jobs, |_, (_, wb)| {
                        let _p = profile::phase_at(&profile_path);
                        let _h = health::batch_scope(epoch as u64, wb.ids());
                        adaptraj_tensor::with_pooled(|tape| {
                            let mut rngs: Vec<Rng> = wb
                                .ids()
                                .iter()
                                .map(|&id| Rng::seed_from(window_seed(seed, epoch as u64, id)))
                                .collect();
                            let mut ctx = ForwardCtx::train(store, tape, &mut rngs);
                            let (_, loss) = backbone.train_forward(&mut ctx, wb, None);
                            let tape = ctx.tape;
                            let val = tape.value(loss).item();
                            // A non-finite loss, or a job tripped under the
                            // `skip-window` policy, ships no gradient.
                            if !val.is_finite() || health::should_skip_window() {
                                return (f32::NAN, Vec::new());
                            }
                            let grads = tape.backward(loss);
                            let pairs = tape.take_param_grads(grads);
                            (val, pairs)
                        })
                    })
                    .unwrap_or_else(|e| panic!("training worker panicked: {e}"));
                windows_trained.add(batch.len() as u64);
                // The risk gap couples every job's gradient, so one bad job
                // would spread to every parameter: the batch takes no step.
                if results.iter().any(|(val, _)| !val.is_finite()) {
                    rec.non_finite_batches += batch.len() as u64;
                    obs_warn!(
                        "models.fit",
                        "non-finite loss at epoch {epoch}, windows {batch:?}; skipping batch"
                    );
                    recycle_pairs(results);
                } else {
                    let mut bufs = [GradBuffer::new(), GradBuffer::new()];
                    let mut risks = [0.0f32; 2];
                    // Reduce in job order (half 0's jobs then half 1's):
                    // bit-identical for any worker count.
                    for ((half, wb), (val, pairs)) in jobs.iter().zip(&results) {
                        let n_half = halves[*half].len();
                        let weight = wb.len() as f32 / n_half.max(1) as f32;
                        bufs[*half].absorb_pairs_scaled(pairs, weight);
                        risks[*half] += val * weight;
                        epoch_loss += val * wb.len() as f32;
                        seen += wb.len();
                    }
                    let mut total = GradBuffer::new();
                    total.scaled_add(&bufs[0], 0.5);
                    total.scaled_add(&bufs[1], 0.5);
                    if batch.len() > 1 {
                        let gap = risks[0] - risks[1];
                        let coeff = 2.0 * INVARIANCE_WEIGHT * gap;
                        total.scaled_add(&bufs[0], coeff);
                        total.scaled_add(&bufs[1], -coeff);
                    }
                    let norm = if self.cfg.grad_clip > 0.0 {
                        total.clip_global_norm(self.cfg.grad_clip)
                    } else {
                        total.global_norm()
                    };
                    // A finite loss can still carry a non-finite gradient.
                    if norm.is_finite() {
                        opt.step(&mut self.store, &total);
                    } else {
                        rec.non_finite_batches += batch.len() as u64;
                        obs_warn!(
                            "models.fit",
                            "non-finite gradient norm at epoch {epoch}, windows {batch:?}; \
                             skipping batch"
                        );
                    }
                    // Retire per-half buffers, the combined buffer, and the
                    // shipped gradient pairs into this thread's pool.
                    total.recycle();
                    let [b0, b1] = bufs;
                    b0.recycle();
                    b1.recycle();
                    recycle_pairs(results);
                }
                if health::halt_requested() {
                    obs_warn!(
                        "models.fit",
                        "health tripwire requested halt at epoch {epoch}; stopping training"
                    );
                    halted = true;
                    break;
                }
            }
            let mean = epoch_loss / seen.max(1) as f32;
            report.epoch_losses.push(mean);
            // Full per-epoch record so manifests and the golden-regression
            // layer see CausalMotion the same way they see every other
            // trainer: `loss` is the mean per-window risk (the half-risk
            // V-REx penalty has no per-window decomposition to pin).
            rec.loss = mean as f64;
            rec.components.backbone = mean as f64;
            rec.duration_s = epoch_start.elapsed().as_secs_f64();
            report.epochs.push(rec);
            if halted {
                break;
            }
        }
        report
            .phases
            .push(PhaseTiming::new("train", fit_start.elapsed().as_secs_f64()));
        report
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

/// Retires the shipped gradient pairs into this thread's buffer pool.
fn recycle_pairs(results: Vec<(f32, Vec<(ParamId, Tensor)>)>) {
    for (_, pairs) in results {
        for (_, g) in pairs {
            g.recycle();
        }
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
}
