//! The user-facing predictor abstraction and shared training-report
//! plumbing. The training loop itself lives in [`crate::trainer::Trainer`].

use crate::config::TrainerConfig;
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_data::WindowBatch;
use adaptraj_obs::{EpochRecord, GroupNorm, PhaseTiming};
use adaptraj_tensor::{GradBuffer, GroupId, ParamStore, Rng};

/// Per-epoch training telemetry: the legacy mean-loss curve plus the full
/// per-epoch records and per-phase wall-clock consumed by the run
/// manifest (`manifest.json` under `run --out DIR`).
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    pub epoch_losses: Vec<f32>,
    pub epochs: Vec<EpochRecord>,
    pub phases: Vec<PhaseTiming>,
}

impl TrainReport {
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }

    /// Total windows skipped due to non-finite losses.
    pub fn non_finite_total(&self) -> u64 {
        self.epochs.iter().map(|e| e.non_finite_batches).sum()
    }
}

/// Workspace-wide optimizer-group labels. Group numbering is a cross-crate
/// convention: 0 is the backbone/default group ([`crate::BACKBONE_GROUP`]);
/// 1–4 are the AdapTraj framework groups defined in `adaptraj-core`.
pub fn group_label(g: GroupId) -> &'static str {
    match g.0 {
        0 => "backbone",
        1 => "invariant",
        2 => "specific",
        3 => "aggregator",
        4 => "aux",
        _ => "other",
    }
}

/// Per-optimizer-group gradient and parameter L2 norms for one batch's
/// gradient buffer. Groups with no registered parameters are absent;
/// groups whose parameters received no gradient report `grad_norm = 0`.
pub fn group_norms(store: &ParamStore, buf: &GradBuffer) -> Vec<GroupNorm> {
    // (group, grad_sq, param_sq), ordered by first appearance then sorted.
    let mut acc: Vec<(u32, f64, f64)> = Vec::new();
    let slot = |acc: &mut Vec<(u32, f64, f64)>, g: u32| -> usize {
        match acc.iter().position(|(gg, _, _)| *gg == g) {
            Some(i) => i,
            None => {
                acc.push((g, 0.0, 0.0));
                acc.len() - 1
            }
        }
    };
    for id in store.ids() {
        let i = slot(&mut acc, store.group(id).0);
        acc[i].2 += store.value(id).frob_sq() as f64;
    }
    for (id, grad) in buf.iter() {
        let i = slot(&mut acc, store.group(id).0);
        acc[i].1 += grad.frob_sq() as f64;
    }
    acc.sort_by_key(|(g, _, _)| *g);
    acc.into_iter()
        .map(|(g, grad_sq, param_sq)| GroupNorm {
            group: g,
            label: group_label(GroupId(g)).to_string(),
            grad_norm: grad_sq.sqrt(),
            param_norm: param_sq.sqrt(),
        })
        .collect()
}

/// A trained (or trainable) trajectory predictor: a backbone wrapped in a
/// learning method.
///
/// `Send + Sync` is a supertrait so the eval runner can fan predictions
/// out over worker threads; predictors hold only configuration and their
/// [`ParamStore`], so every impl satisfies it automatically.
pub trait Predictor: Send + Sync {
    /// `"<backbone>-<method>"`, e.g. `"PECNet-Counter"`.
    fn name(&self) -> String;

    /// Trains on pooled source-domain windows. Windows carry their
    /// [`DomainId`]; methods that need per-domain structure (AdapTraj)
    /// group by it, the baselines pool everything (matching the paper's
    /// adaptation of single-source methods).
    fn fit(&mut self, train: &[TrajWindow]) -> TrainReport;

    /// `k` sampled futures for every window of a batch, `[B][k]` in batch
    /// order, with one rng per window. This is the one inference entry
    /// point: best-of-k evaluation, serving and the single-window
    /// wrappers below all come through it.
    ///
    /// Impls encode the batch (and derive any conditioning from it) once
    /// and run the `k` samples as one stacked pass of `k·B` rows
    /// ([`crate::traits::sample_passes`]), with every random draw taken
    /// first, in the order `k` single-sample calls would take it. So
    /// window `b`'s sample `j` is bit-identical to the `j`-th of `k`
    /// successive `predict(windows()[b], &mut rngs[b])` calls, and each
    /// `rngs[b]` ends where those calls would leave it. The same holds
    /// whatever other windows share the batch (the serving bit-identity
    /// contract, pinned by `batch_equivalence.rs` and `tests/serve.rs`):
    /// batched kernels are row-wise over per-window rows, pad slots
    /// contribute exact zeros, and each window draws latents from its own
    /// rng stream. `k = 0` returns `B` empty vectors.
    fn sample(&self, batch: &WindowBatch<'_>, rngs: &mut [Rng], k: usize) -> Vec<Vec<Vec<Point>>>;

    /// One sampled future for a window.
    fn predict(&self, w: &TrajWindow, rng: &mut Rng) -> Vec<Point> {
        self.predict_k(w, 1, rng).remove(0)
    }

    /// `k` sampled futures for a window (for best-of-k evaluation).
    fn predict_k(&self, w: &TrajWindow, k: usize, rng: &mut Rng) -> Vec<Vec<Point>> {
        self.sample(&WindowBatch::single(w, 0), std::slice::from_mut(rng), k)
            .remove(0)
    }

    /// The model's parameters (for checkpointing via
    /// [`adaptraj_tensor::serialize`]).
    fn store(&self) -> &ParamStore;

    /// Mutable parameter access (checkpoint loading).
    fn store_mut(&mut self) -> &mut ParamStore;
}

/// Caps training windows per domain at `cfg.max_train_windows`
/// (chronological prefix, so no future leakage) and returns the pooled
/// working set.
///
/// Deterministic by window index: per domain, the kept windows are the
/// `max_train_windows` with the lowest indices into `train`, and the
/// output preserves ascending index order regardless of how domains
/// interleave in the input slice.
pub fn cap_per_domain<'a>(train: &'a [TrajWindow], cfg: &TrainerConfig) -> Vec<&'a TrajWindow> {
    if cfg.max_train_windows == 0 {
        return train.iter().collect();
    }
    // Pass 1: group window indices per domain, in index order.
    let mut per_domain: Vec<(DomainId, Vec<usize>)> = Vec::new();
    for (i, w) in train.iter().enumerate() {
        match per_domain.iter_mut().find(|(d, _)| *d == w.domain) {
            Some((_, idxs)) => idxs.push(i),
            None => per_domain.push((w.domain, vec![i])),
        }
    }
    // Pass 2: truncate each domain to its chronological prefix, then emit
    // the union in ascending index order.
    let mut keep: Vec<usize> = per_domain
        .into_iter()
        .flat_map(|(_, mut idxs)| {
            idxs.truncate(cfg.max_train_windows);
            idxs
        })
        .collect();
    keep.sort_unstable();
    keep.into_iter().map(|i| &train[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use adaptraj_data::trajectory::T_TOTAL;
    use adaptraj_obs::LossComponents;
    use adaptraj_tensor::optim::Adam;

    fn window_for(domain: DomainId, v: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [v * t as f32, 0.0]).collect();
        TrajWindow::from_world(&focal, &[], domain)
    }

    #[test]
    fn cap_takes_chronological_prefix_per_domain() {
        let mut train = Vec::new();
        for i in 0..10 {
            train.push(window_for(DomainId::EthUcy, 0.1 + i as f32 * 0.01));
        }
        for i in 0..4 {
            train.push(window_for(DomainId::Syi, 0.5 + i as f32 * 0.01));
        }
        let cfg = TrainerConfig {
            max_train_windows: 3,
            ..TrainerConfig::smoke()
        };
        let capped = cap_per_domain(&train, &cfg);
        assert_eq!(capped.len(), 6);
        assert_eq!(
            capped
                .iter()
                .filter(|w| w.domain == DomainId::EthUcy)
                .count(),
            3
        );
        // Prefix: the first ETH window kept is the chronologically first.
        assert_eq!(capped[0].obs, train[0].obs);
    }

    #[test]
    fn cap_is_deterministic_by_index_on_interleaved_domains() {
        // ETH and SDD windows alternate; the cap must keep each domain's
        // lowest-index windows and emit them in ascending index order.
        let mut train = Vec::new();
        for i in 0..5 {
            train.push(window_for(DomainId::EthUcy, 0.10 + i as f32 * 0.01));
            train.push(window_for(DomainId::Sdd, 0.50 + i as f32 * 0.01));
        }
        let cfg = TrainerConfig {
            max_train_windows: 2,
            ..TrainerConfig::smoke()
        };
        let capped = cap_per_domain(&train, &cfg);
        // Pinned: indices 0,1 (first ETH, first SDD) then 2,3 (second of
        // each) — domains interleaved exactly as in the input prefix.
        assert_eq!(capped.len(), 4);
        let got: Vec<(DomainId, Point)> = capped.iter().map(|w| (w.domain, w.obs[1])).collect();
        let want: Vec<(DomainId, Point)> =
            train[..4].iter().map(|w| (w.domain, w.obs[1])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cap_zero_means_unlimited() {
        let train: Vec<TrajWindow> = (0..5).map(|_| window_for(DomainId::Sdd, 0.2)).collect();
        let cfg = TrainerConfig {
            max_train_windows: 0,
            ..TrainerConfig::smoke()
        };
        assert_eq!(cap_per_domain(&train, &cfg).len(), 5);
    }

    #[test]
    fn trainer_descends_a_trivial_objective() {
        use adaptraj_tensor::{GroupId, Tensor};
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[5.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.2);
        let cfg = TrainerConfig {
            epochs: 30,
            batch_size: 2,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = (0..4).map(|_| window_for(DomainId::LCas, 0.1)).collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(0);
        let report = Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |s, tape, _wb, (), _rngs| {
                let pv = tape.param(s, p);
                let sq = tape.mul(pv, pv);
                (tape.sum_all(sq), LossComponents::default())
            },
        );
        assert_eq!(report.epoch_losses.len(), 30);
        assert!(report.final_loss().unwrap() < report.epoch_losses[0] * 0.05);
    }

    #[test]
    fn patience_stops_on_plateau() {
        use adaptraj_tensor::{GroupId, Tensor};
        let mut store = ParamStore::new();
        // Constant loss (no trainable influence) ⇒ plateau from epoch 1.
        let p = store.register("p", Tensor::row(&[1.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.0); // lr 0: loss can never improve
        let cfg = TrainerConfig {
            epochs: 50,
            batch_size: 2,
            patience: 3,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = (0..4).map(|_| window_for(DomainId::LCas, 0.1)).collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(0);
        let report = Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |s, tape, _w, (), _r| {
                let pv = tape.param(s, p);
                let sq = tape.mul(pv, pv);
                (tape.sum_all(sq), LossComponents::default())
            },
        );
        // 1 epoch to set the best + 3 stale epochs = 4 total.
        assert_eq!(report.epoch_losses.len(), 4, "{:?}", report.epoch_losses);
        // The telemetry mirror agrees and flags the stopping epoch.
        assert_eq!(report.epochs.len(), 4);
        assert!(report.epochs.last().unwrap().early_stop);
        assert!(report.epochs[..3].iter().all(|e| !e.early_stop));
    }

    #[test]
    fn trainer_records_epoch_telemetry() {
        use adaptraj_tensor::{GroupId, Tensor};
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[2.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.05);
        let cfg = TrainerConfig {
            epochs: 3,
            batch_size: 2,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = (0..4).map(|_| window_for(DomainId::LCas, 0.1)).collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(0);
        let report = Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |s, tape, _w, (), _r| {
                let pv = tape.param(s, p);
                let sq = tape.mul(pv, pv);
                (tape.sum_all(sq), LossComponents::default())
            },
        );
        assert_eq!(report.epochs.len(), 3);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!(e.phase, "train");
            assert!(e.loss.is_finite());
            assert!(e.grad_norm.is_finite() && e.grad_norm > 0.0);
            assert!(e.duration_s >= 0.0);
            assert_eq!(e.non_finite_batches, 0);
            let g = e
                .group_norms
                .iter()
                .find(|g| g.group == 0)
                .expect("default group norms recorded");
            assert_eq!(g.label, "backbone");
            assert!(g.grad_norm > 0.0 && g.param_norm > 0.0);
        }
        // The legacy curve and the telemetry agree.
        for (l, e) in report.epoch_losses.iter().zip(&report.epochs) {
            assert!((f64::from(*l) - e.loss).abs() < 1e-9);
        }
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "train");
    }

    // Debug builds reject non-finite tensors at op-creation time
    // (`debug_assert` in `Tape::push`), so the runtime guard in `Trainer::fit`
    // is release-path behavior and can only be exercised there.
    #[cfg(not(debug_assertions))]
    #[test]
    fn non_finite_losses_are_guarded_not_applied() {
        use adaptraj_tensor::{GroupId, Tensor};
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[1.0]), GroupId::DEFAULT);
        let before = store.value(p).clone();
        let mut opt = Adam::new(0.1);
        let cfg = TrainerConfig {
            epochs: 1,
            batch_size: 4,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = (0..4).map(|_| window_for(DomainId::LCas, 0.1)).collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(0);
        // Every window produces a NaN loss; the guard must skip them all,
        // leaving the parameter untouched and the skips counted.
        let report = Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |_, tape, _w, (), _r| {
                let nan = tape.constant(Tensor::scalar(f32::NAN));
                (nan, LossComponents::default())
            },
        );
        assert_eq!(report.epochs[0].non_finite_batches, 4);
        assert_eq!(store.value(p), &before, "NaN gradients leaked into params");
    }

    #[test]
    fn fit_empty_data_is_a_noop() {
        let mut store = ParamStore::new();
        let mut opt = Adam::new(0.05);
        let cfg = TrainerConfig::smoke();
        let mut rng = Rng::seed_from(0);
        let report = Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &[],
            &mut rng,
            |_| (),
            |_, tape, _, (), _| {
                let zero = tape.constant(adaptraj_tensor::Tensor::scalar(0.0));
                (zero, LossComponents::default())
            },
        );
        assert!(report.epoch_losses.is_empty());
    }
}
