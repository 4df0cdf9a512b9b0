//! The `Trainer` builder: the shared mini-batch training loop behind a
//! data-parallel worker-pool executor, batched per job.
//!
//! Each shuffled mini-batch is split into **homogeneous jobs** of at most
//! [`MAX_WINDOWS_PER_JOB`] windows ([`keyed_jobs`] over each window's
//! `(domain, key)`, where the key is a caller-drawn per-window label —
//! AdapTraj's domain-label mask, `()` for everyone else). The split
//! depends only on those keys, never on the worker count. Per job,
//! `per_batch` builds one batch-mean scalar loss on a fresh tape owned by
//! the worker that runs it — one tape pass with batched
//! `GEMM`/`FusedAffine`/`LstmCell` nodes for the whole job; job gradients
//! are shipped back to the dispatching thread and reduced into one
//! [`GradBuffer`] **in job order, weighted by job size**, so the
//! accumulated sum — and therefore every optimizer step — is bit-identical
//! for any worker count. Under [`Trainer::risk_variance`] (CausalMotion)
//! the batch half is a third part of the job key, and jobs reduce into two
//! per-half buffers that combine into the V-REx gradient.
//!
//! Determinism contract: the caller's `rng` is consumed only on the
//! dispatching thread — for batch shuffling at the start of each epoch,
//! then for the per-window keys, in batch order, before each batch's jobs
//! form. Each window's latent draws come from a private `Rng` seeded with
//! [`window_seed`]`(cfg.seed, epoch, window)` — handed to `per_batch` as
//! one rng per window in batch order — which depends on the run seed and
//! the window's position in `windows`, never on job formation, which
//! worker picks up the job, or how jobs interleave. The environment split
//! of [`Trainer::risk_variance`] is positional too: a window's half is
//! whether its position in the shuffled batch reaches `⌈len/2⌉`.

use crate::config::TrainerConfig;
use crate::diagnostics::HealthAccum;
use crate::predictor::{group_norms, TrainReport};
use adaptraj_data::batch::{keyed_jobs, shuffled_batches, WindowBatch, MAX_WINDOWS_PER_JOB};
use adaptraj_data::trajectory::TrajWindow;
use adaptraj_exec::{window_seed, WorkerPool};
use adaptraj_obs::{
    health, obs_info, obs_warn, span, trace, EpochRecord, Level, LossComponents, PhaseTiming,
};
use adaptraj_tensor::optim::Adam;
use adaptraj_tensor::param::ParamId;
use adaptraj_tensor::{GradBuffer, ParamStore, Rng, Tape, Tensor, Var};
use std::time::Instant;

/// What one worker sends back for one job: the mean loss value over the
/// job's windows, its loss components, and the already-extracted
/// parameter gradients (empty when the loss came back non-finite — the
/// guard runs on the worker so a NaN backward pass is never even
/// attempted).
struct JobResult {
    val: f32,
    components: LossComponents,
    pairs: Vec<(ParamId, Tensor)>,
}

/// Accumulates per-job loss components (weighted by job size) into
/// per-epoch means, skipping NaN placeholders so a term's mean covers
/// only the jobs that computed it (all-NaN stays all-NaN).
#[derive(Debug, Default)]
struct ComponentMeans {
    sums: [f64; 5],
    counts: [u64; 5],
}

impl ComponentMeans {
    fn add(&mut self, c: &LossComponents, n_windows: u64) {
        for (i, x) in [c.backbone, c.recon, c.diff, c.similar, c.distill]
            .into_iter()
            .enumerate()
        {
            if x.is_finite() {
                self.sums[i] += x * n_windows as f64;
                self.counts[i] += n_windows;
            }
        }
    }

    fn components(&self) -> LossComponents {
        let [backbone, recon, diff, similar, distill] = std::array::from_fn(|i| {
            if self.counts[i] == 0 {
                f64::NAN
            } else {
                self.sums[i] / self.counts[i] as f64
            }
        });
        LossComponents {
            backbone,
            recon,
            diff,
            similar,
            distill,
        }
    }
}

/// Builder for the shared training loop.
///
/// ```ignore
/// let report = Trainer::new(&cfg)
///     .phase("step2")
///     .epoch_offset(4)
///     .fit(&mut store, &mut opt, &windows, &mut rng, |rng| rng.chance(0.5), per_batch);
/// ```
pub struct Trainer<'a> {
    cfg: &'a TrainerConfig,
    phase: &'static str,
    epoch_offset: usize,
    risk_variance: Option<f32>,
}

impl<'a> Trainer<'a> {
    /// A trainer with phase `"train"` and epochs numbered from 0; the
    /// worker count comes from `cfg.workers`.
    pub fn new(cfg: &'a TrainerConfig) -> Self {
        Self {
            cfg,
            phase: "train",
            epoch_offset: 0,
            risk_variance: None,
        }
    }

    /// Telemetry label for this run of the loop ("train" for single-phase
    /// methods; "step1"/"step2"/"step3" under the AdapTraj schedule).
    pub fn phase(mut self, phase: &'static str) -> Self {
        self.phase = phase;
        self
    }

    /// Keeps epoch numbering global when a schedule invokes the loop
    /// repeatedly.
    pub fn epoch_offset(mut self, offset: usize) -> Self {
        self.epoch_offset = offset;
        self
    }

    /// Replaces the batch-mean update with the V-REx risk-variance update
    /// over two pseudo-environments, the batch halves (CausalMotion). The
    /// exact gradient of `L = (r0 + r1)/2 + λ(r0 − r1)²`, with `r_k` the
    /// mean risk and `g_k` the gradient of half `k`, is assembled from
    /// per-half buffers without a cross-environment tape:
    /// `dL/dθ = (g0 + g1)/2 + 2λ(r0 − r1)(g0 − g1)`. The risk gap couples
    /// every job's gradient, so one non-finite job voids the whole batch.
    pub fn risk_variance(mut self, weight: f32) -> Self {
        self.risk_variance = Some(weight);
        self
    }

    /// Runs the loop: per epoch, shuffled mini-batches split into jobs
    /// homogeneous in `(half, domain, key)`; per job, a fresh tape + one
    /// private rng per window on a worker thread; gradients averaged over
    /// the batch (job weight = job size / batch size) or, under
    /// [`Trainer::risk_variance`], combined from the two halves, then
    /// clipped and applied with `opt`.
    ///
    /// `job_key` draws each window's key from `rng` on this thread, once
    /// per window per epoch in batch order; `per_batch` receives its job's
    /// key and returns the loss node plus the job's [`LossComponents`]
    /// (all-NaN when the method does not decompose its loss).
    ///
    /// Telemetry per epoch: an `epoch` span (debug level), mean loss and
    /// loss components over *finite* windows, the batch-averaged pre-clip
    /// global gradient norm, per-group gradient/parameter norms from the
    /// final batch, and a count of windows skipped because their job's
    /// loss, or their batch's gradient norm, came back non-finite.
    pub fn fit<K, D, F>(
        self,
        store: &mut ParamStore,
        opt: &mut Adam,
        windows: &[&TrajWindow],
        rng: &mut Rng,
        mut job_key: D,
        per_batch: F,
    ) -> TrainReport
    where
        K: Copy + PartialEq + Sync,
        D: FnMut(&mut Rng) -> K,
        F: Fn(&ParamStore, &mut Tape, &WindowBatch<'_>, K, &mut [Rng]) -> (Var, LossComponents)
            + Sync,
    {
        let mut report = TrainReport::default();
        if windows.is_empty() {
            return report;
        }
        let pool = WorkerPool::new(self.cfg.workers);
        let cfg = self.cfg;
        let windows_trained = adaptraj_obs::global().counter("exec.windows_trained");
        let phase_start = Instant::now();
        let mut best_loss = f32::INFINITY;
        let mut stale_epochs = 0usize;
        // Source domains in first-appearance order, for the health
        // observatory's per-domain gradient diagnostics.
        let mut domain_names: Vec<&'static str> = Vec::new();
        for w in windows {
            let n = w.domain.name();
            if !domain_names.contains(&n) {
                domain_names.push(n);
            }
        }
        // Ops of this run land under `<phase>/epoch`; the pool carries the
        // path into every job.
        let _phase = span(self.phase);
        for epoch in 0..cfg.epochs {
            let global_epoch = epoch + self.epoch_offset;
            let _epoch = span("epoch").arg("epoch", global_epoch as u64);
            let epoch_start = Instant::now();
            let mut rec = EpochRecord::new(global_epoch, self.phase);
            let mut means = ComponentMeans::default();
            let mut epoch_loss = 0.0f64;
            let mut seen = 0usize;
            let mut grad_norm_sum = 0.0f64;
            let mut batches = 0usize;
            let mut diag = HealthAccum::new(domain_names.iter().copied());
            let mut halted = false;
            let batch_list = shuffled_batches(windows.len(), cfg.batch_size, rng);
            let n_batches = batch_list.len();
            for (batch_idx, batch) in batch_list.into_iter().enumerate() {
                // Keys come off the caller's rng here, in batch order and
                // before dispatch; the job split depends only on
                // `(half, domain, key)`, so both are worker-count
                // independent. The half is 0 except under `risk_variance`,
                // whose second environment starts at `mid`.
                let mid = match self.risk_variance {
                    Some(_) => batch.len().div_ceil(2),
                    None => batch.len(),
                };
                let keys: Vec<_> = batch
                    .iter()
                    .enumerate()
                    .map(|(p, &i)| (usize::from(p >= mid), windows[i].domain, job_key(rng)))
                    .collect();
                let jobs: Vec<(WindowBatch<'_>, K, usize)> = keyed_jobs(&keys, MAX_WINDOWS_PER_JOB)
                    .into_iter()
                    .map(|pos| {
                        let ws = pos.iter().map(|&p| windows[batch[p]]).collect();
                        let ids = pos.iter().map(|&p| batch[p] as u64).collect();
                        let (half, _, key) = keys[pos[0]];
                        (WindowBatch::new(ws, ids), key, half)
                    })
                    .collect();
                // A worker panic is re-raised here, as a panicking
                // `per_batch` would unwind through a sequential loop.
                let results = pool
                    .map(&jobs, |_, &(ref wb, key, _)| {
                        let _h = health::batch_scope(global_epoch as u64, wb.ids());
                        // The worker pool keeps its threads alive across
                        // batches, so in steady state every job replays onto
                        // a tape whose node vector — and, via `Tape::reset`,
                        // whose retired value buffers — carry over from the
                        // previous job: the forward/backward hot path stops
                        // touching the allocator.
                        adaptraj_tensor::with_pooled(|tape| {
                            let mut rngs: Vec<Rng> = wb
                                .ids()
                                .iter()
                                .map(|&id| {
                                    Rng::seed_from(window_seed(cfg.seed, global_epoch as u64, id))
                                })
                                .collect();
                            let (loss, components) = per_batch(store, tape, wb, key, &mut rngs);
                            let val = tape.value(loss).item();
                            if !val.is_finite() {
                                return JobResult {
                                    val,
                                    components,
                                    pairs: Vec::new(),
                                };
                            }
                            // `skip-window` policy: a tripped job drops its
                            // gradient contribution via the existing
                            // non-finite skip path.
                            if health::should_skip_window() {
                                return JobResult {
                                    val: f32::NAN,
                                    components,
                                    pairs: Vec::new(),
                                };
                            }
                            let grads = tape.backward(loss);
                            let pairs = tape.take_param_grads(grads);
                            JobResult {
                                val,
                                components,
                                pairs,
                            }
                        })
                    })
                    .unwrap_or_else(|e| panic!("training worker panicked: {e}"));
                // Reduce in job order — bit-identical to the sequential
                // loop for every worker count. The whole serialized
                // section (absorb → clip → step) is one `grad_reduce`
                // span on the dispatcher's timeline lane.
                let reduce = span("grad_reduce");
                let mut buf = GradBuffer::new();
                let inv_total = 1.0 / batch.len() as f32;
                let seen_before = seen;
                // Under `risk_variance` the risk gap couples every job's
                // gradient, so one non-finite job voids the whole batch.
                let voided =
                    self.risk_variance.is_some() && results.iter().any(|r| !r.val.is_finite());
                let mut halves = [GradBuffer::new(), GradBuffer::new()];
                let mut risks = [0.0f32; 2];
                let half_len = [mid, batch.len() - mid];
                for ((wb, _, half), r) in jobs.iter().zip(&results).filter(|_| !voided) {
                    if !r.val.is_finite() {
                        rec.non_finite_batches += wb.len() as u64;
                        obs_warn!(
                            "models.fit",
                            "non-finite loss at epoch {global_epoch}, windows {:?}; skipping job",
                            wb.ids()
                        );
                        continue;
                    }
                    let weight = wb.len() as f32 * inv_total;
                    if self.risk_variance.is_some() {
                        let half_weight = wb.len() as f32 / half_len[*half] as f32;
                        halves[*half].absorb_pairs_scaled(&r.pairs, half_weight);
                        risks[*half] += r.val * half_weight;
                    } else {
                        buf.absorb_pairs_scaled(&r.pairs, weight);
                    }
                    // Per-domain diagnostics see each job's share of the
                    // batch-mean gradient under either update.
                    diag.absorb(wb.windows()[0].domain.name(), &r.pairs, weight);
                    epoch_loss += r.val as f64 * wb.len() as f64;
                    means.add(&r.components, wb.len() as u64);
                    seen += wb.len();
                }
                if let (Some(lambda), false) = (self.risk_variance, voided) {
                    buf.scaled_add(&halves[0], 0.5);
                    buf.scaled_add(&halves[1], 0.5);
                    if batch.len() > 1 {
                        let coeff = 2.0 * lambda * (risks[0] - risks[1]);
                        buf.scaled_add(&halves[0], coeff);
                        buf.scaled_add(&halves[1], -coeff);
                    }
                }
                // Batched jobs make `tensor.backward_calls` a job count,
                // not a window count; this counter keeps the true
                // windows-trained number observable (bench throughput).
                windows_trained.add(batch.len() as u64);
                // Retire the shipped gradient buffers into this thread's
                // pool so the next batch's reduction reuses them.
                for r in results {
                    for (_, g) in r.pairs {
                        g.recycle();
                    }
                }
                let [h0, h1] = halves;
                h0.recycle();
                h1.recycle();
                let norm = if cfg.grad_clip > 0.0 {
                    buf.clip_global_norm(cfg.grad_clip)
                } else {
                    buf.global_norm()
                };
                if voided {
                    rec.non_finite_batches += batch.len() as u64;
                    obs_warn!(
                        "models.fit",
                        "non-finite loss at epoch {global_epoch}, windows {batch:?}; skipping batch"
                    );
                } else if norm.is_finite() {
                    // A finite loss can still carry a non-finite gradient;
                    // the step would spread it into every parameter it
                    // touches.
                    grad_norm_sum += norm as f64;
                    batches += 1;
                    rec.group_norms = group_norms(store, &buf);
                    let before = diag.pre_step(store, batch_idx + 1 == n_batches);
                    opt.step(store, &buf);
                    diag.post_step(store, before);
                } else {
                    rec.non_finite_batches += (seen - seen_before) as u64;
                    obs_warn!(
                        "models.fit",
                        "non-finite gradient norm at epoch {global_epoch}; skipping batch"
                    );
                }
                buf.recycle();
                drop(reduce);
                if health::halt_requested() {
                    obs_warn!(
                        "models.fit",
                        "health tripwire requested halt at epoch {global_epoch}; stopping training"
                    );
                    halted = true;
                    break;
                }
            }
            diag.finish(&mut rec);
            let mean_loss = (epoch_loss / seen.max(1) as f64) as f32;
            rec.loss = mean_loss as f64;
            rec.components = means.components();
            rec.grad_norm = grad_norm_sum / batches.max(1) as f64;
            rec.duration_s = epoch_start.elapsed().as_secs_f64();
            trace::emit(
                Level::Debug,
                "models.fit",
                "epoch",
                vec![
                    ("epoch", global_epoch.into()),
                    ("loss", rec.loss.into()),
                    ("grad_norm", rec.grad_norm.into()),
                    ("elapsed_ms", (rec.duration_s * 1e3).into()),
                ],
            );
            report.epoch_losses.push(mean_loss);
            // Optional plateau-based early stopping.
            let mut stop = false;
            if cfg.patience > 0 {
                if mean_loss < best_loss - 1e-6 {
                    best_loss = mean_loss;
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    if stale_epochs >= cfg.patience {
                        rec.early_stop = true;
                        stop = true;
                        obs_info!(
                            "models.fit",
                            "early stop at epoch {global_epoch}: no improvement for {} epochs",
                            cfg.patience
                        );
                    }
                }
            }
            report.epochs.push(rec);
            if stop || halted {
                break;
            }
        }
        report.phases.push(PhaseTiming::new(
            self.phase,
            phase_start.elapsed().as_secs_f64(),
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::{Point, T_TOTAL};
    use adaptraj_tensor::{GroupId, Tensor};
    use std::sync::Mutex;

    fn window_for(domain: DomainId, v: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [v * t as f32, 0.0]).collect();
        TrajWindow::from_world(&focal, &[], domain)
    }

    /// A stochastic objective: the job mean of `(p * g_b)^2` with `g_b`
    /// drawn from window `b`'s rng, so any divergence in the
    /// seed-splitting scheme between worker counts or job formations
    /// shows up in the loss curve.
    fn stochastic_loss(s: &ParamStore, tape: &mut Tape, p: ParamId, rngs: &mut [Rng]) -> Var {
        let pv = tape.param(s, p);
        let mut acc: Option<Var> = None;
        for r in rngs.iter_mut() {
            let g = tape.constant(Tensor::scalar(1.0 + r.unit()));
            let scaled = tape.mul(pv, g);
            let sq = tape.mul(scaled, scaled);
            acc = Some(match acc {
                Some(a) => tape.add(a, sq),
                None => sq,
            });
        }
        let sum = acc.expect("jobs are non-empty");
        let n = rngs.len() as f32;
        tape.scale(sum, 1.0 / n)
    }

    fn run(workers: usize, epochs: usize) -> TrainReport {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[5.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.1);
        let cfg = TrainerConfig {
            epochs,
            batch_size: 3,
            workers,
            ..TrainerConfig::smoke()
        };
        // Two domains so the keyed job split is exercised.
        let train: Vec<TrajWindow> = (0..7)
            .map(|i| {
                let d = if i % 2 == 0 {
                    DomainId::LCas
                } else {
                    DomainId::Syi
                };
                window_for(d, 0.1)
            })
            .collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(11);
        Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |s, tape, _wb, (), rngs| (stochastic_loss(s, tape, p, rngs), LossComponents::default()),
        )
    }

    #[test]
    fn worker_count_does_not_change_the_loss_curve() {
        let seq = run(1, 6);
        let par = run(4, 6);
        let bits =
            |r: &TrainReport| -> Vec<u32> { r.epoch_losses.iter().map(|l| l.to_bits()).collect() };
        assert_eq!(bits(&seq), bits(&par), "{seq:?} vs {par:?}");
        assert_eq!(run(0, 4).epoch_losses, run(2, 4).epoch_losses);
    }

    #[test]
    fn jobs_are_domain_homogeneous() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[1.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.05);
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = (0..8)
            .map(|i| {
                let d = if i < 5 {
                    DomainId::EthUcy
                } else {
                    DomainId::Sdd
                };
                window_for(d, 0.1)
            })
            .collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(3);
        let mut draws = 0usize;
        let jobs = Mutex::new(Vec::new());
        Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |rng| {
                draws += 1;
                rng.chance(0.5)
            },
            |s, tape, wb, key, rngs| {
                let first = wb.windows()[0].domain;
                assert!(
                    wb.windows().iter().all(|w| w.domain == first),
                    "every job must hold a single domain"
                );
                assert!(wb.len() <= MAX_WINDOWS_PER_JOB);
                assert_eq!(wb.len(), rngs.len(), "one rng per batched window");
                jobs.lock().unwrap().push((wb.ids().to_vec(), key));
                (stochastic_loss(s, tape, p, rngs), LossComponents::default())
            },
        );
        assert_eq!(draws, 2 * windows.len(), "one key per window per epoch");
        // Replay the dispatcher: each epoch shuffles, then draws one key
        // per window in batch order. Every job must carry the key of each
        // of its windows (one worker: jobs arrive in dispatch order).
        let mut replay = Rng::seed_from(3);
        let mut jobs = jobs.into_inner().unwrap().into_iter();
        for _ in 0..cfg.epochs {
            let mut key_of = vec![None; windows.len()];
            for batch in shuffled_batches(windows.len(), cfg.batch_size, &mut replay) {
                for i in batch {
                    key_of[i] = Some(replay.chance(0.5));
                }
            }
            let mut covered = 0;
            while covered < windows.len() {
                let (ids, key) = jobs.next().expect("jobs cover every window");
                for id in &ids {
                    assert_eq!(key_of[*id as usize], Some(key), "job {ids:?} mixes keys");
                }
                covered += ids.len();
            }
            assert_eq!(covered, windows.len());
        }
        assert!(jobs.next().is_none());
    }

    #[test]
    fn trainer_descends_and_reports_epochs() {
        let report = run(3, 20);
        assert_eq!(report.epoch_losses.len(), 20);
        assert!(
            report.final_loss().unwrap() < report.epoch_losses[0] * 0.1,
            "{:?}",
            report.epoch_losses
        );
        assert_eq!(report.epochs.len(), 20);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "train");
    }

    #[test]
    fn phase_and_epoch_offset_label_every_record() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[2.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.05);
        let cfg = TrainerConfig {
            epochs: 4,
            batch_size: 2,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = (0..4).map(|_| window_for(DomainId::Sdd, 0.2)).collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(0);
        let report = Trainer::new(&cfg).phase("custom").epoch_offset(10).fit(
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
        let labels: Vec<(usize, &str)> = report
            .epochs
            .iter()
            .map(|rec| (rec.epoch, rec.phase.as_str()))
            .collect();
        assert_eq!(
            labels,
            [
                (10, "custom"),
                (11, "custom"),
                (12, "custom"),
                (13, "custom")
            ]
        );
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "custom");
    }

    #[test]
    fn non_finite_gradient_behind_a_finite_loss_takes_no_step() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::row(&[2.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.05);
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainerConfig::smoke()
        };
        let train: Vec<TrajWindow> = [DomainId::EthUcy, DomainId::Sdd]
            .iter()
            .flat_map(|&d| [window_for(d, 0.2), window_for(d, 0.2)])
            .collect();
        let windows: Vec<&TrajWindow> = train.iter().collect();
        let mut rng = Rng::seed_from(0);
        let report = Trainer::new(&cfg).fit(
            &mut store,
            &mut opt,
            &windows,
            &mut rng,
            |_| (),
            |s, tape, wb, (), _rngs| {
                let pv = tape.param(s, p);
                let sq = tape.mul(pv, pv);
                // The SDD job's loss is finite but its gradient is not.
                let sq = if wb.windows()[0].domain == DomainId::Sdd {
                    tape.grad_reverse(sq, f32::INFINITY)
                } else {
                    sq
                };
                (tape.sum_all(sq), LossComponents::default())
            },
        );
        assert_eq!(store.value(p).data(), &[2.0], "a non-finite step was taken");
        // Each batch holds both jobs, so every window of every epoch is skipped.
        assert_eq!(report.non_finite_total(), 8);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn risk_variance_voids_the_whole_batch_of_a_non_finite_job() {
        // A non-finite loss only reaches the guard while the health
        // tripwire is armed; otherwise debug builds assert finiteness
        // when the tape records the value.
        let _lock = crate::diagnostics::HEALTH_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        health::set_enabled(true);
        let run = |risk_variance: bool| {
            let mut store = ParamStore::new();
            let p = store.register("p", Tensor::row(&[2.0]), GroupId::DEFAULT);
            let mut opt = Adam::new(0.05);
            let cfg = TrainerConfig {
                epochs: 2,
                batch_size: 4,
                ..TrainerConfig::smoke()
            };
            let train: Vec<TrajWindow> = [DomainId::EthUcy, DomainId::Sdd]
                .iter()
                .flat_map(|&d| [window_for(d, 0.2), window_for(d, 0.2)])
                .collect();
            let windows: Vec<&TrajWindow> = train.iter().collect();
            let mut rng = Rng::seed_from(0);
            let trainer = Trainer::new(&cfg);
            let trainer = if risk_variance {
                trainer.risk_variance(2.0)
            } else {
                trainer
            };
            let report = trainer.fit(
                &mut store,
                &mut opt,
                &windows,
                &mut rng,
                |_| (),
                |s, tape, wb, (), _rngs| {
                    let pv = tape.param(s, p);
                    let sq = tape.mul(pv, pv);
                    // The SDD job's loss is NaN.
                    let sq = if wb.windows()[0].domain == DomainId::Sdd {
                        tape.scale(sq, f32::NAN)
                    } else {
                        sq
                    };
                    (tape.sum_all(sq), LossComponents::default())
                },
            );
            (store.value(p).data()[0], report.non_finite_total())
        };
        let (mean_p, mean_skipped) = run(false);
        let (rv_p, rv_skipped) = run(true);
        health::set_enabled(false);
        health::reset();
        // The mean update drops only the SDD job and steps on the rest.
        assert_ne!(mean_p, 2.0);
        assert_eq!(mean_skipped, 4);
        // The risk-variance update takes no step at all, and every window
        // of every (single-batch) epoch counts as skipped.
        assert_eq!(rv_p, 2.0, "a step was taken on a voided batch");
        assert_eq!(rv_skipped, 8);
    }

    #[test]
    fn panicking_per_batch_unwinds_cleanly() {
        let result = std::panic::catch_unwind(|| {
            let mut store = ParamStore::new();
            let _p = store.register("p", Tensor::row(&[1.0]), GroupId::DEFAULT);
            let mut opt = Adam::new(0.05);
            let cfg = TrainerConfig {
                epochs: 1,
                batch_size: 2,
                workers: 4,
                ..TrainerConfig::smoke()
            };
            let train: Vec<TrajWindow> = (0..4).map(|_| window_for(DomainId::Syi, 0.2)).collect();
            let windows: Vec<&TrajWindow> = train.iter().collect();
            let mut rng = Rng::seed_from(0);
            Trainer::new(&cfg).fit(
                &mut store,
                &mut opt,
                &windows,
                &mut rng,
                |_| (),
                |s, tape, _wb, (), _rngs| -> (Var, LossComponents) {
                    let _ = (s, &tape);
                    panic!("boom in per_batch");
                },
            )
        });
        let err = result.expect_err("must propagate the worker panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom in per_batch"), "{msg}");
    }
}
