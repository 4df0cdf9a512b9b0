//! Experiment orchestration: build, train, and evaluate one table cell
//! (backbone × learning method × source set × target domain).

use crate::metrics::{best_of_k, EvalAccumulator, EvalResult};
use adaptraj_core::{AdapTraj, AdapTrajConfig};
use adaptraj_data::dataset::DomainDataset;
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::TrajWindow;
use adaptraj_exec::{window_seed, WorkerPool};
use adaptraj_models::predictor::TrainReport;
use adaptraj_models::{
    BackboneConfig, CausalMotion, Counter, Lbebm, PecNet, Predictor, TrainerConfig, Vanilla,
};
use adaptraj_obs::{trace, Level};
use adaptraj_tensor::Rng;
use std::time::Instant;

/// Which backbone a cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackboneKind {
    PecNet,
    Lbebm,
}

impl BackboneKind {
    pub const ALL: [BackboneKind; 2] = [BackboneKind::PecNet, BackboneKind::Lbebm];

    pub fn name(self) -> &'static str {
        match self {
            BackboneKind::PecNet => "PECNet",
            BackboneKind::Lbebm => "LBEBM",
        }
    }
}

/// Which learning method a cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    Vanilla,
    Counter,
    CausalMotion,
    AdapTraj,
    /// Ablation: AdapTraj without domain-specific features.
    AdapTrajNoSpecific,
    /// Ablation: AdapTraj without domain-invariant features.
    AdapTrajNoInvariant,
}

impl MethodKind {
    /// The four compared methods of Tables II–VI.
    pub const COMPARED: [MethodKind; 4] = [
        MethodKind::Vanilla,
        MethodKind::Counter,
        MethodKind::CausalMotion,
        MethodKind::AdapTraj,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Vanilla => "vanilla",
            MethodKind::Counter => "Counter",
            MethodKind::CausalMotion => "CausalMotion",
            MethodKind::AdapTraj => "AdapTraj",
            MethodKind::AdapTrajNoSpecific => "w/o specific",
            MethodKind::AdapTrajNoInvariant => "w/o invariant",
        }
    }
}

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub backbone: BackboneKind,
    pub method: MethodKind,
    pub sources: Vec<DomainId>,
    pub target: DomainId,
}

impl CellSpec {
    pub fn label(&self) -> String {
        let srcs: Vec<&str> = self.sources.iter().map(|d| d.name()).collect();
        format!(
            "{}-{} [{} -> {}]",
            self.backbone.name(),
            self.method.name(),
            srcs.join("+"),
            self.target.name()
        )
    }
}

/// Result of one cell: errors plus timing diagnostics.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub spec: CellSpec,
    pub eval: EvalResult,
    /// Mean wall-clock inference time per trajectory (seconds), single
    /// sample, excluding metric computation — the Table VIII quantity.
    pub infer_time_s: f64,
    pub train_time_s: f64,
    pub final_train_loss: Option<f32>,
    /// Full per-epoch training telemetry (feeds the run manifest). For
    /// [`run_cell_avg`] this is the report of the last seed's run.
    pub report: TrainReport,
}

/// Scale knobs for a whole experiment run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    pub backbone: BackboneConfig,
    pub trainer: TrainerConfig,
    /// AdapTraj-specific settings; its inner `trainer` is overridden by
    /// `trainer` above so all methods share the optimization budget.
    pub adaptraj: AdapTrajConfig,
    /// Best-of-k samples per window at evaluation.
    pub samples_k: usize,
    /// Cap on evaluated test windows (0 = all).
    pub eval_cap: usize,
    /// Evaluation RNG seed.
    pub eval_seed: u64,
    /// Fraction of the epoch budget spent in Alg. 1 step 1 (sets
    /// `e_start = frac * epochs`).
    pub e_start_frac: f32,
    /// Fraction at which step 3 begins (`e_end = frac * epochs`).
    pub e_end_frac: f32,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            backbone: BackboneConfig::default(),
            trainer: TrainerConfig::default(),
            adaptraj: AdapTrajConfig::default(),
            samples_k: 3,
            eval_cap: 80,
            eval_seed: 99,
            e_start_frac: 0.6,
            e_end_frac: 0.8,
        }
    }
}

impl RunnerConfig {
    /// Minutes-scale settings for CI and quick runs.
    pub fn smoke() -> Self {
        Self {
            trainer: TrainerConfig {
                epochs: 6,
                max_train_windows: 150,
                ..TrainerConfig::default()
            },
            samples_k: 2,
            eval_cap: 40,
            ..Default::default()
        }
    }

    /// The AdapTraj config with the shared trainer budget and the schedule
    /// fractions applied to it.
    pub fn adaptraj_for_run(&self) -> AdapTrajConfig {
        let e_total = self.trainer.epochs;
        let e_start = ((e_total as f32) * self.e_start_frac).round() as usize;
        let e_end = (((e_total as f32) * self.e_end_frac).round() as usize).clamp(e_start, e_total);
        AdapTrajConfig {
            trainer: self.trainer.clone(),
            e_start: e_start.min(e_end),
            e_end,
            ..self.adaptraj.clone()
        }
    }
}

/// Builds the predictor for a cell.
pub fn build_predictor(spec: &CellSpec, cfg: &RunnerConfig) -> Box<dyn Predictor> {
    let bcfg = cfg.backbone.clone();
    let tcfg = cfg.trainer.clone();
    match (spec.backbone, spec.method) {
        (BackboneKind::PecNet, MethodKind::Vanilla) => {
            Box::new(Vanilla::new(tcfg, move |s, r| PecNet::new(s, r, bcfg)))
        }
        (BackboneKind::PecNet, MethodKind::Counter) => {
            Box::new(Counter::new(tcfg, move |s, r| PecNet::new(s, r, bcfg)))
        }
        (BackboneKind::PecNet, MethodKind::CausalMotion) => {
            Box::new(CausalMotion::new(tcfg, move |s, r| PecNet::new(s, r, bcfg)))
        }
        (BackboneKind::Lbebm, MethodKind::Vanilla) => {
            Box::new(Vanilla::new(tcfg, move |s, r| Lbebm::new(s, r, bcfg)))
        }
        (BackboneKind::Lbebm, MethodKind::Counter) => {
            Box::new(Counter::new(tcfg, move |s, r| Lbebm::new(s, r, bcfg)))
        }
        (BackboneKind::Lbebm, MethodKind::CausalMotion) => {
            Box::new(CausalMotion::new(tcfg, move |s, r| Lbebm::new(s, r, bcfg)))
        }
        (backbone, method) => {
            // The AdapTraj family.
            let mut acfg = cfg.adaptraj_for_run();
            match method {
                MethodKind::AdapTraj => {}
                MethodKind::AdapTrajNoSpecific => acfg.ablation.use_specific = false,
                MethodKind::AdapTrajNoInvariant => acfg.ablation.use_invariant = false,
                _ => unreachable!("non-AdapTraj methods handled above"),
            }
            match backbone {
                BackboneKind::PecNet => {
                    Box::new(AdapTraj::new(acfg, &spec.sources, move |s, r, extra| {
                        PecNet::new(s, r, bcfg.with_extra(extra))
                    }))
                }
                BackboneKind::Lbebm => {
                    Box::new(AdapTraj::new(acfg, &spec.sources, move |s, r, extra| {
                        Lbebm::new(s, r, bcfg.with_extra(extra))
                    }))
                }
            }
        }
    }
}

/// Pools the training splits of the cell's source domains.
pub fn pooled_train(spec: &CellSpec, datasets: &[DomainDataset]) -> Vec<TrajWindow> {
    let mut out = Vec::new();
    for &src in &spec.sources {
        let ds = datasets
            .iter()
            .find(|d| d.domain == src)
            .unwrap_or_else(|| panic!("no dataset synthesized for {src:?}"));
        out.extend(ds.train.iter().cloned());
    }
    out
}

/// Test windows of the target domain, capped by *stride subsampling*
/// across the whole split (a chronological prefix would bias evaluation
/// toward the earliest recording sessions).
pub fn target_test<'a>(
    spec: &CellSpec,
    datasets: &'a [DomainDataset],
    cap: usize,
) -> Vec<&'a TrajWindow> {
    let ds = datasets
        .iter()
        .find(|d| d.domain == spec.target)
        .unwrap_or_else(|| panic!("no dataset synthesized for {:?}", spec.target));
    if cap == 0 || ds.test.len() <= cap {
        return ds.test.iter().collect();
    }
    let stride = ds.test.len() as f32 / cap as f32;
    (0..cap)
        .map(|i| &ds.test[(i as f32 * stride) as usize])
        .collect()
}

/// Evaluates a trained predictor on test windows (best-of-k) and measures
/// single-sample inference latency.
///
/// Windows are dispatched to the `adaptraj-exec` worker pool; each window
/// draws its `k` samples from an RNG seeded by [`window_seed`], so ADE/FDE
/// are bit-identical for every worker count. Each window makes two
/// [`Predictor::sample`] calls on that RNG (through `predict_k`): one for
/// the first sample, whose wall-clock is the per-window latency (the
/// Table VIII single-sample inference time), and one for the other
/// `k − 1`, so the scene is encoded twice per window, not `k` times.
pub fn evaluate(
    predictor: &dyn Predictor,
    test: &[&TrajWindow],
    k: usize,
    seed: u64,
    workers: usize,
) -> (EvalResult, f64) {
    assert!(!test.is_empty(), "empty test set");
    // Ops of every window land under `evaluate/...`: the pool carries the
    // span into each job, which also records its own queue_wait/job_run.
    let _span = adaptraj_obs::span("evaluate");
    let pool = WorkerPool::new(workers);
    let results = pool
        .map(test, |i, w| {
            let mut rng = Rng::seed_from(window_seed(seed, 0, i as u64));
            let t0 = Instant::now();
            let mut samples = predictor.predict_k(w, 1, &mut rng);
            let latency = t0.elapsed().as_secs_f64();
            samples.extend(predictor.predict_k(w, k.max(1) - 1, &mut rng));
            let (a, f) = best_of_k(&samples, &w.fut);
            (a, f, latency)
        })
        .unwrap_or_else(|e| panic!("evaluation worker panicked: {e}"));
    // Reduce in window order: identical accumulation for any worker count.
    let mut acc = EvalAccumulator::new();
    let mut latency = 0.0f64;
    for (a, f, l) in results {
        acc.push(a, f);
        latency += l;
    }
    (acc.result(), latency / test.len() as f64)
}

/// Trains and evaluates one cell end to end.
pub fn run_cell(spec: &CellSpec, datasets: &[DomainDataset], cfg: &RunnerConfig) -> CellResult {
    train_cell(spec, datasets, cfg).0
}

/// [`run_cell`], also handing back the trained predictor (for saving a
/// checkpoint).
pub fn train_cell(
    spec: &CellSpec,
    datasets: &[DomainDataset],
    cfg: &RunnerConfig,
) -> (CellResult, Box<dyn Predictor>) {
    let cell_start = Instant::now();
    let train = pooled_train(spec, datasets);
    let test = target_test(spec, datasets, cfg.eval_cap);
    let mut predictor = build_predictor(spec, cfg);
    let t0 = Instant::now();
    let report = predictor.fit(&train);
    let train_time_s = t0.elapsed().as_secs_f64();
    let (eval, infer_time_s) = evaluate(
        predictor.as_ref(),
        &test,
        cfg.samples_k,
        cfg.eval_seed,
        cfg.trainer.workers,
    );
    trace::emit(
        Level::Info,
        "eval.cell",
        "cell",
        vec![
            ("label", spec.label().into()),
            ("train_windows", train.len().into()),
            ("test_windows", test.len().into()),
            ("ade", eval.ade.into()),
            ("fde", eval.fde.into()),
            ("train_s", train_time_s.into()),
            (
                "elapsed_ms",
                (cell_start.elapsed().as_secs_f64() * 1e3).into(),
            ),
        ],
    );
    let result = CellResult {
        spec: spec.clone(),
        eval,
        infer_time_s,
        train_time_s,
        final_train_loss: report.final_loss(),
        report,
    };
    (result, predictor)
}

/// Runs a cell once per seed and averages errors and timings — the
/// recommended protocol when single-run noise matters (see
/// EXPERIMENTS.md's methodology notes). Seeds override
/// `cfg.trainer.seed`; the evaluation seed is offset per run so sampled
/// futures differ too.
pub fn run_cell_avg(
    spec: &CellSpec,
    datasets: &[DomainDataset],
    cfg: &RunnerConfig,
    seeds: &[u64],
) -> CellResult {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut ade = 0.0f32;
    let mut fde = 0.0f32;
    let mut infer = 0.0f64;
    let mut train = 0.0f64;
    let mut last_loss = None;
    let mut last_report = TrainReport::default();
    for (i, &seed) in seeds.iter().enumerate() {
        let mut run_cfg = cfg.clone();
        run_cfg.trainer.seed = seed;
        run_cfg.eval_seed = cfg.eval_seed.wrapping_add(i as u64);
        let r = run_cell(spec, datasets, &run_cfg);
        ade += r.eval.ade;
        fde += r.eval.fde;
        infer += r.infer_time_s;
        train += r.train_time_s;
        last_loss = r.final_train_loss.or(last_loss);
        last_report = r.report;
    }
    let n = seeds.len() as f32;
    CellResult {
        spec: spec.clone(),
        eval: EvalResult {
            ade: ade / n,
            fde: fde / n,
        },
        infer_time_s: infer / seeds.len() as f64,
        train_time_s: train / seeds.len() as f64,
        final_train_loss: last_loss,
        report: last_report,
    }
}

/// All domains except `target`, in the paper's canonical order — the
/// standard leave-one-out source set.
pub fn leave_one_out(target: DomainId) -> Vec<DomainId> {
    DomainId::ALL
        .iter()
        .copied()
        .filter(|&d| d != target)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::dataset::{synthesize_domain, SynthesisConfig};

    fn tiny_datasets() -> Vec<DomainDataset> {
        let cfg = SynthesisConfig::smoke();
        vec![
            synthesize_domain(DomainId::EthUcy, &cfg),
            synthesize_domain(DomainId::LCas, &cfg),
        ]
    }

    fn tiny_runner() -> RunnerConfig {
        RunnerConfig {
            trainer: TrainerConfig {
                epochs: 2,
                max_train_windows: 30,
                ..TrainerConfig::smoke()
            },
            samples_k: 2,
            eval_cap: 10,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn leave_one_out_excludes_target() {
        let sources = leave_one_out(DomainId::Sdd);
        assert_eq!(sources.len(), 3);
        assert!(!sources.contains(&DomainId::Sdd));
    }

    #[test]
    fn cell_labels_are_readable() {
        let spec = CellSpec {
            backbone: BackboneKind::PecNet,
            method: MethodKind::AdapTraj,
            sources: vec![DomainId::EthUcy, DomainId::LCas],
            target: DomainId::Sdd,
        };
        assert_eq!(spec.label(), "PECNet-AdapTraj [ETH&UCY+L-CAS -> SDD]");
    }

    #[test]
    fn run_cell_vanilla_end_to_end() {
        let datasets = tiny_datasets();
        let spec = CellSpec {
            backbone: BackboneKind::PecNet,
            method: MethodKind::Vanilla,
            sources: vec![DomainId::EthUcy],
            target: DomainId::LCas,
        };
        let res = run_cell(&spec, &datasets, &tiny_runner());
        assert!(res.eval.ade.is_finite() && res.eval.ade > 0.0);
        assert!(res.eval.fde.is_finite());
        assert!(res.infer_time_s > 0.0);
        assert!(res.final_train_loss.is_some());
    }

    #[test]
    fn run_cell_adaptraj_end_to_end() {
        let datasets = tiny_datasets();
        let spec = CellSpec {
            backbone: BackboneKind::PecNet,
            method: MethodKind::AdapTraj,
            sources: vec![DomainId::EthUcy],
            target: DomainId::LCas,
        };
        let res = run_cell(&spec, &datasets, &tiny_runner());
        assert!(res.eval.ade.is_finite() && res.eval.ade > 0.0);
    }

    #[test]
    fn evaluate_is_invariant_to_worker_count() {
        let datasets = tiny_datasets();
        let spec = CellSpec {
            backbone: BackboneKind::PecNet,
            method: MethodKind::Vanilla,
            sources: vec![DomainId::EthUcy],
            target: DomainId::LCas,
        };
        let cfg = tiny_runner();
        let train = pooled_train(&spec, &datasets);
        let test = target_test(&spec, &datasets, 10);
        let mut predictor = build_predictor(&spec, &cfg);
        predictor.fit(&train);
        let (e1, _) = evaluate(predictor.as_ref(), &test, 2, 99, 1);
        let (e4, _) = evaluate(predictor.as_ref(), &test, 2, 99, 4);
        assert_eq!(e1.ade.to_bits(), e4.ade.to_bits(), "ADE depends on workers");
        assert_eq!(e1.fde.to_bits(), e4.fde.to_bits(), "FDE depends on workers");
    }

    #[test]
    fn evaluate_matches_a_per_window_predict_loop() {
        // The evaluate contract: window i's k samples are k successive
        // `predict` calls on an rng seeded with `window_seed(seed, 0, i)`,
        // scored best-of-k and averaged in window order.
        let datasets = tiny_datasets();
        let (k, seed) = (4, 99);
        for (backbone, method) in [
            (BackboneKind::PecNet, MethodKind::AdapTraj),
            (BackboneKind::Lbebm, MethodKind::Vanilla),
        ] {
            let spec = CellSpec {
                backbone,
                method,
                sources: vec![DomainId::EthUcy],
                target: DomainId::LCas,
            };
            let test = target_test(&spec, &datasets, 6);
            let mut predictor = build_predictor(&spec, &tiny_runner());
            predictor.fit(&pooled_train(&spec, &datasets));
            let mut acc = EvalAccumulator::new();
            for (i, w) in test.iter().enumerate() {
                let mut rng = Rng::seed_from(window_seed(seed, 0, i as u64));
                let samples: Vec<_> = (0..k).map(|_| predictor.predict(w, &mut rng)).collect();
                let (a, f) = best_of_k(&samples, &w.fut);
                acc.push(a, f);
            }
            let want = acc.result();
            for workers in [1, 2] {
                let (got, _) = evaluate(predictor.as_ref(), &test, k, seed, workers);
                let label = format!("{} workers={workers}", spec.label());
                assert_eq!(got.ade.to_bits(), want.ade.to_bits(), "ADE: {label}");
                assert_eq!(got.fde.to_bits(), want.fde.to_bits(), "FDE: {label}");
            }
        }
    }

    #[test]
    fn run_cell_avg_averages_seeds() {
        let datasets = tiny_datasets();
        let spec = CellSpec {
            backbone: BackboneKind::PecNet,
            method: MethodKind::Vanilla,
            sources: vec![DomainId::EthUcy],
            target: DomainId::LCas,
        };
        let cfg = tiny_runner();
        let a = run_cell_avg(&spec, &datasets, &cfg, &[1]);
        // Match the eval-seed offset the averaged run gives seed #2.
        let mut cfg_b = cfg.clone();
        cfg_b.eval_seed = cfg.eval_seed.wrapping_add(1);
        cfg_b.trainer.seed = 2;
        let b = run_cell(&spec, &datasets, &cfg_b);
        let avg = run_cell_avg(&spec, &datasets, &cfg, &[1, 2]);
        let expected = (a.eval.ade + b.eval.ade) / 2.0;
        assert!(
            (avg.eval.ade - expected).abs() < 1e-5,
            "avg {} vs expected {}",
            avg.eval.ade,
            expected
        );
    }

    #[test]
    fn stride_sampling_covers_whole_split() {
        let datasets = tiny_datasets();
        let spec = CellSpec {
            backbone: BackboneKind::PecNet,
            method: MethodKind::Vanilla,
            sources: vec![DomainId::EthUcy],
            target: DomainId::LCas,
        };
        let full = target_test(&spec, &datasets, 0);
        let capped = target_test(&spec, &datasets, 8);
        assert_eq!(capped.len(), 8.min(full.len()));
        if full.len() > 8 {
            // The last sampled window comes from the tail of the split,
            // not the prefix.
            let last_sampled = capped.last().unwrap() as *const _;
            let prefix_end = &full[7] as *const _;
            assert_ne!(last_sampled, prefix_end, "cap degenerated to a prefix");
        }
    }

    #[test]
    fn all_method_predictors_construct() {
        let cfg = tiny_runner();
        for backbone in BackboneKind::ALL {
            for method in [
                MethodKind::Vanilla,
                MethodKind::Counter,
                MethodKind::CausalMotion,
                MethodKind::AdapTraj,
                MethodKind::AdapTrajNoSpecific,
                MethodKind::AdapTrajNoInvariant,
            ] {
                let spec = CellSpec {
                    backbone,
                    method,
                    sources: vec![DomainId::EthUcy],
                    target: DomainId::LCas,
                };
                let p = build_predictor(&spec, &cfg);
                assert!(p.name().contains(backbone.name()));
            }
        }
    }
}
