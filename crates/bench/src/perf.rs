//! Fixed-seed performance workloads for the `bench` CLI subcommand.
//!
//! Each workload trains one predictor on synthesized source domains and
//! then runs repeated single-sample inference on the target split,
//! collecting throughput and latency under the op-level profiler. The
//! whole run serializes as an `adaptraj-bench/v1` document (see
//! EXPERIMENTS.md) that `bench_gate` can diff against a baseline.

use adaptraj_data::dataset::{synthesize_domain, DomainDataset, SynthesisConfig};
use adaptraj_data::domain::DomainId;
use adaptraj_eval::{
    build_predictor, pooled_train, target_test, BackboneKind, CellSpec, MethodKind, RunnerConfig,
};
use adaptraj_models::TrainerConfig;
use adaptraj_obs::json::{Arr, Obj};
use adaptraj_obs::profile::{self, ProfileSnapshot};
use adaptraj_tensor::{kernels, Rng};
use std::time::Instant;

/// Schema tag written into every bench document.
pub const BENCH_SCHEMA: &str = "adaptraj-bench/v1";

/// Scale knobs for one bench run. Every workload shares these so runs
/// stay comparable across commits.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Training epochs per workload.
    pub epochs: usize,
    /// Scenes synthesized per domain (drives window counts).
    pub scenes: usize,
    /// Inference passes timed per workload (cycles over the test split
    /// with repetition — samples, not distinct windows). Raised from the
    /// original 120 because p99 on 120 samples is a single order
    /// statistic: it swung up to +80% between identical runs. The CLI
    /// still accepts `--eval-windows` as a legacy spelling.
    pub eval_samples: usize,
    /// Worker threads for the training executor (`adaptraj-exec`); the
    /// timed inference loop stays single-threaded so latency percentiles
    /// remain comparable across configs.
    pub workers: usize,
    /// Optimizer mini-batch size (windows per parameter update). Recorded
    /// in the bench document so batched-execution changes stay auditable;
    /// pre-PR-8 documents lack the field and the comparator tolerates it.
    pub batch_size: usize,
    /// Seed for synthesis, training, and inference sampling.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        Self {
            epochs: 4,
            scenes: 6,
            eval_samples: 480,
            workers: 1,
            batch_size: TrainerConfig::default().batch_size,
            seed: 7,
        }
    }
}

impl PerfConfig {
    /// Sub-minute settings for the CI smoke gate.
    pub fn smoke() -> Self {
        Self {
            epochs: 1,
            scenes: 3,
            eval_samples: 20,
            workers: 1,
            batch_size: TrainerConfig::default().batch_size,
            seed: 7,
        }
    }
}

/// Measured numbers for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    /// Training wall-clock.
    pub train_s: f64,
    /// Windows dispatched to training jobs (the `exec.windows_trained`
    /// counter). Since batched execution a single backward pass covers a
    /// whole job, so `tensor.backward_calls` counts jobs, not windows.
    pub windows_trained: u64,
    /// Training throughput: windows trained per second.
    pub windows_per_sec: f64,
    /// Mean backward-pass cost per tape node over training.
    pub backward_ns_per_node: f64,
    /// Tape nodes pushed during training.
    pub tape_nodes: u64,
    /// Bytes served from the buffer pool during training (reuse hits).
    pub bytes_reused: u64,
    /// Bytes freshly heap-allocated during training (pool misses).
    pub bytes_allocated: u64,
    /// Timed single-sample inference passes.
    pub infer_windows: u64,
    pub infer_mean_ms: f64,
    pub infer_p50_ms: f64,
    pub infer_p99_ms: f64,
    pub infer_p999_ms: f64,
}

impl WorkloadResult {
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .f64("train_s", self.train_s)
            .u64("windows_trained", self.windows_trained)
            .f64("windows_per_sec", self.windows_per_sec)
            .f64("backward_ns_per_node", self.backward_ns_per_node)
            .u64("tape_nodes", self.tape_nodes)
            .u64("bytes_reused", self.bytes_reused)
            .u64("bytes_allocated", self.bytes_allocated)
            .u64("infer_windows", self.infer_windows)
            .f64("infer_mean_ms", self.infer_mean_ms)
            .f64("infer_p50_ms", self.infer_p50_ms)
            .f64("infer_p99_ms", self.infer_p99_ms)
            .f64("infer_p999_ms", self.infer_p999_ms)
            .finish()
    }
}

/// One full bench run: per-workload numbers plus the op/phase profile
/// captured while the workloads ran.
#[derive(Debug, Clone)]
pub struct PerfReport {
    pub created_unix: u64,
    pub config: PerfConfig,
    pub workloads: Vec<WorkloadResult>,
    pub profile: ProfileSnapshot,
    /// Closed-loop serving results (`bench --load`); absent documents
    /// parse and compare fine — the load metrics are NaN-skipped like
    /// every late-added field.
    pub load: Option<crate::load::LoadReport>,
}

/// The fixed workload set: one plain backbone, one second backbone, and
/// the AdapTraj-full model — the combinations the acceptance criteria
/// and Table VIII care about.
fn workload_specs() -> Vec<(&'static str, CellSpec)> {
    let sources = vec![DomainId::EthUcy, DomainId::LCas];
    let target = DomainId::Sdd;
    vec![
        (
            "pecnet_vanilla",
            CellSpec {
                backbone: BackboneKind::PecNet,
                method: MethodKind::Vanilla,
                sources: sources.clone(),
                target,
            },
        ),
        (
            "lbebm_vanilla",
            CellSpec {
                backbone: BackboneKind::Lbebm,
                method: MethodKind::Vanilla,
                sources: sources.clone(),
                target,
            },
        ),
        (
            "pecnet_adaptraj",
            CellSpec {
                backbone: BackboneKind::PecNet,
                method: MethodKind::AdapTraj,
                sources,
                target,
            },
        ),
    ]
}

/// Nearest-rank quantile of a sorted sample.
pub(crate) fn pctl(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Like [`pctl`], but NaN when the sample is too small to support the
/// quantile — at least one observation must lie beyond it
/// (`n * (1 - q) >= 1`, so p99 needs 100 samples and p999 needs 1000).
/// Below that the "quantile" is just the sample maximum, the single
/// order statistic whose run-to-run swings caused the PR 8 p99
/// flakiness; emitting NaN makes the comparator skip it instead.
pub(crate) fn pctl_supported(sorted: &[f64], q: f64) -> f64 {
    if (sorted.len() as f64) * (1.0 - q) < 1.0 {
        return f64::NAN;
    }
    pctl(sorted, q)
}

fn run_workload(
    name: &str,
    spec: &CellSpec,
    datasets: &[DomainDataset],
    cfg: &PerfConfig,
) -> WorkloadResult {
    let runner = RunnerConfig {
        trainer: TrainerConfig {
            epochs: cfg.epochs,
            max_train_windows: 96,
            seed: cfg.seed,
            patience: 0,
            workers: cfg.workers,
            batch_size: cfg.batch_size,
            ..TrainerConfig::default()
        },
        ..RunnerConfig::default()
    };
    let train = pooled_train(spec, datasets);
    let test = target_test(spec, datasets, 0);
    let mut predictor = build_predictor(spec, &runner);

    let _workload_phase = profile::phase(name);
    let registry = adaptraj_obs::global();
    let before = registry.snapshot();
    let t0 = Instant::now();
    {
        let _p = profile::phase("train");
        predictor.fit(&train);
    }
    let train_s = t0.elapsed().as_secs_f64();
    let delta = registry.snapshot().since(&before);
    let windows_trained = delta.counter("exec.windows_trained");
    let tape_nodes = delta.counter("tensor.tape_nodes_total");
    let backward_ms = delta.hist_sum("tensor.backward_ms");
    let backward_ns_per_node = if tape_nodes > 0 {
        backward_ms * 1e6 / tape_nodes as f64
    } else {
        f64::NAN
    };

    let mut rng = Rng::seed_from(cfg.seed ^ 0xBE7C);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(cfg.eval_samples);
    if !test.is_empty() {
        let _p = profile::phase("infer");
        for i in 0..cfg.eval_samples {
            let w = test[i % test.len()];
            let t = Instant::now();
            let _ = predictor.predict(w, &mut rng);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let infer_mean_ms = if latencies_ms.is_empty() {
        f64::NAN
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };

    WorkloadResult {
        name: name.to_string(),
        train_s,
        windows_trained,
        windows_per_sec: if train_s > 0.0 {
            windows_trained as f64 / train_s
        } else {
            f64::NAN
        },
        backward_ns_per_node,
        tape_nodes,
        bytes_reused: delta.counter("tensor.bytes_reused"),
        bytes_allocated: delta.counter("tensor.bytes_allocated"),
        infer_windows: latencies_ms.len() as u64,
        infer_mean_ms,
        infer_p50_ms: pctl(&latencies_ms, 0.50),
        infer_p99_ms: pctl_supported(&latencies_ms, 0.99),
        infer_p999_ms: pctl_supported(&latencies_ms, 0.999),
    }
}

/// Runs the full workload set under the profiler and returns the report.
/// Resets the global profiler; any previously collected profile data is
/// discarded.
pub fn run_perf(cfg: &PerfConfig) -> PerfReport {
    let synth = SynthesisConfig {
        scenes: cfg.scenes,
        seed: cfg.seed,
        ..SynthesisConfig::default()
    };
    let domains = [DomainId::EthUcy, DomainId::LCas, DomainId::Sdd];
    let datasets: Vec<DomainDataset> = domains
        .iter()
        .map(|&d| synthesize_domain(d, &synth))
        .collect();

    profile::reset();
    let was_enabled = profile::profiling_enabled();
    profile::set_enabled(true);
    let mut workloads = Vec::new();
    for (name, spec) in workload_specs() {
        workloads.push(run_workload(name, &spec, &datasets, cfg));
    }
    profile::set_enabled(was_enabled);
    let snapshot = profile::snapshot();

    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    PerfReport {
        created_unix,
        config: cfg.clone(),
        workloads,
        profile: snapshot,
        load: None,
    }
}

impl PerfReport {
    /// Serializes the report as an `adaptraj-bench/v1` document.
    pub fn to_json(&self) -> String {
        let mut wl = Arr::new();
        for w in &self.workloads {
            wl = wl.push_raw(&w.to_json());
        }
        // The kernel rides along so a bench document records which GEMM
        // dispatch produced it. The comparator ignores unknown config keys,
        // so older baselines (which also carry intra-op fields) stay
        // comparable.
        let config = Obj::new()
            .u64("epochs", self.config.epochs as u64)
            .u64("scenes", self.config.scenes as u64)
            .u64("eval_samples", self.config.eval_samples as u64)
            .u64("workers", self.config.workers as u64)
            .u64("batch_size", self.config.batch_size as u64)
            .u64("seed", self.config.seed)
            .str("kernel", kernels::active_kernel().name())
            .finish();
        let mut doc = Obj::new()
            .str("schema", BENCH_SCHEMA)
            .u64("created_unix", self.created_unix)
            .raw("config", &config)
            .raw("workloads", &wl.finish());
        if let Some(load) = &self.load {
            doc = doc.raw("load", &load.to_json());
        }
        doc.raw("ops", &self.profile.ops_json())
            .raw("phases", &self.profile.phases_json())
            .finish()
    }

    /// Human-readable summary: per-workload table plus the op/phase
    /// profile tables.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>14} {:>12} {:>12} {:>12}\n",
            "workload", "train_s", "windows/s", "bwd ns/node", "p50 ms", "p99 ms", "p999 ms"
        ));
        for w in &self.workloads {
            out.push_str(&format!(
                "{:<18} {:>10.2} {:>12.1} {:>14.0} {:>12.3} {:>12.3} {:>12.3}\n",
                w.name,
                w.train_s,
                w.windows_per_sec,
                w.backward_ns_per_node,
                w.infer_p50_ms,
                w.infer_p99_ms,
                w.infer_p999_ms
            ));
        }
        out.push('\n');
        out.push_str(&self.profile.render_table());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pctl_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(pctl(&v, 0.50), 2.0);
        assert_eq!(pctl(&v, 0.99), 4.0);
        assert!(pctl(&[], 0.5).is_nan());
    }

    #[test]
    fn smoke_report_round_trips_schema() {
        let cfg = PerfConfig {
            epochs: 1,
            scenes: 2,
            eval_samples: 4,
            workers: 2,
            batch_size: 8,
            seed: 3,
        };
        let report = run_perf(&cfg);
        assert_eq!(report.workloads.len(), 3);
        for w in &report.workloads {
            assert!(w.windows_trained > 0, "{} trained no windows", w.name);
            assert!(w.windows_per_sec > 0.0);
            assert!(w.infer_p50_ms > 0.0);
        }
        let json = report.to_json();
        let doc = crate::compare::parse_doc(&json).expect("self-emitted doc must parse");
        assert_eq!(doc.workloads.len(), 3);
        assert_eq!(doc.workloads[2].name, "pecnet_adaptraj");
        assert!(doc.workloads[0].windows_per_sec > 0.0);
        assert_eq!(doc.batch_size, 8.0);
    }
}
