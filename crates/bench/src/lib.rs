//! # adaptraj-bench
//!
//! Reproduction harness: one binary per table/figure of the paper's
//! evaluation (run with `cargo run --release -p adaptraj-bench --bin
//! <name> [-- --scale smoke|paper]`), plus the `matmul_kernels`
//! micro-bench.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_stats` | Tab. I — dataset statistics |
//! | `table2_decline` | Tab. II — cross-domain performance decline |
//! | `table3_negative_transfer` | Tab. III — negative transfer |
//! | `table4_main` | Tab. IV — main multi-source comparison |
//! | `table5_single_source` | Tab. V — single-source generalization |
//! | `table6_varied_sources` | Tab. VI — varied source sets |
//! | `table7_ablation` | Tab. VII — ablation study |
//! | `table8_inference` | Tab. VIII — inference time |
//! | `fig3_source_count` | Fig. 3 — performance vs #source domains |
//! | `fig4_sensitivity` | Fig. 4 — hyperparameter sensitivity |
//! | `social_metrics` | supplementary: collision/miss social metrics |
//! | `compare_methods` | supplementary: paired-bootstrap vanilla-vs-AdapTraj |
//!
//! The default `smoke` scale finishes each binary in minutes on one CPU
//! core; `paper` runs the full protocol (hours). Absolute errors differ
//! from the paper (synthetic data, narrow models — see DESIGN.md); the
//! comparisons between methods are the reproduction target.

use adaptraj_data::dataset::{synthesize_all, DomainDataset, SynthesisConfig};
use adaptraj_data::preprocess::ExtractionConfig;
use adaptraj_eval::RunnerConfig;
use adaptraj_models::TrainerConfig;

pub mod compare;
pub mod load;
pub mod perf;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale: reduced scenes/epochs/eval windows.
    Smoke,
    /// The full protocol (hours on one core).
    Paper,
}

impl Scale {
    /// Parses `--scale smoke|paper` from `std::env::args`; defaults to
    /// smoke.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        match args
            .iter()
            .position(|a| a == "--scale")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
        {
            Some("paper") => Scale::Paper,
            Some("smoke") | None => Scale::Smoke,
            Some(other) => panic!("unknown --scale '{other}' (expected smoke|paper)"),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Paper => "paper",
        }
    }

    /// Dataset synthesis settings for this scale.
    pub fn synthesis(self) -> SynthesisConfig {
        match self {
            Scale::Smoke => SynthesisConfig {
                scenes: 12,
                steps_per_scene: 480,
                seed: 7,
                extraction: ExtractionConfig::default(),
            },
            Scale::Paper => SynthesisConfig {
                scenes: 40,
                steps_per_scene: 600,
                seed: 7,
                extraction: ExtractionConfig::default(),
            },
        }
    }

    /// Runner settings for this scale.
    pub fn runner(self) -> RunnerConfig {
        match self {
            Scale::Smoke => RunnerConfig {
                trainer: TrainerConfig {
                    epochs: 36,
                    max_train_windows: 200,
                    ..TrainerConfig::default()
                },
                samples_k: 3,
                eval_cap: 150,
                ..RunnerConfig::default()
            },
            Scale::Paper => RunnerConfig {
                trainer: TrainerConfig {
                    epochs: 80,
                    max_train_windows: 800,
                    ..TrainerConfig::default()
                },
                samples_k: 20,
                eval_cap: 300,
                ..RunnerConfig::default()
            },
        }
    }
}

/// Synthesizes all four domain datasets at the given scale, with progress
/// output.
pub fn build_datasets(scale: Scale) -> Vec<DomainDataset> {
    eprintln!(
        "[setup] synthesizing 4 domains at {} scale ...",
        scale.name()
    );
    let t0 = std::time::Instant::now();
    let datasets = synthesize_all(&scale.synthesis());
    for ds in &datasets {
        eprintln!(
            "[setup]   {:8} train={:5} val={:4} test={:4}",
            ds.domain.name(),
            ds.train.len(),
            ds.val.len(),
            ds.test.len()
        );
    }
    eprintln!("[setup] done in {:.1}s", t0.elapsed().as_secs_f64());
    datasets
}

/// Prints a standard experiment header.
pub fn banner(title: &str, scale: Scale) {
    println!("=== {title} ===");
    println!(
        "scale: {} (absolute values differ from the paper — synthetic data, narrow models; \
         method comparisons are the reproduction target)",
        scale.name()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_sane_relative_sizes() {
        let s = Scale::Smoke;
        let p = Scale::Paper;
        assert!(s.synthesis().scenes < p.synthesis().scenes);
        assert!(s.runner().trainer.epochs < p.runner().trainer.epochs);
        assert!(s.runner().eval_cap < p.runner().eval_cap);
    }

    #[test]
    fn scale_names() {
        assert_eq!(Scale::Smoke.name(), "smoke");
        assert_eq!(Scale::Paper.name(), "paper");
    }
}
