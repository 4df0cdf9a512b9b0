//! # adaptraj-bench
//!
//! Reproduction harness. The paper's evaluation is one experiment —
//! (backbone, method, sources, target) cells, each trained, scored and laid
//! out in a grid — so every table and figure is a spec in [`tables`], run by
//! the one `tables` binary. Cells are trained and scored only by the runner
//! it passes in (`adaptraj_eval::run_cell_avg`); [`tables::render`] trains
//! nothing itself and lays out the results:
//!
//! ```sh
//! cargo run --release -p adaptraj-bench --bin tables -- table4 [--scale smoke|paper] [--seeds N]
//! ```
//!
//! | name | reproduces |
//! |---|---|
//! | `table1` | Tab. I — dataset statistics |
//! | `table2` | Tab. II — cross-domain performance decline |
//! | `table3` | Tab. III — negative transfer |
//! | `table4` | Tab. IV — main multi-source comparison |
//! | `table5` | Tab. V — single-source generalization |
//! | `table6` | Tab. VI — varied source sets |
//! | `table7` | Tab. VII — ablation study |
//! | `table8` | Tab. VIII — inference time |
//! | `fig3` | Fig. 3 — performance vs #source domains |
//! | `fig4` | Fig. 4 — hyperparameter sensitivity |
//! | `social` | supplementary: collision/miss social metrics |
//! | `compare` | supplementary: paired-bootstrap vanilla-vs-AdapTraj |
//!
//! The crate also holds the `trace_check` Chrome-trace validator.
//! Performance is measured by `perfbench` at the repository root, not
//! here; kernel equivalence is pinned by `adaptraj-check`'s
//! `kernel_equivalence` tests.
//!
//! The default `smoke` scale finishes each table in minutes on one CPU
//! core; `paper` runs the full protocol (hours). Absolute errors differ
//! from the paper (synthetic data, narrow models — see DESIGN.md); the
//! comparisons between methods are the reproduction target.

pub mod tables;

use adaptraj_data::dataset::{synthesize_all, DomainDataset, SynthesisConfig};
use adaptraj_data::preprocess::ExtractionConfig;
use adaptraj_eval::RunnerConfig;
use adaptraj_models::TrainerConfig;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale: reduced scenes/epochs/eval windows.
    Smoke,
    /// The full protocol (hours on one core).
    Paper,
}

impl Scale {
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

/// The `tables` binary's usage text.
pub const USAGE: &str = "\
usage: tables <table1|table2|table3|table4|table5|table6|table7|table8|fig3|fig4|social|compare>
              [--scale smoke|paper] [--seeds N]

  --scale   experiment scale (default smoke)
  --seeds   training seeds 1..=N averaged per cell (default 1)";

/// A parsed `tables` invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// The named table's spec at `scale`.
    pub table: tables::TableSpec,
    pub scale: Scale,
    /// Number of training seeds, at least 1.
    pub seeds: u64,
}

impl Args {
    /// Parses the arguments after the program name. Every malformed
    /// invocation is an `Err` with a one-line message.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (name, flags) = args.split_first().ok_or("missing table name")?;
        let (mut scale, mut seeds) = (None, None);
        let mut rest = flags.iter();
        while let Some(flag) = rest.next() {
            let slot = match flag.as_str() {
                "--scale" => &mut scale,
                "--seeds" => &mut seeds,
                other => return Err(format!("unknown argument '{other}'")),
            };
            if slot.is_some() {
                return Err(format!("{flag} given twice"));
            }
            *slot = Some(rest.next().ok_or(format!("{flag} needs a value"))?);
        }
        let scale = match scale.map(String::as_str) {
            None | Some("smoke") => Scale::Smoke,
            Some("paper") => Scale::Paper,
            Some(other) => return Err(format!("unknown --scale '{other}' (expected smoke|paper)")),
        };
        let seeds = match seeds {
            None => 1,
            Some(v) => match v.parse::<u64>() {
                Ok(n) if n > 0 => n,
                _ => return Err(format!("--seeds expects a positive integer, got '{v}'")),
            },
        };
        let table = tables::spec(name, scale).ok_or(format!("unknown table '{name}'"))?;
        Ok(Args {
            table,
            scale,
            seeds,
        })
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

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&args)
    }

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

    #[test]
    fn args_default_and_full() {
        let a = parse("table4").unwrap();
        assert_eq!(
            (a.table.title, a.scale, a.seeds),
            (
                tables::spec("table4", Scale::Smoke).unwrap().title,
                Scale::Smoke,
                1
            )
        );
        let a = parse("compare --seeds 3 --scale paper").unwrap();
        assert_eq!(
            (a.table.body, a.scale, a.seeds),
            (tables::Body::Paired, Scale::Paper, 3)
        );
    }
}
