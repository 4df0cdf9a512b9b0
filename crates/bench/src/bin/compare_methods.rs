//! Supplementary harness: paired-bootstrap comparison of two learning
//! methods on identical test windows. Resolves orderings that single-run
//! tables leave ambiguous (see the methodology notes in EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p adaptraj-bench --bin compare_methods -- \
//!     --scale smoke [--target sdd] [--seeds 2]
//! ```

use adaptraj_bench::{banner, build_datasets, Scale};
use adaptraj_data::domain::DomainId;
use adaptraj_eval::stats::paired_bootstrap;
use adaptraj_eval::{
    ade, build_predictor, leave_one_out, runner::pooled_train, runner::target_test, BackboneKind,
    CellSpec, MethodKind, TextTable,
};
use adaptraj_tensor::Rng;

fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let scale = Scale::from_args();
    let target = match arg_value("--target").as_deref() {
        Some("eth_ucy") => DomainId::EthUcy,
        Some("l_cas") => DomainId::LCas,
        Some("syi") => DomainId::Syi,
        _ => DomainId::Sdd,
    };
    let n_seeds: u64 = arg_value("--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    banner(
        &format!(
            "Paired comparison: vanilla vs AdapTraj (target {})",
            target.name()
        ),
        scale,
    );
    let datasets = build_datasets(scale);
    let cfg = scale.runner();
    let sources = leave_one_out(target);

    let mut table = TextTable::new(&[
        "Backbone",
        "mean ADE diff (AdapTraj − vanilla)",
        "95% CI",
        "resolved?",
    ]);
    for backbone in BackboneKind::ALL {
        // Per-window errors pooled across training seeds; both methods see
        // the same windows and the same evaluation seeds.
        let mut errs_vanilla: Vec<f32> = Vec::new();
        let mut errs_adaptraj: Vec<f32> = Vec::new();
        for seed in 1..=n_seeds {
            for (method, out) in [
                (MethodKind::Vanilla, &mut errs_vanilla),
                (MethodKind::AdapTraj, &mut errs_adaptraj),
            ] {
                let spec = CellSpec {
                    backbone,
                    method,
                    sources: sources.clone(),
                    target,
                };
                eprintln!("[run] seed {seed} {}", spec.label());
                let mut run_cfg = cfg.clone();
                run_cfg.trainer.seed = seed;
                let train = pooled_train(&spec, &datasets);
                let test = target_test(&spec, &datasets, cfg.eval_cap);
                let mut predictor = build_predictor(&spec, &run_cfg);
                predictor.fit(&train);
                let mut rng = Rng::seed_from(cfg.eval_seed + seed);
                for w in &test {
                    // Best-of-k per window, k matching the tables.
                    let samples = predictor.predict_k(w, cfg.samples_k, &mut rng);
                    let best = samples
                        .iter()
                        .map(|p| ade(p, &w.fut))
                        .fold(f32::INFINITY, f32::min);
                    out.push(best);
                }
            }
        }
        let r = paired_bootstrap(&errs_adaptraj, &errs_vanilla, 2000, 0.95, 99);
        table.push_row(vec![
            backbone.name().to_string(),
            format!("{:+.4}", r.mean_diff),
            format!("[{:+.4}, {:+.4}]", r.ci_low, r.ci_high),
            if r.significant() {
                "yes"
            } else {
                "no (within noise)"
            }
            .to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Negative mean favors AdapTraj. 'Resolved' means the 95% bootstrap\n\
         interval over paired per-window differences excludes zero."
    );
}
