//! Quickstart: train AdapTraj on two source domains and predict on a
//! domain it has never seen.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::TrajWindow;
use adaptraj::eval::evaluate;
use adaptraj::models::{BackboneConfig, PecNet, Predictor, TrainerConfig};
use adaptraj::tensor::Rng;

fn main() {
    // 1. Synthesize two source domains and one unseen target domain.
    let synth = SynthesisConfig::default();
    let sources = [DomainId::EthUcy, DomainId::LCas];
    let target = DomainId::Sdd;
    println!(
        "synthesizing {} + {} (sources) and {} (unseen target) ...",
        sources[0], sources[1], target
    );
    let mut train = Vec::new();
    for &s in &sources {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let target_ds = synthesize_domain(target, &synth);

    // 2. Wrap a PECNet backbone with the AdapTraj framework. The closure
    //    receives the extra conditioning width ([H^i | H^s]) the framework
    //    needs the backbone to accept.
    let cfg = AdapTrajConfig {
        trainer: TrainerConfig {
            epochs: 10,
            max_train_windows: 200,
            ..TrainerConfig::default()
        },
        e_start: 8,
        e_end: 9,
        ..AdapTrajConfig::default()
    };
    let mut model = AdapTraj::new(cfg, &sources, |store, rng, extra_dim| {
        PecNet::new(store, rng, BackboneConfig::default().with_extra(extra_dim))
    });
    println!("training {} on {} windows ...", model.name(), train.len());
    let report = model.fit(&train);
    println!(
        "train loss: {:.3} -> {:.3} over {} epochs",
        report.epoch_losses[0],
        report.final_loss().unwrap(),
        report.epoch_losses.len()
    );

    // 3. Evaluate best-of-3 ADE/FDE on the unseen domain's test split.
    let test: Vec<&TrajWindow> = target_ds.test.iter().take(200).collect();
    let (result, windows) = evaluate(&model, &test, 3, 42, 1);
    println!(
        "unseen {}: ADE/FDE = {} over {} windows",
        target,
        result,
        windows.len()
    );

    // 4. Inspect one prediction.
    let w = &target_ds.test[0];
    let pred = model.predict(w, &mut Rng::seed_from(42));
    println!("\nsample prediction (normalized frame, last obs at origin):");
    println!("  t   predicted          ground truth");
    for (t, (p, g)) in pred.iter().zip(&w.fut).enumerate() {
        println!(
            "  {t:2}  ({:6.2}, {:6.2})   ({:6.2}, {:6.2})",
            p[0], p[1], g[0], g[1]
        );
    }
}
