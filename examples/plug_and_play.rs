//! AdapTraj is plug-and-play: the same framework configuration wraps two
//! structurally different backbones — PECNet (endpoint CVAE) and LBEBM
//! (latent energy-based model) — through the shared `Backbone` trait.
//!
//! ```sh
//! cargo run --release --example plug_and_play
//! ```

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::TrajWindow;
use adaptraj::eval::evaluate;
use adaptraj::models::{BackboneConfig, Lbebm, PecNet, Predictor, TrainerConfig};

fn main() {
    let synth = SynthesisConfig::default();
    let sources = [DomainId::EthUcy, DomainId::Syi];
    let target = synthesize_domain(DomainId::Sdd, &synth);
    let test: Vec<&TrajWindow> = target.test.iter().take(150).collect();
    let mut train = Vec::new();
    for &s in &sources {
        train.extend(synthesize_domain(s, &synth).train);
    }

    let cfg = AdapTrajConfig {
        trainer: TrainerConfig {
            epochs: 8,
            max_train_windows: 150,
            ..TrainerConfig::default()
        },
        e_start: 6,
        e_end: 7,
        ..AdapTrajConfig::default()
    };

    // Identical framework config, two different backbones — the only
    // difference is the constructor closure.
    let mut pecnet = AdapTraj::new(cfg.clone(), &sources, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    });
    let mut lbebm = AdapTraj::new(cfg, &sources, |s, r, extra| {
        Lbebm::new(s, r, BackboneConfig::default().with_extra(extra))
    });

    for model in [&mut pecnet as &mut dyn Predictor, &mut lbebm] {
        let t0 = std::time::Instant::now();
        model.fit(&train);
        println!(
            "{:16} trained in {:5.1}s -> unseen SDD ADE/FDE {}",
            model.name(),
            t0.elapsed().as_secs_f64(),
            evaluate(model, &test, 3, 7, 1).0
        );
    }
    println!("\nSame framework object model, two generative families — the");
    println!("encode/generate split in the Backbone trait is the plug point.");
}
