//! Cross-crate integration tests: the full synthesize → preprocess →
//! train → predict → evaluate pipeline.

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::trajectory::{T_OBS, T_PRED};
use adaptraj::eval::metrics::{ade, best_of_k, fde};
use adaptraj::models::{BackboneConfig, PecNet, Predictor, TrainerConfig, Vanilla};
use adaptraj::tensor::Rng;

fn tiny_trainer() -> TrainerConfig {
    TrainerConfig {
        epochs: 2,
        batch_size: 8,
        max_train_windows: 16,
        ..TrainerConfig::default()
    }
}

fn tiny_synth() -> SynthesisConfig {
    SynthesisConfig {
        scenes: 5,
        steps_per_scene: 320,
        ..SynthesisConfig::smoke()
    }
}

#[test]
fn vanilla_pipeline_end_to_end() {
    let ds = synthesize_domain(DomainId::EthUcy, &tiny_synth());
    assert!(!ds.train.is_empty() && !ds.test.is_empty());
    let mut model = Vanilla::new(tiny_trainer(), |s, r| {
        PecNet::new(s, r, BackboneConfig::default())
    });
    let report = model.fit(&ds.train);
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));

    let mut rng = Rng::seed_from(0);
    let w = &ds.test[0];
    assert_eq!(w.obs.len(), T_OBS);
    let pred = model.predict(w, &mut rng);
    assert_eq!(pred.len(), T_PRED);
    let a = ade(&pred, &w.fut);
    let f = fde(&pred, &w.fut);
    assert!(a.is_finite() && f.is_finite() && a > 0.0);
}

#[test]
fn adaptraj_pipeline_on_unseen_domain() {
    let sources = [DomainId::EthUcy, DomainId::LCas];
    let synth = tiny_synth();
    let mut train = Vec::new();
    for &s in &sources {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let target = synthesize_domain(DomainId::Sdd, &synth);

    let cfg = AdapTrajConfig {
        e_start_frac: 0.5,
        e_end_frac: 1.0,
        ..AdapTrajConfig::default()
    };
    let mut model = AdapTraj::new(tiny_trainer(), cfg, &sources, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    });
    model.fit(&train);

    let mut rng = Rng::seed_from(1);
    let samples = model.predict_k(&target.test[0], 3, &mut rng);
    assert_eq!(samples.len(), 3);
    let (a, f) = best_of_k(&samples, &target.test[0].fut);
    assert!(a.is_finite() && f.is_finite());
    // Best-of-k is no worse than each individual sample.
    for s in &samples {
        assert!(a <= ade(s, &target.test[0].fut) + 1e-6);
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let ds = synthesize_domain(DomainId::LCas, &tiny_synth());
        let mut model = Vanilla::new(tiny_trainer(), |s, r| {
            PecNet::new(s, r, BackboneConfig::default())
        });
        model.fit(&ds.train);
        let mut rng = Rng::seed_from(5);
        model.predict(&ds.test[0], &mut rng)
    };
    assert_eq!(run(), run(), "same seeds must give identical predictions");
}

#[test]
fn training_improves_over_untrained_model() {
    let ds = synthesize_domain(DomainId::EthUcy, &tiny_synth());
    let eval = |model: &Vanilla<PecNet>| {
        let mut rng = Rng::seed_from(3);
        let mut total = 0.0;
        let n = ds.test.len().min(20);
        for w in ds.test.iter().take(n) {
            total += ade(&model.predict(w, &mut rng), &w.fut);
        }
        total / n as f32
    };
    let cfg = TrainerConfig {
        epochs: 6,
        max_train_windows: 60,
        ..tiny_trainer()
    };
    let mut model = Vanilla::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
    let before = eval(&model);
    model.fit(&ds.train);
    let after = eval(&model);
    assert!(
        after < before,
        "training should reduce in-domain ADE: {before} -> {after}"
    );
}

#[test]
fn checkpoint_round_trip_preserves_predictions() {
    use adaptraj::tensor::serialize::{load_params, save_params};
    let ds = synthesize_domain(DomainId::EthUcy, &tiny_synth());
    let mut model = Vanilla::new(tiny_trainer(), |s, r| {
        PecNet::new(s, r, BackboneConfig::default())
    });
    model.fit(&ds.train);
    let mut rng = Rng::seed_from(9);
    let before = model.predict(&ds.test[0], &mut rng);

    // Serialize, load into a freshly initialized twin, compare.
    let mut bytes = Vec::new();
    save_params(model.store(), &mut bytes).unwrap();
    let mut twin = Vanilla::new(
        TrainerConfig {
            seed: 12345, // different init
            ..tiny_trainer()
        },
        |s, r| PecNet::new(s, r, BackboneConfig::default()),
    );
    load_params(twin.store_mut(), &mut bytes.as_slice()).unwrap();
    let mut rng2 = Rng::seed_from(9);
    assert_eq!(
        before,
        twin.predict(&ds.test[0], &mut rng2),
        "loaded checkpoint must reproduce the trained model's predictions"
    );
}
