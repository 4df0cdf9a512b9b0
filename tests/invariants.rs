//! Cross-crate invariant tests: data hygiene, framework guarantees, and
//! metric protocol properties.

use adaptraj::core::{AdapTraj, AdapTrajConfig, SPECIFIC_GROUP};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::trajectory::{T_OBS, T_PRED, T_TOTAL};
use adaptraj::models::{BackboneConfig, PecNet, Predictor, TrainerConfig};
use adaptraj::tensor::Rng;

fn tiny_synth() -> SynthesisConfig {
    SynthesisConfig {
        scenes: 5,
        steps_per_scene: 320,
        ..SynthesisConfig::smoke()
    }
}

#[test]
fn splits_are_disjoint_in_origin_space() {
    // Windows from different splits must come from different scenes; with
    // per-scene normalization removed, identical (origin, obs) pairs
    // across splits would indicate leakage.
    let ds = synthesize_domain(DomainId::EthUcy, &tiny_synth());
    let key = |w: &adaptraj::data::TrajWindow| {
        (
            w.origin[0].to_bits(),
            w.origin[1].to_bits(),
            w.obs[0][0].to_bits(),
        )
    };
    let train: std::collections::HashSet<_> = ds.train.iter().map(key).collect();
    for w in ds.val.iter().chain(&ds.test) {
        assert!(
            !train.contains(&key(w)),
            "val/test window duplicated in train"
        );
    }
}

#[test]
fn every_window_respects_protocol_horizons() {
    for domain in DomainId::ALL {
        let ds = synthesize_domain(domain, &tiny_synth());
        for w in ds.all_windows() {
            assert_eq!(w.obs.len(), T_OBS);
            assert_eq!(w.fut.len(), T_PRED);
            assert_eq!(w.obs.len() + w.fut.len(), T_TOTAL);
            assert_eq!(w.obs[T_OBS - 1], [0.0, 0.0], "normalization origin");
            for nb in &w.neighbors {
                assert_eq!(nb.len(), T_OBS);
            }
            assert_eq!(w.domain, domain);
        }
    }
}

fn tiny_adaptraj(sources: &[DomainId]) -> AdapTraj<PecNet> {
    let trainer = TrainerConfig {
        epochs: 3,
        batch_size: 8,
        max_train_windows: 16,
        ..TrainerConfig::default()
    };
    AdapTraj::new(trainer, AdapTrajConfig::smoke(), sources, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    })
}

#[test]
fn inference_never_consults_the_domain_tag() {
    // The multi-source DG contract: at inference the target domain is
    // unknown, so mislabeling the window's domain tag must not change the
    // prediction.
    let sources = [DomainId::EthUcy, DomainId::LCas];
    let synth = tiny_synth();
    let mut train = Vec::new();
    for &s in &sources {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let mut model = tiny_adaptraj(&sources);
    model.fit(&train);

    let target = synthesize_domain(DomainId::Sdd, &synth);
    let w = target.test[0].clone();
    let mut w_mislabeled = w.clone();
    w_mislabeled.domain = DomainId::EthUcy;

    let mut r1 = Rng::seed_from(11);
    let mut r2 = Rng::seed_from(11);
    assert_eq!(
        model.predict(&w, &mut r1),
        model.predict(&w_mislabeled, &mut r2),
        "inference depended on the domain tag"
    );
}

#[test]
fn specific_experts_stay_frozen_through_step_two() {
    let sources = [DomainId::EthUcy, DomainId::LCas];
    let synth = tiny_synth();
    let mut train = Vec::new();
    for &s in &sources {
        train.extend(synthesize_domain(s, &synth).train);
    }
    // Configure so the final epoch is step 2 — after fit, specific params
    // must equal their values at the end of step 1. We check the weaker
    // but still structural invariant: a step-2-only training run leaves
    // the group untouched.
    let trainer = TrainerConfig {
        epochs: 1,
        batch_size: 8,
        max_train_windows: 8,
        ..TrainerConfig::default()
    };
    let cfg = AdapTrajConfig {
        e_start_frac: 0.0, // epoch 0 is already step 2
        e_end_frac: 1.0,
        ..AdapTrajConfig::default()
    };
    let mut model = AdapTraj::new(trainer, cfg, &sources, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    });
    let before: Vec<_> = model
        .store()
        .ids_in_group(SPECIFIC_GROUP)
        .iter()
        .map(|&id| model.store().value(id).clone())
        .collect();
    model.fit(&train);
    let ids = model.store().ids_in_group(SPECIFIC_GROUP);
    for (id, b) in ids.iter().zip(&before) {
        assert_eq!(
            model.store().value(*id),
            b,
            "specific expert moved in step 2"
        );
    }
}

#[test]
fn single_source_degenerate_case_works() {
    // K = 1 (single-source domain generalization, Tab. V) must be
    // supported: one expert, aggregator over a singleton sum.
    let sources = [DomainId::LCas];
    let ds = synthesize_domain(DomainId::LCas, &tiny_synth());
    let mut model = tiny_adaptraj(&sources);
    model.fit(&ds.train);
    let target = synthesize_domain(DomainId::Sdd, &tiny_synth());
    let mut rng = Rng::seed_from(2);
    let pred = model.predict(&target.test[0], &mut rng);
    assert_eq!(pred.len(), T_PRED);
    assert!(pred.iter().all(|p| p[0].is_finite() && p[1].is_finite()));
}

#[test]
fn neighbors_influence_predictions() {
    // The interaction pathway must be live: removing all neighbors from a
    // window changes the prediction (same sampling seed).
    let ds = synthesize_domain(DomainId::Syi, &tiny_synth());
    let w = ds
        .test
        .iter()
        .find(|w| !w.neighbors.is_empty())
        .expect("a window with neighbors")
        .clone();
    let mut model = tiny_adaptraj(&[DomainId::Syi]);
    model.fit(&ds.train);

    let mut lonely = w.clone();
    lonely.neighbors.clear();
    let mut r1 = Rng::seed_from(4);
    let mut r2 = Rng::seed_from(4);
    assert_ne!(
        model.predict(&w, &mut r1),
        model.predict(&lonely, &mut r2),
        "neighbor pathway appears dead"
    );
}
