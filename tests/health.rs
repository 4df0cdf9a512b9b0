//! Training-health observatory suite: the observation-only contract
//! (bit-identical results for every worker count, with the health
//! capture ON), the pinned-seed per-domain gradient diagnostics, and the
//! injected-NaN tripwire → policy → bundle → doctor path.
//!
//! The observatory's state (enable flag, policy, record store) is
//! process-global, so every test here serializes on [`LOCK`] and
//! restores the disabled default before releasing it.

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::doctor::{diagnose, parse_health_jsonl};
use adaptraj::models::{BackboneConfig, CausalMotion, PecNet, Predictor, TrainReport};
use adaptraj::obs::health::{self, HealthRecord, Policy};
use adaptraj::obs::json::Value;
use adaptraj::obs::profile;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Arms the observatory, runs the smoke AdapTraj workload, and returns
/// the per-epoch losses plus the captured health record stream. The
/// profiler is armed too so incidents carry phase paths, mirroring the
/// CLI's behavior.
fn run_health_workload(workers: usize, sources: &[DomainId]) -> (Vec<f32>, Vec<HealthRecord>) {
    health::reset();
    health::set_enabled(true);
    profile::reset();
    profile::set_enabled(true);

    let synth = SynthesisConfig::smoke();
    let mut train = Vec::new();
    for &s in sources {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let mut cfg = AdapTrajConfig::smoke();
    cfg.trainer.epochs = 3;
    cfg.trainer.max_train_windows = 24;
    cfg.trainer.workers = workers;
    let mut model = AdapTraj::new(cfg, sources, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    });
    let report = model.fit(&train);

    profile::set_enabled(false);
    health::set_enabled(false);
    (report.epoch_losses, health::records())
}

/// Arms the observatory (and the profiler, for incident phase paths)
/// and trains the smoke CausalMotion workload on two sources; returns
/// the report and whether every parameter stayed finite.
fn run_causal_motion_workload(workers: usize) -> (TrainReport, bool) {
    health::reset();
    health::set_enabled(true);
    profile::reset();
    profile::set_enabled(true);
    let synth = SynthesisConfig::smoke();
    let mut train = Vec::new();
    for &s in &TWO_SOURCES {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let mut cfg = AdapTrajConfig::smoke().trainer;
    cfg.epochs = 3;
    cfg.max_train_windows = 24;
    cfg.workers = workers;
    let mut model = CausalMotion::new(cfg, |s, r| PecNet::new(s, r, BackboneConfig::default()));
    let report = model.fit(&train);
    profile::set_enabled(false);
    health::set_enabled(false);
    let store = Predictor::store(&model);
    let finite = store.ids().all(|id| store.value(id).all_finite());
    (report, finite)
}

/// Restores the disabled defaults (paired with every armed test).
fn disarm() {
    health::set_enabled(false);
    health::set_policy(Policy::Warn);
    health::set_inject_nan(None);
    health::set_inject_window(None);
    health::reset();
    profile::set_enabled(false);
}

const TWO_SOURCES: [DomainId; 2] = [DomainId::EthUcy, DomainId::LCas];
const THREE_SOURCES: [DomainId; 3] = [DomainId::EthUcy, DomainId::LCas, DomainId::Syi];

#[test]
fn workers_1_and_4_emit_identical_health_series() {
    let _g = LOCK.lock().unwrap();
    let (losses_1, records_1) = run_health_workload(1, &TWO_SOURCES);
    let (losses_4, records_4) = run_health_workload(4, &TWO_SOURCES);
    disarm();

    // Health capture must not perturb training: losses bit-identical.
    assert_eq!(losses_1.len(), losses_4.len());
    for (e, (a, b)) in losses_1.iter().zip(&losses_4).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} loss differs");
    }

    // The record streams themselves (per-domain grad norms, pairwise
    // cosines, update ratios — exact f64s) match for any worker count.
    assert!(!records_1.is_empty(), "no health records captured");
    assert_eq!(records_1, records_4, "health record streams differ");

    // And so does the serialized JSONL, modulo the header timestamp
    // (pinned here to the same value).
    assert_eq!(
        health::render_jsonl(&records_1, 0),
        health::render_jsonl(&records_4, 0)
    );
}

#[test]
fn pinned_seed_three_source_run_emits_pairwise_cosines_every_epoch() {
    let _g = LOCK.lock().unwrap();
    let (_, records_a) = run_health_workload(2, &THREE_SOURCES);
    let (_, records_b) = run_health_workload(2, &THREE_SOURCES);
    disarm();

    // Pinned seed (AdapTrajConfig::smoke's default) => reproducible
    // diagnostics, down to the bit.
    assert_eq!(records_a, records_b, "pinned-seed health series drifted");

    let epochs: Vec<_> = records_a
        .iter()
        .filter_map(|r| match r {
            HealthRecord::Epoch(e) => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(epochs.len(), 3, "one health record per epoch");
    for e in &epochs {
        // All three domains and all 3-choose-2 ordered pairs, per epoch.
        let domains: Vec<&str> = e.domains.iter().map(|d| d.domain.as_str()).collect();
        assert_eq!(domains, ["ETH&UCY", "L-CAS", "SYI"]);
        let pairs: Vec<(&str, &str)> = e
            .cosines
            .iter()
            .map(|c| (c.a.as_str(), c.b.as_str()))
            .collect();
        assert_eq!(
            pairs,
            [("ETH&UCY", "L-CAS"), ("ETH&UCY", "SYI"), ("L-CAS", "SYI")]
        );
        for c in &e.cosines {
            assert!(
                c.cosine.is_finite() && c.cosine.abs() <= 1.0 + 1e-9,
                "cosine {}__{} out of range: {}",
                c.a,
                c.b,
                c.cosine
            );
        }
        for d in &e.domains {
            assert!(d.grad_norm.is_finite() && d.grad_norm >= 0.0);
        }
        assert!(!e.update_ratios.is_empty(), "no update-to-weight ratios");
    }

    // The same numbers are mirrored into the metrics registry as gauges
    // (the /metrics surface).
    let snap = adaptraj::obs::global().snapshot();
    let last = epochs.last().unwrap();
    for c in &last.cosines {
        let name = format!("health.grad_cosine.{}__{}", c.a, c.b);
        assert_eq!(
            snap.gauge(&name),
            Some(c.cosine),
            "gauge {name} missing or stale"
        );
    }
    for d in &last.domains {
        let name = format!("health.grad_norm.{}", d.domain);
        assert_eq!(snap.gauge(&name), Some(d.grad_norm));
    }
}

#[test]
fn injected_nan_is_attributed_and_doctor_flags_it() {
    let _g = LOCK.lock().unwrap();
    health::set_inject_nan(Some(500));
    let (_, records) = run_health_workload(2, &TWO_SOURCES);
    disarm();

    let incident = records
        .iter()
        .find_map(|r| match r {
            HealthRecord::Incident(i) => Some(i.clone()),
            _ => None,
        })
        .expect("injected NaN did not trip a wire");
    assert!(!incident.op.is_empty(), "incident missing op kind");
    assert!(!incident.phase.is_empty(), "incident missing phase path");
    assert!(incident.stats.nan_count >= 1);

    // The doctor pins the same incident as the first unhealthy op and
    // goes fatal on it.
    let d = diagnose(None, &records);
    assert!(d.fatal());
    let first = d.first_unhealthy_op.as_ref().unwrap();
    assert_eq!(first.op, incident.op);
    assert_eq!(first.phase, incident.phase);

    // The JSONL stream round-trips the incident. A non-finite value is
    // written as `null` and reads back as NaN, so compare NaN-aware: the
    // Debug form prints NaN as `NaN` and every other f64 in its exact
    // shortest round-trip form, so equal renderings mean NaN matched NaN
    // and every other field matched exactly.
    let text = health::render_jsonl(&records, 0);
    let back = parse_health_jsonl(&text).unwrap();
    assert_eq!(format!("{back:?}"), format!("{records:?}"));
}

#[test]
fn halt_and_dump_stops_training_and_writes_a_loadable_bundle() {
    let _g = LOCK.lock().unwrap();
    health::set_policy(Policy::HaltAndDump);
    health::set_inject_nan(Some(500));
    let (losses, records) = run_health_workload(2, &TWO_SOURCES);
    assert!(health::halt_requested(), "halt latch never set");
    // Training stopped at the epoch that tripped.
    assert!(losses.len() < 3, "training ran to completion despite halt");
    assert!(records
        .iter()
        .any(|r| matches!(r, HealthRecord::Incident(_))));

    let dir = std::env::temp_dir().join(format!("adaptraj_health_bundle_{}", std::process::id()));
    health::write_bundle(&dir, Some("{\"schema\":\"adaptraj-run-manifest/v1\"}"), 50).unwrap();
    disarm();

    let bundle = std::fs::read_to_string(dir.join("bundle.json")).unwrap();
    let v = Value::parse(&bundle).unwrap();
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some(health::BUNDLE_SCHEMA)
    );
    assert!(v.get("first_incident").is_some(), "bundle lacks incident");
    assert!(v.get("incidents").and_then(Value::as_u64).unwrap_or(0) >= 1);

    // Every listed file exists and the health tail re-parses.
    for f in v.get("files").and_then(Value::as_array).unwrap() {
        let name = f.as_str().unwrap();
        assert!(dir.join(name).exists(), "bundle file {name} missing");
    }
    let tail = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
    let parsed = parse_health_jsonl(&tail).unwrap();
    assert!(parsed
        .iter()
        .any(|r| matches!(r, HealthRecord::Incident(_))));
}

#[test]
fn health_capture_is_observation_only() {
    let _g = LOCK.lock().unwrap();
    let (losses_on, records) = run_health_workload(2, &TWO_SOURCES);
    disarm();
    assert!(!records.is_empty());

    // The identical workload with the observatory fully disarmed: the
    // probes and accumulators must not have changed a single bit.
    let synth = SynthesisConfig::smoke();
    let mut train = Vec::new();
    for &s in &TWO_SOURCES {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let mut cfg = AdapTrajConfig::smoke();
    cfg.trainer.epochs = 3;
    cfg.trainer.max_train_windows = 24;
    cfg.trainer.workers = 2;
    let mut model = AdapTraj::new(cfg, &TWO_SOURCES, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    });
    let losses_off = model.fit(&train).epoch_losses;

    assert_eq!(losses_on.len(), losses_off.len());
    for (e, (a, b)) in losses_on.iter().zip(&losses_off).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {e}: health capture perturbed training ({a} vs {b})"
        );
    }
}

#[test]
fn skip_window_policy_stays_deterministic_across_worker_counts() {
    let _g = LOCK.lock().unwrap();

    // Window-targeted injection: poison window 5 of epoch 0. Unlike the
    // op-index mode (a process-global counter, racy across workers),
    // this trigger is attached to the thread-local window context, so
    // the same window faults for every worker count.
    let run = |workers: usize| {
        health::set_policy(Policy::SkipWindow);
        health::set_inject_window(Some((0, 5)));
        run_health_workload(workers, &TWO_SOURCES)
    };
    let (losses_1, records_1) = run(1);
    let (losses_4, records_4) = run(4);
    disarm();

    // The skipped window drops out of the reduction identically for any
    // worker count: same losses, same record stream.
    assert_eq!(losses_1.len(), losses_4.len());
    for (a, b) in losses_1.iter().zip(&losses_4) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(records_1, records_4);
    // Training ran to completion (skip-window does not halt).
    assert_eq!(losses_1.len(), 3);
}

#[test]
fn causal_motion_emits_per_domain_health_every_epoch() {
    let _g = LOCK.lock().unwrap();
    let mut streams = Vec::new();
    for workers in [1, 2] {
        let (report, finite) = run_causal_motion_workload(workers);
        let records = health::records();
        disarm();
        assert!(finite);
        let epochs: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                HealthRecord::Epoch(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(epochs.len(), 3, "one health record per epoch");
        assert_eq!(report.epochs.len(), 3);
        for e in &epochs {
            assert_eq!(e.phase, "train");
            let domains: Vec<&str> = e.domains.iter().map(|d| d.domain.as_str()).collect();
            assert_eq!(domains, ["ETH&UCY", "L-CAS"], "workers={workers}");
            for d in &e.domains {
                assert!(d.grad_norm.is_finite() && d.grad_norm > 0.0, "{d:?}");
            }
            assert_eq!(e.cosines.len(), 1, "workers={workers}");
            let c = &e.cosines[0];
            assert_eq!((c.a.as_str(), c.b.as_str()), ("ETH&UCY", "L-CAS"));
            assert!(c.cosine.is_finite() && c.cosine.abs() <= 1.0 + 1e-9);
        }
        streams.push(records);
    }
    assert_eq!(
        streams[0], streams[1],
        "health streams differ across workers"
    );
}

#[test]
fn causal_motion_skips_non_finite_batches_and_honours_halt() {
    let _g = LOCK.lock().unwrap();

    // Warn: the poisoned batch takes no optimizer step, so the risk-gap
    // coefficient never spreads the NaN into the parameters.
    // Op-index injection counts ops process-wide, so it runs on one
    // worker to poison the same op every time: one whose NaN reaches the
    // loss.
    health::set_inject_nan(Some(200));
    let (report, finite) = run_causal_motion_workload(1);
    disarm();
    assert!(report.non_finite_total() > 0, "injected NaN never surfaced");
    assert!(finite, "a NaN loss reached the parameters");
    assert_eq!(report.epochs.len(), 3);

    // Halt-and-dump with the worker-count-deterministic `E:W` form: the
    // incident carries its window and training stops at the tripped epoch.
    health::set_policy(Policy::HaltAndDump);
    health::set_inject_window(Some((0, 3)));
    let (report, finite) = run_causal_motion_workload(2);
    let records = health::records();
    let halted = health::halt_requested();
    disarm();
    assert!(halted, "halt latch never set");
    assert!(
        report.epochs.len() < 3,
        "training ran to completion despite halt"
    );
    assert!(finite);
    let incident = records
        .iter()
        .find_map(|r| match r {
            HealthRecord::Incident(i) => Some(i.clone()),
            _ => None,
        })
        .expect("injected NaN did not trip a wire");
    assert_eq!(incident.epoch, 0);
    assert!(!incident.phase.is_empty(), "incident missing phase path");
}

#[test]
fn causal_motion_skips_a_non_finite_gradient_behind_a_finite_loss() {
    let _g = LOCK.lock().unwrap();

    // Op 100 on one worker poisons a value whose NaN reaches the
    // gradient but not the loss: the loss guard alone lets it through,
    // so the step must also be guarded on the gradient norm.
    health::set_inject_nan(Some(100));
    let (report, finite) = run_causal_motion_workload(1);
    disarm();
    assert!(finite, "a NaN gradient reached the parameters");
    assert!(
        report.non_finite_total() > 0,
        "the poisoned batch was not counted"
    );
    assert_eq!(report.epochs.len(), 3);
}
