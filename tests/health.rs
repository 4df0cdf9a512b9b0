//! Training-health observatory suite: the observation-only contract
//! (bit-identical results for every worker count, with the health
//! capture ON), the pinned-seed per-domain gradient diagnostics in each
//! epoch record, and the injected-NaN tripwire → policy → run record →
//! doctor path.
//!
//! The observatory's state (enable flag, policy, incident store) is
//! process-global, so every test here serializes on [`LOCK`] and
//! restores the disabled default before releasing it.

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::doctor::{diagnose, parse_manifest, run_doctor, DoctorArgs};
use adaptraj::models::{BackboneConfig, CausalMotion, PecNet, Predictor, TrainReport};
use adaptraj::obs::health::{self, Incident, Policy};
use adaptraj::obs::json::Value;
use adaptraj::obs::{profile, RunTelemetry};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Arms the observatory, runs the smoke AdapTraj workload, and returns
/// the training report (whose epoch records carry the health fields)
/// plus the recorded incidents. The profiler is armed too so incidents
/// carry phase paths, mirroring the CLI's behavior.
fn run_health_workload(workers: usize, sources: &[DomainId]) -> (TrainReport, Vec<Incident>) {
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
    (report, health::incidents())
}

/// Each epoch record as the manifest serializes it, with the wall-clock
/// duration zeroed: every other field (losses, norms, per-domain norms,
/// cosines, update ratios) must match bit for bit across runs.
fn epochs_json(report: &TrainReport) -> Vec<String> {
    report
        .epochs
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.duration_s = 0.0;
            e.to_json()
        })
        .collect()
}

/// The same run's manifest, as `doctor --run` reads it back.
fn manifest(report: &TrainReport, incidents: &[Incident], halted: bool) -> RunTelemetry {
    RunTelemetry {
        epochs: report.epochs.clone(),
        incidents: incidents.to_vec(),
        halted,
        ..RunTelemetry::default()
    }
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
    let (report_1, incidents_1) = run_health_workload(1, &TWO_SOURCES);
    let (report_4, incidents_4) = run_health_workload(4, &TWO_SOURCES);
    disarm();

    // Health capture must not perturb training: losses bit-identical.
    let (losses_1, losses_4) = (&report_1.epoch_losses, &report_4.epoch_losses);
    assert_eq!(losses_1.len(), losses_4.len());
    for (e, (a, b)) in losses_1.iter().zip(losses_4).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} loss differs");
    }

    // The health fields themselves (per-domain grad norms, pairwise
    // cosines, update ratios — exact f64s) match for any worker count.
    assert_eq!(report_1.epochs.len(), report_4.epochs.len());
    for (a, b) in report_1.epochs.iter().zip(&report_4.epochs) {
        assert!(!a.domains.is_empty(), "no health fields captured");
        assert_eq!((a.epoch, &a.phase), (b.epoch, &b.phase));
        assert_eq!(
            a.domains, b.domains,
            "epoch {}: domain norms differ",
            a.epoch
        );
        assert_eq!(a.cosines, b.cosines, "epoch {}: cosines differ", a.epoch);
        assert_eq!(a.update_ratios, b.update_ratios, "epoch {}", a.epoch);
    }
    assert!(incidents_1.is_empty() && incidents_4.is_empty());

    // And so does every serialized epoch record, durations excluded.
    assert_eq!(epochs_json(&report_1), epochs_json(&report_4));
}

#[test]
fn pinned_seed_three_source_run_emits_pairwise_cosines_every_epoch() {
    let _g = LOCK.lock().unwrap();
    let (report_a, _) = run_health_workload(2, &THREE_SOURCES);
    let (report_b, _) = run_health_workload(2, &THREE_SOURCES);
    disarm();

    // Pinned seed (AdapTrajConfig::smoke's default) => reproducible
    // diagnostics, down to the bit.
    assert_eq!(
        epochs_json(&report_a),
        epochs_json(&report_b),
        "pinned-seed health series drifted"
    );

    let epochs = &report_a.epochs;
    assert_eq!(epochs.len(), 3, "one record per epoch");
    for e in epochs {
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

/// A float read back from the manifest the way doctor reads it: `null`
/// (a non-finite value) comes back as NaN.
fn read_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

#[test]
fn injected_nan_is_attributed_and_doctor_flags_it() {
    let _g = LOCK.lock().unwrap();
    health::set_inject_nan(Some(500));
    let (report, incidents) = run_health_workload(2, &TWO_SOURCES);
    disarm();

    let incident = incidents
        .first()
        .cloned()
        .expect("injected NaN did not trip a wire");
    assert!(!incident.op.is_empty(), "incident missing op kind");
    assert!(!incident.phase.is_empty(), "incident missing phase path");
    assert!(incident.stats.nan_count >= 1);

    // The doctor pins the same incident as the first unhealthy op and
    // goes fatal on it.
    let json = manifest(&report, &incidents, false).to_json();
    let v = parse_manifest(&json).unwrap();
    let d = diagnose(&v);
    assert!(d.fatal());
    let first = d.first_unhealthy_op.as_ref().unwrap();
    assert_eq!(first.op, incident.op);
    assert_eq!(first.phase, incident.phase);

    // The manifest round-trips the incidents and the health fields. A
    // non-finite value is written as `null` and reads back as NaN, so
    // compare NaN-aware: the Debug form prints NaN as `NaN` and every
    // other f64 in its exact shortest round-trip form, so equal
    // renderings mean NaN matched NaN and every other field matched
    // exactly.
    let back: Vec<Incident> = v
        .get("incidents")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(Incident::from_json)
        .collect();
    assert_eq!(format!("{back:?}"), format!("{incidents:?}"));
    let epochs = v.get("epochs").and_then(Value::as_array).unwrap();
    for (e, ev) in report.epochs.iter().zip(epochs) {
        let cosines = ev.get("cosines").and_then(Value::as_array).unwrap();
        let written: Vec<f64> = cosines.iter().map(|c| read_f64(c, "cosine")).collect();
        let want: Vec<f64> = e.cosines.iter().map(|c| c.cosine).collect();
        assert_eq!(
            format!("{written:?}"),
            format!("{want:?}"),
            "epoch {}",
            e.epoch
        );
        let domains = ev.get("domains").and_then(Value::as_array).unwrap();
        let written: Vec<f64> = domains.iter().map(|d| read_f64(d, "grad_norm")).collect();
        let want: Vec<f64> = e.domains.iter().map(|d| d.grad_norm).collect();
        assert_eq!(
            format!("{written:?}"),
            format!("{want:?}"),
            "epoch {}",
            e.epoch
        );
    }
}

#[test]
fn halt_and_dump_stops_training_and_the_run_record_keeps_the_incident() {
    let _g = LOCK.lock().unwrap();
    health::set_policy(Policy::HaltAndDump);
    health::set_inject_nan(Some(500));
    let (report, incidents) = run_health_workload(2, &TWO_SOURCES);
    let halted = health::halt_requested();
    disarm();
    assert!(halted, "halt latch never set");
    // Training stopped at the epoch that tripped.
    assert!(
        report.epoch_losses.len() < 3,
        "training ran to completion despite halt"
    );
    assert!(!incidents.is_empty());

    // The written record keeps the halt and the incident, and doctor
    // reads both back from the run directory.
    let dir = std::env::temp_dir().join(format!("adaptraj_health_run_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(adaptraj::run_dir::MANIFEST);
    manifest(&report, &incidents, halted)
        .write_to_file(&path)
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(r#""halted":true"#), "{text}");
    let d = run_doctor(&DoctorArgs {
        run: Some(dir.to_string_lossy().into_owned()),
        ..DoctorArgs::default()
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(d.fatal());
    assert!(d.incident_count >= 1);
    assert_eq!(d.first_unhealthy_op.as_ref(), incidents.first());
}

#[test]
fn health_capture_is_observation_only() {
    let _g = LOCK.lock().unwrap();
    let (report_on, _) = run_health_workload(2, &TWO_SOURCES);
    disarm();
    assert!(report_on.epochs.iter().all(|e| !e.domains.is_empty()));
    let losses_on = report_on.epoch_losses;

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
    let (report_1, incidents_1) = run(1);
    let (report_4, incidents_4) = run(4);
    disarm();

    // The skipped window drops out of the reduction identically for any
    // worker count: same losses, same epoch records, same incidents.
    let (losses_1, losses_4) = (&report_1.epoch_losses, &report_4.epoch_losses);
    assert_eq!(losses_1.len(), losses_4.len());
    for (a, b) in losses_1.iter().zip(losses_4) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(epochs_json(&report_1), epochs_json(&report_4));
    assert!(!incidents_1.is_empty());
    assert_eq!(incidents_1, incidents_4);
    // Training ran to completion (skip-window does not halt).
    assert_eq!(losses_1.len(), 3);
}

#[test]
fn causal_motion_emits_per_domain_health_every_epoch() {
    let _g = LOCK.lock().unwrap();
    let mut streams = Vec::new();
    for workers in [1, 2] {
        let (report, finite) = run_causal_motion_workload(workers);
        let incidents = health::incidents();
        disarm();
        assert!(finite);
        assert!(incidents.is_empty());
        assert_eq!(report.epochs.len(), 3);
        for e in &report.epochs {
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
        streams.push(epochs_json(&report));
    }
    assert_eq!(
        streams[0], streams[1],
        "health series differ across workers"
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
    let incidents = health::incidents();
    let halted = health::halt_requested();
    disarm();
    assert!(halted, "halt latch never set");
    assert!(
        report.epochs.len() < 3,
        "training ran to completion despite halt"
    );
    assert!(finite);
    let incident = incidents.first().expect("injected NaN did not trip a wire");
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
