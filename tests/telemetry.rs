//! Cross-crate observability tests: training produces a manifest with one
//! record per epoch, finite decomposed losses, and phase timings, the
//! whole thing serializes as the documented JSON schema with the final
//! metrics-registry snapshot as its `metrics` array, the flight
//! recorder captures the same span set regardless of worker count and
//! attributes every profiled op of training and evaluation to a span, and
//! the telemetry endpoint serves scrapeable text.
//!
//! The profiler, timeline, and metrics registry are process-global, so
//! every test here serializes on [`test_lock`].

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::trajectory::TrajWindow;
use adaptraj::eval::evaluate;
use adaptraj::models::{BackboneConfig, PecNet, Predictor, TrainerConfig};
use adaptraj::obs::json::Value;
use adaptraj::obs::serve::TelemetryServer;
use adaptraj::obs::{profile, timeline};
use adaptraj::obs::{EvalSummary, RunTelemetry, MANIFEST_SCHEMA};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_synth() -> SynthesisConfig {
    SynthesisConfig {
        scenes: 5,
        steps_per_scene: 320,
        ..SynthesisConfig::smoke()
    }
}

/// A three-epoch PECNet-AdapTraj fit on `workers` workers: the model and
/// its report.
fn fit_with_workers(
    workers: usize,
) -> (Box<dyn Predictor>, adaptraj::models::predictor::TrainReport) {
    let sources = [DomainId::EthUcy, DomainId::LCas];
    let synth = tiny_synth();
    let mut train = Vec::new();
    for &s in &sources {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let cfg = AdapTrajConfig {
        trainer: TrainerConfig {
            epochs: 3,
            batch_size: 8,
            max_train_windows: 16,
            workers,
            ..TrainerConfig::default()
        },
        e_start: 1,
        e_end: 2,
        ..AdapTrajConfig::default()
    };
    let mut model = AdapTraj::new(cfg, &sources, |s, r, extra| {
        PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
    });
    let report = model.fit(&train);
    (Box::new(model), report)
}

fn train_report() -> adaptraj::models::predictor::TrainReport {
    fit_with_workers(1).1
}

#[test]
fn manifest_has_one_finite_record_per_epoch() {
    let _g = test_lock();
    let report = train_report();
    let mut telemetry = RunTelemetry::new();
    telemetry.config("backbone", "PecNet");
    telemetry.config("seed", 1u64);
    for rec in report.epochs {
        telemetry.push_epoch(rec);
    }
    for p in &report.phases {
        telemetry.push_phase(&p.phase, p.duration_s);
    }
    telemetry.eval = Some(EvalSummary {
        ade: 0.5,
        fde: 0.9,
        infer_time_s: 0.001,
        num_windows: 10,
    });

    // One record per epoch, numbered 0..n, all with finite core quantities.
    assert_eq!(telemetry.epochs.len(), 3);
    for (i, rec) in telemetry.epochs.iter().enumerate() {
        assert_eq!(rec.epoch, i);
        assert!(rec.loss.is_finite(), "epoch {i} loss {}", rec.loss);
        assert!(rec.grad_norm.is_finite(), "epoch {i} grad_norm");
        assert!(rec.duration_s >= 0.0);
        assert_eq!(rec.non_finite_batches, 0);
        // The AdapTraj loss decomposition is populated every epoch.
        assert!(rec.components.backbone.is_finite(), "epoch {i} backbone");
        assert!(rec.components.recon.is_finite(), "epoch {i} recon");
        assert!(rec.components.similar.is_finite(), "epoch {i} similar");
        assert!(!rec.group_norms.is_empty(), "epoch {i} group norms");
        for g in &rec.group_norms {
            assert!(g.grad_norm.is_finite() && g.param_norm.is_finite());
        }
    }
    // The three-step schedule reports a wall-clock phase per step taken.
    assert!(!telemetry.phases.is_empty());
    assert!(telemetry.phases.iter().all(|p| p.duration_s > 0.0));

    let json = telemetry.to_json();
    assert!(json.contains(&format!(r#""schema":"{MANIFEST_SCHEMA}""#)));
    assert!(json.contains(r#""num_epochs":3"#));
    assert!(json.contains(r#""non_finite_batches_total":0"#));
    assert!(json.contains(r#""ade":0.5"#));
}

#[test]
fn manifest_round_trips_through_a_file() {
    let _g = test_lock();
    let report = train_report();
    let mut telemetry = RunTelemetry::new();
    for rec in report.epochs {
        telemetry.push_epoch(rec);
    }
    telemetry.metrics = adaptraj::obs::global().dump_jsonl();
    let path = std::env::temp_dir().join(format!("adaptraj_manifest_{}.json", std::process::id()));
    telemetry.write_to_file(&path).expect("write manifest");
    let text = std::fs::read_to_string(&path).expect("read manifest back");
    std::fs::remove_file(&path).ok();
    assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
    assert_eq!(text, format!("{}\n", telemetry.to_json()));

    // The written manifest carries the registry snapshot; training just
    // ran backward passes, so their counter is in it.
    let manifest = Value::parse(&text).expect("manifest parses");
    let metrics = manifest
        .get("metrics")
        .and_then(Value::as_array)
        .expect("manifest has a metrics array");
    let backward = metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("tensor.backward_calls"))
        .expect("metrics carry tensor.backward_calls");
    assert_eq!(
        backward.get("type").and_then(Value::as_str),
        Some("counter")
    );
    assert!(backward.get("value").and_then(Value::as_u64).unwrap_or(0) > 0);
}

/// Trains and evaluates once under the profiler + flight recorder and
/// returns the per-phase call rollup, the per-name span counts and the
/// folded stacks. Durations are wall-clock and vary run to run; call
/// counts must not.
fn capture_rollups(workers: usize) -> (BTreeMap<String, u64>, BTreeMap<String, usize>, String) {
    let synth = tiny_synth();
    let target = synthesize_domain(DomainId::Sdd, &synth).test;
    let test: Vec<&TrajWindow> = target.iter().take(4).collect();
    profile::reset();
    profile::set_enabled(true);
    timeline::reset();
    timeline::set_enabled(true);
    let (model, report) = fit_with_workers(workers);
    evaluate(model.as_ref(), &test, 2, 0, workers);
    timeline::set_enabled(false);
    profile::set_enabled(false);
    assert_eq!(report.epochs.len(), 3);
    let snapshot = profile::snapshot();
    let folded = timeline::folded_stacks(&snapshot);
    let phases = snapshot
        .by_phase()
        .into_iter()
        .map(|row| (row.phase, row.calls))
        .collect();
    (phases, timeline::snapshot().span_counts(), folded)
}

/// The same training run and evaluation must produce the same profiler
/// phase rollup and the same timeline span *set* whether jobs run inline
/// (1 worker) or across the thread pool (4 workers) — only timings and
/// lane assignment may differ. Every profiled op sits under some span:
/// an `(unattributed)` folded stack means a job lost its dispatcher's
/// span path.
#[test]
fn timeline_span_set_invariant_across_worker_counts() {
    let _g = test_lock();
    let (phases_1, spans_1, folded_1) = capture_rollups(1);
    let (phases_4, spans_4, folded_4) = capture_rollups(4);

    assert!(!spans_1.is_empty(), "flight recorder captured nothing");
    for required in [
        "queue_wait",
        "job_run",
        "grad_reduce",
        "epoch",
        "encode",
        "evaluate",
    ] {
        assert!(spans_1.contains_key(required), "missing span '{required}'");
    }
    for (workers, folded) in [(1, &folded_1), (4, &folded_4)] {
        assert!(!folded.is_empty(), "no profiled ops at {workers} worker(s)");
        let unattributed: Vec<&str> = folded
            .lines()
            .filter(|l| l.starts_with("(unattributed)"))
            .collect();
        assert!(
            unattributed.is_empty(),
            "unattributed ops at {workers} worker(s): {unattributed:?}"
        );
    }
    assert_eq!(spans_1, spans_4, "span set depends on worker count");
    assert_eq!(phases_1, phases_4, "phase rollup depends on worker count");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect telemetry endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Endpoint smoke: /metrics exposes histogram quantiles including p999,
/// /healthz answers, and /profile returns the profiler JSON document.
#[test]
fn serve_endpoint_scrapes_metrics_healthz_and_profile() {
    let _g = test_lock();
    let registry = adaptraj::obs::global();
    let hist = registry.histogram("serve_test.latency_ms");
    for i in 0..100 {
        hist.record(1.0 + i as f64);
    }
    registry.counter("serve_test.requests").add(3);

    let server = TelemetryServer::start("127.0.0.1:0").expect("bind telemetry endpoint");
    let addr = server.local_addr();

    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(
        metrics.contains("# TYPE serve_test_latency_ms summary"),
        "{metrics}"
    );
    for q in ["0.5", "0.9", "0.99", "0.999"] {
        assert!(
            metrics.contains(&format!("serve_test_latency_ms{{quantile=\"{q}\"}}")),
            "missing quantile {q} in:\n{metrics}"
        );
    }
    assert!(metrics.contains("serve_test_latency_ms_count"), "{metrics}");
    assert!(metrics.contains("serve_test_requests 3"), "{metrics}");

    let health = http_get(addr, "/healthz");
    assert!(
        health.starts_with("HTTP/1.1 200") && health.ends_with("ok\n"),
        "{health}"
    );

    let prof = http_get(addr, "/profile");
    assert!(prof.starts_with("HTTP/1.1 200"), "{prof}");
    let body = prof.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        body.trim_start().starts_with('{'),
        "profile body not JSON: {body}"
    );

    server.stop();
}
