//! Integration tests for the observability crate: histogram accuracy
//! against a brute-force oracle, registry round-trips, and the JSONL sink
//! schema golden.

use adaptraj_obs::{
    add_sink, clear_sinks, emit, set_max_level, FieldValue, JsonlSink, Level, Registry, Sink,
};
use std::sync::Arc;

/// Minimal deterministic generator (64-bit LCG, Knuth constants) so the
/// oracle test needs no external randomness.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank quantile over the raw samples — the oracle the streaming
/// histogram is checked against.
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_match_sorted_sample_oracle() {
    // Log-bucketed sketch with GAMMA = 1.02 guarantees ~1% relative error;
    // allow 2.5% for rank discretization at the distribution tails.
    let reg = Registry::new();
    let h = reg.histogram("oracle");
    let mut rng = Lcg(0x9E3779B97F4A7C15);
    let mut samples = Vec::with_capacity(5000);
    for _ in 0..5000 {
        // Log-uniform over ~6 decades, the shape of latency data.
        let v = 10f64.powf(rng.next_f64() * 6.0 - 3.0);
        h.record(v);
        samples.push(v);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let snap = h.snapshot();
    assert_eq!(snap.count, 5000);
    for (q, got) in [
        (0.5, snap.p50),
        (0.9, snap.p90),
        (0.99, snap.p99),
        (0.999, snap.p999),
    ] {
        let want = oracle_quantile(&samples, q);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.025, "p{q}: got {got}, oracle {want}, rel err {rel}");
    }
    // Extremes are tracked exactly, not sketched.
    assert_eq!(snap.min, samples[0]);
    assert_eq!(snap.max, samples[samples.len() - 1]);
}

#[test]
fn counter_and_gauge_round_trip_through_the_registry() {
    let reg = Registry::new();
    reg.counter("windows").add(41);
    reg.counter("windows").incr();
    reg.gauge("lr").set(3e-3);
    // Handles obtained later observe earlier writes (shared state, not
    // per-handle copies).
    assert_eq!(reg.counter("windows").get(), 42);
    assert!((reg.gauge("lr").get() - 3e-3).abs() < 1e-12);

    let dump = reg.dump_jsonl();
    assert!(dump
        .iter()
        .any(|l| l == r#"{"type":"counter","name":"windows","value":42}"#));
    assert!(dump
        .iter()
        .any(|l| l.starts_with(r#"{"type":"gauge","name":"lr","value":0.003"#)));

    reg.reset();
    assert!(reg.dump_jsonl().is_empty());
    // A fresh handle after reset starts from zero.
    assert_eq!(reg.counter("windows").get(), 0);
}

#[test]
fn jsonl_sink_writes_the_documented_schema() {
    let path =
        std::env::temp_dir().join(format!("adaptraj_obs_golden_{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("temp path is utf-8");
    {
        let sink = Arc::new(JsonlSink::create(path_str).expect("create jsonl"));
        clear_sinks();
        add_sink(sink.clone());
        set_max_level(Level::Debug);
        emit(
            Level::Info,
            "test.golden",
            "hello",
            vec![
                ("epoch", FieldValue::U64(3)),
                ("loss", FieldValue::F64(0.25)),
            ],
        );
        emit(
            Level::Debug,
            "test.golden",
            "work",
            vec![("n", 7u64.into()), ("elapsed_ms", 12.5.into())],
        );
        sink.write_raw_line(r#"{"type":"counter","name":"demo","value":1}"#);
        clear_sinks();
        set_max_level(Level::Info);
        sink.flush();
    }
    let text = std::fs::read_to_string(&path).expect("read jsonl back");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "two events + raw metric line: {text}");

    // Line 1: the emitted event, with the full stable field set.
    assert!(
        lines[0].starts_with(r#"{"type":"event","ts_ms":"#),
        "{}",
        lines[0]
    );
    assert!(
        lines[0].contains(
            r#""level":"info","target":"test.golden","msg":"hello","fields":{"epoch":3,"loss":0.25}"#
        ),
        "{}",
        lines[0]
    );

    // Line 2: a debug event passes the debug filter; a duration is an
    // ordinary field.
    assert!(
        lines[1].contains(r#""msg":"work","fields":{"n":7,"elapsed_ms":12.5}}"#),
        "{}",
        lines[1]
    );

    // Line 3: raw metric lines pass through verbatim.
    assert_eq!(lines[2], r#"{"type":"counter","name":"demo","value":1}"#);
}

/// Concurrent writers must never tear lines: each line plus its newline
/// goes through one locked `write_all`, so every line in the file is a
/// complete record from exactly one writer.
#[test]
fn jsonl_sink_lines_are_atomic_under_concurrent_writers() {
    const THREADS: usize = 8;
    const LINES_PER_THREAD: usize = 250;

    let path =
        std::env::temp_dir().join(format!("adaptraj_obs_stress_{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("temp path is utf-8");
    let sink = Arc::new(JsonlSink::create(path_str).expect("create jsonl"));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sink = Arc::clone(&sink);
            s.spawn(move || {
                for i in 0..LINES_PER_THREAD {
                    // Long enough payload that a torn write would split it
                    // across a flush boundary.
                    sink.write_raw_line(&format!(
                        r#"{{"type":"stress","thread":{t},"index":{i},"pad":"{}"}}"#,
                        "x".repeat(200)
                    ));
                }
            });
        }
    });
    sink.flush();

    let text = std::fs::read_to_string(&path).expect("read stress file back");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), THREADS * LINES_PER_THREAD);

    // Every (thread, index) pair appears exactly once and every line is
    // intact, well-formed JSON.
    let mut seen = std::collections::BTreeSet::new();
    for line in lines {
        let v = adaptraj_obs::json::Value::parse(line)
            .unwrap_or_else(|e| panic!("torn or invalid line {line:?}: {e}"));
        let t = v.get("thread").and_then(|x| x.as_u64()).expect("thread id");
        let i = v.get("index").and_then(|x| x.as_u64()).expect("index");
        assert_eq!(
            v.get("pad").and_then(|x| x.as_str()).map(str::len),
            Some(200)
        );
        assert!(seen.insert((t, i)), "duplicate line for ({t},{i})");
    }
    assert_eq!(seen.len(), THREADS * LINES_PER_THREAD);
}
